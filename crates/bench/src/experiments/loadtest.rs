//! `loadtest` — the workload-driven load harness over searched
//! partitions: per-job latency percentiles (p50/p99/p99.9), QoS-violation
//! fractions, and tail CCDFs for a congested 2-job mix and a 5-job mix,
//! under every load trace, CLITE vs the equal-share baseline.
//!
//! Not a paper figure: this is the repo's own observability pipeline.
//! Every run writes the versioned JSON report (`results/reports/
//! loadtest.json`, or `$CLITE_LOAD_REPORT` when set — ci.sh points it at
//! a scratch file for the smoke gate). The `loadgate` binary diffs two
//! such reports and fails CI on tail regressions.

use std::path::PathBuf;

use clite_load::{LoadConfig, LoadReport, TraceKind};
use clite_sim::prelude::*;

use crate::loadrun::{equal_share_partition, load_scenario, searched_partition, EQUAL_SHARE};
use crate::mixes::Mix;
use crate::render::{pct, Table};
use crate::runner::{ambient_telemetry, PolicyKind};
use crate::{ExpOptions, Report};

/// Default report destination, overridable via `$CLITE_LOAD_REPORT`.
const DEFAULT_REPORT: &str = "results/reports/loadtest.json";

/// The two load-tested mixes: a congested 2-LC pair (where partitioning
/// quality shows up directly in the tail) and a 5-job mix with three LC
/// and two BG jobs (the fleet-realistic shape).
fn mixes() -> Vec<Mix> {
    vec![
        Mix::new(&[(WorkloadId::Memcached, 0.7), (WorkloadId::ImgDnn, 0.6)], &[]),
        Mix::new(
            &[(WorkloadId::ImgDnn, 0.4), (WorkloadId::Memcached, 0.4), (WorkloadId::Masstree, 0.4)],
            &[WorkloadId::Fluidanimate, WorkloadId::Blackscholes],
        ),
    ]
}

/// Runs the full loadtest grid and returns the report plus a rendered
/// table body. Shared by the experiment entry point and the acceptance
/// test.
#[must_use]
pub fn run_grid(opts: &ExpOptions) -> (LoadReport, String) {
    let base = if opts.quick {
        LoadConfig {
            windows: 6,
            queries_per_window: 4_000,
            threads: 4,
            seed: opts.seed,
            ..LoadConfig::default()
        }
    } else {
        LoadConfig {
            windows: 16,
            queries_per_window: 50_000,
            threads: 4,
            seed: opts.seed,
            ..LoadConfig::default()
        }
    };
    let telemetry = ambient_telemetry();
    let mut report = LoadReport::new(opts.seed);
    let mut body = String::new();

    for mix in mixes() {
        // One search per mix: the partition a policy commits to does not
        // depend on the trace it is later load-tested under.
        let clite = searched_partition(PolicyKind::Clite, &mix, opts.seed, &telemetry);
        let equal = equal_share_partition(&mix);
        let mut t = Table::new(vec![
            "trace",
            "policy",
            "job",
            "class",
            "p50 (us)",
            "p99 (us)",
            "p99.9 (us)",
            "QoS viol",
        ]);
        for trace in TraceKind::ALL {
            let config = LoadConfig { trace, ..base.clone() };
            for (label, partition) in [("CLITE", &clite), (EQUAL_SHARE, &equal)] {
                let scenario = load_scenario(&mix, label, partition, &config, &telemetry);
                for j in &scenario.jobs {
                    t.row(vec![
                        trace.name().to_owned(),
                        label.to_owned(),
                        j.job.clone(),
                        j.class.clone(),
                        j.tail.p50_us.to_string(),
                        j.tail.p99_us.to_string(),
                        j.tail.p999_us.to_string(),
                        j.tail
                            .qos_target_us
                            .map_or("-".to_owned(), |_| pct(j.tail.violation_fraction)),
                    ]);
                }
                report.push(scenario);
            }
        }
        body.push_str(&format!("mix: {}\n\n{}\n", mix.name, t.render()));
        body.push_str(&p99_delta_summary(&report, &mix.name));
    }
    (report, body)
}

/// One line per (trace, LC job): CLITE's p99 next to equal-share's, with
/// the ratio — the at-a-glance answer to "does the searched partition
/// actually buy tail latency".
fn p99_delta_summary(report: &LoadReport, mix: &str) -> String {
    let mut out = String::from("CLITE p99 vs equal-share:\n");
    for trace in TraceKind::ALL {
        let (Some(clite), Some(equal)) = (
            report.scenario(mix, trace.name(), "CLITE"),
            report.scenario(mix, trace.name(), EQUAL_SHARE),
        ) else {
            continue;
        };
        for (cj, ej) in clite.jobs.iter().zip(&equal.jobs) {
            if cj.class != "LC" {
                continue;
            }
            let ratio = cj.tail.p99_us as f64 / (ej.tail.p99_us as f64).max(1.0);
            out.push_str(&format!(
                "  {:8} {:12} {:>8} vs {:>8} us ({:.2}x)\n",
                trace.name(),
                cj.job,
                cj.tail.p99_us,
                ej.tail.p99_us,
                ratio
            ));
        }
    }
    out.push('\n');
    out
}

/// The report destination: `$CLITE_LOAD_REPORT` or the default path.
#[must_use]
pub fn report_path() -> PathBuf {
    std::env::var_os("CLITE_LOAD_REPORT")
        .map_or_else(|| PathBuf::from(DEFAULT_REPORT), PathBuf::from)
}

/// Experiment entry point.
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let (report, mut body) = run_grid(opts);
    let path = report_path();
    match report.save(&path) {
        Ok(()) => body.push_str(&format!("load report written to {}\n", path.display())),
        Err(e) => {
            body.push_str(&format!("WARNING: cannot write load report {}: {e}\n", path.display()))
        }
    }
    Report {
        id: "loadtest",
        title: "Load harness: latency percentiles under traces, CLITE vs equal-share".into(),
        body,
    }
}
