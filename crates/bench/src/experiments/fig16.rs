//! Fig. 16: adaptivity to dynamic load changes.
//!
//! img-dnn and masstree fixed at 10% load, memcached stepping 10% → 20% →
//! 30%, fluidanimate as the BG job. CLITE's adaptive loop re-invokes the
//! search at each step; the trace shows the re-partitioning transients and
//! the BG job's stable throughput decreasing step over step (resources
//! migrate to memcached), exactly the paper's reading of the figure.
//!
//! The adaptive loop runs on a [`MemoizedTestbed`]: steady-state windows
//! re-observe the committed partition at an unchanged load vector, so
//! after the first window of each step every subsequent steady window is
//! replayed from the cache instead of re-simulated. Cache keys embed the
//! load vector, so memcached's steps invalidate exactly the entries they
//! should.

use clite::adaptive::{run_adaptive, run_adaptive_with_store, AdaptiveConfig, Phase};
use clite::controller::CliteController;
use clite_sim::load::LoadSchedule;
use clite_sim::prelude::*;
use clite_sim::resource::ResourceKind;
use clite_sim::testbed::MemoizedTestbed;
use clite_store::ShardPolicy;

use crate::render::{pct, Table};
use crate::runner::ambient_telemetry;
use crate::{ExpOptions, Report};

/// Runs the experiment. With `--store` the adaptive loop runs against a
/// persistent observation store, so each re-invocation (and each repeat of
/// the whole experiment against the same path) warm-starts from stored
/// samples of the same or a nearby-load mix.
///
/// # Panics
///
/// Panics if the adaptive run fails or the store cannot be opened
/// (treated as harness bugs; the `experiments` binary opens `--store`
/// before it runs anything, so a bad path is an error there).
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let step_s = if opts.quick { 200.0 } else { 300.0 };
    let duration = 3.0 * step_s;
    let jobs = vec![
        JobSpec::latency_critical_scheduled(
            WorkloadId::Memcached,
            LoadSchedule::Steps(vec![(0.0, 0.10), (step_s, 0.20), (2.0 * step_s, 0.30)]),
        ),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.10),
        JobSpec::latency_critical(WorkloadId::Masstree, 0.10),
        JobSpec::background(WorkloadId::Fluidanimate),
    ];
    let server = Server::new(ResourceCatalog::testbed(), jobs, opts.seed).unwrap();
    let mut testbed = MemoizedTestbed::new(server);
    let mut store_line = None;
    let trace = match &opts.store {
        Some(path) => {
            let store = crate::open_store(path, ShardPolicy::for_path(path), &ambient_telemetry())
                .unwrap_or_else(|e| panic!("{e}"));
            let trace = run_adaptive_with_store(
                &CliteController::default(),
                &mut testbed,
                duration,
                AdaptiveConfig::default(),
                &store,
                &ambient_telemetry(),
            )
            .expect("adaptive run succeeds");
            let stats = store.stats();
            store_line = Some(format!(
                "observation store: {} warm hits, {} misses, {} samples appended; \
                 {} mixes, {} records kept at {}\n",
                stats.hits,
                stats.misses,
                stats.appends,
                store.mix_count(),
                store.record_count(),
                path.display()
            ));
            trace
        }
        None => run_adaptive(
            &CliteController::default(),
            &mut testbed,
            duration,
            AdaptiveConfig::default(),
        )
        .expect("adaptive run succeeds"),
    };

    let mut body = format!(
        "memcached load: 10% -> 20% (t={step_s:.0}s) -> 30% (t={:.0}s); invocations: {}\n\n",
        2.0 * step_s,
        trace.invocations
    );
    let mut t = Table::new(vec![
        "t (s)",
        "phase",
        "mem load",
        "mem cores",
        "mem b/w",
        "BG cores",
        "BG perf",
        "QoS",
    ]);
    let step = (trace.points.len() / 30).max(1);
    for (i, p) in trace.points.iter().enumerate() {
        if i % step != 0 && i + 1 != trace.points.len() {
            continue;
        }
        t.row(vec![
            format!("{:.0}", p.time_s),
            match p.phase {
                Phase::Search => "search".to_owned(),
                Phase::Steady => "steady".to_owned(),
            },
            pct(load_at(p.time_s, step_s)),
            p.partition.units(0, ResourceKind::Cores).to_string(),
            p.partition.units(0, ResourceKind::MemBandwidth).to_string(),
            p.partition.units(3, ResourceKind::Cores).to_string(),
            pct(p.observation.mean_bg_perf().unwrap_or(0.0)),
            if p.observation.all_qos_met() { "met".to_owned() } else { "VIOLATED".to_owned() },
        ]);
    }
    body.push_str(&t.render());
    body.push_str(&format!("\nsteady-state QoS fraction: {}\n", pct(trace.steady_qos_fraction())));
    body.push_str(&format!(
        "memoized windows: {} replayed / {} simulated (steady-state re-observations\n\
         of an unchanged partition + load are served from the cache)\n",
        testbed.hits(),
        testbed.misses()
    ));
    if let Some(line) = store_line {
        body.push_str(&line);
    }
    Report { id: "fig16", title: "Adaptation to dynamic memcached load steps".into(), body }
}

fn load_at(t: f64, step_s: f64) -> f64 {
    if t >= 2.0 * step_s {
        0.30
    } else if t >= step_s {
        0.20
    } else {
        0.10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shows_reinvocation_and_high_qos() {
        let r = run(&ExpOptions { quick: true, seed: 71, ..ExpOptions::default() });
        assert!(r.body.contains("invocations"));
        assert!(r.body.contains("steady"));
        assert!(r.body.contains("replayed"), "memoization stats must be reported");
        assert!(!r.body.contains("observation store"), "no store line without --store");
    }

    #[test]
    fn store_option_warm_starts_repeat_runs() {
        let dir = std::env::temp_dir().join(format!("clite_fig16_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ExpOptions { quick: true, seed: 71, store: Some(dir.join("obs.log")) };
        let _ = run(&opts);
        let r = run(&opts);
        let _ = std::fs::remove_dir_all(&dir);
        let line = r
            .body
            .lines()
            .find(|l| l.starts_with("observation store:"))
            .expect("store line in report");
        let hits: u64 = line
            .strip_prefix("observation store: ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("hit count in store line");
        assert!(hits >= 1, "repeat run must warm-start from the persisted store: {line}");
    }
}
