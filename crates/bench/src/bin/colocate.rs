//! `colocate` — the operator-facing CLI: run a co-location policy on an
//! ad-hoc job mix, sweep one job's load, or inspect QoS targets.
//!
//! ```text
//! colocate run memcached:40 img-dnn:30 streamcluster
//! colocate run --policy PARTIES memcached:40 img-dnn:30 streamcluster
//! colocate sweep --sweep memcached:10 masstree:30 img-dnn:30
//! colocate qos
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use clite_bench::cli::{parse, usage, Command};
use clite_bench::loadrun::policy_vs_equal_share;
use clite_bench::mixes::Mix;
use clite_bench::open_store;
use clite_bench::render::{pct, Table};
use clite_bench::runner::{
    final_eval, run_clite_chaos, run_clite_with_store, run_policy, run_policy_with, PolicyKind,
};
use clite_load::{LoadReport, ScenarioReport};
use clite_policies::policy::PolicyOutcome;
use clite_sim::prelude::*;
use clite_sim::resource::ResourceKind;
use clite_store::{ShardPolicy, ShardedStore};
use clite_telemetry::{JsonlRecorder, OverheadReport, Telemetry};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        Command::Help => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Command::Qos { workloads } => {
            let catalog = ResourceCatalog::testbed();
            let list = if workloads.is_empty() {
                WorkloadId::LATENCY_CRITICAL.to_vec()
            } else {
                workloads
            };
            let mut t = Table::new(vec![
                "workload",
                "class",
                "QoS target (us)",
                "max load (QPS)",
                "unloaded p95 (us)",
            ]);
            for w in list {
                match w.class() {
                    JobClass::LatencyCritical => {
                        let q = QosSpec::derive(w, &catalog);
                        t.row(vec![
                            w.name().to_owned(),
                            "LC".to_owned(),
                            format!("{:.0}", q.target_us),
                            format!("{:.0}", q.max_qps),
                            format!("{:.0}", q.unloaded_p95_us),
                        ]);
                    }
                    JobClass::Background => {
                        t.row(vec![
                            w.name().to_owned(),
                            "BG".to_owned(),
                            "-".to_owned(),
                            "-".to_owned(),
                            "-".to_owned(),
                        ]);
                    }
                }
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        Command::Run { policy, seed, telemetry_out, store, faults, jobs } => {
            let mix = mix_from(jobs);
            if faults.is_some() && policy != PolicyKind::Clite {
                eprintln!("error: --faults only supports --policy CLITE (got {})", policy.name());
                return ExitCode::FAILURE;
            }
            println!("mix: {}  policy: {}  seed: {seed}\n", mix.name, policy.name());
            let recorder = match telemetry_out.as_deref().map(JsonlRecorder::create) {
                None => None,
                Some(Ok(r)) => Some(r),
                Some(Err(e)) => {
                    eprintln!("error: cannot open telemetry output: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let shared = match clite_store(policy, store.as_deref(), &recorder) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(spec) = faults {
                return run_chaos(
                    &mix,
                    seed,
                    &spec,
                    shared.as_deref(),
                    &recorder,
                    telemetry_out.as_deref(),
                );
            }
            let mut overhead: Option<OverheadReport> = None;
            let run = |telemetry: &Telemetry<'_>| match &shared {
                Some(s) => run_clite_with_store(&mix, seed, s, telemetry),
                None => run_policy_with(policy, &mix, seed, telemetry),
            };
            let outcome = match &recorder {
                Some(sink) => {
                    let telemetry = Telemetry::new(sink);
                    let outcome = run(&telemetry);
                    overhead = Some(telemetry.report());
                    outcome
                }
                None => run(&Telemetry::disabled()),
            };
            print_result(&mix, &outcome, seed, 0);
            if let Some(s) = &shared {
                report_store(s);
            }
            if let (Some(sink), Some(report)) = (&recorder, &overhead) {
                let path = telemetry_out.as_deref().expect("recorder implies a path");
                print_telemetry(sink, Some(report), path);
            }
            ExitCode::SUCCESS
        }
        Command::Load { policy, config, report, telemetry_out, jobs } => {
            let mix = mix_from(jobs);
            println!(
                "mix: {}  policy: {} vs equal-share  trace: {}  seed: {}\n\
                 windows: {}  queries/window: {}  threads: {}\n",
                mix.name,
                policy.name(),
                config.trace,
                config.seed,
                config.windows,
                config.queries_per_window,
                config.threads
            );
            let recorder = match telemetry_out.as_deref().map(JsonlRecorder::create) {
                None => None,
                Some(Ok(r)) => Some(r),
                Some(Err(e)) => {
                    eprintln!("error: cannot open telemetry output: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let run = |telemetry: &Telemetry<'_>| {
                policy_vs_equal_share(policy, &mix, config.trace, &config, telemetry)
            };
            let mut overhead: Option<OverheadReport> = None;
            let scenarios = match &recorder {
                Some(sink) => {
                    let telemetry = Telemetry::new(sink);
                    let out = run(&telemetry);
                    overhead = Some(telemetry.report());
                    out
                }
                None => run(&Telemetry::disabled()),
            };
            print_load_tails(&scenarios);
            if let Some(path) = &report {
                let mut load_report = LoadReport::new(config.seed);
                for s in &scenarios {
                    load_report.push(s.clone());
                }
                if let Err(e) = load_report.save(path) {
                    eprintln!("error: cannot write load report {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("load report written to {}", path.display());
            }
            if let (Some(sink), Some(report)) = (&recorder, &overhead) {
                let path = telemetry_out.as_deref().expect("recorder implies a path");
                print_telemetry(sink, Some(report), path);
            }
            ExitCode::SUCCESS
        }
        Command::Fleet {
            nodes,
            events,
            seed,
            shards,
            probe_limit,
            faults,
            store,
            placement,
            model,
            journal,
            recover,
            kill_after,
        } => run_fleet(
            nodes,
            events,
            seed,
            shards,
            probe_limit,
            faults,
            store,
            placement,
            model,
            journal,
            recover,
            kill_after,
        ),
        Command::Train { out, seed, epochs, groups } => run_train(&out, seed, epochs, groups),
        Command::Sweep { policy, seed, telemetry_out, store, swept, fixed } => {
            let recorder = match telemetry_out.as_deref().map(JsonlRecorder::create) {
                None => None,
                Some(Ok(r)) => Some(r),
                Some(Err(e)) => {
                    eprintln!("error: cannot open telemetry output: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let shared = match clite_store(policy, store.as_deref(), &recorder) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut t = Table::new(vec!["swept load", "QoS", "score", "samples", "BG perf"]);
            for step in 1..=9 {
                let load = f64::from(step) / 10.0;
                let mut jobs = vec![JobSpec::latency_critical(swept.workload, load)];
                jobs.extend(fixed.iter().cloned());
                let mix = mix_from(jobs);
                let step_seed = seed.wrapping_add(step as u64);
                let outcome = match (&shared, &recorder) {
                    (Some(s), Some(sink)) => {
                        run_clite_with_store(&mix, step_seed, s, &Telemetry::new(sink))
                    }
                    (Some(s), None) => {
                        run_clite_with_store(&mix, step_seed, s, &Telemetry::disabled())
                    }
                    (None, Some(sink)) => {
                        run_policy_with(policy, &mix, step_seed, &Telemetry::new(sink))
                    }
                    (None, None) => run_policy(policy, &mix, step_seed),
                };
                let obs = final_eval(&mix, &outcome, seed.wrapping_add(step as u64));
                t.row(vec![
                    pct(load),
                    if obs.all_qos_met() { "met".to_owned() } else { "X".to_owned() },
                    format!("{:.4}", outcome.best_score),
                    outcome.samples_used().to_string(),
                    obs.mean_bg_perf().map_or("-".to_owned(), pct),
                ]);
            }
            println!(
                "sweeping {} with {} fixed jobs, policy {}\n\n{}",
                swept.workload.name(),
                fixed.len(),
                policy.name(),
                t.render()
            );
            if let Some(s) = &shared {
                report_store(s);
            }
            if let Some(sink) = &recorder {
                let path = telemetry_out.as_deref().expect("recorder implies a path");
                print_telemetry(sink, None, path);
            }
            ExitCode::SUCCESS
        }
    }
}

/// The `colocate fleet` entry point: generate a deterministic event
/// trace, stream it through the fleet service over a sharded observation
/// store, and print the counters, fleet statistics, and per-shard store
/// occupancy. Ends in a `fleet: completed ...` marker line (the CI smoke
/// test greps for it). With `--journal DIR` the run is durable (WAL +
/// checkpoints); `--kill-after K` dies right after journaling event K and
/// `--recover` resumes, printing a `recovery: replayed ...` marker that
/// names the checkpoint copy used and why the other was passed over.
#[allow(clippy::too_many_arguments)]
fn run_fleet(
    nodes: usize,
    events: usize,
    seed: u64,
    shards: Option<usize>,
    probe_limit: usize,
    faults: Option<clite_faults::FaultSpec>,
    store_path: Option<std::path::PathBuf>,
    placement: clite_bench::cli::PlacementChoice,
    model_path: Option<std::path::PathBuf>,
    journal_dir: Option<std::path::PathBuf>,
    recover: bool,
    kill_after: Option<u64>,
) -> ExitCode {
    use clite_bench::cli::PlacementChoice;
    use clite_cluster::fleet::{FleetConfig, FleetService};
    use clite_cluster::recovery::{
        CrashPlan, CrashPoint, DurableConfig, DurableFleet, DurableOutcome,
    };
    use clite_cluster::trace::{generate, TraceConfig};
    use clite_faults::{FaultSpec, FaultyFactory};
    use clite_sim::testbed::ServerFactory;

    // Without --shards, open a store at the count it was made with.
    let shard_policy = match (shards, &store_path) {
        (Some(shards), _) => ShardPolicy::with_shards(shards),
        (None, Some(path)) => ShardPolicy::for_path(path),
        (None, None) => ShardPolicy::default(),
    };
    let shards = shard_policy.shards;
    let store = match &store_path {
        Some(path) => match open_store(path, shard_policy, &Telemetry::disabled()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ShardedStore::in_memory(shard_policy),
    };
    let config = match placement {
        PlacementChoice::Heuristic => FleetConfig::mean_field(0, probe_limit),
        PlacementChoice::Learned => {
            let model = match &model_path {
                Some(path) => {
                    let (model, err) = clite_learn::load_or_zeroed(path);
                    if let Some(e) = err {
                        eprintln!(
                            "warning: {e}: serving the zero model (heuristic-fallback order) \
                             instead of {}",
                            path.display()
                        );
                    } else {
                        println!(
                            "model: loaded {} (feature schema v{}, {} epochs, train loss {:.4})",
                            path.display(),
                            model.feature_version,
                            model.epochs,
                            model.train_loss
                        );
                    }
                    model
                }
                None => clite_learn::RankingModel::zeroed(),
            };
            FleetConfig::mean_field_learned(0, probe_limit, std::sync::Arc::new(model))
        }
    };
    let fault_spec = faults.unwrap_or_else(FaultSpec::none);
    let factory = FaultyFactory::new(ServerFactory, fault_spec.clone());
    let trace = generate(&TraceConfig { events, ..TraceConfig::default() }, seed);
    println!(
        "fleet: {nodes} nodes, {events} events, seed {seed}, {shards} shards, probe limit {probe_limit}, {} placement\n",
        match placement {
            PlacementChoice::Heuristic => "heuristic",
            PlacementChoice::Learned => "learned",
        }
    );
    let start = std::time::Instant::now();
    let run = match &journal_dir {
        Some(dir) => {
            let durable = DurableConfig::default();
            let mut fleet = if recover {
                match DurableFleet::recover(
                    nodes,
                    config,
                    seed,
                    factory,
                    dir,
                    durable,
                    Some(store.clone()),
                    &Telemetry::disabled(),
                ) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("error: recovery from {} failed: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match DurableFleet::create(nodes, config, seed, factory, dir, durable) {
                    Ok(f) => f.with_store(store.clone()),
                    Err(e) => {
                        eprintln!("error: cannot open journal {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                }
            };
            if let Some(info) = fleet.recovery_info() {
                println!(
                    "recovery: replayed {} events from checkpoint seq {} ({}; passed over {}){}",
                    info.replayed,
                    info.checkpoint_seqno,
                    info.copy().map_or("no usable checkpoint", |c| c.file_name()),
                    info.passed_over().join(", "),
                    if info.journal_damaged { " (journal tail repaired)" } else { "" }
                );
            }
            let plan = kill_after.map(|k| CrashPlan { after_event: k, point: CrashPoint::Applied });
            match fleet.run(&trace, plan.as_ref(), &Telemetry::disabled()) {
                Ok(DurableOutcome::Completed(r)) => r,
                Ok(DurableOutcome::Killed { applied }) => {
                    println!(
                        "fleet: killed after journaling event {} ({applied} applied); resume \
                         with --journal {} --recover",
                        kill_after.unwrap_or(applied),
                        dir.display()
                    );
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!("error: durable fleet loop failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let mut fleet = match FleetService::with_factory(nodes, config, seed, factory) {
                Ok(f) => f.with_store(store.clone()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match fleet.run(&trace, &Telemetry::disabled()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: fleet loop failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let wall = start.elapsed();

    let c = &run.counters;
    let mut t = Table::new(vec![
        "events",
        "arrivals",
        "placed",
        "shed",
        "departed",
        "shifted",
        "stale",
        "onboarded",
    ]);
    t.row(vec![
        trace.len().to_string(),
        c.arrivals.to_string(),
        c.placed.to_string(),
        c.arrivals_shed.to_string(),
        c.departures.to_string(),
        c.load_shifts.to_string(),
        c.stale_events.to_string(),
        c.nodes_onboarded.to_string(),
    ]);
    println!("{}", t.render());

    let stats = &run.stats;
    let qos_ok = stats.nodes.iter().filter(|n| n.alive && n.qos_met).count();
    let alive = stats.nodes.len() - stats.dead_nodes;
    println!(
        "fleet state: {} nodes ({alive} alive, {} dead, {} empty), {} live jobs, admission rate {}, QoS ok on {qos_ok}/{alive} alive nodes",
        stats.nodes.len(),
        stats.dead_nodes,
        stats.empty_nodes,
        stats.placed,
        pct(stats.admission_rate()),
    );
    let store_stats = store.stats();
    println!(
        "store: {} shards, {} mixes, {} records, {} appends, {} hits / {} misses, {} compactions",
        store.shard_count(),
        store.mix_count(),
        store.record_count(),
        store_stats.appends,
        store_stats.hits,
        store_stats.misses,
        store_stats.compactions,
    );
    println!(
        "fleet: completed {} events over {} nodes in {:.1} ms ({:.0} us/arrival) without panic",
        trace.len(),
        stats.nodes.len(),
        wall.as_secs_f64() * 1e3,
        wall.as_secs_f64() * 1e6 / (c.arrivals.max(1)) as f64,
    );
    ExitCode::SUCCESS
}

/// The `colocate train` entry point: fit the placement ranking model over
/// deterministic simulator rollouts, save it at `out`, and verify the
/// round trip. Ends in a `train: completed ...` marker line (the CI smoke
/// test greps for it).
fn run_train(out: &Path, seed: u64, epochs: u32, groups: usize) -> ExitCode {
    use clite_learn::train::TrainConfig;

    let config = TrainConfig { groups, epochs, seed, ..TrainConfig::smoke(seed) };
    println!(
        "train: {groups} rollout groups x {} candidates, {} label windows, {epochs} epochs, seed {seed}",
        config.candidates, config.label_windows
    );
    let start = std::time::Instant::now();
    let model = clite_learn::train::train(&config, &Telemetry::disabled());
    let wall = start.elapsed();
    println!(
        "train: final pairwise loss {:.4} (untrained level {:.4}) in {:.1} ms",
        model.train_loss,
        std::f64::consts::LN_2,
        wall.as_secs_f64() * 1e3
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create model directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = clite_learn::save(out, &model) {
        eprintln!("error: cannot write model {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    match clite_learn::load(out) {
        Ok(reloaded) if reloaded == model => {}
        Ok(_) => {
            eprintln!("error: model round trip drifted at {}", out.display());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: saved model does not load back: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "train: completed — model saved to {} (feature schema v{}, round trip verified)",
        out.display(),
        model.feature_version
    );
    ExitCode::SUCCESS
}

/// The `--store` of `colocate run` and `sweep`: the store only makes
/// sense for CLITE — it feeds `BoEngine` warm starts — so any other policy
/// is rejected up front. Reopen-time recovery is observed: a torn or
/// corrupt tail emits a `store_recovered` telemetry event when a recorder
/// is installed.
fn clite_store(
    policy: PolicyKind,
    path: Option<&Path>,
    recorder: &Option<JsonlRecorder>,
) -> Result<Option<Arc<ShardedStore>>, String> {
    let Some(path) = path else { return Ok(None) };
    if policy != PolicyKind::Clite {
        return Err(format!("--store only supports --policy CLITE (got {})", policy.name()));
    }
    let telemetry = match recorder {
        Some(sink) => Telemetry::new(sink),
        None => Telemetry::disabled(),
    };
    open_store(path, ShardPolicy::for_path(path), &telemetry).map(Some)
}

/// Prints the run summary line and per-job partition table for a
/// completed search. `extra_windows` adds fault-retry/quarantine windows
/// (chaos mode) on top of the outcome's own sample count.
fn print_result(mix: &Mix, outcome: &PolicyOutcome, seed: u64, extra_windows: usize) {
    let obs = final_eval(mix, outcome, seed);
    println!(
        "samples: {}   score: {:.4}   QoS: {}\n",
        outcome.samples_used() + extra_windows,
        outcome.best_score,
        if obs.all_qos_met() { "met" } else { "VIOLATED" }
    );
    let mut t = Table::new(vec![
        "job", "class", "cores", "L3 ways", "mem b/w", "mem cap", "disk b/w", "outcome",
    ]);
    for (j, job) in obs.jobs.iter().enumerate() {
        let p = &outcome.best_partition;
        let outcome_cell = match job.qos_met {
            Some(true) => format!(
                "p95 {:.0}us <= {:.0}us",
                job.latency_p95_us,
                job.qos_target_us.unwrap_or(f64::NAN)
            ),
            Some(false) => format!(
                "p95 {:.0}us > {:.0}us",
                job.latency_p95_us,
                job.qos_target_us.unwrap_or(f64::NAN)
            ),
            None => format!("throughput {}", pct(job.normalized_perf)),
        };
        t.row(vec![
            job.workload.name().to_owned(),
            job.class.to_string(),
            p.units(j, ResourceKind::Cores).to_string(),
            p.units(j, ResourceKind::LlcWays).to_string(),
            p.units(j, ResourceKind::MemBandwidth).to_string(),
            p.units(j, ResourceKind::MemCapacity).to_string(),
            p.units(j, ResourceKind::DiskBandwidth).to_string(),
            outcome_cell,
        ]);
    }
    println!("{}", t.render());
}

/// Prints the per-job latency-percentile table for a set of load
/// scenarios (policy rows first, then the baseline), followed by the
/// worst LC job's tail CCDF so operators can see the whole curve, not
/// just the gated percentiles.
fn print_load_tails(scenarios: &[ScenarioReport]) {
    let mut t = Table::new(vec![
        "policy",
        "job",
        "class",
        "queries",
        "p50 (us)",
        "p90 (us)",
        "p99 (us)",
        "p99.9 (us)",
        "QoS viol",
    ]);
    for s in scenarios {
        for j in &s.jobs {
            t.row(vec![
                s.policy.clone(),
                j.job.clone(),
                j.class.clone(),
                j.tail.count.to_string(),
                j.tail.p50_us.to_string(),
                j.tail.p90_us.to_string(),
                j.tail.p99_us.to_string(),
                j.tail.p999_us.to_string(),
                j.tail.qos_target_us.map_or("-".to_owned(), |_| pct(j.tail.violation_fraction)),
            ]);
        }
    }
    println!("{}", t.render());
    // The CCDF of the worst LC tail: the scenario/job with the highest
    // p99 across everything measured.
    let worst = scenarios
        .iter()
        .flat_map(|s| s.jobs.iter().map(move |j| (s, j)))
        .filter(|(_, j)| j.class == "LC")
        .max_by_key(|(_, j)| j.tail.p99_us);
    if let Some((s, j)) = worst {
        println!("worst LC tail CCDF — {} under {} ({}):", j.job, s.policy, s.trace);
        for p in &j.tail.ccdf {
            println!("  P(latency > {:>8} us) = {:.4}", p.latency_us, p.fraction);
        }
        println!();
    }
}

/// The chaos-mode run path: hardened CLITE behind a fault-injecting
/// testbed. A completed search prints the usual table plus a fault
/// summary; an unrecoverable fault prints the engaged fallback instead.
/// Both end in a `chaos: ... without panic` marker line (the CI smoke
/// test greps for it) and exit 0 — injected faults are never failures.
fn run_chaos(
    mix: &Mix,
    seed: u64,
    spec: &clite_faults::FaultSpec,
    shared: Option<&ShardedStore>,
    recorder: &Option<JsonlRecorder>,
    telemetry_path: Option<&Path>,
) -> ExitCode {
    let mut overhead: Option<OverheadReport> = None;
    let chaos = match recorder {
        Some(sink) => {
            let telemetry = Telemetry::new(sink);
            let out = run_clite_chaos(mix, seed, spec, shared, &telemetry);
            overhead = Some(telemetry.report());
            out
        }
        None => run_clite_chaos(mix, seed, spec, shared, &Telemetry::disabled()),
    };
    let f = &chaos.faults;
    println!(
        "chaos: injected {} faults (spikes {}, dropped {}, stuck {}, enforce {}, crashes {}); quarantined {} samples\n",
        f.total(),
        f.spikes,
        f.dropped,
        f.stuck,
        f.enforce_faults,
        f.crashes,
        chaos.quarantined
    );
    match (&chaos.outcome, &chaos.fallback) {
        (Some(outcome), _) => {
            print_result(mix, outcome, seed, chaos.quarantined);
            println!("chaos: completed without panic");
        }
        (None, Some((fallback, reason))) => {
            let obs = mix.server(seed).ground_truth(fallback);
            println!(
                "fallback engaged: {reason}\nfallback partition QoS (ground truth): {}\n",
                if obs.all_qos_met() { "met" } else { "VIOLATED" }
            );
            println!("chaos: degraded gracefully without panic");
        }
        (None, None) => unreachable!("chaos run produced neither an outcome nor a fallback"),
    }
    if let Some(s) = shared {
        report_store(s);
    }
    if let (Some(sink), Some(report)) = (recorder, &overhead) {
        let path = telemetry_path.expect("recorder implies a path");
        print_telemetry(sink, Some(report), path);
    }
    ExitCode::SUCCESS
}

/// Prints the one-line store summary the CI smoke test greps for:
/// `store: hit` when at least one search warm-started from stored
/// samples, `store: miss` when every lookup came up cold.
fn report_store(store: &ShardedStore) {
    let stats = store.stats();
    let detail = format!(
        "{} mixes, {} records kept, {} samples appended",
        store.mix_count(),
        store.record_count(),
        stats.appends
    );
    if stats.hits > 0 {
        println!("store: hit (warm-started from stored samples; {detail})");
    } else {
        println!("store: miss (cold search; {detail})");
    }
}

/// Prints the per-run overhead report (when a single run produced one) and
/// the Prometheus metrics snapshot, then flushes the JSONL sink.
fn print_telemetry(sink: &JsonlRecorder, overhead: Option<&OverheadReport>, path: &Path) {
    if let Some(report) = overhead {
        let mut t = Table::new(vec!["phase", "total (ms)", "sections", "% of wall"]);
        for cost in &report.phases {
            t.row(vec![
                cost.phase.name().to_owned(),
                format!("{:.3}", cost.total_seconds * 1e3),
                cost.count.to_string(),
                format!("{:.1}%", 100.0 * cost.total_seconds / report.wall_seconds),
            ]);
        }
        println!(
            "search-phase overhead (Fig. 15b): wall {:.3} ms, profiled {:.3} ms, coverage {:.1}%\n\n{}",
            report.wall_seconds * 1e3,
            report.profiled_seconds() * 1e3,
            100.0 * report.coverage,
            t.render()
        );
    }
    println!("metrics snapshot:\n\n{}", sink.metrics().to_prometheus());
    if let Err(e) = sink.flush() {
        eprintln!("warning: telemetry flush failed: {e}");
    } else {
        println!("telemetry events written to {}", path.display());
    }
}

fn mix_from(jobs: Vec<JobSpec>) -> Mix {
    let lc: Vec<(WorkloadId, f64)> = jobs
        .iter()
        .filter(|j| j.class() == JobClass::LatencyCritical)
        .map(|j| (j.workload, j.load.at(0.0)))
        .collect();
    let bg: Vec<WorkloadId> =
        jobs.iter().filter(|j| j.class() == JobClass::Background).map(|j| j.workload).collect();
    Mix::new(&lc, &bg)
}
