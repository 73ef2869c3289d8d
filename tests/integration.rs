//! Cross-crate integration tests: end-to-end scenarios spanning the
//! simulator substrate, the BO engine, the CLITE controller, and the
//! baseline policies.

use clite_repro::bench::mixes::{fig12_mix, fig9a_mix, Mix};
use clite_repro::bench::runner::{final_eval, run_policy, PolicyKind};
use clite_repro::bo::engine::{BoConfig, BoEngine};
use clite_repro::bo::space::SearchSpace;
use clite_repro::core::config::CliteConfig;
use clite_repro::core::controller::CliteController;
use clite_repro::core::score::{score_observation, ScoreMode};
use clite_repro::sim::prelude::*;
use clite_repro::sim::resource::ResourceKind;
use clite_repro::sim::workload::WorkloadId as W;
use clite_repro::telemetry::Telemetry;

fn server(jobs: Vec<JobSpec>, seed: u64) -> Server {
    Server::new(ResourceCatalog::testbed(), jobs, seed).unwrap()
}

#[test]
fn clite_meets_qos_and_feeds_bg_on_moderate_mix() {
    let mix = fig9a_mix();
    let outcome = run_policy(PolicyKind::Clite, &mix, 1);
    let obs = final_eval(&mix, &outcome, 1);
    assert!(obs.all_qos_met(), "CLITE must co-locate 3 LC @30% + streamcluster");
    assert!(
        obs.mean_bg_perf().unwrap() > 0.01,
        "BG job must get more than crumbs: {:?}",
        obs.mean_bg_perf()
    );
}

#[test]
fn clite_beats_parties_on_bg_performance() {
    // The paper's core claim, end to end. On easy cells both policies
    // approach ORACLE and the ordering is within noise, so the test
    // asserts (a) rough parity on an easy 2-LC cell and (b) a clear CLITE
    // win on a harder mix where PARTIES' leftover donation is not enough.
    let easy = fig12_mix(0.3, 0.3);
    let mut clite_total = 0.0;
    let mut parties_total = 0.0;
    for seed in [3u64, 13, 23] {
        let clite = run_policy(PolicyKind::Clite, &easy, seed);
        let parties = run_policy(PolicyKind::Parties, &easy, seed);
        let clite_obs = final_eval(&easy, &clite, seed);
        let parties_obs = final_eval(&easy, &parties, seed);
        assert!(clite_obs.all_qos_met(), "seed {seed}");
        assert!(parties_obs.all_qos_met(), "seed {seed}");
        clite_total += clite_obs.mean_bg_perf().unwrap();
        parties_total += parties_obs.mean_bg_perf().unwrap();
    }
    assert!(
        clite_total > parties_total * 0.85,
        "CLITE BG total {clite_total:.3} must stay near PARTIES {parties_total:.3} on easy cells"
    );

    // Hard mix (paper Fig. 13's second set + blackscholes): CLITE wins
    // decisively or PARTIES fails QoS outright.
    let hard =
        Mix::new(&[(W::Specjbb, 0.3), (W::Masstree, 0.3), (W::Xapian, 0.3)], &[W::Blackscholes]);
    let mut clite_wins = 0;
    for seed in [3u64, 13, 23] {
        let clite = run_policy(PolicyKind::Clite, &hard, seed);
        let parties = run_policy(PolicyKind::Parties, &hard, seed);
        let clite_obs = final_eval(&hard, &clite, seed);
        let parties_obs = final_eval(&hard, &parties, seed);
        let c = if clite_obs.all_qos_met() { clite_obs.mean_bg_perf().unwrap() } else { 0.0 };
        let p = if parties_obs.all_qos_met() { parties_obs.mean_bg_perf().unwrap() } else { 0.0 };
        if c >= p {
            clite_wins += 1;
        }
    }
    assert!(clite_wins >= 2, "CLITE must win the hard mix on most seeds ({clite_wins}/3)");
}

#[test]
fn oracle_bounds_every_online_policy() {
    let mix = Mix::new(&[(W::Memcached, 0.4), (W::Xapian, 0.3)], &[W::Canneal]);
    let oracle = run_policy(PolicyKind::Oracle, &mix, 5);
    let oracle_obs = final_eval(&mix, &oracle, 5);
    let oracle_score = score_observation(&oracle_obs).value;
    for kind in
        [PolicyKind::Parties, PolicyKind::RandomPlus, PolicyKind::Genetic, PolicyKind::Clite]
    {
        let outcome = run_policy(kind, &mix, 5);
        let obs = final_eval(&mix, &outcome, 5);
        let score = score_observation(&obs).value;
        assert!(
            score <= oracle_score + 0.02,
            "{} scored {score:.4} above ORACLE {oracle_score:.4}",
            kind.name()
        );
    }
}

#[test]
fn score_mode_transitions_match_qos_state() {
    let s = server(
        vec![JobSpec::latency_critical(W::Memcached, 0.3), JobSpec::background(W::Swaptions)],
        7,
    );
    // Starving the LC job => violation mode; feeding it => performance mode.
    let starved = Partition::max_for_job(s.catalog(), 2, 1).unwrap();
    let fed = Partition::max_for_job(s.catalog(), 2, 0).unwrap();
    assert_eq!(score_observation(&s.ground_truth(&starved)).mode, ScoreMode::QosViolated);
    assert_eq!(score_observation(&s.ground_truth(&fed)).mode, ScoreMode::QosMet);
}

#[test]
fn bo_engine_on_real_server_objective() {
    // Drive the generic BO engine directly against the simulator's score,
    // the way the CLITE controller does, and verify it improves.
    let mut srv = server(
        vec![JobSpec::latency_critical(W::ImgDnn, 0.4), JobSpec::background(W::Blackscholes)],
        11,
    );
    let space = SearchSpace::new(*srv.catalog(), 2).unwrap();
    let mut engine = BoEngine::new(space, BoConfig::default(), 11);
    let telemetry = Telemetry::disabled();
    for p in engine.bootstrap_samples().unwrap() {
        let y = score_observation(&srv.observe(&p)).value;
        engine.record(p, y, &telemetry);
    }
    let bootstrap_best = engine.best().unwrap().1;
    for _ in 0..15 {
        let s = engine.suggest(None, &telemetry).unwrap();
        let y = score_observation(&srv.observe(&s.partition)).value;
        engine.record(s.partition, y, &telemetry);
    }
    assert!(engine.best().unwrap().1 >= bootstrap_best);
}

#[test]
fn controller_ejects_individually_infeasible_jobs() {
    // Nine loaded LC jobs: per-job maximum extremum is 2 cores, which the
    // heavyweights cannot live with.
    let mix: Vec<JobSpec> = [
        W::ImgDnn,
        W::Masstree,
        W::Memcached,
        W::Specjbb,
        W::Xapian,
        W::ImgDnn,
        W::Masstree,
        W::Specjbb,
        W::Xapian,
    ]
    .iter()
    .map(|&w| JobSpec::latency_critical(w, 1.0))
    .collect();
    let mut srv = server(mix, 13);
    let outcome = CliteController::default().run(&mut srv).unwrap();
    assert!(!outcome.infeasible_jobs.is_empty());
    assert_eq!(outcome.samples_used(), 10, "ejection right after bootstrap");
}

#[test]
fn enforcement_overhead_accumulates_only_on_changes() {
    let mut srv = server(
        vec![JobSpec::latency_critical(W::Memcached, 0.2), JobSpec::background(W::Freqmine)],
        17,
    );
    let p = Partition::equal_share(srv.catalog(), 2).unwrap();
    srv.observe(&p);
    let after_first = srv.enforcement_overhead_ms();
    srv.observe(&p);
    assert_eq!(srv.enforcement_overhead_ms(), after_first, "idempotent re-apply is free");
    let q = p.transfer(ResourceKind::LlcWays, 0, 1, 2).unwrap();
    srv.observe(&q);
    assert!(srv.enforcement_overhead_ms() > after_first);
}

#[test]
fn full_run_is_reproducible_end_to_end() {
    let run = || {
        let mut srv = server(
            vec![
                JobSpec::latency_critical(W::Memcached, 0.3),
                JobSpec::latency_critical(W::Masstree, 0.3),
                JobSpec::background(W::Fluidanimate),
            ],
            23,
        );
        CliteController::new(CliteConfig::default().with_seed(23)).run(&mut srv).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_partition, b.best_partition);
    assert_eq!(a.best_score, b.best_score);
    assert_eq!(a.samples_used(), b.samples_used());
}

#[test]
fn heracles_is_limited_to_one_lc_job() {
    // Heracles' documented limitation drives the paper's Fig. 7a: with two
    // loaded LC jobs it satisfies only its protected one.
    let mix = Mix::new(&[(W::Memcached, 0.7), (W::Masstree, 0.7)], &[W::Blackscholes]);
    let outcome = run_policy(PolicyKind::Heracles, &mix, 29);
    let last = outcome.samples.last().unwrap();
    assert_eq!(last.observation.jobs[0].qos_met, Some(true), "protected job satisfied");
    assert!(!outcome.qos_met, "the second LC job is not Heracles' problem");
}
