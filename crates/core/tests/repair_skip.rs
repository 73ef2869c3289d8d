//! Witness for the violating phase's repair moves.
//!
//! While some LC job violates QoS, two of every three search samples are
//! counter-guided repair moves. The controller chooses the repair move
//! first and, when the global acquisition is certain to return a
//! candidate, only replays that acquisition's random draws instead of
//! climbing it ([`clite_bo::engine::BoEngine::skip_suggest`]). The skip
//! must change nothing a search decides: every digest below was recorded
//! from the controller that always climbed the acquisition and then threw
//! its suggestion away. A digest covers every sample's partition, frozen
//! job, expected improvement and score, the sample count, the best
//! partition and score, and the convergence flags.

use clite::config::CliteConfig;
use clite::controller::CliteController;
use clite::trace::CliteOutcome;
use clite_sim::prelude::*;
use clite_telemetry::{Phase, Telemetry};

use WorkloadId::*;

fn lc(workload: WorkloadId, load: f64) -> JobSpec {
    JobSpec::latency_critical(workload, load)
}

fn bg(workload: WorkloadId) -> JobSpec {
    JobSpec::background(workload)
}

/// The witnessed mixes: Fig. 10's two mixes with the swept job at high
/// load, Fig. 7's mix with every job at 60%, Fig. 14's two 5-job mixes
/// (dropout-copy freezes a row in most of their samples) and a single job,
/// whose search space is one partition.
fn mixes() -> Vec<(&'static str, Vec<JobSpec>)> {
    vec![
        ("fig10a@90%", vec![lc(ImgDnn, 0.1), lc(Xapian, 0.1), lc(Memcached, 0.9)]),
        ("fig10b@80%", vec![lc(Specjbb, 0.1), lc(Masstree, 0.1), lc(Xapian, 0.8)]),
        ("fig7@60%", vec![lc(Memcached, 0.6), lc(Masstree, 0.6), lc(ImgDnn, 0.6)]),
        (
            "fig14a",
            vec![
                lc(Memcached, 0.3),
                lc(ImgDnn, 0.3),
                bg(Blackscholes),
                bg(Canneal),
                bg(Fluidanimate),
            ],
        ),
        (
            "fig14b",
            vec![
                lc(Masstree, 0.3),
                lc(Xapian, 0.3),
                bg(Freqmine),
                bg(Streamcluster),
                bg(Swaptions),
            ],
        ),
        ("one-job", vec![lc(Memcached, 0.5)]),
    ]
}

/// `(mix, seed, digest)`, recorded from the always-climbing controller.
const PINNED: [(&str, u64, u64); 10] = [
    ("fig10a@90%", 42, 0xfb6d510b79b5f6a8),
    ("fig10a@90%", 43, 0x39aeabe3c9507d3a),
    ("fig10b@80%", 42, 0xffc89248881cb777),
    ("fig7@60%", 42, 0xf93d151e059ca05b),
    ("fig14a", 42, 0xbaf70cafc1d4098e),
    ("fig14a", 44, 0x300574e89b9f25e3),
    ("fig14b", 42, 0xc94cf0024e89e3d0),
    ("fig14b", 43, 0xdd7d7ea8d1444d2d),
    ("one-job", 42, 0xc15de02c0628cd8e),
    ("one-job", 43, 0x7411ec92ac6a982e),
];

/// One search on a fresh server, seeded as the experiment runner seeds it.
fn search(jobs: &[JobSpec], seed: u64) -> CliteOutcome {
    let mut server = Server::new(ResourceCatalog::testbed(), jobs.to_vec(), seed).unwrap();
    CliteController::new(CliteConfig::default().with_seed(seed ^ 0x9E37_79B9))
        .run_with(&mut server, &Telemetry::disabled())
        .unwrap()
}

fn jobs_of(name: &str) -> Vec<JobSpec> {
    mixes().into_iter().find(|(n, _)| *n == name).expect("pinned mix exists").1
}

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn partition(&mut self, partition: &Partition) {
        for row in partition.rows() {
            for units in row.all_units() {
                self.word(u64::from(units));
            }
        }
    }
}

fn digest(outcome: &CliteOutcome) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.word(outcome.samples_used() as u64);
    for sample in &outcome.samples {
        d.partition(&sample.partition);
        d.word(u64::from(sample.bootstrap));
        d.word(sample.frozen_job.map_or(u64::MAX, |j| j as u64));
        d.word(sample.expected_improvement.map_or(u64::MAX, f64::to_bits));
        d.word(sample.score.value.to_bits());
    }
    d.partition(&outcome.best_partition);
    d.word(outcome.best_score.to_bits());
    d.word(u64::from(outcome.converged));
    d.word(outcome.samples_to_qos.map_or(u64::MAX, |s| s as u64));
    d.0
}

#[test]
fn searches_match_the_always_climbing_record() {
    let mut mismatches = Vec::new();
    for (name, seed, pinned) in PINNED {
        let got = digest(&search(&jobs_of(name), seed));
        if got != pinned {
            mismatches.push(format!("(\"{name}\", {seed}, 0x{got:016x})"));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join(",\n"));
}

/// The witness only means something if the skip fires: on the violating
/// mixes the search climbs fewer acquisitions than it takes search samples
/// (the always-climbing controller climbed at least one per sample).
#[test]
fn violating_searches_skip_acquisitions() {
    for name in ["fig10a@90%", "fig7@60%", "fig14a", "fig14b"] {
        let outcome = search(&jobs_of(name), 42);
        let searched = outcome.samples.iter().filter(|s| s.expected_improvement.is_some()).count();
        let climbs = outcome.overhead.as_ref().unwrap().phase(Phase::Acquisition).count;
        assert!((climbs as usize) < searched, "{name}: {climbs} climbs for {searched} samples");
    }
}
