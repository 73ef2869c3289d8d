//! Property tests pinning the two contracts everything downstream trusts:
//!
//! 1. **Rate-zero transparency** — a [`FaultyTestbed`] built from
//!    [`FaultSpec::none`] is byte-identical to its inner testbed on every
//!    [`Testbed`] method, so wiring the decorator in unconditionally can
//!    never perturb a fault-free run.
//! 2. **Schedule determinism** — the same [`FaultSpec`] + seed replays
//!    the identical fault schedule (same kinds, same windows, same
//!    corrupted counters), which is what keeps chaos runs and crash-laden
//!    fleet runs reproducible.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use clite_faults::{FaultSpec, FaultyTestbed};
use clite_sim::prelude::*;
use clite_sim::testbed::Testbed;
use clite_sim::SimError;

/// An alternating LC/BG mix of `jobs` co-located jobs.
fn specs(jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            if i % 2 == 0 {
                JobSpec::latency_critical(WorkloadId::LATENCY_CRITICAL[i % 5], 0.3)
            } else {
                JobSpec::background(WorkloadId::BACKGROUND[i % 6])
            }
        })
        .collect()
}

fn server(jobs: usize, seed: u64) -> Server {
    Server::new(ResourceCatalog::testbed(), specs(jobs), seed).unwrap()
}

/// A compact, comparable record of one driving step's outcome.
#[derive(Debug, Clone, PartialEq)]
enum StepResult {
    Enforced(Result<(), SimError>),
    Observed(Result<Observation, SimError>),
    Advanced,
}

/// Drives `t` through a seed-derived mixed schedule of enforce /
/// try_observe_window / advance_window / set_load calls and records every
/// outcome plus the clock and counters after each step.
fn drive<T: Testbed>(t: &mut T, jobs: usize, schedule_seed: u64) -> Vec<(StepResult, u64, u64)> {
    let mut rng = StdRng::seed_from_u64(schedule_seed);
    let catalog = *t.catalog();
    let mut log = Vec::new();
    for step in 0..30u32 {
        let result = match step % 5 {
            0 => {
                let p = Partition::random(&catalog, jobs, &mut rng).unwrap();
                StepResult::Enforced(t.enforce(&p))
            }
            4 => {
                t.advance_window();
                StepResult::Advanced
            }
            _ => StepResult::Observed(t.try_observe_window()),
        };
        log.push((result, t.samples_observed(), t.time_s().to_bits()));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `FaultSpec::none()` makes the decorator a perfect pass-through:
    /// identical results, identical clock, identical sample accounting,
    /// bit-for-bit, on every method of the trait.
    #[test]
    fn rate_zero_is_byte_identical_to_inner(
        jobs in 1usize..=4,
        seed: u64,
        schedule_seed: u64,
    ) {
        let mut bare = server(jobs, seed);
        let mut faulty = FaultyTestbed::new(server(jobs, seed), FaultSpec::none(), seed ^ 0xdead);

        // Static metadata is forwarded untouched.
        prop_assert_eq!(Testbed::job_count(&bare), faulty.job_count());
        prop_assert_eq!(Testbed::job_specs(&bare), faulty.job_specs());
        prop_assert_eq!(Testbed::catalog(&bare), faulty.catalog());
        prop_assert_eq!(Testbed::window_s(&bare).to_bits(), faulty.window_s().to_bits());
        for j in 0..jobs {
            prop_assert_eq!(Testbed::workload(&bare, j), faulty.workload(j));
            prop_assert_eq!(Testbed::class(&bare, j), faulty.class(j));
            prop_assert_eq!(Testbed::qos(&bare, j), faulty.qos(j));
            prop_assert_eq!(Testbed::load(&bare, j).to_bits(), faulty.load(j).to_bits());
        }
        prop_assert_eq!(Testbed::lc_indices(&bare), faulty.lc_indices());
        prop_assert_eq!(Testbed::bg_indices(&bare), faulty.bg_indices());

        // A load change behaves identically through both.
        if let Some(&lc) = Testbed::lc_indices(&bare).first() {
            prop_assert_eq!(Testbed::set_load(&mut bare, lc, 0.55), faulty.set_load(lc, 0.55));
        }
        prop_assert_eq!(
            Testbed::set_load(&mut bare, jobs, 0.5),
            faulty.set_load(jobs, 0.5)
        );

        // The full mutating schedule replays bit-for-bit.
        let bare_log = drive(&mut bare, jobs, schedule_seed);
        let faulty_log = drive(&mut faulty, jobs, schedule_seed);
        prop_assert_eq!(bare_log, faulty_log);
        prop_assert_eq!(faulty.stats().total(), 0);
    }

    /// Same `FaultSpec` + same seed ⇒ the identical fault schedule: every
    /// outcome (including which windows fault, how, and the exact
    /// corrupted counter values) and every per-kind fault count replays.
    #[test]
    fn same_spec_and_seed_replay_identical_schedule(
        jobs in 1usize..=4,
        seed: u64,
        fault_seed: u64,
        schedule_seed: u64,
    ) {
        let spec = FaultSpec {
            spike_prob: 0.25,
            drop_prob: 0.15,
            stuck_prob: 0.1,
            stuck_windows: 2,
            enforce_fail_prob: 0.1,
            ..FaultSpec::none()
        };
        let mut a = FaultyTestbed::new(server(jobs, seed), spec.clone(), fault_seed);
        let mut b = FaultyTestbed::new(server(jobs, seed), spec, fault_seed);
        let log_a = drive(&mut a, jobs, schedule_seed);
        let log_b = drive(&mut b, jobs, schedule_seed);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.crashed(), b.crashed());
    }

    /// A different fault seed over the same inner testbed changes only the
    /// fault schedule, never the inner measurements: windows that succeed
    /// in both runs return identical observations.
    #[test]
    fn fault_stream_is_independent_of_measurements(
        jobs in 1usize..=3,
        seed: u64,
        fault_seed: u64,
    ) {
        let spec = FaultSpec { drop_prob: 0.3, ..FaultSpec::none() };
        let mut faulty = FaultyTestbed::new(server(jobs, seed), spec, fault_seed);
        let mut bare = server(jobs, seed);
        let p = Partition::equal_share(&ResourceCatalog::testbed(), jobs).unwrap();
        faulty.enforce(&p).unwrap();
        Testbed::enforce(&mut bare, &p).unwrap();
        for _ in 0..20 {
            match faulty.try_observe_window() {
                Ok(obs) => {
                    // The inner RNG stream is untouched by fault draws, so
                    // the bare twin — advanced in lockstep — must agree.
                    let truth = Testbed::observe_window(&mut bare);
                    prop_assert_eq!(obs.jobs, truth.jobs);
                }
                Err(e) => {
                    prop_assert!(e.is_transient_fault());
                    Testbed::advance_window(&mut bare);
                }
            }
        }
    }
}
