//! # clite-faults — deterministic fault injection for CLITE testbeds
//!
//! CLITE's contract is "apply a partition, wait one observation window,
//! read the counters" (paper §4, Fig. 5). On a real warehouse-scale node
//! that loop fails in mundane ways: counters glitch and return garbage,
//! windows stall past their deadline, the isolation layer transiently
//! refuses an allocation, and sometimes the whole machine dies. This crate
//! injects exactly those failures into any [`Testbed`] so the rest of the
//! stack can prove it degrades gracefully instead of panicking or
//! converging on poisoned measurements.
//!
//! The design constraints, in order:
//!
//! 1. **Determinism.** The fault schedule is a pure function of
//!    ([`FaultSpec`], seed, window index). Every per-window decision draws
//!    from a freshly seeded RNG keyed by `(seed, window)`; enforcement
//!    faults draw from `(seed, call index)`. Nothing ever touches the
//!    inner testbed's RNG, so two runs with the same spec and seed replay
//!    the identical schedule, and a cluster run replays its crashes exactly
//!    (through kill and recovery too) as long as each node's fault seed is
//!    a pure function of committed state (the scheduler derives it from
//!    the same commit-count seed its searches use).
//! 2. **Rate-zero transparency.** With [`FaultSpec::none`] the decorator
//!    is byte-identical to the inner testbed on every [`Testbed`] method:
//!    no RNG draws, no extra windows, no perturbation of any kind.
//! 3. **Time is honest.** A faulted window still spends its time — a
//!    dropped window advances the clock one window, a stuck window burns
//!    its deadline's worth of extra windows — because the paper's overhead
//!    metric is windows spent, not windows measured.
//!
//! The fault taxonomy mirrors [`SimError`]'s fault variants:
//!
//! | fault | trigger | effect |
//! |---|---|---|
//! | counter spike | per-window `spike_prob` | one job's counters corrupted by `spike_magnitude` |
//! | dropped window | per-window `drop_prob` | window runs, counters unreadable ([`SimError::WindowDropped`]) |
//! | stuck window | per-window `stuck_prob` | deadline blown, `stuck_windows` extra windows lost ([`SimError::WindowTimeout`]) |
//! | enforcement fault | per-call `enforce_fail_prob` | [`Testbed::enforce`] transiently fails ([`SimError::EnforceFault`]) |
//! | node crash | `crash_at_window` / `crash_prob` | every later call fails permanently ([`SimError::NodeCrashed`]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;
use clite_sim::queueing::QosSpec;
use clite_sim::resource::ResourceCatalog;
use clite_sim::server::JobSpec;
use clite_sim::testbed::{Testbed, TestbedFactory};
use clite_sim::workload::{JobClass, WorkloadId};
use clite_sim::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream tags keeping the per-window and per-enforce fault streams
/// disjoint even when window and call indices collide.
const WINDOW_TAG: u64 = 0x57_49_4e_44; // "WIND"
const ENFORCE_TAG: u64 = 0x45_4e_46_4f; // "ENFO"
const CRASH_TAG: u64 = 0x43_52_41_53; // "CRAS"

/// SplitMix64 finalizer: decorrelates structured `(seed, tag, index)`
/// triples into well-mixed RNG seeds.
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed ^ tag.rotate_left(32) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Declarative fault plan: the per-window and per-call fault rates a
/// [`FaultyTestbed`] draws from. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-window probability that one job's counters come back corrupted
    /// (a plausible-looking but wildly wrong outlier).
    pub spike_prob: f64,
    /// Multiplicative magnitude of a counter spike (latency inflated or
    /// deflated by this factor; BG throughput scaled accordingly).
    pub spike_magnitude: f64,
    /// Per-window probability the window's counters are unreadable.
    pub drop_prob: f64,
    /// Per-window probability the window stalls past its deadline.
    pub stuck_prob: f64,
    /// Extra windows of time a stuck window burns before timing out.
    pub stuck_windows: u64,
    /// Per-call probability that [`Testbed::enforce`] transiently fails.
    pub enforce_fail_prob: f64,
    /// Crash the node deterministically at this window index (overrides
    /// [`FaultSpec::crash_prob`]).
    pub crash_at_window: Option<u64>,
    /// Probability (drawn once per testbed from its fault seed) that the
    /// node crashes at all; if it does, the crash window is drawn
    /// uniformly from `1..=crash_window_max`.
    pub crash_prob: f64,
    /// Latest window a probabilistic crash can land on.
    pub crash_window_max: u64,
}

impl FaultSpec {
    /// The no-fault spec: a [`FaultyTestbed`] built from it is
    /// byte-identical to its inner testbed.
    #[must_use]
    pub fn none() -> Self {
        Self {
            spike_prob: 0.0,
            spike_magnitude: 8.0,
            drop_prob: 0.0,
            stuck_prob: 0.0,
            stuck_windows: 3,
            enforce_fail_prob: 0.0,
            crash_at_window: None,
            crash_prob: 0.0,
            crash_window_max: 64,
        }
    }

    /// The default chaos spec used by `colocate --faults default` and the
    /// chaos experiment: 5% counter spikes, 2% dropped windows, 1% stuck
    /// windows, 2% enforcement faults, and a 25% chance the node crashes
    /// somewhere in its first 64 windows (so a four-node cluster loses
    /// about one node per fleet).
    #[must_use]
    pub fn default_chaos() -> Self {
        Self {
            spike_prob: 0.05,
            drop_prob: 0.02,
            stuck_prob: 0.01,
            enforce_fail_prob: 0.02,
            crash_prob: 0.25,
            ..Self::none()
        }
    }

    /// Whether this spec can never inject a fault.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.spike_prob <= 0.0
            && self.drop_prob <= 0.0
            && self.stuck_prob <= 0.0
            && self.enforce_fail_prob <= 0.0
            && self.crash_at_window.is_none()
            && self.crash_prob <= 0.0
    }

    /// Scales every fault *rate* by `factor` (clamped to `[0, 1]`),
    /// leaving magnitudes and the deterministic crash window unchanged.
    /// Used by the chaos experiment to sweep fault intensity.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let clamp = |p: f64| (p * factor).clamp(0.0, 1.0);
        Self {
            spike_prob: clamp(self.spike_prob),
            drop_prob: clamp(self.drop_prob),
            stuck_prob: clamp(self.stuck_prob),
            enforce_fail_prob: clamp(self.enforce_fail_prob),
            crash_prob: clamp(self.crash_prob),
            ..self.clone()
        }
    }

    /// Parses a spec from the `--faults` CLI grammar: `none`, `default`,
    /// or a comma-separated `key=value` list over the keys `spike`,
    /// `spike_mag`, `drop`, `stuck`, `stuck_windows`, `enforce`, `crash`
    /// (a window index), `crash_prob`, and `crash_max`. Unlisted keys keep
    /// their [`FaultSpec::none`] defaults, so `spike=0.1` means "10%
    /// spikes and nothing else".
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] naming the offending token, its
    /// position, and what was wrong with it.
    pub fn parse(s: &str) -> Result<Self, FaultSpecError> {
        let s = s.trim();
        match s {
            "none" => return Ok(Self::none()),
            "default" => return Ok(Self::default_chaos()),
            "" => {
                return Err(FaultSpecError {
                    index: 0,
                    token: String::new(),
                    kind: FaultSpecErrorKind::Empty,
                });
            }
            _ => {}
        }
        let mut spec = Self::none();
        for (index, part) in s.split(',').enumerate() {
            let part = part.trim();
            let err = |kind| FaultSpecError { index, token: part.to_string(), kind };
            let Some((key, value)) = part.split_once('=') else {
                return Err(err(FaultSpecErrorKind::MissingEquals));
            };
            let key = key.trim();
            let prob = |v: &str| -> Result<f64, FaultSpecErrorKind> {
                let p: f64 = v.parse().map_err(|_| FaultSpecErrorKind::BadNumber)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(FaultSpecErrorKind::OutOfRange {
                        bounds: "a probability in [0, 1]",
                    });
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, FaultSpecErrorKind> {
                v.parse().map_err(|_| FaultSpecErrorKind::BadNumber)
            };
            let parsed: Result<(), FaultSpecErrorKind> = match key {
                "spike" => prob(value).map(|p| spec.spike_prob = p),
                "spike_mag" => match value.parse::<f64>() {
                    Err(_) => Err(FaultSpecErrorKind::BadNumber),
                    Ok(m) if m <= 1.0 => {
                        Err(FaultSpecErrorKind::OutOfRange { bounds: "a magnitude above 1" })
                    }
                    Ok(m) => {
                        spec.spike_magnitude = m;
                        Ok(())
                    }
                },
                "drop" => prob(value).map(|p| spec.drop_prob = p),
                "stuck" => prob(value).map(|p| spec.stuck_prob = p),
                "stuck_windows" => int(value).map(|n| spec.stuck_windows = n),
                "enforce" => prob(value).map(|p| spec.enforce_fail_prob = p),
                "crash" => int(value).map(|n| spec.crash_at_window = Some(n)),
                "crash_prob" => prob(value).map(|p| spec.crash_prob = p),
                "crash_max" => int(value).map(|n| spec.crash_window_max = n.max(1)),
                _ => Err(FaultSpecErrorKind::UnknownKey),
            };
            parsed.map_err(err)?;
        }
        Ok(spec)
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// Error from [`FaultSpec::parse`]: which token was bad, where it sat in
/// the comma-separated spec, and why it was rejected. The CLI surfaces
/// all three so the user can fix the exact token instead of re-deriving
/// it from a free-form message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// 0-based position of the offending token among the comma-separated
    /// parts of the spec string.
    pub index: usize,
    /// The offending token, trimmed (empty when the whole spec was empty).
    pub token: String,
    /// What was wrong with it.
    pub kind: FaultSpecErrorKind,
}

/// What [`FaultSpec::parse`] rejected about a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSpecErrorKind {
    /// The spec string was empty.
    Empty,
    /// The token had no `=` (and was not `none`/`default`).
    MissingEquals,
    /// The key is not in the fault grammar.
    UnknownKey,
    /// The value did not parse as a number.
    BadNumber,
    /// The value parsed but fell outside its legal range.
    OutOfRange {
        /// What the value must be.
        bounds: &'static str,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { index, token, kind } = self;
        match kind {
            FaultSpecErrorKind::Empty => write!(f, "invalid fault spec: empty"),
            FaultSpecErrorKind::MissingEquals => write!(
                f,
                "invalid fault spec at token {index} (`{token}`): \
                 expected key=value (or use `none`/`default`)"
            ),
            FaultSpecErrorKind::UnknownKey => {
                write!(f, "invalid fault spec at token {index} (`{token}`): unknown fault key")
            }
            FaultSpecErrorKind::BadNumber => {
                write!(f, "invalid fault spec at token {index} (`{token}`): bad number")
            }
            FaultSpecErrorKind::OutOfRange { bounds } => {
                write!(f, "invalid fault spec at token {index} (`{token}`): value must be {bounds}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Deterministic kill schedule for a durable fleet run: the "process"
/// dies immediately after handling its `after_event`-th journaled event
/// (0-based seqno), at one of two instruction boundaries. Sweeping
/// `after_event` over every seqno — at both boundaries — is how the
/// recovery tests prove checkpoint+journal replay byte-identical
/// to a never-crashed run at *any* kill point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seqno of the last event handled before the kill.
    pub after_event: u64,
    /// Which side of the journal/apply boundary the kill lands on.
    pub point: CrashPoint,
}

/// Where, relative to one event's write-ahead protocol, a [`CrashPlan`]
/// kills the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the event is journaled but before it mutates scheduler
    /// state: recovery must re-apply it from the journal.
    Journaled,
    /// After the event is applied (and any due checkpoint written):
    /// recovery must *not* double-apply it.
    Applied,
}

impl CrashPlan {
    /// Whether the plan fires at `point` for the event with `seqno`.
    #[must_use]
    pub fn fires(&self, seqno: u64, point: CrashPoint) -> bool {
        self.after_event == seqno && self.point == point
    }
}

/// Counters for every fault this decorator has injected, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Counter spikes injected into otherwise-valid observations.
    pub spikes: u64,
    /// Windows dropped (ran, but counters unreadable).
    pub dropped: u64,
    /// Windows that stalled past their deadline.
    pub stuck: u64,
    /// Transient enforcement failures.
    pub enforce_faults: u64,
    /// Node crashes (0 or 1 per testbed).
    pub crashes: u64,
}

impl FaultStats {
    /// Total faults injected across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.spikes + self.dropped + self.stuck + self.enforce_faults + self.crashes
    }
}

/// A fault-injecting decorator over any [`Testbed`].
///
/// Faults surface through the fallible halves of the trait —
/// [`Testbed::enforce`] and [`Testbed::try_observe_window`] — as typed
/// [`SimError`] fault variants. The infallible [`Testbed::observe_window`]
/// panics on an injected fault by design: code still on the legacy panic
/// contract has no way to survive faults and should not be run under them.
#[derive(Debug)]
pub struct FaultyTestbed<T: Testbed> {
    inner: T,
    spec: FaultSpec,
    seed: u64,
    /// Window the node crashes at, resolved once at construction so the
    /// schedule never depends on how the testbed is driven.
    crash_at: Option<u64>,
    crashed: bool,
    /// Index of the next observation window (counts faulted windows too).
    window: u64,
    /// Index of the next `enforce` call, keying the enforcement stream.
    enforce_calls: u64,
    /// Windows of time burned by faulted windows (dropped + stuck), which
    /// the inner testbed's sample counter never saw.
    lost_windows: u64,
    stats: FaultStats,
}

impl<T: Testbed> FaultyTestbed<T> {
    /// Wraps `inner` with the fault plan `spec`, drawing every fault
    /// stream from `seed`. A probabilistic crash window is resolved here,
    /// once, so it is a pure function of `(spec, seed)`.
    pub fn new(inner: T, spec: FaultSpec, seed: u64) -> Self {
        let crash_at = match spec.crash_at_window {
            Some(k) => Some(k),
            None if spec.crash_prob > 0.0 => {
                let mut rng = StdRng::seed_from_u64(mix(seed, CRASH_TAG, 0));
                rng.gen_bool(spec.crash_prob)
                    .then(|| rng.gen_range(1..=spec.crash_window_max.max(1)))
            }
            None => None,
        };
        Self {
            inner,
            spec,
            seed,
            crash_at,
            crashed: false,
            window: 0,
            enforce_calls: 0,
            lost_windows: 0,
            stats: FaultStats::default(),
        }
    }

    /// The fault plan this decorator draws from.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Fault counts injected so far, by kind.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the node has crashed (every further call fails).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The wrapped testbed.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps back to the inner testbed.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Corrupts one job's counters in `obs`: an RNG-picked job has its
    /// tail latency inflated (or, half the time, deflated — an optimistic
    /// lie) by the spike magnitude, with QoS verdict and normalized
    /// throughput kept self-consistent so the outlier *looks* like a real
    /// measurement.
    fn spike(&mut self, obs: &mut Observation, rng: &mut StdRng) {
        if obs.jobs.is_empty() {
            return;
        }
        let job = rng.gen_range(0..obs.jobs.len());
        let magnitude = if rng.gen_bool(0.5) {
            self.spec.spike_magnitude
        } else {
            1.0 / self.spec.spike_magnitude
        };
        let j = &mut obs.jobs[job];
        j.latency_p95_us *= magnitude;
        if let Some(target) = j.qos_target_us {
            j.qos_met = Some(j.latency_p95_us <= target);
        }
        j.normalized_perf = (j.normalized_perf / magnitude).max(1e-6);
        self.stats.spikes += 1;
    }
}

impl<T: Testbed> Testbed for FaultyTestbed<T> {
    fn catalog(&self) -> &ResourceCatalog {
        self.inner.catalog()
    }

    fn job_count(&self) -> usize {
        self.inner.job_count()
    }

    fn job_specs(&self) -> Vec<JobSpec> {
        self.inner.job_specs()
    }

    fn workload(&self, job: usize) -> WorkloadId {
        self.inner.workload(job)
    }

    fn class(&self, job: usize) -> JobClass {
        self.inner.class(job)
    }

    fn qos(&self, job: usize) -> Option<QosSpec> {
        self.inner.qos(job)
    }

    fn load(&self, job: usize) -> f64 {
        self.inner.load(job)
    }

    fn set_load(&mut self, job: usize, load_frac: f64) -> Result<(), SimError> {
        self.inner.set_load(job, load_frac)
    }

    fn time_s(&self) -> f64 {
        self.inner.time_s()
    }

    fn window_s(&self) -> f64 {
        self.inner.window_s()
    }

    fn samples_observed(&self) -> u64 {
        // Faulted windows spent their time trying to measure; they count
        // toward the paper's windows-spent overhead metric even though the
        // inner testbed never finished them.
        self.inner.samples_observed() + self.lost_windows
    }

    fn enforce(&mut self, partition: &Partition) -> Result<(), SimError> {
        if self.crashed {
            return Err(SimError::NodeCrashed { window: self.window });
        }
        if self.spec.enforce_fail_prob > 0.0 {
            let call = self.enforce_calls;
            self.enforce_calls += 1;
            let mut rng = StdRng::seed_from_u64(mix(self.seed, ENFORCE_TAG, call));
            if rng.gen_bool(self.spec.enforce_fail_prob) {
                self.stats.enforce_faults += 1;
                return Err(SimError::EnforceFault { window: self.window });
            }
        }
        self.inner.enforce(partition)
    }

    fn observe_window(&mut self) -> Observation {
        self.try_observe_window()
            .expect("window faulted — drive FaultyTestbed through try_observe_window")
    }

    fn try_observe_window(&mut self) -> Result<Observation, SimError> {
        if self.crashed {
            return Err(SimError::NodeCrashed { window: self.window });
        }
        let window = self.window;
        self.window += 1;
        if let Some(k) = self.crash_at {
            if window >= k {
                self.crashed = true;
                self.stats.crashes += 1;
                return Err(SimError::NodeCrashed { window });
            }
        }
        if self.spec.is_none() {
            return Ok(self.inner.observe_window());
        }
        // One fresh RNG per window, drawn in a fixed order, so the
        // schedule is a pure function of (spec, seed, window index).
        let mut rng = StdRng::seed_from_u64(mix(self.seed, WINDOW_TAG, window));
        if self.spec.stuck_prob > 0.0 && rng.gen_bool(self.spec.stuck_prob) {
            let lost_windows = self.spec.stuck_windows + 1;
            for _ in 0..lost_windows {
                self.inner.advance_window();
            }
            self.lost_windows += lost_windows;
            self.stats.stuck += 1;
            return Err(SimError::WindowTimeout { window, lost_windows });
        }
        if self.spec.drop_prob > 0.0 && rng.gen_bool(self.spec.drop_prob) {
            self.inner.advance_window();
            self.lost_windows += 1;
            self.stats.dropped += 1;
            return Err(SimError::WindowDropped { window });
        }
        let mut obs = self.inner.observe_window();
        if self.spec.spike_prob > 0.0 && rng.gen_bool(self.spec.spike_prob) {
            self.spike(&mut obs, &mut rng);
        }
        Ok(obs)
    }

    fn advance_window(&mut self) {
        self.inner.advance_window();
    }
}

/// A [`TestbedFactory`] decorator: every testbed the inner factory builds
/// is wrapped in a [`FaultyTestbed`] whose fault seed is the build seed.
///
/// The cluster scheduler derives each node's build seed from
/// `(node id, commit count)`, a pure function of committed state — so the
/// fault schedule is too, and a recovered fleet replays the same crashes
/// as a never-killed one.
#[derive(Debug, Clone)]
pub struct FaultyFactory<F: TestbedFactory> {
    inner: F,
    spec: FaultSpec,
}

impl<F: TestbedFactory> FaultyFactory<F> {
    /// Wraps `inner` so its products inject faults per `spec`.
    pub fn new(inner: F, spec: FaultSpec) -> Self {
        Self { inner, spec }
    }

    /// The fault plan applied to every built testbed.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }
}

impl<F: TestbedFactory> TestbedFactory for FaultyFactory<F> {
    type Output = FaultyTestbed<F::Output>;

    fn build(
        &self,
        catalog: ResourceCatalog,
        jobs: Vec<JobSpec>,
        seed: u64,
    ) -> Result<Self::Output, SimError> {
        Ok(FaultyTestbed::new(self.inner.build(catalog, jobs, seed)?, self.spec.clone(), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::server::Server;
    use clite_sim::testbed::ServerFactory;

    fn server(seed: u64) -> Server {
        Server::new(
            ResourceCatalog::testbed(),
            vec![
                JobSpec::latency_critical(WorkloadId::Memcached, 0.4),
                JobSpec::background(WorkloadId::Blackscholes),
            ],
            seed,
        )
        .unwrap()
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        assert_eq!(FaultSpec::parse("none").unwrap(), FaultSpec::none());
        assert_eq!(FaultSpec::parse("default").unwrap(), FaultSpec::default_chaos());
        let spec = FaultSpec::parse(
            "spike=0.1,drop=0.05,stuck=0.02,stuck_windows=4,enforce=0.03,crash=12",
        )
        .unwrap();
        assert_eq!(spec.spike_prob, 0.1);
        assert_eq!(spec.drop_prob, 0.05);
        assert_eq!(spec.stuck_prob, 0.02);
        assert_eq!(spec.stuck_windows, 4);
        assert_eq!(spec.enforce_fail_prob, 0.03);
        assert_eq!(spec.crash_at_window, Some(12));
        assert!(FaultSpec::parse("spike=2").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("").is_err());
        assert!(FaultSpec::parse("spike").is_err());
    }

    #[test]
    fn parse_errors_carry_token_and_position() {
        let err = FaultSpec::parse("spike=0.1,bogus=1").unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.token, "bogus=1");
        assert_eq!(err.kind, FaultSpecErrorKind::UnknownKey);
        assert!(err.to_string().contains("token 1"));
        assert!(err.to_string().contains("bogus=1"));

        let err = FaultSpec::parse("drop=0.1, spike=nan?, crash=3").unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.token, "spike=nan?");
        assert_eq!(err.kind, FaultSpecErrorKind::BadNumber);

        let err = FaultSpec::parse("spike=1.5").unwrap_err();
        assert!(matches!(err.kind, FaultSpecErrorKind::OutOfRange { .. }));
        let err = FaultSpec::parse("spike_mag=0.5").unwrap_err();
        assert!(matches!(err.kind, FaultSpecErrorKind::OutOfRange { .. }));
        let err = FaultSpec::parse("spike").unwrap_err();
        assert_eq!(err.kind, FaultSpecErrorKind::MissingEquals);
        assert_eq!(FaultSpec::parse("").unwrap_err().kind, FaultSpecErrorKind::Empty);
    }

    #[test]
    fn crash_plan_fires_at_exactly_one_boundary() {
        let plan = CrashPlan { after_event: 3, point: CrashPoint::Journaled };
        assert!(plan.fires(3, CrashPoint::Journaled));
        assert!(!plan.fires(3, CrashPoint::Applied));
        assert!(!plan.fires(2, CrashPoint::Journaled));
        let plan = CrashPlan { after_event: 0, point: CrashPoint::Applied };
        assert!(plan.fires(0, CrashPoint::Applied));
        assert!(!plan.fires(0, CrashPoint::Journaled));
    }

    #[test]
    fn crash_at_window_is_permanent() {
        let mut t = FaultyTestbed::new(
            server(1),
            FaultSpec { crash_at_window: Some(2), ..FaultSpec::none() },
            9,
        );
        let p = Partition::equal_share(t.catalog(), 2).unwrap();
        t.enforce(&p).unwrap();
        assert!(t.try_observe_window().is_ok());
        assert!(t.try_observe_window().is_ok());
        let err = t.try_observe_window().unwrap_err();
        assert!(err.is_node_crash());
        assert!(t.crashed());
        assert!(t.enforce(&p).unwrap_err().is_node_crash());
        assert!(t.try_observe_window().unwrap_err().is_node_crash());
        assert_eq!(t.stats().crashes, 1);
    }

    #[test]
    fn faulted_windows_still_spend_time() {
        // drop_prob = 1: every window drops, clock advances anyway.
        let mut t =
            FaultyTestbed::new(server(2), FaultSpec { drop_prob: 1.0, ..FaultSpec::none() }, 5);
        let p = Partition::equal_share(t.catalog(), 2).unwrap();
        t.enforce(&p).unwrap();
        let t0 = t.time_s();
        let err = t.try_observe_window().unwrap_err();
        assert!(matches!(err, SimError::WindowDropped { window: 0 }));
        assert!(t.time_s() >= t0 + t.window_s() - 1e-9);
        assert_eq!(t.samples_observed(), 1);

        let mut t = FaultyTestbed::new(
            server(2),
            FaultSpec { stuck_prob: 1.0, stuck_windows: 3, ..FaultSpec::none() },
            5,
        );
        t.enforce(&p).unwrap();
        let t0 = t.time_s();
        let err = t.try_observe_window().unwrap_err();
        assert!(matches!(err, SimError::WindowTimeout { window: 0, lost_windows: 4 }));
        assert!(t.time_s() >= t0 + 4.0 * t.window_s() - 1e-9);
        assert_eq!(t.samples_observed(), 4);
    }

    #[test]
    fn spikes_corrupt_exactly_one_job_per_hit() {
        let mut faulty =
            FaultyTestbed::new(server(3), FaultSpec { spike_prob: 1.0, ..FaultSpec::none() }, 7);
        let mut clean = server(3);
        let p = Partition::equal_share(Testbed::catalog(&clean), 2).unwrap();
        faulty.enforce(&p).unwrap();
        Testbed::enforce(&mut clean, &p).unwrap();
        let spiked = faulty.try_observe_window().unwrap();
        let truth = Testbed::observe_window(&mut clean);
        let differing = spiked
            .jobs
            .iter()
            .zip(&truth.jobs)
            .filter(|(a, b)| a.latency_p95_us != b.latency_p95_us)
            .count();
        assert_eq!(differing, 1);
        assert_eq!(faulty.stats().spikes, 1);
    }

    #[test]
    fn enforce_faults_are_transient() {
        let mut t = FaultyTestbed::new(
            server(4),
            FaultSpec { enforce_fail_prob: 0.5, ..FaultSpec::none() },
            11,
        );
        let p = Partition::equal_share(t.catalog(), 2).unwrap();
        let mut failures = 0;
        let mut successes = 0;
        for _ in 0..64 {
            match t.enforce(&p) {
                Ok(()) => successes += 1,
                Err(e) => {
                    assert!(e.is_transient_fault());
                    failures += 1;
                }
            }
        }
        assert!(failures > 0 && successes > 0);
        assert_eq!(t.stats().enforce_faults, failures);
    }

    #[test]
    fn faulty_factory_wraps_products() {
        let f = FaultyFactory::new(
            ServerFactory,
            FaultSpec { crash_at_window: Some(1), ..FaultSpec::none() },
        );
        let mut t = f
            .build(
                ResourceCatalog::testbed(),
                vec![JobSpec::latency_critical(WorkloadId::Xapian, 0.3)],
                7,
            )
            .unwrap();
        assert!(t.try_observe_window().is_ok());
        assert!(t.try_observe_window().unwrap_err().is_node_crash());
    }
}
