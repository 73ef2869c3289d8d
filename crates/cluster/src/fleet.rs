//! The fleet service: a long-running, event-driven scheduler loop.
//!
//! Where [`crate::scheduler::ClusterScheduler`] answers one admission
//! question at a time, [`FleetService`] runs the warehouse: it consumes a
//! time-ordered stream of [`FleetEvent`]s — arrivals, departures, load
//! shifts, node onboarding — advancing a deterministic [`SimClock`] and
//! driving the existing [`Node`](crate::node::Node) admission and
//! re-partition searches per event.
//!
//! ## Mean-field epoch policy
//!
//! Probing every node for every arrival is O(fleet) searches per event —
//! unaffordable at thousands of nodes. Following the mean-field
//! core-allocation results (Li/Harchol-Balter/Berg), the service instead
//! *solves once and applies per-node*: once per epoch it computes a
//! single target LC load from the incrementally maintained
//! [`ClusterStats`] (mean committed load plus a headroom margin) and
//! installs it as a [`PlacementPolicy::TargetLoad`] template; per event,
//! candidate ordering follows the template and the scheduler's
//! `probe_limit` caps local refinement to a handful of CLITE searches.
//! Every input to the template is itself a deterministic function of the
//! event history, so the epoch policy preserves byte-identity.
//!
//! ## Determinism contract
//!
//! For a fixed trace and seed the fleet's placements and statistics are
//! byte-identical across repeated runs, any worker-pool size (probe seeds
//! are pure functions of committed state, and searches run serially at
//! every pool size), and any store shard count (lookups
//! depend only on per-mix bucket content). `crates/cluster/tests/fleet.rs`
//! pins these at fleet scale; `recovery.rs` adds recovered ≡ never
//! crashed.

use std::collections::VecDeque;
use std::sync::Arc;

use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_sim::workload::JobClass;
use clite_store::ShardedStore;
use clite_telemetry::{Event, Telemetry};

use crate::clock::SimClock;
use crate::event::{FleetEvent, TimedEvent};
use crate::placement::PlacementPolicy;
use crate::scheduler::{ClusterScheduler, Placement, SchedulerConfig};
use crate::stats::ClusterStats;
use crate::wire::FleetCheckpoint;
use crate::ClusterError;

/// Load-shedding policy: when and which arrivals the service rejects
/// without probing a single node.
///
/// Both triggers are pure functions of committed state and the event
/// stream — never wall clock — so shedding decisions replay byte-
/// identically:
///
/// * **Backlog**: the number of same-tick events still queued behind the
///   arrival (an arrival burst). Supplied by the caller, recorded in the
///   journal, so recovery sees the same value.
/// * **Window debt**: the sum of observation windows the last
///   [`debt_horizon`](OverloadConfig::debt_horizon) admissions cost. A run
///   of expensive admissions is the deterministic analogue of rising
///   admission latency.
///
/// Only low-priority (background-class) arrivals are ever shed; latency-
/// critical arrivals always get their probes. Defaults disable both
/// triggers, so a service without an overload policy is byte-identical to
/// the pre-shedding code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Shed when the same-tick backlog behind an arrival reaches this
    /// depth. `None` disables the trigger.
    pub shed_backlog: Option<u64>,
    /// Shed when the window debt over the last `debt_horizon` admissions
    /// reaches this many observation windows. `None` disables the trigger.
    pub shed_window_debt: Option<u64>,
    /// How many recent admissions the debt window covers.
    pub debt_horizon: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self { shed_backlog: None, shed_window_debt: None, debt_horizon: 8 }
    }
}

/// Fleet-service configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scheduler configuration (placement, admission mode, CLITE budget,
    /// probe cap).
    pub scheduler: SchedulerConfig,
    /// Re-solve the mean-field placement template every this many clock
    /// ticks; `0` keeps the configured placement policy untouched.
    pub epoch_ticks: u64,
    /// Headroom added to the solved mean LC load (percentage points):
    /// the target each node is steered toward leaves room for the next
    /// few arrivals before the template is re-solved.
    pub target_margin_pct: u32,
    /// Load-shedding policy (disabled by default).
    pub overload: OverloadConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            epoch_ticks: 0,
            target_margin_pct: 10,
            overload: OverloadConfig::default(),
        }
    }
}

impl FleetConfig {
    /// A config with the mean-field epoch policy enabled: template
    /// re-solved every `epoch_ticks`, local refinement capped at
    /// `probe_limit` candidate probes per admission.
    #[must_use]
    pub fn mean_field(epoch_ticks: u64, probe_limit: usize) -> Self {
        Self {
            scheduler: SchedulerConfig {
                probe_limit: Some(probe_limit),
                ..SchedulerConfig::default()
            },
            epoch_ticks,
            target_margin_pct: 10,
            overload: OverloadConfig::default(),
        }
    }

    /// [`mean_field`](FleetConfig::mean_field) with a trained placement
    /// model: candidate ordering uses [`PlacementPolicy::Learned`] instead
    /// of the solved target template. The epoch loop keeps solving the
    /// fleet-wide target, but never overwrites the learned policy — the
    /// model's fleet features absorb the aggregate state the template
    /// would have encoded.
    #[must_use]
    pub fn mean_field_learned(
        epoch_ticks: u64,
        probe_limit: usize,
        model: Arc<clite_learn::RankingModel>,
    ) -> Self {
        Self {
            scheduler: SchedulerConfig {
                placement: PlacementPolicy::Learned { model },
                probe_limit: Some(probe_limit),
                ..SchedulerConfig::default()
            },
            epoch_ticks,
            target_margin_pct: 10,
            overload: OverloadConfig::default(),
        }
    }
}

/// What handling one event did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventOutcome {
    /// An arrival was admitted.
    Placed(Placement),
    /// An arrival was rejected fleet-wide.
    Rejected {
        /// The job id the arrival was assigned.
        job: u64,
    },
    /// A departure (or load shift) removed/re-partitioned a live job.
    Applied {
        /// The affected job id.
        job: u64,
    },
    /// The referenced job was not live (rejected at arrival or lost with
    /// a crashed node); the event was a no-op.
    Stale {
        /// The referenced job id.
        job: u64,
    },
    /// New nodes joined the fleet.
    Onboarded {
        /// Ids of the added nodes.
        nodes: Vec<usize>,
    },
    /// A low-priority arrival was shed by the overload policy without
    /// probing any node (it still consumed a job id).
    Shed {
        /// The job id the arrival was assigned.
        job: u64,
    },
}

/// Counters summarizing a service's event history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Arrivals handled.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub placed: u64,
    /// Departures applied.
    pub departures: u64,
    /// Load shifts applied.
    pub load_shifts: u64,
    /// Stale departure/load-shift no-ops.
    pub stale_events: u64,
    /// Nodes onboarded after construction.
    pub nodes_onboarded: u64,
    /// Mean-field template re-solves.
    pub epoch_solves: u64,
    /// Crash-orphaned jobs successfully re-homed on surviving nodes.
    pub replacements: u64,
    /// Low-priority arrivals shed by the overload policy.
    pub arrivals_shed: u64,
}

/// The result of running a trace to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Per-arrival outcome, in arrival order: the hosting node, or `None`
    /// if rejected. This is the byte-identity witness the determinism
    /// tests compare.
    pub placements: Vec<Option<usize>>,
    /// Event counters.
    pub counters: FleetCounters,
    /// Final fleet statistics.
    pub stats: ClusterStats,
}

/// A long-running, event-driven colocation service over a scheduler.
#[derive(Debug)]
pub struct FleetService<F: TestbedFactory = ServerFactory> {
    scheduler: ClusterScheduler<F>,
    config: FleetConfig,
    clock: SimClock,
    /// Last epoch a template was solved for (`None` before the first).
    solved_epoch: Option<u64>,
    /// The most recently solved template target (checkpointed).
    target_pct: Option<u32>,
    counters: FleetCounters,
    /// Observation-window cost of the most recent admissions (newest at
    /// the back), capped at the overload policy's debt horizon.
    debt: VecDeque<u64>,
}

impl FleetService {
    /// A fleet of `nodes` simulated servers.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for zero nodes.
    pub fn new(nodes: usize, config: FleetConfig, seed: u64) -> Result<Self, ClusterError> {
        Self::with_factory(nodes, config, seed, ServerFactory)
    }
}

impl<F: TestbedFactory + Clone> FleetService<F> {
    /// A fleet whose nodes probe on testbeds built by `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for zero nodes.
    pub fn with_factory(
        nodes: usize,
        config: FleetConfig,
        seed: u64,
        factory: F,
    ) -> Result<Self, ClusterError> {
        let scheduler =
            ClusterScheduler::with_factory(nodes, config.scheduler.clone(), seed, factory)?;
        Ok(Self {
            scheduler,
            config,
            clock: SimClock::new(),
            solved_epoch: None,
            target_pct: None,
            counters: FleetCounters::default(),
            debt: VecDeque::new(),
        })
    }

    /// Rebuilds a service from a checkpoint, returning it together with
    /// the per-arrival placements recorded up to the checkpoint (the
    /// witness prefix the caller extends during replay). The mean-field
    /// template is reinstalled from the checkpointed target, so candidate
    /// ordering resumes exactly where the crashed run left it.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for a checkpoint with no
    /// nodes.
    pub fn restore(
        checkpoint: FleetCheckpoint,
        config: FleetConfig,
        factory: F,
        store: Option<Arc<ShardedStore>>,
    ) -> Result<(Self, Vec<Option<usize>>), ClusterError> {
        let scheduler = ClusterScheduler::restore(
            checkpoint.scheduler,
            config.scheduler.clone(),
            factory,
            store,
        )?;
        let mut clock = SimClock::new();
        clock.advance_to(checkpoint.clock_now);
        let mut service = Self {
            scheduler,
            config,
            clock,
            solved_epoch: checkpoint.solved_epoch,
            target_pct: checkpoint.target_pct,
            counters: checkpoint.counters,
            debt: checkpoint.debt.into(),
        };
        if let Some(target_pct) = service.target_pct {
            if !matches!(service.scheduler.config().placement, PlacementPolicy::Learned { .. }) {
                service.scheduler.set_placement(PlacementPolicy::TargetLoad { target_pct });
            }
        }
        Ok((service, checkpoint.placements))
    }

    /// Captures a checkpoint of the whole service at event boundary
    /// `seqno`, including the caller's witness prefix (`placements`).
    #[must_use]
    pub fn checkpoint(&self, seqno: u64, placements: &[Option<usize>]) -> FleetCheckpoint {
        FleetCheckpoint {
            seqno,
            clock_now: self.clock.now(),
            solved_epoch: self.solved_epoch,
            target_pct: self.target_pct,
            counters: self.counters(),
            placements: placements.to_vec(),
            debt: self.debt.iter().copied().collect(),
            scheduler: self.scheduler.snapshot(),
        }
    }

    /// Attaches an observation store to every node, current and future.
    #[must_use]
    pub fn with_store(mut self, store: Arc<ShardedStore>) -> Self {
        self.scheduler = self.scheduler.with_store(store);
        self
    }

    /// The underlying scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &ClusterScheduler<F> {
        &self.scheduler
    }

    /// The deterministic clock.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Event counters so far (re-placements are read live from the
    /// scheduler, which owns the orphan re-homing loops).
    #[must_use]
    pub fn counters(&self) -> FleetCounters {
        FleetCounters { replacements: self.scheduler.replaced(), ..self.counters }
    }

    /// Current fleet statistics (incrementally maintained).
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        self.scheduler.stats()
    }

    /// Whether the overload policy would shed this event right now: a
    /// background-class arrival while either trigger (same-tick backlog or
    /// recent window debt) is firing. Pure — callers journal the answer
    /// *before* applying the event, so recovery replays the same decision.
    #[must_use]
    pub fn would_shed(&self, event: &FleetEvent, backlog: u64) -> bool {
        let FleetEvent::Arrival { spec } = event else {
            return false;
        };
        if spec.class() != JobClass::Background {
            return false;
        }
        let overload = &self.config.overload;
        overload.shed_backlog.is_some_and(|depth| backlog >= depth)
            || overload.shed_window_debt.is_some_and(|debt| self.debt.iter().sum::<u64>() >= debt)
    }

    /// Records one admission's window cost in the overload debt window.
    fn note_admission_debt(&mut self, windows: u64) {
        let horizon = self.config.overload.debt_horizon.max(1);
        if self.debt.len() >= horizon {
            self.debt.pop_front();
        }
        self.debt.push_back(windows);
    }

    /// Handles one event: advances the clock, re-solves the mean-field
    /// template on epoch boundaries, and drives the scheduler.
    ///
    /// # Errors
    ///
    /// Propagates non-crash controller/simulator failures. Node crashes
    /// are absorbed (eviction + re-placement), stale job references are
    /// no-ops.
    pub fn handle(
        &mut self,
        event: &TimedEvent,
        telemetry: &Telemetry<'_>,
    ) -> Result<EventOutcome, ClusterError> {
        self.handle_with_backlog(event, 0, telemetry)
    }

    /// [`handle`](FleetService::handle) with the same-tick arrival backlog
    /// supplied, enabling the overload policy's backlog trigger. The
    /// durable fleet computes the backlog from the trace and journals it
    /// with the event, so recovery replays identical shedding decisions.
    ///
    /// # Errors
    ///
    /// Propagates non-crash controller/simulator failures.
    pub fn handle_with_backlog(
        &mut self,
        event: &TimedEvent,
        backlog: u64,
        telemetry: &Telemetry<'_>,
    ) -> Result<EventOutcome, ClusterError> {
        self.clock.advance_to(event.at);
        self.maybe_solve_epoch();
        match &event.event {
            FleetEvent::Arrival { spec } => {
                self.counters.arrivals += 1;
                let workload = spec.workload.name().to_owned();
                if self.would_shed(&event.event, backlog) {
                    let job = self.scheduler.note_shed();
                    self.counters.arrivals_shed += 1;
                    telemetry.emit(Event::ArrivalShed { job, backlog });
                    telemetry.emit(Event::JobArrived { job, workload });
                    return Ok(EventOutcome::Shed { job });
                }
                let spent_before = self.scheduler.total_samples_spent();
                let placed = self.scheduler.submit(spec.clone(), telemetry)?;
                self.note_admission_debt(
                    self.scheduler.total_samples_spent().saturating_sub(spent_before),
                );
                match placed {
                    Some(placement) => {
                        self.counters.placed += 1;
                        telemetry.emit(Event::JobArrived { job: placement.job_id, workload });
                        Ok(EventOutcome::Placed(placement))
                    }
                    None => {
                        // The scheduler consumed an id even though no node
                        // accepted the job: arrival k always has id k.
                        let job = self.counters.arrivals - 1;
                        telemetry.emit(Event::JobArrived { job, workload });
                        Ok(EventOutcome::Rejected { job })
                    }
                }
            }
            FleetEvent::Departure { job } => match self.scheduler.remove(*job, telemetry) {
                Ok(()) => {
                    self.counters.departures += 1;
                    telemetry.emit(Event::JobDeparted { job: *job });
                    Ok(EventOutcome::Applied { job: *job })
                }
                Err(ClusterError::UnknownJob { .. }) => {
                    self.counters.stale_events += 1;
                    Ok(EventOutcome::Stale { job: *job })
                }
                Err(e) => Err(e),
            },
            FleetEvent::LoadShift { job, load } => {
                match self.scheduler.update_load(*job, load.clone(), telemetry) {
                    Ok(()) => {
                        self.counters.load_shifts += 1;
                        let load_pct = (load.at(0.0) * 100.0).round().max(0.0) as u32;
                        telemetry.emit(Event::LoadShift { job: *job, load_pct });
                        Ok(EventOutcome::Applied { job: *job })
                    }
                    Err(ClusterError::UnknownJob { .. }) => {
                        self.counters.stale_events += 1;
                        Ok(EventOutcome::Stale { job: *job })
                    }
                    Err(e) => Err(e),
                }
            }
            FleetEvent::Onboard { nodes } => {
                let ids = self.scheduler.add_nodes(*nodes);
                self.counters.nodes_onboarded += ids.len() as u64;
                for &node in &ids {
                    telemetry.emit(Event::NodeOnboarded { node });
                }
                Ok(EventOutcome::Onboarded { nodes: ids })
            }
        }
    }

    /// Runs a whole trace, returning the per-arrival placements, the
    /// counters, and the final statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first non-crash failure.
    pub fn run(
        &mut self,
        trace: &[TimedEvent],
        telemetry: &Telemetry<'_>,
    ) -> Result<FleetRun, ClusterError> {
        if let PlacementPolicy::Learned { model } = &self.scheduler.config().placement {
            telemetry.emit(Event::ModelLoaded {
                feature_version: model.feature_version,
                epochs: model.epochs,
                train_loss: model.train_loss,
            });
        }
        let mut placements = Vec::new();
        for (index, event) in trace.iter().enumerate() {
            let backlog = backlog_at(trace, index);
            match self.handle_with_backlog(event, backlog, telemetry)? {
                EventOutcome::Placed(p) => placements.push(Some(p.node)),
                EventOutcome::Rejected { .. } | EventOutcome::Shed { .. } => placements.push(None),
                _ => {}
            }
        }
        Ok(FleetRun { placements, counters: self.counters(), stats: self.scheduler.stats() })
    }

    /// Re-solves the mean-field template when the clock crossed into a
    /// new epoch: one fleet-wide target LC load from the aggregate stats,
    /// applied per-node by [`PlacementPolicy::TargetLoad`].
    fn maybe_solve_epoch(&mut self) {
        if self.config.epoch_ticks == 0 {
            return;
        }
        let epoch = self.clock.epoch(self.config.epoch_ticks);
        if self.solved_epoch == Some(epoch) {
            return;
        }
        self.solved_epoch = Some(epoch);
        self.counters.epoch_solves += 1;
        let stats = self.scheduler.stats_ref();
        let alive: Vec<_> = stats.nodes.iter().filter(|n| n.alive).collect();
        if alive.is_empty() {
            return;
        }
        let mean_load: f64 = alive.iter().map(|n| n.lc_load).sum::<f64>() / alive.len() as f64;
        let target_pct = ((mean_load * 100.0).round().max(0.0) as u32)
            .saturating_add(self.config.target_margin_pct)
            .clamp(5, 95);
        self.target_pct = Some(target_pct);
        // A learned policy keeps serving its model: the target is still
        // solved and checkpointed, but the template never overwrites the
        // model — its fleet-level features carry the aggregate state the
        // template would have encoded.
        if !matches!(self.scheduler.config().placement, PlacementPolicy::Learned { .. }) {
            self.scheduler.set_placement(PlacementPolicy::TargetLoad { target_pct });
        }
    }
}

/// Same-tick backlog behind `trace[index]`: how many later events share
/// its timestamp — the burst depth the overload policy's backlog trigger
/// reads. A pure function of the trace, so it journals and replays.
#[must_use]
pub fn backlog_at(trace: &[TimedEvent], index: usize) -> u64 {
    let at = trace[index].at;
    trace[index + 1..].iter().take_while(|e| e.at == at).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, TraceConfig};
    use clite_sim::prelude::*;
    use std::sync::LazyLock;

    /// One disabled context shared by every test here.
    static OFF: LazyLock<Telemetry<'static>> = LazyLock::new(Telemetry::disabled);

    fn small_trace() -> Vec<TimedEvent> {
        generate(
            &TraceConfig {
                events: 12,
                arrival_weight: 5,
                departure_weight: 2,
                load_shift_weight: 2,
                ..TraceConfig::default()
            },
            11,
        )
    }

    #[test]
    fn fleet_processes_mixed_trace() {
        let mut fleet = FleetService::new(3, FleetConfig::default(), 5).unwrap();
        let run = fleet.run(&small_trace(), &OFF).unwrap();
        assert_eq!(run.counters.arrivals as usize, run.placements.len());
        assert!(run.counters.arrivals > 0);
        assert_eq!(
            run.stats.placed as u64 + run.counters.departures,
            run.counters.placed,
            "live jobs + departures account for every admission"
        );
    }

    #[test]
    fn onboarding_grows_the_fleet() {
        let mut fleet = FleetService::new(2, FleetConfig::default(), 5).unwrap();
        let outcome =
            fleet.handle(&TimedEvent::new(1, FleetEvent::Onboard { nodes: 3 }), &OFF).unwrap();
        assert_eq!(outcome, EventOutcome::Onboarded { nodes: vec![2, 3, 4] });
        assert_eq!(fleet.scheduler().nodes().len(), 5);
        assert_eq!(fleet.stats().nodes.len(), 5, "stats track onboarded nodes");
    }

    #[test]
    fn stale_departure_is_a_noop() {
        let mut fleet = FleetService::new(2, FleetConfig::default(), 5).unwrap();
        let outcome =
            fleet.handle(&TimedEvent::new(1, FleetEvent::Departure { job: 99 }), &OFF).unwrap();
        assert_eq!(outcome, EventOutcome::Stale { job: 99 });
        assert_eq!(fleet.counters().stale_events, 1);
    }

    #[test]
    fn epoch_policy_installs_target_template() {
        let mut fleet = FleetService::new(2, FleetConfig::mean_field(4, 2), 5).unwrap();
        let spec = JobSpec::latency_critical(WorkloadId::Memcached, 0.3);
        fleet
            .handle(&TimedEvent::new(1, FleetEvent::Arrival { spec: spec.clone() }), &OFF)
            .unwrap();
        assert_eq!(fleet.counters().epoch_solves, 1, "first event solves epoch 0");
        fleet.handle(&TimedEvent::new(5, FleetEvent::Arrival { spec }), &OFF).unwrap();
        assert_eq!(fleet.counters().epoch_solves, 2, "tick 5 crosses into epoch 1");
        assert!(matches!(fleet.scheduler().config().placement, PlacementPolicy::TargetLoad { .. }));
    }

    #[test]
    fn load_shift_repartitions_live_job() {
        let mut fleet = FleetService::new(1, FleetConfig::default(), 5).unwrap();
        let spec = JobSpec::latency_critical(WorkloadId::Memcached, 0.2);
        let outcome =
            fleet.handle(&TimedEvent::new(1, FleetEvent::Arrival { spec }), &OFF).unwrap();
        let EventOutcome::Placed(p) = outcome else { panic!("arrival must place") };
        let before = fleet.scheduler().nodes()[p.node].commits();
        let outcome = fleet
            .handle(
                &TimedEvent::new(
                    2,
                    FleetEvent::LoadShift { job: p.job_id, load: LoadSchedule::Constant(0.5) },
                ),
                &OFF,
            )
            .unwrap();
        assert_eq!(outcome, EventOutcome::Applied { job: p.job_id });
        assert!(fleet.scheduler().nodes()[p.node].commits() > before, "shift is a commit");
    }
}
