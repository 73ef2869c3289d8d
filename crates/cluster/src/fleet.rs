//! The fleet service: a long-running, event-driven scheduler loop.
//!
//! Where [`crate::scheduler::ClusterScheduler`] answers one admission
//! question at a time, [`FleetService`] runs the warehouse: it consumes a
//! time-ordered stream of [`FleetEvent`]s — arrivals, departures, load
//! shifts, node onboarding — advancing a deterministic [`SimClock`] and
//! driving the existing [`Node`](crate::node::Node) admission and
//! re-partition searches per event.
//!
//! Probing every node for every arrival is O(fleet) searches per event —
//! unaffordable at thousands of nodes. Per arrival, the configured
//! [`PlacementPolicy`] orders the candidates and the scheduler's
//! `probe_limit` caps the probes to a handful of CLITE searches. The
//! policy is fixed when the service is built.
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

/// Fleet-service configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Scheduler configuration (placement, admission mode, CLITE budget,
    /// probe cap).
    pub scheduler: SchedulerConfig,
    /// Load shedding: shed a background-class arrival, without probing a
    /// single node, when the same-tick backlog behind it (an arrival
    /// burst) reaches this depth. The caller supplies the backlog and the
    /// journal records it, so recovery replays the same decision.
    /// Latency-critical arrivals always get their probes. `None` (the
    /// default) never sheds.
    pub shed_backlog: Option<u64>,
}

impl FleetConfig {
    /// Least-loaded placement with at most `probe_limit` candidate probes
    /// per admission. The first argument is ignored: it was the period of
    /// a mean-field placement template that ordered candidates exactly as
    /// least-loaded does, and it stays only so existing callers compile.
    #[must_use]
    pub fn mean_field(_epoch_ticks: u64, probe_limit: usize) -> Self {
        Self {
            scheduler: SchedulerConfig {
                probe_limit: Some(probe_limit),
                ..SchedulerConfig::default()
            },
            shed_backlog: None,
        }
    }

    /// [`mean_field`](FleetConfig::mean_field) with a trained placement
    /// model: candidate ordering uses [`PlacementPolicy::Learned`]. The
    /// first argument is ignored, as there.
    #[must_use]
    pub fn mean_field_learned(
        _epoch_ticks: u64,
        probe_limit: usize,
        model: Arc<clite_learn::RankingModel>,
    ) -> Self {
        Self {
            scheduler: SchedulerConfig {
                placement: PlacementPolicy::Learned { model },
                probe_limit: Some(probe_limit),
                ..SchedulerConfig::default()
            },
            shed_backlog: None,
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
    /// A low-priority arrival was shed under [`FleetConfig::shed_backlog`]
    /// without probing any node (it still consumed a job id).
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
    /// Always 0: nothing solves epochs any more. Kept until the benchmark
    /// that reads it stops doing so.
    pub epoch_solves: u64,
    /// Crash-orphaned jobs successfully re-homed on surviving nodes.
    pub replacements: u64,
    /// Low-priority arrivals shed under [`FleetConfig::shed_backlog`].
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
    counters: FleetCounters,
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
        Ok(Self { scheduler, config, clock: SimClock::new(), counters: FleetCounters::default() })
    }

    /// Rebuilds a service from a checkpoint, returning it together with
    /// the per-arrival placements recorded up to the checkpoint (the
    /// witness prefix the caller extends during replay). Candidate
    /// ordering reads only the restored nodes and `config`, so it resumes
    /// exactly where the crashed run left it.
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
        let service = Self { scheduler, config, clock, counters: checkpoint.counters };
        Ok((service, checkpoint.placements))
    }

    /// Captures a checkpoint of the whole service at event boundary
    /// `seqno`, including the caller's witness prefix (`placements`).
    #[must_use]
    pub fn checkpoint(&self, seqno: u64, placements: &[Option<usize>]) -> FleetCheckpoint {
        FleetCheckpoint {
            seqno,
            clock_now: self.clock.now(),
            counters: self.counters(),
            placements: placements.to_vec(),
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

    /// Whether the service would shed this event under `backlog`: a
    /// background-class arrival whose same-tick backlog reaches
    /// [`FleetConfig::shed_backlog`]. Pure — callers journal the answer
    /// *before* applying the event, so recovery replays the same decision.
    #[must_use]
    pub fn would_shed(&self, event: &FleetEvent, backlog: u64) -> bool {
        let FleetEvent::Arrival { spec } = event else {
            return false;
        };
        spec.class() == JobClass::Background
            && self.config.shed_backlog.is_some_and(|depth| backlog >= depth)
    }

    /// Handles one event: advances the clock and drives the scheduler.
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
    /// supplied, enabling [`FleetConfig::shed_backlog`]. The
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
                match self.scheduler.submit(spec.clone(), telemetry)? {
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
}

/// Same-tick backlog behind `trace[index]`: how many later events share
/// its timestamp — the burst depth [`FleetConfig::shed_backlog`] is
/// compared with. A pure function of the trace, so it journals and replays.
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
