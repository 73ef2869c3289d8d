//! Argument parsing for the `colocate` CLI (hand-rolled; the workspace
//! stays dependency-light).
//!
//! Grammar:
//!
//! ```text
//! colocate run   [--policy NAME] [--seed N] [--telemetry-out PATH] [--store PATH] [--faults SPEC] JOB...
//! colocate load  [--policy NAME] [--seed N] [--trace NAME] [--windows N] [--queries N]
//!                [--threads N] [--report PATH] [--telemetry-out PATH] JOB...
//! colocate sweep [--policy NAME] [--seed N] [--telemetry-out PATH] [--store PATH] --sweep JOB JOB...
//! colocate qos   [WORKLOAD...]
//! JOB := <workload>[:<load-percent>]       e.g. memcached:40, blackscholes
//! SPEC := none | default | key=value[,key=value...]   (see clite-faults)
//! ```
//!
//! A job with a load is latency-critical; one without is background.

use std::path::PathBuf;

use clite_faults::FaultSpec;
use clite_load::{LoadConfig, TraceKind};
use clite_sim::prelude::*;

use crate::runner::PolicyKind;

/// Which candidate-ordering policy `colocate fleet` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementChoice {
    /// Least-loaded heuristic ordering (the default).
    #[default]
    Heuristic,
    /// Trained pairwise ranking model ([`clite_learn`]); with no
    /// `--model` the zero model reproduces the heuristic order.
    Learned,
}

impl PlacementChoice {
    /// Parses a `--placement` value.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for anything but `heuristic` / `learned`.
    pub fn parse(name: &str) -> Result<Self, ParseError> {
        match name {
            "heuristic" => Ok(Self::Heuristic),
            "learned" => Ok(Self::Learned),
            other => Err(ParseError(format!(
                "unknown placement '{other}' (expected 'heuristic' or 'learned')"
            ))),
        }
    }
}

/// A parsed `colocate` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one policy on one mix.
    Run {
        /// Policy to run.
        policy: PolicyKind,
        /// RNG seed.
        seed: u64,
        /// JSONL telemetry destination, if requested.
        telemetry_out: Option<PathBuf>,
        /// Observation-store path (CLITE only): persist samples and
        /// warm-start repeat searches.
        store: Option<PathBuf>,
        /// Chaos mode (CLITE only): inject this fault plan into the
        /// testbed and report how the controller degrades.
        faults: Option<FaultSpec>,
        /// The co-located jobs.
        jobs: Vec<JobSpec>,
    },
    /// Drive a searched partition through a load trace and report
    /// per-job latency percentiles against the equal-share baseline.
    Load {
        /// Policy whose partition is load-tested (against equal-share).
        policy: PolicyKind,
        /// Harness configuration (trace, windows, queries, threads, seed).
        config: LoadConfig,
        /// Versioned JSON report destination, if requested.
        report: Option<PathBuf>,
        /// JSONL telemetry destination, if requested.
        telemetry_out: Option<PathBuf>,
        /// The co-located jobs.
        jobs: Vec<JobSpec>,
    },
    /// Sweep one job's load from 10% to 90% against a fixed rest-of-mix.
    Sweep {
        /// Policy to run.
        policy: PolicyKind,
        /// RNG seed.
        seed: u64,
        /// JSONL telemetry destination, if requested.
        telemetry_out: Option<PathBuf>,
        /// Observation-store path (CLITE only), shared across the sweep's
        /// steps.
        store: Option<PathBuf>,
        /// The swept job (its parsed load is ignored).
        swept: JobSpec,
        /// The fixed jobs.
        fixed: Vec<JobSpec>,
    },
    /// Run the fleet service over a generated event trace.
    Fleet {
        /// Initial fleet size.
        nodes: usize,
        /// Events in the generated trace.
        events: usize,
        /// Trace + probe seed.
        seed: u64,
        /// Observation-store shard count; when absent, the count of the
        /// store already at `store` (8 for a new or in-memory store).
        shards: Option<usize>,
        /// Mean-field template re-solve period in ticks (0 disables).
        epoch: u64,
        /// Candidate nodes probed per admission (local refinement cap).
        probe_limit: usize,
        /// Crash/fault plan injected into every node's testbeds.
        faults: Option<FaultSpec>,
        /// Observation-store path (`<path>.shard<i>` per shard, like every
        /// `--store`); in-memory when absent.
        store: Option<PathBuf>,
        /// Candidate-ordering policy: heuristic (least-loaded) or learned.
        placement: PlacementChoice,
        /// Ranking-model path for learned placement; the zero model
        /// (heuristic-fallback order) when absent or unloadable.
        model: Option<PathBuf>,
        /// Durability directory (event journal + checkpoints); volatile
        /// when absent.
        journal: Option<PathBuf>,
        /// Resume from the journal directory instead of starting fresh.
        recover: bool,
        /// Kill the run after journaling the k-th event (demo/test hook
        /// for the recovery protocol; requires `--journal`).
        kill_after: Option<u64>,
    },
    /// Train the placement ranking model over simulator rollouts and save
    /// it as a checksummed model file.
    Train {
        /// Model destination.
        out: PathBuf,
        /// Rollout + SGD seed.
        seed: u64,
        /// SGD epochs.
        epochs: u32,
        /// Rollout groups (one incoming job × candidate set each).
        groups: usize,
    },
    /// Print QoS targets for LC workloads (all of them if none named).
    Qos {
        /// Workloads to describe.
        workloads: Vec<WorkloadId>,
    },
    /// Print usage.
    Help,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses one `workload[:load%]` job token.
///
/// # Errors
///
/// Returns [`ParseError`] for unknown workloads, malformed loads, loads
/// outside (0, 100], or an LC workload without a load / BG workload with
/// one.
pub fn parse_job(token: &str) -> Result<JobSpec, ParseError> {
    let (name, load) = match token.split_once(':') {
        Some((n, l)) => {
            let pct: f64 =
                l.parse().map_err(|_| ParseError(format!("bad load '{l}' in '{token}'")))?;
            if !(pct > 0.0 && pct <= 100.0) {
                return Err(ParseError(format!("load {pct}% outside (0, 100] in '{token}'")));
            }
            (n, Some(pct / 100.0))
        }
        None => (token, None),
    };
    let workload = WorkloadId::from_name(name)
        .ok_or_else(|| ParseError(format!("unknown workload '{name}'")))?;
    match (workload.class(), load) {
        (JobClass::LatencyCritical, Some(l)) => Ok(JobSpec::latency_critical(workload, l)),
        (JobClass::LatencyCritical, None) => Err(ParseError(format!(
            "latency-critical workload '{name}' needs a load, e.g. '{name}:40'"
        ))),
        (JobClass::Background, None) => Ok(JobSpec::background(workload)),
        (JobClass::Background, Some(_)) => {
            Err(ParseError(format!("background workload '{name}' takes no load")))
        }
    }
}

/// Parses a policy name (paper spelling, case-insensitive).
///
/// # Errors
///
/// Returns [`ParseError`] for unknown policies.
pub fn parse_policy(name: &str) -> Result<PolicyKind, ParseError> {
    PolicyKind::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(name)).ok_or_else(|| {
        ParseError(format!(
            "unknown policy '{name}' (expected one of: {})",
            PolicyKind::ALL.map(|k| k.name()).join(", ")
        ))
    })
}

/// Parses the full argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] on any malformed input.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().peekable();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "qos" => {
            let mut workloads = Vec::new();
            for tok in it {
                let w = WorkloadId::from_name(tok)
                    .ok_or_else(|| ParseError(format!("unknown workload '{tok}'")))?;
                workloads.push(w);
            }
            Ok(Command::Qos { workloads })
        }
        "load" => {
            let mut policy = PolicyKind::Clite;
            let mut config = LoadConfig::default();
            let mut report: Option<PathBuf> = None;
            let mut telemetry_out: Option<PathBuf> = None;
            let mut jobs: Vec<JobSpec> = Vec::new();
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--policy" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--policy requires a value".into()))?;
                        policy = parse_policy(v)?;
                    }
                    "--seed" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--seed requires a value".into()))?;
                        config.seed =
                            v.parse().map_err(|_| ParseError(format!("bad seed '{v}'")))?;
                    }
                    "--trace" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--trace requires a name".into()))?;
                        config.trace = TraceKind::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "unknown trace '{v}' (expected one of: {})",
                                TraceKind::ALL.map(TraceKind::name).join(", ")
                            ))
                        })?;
                    }
                    "--windows" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--windows requires a count".into()))?;
                        config.windows =
                            v.parse().map_err(|_| ParseError(format!("bad window count '{v}'")))?;
                        if config.windows == 0 {
                            return Err(ParseError("--windows must be at least 1".into()));
                        }
                    }
                    "--queries" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--queries requires a count".into()))?;
                        config.queries_per_window =
                            v.parse().map_err(|_| ParseError(format!("bad query count '{v}'")))?;
                    }
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--threads requires a count".into()))?;
                        config.threads =
                            v.parse().map_err(|_| ParseError(format!("bad thread count '{v}'")))?;
                        if config.threads == 0 {
                            return Err(ParseError("--threads must be at least 1".into()));
                        }
                    }
                    "--report" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--report requires a path".into()))?;
                        report = Some(PathBuf::from(v));
                    }
                    "--telemetry-out" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--telemetry-out requires a path".into()))?;
                        telemetry_out = Some(PathBuf::from(v));
                    }
                    other if other.starts_with('-') => {
                        return Err(ParseError(format!("unknown flag '{other}'")));
                    }
                    other => jobs.push(parse_job(other)?),
                }
            }
            if jobs.is_empty() {
                return Err(ParseError("load needs at least one job".into()));
            }
            Ok(Command::Load { policy, config, report, telemetry_out, jobs })
        }
        "fleet" => {
            let mut nodes = 64usize;
            let mut events = 48usize;
            let mut seed = 42u64;
            let mut shards: Option<usize> = None;
            let mut epoch = 8u64;
            let mut probe_limit = 4usize;
            let mut faults: Option<FaultSpec> = None;
            let mut store: Option<PathBuf> = None;
            let mut placement = PlacementChoice::default();
            let mut model: Option<PathBuf> = None;
            let mut journal: Option<PathBuf> = None;
            let mut recover = false;
            let mut kill_after: Option<u64> = None;
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--nodes" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--nodes requires a count".into()))?;
                        nodes =
                            v.parse().map_err(|_| ParseError(format!("bad node count '{v}'")))?;
                        if nodes == 0 {
                            return Err(ParseError("--nodes must be at least 1".into()));
                        }
                    }
                    "--events" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--events requires a count".into()))?;
                        events =
                            v.parse().map_err(|_| ParseError(format!("bad event count '{v}'")))?;
                    }
                    "--seed" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--seed requires a value".into()))?;
                        seed = v.parse().map_err(|_| ParseError(format!("bad seed '{v}'")))?;
                    }
                    "--shards" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--shards requires a count".into()))?;
                        let count: usize =
                            v.parse().map_err(|_| ParseError(format!("bad shard count '{v}'")))?;
                        if count == 0 {
                            return Err(ParseError("--shards must be at least 1".into()));
                        }
                        shards = Some(count);
                    }
                    "--epoch" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--epoch requires a tick count".into()))?;
                        epoch = v.parse().map_err(|_| ParseError(format!("bad epoch '{v}'")))?;
                    }
                    "--probe-limit" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--probe-limit requires a count".into()))?;
                        probe_limit =
                            v.parse().map_err(|_| ParseError(format!("bad probe limit '{v}'")))?;
                        if probe_limit == 0 {
                            return Err(ParseError("--probe-limit must be at least 1".into()));
                        }
                    }
                    "--faults" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--faults requires a spec".into()))?;
                        faults = Some(FaultSpec::parse(v).map_err(|e| ParseError(e.to_string()))?);
                    }
                    "--store" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--store requires a path".into()))?;
                        store = Some(PathBuf::from(v));
                    }
                    "--placement" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--placement requires a value".into()))?;
                        placement = PlacementChoice::parse(v)?;
                    }
                    "--model" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--model requires a path".into()))?;
                        model = Some(PathBuf::from(v));
                    }
                    "--journal" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--journal requires a directory".into()))?;
                        journal = Some(PathBuf::from(v));
                    }
                    "--recover" => recover = true,
                    "--kill-after" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--kill-after requires an event".into()))?;
                        kill_after = Some(
                            v.parse().map_err(|_| ParseError(format!("bad kill event '{v}'")))?,
                        );
                    }
                    other => {
                        return Err(ParseError(format!("unknown fleet argument '{other}'")));
                    }
                }
            }
            if model.is_some() && placement != PlacementChoice::Learned {
                return Err(ParseError("--model requires --placement learned".into()));
            }
            if journal.is_none() && (recover || kill_after.is_some()) {
                return Err(ParseError("--recover/--kill-after require --journal DIR".into()));
            }
            Ok(Command::Fleet {
                nodes,
                events,
                seed,
                shards,
                epoch,
                probe_limit,
                faults,
                store,
                placement,
                model,
                journal,
                recover,
                kill_after,
            })
        }
        "train" => {
            let mut out = PathBuf::from("results/placement.model");
            let mut seed = 42u64;
            let mut epochs = 12u32;
            let mut groups = 24usize;
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--out" => {
                        let v =
                            it.next().ok_or_else(|| ParseError("--out requires a path".into()))?;
                        out = PathBuf::from(v);
                    }
                    "--seed" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--seed requires a value".into()))?;
                        seed = v.parse().map_err(|_| ParseError(format!("bad seed '{v}'")))?;
                    }
                    "--epochs" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--epochs requires a count".into()))?;
                        epochs =
                            v.parse().map_err(|_| ParseError(format!("bad epoch count '{v}'")))?;
                        if epochs == 0 {
                            return Err(ParseError("--epochs must be at least 1".into()));
                        }
                    }
                    "--groups" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--groups requires a count".into()))?;
                        groups =
                            v.parse().map_err(|_| ParseError(format!("bad group count '{v}'")))?;
                        if groups < 2 {
                            return Err(ParseError("--groups must be at least 2".into()));
                        }
                    }
                    other => {
                        return Err(ParseError(format!("unknown train argument '{other}'")));
                    }
                }
            }
            Ok(Command::Train { out, seed, epochs, groups })
        }
        "run" | "sweep" => {
            let mut policy = PolicyKind::Clite;
            let mut seed = 42u64;
            let mut telemetry_out: Option<PathBuf> = None;
            let mut store: Option<PathBuf> = None;
            let mut faults: Option<FaultSpec> = None;
            let mut jobs: Vec<JobSpec> = Vec::new();
            let mut swept: Option<JobSpec> = None;
            while let Some(tok) = it.next() {
                match tok.as_str() {
                    "--telemetry-out" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--telemetry-out requires a path".into()))?;
                        telemetry_out = Some(PathBuf::from(v));
                    }
                    "--store" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--store requires a path".into()))?;
                        store = Some(PathBuf::from(v));
                    }
                    "--policy" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--policy requires a value".into()))?;
                        policy = parse_policy(v)?;
                    }
                    "--seed" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--seed requires a value".into()))?;
                        seed = v.parse().map_err(|_| ParseError(format!("bad seed '{v}'")))?;
                    }
                    "--faults" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--faults requires a spec".into()))?;
                        faults = Some(FaultSpec::parse(v).map_err(|e| ParseError(e.to_string()))?);
                    }
                    "--sweep" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--sweep requires a job token".into()))?;
                        swept = Some(parse_job(v)?);
                    }
                    other if other.starts_with('-') => {
                        return Err(ParseError(format!("unknown flag '{other}'")));
                    }
                    other => jobs.push(parse_job(other)?),
                }
            }
            if sub == "run" {
                if jobs.is_empty() {
                    return Err(ParseError("run needs at least one job".into()));
                }
                Ok(Command::Run { policy, seed, telemetry_out, store, faults, jobs })
            } else {
                if faults.is_some() {
                    return Err(ParseError("--faults only supports the run subcommand".into()));
                }
                let swept = swept
                    .ok_or_else(|| ParseError("sweep needs --sweep <workload>:<load>".into()))?;
                Ok(Command::Sweep { policy, seed, telemetry_out, store, swept, fixed: jobs })
            }
        }
        other => Err(ParseError(format!("unknown subcommand '{other}'"))),
    }
}

/// The usage text printed by `colocate help`.
#[must_use]
pub fn usage() -> &'static str {
    "colocate — co-locate jobs on a simulated server with a scheduling policy

USAGE:
  colocate run   [--policy NAME] [--seed N] [--telemetry-out PATH] [--store PATH] [--faults SPEC] JOB...
  colocate load  [--policy NAME] [--seed N] [--trace NAME] [--windows N] [--queries N]
                 [--threads N] [--report PATH] [--telemetry-out PATH] JOB...
  colocate sweep [--policy NAME] [--seed N] [--telemetry-out PATH] [--store PATH] --sweep JOB JOB...
  colocate fleet [--nodes N] [--events N] [--seed N] [--shards N]
                 [--epoch N] [--probe-limit N] [--faults SPEC] [--store PATH]
                 [--placement heuristic|learned] [--model PATH]
                 [--journal DIR] [--recover] [--kill-after K]
  colocate train [--out PATH] [--seed N] [--epochs N] [--groups N]
  colocate qos   [WORKLOAD...]

JOB:
  <workload>:<load-percent>   latency-critical, e.g. memcached:40
  <workload>                  background, e.g. blackscholes

POLICIES:
  Heracles, PARTIES, RAND+, GENETIC, CLITE (default), ORACLE

TELEMETRY:
  --telemetry-out PATH writes one JSON event per line to PATH and prints a
  Prometheus metrics snapshot plus a search-phase overhead report on exit.

STORE:
  --store PATH (CLITE only) appends every evaluated sample to a crash-safe
  sharded observation store and warm-starts repeat searches on the same
  (or nearby-load) mix from it. The run prints 'store: hit' or
  'store: miss'. Every --store (run, sweep, fleet, experiments fig16)
  keeps one log per shard at PATH.shard<i>, so they can share one PATH.
  A new PATH gets 8 shards unless 'colocate fleet --shards' says
  otherwise; run, sweep, fleet and fig16 reopen a PATH at the count it
  was made with. 'fleet --shards N' on a PATH of another count exits 1
  and names both counts.
  A shard with a corrupt tail is recovered with a warning on stderr.

LOAD (latency percentiles under a trace):
  colocate load searches a partition with --policy, enforces it, then fires
  simulated queries through a client pool while the trace (steady, diurnal,
  bursty) modulates offered load. It prints per-job p50/p90/p99/p99.9 and
  QoS-violation fractions for the policy AND the equal-share baseline, and
  --report PATH writes the versioned JSON report the loadgate CI gate diffs.

FAULTS (chaos mode, CLITE only):
  --faults SPEC injects deterministic faults into the testbed and runs the
  hardened controller: counter spikes are quarantined, dropped/stuck
  windows retried with backoff, and on an unrecoverable fault the run
  degrades to the best QoS-feasible partition instead of panicking.
  SPEC is 'none', 'default', or comma-separated key=value pairs:
  spike, spike_mag, drop, stuck, stuck_windows, enforce, crash
  (= crash at window N), crash_prob, crash_max.

FLEET (long-running event-driven scheduler):
  colocate fleet generates a deterministic arrival/departure/load-shift
  trace (--events long, from --seed) and streams it through the fleet
  service over --nodes simulated servers backed by a --shards-way sharded
  observation store (default: the count of the store at --store, else
  8). --epoch re-solves the mean-field placement template
  every N ticks and --probe-limit caps CLITE searches per admission,
  which probes candidates in placement order and stops at the first
  feasible node. --faults injects node crashes; --store persists the
  observation store (see STORE). --placement learned orders
  candidate nodes with the trained ranking model from --model (a missing
  or corrupt file degrades to the zero model, whose order matches the
  least-loaded heuristic).

DURABILITY (write-ahead journal + checkpoints):
  --journal DIR makes the fleet durable: every event is journaled (with
  its shed disposition) before it mutates scheduler state, and periodic
  checkpoints bound replay. --recover resumes from DIR — newest valid
  checkpoint plus journal suffix — and finishing the same trace yields a
  byte-identical witness to a never-crashed run. --kill-after K kills the
  process right after journaling event K (recovery demo/test hook).

TRAIN (fit the placement ranking model):
  colocate train runs deterministic simulator rollouts (labels come from
  ground-truth windows, never from anything admission can see), fits the
  pairwise ranking model with seeded SGD, and saves it as a checksummed
  model file at --out. Same --seed => bit-identical weights at any worker
  count.

EXAMPLES:
  colocate run memcached:40 img-dnn:30 streamcluster
  colocate load --trace bursty memcached:70 img-dnn:60
  colocate load --report results/reports/adhoc.json memcached:40 streamcluster
  colocate run --policy PARTIES memcached:40 img-dnn:30 streamcluster
  colocate run --telemetry-out /tmp/run.jsonl memcached:40 img-dnn:30 streamcluster
  colocate run --store /tmp/obs.clite memcached:40 img-dnn:30 streamcluster
  colocate run --faults default memcached:40 img-dnn:30 streamcluster
  colocate run --faults spike=0.1,drop=0.05 memcached:40 streamcluster
  colocate sweep --sweep memcached:0 masstree:30 img-dnn:30
  colocate fleet --nodes 128 --events 64 --faults crash_prob=0.3,crash_max=20
  colocate train --out results/placement.model --epochs 12
  colocate fleet --placement learned --model results/placement.model
  colocate fleet --journal /tmp/fleet.wal --kill-after 20
  colocate fleet --journal /tmp/fleet.wal --recover
  colocate qos memcached xapian"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_lc_and_bg_jobs() {
        let lc = parse_job("memcached:40").unwrap();
        assert_eq!(lc.workload, WorkloadId::Memcached);
        assert!((lc.load.at(0.0) - 0.4).abs() < 1e-12);
        let bg = parse_job("blackscholes").unwrap();
        assert_eq!(bg.class(), JobClass::Background);
    }

    #[test]
    fn rejects_malformed_jobs() {
        assert!(parse_job("nginx:40").is_err());
        assert!(parse_job("memcached").is_err(), "LC without load");
        assert!(parse_job("blackscholes:40").is_err(), "BG with load");
        assert!(parse_job("memcached:0").is_err());
        assert!(parse_job("memcached:140").is_err());
        assert!(parse_job("memcached:abc").is_err());
    }

    #[test]
    fn parses_policies_case_insensitively() {
        assert_eq!(parse_policy("clite").unwrap(), PolicyKind::Clite);
        assert_eq!(parse_policy("PARTIES").unwrap(), PolicyKind::Parties);
        assert_eq!(parse_policy("rand+").unwrap(), PolicyKind::RandomPlus);
        assert!(parse_policy("sgd").is_err());
    }

    #[test]
    fn parses_run_command() {
        let cmd =
            parse(&v(&["run", "--policy", "PARTIES", "--seed", "7", "memcached:40", "swaptions"]))
                .unwrap();
        match cmd {
            Command::Run { policy, seed, telemetry_out, store, faults, jobs } => {
                assert_eq!(policy, PolicyKind::Parties);
                assert_eq!(seed, 7);
                assert_eq!(telemetry_out, None);
                assert_eq!(store, None);
                assert_eq!(faults, None);
                assert_eq!(jobs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_telemetry_out_flag() {
        let cmd = parse(&v(&["run", "--telemetry-out", "/tmp/run.jsonl", "memcached:40"])).unwrap();
        match cmd {
            Command::Run { telemetry_out, .. } => {
                assert_eq!(telemetry_out, Some(PathBuf::from("/tmp/run.jsonl")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["run", "--telemetry-out"])).is_err(), "flag needs a path");
        let sweep = parse(&v(&[
            "sweep",
            "--telemetry-out",
            "t.jsonl",
            "--sweep",
            "memcached:10",
            "masstree:30",
        ]))
        .unwrap();
        match sweep {
            Command::Sweep { telemetry_out, .. } => {
                assert_eq!(telemetry_out, Some(PathBuf::from("t.jsonl")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_store_flag() {
        let cmd = parse(&v(&["run", "--store", "/tmp/obs.clite", "memcached:40"])).unwrap();
        match cmd {
            Command::Run { store, .. } => {
                assert_eq!(store, Some(PathBuf::from("/tmp/obs.clite")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["run", "--store"])).is_err(), "flag needs a path");
        let sweep =
            parse(&v(&["sweep", "--store", "obs.clite", "--sweep", "memcached:10", "masstree:30"]))
                .unwrap();
        match sweep {
            Command::Sweep { store, .. } => assert_eq!(store, Some(PathBuf::from("obs.clite"))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_faults_flag() {
        let cmd = parse(&v(&["run", "--faults", "default", "memcached:40"])).unwrap();
        match cmd {
            Command::Run { faults, .. } => assert_eq!(faults, Some(FaultSpec::default_chaos())),
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&v(&["run", "--faults", "spike=0.1,crash=6", "memcached:40"])).unwrap();
        match cmd {
            Command::Run { faults: Some(spec), .. } => {
                assert!((spec.spike_prob - 0.1).abs() < 1e-12);
                assert_eq!(spec.crash_at_window, Some(6));
            }
            other => panic!("unexpected {other:?}"),
        }
        let none = parse(&v(&["run", "--faults", "none", "memcached:40"])).unwrap();
        match none {
            Command::Run { faults: Some(spec), .. } => assert!(spec.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["run", "--faults"])).is_err(), "flag needs a spec");
        assert!(parse(&v(&["run", "--faults", "bogus=1", "memcached:40"])).is_err());
        assert!(
            parse(&v(&["sweep", "--faults", "default", "--sweep", "memcached:10", "masstree:30"]))
                .is_err(),
            "chaos mode is run-only"
        );
    }

    #[test]
    fn parses_load_command() {
        let cmd = parse(&v(&[
            "load",
            "--trace",
            "bursty",
            "--windows",
            "6",
            "--queries",
            "5000",
            "--threads",
            "2",
            "--seed",
            "9",
            "--report",
            "out.json",
            "memcached:70",
            "img-dnn:60",
        ]))
        .unwrap();
        match cmd {
            Command::Load { policy, config, report, telemetry_out, jobs } => {
                assert_eq!(policy, PolicyKind::Clite);
                assert_eq!(config.trace, TraceKind::Bursty);
                assert_eq!(config.windows, 6);
                assert_eq!(config.queries_per_window, 5000);
                assert_eq!(config.threads, 2);
                assert_eq!(config.seed, 9);
                assert_eq!(report, Some(PathBuf::from("out.json")));
                assert_eq!(telemetry_out, None);
                assert_eq!(jobs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_command_defaults_and_rejects_bad_input() {
        match parse(&v(&["load", "memcached:40"])).unwrap() {
            Command::Load { policy, config, report, .. } => {
                assert_eq!(policy, PolicyKind::Clite);
                assert_eq!(config, LoadConfig::default());
                assert_eq!(report, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["load"])).is_err(), "load without jobs");
        assert!(parse(&v(&["load", "--trace", "square", "memcached:40"])).is_err());
        assert!(parse(&v(&["load", "--windows", "0", "memcached:40"])).is_err());
        assert!(parse(&v(&["load", "--threads", "0", "memcached:40"])).is_err());
        assert!(parse(&v(&["load", "--faults", "default", "memcached:40"])).is_err());
    }

    #[test]
    fn parses_sweep_command() {
        let cmd =
            parse(&v(&["sweep", "--sweep", "memcached:10", "masstree:30", "img-dnn:30"])).unwrap();
        match cmd {
            Command::Sweep { swept, fixed, .. } => {
                assert_eq!(swept.workload, WorkloadId::Memcached);
                assert_eq!(fixed.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&v(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run"])).is_err(), "run without jobs");
        assert!(parse(&v(&["sweep", "masstree:30"])).is_err(), "sweep without --sweep");
    }

    #[test]
    fn parses_fleet_command_with_defaults() {
        match parse(&v(&["fleet"])).unwrap() {
            Command::Fleet {
                nodes,
                events,
                seed,
                shards,
                epoch,
                probe_limit,
                faults,
                store,
                placement,
                model,
                journal,
                recover,
                kill_after,
            } => {
                assert_eq!(nodes, 64);
                assert_eq!(events, 48);
                assert_eq!(seed, 42);
                assert_eq!(shards, None);
                assert_eq!(epoch, 8);
                assert_eq!(probe_limit, 4);
                assert_eq!(faults, None);
                assert_eq!(store, None);
                assert_eq!(placement, PlacementChoice::Heuristic);
                assert_eq!(model, None);
                assert_eq!(journal, None);
                assert!(!recover);
                assert_eq!(kill_after, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_fleet_placement_flags() {
        let cmd = parse(&v(&["fleet", "--placement", "learned", "--model", "m.bin"])).unwrap();
        match cmd {
            Command::Fleet { placement, model, .. } => {
                assert_eq!(placement, PlacementChoice::Learned);
                assert_eq!(model, Some(PathBuf::from("m.bin")));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["fleet", "--placement", "learned"])).unwrap() {
            Command::Fleet { placement, model, .. } => {
                assert_eq!(placement, PlacementChoice::Learned);
                assert_eq!(model, None, "learned without --model serves the zero model");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["fleet", "--placement", "sgd"])).is_err(), "unknown placement");
        assert!(
            parse(&v(&["fleet", "--model", "m.bin"])).is_err(),
            "--model without --placement learned"
        );
        assert!(
            parse(&v(&["fleet", "--placement", "heuristic", "--model", "m.bin"])).is_err(),
            "--model with the heuristic"
        );
    }

    #[test]
    fn parses_train_command() {
        match parse(&v(&["train"])).unwrap() {
            Command::Train { out, seed, epochs, groups } => {
                assert_eq!(out, PathBuf::from("results/placement.model"));
                assert_eq!(seed, 42);
                assert_eq!(epochs, 12);
                assert_eq!(groups, 24);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&[
            "train", "--out", "m.bin", "--seed", "7", "--epochs", "3", "--groups", "8",
        ]))
        .unwrap()
        {
            Command::Train { out, seed, epochs, groups } => {
                assert_eq!(out, PathBuf::from("m.bin"));
                assert_eq!(seed, 7);
                assert_eq!(epochs, 3);
                assert_eq!(groups, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["train", "--epochs", "0"])).is_err());
        assert!(parse(&v(&["train", "--groups", "1"])).is_err());
        assert!(parse(&v(&["train", "memcached:40"])).is_err(), "train takes no job tokens");
    }

    #[test]
    fn parses_fleet_command_with_flags() {
        let cmd = parse(&v(&[
            "fleet",
            "--nodes",
            "512",
            "--events",
            "96",
            "--shards",
            "16",
            "--epoch",
            "4",
            "--probe-limit",
            "2",
            "--faults",
            "crash_prob=0.3,crash_max=20",
            "--store",
            "/tmp/fleet.obs",
        ]))
        .unwrap();
        match cmd {
            Command::Fleet { nodes, events, shards, epoch, probe_limit, faults, store, .. } => {
                assert_eq!(nodes, 512);
                assert_eq!(events, 96);
                assert_eq!(shards, Some(16));
                assert_eq!(epoch, 4);
                assert_eq!(probe_limit, 2);
                let spec = faults.expect("fault spec parsed");
                assert!((spec.crash_prob - 0.3).abs() < 1e-12);
                assert_eq!(store, Some(PathBuf::from("/tmp/fleet.obs")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fleet_command_rejects_bad_input() {
        assert!(parse(&v(&["fleet", "--nodes", "0"])).is_err());
        assert!(parse(&v(&["fleet", "--shards", "0"])).is_err());
        assert!(parse(&v(&["fleet", "--probe-limit", "0"])).is_err());
        assert!(parse(&v(&["fleet", "--nodes"])).is_err(), "flag needs a value");
        assert!(parse(&v(&["fleet", "memcached:40"])).is_err(), "fleet takes no job tokens");
        assert!(parse(&v(&["fleet", "--threaded"])).is_err(), "removed flags must not parse");
    }

    #[test]
    fn parses_fleet_durability_flags() {
        let cmd = parse(&v(&["fleet", "--journal", "/tmp/wal", "--kill-after", "7"])).unwrap();
        match cmd {
            Command::Fleet { journal, recover, kill_after, .. } => {
                assert_eq!(journal, Some(PathBuf::from("/tmp/wal")));
                assert!(!recover);
                assert_eq!(kill_after, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&v(&["fleet", "--journal", "/tmp/wal", "--recover"])).unwrap() {
            Command::Fleet { recover, kill_after, .. } => {
                assert!(recover);
                assert_eq!(kill_after, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["fleet", "--journal"])).is_err(), "flag needs a directory");
        assert!(parse(&v(&["fleet", "--kill-after", "x", "--journal", "d"])).is_err());
        assert!(parse(&v(&["fleet", "--recover"])).is_err(), "--recover needs --journal");
        assert!(parse(&v(&["fleet", "--kill-after", "3"])).is_err(), "needs --journal");
    }

    #[test]
    fn fault_spec_errors_name_the_offending_token() {
        let err = parse(&v(&["run", "--faults", "spike=0.1,bogus=1", "memcached:40"]))
            .expect_err("unknown key must fail");
        assert!(err.0.contains("bogus=1"), "message must quote the token: {err}");
        assert!(err.0.contains("token 1"), "message must give the position: {err}");
        let err = parse(&v(&["run", "--faults", "spike=abc", "memcached:40"]))
            .expect_err("bad number must fail");
        assert!(err.0.contains("spike=abc"), "message must quote the token: {err}");
    }

    #[test]
    fn qos_command_accepts_names() {
        match parse(&v(&["qos", "memcached", "xapian"])).unwrap() {
            Command::Qos { workloads } => assert_eq!(workloads.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["qos", "nginx"])).is_err());
    }
}
