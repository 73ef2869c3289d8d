//! The CLITE search loop (paper Fig. 5 / Algorithm 1).
//!
//! One [`CliteController::run`]:
//!
//! 1. **Bootstrap** — evaluate the equal-division partition plus one
//!    maximum-allocation extremum per job (`N_jobs + 1` samples). An LC job
//!    that misses QoS *under its own maximum extremum* can never meet it in
//!    this co-location; it is reported in
//!    [`CliteOutcome::infeasible_jobs`](crate::trace::CliteOutcome) and the
//!    search stops immediately ("these jobs can be immediately scheduled
//!    elsewhere without wasting any BO cycles").
//! 2. **Search** — repeat: pick a dropout job (the LC job performing best
//!    so far, frozen at its best-seen allocation), ask the BO engine for
//!    the acquisition-maximizing partition with that row frozen, enforce
//!    it, observe for one window, score with Eq. 3, record.
//! 3. **Terminate** — when the expected improvement stays below the
//!    job-count-scaled threshold (or the iteration cap fires).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_bo::engine::{BoEngine, Suggestion};
use clite_bo::space::SearchSpace;
use clite_bo::BoError;
use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::metrics::Observation;
use clite_sim::testbed::Testbed;
use clite_sim::workload::JobClass;
use clite_sim::SimError;
use clite_store::{MixSignature, ShardedStore, WarmStart};
use clite_telemetry::{Event, Phase, StopReason, Telemetry};

use crate::config::{CliteConfig, DropoutPolicy, RecoveryConfig};
use crate::score::{score_observation, ScoreBreakdown};
use crate::trace::{CliteOutcome, SampleRecord};
use crate::CliteError;

/// The CLITE controller.
#[derive(Debug, Clone, Default)]
pub struct CliteController {
    config: CliteConfig,
}

impl CliteController {
    /// Builds a controller with the given configuration.
    #[must_use]
    pub fn new(config: CliteConfig) -> Self {
        Self { config }
    }

    /// The controller's configuration.
    #[must_use]
    pub fn config(&self) -> &CliteConfig {
        &self.config
    }

    /// Runs one full search on `testbed` (any [`Testbed`] backend) and
    /// returns the outcome. The testbed is left with the last *sampled*
    /// partition enforced; callers should enforce
    /// [`CliteOutcome::best_partition`] afterwards (the adaptive runner
    /// does).
    ///
    /// # Errors
    ///
    /// Returns [`CliteError::Bo`] if the engine cannot fit a surrogate or
    /// produce a candidate, and [`CliteError::Sim`] for simulator
    /// rejections.
    pub fn run<T: Testbed>(&self, testbed: &mut T) -> Result<CliteOutcome, CliteError> {
        self.run_with(testbed, &Telemetry::disabled())
    }

    /// [`run`](CliteController::run) with telemetry: every bootstrap
    /// sample, QoS violation, dropout freeze, chosen candidate, GP refit,
    /// and the termination reason are emitted as structured events, and
    /// the observe/score/GP-fit/acquisition phases are stopwatch-profiled
    /// into [`CliteOutcome::overhead`] (the paper's Fig. 15b breakdown).
    ///
    /// # Errors
    ///
    /// See [`CliteController::run`].
    pub fn run_with<T: Testbed>(
        &self,
        server: &mut T,
        telemetry: &Telemetry<'_>,
    ) -> Result<CliteOutcome, CliteError> {
        self.run_inner(server, None, telemetry)
    }

    /// [`run_with`](CliteController::run_with), primed with stored samples
    /// from an earlier search on the same (or a nearby-load) mix.
    ///
    /// The warm entries seed the BO engine's history — so the surrogate
    /// starts informed and stored points are never re-proposed — but are
    /// *not* added to the run's sample trace: [`CliteOutcome::samples`]
    /// still contains only windows this run actually observed, and their
    /// timestamps stay monotone. When the warm evidence contains a
    /// QoS-meeting configuration and at least `N_jobs + 1` entries, the
    /// bootstrap phase is skipped entirely (its two purposes — seeding the
    /// surrogate and per-job infeasibility screening — are already
    /// answered by the prior run).
    ///
    /// # Errors
    ///
    /// See [`CliteController::run`].
    pub fn run_warmed<T: Testbed>(
        &self,
        server: &mut T,
        warm: &WarmStart,
        telemetry: &Telemetry<'_>,
    ) -> Result<CliteOutcome, CliteError> {
        self.run_inner(server, Some(warm), telemetry)
    }

    /// One search against a persistent observation store: looks up warm
    /// samples for the testbed's current mix signature, runs (warm or
    /// cold), then appends every window this run observed back to the
    /// store for the next invocation.
    ///
    /// # Errors
    ///
    /// [`CliteError::Store`] if the store's log cannot be written, plus
    /// everything [`CliteController::run`] returns.
    pub fn run_with_store<T: Testbed>(
        &self,
        server: &mut T,
        store: &ShardedStore,
        telemetry: &Telemetry<'_>,
    ) -> Result<CliteOutcome, CliteError> {
        let signature = MixSignature::capture(server);
        let outcome = match store.warm_start_with(&signature, telemetry) {
            Some(warm) => self.run_warmed(server, &warm, telemetry)?,
            None => self.run_with(server, telemetry)?,
        };
        for rec in &outcome.samples {
            store.append_with(
                &signature,
                &rec.partition,
                &rec.observation,
                rec.score.value,
                telemetry,
            )?;
        }
        Ok(outcome)
    }

    fn run_inner<T: Testbed>(
        &self,
        server: &mut T,
        warm: Option<&WarmStart>,
        telemetry: &Telemetry<'_>,
    ) -> Result<CliteOutcome, CliteError> {
        let jobs = server.job_count();
        let space = SearchSpace::new(*server.catalog(), jobs)?;
        let mut engine = BoEngine::new(space, self.config.bo.clone(), self.config.seed);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5EED_CAFE);

        let recovery = self.config.recovery.clone();
        // The degradation ladder's last rung: when fault retries are
        // exhausted and no QoS-feasible sample exists yet, the controller
        // re-enforces the equal-share bootstrap partition.
        let equal_share = Partition::equal_share(server.catalog(), jobs)?;
        let mut quarantined = 0usize;

        let mut samples: Vec<SampleRecord> = Vec::new();
        let mut infeasible: Vec<usize> = Vec::new();
        let mut samples_to_qos: Option<usize> = None;

        // Warm evidence of feasibility keeps the search in performance
        // mode from the first sample (see `qos_mode` below).
        let mut warm_qos = false;
        let mut skip_bootstrap = false;
        if let Some(warm) = warm {
            warm_qos = warm.any_qos_met();
            skip_bootstrap = warm_qos && warm.entries.len() > jobs;
            engine.warm_start(warm.entries.iter().map(|e| (e.partition.clone(), e.score)));
            telemetry.emit(Event::WarmStarted { samples: warm.entries.len(), exact: warm.exact });
        }

        // ── Phase 1: bootstrap ────────────────────────────────────────────
        // Skipped when warm evidence already answers what bootstrap asks:
        // a QoS-meeting configuration exists (feasibility) and the
        // surrogate has at least as many seed points as a bootstrap run
        // would produce.
        let bootstrap = if skip_bootstrap { Vec::new() } else { engine.bootstrap_samples()? };
        for (k, partition) in bootstrap.into_iter().enumerate() {
            // Bootstrap samples skip the outlier guard (there is no
            // posterior to compare against yet) but still retry faults.
            let observation = observe_resilient(
                server,
                &partition,
                samples.len(),
                &recovery,
                &samples,
                &equal_share,
                telemetry,
            )?;
            let score = telemetry.time(Phase::Score, || score_observation(&observation));
            telemetry.emit(Event::BootstrapSample {
                sample: samples.len(),
                score: score.value,
                qos_met: observation.all_qos_met(),
            });
            emit_qos_violations(telemetry, samples.len(), &observation);
            if observation.all_qos_met() && samples_to_qos.is_none() {
                samples_to_qos = Some(samples.len());
            }
            // Extremum k ≥ 1 gives job k−1 the maximum allocation: failing
            // QoS there means failing it everywhere.
            if k >= 1 {
                let j = k - 1;
                if server.class(j) == JobClass::LatencyCritical
                    && observation.jobs[j].qos_met == Some(false)
                {
                    infeasible.push(j);
                }
            }
            engine.record(partition.clone(), score.value, telemetry);
            samples.push(SampleRecord {
                index: samples.len(),
                bootstrap: true,
                partition,
                observation,
                score,
                expected_improvement: None,
                frozen_job: None,
            });
        }

        if !infeasible.is_empty() {
            let (best_partition, best_score) =
                engine.best().map(|(p, s)| (p.clone(), s)).expect("bootstrap recorded samples");
            for &job in &infeasible {
                telemetry.emit(Event::InfeasibleJob { job });
            }
            telemetry.emit(Event::Terminated {
                reason: StopReason::Infeasible,
                samples: samples.len(),
                best_score,
            });
            return Ok(CliteOutcome {
                best_partition,
                best_score,
                samples,
                converged: false,
                infeasible_jobs: infeasible,
                samples_to_qos,
                quarantined,
                overhead: Some(telemetry.report()),
            });
        }

        // ── Phase 2: BO search with dropout-copy ──────────────────────────
        // Runs to EI termination, then a confirmation pass re-observes the
        // top candidates (the argmax of noisy scores is biased upward — a
        // boundary configuration with one lucky window can masquerade as
        // feasible). If confirmation reveals the incumbent was a mirage
        // (re-observed score < 0.5), the search resumes once with the
        // corrected evidence recorded.
        let mut term = self.config.termination.start(jobs);
        let mut fruitless_local_moves = 0usize;
        #[allow(unused_assignments)]
        let mut converged = false;
        let mut resumptions = 0usize;
        let (best_partition, best_score) = 'outer: loop {
            loop {
                let frozen = self.select_dropout(server, &samples, &mut rng);
                if let Some((job, _)) = frozen {
                    telemetry.emit(Event::DropoutFrozen { sample: samples.len(), job });
                }
                let best_before = engine.best().map(|(_, s)| s).unwrap_or(0.0);

                // Local donation moves complement the global acquisition:
                //
                // * while some LC job still violates QoS, every other sample
                //   is a *repair* move — route resources from comfortable jobs
                //   to the worst-violating one (interleaved with global EI so
                //   the surrogate keeps exploring);
                // * once QoS is met and the global EI dries up, switch to
                //   *polish* moves — a globally smooth surrogate can report
                //   near-zero EI while genuine gains hide one unit-transfer
                //   from the incumbent.
                //
                // Both ignore the dropout freeze on purpose: the frozen
                // "best-performing" job is usually the very donor whose
                // surplus should move. A streak of fruitless local moves
                // means the incumbent's neighbourhood is tapped out; hand
                // the next sample back to the global acquisition.
                //
                // QoS mode: met at least once this run, or warm evidence
                // proved the mix feasible before this run started.
                let qos_mode = warm_qos || samples_to_qos.is_some();
                // While violating, interleave counter-guided repair with
                // global exploration (two repair moves per global sample).
                // Whether a repair is due is known before any acquisition
                // runs, so the repair move is chosen first.
                let repair =
                    if !qos_mode && !samples.len().is_multiple_of(3) && fruitless_local_moves < 3 {
                        local_move(&mut engine, &samples, telemetry)?
                    } else {
                        None
                    };
                // A repair move replaces the global suggestion, so when that
                // suggestion is certain to exist the engine only replays the
                // acquisition's random draws instead of climbing it.
                let (mut suggestion, mut is_local) = match repair {
                    Some(repair) if engine.skip_suggest(frozen)? => (repair, true),
                    repair => {
                        let Some(global) = global_suggestion(&mut engine, frozen, telemetry)?
                        else {
                            converged = true;
                            break;
                        };
                        repair.map_or((global, false), |repair| (repair, true))
                    }
                };
                // Polish: in QoS mode, when the global EI falls below the
                // job-count-scaled threshold.
                let threshold =
                    self.config.termination.scaled_threshold(jobs) * best_before.abs().max(0.1);
                if qos_mode
                    && suggestion.expected_improvement < threshold
                    && fruitless_local_moves < 3
                {
                    if let Some(polish) = local_move(&mut engine, &samples, telemetry)? {
                        suggestion = polish;
                        is_local = true;
                    }
                }
                telemetry.emit(Event::CandidateChosen {
                    sample: samples.len(),
                    expected_improvement: suggestion.expected_improvement,
                });

                let maybe_validated = validated_observation(
                    server,
                    &suggestion.partition,
                    samples.len(),
                    Some((suggestion.posterior_mean, suggestion.posterior_std)),
                    &recovery,
                    &samples,
                    &equal_share,
                    telemetry,
                    &mut quarantined,
                )?;
                let Some((observation, score)) = maybe_validated else {
                    // The point never produced a trustworthy measurement.
                    // Quarantine it so the engine cannot re-propose it, and
                    // charge the spent windows against the iteration budget
                    // (EI = ∞ cannot fire the threshold, only the cap).
                    engine.quarantine(suggestion.partition.clone());
                    let best = engine.best().map(|(_, s)| s).unwrap_or(0.0);
                    if term.record(f64::INFINITY, best) {
                        converged = term.stopped_by_threshold();
                        break;
                    }
                    continue;
                };
                emit_qos_violations(telemetry, samples.len(), &observation);
                if observation.all_qos_met() && samples_to_qos.is_none() {
                    samples_to_qos = Some(samples.len());
                }
                let sample_score = score.value;
                engine.record(suggestion.partition.clone(), sample_score, telemetry);
                samples.push(SampleRecord {
                    index: samples.len(),
                    bootstrap: false,
                    partition: suggestion.partition,
                    observation,
                    score,
                    expected_improvement: Some(suggestion.expected_improvement),
                    frozen_job: frozen.map(|(j, _)| j),
                });

                let best = engine.best().map(|(_, s)| s).unwrap_or(0.0);
                // EI-based convergence only applies once QoS has been met at
                // least once (performance mode): while jobs still violate,
                // CLITE keeps searching up to the iteration cap rather than
                // declaring a low-EI violating configuration "converged".
                // Observed improvement counts alongside model EI, so the
                // search never stops while polish moves keep paying off.
                let actual_improvement = (sample_score - best_before).max(0.0);
                if is_local {
                    if actual_improvement > 0.0 {
                        fruitless_local_moves = 0;
                    } else {
                        fruitless_local_moves += 1;
                    }
                } else {
                    fruitless_local_moves = 0;
                }
                let effective_ei = if warm_qos || samples_to_qos.is_some() {
                    suggestion.expected_improvement.max(actual_improvement)
                } else {
                    f64::INFINITY
                };
                if term.record(effective_ei, best) {
                    converged = term.stopped_by_threshold();
                    break;
                }
            }

            // ── Phase 3: confirmation ─────────────────────────────────────────
            let mut top: Vec<(Partition, f64)> =
                engine.history().iter().map(|(p, s)| (p.clone(), *s)).collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            top.dedup_by(|a, b| a.0 == b.0);
            let mut best_partition = top[0].0.clone();
            let mut best_score = f64::MIN;
            let mut best_margin_ok = false;
            for (p, recorded_score) in top.into_iter().take(3) {
                // Confirmation re-observations validate against the score
                // already recorded for this partition: the commit decision
                // is the worst place to admit a counter spike.
                let maybe_validated = validated_observation(
                    server,
                    &p,
                    samples.len(),
                    Some((recorded_score, 0.0)),
                    &recovery,
                    &samples,
                    &equal_share,
                    telemetry,
                    &mut quarantined,
                )?;
                let Some((observation, score)) = maybe_validated else {
                    // Candidate never measured consistently; skip it rather
                    // than commit to (or record) an untrustworthy window.
                    continue;
                };
                emit_qos_violations(telemetry, samples.len(), &observation);
                if observation.all_qos_met() && samples_to_qos.is_none() {
                    samples_to_qos = Some(samples.len());
                }
                // Prefer candidates that clear every QoS target with a small
                // margin (re-observed min LC slack >= 1.03): a configuration
                // sitting exactly on the boundary flips with measurement noise
                // and is a poor thing to commit to.
                let margin_ok = observation
                    .lc_jobs()
                    .map(|j| j.qos_slack().unwrap_or(0.0))
                    .fold(f64::INFINITY, f64::min)
                    >= 1.03;
                let better = match (margin_ok, best_margin_ok) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => score.value > best_score,
                };
                if better {
                    best_score = score.value;
                    best_partition = p.clone();
                    best_margin_ok = margin_ok;
                }
                // Feed the corrected evidence back to the surrogate: the same
                // point with a second (independent) noisy measurement.
                engine.record(p.clone(), score.value, telemetry);
                samples.push(SampleRecord {
                    index: samples.len(),
                    bootstrap: false,
                    partition: p,
                    observation,
                    score,
                    expected_improvement: None,
                    frozen_job: None,
                });
            }

            if best_score >= 0.5 || resumptions >= 1 {
                break 'outer (best_partition, best_score);
            }
            resumptions += 1;
            term = self.config.termination.start(jobs);
            fruitless_local_moves = 0;
        };

        telemetry.emit(Event::Terminated {
            reason: if converged { StopReason::EiConverged } else { StopReason::BudgetExhausted },
            samples: samples.len(),
            best_score,
        });
        Ok(CliteOutcome {
            best_partition,
            best_score,
            samples,
            converged,
            infeasible_jobs: infeasible,
            samples_to_qos,
            quarantined,
            overhead: Some(telemetry.report()),
        })
    }

    /// Picks the dropout job and its frozen allocation (paper Sec. 4).
    ///
    /// Per-job "performance so far": for LC jobs the best QoS slack ratio
    /// (`target / latency`, the job that has met or is closest to meeting
    /// QoS); for BG jobs the best normalized throughput. The chosen job is
    /// frozen at its allocation **in the best-scoring sample so far** —
    /// dropout-*copy* copies dropped dimensions from the incumbent best
    /// solution (Li et al.), which keeps the frozen row compatible with a
    /// good overall partition (freezing at the job's own bootstrap
    /// extremum would starve everyone else). Dropout needs at least three
    /// co-located jobs: with two, freezing one row pins the whole
    /// partition.
    fn select_dropout<T: Testbed>(
        &self,
        server: &T,
        samples: &[SampleRecord],
        rng: &mut StdRng,
    ) -> Option<(usize, JobAllocation)> {
        let explore_prob = match self.config.dropout {
            DropoutPolicy::None => return None,
            DropoutPolicy::BestJob { explore_prob } => explore_prob,
        };
        let jobs = server.job_count();
        if jobs < 3 || samples.is_empty() {
            return None;
        }

        let job = if rng.gen_bool(explore_prob.clamp(0.0, 1.0)) {
            rng.gen_range(0..jobs)
        } else {
            // Highest best-seen performance metric.
            let mut best_job = 0;
            let mut best_metric = f64::MIN;
            for j in 0..jobs {
                let metric = samples
                    .iter()
                    .map(|s| job_metric(&s.observation.jobs[j]))
                    .fold(f64::MIN, f64::max);
                if metric > best_metric {
                    best_metric = metric;
                    best_job = j;
                }
            }
            best_job
        };

        // Dropout-copy: freeze at this job's row in the incumbent best.
        let best_sample = samples
            .iter()
            .max_by(|a, b| a.score.value.total_cmp(&b.score.value))
            .expect("samples non-empty");
        Some((job, *best_sample.partition.job(job)))
    }
}

/// The global acquisition's suggestion under `frozen`. A frozen search can
/// dead-end (everything reachable was sampled); it is retried
/// unconstrained. `None` when even the unconstrained search has no
/// unsampled candidate: the space is exhausted (e.g. a single co-located
/// job has exactly one partition), which is convergence, not an error.
fn global_suggestion(
    engine: &mut BoEngine,
    frozen: Option<(usize, JobAllocation)>,
    telemetry: &Telemetry<'_>,
) -> Result<Option<Suggestion>, BoError> {
    match engine.suggest(frozen, telemetry) {
        Err(BoError::NoCandidate) => match engine.suggest(None, telemetry) {
            Err(BoError::NoCandidate) => Ok(None),
            other => other.map(Some),
        },
        other => other.map(Some),
    }
}

/// The counter-guided local move around the incumbent: the first
/// unvisited [`donation_candidates`] entry, else the best unvisited
/// single-transfer neighbour by posterior mean, else `None`.
fn local_move(
    engine: &mut BoEngine,
    samples: &[SampleRecord],
    telemetry: &Telemetry<'_>,
) -> Result<Option<Suggestion>, BoError> {
    let candidates = donation_candidates(samples);
    match engine.suggest_ordered(&candidates, telemetry)? {
        Some(p) => Ok(Some(p)),
        None => engine.suggest_polish(None, telemetry),
    }
}

/// Emits one [`Event::QosViolation`] per LC job missing its target in
/// `observation`.
fn emit_qos_violations(telemetry: &Telemetry<'_>, sample: usize, observation: &Observation) {
    for (job, obs) in observation.jobs.iter().enumerate() {
        if obs.qos_met == Some(false) {
            telemetry.emit(Event::QosViolation {
                sample,
                job,
                ratio: obs.qos_slack().unwrap_or(0.0),
            });
        }
    }
}

/// Per-job scalar performance used by dropout selection.
fn job_metric(obs: &clite_sim::metrics::JobObservation) -> f64 {
    match obs.qos_slack() {
        Some(slack) => slack.min(10.0),
        None => obs.normalized_perf,
    }
}

/// Donation moves around the incumbent best, priority-ordered: transfer
/// 1–3 units of a resource from a job with comfortable surplus (LC: QoS
/// slack above 15%; BG: clearly better off than the weakest job) to the
/// weakest job. These are the "resource equivalence class" exploitation
/// moves the paper credits for CLITE's BG-performance advantage — the
/// score's performance mode improves only by re-routing surplus to
/// whoever drags the geometric mean down.
///
/// Ordering uses the recipient's performance counters from the incumbent
/// observation (the same counters the real CLITE reads): capacity
/// pressure ⇒ memory capacity first; bandwidth consumption pinned at the
/// share ⇒ bandwidth; low LLC hit rate ⇒ ways; cores as the steady
/// default. Careful single-unit transfers come before larger ones within
/// a priority class.
fn donation_candidates(samples: &[SampleRecord]) -> Vec<Partition> {
    use clite_sim::resource::ResourceKind;

    let Some(best) = samples.iter().max_by(|a, b| a.score.value.total_cmp(&b.score.value)) else {
        return Vec::new();
    };
    let obs = &best.observation;
    let jobs = obs.jobs.len();
    if jobs < 2 {
        return Vec::new();
    }
    let metrics: Vec<f64> = obs.jobs.iter().map(job_metric).collect();
    // While any LC job violates QoS, repair targets the worst-violating
    // LC job; only with all targets met does the weakest job overall
    // (usually a BG job) receive donations.
    let violating_lc: Option<usize> = obs
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.qos_met == Some(false))
        .min_by(|(a, _), (b, _)| metrics[*a].total_cmp(&metrics[*b]))
        .map(|(i, _)| i);
    let recipient = violating_lc.unwrap_or_else(|| {
        (0..jobs).min_by(|&a, &b| metrics[a].total_cmp(&metrics[b])).expect("at least two jobs")
    });

    // Per-resource utility for the recipient, from its counters.
    let rc = &obs.jobs[recipient].counters;
    let bw_share = best.partition.fraction(recipient, ResourceKind::MemBandwidth);
    let utility = |r: ResourceKind| -> f64 {
        match r {
            ResourceKind::MemCapacity => 10.0 * rc.capacity_pressure,
            ResourceKind::MemBandwidth => {
                if rc.mem_bw_used_frac >= 0.9 * bw_share {
                    3.0
                } else {
                    0.5
                }
            }
            ResourceKind::LlcWays => 2.0 * (1.0 - rc.llc_hit_rate),
            ResourceKind::Cores => 1.5,
            ResourceKind::DiskBandwidth => {
                let disk_share = best.partition.fraction(recipient, ResourceKind::DiskBandwidth);
                if rc.disk_bw_used_frac >= 0.9 * disk_share {
                    3.0
                } else {
                    0.25
                }
            }
            ResourceKind::NetBandwidth => {
                let net_share = best.partition.fraction(recipient, ResourceKind::NetBandwidth);
                if rc.net_bw_used_frac >= 0.9 * net_share {
                    3.0
                } else {
                    0.25
                }
            }
        }
    };

    // Donors by descending surplus.
    let mut donors: Vec<usize> = (0..jobs)
        .filter(|&j| {
            j != recipient
                && match obs.jobs[j].qos_slack() {
                    Some(slack) => slack > 1.15,
                    None => metrics[j] > 1.5 * metrics[recipient],
                }
        })
        .collect();
    donors.sort_by(|&a, &b| metrics[b].total_cmp(&metrics[a]));

    let mut scored: Vec<(f64, Partition)> = Vec::new();
    for &donor in &donors {
        for r in ResourceKind::ALL {
            for amount in (1..=3u32).rev() {
                if let Ok(p) = best.partition.transfer(r, donor, recipient, amount) {
                    // Careful single-unit transfers rank above bigger ones
                    // at equal resource utility: near the feasibility
                    // ridge a 3-unit donation usually breaks the donor.
                    scored.push((utility(r) - 0.01 * f64::from(amount), p));
                }
            }
        }
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    scored.into_iter().map(|(_, p)| p).collect()
}

/// Stable snake_case label for a [`SimError`] fault variant, used as the
/// `fault` field of [`Event::FaultInjected`] and the matching metric label.
pub(crate) fn fault_kind(e: &SimError) -> &'static str {
    match e {
        SimError::WindowDropped { .. } => "window_dropped",
        SimError::WindowTimeout { .. } => "window_timeout",
        SimError::EnforceFault { .. } => "enforce_fault",
        SimError::NodeCrashed { .. } => "node_crashed",
        _ => "other",
    }
}

/// The SafeFallback partition: the best-scoring sample so far that met
/// every LC job's QoS target, else the equal-share bootstrap partition.
/// The boolean reports which it was.
fn safe_fallback(samples: &[SampleRecord], equal_share: &Partition) -> (Partition, bool) {
    samples
        .iter()
        .filter(|s| s.observation.all_qos_met())
        .max_by(|a, b| a.score.value.total_cmp(&b.score.value))
        .map_or_else(|| (equal_share.clone(), false), |s| (s.partition.clone(), true))
}

/// Gives up on the search: re-enforces the safe fallback (best-effort —
/// on a crashed node even that fails) and builds the typed
/// [`CliteError::Degraded`] the run aborts with.
fn engage_fallback<T: Testbed>(
    server: &mut T,
    sample: usize,
    samples: &[SampleRecord],
    equal_share: &Partition,
    reason: SimError,
    telemetry: &Telemetry<'_>,
) -> CliteError {
    let (fallback, qos_feasible) = safe_fallback(samples, equal_share);
    let enforced = server.enforce(&fallback).is_ok();
    telemetry.emit(Event::FallbackEngaged { sample, qos_feasible, enforced });
    CliteError::Degraded { fallback, reason }
}

/// Observes `partition` through the typed fault path: transient faults
/// (dropped/stuck windows, enforcement glitches) are retried up to
/// `recovery.max_retries` times with window-counted backoff; exhausted
/// retries and node crashes engage the safe fallback and surface as
/// [`CliteError::Degraded`]. Contract violations (mismatched partitions)
/// are returned as plain [`CliteError::Sim`] — they are controller bugs,
/// not conditions the fallback could mend.
fn observe_resilient<T: Testbed>(
    server: &mut T,
    partition: &Partition,
    sample: usize,
    recovery: &RecoveryConfig,
    samples: &[SampleRecord],
    equal_share: &Partition,
    telemetry: &Telemetry<'_>,
) -> Result<Observation, CliteError> {
    let mut attempt = 0usize;
    loop {
        match telemetry.time(Phase::Observe, || server.try_observe(partition)) {
            Ok(observation) => return Ok(observation),
            Err(fault) if fault.is_transient_fault() => {
                telemetry
                    .emit(Event::FaultInjected { sample, fault: fault_kind(&fault).to_owned() });
                if attempt >= recovery.max_retries {
                    return Err(engage_fallback(
                        server,
                        sample,
                        samples,
                        equal_share,
                        fault,
                        telemetry,
                    ));
                }
                attempt += 1;
                telemetry.emit(Event::ObservationRetried { sample, attempt });
                // Capped exponential backoff (+ deterministic jitter):
                // give a glitching measurement path time to settle before
                // burning another retry. The waited windows advance the
                // clock like any other overhead.
                for _ in 0..recovery.backoff_for(attempt) {
                    server.advance_window();
                }
            }
            Err(fault) if fault.is_node_crash() => {
                telemetry
                    .emit(Event::FaultInjected { sample, fault: fault_kind(&fault).to_owned() });
                return Err(engage_fallback(
                    server,
                    sample,
                    samples,
                    equal_share,
                    fault,
                    telemetry,
                ));
            }
            Err(e) => return Err(CliteError::Sim(e)),
        }
    }
}

/// [`observe_resilient`] plus the outlier guard: when the measured Eq. 3
/// score deviates from `predicted` (posterior mean, posterior σ) by more
/// than the configured threshold, the window is re-observed. A flagged
/// measurement that *reproduces* (two scores agree within tolerance) is
/// accepted — the surrogate was wrong, not the counters. One that does not
/// is quarantined (counted, never recorded) and replaced by its
/// re-observation. Returns `Ok(None)` when retries run out without a
/// trustworthy measurement — the caller should quarantine the point.
#[allow(clippy::too_many_arguments)]
fn validated_observation<T: Testbed>(
    server: &mut T,
    partition: &Partition,
    sample: usize,
    predicted: Option<(f64, f64)>,
    recovery: &RecoveryConfig,
    samples: &[SampleRecord],
    equal_share: &Partition,
    telemetry: &Telemetry<'_>,
    quarantined: &mut usize,
) -> Result<Option<(Observation, ScoreBreakdown)>, CliteError> {
    let mut observation =
        observe_resilient(server, partition, sample, recovery, samples, equal_share, telemetry)?;
    let mut score = telemetry.time(Phase::Score, || score_observation(&observation));
    let (Some(threshold), Some((predicted_mean, predicted_std))) =
        (recovery.outlier_threshold, predicted)
    else {
        return Ok(Some((observation, score)));
    };
    let sigma = predicted_std.max(recovery.sigma_floor);
    let flagged = |s: f64| (s - predicted_mean).abs() / sigma > threshold;
    if !flagged(score.value) {
        return Ok(Some((observation, score)));
    }
    for attempt in 1..=recovery.max_retries {
        telemetry.emit(Event::ObservationRetried { sample, attempt });
        let re_observation = observe_resilient(
            server,
            partition,
            sample,
            recovery,
            samples,
            equal_share,
            telemetry,
        )?;
        let re_score = telemetry.time(Phase::Score, || score_observation(&re_observation));
        let agree = (re_score.value - score.value).abs()
            <= recovery.agree_tol.max(0.05 * score.value.abs());
        if agree {
            // Repeatable: trust the measurement over the model.
            return Ok(Some((observation, score)));
        }
        // The two windows disagree: the earlier one was the outlier.
        telemetry.emit(Event::SampleQuarantined {
            sample,
            score: score.value,
            predicted: predicted_mean,
            sigma,
        });
        *quarantined += 1;
        observation = re_observation;
        score = re_score;
        if !flagged(score.value) {
            return Ok(Some((observation, score)));
        }
    }
    // Still flagged, never reproduced: nothing here is trustworthy.
    telemetry.emit(Event::SampleQuarantined {
        sample,
        score: score.value,
        predicted: predicted_mean,
        sigma,
    });
    *quarantined += 1;
    Ok(None)
}

/// Re-enforces a run's best partition and measures one window under it —
/// what callers do right after a search to leave the node in its committed
/// state. Small helper shared by the adaptive runner and experiments.
///
/// # Errors
///
/// Propagates enforcement rejections and window faults as [`SimError`];
/// callers surviving faults should treat transient errors as retryable.
pub fn enforce_best<T: Testbed>(
    server: &mut T,
    best: &Partition,
) -> Result<clite_sim::metrics::Observation, SimError> {
    server.try_observe(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::prelude::*;

    fn server(jobs: Vec<JobSpec>, seed: u64) -> Server {
        Server::new(ResourceCatalog::testbed(), jobs, seed).unwrap()
    }

    fn easy_mix() -> Vec<JobSpec> {
        vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 0.2),
            JobSpec::background(WorkloadId::Blackscholes),
        ]
    }

    #[test]
    fn meets_qos_on_easy_mix() {
        let mut s = server(easy_mix(), 1);
        let outcome = CliteController::default().run(&mut s).unwrap();
        assert!(outcome.infeasible_jobs.is_empty());
        assert!(outcome.qos_met(), "best score {}", outcome.best_score);
        assert!(outcome.samples_to_qos.is_some());
        // Paper: fewer than ~30 samples even with several jobs.
        assert!(outcome.samples_used() <= 80, "used {}", outcome.samples_used());
    }

    #[test]
    fn bootstrap_comes_first_and_counts_jobs_plus_one() {
        let mut s = server(easy_mix(), 2);
        let outcome = CliteController::default().run(&mut s).unwrap();
        let boot: Vec<_> = outcome.samples.iter().filter(|r| r.bootstrap).collect();
        assert_eq!(boot.len(), 4, "N_jobs + 1 bootstrap samples");
        assert!(outcome.samples[..4].iter().all(|r| r.bootstrap));
        assert!(outcome.samples[4..].iter().all(|r| !r.bootstrap));
    }

    #[test]
    fn infeasible_job_detected_and_run_stops_early() {
        // Nine loaded LC jobs: each job's maximum extremum is only 2 cores
        // (everyone else keeps one), so the heavyweight jobs fail QoS even
        // with their own maximum allocation — individually infeasible, the
        // case the paper ejects right after bootstrapping.
        let mix = vec![
            JobSpec::latency_critical(WorkloadId::ImgDnn, 1.0),
            JobSpec::latency_critical(WorkloadId::Masstree, 1.0),
            JobSpec::latency_critical(WorkloadId::Memcached, 1.0),
            JobSpec::latency_critical(WorkloadId::Specjbb, 1.0),
            JobSpec::latency_critical(WorkloadId::Xapian, 1.0),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 1.0),
            JobSpec::latency_critical(WorkloadId::Masstree, 1.0),
            JobSpec::latency_critical(WorkloadId::Specjbb, 1.0),
            JobSpec::latency_critical(WorkloadId::Xapian, 1.0),
        ];
        let mut s = server(mix, 3);
        let outcome = CliteController::default().run(&mut s).unwrap();
        assert!(!outcome.infeasible_jobs.is_empty());
        assert!(!outcome.converged);
        // Stopped right after bootstrap: N_jobs + 1 samples.
        assert_eq!(outcome.samples_used(), 10);
    }

    #[test]
    fn improves_bg_performance_after_meeting_qos() {
        // The paper's key differentiator: CLITE keeps optimizing BG
        // performance after QoS is met.
        let mut s = server(easy_mix(), 4);
        let outcome = CliteController::default().run(&mut s).unwrap();
        let first_qos_sample = outcome.samples_to_qos.unwrap();
        let first_qos_bg = outcome.samples[first_qos_sample].observation.mean_bg_perf().unwrap();
        let best_bg = outcome.best_bg_perf().unwrap();
        assert!(
            best_bg >= first_qos_bg,
            "best BG perf {best_bg} must not regress from first-QoS {first_qos_bg}"
        );
        assert!(outcome.best_score > 0.5);
    }

    #[test]
    fn dropout_freezes_rows_in_search_samples() {
        let mut s = server(easy_mix(), 5);
        let outcome = CliteController::default().run(&mut s).unwrap();
        let frozen_used =
            outcome.samples.iter().filter(|r| !r.bootstrap).any(|r| r.frozen_job.is_some());
        assert!(frozen_used, "dropout-copy should engage with 3 co-located jobs");
    }

    #[test]
    fn no_dropout_with_two_jobs() {
        let mix = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::background(WorkloadId::Swaptions),
        ];
        let mut s = server(mix, 6);
        let outcome = CliteController::default().run(&mut s).unwrap();
        assert!(outcome.samples.iter().all(|r| r.frozen_job.is_none()));
    }

    #[test]
    fn deterministic_with_same_seeds() {
        let run = || {
            let mut s = server(easy_mix(), 7);
            CliteController::new(CliteConfig::default().with_seed(99)).run(&mut s).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_partition, b.best_partition);
        assert_eq!(a.samples_used(), b.samples_used());
    }

    #[test]
    fn warm_run_reaches_qos_in_fewer_windows_than_cold() {
        use clite_store::{ShardPolicy, ShardedStore};

        let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
        let controller = CliteController::default();
        let telemetry = Telemetry::disabled();

        let mut s1 = server(easy_mix(), 9);
        let cold = controller.run_with_store(&mut s1, &store, &telemetry).unwrap();
        assert!(cold.qos_met());

        // Same mix, fresh server: the second invocation must hit the store
        // and converge in strictly fewer observation windows.
        let mut s2 = server(easy_mix(), 9);
        let warm = controller.run_with_store(&mut s2, &store, &telemetry).unwrap();
        assert!(warm.qos_met());
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 1);
        assert!(
            warm.samples_used() < cold.samples_used(),
            "warm {} windows must beat cold {}",
            warm.samples_used(),
            cold.samples_used()
        );
        // The warm run skipped bootstrap entirely.
        assert!(warm.samples.iter().all(|r| !r.bootstrap));
    }

    #[test]
    fn warm_runs_are_deterministic() {
        use clite_store::{ShardPolicy, ShardedStore};

        // A cold run then a warm one on the same store; the pair must
        // repeat exactly (wall-clock overhead aside), and must not depend
        // on how the store is sharded.
        let run_pair = |shards: usize| {
            let store = ShardedStore::in_memory(ShardPolicy::with_shards(shards));
            let controller = CliteController::default();
            let telemetry = Telemetry::disabled();
            let run = |seed| {
                let mut s = server(easy_mix(), seed);
                let outcome = controller.run_with_store(&mut s, &store, &telemetry).unwrap();
                CliteOutcome { overhead: None, ..outcome }
            };
            (run(12), run(12))
        };
        let (reference_cold, a) = run_pair(1);
        for shards in [1usize, 8] {
            let (cold, b) = run_pair(shards);
            assert_eq!(a.best_partition, b.best_partition);
            assert_eq!(a.samples_used(), b.samples_used());
            assert_eq!(
                a.samples.iter().map(|r| r.partition.clone()).collect::<Vec<_>>(),
                b.samples.iter().map(|r| r.partition.clone()).collect::<Vec<_>>()
            );
            assert_eq!(cold, reference_cold, "{shards}-shard cold run diverged");
            assert_eq!(b, a, "{shards}-shard warm run diverged");
        }
    }

    #[test]
    fn store_misses_on_different_mix_and_runs_cold() {
        use clite_store::{ShardPolicy, ShardedStore};

        let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
        let controller = CliteController::default();
        let telemetry = Telemetry::disabled();
        let mut s1 = server(easy_mix(), 10);
        controller.run_with_store(&mut s1, &store, &telemetry).unwrap();

        let other = vec![
            JobSpec::latency_critical(WorkloadId::Xapian, 0.2),
            JobSpec::background(WorkloadId::Freqmine),
        ];
        let mut s2 = server(other, 10);
        let outcome = controller.run_with_store(&mut s2, &store, &telemetry).unwrap();
        // Cold path: full bootstrap ran (N_jobs + 1 bootstrap samples).
        assert_eq!(outcome.samples.iter().filter(|r| r.bootstrap).count(), 3);
        assert_eq!(store.stats().hits, 0);
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.mix_count(), 2);
    }

    #[test]
    fn lc_only_mix_optimizes_past_qos() {
        let mix = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::latency_critical(WorkloadId::Masstree, 0.3),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 0.3),
        ];
        let mut s = server(mix, 8);
        let outcome = CliteController::default().run(&mut s).unwrap();
        assert!(outcome.qos_met(), "3 LC jobs at 30% load are co-locatable");
        assert!(outcome.best_score > 0.5);
    }
}
