//! The versioned feature schema: one fixed vector per (job, candidate
//! node) pair.
//!
//! Inputs arrive as plain snapshots ([`JobInput`], [`NodeInput`],
//! [`FleetInput`]) so the extractor depends on no cluster types — the
//! cluster crate converts its `NodeStats`/`ClusterStats` into these and
//! calls [`extract`]. Every component is squashed into `[0, 1]` through
//! [`unit()`], which also maps NaN/inf to `0.0`: extraction is a *total*
//! function of its inputs, pinned by property tests.
//!
//! The schema is versioned ([`FEATURE_VERSION`]): a serialized model
//! records the version it was trained against, and the codec rejects a
//! model whose version (or dimension) no longer matches — the caller then
//! degrades to the zero model instead of scoring garbage.

use clite_store::signature::quantize_load;

/// Version of the feature schema below. Bump when the meaning, order, or
/// count of components changes.
pub const FEATURE_VERSION: u32 = 1;

/// Number of feature components.
pub const FEATURE_DIM: usize = 14;

/// One extracted feature vector.
pub type FeatureVector = [f64; FEATURE_DIM];

/// Physical job slots per node (the testbed catalog's core count); used
/// to normalize job-count features.
const MAX_JOBS_PER_NODE: f64 = 10.0;

/// QoS-target squash scale (µs): `target / (target + SCALE)` maps the
/// testbed's sub-millisecond targets into the middle of `[0, 1]`.
const QOS_SQUASH_US: f64 = 1000.0;

/// The incoming job, as the extractor sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobInput {
    /// Latency-critical (true) or background (false).
    pub latency_critical: bool,
    /// Offered load fraction at arrival time (0 for BG jobs).
    pub load: f64,
    /// QoS tail-latency target in µs (0 for BG jobs).
    pub qos_target_us: f64,
}

/// One candidate node's committed state.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInput {
    /// Jobs committed to the node.
    pub jobs: usize,
    /// Latency-critical jobs among them.
    pub lc_jobs: usize,
    /// Sum of committed LC load fractions.
    pub lc_load: f64,
    /// Mean BG throughput at the committed partition (`None` when the
    /// node hosts no BG jobs; treated as unimpeded).
    pub bg_perf: Option<f64>,
    /// Whether the committed partition meets every QoS target.
    pub qos_met: bool,
    /// Mean quantized load (whole percent) over the node's post-placement
    /// mix — the store's [`clite_store::MixSignature`] load coordinates
    /// for the mix the candidate would run.
    pub mix_mean_load_pct: u32,
    /// Max quantized load (whole percent) over the post-placement mix.
    pub mix_max_load_pct: u32,
    /// Surrogate QoS-headroom prediction for this node (GP posterior over
    /// the node's committed search trace; see [`crate::headroom`]).
    pub headroom: crate::headroom::Headroom,
}

/// Fleet-wide aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetInput {
    /// Nodes still in service.
    pub alive_nodes: usize,
    /// Mean committed LC load over alive nodes.
    pub mean_lc_load: f64,
    /// Fraction of submitted jobs placed so far.
    pub admission_rate: f64,
}

/// Clamps `x` into `[0, 1]`, mapping NaN/inf to `0.0`. Total by
/// construction — the reason no reachable input can smuggle a non-finite
/// value into a feature vector.
#[must_use]
pub fn unit(x: f64) -> f64 {
    if x.is_finite() {
        x.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Mean/max quantized load (whole percent) of a post-placement mix given
/// the node's committed per-job loads plus the incoming job's load, all as
/// fractions. Convenience for callers assembling a [`NodeInput`]; one
/// pass over the loads, which need not be collected first.
#[must_use]
pub fn mix_load_pcts(
    committed_loads: impl IntoIterator<Item = f64>,
    incoming_load: f64,
) -> (u32, u32) {
    let (sum, max, count) = committed_loads
        .into_iter()
        .chain(std::iter::once(incoming_load))
        .map(quantize_load)
        .fold((0u64, 0u32, 0u64), |(sum, max, count), p| {
            (sum + u64::from(p), max.max(p), count + 1)
        });
    ((sum / count) as u32, max)
}

/// Extracts the versioned feature vector for one (job, candidate-node)
/// pair. Deterministic, total, every component in `[0, 1]`.
#[must_use]
pub fn extract(job: &JobInput, node: &NodeInput, fleet: &FleetInput) -> FeatureVector {
    let qos_squash = if job.qos_target_us > 0.0 {
        job.qos_target_us / (job.qos_target_us + QOS_SQUASH_US)
    } else {
        0.0
    };
    // Signed load pressure relative to the fleet mean, recentred onto
    // [0, 1]: 0.5 = at the mean, 0 = a full load unit under, 1 = over.
    let relative_pressure = (node.lc_load - fleet.mean_lc_load + 1.0) / 2.0;
    let sigma = node.headroom.sigma;
    [
        unit(if job.latency_critical { 1.0 } else { 0.0 }),
        unit(job.load),
        unit(qos_squash),
        unit(node.lc_load),
        unit(node.jobs as f64 / MAX_JOBS_PER_NODE),
        unit(node.lc_jobs as f64 / MAX_JOBS_PER_NODE),
        unit(if node.qos_met { 1.0 } else { 0.0 }),
        unit(node.bg_perf.unwrap_or(1.0)),
        unit(f64::from(node.mix_mean_load_pct) / 100.0),
        unit(f64::from(node.mix_max_load_pct) / 100.0),
        unit(relative_pressure),
        unit(fleet.admission_rate),
        unit(node.headroom.predicted),
        unit(if sigma.is_finite() && sigma >= 0.0 { sigma / (sigma + 1.0) } else { 0.0 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headroom::Headroom;

    fn job() -> JobInput {
        JobInput { latency_critical: true, load: 0.4, qos_target_us: 500.0 }
    }

    fn node() -> NodeInput {
        NodeInput {
            jobs: 2,
            lc_jobs: 1,
            lc_load: 0.3,
            bg_perf: Some(0.8),
            qos_met: true,
            mix_mean_load_pct: 45,
            mix_max_load_pct: 60,
            headroom: Headroom { predicted: 0.7, sigma: 0.1 },
        }
    }

    fn fleet() -> FleetInput {
        FleetInput { alive_nodes: 8, mean_lc_load: 0.25, admission_rate: 0.95 }
    }

    #[test]
    fn extraction_is_deterministic_and_in_range() {
        let a = extract(&job(), &node(), &fleet());
        let b = extract(&job(), &node(), &fleet());
        assert_eq!(a, b);
        for (i, v) in a.iter().enumerate() {
            assert!(v.is_finite() && (0.0..=1.0).contains(v), "feature {i} = {v}");
        }
    }

    #[test]
    fn non_finite_inputs_are_squashed_not_propagated() {
        let mut bad_node = node();
        bad_node.lc_load = f64::NAN;
        bad_node.bg_perf = Some(f64::INFINITY);
        bad_node.headroom = Headroom { predicted: f64::NEG_INFINITY, sigma: f64::NAN };
        let mut bad_fleet = fleet();
        bad_fleet.mean_lc_load = f64::INFINITY;
        bad_fleet.admission_rate = f64::NAN;
        let v = extract(&job(), &bad_node, &bad_fleet);
        for (i, x) in v.iter().enumerate() {
            assert!(x.is_finite() && (0.0..=1.0).contains(x), "feature {i} = {x}");
        }
    }

    #[test]
    fn mix_load_pcts_quantize_like_the_store() {
        let (mean, max) = mix_load_pcts([0.2, 0.6], 0.4);
        assert_eq!(max, 60);
        assert_eq!(mean, 40);
        let (mean, max) = mix_load_pcts([], 0.0);
        assert_eq!((mean, max), (0, 0));
    }

    #[test]
    fn iterator_form_of_mix_load_pcts_matches_the_slice_form() {
        // The slice form this function replaced: quantize, sum, divide by
        // the slice length plus the incoming job.
        fn slice_form(committed: &[f64], incoming: f64) -> (u32, u32) {
            let (sum, max) = committed
                .iter()
                .chain(std::iter::once(&incoming))
                .map(|&load| quantize_load(load))
                .fold((0u64, 0u32), |(sum, max), p| (sum + u64::from(p), max.max(p)));
            ((sum / (committed.len() as u64 + 1)) as u32, max)
        }
        let odd = [f64::NAN, f64::INFINITY, -0.3, 0.0, 0.004_999, 0.005, 1.0, 2.5];
        for len in 0..12 {
            let committed: Vec<f64> =
                (0..len).map(|i| odd[(i * 5 + len) % odd.len()] + 0.07 * i as f64).collect();
            for incoming in odd {
                let expected = slice_form(&committed, incoming);
                assert_eq!(mix_load_pcts(committed.iter().copied(), incoming), expected);
                assert_eq!(mix_load_pcts(committed.clone(), incoming), expected);
            }
        }
    }

    #[test]
    fn bg_job_zeroes_job_features() {
        let bg = JobInput { latency_critical: false, load: 0.0, qos_target_us: 0.0 };
        let v = extract(&bg, &node(), &fleet());
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
    }
}
