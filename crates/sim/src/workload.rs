//! Workload profiles for the paper's Table 3.
//!
//! The paper drives five Tailbench latency-critical (LC) workloads and six
//! PARSEC background (BG) workloads. Those binaries cannot run here, so each
//! workload is modelled by a [`WorkloadProfile`]: the constants of an
//! additive-bottleneck execution-time model (see [`crate::perf`]) chosen to
//! match the benchmark's published resource sensitivity — e.g. img-dnn is
//! core- and LLC-sensitive while masstree is memory-bandwidth-sensitive
//! (both called out explicitly in the paper's Sec. 5.2 discussion of
//! Fig. 9a).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Whether a job is latency-critical or throughput-oriented background.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// Latency-critical: has a QoS tail-latency target.
    LatencyCritical,
    /// Throughput-oriented background (batch): maximize throughput.
    Background,
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobClass::LatencyCritical => f.write_str("LC"),
            JobClass::Background => f.write_str("BG"),
        }
    }
}

/// The eleven workloads of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadId {
    /// Image recognition (Tailbench) — LC, core- and LLC-sensitive.
    ImgDnn,
    /// Key-value store (Tailbench) — LC, memory-bandwidth-sensitive.
    Masstree,
    /// Key-value store with Mutilate load generator — LC, fast queries,
    /// small working set.
    Memcached,
    /// Java middleware (Tailbench) — LC, memory-capacity-heavy.
    Specjbb,
    /// Online search over English Wikipedia (Tailbench) — LC, disk- and
    /// cache-sensitive.
    Xapian,
    /// Option pricing (PARSEC) — BG, embarrassingly compute-parallel.
    Blackscholes,
    /// Cache-aware simulated annealing (PARSEC) — BG, memory-latency and
    /// capacity-bound.
    Canneal,
    /// Fluid dynamics (PARSEC) — BG, cores plus bandwidth.
    Fluidanimate,
    /// Frequent itemset mining (PARSEC) — BG, capacity- and cache-bound.
    Freqmine,
    /// Online stream clustering (PARSEC) — BG, LLC- and bandwidth-bound.
    Streamcluster,
    /// Swaption portfolio pricing (PARSEC) — BG, pure compute.
    Swaptions,
}

impl WorkloadId {
    /// All workloads in Table 3 order (LC first, then BG).
    pub const ALL: [WorkloadId; 11] = [
        WorkloadId::ImgDnn,
        WorkloadId::Masstree,
        WorkloadId::Memcached,
        WorkloadId::Specjbb,
        WorkloadId::Xapian,
        WorkloadId::Blackscholes,
        WorkloadId::Canneal,
        WorkloadId::Fluidanimate,
        WorkloadId::Freqmine,
        WorkloadId::Streamcluster,
        WorkloadId::Swaptions,
    ];

    /// The five latency-critical workloads.
    pub const LATENCY_CRITICAL: [WorkloadId; 5] = [
        WorkloadId::ImgDnn,
        WorkloadId::Masstree,
        WorkloadId::Memcached,
        WorkloadId::Specjbb,
        WorkloadId::Xapian,
    ];

    /// The six background workloads.
    pub const BACKGROUND: [WorkloadId; 6] = [
        WorkloadId::Blackscholes,
        WorkloadId::Canneal,
        WorkloadId::Fluidanimate,
        WorkloadId::Freqmine,
        WorkloadId::Streamcluster,
        WorkloadId::Swaptions,
    ];

    /// Lower-case benchmark name, as printed in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::ImgDnn => "img-dnn",
            WorkloadId::Masstree => "masstree",
            WorkloadId::Memcached => "memcached",
            WorkloadId::Specjbb => "specjbb",
            WorkloadId::Xapian => "xapian",
            WorkloadId::Blackscholes => "blackscholes",
            WorkloadId::Canneal => "canneal",
            WorkloadId::Fluidanimate => "fluidanimate",
            WorkloadId::Freqmine => "freqmine",
            WorkloadId::Streamcluster => "streamcluster",
            WorkloadId::Swaptions => "swaptions",
        }
    }

    /// Two-letter acronym used by the paper's Fig. 14 (BG jobs only have
    /// paper acronyms; LC jobs use a three-letter prefix).
    #[must_use]
    pub fn acronym(self) -> &'static str {
        match self {
            WorkloadId::ImgDnn => "IMG",
            WorkloadId::Masstree => "MAS",
            WorkloadId::Memcached => "MEM",
            WorkloadId::Specjbb => "JBB",
            WorkloadId::Xapian => "XAP",
            WorkloadId::Blackscholes => "BS",
            WorkloadId::Canneal => "CN",
            WorkloadId::Fluidanimate => "FA",
            WorkloadId::Freqmine => "FM",
            WorkloadId::Streamcluster => "SC",
            WorkloadId::Swaptions => "SW",
        }
    }

    /// One-line description (paper Table 3).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            WorkloadId::ImgDnn => "Image recognition",
            WorkloadId::Masstree => "Key-value store",
            WorkloadId::Memcached => "Key-value store with Mutilate load generator",
            WorkloadId::Specjbb => "Java middleware",
            WorkloadId::Xapian => "Online search (inputs: English Wikipedia)",
            WorkloadId::Blackscholes => "Option pricing with Black-Scholes PDE",
            WorkloadId::Canneal => "Simulated cache-aware annealing for chip design",
            WorkloadId::Fluidanimate => "Fluid dynamics for animation",
            WorkloadId::Freqmine => "Frequent itemset mining",
            WorkloadId::Streamcluster => "Online clustering of an input stream",
            WorkloadId::Swaptions => "Pricing of a portfolio of swaptions",
        }
    }

    /// Whether this is an LC or BG workload.
    #[must_use]
    pub fn class(self) -> JobClass {
        match self {
            WorkloadId::ImgDnn
            | WorkloadId::Masstree
            | WorkloadId::Memcached
            | WorkloadId::Specjbb
            | WorkloadId::Xapian => JobClass::LatencyCritical,
            _ => JobClass::Background,
        }
    }

    /// The modelled resource-sensitivity profile of this workload.
    #[must_use]
    pub fn profile(self) -> WorkloadProfile {
        WorkloadProfile::of(self)
    }

    /// Parses a paper-style lower-case name (e.g. `"img-dnn"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Constants of the additive-bottleneck execution-time model for one
/// workload (see [`crate::perf::query_time_us`] for the formula).
///
/// Per-query time components are in microseconds at reference allocation
/// (one core, zero cache hits, full bandwidth); only their ratios matter
/// for normalized results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Workload this profile models.
    pub id: WorkloadId,
    /// Pure CPU time per query on a single core, in µs.
    pub cpu_time_us: f64,
    /// Intra-query Amdahl parallel fraction: how much of a single query's
    /// critical path can spread across the allocated cores (throughput
    /// scaling with cores is separate — queries are independent).
    pub parallel_frac: f64,
    /// Memory-access time per query with zero LLC hits and 100% of memory
    /// bandwidth, in µs.
    pub mem_time_us: f64,
    /// Disk-access time per query with 100% of disk bandwidth, in µs.
    pub disk_time_us: f64,
    /// Asymptotic LLC hit fraction with unlimited ways.
    pub hit_max: f64,
    /// LLC ways at which the hit fraction reaches ~63% of `hit_max`
    /// (exponential saturation constant).
    pub ways_sat: f64,
    /// Fraction of total memory capacity the working set occupies; below
    /// this the job thrashes.
    pub working_set_frac: f64,
    /// Exponent of the thrashing penalty when capacity is short.
    pub thrash_exp: f64,
    /// Static memory intensity in `[0, 1]`: the fraction of machine memory
    /// bandwidth the workload demands when running flat out. Drives both the
    /// bandwidth-throttling slowdown and the (mild) un-partitioned
    /// interference term between co-located jobs.
    pub mem_intensity: f64,
    /// Fraction of machine disk bandwidth the workload demands when running
    /// flat out (0 for memory-resident workloads).
    pub disk_intensity: f64,
    /// Network time per query with 100% of network bandwidth, in µs
    /// (serving systems move requests/responses over the NIC; batch jobs
    /// barely touch it).
    pub net_time_us: f64,
    /// Fraction of machine network bandwidth the workload demands when
    /// running flat out.
    pub net_intensity: f64,
}

impl WorkloadProfile {
    /// The profile as bit patterns: two profiles' bits are equal exactly
    /// when every field is the same bit for bit (unlike `==`, which
    /// equates `0.0` with `-0.0` and never `NaN` with itself).
    #[must_use]
    pub(crate) fn bits(&self) -> (WorkloadId, [u64; 12]) {
        let Self {
            id,
            cpu_time_us,
            parallel_frac,
            mem_time_us,
            disk_time_us,
            hit_max,
            ways_sat,
            working_set_frac,
            thrash_exp,
            mem_intensity,
            disk_intensity,
            net_time_us,
            net_intensity,
        } = *self;
        let fields = [
            cpu_time_us,
            parallel_frac,
            mem_time_us,
            disk_time_us,
            hit_max,
            ways_sat,
            working_set_frac,
            thrash_exp,
            mem_intensity,
            disk_intensity,
            net_time_us,
            net_intensity,
        ];
        (id, fields.map(f64::to_bits))
    }

    /// Profile constants for one workload.
    ///
    /// These are hand-calibrated so that each benchmark's dominant
    /// sensitivity matches the behaviour the paper reports: img-dnn wants
    /// cores and LLC ways, masstree wants memory bandwidth, memcached is
    /// cheap per query with a small working set, specjbb is capacity-bound,
    /// xapian touches disk, and the PARSEC jobs range from pure compute
    /// (swaptions, blackscholes) to cache/bandwidth-bound (streamcluster,
    /// canneal).
    #[must_use]
    pub fn of(id: WorkloadId) -> Self {
        match id {
            WorkloadId::ImgDnn => Self {
                id,
                cpu_time_us: 2600.0,
                parallel_frac: 0.60,
                mem_time_us: 600.0,
                disk_time_us: 0.0,
                hit_max: 0.85,
                ways_sat: 3.5,
                working_set_frac: 0.25,
                thrash_exp: 1.2,
                mem_intensity: 0.35,
                disk_intensity: 0.0,
                net_time_us: 60.0,
                net_intensity: 0.15,
            },
            WorkloadId::Masstree => Self {
                id,
                cpu_time_us: 500.0,
                parallel_frac: 0.25,
                mem_time_us: 1400.0,
                disk_time_us: 0.0,
                hit_max: 0.45,
                ways_sat: 5.0,
                working_set_frac: 0.25,
                thrash_exp: 1.3,
                mem_intensity: 0.75,
                disk_intensity: 0.0,
                net_time_us: 50.0,
                net_intensity: 0.35,
            },
            WorkloadId::Memcached => Self {
                id,
                cpu_time_us: 90.0,
                parallel_frac: 0.10,
                mem_time_us: 110.0,
                disk_time_us: 0.0,
                hit_max: 0.60,
                ways_sat: 2.5,
                working_set_frac: 0.10,
                thrash_exp: 1.5,
                mem_intensity: 0.45,
                disk_intensity: 0.0,
                net_time_us: 25.0,
                net_intensity: 0.45,
            },
            WorkloadId::Specjbb => Self {
                id,
                cpu_time_us: 1500.0,
                parallel_frac: 0.40,
                mem_time_us: 900.0,
                disk_time_us: 0.0,
                hit_max: 0.55,
                ways_sat: 4.0,
                working_set_frac: 0.40,
                thrash_exp: 1.6,
                mem_intensity: 0.55,
                disk_intensity: 0.0,
                net_time_us: 40.0,
                net_intensity: 0.20,
            },
            WorkloadId::Xapian => Self {
                id,
                cpu_time_us: 900.0,
                parallel_frac: 0.30,
                mem_time_us: 500.0,
                disk_time_us: 450.0,
                hit_max: 0.70,
                ways_sat: 4.0,
                working_set_frac: 0.20,
                thrash_exp: 1.2,
                mem_intensity: 0.40,
                disk_intensity: 0.5,
                net_time_us: 50.0,
                net_intensity: 0.25,
            },
            WorkloadId::Blackscholes => Self {
                id,
                cpu_time_us: 4000.0,
                parallel_frac: 0.05,
                mem_time_us: 150.0,
                disk_time_us: 0.0,
                hit_max: 0.90,
                ways_sat: 1.5,
                working_set_frac: 0.05,
                thrash_exp: 1.0,
                mem_intensity: 0.10,
                disk_intensity: 0.0,
                net_time_us: 0.0,
                net_intensity: 0.0,
            },
            WorkloadId::Canneal => Self {
                id,
                cpu_time_us: 800.0,
                parallel_frac: 0.05,
                mem_time_us: 2500.0,
                disk_time_us: 0.0,
                hit_max: 0.35,
                ways_sat: 6.0,
                working_set_frac: 0.40,
                thrash_exp: 1.5,
                mem_intensity: 0.85,
                disk_intensity: 0.0,
                net_time_us: 0.0,
                net_intensity: 0.0,
            },
            WorkloadId::Fluidanimate => Self {
                id,
                cpu_time_us: 2500.0,
                parallel_frac: 0.10,
                mem_time_us: 900.0,
                disk_time_us: 0.0,
                hit_max: 0.60,
                ways_sat: 3.0,
                working_set_frac: 0.20,
                thrash_exp: 1.2,
                mem_intensity: 0.45,
                disk_intensity: 0.0,
                net_time_us: 0.0,
                net_intensity: 0.0,
            },
            WorkloadId::Freqmine => Self {
                id,
                cpu_time_us: 1800.0,
                parallel_frac: 0.05,
                mem_time_us: 1100.0,
                disk_time_us: 0.0,
                hit_max: 0.80,
                ways_sat: 4.5,
                working_set_frac: 0.40,
                thrash_exp: 1.4,
                mem_intensity: 0.50,
                disk_intensity: 0.0,
                net_time_us: 0.0,
                net_intensity: 0.0,
            },
            WorkloadId::Streamcluster => Self {
                id,
                cpu_time_us: 1200.0,
                parallel_frac: 0.10,
                mem_time_us: 1800.0,
                disk_time_us: 0.0,
                hit_max: 0.75,
                ways_sat: 4.0,
                working_set_frac: 0.15,
                thrash_exp: 1.2,
                mem_intensity: 0.70,
                disk_intensity: 0.0,
                net_time_us: 10.0,
                net_intensity: 0.05,
            },
            WorkloadId::Swaptions => Self {
                id,
                cpu_time_us: 5000.0,
                parallel_frac: 0.05,
                mem_time_us: 60.0,
                disk_time_us: 0.0,
                hit_max: 0.95,
                ways_sat: 1.0,
                working_set_frac: 0.05,
                thrash_exp: 1.0,
                mem_intensity: 0.05,
                disk_intensity: 0.0,
                net_time_us: 0.0,
                net_intensity: 0.0,
            },
        }
    }
}

/// Builder for custom [`WorkloadProfile`]s: downstream users model their
/// own services instead of the paper's eleven benchmarks. Starts from a
/// named workload's constants and overrides selectively; [`build`]
/// validates ranges.
///
/// ```
/// use clite_sim::workload::{WorkloadId, WorkloadProfileBuilder};
///
/// # fn main() -> Result<(), String> {
/// let profile = WorkloadProfileBuilder::from(WorkloadId::Memcached)
///     .cpu_time_us(150.0)
///     .mem_intensity(0.6)
///     .working_set_frac(0.2)
///     .build()?;
/// assert_eq!(profile.id, WorkloadId::Memcached);
/// # Ok(())
/// # }
/// ```
///
/// [`build`]: WorkloadProfileBuilder::build
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    profile: WorkloadProfile,
}

impl WorkloadProfileBuilder {
    /// Starts from the named workload's calibrated constants.
    #[must_use]
    pub fn from(id: WorkloadId) -> Self {
        Self { profile: id.profile() }
    }

    /// Sets the single-core CPU time per query (µs).
    #[must_use]
    pub fn cpu_time_us(mut self, v: f64) -> Self {
        self.profile.cpu_time_us = v;
        self
    }

    /// Sets the intra-query Amdahl parallel fraction.
    #[must_use]
    pub fn parallel_frac(mut self, v: f64) -> Self {
        self.profile.parallel_frac = v;
        self
    }

    /// Sets the zero-hit full-bandwidth memory time per query (µs).
    #[must_use]
    pub fn mem_time_us(mut self, v: f64) -> Self {
        self.profile.mem_time_us = v;
        self
    }

    /// Sets the full-bandwidth disk time per query (µs).
    #[must_use]
    pub fn disk_time_us(mut self, v: f64) -> Self {
        self.profile.disk_time_us = v;
        self
    }

    /// Sets the full-bandwidth network time per query (µs).
    #[must_use]
    pub fn net_time_us(mut self, v: f64) -> Self {
        self.profile.net_time_us = v;
        self
    }

    /// Sets the asymptotic LLC hit fraction.
    #[must_use]
    pub fn hit_max(mut self, v: f64) -> Self {
        self.profile.hit_max = v;
        self
    }

    /// Sets the LLC saturation constant (ways).
    #[must_use]
    pub fn ways_sat(mut self, v: f64) -> Self {
        self.profile.ways_sat = v;
        self
    }

    /// Sets the working-set fraction of machine memory.
    #[must_use]
    pub fn working_set_frac(mut self, v: f64) -> Self {
        self.profile.working_set_frac = v;
        self
    }

    /// Sets the thrashing exponent.
    #[must_use]
    pub fn thrash_exp(mut self, v: f64) -> Self {
        self.profile.thrash_exp = v;
        self
    }

    /// Sets the memory-bandwidth demand fraction.
    #[must_use]
    pub fn mem_intensity(mut self, v: f64) -> Self {
        self.profile.mem_intensity = v;
        self
    }

    /// Sets the disk-bandwidth demand fraction.
    #[must_use]
    pub fn disk_intensity(mut self, v: f64) -> Self {
        self.profile.disk_intensity = v;
        self
    }

    /// Sets the network-bandwidth demand fraction.
    #[must_use]
    pub fn net_intensity(mut self, v: f64) -> Self {
        self.profile.net_intensity = v;
        self
    }

    /// Validates and returns the profile.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range constant: times
    /// must be non-negative with positive CPU time; fractions and
    /// intensities must be in their documented ranges.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` also rejects NaN
    pub fn build(self) -> Result<WorkloadProfile, String> {
        let p = &self.profile;
        if !(p.cpu_time_us > 0.0) {
            return Err(format!("cpu_time_us must be positive, got {}", p.cpu_time_us));
        }
        for (name, v) in [
            ("mem_time_us", p.mem_time_us),
            ("disk_time_us", p.disk_time_us),
            ("net_time_us", p.net_time_us),
        ] {
            if !(v >= 0.0) {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        if !(0.0..1.0).contains(&p.parallel_frac) {
            return Err(format!("parallel_frac must be in [0, 1), got {}", p.parallel_frac));
        }
        if !(0.0..1.0).contains(&p.hit_max) {
            return Err(format!("hit_max must be in [0, 1), got {}", p.hit_max));
        }
        if !(p.ways_sat > 0.0) {
            return Err(format!("ways_sat must be positive, got {}", p.ways_sat));
        }
        if !(0.0..=1.0).contains(&p.working_set_frac) {
            return Err(format!("working_set_frac must be in [0, 1], got {}", p.working_set_frac));
        }
        if !(p.thrash_exp >= 1.0) {
            return Err(format!("thrash_exp must be >= 1, got {}", p.thrash_exp));
        }
        for (name, v) in [
            ("mem_intensity", p.mem_intensity),
            ("disk_intensity", p.disk_intensity),
            ("net_intensity", p.net_intensity),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        Ok(self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_partition_matches_table3() {
        for w in WorkloadId::LATENCY_CRITICAL {
            assert_eq!(w.class(), JobClass::LatencyCritical);
        }
        for w in WorkloadId::BACKGROUND {
            assert_eq!(w.class(), JobClass::Background);
        }
        assert_eq!(WorkloadId::ALL.len(), 11);
    }

    #[test]
    fn names_round_trip() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::from_name("nginx"), None);
    }

    #[test]
    fn profiles_are_sane() {
        for w in WorkloadId::ALL {
            let p = w.profile();
            assert_eq!(p.id, w);
            assert!(p.cpu_time_us > 0.0);
            assert!(p.mem_time_us >= 0.0);
            assert!(p.disk_time_us >= 0.0);
            assert!((0.0..1.0).contains(&p.parallel_frac) || p.parallel_frac < 1.0);
            assert!((0.0..1.0).contains(&p.hit_max));
            assert!(p.ways_sat > 0.0);
            assert!((0.0..=1.0).contains(&p.working_set_frac));
            assert!(p.thrash_exp >= 1.0);
            assert!((0.0..=1.0).contains(&p.mem_intensity));
        }
    }

    #[test]
    fn sensitivity_ordering_masstree_vs_blackscholes() {
        // masstree must be far more bandwidth-bound than blackscholes.
        let mt = WorkloadId::Masstree.profile();
        let bs = WorkloadId::Blackscholes.profile();
        assert!(mt.mem_time_us / mt.cpu_time_us > 5.0 * (bs.mem_time_us / bs.cpu_time_us));
    }

    #[test]
    fn builder_overrides_and_validates() {
        let p = WorkloadProfileBuilder::from(WorkloadId::Memcached)
            .cpu_time_us(150.0)
            .mem_intensity(0.6)
            .build()
            .unwrap();
        assert_eq!(p.cpu_time_us, 150.0);
        assert_eq!(p.mem_intensity, 0.6);
        // Unchanged fields come from memcached's calibration.
        assert_eq!(p.ways_sat, WorkloadId::Memcached.profile().ways_sat);

        assert!(WorkloadProfileBuilder::from(WorkloadId::Xapian)
            .cpu_time_us(-1.0)
            .build()
            .is_err());
        assert!(WorkloadProfileBuilder::from(WorkloadId::Xapian)
            .parallel_frac(1.5)
            .build()
            .is_err());
        assert!(WorkloadProfileBuilder::from(WorkloadId::Xapian)
            .mem_intensity(2.0)
            .build()
            .is_err());
        assert!(WorkloadProfileBuilder::from(WorkloadId::Xapian).thrash_exp(0.5).build().is_err());
    }

    #[test]
    fn acronyms_match_paper_table3() {
        assert_eq!(WorkloadId::Blackscholes.acronym(), "BS");
        assert_eq!(WorkloadId::Canneal.acronym(), "CN");
        assert_eq!(WorkloadId::Fluidanimate.acronym(), "FA");
        assert_eq!(WorkloadId::Freqmine.acronym(), "FM");
        assert_eq!(WorkloadId::Streamcluster.acronym(), "SC");
        assert_eq!(WorkloadId::Swaptions.acronym(), "SW");
    }
}
