//! Property tests for the [`Testbed`] abstraction: any partition applied
//! through `Testbed::enforce` keeps the feasibility invariants the search
//! relies on, and malformed partitions are rejected with typed errors
//! instead of corrupting server state. Run against both backends
//! ([`Server`] and [`MemoizedTestbed`]) so cache replay can never bypass
//! validation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use clite_sim::prelude::*;
use clite_sim::resource::ResourceKind;
use clite_sim::testbed::{MemoizedTestbed, Testbed};

fn arb_catalog() -> impl Strategy<Value = ResourceCatalog> {
    (4u32..=12, 4u32..=12, 4u32..=12, 4u32..=12, 4u32..=12, 4u32..=12)
        .prop_map(|(a, b, c, d, e, f)| ResourceCatalog::new([a, b, c, d, e, f]).unwrap())
}

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

/// `catalog` with one extra unit of one resource — never equal to it.
fn bumped(catalog: &ResourceCatalog, which: usize) -> ResourceCatalog {
    let mut units = [0u32; ResourceKind::ALL.len()];
    for (i, r) in ResourceKind::ALL.into_iter().enumerate() {
        units[i] = catalog.units(r);
    }
    units[which % units.len()] += 1;
    ResourceCatalog::new(units).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After `Testbed::enforce`, the committed partition gives every job
    /// at least one unit of every resource and allocates each resource
    /// exactly (no units lost, none invented).
    #[test]
    fn enforce_commits_feasible_partitions(
        catalog in arb_catalog(),
        jobs in 1usize..=4,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = Server::new(catalog, specs(jobs), seed).unwrap();
        let p = Partition::random(&catalog, jobs, &mut rng).unwrap();
        prop_assert!(Testbed::enforce(&mut server, &p).is_ok());
        let committed = server.current_partition();
        for r in ResourceKind::ALL {
            let sum: u32 = (0..jobs).map(|j| committed.units(j, r)).sum();
            prop_assert_eq!(sum, catalog.units(r), "resource {:?} must be fully allocated", r);
            for j in 0..jobs {
                prop_assert!(committed.units(j, r) >= 1, "job {j} starved of {:?}", r);
            }
        }
    }

    /// A partition with the wrong number of rows is rejected with
    /// `JobCountMismatch` and leaves the committed partition untouched.
    #[test]
    fn enforce_rejects_wrong_row_count(
        catalog in arb_catalog(),
        jobs in 1usize..=3,
        extra in 1usize..=2,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = Server::new(catalog, specs(jobs), seed).unwrap();
        let before = server.current_partition().clone();
        // Built against the roomy testbed catalog so the extra rows always
        // fit; row count is validated before catalog identity.
        let p = Partition::random(&ResourceCatalog::testbed(), jobs + extra, &mut rng).unwrap();
        prop_assert!(matches!(
            Testbed::enforce(&mut server, &p),
            Err(SimError::JobCountMismatch { expected, actual })
                if expected == jobs && actual == jobs + extra
        ));
        prop_assert_eq!(server.current_partition(), &before);
    }

    /// A partition built against a different catalog is rejected with
    /// `CatalogMismatch` even when the row count matches.
    #[test]
    fn enforce_rejects_foreign_catalog(
        catalog in arb_catalog(),
        jobs in 1usize..=3,
        which in 0usize..6,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = Server::new(catalog, specs(jobs), seed).unwrap();
        let foreign = bumped(&catalog, which);
        let p = Partition::random(&foreign, jobs, &mut rng).unwrap();
        prop_assert!(matches!(
            Testbed::enforce(&mut server, &p),
            Err(SimError::CatalogMismatch)
        ));
    }

    /// The memoized backend enforces the same invariants as the raw
    /// server — a cache can replay observations, never validation.
    #[test]
    fn memoized_backend_validates_like_server(
        catalog in arb_catalog(),
        jobs in 1usize..=3,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut memo = MemoizedTestbed::new(Server::new(catalog, specs(jobs), seed).unwrap());
        let good = Partition::random(&catalog, jobs, &mut rng).unwrap();
        prop_assert!(memo.enforce(&good).is_ok());
        let bad_rows = Partition::random(&catalog, jobs + 1, &mut rng).unwrap();
        prop_assert!(matches!(
            memo.enforce(&bad_rows),
            Err(SimError::JobCountMismatch { .. })
        ));
        let foreign = Partition::random(&bumped(&catalog, jobs), jobs, &mut rng).unwrap();
        prop_assert!(matches!(memo.enforce(&foreign), Err(SimError::CatalogMismatch)));
    }

    /// `Testbed::try_observe` advances the sample counter and simulated time
    /// identically on both backends for a first (cache-miss) observation.
    #[test]
    fn observe_accounting_matches_across_backends(
        catalog in arb_catalog(),
        jobs in 1usize..=3,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Partition::random(&catalog, jobs, &mut rng).unwrap();
        let mut server = Server::new(catalog, specs(jobs), seed).unwrap();
        let mut memo = MemoizedTestbed::new(Server::new(catalog, specs(jobs), seed).unwrap());
        let direct = Testbed::try_observe(&mut server, &p).unwrap();
        let through_cache = memo.try_observe(&p).unwrap();
        prop_assert_eq!(server.samples_observed(), 1);
        prop_assert_eq!(memo.samples_observed(), 1);
        prop_assert!((server.time_s() - memo.time_s()).abs() < 1e-9);
        prop_assert!((direct.time_s - through_cache.time_s).abs() < 1e-9);
    }
}
