//! `Observation::mean_bg_perf` and `mean_lc_perf` fold in one pass; they
//! must equal the collect-then-sum mean bit for bit, because the learned
//! placement features and the fleet statistics carry every bit of them.
//! Covers observations with no BG jobs, all-BG jobs, and mixes.

use proptest::prelude::*;

use clite_sim::prelude::*;

/// The collect-then-sum mean the one-pass form replaced.
fn reference(obs: &Observation, class: JobClass) -> Option<f64> {
    let perfs: Vec<f64> =
        obs.jobs.iter().filter(|j| j.class == class).map(|j| j.normalized_perf).collect();
    if perfs.is_empty() {
        None
    } else {
        Some(perfs.iter().sum::<f64>() / perfs.len() as f64)
    }
}

/// A real window's observation, reshaped to `classes` with `perfs`.
fn observation(classes: &[bool], perfs: &[f64]) -> Observation {
    let jobs = vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::background(WorkloadId::Streamcluster),
    ];
    let catalog = ResourceCatalog::testbed();
    let server = Server::new(catalog, jobs, 7).expect("mix fits");
    let template = server.ground_truth(&Partition::equal_share(&catalog, 2).expect("share"));
    let mut obs = template.clone();
    obs.jobs = classes
        .iter()
        .zip(perfs)
        .map(|(&bg, &perf)| {
            let mut job = template.jobs[usize::from(bg)];
            job.normalized_perf = perf;
            job
        })
        .collect();
    obs
}

fn assert_means_match(obs: &Observation) {
    let bits = |m: Option<f64>| m.map(f64::to_bits);
    assert_eq!(bits(obs.mean_bg_perf()), bits(reference(obs, JobClass::Background)));
    assert_eq!(bits(obs.mean_lc_perf()), bits(reference(obs, JobClass::LatencyCritical)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_pass_means_match_collect_then_sum(
        classes in prop::collection::vec(any::<bool>(), 0..12),
        perfs in prop::collection::vec(-1.0f64..3.0, 12..13),
    ) {
        assert_means_match(&observation(&classes, &perfs));
    }
}

#[test]
fn no_bg_all_bg_and_signed_zero_edges() {
    let perfs = [0.7, 0.2, 1e-300, -0.0, 0.1 + 0.2, 0.3];
    for classes in [[false; 6], [true; 6], [true, false, true, false, true, false]] {
        let obs = observation(&classes, &perfs);
        assert_means_match(&obs);
    }
    assert_eq!(observation(&[false; 3], &perfs).mean_bg_perf(), None);
    assert_eq!(observation(&[true; 3], &perfs).mean_lc_perf(), None);
    // A lone −0.0 keeps its sign, as the collected sum does.
    let negative_zero = observation(&[true], &[-0.0]).mean_bg_perf().expect("one BG job");
    assert!(negative_zero.is_sign_negative());
    assert_means_match(&observation(&[], &[]));
}
