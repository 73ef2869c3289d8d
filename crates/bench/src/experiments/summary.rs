//! The paper's §5.2 headline claims, measured on this reproduction.
//!
//! * CLITE's LC performance within ~5% of ORACLE, >15% over PARTIES in
//!   many cases;
//! * CLITE variability < 7% vs often > 20% for the others (measured
//!   here against PARTIES alone);
//! * CLITE converges in < ~30 samples;
//! * CLITE BG performance ≥ 75% of ORACLE, competitors far lower.

use clite_gp::stats::mean;

use crate::experiments::fig11::{variability, variability_mixes};
use crate::mixes::{fig10_mix_a, fig10_mix_b, fig13_lc_mixes, Mix};
use crate::render::{pct1, Table};
use crate::runner::{run_and_eval, run_policy, PolicyKind};
use crate::{ExpOptions, Report};
use clite_sim::workload::WorkloadId;

/// Runs the summary.
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let mut t = Table::new(vec!["Claim (paper §5.2)", "Paper", "Measured"]);

    // LC performance vs ORACLE and PARTIES over the Fig. 10 settings.
    let mut clite_vs_oracle = Vec::new();
    let mut parties_vs_oracle = Vec::new();
    let mut clite_samples = Vec::new();
    for (i, mix) in [fig10_mix_a(0.3), fig10_mix_a(0.6), fig10_mix_b(0.3), fig10_mix_b(0.6)]
        .into_iter()
        .enumerate()
    {
        let seed = opts.seed.wrapping_add(i as u64);
        let (_, _, oracle_lc) = run_and_eval(PolicyKind::Oracle, &mix, seed);
        let oracle = oracle_lc.unwrap_or(0.0);
        let clite = run_policy(PolicyKind::Clite, &mix, seed);
        let (_, _, clite_lc) = run_and_eval(PolicyKind::Clite, &mix, seed);
        let (_, _, parties_lc) = run_and_eval(PolicyKind::Parties, &mix, seed);
        if oracle > 0.0 {
            clite_vs_oracle.push(clite_lc.unwrap_or(0.0) / oracle);
            parties_vs_oracle.push(parties_lc.unwrap_or(0.0) / oracle);
        }
        clite_samples.push(clite.samples_used() as f64);
    }
    t.row(vec![
        "CLITE LC perf vs ORACLE".to_owned(),
        "within 5% (95-98%)".to_owned(),
        pct1(mean(&clite_vs_oracle)),
    ]);
    t.row(vec![
        "PARTIES LC perf vs ORACLE".to_owned(),
        "74-85%".to_owned(),
        pct1(mean(&parties_vs_oracle)),
    ]);

    // Variability.
    let trials = if opts.quick { 3 } else { 6 };
    let (_, vmix) = &variability_mixes()[0];
    let clite_var = variability(PolicyKind::Clite, vmix, trials, opts.seed);
    let parties_var = variability(PolicyKind::Parties, vmix, trials, opts.seed);
    t.row(vec!["CLITE variability".to_owned(), "< 7%".to_owned(), pct1(clite_var)]);
    t.row(vec!["PARTIES variability".to_owned(), "often > 20%".to_owned(), pct1(parties_var)]);

    // Convergence samples.
    t.row(vec![
        "CLITE samples to converge".to_owned(),
        "< 30".to_owned(),
        format!("{:.0}", mean(&clite_samples)),
    ]);

    // BG performance vs ORACLE, aggregated over the Fig. 13 settings
    // (both LC mixes, three BG workloads each).
    let mut clite_bg_ratios = Vec::new();
    let mut parties_bg_ratios = Vec::new();
    for (_, lc) in fig13_lc_mixes().iter() {
        for (bi, bg) in [WorkloadId::Blackscholes, WorkloadId::Streamcluster, WorkloadId::Canneal]
            .into_iter()
            .enumerate()
        {
            let mix = Mix::new(lc, &[bg]);
            // Same seeding as the fig13 experiment so the summary row is a
            // strict aggregate of that figure's cells.
            let seed = opts.seed.wrapping_add(100 + bi as u64);
            let (_, oracle_bg_opt, _) = run_and_eval(PolicyKind::Oracle, &mix, seed);
            let (clite_met, clite_bg, _) = run_and_eval(PolicyKind::Clite, &mix, seed);
            let (parties_met, parties_bg, _) = run_and_eval(PolicyKind::Parties, &mix, seed);
            let clite_bg = if clite_met { clite_bg.unwrap_or(0.0) } else { 0.0 };
            let parties_bg = if parties_met { parties_bg.unwrap_or(0.0) } else { 0.0 };
            // Best-known QoS-meeting reference (see fig13/fig14 notes).
            let reference = oracle_bg_opt.unwrap_or(0.0).max(clite_bg).max(parties_bg);
            if reference <= 0.0 {
                continue;
            }
            clite_bg_ratios.push(clite_bg / reference);
            parties_bg_ratios.push(parties_bg / reference);
        }
    }
    t.row(vec![
        "CLITE BG perf vs ORACLE".to_owned(),
        "> 75%".to_owned(),
        pct1(mean(&clite_bg_ratios)),
    ]);
    t.row(vec![
        "PARTIES BG perf vs ORACLE".to_owned(),
        "< 30-40%".to_owned(),
        pct1(mean(&parties_bg_ratios)),
    ]);

    Report { id: "summary", title: "Headline claims, paper vs measured".into(), body: t.render() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders_all_claims() {
        let r = run(&ExpOptions { quick: true, seed: 3, ..ExpOptions::default() });
        assert!(r.body.contains("CLITE LC perf vs ORACLE"));
        assert!(r.body.contains("CLITE variability"));
        assert!(r.body.contains("PARTIES variability"), "the row names the policy it measures");
        assert!(!r.body.contains("RAND+"), "RAND+ and GENETIC are not measured here");
        assert!(r.body.contains("samples to converge"));
    }
}
