//! Structured export of experiment artifacts: reports to text files,
//! policy outcomes to CSV.

use std::fs;
use std::io;
use std::path::Path;

use clite_policies::policy::PolicyOutcome;

use crate::Report;

/// Writes every report to `<dir>/<id>.txt` (creating the directory), and
/// an `index.txt` listing them.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_reports(dir: &Path, reports: &[Report]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut index = String::new();
    for r in reports {
        let path = dir.join(format!("{}.txt", r.id));
        fs::write(&path, format!("{r}"))?;
        index.push_str(&format!("{}\t{}\n", r.id, r.title));
    }
    fs::write(dir.join("index.txt"), index)
}

/// Flattens a policy outcome into per-sample CSV rows:
/// `index,score,qos_met,mean_bg_perf,mean_lc_perf`.
#[must_use]
pub fn outcome_to_csv(outcome: &PolicyOutcome) -> String {
    let mut out = String::from("index,score,qos_met,mean_bg_perf,mean_lc_perf\n");
    for s in &outcome.samples {
        out.push_str(&format!(
            "{},{:.6},{},{},{}\n",
            s.index,
            s.score,
            s.observation.all_qos_met(),
            s.observation.mean_bg_perf().map_or(String::new(), |v| format!("{v:.6}")),
            s.observation.mean_lc_perf().map_or(String::new(), |v| format!("{v:.6}")),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixes::Mix;
    use crate::runner::{run_policy, PolicyKind};
    use clite_sim::workload::WorkloadId;

    fn outcome() -> PolicyOutcome {
        let mix = Mix::new(&[(WorkloadId::Memcached, 0.2)], &[WorkloadId::Swaptions]);
        run_policy(PolicyKind::Parties, &mix, 1)
    }

    #[test]
    fn csv_has_header_and_rows() {
        let o = outcome();
        let csv = outcome_to_csv(&o);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "index,score,qos_met,mean_bg_perf,mean_lc_perf");
        assert_eq!(lines.len(), o.samples_used() + 1);
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn reports_saved_with_index() {
        let dir = std::env::temp_dir().join("clite_reports_test");
        let reports = vec![
            Report { id: "table1", title: "t".into(), body: "b".into() },
            Report { id: "fig6", title: "f".into(), body: "g".into() },
        ];
        save_reports(&dir, &reports).unwrap();
        assert!(dir.join("table1.txt").exists());
        assert!(dir.join("fig6.txt").exists());
        let index = fs::read_to_string(dir.join("index.txt")).unwrap();
        assert!(index.contains("fig6"));
        fs::remove_dir_all(&dir).ok();
    }
}
