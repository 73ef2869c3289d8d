//! Structured export of experiment artifacts: reports to text files.

use std::fs;
use std::io;
use std::path::Path;

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

#[cfg(test)]
mod tests {
    use super::*;

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
