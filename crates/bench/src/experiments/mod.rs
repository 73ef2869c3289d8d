//! One module per paper table/figure (see `DESIGN.md` for the index).

pub mod ablations;
pub mod chaos;
pub mod cluster;
pub mod fig01;
pub mod fig02;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod frontier;
pub mod loadtest;
pub mod placement;
pub mod summary;
pub mod tables;

use crate::{ExpOptions, Report};

/// An experiment entry point.
pub type ExperimentFn = fn(&ExpOptions) -> Report;

/// All experiments: `(id, runner)` in presentation order.
#[must_use]
pub fn registry() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1", tables::table1 as ExperimentFn),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("fig1", fig01::run),
        ("fig2", fig02::run),
        ("fig6", fig06::run),
        ("fig7", fig07::run),
        ("fig8", fig08::run),
        ("fig9a", fig09::run_a),
        ("fig9b", fig09::run_b),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15a", fig15::run_a),
        ("fig15b", fig15::run_b),
        ("fig16", fig16::run),
        ("summary", summary::run),
        ("ablations", ablations::run),
        ("frontier", frontier::run),
        ("cluster", cluster::run),
        ("chaos", chaos::run),
        ("loadtest", loadtest::run),
        ("placement", placement::run),
    ]
}

/// Runs one experiment by id (`None` for an unknown id).
#[must_use]
pub fn run_by_id(id: &str, opts: &ExpOptions) -> Option<Report> {
    registry().into_iter().find(|(i, _)| *i == id).map(|(_, f)| f(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<_> = reg.iter().map(|(i, _)| *i).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("fig99", &ExpOptions::default()).is_none());
    }
}
