//! # clite-bench — the experiment harness
//!
//! One module per table/figure of the CLITE paper's evaluation (Sec. 5),
//! each regenerating the corresponding result on the simulator substrate:
//! the same workload mixes, the same policies, the same metrics, printed as
//! paper-style tables and ASCII heatmaps.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p clite-bench --bin experiments -- all
//! ```
//!
//! or a single experiment (`fig7`, `fig15a`, `table1`, `summary`,
//! `ablations`, …). Pass `--full` for the paper-sized grids (slower) and
//! `--seed N` to re-seed every stochastic component.
//!
//! The absolute numbers differ from the paper (the substrate is a
//! simulator, not a Xeon testbed); the *shapes* — who wins, by roughly what
//! factor, where the co-location frontier falls — are the reproduction
//! target. `EXPERIMENTS.md` at the repository root records paper-vs-
//! measured for every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod export;
pub mod loadrun;
pub mod mixes;
pub mod render;
pub mod runner;

use std::path::Path;
use std::sync::Arc;

use clite_store::{ShardPolicy, ShardedStore};
use clite_telemetry::Telemetry;

/// Opens (or creates) the sharded observation store of a `--store PATH`
/// option — shard `i` in `<path>.shard<i>`, the one layout every
/// `--store` shares — creating its directory first. A shard with a torn
/// or corrupt tail is recovered, with a stderr warning.
///
/// # Errors
///
/// A message starting `cannot open observation store <path>` when the
/// directory cannot be created or the store cannot be opened.
pub fn open_store(
    path: &Path,
    policy: ShardPolicy,
    telemetry: &Telemetry<'_>,
) -> Result<Arc<ShardedStore>, String> {
    let cannot = |e: String| format!("cannot open observation store {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| cannot(format!("cannot create directory {}: {e}", dir.display())))?;
    }
    let store = ShardedStore::open(path, policy, telemetry).map_err(|e| cannot(e.to_string()))?;
    let stats = store.stats();
    if stats.dropped_bytes > 0 || stats.undecodable_records > 0 {
        eprintln!(
            "warning: store {} had a corrupt tail; recovered {} records, dropped {} bytes, {} undecodable",
            path.display(),
            stats.recovered_records,
            stats.dropped_bytes,
            stats.undecodable_records
        );
    }
    Ok(store)
}

/// Options shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpOptions {
    /// Quick mode shrinks load grids and repeat counts so the whole suite
    /// finishes in minutes; `--full` restores paper-sized sweeps.
    pub quick: bool,
    /// Base seed for every stochastic component (servers, policies).
    pub seed: u64,
    /// Observation-store path (`--store`): experiments that re-invoke the
    /// CLITE search (fig16's adaptive loop) persist their observations
    /// here and warm-start from them on re-invocation.
    pub store: Option<std::path::PathBuf>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self { quick: true, seed: 42, store: None }
    }
}

/// A rendered experiment result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Short id (`"fig7"`, `"table1"`, …).
    pub id: &'static str,
    /// Human-readable title (the paper's caption, abridged).
    pub title: String,
    /// Rendered body (tables/heatmaps/series).
    pub body: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "━━━ {} — {} ━━━", self.id, self.title)?;
        writeln!(f, "{}", self.body)
    }
}
