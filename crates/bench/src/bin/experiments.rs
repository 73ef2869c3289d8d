//! The experiment driver: regenerates every table and figure of the CLITE
//! paper's evaluation on the simulator substrate.
//!
//! ```text
//! experiments all                 # everything, quick grids
//! experiments fig7 fig12          # selected experiments
//! experiments all --full          # paper-sized grids (slower)
//! experiments all --seed 7        # re-seed every stochastic component
//! experiments --list              # list experiment ids
//! experiments fig7 --telemetry-out events.jsonl   # stream run telemetry
//! experiments fig16 --store obs.clite   # persist observations, warm-start re-searches
//! experiments loadtest                  # latency percentiles under load traces
//!                                       # (writes results/reports/loadtest.json,
//!                                       #  or $CLITE_LOAD_REPORT when set)
//! ```

use std::process::ExitCode;
use std::time::Instant;

use clite_bench::experiments::{registry, run_by_id};
use clite_bench::export::save_reports;
use clite_bench::runner::{ambient_sink, ambient_telemetry, install_jsonl_sink};
use clite_bench::{open_store, ExpOptions};
use clite_store::ShardPolicy;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExpOptions::default();
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut save_dir: Option<std::path::PathBuf> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => opts.quick = false,
            "--quick" => opts.quick = true,
            "--list" => list = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => opts.seed = s,
                None => {
                    eprintln!("--seed requires an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--save" => match it.next() {
                Some(d) => save_dir = Some(std::path::PathBuf::from(d)),
                None => {
                    eprintln!("--save requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--store" => match it.next() {
                Some(p) => opts.store = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--store requires a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--telemetry-out" => match it.next() {
                Some(p) => {
                    if let Err(e) = install_jsonl_sink(&p) {
                        eprintln!("cannot open telemetry output {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                None => {
                    eprintln!("--telemetry-out requires a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_owned()),
        }
    }

    if list {
        for (id, _) in registry() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if ids.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    if ids.iter().any(|i| i == "all") {
        ids = registry().into_iter().map(|(id, _)| id.to_owned()).collect();
    }

    // Opened once up front with the shared opener, so a path that cannot
    // hold a store is an error here rather than a panic mid-experiment.
    if let Some(path) = &opts.store {
        if let Err(e) = open_store(path, ShardPolicy::for_path(path), &ambient_telemetry()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut reports = Vec::new();
    for id in &ids {
        let start = Instant::now();
        match run_by_id(id, &opts) {
            Some(report) => {
                println!("{report}");
                eprintln!("[{id} took {:.1?}]", start.elapsed());
                reports.push(report);
            }
            None => {
                eprintln!("unknown experiment id: {id} (use --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = save_dir {
        if let Err(e) = save_reports(&dir, &reports) {
            eprintln!("failed to save reports to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[saved {} reports to {}]", reports.len(), dir.display());
    }
    if let Some(sink) = ambient_sink() {
        println!("metrics snapshot:\n\n{}", sink.metrics().to_prometheus());
        if let Err(e) = sink.flush() {
            eprintln!("warning: telemetry flush failed: {e}");
        }
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    let ids: Vec<&str> = registry().into_iter().map(|(id, _)| id).collect();
    eprintln!(
        "usage: experiments <id>... | all [--full] [--seed N] [--save DIR] \
         [--telemetry-out PATH] [--store PATH] [--list]\n\
         ids: {}",
        ids.join(" ")
    );
}
