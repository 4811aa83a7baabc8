//! # pp-bench — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation (run them through
//! the `repro` binary: `cargo run --release -p pp-bench --bin repro -- all`),
//! plus criterion microbenchmarks of the applications and the prediction
//! arithmetic under `benches/` (the simulator's own layers are measured
//! by the `benchmark/` package at the repository root).
//!
//! Every experiment prints the same rows/series the paper reports, writes a
//! CSV under `results/`, and — where the paper gives concrete numbers —
//! prints the paper's values alongside for direct comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use pp_core::prelude::*;
use std::path::PathBuf;

/// Shared run context for all experiments.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Measurement parameters (scale, warmup, window).
    pub params: ExpParams,
    /// Host worker threads (`--jobs`) that independent simulation points
    /// are sharded across. `1` is the exact serial path; any value yields
    /// bit-for-bit identical results (each point builds its own engine
    /// from its own derived seed and results merge in canonical order).
    pub jobs: usize,
    /// Where CSVs are written.
    pub out_dir: PathBuf,
    /// SYN ramp length for sensitivity curves.
    pub levels: u8,
}

impl RunCtx {
    /// Paper-scale context writing to `results/`.
    pub fn paper() -> Self {
        RunCtx {
            params: ExpParams::paper(),
            jobs: default_threads(),
            out_dir: PathBuf::from("results"),
            levels: 8,
        }
    }

    /// Quick (test-scale) context: smaller structures, shorter windows,
    /// shorter ramps. Used by integration tests and `--quick`.
    pub fn quick() -> Self {
        RunCtx {
            params: ExpParams::quick(),
            jobs: default_threads(),
            out_dir: PathBuf::from("results"),
            levels: 4,
        }
    }

    /// Print a section heading.
    pub fn heading(&self, title: &str) {
        println!("\n=== {title} ===");
    }

    /// Print a table and persist its CSV under the output directory.
    pub fn emit(&self, file_stem: &str, table: &Table) {
        println!("{}", table.render());
        let path = self.out_dir.join(format!("{file_stem}.csv"));
        match table.write_csv(&path) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_construct() {
        let p = RunCtx::paper();
        assert_eq!(p.levels, 8);
        let q = RunCtx::quick();
        assert!(q.jobs >= 1);
    }
}
