//! Experiment harness shared by the table driver and the benchmark
//! binaries.
//!
//! The paper is a theory paper with no empirical section, so the
//! "evaluation" reproduced here is the explicit experiment plan of
//! DESIGN.md §6 / EXPERIMENTS.md: the `tables` binary regenerates every
//! theorem-shaped table (T1–T7, F1–F6 and A1), printing human-readable
//! tables and writing CSVs and their text under `results/`; the `bX_*`
//! binaries, `sweep` and `f7_boundary` measure and map on their own.
//!
//! The harness provides:
//!
//! * [`Args`] — uniform CLI parsing (`--trials N`, `--out DIR`,
//!   `--quick`, `--baseline PATH`);
//! * [`tables`] — the result tables, one function each;
//! * [`factory`] — algorithms/schedulers/motion adversaries by name, so
//!   sweeps are data-driven;
//! * [`runner`] — single-scenario execution with per-thread engine
//!   recycling, plus a parallel map over the persistent worker pool;
//! * [`sweep`] — batched execution of scenario grids on `BatchEngine`
//!   lanes;
//! * [`pool`] — the long-lived worker pool behind `runner::parallel_map`
//!   (worker count from `GATHER_THREADS` or available parallelism);
//! * [`report`] — the benchmarks' record and gate plumbing;
//! * [`table`] — aligned text tables + CSV output.

use std::path::PathBuf;

pub mod factory;
pub mod pool;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod tables;

/// Common command-line arguments for the table driver and benchmarks.
#[derive(Debug, Clone)]
pub struct Args {
    /// Number of independent trials per cell (seeds `0..trials`).
    pub trials: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Reduced sweep for smoke-testing the harness.
    pub quick: bool,
    /// Committed benchmark record to regress against (`--baseline PATH`);
    /// runners that support it exit non-zero on a significant regression.
    pub baseline: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            trials: 10,
            out_dir: PathBuf::from("results"),
            quick: false,
            baseline: None,
        }
    }
}

impl Args {
    /// Parses `--trials N`, `--out DIR`, `--quick` and `--baseline PATH`
    /// from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> Self {
        let mut out = Args::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trials" => {
                    let v = args.next().expect("--trials needs a value");
                    out.trials = v.parse().expect("--trials must be an integer");
                }
                "--out" => {
                    let v = args.next().expect("--out needs a value");
                    out.out_dir = PathBuf::from(v);
                }
                "--quick" => {
                    out.quick = true;
                    out.trials = out.trials.min(3);
                }
                "--baseline" => {
                    let v = args.next().expect("--baseline needs a value");
                    out.baseline = Some(PathBuf::from(v));
                }
                other => {
                    panic!(
                        "unknown argument {other}; usage: \
                         [--trials N] [--out DIR] [--quick] [--baseline PATH]"
                    )
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let a = Args::default();
        assert_eq!(a.trials, 10);
        assert!(!a.quick);
        assert_eq!(a.out_dir, PathBuf::from("results"));
    }
}
