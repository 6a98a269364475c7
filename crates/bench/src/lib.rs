//! Experiment harness shared by the per-table/per-figure runner binaries.
//!
//! The paper is a theory paper with no empirical section, so the
//! "evaluation" reproduced here is the explicit experiment plan of
//! DESIGN.md §6 / EXPERIMENTS.md: every runner binary regenerates one
//! table (T1–T6) or figure (F1–F5), printing a human-readable table and
//! writing a CSV under `results/`.
//!
//! The harness provides:
//!
//! * [`Args`] — uniform CLI parsing (`--trials N`, `--out DIR`,
//!   `--quick`);
//! * [`factory`] — algorithms/schedulers/motion adversaries by name, so
//!   sweeps are data-driven;
//! * [`runner`] — single-scenario execution with per-thread engine
//!   recycling, plus a parallel map over the persistent worker pool;
//! * [`pool`] — the long-lived worker pool behind `runner::parallel_map`
//!   (worker count from `GATHER_THREADS` or available parallelism);
//! * [`table`] — aligned text tables + CSV output.

use std::path::PathBuf;

pub mod factory;
pub mod pool;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod table;

/// Allocation auditing (feature `alloc-audit`).
///
/// When the feature is enabled this module installs a counting wrapper
/// around the system allocator for the whole process, and
/// [`heap_allocations`](alloc_audit::heap_allocations) reports the running total — the B1 runner diffs it
/// around the round loop to prove the scratch-buffer engine's steady state
/// allocates nothing. Without the feature nothing is installed and
/// [`heap_allocations`](alloc_audit::heap_allocations) returns `None`, so the audit columns degrade to
/// `n/a` instead of lying.
pub mod alloc_audit {
    #[cfg(feature = "alloc-audit")]
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

        /// Counts every allocation (and reallocation — a `Vec` growing in
        /// place still hits the allocator) before delegating to [`System`].
        /// Deallocations are not counted: the audit asks "did the round
        /// touch the heap", not "did memory usage grow".
        struct CountingAlloc;

        // SAFETY: pure delegation to `System`, plus a relaxed counter
        // increment that cannot affect the returned memory.
        unsafe impl GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                unsafe { System.alloc(layout) }
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static GLOBAL: CountingAlloc = CountingAlloc;
    }

    /// Heap allocations performed by this process so far, when the
    /// `alloc-audit` feature compiled the counting allocator in.
    pub fn heap_allocations() -> Option<u64> {
        #[cfg(feature = "alloc-audit")]
        {
            Some(counting::ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed))
        }
        #[cfg(not(feature = "alloc-audit"))]
        {
            None
        }
    }

    /// Is the counting allocator compiled in?
    pub fn enabled() -> bool {
        cfg!(feature = "alloc-audit")
    }
}

/// Common command-line arguments for experiment binaries.
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
