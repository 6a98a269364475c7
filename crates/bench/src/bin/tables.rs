//! Regenerates every result table — T1–T7, F1–F6 and A1
//! ([`gather_bench::tables`]) — under `--out DIR` (default `results/`):
//! each table's CSVs plus `<table>.txt`, the text it prints.
//!
//! ```sh
//! cargo run --release -p gather-bench --bin tables -- [--trials N] [--out DIR] [--quick]
//! ```

use gather_bench::{tables, Args};

fn main() {
    let args = Args::parse();
    assert!(
        args.baseline.is_none(),
        "tables takes no --baseline; usage: [--trials N] [--out DIR] [--quick]"
    );
    tables::run_all(&args);
}
