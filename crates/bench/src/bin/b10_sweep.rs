//! B10 — mega-sweep engine: lockstep batched execution vs the
//! engine-per-scenario `WorkerPool::map` path.
//!
//! The sweep driver (`sweep` binary) covers parameter space with tens of
//! thousands of *short* scenarios, so per-scenario fixed overhead — engine
//! assembly, the cold admission classification, trace bookkeeping, pool
//! dispatch — dominates over per-round simulation work. The
//! [`gather_bench::sweep`] path amortises all of it: chunks of consecutive
//! scenarios advance in lockstep inside one [`BatchEngine`](gather_sim::batch::BatchEngine) per worker,
//! recycling lane slabs on retirement and deduplicating the admission
//! analysis across grid cells that share an initial configuration.
//!
//! This benchmark drives both paths over the same probe grid (the sweep
//! driver's cell shape at reduced density, audits off) and enforces:
//!
//! * **identity** — batched [`RunMetrics`] are bit-identical to the
//!   sequential path at every pool size (always enforced; this is the
//!   b10 correctness contract);
//! * **speedup** — the batched path clears 2x scenarios/sec over the
//!   map path at equal thread count (1 worker, so the gate is fair on
//!   any machine);
//! * multi-worker rows are reported for texture but only gated on
//!   machines with enough cores (b7 convention: auto-skip with reason).
//!
//! Writes `BENCH_b10_sweep.json` — unless `--baseline PATH` or `--quick`
//! is given, in which case the fresh JSON goes to the `--out` dir and the
//! committed record is left untouched. With `--baseline` the fresh
//! 1-worker batch throughput must stay within 30 % of the committed
//! record. The probe grid is identical in quick mode (only the timing
//! trial count shrinks) so the baseline gate stays comparable.

use gather_bench::pool::WorkerPool;
use gather_bench::report::{self, parse_pairs};
use gather_bench::runner::Scenario;
use gather_bench::sweep::run_batched_on;
use gather_bench::table::{f, Table};
use gather_bench::Args;
use gather_config::Class;
use gather_sim::metrics::RunMetrics;
use gather_workloads as workloads;
use std::time::Instant;

/// Lockstep lanes per in-flight batch. Wide enough to amortise the arena
/// walk, narrow enough that retirement refills matter on short grids.
const WIDTH: usize = 16;

/// The timed probe grid: the sweep driver's cell shape (class × n ×
/// scheduler × faults) concentrated on the expensive-classification
/// classes `QR` and `A`, where the cold admission analysis (quasi-
/// regularity detection plus the cold Weiszfeld run) dominates short
/// scenarios — the regime a dense phase-diagram sweep multiplies fastest.
/// Classes whose classification short-circuits early (`B`, `M`, `L`) run
/// at parity on the batch path (never slower; see the identity grid and
/// `tests/batch_identity.rs` for full-mix coverage). Audits are off on
/// both paths — the sweep measures raw scenario throughput and the b10
/// contract compares equal configurations. Cell ordering keeps scenarios
/// sharing an initial configuration consecutive, which is what the batch
/// admission memo exploits (and what the real sweep driver emits).
fn grid() -> Vec<Scenario> {
    let classes = [Class::QuasiRegular, Class::Asymmetric];
    let mut scenarios = Vec::new();
    for &class in &classes {
        for n in [8usize, 12, 16] {
            for trial in 0..4u64 {
                let initial = workloads::of_class(class, n, trial);
                for sched in ["full", "round-robin"] {
                    for faults in [0usize, 1, n / 4, n / 2] {
                        let mut s = Scenario::new(initial.clone(), trial);
                        s.scheduler = sched;
                        s.faults = faults;
                        s.max_rounds = 5_000;
                        s.audit = false;
                        scenarios.push(s);
                    }
                }
            }
        }
    }
    scenarios
}

/// The identity grid: every configuration class (including bivalent
/// round-limit lanes), audited wait-free runs, the stingy motion
/// adversary, and every scheduler — one untimed pass per pool size that
/// must come back bit-identical between the two paths.
fn identity_grid() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for class in Class::all() {
        for (t, &sched) in ["full", "round-robin", "single", "random"]
            .iter()
            .enumerate()
        {
            let initial = workloads::of_class(class, 8, t as u64);
            for delta in [0.05, 0.2] {
                for faults in [0usize, 3] {
                    let mut s = Scenario::new(initial.clone(), t as u64);
                    s.scheduler = sched;
                    s.motion = "random";
                    s.delta = delta;
                    s.faults = faults;
                    s.max_rounds = 60;
                    scenarios.push(s);
                }
            }
        }
    }
    scenarios
}

/// Min-of-trials wall-clock for one full pass over the grid, plus the
/// last pass's results (identical across passes — the engine is
/// deterministic, which the caller re-checks anyway).
fn timed<F: FnMut() -> Vec<RunMetrics>>(trials: usize, mut run: F) -> (f64, Vec<RunMetrics>) {
    let mut best = f64::INFINITY;
    let mut last = Vec::new();
    for _ in 0..trials {
        let start = Instant::now();
        last = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, last)
}

struct Row {
    threads: usize,
    map_scn_per_sec: f64,
    batch_scn_per_sec: f64,
    identical: bool,
}

fn main() {
    let args = Args::parse();
    let mut failures: Vec<String> = Vec::new();

    let scenarios = grid();
    let trials = if args.quick { 6 } else { 20 };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let identity = identity_grid();
    let mut rows: Vec<Row> = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        let (map_s, map_results) = timed(trials, || pool.map(&scenarios, |s| s.run()));
        let (batch_s, batch_results) = timed(trials, || run_batched_on(&pool, &scenarios, WIDTH));
        let mut identical = map_results == batch_results;
        // Full-mix identity pass: all six classes, audits on, stingy
        // motion, every scheduler, round-limit lanes included.
        identical &= pool.map(&identity, |s| s.run()) == run_batched_on(&pool, &identity, WIDTH);
        if !identical {
            failures.push(format!(
                "batched metrics diverged from the sequential path at {threads} worker(s) \
                 (bit-identity contract)"
            ));
        }
        rows.push(Row {
            threads,
            map_scn_per_sec: scenarios.len() as f64 / map_s,
            batch_scn_per_sec: scenarios.len() as f64 / batch_s,
            identical,
        });
    }

    let mut table = Table::new(&[
        "threads",
        "map scn/s",
        "batch scn/s",
        "speedup",
        "identical",
    ]);
    for row in &rows {
        table.push(vec![
            row.threads.to_string(),
            f(row.map_scn_per_sec, 1),
            f(row.batch_scn_per_sec, 1),
            f(row.batch_scn_per_sec / row.map_scn_per_sec, 2),
            row.identical.to_string(),
        ]);
    }
    let total_rounds: u64 = {
        let pool = WorkerPool::new(1);
        pool.map(&scenarios, |s| s.run())
            .iter()
            .map(|m| m.rounds)
            .sum()
    };
    println!(
        "B10 — batched mega-sweep vs engine-per-scenario map ({} scenarios, {total_rounds} total rounds, width {WIDTH}, \
         min over {trials} trial(s))\n",
        scenarios.len()
    );
    table.print();

    // --- 2x-at-equal-threads gate --------------------------------------
    let single = &rows[0];
    let speedup1 = single.batch_scn_per_sec / single.map_scn_per_sec;
    let speedup_gate = if speedup1 < 2.0 {
        failures.push(format!(
            "batched sweep at 1 worker: {speedup1:.2}x over the map path (< 2x contract)"
        ));
        format!("\"enforced: {speedup1:.2}x at 1 worker (< 2x) — FAILED\"")
    } else {
        format!("\"enforced: {speedup1:.2}x at 1 worker (contract: >= 2x)\"")
    };
    let multi_gate = if cores >= 4 {
        let at4 = rows
            .iter()
            .find(|r| r.threads == 4)
            .map(|r| r.batch_scn_per_sec / single.batch_scn_per_sec)
            .unwrap_or(0.0);
        // Texture only — short grids saturate before 4 workers; the hard
        // scaling gate lives in B7.
        format!("\"informational: {at4:.2}x batch throughput at 4 workers on {cores} cores\"")
    } else {
        format!(
            "\"skipped: {cores} core(s) available (< 4); multi-worker rows are oversubscribed\""
        )
    };
    println!("\ncores: {cores}; speedup gate: {speedup_gate}; multi-worker: {multi_gate}");

    // --- JSON record ----------------------------------------------------
    let identity = rows.iter().all(|r| r.identical);
    let mut json = format!(
        "{{\n  \"bench\": \"b10_sweep\",\n  \"cores\": {cores},\n  \"scenarios\": {},\n  \"batch_width\": {WIDTH},\n  \"bit_identical_to_sequential\": {identity},\n  \"speedup_gate\": {speedup_gate},\n  \"multi_worker\": {multi_gate},\n  \"throughput\": [\n",
        scenarios.len()
    );
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"map_scn_per_sec\": {:.1}, \"batch_scn_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n",
            row.threads,
            row.map_scn_per_sec,
            row.batch_scn_per_sec,
            row.batch_scn_per_sec / row.map_scn_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut csv = Table::new(&["threads", "map_scn_per_sec", "batch_scn_per_sec"]);
    for row in &rows {
        csv.push(vec![
            row.threads.to_string(),
            f(row.map_scn_per_sec, 1),
            f(row.batch_scn_per_sec, 1),
        ]);
    }
    let out = args.out_dir.join("b10_sweep.csv");
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    csv.write_csv(&out).expect("write CSV");
    println!("wrote {}", out.display());

    if let Some(baseline_path) = &args.baseline {
        // Regression-check mode: the committed record stays untouched and
        // the fresh 1-worker batch throughput must be within 30 % of it
        // (the probe grid is identical in quick mode, so the comparison
        // holds there too; 30 % absorbs container scheduling noise on the
        // short timed passes, mirroring B7).
        let text = report::read_baseline(baseline_path);
        let base = parse_pairs(&text, "\"threads\":", "\"batch_scn_per_sec\":");
        assert!(
            !base.is_empty(),
            "baseline {} contains no throughput rows",
            baseline_path.display()
        );
        if let Some(&(_, base_single)) = base.iter().find(|(t, _)| *t == 1.0) {
            let fresh = single.batch_scn_per_sec;
            if fresh < 0.7 * base_single {
                failures.push(format!(
                    "1-worker batched throughput regressed >30% ({fresh:.1} vs baseline \
                     {base_single:.1} scn/s)"
                ));
            } else {
                println!("baseline 1 worker: {fresh:.1} scn/s vs committed {base_single:.1} — ok");
            }
        }
    }
    report::emit_record(
        "b10_sweep",
        &json,
        &args.out_dir,
        args.quick,
        args.baseline.is_some(),
    );
    report::fail_if_any("B10", &failures);
}
