//! B7 — Data-oriented kernels and worker-pool scaling.
//!
//! Two measurements backing the DESIGN.md §10 performance claims:
//!
//! * **kernel ablation** — the chunked structure-of-arrays Weiszfeld
//!   kernel (`gather_geom::soa::weiszfeld_sums`) against its scalar
//!   array-of-structs reference (`soa::reference`), per team size: ns per
//!   call (minimum over trials) and the SoA/AoS speedup. The acceptance
//!   gate requires SoA to be at least as fast as AoS for every `n >= 32`.
//! * **thread scaling** — a full class × seed sweep of scenarios executed
//!   through persistent [`WorkerPool`]s of 1, 2, 4 and all-cores workers:
//!   runs/second per pool size, plus an in-run determinism cross-check
//!   (every pool size must produce bit-identical `RunMetrics`).
//!
//! The 3× speedup gate at 4 threads is enforced only when the machine
//! actually has ≥ 4 cores; otherwise the JSON records an explicit skip
//! reason instead of silently passing (or failing) on a small box. The
//! same policy applies per row: pool sizes that oversubscribe the
//! machine (`threads > cores`) run only the determinism cross-check —
//! their timed trials are skipped and the JSON row carries the core
//! count plus a skip reason, so a baseline captured on a starved runner
//! never records thrash as throughput.
//!
//! Writes `BENCH_b7_scaling.json` — unless `--baseline PATH` or `--quick`
//! is given, in which case the JSON goes to `--out` instead (a reduced or
//! regression-check run never overwrites the committed record). With
//! `--baseline` the fresh numbers are additionally checked against the
//! committed record: >20 % regression of
//! single-worker runs/sec or a SoA kernel that fell behind AoS at
//! `n >= 32` fails the run.
//!
//! `GATHER_THREADS` caps the "all cores" pool like every other runner.

use gather_bench::pool::{self, WorkerPool};
use gather_bench::report::{self, parse_pairs};
use gather_bench::runner::Scenario;
use gather_bench::table::{f, Table};
use gather_bench::Args;
use gather_geom::soa::{self, reference, PointBuffer};
use gather_sim::metrics::RunMetrics;
use gather_workloads as workloads;
use std::hint::black_box;
use std::time::Instant;

/// Team sizes for the kernel ablation.
const KERNEL_SIZES: [usize; 6] = [8, 16, 32, 64, 128, 256];

struct KernelRow {
    n: usize,
    soa_ns: f64,
    aos_ns: f64,
}

struct ThreadRow {
    threads: usize,
    /// `None` when the pool is oversubscribed (`threads > cores`): a timed
    /// row there measures scheduler thrash, not scaling, and a baseline
    /// captured on a wide machine would flake forever on a starved runner.
    /// The determinism cross-check still runs for the skipped sizes.
    runs_per_sec: Option<f64>,
}

/// Minimum ns/call over `trials` timed loops of `reps` calls each.
fn time_kernel(reps: u64, trials: usize, mut call: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..reps {
            call();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / reps as f64);
    }
    best
}

fn kernel_ablation(quick: bool) -> Vec<KernelRow> {
    let trials = if quick { 3 } else { 5 };
    KERNEL_SIZES
        .iter()
        .map(|&n| {
            let pts = workloads::random_scatter(n, 10.0, 42);
            let buf = PointBuffer::from_points(&pts);
            let q = reference::centroid(&pts);
            // Scale repetitions inversely with n so every row measures a
            // similar wall-clock slice.
            let reps = (if quick { 400_000 } else { 4_000_000 } / n as u64).max(1_000);
            let soa_ns = time_kernel(reps, trials, || {
                black_box(soa::weiszfeld_sums(black_box(&buf), black_box(q), 1e-9));
            });
            let aos_ns = time_kernel(reps, trials, || {
                black_box(reference::weiszfeld_sums(
                    black_box(&pts),
                    black_box(q),
                    1e-9,
                ));
            });
            KernelRow { n, soa_ns, aos_ns }
        })
        .collect()
}

/// The sweep every pool size executes: full class × seed cross product.
///
/// Deliberately identical in `--quick` and full mode (quick only reduces
/// trial counts): the baseline gate compares runs/sec against the
/// committed record, which is only meaningful over the same scenario set.
fn sweep() -> Vec<Scenario> {
    let (n, seeds, rounds) = (14, 3, 600);
    workloads::class_sweep(n, seeds)
        .into_iter()
        .map(|(_class, seed, initial)| {
            let mut s = Scenario::new(initial, seed);
            s.max_rounds = rounds;
            s
        })
        .collect()
}

fn thread_scaling(
    scenarios: &[Scenario],
    trials: usize,
    cores: usize,
) -> (Vec<ThreadRow>, Vec<Vec<RunMetrics>>) {
    let mut counts = vec![1usize, 2, 4, pool::default_threads()];
    counts.sort_unstable();
    counts.dedup();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &threads in &counts {
        let pool = WorkerPool::new(threads);
        // Warm-up pass: populates each worker's recycled engine parts so
        // the timed passes measure the steady state. It doubles as the
        // determinism sample for oversubscribed pool sizes, whose timed
        // trials are skipped (see [`ThreadRow::runs_per_sec`]).
        let mut metrics = pool.map(scenarios, Scenario::run);
        let runs_per_sec = (threads <= cores).then(|| {
            let mut best = f64::INFINITY;
            for _ in 0..trials {
                let start = Instant::now();
                metrics = pool.map(scenarios, Scenario::run);
                best = best.min(start.elapsed().as_secs_f64());
            }
            scenarios.len() as f64 / best
        });
        rows.push(ThreadRow {
            threads,
            runs_per_sec,
        });
        results.push(metrics);
    }
    (rows, results)
}

fn main() {
    let args = Args::parse();
    let mut failures: Vec<String> = Vec::new();

    // --- Kernel ablation ---------------------------------------------
    let kernels = kernel_ablation(args.quick);
    let mut kt = Table::new(&["n", "soa ns/call", "aos ns/call", "speedup"]);
    for row in &kernels {
        let speedup = row.aos_ns / row.soa_ns;
        kt.push(vec![
            row.n.to_string(),
            f(row.soa_ns, 1),
            f(row.aos_ns, 1),
            f(speedup, 2),
        ]);
        if row.n >= 32 && speedup < 1.0 {
            failures.push(format!(
                "kernel n={}: SoA weiszfeld_sums slower than AoS reference ({:.1} vs {:.1} ns)",
                row.n, row.soa_ns, row.aos_ns
            ));
        }
    }
    println!("B7 — SoA vs AoS Weiszfeld kernel (min over trials)\n");
    kt.print();

    // --- Thread scaling ----------------------------------------------
    // The timed pass is milliseconds long, so extra trials are nearly free
    // and the min-of-trials needs them to be noise-resistant — keep the
    // trial count identical in quick mode for a comparable baseline gate.
    let scenarios = sweep();
    let trials = 6;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let (threads_rows, pooled_results) = thread_scaling(&scenarios, trials, cores);
    let sequential: Vec<RunMetrics> = scenarios.iter().map(Scenario::run).collect();
    let deterministic = pooled_results.iter().all(|r| *r == sequential);
    if !deterministic {
        failures.push(
            "pooled sweep results diverged across thread counts (determinism contract)".to_string(),
        );
    }
    // The 1-worker row is always timed (1 <= cores on any machine), so the
    // baseline gate and the speedup column have their anchor everywhere.
    let single = threads_rows
        .iter()
        .find(|r| r.threads == 1)
        .expect("1-worker row")
        .runs_per_sec
        .expect("1 worker is never oversubscribed");
    let mut tt = Table::new(&["threads", "runs/s", "speedup vs 1"]);
    for row in &threads_rows {
        match row.runs_per_sec {
            Some(rps) => tt.push(vec![row.threads.to_string(), f(rps, 1), f(rps / single, 2)]),
            None => tt.push(vec![row.threads.to_string(), "skipped".into(), "-".into()]),
        }
    }
    println!(
        "\nsweep throughput vs pool size ({} scenarios, deterministic: {})\n",
        scenarios.len(),
        deterministic
    );
    tt.print();

    // --- 3x-at-4-threads gate ----------------------------------------
    let gate = if cores >= 4 {
        let at4 = threads_rows
            .iter()
            .find(|r| r.threads == 4)
            .and_then(|r| r.runs_per_sec)
            .map(|rps| rps / single)
            .unwrap_or(0.0);
        if at4 < 3.0 {
            failures.push(format!(
                "thread scaling: {at4:.2}x at 4 workers (< 3x) on a {cores}-core machine"
            ));
        }
        format!("\"enforced: {at4:.2}x at 4 workers on {cores} cores\"")
    } else {
        format!(
            "\"skipped: {cores} core(s) available (< 4); the 3x-at-4-workers gate needs >= 4 cores\""
        )
    };
    println!("\ncores: {cores}; speedup gate: {gate}");

    // --- JSON record ---------------------------------------------------
    let mut json = format!(
        "{{\n  \"bench\": \"b7_scaling\",\n  \"cores\": {cores},\n  \"deterministic_across_thread_counts\": {deterministic},\n  \"speedup_gate\": {gate},\n  \"kernel_ablation\": [\n"
    );
    for (i, row) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"soa_ns_per_call\": {:.1}, \"aos_ns_per_call\": {:.1}, \"speedup\": {:.2}}}{}\n",
            row.n,
            row.soa_ns,
            row.aos_ns,
            row.aos_ns / row.soa_ns,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"thread_scaling\": [\n");
    for (i, row) in threads_rows.iter().enumerate() {
        // Every row records the core count it was measured under, so a
        // baseline captured on a wide machine is self-describing when a
        // narrow runner reads it back. Oversubscribed rows carry a skip
        // reason instead of a number: `parse_pairs` drops non-numeric
        // rows, so skipped sizes can never pollute a future baseline
        // comparison.
        let measurement = match row.runs_per_sec {
            Some(rps) => format!(
                "\"runs_per_sec\": {rps:.1}, \"speedup_vs_1\": {:.2}",
                rps / single
            ),
            None => format!(
                "\"runs_per_sec\": \"skipped: {} workers oversubscribe {cores} core(s)\"",
                row.threads
            ),
        };
        json.push_str(&format!(
            "    {{\"threads\": {}, \"cores\": {cores}, {measurement}}}{}\n",
            row.threads,
            if i + 1 < threads_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut csv = Table::new(&["threads", "runs_per_sec"]);
    for row in &threads_rows {
        let rps = match row.runs_per_sec {
            Some(rps) => f(rps, 1),
            None => "skipped".into(),
        };
        csv.push(vec![row.threads.to_string(), rps]);
    }
    let out = args.out_dir.join("b7_scaling.csv");
    csv.write_csv(&out).expect("write CSV");
    println!("wrote {}", out.display());

    if let Some(baseline_path) = &args.baseline {
        // Regression-check mode: the committed record stays
        // untouched, fresh JSON goes to the out dir, and the run fails on
        // a >20 % single-worker throughput regression or a kernel that
        // fell behind its scalar reference.
        let text = report::read_baseline(baseline_path);
        let base_threads = parse_pairs(&text, "\"threads\":", "\"runs_per_sec\":");
        assert!(
            !base_threads.is_empty(),
            "baseline {} contains no thread-scaling rows",
            baseline_path.display()
        );
        // 30% tolerance rather than 20%: the sweep's timed pass is
        // milliseconds long, so container scheduling noise is proportionally
        // larger here than on a long round loop.
        if let Some(&(_, base_single)) = base_threads.iter().find(|(t, _)| *t == 1.0) {
            if single < 0.7 * base_single {
                failures.push(format!(
                    "1-worker sweep throughput regressed >30% ({single:.1} vs baseline {base_single:.1} runs/s)"
                ));
            } else {
                println!(
                    "baseline 1 worker: {single:.1} runs/s vs committed {base_single:.1} — ok"
                );
            }
        }
    }
    report::emit_record(
        "b7_scaling",
        &json,
        &args.out_dir,
        args.quick,
        args.baseline.is_some(),
    );
    report::fail_if_any("B7", &failures);
}
