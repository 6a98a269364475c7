//! B11 — large-`n` round throughput: incremental dirty-tracked analysis
//! against the full-recompute reference.
//!
//! The incremental engine path (`EngineBuilder::incremental`) maintains the
//! canonical configuration, the distinct-location multiset and the shared
//! round analysis by patching only the robots that moved, instead of
//! re-sorting and re-classifying all `n` robots every round. This bench
//! measures what that buys on the workload the optimisation targets: a
//! large class-`M` configuration under the sequential scheduler, where one
//! robot moves per round and the dirty set has size 1 while the reference
//! path still pays `O(n log n)` per round.
//!
//! Per team size the bench reports ns/robot/round and rounds/second for
//! both modes, the incremental/full speedup, and — for every row where the
//! reference ran — an in-run bit-identity check: final positions and the
//! cache's `computed`/`hits` counters must match exactly (the contract of
//! `tests/incremental_analysis.rs`, re-verified here at scale). Full
//! recompute is capped at `n <= 16384`; larger rows record an explicit
//! skip reason instead of an hour-long reference run.
//!
//! Gates (always enforced, they compare the two modes against each other
//! and are machine-independent):
//!
//! * bit-identity on every referenced row;
//! * incremental at least 3x the reference rounds/s on some `n >= 4096`
//!   row (the ISSUE acceptance bar).
//!
//! With `--baseline PATH` the fresh incremental rounds/s are additionally
//! regression-checked against the committed record — but only on machines
//! with >= 2 cores; a starved single-core runner records an explicit skip
//! reason instead of flaking (same policy as B7's thread-scaling gate).
//!
//! Writes `BENCH_b11_largen.json` — unless `--quick` or `--baseline` is
//! given, in which case the JSON goes to `--out` and the committed record
//! stays untouched.

use gather_bench::factory;
use gather_bench::report::{self, parse_pairs};
use gather_bench::table::{f, Table};
use gather_bench::Args;
use gather_geom::Point;
use gather_prng::Rng;
use gather_sim::prelude::*;
use std::time::Instant;

/// Stack size of the class-`M` workload. A power of two keeps every
/// intermediate centroid arithmetic bitwise-exact, so the identity check
/// never has to reason about rounding.
const STACK: usize = 4;

/// Largest `n` for which the full-recompute reference runs. Above this the
/// reference's per-round re-sort makes the row take minutes for no extra
/// information — the speedup trend is established well before.
const REFERENCE_CAP: usize = 16_384;

/// Untimed steps per fresh engine before the timed loop, so the timed
/// rounds measure the steady state (warm caches, first classification
/// done).
const WARMUP: u64 = 2;

/// Class-`M` at scale: a stack of [`STACK`] robots at an off-grid anchor
/// plus jittered-grid satellites, one per unit cell.
///
/// `workloads::multiple` rejection-samples a fixed 20x20 box with a 0.5
/// minimum separation, which caps out near a thousand satellites and never
/// terminates beyond that; this generator is `O(n)` at any `n`. Jitter
/// inside `(0.1, 0.9)` of each cell keeps satellites pairwise distinct by
/// construction, and the anchor sits outside the grid, so the stack is the
/// unique maximum multiplicity — class `M` by definition.
fn largen_multiple(n: usize, seed: u64) -> Vec<Point> {
    assert!(n > STACK, "need more robots than the stack");
    let mut rng = Rng::seed_from_u64(seed);
    let side = ((n - STACK) as f64).sqrt().ceil() as usize;
    let mut pts = vec![Point::new(-2.0, -3.0); STACK];
    'fill: for gy in 0..side {
        for gx in 0..side {
            if pts.len() == n {
                break 'fill;
            }
            pts.push(Point::new(
                gx as f64 + rng.random_range(0.1..0.9),
                gy as f64 + rng.random_range(0.1..0.9),
            ));
        }
    }
    pts
}

/// Builds the engine both modes share: the paper's algorithm under the
/// sequential scheduler and the `δ`-stingy motion adversary, audits off
/// (B9 showed they dominate round time and both modes would just measure
/// the audit), global frame so the snapshots carry no per-robot rotation
/// work.
fn build(initial: &[Point], incremental: bool) -> Engine {
    let n = initial.len();
    Engine::builder(initial.to_vec())
        .algorithm(factory::algorithm("wait-free-gather"))
        .scheduler(factory::scheduler("single", n, 11))
        .motion(factory::motion("delta", 12))
        .frames(FramePolicy::GlobalFrame)
        .delta(0.05)
        .check_invariants(false)
        .incremental(incremental)
        .build()
}

/// Timed rounds per team size: a similar wall-clock slice per row, floored
/// so even the biggest teams measure several full rounds.
fn rounds_for(n: usize) -> u64 {
    ((1 << 17) as u64 / n as u64).clamp(8, 128)
}

struct ModeResult {
    best_secs: f64,
    positions: Vec<Point>,
    computed: u64,
    hits: u64,
}

/// Min-over-trials timing of `rounds` engine steps in one mode, plus the
/// final positions and cache counters for the identity check. Every trial
/// drives a fresh engine over the same deterministic schedule, so the
/// positions are trial-invariant.
fn time_mode(initial: &[Point], incremental: bool, rounds: u64, trials: usize) -> ModeResult {
    let mut best = f64::INFINITY;
    let mut positions = Vec::new();
    let mut counters = (0u64, 0u64);
    for _ in 0..trials {
        let mut engine = build(initial, incremental);
        for _ in 0..WARMUP {
            engine.step();
        }
        let start = Instant::now();
        for _ in 0..rounds {
            engine.step();
        }
        best = best.min(start.elapsed().as_secs_f64());
        positions = engine.positions().to_vec();
        let (computed, hits, _dirty_skips) = engine.analysis_cache_stats();
        counters = (computed, hits);
    }
    ModeResult {
        best_secs: best,
        positions,
        computed: counters.0,
        hits: counters.1,
    }
}

struct Row {
    n: usize,
    rounds: u64,
    inc_ns: f64,
    inc_rps: f64,
    /// `(full ns/robot/round, full rounds/s, bit-identical)` when the
    /// reference ran for this row.
    full: Option<(f64, f64, bool)>,
}

fn main() {
    let args = Args::parse();
    let mut failures: Vec<String> = Vec::new();

    let sizes: &[usize] = if args.quick {
        &[1024, 4096]
    } else {
        &[1024, 4096, 16_384, 65_536, 100_000]
    };
    let trials = if args.quick { 2 } else { 3 };

    let mut rows = Vec::new();
    for &n in sizes {
        let initial = largen_multiple(n, n as u64);
        let rounds = rounds_for(n);
        let inc = time_mode(&initial, true, rounds, trials);
        let per = |r: &ModeResult| {
            (
                r.best_secs * 1e9 / (rounds as f64 * n as f64),
                rounds as f64 / r.best_secs,
            )
        };
        let (inc_ns, inc_rps) = per(&inc);
        let full = (n <= REFERENCE_CAP).then(|| {
            let full = time_mode(&initial, false, rounds, trials);
            let identical = full.positions == inc.positions
                && full.computed == inc.computed
                && full.hits == inc.hits;
            if !identical {
                failures.push(format!(
                    "n={n}: incremental diverged from full recompute \
                     (positions equal: {}, computed {} vs {}, hits {} vs {})",
                    full.positions == inc.positions,
                    inc.computed,
                    full.computed,
                    inc.hits,
                    full.hits
                ));
            }
            let (full_ns, full_rps) = per(&full);
            (full_ns, full_rps, identical)
        });
        rows.push(Row {
            n,
            rounds,
            inc_ns,
            inc_rps,
            full,
        });
    }

    // --- Table ---------------------------------------------------------
    let mut t = Table::new(&[
        "n",
        "rounds",
        "inc ns/robot/round",
        "inc rounds/s",
        "full rounds/s",
        "speedup",
        "identical",
    ]);
    for row in &rows {
        let (full_rps, speedup, identical) = match row.full {
            Some((_, rps, id)) => (f(rps, 2), f(row.inc_rps / rps, 2), id.to_string()),
            None => ("skipped".into(), "-".into(), "-".into()),
        };
        t.push(vec![
            row.n.to_string(),
            row.rounds.to_string(),
            f(row.inc_ns, 1),
            f(row.inc_rps, 2),
            full_rps,
            speedup,
            identical,
        ]);
    }
    println!("B11 — incremental vs full-recompute analysis at large n\n");
    t.print();

    // --- 3x-speedup gate (machine-independent: same box, same rounds) --
    let best_gain = rows
        .iter()
        .filter(|r| r.n >= 4096)
        .filter_map(|r| r.full.map(|(_, rps, _)| r.inc_rps / rps))
        .fold(0.0_f64, f64::max);
    if best_gain < 3.0 {
        failures.push(format!(
            "incremental speedup {best_gain:.2}x at n >= 4096 (< 3x acceptance bar)"
        ));
    }
    println!("\nbest incremental speedup at n >= 4096: {best_gain:.2}x");

    // --- JSON record ---------------------------------------------------
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json = format!(
        "{{\n  \"bench\": \"b11_largen\",\n  \"cores\": {cores},\n  \"best_speedup_at_4096_plus\": {best_gain:.2},\n  \"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let full_cols = match row.full {
            Some((ns, rps, identical)) => format!(
                "\"full_ns_per_robot_round\": {ns:.1}, \"full_rounds_per_sec\": {rps:.2}, \
                 \"speedup\": {:.2}, \"identical\": {identical}",
                row.inc_rps / rps
            ),
            None => format!(
                "\"full_rounds_per_sec\": \"skipped: full-recompute reference capped at n <= {REFERENCE_CAP}\""
            ),
        };
        json.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"inc_ns_per_robot_round\": {:.1}, \"inc_rounds_per_sec\": {:.2}, {}}}{}\n",
            row.n,
            row.rounds,
            row.inc_ns,
            row.inc_rps,
            full_cols,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut csv = Table::new(&["n", "inc_rounds_per_sec", "full_rounds_per_sec", "speedup"]);
    for row in &rows {
        let (full_rps, speedup) = match row.full {
            Some((_, rps, _)) => (f(rps, 2), f(row.inc_rps / rps, 2)),
            None => ("".into(), "".into()),
        };
        csv.push(vec![
            row.n.to_string(),
            f(row.inc_rps, 2),
            full_rps,
            speedup,
        ]);
    }
    let out = args.out_dir.join("b11_largen.csv");
    csv.write_csv(&out).expect("write CSV");
    println!("wrote {}", out.display());

    if let Some(baseline_path) = &args.baseline {
        // Absolute-throughput regression gate against the committed
        // record. Wall-clock rounds/s on a starved or single-core runner
        // is noise, not signal — record why the gate was skipped instead
        // of silently passing (B7's cores policy).
        if cores < 2 {
            println!(
                "baseline gate skipped: {cores} core(s) available (< 2); \
                 absolute rounds/s on a starved runner is not comparable"
            );
        } else {
            let text = report::read_baseline(baseline_path);
            let base = parse_pairs(&text, "\"n\":", "\"inc_rounds_per_sec\":");
            assert!(
                !base.is_empty(),
                "baseline {} contains no rows",
                baseline_path.display()
            );
            for row in &rows {
                if let Some(&(_, base_rps)) = base.iter().find(|(bn, _)| *bn == row.n as f64) {
                    if row.inc_rps < 0.7 * base_rps {
                        failures.push(format!(
                            "n={}: incremental rounds/s regressed >30% \
                             ({:.2} vs baseline {base_rps:.2})",
                            row.n, row.inc_rps
                        ));
                    } else {
                        println!(
                            "baseline n={}: {:.2} rounds/s vs committed {base_rps:.2} — ok",
                            row.n, row.inc_rps
                        );
                    }
                }
            }
        }
    }
    report::emit_record(
        "b11_largen",
        &json,
        &args.out_dir,
        args.quick,
        args.baseline.is_some(),
    );
    report::fail_if_any("B11", &failures);
}
