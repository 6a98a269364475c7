//! B12 — event-heap ASYNC engine: correctness gates and throughput against
//! the round-based SSYNC path.
//!
//! Two machine-independent gates anchor the record (they compare the
//! engine against itself and against the round engine, never against the
//! clock):
//!
//! * **degeneracy** — with atomic LCM cycles, lockstep pacing and rigid
//!   motion the async engine must produce bit-identical traces to the
//!   FSYNC `Engine` on its full-recompute reference path for every
//!   configuration class (the contract of `tests/async_identity.rs`,
//!   re-verified here before any timing);
//! * **determinism** — the same phased/non-rigid/skewed spec must yield
//!   byte-identical summary JSONL on repeated runs.
//!
//! The sweep then measures, per team size, activations-to-gather for the
//! synchronous engine (rounds, all robots per round) and for the async
//! engine (ticks — event batches, typically one robot's phase each) plus
//! the async engine's event throughput (events/second, min-over-trials
//! wall clock). Rounds and ticks count *different* things — the point of
//! the columns is the ratio's scale (a tick is ~`1/n` of a round's work),
//! not a like-for-like race.
//!
//! With `--baseline PATH` the fresh events/s are regression-checked
//! against the committed record on machines with >= 2 cores; starved
//! runners record an explicit skip reason instead of flaking (B7/B11
//! cores policy).
//!
//! Writes `BENCH_b12_async.json` — unless `--quick` or `--baseline` is
//! given, in which case the JSON goes to `--out` and the committed record
//! stays untouched.

use gather_bench::report::{self, parse_pairs};
use gather_bench::table::{f, Table};
use gather_bench::Args;
use gather_config::Class;
use gather_geom::Point;
use gather_sim::prelude::*;
use gather_workloads::{of_class, random_scatter};
use gathering::WaitFreeGather;
use std::time::Instant;

/// Tick budget per async run: a tick is one event batch (usually a single
/// robot's phase), so the budget scales with team size.
fn tick_cap(n: usize) -> u64 {
    (n as u64) * 20_000
}

/// The degeneracy gate: for every class, the async engine in its
/// degenerate corner must *be* the round engine, byte for byte. The round
/// engine runs the full-recompute reference, so the gate also pins the
/// async engine's incremental path to the oracle.
fn degeneracy_gate(failures: &mut Vec<String>) {
    for class in Class::all() {
        let initial = of_class(class, 8, 23);
        let build_sync = || {
            Engine::builder(initial.clone())
                .algorithm(WaitFreeGather::default())
                .crash_plan(RandomCrashes::new(1, 0.05, 25))
                .frames(FramePolicy::RandomPerActivation { seed: 26 })
                .check_invariants(false)
                .incremental(false)
                .build()
        };
        let mut sync = build_sync();
        let mut async_eng = AsyncEngine::builder(initial.clone())
            .algorithm(WaitFreeGather::default())
            .crash_plan(RandomCrashes::new(1, 0.05, 25))
            .frames(FramePolicy::RandomPerActivation { seed: 26 })
            .check_invariants(false)
            .build();
        let a = sync.run(3_000);
        let b = async_eng.run(3_000);
        if a != b || sync.trace().to_jsonl() != async_eng.trace().to_jsonl() {
            failures.push(format!(
                "class {}: degenerate async diverged from the round engine \
                 (outcomes {a:?} vs {b:?})",
                class.short_name()
            ));
        }
    }
}

/// One async run: phased timing, exponential pacing, mild speed skew —
/// the regime the engine exists for.
fn build_async(initial: &[Point], seed: u64) -> AsyncEngine {
    AsyncEngine::builder(initial.to_vec())
        .algorithm(WaitFreeGather::default())
        .timing(Timing::Phased {
            compute_time: 0.25,
            speed: 1.0,
        })
        .pacing(Pacing::Exponential {
            rate: 1.0,
            seed: seed.wrapping_add(4),
        })
        .speed_skew(0.5, seed.wrapping_add(5))
        .frames(FramePolicy::RandomPerActivation {
            seed: seed.wrapping_add(3),
        })
        .check_invariants(false)
        .build()
}

/// The determinism gate: one full-knob run, repeated, must not move a bit.
fn determinism_gate(failures: &mut Vec<String>) {
    let initial = random_scatter(16, 10.0, 31);
    let run = || {
        let mut e = AsyncEngine::builder(initial.clone())
            .algorithm(WaitFreeGather::default())
            .timing(Timing::Phased {
                compute_time: 0.25,
                speed: 1.0,
            })
            .pacing(Pacing::Exponential {
                rate: 1.0,
                seed: 35,
            })
            .rigidity(Rigidity::NonRigid {
                stop_prob: 0.25,
                seed: 37,
            })
            .speed_skew(0.5, 36)
            .check_invariants(false)
            .build();
        let outcome = e.run(tick_cap(16));
        (outcome, e.trace().to_jsonl(), e.events_processed())
    };
    let first = run();
    let second = run();
    if first != second {
        failures.push(format!(
            "same-seed async runs diverged: {:?}/{} events vs {:?}/{} events",
            first.0, first.2, second.0, second.2
        ));
    }
}

struct Row {
    n: usize,
    sync_rounds: u64,
    sync_gathered: bool,
    async_ticks: u64,
    async_gathered: bool,
    events: u64,
    events_per_sec: f64,
}

fn measure(n: usize, trials: usize) -> Row {
    let initial = random_scatter(n, 10.0, n as u64);
    // SSYNC proper: random fair subsets per round, not every robot — the
    // regime whose rounds column the async ticks are compared against.
    let mut sync = Engine::builder(initial.clone())
        .algorithm(WaitFreeGather::default())
        .scheduler(gather_bench::factory::scheduler("random", n, 2))
        .frames(FramePolicy::RandomPerActivation { seed: 3 })
        .check_invariants(false)
        .build();
    let sync_outcome = sync.run(60_000);
    let mut best_secs = f64::INFINITY;
    let mut async_ticks = 0;
    let mut async_gathered = false;
    let mut events = 0;
    for _ in 0..trials {
        let mut e = build_async(&initial, 0);
        let start = Instant::now();
        let outcome = e.run(tick_cap(n));
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
        async_ticks = e.round();
        async_gathered = outcome.gathered();
        events = e.events_processed();
    }
    Row {
        n,
        sync_rounds: sync.round(),
        sync_gathered: sync_outcome.gathered(),
        async_ticks,
        async_gathered,
        events,
        events_per_sec: events as f64 / best_secs,
    }
}

fn main() {
    let args = Args::parse();
    let mut failures: Vec<String> = Vec::new();

    degeneracy_gate(&mut failures);
    determinism_gate(&mut failures);
    println!(
        "gates: degeneracy {}, determinism {}",
        if failures.iter().any(|f| f.contains("degenerate")) {
            "FAILED"
        } else {
            "ok"
        },
        if failures.iter().any(|f| f.contains("same-seed")) {
            "FAILED"
        } else {
            "ok"
        },
    );

    let sizes: &[usize] = if args.quick { &[8, 64] } else { &[8, 64, 512] };
    let trials = if args.quick { 2 } else { 3 };
    let rows: Vec<Row> = sizes.iter().map(|&n| measure(n, trials)).collect();

    let mut t = Table::new(&[
        "n",
        "sync rounds",
        "sync gathered",
        "async ticks",
        "async gathered",
        "events",
        "events/s",
    ]);
    for row in &rows {
        t.push(vec![
            row.n.to_string(),
            row.sync_rounds.to_string(),
            row.sync_gathered.to_string(),
            row.async_ticks.to_string(),
            row.async_gathered.to_string(),
            row.events.to_string(),
            f(row.events_per_sec, 0),
        ]);
    }
    println!("\nB12 — ASYNC event-heap engine vs SSYNC rounds\n");
    t.print();

    // Gathering itself is part of the record: every row must finish.
    for row in &rows {
        if !row.sync_gathered || !row.async_gathered {
            failures.push(format!(
                "n={}: run did not gather (sync {}, async {})",
                row.n, row.sync_gathered, row.async_gathered
            ));
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json =
        format!("{{\n  \"bench\": \"b12_async\",\n  \"cores\": {cores},\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"sync_rounds\": {}, \"async_ticks\": {}, \
             \"async_events\": {}, \"async_events_per_sec\": {:.0}}}{}\n",
            row.n,
            row.sync_rounds,
            row.async_ticks,
            row.events,
            row.events_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut csv = Table::new(&["n", "sync_rounds", "async_ticks", "async_events_per_sec"]);
    for row in &rows {
        csv.push(vec![
            row.n.to_string(),
            row.sync_rounds.to_string(),
            row.async_ticks.to_string(),
            f(row.events_per_sec, 0),
        ]);
    }
    let out = args.out_dir.join("b12_async.csv");
    csv.write_csv(&out).expect("write CSV");
    println!("wrote {}", out.display());

    if let Some(baseline_path) = &args.baseline {
        if cores < 2 {
            println!(
                "baseline gate skipped: {cores} core(s) available (< 2); \
                 absolute events/s on a starved runner is not comparable"
            );
        } else {
            let text = report::read_baseline(baseline_path);
            let base = parse_pairs(&text, "\"n\":", "\"async_events_per_sec\":");
            assert!(
                !base.is_empty(),
                "baseline {} contains no rows",
                baseline_path.display()
            );
            for row in &rows {
                if let Some(&(_, base_eps)) = base.iter().find(|(bn, _)| *bn == row.n as f64) {
                    if row.events_per_sec < 0.7 * base_eps {
                        failures.push(format!(
                            "n={}: async events/s regressed >30% \
                             ({:.0} vs baseline {base_eps:.0})",
                            row.n, row.events_per_sec
                        ));
                    } else {
                        println!(
                            "baseline n={}: {:.0} events/s vs committed {base_eps:.0} — ok",
                            row.n, row.events_per_sec
                        );
                    }
                }
            }
        }
    }
    report::emit_record(
        "b12_async",
        &json,
        &args.out_dir,
        args.quick,
        args.baseline.is_some(),
    );
    report::fail_if_any("B12", &failures);
}
