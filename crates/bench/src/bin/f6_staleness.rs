//! F6 — Beyond ATOM: stale observations (toward the ASYNC model).
//!
//! The paper's guarantees hold in the semi-synchronous ATOM model, where
//! LOOK, COMPUTE and MOVE are atomic; the asynchronous model — where a
//! robot may move based on an arbitrarily old snapshot — is explicitly out
//! of scope. This experiment interpolates on the event-heap
//! [`AsyncEngine`]: every robot Looks in lockstep, Computes for `delay`
//! simulated seconds on the snapshot it took, then travels at unit speed
//! while a non-rigid adversary may stop it mid-flight (never before `δ`
//! progress). The snapshot a move is based on is therefore at least
//! `delay` seconds old when the move starts. `delay = 0` already
//! leaves ATOM (moves take time and are observed mid-flight); growing
//! delays measure how much of the algorithm's correctness is
//! ATOM-specific.
//!
//! Expected shape: 100% at every delay. WAIT-FREE-GATHER's destinations
//! are *invariants* of the evolving configuration (the Weber point, the
//! max-multiplicity point, the elected safe point), so a stale snapshot
//! usually yields the same target as a fresh one; only class-transition
//! moments are observed late. The table reports gathered fractions and
//! ticks (event batches) to gathering — empirical support for extending
//! the result toward ASYNC (the paper's open model), where the same
//! invariance is the standard proof tool.

use gather_bench::runner::{mean, parallel_map};
use gather_bench::table::{f, pct, Table};
use gather_bench::Args;
use gather_config::Class;
use gather_sim::prelude::*;
use gather_workloads as workloads;
use gathering::WaitFreeGather;

fn main() {
    let args = Args::parse();
    let delays: &[u64] = if args.quick {
        &[0, 4]
    } else {
        &[0, 1, 2, 4, 8, 16]
    };
    let classes = [Class::Multiple, Class::QuasiRegular, Class::Asymmetric];
    let n = 8usize;

    let mut jobs = Vec::new();
    for &class in &classes {
        for &delay in delays {
            for seed in 0..args.trials as u64 {
                jobs.push((class, delay, seed));
            }
        }
    }
    let outcomes = parallel_map(jobs, |&(class, delay, seed)| {
        let pts = workloads::of_class(class, n, seed);
        let mut engine = AsyncEngine::builder(pts)
            .algorithm(WaitFreeGather::default())
            .timing(Timing::Phased {
                compute_time: delay as f64,
                speed: 1.0,
            })
            .pacing(Pacing::Lockstep)
            .rigidity(Rigidity::NonRigid {
                stop_prob: 0.4,
                seed: seed + 1,
            })
            .crash_plan(RandomCrashes::new(2, 0.05, seed + 2))
            .check_invariants(false)
            .build();
        let outcome = engine.run(30_000);
        let metrics = gather_sim::metrics::summarize(outcome, engine.trace());
        (outcome, metrics.weiszfeld_per_round())
    });

    let mut table = Table::new(&[
        "class",
        "delay",
        "trials",
        "gathered",
        "ticks(mean)",
        "weiszfeld/tick",
    ]);
    let mut idx = 0;
    for &class in &classes {
        for &delay in delays {
            let cell: Vec<_> = (0..args.trials).map(|k| &outcomes[idx + k]).collect();
            idx += args.trials;
            let ok = cell.iter().filter(|(o, _)| o.gathered()).count();
            let rounds: Vec<f64> = cell
                .iter()
                .filter(|(o, _)| o.gathered())
                .map(|(o, _)| o.rounds() as f64)
                .collect();
            // Solver cost per tick: how much Weiszfeld work the warm-started
            // pipeline spends as staleness grows (class QR is the only
            // initial class whose rounds exercise the numeric solver).
            let weiszfeld: Vec<f64> = cell.iter().map(|(_, w)| *w).collect();
            table.push(vec![
                class.short_name().into(),
                delay.to_string(),
                args.trials.to_string(),
                pct(ok, args.trials),
                f(mean(&rounds), 1),
                f(mean(&weiszfeld), 2),
            ]);
        }
    }

    println!("F6 — stale observations: Compute takes `delay` seconds on the Looked snapshot\n");
    table.print();
    println!(
        "\nAsyncEngine, lockstep Looks, unit speed, non-rigid stops (p = 0.4): \
         even delay 0 leaves ATOM (moves are observed mid-flight); positive \
         delays step further toward ASYNC, which the paper leaves open."
    );
    let out = args.out_dir.join("f6_staleness.csv");
    table.write_csv(&out).expect("write CSV");
    println!("wrote {}", out.display());
}
