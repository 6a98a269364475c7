//! The ASYNC degeneracy contract, end to end: with zero phase durations
//! (atomic LCM cycles), lockstep pacing, every robot activated and rigid
//! motion, the event-heap engine **is** the FSYNC round engine on its
//! full-recompute reference path — same `RunOutcome`, same positions,
//! same per-round trace bytes, same analysis-cache counters but the
//! `dirty_skips` only the incremental path counts — for every
//! configuration class and under crashes. And away from the degenerate
//! corner, an ASYNC run is a pure function of its seed: the same spec
//! yields byte-identical NDJSON regardless of how many pool workers
//! execute around it.

use gather_bench::pool::WorkerPool;
use gather_bench::runner::Scenario;
use gather_bench::sweep::run_batched_on;
use gather_config::Class;
use gather_geom::Point;
use gather_sim::prelude::*;
use gather_workloads::of_class;
use gathering::WaitFreeGather;

/// Builds the FSYNC and degenerate-ASYNC twins of one scenario: same
/// algorithm, same derived seeds, same crash plan, same frame policy. The
/// FSYNC twin runs the full-recompute reference, so the gate pins the
/// async engine's incremental path to the oracle.
fn twins(initial: Vec<Point>, seed: u64, faults: usize) -> (Engine, AsyncEngine) {
    let n = initial.len();
    let sync = Engine::builder(initial.clone())
        .algorithm(WaitFreeGather::default())
        .crash_plan(RandomCrashes::new(faults, 0.05, seed.wrapping_add(2)))
        .frames(FramePolicy::RandomPerActivation {
            seed: seed.wrapping_add(3),
        })
        .check_invariants(true)
        .incremental(false)
        .build();
    let async_eng = AsyncEngine::builder(initial)
        .algorithm(WaitFreeGather::default())
        .crash_plan(RandomCrashes::new(
            faults.min(n - 1),
            0.05,
            seed.wrapping_add(2),
        ))
        .frames(FramePolicy::RandomPerActivation {
            seed: seed.wrapping_add(3),
        })
        .check_invariants(true)
        .build();
    (sync, async_eng)
}

#[test]
fn degenerate_async_is_bit_identical_to_fsync_for_all_six_classes() {
    for class in Class::all() {
        for faults in [0usize, 2] {
            let initial = of_class(class, 8, 17);
            let (mut sync, mut async_eng) = twins(initial, 900, faults);
            let a = sync.run(4_000);
            let b = async_eng.run(4_000);
            let tag = format!("class {} faults {faults}", class.short_name());
            assert_eq!(a, b, "{tag}: outcomes diverged");
            assert_eq!(sync.positions(), async_eng.positions(), "{tag}: positions");
            assert_eq!(sync.alive(), async_eng.alive(), "{tag}: liveness");
            assert_eq!(
                sync.trace().to_jsonl(),
                async_eng.trace().to_jsonl(),
                "{tag}: trace bytes"
            );
            assert_eq!(
                sync.violations(),
                async_eng.violations(),
                "{tag}: audit verdicts"
            );
            let (computed, hits, dirty_skips) = sync.analysis_cache_stats();
            let (async_computed, async_hits, _) = async_eng.analysis_cache_stats();
            assert_eq!(dirty_skips, 0, "{tag}: the reference never dirty-skips");
            assert_eq!(
                (computed, hits),
                (async_computed, async_hits),
                "{tag}: cache counters"
            );
        }
    }
}

fn async_grid() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (ci, class) in [Class::Multiple, Class::Asymmetric, Class::QuasiRegular]
        .into_iter()
        .enumerate()
    {
        let initial = of_class(class, 8, 50 + ci as u64);
        for (rigid, skew) in [(true, 0.0), (false, 0.5)] {
            let mut s = Scenario::new(initial.clone(), 7_000 + ci as u64);
            s.scheduler = "async";
            s.audit = false;
            s.rigid = rigid;
            s.speed_skew = skew;
            s.faults = ci % 3;
            s.max_rounds = 60_000;
            scenarios.push(s);
        }
    }
    scenarios
}

#[test]
fn same_seed_async_ndjson_is_identical_across_pool_sizes() {
    let scenarios = async_grid();
    let render = |metrics: &[gather_sim::metrics::RunMetrics]| -> String {
        metrics
            .iter()
            .map(|m| format!("{}\n", m.to_jsonl()))
            .collect()
    };
    let sequential = render(&scenarios.iter().map(|s| s.run()).collect::<Vec<_>>());
    for threads in [1usize, 2, 8] {
        let pool = WorkerPool::new(threads);
        let batched = render(&run_batched_on(&pool, &scenarios, 4));
        assert_eq!(
            batched, sequential,
            "pool of {threads} changed the served bytes"
        );
    }
}

#[test]
fn same_seed_async_trace_bytes_are_reproducible() {
    for s in async_grid() {
        let (m1, t1) = s.run_traced();
        let (m2, t2) = s.run_traced();
        assert_eq!(m1, m2);
        assert_eq!(t1, t2, "trace bytes must be a pure function of the spec");
        assert!(!t1.is_empty());
    }
}

/// Runs `s` and checks its metrics line: the `dirty_skips` counter reads
/// `dirty_skips`, and with it masked to 0 the line is `reference`, the
/// line the full-recompute path produced for the same scenario (the
/// async engine ran that path before the incremental one became its
/// only one; `AsyncEngine`'s unit tests compare the two paths live).
fn assert_metrics_line(s: &Scenario, reference: &str, dirty_skips: u64) {
    let mut metrics = s.run();
    let stats = metrics
        .analysis_cache
        .as_mut()
        .expect("runs attach cache stats");
    assert_eq!(stats.dirty_skips, dirty_skips, "dirty skips");
    stats.dirty_skips = 0;
    assert_eq!(metrics.to_jsonl(), reference);
}

/// The slowest async-team scatter on record (n = 64, non-rigid, seed
/// 939120936): a robot near the Weber point passes the quasi-regularity
/// prefilter in most of its class-A configurations, so every class-A
/// Compute runs the full Lemma 3.4 test. The run is in class A for its
/// first 1,328 ticks; the cap stops it shortly after the switch to M.
/// The reference line was produced by the exhaustive election and
/// Lemma 3.4 test, before either stopped its searches early.
#[test]
fn slowest_async_team_scatter_keeps_its_metrics_line() {
    let seed = 939_120_936;
    let mut s = Scenario::new(gather_workloads::random_scatter(64, 10.0, seed), seed);
    s.scheduler = "async";
    s.audit = false;
    s.rigid = false;
    s.speed_skew = 0.5;
    s.max_rounds = 1_400;
    assert_metrics_line(
        &s,
        concat!(
            r#"{"gathered":false,"rounds":1400,"total_travel":46.872940898100445,"#,
            r#""class_rounds":{"M":72,"A":1328},"class_sequence":["A","M"],"#,
            r#""transitions":[["A","M",1]],"classifications":1976,"cache_hits":116,"#,
            r#""weiszfeld_iters":1887,"analysis_cache":{"computed":1285,"hits":116,"#,
            r#""dirty_skips":0},"async_events":1805}"#
        ),
        116,
    );
}

/// The n = 256 rigid async-team scatter 80896415 (async-team seed 1):
/// class A for 339 ticks, then class M, where the robots pile up on the
/// heavy point and every apply canonicalises ever larger stacks. The cap
/// stops it after 1,000 of the 6,132 ticks it takes to gather, with
/// three quarters of its travel done. The reference line was
/// produced by the pairwise canonicalisation scan, before the
/// sort-and-sweep replaced it.
#[test]
fn stacking_async_team_scatter_keeps_its_metrics_line() {
    let seed = 80_896_415;
    let mut s = Scenario::new(gather_workloads::random_scatter(256, 10.0, seed), seed);
    s.scheduler = "async";
    s.audit = false;
    s.rigid = true;
    s.speed_skew = 0.5;
    s.max_rounds = 1_000;
    assert_metrics_line(
        &s,
        concat!(
            r#"{"gathered":false,"rounds":1000,"total_travel":1528.3058979801592,"#,
            r#""class_rounds":{"M":661,"A":339},"class_sequence":["A","M"],"#,
            r#""transitions":[["A","M",1]],"classifications":1362,"cache_hits":55,"#,
            r#""weiszfeld_iters":11137,"analysis_cache":{"computed":946,"hits":55,"#,
            r#""dirty_skips":0},"async_events":1000}"#
        ),
        55,
    );
}
