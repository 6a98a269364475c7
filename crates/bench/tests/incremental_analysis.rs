//! The incremental-analysis bit-identity contract: the incremental path
//! every engine driver runs — kept-order canonicalisation, patched
//! distinct multisets, dirty-skipped static rounds — must produce
//! byte-for-byte the same positions, `RunMetrics`, violations and outcome
//! as the full-recompute reference (`EngineBuilder::incremental(false)`),
//! for every configuration class, scheduler, motion floor and crash count.
//! Each case runs as a batch lane and is checked against a sequential
//! `Engine` built from the lane's spec on the reference path.
//!
//! The one allowed difference is the `dirty_skips` counter itself: it
//! reports how many memo hits the incremental path *proved* with an empty
//! dirty set, and is always zero on the reference path. Everything else —
//! including `computed` and `hits`, whose drift would be the first symptom
//! of the dirty set desynchronising from the cache memo — must match
//! exactly (same convention as `tests/batch_identity.rs`).

use gather_bench::runner::Scenario;
use gather_bench::sweep::lane_spec;
use gather_config::Class;
use gather_geom::Point;
use gather_sim::metrics::{summarize, CacheStats};
use gather_sim::prelude::*;
use gather_workloads as workloads;

/// Every configuration class of the paper's taxonomy, crossed with all
/// four schedulers, two motion floors, and crash counts {0, 3}, under the
/// stingy `random` motion adversary — the `tests/batch_identity.rs` grid.
/// Randomised move/crash/wait sequences fall out of the seeded `random`
/// scheduler + motion + crash plan combination.
fn all_class_grid(audit: bool) -> Vec<Scenario> {
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
                    s.audit = audit;
                    scenarios.push(s);
                }
            }
        }
    }
    scenarios
}

/// Runs one spec on a width-1 batch engine (the batch lane shares the
/// sequential engine's `StepCore` verbatim, and `LaneResult` carries
/// positions, metrics and violations in one comparable value).
fn run_lane(spec: LaneSpec) -> LaneResult {
    BatchEngine::new(1, EngineParts::default())
        .run(vec![spec])
        .pop()
        .expect("one spec, one result")
}

/// Runs one spec sequentially on the full-recompute reference path, with
/// the lane's cache counters attached the way a lane attaches them.
fn run_reference(s: LaneSpec) -> LaneResult {
    let mut e = Engine::builder(s.initial)
        .algorithm(s.algorithm)
        .scheduler(s.scheduler)
        .crash_plan(s.crash_plan)
        .motion(s.motion)
        .frames(s.frames)
        .tol(s.tol)
        .delta(s.delta)
        .check_invariants(s.check_invariants)
        .incremental(false)
        .build();
    let outcome = e.run(s.max_rounds);
    let mut metrics = summarize(outcome, e.trace());
    let (computed, hits, dirty_skips) = e.analysis_cache_stats();
    metrics.analysis_cache = Some(CacheStats {
        computed,
        hits,
        dirty_skips,
    });
    LaneResult {
        outcome,
        metrics,
        violations: e.violations().to_vec(),
        positions: e.positions().to_vec(),
        trace_jsonl: None,
    }
}

/// Masks the incremental-only `dirty_skips` counter so the two modes can
/// be compared for full equality.
fn masked(mut r: LaneResult) -> LaneResult {
    if let Some(cs) = r.metrics.analysis_cache.as_mut() {
        cs.dirty_skips = 0;
    }
    r
}

#[test]
fn incremental_matches_full_recompute_across_the_class_grid() {
    for audit in [true, false] {
        for (k, s) in all_class_grid(audit).iter().enumerate() {
            let reference = run_reference(lane_spec(s));
            let incremental = run_lane(lane_spec(s));
            let stats = incremental
                .metrics
                .analysis_cache
                .expect("lanes attach cache stats");
            let ref_stats = reference.metrics.analysis_cache.expect("stats");
            assert_eq!(ref_stats.dirty_skips, 0, "reference never dirty-skips");
            assert!(
                stats.dirty_skips <= stats.hits,
                "dirty skips are a subset of hits"
            );
            assert_eq!(
                masked(incremental),
                masked(reference),
                "scenario #{k} ({} / {} / audit={audit}) diverged",
                s.scheduler,
                s.faults,
            );
        }
    }
}

/// Never moves: every round is static, so the incremental path must serve
/// every round's shared analysis from the empty dirty set.
struct Stay;
impl Algorithm for Stay {
    fn name(&self) -> &'static str {
        "stay"
    }
    fn destination(&self, snap: &Snapshot) -> Point {
        snap.me()
    }
}

#[test]
fn all_static_rounds_dirty_skip_and_stay_identical() {
    let initial = workloads::random_scatter(12, 6.0, 5);
    let mk = || {
        let mut s = LaneSpec::new(initial.clone(), Box::new(Stay));
        s.check_invariants = false; // Stay violates wait-freeness by design
        s.max_rounds = 50;
        s
    };
    let reference = run_reference(mk());
    let incremental = run_lane(mk());
    let stats = incremental.metrics.analysis_cache.expect("stats");
    assert_eq!(
        stats.dirty_skips, 50,
        "every static round must be a dirty skip"
    );
    assert_eq!(masked(incremental), masked(reference));
}

#[test]
fn all_robots_moving_every_round_stay_identical() {
    // Full sync + full motion, audits off: every live robot moves every
    // round, so the shared analysis goes through the patch path (non-empty
    // dirty set) essentially always — the all-dirty edge of the contract.
    let mut s = Scenario::new(workloads::of_class(Class::Asymmetric, 10, 7), 7);
    s.max_rounds = 120;
    s.audit = false;
    let reference = run_reference(lane_spec(&s));
    let incremental = run_lane(lane_spec(&s));
    let stats = incremental.metrics.analysis_cache.expect("stats");
    assert!(
        stats.computed > incremental.metrics.rounds / 2,
        "moving rounds must take the patch path (computed {} over {} rounds)",
        stats.computed,
        incremental.metrics.rounds,
    );
    assert_eq!(masked(incremental), masked(reference));
}
