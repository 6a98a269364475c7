//! Lockstep batch execution: many scenarios advanced round by round, each
//! lane an [`Engine`].
//!
//! A parameter-space sweep runs thousands of *short* simulations — the T1
//! grid gathers in a handful of rounds — so the one-`Engine`-per-scenario
//! worker pool pays its per-scenario fixed costs (scratch arena, cold
//! first classification, unbounded trace growth, per-item pool handoff)
//! once per grid cell, and those costs rival the simulated rounds
//! themselves. [`BatchEngine`] amortises them: one scratch arena per
//! worker (recycled through the existing [`EngineParts`] contract) is lent
//! to whichever lane is stepping, analysis caches and traces recycle
//! across lane generations, and an admission memo shares the cold initial
//! classification across grid cells that start from the same
//! configuration.
//!
//! The hard contract is **bit-identity**: every lane produces exactly the
//! [`RunMetrics`], violations and final positions of a sequential
//! [`Engine`] run of the same spec. This holds by construction: a lane is
//! built by the builder's own admission path and steps through
//! `Engine::step_in`, the one round stage sequence.

use crate::algorithm::Algorithm;
use crate::crash::{CrashPlan, NoCrashes};
use crate::engine::{Engine, EngineBuilder, EngineParts, RunOutcome, Scratch};
use crate::frames::FramePolicy;
use crate::metrics::{summarize, CacheStats, RunMetrics};
use crate::motion::{FullMotion, MotionAdversary};
use crate::scheduler::{EveryRobot, Scheduler};
use crate::trace::Trace;
use gather_config::RoundAnalysis;
use gather_geom::{Point, Tol};

/// One scenario for lockstep execution: the subset of the
/// [`EngineBuilder`] surface that batch lanes support, as plain data.
/// Defaults mirror the builder's exactly; [`BatchEngine`] maps a spec onto
/// a builder to admit it.
///
/// Deliberately absent: byzantine robots, position logs and
/// observability handles — the sweep workloads that justify lockstep
/// execution use none of them. Scenarios needing those run on the
/// sequential engine; stale observations are the event-heap
/// [`AsyncEngine`](crate::async_engine::AsyncEngine)'s domain. Nor is
/// the builder's `incremental` switch here: every lane runs the
/// incremental analysis, and the full-recompute reference is built with
/// [`EngineBuilder`].
pub struct LaneSpec {
    /// Initial robot positions (canonicalised on admission, exactly as the
    /// builder does).
    pub initial: Vec<Point>,
    /// The algorithm every robot runs.
    pub algorithm: Box<dyn Algorithm>,
    /// Activation scheduler (default [`EveryRobot`]).
    pub scheduler: Box<dyn Scheduler>,
    /// Crash plan (default [`NoCrashes`]).
    pub crash_plan: Box<dyn CrashPlan>,
    /// Motion adversary (default [`FullMotion`]).
    pub motion: Box<dyn MotionAdversary>,
    /// Local-frame policy (default random frame per activation).
    pub frames: FramePolicy,
    /// Tolerance policy.
    pub tol: Tol,
    /// Minimum movement step `δ` (must be positive).
    pub delta: f64,
    /// Run the per-round invariant audits (default on).
    pub check_invariants: bool,
    /// Round limit: the lane retires `RoundLimit` when it steps this many
    /// rounds without gathering (default 10 000).
    pub max_rounds: u64,
    /// Retain the full per-round trace and return it as NDJSON on the
    /// lane's [`LaneResult::trace_jsonl`] (default off: aggregates only,
    /// capacity-1 ring). Tracing never perturbs the simulation — a traced
    /// lane's metrics, outcome and positions are bit-identical to its
    /// untraced twin's.
    pub traced: bool,
}

impl LaneSpec {
    /// A spec with the engine builder's defaults: every robot activated,
    /// no crashes, full motion, random frames, default tolerances,
    /// `δ = 0.01`, audits on.
    pub fn new(initial: Vec<Point>, algorithm: Box<dyn Algorithm>) -> Self {
        LaneSpec {
            initial,
            algorithm,
            scheduler: Box::new(EveryRobot),
            crash_plan: Box::new(NoCrashes),
            motion: Box::new(FullMotion),
            frames: FramePolicy::default(),
            tol: Tol::default(),
            delta: 0.01,
            check_invariants: true,
            max_rounds: 10_000,
            traced: false,
        }
    }
}

/// What one lane produced: bit-identical to what
/// [`crate::engine::Engine::run`] plus [`summarize`] on the same spec
/// yields.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The summarised metrics (aggregates cover every round).
    pub metrics: RunMetrics,
    /// Invariant-audit violations (empty in a correct run).
    pub violations: Vec<String>,
    /// Final canonical positions, indexed by robot.
    pub positions: Vec<Point>,
    /// The full per-round NDJSON trace ([`Trace::to_jsonl`]) when the
    /// spec asked for it ([`LaneSpec::traced`]); `None` otherwise.
    pub trace_jsonl: Option<String>,
}

/// A live lane: one scenario's engine (stepping in the batch's arena) and
/// what the batch needs to retire it.
struct Lane {
    engine: Engine,
    /// Position of this lane's spec in the input order.
    index: usize,
    max_rounds: u64,
    /// Serialise the retained records into [`LaneResult::trace_jsonl`] on
    /// retirement.
    traced: bool,
}

/// Advances a batch of scenarios in lockstep, one [`Engine`] per lane;
/// see the module docs for the design and the bit-identity contract.
///
/// # Example
///
/// ```
/// use gather_sim::prelude::*;
/// use gather_geom::Point;
///
/// struct GoToCentroid;
/// impl Algorithm for GoToCentroid {
///     fn name(&self) -> &'static str { "centroid" }
///     fn destination(&self, snap: &Snapshot) -> Point {
///         gather_geom::centroid(snap.config().points())
///     }
/// }
///
/// let spec = |dx: f64| {
///     let mut s = LaneSpec::new(
///         vec![Point::new(dx, 0.0), Point::new(dx + 2.0, 0.0), Point::new(dx + 1.0, 2.0)],
///         Box::new(GoToCentroid),
///     );
///     s.check_invariants = false;
///     s
/// };
/// let mut batch = BatchEngine::new(2, EngineParts::default());
/// let results = batch.run(vec![spec(0.0), spec(5.0), spec(10.0)]);
/// assert_eq!(results.len(), 3);
/// assert!(results.iter().all(|r| r.outcome.gathered()));
/// ```
pub struct BatchEngine {
    width: usize,
    /// The one scratch arena lent to every lane's rounds.
    scratch: Scratch,
    /// Retired lanes' analysis caches and kept canonical orders (their
    /// scratch stays empty), reset-recycled into new lanes.
    spare_parts: Vec<EngineParts>,
    /// Retired lanes' traces, reset-recycled into new lanes.
    spare_traces: Vec<Trace>,
    lanes: Vec<Lane>,
    /// Admission memo `(points, tol, analysis)`: consecutive specs that
    /// start from the same canonical configuration (a sweep crossing
    /// schedulers × δ × faults over one workload) share the cold initial
    /// classification.
    memo: Option<(Vec<Point>, Tol, RoundAnalysis)>,
}

impl BatchEngine {
    /// A batch engine advancing up to `width` scenarios in lockstep,
    /// working out of the recycled `parts` (the per-worker arena
    /// contract: pass [`EngineParts::default`] for a cold start, or a
    /// retired engine's parts to keep its warm buffers).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize, mut parts: EngineParts) -> Self {
        assert!(width > 0, "BatchEngine width must be positive");
        BatchEngine {
            width,
            scratch: std::mem::take(&mut parts.scratch),
            spare_parts: vec![parts],
            spare_traces: Vec::new(),
            lanes: Vec::new(),
            memo: None,
        }
    }

    /// The batch width (maximum number of concurrently live lanes).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Retires the batch engine and hands back a reusable arena for the
    /// next engine (sequential or batch) to recycle.
    pub fn into_parts(mut self) -> EngineParts {
        let mut parts = self.spare_parts.pop().unwrap_or_default();
        parts.scratch = self.scratch;
        parts
    }

    /// Runs every spec to completion and returns their results in input
    /// order. Lanes are admitted up to the batch width, advanced in
    /// lockstep (one round per pass), and retired-and-replaced as they
    /// finish so the batch stays dense.
    ///
    /// # Panics
    ///
    /// Panics if a spec has an empty initial configuration or a
    /// non-positive `delta` (the builder's contract).
    pub fn run(&mut self, specs: Vec<LaneSpec>) -> Vec<LaneResult> {
        let mut results: Vec<Option<LaneResult>> = Vec::with_capacity(specs.len());
        results.resize_with(specs.len(), || None);
        let mut pending = specs.into_iter().enumerate();
        for (index, spec) in pending.by_ref().take(self.width) {
            self.admit(index, spec);
        }
        while !self.lanes.is_empty() {
            let mut i = 0;
            while i < self.lanes.len() {
                let lane = &mut self.lanes[i];
                // The engine run loop's termination check, then one round.
                let Some(outcome) = lane.engine.outcome(lane.max_rounds, &mut self.scratch) else {
                    lane.engine.step_in(&mut self.scratch);
                    i += 1;
                    continue;
                };
                let lane = self.lanes.swap_remove(i);
                let index = lane.index;
                results[index] = Some(self.retire(lane, outcome));
                if let Some((index, spec)) = pending.next() {
                    self.admit(index, spec);
                }
                // Do not advance: swap_remove moved another lane into `i`
                // (and a freshly admitted lane sits at the end); both get
                // their round this pass.
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every admitted lane retires"))
            .collect()
    }

    /// Admits one spec as a lane: the builder's own admission path, with
    /// recycled parts, a recycled trace and the admission memo's analysis.
    fn admit(&mut self, index: usize, spec: LaneSpec) {
        let mut builder = EngineBuilder {
            algorithm: Some(spec.algorithm),
            scheduler: spec.scheduler,
            crash_plan: spec.crash_plan,
            motion: spec.motion,
            frames: spec.frames,
            tol: spec.tol,
            check_invariants: spec.check_invariants,
            trace_capacity: (!spec.traced).then_some(1),
            recycled: self.spare_parts.pop(),
            ..Engine::builder(spec.initial)
        }
        .delta(spec.delta);
        let positions = builder.canonical_initial();
        let analysis = match &self.memo {
            Some((pts, tol, ra)) if *tol == spec.tol && *pts == positions => *ra,
            _ => {
                self.scratch.config.copy_from_slice(&positions);
                let ra = RoundAnalysis::compute(&self.scratch.config, spec.tol);
                self.memo = Some((positions.clone(), spec.tol, ra));
                ra
            }
        };
        // Trace recycling across lane generations: `reset` here clears
        // records, aggregates and the dropped counter while keeping the
        // buffers; the builder *then* re-bounds the capacity for this lane.
        // The order matters — `set_capacity` evicts and counts
        // over-capacity records, so binding before resetting would let a
        // retired traced lane's rounds bleed into the next lane's
        // `dropped()` accounting (pinned by `Trace::reset`'s tests and the
        // interleaving regression test below).
        let mut trace = self.spare_traces.pop().unwrap_or_default();
        trace.reset();
        self.lanes.push(Lane {
            engine: builder.build_canonical(positions, Some(analysis), trace),
            index,
            max_rounds: spec.max_rounds,
            traced: spec.traced,
        });
    }

    /// Summarises a finished lane and recycles its parts and trace.
    fn retire(&mut self, lane: Lane, outcome: RunOutcome) -> LaneResult {
        let mut engine = lane.engine;
        let mut metrics = summarize(outcome, &engine.trace);
        let (computed, hits, dirty_skips) = engine.analysis_cache_stats();
        metrics.analysis_cache = Some(CacheStats {
            computed,
            hits,
            dirty_skips,
        });
        let result = LaneResult {
            outcome,
            metrics,
            violations: std::mem::take(&mut engine.violations),
            positions: std::mem::take(&mut engine.positions),
            trace_jsonl: lane.traced.then(|| engine.trace.to_jsonl()),
        };
        self.spare_traces.push(std::mem::take(&mut engine.trace));
        self.spare_parts.push(engine.into_parts());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::scheduler::RoundRobin;
    use crate::snapshot::Snapshot;

    struct GoToCentroid;
    impl Algorithm for GoToCentroid {
        fn name(&self) -> &'static str {
            "centroid"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            gather_geom::centroid(snap.config().points())
        }
    }

    fn spiral(n: usize, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let th = 0.7 * i as f64 + phase;
                let r = 1.0 + 0.3 * i as f64;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect()
    }

    fn spec(n: usize, phase: f64, max_rounds: u64) -> LaneSpec {
        let mut s = LaneSpec::new(spiral(n, phase), Box::new(GoToCentroid));
        s.frames = FramePolicy::GlobalFrame;
        s.check_invariants = false;
        s.max_rounds = max_rounds;
        s
    }

    /// A lane's sequential twin: an `Engine` built from the same spec, on
    /// the incremental path every lane runs or on the full-recompute
    /// reference.
    fn sequential_with_trace(s: LaneSpec, incremental: bool) -> (LaneResult, String) {
        let mut e = Engine::builder(s.initial)
            .algorithm(s.algorithm)
            .scheduler(s.scheduler)
            .crash_plan(s.crash_plan)
            .motion(s.motion)
            .frames(s.frames)
            .tol(s.tol)
            .delta(s.delta)
            .check_invariants(s.check_invariants)
            .incremental(incremental)
            .build();
        let outcome = e.run(s.max_rounds);
        let mut metrics = summarize(outcome, e.trace());
        let (computed, hits, dirty_skips) = e.analysis_cache_stats();
        metrics.analysis_cache = Some(CacheStats {
            computed,
            hits,
            dirty_skips,
        });
        let result = LaneResult {
            outcome,
            metrics,
            violations: e.violations().to_vec(),
            positions: e.positions().to_vec(),
            trace_jsonl: None,
        };
        (result, e.trace().to_jsonl())
    }

    fn sequential(s: LaneSpec) -> LaneResult {
        sequential_with_trace(s, true).0
    }

    #[test]
    fn batch_matches_sequential_engines() {
        let specs = || {
            vec![
                spec(6, 0.0, 200),
                spec(9, 1.3, 200),
                spec(4, 2.1, 200),
                spec(12, 0.4, 3), // retires at the round limit
                spec(7, 5.5, 200),
            ]
        };
        let expect: Vec<LaneResult> = specs().into_iter().map(sequential).collect();
        for width in [1, 2, 8] {
            let mut batch = BatchEngine::new(width, EngineParts::default());
            let got = batch.run(specs());
            assert_eq!(got, expect, "width {width} diverged");
        }
    }

    #[test]
    fn batch_recycles_across_runs_without_contamination() {
        let mut batch = BatchEngine::new(3, EngineParts::default());
        let first = batch.run(vec![spec(5, 0.2, 100), spec(8, 4.0, 100)]);
        // A second, different run over the same (now warm) engine.
        let second = batch.run(vec![spec(8, 4.0, 100), spec(5, 0.2, 100)]);
        assert_eq!(first[0], second[1]);
        assert_eq!(first[1], second[0]);
        let parts = batch.into_parts();
        // And the parts still seed a sequential engine.
        let mut e = Engine::builder(spiral(5, 0.2))
            .algorithm(GoToCentroid)
            .frames(FramePolicy::GlobalFrame)
            .check_invariants(false)
            .recycle(parts)
            .build();
        assert!(e.run(100).gathered());
    }

    #[test]
    fn audits_and_schedulers_flow_through() {
        let mk = || {
            let mut s = spec(8, 0.9, 400);
            s.scheduler = Box::new(RoundRobin::new(3));
            s.check_invariants = true;
            s
        };
        let expect = sequential(mk());
        let got = BatchEngine::new(4, EngineParts::default()).run(vec![mk()]);
        assert_eq!(got[0], expect);
    }

    #[test]
    fn incremental_lanes_match_sequential_and_reference() {
        let mk = |audits: bool| {
            let mut s = spec(9, 1.7, 300);
            s.scheduler = Box::new(RoundRobin::new(2));
            s.check_invariants = audits;
            s
        };
        for audits in [false, true] {
            let reference = sequential_with_trace(mk(audits), false).0;
            let mut seq_inc = sequential(mk(audits));
            let got = BatchEngine::new(2, EngineParts::default()).run(vec![mk(audits), mk(audits)]);
            // Batch lanes ≡ their sequential twins, exactly.
            for lane in &got {
                assert_eq!(*lane, seq_inc, "audits={audits}: lane diverged");
            }
            // Incremental ≡ reference up to the dirty-skip counter, which
            // only the incremental path reports (a subset of its hits).
            let inc_stats = seq_inc.metrics.analysis_cache.expect("stats attached");
            let ref_stats = reference.metrics.analysis_cache.expect("stats attached");
            assert_eq!(inc_stats.computed, ref_stats.computed);
            assert_eq!(inc_stats.hits, ref_stats.hits);
            assert_eq!(ref_stats.dirty_skips, 0, "reference never dirty-skips");
            seq_inc.metrics.analysis_cache = reference.metrics.analysis_cache;
            assert_eq!(seq_inc, reference, "audits={audits}: sequential diverged");
        }
    }

    /// The trace-recycling regression pinned by `admit`'s comment:
    /// interleave traced (unbounded) and untraced (capacity-1) lanes on
    /// one engine so every second-run lane inherits a retired trace of
    /// the *other* kind, and require (a) no rounds leak across scenarios,
    /// (b) tracing itself never perturbs the simulation.
    #[test]
    fn traced_and_untraced_lanes_interleave_without_leaking_rounds() {
        let traced = |n: usize, phase: f64, on: bool| {
            let mut s = spec(n, phase, 100);
            s.traced = on;
            s
        };
        let (seq_a, jsonl_a) = sequential_with_trace(spec(5, 0.2, 100), true);
        let (seq_b, jsonl_b) = sequential_with_trace(spec(8, 4.0, 100), true);

        // Width 1 serialises the lanes, so the second run's lanes must
        // recycle the first run's retired traces with the roles swapped.
        let mut batch = BatchEngine::new(1, EngineParts::default());
        let first = batch.run(vec![traced(5, 0.2, true), traced(8, 4.0, false)]);
        let second = batch.run(vec![traced(5, 0.2, false), traced(8, 4.0, true)]);

        assert_eq!(first[0].trace_jsonl.as_deref(), Some(jsonl_a.as_str()));
        assert_eq!(second[1].trace_jsonl.as_deref(), Some(jsonl_b.as_str()));
        assert!(first[1].trace_jsonl.is_none(), "untraced lanes stay lean");
        assert!(second[0].trace_jsonl.is_none());

        // Modulo the trace column, every lane equals its sequential twin
        // — covering aggregates (travel, histogram) that a leaked record
        // would have shifted.
        let strip = |r: &LaneResult| LaneResult {
            trace_jsonl: None,
            ..r.clone()
        };
        assert_eq!(strip(&first[0]), seq_a);
        assert_eq!(strip(&second[0]), seq_a, "recycled traced->untraced");
        assert_eq!(strip(&first[1]), seq_b);
        assert_eq!(strip(&second[1]), seq_b, "recycled untraced->traced");

        // The traced stream covers exactly the simulated rounds, from 0.
        let lines: Vec<&str> = jsonl_a.lines().collect();
        assert_eq!(lines.len() as u64, seq_a.metrics.rounds);
        assert!(lines[0].starts_with("{\"round\":0,"));
    }

    #[test]
    fn empty_spec_list_is_fine() {
        assert!(BatchEngine::new(2, EngineParts::default())
            .run(Vec::new())
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_is_rejected() {
        let _ = BatchEngine::new(0, EngineParts::default());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_initial_is_rejected() {
        let s = LaneSpec::new(Vec::new(), Box::new(GoToCentroid));
        let _ = BatchEngine::new(1, EngineParts::default()).run(vec![s]);
    }
}
