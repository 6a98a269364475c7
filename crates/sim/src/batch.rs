//! Lockstep batch execution: many scenarios advanced round by round over
//! scenario-major columnar state.
//!
//! A parameter-space sweep runs thousands of *short* simulations — the T1
//! grid gathers in a handful of rounds — so the one-`Engine`-per-scenario
//! worker pool pays its per-scenario fixed costs (engine construction,
//! canonical clone, cold first classification, unbounded trace growth,
//! per-item pool handoff) once per grid cell, and those costs rival the
//! simulated rounds themselves. [`BatchEngine`] amortises them: one
//! scratch arena per worker (recycled through the existing
//! [`EngineParts`] contract) serves every lane, positions and liveness
//! flags live packed across scenarios in structure-of-arrays columns
//! (fueling the batched [`gather_geom::soa`] kernels, here the exact
//! gathered-detection prefilter [`masked_max_dist2`]), analysis caches and
//! traces recycle across lane generations, and an admission memo shares
//! the cold initial classification across grid cells that start from the
//! same configuration.
//!
//! The hard contract is **bit-identity**: every lane produces exactly the
//! [`RunMetrics`], violations and final positions of a sequential
//! [`Engine`] run of the same spec. This holds by construction, not by
//! re-implementation — lanes execute the *same* `StepCore` stage code
//! the engine's round loop is built from, in the same order, with the
//! same per-round counter windows; the columnar layer only stores state
//! between rounds and pre-filters the gathered check with an
//! arithmetically identical kernel.
//!
//! [`Engine`]: crate::engine::Engine

use crate::algorithm::Algorithm;
use crate::crash::{CrashPlan, NoCrashes};
use crate::engine::{EngineParts, RunOutcome, Scratch, StepCore};
use crate::frames::{FramePolicy, FrameSource};
use crate::metrics::{summarize, CacheStats, RunMetrics};
use crate::motion::{FullMotion, MotionAdversary};
use crate::scheduler::{EveryRobot, Scheduler};
use crate::trace::{RoundRecord, Trace};
use gather_config::{
    classify, classify_invocations, AnalysisCache, Class, Configuration, RoundAnalysis,
};
use gather_geom::soa::masked_max_dist2;
use gather_geom::{weiszfeld_iterations, Point, Tol};

/// One scenario for lockstep execution: the subset of the
/// [`EngineBuilder`](crate::engine::EngineBuilder) surface that batch
/// lanes support, as plain data. Defaults mirror the builder's exactly.
///
/// Deliberately absent: byzantine robots, position logs and
/// observability handles — the sweep workloads that justify lockstep
/// execution use none of them, and each would smuggle per-lane state into
/// the shared arena. Scenarios needing those run on the sequential
/// engine; stale observations are the event-heap
/// [`AsyncEngine`](crate::async_engine::AsyncEngine)'s domain.
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
    /// Share the per-round analysis across robots (default on).
    pub shared_analysis: bool,
    /// Warm-start Weiszfeld from the previous Weber point (default on).
    pub warm_start: bool,
    /// Incremental dirty-tracked re-analysis (default off — the
    /// full-recompute reference path), matching
    /// [`EngineBuilder::incremental`](crate::engine::EngineBuilder::incremental).
    pub incremental: bool,
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
    /// `δ = 0.01`, audits and the shared-analysis pipeline on.
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
            shared_analysis: true,
            warm_start: true,
            incremental: false,
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

/// A live lane: one scenario's stepping core plus its per-scenario state.
/// Positions and liveness live in the batch's columns, not here.
struct Lane {
    core: StepCore,
    /// Column slot ×`stride` = base offset of this lane's robots.
    slot: usize,
    /// Robot count (fixed for the lane's lifetime — canonicalisation
    /// merges coordinates, never entries).
    n: usize,
    /// Position of this lane's spec in the input order.
    index: usize,
    round: u64,
    max_rounds: u64,
    /// Capacity-1 ring by default (aggregates — all [`RunMetrics`] reads
    /// — cover every round; per-round records are not retained), or
    /// unbounded for a [`LaneSpec::traced`] lane.
    trace: Trace,
    /// Serialise the retained records into [`LaneResult::trace_jsonl`] on
    /// retirement.
    traced: bool,
    violations: Vec<String>,
    record: RoundRecord,
}

/// Advances a batch of scenarios in lockstep over scenario-major SoA
/// state; see the module docs for the design and the bit-identity
/// contract.
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
    /// The one scratch arena every lane's stages borrow.
    scratch: Scratch,
    /// Retired lanes' analysis caches, reset-recycled into new lanes.
    spare_caches: Vec<AnalysisCache>,
    /// Retired lanes' kept canonical orders, recycled into new lanes.
    spare_orders: Vec<Vec<usize>>,
    /// Retired lanes' traces, reset-recycled into new lanes.
    spare_traces: Vec<Trace>,
    /// Array-of-structs staging buffer: a lane's positions are gathered
    /// here from the columns for the stepping stages, then scattered back.
    aos: Vec<Point>,
    /// Scenario-major position columns: lane slot `s` robot `j` lives at
    /// `s * stride + j`.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Liveness column, same layout.
    alive: Vec<bool>,
    stride: usize,
    free_slots: Vec<usize>,
    lanes: Vec<Lane>,
    /// Admission memo `(points, tol, analysis)`: consecutive specs that
    /// start from the same canonical configuration (a sweep crossing
    /// schedulers × δ × faults over one workload) share the cold initial
    /// classification. Seeding the lane's cache with the memoized analysis
    /// is indistinguishable from the cache computing it itself.
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
    pub fn new(width: usize, parts: EngineParts) -> Self {
        assert!(width > 0, "BatchEngine width must be positive");
        BatchEngine {
            width,
            scratch: parts.scratch,
            spare_caches: vec![parts.analysis_cache],
            spare_orders: vec![parts.canon_order],
            spare_traces: Vec::new(),
            aos: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            alive: Vec::new(),
            stride: 0,
            free_slots: Vec::new(),
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
        EngineParts {
            scratch: self.scratch,
            analysis_cache: self.spare_caches.pop().unwrap_or_default(),
            canon_order: self.spare_orders.pop().unwrap_or_default(),
        }
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
        let total = specs.len();
        if total == 0 {
            return Vec::new();
        }
        let stride = specs
            .iter()
            .map(|s| s.initial.len())
            .max()
            .expect("non-empty specs");
        self.stride = stride;
        self.xs.clear();
        self.xs.resize(self.width * stride, 0.0);
        self.ys.clear();
        self.ys.resize(self.width * stride, 0.0);
        self.alive.clear();
        self.alive.resize(self.width * stride, false);
        self.free_slots = (0..self.width).rev().collect();

        let mut results: Vec<Option<LaneResult>> = Vec::with_capacity(total);
        results.resize_with(total, || None);
        let mut pending = specs.into_iter().enumerate();
        while self.lanes.len() < self.width {
            let Some((index, spec)) = pending.next() else {
                break;
            };
            self.admit(index, spec);
        }
        while !self.lanes.is_empty() {
            let mut i = 0;
            while i < self.lanes.len() {
                match self.tick_lane(i) {
                    Some((index, result)) => {
                        results[index] = Some(result);
                        if let Some((index, spec)) = pending.next() {
                            self.admit(index, spec);
                        }
                        // Do not advance: swap_remove moved another lane
                        // into `i` (and a freshly admitted lane sits at the
                        // end); both get their round this pass.
                    }
                    None => i += 1,
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every admitted lane retires"))
            .collect()
    }

    /// Admits one spec into a free column slot, replicating
    /// `EngineBuilder::build` exactly: canonicalise, reset-and-seed the
    /// recycled analysis cache, pre-classify for the bivalent flag.
    fn admit(&mut self, index: usize, spec: LaneSpec) {
        assert!(
            !spec.initial.is_empty(),
            "BatchEngine: initial configuration must be non-empty"
        );
        assert!(spec.delta > 0.0, "minimum step delta must be positive");
        let positions = Configuration::canonical(spec.initial, spec.tol)
            .points()
            .to_vec();
        let n = positions.len();
        let mut cache = self.spare_caches.pop().unwrap_or_default();
        cache.reset();
        cache.set_warm_start(spec.warm_start);
        let mut canon_order = self.spare_orders.pop().unwrap_or_default();
        canon_order.clear();
        self.scratch.config.copy_from_slice(&positions);
        // The builder's bivalent pre-check: through the cache when the
        // shared pipeline is on (so round 0 hits the memo), by direct
        // classification in the ablation mode. The admission memo
        // substitutes for the cache's own fresh-miss computation — a fresh
        // cache computes with no warm-start hint, so the memoized analysis
        // is the exact value it would have produced.
        let started_bivalent = if spec.shared_analysis {
            let analysis = match &self.memo {
                Some((pts, tol, ra)) if *tol == spec.tol && *pts == positions => *ra,
                _ => {
                    let ra = RoundAnalysis::compute(&self.scratch.config, spec.tol);
                    self.memo = Some((positions.clone(), spec.tol, ra));
                    ra
                }
            };
            cache.seed(&positions, analysis);
            analysis.analysis.class == Class::Bivalent
        } else {
            classify(&self.scratch.config, spec.tol).class == Class::Bivalent
        };
        let slot = self.free_slots.pop().expect("admit with no free slot");
        let base = slot * self.stride;
        for (j, p) in positions.iter().enumerate() {
            self.xs[base + j] = p.x;
            self.ys[base + j] = p.y;
            self.alive[base + j] = true;
        }
        // Trace recycling across lane generations: `reset` first (clears
        // records, aggregates and the dropped counter while keeping the
        // buffers), *then* re-bound the capacity for this lane. The order
        // matters — `set_capacity` evicts and counts over-capacity records,
        // so binding before resetting would let a retired traced lane's
        // rounds bleed into the next lane's `dropped()` accounting. A
        // recycled trace is thereafter indistinguishable from a fresh one
        // (pinned by `Trace::reset`'s tests and the interleaving
        // regression test below); the async engine sidesteps the question
        // by building a fresh `Trace` per engine.
        let mut trace = self.spare_traces.pop().unwrap_or_default();
        trace.reset();
        trace.set_capacity(if spec.traced { None } else { Some(1) });
        self.lanes.push(Lane {
            core: StepCore {
                algorithm: spec.algorithm,
                scheduler: spec.scheduler,
                crash_plan: spec.crash_plan,
                motion: spec.motion,
                frame_source: FrameSource::new(spec.frames),
                tol: spec.tol,
                delta: spec.delta,
                shared_analysis: spec.shared_analysis,
                check_invariants: spec.check_invariants,
                started_bivalent,
                incremental: spec.incremental,
                pending_dirty: Vec::new(),
                canon_order,
                analysis_cache: cache,
            },
            slot,
            n,
            index,
            round: 0,
            max_rounds: spec.max_rounds,
            trace,
            traced: spec.traced,
            violations: Vec::new(),
            record: RoundRecord::default(),
        });
    }

    /// Gives lane `i` its round: the engine run loop's termination checks
    /// (gathered, round limit), then one step. Returns the input index and
    /// result when the lane retires, freeing its slot.
    fn tick_lane(&mut self, i: usize) -> Option<(usize, LaneResult)> {
        let lane = &mut self.lanes[i];
        let base = lane.slot * self.stride;
        let n = lane.n;
        let snap = lane.core.tol.snap;

        // Termination check, mirroring `Engine::run`. The columnar
        // prefilter is exact: `masked_max_dist2 <= snap²` is the same
        // comparison the engine's all-within-snap scan performs, so the
        // (costlier) staged check — which consults the analysis cache,
        // exactly like `Engine::is_gathered` — runs for precisely the
        // lanes where the engine's would.
        let xs = &self.xs[base..base + n];
        let ys = &self.ys[base..base + n];
        let alive = &self.alive[base..base + n];
        let anchor = alive
            .iter()
            .position(|a| *a)
            .map(|j| Point::new(xs[j], ys[j]));
        let gathered = match anchor {
            Some(at) if masked_max_dist2(xs, ys, alive, at) <= snap * snap => {
                self.aos.clear();
                self.aos
                    .extend(xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y)));
                lane.core
                    .gathered_point(&self.aos, alive, &mut self.scratch)
            }
            _ => None,
        };
        let outcome = if let Some(point) = gathered {
            Some(RunOutcome::Gathered {
                round: lane.round,
                point,
            })
        } else if lane.round >= lane.max_rounds {
            Some(RunOutcome::RoundLimit { rounds: lane.round })
        } else {
            None
        };
        if let Some(outcome) = outcome {
            // Retire: summarise, free the slot, recycle the slabs.
            self.aos.clear();
            self.aos
                .extend(xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y)));
            let mut metrics = summarize(outcome, &lane.trace);
            metrics.analysis_cache = Some(CacheStats {
                computed: lane.core.analysis_cache.computed(),
                hits: lane.core.analysis_cache.hits(),
                dirty_skips: lane.core.analysis_cache.dirty_skips(),
            });
            let result = LaneResult {
                outcome,
                metrics,
                violations: std::mem::take(&mut lane.violations),
                positions: self.aos.clone(),
                trace_jsonl: lane.traced.then(|| lane.trace.to_jsonl()),
            };
            let index = lane.index;
            self.free_slots.push(lane.slot);
            let lane = self.lanes.swap_remove(i);
            self.spare_traces.push(lane.trace);
            self.spare_caches.push(lane.core.analysis_cache);
            self.spare_orders.push(lane.core.canon_order);
            return Some((index, result));
        }

        // One step: the engine's stage sequence verbatim, over the shared
        // arena, with the columns as position storage on both ends. The
        // counter windows match `Engine::step` — everything between the
        // reads below runs contiguously on this thread for this lane.
        let classify_before = classify_invocations();
        let weiszfeld_before = weiszfeld_iterations();
        let hits_before = lane.core.analysis_cache.hits();
        self.aos.clear();
        self.aos
            .extend(xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y)));
        self.scratch.config.copy_from_slice(&self.aos);
        let (shared, class) = lane.core.stage_classify(&self.scratch);
        lane.core.stage_distinct(&mut self.scratch);
        let alive = &mut self.alive[base..base + n];
        lane.core
            .stage_crashes(lane.round, alive, &mut self.scratch);
        lane.core
            .stage_activate(lane.round, alive, &mut self.scratch);
        let travel = lane.core.stage_moves(
            lane.round,
            &self.aos,
            &mut [],
            shared.as_ref(),
            &mut self.scratch,
        );
        lane.core.stage_apply(&self.aos, &mut self.scratch);
        // Scatter the canonicalised positions back into the columns (the
        // sequential engine swaps vectors instead; same values).
        self.aos.clear();
        self.aos.extend_from_slice(&self.scratch.canon_out);
        for (j, p) in self.aos.iter().enumerate() {
            self.xs[base + j] = p.x;
            self.ys[base + j] = p.y;
        }
        if lane.core.check_invariants {
            lane.core.stage_audits(
                lane.round,
                &self.aos,
                shared.as_ref(),
                &mut self.scratch,
                &mut lane.violations,
            );
        }
        let record = &mut lane.record;
        record.round = lane.round;
        record.class = class;
        record.distinct = self.scratch.distinct.len();
        record.max_mult = self
            .scratch
            .distinct
            .iter()
            .map(|(_, m)| *m)
            .max()
            .unwrap_or(0);
        record.activated.clone_from(&self.scratch.activated);
        record.crashed.clone_from(&self.scratch.crashed_now);
        record.travel = travel;
        record.classifications = classify_invocations() - classify_before;
        record.cache_hits = lane.core.analysis_cache.hits() - hits_before;
        record.weiszfeld_iters = weiszfeld_iterations() - weiszfeld_before;
        lane.trace.push_cloned(&lane.record);
        lane.round += 1;
        None
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

    fn sequential_with_trace(s: LaneSpec) -> (LaneResult, String) {
        let mut e = Engine::builder(s.initial)
            .algorithm(s.algorithm)
            .scheduler(s.scheduler)
            .crash_plan(s.crash_plan)
            .motion(s.motion)
            .frames(s.frames)
            .tol(s.tol)
            .delta(s.delta)
            .check_invariants(s.check_invariants)
            .shared_analysis(s.shared_analysis)
            .warm_start(s.warm_start)
            .incremental(s.incremental)
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
        sequential_with_trace(s).0
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
        let mk = |incremental: bool, audits: bool| {
            let mut s = spec(9, 1.7, 300);
            s.scheduler = Box::new(RoundRobin::new(2));
            s.check_invariants = audits;
            s.incremental = incremental;
            s
        };
        for audits in [false, true] {
            let reference = sequential(mk(false, audits));
            let mut seq_inc = sequential(mk(true, audits));
            let got = BatchEngine::new(2, EngineParts::default())
                .run(vec![mk(true, audits), mk(false, audits)]);
            // Batch lanes ≡ their sequential twins, exactly.
            assert_eq!(
                got[0], seq_inc,
                "audits={audits}: incremental lane diverged"
            );
            assert_eq!(
                got[1], reference,
                "audits={audits}: reference lane diverged"
            );
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

    /// The trace-recycling regression pinned by the `admit` audit:
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
        let (seq_a, jsonl_a) = sequential_with_trace(spec(5, 0.2, 100));
        let (seq_b, jsonl_b) = sequential_with_trace(spec(8, 4.0, 100));

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
