//! The round-based ATOM execution engine.
//!
//! Each round proceeds exactly as in Section II of the paper:
//!
//! 1. the crash adversary may crash robots (they stay visible forever);
//! 2. the scheduler activates a subset of the live robots;
//! 3. every activated robot atomically LOOKs (obtaining the start-of-round
//!    configuration in its own fresh local frame), COMPUTEs (running the
//!    algorithm), and MOVEs (straight toward its destination, stopped by
//!    the motion adversary no earlier than the minimum step `δ`);
//! 4. all moves take effect simultaneously.
//!
//! The engine canonicalises positions every round (points within
//! `tol.snap` merge) so strong multiplicity detection is exact, records a
//! [`Trace`], and optionally audits the wait-freeness condition of
//! Lemma 5.1 and the never-enter-`B` invariant.

use crate::algorithm::Algorithm;
use crate::byzantine::ByzantinePolicy;
use crate::crash::{CrashPlan, NoCrashes};
use crate::frames::{FramePolicy, FrameSource};
use crate::motion::{apply_motion, FullMotion, MotionAdversary};
use crate::scheduler::{EveryRobot, Scheduler};
use crate::snapshot::Snapshot;
use crate::trace::{RoundRecord, Trace};
use gather_config::{
    canonicalize_into, canonicalize_sorted_into, classify_invocations, lex_order_into,
    lex_order_update, AnalysisCache, CanonScratch, Class, Configuration, RoundAnalysis,
};
use gather_geom::soa::diff_indices;
use gather_geom::{weiszfeld_iterations, weiszfeld_nanos, Point, Tol};
use gather_obs::{EngineObs, Phase, PhaseNanos, PhaseTimer};

/// Reusable working memory for the round loop. Cleared and refilled every
/// round instead of re-`collect`ed, so the steady state allocates nothing.
/// Lent to [`Engine::step_in`] rather than read through `self` (sidestepping
/// borrow conflicts between the buffers and the engine's trait objects):
/// [`Engine::step`] lends the engine's own arena, a
/// [`crate::batch::BatchEngine`] one arena shared by all its lanes.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The start-of-round configuration (what every robot LOOKs at).
    pub(crate) config: Configuration,
    /// A robot's local view: the observed configuration with the robot's
    /// own entry refreshed, mapped into its frame.
    pub(crate) local: Configuration,
    /// Pending end-of-round positions, before canonicalisation.
    pub(crate) new_positions: Vec<Point>,
    /// Canonicalised end-of-round positions (swapped into `positions`).
    pub(crate) canon_out: Vec<Point>,
    /// Working arrays for canonicalisation.
    pub(crate) canon: CanonScratch,
    /// Robots activated this round.
    pub(crate) activated: Vec<usize>,
    /// Raw victim list from the crash plan (pre-liveness-filter).
    pub(crate) crash_raw: Vec<usize>,
    /// Robots that actually crashed this round.
    pub(crate) crashed_now: Vec<usize>,
    /// Distinct locations with multiplicities (`U(C)`).
    pub(crate) distinct: Vec<(Point, usize)>,
    /// Sorting scratch for `distinct_into`.
    pub(crate) sort: Vec<Point>,
    /// The incremental path's indices that canonicalisation changed
    /// (canonical output against the pending positions).
    pub(crate) dirty: Vec<usize>,
    /// The wait-freeness audit's destination of each distinct location.
    pub(crate) destinations: Vec<Point>,
}

/// The reusable heap-backed innards of a retired [`Engine`]: the round-loop
/// scratch buffers, the analysis cache and the kept canonical order.
/// Extracted with [`Engine::into_parts`] and fed to
/// [`EngineBuilder::recycle`], so a worker that runs many simulations back
/// to back (a sweep) keeps one warm set of buffers instead of re-growing
/// them per run — the steady-state zero-allocation property then holds
/// across sweep-item boundaries, not just within one run.
///
/// Recycling is observationally invisible: `build` resets the analysis
/// cache (memo, warm-start iterate, counters) and every scratch buffer is
/// cleared before use, so a recycled engine produces bit-identical traces
/// and metrics to a fresh one.
#[derive(Debug, Default)]
pub struct EngineParts {
    pub(crate) scratch: Scratch,
    pub(crate) analysis_cache: AnalysisCache,
    pub(crate) canon_order: Vec<usize>,
}

/// The reusable stepping core: one scenario's adversaries, algorithm and
/// analysis state, with the per-round loop factored into callable stages
/// over *borrowed* mutable state (positions, liveness flags, scratch
/// buffers supplied by the caller).
///
/// [`Engine::step_in`] composes the stages into the one FSYNC/SSYNC round
/// (a [`crate::batch::BatchEngine`] lane *is* an `Engine`); the
/// [`crate::async_engine::AsyncEngine`] drives the same stages per event
/// batch.
///
/// Stage methods take `round`, state slices and a [`Scratch`] explicitly
/// instead of owning them: one scratch arena can then serve many cores
/// (the batch engine lends its single per-worker arena to whichever lane
/// is stepping), and the borrows stay disjoint from the trait objects
/// stored here.
pub(crate) struct StepCore {
    pub(crate) algorithm: Box<dyn Algorithm>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) crash_plan: Box<dyn CrashPlan>,
    pub(crate) motion: Box<dyn MotionAdversary>,
    pub(crate) frame_source: FrameSource,
    pub(crate) tol: Tol,
    pub(crate) delta: f64,
    pub(crate) check_invariants: bool,
    pub(crate) started_bivalent: bool,
    pub(crate) incremental: bool,
    /// Bitwise diff between the analysis cache's memoized configuration
    /// and the configuration the *next* analysis will see. Set by
    /// [`StepCore::stage_apply`] after canonicalisation, consumed (and
    /// cleared) by every [`AnalysisCache::analyse_dirty`] call — after
    /// which the memo equals the analysed configuration again, so an empty
    /// pending set means "nothing moved since the memo".
    pub(crate) pending_dirty: Vec<usize>,
    /// The incremental path's kept lexicographic order of the current
    /// canonical positions (`gather_config::lex_order_into`), repaired
    /// for the changed indices on every apply instead of re-sorted. Empty
    /// until an apply sorts afresh: the first one, and the one after
    /// canonicalisation moved robots.
    pub(crate) canon_order: Vec<usize>,
    pub(crate) analysis_cache: AnalysisCache,
}

/// The counter readings a round's [`RoundRecord`] reports as deltas,
/// taken by [`StepCore::open_round`] before the round's (or async tick's)
/// first stage and consumed by [`StepCore::close_round`] after its last.
pub(crate) struct RoundWindow {
    round: u64,
    classifications: u64,
    weiszfeld_iters: u64,
    cache_hits: u64,
}

impl StepCore {
    /// Opens round `round`'s counter window.
    pub(crate) fn open_round(&self, round: u64) -> RoundWindow {
        RoundWindow {
            round,
            classifications: classify_invocations(),
            weiszfeld_iters: weiszfeld_iterations(),
            cache_hits: self.analysis_cache.hits(),
        }
    }

    /// Closes `window`: fills `record` from the round's class and travel,
    /// the stage results left in `scratch` (distinct locations, activated
    /// and crashed robots) and the counter deltas, then appends it to
    /// `trace`. The one record fill of all three drivers, so their traces
    /// agree field for field.
    pub(crate) fn close_round(
        &self,
        window: RoundWindow,
        class: Class,
        travel: f64,
        scratch: &Scratch,
        record: &mut RoundRecord,
        trace: &mut Trace,
    ) {
        record.round = window.round;
        record.class = class;
        record.distinct = scratch.distinct.len();
        record.max_mult = scratch.distinct.iter().map(|(_, m)| *m).max().unwrap_or(0);
        record.activated.clone_from(&scratch.activated);
        record.crashed.clone_from(&scratch.crashed_now);
        record.travel = travel;
        record.classifications = classify_invocations() - window.classifications;
        record.cache_hits = self.analysis_cache.hits() - window.cache_hits;
        record.weiszfeld_iters = weiszfeld_iterations() - window.weiszfeld_iters;
        trace.push_cloned(record);
    }

    /// The single shared analysis of the start-of-round configuration
    /// (already loaded into `scratch.config`) and the round's class. Every
    /// robot activated this round LOOKs at this configuration (ATOM), so
    /// the one analysis serves them all.
    pub(crate) fn stage_classify(&mut self, scratch: &Scratch) -> (RoundAnalysis, Class) {
        let shared = self.analyse_shared(&scratch.config);
        (shared, shared.analysis.class)
    }

    /// The one shared-analysis entry point: the incremental path routes
    /// through [`AnalysisCache::analyse_dirty`] with the pending dirty set
    /// (cleared afterwards — the memo now equals `config`), the reference
    /// path through the plain full-recompute [`AnalysisCache::analyse`].
    fn analyse_shared(&mut self, config: &Configuration) -> RoundAnalysis {
        if self.incremental {
            let ra = self
                .analysis_cache
                .analyse_dirty(config, self.tol, &self.pending_dirty);
            self.pending_dirty.clear();
            ra
        } else {
            self.analysis_cache.analyse(config, self.tol)
        }
    }

    /// Computes the distinct occupied locations (`U(C)`) of the
    /// start-of-round configuration into `scratch.distinct`.
    pub(crate) fn stage_distinct(&self, scratch: &mut Scratch) {
        // The incremental cache maintains the distinct multiset of its
        // memoized configuration — which `stage_classify` just made equal
        // to `scratch.config` — so a valid cached copy replaces the
        // O(n log n) sort with an O(|U(C)|) copy.
        if self.incremental {
            if let Some(d) = self.analysis_cache.distinct_cached() {
                scratch.distinct.clear();
                scratch.distinct.extend_from_slice(d);
                return;
            }
        }
        let Scratch {
            config,
            distinct,
            sort,
            ..
        } = scratch;
        config.distinct_into(distinct, sort);
    }

    /// Crash stage: asks the plan for this round's victims (on the
    /// start-of-round configuration in `scratch.config`), kills the ones
    /// still alive, and records them in `scratch.crashed_now`.
    pub(crate) fn stage_crashes(&mut self, round: u64, alive: &mut [bool], scratch: &mut Scratch) {
        self.crash_plan
            .crashes_into(round, &scratch.config, alive, &mut scratch.crash_raw);
        scratch.crashed_now.clear();
        for &victim in &scratch.crash_raw {
            if alive.get(victim).copied().unwrap_or(false) {
                alive[victim] = false;
                scratch.crashed_now.push(victim);
            }
        }
    }

    /// Activation stage: scheduler selection filtered to live in-range
    /// robots, sorted and deduplicated, into `scratch.activated`.
    pub(crate) fn stage_activate(&mut self, round: u64, alive: &[bool], scratch: &mut Scratch) {
        self.scheduler
            .select_into(round, alive, &mut scratch.activated);
        scratch.activated.retain(|i| *i < alive.len() && alive[*i]);
        scratch.activated.sort_unstable();
        scratch.activated.dedup();
    }

    /// Look–Compute–Move stage for every activated robot, from the same
    /// start-of-round configuration (ATOM atomicity). Pending end-of-round
    /// positions land in `scratch.new_positions`; the return value is the
    /// round's total travel.
    ///
    /// Robots observe `scratch.config`, so `shared` — its analysis — is
    /// attached to every robot snapshot, its target carried into the
    /// robot's frame. `byzantine` may be shorter than the robot count (the
    /// batch and async paths pass an empty slice: they never carry
    /// byzantine robots); missing entries mean "not byzantine".
    pub(crate) fn stage_moves(
        &mut self,
        round: u64,
        positions: &[Point],
        byzantine: &mut [Option<Box<dyn ByzantinePolicy>>],
        shared: &RoundAnalysis,
        scratch: &mut Scratch,
    ) -> f64 {
        scratch.new_positions.clear();
        scratch.new_positions.extend_from_slice(positions);
        let mut travel = 0.0;
        for &i in &scratch.activated {
            let me = positions[i];
            let dest = if let Some(policy) = byzantine.get_mut(i).and_then(|p| p.as_mut()) {
                // Byzantine robots pick destinations omnisciently, in
                // global coordinates, on the *current* configuration.
                policy.destination(round, i, &scratch.config, me)
            } else {
                let frame = self.frame_source.frame_for(me);
                // The robot sees itself where it currently is (it is the
                // origin of its own frame), embedded in the start-of-round
                // configuration.
                scratch.local.copy_from(&scratch.config);
                scratch.local.set_point(i, me);
                scratch.local.map_in_place(|p| frame.apply(p));
                let local_me = frame.apply(me);
                // Attach the shared analysis with its target carried into
                // the robot's frame — class, n and qreg are invariant under
                // the orientation-preserving frame similarity.
                let snap = Snapshot::with_analysis_borrowed(
                    &scratch.local,
                    local_me,
                    shared.map_target(|t| frame.apply(t)).analysis,
                );
                let local_dest = self.algorithm.destination(&snap);
                frame.inverse().apply(local_dest)
            };
            // "Destination == current position → do not move" (footnote 2
            // of the paper). The threshold only absorbs frame round-trip
            // noise (~1e-13); genuine short moves are completed exactly by
            // the δ rule, letting nearby robots actually coincide.
            if dest.within(me, self.tol.abs) {
                continue;
            }
            let fraction = self.motion.stop_fraction(round, i, me, dest);
            let reached = apply_motion(me, dest, fraction, self.delta);
            travel += me.dist(reached);
            scratch.new_positions[i] = reached;
        }
        travel
    }

    /// Simultaneous application: canonicalises `scratch.new_positions`
    /// into `scratch.canon_out` (the caller swaps or copies it into its
    /// own position storage). `prev` is the start-of-round canonical
    /// position vector the pending positions were derived from.
    ///
    /// The incremental path keeps the lexicographic order of the canonical
    /// positions across rounds: it repairs the order for the robots that
    /// moved (the bitwise diff of `prev` against the pending positions),
    /// canonicalises through it, and records the diff of `prev` against the
    /// canonical output as the analysis cache's pending dirty set for the
    /// next `analyse_dirty` call. When canonicalisation moves robots (a
    /// merge), the order is dropped and the next apply sorts afresh: a
    /// merge usually shifts a whole stack, whose repair costs about as much
    /// as the sort.
    pub(crate) fn stage_apply(&mut self, prev: &[Point], scratch: &mut Scratch) {
        let snap = self.tol.snap;
        if !self.incremental {
            canonicalize_into(
                &scratch.new_positions,
                snap,
                &mut scratch.canon,
                &mut scratch.canon_out,
            );
            return;
        }
        // `stage_classify` consumed the previous round's pending set
        // earlier this round; overwriting an unconsumed one would
        // desynchronise the cache memo.
        debug_assert!(self.pending_dirty.is_empty());
        let Scratch {
            new_positions,
            canon_out,
            canon,
            dirty,
            ..
        } = scratch;
        let order = &mut self.canon_order;
        let pending = &mut self.pending_dirty;
        diff_indices(prev, new_positions, pending);
        if order.len() == prev.len() {
            lex_order_update(new_positions, pending, order, canon);
        } else {
            lex_order_into(new_positions, order, canon);
        }
        canonicalize_sorted_into(new_positions, order, snap, canon, canon_out);
        diff_indices(new_positions, canon_out, dirty);
        // Unless canonicalisation moved someone, the output is the pending
        // positions and `pending` already holds its diff against `prev`.
        if !dirty.is_empty() {
            order.clear();
            diff_indices(prev, canon_out, pending);
        }
    }

    /// Invariant-audit stage over the completed round: wait-freeness on the
    /// start-of-round configuration (still in `scratch.config`), then the
    /// never-enter-`B` check on the post-move `post` (which overwrites
    /// `scratch.config` — the start-of-round one is no longer needed).
    ///
    /// `timer` charges the wait-freeness audit to `invariants` and the
    /// post-move analysis to `classify`: that analysis is the next round's
    /// start-of-round classification, which the next round then serves
    /// from the memo.
    pub(crate) fn stage_audits(
        &mut self,
        round: u64,
        post: &[Point],
        shared: &RoundAnalysis,
        scratch: &mut Scratch,
        timer: &mut PhaseTimer,
        violations: &mut Vec<String>,
    ) {
        let Scratch {
            config,
            distinct,
            destinations,
            ..
        } = scratch;
        self.audit_wait_freeness(round, config, distinct, shared, destinations, violations);
        // The wait-freeness audit needed the start-of-round
        // configuration; recycle its buffer for the post-move one.
        config.copy_from_slice(post);
        timer.lap(Phase::Invariants);
        self.audit_never_bivalent(round, config, timer, violations);
    }

    /// Destination the algorithm assigns to a robot at `at` over
    /// `positions`, computed in the global frame. Reuses the shared
    /// analysis: between steps this is a cache hit (the post-move
    /// configuration was analysed by the audit).
    pub(crate) fn destination_at(
        &mut self,
        positions: &[Point],
        at: Point,
        scratch: &mut Scratch,
    ) -> Point {
        scratch.config.copy_from_slice(positions);
        let ra = self.analyse_shared(&scratch.config);
        let snap = Snapshot::with_analysis_borrowed(&scratch.config, at, ra.analysis);
        self.algorithm.destination(&snap)
    }

    /// The `GATHERED` predicate (Definition 9) of both engines: every
    /// robot `correct` selects occupies one location *and* the algorithm,
    /// applied to the full configuration (faulty robots included), does
    /// not instruct that location to move. Returns the gathering location
    /// when it holds; `None` when no robot is correct (vacuous, treated as
    /// failure).
    pub(crate) fn gathered(
        &mut self,
        positions: &[Point],
        correct: impl Fn(usize) -> bool,
        scratch: &mut Scratch,
    ) -> Option<Point> {
        let mut together = (0..positions.len())
            .filter(|&i| correct(i))
            .map(|i| positions[i]);
        let first = together.next()?;
        if !together.all(|p| p.within(first, self.tol.snap)) {
            return None;
        }
        let dest = self.destination_at(positions, first, scratch);
        dest.within(first, self.tol.snap).then_some(first)
    }

    /// Lemma 5.1 audit: at most one occupied location may be told to stay.
    ///
    /// Destinations are evaluated per distinct location in the global
    /// frame, through the algorithm's batched
    /// [`Algorithm::destinations`] into `destinations`; by algorithm
    /// equivariance each matches what any robot at that location would
    /// compute in its own frame.
    fn audit_wait_freeness(
        &mut self,
        round: u64,
        config: &Configuration,
        distinct: &[(Point, usize)],
        shared: &RoundAnalysis,
        destinations: &mut Vec<Point>,
        violations: &mut Vec<String>,
    ) {
        if distinct.len() <= 1 {
            return; // gathered — `Configuration::is_gathered` would allocate
        }
        // The bivalent class is outside the algorithm's contract.
        if shared.analysis.class == Class::Bivalent {
            return;
        }
        // The audit evaluates in the global frame, so the shared analysis
        // applies verbatim (identity transform).
        self.algorithm
            .destinations(config, &shared.analysis, distinct, destinations);
        let staying = distinct
            .iter()
            .zip(destinations.iter())
            // Mirrors the engine's own "do not move" rule exactly.
            .filter(|((p, _), dest)| dest.within(*p, self.tol.abs))
            .count();
        if staying > 1 {
            violations.push(format!(
                "round {round}: wait-freeness violated: {staying} locations told to stay in {config}"
            ));
        }
    }

    /// Nothing may ever transition *into* the bivalent class (Lemmas 5.6
    /// C1, 5.7) unless the execution started there. `post` is the
    /// post-move configuration of the round being audited; its analysis
    /// is charged to `classify`.
    fn audit_never_bivalent(
        &mut self,
        round: u64,
        post: &Configuration,
        timer: &mut PhaseTimer,
        violations: &mut Vec<String>,
    ) {
        if self.started_bivalent {
            return;
        }
        // This analysis is memoized and becomes the next round's
        // start-of-round cache hit, so the audit costs no extra
        // steady-state classification.
        let class = self.analyse_shared(post).analysis.class;
        timer.lap(Phase::Classify);
        if class == Class::Bivalent {
            violations.push(format!(
                "round {round}: execution entered the bivalent class"
            ));
        }
    }
}

/// Result of running an engine until gathering or a round limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunOutcome {
    /// All live robots reached a single point that the algorithm does not
    /// instruct to move (the paper's `GATHERED` predicate, Definition 9).
    Gathered {
        /// Round at which gathering was first observed.
        round: u64,
        /// The gathering location.
        point: Point,
    },
    /// The round limit was reached without gathering.
    RoundLimit {
        /// Number of rounds executed.
        rounds: u64,
    },
}

impl RunOutcome {
    /// Did the run end gathered?
    pub fn gathered(&self) -> bool {
        matches!(self, RunOutcome::Gathered { .. })
    }

    /// The round count of the outcome (gather round or the limit).
    pub fn rounds(&self) -> u64 {
        match self {
            RunOutcome::Gathered { round, .. } => *round,
            RunOutcome::RoundLimit { rounds } => *rounds,
        }
    }
}

/// Builder for [`Engine`] (see [`Engine::builder`]).
///
/// The fields are crate-visible so that a [`crate::batch::LaneSpec`] maps
/// onto a builder and the async builder reuses the shared ones.
pub struct EngineBuilder {
    pub(crate) initial: Vec<Point>,
    pub(crate) algorithm: Option<Box<dyn Algorithm>>,
    pub(crate) byzantine: Vec<(usize, Box<dyn ByzantinePolicy>)>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) crash_plan: Box<dyn CrashPlan>,
    pub(crate) motion: Box<dyn MotionAdversary>,
    pub(crate) frames: FramePolicy,
    pub(crate) tol: Tol,
    pub(crate) delta: f64,
    pub(crate) record_positions: bool,
    pub(crate) check_invariants: bool,
    pub(crate) incremental: bool,
    pub(crate) trace_capacity: Option<usize>,
    pub(crate) recycled: Option<EngineParts>,
    pub(crate) obs: Option<EngineObs>,
}

impl EngineBuilder {
    /// Sets the algorithm every robot runs. **Required.**
    pub fn algorithm(mut self, algorithm: impl Algorithm + 'static) -> Self {
        self.algorithm = Some(Box::new(algorithm));
        self
    }

    /// Makes robot `robot` byzantine: its destinations come from `policy`
    /// instead of the algorithm. Byzantine robots stay visible and obey
    /// the same movement physics; they count as faulty, so the `GATHERED`
    /// predicate ignores them.
    ///
    /// # Panics
    ///
    /// `build` panics if `robot` is out of range.
    pub fn byzantine(mut self, robot: usize, policy: impl ByzantinePolicy + 'static) -> Self {
        self.byzantine.push((robot, Box::new(policy)));
        self
    }

    /// Sets the activation scheduler (default: [`EveryRobot`]).
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Sets the crash plan (default: [`NoCrashes`]).
    pub fn crash_plan(mut self, plan: impl CrashPlan + 'static) -> Self {
        self.crash_plan = Box::new(plan);
        self
    }

    /// Sets the motion adversary (default: [`FullMotion`]).
    pub fn motion(mut self, motion: impl MotionAdversary + 'static) -> Self {
        self.motion = Box::new(motion);
        self
    }

    /// Sets the local-frame policy (default: random frame per activation).
    pub fn frames(mut self, frames: FramePolicy) -> Self {
        self.frames = frames;
        self
    }

    /// Sets the tolerance policy (default: [`Tol::default`]).
    pub fn tol(mut self, tol: Tol) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the minimum movement step `δ` (default: `0.01`).
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0` — the model requires a strictly positive
    /// minimum step.
    pub fn delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0, "minimum step delta must be positive");
        self.delta = delta;
        self
    }

    /// Enables or disables the per-round invariant audit (default: on).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Selects the incremental dirty-tracked re-analysis every engine
    /// driver runs (default: on) or, with `false`, the full-recompute
    /// reference it is checked against (tests and `b11_largen` only).
    ///
    /// The incremental path diffs the positions each round and patches the
    /// previous round's work: canonicalisation sweeps a lexicographic order
    /// kept across rounds, the analysis cache edits the distinct multiset
    /// `U(C)` at the changed indices, and a round where nothing moved skips
    /// classification. Crashed robots stop moving and so drop out of the
    /// diff on their own. The two paths are bit-identical except for the
    /// `dirty_skips` cache counter, which only the incremental path counts;
    /// see DESIGN.md §15.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Bounds how many per-round records the trace retains (a ring buffer;
    /// default: unbounded). Aggregate statistics keep covering the whole
    /// run; only the per-round records of evicted rounds are lost. Long
    /// f1/f5-style runs use this to keep memory flat in the round count.
    ///
    /// # Panics
    ///
    /// `build` panics if `capacity == 0`.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Records the full position log (one snapshot per round) for
    /// visualisation and post-hoc analysis (default: off — memory grows
    /// linearly with rounds × robots).
    pub fn record_positions(mut self, on: bool) -> Self {
        self.record_positions = on;
        self
    }

    /// Seeds the engine with the buffers of a previous engine (from
    /// [`Engine::into_parts`]) instead of fresh allocations. The analysis
    /// cache is fully reset and every buffer is cleared before use, so the
    /// run's results are bit-identical to a fresh engine's — only the heap
    /// capacity survives. Sweep workers use this to stay allocation-free
    /// across run boundaries.
    pub fn recycle(mut self, parts: EngineParts) -> Self {
        self.recycled = Some(parts);
        self
    }

    /// Attaches an observability handle (default: none). With an enabled
    /// [`EngineObs`] every round is timed phase by phase
    /// (snapshot / classify / weiszfeld / move / invariants — see
    /// [`Phase`]); totals surface through [`Engine::phase_nanos`] and the
    /// per-round spans through [`Engine::observability`]. A handle built
    /// with [`EngineObs::disabled`] is carried but never read the clock —
    /// the state the ≤2% overhead budget of `b9_obs` is measured against.
    /// Timings are wall-clock and therefore non-deterministic; they live
    /// beside, never inside, the deterministic trace.
    pub fn observe(mut self, obs: EngineObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics if no algorithm was set or the initial configuration is
    /// empty.
    pub fn build(mut self) -> Engine {
        let positions = self.canonical_initial();
        self.build_canonical(positions, None, Trace::new())
    }

    /// Takes the initial positions out of the builder, canonicalised
    /// (points within `tol.snap` merge).
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration is empty.
    pub(crate) fn canonical_initial(&mut self) -> Vec<Point> {
        assert!(
            !self.initial.is_empty(),
            "initial configuration must be non-empty"
        );
        Configuration::canonical(std::mem::take(&mut self.initial), self.tol)
            .points()
            .to_vec()
    }

    /// [`EngineBuilder::build`] over already-canonical `positions` (the
    /// builder's `initial` is ignored), recording into `trace`, which must
    /// be fresh or reset. `admitted` is the analysis of `positions` when
    /// the caller already has it (the batch's admission memo); see
    /// [`EngineBuilder::core`].
    pub(crate) fn build_canonical(
        mut self,
        positions: Vec<Point>,
        admitted: Option<RoundAnalysis>,
        mut trace: Trace,
    ) -> Engine {
        let n = positions.len();
        // Without byzantine robots the vector stays empty: `stage_moves`
        // and `is_correct` read a missing entry as "not byzantine".
        let mut byzantine: Vec<Option<Box<dyn ByzantinePolicy>>> = Vec::new();
        if !self.byzantine.is_empty() {
            byzantine.resize_with(n, || None);
            for (robot, policy) in std::mem::take(&mut self.byzantine) {
                assert!(robot < n, "byzantine robot index {robot} out of range");
                byzantine[robot] = Some(policy);
            }
        }
        let position_log = if self.record_positions {
            vec![positions.clone()]
        } else {
            Vec::new()
        };
        let record_positions = self.record_positions;
        let obs = self.obs.take();
        trace.set_capacity(self.trace_capacity);
        let (core, scratch) = self.core(&positions, admitted);
        Engine {
            positions,
            alive: vec![true; n],
            byzantine,
            round: 0,
            core,
            position_log,
            record_positions,
            trace,
            violations: Vec::new(),
            scratch,
            last_record: RoundRecord::default(),
            obs,
        }
    }

    /// The one [`StepCore`] constructor of all three drivers, over the
    /// canonical initial `positions`: recycles the parts (a recycled cache
    /// must behave exactly like a fresh one — stale memos or warm-start
    /// hints would leak one run's state into the next — so it is reset,
    /// keeping only heap capacity) and runs the bivalent pre-check through
    /// the cache, so round 0 analyses the same configuration as a memo hit
    /// instead of classifying a throwaway copy cold. An `admitted` analysis
    /// is seeded into the cache in place of that computation: a reset
    /// cache computes with no warm-start hint, so seeding the value it
    /// would have produced is indistinguishable from computing it.
    ///
    /// # Panics
    ///
    /// Panics if no algorithm was set.
    pub(crate) fn core(
        self,
        positions: &[Point],
        admitted: Option<RoundAnalysis>,
    ) -> (StepCore, Scratch) {
        let algorithm = self.algorithm.expect("algorithm is required");
        let EngineParts {
            mut scratch,
            mut analysis_cache,
            mut canon_order,
        } = self.recycled.unwrap_or_default();
        canon_order.clear();
        analysis_cache.reset();
        let analysis = match admitted {
            Some(analysis) => {
                analysis_cache.seed(positions, analysis);
                analysis
            }
            None => {
                scratch.config.copy_from_slice(positions);
                analysis_cache.analyse(&scratch.config, self.tol)
            }
        };
        let core = StepCore {
            algorithm,
            scheduler: self.scheduler,
            crash_plan: self.crash_plan,
            motion: self.motion,
            frame_source: FrameSource::new(self.frames),
            tol: self.tol,
            delta: self.delta,
            check_invariants: self.check_invariants,
            started_bivalent: analysis.analysis.class == Class::Bivalent,
            incremental: self.incremental,
            pending_dirty: Vec::new(),
            canon_order,
            analysis_cache,
        };
        (core, scratch)
    }
}

/// The ATOM-model simulation engine.
///
/// # Example
///
/// ```
/// use gather_sim::prelude::*;
/// use gather_geom::{Point, Tol};
///
/// struct Stay;
/// impl Algorithm for Stay {
///     fn name(&self) -> &'static str { "stay" }
///     fn destination(&self, snap: &Snapshot) -> Point { snap.me() }
/// }
///
/// let mut engine = Engine::builder(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)])
///     .algorithm(Stay)
///     .build();
/// let outcome = engine.run(10);
/// assert!(!outcome.gathered()); // nobody moves, nobody gathers
/// assert_eq!(engine.round(), 10);
/// ```
pub struct Engine {
    pub(crate) positions: Vec<Point>,
    alive: Vec<bool>,
    /// Empty unless the builder set a byzantine robot; a missing entry
    /// means "not byzantine".
    byzantine: Vec<Option<Box<dyn ByzantinePolicy>>>,
    round: u64,
    core: StepCore,
    position_log: Vec<Vec<Point>>,
    record_positions: bool,
    pub(crate) trace: Trace,
    pub(crate) violations: Vec<String>,
    /// The arena [`Engine::step`] lends to [`Engine::step_in`]; left empty
    /// in a batch lane, which steps in its batch's shared arena.
    scratch: Scratch,
    last_record: RoundRecord,
    obs: Option<EngineObs>,
}

impl Engine {
    /// Starts building an engine over the given initial robot positions.
    pub fn builder(initial: Vec<Point>) -> EngineBuilder {
        EngineBuilder {
            initial,
            algorithm: None,
            byzantine: Vec::new(),
            scheduler: Box::new(EveryRobot),
            crash_plan: Box::new(NoCrashes),
            motion: Box::new(FullMotion),
            frames: FramePolicy::default(),
            tol: Tol::default(),
            delta: 0.01,
            record_positions: false,
            check_invariants: true,
            incremental: true,
            trace_capacity: None,
            recycled: None,
            obs: None,
        }
    }

    /// Retires the engine and hands back its reusable buffers for the next
    /// engine to [`EngineBuilder::recycle`].
    pub fn into_parts(self) -> EngineParts {
        EngineParts {
            scratch: self.scratch,
            analysis_cache: self.core.analysis_cache,
            canon_order: self.core.canon_order,
        }
    }

    /// Current round index (number of completed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current (canonical) robot positions, indexed by robot.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Liveness flags, indexed by robot.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Number of live robots (crashed excluded; byzantine robots count as
    /// live here — they do keep acting).
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Is robot `i` correct (neither crashed nor byzantine)?
    pub fn is_correct(&self, i: usize) -> bool {
        is_correct(&self.alive, &self.byzantine, i)
    }

    /// Number of correct robots.
    pub fn correct_count(&self) -> usize {
        (0..self.alive.len())
            .filter(|i| self.is_correct(*i))
            .count()
    }

    /// The current configuration (all robots, crashed included).
    pub fn configuration(&self) -> Configuration {
        Configuration::new(self.positions.clone())
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Invariant violations detected so far (empty in a correct run).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The recorded per-round positions (initial positions first), when
    /// built with `record_positions(true)`; empty otherwise.
    pub fn position_log(&self) -> &[Vec<Point>] {
        &self.position_log
    }

    /// Is the `GATHERED` predicate (Definition 9) true right now?
    ///
    /// All live robots occupy one location *and* the algorithm, applied to
    /// the full configuration (crashed robots included), does not instruct
    /// that location to move.
    pub fn is_gathered(&mut self) -> bool {
        let mut scratch = std::mem::take(&mut self.scratch);
        let gathered = self.gathered(&mut scratch).is_some();
        self.scratch = scratch;
        gathered
    }

    /// The gathering location when [`Engine::is_gathered`] holds.
    fn gathered(&mut self, scratch: &mut Scratch) -> Option<Point> {
        let (alive, byzantine) = (&self.alive, &self.byzantine);
        self.core.gathered(
            &self.positions,
            |i| is_correct(alive, byzantine, i),
            scratch,
        )
    }

    /// The run loop's termination check before each round, in `scratch`:
    /// the outcome when the `GATHERED` predicate holds or `max_rounds`
    /// rounds have executed, `None` while the run goes on.
    pub(crate) fn outcome(&mut self, max_rounds: u64, scratch: &mut Scratch) -> Option<RunOutcome> {
        if let Some(point) = self.gathered(scratch) {
            Some(RunOutcome::Gathered {
                round: self.round,
                point,
            })
        } else if self.round >= max_rounds {
            Some(RunOutcome::RoundLimit { rounds: self.round })
        } else {
            None
        }
    }

    /// Cumulative analysis-cache counters `(computed, hits, dirty_skips)`.
    /// `dirty_skips` counts the hits served by an empty dirty set on the
    /// incremental path (a subset of `hits`; always `0` on the reference
    /// path).
    pub fn analysis_cache_stats(&self) -> (u64, u64, u64) {
        (
            self.core.analysis_cache.computed(),
            self.core.analysis_cache.hits(),
            self.core.analysis_cache.dirty_skips(),
        )
    }

    /// The attached observability handle, when one was set with
    /// [`EngineBuilder::observe`] — totals, per-round span ring and JSONL
    /// export live there.
    pub fn observability(&self) -> Option<&EngineObs> {
        self.obs.as_ref()
    }

    /// Accumulated per-phase nanoseconds across all executed rounds, when
    /// an *enabled* observability handle is attached; `None` otherwise
    /// (absent or disabled instrumentation), so metrics built from an
    /// untimed run serialize without phase columns and stay byte-identical
    /// to the pre-observability format.
    pub fn phase_nanos(&self) -> Option<PhaseNanos> {
        self.obs
            .as_ref()
            .filter(|o| o.is_enabled())
            .map(|o| o.totals())
    }

    /// Detaches and returns the observability handle, so callers can keep
    /// the collected spans after the engine (or its recycled parts) moves
    /// on. Subsequent rounds run uninstrumented.
    pub fn take_observability(&mut self) -> Option<EngineObs> {
        self.obs.take()
    }

    /// Executes one round and returns its record (borrowed from the
    /// engine; also appended to the [`Trace`]).
    pub fn step(&mut self) -> &RoundRecord {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.step_in(&mut scratch);
        self.scratch = scratch;
        &self.last_record
    }

    /// Executes one round in the lent `scratch` arena: the one FSYNC/SSYNC
    /// stage sequence, shared by [`Engine::step`], [`Engine::run`] and the
    /// batch lanes.
    pub(crate) fn step_in(&mut self, scratch: &mut Scratch) {
        let window = self.core.open_round(self.round);
        // Phase attribution. With instrumentation absent or disabled the
        // timer holds no `Instant` and every lap below is one branch — the
        // whole disabled cost of the round, keeping the ≤2% overhead
        // budget and the zero-allocation audit intact (laps neither
        // allocate nor format).
        let timing = self.obs.as_ref().is_some_and(|o| o.is_enabled());
        let mut timer = PhaseTimer::start(timing);
        let solver_nanos_before = if timing { weiszfeld_nanos() } else { 0 };
        scratch.config.copy_from_slice(&self.positions);
        timer.lap(Phase::Snapshot);
        // The single shared analysis of the start-of-round configuration —
        // every activated robot LOOKs at exactly this configuration (ATOM),
        // so one classification serves them all.
        let (shared, class) = self.core.stage_classify(scratch);
        timer.lap(Phase::Classify);
        self.core.stage_distinct(scratch);
        timer.lap(Phase::Snapshot);

        // 1. Crashes.
        self.core
            .stage_crashes(self.round, &mut self.alive, scratch);

        // 2. Activation.
        self.core.stage_activate(self.round, &self.alive, scratch);

        // 3. Look–Compute–Move for every activated robot, from the same
        //    start-of-round configuration (ATOM atomicity).
        let travel = self.core.stage_moves(
            self.round,
            &self.positions,
            &mut self.byzantine,
            &shared,
            scratch,
        );

        // 4. Simultaneous application + canonicalisation (into the scratch
        //    output buffer, then swapped with the engine's position vector —
        //    last round's positions become next round's buffer).
        self.core.stage_apply(&self.positions, scratch);
        std::mem::swap(&mut self.positions, &mut scratch.canon_out);

        if self.record_positions {
            self.position_log.push(self.positions.clone());
        }
        timer.lap(Phase::Move);

        // 5. Invariant audit.
        if self.core.check_invariants {
            self.core.stage_audits(
                self.round,
                &self.positions,
                &shared,
                scratch,
                &mut timer,
                &mut self.violations,
            );
        }
        timer.lap(Phase::Invariants);

        self.core.close_round(
            window,
            class,
            travel,
            scratch,
            &mut self.last_record,
            &mut self.trace,
        );
        if timing {
            // Carve the solver's own wall time (thread-local counter in
            // gather-geom) out of the classification laps it ran inside
            // (the round's analysis and the audits' post-move one);
            // `transfer` clamps, so classify can never go negative. Then
            // bank the round.
            timer.transfer(
                Phase::Classify,
                Phase::Weiszfeld,
                weiszfeld_nanos() - solver_nanos_before,
            );
            let nanos = timer.finish();
            if let Some(obs) = self.obs.as_mut() {
                obs.record_round(self.round, nanos);
            }
        }
        self.round += 1;
    }

    /// Runs until the `GATHERED` predicate holds or `max_rounds` rounds
    /// have executed.
    pub fn run(&mut self, max_rounds: u64) -> RunOutcome {
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = loop {
            if let Some(outcome) = self.outcome(max_rounds, &mut scratch) {
                break outcome;
            }
            self.step_in(&mut scratch);
        };
        self.scratch = scratch;
        outcome
    }
}

/// Is robot `i` correct: alive and not byzantine (`byzantine` may be
/// shorter than `alive`; a missing entry means "not byzantine").
fn is_correct(alive: &[bool], byzantine: &[Option<Box<dyn ByzantinePolicy>>], i: usize) -> bool {
    alive[i] && byzantine.get(i).is_none_or(Option::is_none)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashAtRounds;
    use crate::motion::AlwaysDelta;
    use crate::scheduler::SequentialSingle;
    use gather_config::classify;

    /// Moves to the centroid of the observed configuration. Equivariant,
    /// oblivious — a convergence (not gathering) rule, fine for engine
    /// mechanics tests.
    struct GoToCentroid;
    impl Algorithm for GoToCentroid {
        fn name(&self) -> &'static str {
            "centroid"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            gather_geom::centroid(snap.config().points())
        }
    }

    struct Stay;
    impl Algorithm for Stay {
        fn name(&self) -> &'static str {
            "stay"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            snap.me()
        }
    }

    fn triangle() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 2.0),
        ]
    }

    #[test]
    fn centroid_rule_converges_under_full_sync() {
        let mut e = Engine::builder(triangle())
            .algorithm(GoToCentroid)
            .check_invariants(false)
            .build();
        let outcome = e.run(500);
        assert!(outcome.gathered(), "outcome: {outcome:?}");
    }

    #[test]
    fn stay_rule_never_gathers_but_runs_to_limit() {
        let mut e = Engine::builder(triangle()).algorithm(Stay).build();
        let outcome = e.run(25);
        assert_eq!(outcome, RunOutcome::RoundLimit { rounds: 25 });
        assert_eq!(e.trace().len(), 25);
    }

    #[test]
    fn already_gathered_start_detects_immediately() {
        let mut e = Engine::builder(vec![Point::new(1.0, 1.0); 4])
            .algorithm(Stay)
            .build();
        let outcome = e.run(10);
        assert!(matches!(outcome, RunOutcome::Gathered { round: 0, .. }));
    }

    #[test]
    fn crashed_robots_do_not_move_but_stay_visible() {
        let mut e = Engine::builder(triangle())
            .algorithm(GoToCentroid)
            .crash_plan(CrashAtRounds::at_start([0]))
            .check_invariants(false)
            .build();
        let before = e.positions()[0];
        let outcome = e.run(800);
        assert_eq!(e.positions()[0], before, "crashed robot moved");
        assert_eq!(e.live_count(), 2);
        // Live robots gathered even though the crashed one is elsewhere?
        // The centroid keeps shifting as live robots approach it; they end
        // up within snap of each other eventually… not guaranteed exactly:
        // accept either outcome but require *live* agreement if gathered.
        if let RunOutcome::Gathered { point, .. } = outcome {
            for (p, a) in e.positions().iter().zip(e.alive()) {
                if *a {
                    assert!(p.within(point, 1e-5));
                }
            }
        }
    }

    #[test]
    fn delta_floor_guarantees_progress_under_stingy_adversary() {
        let mut e = Engine::builder(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .algorithm(GoToCentroid)
        .motion(AlwaysDelta)
        .delta(0.5)
        .check_invariants(false)
        .build();
        let r = e.step();
        assert!(r.travel > 0.0, "no progress under AlwaysDelta");
    }

    #[test]
    fn sequential_scheduler_still_converges() {
        let mut e = Engine::builder(triangle())
            .algorithm(GoToCentroid)
            .scheduler(SequentialSingle::new())
            .check_invariants(false)
            .build();
        let outcome = e.run(5_000);
        assert!(outcome.gathered(), "outcome: {outcome:?}");
    }

    #[test]
    fn trace_records_classes_and_activations() {
        let mut e = Engine::builder(triangle())
            .algorithm(Stay)
            .check_invariants(false)
            .build();
        e.step();
        let rec = &e.trace().records()[0];
        assert_eq!(rec.round, 0);
        assert_eq!(rec.activated, vec![0, 1, 2]);
        assert!(rec.crashed.is_empty());
        assert_eq!(rec.distinct, 3);
    }

    #[test]
    fn stay_everywhere_violates_wait_freeness_audit() {
        let mut e = Engine::builder(triangle()).algorithm(Stay).build();
        e.step();
        assert!(
            !e.violations().is_empty(),
            "Stay tells every location to stay; the audit must fire"
        );
    }

    #[test]
    fn centroid_passes_wait_freeness_audit() {
        // Until robots coincide, the centroid differs from every corner…
        let mut e = Engine::builder(triangle()).algorithm(GoToCentroid).build();
        e.step();
        assert!(e.violations().is_empty(), "{:?}", e.violations());
    }

    #[test]
    #[should_panic(expected = "algorithm is required")]
    fn builder_requires_algorithm() {
        let _ = Engine::builder(triangle()).build();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn builder_rejects_empty_configuration() {
        let _ = Engine::builder(vec![]).algorithm(Stay).build();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_nonpositive_delta() {
        let _ = Engine::builder(triangle()).algorithm(Stay).delta(0.0);
    }

    #[test]
    fn outcome_accessors() {
        let g = RunOutcome::Gathered {
            round: 7,
            point: Point::ORIGIN,
        };
        assert!(g.gathered());
        assert_eq!(g.rounds(), 7);
        let l = RunOutcome::RoundLimit { rounds: 100 };
        assert!(!l.gathered());
        assert_eq!(l.rounds(), 100);
    }

    /// Consumes the snapshot's attached analysis when present, classifying
    /// for itself otherwise — the same contract as the real algorithm.
    struct ClassTarget;
    impl Algorithm for ClassTarget {
        fn name(&self) -> &'static str {
            "class-target"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            let analysis = match snap.analysis() {
                Some(a) => *a,
                None => classify(snap.config(), Tol::default()),
            };
            analysis.target.unwrap_or(snap.me())
        }
    }

    /// A 32-robot scatter (deterministic spiral, far from collinear).
    fn spiral(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let th = 0.7 * i as f64;
                let r = 1.0 + 0.3 * i as f64;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect()
    }

    #[test]
    fn shared_analysis_classifies_at_most_twice_per_round() {
        // The acceptance bound of the shared pipeline: one classification
        // for the round's shared analysis + at most one for the post-move
        // audit, independent of the robot count — on the default path and
        // on the full-recompute reference, which must agree on every
        // record and on every cache counter but `dirty_skips`.
        let run = |incremental: bool| {
            let mut e = Engine::builder(spiral(32))
                .algorithm(ClassTarget)
                .incremental(incremental)
                .build();
            let mut records = Vec::new();
            for _ in 0..20 {
                let rec = e.step();
                assert!(
                    rec.classifications <= 2,
                    "round {} used {} classifications (n = 32, incremental {incremental})",
                    rec.round,
                    rec.classifications
                );
                records.push(rec.clone());
            }
            (records, e.analysis_cache_stats())
        };
        let (records, (computed, hits, _)) = run(true);
        let (ref_records, (ref_computed, ref_hits, ref_dirty_skips)) = run(false);
        assert!(computed > 0);
        assert!(hits > 0, "audit-then-step reuse never hit the cache");
        assert_eq!(ref_dirty_skips, 0, "reference path never dirty-skips");
        assert_eq!(
            (records, computed, hits),
            (ref_records, ref_computed, ref_hits)
        );
    }

    #[test]
    fn recycled_engine_is_bit_identical_to_fresh() {
        let build = |parts: Option<EngineParts>| {
            let mut b = Engine::builder(spiral(10))
                .algorithm(ClassTarget)
                .frames(FramePolicy::GlobalFrame);
            if let Some(p) = parts {
                b = b.recycle(p);
            }
            b.build()
        };
        let run = |mut e: Engine| {
            let outcome = e.run(60);
            let metrics = crate::metrics::summarize(outcome, e.trace());
            let positions = e.positions().to_vec();
            (metrics, positions, e.into_parts())
        };

        let (fresh_metrics, fresh_pos, parts) = run(build(None));
        // Pollute the recycled state with a different run before reuse.
        let mut other = Engine::builder(triangle())
            .algorithm(GoToCentroid)
            .check_invariants(false)
            .recycle(parts)
            .build();
        other.run(50);
        let (recycled_metrics, recycled_pos, _) = run(build(Some(other.into_parts())));
        assert_eq!(fresh_metrics, recycled_metrics);
        assert_eq!(fresh_pos, recycled_pos);
    }

    #[test]
    fn observability_attributes_phase_time_per_round() {
        let mut e = Engine::builder(spiral(16))
            .algorithm(ClassTarget)
            .observe(EngineObs::new(8))
            .build();
        for _ in 0..12 {
            e.step();
        }
        let totals = e.phase_nanos().expect("enabled obs yields totals");
        assert!(totals.total() > 0, "rounds took time");
        assert!(
            totals.get(Phase::Classify) + totals.get(Phase::Weiszfeld) > 0,
            "classification is on the timed path"
        );
        let obs = e.observability().expect("handle attached");
        assert_eq!(obs.rounds().len(), 8, "ring capped at capacity");
        assert_eq!(obs.rounds().dropped(), 4);
        let rounds: Vec<u64> = obs.rounds().iter().map(|r| r.round).collect();
        assert_eq!(rounds, (4..12).collect::<Vec<u64>>());
    }

    #[test]
    fn disabled_observability_times_nothing() {
        let mut e = Engine::builder(spiral(8))
            .algorithm(ClassTarget)
            .observe(EngineObs::disabled())
            .build();
        e.step();
        assert!(e.phase_nanos().is_none(), "disabled handle reports None");
        let obs = e.observability().expect("handle still attached");
        assert_eq!(obs.totals(), PhaseNanos::default());
        assert!(obs.rounds().is_empty());
        // And an untimed engine has no handle at all.
        let mut plain = Engine::builder(spiral(8)).algorithm(ClassTarget).build();
        plain.step();
        assert!(plain.observability().is_none());
        assert!(plain.phase_nanos().is_none());
    }

    #[test]
    fn observability_does_not_change_the_run() {
        let run = |obs: Option<EngineObs>| {
            let mut b = Engine::builder(spiral(12))
                .algorithm(ClassTarget)
                .frames(FramePolicy::GlobalFrame);
            if let Some(obs) = obs {
                b = b.observe(obs);
            }
            let mut e = b.build();
            for _ in 0..40 {
                e.step();
            }
            (
                e.positions().to_vec(),
                crate::metrics::summarize(RunOutcome::RoundLimit { rounds: 40 }, e.trace()),
            )
        };
        assert_eq!(run(None), run(Some(EngineObs::new(64))));
        assert_eq!(run(None), run(Some(EngineObs::disabled())));
    }

    #[test]
    fn incremental_path_is_bit_identical_to_reference() {
        // Same run, incremental dirty tracking on vs off: identical
        // position trajectories, traces and violations. Crashes freeze
        // robots (exercising the dirty set shrinking), the sequential
        // scheduler keeps most robots static every round (exercising the
        // patch path), and audits exercise the post-move analyse.
        let run = |incremental: bool| {
            let mut e = Engine::builder(spiral(14))
                .algorithm(ClassTarget)
                .frames(FramePolicy::GlobalFrame)
                .scheduler(SequentialSingle::new())
                .crash_plan(CrashAtRounds::at_start([2, 9]))
                .incremental(incremental)
                .build();
            let mut log = Vec::new();
            for _ in 0..80 {
                let rec = e.step().clone();
                log.push((e.positions().to_vec(), rec));
            }
            (log, e.violations().to_vec())
        };
        let (reference, ref_viol) = run(false);
        let (incremental, inc_viol) = run(true);
        for (r, i) in reference.iter().zip(&incremental) {
            assert_eq!(r.1.round, i.1.round);
            assert_eq!(r.0, i.0, "positions diverged at round {}", r.1.round);
            assert_eq!(r.1, i.1, "record diverged at round {}", r.1.round);
        }
        assert_eq!(ref_viol, inc_viol);
    }

    #[test]
    fn incremental_static_rounds_skip_classification() {
        // Nobody ever moves under Stay, so after the first round every
        // shared analysis is served by the empty dirty set.
        let mut e = Engine::builder(spiral(16))
            .algorithm(Stay)
            .check_invariants(false)
            .build();
        for _ in 0..10 {
            e.step();
        }
        let (computed, _, dirty_skips) = e.analysis_cache_stats();
        assert_eq!(computed, 1, "only the builder pre-check computes");
        assert!(dirty_skips >= 9, "static rounds must dirty-skip");
    }

    #[test]
    fn frames_do_not_change_centroid_behaviour() {
        // Same run under global frames and random frames: same outcome
        // (the centroid rule is equivariant).
        let run = |frames: FramePolicy| {
            let mut e = Engine::builder(triangle())
                .algorithm(GoToCentroid)
                .frames(frames)
                .check_invariants(false)
                .build();
            e.run(500)
        };
        let a = run(FramePolicy::GlobalFrame);
        let b = run(FramePolicy::RandomPerActivation { seed: 3 });
        assert_eq!(a.gathered(), b.gathered());
    }
}
