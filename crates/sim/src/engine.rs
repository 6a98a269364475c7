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
    canonicalize_into, canonicalize_sorted_into, classify, classify_invocations, lex_order_into,
    lex_order_update, AnalysisCache, CanonScratch, Class, Configuration, RoundAnalysis,
};
use gather_geom::soa::diff_indices;
use gather_geom::{weiszfeld_iterations, weiszfeld_nanos, Point, Tol};
use gather_obs::{EngineObs, Phase, PhaseNanos, PhaseTimer};

/// Reusable working memory for the round loop. Cleared and refilled every
/// round instead of re-`collect`ed, so the steady state allocates nothing.
/// `std::mem::take`n at the top of [`Engine::step`] (sidestepping borrow
/// conflicts between the buffers and the engine's trait objects) and put
/// back before returning.
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
/// [`Engine`] recomposes the stages — in the exact order and with the
/// exact operations of the original monolithic loop — around its own
/// position log, trace and phase timers. The lockstep
/// [`crate::batch::BatchEngine`] drives the *same* stage code over
/// scenario-major columnar state, which is what makes batch execution
/// bit-identical to sequential runs by construction rather than by
/// re-implementation.
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
    pub(crate) shared_analysis: bool,
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
    /// until the first apply builds it.
    pub(crate) canon_order: Vec<usize>,
    pub(crate) analysis_cache: AnalysisCache,
}

impl StepCore {
    /// The single shared analysis of the start-of-round configuration
    /// (already loaded into `scratch.config`) and the round's class. `None`
    /// analysis in the ablation mode: each consumer then classifies for
    /// itself, as the seed did.
    pub(crate) fn stage_classify(&mut self, scratch: &Scratch) -> (Option<RoundAnalysis>, Class) {
        let shared: Option<RoundAnalysis> = if self.shared_analysis {
            Some(self.analyse_shared(&scratch.config))
        } else {
            None
        };
        let class = match &shared {
            Some(ra) => ra.analysis.class,
            None => classify(&scratch.config, self.tol).class,
        };
        (shared, class)
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
        if self.incremental && self.shared_analysis {
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
    /// attached to every robot snapshot. `byzantine` may be shorter than
    /// the robot count (the batch and async paths pass an empty slice:
    /// they never carry byzantine robots); missing entries mean "not
    /// byzantine".
    pub(crate) fn stage_moves(
        &mut self,
        round: u64,
        positions: &[Point],
        byzantine: &mut [Option<Box<dyn ByzantinePolicy>>],
        shared: Option<&RoundAnalysis>,
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
                let snap = match shared {
                    Some(ra) => Snapshot::with_analysis_borrowed(
                        &scratch.local,
                        local_me,
                        ra.map_target(|t| frame.apply(t)).analysis,
                    ),
                    None => Snapshot::borrowed(&scratch.local, local_me),
                };
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
    /// canonicalises through it, repairs it again for the robots
    /// canonicalisation moved, and records the diff of `prev` against the
    /// canonical output as the analysis cache's pending dirty set for the
    /// next `analyse_dirty` call.
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
        // With the shared pipeline on, `stage_classify` consumed the
        // previous round's pending set earlier this round; overwriting an
        // unconsumed one would desynchronise the cache memo.
        debug_assert!(!self.shared_analysis || self.pending_dirty.is_empty());
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
            lex_order_update(canon_out, dirty, order, canon);
            diff_indices(prev, canon_out, pending);
        }
    }

    /// Invariant-audit stage over the completed round: wait-freeness on the
    /// start-of-round configuration (still in `scratch.config`), then the
    /// never-enter-`B` check on the post-move `post` (which overwrites
    /// `scratch.config` — the start-of-round one is no longer needed).
    pub(crate) fn stage_audits(
        &mut self,
        round: u64,
        post: &[Point],
        shared: Option<&RoundAnalysis>,
        scratch: &mut Scratch,
        violations: &mut Vec<String>,
    ) {
        self.audit_wait_freeness(
            round,
            &scratch.config,
            &scratch.distinct,
            shared,
            violations,
        );
        // The wait-freeness audit needed the start-of-round
        // configuration; recycle its buffer for the post-move one.
        scratch.config.copy_from_slice(post);
        self.audit_never_bivalent(round, &scratch.config, violations);
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
        let snap = if self.shared_analysis {
            let ra = self.analyse_shared(&scratch.config);
            Snapshot::with_analysis_borrowed(&scratch.config, at, ra.analysis)
        } else {
            Snapshot::borrowed(&scratch.config, at)
        };
        self.algorithm.destination(&snap)
    }

    /// The `GATHERED` predicate (Definition 9) over borrowed state: all
    /// robots with a `true` mask entry occupy one location *and* the
    /// algorithm, applied to the full configuration, does not instruct
    /// that location to move. Returns the gathering location when it
    /// holds. The mask marks the *correct* robots (live and
    /// non-byzantine); a batch lane's mask is its alive column.
    pub(crate) fn gathered_point(
        &mut self,
        positions: &[Point],
        correct: &[bool],
        scratch: &mut Scratch,
    ) -> Option<Point> {
        let first = positions
            .iter()
            .zip(correct)
            .find(|(_, c)| **c)
            .map(|(p, _)| *p)?;
        let all_together = positions
            .iter()
            .zip(correct)
            .filter(|(_, c)| **c)
            .all(|(p, _)| p.within(first, self.tol.snap));
        if !all_together {
            return None;
        }
        let dest = self.destination_at(positions, first, scratch);
        dest.within(first, self.tol.snap).then_some(first)
    }

    /// Lemma 5.1 audit: at most one occupied location may be told to stay.
    ///
    /// Destinations are evaluated per distinct location in the global
    /// frame; by algorithm equivariance this matches what any robot at that
    /// location would compute in its own frame.
    fn audit_wait_freeness(
        &mut self,
        round: u64,
        config: &Configuration,
        distinct: &[(Point, usize)],
        shared: Option<&RoundAnalysis>,
        violations: &mut Vec<String>,
    ) {
        if distinct.len() <= 1 {
            return; // gathered — `Configuration::is_gathered` would allocate
        }
        // The bivalent class is outside the algorithm's contract.
        let class = match shared {
            Some(ra) => ra.analysis.class,
            None => classify(config, self.tol).class,
        };
        if class == Class::Bivalent {
            return;
        }
        let mut staying = 0usize;
        for (p, _) in distinct {
            // The audit evaluates in the global frame, so the shared
            // analysis applies verbatim (identity transform) and the
            // configuration is lent, not cloned, per location.
            let snap = match shared {
                Some(ra) => Snapshot::with_analysis_borrowed(config, *p, ra.analysis),
                None => Snapshot::borrowed(config, *p),
            };
            let dest = self.algorithm.destination(&snap);
            // Mirrors the engine's own "do not move" rule exactly.
            if dest.within(*p, self.tol.abs) {
                staying += 1;
            }
        }
        if staying > 1 {
            violations.push(format!(
                "round {round}: wait-freeness violated: {staying} locations told to stay in {config}"
            ));
        }
    }

    /// Nothing may ever transition *into* the bivalent class (Lemmas 5.6
    /// C1, 5.7) unless the execution started there. `post` is the
    /// post-move configuration of the round being audited.
    fn audit_never_bivalent(
        &mut self,
        round: u64,
        post: &Configuration,
        violations: &mut Vec<String>,
    ) {
        if self.started_bivalent {
            return;
        }
        // With the shared pipeline this analysis is memoized and becomes
        // the next round's start-of-round cache hit, so the audit costs no
        // extra steady-state classification.
        let class = if self.shared_analysis {
            self.analyse_shared(post).analysis.class
        } else {
            classify(post, self.tol).class
        };
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
pub struct EngineBuilder {
    initial: Vec<Point>,
    algorithm: Option<Box<dyn Algorithm>>,
    byzantine: Vec<(usize, Box<dyn ByzantinePolicy>)>,
    scheduler: Box<dyn Scheduler>,
    crash_plan: Box<dyn CrashPlan>,
    motion: Box<dyn MotionAdversary>,
    frames: FramePolicy,
    tol: Tol,
    delta: f64,
    record_positions: bool,
    check_invariants: bool,
    shared_analysis: bool,
    warm_start: bool,
    incremental: bool,
    reuse_buffers: bool,
    trace_capacity: Option<usize>,
    position_log_capacity: Option<usize>,
    recycled: Option<EngineParts>,
    obs: Option<EngineObs>,
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

    /// Enables or disables the shared per-round analysis (default: on).
    ///
    /// When on, the engine classifies the start-of-round configuration
    /// **once**, memoizes it across unchanged rounds, and attaches the
    /// result (target frame-transformed) to every activated robot's
    /// snapshot; algorithms and audits consume the shared result instead of
    /// re-running `classify` per robot. Sound in the ATOM model because all
    /// activated robots LOOK at the same configuration and the analysis is
    /// a pure function of it. Off reproduces the naive per-robot
    /// classification — kept for the B1 ablation that quantifies the
    /// speedup.
    pub fn shared_analysis(mut self, on: bool) -> Self {
        self.shared_analysis = on;
        self
    }

    /// Enables or disables warm-starting the Weiszfeld iteration inside the
    /// shared analysis from the previous round's Weber point (default: on).
    /// Lemma 3.2 keeps the Weber point invariant while robots move toward
    /// it, so the previous target is a near-perfect initial iterate; the
    /// cold path exists for the B1 ablation quantifying the saving.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Enables or disables incremental dirty-tracked re-analysis
    /// (default: off — the full-recompute reference path).
    ///
    /// When on, the engine tracks which robots moved each round (a bitwise
    /// positional diff) and patches the previous round's work instead of
    /// rebuilding it: canonicalisation only re-clusters dirty robots when
    /// the previous output was snap-separated, the distinct multiset
    /// `U(C)` is maintained by per-index edits inside the analysis cache,
    /// rounds where no robot moved skip classification entirely, and the
    /// Weiszfeld solve keeps its warm start. Crashed robots stop moving
    /// and so drop out of the dirty set on their own — no special casing.
    /// Bit-identical to the reference path by construction; the
    /// `incremental_analysis` property suite and `b11_largen` enforce it.
    /// See DESIGN.md §15 for the cacheability invariants.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Enables or disables round-loop scratch-buffer reuse (default: on).
    /// When off, every round starts from fresh buffers — the allocation
    /// behaviour of the pre-scratch engine, kept for the B1 ablation
    /// (clone vs scratch).
    pub fn reuse_buffers(mut self, on: bool) -> Self {
        self.reuse_buffers = on;
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

    /// Bounds how many per-round position snapshots the position log keeps
    /// (a ring buffer over the most recent rounds; default: unbounded).
    /// Only meaningful together with [`EngineBuilder::record_positions`].
    ///
    /// # Panics
    ///
    /// `build` panics if `capacity == 0`.
    pub fn position_log_capacity(mut self, capacity: usize) -> Self {
        self.position_log_capacity = Some(capacity);
        self
    }

    /// Records the full position log (one snapshot per round) for
    /// visualisation and post-hoc analysis (default: off — memory grows
    /// linearly with rounds × robots unless a capacity bound is set).
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
    pub fn build(self) -> Engine {
        let algorithm = self
            .algorithm
            .expect("EngineBuilder: algorithm is required");
        assert!(
            !self.initial.is_empty(),
            "EngineBuilder: initial configuration must be non-empty"
        );
        let positions = Configuration::canonical(self.initial, self.tol)
            .points()
            .to_vec();
        let n = positions.len();
        let positions_clone = positions.clone();
        let EngineParts {
            mut scratch,
            mut analysis_cache,
            mut canon_order,
        } = self.recycled.unwrap_or_default();
        canon_order.clear();
        // A recycled cache must behave exactly like a fresh one (stale memos
        // or warm-start hints would leak one run's state into the next);
        // reset keeps only the heap capacity.
        analysis_cache.reset();
        analysis_cache.set_warm_start(self.warm_start);
        scratch.config.copy_from_slice(&positions);
        // The bivalent pre-check goes through the cache when the shared
        // pipeline is on: round 1 analyses the same configuration and hits
        // the memo instead of classifying a throwaway copy cold. The
        // ablation mode keeps the cache untouched (its contract is that
        // per-robot runs never consult it) and classifies directly.
        let started_bivalent = if self.shared_analysis {
            analysis_cache
                .analyse(&scratch.config, self.tol)
                .analysis
                .class
                == Class::Bivalent
        } else {
            classify(&scratch.config, self.tol).class == Class::Bivalent
        };
        let mut byzantine: Vec<Option<Box<dyn ByzantinePolicy>>> = (0..n).map(|_| None).collect();
        for (robot, policy) in self.byzantine {
            assert!(robot < n, "byzantine robot index {robot} out of range");
            byzantine[robot] = Some(policy);
        }
        let mut trace = Trace::new();
        trace.set_capacity(self.trace_capacity);
        if let Some(cap) = self.position_log_capacity {
            assert!(cap > 0, "position-log capacity must be positive");
        }
        Engine {
            positions,
            alive: vec![true; n],
            byzantine,
            round: 0,
            core: StepCore {
                algorithm,
                scheduler: self.scheduler,
                crash_plan: self.crash_plan,
                motion: self.motion,
                frame_source: FrameSource::new(self.frames),
                tol: self.tol,
                delta: self.delta,
                shared_analysis: self.shared_analysis,
                check_invariants: self.check_invariants,
                started_bivalent,
                incremental: self.incremental,
                pending_dirty: Vec::new(),
                canon_order,
                analysis_cache,
            },
            position_log: if self.record_positions {
                vec![positions_clone]
            } else {
                Vec::new()
            },
            record_positions: self.record_positions,
            position_log_capacity: self.position_log_capacity,
            trace,
            violations: Vec::new(),
            reuse_buffers: self.reuse_buffers,
            scratch,
            last_record: RoundRecord::default(),
            obs: self.obs,
        }
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
    positions: Vec<Point>,
    alive: Vec<bool>,
    byzantine: Vec<Option<Box<dyn ByzantinePolicy>>>,
    round: u64,
    core: StepCore,
    position_log: Vec<Vec<Point>>,
    record_positions: bool,
    position_log_capacity: Option<usize>,
    trace: Trace,
    violations: Vec<String>,
    reuse_buffers: bool,
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
            shared_analysis: true,
            warm_start: true,
            incremental: false,
            reuse_buffers: true,
            trace_capacity: None,
            position_log_capacity: None,
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
        self.alive[i] && self.byzantine[i].is_none()
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
        let tol = self.core.tol;
        let Some(first) = (0..self.positions.len())
            .find(|i| self.is_correct(*i))
            .map(|i| self.positions[i])
        else {
            return false; // no live robots: vacuous, treated as failure
        };
        let all_together = (0..self.positions.len())
            .filter(|i| self.is_correct(*i))
            .all(|i| self.positions[i].within(first, tol.snap));
        if !all_together {
            return false;
        }
        let dest = self
            .core
            .destination_at(&self.positions, first, &mut self.scratch);
        dest.within(first, tol.snap)
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
        let classify_before = classify_invocations();
        let weiszfeld_before = weiszfeld_iterations();
        let hits_before = self.core.analysis_cache.hits();
        // Phase attribution. With instrumentation absent or disabled the
        // timer holds no `Instant` and every lap below is one branch — the
        // whole disabled cost of the round, keeping the ≤2% overhead
        // budget and the zero-allocation audit intact (laps neither
        // allocate nor format).
        let timing = self.obs.as_ref().is_some_and(|o| o.is_enabled());
        let mut timer = PhaseTimer::start(timing);
        let solver_nanos_before = if timing { weiszfeld_nanos() } else { 0 };
        // The working buffers live outside `self` for the duration of the
        // round so they can be lent to snapshots while the engine's trait
        // objects run. `reuse_buffers(false)` is the ablation reproducing
        // the pre-scratch allocation behaviour: every round starts cold.
        let mut scratch = if self.reuse_buffers {
            std::mem::take(&mut self.scratch)
        } else {
            Scratch::default()
        };
        scratch.config.copy_from_slice(&self.positions);
        timer.lap(Phase::Snapshot);
        // The single shared analysis of the start-of-round configuration —
        // every activated robot LOOKs at exactly this configuration (ATOM),
        // so one classification serves them all.
        let (shared, class) = self.core.stage_classify(&scratch);
        timer.lap(Phase::Classify);
        self.core.stage_distinct(&mut scratch);
        timer.lap(Phase::Snapshot);

        // 1. Crashes.
        self.core
            .stage_crashes(self.round, &mut self.alive, &mut scratch);

        // 2. Activation.
        self.core
            .stage_activate(self.round, &self.alive, &mut scratch);

        // 3. Look–Compute–Move for every activated robot, from the same
        //    start-of-round configuration (ATOM atomicity).
        let travel = self.core.stage_moves(
            self.round,
            &self.positions,
            &mut self.byzantine,
            shared.as_ref(),
            &mut scratch,
        );

        // 4. Simultaneous application + canonicalisation (into the scratch
        //    output buffer, then swapped with the engine's position vector —
        //    last round's positions become next round's buffer).
        self.core.stage_apply(&self.positions, &mut scratch);
        std::mem::swap(&mut self.positions, &mut scratch.canon_out);

        if self.record_positions {
            match self.position_log_capacity {
                Some(cap) if self.position_log.len() >= cap => {
                    self.position_log.rotate_left(1);
                    self.position_log
                        .last_mut()
                        .expect("capacity > 0")
                        .clone_from(&self.positions);
                }
                _ => self.position_log.push(self.positions.clone()),
            }
        }
        timer.lap(Phase::Move);

        // 5. Invariant audit.
        if self.core.check_invariants {
            self.core.stage_audits(
                self.round,
                &self.positions,
                shared.as_ref(),
                &mut scratch,
                &mut self.violations,
            );
        }
        timer.lap(Phase::Invariants);

        let record = &mut self.last_record;
        record.round = self.round;
        record.class = class;
        record.distinct = scratch.distinct.len();
        record.max_mult = scratch.distinct.iter().map(|(_, m)| *m).max().unwrap_or(0);
        record.activated.clone_from(&scratch.activated);
        record.crashed.clone_from(&scratch.crashed_now);
        record.travel = travel;
        record.classifications = classify_invocations() - classify_before;
        record.cache_hits = self.core.analysis_cache.hits() - hits_before;
        record.weiszfeld_iters = weiszfeld_iterations() - weiszfeld_before;
        self.trace.push_cloned(&self.last_record);
        if timing {
            // Carve the solver's own wall time (thread-local counter in
            // gather-geom) out of the classification lap it ran inside;
            // `transfer` clamps, so solver time spent in the audits phase
            // can never drive classify negative. Then bank the round.
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
        if self.reuse_buffers {
            self.scratch = scratch;
        }
        &self.last_record
    }

    /// Runs until the `GATHERED` predicate holds or `max_rounds` rounds
    /// have executed.
    pub fn run(&mut self, max_rounds: u64) -> RunOutcome {
        loop {
            if self.is_gathered() {
                let point = (0..self.positions.len())
                    .find(|i| self.is_correct(*i))
                    .map(|i| self.positions[i])
                    .expect("gathered implies a correct robot");
                return RunOutcome::Gathered {
                    round: self.round,
                    point,
                };
            }
            if self.round >= max_rounds {
                return RunOutcome::RoundLimit { rounds: self.round };
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashAtRounds;
    use crate::motion::AlwaysDelta;
    use crate::scheduler::SequentialSingle;

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
        // audit, independent of the robot count.
        let mut e = Engine::builder(spiral(32)).algorithm(ClassTarget).build();
        for _ in 0..20 {
            let rec = e.step();
            assert!(
                rec.classifications <= 2,
                "round {} used {} classifications (n = 32)",
                rec.round,
                rec.classifications
            );
        }
        let (computed, hits, dirty_skips) = e.analysis_cache_stats();
        assert!(computed > 0);
        assert!(hits > 0, "audit-then-step reuse never hit the cache");
        assert_eq!(dirty_skips, 0, "reference path never dirty-skips");
    }

    #[test]
    fn ablation_mode_classifies_per_robot() {
        // With the shared pipeline off every activated robot classifies for
        // itself (plus the record and the audits) — the O(n) redundancy the
        // refactor removes.
        let mut e = Engine::builder(spiral(32))
            .algorithm(ClassTarget)
            .shared_analysis(false)
            .build();
        let rec = e.step();
        assert!(
            rec.classifications > 32,
            "expected per-robot classification, saw {}",
            rec.classifications
        );
        assert_eq!(e.analysis_cache_stats(), (0, 0, 0));
    }

    #[test]
    fn shared_analysis_does_not_change_the_run() {
        // Same seeds, shared analysis on vs off: identical traces of
        // positions (the analysis is a pure function of the snapshot, so
        // sharing it must be observationally equivalent).
        let run = |shared: bool| {
            let mut e = Engine::builder(spiral(12))
                .algorithm(ClassTarget)
                .frames(FramePolicy::GlobalFrame)
                .shared_analysis(shared)
                .check_invariants(false)
                .build();
            for _ in 0..40 {
                e.step();
            }
            e.positions().to_vec()
        };
        assert_eq!(run(true), run(false));
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
            .incremental(true)
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
