//! The event-driven ASYNC execution engine.
//!
//! Where [`Engine`](crate::engine::Engine) divides time into rounds, this
//! engine divides it into *events* drawn from a binary heap
//! ([`crate::events`]): each robot's Look, Compute-completion and
//! Move-arrival are scheduled at real-valued simulated times, with seeded
//! exponential inter-activation gaps, per-robot speed multipliers and
//! configurable rigidity. The result is the full ASYNC/LCM model of the
//! related literature:
//!
//! * **stale snapshots** — a robot Computes on the configuration it Looked
//!   at, not the configuration at compute time; other robots (and crashes)
//!   may have moved in between;
//! * **non-atomic moves** — under [`Timing::Phased`] a robot's trajectory
//!   is materialised incrementally as other events fire, so observers see
//!   robots mid-flight;
//! * **rigidity control** — [`Rigidity::NonRigid`] lets the adversary stop
//!   any in-flight robot at the next event, subject to the model's minimum
//!   progress `δ`;
//! * **crash interleaving** — a robot can crash between its Look and its
//!   Move; its pending events are tombstoned by a generation counter.
//!
//! The Compute phase reuses `StepCore`'s shared-analysis machinery, so
//! the `AnalysisCache` memo, the incremental dirty-tracked re-analysis and
//! the warm-started Weiszfeld solver carry over from the round-based
//! engine unchanged: when the configuration has not changed since a
//! robot's Look, its snapshot gets the shared analysis (carried into its
//! frame); when it *is* stale, the robot honestly re-classifies its stale
//! view. A tick applies at most once and analyses the result before the
//! next apply, so the pending-dirty protocol (DESIGN.md §15) holds as is.
//!
//! **Degeneracy contract**: with [`Timing::Atomic`], [`Pacing::Lockstep`]
//! and a rigid adversary, every tick pops one batch of all-robot Looks and
//! routes it through the same `StepCore` stages, in the same order and
//! with the same RNG consumption, as [`Engine::step`] — executions are
//! bit-identical to the FSYNC engine (traces, positions, counters). The
//! `async_identity` test suite in `gather-bench` enforces this across all
//! six configuration classes.
//!
//! [`Engine::step`]: crate::engine::Engine::step

use crate::algorithm::Algorithm;
use crate::crash::{CrashPlan, NoCrashes};
use crate::engine::{EngineParts, RunOutcome, Scratch, StepCore};
use crate::events::{EventHeap, EventKind};
use crate::frames::{FramePolicy, FrameSource};
use crate::motion::{apply_motion, FullMotion, MotionAdversary};
use crate::scheduler::EveryRobot;
use crate::snapshot::Snapshot;
use crate::trace::{RoundRecord, Trace};
use gather_config::{Class, Configuration};
use gather_geom::{Point, Similarity, Tol};
use gather_obs::PhaseTimer;
use gather_prng::Rng;

/// How long the Compute and Move phases take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// The whole Look–Compute–Move cycle is atomic at the Look event
    /// (zero-duration Compute and Move) — the ATOM semantics, driven by
    /// the event heap instead of the round counter. With
    /// [`Pacing::Lockstep`] this degenerates to the FSYNC engine exactly;
    /// with [`Pacing::Exponential`] activations interleave one robot at a
    /// time (a sequential/SSYNC-style adversary). The configured motion
    /// adversary applies to each atomic move.
    Atomic,
    /// True ASYNC phases: Compute takes `compute_time` simulated seconds
    /// and the robot then travels at `speed` units/second (scaled by its
    /// per-robot multiplier, see [`AsyncEngineBuilder::speed_skew`]).
    /// Trajectories are materialised event by event, so other robots
    /// observe positions mid-flight; the rigidity setting governs whether
    /// the adversary may interrupt them.
    Phased {
        /// Simulated seconds between a Look and the start of the move.
        compute_time: f64,
        /// Base travel speed in units per simulated second.
        speed: f64,
    },
}

/// How the gap to a robot's next Look is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Every robot Looks again exactly 1.0 simulated seconds after going
    /// idle. All robots start at time 0, so under [`Timing::Atomic`] every
    /// tick is one synchronized all-robot batch (the FSYNC degeneracy).
    Lockstep,
    /// Exponential (Poisson-process) inter-activation gaps with the given
    /// rate, one shared seeded stream: `-ln(1 - u) / rate`. Robots start
    /// at independently drawn offsets, so activations interleave from the
    /// first instant.
    Exponential {
        /// Events per simulated second (must be positive).
        rate: f64,
        /// Seed of the pacing stream.
        seed: u64,
    },
}

/// Whether in-flight moves can be interrupted ([`Timing::Phased`] only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rigidity {
    /// Moves always reach their destination.
    Rigid,
    /// At every event batch the adversary flips a coin per in-flight robot
    /// and may stop it where it currently is — but never before `δ`
    /// progress (the model's minimum-step guarantee; a robot whose whole
    /// segment is shorter than `δ` always arrives).
    NonRigid {
        /// Per-batch stop probability for each in-flight robot.
        stop_prob: f64,
        /// Seed of the interruption stream.
        seed: u64,
    },
}

/// Per-robot execution phase between events.
#[derive(Debug, Clone, Copy)]
enum RobotPhase {
    /// Waiting for its next Look.
    Idle,
    /// Between Look and ComputeDone (holds a stored snapshot).
    Computing,
    /// In flight from `from` to `dest`, departed at `start`, due at
    /// `arrive`; `progressed` is the last materialised point on the raw
    /// segment (travel accounting and interruption both continue from it).
    Moving {
        from: Point,
        dest: Point,
        arrive: f64,
        progressed: Point,
    },
}

/// A robot's stored Look: its local view, its own position in that view,
/// the frame that produced it, and the configuration version observed —
/// the stale-snapshot state the Compute phase consumes.
#[derive(Debug)]
struct LookView {
    local: Configuration,
    me_local: Point,
    frame: Similarity,
    version: u64,
}

impl Default for LookView {
    fn default() -> Self {
        LookView {
            local: Configuration::default(),
            me_local: Point::ORIGIN,
            frame: Similarity::identity(),
            version: u64::MAX,
        }
    }
}

/// Builder for [`AsyncEngine`] (see [`AsyncEngine::builder`]).
pub struct AsyncEngineBuilder {
    initial: Vec<Point>,
    algorithm: Option<Box<dyn Algorithm>>,
    crash_plan: Box<dyn CrashPlan>,
    motion: Box<dyn MotionAdversary>,
    frames: FramePolicy,
    tol: Tol,
    delta: f64,
    timing: Timing,
    pacing: Pacing,
    rigidity: Rigidity,
    speed_skew: f64,
    speed_seed: u64,
    check_invariants: bool,
    trace_capacity: Option<usize>,
    recycled: Option<EngineParts>,
}

impl AsyncEngineBuilder {
    /// Sets the algorithm every robot runs. **Required.**
    pub fn algorithm(mut self, algorithm: impl Algorithm + 'static) -> Self {
        self.algorithm = Some(Box::new(algorithm));
        self
    }

    /// Sets the crash plan (default: [`NoCrashes`]). The plan is consulted
    /// once per tick with the tick index as its round number.
    pub fn crash_plan(mut self, plan: impl CrashPlan + 'static) -> Self {
        self.crash_plan = Box::new(plan);
        self
    }

    /// Sets the motion adversary applied to [`Timing::Atomic`] moves
    /// (default: [`FullMotion`]). Ignored under [`Timing::Phased`], where
    /// the [`Rigidity`] setting plays that role.
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
    /// Panics if `delta <= 0`.
    pub fn delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0, "minimum step delta must be positive");
        self.delta = delta;
        self
    }

    /// Sets the phase timing model (default: [`Timing::Atomic`]).
    ///
    /// # Panics
    ///
    /// Panics on a negative `compute_time` or a non-positive `speed`.
    pub fn timing(mut self, timing: Timing) -> Self {
        if let Timing::Phased {
            compute_time,
            speed,
        } = timing
        {
            assert!(compute_time >= 0.0, "compute_time must be non-negative");
            assert!(speed > 0.0, "speed must be positive");
        }
        self.timing = timing;
        self
    }

    /// Sets the activation pacing (default: [`Pacing::Lockstep`]).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive exponential rate.
    pub fn pacing(mut self, pacing: Pacing) -> Self {
        if let Pacing::Exponential { rate, .. } = pacing {
            assert!(rate > 0.0, "exponential pacing rate must be positive");
        }
        self.pacing = pacing;
        self
    }

    /// Sets the rigidity of in-flight moves (default: [`Rigidity::Rigid`]).
    ///
    /// # Panics
    ///
    /// Panics if `stop_prob` is outside `[0, 1]`.
    pub fn rigidity(mut self, rigidity: Rigidity) -> Self {
        if let Rigidity::NonRigid { stop_prob, .. } = rigidity {
            assert!(
                (0.0..=1.0).contains(&stop_prob),
                "stop_prob must be in [0, 1]"
            );
        }
        self.rigidity = rigidity;
        self
    }

    /// Gives each robot a speed multiplier drawn uniformly from
    /// `[1, 1 + skew)` (default skew `0`: all robots equally fast). Only
    /// meaningful under [`Timing::Phased`]; a skewed swarm has chronically
    /// slow robots whose moves stay in flight across many other events.
    ///
    /// # Panics
    ///
    /// Panics on a negative skew.
    pub fn speed_skew(mut self, skew: f64, seed: u64) -> Self {
        assert!(skew >= 0.0, "speed skew must be non-negative");
        self.speed_skew = skew;
        self.speed_seed = seed;
        self
    }

    /// Enables or disables the per-tick invariant audit (default: on).
    /// Note the wait-freeness audit evaluates the paper's Lemma 5.1 on
    /// *mid-flight* configurations too — outside the ATOM model a reported
    /// violation is a boundary finding, not necessarily a bug.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Bounds how many per-tick records the trace retains (default:
    /// unbounded). Aggregates keep covering the whole run.
    ///
    /// # Panics
    ///
    /// `build` panics if `capacity == 0`.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Seeds the engine with recycled buffers from a retired engine
    /// (either kind — [`AsyncEngine::into_parts`] and
    /// [`crate::engine::Engine::into_parts`] hand back the same
    /// [`EngineParts`]). Observationally invisible, exactly as for the
    /// round-based engine.
    pub fn recycle(mut self, parts: EngineParts) -> Self {
        self.recycled = Some(parts);
        self
    }

    /// Builds the engine and schedules every robot's first Look.
    ///
    /// # Panics
    ///
    /// Panics if no algorithm was set or the initial configuration is
    /// empty.
    pub fn build(self) -> AsyncEngine {
        let algorithm = self
            .algorithm
            .expect("AsyncEngineBuilder: algorithm is required");
        assert!(
            !self.initial.is_empty(),
            "AsyncEngineBuilder: initial configuration must be non-empty"
        );
        let positions = Configuration::canonical(self.initial, self.tol)
            .points()
            .to_vec();
        let n = positions.len();
        let EngineParts {
            mut scratch,
            mut analysis_cache,
            mut canon_order,
        } = self.recycled.unwrap_or_default();
        canon_order.clear();
        // Identical reset-to-fresh contract as the round-based engine.
        analysis_cache.reset();
        scratch.config.copy_from_slice(&positions);
        let started_bivalent = analysis_cache
            .analyse(&scratch.config, self.tol)
            .analysis
            .class
            == Class::Bivalent;
        let mut speeds = vec![1.0; n];
        if self.speed_skew > 0.0 {
            let mut rng = Rng::seed_from_u64(self.speed_seed);
            for s in speeds.iter_mut() {
                *s = 1.0 + self.speed_skew * rng.next_f64();
            }
        }
        let pacing_rng = match self.pacing {
            Pacing::Lockstep => None,
            Pacing::Exponential { seed, .. } => Some(Rng::seed_from_u64(seed)),
        };
        let rigidity_rng = match self.rigidity {
            Rigidity::Rigid => None,
            Rigidity::NonRigid { seed, .. } => Some(Rng::seed_from_u64(seed)),
        };
        // Always a fresh `Trace` — recycled `EngineParts` carry scratch
        // and analysis cache only, so (unlike batch lanes, which recycle
        // retired traces via reset-then-rebound) there is no path for a
        // previous scenario's rounds to leak into this engine's trace.
        let mut trace = Trace::new();
        trace.set_capacity(self.trace_capacity);
        let mut engine = AsyncEngine {
            positions,
            alive: vec![true; n],
            tick: 0,
            core: StepCore {
                algorithm,
                // Activation is driven by the event heap; the scheduler
                // slot is a placeholder the async engine never consults.
                scheduler: Box::new(EveryRobot),
                crash_plan: self.crash_plan,
                motion: self.motion,
                frame_source: FrameSource::new(self.frames),
                tol: self.tol,
                delta: self.delta,
                check_invariants: self.check_invariants,
                started_bivalent,
                incremental: true,
                pending_dirty: Vec::new(),
                canon_order,
                analysis_cache,
            },
            timing: self.timing,
            pacing: self.pacing,
            rigidity: self.rigidity,
            pacing_rng,
            rigidity_rng,
            speeds,
            phase: vec![RobotPhase::Idle; n],
            gen: vec![0; n],
            views: (0..n).map(|_| LookView::default()).collect(),
            config_version: 0,
            heap: EventHeap::new(),
            batch: Vec::new(),
            events_processed: 0,
            trace,
            violations: Vec::new(),
            scratch,
            last_record: RoundRecord::default(),
        };
        // First Looks: lockstep robots all start at time 0 (the FSYNC
        // degeneracy needs one synchronized batch); exponential pacing
        // staggers them with independently drawn offsets, ascending robot
        // order, so the execution is asynchronous from the first instant.
        for robot in 0..n {
            let t0 = match engine.pacing {
                Pacing::Lockstep => 0.0,
                Pacing::Exponential { .. } => engine.next_wait(),
            };
            engine.heap.push(t0, robot, EventKind::Look);
        }
        engine
    }
}

/// The event-heap ASYNC simulation engine.
///
/// # Example
///
/// ```
/// use gather_sim::async_engine::{AsyncEngine, Pacing, Timing};
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
/// let mut engine = AsyncEngine::builder(vec![
///         Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 2.0),
///     ])
///     .algorithm(GoToCentroid)
///     .timing(Timing::Phased { compute_time: 0.2, speed: 1.0 })
///     .pacing(Pacing::Exponential { rate: 1.0, seed: 7 })
///     .check_invariants(false)
///     .build();
/// assert!(engine.run(50_000).gathered());
/// ```
pub struct AsyncEngine {
    positions: Vec<Point>,
    alive: Vec<bool>,
    /// Completed ticks (event batches that did work) — the async analogue
    /// of the round counter: crash plans, traces and run budgets all see
    /// it as `round`.
    tick: u64,
    core: StepCore,
    timing: Timing,
    pacing: Pacing,
    rigidity: Rigidity,
    pacing_rng: Option<Rng>,
    rigidity_rng: Option<Rng>,
    speeds: Vec<f64>,
    phase: Vec<RobotPhase>,
    /// Per-robot generation counters; bumping one tombstones every pending
    /// `ComputeDone`/`MoveDone` the robot has in the heap.
    gen: Vec<u64>,
    views: Vec<LookView>,
    /// Bumped whenever canonical positions change; a stored Look whose
    /// version still matches is provably fresh.
    config_version: u64,
    heap: EventHeap,
    batch: Vec<crate::events::Event>,
    events_processed: u64,
    trace: Trace,
    violations: Vec<String>,
    scratch: Scratch,
    last_record: RoundRecord,
}

impl AsyncEngine {
    /// Starts building an async engine over the given initial positions.
    pub fn builder(initial: Vec<Point>) -> AsyncEngineBuilder {
        AsyncEngineBuilder {
            initial,
            algorithm: None,
            crash_plan: Box::new(NoCrashes),
            motion: Box::new(FullMotion),
            frames: FramePolicy::default(),
            tol: Tol::default(),
            delta: 0.01,
            timing: Timing::Atomic,
            pacing: Pacing::Lockstep,
            rigidity: Rigidity::Rigid,
            speed_skew: 0.0,
            speed_seed: 0,
            check_invariants: true,
            trace_capacity: None,
            recycled: None,
        }
    }

    /// Retires the engine and hands back its reusable buffers.
    pub fn into_parts(self) -> EngineParts {
        EngineParts {
            scratch: self.scratch,
            analysis_cache: self.core.analysis_cache,
            canon_order: self.core.canon_order,
        }
    }

    /// Completed tick count (the async `round()`).
    pub fn round(&self) -> u64 {
        self.tick
    }

    /// Total heap events popped so far (stale tombstones included — they
    /// were real scheduling work).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current (canonical) robot positions, indexed by robot.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Liveness flags, indexed by robot.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Is robot `i` currently at rest (idle, computing, or crashed) rather
    /// than mid-flight? Scenario-family invariant checkers (the grid
    /// family's ℤ² audit) use this to audit only settled positions:
    /// a robot mid-edge is legitimate continuous motion, a *resting*
    /// off-lattice robot is a model violation.
    pub fn at_rest(&self, i: usize) -> bool {
        !matches!(self.phase[i], RobotPhase::Moving { .. })
    }

    /// The execution trace so far (one record per tick).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Invariant violations detected so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Cumulative analysis-cache counters `(computed, hits, dirty_skips)`.
    pub fn analysis_cache_stats(&self) -> (u64, u64, u64) {
        (
            self.core.analysis_cache.computed(),
            self.core.analysis_cache.hits(),
            self.core.analysis_cache.dirty_skips(),
        )
    }

    /// Draws the gap to a robot's next Look.
    fn next_wait(&mut self) -> f64 {
        match self.pacing {
            Pacing::Lockstep => 1.0,
            Pacing::Exponential { rate, .. } => {
                let u = self
                    .pacing_rng
                    .as_mut()
                    .expect("exponential pacing carries an RNG")
                    .next_f64();
                // u ∈ [0, 1) ⇒ 1 − u ∈ (0, 1] ⇒ the sample is finite, ≥ 0.
                -(1.0 - u).ln() / rate
            }
        }
    }

    /// The `GATHERED` predicate in the ASYNC model: all live robots at one
    /// location, nobody in flight, no pending Compute on a stale snapshot
    /// (a stale compute could still order a move away), and the algorithm
    /// instructs that location to stay.
    pub fn is_gathered(&mut self) -> bool {
        let tol = self.core.tol;
        let Some(first) = (0..self.positions.len())
            .find(|i| self.alive[*i])
            .map(|i| self.positions[i])
        else {
            return false;
        };
        let all_together = (0..self.positions.len())
            .filter(|i| self.alive[*i])
            .all(|i| self.positions[i].within(first, tol.snap));
        if !all_together {
            return false;
        }
        for i in 0..self.positions.len() {
            if !self.alive[i] {
                continue;
            }
            match self.phase[i] {
                RobotPhase::Moving { .. } => return false,
                RobotPhase::Computing => {
                    if self.views[i].version != self.config_version {
                        return false;
                    }
                }
                RobotPhase::Idle => {}
            }
        }
        let dest = self
            .core
            .destination_at(&self.positions, first, &mut self.scratch);
        dest.within(first, tol.snap)
    }

    /// Executes one tick — the next event batch that does real work —
    /// and returns its record. Returns `None` when the heap is empty
    /// (every robot crashed and no events remain).
    pub fn step(&mut self) -> Option<&RoundRecord> {
        loop {
            let mut batch = std::mem::take(&mut self.batch);
            let Some(now) = self.heap.pop_batch(&mut batch) else {
                self.batch = batch;
                return None;
            };
            self.events_processed += batch.len() as u64;
            // Drop events tombstoned in *earlier* ticks (generation bumps
            // and deaths). Same-tick cancellations are handled in the
            // phases below, after this tick's crashes are known.
            batch.retain(|e| {
                self.alive[e.robot]
                    && match e.kind {
                        EventKind::Look => true,
                        EventKind::ComputeDone { gen } | EventKind::MoveDone { gen } => {
                            gen == self.gen[e.robot]
                        }
                    }
            });
            if batch.is_empty() {
                // An all-stale batch is pure bookkeeping, not a tick.
                self.batch = batch;
                continue;
            }
            let record_ready = self.process_batch(now, &batch);
            self.batch = batch;
            if record_ready {
                return Some(&self.last_record);
            }
        }
    }

    /// Processes one non-empty batch at time `now`. Always completes a
    /// tick (returns `true`); split out of [`AsyncEngine::step`] so the
    /// batch buffer can be lent immutably while `self` stays mutable.
    fn process_batch(&mut self, now: f64, batch: &[crate::events::Event]) -> bool {
        let window = self.core.open_round(self.tick);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut travel = 0.0;

        // Phase A — materialise in-flight motion up to `now`: arrivals in
        // this batch land exactly on their destinations, everyone else
        // advances along their raw segment, and (under a non-rigid
        // adversary) still-flying robots may be stopped, never before δ
        // progress. Only `Timing::Phased` ever has robots in flight.
        let mut any_moved = false;
        if matches!(self.timing, Timing::Phased { .. }) {
            scratch.new_positions.clear();
            scratch.new_positions.extend_from_slice(&self.positions);
            for i in 0..self.phase.len() {
                let RobotPhase::Moving {
                    from,
                    dest,
                    arrive,
                    progressed,
                } = self.phase[i]
                else {
                    continue;
                };
                let total = from.dist(dest);
                let frac = if arrive <= now {
                    1.0
                } else {
                    // arrive > now ⇒ still flying; progress is elapsed
                    // flight time over total duration (both positive).
                    let duration = total / self.speed_of(i);
                    ((duration - (arrive - now)) / duration).clamp(0.0, 1.0)
                };
                let here = from.lerp(dest, frac);
                let mut stop_here = arrive <= now;
                if !stop_here {
                    if let Rigidity::NonRigid { stop_prob, .. } = self.rigidity {
                        let coin = self
                            .rigidity_rng
                            .as_mut()
                            .expect("non-rigid carries an RNG")
                            .random_bool(stop_prob);
                        if coin {
                            stop_here = true;
                        }
                    }
                }
                let (next_point, landed) = if arrive <= now {
                    (dest, true)
                } else if stop_here {
                    // δ floor: the adversary stops the robot where it is,
                    // but never short of δ progress (a segment shorter
                    // than δ completes outright) — apply_motion encodes
                    // exactly that rule.
                    let stopped =
                        apply_motion(from, dest, frac.max(f64::MIN_POSITIVE), self.core.delta);
                    (stopped, true)
                } else {
                    (here, false)
                };
                if next_point != progressed {
                    travel += progressed.dist(next_point);
                    scratch.new_positions[i] = next_point;
                    any_moved = true;
                }
                if landed {
                    self.gen[i] += 1; // tombstone the pending MoveDone (no-op for arrivals)
                    self.phase[i] = RobotPhase::Idle;
                    let wait = self.next_wait();
                    self.heap.push(now + wait, i, EventKind::Look);
                } else {
                    self.phase[i] = RobotPhase::Moving {
                        from,
                        dest,
                        arrive,
                        progressed: next_point,
                    };
                }
            }
            if any_moved {
                self.core.stage_apply(&self.positions, &mut scratch);
                std::mem::swap(&mut self.positions, &mut scratch.canon_out);
                self.config_version += 1;
            }
        }

        // Phase B — one shared look at the (possibly just-advanced)
        // configuration: classification, distinct locations, crashes.
        // Crashing tombstones a robot's pending events; a crashed flyer is
        // frozen where phase A just put it, a crashed computer never moves
        // — "crashed between Look and Move".
        scratch.config.copy_from_slice(&self.positions);
        let (shared, class) = self.core.stage_classify(&scratch);
        self.core.stage_distinct(&mut scratch);
        self.core
            .stage_crashes(self.tick, &mut self.alive, &mut scratch);
        for k in 0..scratch.crashed_now.len() {
            let victim = scratch.crashed_now[k];
            self.gen[victim] += 1;
            self.phase[victim] = RobotPhase::Idle;
        }

        // Phase C — Compute completions: each robot computes on the
        // snapshot it Looked at. A still-fresh view (configuration version
        // unchanged) rides the shared analysis carried into the robot's
        // frame; a stale view is honestly re-classified by the algorithm.
        for event in batch {
            let EventKind::ComputeDone { gen } = event.kind else {
                continue;
            };
            let i = event.robot;
            if !self.alive[i] || gen != self.gen[i] {
                continue; // crashed this tick (or stale)
            }
            let me = self.positions[i];
            let view = &self.views[i];
            let local_dest = {
                let snap = if view.version == self.config_version {
                    Snapshot::with_analysis_borrowed(
                        &view.local,
                        view.me_local,
                        shared.map_target(|t| view.frame.apply(t)).analysis,
                    )
                } else {
                    Snapshot::borrowed(&view.local, view.me_local)
                };
                self.core.algorithm.destination(&snap)
            };
            let dest = view.frame.inverse().apply(local_dest);
            // Footnote 2: destination == current position ⇒ do not move.
            if dest.within(me, self.core.tol.abs) {
                self.phase[i] = RobotPhase::Idle;
                let wait = self.next_wait();
                self.heap.push(now + wait, i, EventKind::Look);
                continue;
            }
            let Timing::Phased { speed, .. } = self.timing else {
                unreachable!("ComputeDone events exist only under phased timing");
            };
            let duration = me.dist(dest) / (speed * self.speeds[i]);
            let arrive = now + duration;
            self.phase[i] = RobotPhase::Moving {
                from: me,
                dest,
                arrive,
                progressed: me,
            };
            self.heap
                .push(arrive, i, EventKind::MoveDone { gen: self.gen[i] });
        }

        // Phase D — Looks. Atomic timing runs whole LCM cycles through the
        // very same StepCore stages as the round engine (the degeneracy
        // contract); phased timing stores each looker's snapshot and
        // schedules its ComputeDone.
        scratch.activated.clear();
        for event in batch {
            if event.kind == EventKind::Look && self.alive[event.robot] {
                scratch.activated.push(event.robot);
            }
        }
        scratch.activated.sort_unstable();
        scratch.activated.dedup();
        match self.timing {
            Timing::Atomic => {
                if !scratch.activated.is_empty() {
                    travel += self.core.stage_moves(
                        self.tick,
                        &self.positions,
                        &mut [],
                        &shared,
                        &mut scratch,
                    );
                    self.core.stage_apply(&self.positions, &mut scratch);
                    std::mem::swap(&mut self.positions, &mut scratch.canon_out);
                    self.config_version += 1;
                    for k in 0..scratch.activated.len() {
                        let i = scratch.activated[k];
                        let wait = self.next_wait();
                        self.heap.push(now + wait, i, EventKind::Look);
                    }
                }
            }
            Timing::Phased { compute_time, .. } => {
                for k in 0..scratch.activated.len() {
                    let i = scratch.activated[k];
                    let me = self.positions[i];
                    let frame = self.core.frame_source.frame_for(me);
                    let view = &mut self.views[i];
                    view.local.copy_from(&scratch.config);
                    view.local.set_point(i, me);
                    view.local.map_in_place(|p| frame.apply(p));
                    view.me_local = frame.apply(me);
                    view.frame = frame;
                    view.version = self.config_version;
                    self.phase[i] = RobotPhase::Computing;
                    self.heap.push(
                        now + compute_time,
                        i,
                        EventKind::ComputeDone { gen: self.gen[i] },
                    );
                }
            }
        }

        // Phase E — invariant audits (identical stage to the round engine).
        if self.core.check_invariants {
            self.core.stage_audits(
                self.tick,
                &self.positions,
                &shared,
                &mut scratch,
                &mut PhaseTimer::start(false),
                &mut self.violations,
            );
        }

        // Phase F — the tick's trace record, field-compatible with the
        // round engine's (tick index as `round`, lookers as `activated`).
        self.core.close_round(
            window,
            class,
            travel,
            &scratch,
            &mut self.last_record,
            &mut self.trace,
        );
        self.tick += 1;
        self.scratch = scratch;
        true
    }

    /// Per-robot travel speed (base × multiplier).
    fn speed_of(&self, i: usize) -> f64 {
        match self.timing {
            Timing::Phased { speed, .. } => speed * self.speeds[i],
            Timing::Atomic => f64::INFINITY,
        }
    }

    /// Runs until the `GATHERED` predicate holds, `max_ticks` ticks have
    /// executed, or the event heap drains (all robots crashed).
    pub fn run(&mut self, max_ticks: u64) -> RunOutcome {
        loop {
            if self.is_gathered() {
                let point = (0..self.positions.len())
                    .find(|i| self.alive[*i])
                    .map(|i| self.positions[i])
                    .expect("gathered implies a live robot");
                return RunOutcome::Gathered {
                    round: self.tick,
                    point,
                };
            }
            if self.tick >= max_ticks {
                return RunOutcome::RoundLimit { rounds: self.tick };
            }
            if self.step().is_none() {
                return RunOutcome::RoundLimit { rounds: self.tick };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashAtRounds;
    use crate::engine::Engine;

    struct GoToCentroid;
    impl Algorithm for GoToCentroid {
        fn name(&self) -> &'static str {
            "centroid"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            gather_geom::centroid(snap.config().points())
        }
    }

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]
    }

    #[test]
    fn degenerate_mode_is_bit_identical_to_the_round_engine() {
        let mut sync = Engine::builder(square())
            .algorithm(GoToCentroid)
            .check_invariants(false)
            .build();
        let mut async_eng = AsyncEngine::builder(square())
            .algorithm(GoToCentroid)
            .check_invariants(false)
            .build();
        let a = sync.run(300);
        let b = async_eng.run(300);
        assert_eq!(a, b);
        assert_eq!(sync.positions(), async_eng.positions());
        assert_eq!(sync.trace().to_jsonl(), async_eng.trace().to_jsonl());
        assert_eq!(
            sync.analysis_cache_stats(),
            async_eng.analysis_cache_stats()
        );
    }

    #[test]
    fn degenerate_mode_matches_under_crashes() {
        let mut sync = Engine::builder(square())
            .algorithm(GoToCentroid)
            .crash_plan(CrashAtRounds::at_start([1]))
            .check_invariants(false)
            .build();
        let mut async_eng = AsyncEngine::builder(square())
            .algorithm(GoToCentroid)
            .crash_plan(CrashAtRounds::at_start([1]))
            .check_invariants(false)
            .build();
        assert_eq!(sync.run(300), async_eng.run(300));
        assert_eq!(sync.trace().to_jsonl(), async_eng.trace().to_jsonl());
        assert_eq!(sync.alive(), async_eng.alive());
    }

    #[test]
    fn phased_execution_gathers_and_counts_events() {
        let mut e = AsyncEngine::builder(square())
            .algorithm(GoToCentroid)
            .timing(Timing::Phased {
                compute_time: 0.25,
                speed: 1.0,
            })
            .pacing(Pacing::Exponential { rate: 1.0, seed: 3 })
            .check_invariants(false)
            .build();
        let outcome = e.run(100_000);
        assert!(outcome.gathered(), "outcome: {outcome:?}");
        // A full LCM cycle is 3 events per robot; a gathered run must have
        // processed at least one cycle per robot.
        assert!(e.events_processed() >= 12);
        assert_eq!(e.trace().len() as u64, e.round());
    }

    #[test]
    fn phased_execution_is_deterministic_per_seed() {
        let run = || {
            let mut e = AsyncEngine::builder(square())
                .algorithm(GoToCentroid)
                .timing(Timing::Phased {
                    compute_time: 0.1,
                    speed: 2.0,
                })
                .pacing(Pacing::Exponential { rate: 1.5, seed: 9 })
                .rigidity(Rigidity::NonRigid {
                    stop_prob: 0.3,
                    seed: 11,
                })
                .speed_skew(1.0, 13)
                .check_invariants(false)
                .build();
            let outcome = e.run(100_000);
            (outcome, e.trace().to_jsonl(), e.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn non_rigid_stops_respect_delta_progress() {
        // One robot far from the centroid, huge stop probability, large δ:
        // every materialised stop must land at least δ from the departure
        // point (or at the destination).
        let mut e = AsyncEngine::builder(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ])
        .algorithm(GoToCentroid)
        .timing(Timing::Phased {
            compute_time: 0.1,
            speed: 0.5,
        })
        .pacing(Pacing::Exponential { rate: 4.0, seed: 1 })
        .rigidity(Rigidity::NonRigid {
            stop_prob: 0.9,
            seed: 2,
        })
        .delta(0.5)
        .check_invariants(false)
        .build();
        // Track per-tick travel: any tick's travel by a single stopping
        // robot is bounded below by δ only at the stop itself; instead we
        // assert the run still converges (δ progress forbids livelock).
        let outcome = e.run(100_000);
        assert!(outcome.gathered(), "outcome: {outcome:?}");
    }

    #[test]
    fn crashed_between_look_and_move_never_moves() {
        // Robot 0 Looks at tick 0 (Computing), crashes at tick 1 before
        // its ComputeDone fires: it must stay at its initial position
        // forever while the others still gather around somewhere.
        let initial = vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(3.0, 5.0),
        ];
        let mut e = AsyncEngine::builder(initial.clone())
            .algorithm(GoToCentroid)
            .timing(Timing::Phased {
                compute_time: 10.0, // long compute: the crash lands inside it
                speed: 1.0,
            })
            .crash_plan(CrashAtRounds::at_start([0]))
            .check_invariants(false)
            .build();
        let _ = e.run(50_000);
        assert!(!e.alive()[0]);
        assert_eq!(e.positions()[0], initial[0]);
    }

    #[test]
    fn empty_heap_ends_the_run() {
        // Everyone crashes at tick 0; pending Looks are consumed and
        // nothing is rescheduled, so the heap drains.
        let mut e = AsyncEngine::builder(square())
            .algorithm(GoToCentroid)
            .crash_plan(CrashAtRounds::at_start([0, 1, 2, 3]))
            .check_invariants(false)
            .build();
        let outcome = e.run(1_000);
        assert!(!outcome.gathered());
        assert!(outcome.rounds() < 1_000);
    }

    #[test]
    fn at_rest_tracks_flight_state() {
        let mut e = AsyncEngine::builder(square())
            .algorithm(GoToCentroid)
            .timing(Timing::Phased {
                compute_time: 0.0,
                speed: 0.01, // very slow: robots stay in flight a long time
            })
            // A global frame keeps the four symmetric flights bit-equal in
            // duration, so all arrivals share one batch.
            .frames(FramePolicy::GlobalFrame)
            .check_invariants(false)
            .build();
        assert!((0..4).all(|i| e.at_rest(i)));
        // Tick 0: all Look (Computing is at-rest). Tick 1: ComputeDone —
        // everyone departs toward the centroid and stays in flight until
        // the far-future MoveDone batch.
        let _ = e.step();
        assert!((0..4).all(|i| e.at_rest(i)));
        let _ = e.step();
        assert!((0..4).all(|i| !e.at_rest(i)), "everyone should be flying");
        // The next batch is the arrivals: all at rest again.
        let _ = e.step();
        assert!((0..4).all(|i| e.at_rest(i)));
    }

    /// Heads for the analysis target when the snapshot carries one and
    /// classifies its own (possibly stale) view otherwise — the contract
    /// of the real algorithm, so both analysis routes carry the run.
    struct ClassTarget;
    impl Algorithm for ClassTarget {
        fn name(&self) -> &'static str {
            "class-target"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            let analysis = match snap.analysis() {
                Some(a) => *a,
                None => gather_config::classify(snap.config(), Tol::default()),
            };
            analysis.target.unwrap_or(snap.me())
        }
    }

    #[test]
    fn incremental_path_matches_the_full_recompute_off_the_atomic_corner() {
        let spiral: Vec<Point> = (0..12)
            .map(|i| {
                let th = 0.7 * i as f64;
                let r = 1.0 + 0.3 * i as f64;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect();
        let phased = Timing::Phased {
            compute_time: 0.3,
            speed: 1.0,
        };
        let non_rigid = Rigidity::NonRigid {
            stop_prob: 0.3,
            seed: 23,
        };
        for timing in [Timing::Atomic, phased] {
            for rigidity in [Rigidity::Rigid, non_rigid] {
                for audits in [false, true] {
                    let run = |incremental: bool| {
                        let mut e = AsyncEngine::builder(spiral.clone())
                            .algorithm(ClassTarget)
                            .timing(timing)
                            .pacing(Pacing::Exponential {
                                rate: 2.0,
                                seed: 21,
                            })
                            .rigidity(rigidity)
                            .speed_skew(1.0, 22)
                            .crash_plan(CrashAtRounds::new(vec![(1, 3), (6, 7), (12, 0)]))
                            .check_invariants(audits)
                            .build();
                        e.core.incremental = incremental;
                        let outcome = e.run(20_000);
                        let (computed, hits, dirty_skips) = e.analysis_cache_stats();
                        let run = (
                            outcome,
                            e.positions().to_vec(),
                            e.alive().to_vec(),
                            e.trace().to_jsonl(),
                            e.violations().to_vec(),
                            e.events_processed(),
                            (computed, hits),
                        );
                        (run, dirty_skips)
                    };
                    let tag = format!("{timing:?} / {rigidity:?} / audits {audits}");
                    let (incremental, dirty_skips) = run(true);
                    let (reference, ref_dirty_skips) = run(false);
                    assert!(incremental.0.gathered(), "{tag}: {:?}", incremental.0);
                    let crashed = incremental.2.iter().filter(|a| !**a).count();
                    assert_eq!(crashed, 3, "{tag}: every planned crash lands");
                    assert!(dirty_skips > 0, "{tag}: the incremental path never skipped");
                    assert_eq!(ref_dirty_skips, 0, "{tag}: the reference never skips");
                    assert_eq!(incremental, reference, "{tag}: the paths diverged");
                }
            }
        }
    }

    #[test]
    fn recycled_parts_do_not_change_results() {
        let reference = {
            let mut e = AsyncEngine::builder(square())
                .algorithm(GoToCentroid)
                .pacing(Pacing::Exponential { rate: 1.0, seed: 5 })
                .check_invariants(false)
                .build();
            let outcome = e.run(5_000);
            (outcome, e.trace().to_jsonl())
        };
        // Warm the parts on an unrelated run, then recycle.
        let parts = {
            let mut e = AsyncEngine::builder(vec![Point::new(1.0, 1.0), Point::new(2.0, 5.0)])
                .algorithm(GoToCentroid)
                .check_invariants(false)
                .build();
            let _ = e.run(50);
            e.into_parts()
        };
        let mut e = AsyncEngine::builder(square())
            .algorithm(GoToCentroid)
            .pacing(Pacing::Exponential { rate: 1.0, seed: 5 })
            .check_invariants(false)
            .recycle(parts)
            .build();
        let outcome = e.run(5_000);
        assert_eq!((outcome, e.trace().to_jsonl()), reference);
    }
}
