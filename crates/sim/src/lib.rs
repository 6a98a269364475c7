//! ATOM (SSYNC) mobile-robot simulator.
//!
//! This crate is the execution substrate for the reproduction of
//! *"Gathering of Mobile Robots Tolerating Multiple Crash Faults"*
//! (Bouzid, Das, Tixeuil; ICDCS 2013). It implements the paper's model
//! (Section II) faithfully:
//!
//! * time is divided into rounds; in each round an adversarially chosen
//!   subset of robots is active ([`scheduler`]), and each active robot
//!   performs one atomic Look–Compute–Move cycle;
//! * robots are anonymous, oblivious, and disoriented: each observation is
//!   delivered in a per-robot local coordinate frame (rotation + uniform
//!   scale + translation, **no reflection** — the robots share chirality)
//!   chosen fresh at every activation ([`frames`]);
//! * robots have strong multiplicity detection: snapshots are canonicalised
//!   so co-located robots have identical coordinates ([`snapshot`]);
//! * a move toward the computed destination may be stopped by the adversary
//!   anywhere past the minimum step `δ` ([`motion`]);
//! * robots crash permanently at adversarially chosen times ([`crash`]); a
//!   crashed robot stops acting but remains visible.
//!
//! The [`engine`] wires these together, records per-round traces, and runs
//! invariant monitors (wait-freeness per Lemma 5.1, never-entering the
//! bivalent class, scheduler fairness).
//!
//! Beyond the paper's model, [`async_engine`] provides a true event-driven
//! ASYNC/LCM executor over the same `StepCore` stages: per-robot
//! Look/Compute/Move events on a binary heap ([`events`]), exponential
//! inter-activation pacing, per-robot speeds, non-rigid interruptible
//! moves, and stale-snapshot Computes — degenerating bit-identically to
//! the round engine under atomic/lockstep settings.
//!
//! # Example
//!
//! ```
//! use gather_sim::prelude::*;
//! use gather_geom::{Point, Tol};
//!
//! /// Toy algorithm: move to the centroid of the observed configuration.
//! struct GoToCentroid;
//! impl Algorithm for GoToCentroid {
//!     fn name(&self) -> &'static str { "centroid" }
//!     fn destination(&self, snap: &Snapshot) -> Point {
//!         gather_geom::centroid(snap.config().points())
//!     }
//! }
//!
//! let mut engine = Engine::builder(vec![
//!         Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 2.0),
//!     ])
//!     .algorithm(GoToCentroid)
//!     .build();
//! let outcome = engine.run(1_000);
//! // The centroid rule converges (robots end within snap distance).
//! assert!(outcome.gathered());
//! ```

pub mod algorithm;
pub mod async_engine;
pub mod batch;
pub mod byzantine;
pub mod crash;
pub mod engine;
pub mod events;
pub mod frames;
pub mod metrics;
pub mod motion;
pub mod scheduler;
pub mod snapshot;
pub mod trace;

/// The one-stop import surface for simulator users: algorithms, the
/// engine (with its recyclable [`EngineParts`]), every adversary knob
/// ([`CrashPlan`], [`Scheduler`], [`MotionAdversary`], [`ByzantinePolicy`],
/// [`FramePolicy`]), traces/metrics, and the observability handles
/// re-exported from `gather-obs`.
///
/// [`EngineParts`]: crate::engine::EngineParts
/// [`CrashPlan`]: crate::crash::CrashPlan
/// [`Scheduler`]: crate::scheduler::Scheduler
/// [`MotionAdversary`]: crate::motion::MotionAdversary
/// [`ByzantinePolicy`]: crate::byzantine::ByzantinePolicy
/// [`FramePolicy`]: crate::frames::FramePolicy
pub mod prelude {
    pub use crate::algorithm::Algorithm;
    pub use crate::async_engine::{AsyncEngine, AsyncEngineBuilder, Pacing, Rigidity, Timing};
    pub use crate::batch::{BatchEngine, LaneResult, LaneSpec};
    pub use crate::byzantine::{ByzantinePolicy, Fugitive, StackStalker, Statue, Wanderer};
    pub use crate::crash::{CrashAtRounds, CrashPlan, NoCrashes, RandomCrashes, TargetedCrashes};
    pub use crate::engine::{Engine, EngineBuilder, EngineParts, RunOutcome};
    pub use crate::events::{Event, EventHeap, EventKind};
    pub use crate::frames::FramePolicy;
    pub use crate::metrics::{summarize, CacheStats, RunMetrics};
    pub use crate::motion::{
        AlwaysDelta, FullMotion, MotionAdversary, RandomStops, SymmetricHalfStops,
    };
    pub use crate::scheduler::{
        EveryRobot, FnScheduler, RandomSubsets, RoundRobin, Scheduler, SequentialSingle,
    };
    pub use crate::snapshot::Snapshot;
    pub use crate::trace::{RoundRecord, Trace};
    // Observability handles, so instrumented callers need no direct
    // gather-obs dependency for the common cases.
    pub use gather_obs::{EngineObs, Phase, PhaseNanos, RoundSpans, SpanSink};
}
