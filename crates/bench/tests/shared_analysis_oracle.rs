//! The per-robot reference as a test oracle for the shared analysis.
//!
//! Every engine driver classifies the start-of-round configuration once
//! and attaches that analysis, its target carried into each robot's
//! frame, to every activated robot's snapshot. In the ATOM model this is
//! what the algorithm means: all robots activated together LOOK at the
//! same configuration, and the analysis is a pure function of it. The
//! wrapper below re-derives, for every snapshot that carries an analysis,
//! what a robot classifying its own view from scratch would do, and
//! asserts the two agree:
//!
//! * the attached class equals `classify(snap.config(), tol)`;
//! * the wrapped algorithm's destination from the shared snapshot matches
//!   its destination from `Snapshot::borrowed(snap.config(), snap.me())`
//!   — bit for bit under [`FramePolicy::GlobalFrame`], within `1e-5`
//!   under random frames, whose round trip moves the last bits.
//!
//! One target is numeric in every frame: an unoccupied centre of
//! quasi-regularity is the Weber point, which the shared analysis
//! warm-starts from the previous round's (Lemma 3.2) while the robot's
//! own classification solves it cold. The two iterates agree to solver
//! tolerance, not bit for bit, so that target is held to the `1e-5`.
//!
//! The oracle runs through the round `Engine`, a `BatchEngine` lane and a
//! phased `AsyncEngine` (whose stale views carry no analysis and classify
//! themselves), and each run counts that the oracle fired.

use gather_config::{classify, Class};
use gather_geom::{Point, Tol};
use gather_sim::prelude::*;
use gather_workloads as workloads;
use gathering::WaitFreeGather;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps an algorithm and checks every analysed snapshot against the
/// per-robot reference (see the module docs).
struct PerRobotOracle<A> {
    inner: A,
    tol: Tol,
    /// Bit-equal destinations required (global frames only; see the
    /// module docs for the numeric Weber target).
    exact: bool,
    /// Snapshots checked so far.
    fired: Arc<AtomicU64>,
}

impl<A: Algorithm> Algorithm for PerRobotOracle<A> {
    fn name(&self) -> &'static str {
        "per-robot-oracle"
    }

    fn destination(&self, snap: &Snapshot) -> Point {
        let dest = self.inner.destination(snap);
        if let Some(shared) = snap.analysis() {
            let fresh = classify(snap.config(), self.tol);
            assert_eq!(
                shared.class,
                fresh.class,
                "shared class disagrees with the robot's own classification of {}",
                snap.config()
            );
            let reference = self
                .inner
                .destination(&Snapshot::borrowed(snap.config(), snap.me()));
            let numeric = shared.class == Class::QuasiRegular
                && shared
                    .target
                    .is_some_and(|t| snap.config().mult(t, self.tol) == 0);
            if self.exact && !numeric {
                assert!(
                    dest.x.to_bits() == reference.x.to_bits()
                        && dest.y.to_bits() == reference.y.to_bits(),
                    "robot at {}: shared destination {dest} != per-robot {reference} on {}",
                    snap.me(),
                    snap.config()
                );
            } else {
                assert!(
                    dest.dist(reference) < 1e-5,
                    "robot at {}: shared destination {dest} != per-robot {reference} on {}",
                    snap.me(),
                    snap.config()
                );
            }
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        dest
    }
}

fn oracle(frames: &FramePolicy, fired: &Arc<AtomicU64>) -> PerRobotOracle<WaitFreeGather> {
    PerRobotOracle {
        inner: WaitFreeGather::default(),
        tol: Tol::default(),
        exact: matches!(frames, FramePolicy::GlobalFrame),
        fired: Arc::clone(fired),
    }
}

/// Both frame policies: the exact global one and a seeded random one.
fn frame_policies(seed: u64) -> [FramePolicy; 2] {
    [
        FramePolicy::GlobalFrame,
        FramePolicy::RandomPerActivation { seed: seed + 3 },
    ]
}

#[test]
fn engine_destinations_match_the_per_robot_reference() {
    for class in Class::all() {
        for seed in 0..2u64 {
            for frames in frame_policies(seed) {
                let fired = Arc::new(AtomicU64::new(0));
                let mut engine = Engine::builder(workloads::of_class(class, 10, seed))
                    .algorithm(oracle(&frames, &fired))
                    .scheduler(RandomSubsets::new(0.5, 8, seed))
                    .motion(RandomStops::new(0.5, seed + 1))
                    .crash_plan(RandomCrashes::new(2, 0.05, seed + 2))
                    .frames(frames.clone())
                    .delta(0.05)
                    .build();
                engine.run(150);
                assert!(
                    fired.load(Ordering::Relaxed) > 0,
                    "{class:?} seed {seed} {frames:?}: the oracle never fired"
                );
            }
        }
    }
}

#[test]
fn batch_lane_destinations_match_the_per_robot_reference() {
    for frames in frame_policies(5) {
        let fired = Arc::new(AtomicU64::new(0));
        let specs: Vec<LaneSpec> = Class::all()
            .into_iter()
            .enumerate()
            .map(|(i, class)| {
                let seed = i as u64;
                let mut spec = LaneSpec::new(
                    workloads::of_class(class, 8, seed),
                    Box::new(oracle(&frames, &fired)),
                );
                spec.scheduler = Box::new(RoundRobin::new(3));
                spec.motion = Box::new(RandomStops::new(0.5, seed + 1));
                spec.frames = frames.clone();
                spec.delta = 0.05;
                spec.max_rounds = 150;
                spec
            })
            .collect();
        let mut batch = BatchEngine::new(3, EngineParts::default());
        let results = batch.run(specs);
        assert_eq!(results.len(), Class::all().len());
        assert!(
            fired.load(Ordering::Relaxed) > 0,
            "{frames:?}: the oracle never fired in a batch lane"
        );
    }
}

#[test]
fn phased_async_destinations_match_the_per_robot_reference() {
    for class in Class::all() {
        for frames in frame_policies(7) {
            let fired = Arc::new(AtomicU64::new(0));
            let mut engine = AsyncEngine::builder(workloads::of_class(class, 8, 1))
                .algorithm(oracle(&frames, &fired))
                .timing(Timing::Phased {
                    compute_time: 0.3,
                    speed: 1.0,
                })
                .pacing(Pacing::Exponential {
                    rate: 1.0,
                    seed: 11,
                })
                .frames(frames.clone())
                .delta(0.05)
                .build();
            engine.run(400);
            assert!(
                fired.load(Ordering::Relaxed) > 0,
                "{class:?} {frames:?}: the oracle never fired in the async engine"
            );
        }
    }
}
