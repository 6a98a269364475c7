//! The Weiszfeld warm start (Lemma 3.2) pays: on a workload that runs the
//! numeric solver every round, the engine's warm-started analyses cost at
//! most half the iterations of cold analyses of the same configurations.
//!
//! The workload is a quasi-regular multi-ring with an *unoccupied* centre:
//! every round re-detects regularity through the numeric Weber candidate
//! (classes `M`/`L1W`/`L2W` decide their targets combinatorially and never
//! reach the solver). Robots creep toward the centre by δ per activation,
//! so the configuration changes every round (a cache miss) while staying
//! in class `QR`; the ×5 scaling keeps every radius ≥ 2, so no robot
//! reaches the centre within the budget.

use gather_config::{Class, RoundAnalysis};
use gather_geom::{weiszfeld_iterations, Point, Tol};
use gather_sim::prelude::*;
use gather_workloads as workloads;
use gathering::WaitFreeGather;

/// Rounds per team size.
const ROUNDS: u64 = 160;

/// `(warm, cold)` solver iterations over `ROUNDS` rounds at team size
/// `n`: the engine's per-round `weiszfeld_iters` against a cold
/// [`RoundAnalysis::compute`] of each round's start configuration.
fn warm_and_cold(n: usize) -> (u64, u64) {
    let initial: Vec<Point> = workloads::quasi_regular(4, n / 4, 11)
        .into_iter()
        .map(|p| Point::new(p.x * 5.0, p.y * 5.0))
        .collect();
    let mut engine = Engine::builder(initial)
        .algorithm(WaitFreeGather::default())
        .scheduler(RoundRobin::new(2.max(n / 4)))
        .motion(AlwaysDelta)
        .check_invariants(false)
        .trace_capacity(64)
        .build();
    let (mut warm, mut cold) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let before = weiszfeld_iterations();
        let _ = RoundAnalysis::compute(&engine.configuration(), Tol::default());
        cold += weiszfeld_iterations() - before;
        let record = engine.step();
        assert_eq!(
            record.class,
            Class::QuasiRegular,
            "n={n}: round {} left class QR",
            record.round
        );
        warm += record.weiszfeld_iters;
    }
    (warm, cold)
}

#[test]
fn warm_started_weiszfeld_is_at_least_twice_cheaper_than_cold() {
    for n in [8usize, 32] {
        let (warm, cold) = warm_and_cold(n);
        assert!(cold > 0, "n={n}: the cold analyses never ran the solver");
        assert!(
            2 * warm <= cold,
            "n={n}: warm start not >= 2x cheaper ({warm} warm vs {cold} cold iterations over {ROUNDS} rounds)"
        );
    }
}
