//! Mega-sweep: lockstep batch execution of scenario grids.
//!
//! [`crate::runner::Scenario::run`] drives one engine per scenario; a
//! parameter-space sweep instead hands *chunks* of consecutive scenarios to
//! each pool worker and advances every chunk as a [`BatchEngine`] — one
//! `Engine` per lane, all stepping in one lent scratch arena, and per-lane
//! retirement so short runs free their place for the next admission. The batch path is
//! bit-identical to the sequential one for every `(spec, seed)` (see
//! `tests/batch_identity.rs` and the `sweep-smoke` gate in
//! `scripts/check.sh`), so the only observable difference is throughput.
//!
//! Chunk ordering matters for warmth: grids should emit scenarios that
//! share an initial configuration consecutively (same class/n/trial, inner
//! loops over scheduler, `δ`, faults) so the batch admission memo skips the
//! cold classification for every grid cell after the first.

use crate::factory;
use crate::pool::WorkerPool;
use crate::runner::{put_thread_parts, take_thread_parts, Scenario};
use gather_geom::Tol;
use gather_sim::metrics::RunMetrics;
use gather_sim::prelude::*;

/// Consecutive scenarios handed to each pool job. Large enough that the
/// per-job overhead (slot scan, parts hand-off) amortises to nothing, small
/// enough that a grid of a few thousand cells still load-balances across
/// the pool.
pub const CHUNK: usize = 128;

/// Translates a [`Scenario`] into the equivalent [`LaneSpec`].
///
/// This takes the factory boxes, derived seeds, crash plan, frame policy
/// and audit gating from the same `Scenario` methods the sequential
/// engines use, which is what makes
/// [`run_batched_on`] interchangeable with `Scenario::run`: identical
/// configuration in, bit-identical [`RunMetrics`] out.
pub fn lane_spec(s: &Scenario) -> LaneSpec {
    assert!(
        !s.is_async(),
        "async scenarios run on the event-heap engine, not batch lanes"
    );
    LaneSpec {
        initial: s.initial.clone(),
        algorithm: factory::algorithm(s.algorithm),
        scheduler: factory::scheduler(s.scheduler, s.initial.len(), s.seed),
        crash_plan: Box::new(s.crash_plan()),
        motion: factory::motion(s.motion, s.seed.wrapping_add(1)),
        frames: s.frame_policy(),
        tol: Tol::default(),
        delta: s.delta,
        check_invariants: s.audited(),
        max_rounds: s.max_rounds,
        // Sweeps read summaries only; full per-round traces stay off the
        // hot path (trace consumers go through `Scenario::run_traced`).
        traced: false,
    }
}

/// Runs every scenario on `pool` via lockstep batches of `width` lanes and
/// returns the metrics in input order.
///
/// Each worker recycles the same thread-local [`EngineParts`] slot that
/// `Scenario::run` uses, so interleaving batched sweeps with sequential
/// runs on one pool keeps a single warm arena per thread. Like
/// `Scenario::run`, this asserts the invariant monitors stayed quiet for
/// audited wait-free scenarios.
pub fn run_batched_on(pool: &WorkerPool, scenarios: &[Scenario], width: usize) -> Vec<RunMetrics> {
    assert!(width > 0, "batch width must be positive");
    let chunks: Vec<&[Scenario]> = scenarios.chunks(CHUNK).collect();
    let per_chunk = pool.map(&chunks, |chunk| {
        // Lockstep lanes model synchronized rounds; `"async"` scenarios
        // have no rounds to lock, so each chunk partitions: sync members
        // ride the BatchEngine, async members run sequentially on the
        // event heap — same recycled thread arena, stitched back into
        // chunk order.
        let mut out: Vec<Option<RunMetrics>> = (0..chunk.len()).map(|_| None).collect();
        let sync_idx: Vec<usize> = (0..chunk.len()).filter(|&i| !chunk[i].is_async()).collect();
        if !sync_idx.is_empty() {
            let parts = take_thread_parts();
            let mut batch = BatchEngine::new(width, parts);
            let results = batch.run(sync_idx.iter().map(|&i| lane_spec(&chunk[i])).collect());
            put_thread_parts(batch.into_parts());
            for (&i, lane) in sync_idx.iter().zip(results) {
                let s = &chunk[i];
                if s.audited() {
                    assert!(
                        lane.violations.is_empty(),
                        "scenario (seed {}) violated invariants: {:?}",
                        s.seed,
                        lane.violations
                    );
                }
                out[i] = Some(lane.metrics);
            }
        }
        for (i, s) in chunk.iter().enumerate() {
            if s.is_async() {
                out[i] = Some(s.run());
            }
        }
        out.into_iter()
            .map(|m| m.expect("every chunk member executed"))
            .collect::<Vec<_>>()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_config::Class;
    use gather_workloads::of_class;

    fn grid() -> Vec<Scenario> {
        let mut scenarios = Vec::new();
        let classes = [Class::Multiple, Class::Asymmetric, Class::QuasiRegular];
        for (ci, &class) in classes.iter().enumerate() {
            let initial = of_class(class, 6, 42 + ci as u64);
            for (si, scheduler) in ["full", "round-robin"].iter().enumerate() {
                for faults in [0usize, 2] {
                    let mut s = Scenario::new(initial.clone(), 1000 + (ci * 10 + si) as u64);
                    s.scheduler = scheduler;
                    s.faults = faults;
                    s.max_rounds = 400;
                    scenarios.push(s);
                }
            }
        }
        scenarios
    }

    #[test]
    fn batched_sweep_matches_sequential_scenario_runs() {
        let pool = WorkerPool::new(2);
        let scenarios = grid();
        let sequential: Vec<RunMetrics> = scenarios.iter().map(|s| s.run()).collect();
        for width in [1, 4] {
            let batched = run_batched_on(&pool, &scenarios, width);
            assert_eq!(batched, sequential, "width {width} diverged");
        }
    }

    #[test]
    fn mixed_async_chunks_match_sequential_runs() {
        let pool = WorkerPool::new(2);
        let mut scenarios = grid();
        // Interleave async scenarios through the chunk; they must come
        // back in input order, bit-identical to their sequential runs.
        for (i, s) in scenarios.iter_mut().enumerate() {
            if i % 3 == 0 {
                s.scheduler = "async";
                s.audit = false;
                s.max_rounds = 2_000;
            }
        }
        let sequential: Vec<RunMetrics> = scenarios.iter().map(|s| s.run()).collect();
        let batched = run_batched_on(&pool, &scenarios, 4);
        assert_eq!(batched, sequential);
        assert!(scenarios
            .iter()
            .zip(&batched)
            .filter(|(s, _)| s.is_async())
            .all(|(_, m)| m.async_events.is_some()));
    }

    #[test]
    fn audit_off_scenarios_also_match() {
        let pool = WorkerPool::new(1);
        let mut scenarios = grid();
        for s in &mut scenarios {
            s.audit = false;
        }
        let sequential: Vec<RunMetrics> = scenarios.iter().map(|s| s.run()).collect();
        let batched = run_batched_on(&pool, &scenarios, 8);
        assert_eq!(batched, sequential);
    }
}
