//! `POST /v1/batch`: the amortised mega-batch endpoint.
//!
//! `/v1/run` optimises per-request latency — small batches, inline
//! single-scenario execution on a dispatcher lane. `/v1/batch` optimises
//! throughput for bulk sweeps: it accepts up to
//! [`ServeConfig::max_mega_batch`] scenarios in one body and executes
//! the cache misses through lockstep `BatchEngine` lanes
//! ([`run_batched_on`]), which amortises scheduler bookkeeping and
//! engine setup across [`BATCH_WIDTH`] scenarios per worker claim
//! instead of one.
//!
//! Everything else — spec validation, canonical cache keys, JSONL
//! response stitching in request order, `x-gather-cache` headers — is
//! shared with `/v1/run` (same admission path, same `Work::Run`
//! execution), so the response for a given scenario list is
//! byte-identical across both endpoints and across engines. That holds
//! because `run_batched_on` is bit-identical to sequential `run()` by
//! the BatchEngine contract (DESIGN.md §14), which the unit test below
//! re-checks at this boundary.
//!
//! [`ServeConfig::max_mega_batch`]: crate::server::ServeConfig::max_mega_batch

use crate::http::Request;
use crate::server::{run_route, Inner, Replier, Routed};
use gather_bench::pool::WorkerPool;
use gather_bench::runner::Scenario;
use gather_bench::sweep::run_batched_on;
use gather_sim::metrics::RunMetrics;

/// Scenarios per lane claim inside the batch engine — wide enough to
/// amortise claim overhead, narrow enough to keep lanes load-balanced.
pub const BATCH_WIDTH: usize = 16;

/// Routes `POST /v1/batch`: identical admission to `/v1/run` except for
/// the larger batch cap and the batch execution flag.
pub(crate) fn batch_route(inner: &Inner, request: &Request, replier: Replier) -> Routed {
    run_route(inner, request, replier, true)
}

/// Executes a mega-batch's cache misses as `BatchEngine` lanes on the
/// worker pool.
pub(crate) fn run_batch_lanes(pool: &WorkerPool, scenarios: &[Scenario]) -> Vec<RunMetrics> {
    run_batched_on(pool, scenarios, BATCH_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    /// The `/v1/batch` executor must be bit-identical to sequential
    /// runs — that is what makes serving its results from the shared
    /// result cache (populated by either endpoint) sound.
    #[test]
    fn lane_executor_matches_sequential_runs() {
        let scenarios: Vec<Scenario> = (0..5)
            .map(|i| {
                let spec = ScenarioSpec {
                    workload: "scatter".to_string(),
                    class: None,
                    n: 9,
                    seed: 40 + i,
                    faults: 1,
                    max_rounds: 300,
                    ..ScenarioSpec::default()
                };
                spec.to_scenario().expect("valid scenario")
            })
            .collect();
        let pool = WorkerPool::new(2);
        let batched = run_batch_lanes(&pool, &scenarios);
        pool.shutdown();
        let sequential: Vec<RunMetrics> = scenarios.iter().map(Scenario::run).collect();
        assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(
                b.to_jsonl(),
                s.to_jsonl(),
                "batch lanes diverged from sequential execution"
            );
        }
    }
}
