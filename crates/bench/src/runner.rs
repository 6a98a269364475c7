//! Scenario execution and parallel trial mapping.

use crate::factory;
use gather_geom::Point;
use gather_sim::metrics::{summarize, CacheStats, RunMetrics};
use gather_sim::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Engine scratch recycled across every [`Scenario::run`] on this
    /// thread. Pool workers are long-lived (see [`crate::pool`]), so after
    /// each worker's first scenario the steady-state sweep loop performs no
    /// per-item engine allocation. `AnalysisCache::reset` guarantees the
    /// recycling is observationally invisible, so results stay independent
    /// of which worker ran which scenario.
    static ENGINE_PARTS: RefCell<Option<EngineParts>> = const { RefCell::new(None) };
}

/// One fully specified simulation scenario (a single cell × seed of an
/// experiment matrix).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Initial robot positions.
    pub initial: Vec<Point>,
    /// Algorithm name (see [`factory::ALGORITHMS`]).
    pub algorithm: &'static str,
    /// Scheduler name (see [`factory::SCHEDULERS`]).
    pub scheduler: &'static str,
    /// Motion-adversary name (see [`factory::MOTIONS`]).
    pub motion: &'static str,
    /// Number of crash faults to inject (randomly timed, seeded).
    pub faults: usize,
    /// Minimum movement step `δ`.
    pub delta: f64,
    /// Round budget.
    pub max_rounds: u64,
    /// RNG seed for every randomised component.
    pub seed: u64,
    /// Run the per-round invariant audits (default on). Only meaningful
    /// for the paper's algorithm — baselines never audit. Sweeps that
    /// measure raw scenario throughput turn this off; the audit costs the
    /// bulk of round time (see `BENCH_b9_obs.json`) and the b10 contract
    /// compares batch and sequential execution with identical settings.
    pub audit: bool,
    /// Rigid moves (default `true`). Only meaningful under the `"async"`
    /// scheduler: `false` lets the adversary stop in-flight robots at any
    /// event past `δ` progress ([`Rigidity::NonRigid`]).
    pub rigid: bool,
    /// Per-robot speed skew (default `0.0`). Only meaningful under the
    /// `"async"` scheduler: each robot's travel speed is scaled by a
    /// seeded multiplier in `[1, 1 + speed_skew)`.
    pub speed_skew: f64,
}

impl Scenario {
    /// A scenario with the harness defaults (paper's algorithm, full sync,
    /// full motion, no faults, `δ = 0.05`, 60 000 rounds).
    pub fn new(initial: Vec<Point>, seed: u64) -> Self {
        Scenario {
            initial,
            algorithm: "wait-free-gather",
            scheduler: "full",
            motion: "full",
            faults: 0,
            delta: 0.05,
            max_rounds: 60_000,
            seed,
            audit: true,
            rigid: true,
            speed_skew: 0.0,
        }
    }

    /// Does this scenario execute on the event-driven [`AsyncEngine`]?
    /// The `"async"` scheduler name selects the engine, not a
    /// [`Scheduler`] implementation — activation order comes from the
    /// event heap.
    pub fn is_async(&self) -> bool {
        self.scheduler == "async"
    }

    /// Runs the scenario to completion and summarises it, recycling this
    /// thread's engine scratch across calls.
    pub fn run(&self) -> RunMetrics {
        let parts = take_thread_parts();
        let (metrics, parts) = self.run_with(parts);
        put_thread_parts(parts);
        metrics
    }

    /// Runs the scenario with explicitly supplied recycled engine parts and
    /// hands them back for the next run. Exposed so benchmarks can audit
    /// allocation behaviour across sweep-item boundaries without the
    /// thread-local indirection.
    pub fn run_with(&self, parts: EngineParts) -> (RunMetrics, EngineParts) {
        if self.is_async() {
            let mut engine = self.build_async_engine(parts);
            let metrics = self.complete_async(&mut engine);
            return (metrics, engine.into_parts());
        }
        let mut engine = self.build_engine(parts, None);
        let metrics = self.complete(&mut engine);
        (metrics, engine.into_parts())
    }

    /// Runs the scenario with an attached observability handle and returns
    /// the handle alongside the metrics. When the handle is *enabled* the
    /// metrics carry per-phase wall-clock columns ([`RunMetrics::phase_ns`]);
    /// a [`EngineObs::disabled`] handle measures the cost of carrying the
    /// instrumentation without reading the clock.
    pub fn run_observed(&self, obs: EngineObs) -> (RunMetrics, EngineObs) {
        if self.is_async() {
            // The async engine carries no phase spans (its "phases" are
            // event kinds, not wall-clock laps); run plain and hand the
            // handle back untouched.
            let (metrics, _) = self.run_with(EngineParts::default());
            return (metrics, obs);
        }
        let mut engine = self.build_engine(EngineParts::default(), Some(obs));
        let mut metrics = self.complete(&mut engine);
        metrics.phase_ns = engine.phase_nanos();
        let obs = engine
            .take_observability()
            .expect("engine keeps the handle it was built with");
        (metrics, obs)
    }

    /// Runs the scenario with an *unbounded* trace and returns the metrics
    /// plus the full per-round NDJSON stream ([`Trace::to_jsonl`]). This is
    /// the in-process twin of the service's `POST /v1/trace` endpoint: the
    /// returned string is byte-identical to the streamed response body.
    pub fn run_traced(&self) -> (RunMetrics, String) {
        if self.is_async() {
            let mut engine = self.build_async_engine(EngineParts::default());
            let metrics = self.complete_async(&mut engine);
            return (metrics, engine.trace().to_jsonl());
        }
        let mut engine = self.build_engine(EngineParts::default(), None);
        let metrics = self.complete(&mut engine);
        (metrics, engine.trace().to_jsonl())
    }

    /// Runs like [`Scenario::run_traced`] but with the engine's position
    /// log enabled, returning the metrics, the per-round NDJSON trace and
    /// `log[r][i]` — robot `i`'s position after round `r` (`log[0]` is
    /// the initial configuration). This is the replay entry point: the
    /// trace-corpus tools re-simulate a captured spec + seed through it,
    /// cross-check the regenerated trace against the corpus bytes, and
    /// only then render frames — positions are never trusted from a
    /// side channel the trace cannot verify.
    ///
    /// # Errors
    ///
    /// Rejects `"async"` scenarios: the event-heap engine advances in
    /// event time and keeps no per-round position rows to replay.
    pub fn run_traced_positions(&self) -> Result<(RunMetrics, String, Vec<Vec<Point>>), String> {
        if self.is_async() {
            return Err(
                "replay requires a round-based scenario: the async engine keeps no \
                 per-round position log"
                    .to_string(),
            );
        }
        let mut engine = self.build_logged_engine(EngineParts::default());
        let metrics = self.complete(&mut engine);
        let trace = engine.trace().to_jsonl();
        Ok((metrics, trace, engine.position_log().to_vec()))
    }

    /// [`Scenario::build_engine`] with the position log switched on —
    /// recording is observation-only, so the run is bit-identical to an
    /// unlogged one (the replay cross-check above depends on it).
    fn build_logged_engine(&self, parts: EngineParts) -> Engine {
        self.engine_builder(parts).record_positions(true).build()
    }

    /// Builds the engine for this scenario. All `run*` entry points funnel
    /// through here so instrumented and traced runs are configured
    /// identically to plain ones.
    fn build_engine(&self, parts: EngineParts, obs: Option<EngineObs>) -> Engine {
        let mut builder = self.engine_builder(parts);
        if let Some(obs) = obs {
            builder = builder.observe(obs);
        }
        builder.build()
    }

    /// The shared builder behind every sync entry point: one place owns the
    /// factory wiring and seed layout, so logged/observed/traced runs can
    /// only differ by the flags they flip on top.
    fn engine_builder(&self, parts: EngineParts) -> EngineBuilder {
        let n = self.initial.len();
        let wait_free = self.algorithm == "wait-free-gather" && self.audit;
        Engine::builder(self.initial.clone())
            .algorithm(factory::algorithm(self.algorithm))
            .scheduler(factory::scheduler(self.scheduler, n, self.seed))
            .motion(factory::motion(self.motion, self.seed.wrapping_add(1)))
            .crash_plan(RandomCrashes::new(
                self.faults.min(n.saturating_sub(1)),
                0.05,
                self.seed.wrapping_add(2),
            ))
            .frames(self.frame_policy())
            .delta(self.delta)
            // Invariant monitors are part of the experiment only for the
            // wait-free algorithm; baselines violate them by design.
            .check_invariants(wait_free)
            .recycle(parts)
    }

    /// Frame policy shared by both engines: random per-activation frames,
    /// except for `"grid-march"` — the grid model grants a common compass
    /// (the algorithm is deliberately non-equivariant, its moves are
    /// global-axis steps), so it observes in the global frame.
    fn frame_policy(&self) -> FramePolicy {
        if self.algorithm == "grid-march" {
            FramePolicy::GlobalFrame
        } else {
            FramePolicy::RandomPerActivation {
                seed: self.seed.wrapping_add(3),
            }
        }
    }

    /// Builds the event-driven engine for an `"async"` scenario. Seed
    /// layout extends [`Scenario::build_engine`]'s (`+2` crashes, `+3`
    /// frames) with `+4` pacing, `+5` speed skew, `+6` rigidity.
    fn build_async_engine(&self, parts: EngineParts) -> AsyncEngine {
        let n = self.initial.len();
        let mut builder = AsyncEngine::builder(self.initial.clone())
            .algorithm(factory::algorithm(self.algorithm))
            .crash_plan(RandomCrashes::new(
                self.faults.min(n.saturating_sub(1)),
                0.05,
                self.seed.wrapping_add(2),
            ))
            .frames(self.frame_policy())
            .delta(self.delta)
            .timing(Timing::Phased {
                compute_time: 0.25,
                speed: 1.0,
            })
            .pacing(Pacing::Exponential {
                rate: 1.0,
                seed: self.seed.wrapping_add(4),
            })
            // The paper's invariant monitors (Lemma 5.1, never-bivalent)
            // are theorems of the ATOM model; mid-flight configurations
            // violate them legitimately, so ASYNC runs never audit —
            // boundary mapping records outcomes instead.
            .check_invariants(false)
            .recycle(parts);
        if self.speed_skew > 0.0 {
            builder = builder.speed_skew(self.speed_skew, self.seed.wrapping_add(5));
        }
        if !self.rigid {
            builder = builder.rigidity(Rigidity::NonRigid {
                stop_prob: 0.25,
                seed: self.seed.wrapping_add(6),
            });
        }
        builder.build()
    }

    /// Drives a built async engine to completion and summarises it,
    /// attaching cache stats and the event count.
    fn complete_async(&self, engine: &mut AsyncEngine) -> RunMetrics {
        let outcome = engine.run(self.max_rounds);
        let mut metrics = summarize(outcome, engine.trace());
        let (computed, hits, dirty_skips) = engine.analysis_cache_stats();
        metrics.analysis_cache = Some(CacheStats {
            computed,
            hits,
            dirty_skips,
        });
        metrics.async_events = Some(engine.events_processed());
        metrics
    }

    /// Drives a built engine to completion and summarises it, asserting the
    /// invariant monitors stayed quiet for the paper's algorithm.
    fn complete(&self, engine: &mut Engine) -> RunMetrics {
        let outcome = engine.run(self.max_rounds);
        let mut metrics = summarize(outcome, engine.trace());
        let (computed, hits, dirty_skips) = engine.analysis_cache_stats();
        metrics.analysis_cache = Some(CacheStats {
            computed,
            hits,
            dirty_skips,
        });
        if self.algorithm == "wait-free-gather" && self.audit {
            assert!(
                engine.violations().is_empty(),
                "invariant violations in {:?}: {:?}",
                self,
                engine.violations()
            );
        }
        metrics
    }
}

/// Takes this thread's recycled engine parts (fresh ones on the thread's
/// first use). Pair with [`put_thread_parts`]: the batch sweep runner uses
/// the same per-worker arena contract as [`Scenario::run`], so sequential
/// and batch execution on one pool share warm buffers.
pub fn take_thread_parts() -> EngineParts {
    ENGINE_PARTS
        .with(|cell| cell.borrow_mut().take())
        .unwrap_or_default()
}

/// Returns recycled engine parts to this thread's slot for the next run.
pub fn put_thread_parts(parts: EngineParts) {
    ENGINE_PARTS.with(|cell| *cell.borrow_mut() = Some(parts));
}

/// Runs `f` over every item on the process-wide persistent worker pool
/// (see [`crate::pool`]) and returns results in input order, independent of
/// worker count. Replaces the old per-call scoped-thread map: workers — and
/// with them the per-thread recycled engine scratch — now live for the
/// whole process instead of one call.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    crate::pool::global().map(&items, f)
}

/// Mean of a slice (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation of a slice.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Median of a slice (0 for empty input).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (nearest-rank with linear interpolation; 0 for
/// empty input).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = rank - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_workloads as workloads;

    #[test]
    fn scenario_runs_and_gathers() {
        let s = Scenario::new(workloads::random_scatter(5, 5.0, 3), 3);
        let m = s.run();
        assert!(m.gathered);
    }

    #[test]
    fn position_logged_run_is_bit_identical_to_the_traced_run() {
        let mut s = Scenario::new(workloads::random_scatter(6, 5.0, 9), 9);
        s.faults = 1;
        s.max_rounds = 2_000;
        let (plain_metrics, plain_trace) = s.run_traced();
        let (metrics, trace, log) = s.run_traced_positions().expect("sync scenario");
        assert_eq!(metrics, plain_metrics, "logging must not perturb the run");
        assert_eq!(trace, plain_trace);
        assert_eq!(
            log.len() as u64,
            metrics.rounds + 1,
            "log[0] is the initial configuration, one row per round after"
        );
        assert!(log.iter().all(|row| row.len() == 6));

        let mut a = s.clone();
        a.scheduler = "async";
        a.audit = false;
        assert!(
            a.run_traced_positions().is_err(),
            "the event-heap engine has no per-round position log"
        );
    }

    #[test]
    fn observed_run_matches_plain_run_and_times_phases() {
        let s = Scenario::new(workloads::random_scatter(5, 5.0, 3), 3);
        let plain = s.run();
        let (observed, obs) = s.run_observed(EngineObs::new(64));
        assert!(observed.phase_ns.is_some(), "enabled handle times phases");
        assert!(obs.totals().total() > 0);
        assert!(!obs.rounds().is_empty());
        // Identical behaviour modulo the timing columns.
        let mut untimed = observed.clone();
        untimed.phase_ns = None;
        assert_eq!(plain.to_jsonl(), untimed.to_jsonl());

        let (disabled, _) = s.run_observed(EngineObs::disabled());
        assert!(disabled.phase_ns.is_none(), "disabled handle stays silent");
    }

    #[test]
    fn weiszfeld_time_is_carved_out_of_classify() {
        // The B1 warm-start workload: a quasi-regular ring set with an
        // unoccupied centre, δ-creep motion — every round re-detects
        // regularity through the numeric Weber candidate, so the solver
        // runs and its time must land in the weiszfeld span.
        let initial: Vec<_> = workloads::quasi_regular(4, 3, 11)
            .into_iter()
            .map(|p| gather_geom::Point::new(p.x * 5.0, p.y * 5.0))
            .collect();
        let mut s = Scenario::new(initial, 11);
        s.scheduler = "round-robin";
        s.motion = "delta";
        s.delta = 0.01;
        s.max_rounds = 200;
        let (m, obs) = s.run_observed(EngineObs::new(64));
        assert!(m.weiszfeld_iters > 0, "QR scenario exercises Weiszfeld");
        assert!(
            obs.totals().get(gather_obs::Phase::Weiszfeld) > 0,
            "solver iterations must be charged to the weiszfeld phase: {:?}",
            obs.totals()
        );
    }

    #[test]
    fn traced_run_streams_every_round() {
        let s = Scenario::new(workloads::random_scatter(4, 4.0, 7), 7);
        let (metrics, jsonl) = s.run_traced();
        assert_eq!(jsonl.lines().count() as u64, metrics.rounds);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"round\":")));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn statistics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 95.0) - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        let _ = percentile(&[1.0], 101.0);
    }
}
