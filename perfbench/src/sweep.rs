//! `theorem-sweep`: the Theorem 5.1 grid run as a closed batch.
//!
//! Six classes × n ∈ {8, 16, 32} × the four round schedulers ×
//! δ ∈ {0.05, 0.5} × f ∈ {0, ⌊n/2⌋, n−1}, the paper's algorithm with the
//! Lemma 5.1 audits on, under the δ-motion adversary and the random crash
//! plan. One trial of the grid is 432 scenarios; a pass is two trials.
//! Scenarios that share an initial configuration are emitted together,
//! and all scenarios of one (n, trial) form one chunk, which a pool worker
//! runs as `BatchEngine` lanes of width 16 — the calls
//! `gather_bench::sweep::run_batched_on` makes, without its panicking
//! assert. The number of passes is fixed by `--seconds`.
//!
//! A scenario fails when it reports an invariant violation or does not
//! gather. One passing scenario of every chunk is re-run sequentially with
//! `Scenario::run` and byte-compared with its lane result.

use crate::spans::{span, SpanLog};
use crate::stats::{median, ms_since, ratio, time_us};
use crate::{metric, Report, RunConfig};
use gather_bench::factory::SCHEDULERS;
use gather_bench::pool::{PoolObs, WorkerPool};
use gather_bench::runner::{put_thread_parts, take_thread_parts, Scenario};
use gather_bench::sweep::lane_spec;
use gather_config::{classify, Class, Configuration};
use gather_geom::{weiszfeld_nanos, Tol};
use gather_prng::mix64;
use gather_sim::prelude::*;
use gather_workloads::of_class;
use std::sync::Arc;
use std::time::Instant;

/// Team sizes, largest first so the slowest chunks start first.
const SIZES: [usize; 3] = [32, 16, 8];
/// Grid passes per requested second of measurement, calibrated so a pass
/// of the default grid takes about two seconds on a 2-core machine. The work
/// per run is fixed by `--seconds`, not by the clock, so `attempted`,
/// `failed` and the count metrics are exact functions of the seed.
const PASSES_PER_SECOND: f64 = 0.5;
const DELTAS: [f64; 2] = [0.05, 0.5];
/// `BatchEngine` lane width.
const WIDTH: usize = 16;
const TRIALS_PER_PASS: u64 = 2;
const WORKERS: usize = 2;
/// Passing scenarios re-run through the observed round `Engine`.
const ENGINE_SAMPLE: usize = 24;

/// All scenarios of one (n, trial), in grid order.
struct Chunk {
    id: u64,
    n: usize,
    classes: Vec<Class>,
    scenarios: Vec<Scenario>,
}

/// The grid's faults column for a team of `n`.
fn faults(n: usize) -> [usize; 3] {
    [0, n / 2, n - 1]
}

fn chunk(seed: u64, n: usize, trial: u64, tiny: bool) -> Chunk {
    let mut classes = Vec::new();
    let mut scenarios = Vec::new();
    let class_list = Class::all();
    let class_list = if tiny {
        &class_list[..2]
    } else {
        &class_list[..]
    };
    for (ci, &class) in class_list.iter().enumerate() {
        let config_seed = mix64(seed ^ mix64((trial << 16) | ((n as u64) << 4) | ci as u64));
        let initial = of_class(class, n, config_seed % 1_000_000);
        let m = initial.len();
        let mut cell = 0u64;
        for scheduler in SCHEDULERS {
            for delta in DELTAS {
                for f in faults(m) {
                    let mut s =
                        Scenario::new(initial.clone(), mix64(config_seed + cell) % 1_000_000_007);
                    s.scheduler = scheduler;
                    s.motion = "delta";
                    s.delta = delta;
                    s.faults = f;
                    classes.push(class);
                    scenarios.push(s);
                    cell += 1;
                }
            }
        }
    }
    Chunk {
        id: (trial << 8) | n as u64,
        n,
        classes,
        scenarios,
    }
}

fn pass_chunks(config: &RunConfig, pass: u64) -> Vec<Chunk> {
    let sizes: &[usize] = if config.tiny { &[8] } else { &SIZES };
    let trials = if config.tiny { 1 } else { TRIALS_PER_PASS };
    let mut chunks = Vec::new();
    for &n in sizes {
        for t in 0..trials {
            chunks.push(chunk(config.seed, n, pass * trials + t, config.tiny));
        }
    }
    chunks
}

fn passes(config: &RunConfig) -> u64 {
    ((config.seconds * PASSES_PER_SECOND).round() as u64).max(1)
}

/// What one chunk job produced on its worker.
struct ChunkOut {
    lanes: Vec<LaneResult>,
    wall_ms: f64,
    batch_ms: f64,
    weiszfeld_ns: u64,
}

fn run_chunk(c: &Chunk, log: Option<&SpanLog>, parent: Option<u64>) -> ChunkOut {
    let started = Instant::now();
    let wf0 = weiszfeld_nanos();
    let (lanes, batch_ms) = span(log, "sweep.chunk", parent, c.id, |id| {
        let specs: Vec<LaneSpec> = span(log, "sweep.lane_spec", id, c.id, |_| {
            c.scenarios.iter().map(lane_spec).collect()
        });
        let mut batch = BatchEngine::new(WIDTH, take_thread_parts());
        let t = Instant::now();
        let lanes = span(log, "sim.batch.run", id, c.id, |_| batch.run(specs));
        let batch_ms = ms_since(t);
        put_thread_parts(batch.into_parts());
        (lanes, batch_ms)
    });
    ChunkOut {
        lanes,
        wall_ms: ms_since(started),
        batch_ms,
        weiszfeld_ns: weiszfeld_nanos() - wf0,
    }
}

/// Does this lane pass the Theorem 5.1 check? Returns the reason if not.
fn check_lane(lane: &LaneResult) -> Result<(), String> {
    if let Some(first) = lane.violations.first() {
        let first: String = first.chars().take(120).collect();
        return Err(format!(
            "{} violating rounds, first: {first}",
            lane.violations.len()
        ));
    }
    if !lane.outcome.gathered() {
        return Err(format!(
            "did not gather within {} rounds",
            lane.metrics.rounds
        ));
    }
    Ok(())
}

fn describe(c: &Chunk, i: usize) -> String {
    let s = &c.scenarios[i];
    format!(
        "class {} n={} seed={} scheduler={} delta={} f={}",
        c.classes[i].short_name(),
        s.initial.len(),
        s.seed,
        s.scheduler,
        s.delta,
        s.faults
    )
}

/// Totals over one measurement window.
#[derive(Default)]
struct Window {
    scenarios: u64,
    wall_s: f64,
    passes: u64,
    /// Scenarios per second of each pass.
    pass_rates: Vec<f64>,
    /// Wall of each pass: all its chunks on the pool.
    pass_ms: Vec<f64>,
    /// Peak RSS of each pass.
    rss_mb: Vec<f64>,
    chunk_ms: Vec<f64>,
    /// Lanes byte-compared with `Scenario::run`.
    byte_checked: u64,
    /// Wall of the slowest chunk of each pass.
    slowest_chunk_ms: Vec<f64>,
    /// Chunk walls for the largest and smallest team size.
    big_chunk_ms: Vec<f64>,
    small_chunk_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    first_pass_rounds: u64,
    rounds: u64,
    classifications: u64,
    weiszfeld_iters: u64,
    cache_hits: u64,
    cache_computed: u64,
    weiszfeld_ns: u64,
    /// Passing scenarios of the first pass (for the traced samples).
    passing: Vec<Scenario>,
    first_metrics: Vec<RunMetrics>,
}

fn window(
    config: &RunConfig,
    pool: &WorkerPool,
    log: Option<&SpanLog>,
    report: &mut Report,
) -> Window {
    let mut w = Window::default();
    let big = if config.tiny { 8 } else { SIZES[0] };
    let small = 8;
    while w.passes < passes(config) {
        let chunks = pass_chunks(config, w.passes);
        crate::stats::reset_peak_rss();
        let started = Instant::now();
        let outs = span(log, "sweep.pass", None, w.passes, |id| {
            span(log, "bench.pool.map", id, w.passes, |id| {
                pool.map(&chunks, |c| run_chunk(c, log, id))
            })
        });
        let pass_s = started.elapsed().as_secs_f64();
        w.rss_mb.push(crate::stats::peak_rss_mb());
        w.wall_s += pass_s;
        w.pass_ms.push(pass_s * 1e3);
        w.pass_rates
            .push(chunks.iter().map(|c| c.scenarios.len()).sum::<usize>() as f64 / pass_s);
        w.slowest_chunk_ms
            .push(outs.iter().map(|o| o.wall_ms).fold(0.0, f64::max));
        for (c, out) in chunks.iter().zip(&outs) {
            w.chunk_ms.push(out.wall_ms);
            if c.n == big {
                w.big_chunk_ms.push(out.wall_ms);
            }
            if c.n == small {
                w.small_chunk_ms.push(out.wall_ms);
            }
            w.batch_ms.push(out.batch_ms);
            w.weiszfeld_ns += out.weiszfeld_ns;
            let mut passed = vec![false; out.lanes.len()];
            for (i, lane) in out.lanes.iter().enumerate() {
                report.attempted += 1;
                w.scenarios += 1;
                let m = &lane.metrics;
                w.rounds += m.rounds;
                if w.passes == 0 {
                    w.first_pass_rounds += m.rounds;
                    w.first_metrics.push(m.clone());
                }
                w.classifications += m.classifications;
                w.weiszfeld_iters += m.weiszfeld_iters;
                if let Some(cs) = m.analysis_cache {
                    w.cache_hits += cs.hits;
                    w.cache_computed += cs.computed;
                }
                if let Err(why) = check_lane(lane) {
                    report.fail(format!("{}: {why}", describe(c, i)));
                    continue;
                }
                passed[i] = true;
                if w.passes == 0 {
                    w.passing.push(c.scenarios[i].clone());
                }
            }
            // Byte-check one passing lane of every chunk (so every team
            // size) against the sequential engine, starting the search at
            // an index that moves with the chunk and the pass.
            let len = out.lanes.len();
            let start = (c.id as usize * 7 + w.passes as usize * 31) % len;
            if let Some(i) = (0..len).map(|k| (start + k) % len).find(|&i| passed[i]) {
                w.byte_checked += 1;
                let lane = out.lanes[i].metrics.to_jsonl();
                let sequential = c.scenarios[i].run().to_jsonl();
                if sequential != lane {
                    report.mismatch(format!(
                        "{}: lane result differs from Scenario::run\n    lane: {lane}\n    run:  {sequential}",
                        describe(c, i)
                    ));
                }
            }
        }
        w.passes += 1;
    }
    w
}

/// Phase attribution on a sample of passing scenarios, re-run through the
/// observed round `Engine`; plus the audit's marginal cost measured as
/// audit-on wall minus audit-off wall on the same scenarios.
pub(crate) fn engine_sample(sample: &[Scenario], report: &mut Report) {
    let mut phases = PhaseNanos::default();
    let mut observed_ns = 0u64;
    let mut rounds = 0u64;
    let mut audit_on_ns = 0u64;
    let mut audit_off_ns = 0u64;
    let mut audit_rounds = 0u64;
    for s in sample {
        let t = Instant::now();
        let (m, obs) = s.run_observed(EngineObs::new(1));
        observed_ns += t.elapsed().as_nanos() as u64;
        phases.accumulate(obs.totals());
        rounds += m.rounds;

        let mut off = s.clone();
        off.audit = false;
        let t = Instant::now();
        let on_metrics = s.run();
        let on_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let off_metrics = off.run();
        let off_ns = t.elapsed().as_nanos() as u64;
        // Audits only observe, so both runs take the same rounds; a
        // mismatch would make the difference meaningless.
        if on_metrics.rounds == off_metrics.rounds {
            audit_on_ns += on_ns;
            audit_off_ns += off_ns;
            audit_rounds += on_metrics.rounds;
        }
    }
    let per_round = |ns: f64| ratio(ns, rounds as f64);
    for phase in Phase::all() {
        let name = match phase {
            Phase::Snapshot => "sim.engine.snapshot_ns_per_round",
            Phase::Classify => "sim.engine.classify_ns_per_round",
            Phase::Weiszfeld => "sim.engine.weiszfeld_ns_per_round",
            Phase::Move => "sim.engine.move_ns_per_round",
            Phase::Invariants => "sim.engine.invariants_ns_per_round",
        };
        report
            .layers
            .push(metric(name, per_round(phases.get(phase) as f64), "ns"));
    }
    report.layers.push(metric(
        "sim.engine.unattributed_ns_per_round",
        per_round(observed_ns as f64 - phases.total() as f64),
        "ns",
    ));
    report.layers.push(metric(
        "sim.engine.audit_marginal_ns_per_round",
        ratio(
            audit_on_ns as f64 - audit_off_ns as f64,
            audit_rounds as f64,
        ),
        "ns",
    ));
    report.layers.push(metric(
        "sim.engine.sample_scenarios",
        sample.len() as f64,
        "count",
    ));
}

/// Evenly spaced picks from `items`, at most `k`.
fn spread<T: Clone>(items: &[T], k: usize) -> Vec<T> {
    if items.len() <= k {
        return items.to_vec();
    }
    (0..k).map(|i| items[i * items.len() / k].clone()).collect()
}

pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    // Set-up, timed five times: spawn the pool, build the first pass's
    // grid and warm each worker's engine arena on an n=8 chunk of a trial
    // the measurement never uses. The warm-up chunks do not depend on the
    // seed, so set-up time does not either.
    let pool_obs = Arc::new(PoolObs::default());
    let (setup_s, (pool, traced_pool)) = crate::stats::median_setup(5, || {
        let pool = WorkerPool::new(WORKERS);
        let traced_pool = config
            .traced
            .then(|| WorkerPool::new_instrumented(WORKERS, Arc::clone(&pool_obs)));
        std::hint::black_box(pass_chunks(config, 0));
        let warm: Vec<Chunk> = (0..WORKERS as u64)
            .map(|w| chunk(0, 8, 1_000_000 + w, config.tiny))
            .collect();
        for p in std::iter::once(&pool).chain(traced_pool.as_ref()) {
            p.map(&warm, |c| run_chunk(c, None, None).lanes.len());
        }
        (pool, traced_pool)
    });

    let w = window(config, &pool, None, &mut report);
    let scenarios_per_s = median(&w.pass_rates);
    report.e2e.extend([
        metric("setup_s", setup_s, "s"),
        metric("throughput_per_s", scenarios_per_s, "1/s"),
        metric("p50_ms", median(&w.big_chunk_ms), "ms"),
        metric("alt_p50_ms", median(&w.small_chunk_ms), "ms"),
        metric("p99_ms", median(&w.slowest_chunk_ms), "ms"),
        metric("pass_ms", median(&w.pass_ms), "ms"),
        metric("peak_rss_mb", median(&w.rss_mb), "MB"),
        metric("scenarios_per_s", scenarios_per_s, "scenarios/s"),
        metric("rounds_per_s", w.rounds as f64 / w.wall_s, "rounds/s"),
        metric("grid_passes", w.passes as f64, "count"),
        metric("chunks", w.chunk_ms.len() as f64, "count"),
        metric("byte_checked", w.byte_checked as f64, "count"),
    ]);

    if let Some(traced_pool) = &traced_pool {
        let log = SpanLog::default();
        let t = window(config, traced_pool, Some(&log), &mut report);
        let l = &mut report.layers;
        l.extend([
            metric(
                "bench.pool.queue_wait_us_p50",
                pool_obs.queue_wait.quantile(0.5) as f64 / 1e3,
                "us",
            ),
            metric(
                "bench.pool.job_ms_p50",
                pool_obs.run_time.quantile(0.5) as f64 / 1e6,
                "ms",
            ),
            metric(
                "bench.pool.job_ms_max",
                pool_obs.run_time.max() as f64 / 1e6,
                "ms",
            ),
            metric("sim.batch.run_ms_p50", median(&t.batch_ms), "ms"),
            metric("sim.rounds_total", t.first_pass_rounds as f64, "count"),
            metric(
                "config.classifications_per_round",
                ratio(t.classifications as f64, t.rounds as f64),
                "count",
            ),
            metric(
                "config.analysis_hit_ratio",
                ratio(
                    t.cache_hits as f64,
                    (t.cache_hits + t.cache_computed) as f64,
                ),
                "ratio",
            ),
            metric(
                "geom.weiszfeld_iters_per_round",
                ratio(t.weiszfeld_iters as f64, t.rounds as f64),
                "count",
            ),
            metric(
                "geom.weiszfeld_ms",
                t.weiszfeld_ns as f64 / 1e6 / t.passes as f64,
                "ms",
            ),
            // Both windows run the same passes, so their walls compare
            // directly.
            metric(
                "obs.trace_overhead_pct",
                (t.wall_s / w.wall_s - 1.0) * 100.0,
                "%",
            ),
        ]);
        // Classification cost at the grid's largest n, on the first
        // pass's initial configurations.
        let big = if config.tiny { 8 } else { SIZES[0] };
        let configs: Vec<Configuration> = pass_chunks(config, 0)
            .iter()
            .filter(|c| c.n == big)
            .flat_map(|c| {
                c.scenarios
                    .iter()
                    .step_by(24)
                    .map(|s| Configuration::new(s.initial.clone()))
            })
            .collect();
        let classify_us: Vec<f64> = configs
            .iter()
            .map(|c| time_us(5, || classify(c, Tol::default())))
            .collect();
        let to_jsonl_us = time_us(1, || {
            t.first_metrics
                .iter()
                .map(|m| m.to_jsonl().len())
                .sum::<usize>()
        }) / t.first_metrics.len().max(1) as f64;
        report.layers.extend([
            metric("config.classify_us", median(&classify_us), "us"),
            metric("sim.metrics.to_jsonl_us", to_jsonl_us, "us"),
        ]);
        let sample = spread(&t.passing, if config.tiny { 4 } else { ENGINE_SAMPLE });
        log.span("sim.engine.sample", None, 0, |_| {
            engine_sample(&sample, &mut report)
        });
        report.spans_jsonl = log.to_jsonl();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cells_share_their_initial_configuration_consecutively() {
        let c = chunk(1, 8, 0, false);
        assert_eq!(c.scenarios.len(), 6 * 4 * 2 * 3);
        for cell in c.scenarios.chunks(24) {
            assert!(cell.iter().all(|s| s.initial == cell[0].initial));
        }
        let again = chunk(1, 8, 0, false);
        assert!(c
            .scenarios
            .iter()
            .zip(&again.scenarios)
            .all(|(a, b)| a.initial == b.initial && a.seed == b.seed));
        // Class B is one fixed configuration per n; the others follow the seed.
        let other = chunk(2, 8, 0, false);
        assert!(c
            .scenarios
            .iter()
            .zip(&other.scenarios)
            .any(|(a, b)| a.initial != b.initial));
    }

    #[test]
    fn an_injected_invariant_violation_counts_as_a_failure() {
        let c = chunk(3, 8, 0, true);
        let mut out = run_chunk(&c, None, None);
        assert!(out.lanes.iter().all(|l| check_lane(l).is_ok()));
        out.lanes[0]
            .violations
            .push("injected: 2 locations told to stay".to_string());
        assert!(check_lane(&out.lanes[0]).unwrap_err().contains("injected"));
    }

    #[test]
    fn tiny_run_reports_every_metric() {
        let config = RunConfig {
            seed: 5,
            seconds: 0.01,
            traced: true,
            tiny: true,
        };
        let report = run(&config);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        for key in crate::E2E_KEYS {
            assert!(report.e2e.iter().any(|m| m.name == key), "{key}");
        }
        for key in crate::LAYER_KEYS {
            assert!(report.layers.iter().any(|m| m.name == key), "{key}");
        }
        assert!(report.spans_jsonl.contains("\"span\":\"sim.batch.run\""));
        // One lane of every chunk was byte-checked.
        let count = |name| report.e2e.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(count("byte_checked"), count("chunks"));
    }
}
