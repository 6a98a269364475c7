//! `async-team`: the `AsyncEngine` driven to gathering on random scatters.
//!
//! Two teams, both under phased timing (compute 0.25), exponential pacing
//! and speed skew 0.5, with audits off (the ASYNC engine never audits):
//! rigid motion at n=256 and non-rigid motion at n=64. Each run of the
//! workload builds a fixed number of scatters per team from the seed and runs
//! every instance `reps` times, so each instance's event count, outcome
//! and metrics line can be compared across its repeats.
//!
//! The engine is built exactly as `Scenario::run` builds it for an
//! `"async"` scenario and driven through the same loop as
//! `AsyncEngine::run`, one `step` call at a time, so every step can be
//! timed (a unit test holds the two paths byte-identical).

use crate::spans::SpanLog;
use crate::stats::{median, percentile, ratio, time_us};
use crate::{metric, Report, RunConfig};
use gather_bench::factory;
use gather_bench::runner::{put_thread_parts, take_thread_parts, Scenario};
use gather_config::{classify, classify_invocations, Configuration};
use gather_geom::{weiszfeld_iterations, weiszfeld_nanos, Point, Tol};
use gather_prng::mix64;
use gather_sim::prelude::*;
use gather_workloads::random_scatter;
use std::time::{Duration, Instant};

/// `(n, rigid, scatters)` of each team; the first is the headline team
/// whose median run wall is the time to gather.
const TEAMS: [(usize, bool, u64); 2] = [(256, true, 3), (64, false, 3)];
/// Scatter half-width, as in the b12 bench.
const EXTENT: f64 = 10.0;
/// Seconds of measurement one repeat of every instance takes on a 2-core
/// machine; the number of repeats is fixed by `--seconds`, not the clock.
const SECONDS_PER_REP: f64 = 8.5;
/// Wall budget of one window. About one n=64 scatter in twenty costs
/// 20–80 times the usual time per event (30–45 s a run instead of under
/// one); once a window has run this long it starts no further repeats, so
/// a seed with two such scatters still ends well within three minutes.
const WINDOW_BUDGET: Duration = Duration::from_secs(60);
/// Positions sampled per headline run for the classify timing.
const CLASSIFY_SAMPLES: usize = 8;

struct Instance {
    id: u64,
    team: usize,
    scenario: Scenario,
}

fn instances(config: &RunConfig) -> Vec<Instance> {
    let mut out = Vec::new();
    for (team, &(n, rigid, scatters)) in TEAMS.iter().enumerate() {
        for i in 0..scatters {
            let n = if config.tiny { n / 16 } else { n };
            let seed = mix64(config.seed ^ mix64(((team as u64) << 8) | i)) % 1_000_000_007;
            let mut s = Scenario::new(random_scatter(n, EXTENT, seed), seed);
            s.scheduler = "async";
            s.audit = false;
            s.rigid = rigid;
            s.speed_skew = 0.5;
            s.max_rounds = n as u64 * 20_000;
            out.push(Instance {
                id: ((team as u64) << 8) | i,
                team,
                scenario: s,
            });
        }
    }
    out
}

/// Builds the event-heap engine for an `"async"` scenario the way
/// `Scenario::run` does (seed layout `+2` crashes, `+3` frames, `+4`
/// pacing, `+5` speed skew, `+6` rigidity).
fn build(s: &Scenario, parts: EngineParts) -> AsyncEngine {
    let n = s.initial.len();
    let mut builder = AsyncEngine::builder(s.initial.clone())
        .algorithm(factory::algorithm(s.algorithm))
        .crash_plan(RandomCrashes::new(
            s.faults.min(n.saturating_sub(1)),
            0.05,
            s.seed.wrapping_add(2),
        ))
        .frames(FramePolicy::RandomPerActivation {
            seed: s.seed.wrapping_add(3),
        })
        .delta(s.delta)
        .timing(Timing::Phased {
            compute_time: 0.25,
            speed: 1.0,
        })
        .pacing(Pacing::Exponential {
            rate: 1.0,
            seed: s.seed.wrapping_add(4),
        })
        .check_invariants(false)
        .recycle(parts);
    if s.speed_skew > 0.0 {
        builder = builder.speed_skew(s.speed_skew, s.seed.wrapping_add(5));
    }
    if !s.rigid {
        builder = builder.rigidity(Rigidity::NonRigid {
            stop_prob: 0.25,
            seed: s.seed.wrapping_add(6),
        });
    }
    builder.build()
}

/// One completed run.
struct RunOut {
    metrics: RunMetrics,
    wall_s: f64,
    steps: u64,
    step_ns: Vec<f64>,
    classify_calls: u64,
    weiszfeld_iters: u64,
    weiszfeld_ns: u64,
    /// Positions sampled along the run (headline team only).
    samples: Vec<Vec<Point>>,
}

/// Runs one instance to completion with `AsyncEngine::run`'s loop,
/// timing every `step` call. With a log, each step is also a span.
fn drive(inst: &Instance, log: Option<&SpanLog>, sample: bool) -> RunOut {
    let s = &inst.scenario;
    let mut engine = build(s, take_thread_parts());
    let (c0, wi0, wn0) = (
        classify_invocations(),
        weiszfeld_iterations(),
        weiszfeld_nanos(),
    );
    let mut step_ns = Vec::new();
    let mut samples = Vec::new();
    let started = Instant::now();
    let run_id = log.map(SpanLog::new_id);
    let outcome = loop {
        if engine.is_gathered() {
            let point = (0..engine.positions().len())
                .find(|&i| engine.alive()[i])
                .map(|i| engine.positions()[i])
                .expect("gathered implies a live robot");
            break RunOutcome::Gathered {
                round: engine.round(),
                point,
            };
        }
        if engine.round() >= s.max_rounds {
            break RunOutcome::RoundLimit {
                rounds: engine.round(),
            };
        }
        if sample && engine.round().is_multiple_of(400) && samples.len() < CLASSIFY_SAMPLES {
            samples.push(engine.positions().to_vec());
        }
        let t = Instant::now();
        let stepped = engine.step().is_some();
        let end = Instant::now();
        step_ns.push((end - t).as_nanos() as f64);
        if let Some(log) = log {
            log.record(
                log.new_id(),
                "sim.async_engine.step",
                run_id,
                inst.id,
                t,
                end,
            );
        }
        if !stepped {
            break RunOutcome::RoundLimit {
                rounds: engine.round(),
            };
        }
    };
    let finished = Instant::now();
    let wall_s = (finished - started).as_secs_f64();
    if let (Some(log), Some(id)) = (log, run_id) {
        log.record(id, "sim.async_engine.run", None, inst.id, started, finished);
    }
    let mut metrics = summarize(outcome, engine.trace());
    let (computed, hits, dirty_skips) = engine.analysis_cache_stats();
    metrics.analysis_cache = Some(CacheStats {
        computed,
        hits,
        dirty_skips,
    });
    metrics.async_events = Some(engine.events_processed());
    let out = RunOut {
        steps: step_ns.len() as u64,
        metrics,
        wall_s,
        step_ns,
        classify_calls: classify_invocations() - c0,
        weiszfeld_iters: weiszfeld_iterations() - wi0,
        weiszfeld_ns: weiszfeld_nanos() - wn0,
        samples,
    };
    put_thread_parts(engine.into_parts());
    out
}

/// Repeats of every instance per window. A traced run has two windows
/// (untraced, then traced) and splits the repeats between them, so it
/// costs about as much as an untraced run; the traced window's runs are
/// still checked against the untraced window's.
fn reps(config: &RunConfig) -> u64 {
    let reps = ((config.seconds / SECONDS_PER_REP).round() as u64).max(2);
    if config.traced {
        reps.div_ceil(2)
    } else {
        reps
    }
}

/// Checks one run against the first run of the same instance.
fn check_run(first: &RunMetrics, run: &RunMetrics) -> Result<(), String> {
    if !run.gathered {
        return Err(format!("did not gather within {} ticks", run.rounds));
    }
    if run.async_events != first.async_events || run.rounds != first.rounds {
        return Err(format!(
            "repeat diverged: {:?} events / {} ticks vs {:?} / {}",
            run.async_events, run.rounds, first.async_events, first.rounds
        ));
    }
    if run.to_jsonl() != first.to_jsonl() {
        return Err("repeat produced a different metrics line".to_string());
    }
    Ok(())
}

#[derive(Default)]
struct Window {
    events: u64,
    wall_s: f64,
    /// Per team, each run's wall and its median and 99th-percentile step.
    team_walls_ms: [Vec<f64>; 2],
    step_p50_ns: [Vec<f64>; 2],
    step_p99_ns: [Vec<f64>; 2],
    /// Events and steps per team.
    team_events: [u64; 2],
    team_steps: [u64; 2],
    /// Peak RSS of each run.
    rss_mb: Vec<f64>,
    /// Every step latency (traced window only).
    step_ns: Vec<f64>,
    steps: u64,
    first_rep_events: u64,
    first_rep_ticks: u64,
    ticks: u64,
    classifications: u64,
    classify_calls: u64,
    weiszfeld_iters: u64,
    weiszfeld_ns: u64,
    cache_hits: u64,
    cache_computed: u64,
    samples: Vec<Vec<Point>>,
    metrics: Vec<RunMetrics>,
    /// Repeats left out because the window ran past `WINDOW_BUDGET`.
    skipped: u64,
}

fn window(
    config: &RunConfig,
    insts: &[Instance],
    firsts: &mut [Option<RunMetrics>],
    log: Option<&SpanLog>,
    report: &mut Report,
) -> Window {
    let mut w = Window::default();
    let started = Instant::now();
    for rep in 0..reps(config) {
        for (k, inst) in insts.iter().enumerate() {
            if rep > 0 && started.elapsed() > WINDOW_BUDGET {
                w.skipped += 1;
                continue;
            }
            crate::stats::reset_peak_rss();
            let out = drive(inst, log, rep == 0 && inst.team == 0);
            w.rss_mb.push(crate::stats::peak_rss_mb());
            report.attempted += 1;
            let m = &out.metrics;
            let events = m.async_events.unwrap_or(0);
            if rep == 0 && log.is_none() {
                println!(
                    "run instance={} n={} rigid={} seed={} events={events} ticks={} wall_ms={:.1}",
                    inst.id,
                    inst.scenario.initial.len(),
                    inst.scenario.rigid,
                    inst.scenario.seed,
                    m.rounds,
                    out.wall_s * 1e3
                );
            }
            w.events += events;
            w.wall_s += out.wall_s;
            w.team_walls_ms[inst.team].push(out.wall_s * 1e3);
            w.step_p50_ns[inst.team].push(median(&out.step_ns));
            w.step_p99_ns[inst.team].push(percentile(&out.step_ns, 99.0));
            w.team_events[inst.team] += events;
            w.team_steps[inst.team] += out.steps;
            if log.is_some() {
                w.step_ns.extend_from_slice(&out.step_ns);
            }
            w.steps += out.steps;
            w.ticks += m.rounds;
            if rep == 0 {
                w.first_rep_events += events;
                w.first_rep_ticks += m.rounds;
            }
            w.classifications += m.classifications;
            w.classify_calls += out.classify_calls;
            w.weiszfeld_iters += out.weiszfeld_iters;
            w.weiszfeld_ns += out.weiszfeld_ns;
            if let Some(cs) = m.analysis_cache {
                w.cache_hits += cs.hits;
                w.cache_computed += cs.computed;
            }
            w.samples.extend(out.samples);
            let first = firsts[k].get_or_insert_with(|| m.clone());
            if let Err(why) = check_run(first, m) {
                let diverged = !why.contains("did not gather");
                let what = format!(
                    "instance {} (n={}, rigid={}, seed={}) rep {rep}: {why}",
                    inst.id,
                    inst.scenario.initial.len(),
                    inst.scenario.rigid,
                    inst.scenario.seed
                );
                if diverged {
                    report.mismatch(what);
                } else {
                    report.fail(what);
                }
            }
            w.metrics.push(out.metrics);
        }
    }
    w
}

pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    // Set-up, timed five times: generate the scatters and warm this
    // thread's engine arena on a short run the measurement never uses
    // (the same run for every seed, so set-up time does not follow it).
    let (setup_s, insts) = crate::stats::median_setup(5, || {
        let insts = instances(config);
        let mut warm = Scenario::new(random_scatter(32, EXTENT, 32), 1);
        warm.scheduler = "async";
        warm.audit = false;
        warm.speed_skew = 0.5;
        warm.max_rounds = 32 * 20_000;
        std::hint::black_box(warm.run());
        insts
    });
    let mut firsts = vec![None; insts.len()];
    let w = window(config, &insts, &mut firsts, None, &mut report);
    if w.skipped > 0 {
        println!(
            "window budget of {:?} spent: {} repeats not run (their repeat check is missing)",
            WINDOW_BUDGET, w.skipped
        );
    }
    // The gated metrics are per step: how long an execution takes to
    // gather depends on the configurations it visits (seed to seed, the
    // median time to gather spreads by about 28 %), while the cost of a
    // step at a given n does not. The throughput is the n=64 team's events
    // per step (fixed by the seed) over its median step, so it moves with
    // `alt_p50_ms` unless a change alters how many events a step applies.
    let n64_rate =
        ratio(w.team_events[1] as f64, w.team_steps[1] as f64) / (median(&w.step_p50_ns[1]) / 1e9);
    let time_to_gather_ms = median(&w.team_walls_ms[0]);
    report.e2e.extend([
        metric("setup_s", setup_s, "s"),
        metric("throughput_per_s", n64_rate, "1/s"),
        metric("p50_ms", median(&w.step_p50_ns[0]) / 1e6, "ms"),
        metric("alt_p50_ms", median(&w.step_p50_ns[1]) / 1e6, "ms"),
        metric("p99_ms", median(&w.step_p99_ns[0]) / 1e6, "ms"),
        metric("peak_rss_mb", median(&w.rss_mb), "MB"),
        metric("events_per_s", w.events as f64 / w.wall_s, "events/s"),
        metric(
            "n256_events_per_s",
            w.team_events[0] as f64 / (w.team_walls_ms[0].iter().sum::<f64>() / 1e3),
            "events/s",
        ),
        metric("time_to_gather_s", time_to_gather_ms / 1e3, "s"),
        metric(
            "n64_time_to_gather_s",
            median(&w.team_walls_ms[1]) / 1e3,
            "s",
        ),
        metric(
            "runs",
            (w.team_walls_ms[0].len() + w.team_walls_ms[1].len()) as f64,
            "count",
        ),
        metric("events", w.events as f64, "count"),
        metric("skipped_repeats", w.skipped as f64, "count"),
    ]);

    if config.traced {
        let log = SpanLog::default();
        let t = window(config, &insts, &mut firsts, Some(&log), &mut report);
        let configs: Vec<Configuration> = t
            .samples
            .iter()
            .map(|p| Configuration::new(p.clone()))
            .collect();
        let classify_us: Vec<f64> = configs
            .iter()
            .map(|c| time_us(3, || classify(c, Tol::default())))
            .collect();
        let to_jsonl_us = time_us(1, || {
            t.metrics.iter().map(|m| m.to_jsonl().len()).sum::<usize>()
        }) / t.metrics.len().max(1) as f64;
        report.layers.extend([
            metric(
                "sim.async_engine.step_us_p50",
                median(&t.step_ns) / 1e3,
                "us",
            ),
            metric(
                "sim.async_engine.step_us_p99",
                percentile(&t.step_ns, 99.0) / 1e3,
                "us",
            ),
            metric(
                "sim.async_engine.events_per_step",
                ratio(t.events as f64, t.steps as f64),
                "count",
            ),
            metric(
                "sim.async_engine.events_total",
                t.first_rep_events as f64,
                "count",
            ),
            metric("sim.rounds_total", t.first_rep_ticks as f64, "count"),
            metric(
                "config.classifications_per_round",
                ratio(t.classifications as f64, t.ticks as f64),
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
                "config.classify_calls_per_event",
                ratio(t.classify_calls as f64, t.events as f64),
                "count",
            ),
            metric("config.classify_us", median(&classify_us), "us"),
            metric(
                "geom.weiszfeld_iters_per_round",
                ratio(t.weiszfeld_iters as f64, t.ticks as f64),
                "count",
            ),
            metric(
                "geom.weiszfeld_iters_per_event",
                ratio(t.weiszfeld_iters as f64, t.events as f64),
                "count",
            ),
            metric(
                "geom.weiszfeld_ms",
                t.weiszfeld_ns as f64 / 1e6 / reps(config) as f64,
                "ms",
            ),
            metric("sim.metrics.to_jsonl_us", to_jsonl_us, "us"),
            // Both windows run the same instances, so their walls compare
            // directly.
            metric(
                "obs.trace_overhead_pct",
                (t.wall_s / w.wall_s - 1.0) * 100.0,
                "%",
            ),
        ]);
        report.spans_jsonl = log.to_jsonl();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            seed: 9,
            seconds: 0.01,
            traced: true,
            tiny: true,
        }
    }

    #[test]
    fn stepped_drive_matches_scenario_run_byte_for_byte() {
        for inst in instances(&tiny()) {
            let driven = drive(&inst, None, false).metrics.to_jsonl();
            assert_eq!(
                driven,
                inst.scenario.run().to_jsonl(),
                "instance {}",
                inst.id
            );
        }
    }

    #[test]
    fn a_diverging_repeat_counts_as_a_failure() {
        let inst = &instances(&tiny())[0];
        let first = drive(inst, None, false).metrics;
        assert!(check_run(&first, &first).is_ok());
        let mut other = first.clone();
        other.async_events = other.async_events.map(|e| e + 1);
        assert!(check_run(&first, &other).unwrap_err().contains("diverged"));
        let mut stuck = first.clone();
        stuck.gathered = false;
        assert!(check_run(&first, &stuck)
            .unwrap_err()
            .contains("did not gather"));
    }

    #[test]
    fn tiny_run_reports_every_metric() {
        let report = run(&tiny());
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let scatters: u64 = TEAMS.iter().map(|t| t.2).sum();
        // Two windows, each running every scatter once.
        assert_eq!(report.attempted, 2 * scatters);
        for key in crate::E2E_KEYS {
            assert!(report.e2e.iter().any(|m| m.name == key), "{key}");
        }
        for key in crate::LAYER_KEYS {
            assert!(report.layers.iter().any(|m| m.name == key), "{key}");
        }
        assert!(report
            .spans_jsonl
            .contains("\"span\":\"sim.async_engine.step\""));
    }
}
