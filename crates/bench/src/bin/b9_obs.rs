//! B9 — Observability overhead and schema stability.
//!
//! Three checks backing the DESIGN.md §12 observability contract:
//!
//! * **overhead** — the same class × seed sweep run three ways, interleaved
//!   within every trial: *absent* (no [`EngineObs`] attached), *disabled*
//!   (a [`EngineObs::disabled`] handle carried through the round loop but
//!   never reading the clock) and *enabled* (full phase spans into a
//!   per-run ring). The acceptance gate requires disabled-mode overhead of
//!   at most 2 % versus absent: the median over samples of the ratio of
//!   the two sweeps timed back to back in each sample. Enabled-mode
//!   overhead is reported but not gated.
//! * **schema** — one traced run per configuration class; every NDJSON
//!   line's top-level keys must match the pinned [`TRACE_SCHEMA`] order
//!   (the same contract `crates/sim/tests/trace_schema.rs` pins in-tree
//!   and `POST /v1/trace` serves over the wire).
//! * **determinism** — absent, disabled and enabled runs must produce
//!   bit-identical [`RunMetrics`] once the timing columns are stripped.
//!
//! The pool section runs the sweep on an instrumented [`WorkerPool`]
//! ([`PoolObs`]) and reports queue-wait and run-time quantiles from the
//! log-bucketed histograms.
//!
//! Writes `BENCH_b9_obs.json` — unless `--baseline PATH` or `--quick` is
//! given, in which case the JSON goes to `--out` instead (a smoke or
//! regression-check run never overwrites the committed record). Quick and
//! full runs time the same sweep: the overhead gate is a median of paired
//! ratios, and fewer or shorter samples cannot resolve its 2 % bar. With `--baseline`
//! the committed record's `trace_schema` must match the pinned one (schema
//! drift fails the run); the absent-mode throughput regression check runs
//! only in full mode.

use gather_bench::pool::{self, PoolObs, WorkerPool};
use gather_bench::report;
use gather_bench::runner::{self, Scenario};
use gather_bench::table::{f, Table};
use gather_bench::Args;
use gather_obs::{EngineObs, Phase, PhaseNanos};
use gather_sim::prelude::{EngineParts, RunMetrics};
use gather_workloads as workloads;
use std::sync::Arc;
use std::time::Instant;

/// Pinned top-level key order of one `RoundRecord` NDJSON line. Must match
/// `crates/sim/tests/trace_schema.rs` and DESIGN.md §12.
const TRACE_SCHEMA: [&str; 10] = [
    "round",
    "class",
    "distinct",
    "max_mult",
    "activated",
    "crashed",
    "travel",
    "classifications",
    "cache_hits",
    "weiszfeld_iters",
];

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Absent = 0,
    Disabled = 1,
    Enabled = 2,
}

/// The variant orders the timed samples cycle through: absent and
/// disabled (the gated pair) always run back to back, each first in half
/// the samples, with enabled before or after them.
const ORDERS: [[Variant; 3]; 4] = [
    [Variant::Absent, Variant::Disabled, Variant::Enabled],
    [Variant::Disabled, Variant::Absent, Variant::Enabled],
    [Variant::Enabled, Variant::Absent, Variant::Disabled],
    [Variant::Enabled, Variant::Disabled, Variant::Absent],
];

impl Variant {
    const ALL: [Variant; 3] = [Variant::Absent, Variant::Disabled, Variant::Enabled];

    fn name(self) -> &'static str {
        match self {
            Variant::Absent => "absent",
            Variant::Disabled => "disabled",
            Variant::Enabled => "enabled",
        }
    }
}

/// The sweep every variant executes: full class × seed cross product under
/// the *random-subset* scheduler and *random-stop* motion adversary, so
/// runs last dozens of rounds instead of converging in one synchronous
/// step — the overhead gate needs sweeps that are milliseconds, not
/// microseconds.
fn sweep() -> Vec<Scenario> {
    let n = 14;
    let mut out: Vec<Scenario> = workloads::class_sweep(n, 2)
        .into_iter()
        .map(|(_class, seed, initial)| {
            let mut s = Scenario::new(initial, seed);
            s.scheduler = "random";
            s.motion = "random";
            s.faults = 1;
            s.max_rounds = 3_000;
            s
        })
        .collect();
    // One warm-start workload — quasi-regular rings with an
    // unoccupied centre under δ-creep — so the numeric Weber solver runs
    // and the weiszfeld span is exercised (the class sweep's runs resolve
    // their targets analytically).
    let qr: Vec<_> = workloads::quasi_regular(4, n / 4, 11)
        .into_iter()
        .map(|p| gather_geom::Point::new(p.x * 5.0, p.y * 5.0))
        .collect();
    let mut s = Scenario::new(qr, 11);
    s.scheduler = "round-robin";
    s.motion = "delta";
    s.delta = 0.01;
    // Kept short: with invariant monitors on, each δ-creep round costs an
    // order of magnitude more than a class-sweep round, and this scenario
    // must not dominate the timed pass.
    s.max_rounds = 60;
    out.push(s);
    out
}

/// Runs the whole sweep `reps` times under one variant, returning elapsed
/// seconds, the final repetition's per-scenario metrics (phase columns
/// stripped so the determinism cross-check compares like with like) and
/// the phase totals accumulated across every repetition for the enabled
/// variant. The timed samples use `reps == 1` (a single sweep is already
/// milliseconds, far above timer resolution); warm-up uses more.
fn run_sweep(
    scenarios: &[Scenario],
    variant: Variant,
    reps: usize,
) -> (f64, Vec<RunMetrics>, PhaseNanos) {
    let mut phases = PhaseNanos::default();
    let mut metrics = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        metrics = scenarios
            .iter()
            .map(|s| match variant {
                Variant::Absent => s.run_with(EngineParts::default()).0,
                Variant::Disabled => s.run_observed(EngineObs::disabled()).0,
                Variant::Enabled => {
                    let (mut m, obs) = s.run_observed(EngineObs::new(s.max_rounds as usize));
                    phases.accumulate(obs.totals());
                    m.phase_ns = None;
                    m
                }
            })
            .collect();
    }
    (start.elapsed().as_secs_f64(), metrics, phases)
}

/// Top-level JSON object keys of one NDJSON line, in order of appearance.
/// Dependency-free by the same hand-rolled-scan policy as every other
/// baseline check in this crate.
fn json_keys(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' if depth == 1 => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if bytes.get(j + 1) == Some(&b':') {
                    keys.push(line[start..j].to_string());
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

fn main() {
    let args = Args::parse();
    let mut failures: Vec<String> = Vec::new();
    let samples = 240;
    let scenarios = sweep();
    let runs_per_pass = scenarios.len() as f64;

    // --- Overhead: absent vs disabled vs enabled, interleaved ----------
    // Warm-up passes so code and data are hot before timing. Every sample
    // times one sweep per variant, and the gated statistic is the median
    // over samples of the *paired* ratio disabled/absent: the two sweeps
    // of a pair run back to back, so drift between samples (frequency,
    // neighbours on a shared box) cancels within the pair instead of
    // landing on whichever variant's median it happened to hit.
    for variant in Variant::ALL {
        run_sweep(&scenarios, variant, 8);
    }
    let mut times: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut ratios: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut results: [Option<Vec<RunMetrics>>; 3] = [None, None, None];
    let mut phase_totals = PhaseNanos::default();
    for trial in 0..samples {
        let mut secs = [0.0f64; 3];
        for variant in ORDERS[trial % ORDERS.len()] {
            let slot = variant as usize;
            let (elapsed, metrics, phases) = run_sweep(&scenarios, variant, 1);
            secs[slot] = elapsed;
            times[slot].push(elapsed);
            results[slot] = Some(metrics);
            if variant == Variant::Enabled {
                phase_totals = phases;
            }
        }
        for slot in 0..secs.len() {
            ratios[slot].push(secs[slot] / secs[Variant::Absent as usize]);
        }
    }
    let med = [
        runner::median(&times[0]),
        runner::median(&times[1]),
        runner::median(&times[2]),
    ];
    let overhead = |slot: usize| -> f64 { (runner::median(&ratios[slot]) - 1.0) * 100.0 };
    let disabled_pct = overhead(Variant::Disabled as usize);
    let enabled_pct = overhead(Variant::Enabled as usize);

    let mut vt = Table::new(&[
        "variant",
        "sweep s (median)",
        "runs/s",
        "overhead % (paired median)",
    ]);
    for (slot, variant) in Variant::ALL.into_iter().enumerate() {
        vt.push(vec![
            variant.name().to_string(),
            f(med[slot], 5),
            f(runs_per_pass / med[slot], 1),
            f(overhead(slot), 2),
        ]);
    }
    println!(
        "B9 — observability overhead ({} scenarios/sweep, {samples} interleaved samples)\n",
        scenarios.len()
    );
    vt.print();

    let overhead_gate = if disabled_pct > 2.0 {
        failures.push(format!(
            "disabled-mode overhead {disabled_pct:.2}% exceeds the 2% budget"
        ));
        format!("\"enforced: disabled +{disabled_pct:.2}% (> 2% budget) — FAILED\"")
    } else {
        format!("\"enforced: disabled {disabled_pct:+.2}% vs absent (budget 2%)\"")
    };
    println!("\noverhead gate: {overhead_gate}");

    // --- Determinism across variants -----------------------------------
    let absent_metrics = results[0].take().expect("absent trial ran");
    let identical = results[1..]
        .iter()
        .all(|r| r.as_ref().expect("trial ran") == &absent_metrics);
    if !identical {
        failures.push(
            "instrumented runs diverged from uninstrumented ones (observability must not \
             change the run)"
                .to_string(),
        );
    }
    println!("bit-identical metrics across variants: {identical}");

    // --- Phase attribution (enabled variant, last trial) ----------------
    let mut pt = Table::new(&["phase", "total ms", "share %"]);
    let total = phase_totals.total().max(1);
    for phase in Phase::all() {
        let ns = phase_totals.get(phase);
        pt.push(vec![
            phase.name().to_string(),
            f(ns as f64 / 1e6, 2),
            f(ns as f64 / total as f64 * 100.0, 1),
        ]);
    }
    println!("\nper-phase attribution (enabled sweep)\n");
    pt.print();

    // --- Trace schema ---------------------------------------------------
    let mut schema_ok = true;
    let mut traced_lines = 0u64;
    for scenario in &scenarios[..gather_config::Class::all().len().min(scenarios.len())] {
        let (metrics, jsonl) = scenario.run_traced();
        assert_eq!(jsonl.lines().count() as u64, metrics.rounds);
        traced_lines += metrics.rounds;
        for line in jsonl.lines() {
            if json_keys(line) != TRACE_SCHEMA {
                schema_ok = false;
                failures.push(format!(
                    "trace schema drift: keys {:?} != pinned {:?}",
                    json_keys(line),
                    TRACE_SCHEMA
                ));
                break;
            }
        }
        if !schema_ok {
            break;
        }
    }
    println!(
        "\ntrace schema: {} NDJSON lines checked, pinned order held: {schema_ok}",
        traced_lines
    );

    // --- Instrumented worker pool ---------------------------------------
    let pool_obs = Arc::new(PoolObs::default());
    let ipool = WorkerPool::new_instrumented(pool::default_threads(), Arc::clone(&pool_obs));
    let _ = ipool.map(&scenarios, Scenario::run);
    let jobs = pool_obs.queue_wait.count();
    if jobs != scenarios.len() as u64 || pool_obs.run_time.count() != jobs {
        failures.push(format!(
            "pool histograms recorded {jobs} waits / {} runs for {} jobs",
            pool_obs.run_time.count(),
            scenarios.len()
        ));
    }
    let mut ht = Table::new(&["histogram", "count", "p50 us", "p99 us", "max us"]);
    for (name, h) in [
        ("queue_wait", &pool_obs.queue_wait),
        ("run_time", &pool_obs.run_time),
    ] {
        ht.push(vec![
            name.to_string(),
            h.count().to_string(),
            f(h.quantile(0.5) as f64 / 1e3, 1),
            f(h.quantile(0.99) as f64 / 1e3, 1),
            f(h.max() as f64 / 1e3, 1),
        ]);
    }
    println!(
        "\ninstrumented pool ({} workers)\n",
        pool::default_threads()
    );
    ht.print();

    // --- JSON record -----------------------------------------------------
    let schema_list = TRACE_SCHEMA
        .iter()
        .map(|k| format!("\"{k}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let mut json = format!(
        "{{\n  \"bench\": \"b9_obs\",\n  \"scenarios\": {},\n  \"samples\": {samples},\n  \
         \"overhead_gate\": {overhead_gate},\n  \"disabled_overhead_pct\": {disabled_pct:.2},\n  \
         \"enabled_overhead_pct\": {enabled_pct:.2},\n  \
         \"bit_identical_across_variants\": {identical},\n  \
         \"trace_schema_ok\": {schema_ok},\n  \"trace_schema\": [{schema_list}],\n  \
         \"variants\": [\n",
        scenarios.len()
    );
    for (slot, variant) in Variant::ALL.into_iter().enumerate() {
        json.push_str(&format!(
            "    {{\"variant\": \"{}\", \"sweep_seconds\": {:.5}, \"runs_per_sec\": {:.1}}}{}\n",
            variant.name(),
            med[slot],
            runs_per_pass / med[slot],
            if slot + 1 < Variant::ALL.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n  \"phase_ns\": ");
    let mut phase_json = String::new();
    phase_totals.write_json(&mut phase_json);
    json.push_str(&phase_json);
    json.push_str(",\n  \"pool\": [\n");
    for (i, (name, h)) in [
        ("queue_wait", &pool_obs.queue_wait),
        ("run_time", &pool_obs.run_time),
    ]
    .into_iter()
    .enumerate()
    {
        json.push_str(&format!(
            "    {{\"histogram\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"max_ns\": {}}}{}\n",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max(),
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut csv = Table::new(&["variant", "sweep_seconds", "runs_per_sec"]);
    for (slot, variant) in Variant::ALL.into_iter().enumerate() {
        csv.push(vec![
            variant.name().to_string(),
            f(med[slot], 4),
            f(runs_per_pass / med[slot], 1),
        ]);
    }
    let out = args.out_dir.join("b9_obs.csv");
    csv.write_csv(&out).expect("write CSV");
    println!("\nwrote {}", out.display());

    if let Some(baseline_path) = &args.baseline {
        // Regression-check mode: the committed record stays untouched,
        // fresh JSON goes to the out dir. Schema drift against the
        // committed record always fails; throughput comparison only runs
        // in full mode. A quick run gates the overhead ratio, the schema
        // and determinism.
        let text = report::read_baseline(baseline_path);
        let base_schema_line = text
            .lines()
            .find(|l| l.contains("\"trace_schema\":"))
            .unwrap_or_else(|| panic!("baseline {} has no trace_schema", baseline_path.display()));
        let base_keys: Vec<String> = base_schema_line
            .split('[')
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .map(|inner| {
                inner
                    .split(',')
                    .map(|k| k.trim().trim_matches('"').to_string())
                    .collect()
            })
            .unwrap_or_default();
        if base_keys != TRACE_SCHEMA {
            failures.push(format!(
                "trace schema drifted from committed baseline: {base_keys:?} != {TRACE_SCHEMA:?}"
            ));
        } else {
            println!("baseline trace schema matches the pinned order — ok");
        }
        let throughput_gate = if args.quick {
            "skipped: quick mode compares overhead ratios only, not absolute runs/s".to_string()
        } else {
            let base_absent = text
                .lines()
                .find(|l| l.contains("\"absent\""))
                .and_then(|l| report::extract_number(l, "\"runs_per_sec\":"))
                .unwrap_or_else(|| {
                    panic!("baseline {} has no absent row", baseline_path.display())
                });
            let fresh = runs_per_pass / med[Variant::Absent as usize];
            if fresh < 0.7 * base_absent {
                failures.push(format!(
                    "absent-mode throughput regressed >30% ({fresh:.1} vs baseline \
                     {base_absent:.1} runs/s)"
                ));
            }
            format!("enforced: {fresh:.1} vs committed {base_absent:.1} runs/s")
        };
        println!("throughput gate: \"{throughput_gate}\"");
    }
    report::emit_record(
        "b9_obs",
        &json,
        &args.out_dir,
        args.quick,
        args.baseline.is_some(),
    );
    report::fail_if_any("B9", &failures);
}
