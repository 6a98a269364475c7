//! Repository benchmark for the wait-free gathering suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <theorem-sweep|async-team|service-mix|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process. `--trace 0` measures the
//! end-to-end metrics with no instrumentation; `--trace 1` repeats the same
//! measurement untraced, then once more with spans around the benchmark's
//! calls into each layer, and reports the per-layer metrics plus the gap
//! between the two windows as `obs.trace_overhead_pct`. The last line of
//! standard output is one JSON object: `correct` (no output disagreed with
//! its in-process reference), `attempted`, `failed` and `metrics`.
//! `--out DIR` is where the traced run writes its spans.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod awake;
mod mix;
mod spans;
mod stats;
mod sweep;
mod team;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every workload reports on an untraced run, in
/// `BENCHMARK.json` order.
pub const E2E_KEYS: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "throughput_per_s",
    "p50_ms",
    "alt_p50_ms",
    "p99_ms",
];

/// Per-layer metrics every workload reports on a traced run, in
/// `BENCHMARK.json` order. Workload-specific layer metrics are printed and
/// written next to the spans but are not part of the result line.
pub const LAYER_KEYS: [&str; 8] = [
    "sim.rounds_total",
    "config.classifications_per_round",
    "config.analysis_hit_ratio",
    "config.classify_us",
    "geom.weiszfeld_iters_per_round",
    "geom.weiszfeld_ms",
    "sim.metrics.to_jsonl_us",
    "obs.trace_overhead_pct",
];

pub const WORKLOADS: [&str; 3] = ["theorem-sweep", "async-team", "service-mix"];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload process measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (scenarios, runs or requests).
    pub attempted: u64,
    /// Operations that failed: a scenario that violated Theorem 5.1's
    /// checks, a request that was refused or errored, an output that
    /// disagreed with its reference.
    pub failed: u64,
    /// Outputs that disagreed with their in-process reference (a subset
    /// of `failed`); any makes the run incorrect.
    pub mismatches: u64,
    /// One line per failed operation (printed, capped).
    pub failures: Vec<String>,
    /// End-to-end metrics: the generic `E2E_KEYS` plus the
    /// workload's own names for them.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans_jsonl: String,
}

impl Report {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records an output that disagreed with its reference.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.fail(what);
    }
}

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Self-test size: a handful of operations through the same code path.
    pub tiny: bool,
}

#[derive(Debug)]
struct Args {
    workload: String,
    config: RunConfig,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}, all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            traced,
            tiny: false,
        },
        out,
    })
}

/// Where this result came from: machine, toolchain, build and inputs.
fn provenance(config: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\"seed\":{},\"traced\":{}}}",
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
        config.seed,
        config.traced
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats a value with every digit it has; non-finite values (which no
/// workload should produce) become `0` so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn result_line(report: &Report, traced: bool) -> Result<String, String> {
    let (keys, list): (&[&str], &[Metric]) = if traced {
        (&LAYER_KEYS, &report.layers)
    } else {
        (&E2E_KEYS, &report.e2e)
    };
    let mut metrics = String::new();
    for key in keys {
        let m = list
            .iter()
            .find(|m| m.name == *key)
            .ok_or_else(|| format!("workload did not report {key}"))?;
        if !metrics.is_empty() {
            metrics.push(',');
        }
        write!(
            metrics,
            "\"{key}\":{{\"value\":{},\"unit\":\"{}\"}}",
            num(m.value),
            m.unit
        )
        .expect("write to String");
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.mismatches == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    ))
}

fn run_workload(name: &str, config: &RunConfig) -> Report {
    match name {
        "theorem-sweep" => sweep::run(config),
        "async-team" => team::run(config),
        "service-mix" => mix::run(config),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs every workload, each in its own child process, one after another.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut args: Vec<String> = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("validated")
            + 1;
        args[at] = workload.to_string();
        let status = std::process::Command::new(&exe).args(&args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let config = &args.config;
    println!(
        "perfbench workload={} seed={} seconds={} traced={}",
        args.workload, config.seed, config.seconds, config.traced
    );
    let stamp = provenance(config);
    println!("provenance {stamp}");
    let report = run_workload(&args.workload, config);

    println!(
        "failed {} of {} attempted (failed_ratio {:.6}; {} reference mismatches)",
        report.failed,
        report.attempted,
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.mismatches
    );
    for f in report.failures.iter().take(200) {
        println!("  failure: {f}");
    }
    if report.failures.len() > 200 {
        println!("  ... {} more failures", report.failures.len() - 200);
    }
    for m in &report.e2e {
        println!("e2e {} = {} {}", m.name, num(m.value), m.unit);
    }
    for m in &report.layers {
        println!("layer {} = {} {}", m.name, num(m.value), m.unit);
    }
    if config.traced {
        let stem = format!("{}-seed{}", args.workload, config.seed);
        let mut layers = String::new();
        for m in &report.layers {
            writeln!(
                layers,
                "{{\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
            .expect("write to String");
        }
        let written = std::fs::create_dir_all(&args.out).and_then(|()| {
            std::fs::write(
                args.out.join(format!("{stem}.spans.jsonl")),
                format!("{stamp}\n{}", report.spans_jsonl),
            )?;
            std::fs::write(
                args.out.join(format!("{stem}.layers.jsonl")),
                format!("{stamp}\n{layers}"),
            )
        });
        match written {
            Ok(()) => println!("spans and layer metrics written to {}", args.out.display()),
            Err(e) => {
                eprintln!(
                    "perfbench: cannot write spans to {}: {e}",
                    args.out.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match result_line(&report, config.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload async-team --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "async-team");
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.seconds, 12.0);
        assert!(a.config.traced);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload all",
            "--workload all --seed x",
            "--workload all --seed 1 --trace 2",
            "--workload all --seed 1 --seconds 0",
            "--workload all --seed 1 --bogus",
            "--workload all --seed 1 --tiny",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_lists_exactly_the_benchmark_metrics() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        for key in E2E_KEYS {
            report.e2e.push(metric(key, 1.5, "ms"));
        }
        report.e2e.push(metric("extra", 2.0, "ms"));
        let line = result_line(&report, false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(!line.contains("extra"));
        assert_eq!(line.matches("\"value\":1.5").count(), E2E_KEYS.len());
        report.fail("a scenario violated an invariant".to_string());
        let line = result_line(&report, false).unwrap();
        assert!(line.contains("\"correct\":true,\"attempted\":10,\"failed\":1"));
        report.mismatch("a body differed from its reference".to_string());
        assert!(result_line(&report, false)
            .unwrap()
            .contains("\"correct\":false"));
        assert!(result_line(&report, true).is_err(), "layers missing");
    }
}
