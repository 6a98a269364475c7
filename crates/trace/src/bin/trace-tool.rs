//! `trace-tool` — the trace corpus CLI.
//!
//! ```text
//! trace-tool capture --out FILE [--seed N] [--max-rounds N]
//! trace-tool analyze --corpus FILE [--out FILE]
//! trace-tool diff --baseline FILE --candidate FILE [--tol-rounds F] [--tol-slope F]
//! trace-tool replay --corpus FILE [--exec LABEL] [--every K] [--cols N] [--rows N] [--svg FILE]
//! trace-tool smoke --baseline FILE
//! ```
//!
//! `capture` streams the standard six-class corpus from an in-process
//! service; `analyze` prints the deterministic NDJSON report; `diff`
//! exits 1 on regressions; `replay` re-simulates and renders terminal
//! frames (and optionally the SVG trajectory export); `smoke` is the CI
//! gate: capture twice (byte-determinism), compare analyzer output
//! against the committed baseline, and self-diff at zero tolerance.

use gather_trace::{
    analyze_corpus, capture_corpus, diff_reports, replay_execution, replay_svg, six_class_specs,
    Corpus, DiffTolerance,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(command), rest) = (args.first(), &args[1.min(args.len())..]) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "capture" => capture(rest),
        "analyze" => analyze(rest),
        "diff" => diff(rest),
        "replay" => replay(rest),
        "smoke" => smoke(rest),
        _ => Err(format!("unknown subcommand {command:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("trace-tool {command}: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: trace-tool <capture|analyze|diff|replay|smoke> [options]\n\
  capture --out FILE [--seed N] [--max-rounds N]\n\
  analyze --corpus FILE [--out FILE]\n\
  diff --baseline FILE --candidate FILE [--tol-rounds F] [--tol-slope F]\n\
  replay --corpus FILE [--exec LABEL] [--every K] [--cols N] [--rows N] [--svg FILE]\n\
  smoke --baseline FILE";

/// `--key value` lookup; flags repeat last-wins.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.windows(2)
        .rev()
        .find(|w| w[0] == key)
        .map(|w| w[1].as_str())
}

fn required<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    opt(args, key).ok_or_else(|| format!("missing required option {key} <value>"))
}

fn parsed<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{what} is not a valid value: {text:?}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

fn capture(args: &[String]) -> Result<ExitCode, String> {
    let out = required(args, "--out")?;
    let seed = parsed(opt(args, "--seed").unwrap_or("7"), "--seed")?;
    let max_rounds = parsed(opt(args, "--max-rounds").unwrap_or("2000"), "--max-rounds")?;
    let specs = six_class_specs(seed, max_rounds);
    let corpus = capture_corpus(&specs)?;
    write(out, &corpus)?;
    let parsed = Corpus::parse(&corpus)?;
    println!(
        "captured {} executions ({} rounds) to {out}",
        parsed.executions.len(),
        parsed.total_rounds()
    );
    Ok(ExitCode::SUCCESS)
}

fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let corpus = Corpus::parse(&read(required(args, "--corpus")?)?)?;
    let ndjson = analyze_corpus(&corpus).to_ndjson();
    match opt(args, "--out") {
        Some(path) => write(path, &ndjson)?,
        None => print!("{ndjson}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &[String]) -> Result<ExitCode, String> {
    let baseline = analyze_corpus(&Corpus::parse(&read(required(args, "--baseline")?)?)?);
    let candidate = analyze_corpus(&Corpus::parse(&read(required(args, "--candidate")?)?)?);
    let tol = DiffTolerance {
        rel_rounds: parsed(opt(args, "--tol-rounds").unwrap_or("0"), "--tol-rounds")?,
        rel_slope: parsed(opt(args, "--tol-slope").unwrap_or("0"), "--tol-slope")?,
    };
    let report = diff_reports(&baseline, &candidate, tol);
    print!("{}", report.to_ndjson());
    Ok(if report.regressions() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn replay(args: &[String]) -> Result<ExitCode, String> {
    let corpus = Corpus::parse(&read(required(args, "--corpus")?)?)?;
    let exec = match opt(args, "--exec") {
        Some(label) => corpus.by_label(label).ok_or_else(|| {
            format!(
                "no execution labelled {label:?}; corpus has: {}",
                corpus
                    .executions
                    .iter()
                    .map(|e| e.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?,
        None => corpus
            .executions
            .first()
            .ok_or("corpus holds no executions")?,
    };
    let style = gather_viz::ReplayStyle {
        cols: parsed(opt(args, "--cols").unwrap_or("60"), "--cols")?,
        rows: parsed(opt(args, "--rows").unwrap_or("20"), "--rows")?,
    };
    let rendered = replay_execution(exec, style)?;
    // `--every 0` (the default) auto-strides to at most ~24 frames; the
    // final frame always prints.
    let every = match parsed::<usize>(opt(args, "--every").unwrap_or("0"), "--every")? {
        0 => rendered.frames.len().div_ceil(24).max(1),
        k => k,
    };
    let last = rendered.frames.len() - 1;
    for (i, frame) in rendered.frames.iter().enumerate() {
        if i % every == 0 || i == last {
            println!("{frame}");
        }
    }
    if let Some(path) = opt(args, "--svg") {
        write(path, &replay_svg(exec)?)?;
        println!("wrote trajectory SVG to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The CI gate: capture determinism, baseline byte identity, and a
/// zero-tolerance self-diff.
fn smoke(args: &[String]) -> Result<ExitCode, String> {
    let baseline_path = required(args, "--baseline")?;
    let specs = six_class_specs(7, 2_000);

    let first = capture_corpus(&specs)?;
    let second = capture_corpus(&specs)?;
    if first != second {
        return Err("capture is not byte-deterministic across service instances".to_string());
    }
    println!(
        "trace-smoke: capture deterministic across service instances ({} bytes)",
        first.len()
    );

    let corpus = Corpus::parse(&first)?;
    if corpus.executions.len() != specs.len() {
        return Err(format!(
            "expected {} executions, parsed {}",
            specs.len(),
            corpus.executions.len()
        ));
    }
    let report = analyze_corpus(&corpus);
    for exec in &report.executions {
        if !exec.violations.is_empty() || exec.illegal_transitions != 0 {
            return Err(format!(
                "{}: {} monotonicity violations, {} illegal transitions (f=0 \
                 rigid executions must audit clean)",
                exec.label,
                exec.violations.len(),
                exec.illegal_transitions
            ));
        }
        if !exec.gathered {
            return Err(format!("{}: failed to gather", exec.label));
        }
    }
    println!(
        "trace-smoke: {} executions audit clean and gather",
        report.executions.len()
    );

    let ndjson = report.to_ndjson();
    let baseline = read(baseline_path)?;
    if ndjson != baseline {
        let divergent = ndjson
            .lines()
            .zip(baseline.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| ndjson.lines().count().min(baseline.lines().count()) + 1);
        return Err(format!(
            "analyzer output diverges from {baseline_path} at line {divergent} \
             (regenerate with: trace-tool analyze --corpus <capture> --out {baseline_path})"
        ));
    }
    println!("trace-smoke: analytics match {baseline_path}");

    let self_diff = diff_reports(&report, &report, DiffTolerance::default());
    if self_diff.regressions() != 0 {
        return Err(format!(
            "self-diff reported {} regressions (must be 0)",
            self_diff.regressions()
        ));
    }
    println!("trace-smoke: self-diff clean — OK");
    Ok(ExitCode::SUCCESS)
}
