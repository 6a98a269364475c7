//! Shared record/gate plumbing for the `bX_*` benchmark binaries.
//!
//! Every performance benchmark (B7, B8, B9, B10, B11, B12) follows the same
//! contract: full runs overwrite the committed `BENCH_<name>.json` at the
//! repo root, while `--quick` and `--baseline` runs write their (reduced or
//! comparison) record to the `--out` directory and leave the committed file
//! untouched; accumulated gate failures print as `BX FAILURES:` and fail
//! the process. This module is that contract, written once — the binaries
//! keep only what is genuinely theirs (the sweeps and the gates).

use std::path::{Path, PathBuf};

/// Routes a benchmark's JSON record to the right file and announces it.
///
/// * full mode (`!quick`, no baseline) → `BENCH_<name>.json` at the repo
///   root: the committed record;
/// * `--quick` → `<out_dir>/<name>.json`, noting the committed record was
///   left untouched (a reduced sweep must never become the record);
/// * `--baseline` (regression check) → `<out_dir>/<name>.json`.
///
/// Returns the path written.
pub fn emit_record(
    name: &str,
    json: &str,
    out_dir: &Path,
    quick: bool,
    regression_check: bool,
) -> PathBuf {
    if regression_check || quick {
        std::fs::create_dir_all(out_dir).expect("create out dir");
        let fresh = out_dir.join(format!("{name}.json"));
        std::fs::write(&fresh, json).expect("write fresh JSON");
        if quick && !regression_check {
            println!(
                "wrote {} (quick run; BENCH_{name}.json left untouched)",
                fresh.display()
            );
        } else {
            println!("wrote {}", fresh.display());
        }
        fresh
    } else {
        let bench_out = PathBuf::from(format!("BENCH_{name}.json"));
        std::fs::write(&bench_out, json).expect("write BENCH json");
        println!("wrote {}", bench_out.display());
        bench_out
    }
}

/// Prints accumulated gate failures under a `LABEL FAILURES:` banner and
/// exits with status 1; a no-op when the list is empty.
pub fn fail_if_any(label: &str, failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("\n{label} FAILURES:");
    for failure in failures {
        eprintln!("  {failure}");
    }
    std::process::exit(1);
}

/// Reads a committed baseline record, panicking with the path on failure.
pub fn read_baseline(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()))
}

/// Extracts the number following `key` on `line` — enough JSON structure
/// for the line-per-row records the benchmarks themselves write, with no
/// JSON dependency.
pub fn extract_number(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `(key1, key2)` number pairs from lines that carry both keys.
pub fn parse_pairs(text: &str, key1: &str, key2: &str) -> Vec<(f64, f64)> {
    text.lines()
        .filter_map(|line| extract_number(line, key1).zip(extract_number(line, key2)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_handles_row_shapes() {
        assert_eq!(extract_number("{\"n\": 8, \"x\": 1}", "\"n\":"), Some(8.0));
        assert_eq!(
            extract_number("  {\"rps\": 1234.5e2},", "\"rps\":"),
            Some(123450.0)
        );
        assert_eq!(extract_number("{\"n\": -3}", "\"n\":"), Some(-3.0));
        assert_eq!(extract_number("{\"m\": 8}", "\"n\":"), None);
    }

    #[test]
    fn parse_pairs_requires_both_keys_on_one_line() {
        let text = "{\"a\": 1, \"b\": 2}\n{\"a\": 3}\n{\"b\": 4}\n{\"a\": 5, \"b\": 6}";
        assert_eq!(
            parse_pairs(text, "\"a\":", "\"b\":"),
            vec![(1.0, 2.0), (5.0, 6.0)]
        );
    }

    #[test]
    fn emit_record_routes_by_mode() {
        let dir = std::env::temp_dir().join(format!("report_emit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("out");

        let quick = emit_record("report_selftest", "{\"q\":1}\n", &out, true, false);
        assert_eq!(quick, out.join("report_selftest.json"));
        assert_eq!(std::fs::read_to_string(&quick).unwrap(), "{\"q\":1}\n");

        let check = emit_record("report_selftest", "{\"c\":1}\n", &out, false, true);
        assert_eq!(check, out.join("report_selftest.json"));
        assert_eq!(std::fs::read_to_string(&check).unwrap(), "{\"c\":1}\n");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_if_any_is_quiet_on_success() {
        fail_if_any("BX", &[]);
    }
}
