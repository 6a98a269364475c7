//! Small numeric and process helpers shared by the workloads.

use std::time::Instant;

/// The `p`-th percentile of `values` (linear interpolation between
/// closest ranks; `0.0` for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    gather_bench::runner::percentile(values, p)
}

/// Median of `values` (`0.0` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`; `0.0` where the file is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak RSS to its current RSS (Linux
/// `clear_refs` mode 5), so the next [`peak_rss_mb`] reading covers only
/// what ran since. Returns `false` where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs `setup` `times` times and returns the median wall time in seconds
/// together with the value the last call produced (earlier values are
/// dropped, which tears their resources down).
pub fn median_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        walls.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&walls), last.expect("setup ran at least once"))
}

/// Median wall time of one `f()` call in microseconds, over `reps` calls.
pub fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let walls: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&walls)
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last_value() {
        let mut calls = 0;
        let (secs, last) = median_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            if reset_peak_rss() {
                assert!(peak_rss_mb() > 0.0);
            }
        }
    }
}
