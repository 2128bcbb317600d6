//! Sample accounting, process accounting and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`). Failed
/// operations enter as `f64::INFINITY`, so they count as missing any
/// latency limit. `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    Some(percentile_sorted(&sorted, q))
}

/// [`percentile`] over an already ascending slice (non-empty).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Failed operations over attempted operations (0 when nothing ran).
pub fn fail_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Server CPU per completed call: the process's user+sys time minus
/// the load generator's own, spread over the calls that completed.
pub fn server_cpu_us_per_call(process: Duration, generator: Duration, completed: u64) -> f64 {
    let server = process.saturating_sub(generator);
    server.as_secs_f64() * 1e6 / completed.max(1) as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// user+sys CPU time of `clock`: the same quantity `/proc/self/stat`
/// and `/proc/thread-self/stat` report, at nanosecond rather than
/// clock-tick resolution.
fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid out timespec that
    // clock_gettime only writes.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Host-wide CPU time stolen from this machine by its hypervisor, and
/// all CPU time, in clock ticks since boot: the `steal` column and the
/// sum of all columns of the `cpu` line of `/proc/stat`. Zeros where
/// the file is missing.
pub fn host_steal() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The share of CPU time stolen between two [`host_steal`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The metric set one run prints, in insertion order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no infinity: a metric made infinite by failed
            // calls prints as a huge finite number.
            let v = if value.is_finite() { *value } else { 1e18 };
            write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                .expect("String write is infallible");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_count_failures_as_infinite() {
        let mut samples: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(percentile(&samples, 0.5), Some(5.0));
        assert_eq!(percentile(&samples, 0.9), Some(9.0));
        assert_eq!(percentile(&samples, 1.0), Some(10.0));
        // Two failures push the p90 onto +inf and the median up one
        // rank: failed calls miss every latency limit.
        samples.push(f64::INFINITY);
        samples.push(f64::INFINITY);
        assert_eq!(percentile(&samples, 0.5), Some(6.0));
        assert_eq!(percentile(&samples, 0.9), Some(f64::INFINITY));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fail_frac_is_over_attempted() {
        assert_eq!(fail_frac(0, 0), 0.0);
        assert_eq!(fail_frac(200, 3), 0.015);
        assert_eq!(fail_frac(4, 4), 1.0);
    }

    #[test]
    fn server_cpu_subtracts_the_generator() {
        let per_call = server_cpu_us_per_call(
            Duration::from_millis(900),
            Duration::from_millis(300),
            1_000,
        );
        assert!((per_call - 600.0).abs() < 1e-9, "{per_call}");
        // A generator that out-ran the process clock (tick rounding)
        // never makes server CPU negative.
        assert_eq!(
            server_cpu_us_per_call(Duration::from_millis(10), Duration::from_millis(20), 5),
            0.0
        );
        // No completed calls: divide by one, never by zero.
        assert_eq!(
            server_cpu_us_per_call(Duration::from_millis(1), Duration::ZERO, 0),
            1_000.0
        );
    }

    #[test]
    fn steal_share_is_over_all_ticks() {
        assert_eq!(steal_share((10, 1_000), (30, 1_200)), 0.1);
        assert_eq!(steal_share((10, 1_000), (10, 1_000)), 0.0);
        let (steal, total) = host_steal();
        assert!(steal <= total);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("latency_ms", 1.25, "ms");
        r.put("broken", f64::INFINITY, "us");
        let line = r.to_json(true, 10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"value\": 1000000000000000000"));
        assert!(line.ends_with("}}"));
    }
}
