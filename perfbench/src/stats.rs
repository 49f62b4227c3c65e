//! Sample statistics, metric naming and the result line.

use std::fmt::Write as _;

/// Summary of one latency sample set: nearest-rank percentiles, the
/// mean, and tail means, with the sample count.
///
/// The simulator's cost model is quantised, so most reads of a workload
/// cost exactly the same virtual time and a percentile lands on one of a
/// few discrete values whatever the seed. The mean and the tail means
/// (the mean of every sample beyond a percentile) still respond to each
/// sample, which is what makes them comparable across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples summarised.
    pub count: usize,
    /// Mean of all samples.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Mean of the slowest 1% of samples.
    pub tail_p99: f64,
    /// Mean of the slowest 0.1% of samples.
    pub tail_p999: f64,
}

impl Latency {
    /// Summarises `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Self {
            count: samples.len(),
            mean: tail_mean(samples, 0.0),
            p50: nearest_rank(samples, 0.50),
            p99: nearest_rank(samples, 0.99),
            p999: nearest_rank(samples, 0.999),
            tail_p99: tail_mean(samples, 0.99),
            tail_p999: tail_mean(samples, 0.999),
        })
    }
}

/// Mean of the samples of a sorted, non-empty slice above its `q` share
/// (at least the largest sample).
fn tail_mean(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len();
    let skip = ((q * n as f64).floor() as usize).min(n - 1);
    let tail = &sorted[skip..];
    tail.iter().map(|&v| v as f64).sum::<f64>() / tail.len() as f64
}

/// The nearest-rank `q`-quantile of a sorted, non-empty slice: the
/// smallest sample with at least a `q` share of samples at or below it.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of `values` (sorted in place); the mean of the middle pair for
/// an even count.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The benchmark's last output line: one JSON object with the outcome
/// and every metric of the run, in `table` order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&'static str, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        assert!(valid_metric_name(name), "invalid metric name {name}");
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_report_the_count() {
        let mut samples: Vec<u64> = (1..=1000).rev().collect();
        let l = Latency::of(&mut samples).expect("non-empty");
        assert_eq!(l.count, 1000);
        assert_eq!((l.p50, l.p99, l.p999), (500, 990, 999));
        assert_eq!(l.mean, 500.5);
        assert_eq!(l.tail_p99, 995.5);
        assert_eq!(l.tail_p999, 1000.0);
        let mut one = vec![7];
        let l = Latency::of(&mut one).expect("non-empty");
        assert_eq!((l.count, l.p50, l.p99, l.p999), (1, 7, 7, 7));
        assert_eq!((l.mean, l.tail_p99, l.tail_p999), (7.0, 7.0, 7.0));
        assert_eq!(Latency::of(&mut []), None);
    }

    #[test]
    fn tails_see_rare_slow_samples_that_percentiles_miss() {
        let mut samples = vec![10u64; 10_000];
        samples[1234] = 5_010;
        let l = Latency::of(&mut samples).expect("non-empty");
        assert_eq!((l.p50, l.p99, l.p999), (10, 10, 10));
        assert_eq!(l.tail_p99, 60.0);
        assert_eq!(l.tail_p999, 510.0);
        samples.extend(std::iter::repeat_n(5_000, 20));
        let l = Latency::of(&mut samples).expect("non-empty");
        assert_eq!((l.count, l.p99, l.p999), (10_020, 10, 5_000));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in ["read_p50_us", "shim.stage.classify_ns", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "unit/s",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_in_table_order() {
        let table = [("b", "ms"), ("a", "s")];
        let line = result_line(true, 10, 0, &table, &[("a", 0.5), ("b", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"a\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
