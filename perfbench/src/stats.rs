//! Small statistics and host measurements.

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it, as `(percent, value)`; `None` when there are too few
/// samples for any of them.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99u32, 95, 90, 75].into_iter().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n >= rank + 10).then(|| (p, v[rank - 1]))
    })
}

/// One line describing a timing sample: median, tail percentile and
/// sample count.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let tail = match tail_percentile(values) {
        Some((p, v)) => format!("p{p} {v:.4} {unit}"),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "{name}: median {:.4} {unit}, {tail}, n={}",
        median(values),
        values.len()
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// next [`peak_rss_mb`] reads the peak since now. Does nothing where
/// `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        let some: Vec<f64> = (1..=56).map(f64::from).collect();
        // p75 of 56 is rank 42, leaving 14 beyond; p90 leaves 5.
        assert_eq!(tail_percentile(&some), Some((75, 42.0)));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many), Some((99, 990.0)));
    }

    #[test]
    fn rss_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        reset_peak_rss();
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
