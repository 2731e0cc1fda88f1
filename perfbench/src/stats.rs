//! Order statistics over host-latency samples.

/// Samples that must lie strictly above a tail percentile before it is
/// reported: fewer would make the percentile a guess about one or two
/// outliers.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile of ascending `sorted` by the nearest-rank method
/// (`None` for no samples).
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle samples for even counts).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The 90th percentile of `samples`, or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it.
#[must_use]
pub fn p90(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let value = nearest_rank(&sorted, 0.9)?;
    let beyond = sorted.iter().filter(|&&x| x > value).count();
    (beyond >= MIN_TAIL).then_some(value)
}

/// Consecutive index ranges of `len` over `n` samples; a remainder
/// shorter than `len` joins the last range (one range when `n < len`).
#[must_use]
pub fn blocks(n: usize, len: usize) -> Vec<std::ops::Range<usize>> {
    let full = (n / len.max(1)).max(1);
    (0..full)
        .map(|k| k * len..if k + 1 == full { n } else { (k + 1) * len })
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), `None` where the kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn blocks_fold_the_remainder_into_the_last() {
        assert_eq!(blocks(250, 100), vec![0..100, 100..250]);
        assert_eq!(blocks(200, 100), vec![0..100, 100..200]);
        assert_eq!(blocks(40, 100), vec![0..40]);
    }
}
