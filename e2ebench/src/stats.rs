//! Order statistics over recorded samples.

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
/// order statistics; NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median of samples taken over time, robust to bursts of host noise:
/// the samples, in the order they were taken, are cut into 5 (at least 50
/// samples) or 3 (at least 30) consecutive windows, and the result is the
/// median of the windows' medians. A burst that spoils a minority of the
/// windows does not move it.
pub fn windowed_median(samples: &[f64]) -> f64 {
    let windows = match samples.len() {
        n if n >= 50 => 5,
        n if n >= 30 => 3,
        _ => 1,
    };
    let size = samples.len().div_ceil(windows).max(1);
    let medians: Vec<f64> = samples.chunks(size).map(median).collect();
    median(&medians)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn reportable_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(samples, p / 100.0)))
}
