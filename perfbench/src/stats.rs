//! Order statistics and the host-normalisation arithmetic.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks. Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median: the run's spread.
pub fn spread(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// How many of `n` samples lie beyond the `p`-quantile: the ranks above
/// `⌈p·n⌉`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Minimum number of samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Whether the `p`-quantile of `n` samples may be reported: at least
/// [`MIN_BEYOND`] samples lie beyond it (for p90, `n ≥ 100`).
pub fn reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// A raw time measured next to a reference kernel, expressed at the
/// reference host speed: `raw · nominal / measured`, with `factor` the
/// `nominal / measured` quotient the kernel timer returns.
pub fn normalise(raw_s: f64, factor: f64) -> f64 {
    raw_s * factor
}

/// Reference-kernel spread above which a run is flagged as measured on a
/// contended host.
pub const CONTENDED_SPREAD: f64 = 0.5;
