//! Summary statistics over latency samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between the two nearest ranks (the "type 7" rule numpy and R default
/// to). `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`, or 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The 95th percentile of `samples`, or 0 for an empty sample.
pub fn p95(samples: &[f64]) -> f64 {
    quantile(samples, 0.95).unwrap_or(0.0)
}

/// `part / whole`, reading 0 when nothing was attempted (a hit ratio over
/// zero lookups is reported as 0 next to its zero base).
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert!((quantile(&s, 0.95).unwrap() - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn median_and_p95_of_a_ramp() {
        let s: Vec<f64> = (1..=201).map(f64::from).collect();
        assert_eq!(median(&s), 101.0);
        assert_eq!(p95(&s), 191.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_guard_a_zero_base() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(0, 0), 0.0);
    }
}
