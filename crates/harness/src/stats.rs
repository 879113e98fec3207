//! Small statistics helpers used by the result types and the bench
//! exhibits.

/// Mean and population standard deviation of `xs`, the latter expressed as
/// a percentage of the mean (the Y axis of the paper's Figure 5).
///
/// Returns `(0.0, 0.0)` for empty input and a 0% deviation when the mean
/// is zero.
pub fn mean_stddev_pct(xs: &[u64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return (0.0, 0.0);
    }
    let var = xs
        .iter()
        .map(|&x| {
            let d = x as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    (mean, var.sqrt() / mean * 100.0)
}

/// Geometric mean (used when summarising speedup rows).
///
/// Returns `None` for empty input or when **any** entry is zero, negative,
/// or non-finite — such factors have no geometric mean. (An earlier
/// version clamped them to `f64::MIN_POSITIVE`, which silently collapsed
/// a whole speedup summary toward zero; a caller that wants to tolerate
/// bad entries should use [`geomean_positive`] and report the skip count.)
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let ln_sum: f64 = xs.iter().map(|&x| x.ln()).sum();
    Some((ln_sum / xs.len() as f64).exp())
}

/// Geometric mean of the positive finite entries of `xs`, skipping (and
/// counting) the rest: returns `(mean, skipped)`, with `mean = None` when
/// no usable entry remains. Callers should surface a nonzero skip count —
/// a summary built on fewer factors than rows is not the summary the
/// reader assumes.
pub fn geomean_positive(xs: &[f64]) -> (Option<f64>, usize) {
    let good: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|&x| x > 0.0 && x.is_finite())
        .collect();
    (geomean(&good), xs.len() - good.len())
}

/// Formats a throughput figure the way the paper's plots label them
/// (e.g. `3.2e6/s`).
///
/// Unit promotion happens at the value the *printed* figure would round
/// to, not at the raw magnitude — `999_960.0` prints as `1.00e6/s`, never
/// as the four-digit `1000.0e3/s` (and `999.7` as `1.0e3/s`, not
/// `1000/s`).
pub fn fmt_throughput(t: f64) -> String {
    format!("{}/s", fmt_throughput_raw(t))
}

/// The unit-less body of [`fmt_throughput`]: the same boundary-correct
/// promotion, without the `/s` suffix. The output stays float-parseable
/// (`"2.55e6"`, `"487.2e3"`, `"87"`), so it is safe in CSV fields —
/// both emit paths (printed tables and CSVs) must promote at the same
/// boundaries or a figure reads differently depending on which file you
/// look at.
pub fn fmt_throughput_raw(t: f64) -> String {
    if t >= 999_950.0 {
        // {:.1} of t/1e3 would round to 1000.0 from here on.
        format!("{:.2}e6", t / 1e6)
    } else if t >= 999.5 {
        // {:.0} of t would round to 1000 from here on.
        format!("{:.1}e3", t / 1e3)
    } else {
        format!("{t:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution_has_zero_deviation() {
        let (mean, sd) = mean_stddev_pct(&[5, 5, 5, 5]);
        assert_eq!(mean, 5.0);
        assert_eq!(sd, 0.0);
    }

    #[test]
    fn known_deviation() {
        // [0, 10]: mean 5, population stddev 5 → 100%.
        let (mean, sd) = mean_stddev_pct(&[0, 10]);
        assert_eq!(mean, 5.0);
        assert!((sd - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_inputs() {
        assert_eq!(mean_stddev_pct(&[]), (0.0, 0.0));
        assert_eq!(mean_stddev_pct(&[0, 0]), (0.0, 0.0));
    }

    #[test]
    fn geomean_of_twos() {
        assert!((geomean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_refuses_degenerate_factors() {
        // Regression: these used to clamp to ~1e-308 and silently drag the
        // mean to ~0 — now the caller is forced to notice.
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0, 2.0]), None);
        assert_eq!(geomean(&[2.0, -1.0]), None);
        assert_eq!(geomean(&[2.0, f64::NAN]), None);
        assert_eq!(geomean(&[2.0, f64::INFINITY]), None);
    }

    #[test]
    fn geomean_positive_skips_and_counts() {
        let (mean, skipped) = geomean_positive(&[1.0, 4.0, 0.0, -3.0]);
        assert!((mean.unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(skipped, 2);
        assert_eq!(geomean_positive(&[0.0]), (None, 1));
        assert_eq!(geomean_positive(&[]), (None, 0));
    }

    #[test]
    fn throughput_formatting() {
        assert_eq!(fmt_throughput(3_200_000.0), "3.20e6/s");
        assert_eq!(fmt_throughput(4_500.0), "4.5e3/s");
        assert_eq!(fmt_throughput(12.0), "12/s");
    }

    #[test]
    fn throughput_formatting_boundaries() {
        // The exact unit boundaries…
        assert_eq!(fmt_throughput(1e6), "1.00e6/s");
        assert_eq!(fmt_throughput(1e3), "1.0e3/s");
        assert_eq!(fmt_throughput(0.0), "0/s");
        // …and the rounding band just below them, where the old code
        // printed four-digit mantissas ("1000.0e3/s", "1000/s").
        assert_eq!(fmt_throughput(999_960.0), "1.00e6/s");
        assert_eq!(fmt_throughput(999_949.0), "999.9e3/s");
        assert_eq!(fmt_throughput(999.7), "1.0e3/s");
        assert_eq!(fmt_throughput(999.4), "999/s");
    }

    #[test]
    fn raw_formatting_promotes_at_the_same_boundaries() {
        // The CSV emit path must agree with the printed table: same
        // promotion boundaries, no unit suffix, float-parseable output.
        assert_eq!(fmt_throughput_raw(2_550_000.0), "2.55e6");
        assert_eq!(fmt_throughput_raw(487_200.0), "487.2e3");
        assert_eq!(fmt_throughput_raw(999_960.0), "1.00e6");
        assert_eq!(fmt_throughput_raw(999.7), "1.0e3");
        assert_eq!(fmt_throughput_raw(87.0), "87");
        for v in [2_550_000.0, 487_200.0, 999_960.0, 87.0] {
            assert_eq!(fmt_throughput(v), format!("{}/s", fmt_throughput_raw(v)));
            let parsed: f64 = fmt_throughput_raw(v).parse().unwrap();
            assert!((parsed - v).abs() / v < 0.01, "{v} -> {parsed}");
        }
    }
}
