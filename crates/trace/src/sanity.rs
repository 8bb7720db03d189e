//! Robust sanity statistics for degraded acquisitions: finiteness checks,
//! median / median-absolute-deviation (MAD) outlier detection, and a robust
//! per-trace noise estimate.
//!
//! These are the building blocks of the self-healing attack driver
//! (`reveal-attack`'s `robust` module): burst lengths and ladder-window
//! levels are screened with MAD outlier flags, and the noise estimate feeds
//! the confidence derating that gates the hint-degradation ladder. MAD is
//! used instead of mean/σ throughout because a single glitch spike or a
//! merged burst would drag a moment-based screen past its own outliers.

use crate::segment::SegmentError;

/// The consistency constant making MAD estimate σ for Gaussian data.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Rejects empty or NaN/infinity-containing traces with a typed error.
///
/// # Errors
///
/// [`SegmentError::EmptyTrace`] on empty input,
/// [`SegmentError::NonFiniteSample`] (with the first offending index) on
/// NaN or infinite samples.
pub fn check_finite(samples: &[f64]) -> Result<(), SegmentError> {
    if samples.is_empty() {
        return Err(SegmentError::EmptyTrace);
    }
    match samples.iter().position(|s| !s.is_finite()) {
        Some(i) => Err(SegmentError::NonFiniteSample(i)),
        None => Ok(()),
    }
}

/// Exact order statistics of ranks `lo <= hi < buf.len()` under
/// [`f64::total_cmp`], by linear-time selection — the one production order
/// statistic behind the robust statistics below and the segmenter's
/// percentile levels. Reorders `buf`. The rank-`hi` selection partitions
/// `buf` around it, so rank `lo` is selected from the left part alone.
pub(crate) fn select_ranks(buf: &mut [f64], lo: usize, hi: usize) -> (f64, f64) {
    debug_assert!(lo <= hi && hi < buf.len());
    let (left, &mut hi_value, _) = buf.select_nth_unstable_by(hi, f64::total_cmp);
    let lo_value = if lo == hi {
        hi_value
    } else {
        *left.select_nth_unstable_by(lo, f64::total_cmp).1
    };
    (lo_value, hi_value)
}

/// Reference implementation — tests and benches only. [`select_ranks`] by a
/// full sort: sorts `buf` with [`f64::total_cmp`] and indexes it.
pub(crate) fn select_ranks_sorted(buf: &mut [f64], lo: usize, hi: usize) -> (f64, f64) {
    buf.sort_by(f64::total_cmp);
    (buf[lo], buf[hi])
}

/// The median of a slice (0.0 for an empty slice). Even lengths average the
/// two central order statistics. Values order by [`f64::total_cmp`], so a
/// NaN never panics: a positive NaN ranks above `+∞`, a negative one below
/// `−∞`.
pub fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// [`median`] of a buffer it may reorder.
fn median_in_place(buf: &mut [f64]) -> f64 {
    if buf.is_empty() {
        return 0.0;
    }
    let mid = buf.len() / 2;
    if buf.len() % 2 == 1 {
        select_ranks(buf, mid, mid).1
    } else {
        let (below, above) = select_ranks(buf, mid - 1, mid);
        0.5 * (below + above)
    }
}

/// The median and the median absolute deviation of `buf`, which is
/// overwritten with the absolute deviations (0.0 and 0.0 when empty).
fn median_and_mad(buf: &mut [f64]) -> (f64, f64) {
    let med = median_in_place(buf);
    for x in buf.iter_mut() {
        *x = (*x - med).abs();
    }
    (med, median_in_place(buf))
}

/// The `p`-th percentile (`0.0 ≤ p ≤ 100.0`, clamped; a NaN `p` is treated
/// as the median request) of a slice by linear interpolation between order
/// statistics (0.0 for an empty slice). `percentile(xs, 50.0)` agrees with
/// [`median`] for every length; the `p = 0` / `p = 100` extremes return
/// the exact minimum / maximum order statistic with no interpolation
/// arithmetic in between. Values order by [`f64::total_cmp`], as in
/// [`median`].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // A NaN p would poison the rank arithmetic below (NaN survives clamp);
    // the least surprising robust reading of "no particular percentile" is
    // the median.
    let p = if p.is_nan() {
        50.0
    } else {
        p.clamp(0.0, 100.0)
    };
    // p ≤ 100 keeps rank ≤ last (p = 100 gives exactly last), so both
    // neighbouring ranks are in bounds.
    let rank = (p / 100.0) * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (below, above) = select_ranks(&mut xs.to_vec(), lo, hi);
    if lo == hi {
        below
    } else {
        let w = rank - lo as f64;
        below * (1.0 - w) + above * w
    }
}

/// The median absolute deviation from the median (0.0 for an empty slice).
pub fn median_abs_deviation(xs: &[f64]) -> f64 {
    median_and_mad(&mut xs.to_vec()).1
}

/// Flags entries whose robust z-score `|x − median| / (MAD·1.4826)` exceeds
/// `k`. The MAD is floored at `scale_floor` so an (almost) constant
/// population does not flag every harmless wiggle.
pub fn mad_outlier_flags(xs: &[f64], k: f64, scale_floor: f64) -> Vec<bool> {
    let (med, mad) = median_and_mad(&mut xs.to_vec());
    let scale = (mad * MAD_TO_SIGMA).max(scale_floor);
    xs.iter().map(|x| (x - med).abs() > k * scale).collect()
}

/// Robust estimate of the white-noise σ riding on a trace: the MAD of the
/// first differences, scaled to σ (differencing doubles the noise variance
/// and suppresses the slow signal component, so glitches and bursts barely
/// move it).
pub fn robust_noise_sigma(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut diffs: Vec<f64> = samples.windows(2).map(|w| w[1] - w[0]).collect();
    median_and_mad(&mut diffs).1 * MAD_TO_SIGMA / std::f64::consts::SQRT_2
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn check_finite_catches_degenerate_inputs() {
        assert_eq!(check_finite(&[]), Err(SegmentError::EmptyTrace));
        assert_eq!(
            check_finite(&[1.0, f64::NAN]),
            Err(SegmentError::NonFiniteSample(1))
        );
        assert_eq!(
            check_finite(&[f64::INFINITY]),
            Err(SegmentError::NonFiniteSample(0))
        );
        assert_eq!(check_finite(&[0.0, -1.0]), Ok(()));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_and_matches_median() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), median(&xs));
        // rank 0.25·3 = 0.75 → 1.0 + 0.75·(2.0 − 1.0).
        assert_eq!(percentile(&xs, 25.0), 1.75);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 400.0), 4.0);
        let odd = [9.0, 5.0, 1.0];
        assert_eq!(percentile(&odd, 50.0), median(&odd));
    }

    #[test]
    fn percentile_edge_cases_are_explicit() {
        // Empty slice: the documented 0.0 sentinel, at every p.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
        assert_eq!(percentile(&[], f64::NAN), 0.0);
        // Single element: that element, at every p including the extremes.
        for p in [0.0, 13.7, 50.0, 100.0, -3.0, 250.0, f64::NAN] {
            assert_eq!(percentile(&[42.5], p), 42.5);
        }
        // p = 0 / p = 100 are the exact order-statistic extremes.
        let xs = [2.0, -7.5, 11.0, 0.25];
        assert_eq!(percentile(&xs, 0.0), -7.5);
        assert_eq!(percentile(&xs, 100.0), 11.0);
        // NaN p degrades to the median instead of poisoning the rank.
        assert_eq!(percentile(&xs, f64::NAN), median(&xs));
        // Infinite p clamps like any out-of-range value.
        assert_eq!(percentile(&xs, f64::INFINITY), 11.0);
        assert_eq!(percentile(&xs, f64::NEG_INFINITY), -7.5);
        // Two elements interpolate linearly across the whole range.
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
        assert_eq!(percentile(&[10.0, 20.0], 75.0), 17.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let xs = [10.0, 10.1, 9.9, 10.0, 1000.0];
        assert!(median_abs_deviation(&xs) < 0.2);
        let flags = mad_outlier_flags(&xs, 6.0, 1e-9);
        assert_eq!(flags, vec![false, false, false, false, true]);
    }

    #[test]
    fn mad_floor_suppresses_constant_population_noise() {
        let xs = [5.0, 5.0 + 1e-12, 5.0 - 1e-12, 5.0];
        let flags = mad_outlier_flags(&xs, 6.0, 0.01);
        assert!(flags.iter().all(|f| !f));
    }

    #[test]
    fn noise_sigma_tracks_injected_noise() {
        // Deterministic pseudo-noise on a slow ramp: the estimate must see
        // the fast component, not the ramp.
        let noisy: Vec<f64> = (0..4000u64)
            .map(|i| {
                let slow = i as f64 * 0.001;
                // splitmix64-style finalizer: adjacent indices decorrelate.
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let fast = (z % 1000) as f64 / 1000.0 - 0.5;
                slow + fast * 0.4
            })
            .collect();
        let sigma = robust_noise_sigma(&noisy);
        // Uniform(-0.2, 0.2) has σ ≈ 0.115.
        assert!(sigma > 0.05 && sigma < 0.25, "sigma {sigma}");
        assert_eq!(robust_noise_sigma(&[1.0]), 0.0);
        // Scaling the noise scales the estimate.
        let double: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert!(robust_noise_sigma(&double) > 1.5 * sigma);
    }

    #[test]
    fn robust_statistics_order_nans_instead_of_panicking() {
        // A permutation of 0..32 with the value 18 replaced by NaN: the
        // finite order statistics are 0..=17, 19..=31, and the NaN ranks last.
        let mut xs: Vec<f64> = (0..32).map(|i| ((i * 37) % 32) as f64).collect();
        assert_eq!(xs[10], 18.0);
        xs[10] = f64::NAN;
        assert_eq!(median(&xs), 15.5);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 25.0), 7.75);
        assert_eq!(percentile(&xs, 50.0), 15.5);
        assert!(percentile(&xs, 100.0).is_nan());
        // Deviations from 15.5: 0.5, 0.5, 1.5, 1.5, … with 2.5 once (18 is
        // gone) and the NaN last, so the 16th and 17th smallest are 8.5.
        assert_eq!(median_abs_deviation(&xs), 8.5);
        // Scale 8.5 · 1.4826 ≈ 12.6 flags |x − 15.5| ≥ 13.5; a NaN is never
        // flagged (the comparison is false).
        let flags = mad_outlier_flags(&xs, 1.0, 1e-9);
        let expected: Vec<bool> = xs.iter().map(|&x| x <= 2.0 || x >= 29.0).collect();
        assert_eq!(flags, expected);
        // First differences: 25 × 5.0, 4 × −27.0 and two NaNs; the median
        // is 5.0 and most deviations are zero.
        assert_eq!(robust_noise_sigma(&xs), 0.0);
    }

    /// Palette of awkward values (NaNs of both signs, signed zeros and
    /// infinities, subnormal and huge magnitudes, duplicates) mixed with
    /// arbitrary bit patterns.
    fn awkward_value(bits: u64) -> f64 {
        const PALETTE: [f64; 12] = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            1.0,
            -2.5,
            5e-324,
            -1e-300,
            f64::MAX,
        ];
        PALETTE
            .get((bits % 16) as usize)
            .copied()
            .unwrap_or(f64::from_bits(bits))
    }

    /// Checks [`select_ranks`] against [`select_ranks_sorted`] bit for bit at
    /// every rank of `xs` (paired with the rank half as deep; 250 evenly
    /// spread ranks plus the last past 1000 samples, since each check is a
    /// linear selection) and at the segmenter's 5th/95th percentile ranks.
    /// `total_cmp` is a total order on bit patterns, so each rank has
    /// exactly one answer.
    fn assert_selection_matches_sort(xs: &[f64]) {
        // Both buffers are reused across ranks: selection works on any
        // permutation, and re-sorting the sorted oracle buffer is linear.
        let mut buf = xs.to_vec();
        let mut sorted = xs.to_vec();
        let n = xs.len();
        let stride = if n <= 1000 { 1 } else { n / 250 };
        let pairs = (0..n)
            .step_by(stride)
            .chain([n - 1])
            .map(|k| (k / 2, k))
            .chain([((n - 1) * 5 / 100, (n - 1) * 95 / 100)]);
        for (lo, hi) in pairs {
            let (a, b) = select_ranks(&mut buf, lo, hi);
            let (ra, rb) = select_ranks_sorted(&mut sorted, lo, hi);
            assert_eq!(a.to_bits(), ra.to_bits(), "rank {lo} of {n}");
            assert_eq!(b.to_bits(), rb.to_bits(), "rank {hi} of {n}");
        }
    }

    #[test]
    fn selection_matches_sorted_reference_at_every_rank() {
        // Noisy plateau traces with duplicates, the segmenter's workload.
        let mut cases: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                (0..3000)
                    .map(|i| {
                        let burst = if (i / 200) % 3 == 0 { 3.0 } else { 1.0 };
                        burst + 0.1 * (((i * 13 + k * 7) % 17) as f64)
                    })
                    .collect()
            })
            .collect();
        cases.extend([
            vec![1.0; 500],
            (0..5000)
                .map(|i| if (i / 100) % 2 == 0 { -2.5 } else { 7.25 })
                .collect(),
            (0..3001)
                .map(|i| ((i * 37 % 113) as f64 - 56.0) * 1e-300)
                .collect(),
            (0..997).map(|i| (i % 13) as f64 * -0.125).collect(),
            vec![0.0, -0.0, 1.0, -1.0, 0.5],
            vec![f64::NAN, 3.0, -f64::NAN, -0.0, 0.0, 3.0, f64::NAN],
        ]);
        // Every length 1..=5, then even and odd lengths past them.
        for len in (1..=5).chain([6, 7, 64, 65]) {
            cases.push((0..len).map(|i| (i * 37 % 5) as f64).collect());
        }
        for xs in &cases {
            assert_selection_matches_sort(xs);
        }
    }

    proptest! {
        #[test]
        fn prop_selection_matches_sorted_reference(
            bits in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let xs: Vec<f64> = bits.iter().map(|&b| awkward_value(b)).collect();
            assert_selection_matches_sort(&xs);
        }
    }
}
