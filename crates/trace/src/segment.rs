//! Trace segmentation: locating each coefficient's sampling window inside a
//! full encryption trace.
//!
//! §III-C of the paper: the distribution-function calls produce
//! "distinguishable and visible peaks" in the power trace, one per outer-loop
//! iteration, and those peaks are the start/end indicators for each
//! coefficient window. Because the distribution call is time-variant, a fixed
//! stride cannot work — the windows must be found from the trace itself.
//!
//! The detector smooths the trace with a moving average, thresholds it
//! between its robust low and high levels (5th and 95th percentiles),
//! merges the resulting bursts, and emits one window per burst (from the
//! start of a burst to the start of the next).

use crate::sanity::{check_finite, select_ranks, select_ranks_sorted};
use std::fmt;

/// Configuration of the peak-based segmenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentConfig {
    /// Moving-average smoothing width in samples.
    pub smooth_window: usize,
    /// Threshold position between the robust low and high levels of the
    /// smoothed trace (0 = low level, 1 = high level). A mid-level
    /// threshold keeps working whatever fraction of the trace the bursts
    /// occupy — a mean+kσ rule does not.
    pub threshold_fraction: f64,
    /// Minimum burst length (samples) to count as a distribution-call peak.
    pub min_burst_len: usize,
    /// Bursts closer than this many samples are merged into one.
    pub merge_gap: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            smooth_window: 16,
            threshold_fraction: 0.55,
            min_burst_len: 24,
            merge_gap: 16,
        }
    }
}

/// Errors from segmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The trace was empty.
    EmptyTrace,
    /// No burst exceeded the threshold.
    NoPeaksFound,
    /// The trace contains a NaN or infinite sample (acquisition glitch or a
    /// corrupted capture file); index of the first offender.
    NonFiniteSample(usize),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::EmptyTrace => write!(f, "cannot segment an empty trace"),
            SegmentError::NoPeaksFound => write!(f, "no distribution-call peaks found"),
            SegmentError::NonFiniteSample(i) => {
                write!(f, "non-finite sample at index {i}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Reusable buffers for the segmentation fast path ([`refined_bursts_into`]):
/// the prefix sums and the smoothed trace of [`smooth`], and the selection
/// buffer the percentile levels are selected in. One scratch per worker
/// amortizes the per-call allocation across a whole capture campaign.
#[derive(Debug, Clone, Default)]
pub struct SegmentScratch {
    prefix: Vec<f64>,
    smoothed: Vec<f64>,
    select: Vec<f64>,
}

impl SegmentScratch {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Ranks of the robust low and high levels of an `n`-sample trace: its 5th
/// and 95th percentile order statistics.
fn level_ranks(n: usize) -> (usize, usize) {
    ((n - 1) * 5 / 100, (n - 1) * 95 / 100)
}

/// The robust low and high levels of a non-empty trace, selected in `buf`.
fn levels(samples: &[f64], buf: &mut Vec<f64>) -> (f64, f64) {
    let (lo_rank, hi_rank) = level_ranks(samples.len());
    buf.clear();
    buf.extend_from_slice(samples);
    select_ranks(buf, lo_rank, hi_rank)
}

/// Reference implementation — tests and benches only. [`levels`] by a full
/// sort.
fn levels_sorted(samples: &[f64]) -> (f64, f64) {
    let (lo_rank, hi_rank) = level_ranks(samples.len());
    select_ranks_sorted(&mut samples.to_vec(), lo_rank, hi_rank)
}

/// Moving-average smoothing (centered, edge-clamped).
///
/// # Errors
///
/// Fails on an empty trace or on NaN/infinite samples — a single NaN would
/// otherwise silently poison every averaged output around it.
pub fn smooth(samples: &[f64], window: usize) -> Result<Vec<f64>, SegmentError> {
    check_finite(samples)?;
    let mut smoothed = Vec::with_capacity(samples.len());
    smooth_into(samples, window, &mut Vec::new(), &mut smoothed);
    Ok(smoothed)
}

/// [`smooth`] of a checked trace into caller-provided buffers.
fn smooth_into(samples: &[f64], window: usize, prefix: &mut Vec<f64>, smoothed: &mut Vec<f64>) {
    smoothed.clear();
    if window <= 1 {
        smoothed.extend_from_slice(samples);
        return;
    }
    let half = window / 2;
    let n = samples.len();
    // Prefix sums for O(n) averaging.
    prefix.clear();
    prefix.reserve(n + 1);
    let mut acc = 0.0;
    prefix.push(0.0);
    for &s in samples {
        acc += s;
        prefix.push(acc);
    }
    smoothed.extend((0..n).map(|i| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        (prefix[hi] - prefix[lo]) / (hi - lo) as f64
    }));
}

/// Finds the high-power bursts (distribution-call peaks), with the smoothed
/// edges left unrefined; the attack pipeline segments through
/// [`refined_bursts_into`] instead.
///
/// # Errors
///
/// Fails on empty, non-finite, or burst-free (e.g. all-constant) traces.
pub fn find_bursts(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    detect_bursts(samples, config, &mut SegmentScratch::new())
}

/// Burst detection in `scratch`: smooth the checked trace, select its
/// robust levels, and threshold between them.
fn detect_bursts(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    check_finite(samples)?;
    let SegmentScratch {
        prefix,
        smoothed,
        select,
    } = scratch;
    smooth_into(samples, config.smooth_window, prefix, smoothed);
    let (lo, hi) = levels(smoothed, select);
    threshold_bursts(smoothed, lo, hi, config)
}

/// Finds the distribution-call bursts and refines each burst's end to
/// cycle accuracy — the one production segmentation front end.
///
/// The moving-average edges of burst detection jitter by a few samples with
/// the noise, which smears sample-exact leakage across template dimensions,
/// so each end is refined on the *raw* trace: a burst's true end is the
/// last run of six consecutive raw samples above a high threshold (single
/// data-dependent spikes outside the burst cannot form such a run).
///
/// Both stages select their levels exactly, so this returns exactly what
/// [`refine_burst_ends_reference`] over [`find_bursts_reference`] returns.
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn refined_bursts_into(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let bursts = detect_bursts(samples, config, scratch)?;
    let (lo, hi) = levels(samples, &mut scratch.select);
    Ok(refine_with_levels(samples, &bursts, config, lo, hi))
}

/// Reference implementation — tests and benches only. Burst detection on
/// the materialized smoothed trace with sort-based percentile levels.
/// Identical results to [`find_bursts`].
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn find_bursts_reference(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let smoothed = smooth(samples, config.smooth_window)?;
    let (lo, hi) = levels_sorted(&smoothed);
    threshold_bursts(&smoothed, lo, hi, config)
}

/// The threshold / merge / minimum-length back half shared by the fast and
/// reference detectors (the levels `lo`/`hi` are what differ between them,
/// never this scan).
fn threshold_bursts(
    smoothed: &[f64],
    lo: f64,
    hi: f64,
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    if hi - lo < 1e-12 {
        return Err(SegmentError::NoPeaksFound);
    }
    let threshold = lo + config.threshold_fraction * (hi - lo);

    // Raw above-threshold runs.
    let mut bursts: Vec<(usize, usize)> = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &s) in smoothed.iter().enumerate() {
        if s > threshold {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(b) = start.take() {
            bursts.push((b, i));
        }
    }
    if let Some(b) = start {
        bursts.push((b, smoothed.len()));
    }

    // Merge nearby bursts.
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in bursts {
        if let Some(last) = merged.last_mut() {
            if s <= last.1 + config.merge_gap {
                last.1 = e;
                continue;
            }
        }
        merged.push((s, e));
    }
    merged.retain(|(s, e)| e - s >= config.min_burst_len);
    if merged.is_empty() {
        return Err(SegmentError::NoPeaksFound);
    }
    Ok(merged)
}

/// Reference implementation — tests and benches only. Refines `bursts`
/// (from [`find_bursts_reference`]) to cycle accuracy on the raw trace, with
/// sort-based percentile levels; see [`refined_bursts_into`] for the rule.
pub fn refine_burst_ends_reference(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
) -> Vec<(usize, usize)> {
    if samples.is_empty() {
        return bursts.to_vec();
    }
    let (lo, hi) = levels_sorted(samples);
    refine_with_levels(samples, bursts, config, lo, hi)
}

/// The per-burst end-refinement scan shared by the fast and reference
/// front ends (only the `lo`/`hi` level computation differs).
fn refine_with_levels(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
    lo: f64,
    hi: f64,
) -> Vec<(usize, usize)> {
    const RUN_LEN: usize = 6;
    const HIGH_FRACTION: f64 = 0.7;
    let threshold = lo + HIGH_FRACTION * (hi - lo);
    let span = config.smooth_window.max(4);
    bursts
        .iter()
        .map(|&(s, e)| {
            let win_lo = e.saturating_sub(span);
            let win_hi = (e + span).min(samples.len());
            let mut refined = None;
            let mut run = 0usize;
            for i in win_lo..win_hi {
                if samples[i] > threshold {
                    run += 1;
                    if run >= RUN_LEN {
                        refined = Some(i + 1);
                    }
                } else {
                    run = 0;
                }
            }
            (s, refined.unwrap_or(e))
        })
        .collect()
}

/// Segments a full trace into per-coefficient windows: each window runs from
/// the start of one distribution-call burst to the start of the next (the
/// last window extends to the end of the trace).
///
/// # Errors
///
/// Propagates burst-detection failures.
///
/// # Examples
///
/// ```
/// use reveal_trace::segment::{segment_windows, SegmentConfig};
/// // Three synthetic bursts of height 3 over a noise floor of 1.
/// let mut samples = vec![1.0; 600];
/// for start in [50usize, 250, 450] {
///     for i in start..start + 60 {
///         samples[i] = 3.0;
///     }
/// }
/// let windows = segment_windows(&samples, &SegmentConfig::default())?;
/// assert_eq!(windows.len(), 3);
/// # Ok::<(), reveal_trace::segment::SegmentError>(())
/// ```
pub fn segment_windows(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let bursts = find_bursts(samples, config)?;
    let mut windows = Vec::with_capacity(bursts.len());
    for (i, &(s, _)) in bursts.iter().enumerate() {
        let end = if i + 1 < bursts.len() {
            bursts[i + 1].0
        } else {
            samples.len()
        };
        windows.push((s, end));
    }
    Ok(windows)
}

/// Compares detected windows with ground truth: the fraction of true windows
/// whose detected counterpart starts within `tolerance` samples.
pub fn window_alignment_score(
    detected: &[(usize, usize)],
    truth: &[(usize, usize)],
    tolerance: usize,
) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for &(ts, _) in truth {
        if detected.iter().any(|&(ds, _)| ds.abs_diff(ts) <= tolerance) {
            hits += 1;
        }
    }
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn synthetic_trace(bursts: &[(usize, usize)], len: usize, floor: f64, peak: f64) -> Vec<f64> {
        let mut t = vec![floor; len];
        for &(s, e) in bursts {
            for v in t.iter_mut().take(e).skip(s) {
                *v = peak;
            }
        }
        t
    }

    #[test]
    fn smoothing_reduces_variance() {
        let noisy: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = smooth(&noisy, 16).unwrap();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&s) < var(&noisy) / 10.0);
        assert_eq!(s.len(), noisy.len());
    }

    #[test]
    fn smooth_degenerate_inputs() {
        assert_eq!(smooth(&[], 8), Err(SegmentError::EmptyTrace));
        assert_eq!(smooth(&[5.0], 8), Ok(vec![5.0]));
        assert_eq!(smooth(&[1.0, 2.0], 1), Ok(vec![1.0, 2.0]));
        assert_eq!(
            smooth(&[1.0, f64::NAN, 2.0], 4),
            Err(SegmentError::NonFiniteSample(1))
        );
        assert_eq!(
            smooth(&[1.0, 2.0, f64::INFINITY], 1),
            Err(SegmentError::NonFiniteSample(2))
        );
    }

    #[test]
    fn finds_three_clean_bursts() {
        let truth = [(100, 180), (400, 470), (700, 790)];
        let t = synthetic_trace(&truth, 1000, 1.0, 4.0);
        let bursts = find_bursts(&t, &SegmentConfig::default()).unwrap();
        assert_eq!(bursts.len(), 3);
        for (found, expected) in bursts.iter().zip(&truth) {
            assert!(
                found.0.abs_diff(expected.0) <= 16,
                "{found:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn windows_tile_from_burst_starts() {
        let truth = [(100, 180), (400, 470), (700, 790)];
        let t = synthetic_trace(&truth, 1000, 1.0, 4.0);
        let windows = segment_windows(&t, &SegmentConfig::default()).unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].1, windows[1].0);
        assert_eq!(windows[1].1, windows[2].0);
        assert_eq!(windows[2].1, 1000);
    }

    #[test]
    fn merges_chattering_bursts() {
        // One burst with a short dropout in the middle.
        let mut t = synthetic_trace(&[(100, 140), (150, 200)], 600, 1.0, 4.0);
        // A clearly separate second burst.
        for v in t.iter_mut().take(460).skip(400) {
            *v = 4.0;
        }
        let bursts = find_bursts(&t, &SegmentConfig::default()).unwrap();
        assert_eq!(bursts.len(), 2, "dropout should be merged: {bursts:?}");
    }

    #[test]
    fn rejects_flat_and_empty() {
        assert_eq!(
            find_bursts(&[], &SegmentConfig::default()),
            Err(SegmentError::EmptyTrace)
        );
        let flat = vec![1.0; 500];
        assert_eq!(
            find_bursts(&flat, &SegmentConfig::default()),
            Err(SegmentError::NoPeaksFound)
        );
    }

    #[test]
    fn rejects_non_finite_traces() {
        let mut t = synthetic_trace(&[(100, 180)], 400, 1.0, 4.0);
        t[250] = f64::NAN;
        assert_eq!(
            find_bursts(&t, &SegmentConfig::default()),
            Err(SegmentError::NonFiniteSample(250))
        );
        t[250] = f64::NEG_INFINITY;
        assert_eq!(
            segment_windows(&t, &SegmentConfig::default()),
            Err(SegmentError::NonFiniteSample(250))
        );
    }

    #[test]
    fn selection_percentiles_match_sorted_reference() {
        // Noisy trace with duplicates and plateaus: the linear-time selection
        // of the robust levels must reproduce the sort-based order statistics
        // exactly, and so must the bursts built on them.
        let traces: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                (0..3000)
                    .map(|i| {
                        let burst = if (i / 200) % 3 == 0 { 3.0 } else { 1.0 };
                        burst + 0.1 * (((i * 13 + k * 7) % 17) as f64)
                    })
                    .collect()
            })
            .collect();
        let config = SegmentConfig::default();
        let mut buf = Vec::new();
        for t in &traces {
            assert_eq!(levels(t, &mut buf), levels_sorted(t));
            let fast = find_bursts(t, &config).unwrap();
            let reference = find_bursts_reference(t, &config).unwrap();
            assert_eq!(fast, reference);
            assert_eq!(
                refined_bursts_into(t, &config, &mut SegmentScratch::new()).unwrap(),
                refine_burst_ends_reference(t, &reference, &config)
            );
        }
        // Degenerate lengths.
        for len in 1..6 {
            let v: Vec<f64> = (0..len).map(|i| (i * 37 % 5) as f64).collect();
            assert_eq!(levels(&v, &mut buf), levels_sorted(&v));
        }
    }

    #[test]
    fn histogram_order_statistics_match_sorted_reference() {
        // Plateaus (one value holding most of the trace), negatives,
        // subnormal-scale values, duplicates, and tiny lengths: the robust
        // levels are the 5th and 95th order statistics of a full sort.
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0; 500],
            (0..5000)
                .map(|i| if (i / 100) % 2 == 0 { -2.5 } else { 7.25 })
                .collect(),
            (0..3001)
                .map(|i| ((i * 37 % 113) as f64 - 56.0) * 1e-300)
                .collect(),
            (0..997).map(|i| (i % 13) as f64 * -0.125).collect(),
            vec![0.0, -0.0, 1.0, -1.0, 0.5],
            vec![42.0],
            vec![-1.0, 1.0],
        ];
        let mut scratch = SegmentScratch::new();
        for samples in &cases {
            let lo_rank = (samples.len() - 1) * 5 / 100;
            let hi_rank = (samples.len() - 1) * 95 / 100;
            let (lo, hi) = levels(samples, &mut scratch.select);
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(lo, sorted[lo_rank], "lo of {samples:?}");
            assert_eq!(hi, sorted[hi_rank], "hi of {samples:?}");
        }
    }

    #[test]
    fn scratch_segmentation_matches_reference_and_reuses_buffers() {
        let mut scratch = SegmentScratch::new();
        let config = SegmentConfig::default();
        // Clean bursts over shifted floors, then noisy plateau traces with
        // duplicates; one scratch serves every call.
        let mut traces: Vec<Vec<f64>> = (0..6usize)
            .map(|k| {
                synthetic_trace(
                    &[(80 + k, 160 + k), (400, 480), (800, 870)],
                    1200,
                    1.0 + k as f64 * 0.01,
                    4.0,
                )
            })
            .collect();
        traces.extend((0..8).map(|k| {
            (0..3000)
                .map(|i| {
                    let burst = if (i / 200) % 3 == 0 { 3.0 } else { 1.0 };
                    burst + 0.1 * (((i * 13 + k * 7) % 17) as f64)
                })
                .collect()
        }));
        // Bursts touching the trace boundaries put extreme values into the
        // clamped-window head and tail of the smoothed trace.
        traces.push(synthetic_trace(
            &[(0, 90), (500, 580), (1110, 1200)],
            1200,
            1.0,
            4.0,
        ));
        // A short trace, where the clamped smoothing edges are a large share
        // of the samples.
        traces.push(synthetic_trace(&[(30, 80)], 150, 1.0, 4.0));
        for (k, t) in traces.iter().enumerate() {
            assert_eq!(
                find_bursts(t, &config),
                find_bursts_reference(t, &config),
                "trace {k}"
            );
            assert_eq!(
                refined_bursts_into(t, &config, &mut scratch),
                find_bursts_reference(t, &config)
                    .map(|bursts| refine_burst_ends_reference(t, &bursts, &config)),
                "refined trace {k}"
            );
        }
        // Error paths through the scratch front end.
        assert_eq!(
            refined_bursts_into(&[], &config, &mut scratch),
            Err(SegmentError::EmptyTrace)
        );
        let mut bad = synthetic_trace(&[(100, 180)], 400, 1.0, 4.0);
        bad[33] = f64::NAN;
        assert_eq!(
            refined_bursts_into(&bad, &config, &mut scratch),
            Err(SegmentError::NonFiniteSample(33))
        );
    }

    #[test]
    fn alignment_score() {
        let truth = [(100, 200), (300, 400)];
        assert_eq!(
            window_alignment_score(&[(102, 200), (299, 400)], &truth, 5),
            1.0
        );
        assert_eq!(window_alignment_score(&[(102, 200)], &truth, 5), 0.5);
        assert_eq!(window_alignment_score(&[], &truth, 5), 0.0);
        assert_eq!(window_alignment_score(&[(0, 1)], &[], 5), 0.0);
    }

    proptest! {
        #[test]
        fn prop_segmentation_recovers_planted_bursts(
            gaps in proptest::collection::vec(120usize..400, 2..8),
            burst_len in 40usize..100,
        ) {
            // Plant bursts separated by the given gaps.
            let mut truth = Vec::new();
            let mut pos = 60usize;
            for g in &gaps {
                truth.push((pos, pos + burst_len));
                pos += burst_len + g;
            }
            let len = pos + 100;
            let t = synthetic_trace(&truth, len, 1.0, 5.0);
            let windows = segment_windows(&t, &SegmentConfig::default()).unwrap();
            prop_assert_eq!(windows.len(), truth.len());
            prop_assert!(window_alignment_score(&windows, &truth, 20) == 1.0);
        }
    }
}
