//! Trace segmentation: locating each coefficient's sampling window inside a
//! full encryption trace.
//!
//! §III-C of the paper: the distribution-function calls produce
//! "distinguishable and visible peaks" in the power trace, one per outer-loop
//! iteration, and those peaks are the start/end indicators for each
//! coefficient window. Because the distribution call is time-variant, a fixed
//! stride cannot work — the windows must be found from the trace itself.
//!
//! The detector smooths the trace with a moving average, thresholds it at
//! `μ + k·σ`, merges the resulting bursts, and emits one window per burst
//! (from the start of a burst to the start of the next).

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
/// the prefix-sum vector, the bucket histograms, and the gather buffers of
/// the order-statistic selections. One scratch per worker amortizes ~2.5 MB
/// of per-call allocation across a whole capture campaign.
#[derive(Debug, Clone, Default)]
pub struct SegmentScratch {
    prefix: Vec<f64>,
    hist: Vec<u32>,
    hist_raw: Vec<u32>,
    hist2: Vec<u32>,
    gather: Vec<f64>,
    gather2: Vec<f64>,
    gather3: Vec<f64>,
    gather4: Vec<f64>,
}

impl SegmentScratch {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Monotone total-order key of an `f64`: `a < b` numerically implies
/// `key(a) < key(b)` (IEEE-754 sign-magnitude flipped into two's
/// complement). `-0.0` orders just below `+0.0`; the two are numerically
/// interchangeable in every downstream use here, so the refinement keeps
/// the exact order-statistic semantics of the comparison-based selections.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Bucket count per histogram level: 16 bits of the total order key at a
/// time (level one is sign + exponent + 4 mantissa bits; level two the next
/// 16 mantissa bits). Each table is 256 KiB of `u32`, held in
/// [`SegmentScratch`] and re-zeroed per call.
const NUM_BUCKETS: usize = 1 << 16;

/// Sub-refinement threshold: a rank-holding bucket larger than this gets a
/// second-level count over the next 16 key bits before gathering. The
/// second level costs a full extra pass, while gathering and
/// partial-sorting an N-element bucket costs only ~N log-ish work on a
/// fraction of the trace — so it only pays when a single bucket swallows
/// most of the trace (e.g. near-constant captures), not for the merely
/// peaked buckets (a third of the trace) that real power traces produce.
const SUB_CUTOFF: usize = 1 << 17;

/// The top 32 bits of the total order key: two histogram levels' worth of
/// bucket index, lexicographically ordered like the values themselves.
#[inline]
fn k32_of(x: f64) -> u32 {
    (total_order_key(x) >> 32) as u32
}

#[inline]
fn bucket_of(x: f64) -> usize {
    (total_order_key(x) >> 48) as usize
}

/// One rank-run endpoint resolved to a 32-bit key-prefix bucket.
#[derive(Clone, Copy, Default)]
struct Endpoint {
    rank: usize,
    b16: usize,
    before16: usize,
    count16: usize,
    /// First and last (inclusive) 32-bit key prefix of the refined bucket.
    low32: u32,
    high32: u32,
    /// Items with a key prefix strictly below `low32`.
    before32: usize,
}

/// Cumulative locate of sorted `ranks` (each below the item total) in a
/// level-one histogram: one sweep resolves every rank to its bucket and the
/// count strictly below it.
fn locate_endpoints(hist: &[u32], ranks: &[usize], eps: &mut [Endpoint]) {
    debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
    let mut seen = 0usize;
    let mut e = 0usize;
    'buckets: for (b, &c) in hist.iter().enumerate() {
        let next = seen + c as usize;
        while ranks[e] < next {
            eps[e] = Endpoint {
                rank: ranks[e],
                b16: b,
                before16: seen,
                count16: c as usize,
                ..Endpoint::default()
            };
            e += 1;
            if e == eps.len() {
                break 'buckets;
            }
        }
        seen = next;
    }
    debug_assert_eq!(e, eps.len(), "rank beyond item count");
}

/// Resolves an endpoint to 32-bit key-prefix granularity: with a
/// second-level count for its bucket, the exact sub-bucket holding the
/// rank; without one, the whole level-one bucket.
fn refine_endpoint(ep: &mut Endpoint, sub: Option<&[u32]>) {
    let base = (ep.b16 as u32) << 16;
    match sub {
        Some(h) => {
            let mut seen = ep.before16;
            for (s, &c) in h.iter().enumerate() {
                let next = seen + c as usize;
                if ep.rank < next {
                    ep.low32 = base | s as u32;
                    ep.high32 = ep.low32;
                    ep.before32 = seen;
                    return;
                }
                seen = next;
            }
            unreachable!("rank beyond sub-bucket counts")
        }
        None => {
            ep.low32 = base;
            ep.high32 = base | 0xFFFF;
            ep.before32 = ep.before16;
        }
    }
}

/// Partial-sorts a gathered key range into the sorted values of ranks
/// `lo_ep.rank ..= hi_ep.rank` (ascending).
fn extract_run(g: &mut [f64], lo_ep: &Endpoint, hi_ep: &Endpoint) -> Vec<f64> {
    let lo_idx = lo_ep.rank - lo_ep.before32;
    let hi_idx = hi_ep.rank - lo_ep.before32;
    g.select_nth_unstable_by_key(hi_idx, |&d| total_order_key(d));
    if lo_idx < hi_idx {
        g[..hi_idx].select_nth_unstable_by_key(lo_idx, |&d| total_order_key(d));
        g[lo_idx..hi_idx].sort_unstable_by_key(|&d| total_order_key(d));
    }
    g[lo_idx..=hi_idx].to_vec()
}

/// Which endpoint buckets need a second-level count: oversized ones, each
/// once, as a sentinel-padded array for branch-predictable per-item probes
/// (the mass of a peaked trace sits *in* these buckets, so the first
/// comparison usually hits).
fn oversized_buckets(eps: &[Endpoint]) -> ([usize; 4], usize) {
    let mut subs = [usize::MAX; 4];
    let mut len = 0usize;
    for ep in eps {
        if ep.count16 > SUB_CUTOFF && !subs[..len].contains(&ep.b16) {
            subs[len] = ep.b16;
            len += 1;
        }
    }
    (subs, len)
}

/// Slot of bucket `b` in a sentinel-padded [`oversized_buckets`] array, or
/// `usize::MAX` — unrolled so the per-item probe is a couple of predictable
/// compares instead of a loop.
#[inline]
fn slot4(b: usize, subs: &[usize; 4]) -> usize {
    if b == subs[0] {
        0
    } else if b == subs[1] {
        1
    } else if b == subs[2] {
        2
    } else if b == subs[3] {
        3
    } else {
        usize::MAX
    }
}

/// Exact sorted order-statistic *runs* `runs[i].0 ..= runs[i].1` (0-based,
/// non-decreasing across both runs, all below the item count) of a
/// re-iterable finite item stream. One shared counting pass (skipped when
/// the caller pre-filled `hist` with the level-one counts), one optional
/// second-level counting pass for oversized rank buckets, and one gather
/// pass for both runs together; only bucket-sized tails are ever
/// partial-sorted. Values are identical to sorting the whole stream and
/// slicing — the bucket key is a prefix of the monotone total order key.
fn select_rank_runs<I: Iterator<Item = f64>>(
    items: &impl Fn() -> I,
    runs: [(usize, usize); 2],
    hist: &mut Vec<u32>,
    hist2: &mut Vec<u32>,
    gathers: [&mut Vec<f64>; 2],
    hist_prefilled: bool,
) -> [Vec<f64>; 2] {
    if !hist_prefilled {
        hist.clear();
        hist.resize(NUM_BUCKETS, 0);
        for x in items() {
            hist[bucket_of(x)] += 1;
        }
    }
    let ranks = [runs[0].0, runs[0].1, runs[1].0, runs[1].1];
    let mut eps = [Endpoint::default(); 4];
    locate_endpoints(hist, &ranks, &mut eps);
    // Second-level counts for endpoints whose bucket is too big to gather.
    let (subs, n_subs) = oversized_buckets(&eps);
    if n_subs > 0 {
        hist2.clear();
        hist2.resize(n_subs * NUM_BUCKETS, 0);
        for x in items() {
            let k = k32_of(x);
            let slot = slot4((k >> 16) as usize, &subs);
            if slot != usize::MAX {
                hist2[slot * NUM_BUCKETS + (k & 0xFFFF) as usize] += 1;
            }
        }
    }
    for ep in &mut eps {
        let sub = subs[..n_subs]
            .iter()
            .position(|&sb| sb == ep.b16)
            .map(|slot| &hist2[slot * NUM_BUCKETS..(slot + 1) * NUM_BUCKETS]);
        refine_endpoint(ep, sub);
    }
    // Gather both runs' refined key ranges in one pass.
    let [g0, g1] = gathers;
    g0.clear();
    g1.clear();
    let range0 = (eps[0].low32, eps[1].high32);
    let range1 = (eps[2].low32, eps[3].high32);
    for x in items() {
        let k = k32_of(x);
        if k >= range0.0 && k <= range0.1 {
            g0.push(x);
        }
        if k >= range1.0 && k <= range1.1 {
            g1.push(x);
        }
    }
    [
        extract_run(g0, &eps[0], &eps[1]),
        extract_run(g1, &eps[2], &eps[3]),
    ]
}

/// Exact `k`-th order statistics (for `lo_rank <= hi_rank < samples.len()`)
/// of a finite slice — [`select_rank_runs`] over two width-one runs.
/// Returns values identical to sorting and indexing.
fn raw_percentiles(
    samples: &[f64],
    lo_rank: usize,
    hi_rank: usize,
    scratch: &mut SegmentScratch,
) -> (f64, f64) {
    let SegmentScratch {
        hist,
        hist2,
        gather,
        gather2,
        ..
    } = scratch;
    let items = || samples.iter().copied();
    let [lo_run, hi_run] = select_rank_runs(
        &items,
        [(lo_rank, lo_rank), (hi_rank, hi_rank)],
        hist,
        hist2,
        [gather, gather2],
        false,
    );
    (lo_run[0], hi_run[0])
}

/// The 5th and 95th percentile values of a non-empty finite slice, via two
/// linear-time selections instead of a full sort. A selection yields exactly
/// the k-th order statistic, so the returned *values* match the previous
/// sort-based implementation bit for bit — a full sort per trace was the
/// single largest cost of segmenting long captures. The hot path has since
/// moved on to the read-only histogram selection; this stays as the middle
/// rung the equivalence tests pin both ends against.
#[cfg_attr(not(test), allow(dead_code))]
fn percentiles_5_95(scratch: &mut [f64]) -> (f64, f64) {
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
    let lo_index = (scratch.len() - 1) * 5 / 100;
    let hi_index = (scratch.len() - 1) * 95 / 100;
    let (left, &mut hi, _) = scratch.select_nth_unstable_by(hi_index, cmp);
    // `lo_index < hi_index` whenever the indices differ, so the 5th
    // percentile lives in the left partition; when they coincide the two
    // order statistics are the same element.
    let lo = if lo_index == hi_index {
        hi
    } else {
        *left.select_nth_unstable_by(lo_index, cmp).1
    };
    (lo, hi)
}

/// The pre-fast-path percentile computation — a full sort per trace — kept
/// verbatim so the benchmark baseline measures what segmentation used to
/// cost. Returns the same values as [`percentiles_5_95`].
fn percentiles_5_95_sorted(scratch: &mut [f64]) -> (f64, f64) {
    scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (
        scratch[(scratch.len() - 1) * 5 / 100],
        scratch[(scratch.len() - 1) * 95 / 100],
    )
}

/// Moving-average smoothing (centered, edge-clamped).
///
/// # Errors
///
/// Fails on an empty trace or on NaN/infinite samples — a single NaN would
/// otherwise silently poison every averaged output around it.
pub fn smooth(samples: &[f64], window: usize) -> Result<Vec<f64>, SegmentError> {
    crate::sanity::check_finite(samples)?;
    if window <= 1 {
        return Ok(samples.to_vec());
    }
    let half = window / 2;
    let n = samples.len();
    // Prefix sums for O(n) averaging.
    let mut prefix = Vec::with_capacity(n + 1);
    let mut acc = 0.0;
    prefix.push(0.0);
    for &s in samples {
        acc += s;
        prefix.push(acc);
    }
    Ok((0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect())
}

/// The next representable `f64` toward `+∞` (finite, non-NaN input).
#[inline]
fn next_toward_pos_inf(x: f64) -> f64 {
    if x == 0.0 {
        return f64::from_bits(1); // smallest positive subnormal; covers -0.0
    }
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// The next representable `f64` toward `-∞` (finite, non-NaN input).
#[inline]
fn next_toward_neg_inf(x: f64) -> f64 {
    -next_toward_pos_inf(-x)
}

/// The largest finite `d` with `d / denom <= threshold`, found by walking
/// ulps from `threshold * denom` (a step or two at most — the product is
/// already within rounding error of the exact boundary). IEEE division by a
/// positive constant is monotone non-decreasing, so `sum > boundary` is
/// *exactly* `sum / denom > threshold` — without performing the division.
fn diff_boundary(threshold: f64, denom: f64) -> f64 {
    let mut d = threshold * denom;
    while d / denom > threshold {
        d = next_toward_neg_inf(d);
    }
    loop {
        let up = next_toward_pos_inf(d);
        if up.is_finite() && up / denom <= threshold {
            d = up;
        } else {
            return d;
        }
    }
}

/// The combined rank-`rank` smoothed value out of the interior candidate
/// run plus the clamped-window edge values — exactly what sorting the
/// materialized smoothed trace and indexing at `rank` would return.
///
/// `cand_diffs` holds the interior windowed *sums* at interior ranks
/// `rank - edges ..= rank`, ascending; `edge_vals` the sorted edge values.
/// There are only `edges` edge elements, so the combined rank-`rank`
/// element must be one of these candidates: every interior element of rank
/// below the run is `<=` the first candidate, and every edge value strictly
/// below the first candidate sits among them — together they fill exactly
/// the combined ranks below `(rank - edges) + e_low`. What remains is the
/// `q`-th smallest of the merge of the remaining edges and the candidates.
fn combined_statistic(cand_diffs: &[f64], denom: f64, edge_vals: &[f64], edges: usize) -> f64 {
    let candidates: Vec<f64> = cand_diffs.iter().map(|&d| d / denom).collect();
    let e_low = edge_vals.iter().filter(|&&v| v < candidates[0]).count();
    let q = edges - e_low;
    let mut a = e_low;
    let mut b = 0usize;
    let take_edge = |a: usize, b: usize| {
        a < edge_vals.len() && (b >= candidates.len() || edge_vals[a] <= candidates[b])
    };
    for _ in 0..q {
        if take_edge(a, b) {
            a += 1;
        } else {
            b += 1;
        }
    }
    if take_edge(a, b) {
        edge_vals[a]
    } else {
        candidates[b]
    }
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
    find_bursts_into(samples, config, &mut SegmentScratch::new())
}

/// [`find_bursts`] with caller-provided scratch buffers, running entirely in
/// the diff domain: one prefix-sum pass (with the finiteness check fused
/// in), a histogram count over windowed sums, a gather for the two
/// percentile ranks, and a division-free threshold scan against an
/// ulp-exact boundary ([`diff_boundary`]). The smoothed trace is never
/// materialized and no per-element division happens, yet every burst index
/// is identical to [`find_bursts_reference`] — the diff-to-value map is
/// monotone and the boundary is exact. [`refined_bursts_into`] fuses this
/// with the end refinement; it calls this directly only for short or
/// unsmoothed traces.
fn find_bursts_into(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let n = samples.len();
    if n == 0 {
        return Err(SegmentError::EmptyTrace);
    }
    let lo_rank = (n - 1) * 5 / 100;
    let hi_rank = (n - 1) * 95 / 100;
    if config.smooth_window <= 1 {
        // No smoothing: percentiles and scan run on the raw trace directly
        // (the reference path copies it; the values are the same).
        if let Some(i) = samples.iter().position(|s| !s.is_finite()) {
            return Err(SegmentError::NonFiniteSample(i));
        }
        let (lo, hi) = raw_percentiles(samples, lo_rank, hi_rank, scratch);
        return threshold_bursts(samples, lo, hi, config);
    }
    let half = config.smooth_window / 2;
    let edges = 2 * half;
    if n <= edges || lo_rank < edges || hi_rank + edges >= n || hi_rank < lo_rank + edges {
        // Trace too short for the diff-domain rank argument (both
        // percentile ranks must sit `edges` deep inside the interior run,
        // and their candidate runs must not straddle each other).
        // Such traces are cheap to smooth outright; results are identical.
        let smoothed = smooth(samples, config.smooth_window)?;
        let (lo, hi) = raw_percentiles(&smoothed, lo_rank, hi_rank, scratch);
        return threshold_bursts(&smoothed, lo, hi, config);
    }
    let interior = n - edges;
    let denom = (edges + 1) as f64;

    let SegmentScratch {
        prefix,
        hist,
        hist2,
        gather,
        gather2,
        ..
    } = scratch;
    // One pass builds the prefix sums (finiteness check fused in) *and*
    // counts the windowed sums into the level-one histogram: once the
    // running sum reaches index i >= edges, the diff at interior index
    // i - edges is `acc - prefix[i - edges]`.
    prefix.clear();
    prefix.reserve(n + 1);
    prefix.push(0.0);
    hist.clear();
    hist.resize(NUM_BUCKETS, 0);
    let mut acc = 0.0;
    for (i, &s) in samples.iter().enumerate() {
        if !s.is_finite() {
            return Err(SegmentError::NonFiniteSample(i));
        }
        acc += s;
        prefix.push(acc);
        if i >= edges {
            hist[bucket_of(acc - prefix[i - edges])] += 1;
        }
    }
    let prefix: &[f64] = prefix;
    // Clamped-window head/tail smoothed values — identical expressions to
    // [`smooth`], and only `edges` of them in total.
    let head: Vec<f64> = (0..half)
        .map(|i| (prefix[i + half + 1] - prefix[0]) / (i + half + 1) as f64)
        .collect();
    let tail: Vec<f64> = (n - half..n)
        .map(|i| {
            let lo = i - half;
            (prefix[n] - prefix[lo]) / (n - lo) as f64
        })
        .collect();
    let mut edge_vals: Vec<f64> = head.iter().chain(&tail).copied().collect();
    edge_vals.sort_unstable_by_key(|&v| total_order_key(v));
    // Both percentile candidate runs out of the diff domain in one shared
    // selection (the guard above keeps the runs disjoint and in-bounds).
    let diffs = || (0..interior).map(|j| prefix[j + edges + 1] - prefix[j]);
    let [lo_cands, hi_cands] = select_rank_runs(
        &diffs,
        [(lo_rank - edges, lo_rank), (hi_rank - edges, hi_rank)],
        hist,
        hist2,
        [gather, gather2],
        true,
    );
    let lo = combined_statistic(&lo_cands, denom, &edge_vals, edges);
    let hi = combined_statistic(&hi_cands, denom, &edge_vals, edges);
    if hi - lo < 1e-12 {
        return Err(SegmentError::NoPeaksFound);
    }
    let threshold = lo + config.threshold_fraction * (hi - lo);
    let boundary = diff_boundary(threshold, denom);
    let flags = head
        .iter()
        .map(|&v| v > threshold)
        .chain(diffs().map(|d| d > boundary))
        .chain(tail.iter().map(|&v| v > threshold));
    bursts_from_flags(flags, config)
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
/// Every full-trace pass is shared between detection and refinement: the
/// prefix-sum pass also counts both the diff-domain and raw level-one
/// histograms, and the second-level counting and gather passes serve all
/// six rank endpoints (two percentile candidate runs for the burst
/// threshold, two single ranks for the refinement levels) in single
/// sweeps. Four passes over the trace in total, against nine when the two
/// stages run separately. Returns exactly what
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
    let n = samples.len();
    if n == 0 {
        return Err(SegmentError::EmptyTrace);
    }
    let lo_rank = (n - 1) * 5 / 100;
    let hi_rank = (n - 1) * 95 / 100;
    let half = config.smooth_window / 2;
    let edges = 2 * half;
    if config.smooth_window <= 1
        || n <= edges
        || lo_rank < edges
        || hi_rank + edges >= n
        || hi_rank < lo_rank + edges
    {
        // Degenerate geometry: compose the standalone stages (cheap here).
        let bursts = find_bursts_into(samples, config, scratch)?;
        return Ok(refine_burst_ends_into(samples, &bursts, config, scratch));
    }
    let interior = n - edges;
    let denom = (edges + 1) as f64;

    let SegmentScratch {
        prefix,
        hist,
        hist_raw,
        hist2,
        gather,
        gather2,
        gather3,
        gather4,
    } = scratch;
    // Pass 1: prefix sums (finiteness check fused) + both level-one counts.
    prefix.clear();
    prefix.reserve(n + 1);
    prefix.push(0.0);
    hist.clear();
    hist.resize(NUM_BUCKETS, 0);
    hist_raw.clear();
    hist_raw.resize(NUM_BUCKETS, 0);
    let mut acc = 0.0;
    for (i, &s) in samples.iter().enumerate() {
        if !s.is_finite() {
            return Err(SegmentError::NonFiniteSample(i));
        }
        acc += s;
        prefix.push(acc);
        hist_raw[bucket_of(s)] += 1;
        if i >= edges {
            hist[bucket_of(acc - prefix[i - edges])] += 1;
        }
    }
    let prefix: &[f64] = prefix;
    let head: Vec<f64> = (0..half)
        .map(|i| (prefix[i + half + 1] - prefix[0]) / (i + half + 1) as f64)
        .collect();
    let tail: Vec<f64> = (n - half..n)
        .map(|i| {
            let lo = i - half;
            (prefix[n] - prefix[lo]) / (n - lo) as f64
        })
        .collect();
    let mut edge_vals: Vec<f64> = head.iter().chain(&tail).copied().collect();
    edge_vals.sort_unstable_by_key(|&v| total_order_key(v));

    let diff_ranks = [lo_rank - edges, lo_rank, hi_rank - edges, hi_rank];
    let mut diff_eps = [Endpoint::default(); 4];
    locate_endpoints(hist, &diff_ranks, &mut diff_eps);
    let raw_ranks = [lo_rank, hi_rank];
    let mut raw_eps = [Endpoint::default(); 2];
    locate_endpoints(hist_raw, &raw_ranks, &mut raw_eps);

    // Pass 2 (only when some rank bucket is oversized): second-level counts
    // for both domains in one scan. `hist2` is segmented, diff slots first.
    let (diff_subs, n_diff) = oversized_buckets(&diff_eps);
    let (raw_subs, n_raw) = oversized_buckets(&raw_eps);
    let raw_base = n_diff * NUM_BUCKETS;
    if n_diff + n_raw > 0 {
        hist2.clear();
        hist2.resize((n_diff + n_raw) * NUM_BUCKETS, 0);
        for (i, &s) in samples.iter().enumerate() {
            let k = k32_of(s);
            let slot = slot4((k >> 16) as usize, &raw_subs);
            if slot != usize::MAX {
                hist2[raw_base + slot * NUM_BUCKETS + (k & 0xFFFF) as usize] += 1;
            }
            if i < interior {
                let k = k32_of(prefix[i + edges + 1] - prefix[i]);
                let slot = slot4((k >> 16) as usize, &diff_subs);
                if slot != usize::MAX {
                    hist2[slot * NUM_BUCKETS + (k & 0xFFFF) as usize] += 1;
                }
            }
        }
    }
    for ep in &mut diff_eps {
        let sub = diff_subs[..n_diff]
            .iter()
            .position(|&sb| sb == ep.b16)
            .map(|slot| &hist2[slot * NUM_BUCKETS..(slot + 1) * NUM_BUCKETS]);
        refine_endpoint(ep, sub);
    }
    for ep in &mut raw_eps {
        let sub = raw_subs[..n_raw]
            .iter()
            .position(|&sb| sb == ep.b16)
            .map(|slot| &hist2[raw_base + slot * NUM_BUCKETS..raw_base + (slot + 1) * NUM_BUCKETS]);
        refine_endpoint(ep, sub);
    }

    // Pass 3: gather all four refined key ranges in one scan.
    gather.clear();
    gather2.clear();
    gather3.clear();
    gather4.clear();
    let dr0 = (diff_eps[0].low32, diff_eps[1].high32);
    let dr1 = (diff_eps[2].low32, diff_eps[3].high32);
    let rr0 = (raw_eps[0].low32, raw_eps[0].high32);
    let rr1 = (raw_eps[1].low32, raw_eps[1].high32);
    for (i, &s) in samples.iter().enumerate() {
        let k = k32_of(s);
        if k >= rr0.0 && k <= rr0.1 {
            gather3.push(s);
        }
        if k >= rr1.0 && k <= rr1.1 {
            gather4.push(s);
        }
        if i < interior {
            let d = prefix[i + edges + 1] - prefix[i];
            let k = k32_of(d);
            if k >= dr0.0 && k <= dr0.1 {
                gather.push(d);
            }
            if k >= dr1.0 && k <= dr1.1 {
                gather2.push(d);
            }
        }
    }
    let lo_cands = extract_run(gather, &diff_eps[0], &diff_eps[1]);
    let hi_cands = extract_run(gather2, &diff_eps[2], &diff_eps[3]);
    let raw_lo = extract_run(gather3, &raw_eps[0], &raw_eps[0])[0];
    let raw_hi = extract_run(gather4, &raw_eps[1], &raw_eps[1])[0];

    let lo = combined_statistic(&lo_cands, denom, &edge_vals, edges);
    let hi = combined_statistic(&hi_cands, denom, &edge_vals, edges);
    if hi - lo < 1e-12 {
        return Err(SegmentError::NoPeaksFound);
    }
    let threshold = lo + config.threshold_fraction * (hi - lo);
    let boundary = diff_boundary(threshold, denom);
    // Pass 4: the division-free threshold scan.
    let flags = head
        .iter()
        .map(|&v| v > threshold)
        .chain((0..interior).map(|j| prefix[j + edges + 1] - prefix[j] > boundary))
        .chain(tail.iter().map(|&v| v > threshold));
    let bursts = bursts_from_flags(flags, config)?;
    Ok(refine_with_levels(samples, &bursts, config, raw_lo, raw_hi))
}

/// Reference implementation — tests and benches only. Burst detection on
/// the materialized smoothed trace with the pre-fast-path sort-based
/// percentile pass. Identical results to [`find_bursts`].
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn find_bursts_reference(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let smoothed = smooth(samples, config.smooth_window)?;
    // Robust low/high levels: 5th and 95th percentiles of the smoothed trace.
    let (lo, hi) = percentiles_5_95_sorted(&mut smoothed.clone());
    threshold_bursts(&smoothed, lo, hi, config)
}

/// The threshold / merge / minimum-length back half shared by every
/// burst-finding front end (scratch-based, allocating, and reference — the
/// levels `lo`/`hi` are what differ between them, never this scan).
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
    bursts_from_flags(smoothed.iter().map(|&s| s > threshold), config)
}

/// Turns a per-sample above-threshold flag stream into merged,
/// minimum-length bursts — the back half shared by the materialized-trace
/// and diff-domain front ends.
fn bursts_from_flags(
    flags: impl Iterator<Item = bool>,
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    // Raw above-threshold runs.
    let mut bursts: Vec<(usize, usize)> = Vec::new();
    let mut start: Option<usize> = None;
    let mut len = 0usize;
    for (i, above) in flags.enumerate() {
        len = i + 1;
        if above {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(b) = start.take() {
            bursts.push((b, i));
        }
    }
    if let Some(b) = start {
        bursts.push((b, len));
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

/// Burst end refinement with a read-only histogram selection for the raw
/// trace's levels, for traces [`refined_bursts_into`] does not fuse.
fn refine_burst_ends_into(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Vec<(usize, usize)> {
    if samples.is_empty() {
        return bursts.to_vec();
    }
    let lo_rank = (samples.len() - 1) * 5 / 100;
    let hi_rank = (samples.len() - 1) * 95 / 100;
    let (lo, hi) = raw_percentiles(samples, lo_rank, hi_rank, scratch);
    refine_with_levels(samples, bursts, config, lo, hi)
}

/// Reference implementation — tests and benches only. Refines `bursts`
/// (from [`find_bursts_reference`]) to cycle accuracy on the raw trace, with
/// the pre-fast-path sort-based percentile pass; see
/// [`refined_bursts_into`] for the rule.
pub fn refine_burst_ends_reference(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
) -> Vec<(usize, usize)> {
    if samples.is_empty() {
        return bursts.to_vec();
    }
    let (lo, hi) = percentiles_5_95_sorted(&mut samples.to_vec());
    refine_with_levels(samples, bursts, config, lo, hi)
}

/// The per-burst end-refinement scan shared by the scratch-based and
/// reference front ends (only the `lo`/`hi` level computation differs).
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
        // must reproduce the sort-based order statistics exactly.
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
        for t in &traces {
            assert_eq!(
                percentiles_5_95(&mut t.clone()),
                percentiles_5_95_sorted(&mut t.clone())
            );
            let fast = find_bursts(t, &config).unwrap();
            let reference = find_bursts_reference(t, &config).unwrap();
            assert_eq!(fast, reference);
            let refined = refine_burst_ends_reference(t, &reference, &config);
            assert_eq!(
                refine_burst_ends_into(t, &fast, &config, &mut SegmentScratch::new()),
                refined
            );
            assert_eq!(
                refined_bursts_into(t, &config, &mut SegmentScratch::new()).unwrap(),
                refined
            );
        }
        // Degenerate lengths.
        for len in 1..6 {
            let v: Vec<f64> = (0..len).map(|i| (i * 37 % 5) as f64).collect();
            assert_eq!(
                percentiles_5_95(&mut v.clone()),
                percentiles_5_95_sorted(&mut v.clone())
            );
        }
    }

    #[test]
    fn histogram_order_statistics_match_sorted_reference() {
        // Plateaus (one histogram bucket holding most of the trace),
        // negatives, subnormal-scale values, duplicates, and tiny lengths.
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
            let (lo, hi) = raw_percentiles(samples, lo_rank, hi_rank, &mut scratch);
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
        for k in 0..6usize {
            let t = synthetic_trace(
                &[(80 + k, 160 + k), (400, 480), (800, 870)],
                1200,
                1.0 + k as f64 * 0.01,
                4.0,
            );
            let fast = find_bursts_into(&t, &config, &mut scratch).unwrap();
            let reference = find_bursts_reference(&t, &config).unwrap();
            assert_eq!(fast, reference, "trace {k}");
            let refined_ref = refine_burst_ends_reference(&t, &reference, &config);
            assert_eq!(
                refine_burst_ends_into(&t, &fast, &config, &mut scratch),
                refined_ref,
                "trace {k}"
            );
            // The fused single-entry pipeline returns the same composition.
            assert_eq!(
                refined_bursts_into(&t, &config, &mut scratch).unwrap(),
                refined_ref,
                "fused trace {k}"
            );
        }
        // Bursts touching the trace boundaries put extreme values into the
        // clamped-window head/tail, exercising the edge-merge of the
        // diff-domain percentile selection.
        let boundary = synthetic_trace(&[(0, 90), (500, 580), (1110, 1200)], 1200, 1.0, 4.0);
        assert_eq!(
            find_bursts_into(&boundary, &config, &mut scratch).unwrap(),
            find_bursts_reference(&boundary, &config).unwrap()
        );
        assert_eq!(
            refined_bursts_into(&boundary, &config, &mut scratch).unwrap(),
            refine_burst_ends_reference(
                &boundary,
                &find_bursts_reference(&boundary, &config).unwrap(),
                &config
            )
        );
        // Short traces fall back to materialized smoothing; results still
        // match the reference exactly.
        let short = synthetic_trace(&[(30, 80)], 150, 1.0, 4.0);
        assert_eq!(
            find_bursts_into(&short, &config, &mut scratch).unwrap(),
            find_bursts_reference(&short, &config).unwrap()
        );
        assert_eq!(
            refined_bursts_into(&short, &config, &mut scratch).unwrap(),
            refine_burst_ends_reference(
                &short,
                &find_bursts_reference(&short, &config).unwrap(),
                &config
            )
        );
        // Error paths through the scratch front end.
        assert_eq!(
            find_bursts_into(&[], &config, &mut scratch),
            Err(SegmentError::EmptyTrace)
        );
        let mut bad = synthetic_trace(&[(100, 180)], 400, 1.0, 4.0);
        bad[33] = f64::NAN;
        assert_eq!(
            find_bursts_into(&bad, &config, &mut scratch),
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
