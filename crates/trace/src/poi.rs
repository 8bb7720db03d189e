//! Point-of-interest (POI) selection for template attacks.
//!
//! The paper uses the sum-of-squared-differences (SOSD) method \[30\] to find
//! the samples with the highest inter-class leakage; SOST (the
//! variance-normalized variant) and plain inter-class variance are provided
//! for the ablation experiments.

use crate::trace::TraceSet;
use std::fmt;

/// The selection statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoiMethod {
    /// Sum of squared differences of class means (the paper's choice).
    Sosd,
    /// SOSD normalized by the summed class variances (a T-test statistic).
    Sost,
    /// Variance of the class means.
    MeanVariance,
}

/// Errors from POI selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoiError {
    /// Fewer than two classes in the profiling set.
    NotEnoughClasses(usize),
    /// The profiling set was empty.
    EmptySet,
}

impl fmt::Display for PoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoiError::NotEnoughClasses(n) => {
                write!(f, "POI selection needs at least 2 classes, got {n}")
            }
            PoiError::EmptySet => write!(f, "POI selection on an empty trace set"),
        }
    }
}

impl std::error::Error for PoiError {}

/// Computes the per-sample selection statistic over a labelled trace set.
///
/// # Errors
///
/// Fails when the set is empty or has fewer than two labels.
pub fn leakage_statistic(set: &TraceSet, method: PoiMethod) -> Result<Vec<f64>, PoiError> {
    if set.is_empty() {
        return Err(PoiError::EmptySet);
    }
    let labels = set.labels();
    if labels.len() < 2 {
        return Err(PoiError::NotEnoughClasses(labels.len()));
    }
    let len = set.trace_len();
    let class_stats: Vec<(Vec<f64>, Vec<f64>)> = labels
        .iter()
        .map(|&l| {
            let sub = set.with_label(l);
            (sub.mean(), sub.variance())
        })
        .collect();

    let mut stat = vec![0.0; len];
    match method {
        PoiMethod::Sosd => {
            for i in 0..class_stats.len() {
                for j in i + 1..class_stats.len() {
                    for t in 0..len {
                        let d = class_stats[i].0[t] - class_stats[j].0[t];
                        stat[t] += d * d;
                    }
                }
            }
        }
        PoiMethod::Sost => {
            for i in 0..class_stats.len() {
                for j in i + 1..class_stats.len() {
                    for t in 0..len {
                        let d = class_stats[i].0[t] - class_stats[j].0[t];
                        let v = class_stats[i].1[t] + class_stats[j].1[t];
                        stat[t] += d * d / v.max(1e-12);
                    }
                }
            }
        }
        PoiMethod::MeanVariance => {
            let k = class_stats.len() as f64;
            for t in 0..len {
                let grand = class_stats.iter().map(|(m, _)| m[t]).sum::<f64>() / k;
                stat[t] = class_stats
                    .iter()
                    .map(|(m, _)| (m[t] - grand).powi(2))
                    .sum::<f64>()
                    / k;
            }
        }
    }
    Ok(stat)
}

/// Selects up to `count` POIs: the highest-statistic samples subject to a
/// minimum spacing (to avoid redundant neighbours), returned in ascending
/// index order.
///
/// # Errors
///
/// Propagates statistic-computation failures.
pub fn select_pois(
    set: &TraceSet,
    method: PoiMethod,
    count: usize,
    min_spacing: usize,
) -> Result<Vec<usize>, PoiError> {
    let stat = leakage_statistic(set, method)?;
    Ok(select_pois_from_statistic(&stat, count, min_spacing))
}

/// Greedy top-k selection with spacing on a precomputed statistic, taken
/// highest first in [`f64::total_cmp`] order (ties keep index order).
pub fn select_pois_from_statistic(stat: &[f64], count: usize, min_spacing: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stat.len()).collect();
    order.sort_by(|&a, &b| stat[b].total_cmp(&stat[a]));
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    for idx in order {
        if chosen.len() >= count {
            break;
        }
        if chosen
            .iter()
            .all(|&c| c.abs_diff(idx) >= min_spacing.max(1))
        {
            chosen.push(idx);
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// Two classes that differ only at samples 5 and 20.
    fn two_class_set() -> TraceSet {
        let mut set = TraceSet::new();
        for rep in 0..20 {
            let jitter = (rep as f64) * 1e-3;
            let mut a = vec![1.0 + jitter; 32];
            let mut b = vec![1.0 - jitter; 32];
            a[5] = 4.0;
            b[5] = 0.0;
            a[20] = 3.0;
            b[20] = 1.0;
            set.push(Trace::labelled(a, 0));
            set.push(Trace::labelled(b, 1));
        }
        set
    }

    #[test]
    fn sosd_peaks_at_discriminating_samples() {
        let set = two_class_set();
        let stat = leakage_statistic(&set, PoiMethod::Sosd).unwrap();
        let max_idx = stat
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 5);
        assert!(stat[20] > stat[0] * 100.0);
    }

    #[test]
    fn all_methods_find_the_pois() {
        let set = two_class_set();
        for method in [PoiMethod::Sosd, PoiMethod::Sost, PoiMethod::MeanVariance] {
            let pois = select_pois(&set, method, 2, 3).unwrap();
            assert_eq!(pois, vec![5, 20], "method {method:?}");
        }
    }

    #[test]
    fn spacing_is_respected() {
        // A single wide peak: spacing forces picks apart.
        let mut stat = vec![0.0; 50];
        for (i, s) in stat.iter_mut().enumerate().take(30).skip(10) {
            *s = 100.0 - (i as f64 - 20.0).abs();
        }
        let pois = select_pois_from_statistic(&stat, 3, 5);
        assert_eq!(pois.len(), 3);
        for w in pois.windows(2) {
            assert!(w[1] - w[0] >= 5);
        }
        assert!(pois.contains(&20));
    }

    #[test]
    fn requesting_more_pois_than_available() {
        let stat = vec![1.0, 2.0, 3.0];
        let pois = select_pois_from_statistic(&stat, 10, 1);
        assert_eq!(pois, vec![0, 1, 2]);
    }

    #[test]
    fn errors_on_degenerate_sets() {
        assert_eq!(
            leakage_statistic(&TraceSet::new(), PoiMethod::Sosd),
            Err(PoiError::EmptySet)
        );
        let mut one_class = TraceSet::new();
        one_class.push(Trace::labelled(vec![1.0; 4], 7));
        assert_eq!(
            leakage_statistic(&one_class, PoiMethod::Sosd),
            Err(PoiError::NotEnoughClasses(1))
        );
        let mut unlabelled = TraceSet::new();
        unlabelled.push(Trace::new(vec![1.0; 4]));
        assert_eq!(
            leakage_statistic(&unlabelled, PoiMethod::Sosd),
            Err(PoiError::NotEnoughClasses(0))
        );
    }

    #[test]
    fn sost_downweights_noisy_samples() {
        // Sample 3: big mean gap but huge variance. Sample 7: smaller gap,
        // tiny variance. SOST must rank 7 above 3.
        let mut set = TraceSet::new();
        for rep in 0..40 {
            let noise = if rep % 2 == 0 { 3.0 } else { -3.0 };
            let mut a = vec![0.0; 10];
            let mut b = vec![0.0; 10];
            a[3] = 2.0 + noise;
            b[3] = -2.0 + noise;
            a[7] = 0.5 + 0.01 * noise;
            b[7] = -0.5 + 0.01 * noise;
            set.push(Trace::labelled(a, 0));
            set.push(Trace::labelled(b, 1));
        }
        let sost = leakage_statistic(&set, PoiMethod::Sost).unwrap();
        assert!(sost[7] > sost[3], "sost[7]={} sost[3]={}", sost[7], sost[3]);
    }
}
