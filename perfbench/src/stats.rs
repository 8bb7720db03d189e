//! Order statistics, the sustained-rate rule and the search for it.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail report may choose from, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. NaN for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples. The small
/// tolerance keeps decimal percentiles such as 99.9 from rounding up a
/// whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (the lower median for an even count, so the
/// result is always one of the samples).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The latency of each input a closed loop analyzes again and again: the
/// median of its repeats, for every input with at least one. Repeats of
/// one input do the same work, so they differ only by host jitter, and
/// the median over a whole run leaves that jitter out.
pub fn input_medians(per_input: &[Vec<f64>]) -> Vec<f64> {
    per_input
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect()
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples, including any counted as infinitely late.
    pub count: usize,
    /// Median, ms.
    pub p50: f64,
    /// 90th percentile, ms.
    pub p90: f64,
    /// The highest percentile with [`MIN_BEYOND`] samples beyond it.
    pub tail_p: Option<f64>,
}

impl Latency {
    /// Summarizes samples in ms; `f64::INFINITY` marks an operation that
    /// never completed, which misses every limit.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            tail_p: tail_percentile(sorted.len()),
        }
    }

    /// Whether the p90 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p90_supported(&self) -> bool {
        samples_beyond(self.count, 90.0) >= MIN_BEYOND
    }
}

/// One step of the offered-rate ladder, as the sustained-rate rule sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate, traces/s.
    pub offered: f64,
    /// Traces drained during the step divided by its length, traces/s.
    pub delivered: f64,
    /// 90th-percentile due-time latency of the step's traces, ms.
    pub p90_ms: f64,
    /// Backlog (submitted minus drained traces) sampled at even points of
    /// the step, the last at its end.
    pub backlog: Vec<u64>,
}

/// p90 limit of a sustained step, ms.
pub const P90_LIMIT_MS: f64 = 250.0;

impl Step {
    /// The rule: p90 within [`P90_LIMIT_MS`] and a backlog that does not
    /// grow from the step's first sample to its last by more than `slack`
    /// traces (what a healthy service may hold in flight).
    pub fn sustained(&self, slack: u64) -> bool {
        let grew = match (self.backlog.first(), self.backlog.last()) {
            (Some(&first), Some(&last)) => last > first + slack,
            _ => true,
        };
        self.p90_ms <= P90_LIMIT_MS && !grew
    }
}

/// The step that sets the sustained rate: the highest-offered step that
/// passes [`Step::sustained`], or the lowest step when none passes.
pub fn sustained_step(steps: &[Step], slack: u64) -> Option<&Step> {
    steps
        .iter()
        .filter(|s| s.sustained(slack))
        .max_by(|a, b| a.offered.total_cmp(&b.offered))
        .or_else(|| steps.iter().min_by(|a, b| a.offered.total_cmp(&b.offered)))
}

/// The sustained rate: the offered rate of the highest step that passes
/// [`Step::sustained`]. When none passes, the lowest step's delivered
/// rate, so a regression reads as a low number rather than zero.
pub fn sustained_rate(steps: &[Step], slack: u64) -> Option<f64> {
    sustained_step(steps, slack).map(|s| {
        if s.sustained(slack) {
            s.offered
        } else {
            s.delivered
        }
    })
}

/// Completion rate of a saturated step, operations/s: completions after
/// the first divided by the time from the first to the last. Starting at
/// the first completion leaves out the ramp-up before anything finishes.
pub fn completion_rate(done_s: &[f64]) -> f64 {
    let first = done_s.iter().copied().fold(f64::INFINITY, f64::min);
    let last = done_s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if done_s.len() < 2 || last <= first {
        return f64::NAN;
    }
    (done_s.len() - 1) as f64 / (last - first)
}

/// Ratio between neighbouring rungs of the search's ladder.
pub const LADDER_RATIO: f64 = 1.1;
/// The first rung, as a share of the measured capacity.
pub const LADDER_TOP: f64 = 1.1;
/// The search stops once the highest pass and the lowest failure above it
/// are at most this ratio apart.
pub const SEARCH_RESOLUTION: f64 = 1.05;

/// The search for the highest offered rate that passes the sustained-rate
/// rule. It starts just above the capacity a saturated step measured and
/// walks a geometric ladder (ratio [`LADDER_RATIO`]) down until a step
/// passes, or up while steps pass, then bisects between the highest pass
/// and the lowest failure above it. The rungs follow the capacity, so the
/// figure moves with it on any host.
#[derive(Debug, Clone)]
pub struct RateSearch {
    capacity: f64,
    floor: f64,
    steps_left: usize,
    pass: Option<f64>,
    fail: Option<f64>,
}

impl RateSearch {
    /// A search anchored at `capacity` that offers at most `max_steps`
    /// steps and never goes below `floor` (a rate already known to pass).
    pub fn new(capacity: f64, floor: f64, max_steps: usize) -> Self {
        Self {
            capacity,
            floor,
            steps_left: max_steps,
            pass: None,
            fail: None,
        }
    }

    /// The next rate to offer, or `None` when the search is done.
    pub fn next(&self) -> Option<f64> {
        if self.steps_left == 0 || !self.capacity.is_finite() || self.capacity <= 0.0 {
            return None;
        }
        let rate = match (self.pass, self.fail) {
            (None, None) => self.capacity * LADDER_TOP,
            (None, Some(fail)) => fail / LADDER_RATIO,
            (Some(pass), None) => pass * LADDER_RATIO,
            (Some(pass), Some(fail)) if fail / pass > SEARCH_RESOLUTION => (pass * fail).sqrt(),
            (Some(_), Some(_)) => return None,
        };
        (rate > self.floor).then_some(rate)
    }

    /// Records whether the step offered at `rate` passed the rule.
    pub fn record(&mut self, rate: f64, passed: bool) {
        self.steps_left = self.steps_left.saturating_sub(1);
        if passed {
            self.pass = Some(self.pass.map_or(rate, |p| p.max(rate)));
        } else {
            self.fail = Some(self.fail.map_or(rate, |f| f.min(rate)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: rank of p90 is 90, exactly 10 beyond.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(100), Some(90.0));
        // 99 samples leave only 9 beyond p90, so the median is the tail.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn latency_summary_counts_lost_traces_as_late() {
        let mut xs = vec![10.0; 95];
        xs.extend([f64::INFINITY; 5]);
        let lat = Latency::of(&xs);
        assert_eq!(lat.count, 100);
        assert_eq!(lat.p50, 10.0);
        assert_eq!(lat.p90, 10.0);
        assert!(lat.p90_supported());
        xs.extend([f64::INFINITY; 6]);
        assert!(Latency::of(&xs).p90.is_infinite());
        assert!(!Latency::of(&xs[..50]).p90_supported());
    }

    #[test]
    fn input_latency_is_the_median_of_its_repeats() {
        // A slow spell hits one repeat of each input; the medians ignore it.
        let per_input = vec![
            vec![10.0, 11.0, 40.0],
            vec![20.0, 60.0, 21.0, 22.0],
            vec![],
            vec![30.0],
        ];
        assert_eq!(input_medians(&per_input), vec![11.0, 21.0, 30.0]);
        let lat = Latency::of(&input_medians(&per_input));
        assert_eq!((lat.p50, lat.p90), (21.0, 30.0));
    }

    fn step(offered: f64, p90_ms: f64, backlog: &[u64]) -> Step {
        Step {
            offered,
            delivered: offered * 0.99,
            p90_ms,
            backlog: backlog.to_vec(),
        }
    }

    #[test]
    fn sustained_rule_on_synthetic_backlogs() {
        let flat = step(10.0, 80.0, &[1, 2, 1, 2]);
        let jitter = step(15.0, 120.0, &[0, 3, 1, 3]);
        // Growth that levels off late still counts: first to last.
        let growing = step(23.0, 200.0, &[4, 9, 11, 11]);
        let slow = step(34.0, 400.0, &[1, 1, 2, 1, 1]);
        assert!(flat.sustained(3));
        assert!(jitter.sustained(3));
        assert!(!growing.sustained(3), "backlog grows");
        assert!(!slow.sustained(3), "p90 over the limit");
        assert!(!step(5.0, 10.0, &[]).sustained(3), "no samples, no claim");

        let steps = vec![flat.clone(), jitter.clone(), growing, slow];
        assert_eq!(sustained_rate(&steps, 3), Some(15.0));
        // A pass above a failure still counts: the rule takes the highest
        // passing rate, not the last before the first failure.
        let gap = vec![
            flat.clone(),
            step(12.0, 300.0, &[0, 0, 0, 0]),
            jitter.clone(),
        ];
        assert_eq!(sustained_rate(&gap, 3), Some(15.0));
        // Nothing passes: the lowest step's delivered rate, not its offer.
        let none = vec![
            step(40.0, 900.0, &[0, 9, 30, 41]),
            step(20.0, 600.0, &[0, 5, 12, 20]),
        ];
        assert_eq!(sustained_rate(&none, 3), Some(20.0 * 0.99));
        assert_eq!(sustained_rate(&[], 3), None);
    }

    #[test]
    fn completion_rate_skips_the_ramp_up() {
        // Nothing finishes for 0.5 s, then one completion every 25 ms.
        let done: Vec<f64> = (0..41).map(|i| 0.5 + f64::from(i) * 0.025).collect();
        assert!((completion_rate(&done) - 40.0).abs() < 1e-9);
        assert!(completion_rate(&[1.0]).is_nan());
        assert!(completion_rate(&[]).is_nan());
    }

    /// Runs a search against a service that passes every rate up to
    /// `sustains`; returns the offered rates and the rule's pick.
    fn search(capacity: f64, sustains: f64, floor: f64, max_steps: usize) -> (Vec<f64>, f64) {
        let mut s = RateSearch::new(capacity, floor, max_steps);
        let mut steps = vec![step(floor, 50.0, &[0, 0, 0, 0])];
        let mut offered = Vec::new();
        while let Some(rate) = s.next() {
            let passed = rate <= sustains;
            offered.push(rate);
            steps.push(if passed {
                step(rate, 100.0, &[1, 2, 1, 2])
            } else {
                step(rate, 400.0, &[1, 5, 9, 14])
            });
            s.record(rate, passed);
        }
        (offered, sustained_rate(&steps, 3).expect("the floor step"))
    }

    #[test]
    fn the_search_follows_capacity() {
        // Sustains 95% of the measured capacity: 1.1 C fails, 1.0 C
        // fails, 0.909 C passes, then one bisection.
        let (offered, picked) = search(40.0, 38.0, 16.0, 6);
        assert_eq!(offered.len(), 4, "{offered:?}");
        assert!((offered[0] - 44.0).abs() < 1e-9);
        assert!((38.0 / SEARCH_RESOLUTION..=38.0).contains(&picked));
        // The same service twice as fast gives twice the figure.
        let (_, doubled) = search(80.0, 76.0, 16.0, 6);
        assert!((doubled / picked - 2.0).abs() < 1e-9);
        // A capacity 10% lower reads lower, not the same.
        let (_, slower) = search(36.0, 34.2, 16.0, 6);
        assert!(slower < picked * 0.95);
    }

    #[test]
    fn the_search_climbs_while_steps_pass() {
        // The saturated step underestimated: everything up to 60 passes.
        let (offered, picked) = search(40.0, 60.0, 16.0, 6);
        assert!(offered[..5].windows(2).all(|w| w[1] > w[0]), "{offered:?}");
        assert!((60.0 / LADDER_RATIO..=60.0).contains(&picked));
    }

    #[test]
    fn the_search_is_bounded() {
        // Nothing above the floor passes: the ladder stops at the floor
        // and the rule falls back to the floor step.
        let (offered, picked) = search(40.0, 10.0, 16.0, 20);
        assert!(offered.iter().all(|&r| r > 16.0));
        assert_eq!(picked, 16.0);
        // The step budget caps the search.
        let (offered, _) = search(400.0, 17.0, 16.0, 3);
        assert_eq!(offered.len(), 3);
        assert!(RateSearch::new(f64::NAN, 16.0, 3).next().is_none());
    }
}
