//! `profile`: the standard-scale profiling corpus through
//! `collect_profiling` and `TrainedAttack::fit`, then a held-out accuracy
//! check on fresh captures. It loads the ISS, power and noise draws,
//! segmentation and template fitting, and never the robust screens or the
//! service, so a robust-path change must show no change here.

use std::time::{Duration, Instant};

use reveal_attack::{report_full_attack, Capture, Device};
use reveal_hints::{HintPolicy, LweParameters};

use crate::common::{self, LedgerWindow, Origin, Outcome, ProfilingCounts, Repeated, Seeds};
use crate::span::Tracer;
use crate::stats;
use crate::Args;

/// Held-out check captures per origin: one round analyzes each once.
const CHECK_PER_ORIGIN: usize = 12;

/// What one profiling round on a seed gives; every round on the same seed
/// must give it again.
#[derive(Debug, Clone, PartialEq)]
struct Round {
    windows: usize,
    predicted: Vec<Vec<i64>>,
    accuracy: f64,
    /// Baseline and hinted bikz bits plus hint counts of check trace 0,
    /// on pinned rounds.
    report: Option<(u64, u64, (usize, usize, usize))>,
}

/// Loop state shared by the untraced and traced halves.
struct State<'a> {
    device: &'a Device,
    seeds: Seeds,
    check: [Vec<&'a Capture>; 2],
    rounds: [Option<Round>; 2],
    trains: Vec<f64>,
    /// Latencies of each check capture, pinned ones first.
    latencies: Vec<Vec<f64>>,
    counts: ProfilingCounts,
    /// Rounds run so far; even rounds use the pinned seed.
    next: u64,
    /// `VmHWM` after the first round on each seed, MB.
    first_rounds_rss_mb: f64,
}

impl State<'_> {
    /// Runs rounds until `done(rounds, fewest repeats of a check capture, elapsed)`,
    /// alternating the pinned and held-out seed. Returns the rounds run and the loop's wall time.
    fn rounds(
        &mut self,
        tracer: &mut Tracer,
        out: &mut Outcome,
        done: impl Fn(usize, usize, Duration) -> bool,
    ) -> (usize, u64) {
        let start = Instant::now();
        let mut ops = 0;
        while !done(ops, self.fewest_repeats(), start.elapsed()) {
            let id = self.next;
            self.next += 1;
            let origin = if id.is_multiple_of(2) {
                Origin::Pinned
            } else {
                Origin::HeldOut
            };
            let round = tracer.span("op", id, |t| self.round(t, origin, id));
            out.attempted += 1;
            let slot = &mut self.rounds[origin as usize];
            match (round, &slot) {
                (Err(e), _) => {
                    out.failed += 1;
                    out.problems.push(format!("{origin:?} round: {e}"));
                }
                (Ok(r), None) => *slot = Some(r),
                (Ok(r), Some(first)) => {
                    if r != *first {
                        out.failed += 1;
                        out.problems
                            .push(format!("{origin:?} round {id} differs from the first"));
                    }
                }
            }
            ops += 1;
            if self.next == 2 {
                self.first_rounds_rss_mb = common::peak_rss_mb();
            }
        }
        (ops, start.elapsed().as_nanos() as u64)
    }

    fn fewest_repeats(&self) -> usize {
        self.latencies.iter().map(Vec::len).min().unwrap_or(0)
    }

    fn round(&mut self, tracer: &mut Tracer, origin: Origin, id: u64) -> Result<Round, String> {
        let (attack, counts, train_s) =
            common::train(tracer, self.device, self.seeds.profiling(origin), id);
        self.trains.push(train_s);
        self.counts = counts;
        let mut predicted = Vec::new();
        let mut accuracy = 0.0;
        let mut report = None;
        // An untimed pass first: the first analyses after a fit run cold,
        // and the timed pass below measures the steady state.
        for capture in &self.check[origin as usize] {
            let n = capture.values.len();
            tracer
                .span("attack_trace_expecting", id, |_| {
                    attack.attack_trace_expecting(&capture.run.capture.samples, n)
                })
                .map_err(|e| e.to_string())?;
        }
        for (k, capture) in self.check[origin as usize].iter().enumerate() {
            let n = capture.values.len();
            let t0 = Instant::now();
            let result = tracer
                .span("attack_trace_expecting", id, |_| {
                    attack.attack_trace_expecting(&capture.run.capture.samples, n)
                })
                .map_err(|e| e.to_string())?;
            self.latencies[origin as usize * CHECK_PER_ORIGIN + k]
                .push(t0.elapsed().as_secs_f64() * 1e3);
            accuracy += result.value_accuracy(&capture.values);
            if k == 0 && origin == Origin::Pinned {
                let r = tracer
                    .span("report_full_attack", id, |_| {
                        report_full_attack(
                            &result,
                            &LweParameters::seal_128_paper(),
                            &HintPolicy::seal_paper(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                report = Some((
                    r.baseline.bikz.to_bits(),
                    r.with_hints.bikz.to_bits(),
                    (r.hints.perfect, r.hints.approximate, r.hints.skipped),
                ));
            }
            predicted.push(result.predicted_values());
        }
        Ok(Round {
            windows: counts.windows,
            accuracy: accuracy / predicted.len().max(1) as f64,
            predicted,
            report,
        })
    }
}

/// The device and the held-out check captures.
type Setup = (Device, Vec<(Origin, Capture)>);

fn setup(tracer: &mut Tracer, seeds: &Seeds) -> (Setup, Option<f64>) {
    let device = common::device();
    let pool = common::capture_pool(tracer, &device, seeds, CHECK_PER_ORIGIN);
    ((device, pool), None)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let seeds = Seeds::new(args.seed);
    let (mut reps, first) = Repeated::first(args.trace, || setup(tracer, &seeds));
    let (device, pool) = &first;
    let of = |origin: Origin| {
        pool.iter()
            .filter(|(o, _)| *o == origin)
            .map(|(_, c)| c)
            .collect::<Vec<_>>()
    };
    let mut state = State {
        device,
        seeds,
        check: [of(Origin::Pinned), of(Origin::HeldOut)],
        rounds: [None, None],
        trains: Vec::new(),
        latencies: vec![Vec::new(); 2 * CHECK_PER_ORIGIN],
        counts: ProfilingCounts::default(),
        next: 0,
        first_rounds_rss_mb: f64::NAN,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        tracer.set_enabled(false);
        let (ops, untraced_ns) = state.rounds(tracer, out, |ops, _, t| t >= budget / 2 && ops >= 2);
        tracer.set_enabled(true);
        let from_ns = tracer.now_ns();
        state.rounds(tracer, out, |n, _, _| n >= ops);
        let to_ns = tracer.now_ns();
        out.set_ledger(
            tracer,
            LedgerWindow {
                ops,
                untraced_ns,
                from_ns,
                to_ns,
            },
        );
    } else {
        // Rounds in chunks, with the remaining set-ups between them.
        let chunks = reps.pending() as u32 + 1;
        for chunk in 1..=chunks {
            state.rounds(tracer, out, |ops, repeats, t| {
                t >= budget / chunks
                    && ops >= 2
                    && (chunk < chunks || repeats >= common::MIN_REPEATS)
            });
            reps.again(
                out,
                &first,
                || setup(tracer, &seeds),
                |a, b| common::same_pool(&a.1, &b.1),
            );
        }
        reps.report(out);
        out.set_input_latency(&state.latencies);
        // Later rounds only add allocator fragmentation, which varies from
        // run to run by a fifth; the first two rounds hold the set-up and a
        // full round on each seed.
        out.set("peak_rss_mb", state.first_rounds_rss_mb);
    }
    let train_s = stats::median(&state.trains);
    out.set("train_s", train_s);
    let (runs, _) = common::workload_shape();
    out.set("sustained_traces_per_s", runs as f64 / train_s);

    let pinned = state.rounds[Origin::Pinned as usize]
        .clone()
        .expect("a pinned round ran");
    let held = state.rounds[Origin::HeldOut as usize]
        .clone()
        .expect("a held-out round ran");
    let (baseline_bits, hinted_bits, hints) = pinned.report.expect("pinned rounds report");
    out.check(
        baseline_bits == common::PINNED_BASELINE_BIKZ.to_bits(),
        || {
            format!(
                "pinned check trace 0 baseline bikz {} != {}",
                f64::from_bits(baseline_bits),
                common::PINNED_BASELINE_BIKZ
            )
        },
    );
    out.check(hinted_bits == common::PINNED_HINTED_BIKZ.to_bits(), || {
        format!(
            "pinned check trace 0 hinted bikz {} != {}",
            f64::from_bits(hinted_bits),
            common::PINNED_HINTED_BIKZ
        )
    });
    out.set("hinted_bikz", f64::from_bits(hinted_bits));
    out.set("coeff_accuracy", pinned.accuracy);
    out.note(format!(
        "held-out accuracy: pinned seed {:.4} ({} windows), held-out seed {:.4} ({} windows)",
        pinned.accuracy, pinned.windows, held.accuracy, held.windows
    ));

    if args.trace {
        common::probe_rv32_and_segmentation(tracer, out, device, pool);
        common::set_profiling_counts(out, &state.counts);
        out.set(
            "template.fit_ms",
            common::mean_ms(tracer, "TrainedAttack::fit"),
        );
        let segment = out.values["trace.segment_ms"];
        out.set(
            "template.classify_ms",
            common::mean_ms(tracer, "attack_trace_expecting") - segment,
        );
        out.set(
            "hints.report_ms",
            common::mean_ms(tracer, "report_full_attack"),
        );
        out.set("hints.perfect", hints.0 as f64);
        out.set("hints.approximate", hints.1 as f64);
        out.set("hints.skipped", hints.2 as f64);
    }
}
