//! `attack`: the paper's path as an analyst runs it. A closed loop takes
//! pre-captured clean traces one at a time through
//! `attack_trace_expecting` and `report_full_attack`. It loads
//! segmentation, template classification and DBDD, and never the robust
//! screens or the service: it is the plain side of the robust-versus-plain
//! comparison.

use std::time::{Duration, Instant};

use reveal_attack::{report_full_attack, Capture, TrainedAttack};
use reveal_hints::{HintPolicy, LweParameters};

use crate::common::{self, LedgerWindow, Origin, Outcome, Repeated, Seeds, MASTER_SEED};
use crate::span::Tracer;
use crate::Args;

/// Captures per origin in the pool.
const POOL_PER_ORIGIN: usize = 8;

/// What the first analysis of a pool trace gave; every later analysis of
/// the same trace must give it again.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    predicted: Vec<i64>,
    baseline_bits: u64,
    hinted_bits: u64,
    hints: (usize, usize, usize),
    accuracy: f64,
}

/// One trace through the paper's path.
fn analyze(
    tracer: &mut Tracer,
    attack: &TrainedAttack,
    capture: &Capture,
    trace_id: u64,
) -> Result<Seen, String> {
    let n = capture.values.len();
    tracer.span("op", trace_id, |t| {
        let result = t
            .span("attack_trace_expecting", trace_id, |_| {
                attack.attack_trace_expecting(&capture.run.capture.samples, n)
            })
            .map_err(|e| e.to_string())?;
        let report = t
            .span("report_full_attack", trace_id, |_| {
                report_full_attack(
                    &result,
                    &LweParameters::seal_128_paper(),
                    &HintPolicy::seal_paper(),
                )
            })
            .map_err(|e| e.to_string())?;
        Ok(Seen {
            predicted: result.predicted_values(),
            baseline_bits: report.baseline.bikz.to_bits(),
            hinted_bits: report.with_hints.bikz.to_bits(),
            hints: (
                report.hints.perfect,
                report.hints.approximate,
                report.hints.skipped,
            ),
            accuracy: result.value_accuracy(&capture.values),
        })
    })
}

/// The closed loop: analyzes pool traces in turn until `done(ops, elapsed)`,
/// checking each against its first analysis and adding its latency to the
/// trace's own list. Returns the operations run and the loop's wall time.
fn closed_loop(
    tracer: &mut Tracer,
    attack: &TrainedAttack,
    pool: &[(Origin, Capture)],
    seen: &mut [Option<Seen>],
    out: &mut Outcome,
    latencies: &mut [Vec<f64>],
    done: impl Fn(usize, Duration) -> bool,
) -> (usize, u64) {
    let start = Instant::now();
    let mut ops = 0;
    while !done(ops, start.elapsed()) {
        let index = ops % pool.len();
        let t0 = Instant::now();
        let result = analyze(tracer, attack, &pool[index].1, ops as u64);
        latencies[index].push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match (result, &seen[index]) {
            (Err(e), _) => {
                out.failed += 1;
                out.problems.push(format!("pool trace {index}: {e}"));
            }
            (Ok(s), None) => seen[index] = Some(s),
            (Ok(s), Some(first)) => {
                if s != *first {
                    out.failed += 1;
                    out.problems.push(format!(
                        "pool trace {index}: re-analysis differs from the first"
                    ));
                }
            }
        }
        ops += 1;
    }
    (ops, start.elapsed().as_nanos() as u64)
}

/// The state one set-up builds.
struct Setup {
    device: reveal_attack::Device,
    attack: TrainedAttack,
    counts: common::ProfilingCounts,
    pool: Vec<(Origin, Capture)>,
}

fn setup(tracer: &mut Tracer, seeds: &Seeds, rep: u64) -> (Setup, Option<f64>) {
    let device = common::device();
    let (attack, counts, train_s) = common::train(tracer, &device, MASTER_SEED, rep);
    let pool = common::capture_pool(tracer, &device, seeds, POOL_PER_ORIGIN);
    let state = Setup {
        device,
        attack,
        counts,
        pool,
    };
    (state, Some(train_s))
}

fn same(a: &Setup, b: &Setup) -> bool {
    common::same_pool(&a.pool, &b.pool) && a.counts.windows == b.counts.windows
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let seeds = Seeds::new(args.seed);
    let (mut reps, state) = Repeated::first(args.trace, || setup(tracer, &seeds, 0));
    let Setup {
        device,
        attack,
        counts,
        pool,
    } = &state;

    let mut seen = vec![None; pool.len()];
    let mut latencies = vec![Vec::new(); pool.len()];
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        // Untraced half, then the same operations traced: the difference
        // is the tracing overhead, and the traced half is the ledger.
        tracer.set_enabled(false);
        let (ops, untraced_ns) = closed_loop(
            tracer,
            attack,
            pool,
            &mut seen,
            out,
            &mut latencies,
            |ops, t| t >= budget / 2 && ops >= pool.len(),
        );
        tracer.set_enabled(true);
        let from_ns = tracer.now_ns();
        closed_loop(
            tracer,
            attack,
            pool,
            &mut seen,
            out,
            &mut latencies,
            |n, _| n >= ops,
        );
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
        // The loop in chunks, with the remaining set-ups between them.
        let chunks = reps.pending() as u32 + 1;
        let min_ops = common::MIN_REPEATS * pool.len();
        let (mut ops, mut wall_ns) = (0, 0);
        for chunk in 1..=chunks {
            let before = ops;
            let (n, ns) = closed_loop(
                tracer,
                attack,
                pool,
                &mut seen,
                out,
                &mut latencies,
                |n, t| t >= budget / chunks && (chunk < chunks || before + n >= min_ops),
            );
            ops += n;
            wall_ns += ns;
            reps.again(
                out,
                &state,
                || setup(tracer, &seeds, u64::from(chunk)),
                same,
            );
        }
        reps.report(out);
        out.set_input_latency(&latencies);
        out.set(
            "sustained_traces_per_s",
            ops as f64 / (wall_ns as f64 / 1e9),
        );
    }

    // Pins on the pinned stream, consistency on both.
    let pinned0 = seen[0].clone().expect("pool trace 0 analyzed");
    out.check(
        pinned0.baseline_bits == common::PINNED_BASELINE_BIKZ.to_bits(),
        || {
            format!(
                "pinned trace 0 baseline bikz {} != {}",
                f64::from_bits(pinned0.baseline_bits),
                common::PINNED_BASELINE_BIKZ
            )
        },
    );
    out.check(
        pinned0.hinted_bits == common::PINNED_HINTED_BIKZ.to_bits(),
        || {
            format!(
                "pinned trace 0 hinted bikz {} != {}",
                f64::from_bits(pinned0.hinted_bits),
                common::PINNED_HINTED_BIKZ
            )
        },
    );
    let all_seen = seen.iter().all(Option::is_some);
    out.check(all_seen, || "not every pool trace was analyzed".into());
    let accuracy = |origin: Origin| {
        let acc: Vec<f64> = pool
            .iter()
            .zip(&seen)
            .filter(|((o, _), _)| *o == origin)
            .filter_map(|(_, s)| s.as_ref().map(|s| s.accuracy))
            .collect();
        acc.iter().sum::<f64>() / acc.len().max(1) as f64
    };
    out.set("hinted_bikz", f64::from_bits(pinned0.hinted_bits));
    out.set("coeff_accuracy", accuracy(Origin::Pinned));
    out.note(format!(
        "pinned trace 0: baseline {:.2} hinted {:.2} bikz; value accuracy pinned {:.4}, held-out {:.4}",
        f64::from_bits(pinned0.baseline_bits),
        f64::from_bits(pinned0.hinted_bits),
        accuracy(Origin::Pinned),
        accuracy(Origin::HeldOut)
    ));

    if args.trace {
        common::probe_rv32_and_segmentation(tracer, out, device, pool);
        common::set_profiling_counts(out, counts);
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
        out.set("hints.perfect", pinned0.hints.0 as f64);
        out.set("hints.approximate", pinned0.hints.1 as f64);
        out.set("hints.skipped", pinned0.hints.2 as f64);
    }
}
