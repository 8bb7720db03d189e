//! `serve`: an open loop into `reveal-serve` as deployed, with screens on,
//! a calibration, three victims dealt round-robin and periodic
//! checkpoints. One generator thread submits each trace's frames on a
//! fixed schedule. Three steps at a reference rate the service sustains,
//! spread through the run, give latency and failures and have their
//! snapshots checked. A saturated step measures the service's capacity,
//! and open-loop steps on a fine ladder anchored at that capacity search
//! for the highest rate that passes the sustained-rate rule. The robust
//! path dominates; reassembly, queues, the fold and checkpoint writes also
//! get work.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use reveal_attack::{
    calibrate, report_robust, Calibration, Capture, RobustAttack, RobustAttackResult, TrainedAttack,
};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_serve::reassembly::Inserted;
use reveal_serve::{
    frame_stream, KeyId, Reassembly, ServeConfig, ServeMetrics, ShardedAccumulator, Snapshot,
    Supervisor, VictimUpdate,
};

use crate::common::{self, LedgerWindow, Origin, Outcome, Repeated, Seeds, MASTER_SEED};
use crate::openloop::{self, Schedule, WallClock};
use crate::span::Tracer;
use crate::stats::{self, Latency, RateSearch, Step};
use crate::Args;

/// Captures per origin in the pool the generator draws from.
const POOL_PER_ORIGIN: usize = 6;
/// Victim keys the traces are dealt across.
const VICTIMS: u64 = 3;
/// Wire frame size; a paper-scale trace becomes about 30 frames.
const FRAME_LEN: usize = 8192;
/// Checkpoint after this many scored traces.
const CHECKPOINT_EVERY: u64 = 4;
/// Offered rate, traces/s, at which latency, failures and the snapshot
/// are measured. Today's code sustains it with room to spare on two cores
/// (its capacity there is 30 to 50 traces/s as host load varies).
const REFERENCE_RATE: f64 = 16.0;
/// Share of `--seconds` the reference steps last together (they run longer
/// when needed for enough latency samples).
const REFERENCE_SHARE: f64 = 0.5;
/// Reference steps, spread through the run so that a slow spell of the
/// host weighs on the latency figures less.
const REFERENCE_STEPS: usize = 3;
/// Length of the saturated step that measures capacity.
const SATURATION_SECONDS: f64 = 2.0;
/// Offered rate of the saturated step: far above any capacity, so the cap
/// on traces in flight, not the schedule, paces it.
const SATURATION_OFFER: f64 = 1000.0;
/// Most open-loop steps the search for the sustained rate may take.
const MAX_SEARCH_STEPS: usize = 6;
/// Length of each search step.
const STEP_SECONDS: f64 = 3.0;
/// How long past a search step's end traces may still drain; a trace not
/// drained by then has missed the p90 limit anyway.
const STEP_GRACE: Duration = Duration::from_millis(400);
/// How long past the reference step's end every trace must have drained.
const SETTLE: Duration = Duration::from_secs(60);
/// Pinned screened bikz of the pinned trace 0 as the service folds it.
const PINNED_SERVED_BIKZ: f64 = 243.162_489_156_380_62;

/// `(key, trace_seq)` of the i-th trace of a step.
fn layout(i: usize) -> (KeyId, u64) {
    (1 + (i as u64 % VICTIMS), i as u64 / VICTIMS)
}

/// Inverse of [`layout`].
fn index_of(key: KeyId, seq: u64) -> usize {
    (seq * VICTIMS + (key - 1)) as usize
}

/// The service as deployed.
fn deployed(
    degree: usize,
    calibration: Calibration,
    workers: usize,
    checkpoint: &Path,
) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        LweParameters::seal_128_paper(),
        degree,
        HintPolicy::seal_paper(),
    );
    cfg.calibration = Some(calibration);
    cfg.workers = workers;
    cfg.checkpoint_every = CHECKPOINT_EVERY;
    cfg.checkpoint_path = Some(checkpoint.to_path_buf());
    cfg
}

/// One open-loop step as measured.
struct StepRun {
    schedule: Schedule,
    /// Drain time of each trace since the step's start.
    done: Vec<Option<Duration>>,
    failed_updates: usize,
    lateness_ms: Vec<f64>,
    backlog: Vec<u64>,
    /// The update of victim 1's trace 0.
    first: Option<VictimUpdate>,
    /// Snapshot and final counters, when the step was settled.
    settled: Option<(String, ServeMetrics)>,
    /// The process's peak resident set when the step ended, MB.
    peak_rss_mb: f64,
}

impl StepRun {
    fn latencies(&self) -> Vec<f64> {
        openloop::due_latencies_ms(&self.schedule, &self.done)
    }

    fn drained(&self) -> usize {
        self.done.iter().flatten().count()
    }

    /// Completion rate once the first trace has finished, traces/s.
    fn completion_rate(&self) -> f64 {
        let done: Vec<f64> = self
            .done
            .iter()
            .flatten()
            .map(Duration::as_secs_f64)
            .collect();
        stats::completion_rate(&done)
    }

    fn as_step(&self) -> Step {
        let last = self
            .done
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or_default();
        Step {
            offered: self.schedule.rate,
            delivered: self.drained() as f64 / last.as_secs_f64().max(1e-9),
            p90_ms: Latency::of(&self.latencies()).p90,
            backlog: self.backlog.clone(),
        }
    }
}

/// How a step ends.
#[derive(Clone, Copy)]
enum End {
    /// Wait for every trace, then shut down gracefully.
    Settle,
    /// Kill the service once the grace period after the step has passed,
    /// or as soon as the backlog exceeds this many traces: the step has
    /// failed by then, and stopping it keeps an overload's memory bounded.
    Abandon(u64),
}

/// Runs one step on a fresh service. With `in_flight`, the generator also
/// waits before each trace until fewer than that many traces are
/// submitted but not drained: the step then saturates the service without
/// letting its backlog grow.
fn run_step(
    attack: &TrainedAttack,
    cfg: ServeConfig,
    pool: &[(Origin, Capture)],
    schedule: Schedule,
    end: End,
    in_flight: Option<usize>,
) -> StepRun {
    let sup = Supervisor::start(attack.clone(), cfg);
    let handle = sup.handle();
    let submitted = AtomicUsize::new(0);
    let drained_count = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let length = schedule.length();
    let (deadline, abandon_at) = match end {
        End::Settle => (length + SETTLE, usize::MAX),
        End::Abandon(backlog) => (length + STEP_GRACE, backlog as usize),
    };
    let mut run = StepRun {
        schedule,
        done: vec![None; schedule.count],
        failed_updates: 0,
        lateness_ms: Vec::new(),
        backlog: Vec::new(),
        first: None,
        settled: None,
        peak_rss_mb: 0.0,
    };
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            openloop::generate(&schedule, &WallClock(start), |i| {
                if let Some(cap) = in_flight {
                    while submitted.load(Ordering::SeqCst)
                        >= drained_count.load(Ordering::SeqCst) + cap
                    {
                        if stop.load(Ordering::SeqCst) {
                            return false;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let (key, seq) = layout(i);
                let samples = &pool[i % pool.len()].1.run.capture.samples;
                for frame in frame_stream(key, seq, samples, FRAME_LEN) {
                    if handle.submit(frame).is_err() {
                        break;
                    }
                }
                submitted.fetch_add(1, Ordering::SeqCst);
                !stop.load(Ordering::SeqCst)
            })
        });
        let mut drained = 0;
        loop {
            let updates = sup.drain_updates();
            let now = start.elapsed();
            for u in updates {
                let i = index_of(u.key, u.trace_seq);
                if i < run.done.len() && run.done[i].is_none() {
                    run.done[i] = Some(now);
                    drained += 1;
                    if u.failed.is_some() {
                        run.failed_updates += 1;
                    }
                }
                if u.key == 1 && u.trace_seq == 0 {
                    run.first = Some(u);
                }
            }
            drained_count.store(drained, Ordering::SeqCst);
            // Backlog at each quarter of the step, the last at its end or
            // when the step is abandoned.
            let backlog = submitted.load(Ordering::SeqCst).saturating_sub(drained);
            while run.backlog.len() < 4 && now >= length * (run.backlog.len() as u32 + 1) / 4 {
                run.backlog.push(backlog as u64);
            }
            if backlog > abandon_at {
                run.backlog.push(backlog as u64);
                break;
            }
            if (drained == schedule.count && run.backlog.len() == 4) || now >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        if let End::Settle = end {
            let snapshot = sup.snapshot().encode();
            let summary = sup.shutdown();
            run.settled = Some((snapshot, summary.metrics));
        } else {
            sup.kill();
        }
        run.lateness_ms = generator.join().expect("generator thread");
        run.peak_rss_mb = common::peak_rss_mb();
    });
    run
}

/// The service's per-trace path run in-process, one trace at a time:
/// reassembly, robust analysis, fold and periodic checkpoint. Its results
/// are the reference the served snapshot must equal, and its traced run
/// is the serve ledger.
fn replay(
    tracer: &mut Tracer,
    robust: &RobustAttack<'_>,
    cfg: &ServeConfig,
    pool: &[(Origin, Capture)],
    checkpoint: &Path,
) -> Result<Vec<RobustAttackResult>, String> {
    let mut reassembly = Reassembly::new(cfg.reassembly);
    let mut acc = ShardedAccumulator::new(
        cfg.params,
        cfg.coefficients,
        cfg.shards,
        cfg.quarantine_threshold,
    );
    let mut results = Vec::with_capacity(pool.len());
    for (i, (_, capture)) in pool.iter().enumerate() {
        let (key, seq) = layout(i);
        let id = i as u64;
        let result = tracer.span("op", id, |t| {
            let mut complete = None;
            for frame in frame_stream(key, seq, &capture.run.capture.samples, FRAME_LEN) {
                let inserted = t
                    .span("Reassembly::insert", id, |_| {
                        reassembly.insert(frame, Instant::now())
                    })
                    .map_err(|e| format!("{e:?}"))?;
                if let Inserted::Complete(trace) = inserted {
                    complete = Some(trace);
                }
            }
            let trace = complete.ok_or("stream did not complete")?;
            if trace.samples != capture.run.capture.samples {
                return Err("reassembled trace differs from the capture".to_string());
            }
            let result = t
                .span("RobustAttack::attack_trace", id, |_| {
                    robust.attack_trace(&trace.samples, cfg.coefficients, &cfg.policy)
                })
                .map_err(|e| e.to_string())?;
            t.span("ShardedAccumulator::apply_success", id, |_| {
                acc.apply_success(key, seq, &result)
            })
            .map_err(|e| e.to_string())?;
            if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
                t.span("Snapshot::write_atomic", id, |_| {
                    Snapshot::capture(&acc, cfg.quarantine_threshold).write_atomic(checkpoint)
                })
                .map_err(|e| format!("{e:?}"))?;
            }
            Ok(result)
        })?;
        results.push(result);
    }
    Ok(results)
}

/// Counts a settled reference step's traces and checks them: every trace
/// delivered, none failed, the snapshot equal to the direct fold and the
/// served bikz of trace 0 equal to the fold's and to the pin.
fn check_reference(
    out: &mut Outcome,
    run: &StepRun,
    expected: &str,
    expected_first: &VictimUpdate,
) {
    let lost = run.done.iter().filter(|d| d.is_none()).count();
    out.attempted += run.schedule.count as u64;
    out.failed += (lost + run.failed_updates) as u64;
    if lost + run.failed_updates > 0 {
        out.problems.push(format!(
            "reference step: {lost} traces undelivered, {} failed",
            run.failed_updates
        ));
    }
    let snapshot = run.settled.as_ref().map(|(snapshot, _)| snapshot.as_str());
    out.check(snapshot == Some(expected), || {
        "served snapshot differs from the direct robust + ShardedAccumulator fold".into()
    });
    let served = run.first.as_ref().map(|u| u.bikz);
    out.check(
        served.map(f64::to_bits) == Some(expected_first.bikz.to_bits()),
        || {
            format!(
                "served bikz of trace 0 {served:?} != direct fold {}",
                expected_first.bikz
            )
        },
    );
    out.check(
        served.map(f64::to_bits) == Some(PINNED_SERVED_BIKZ.to_bits()),
        || format!("served bikz of pinned trace 0 is not {PINNED_SERVED_BIKZ}"),
    );
}

/// The direct fold of the first `count` traces of a step.
fn folded_reference(
    cfg: &ServeConfig,
    results: &[RobustAttackResult],
    count: usize,
) -> (String, Option<VictimUpdate>) {
    let mut acc = ShardedAccumulator::new(
        cfg.params,
        cfg.coefficients,
        cfg.shards,
        cfg.quarantine_threshold,
    );
    let mut first = None;
    for i in 0..count {
        let (key, seq) = layout(i);
        let update = acc
            .apply_success(key, seq, &results[i % results.len()])
            .expect("reference fold");
        if i == 0 {
            first = Some(update);
        }
    }
    (
        Snapshot::capture(&acc, cfg.quarantine_threshold).encode(),
        first,
    )
}

/// The state one set-up builds.
struct Setup {
    device: reveal_attack::Device,
    attack: TrainedAttack,
    counts: common::ProfilingCounts,
    pool: Vec<(Origin, Capture)>,
    calibration: Calibration,
}

fn setup(tracer: &mut Tracer, seeds: &Seeds, rep: u64) -> (Setup, Option<f64>) {
    let device = common::device();
    let (attack, counts, train_s) = common::train(tracer, &device, MASTER_SEED, rep);
    let pool = common::capture_pool(tracer, &device, seeds, POOL_PER_ORIGIN);
    let mut cal_rng = rand::rngs::StdRng::seed_from_u64(MASTER_SEED ^ 2);
    let clean = tracer.span("capture_fresh", rep, |_| {
        device
            .capture_fresh(&mut cal_rng)
            .expect("calibration capture")
    });
    let calibration = tracer.span("calibrate", rep, |_| {
        calibrate(&clean.run.capture.samples, attack.config()).expect("calibration")
    });
    let state = Setup {
        device,
        attack,
        counts,
        pool,
        calibration,
    };
    (state, Some(train_s))
}

fn same(a: &Setup, b: &Setup) -> bool {
    common::same_pool(&a.pool, &b.pool)
        && a.counts.windows == b.counts.windows
        && a.calibration == b.calibration
}

/// Runs the workload.
#[allow(clippy::too_many_lines)]
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome, out_dir: &Path) {
    let seeds = Seeds::new(args.seed);
    let (_, degree) = common::workload_shape();
    let workers = common::serve_workers();
    let checkpoint: PathBuf = out_dir.join(format!("serve-{}.ckpt", std::process::id()));

    let (mut reps, state) = Repeated::first(args.trace, || setup(tracer, &seeds, 0));
    let Setup {
        device,
        attack,
        counts,
        pool,
        calibration,
    } = &state;
    let (attack, pool, calibration) = (attack, pool.as_slice(), *calibration);
    let cfg = deployed(degree, calibration, workers, &checkpoint);
    out.note(format!(
        "service: {workers} workers x {} analysis threads, checkpoint every \
         {CHECKPOINT_EVERY} traces, {VICTIMS} victims, pool of {}",
        reveal_par::max_threads(),
        pool.len()
    ));

    // The reference: the service's path in-process over the pool.
    let robust = RobustAttack::new(attack)
        .with_config(cfg.robust.clone())
        .with_calibration(calibration);
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let t0 = Instant::now();
    let results =
        replay(tracer, &robust, &cfg, pool, &checkpoint).expect("in-process replay of the pool");
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    tracer.set_enabled(traced);

    // Reference steps: latency, failures and the snapshot. Each is a fresh
    // service whose snapshot must equal the direct fold of its traces.
    let count = common::MIN_LATENCY_SAMPLES
        .max((REFERENCE_RATE * REFERENCE_SHARE * args.seconds).ceil() as usize);
    let per_step = count.div_ceil(REFERENCE_STEPS);
    let (expected, expected_first) = folded_reference(&cfg, &results, per_step);
    let expected_first = expected_first.expect("reference fold of trace 0");
    let reference_step = |out: &mut Outcome| {
        let run = run_step(
            attack,
            cfg.clone(),
            pool,
            Schedule {
                rate: REFERENCE_RATE,
                count: per_step,
            },
            End::Settle,
            None,
        );
        let _ = std::fs::remove_file(&checkpoint);
        check_reference(out, &run, &expected, &expected_first);
        run
    };
    // Remaining set-ups go between steps, never during one.
    let again = |reps: &mut Repeated, out: &mut Outcome, tracer: &mut Tracer| {
        let rep = reps.setup_s.len() as u64;
        reps.again(out, &state, || setup(tracer, &seeds, rep), same);
    };
    let mut runs = vec![reference_step(out)];
    // The peak of the set-up and the deployed service at the reference
    // rate; later steps drive the backlog past capacity on purpose.
    let peak_rss_mb = runs[0].peak_rss_mb;
    again(&mut reps, out, tracer);
    let (_, metrics) = runs[0].settled.clone().expect("the reference step settles");
    let served_first = runs[0]
        .first
        .clone()
        .unwrap_or_else(|| expected_first.clone());
    out.set("hinted_bikz", served_first.bikz);
    let accuracy = {
        let pinned: Vec<f64> = pool
            .iter()
            .zip(&results)
            .filter(|((o, _), _)| *o == Origin::Pinned)
            .map(|((_, c), r)| {
                let hits = r
                    .coefficients
                    .iter()
                    .zip(&c.values)
                    .filter(|(rc, v)| rc.estimate.as_ref().is_some_and(|e| e.predicted == **v))
                    .count();
                hits as f64 / c.values.len() as f64
            })
            .collect();
        pinned.iter().sum::<f64>() / pinned.len() as f64
    };
    out.set("coeff_accuracy", accuracy);

    // Capacity: a saturated step that holds `slack` traces in flight.
    let slack = 2 * workers as u64 + 2;
    let saturated = run_step(
        attack,
        cfg.clone(),
        pool,
        Schedule {
            rate: SATURATION_OFFER,
            count: (SATURATION_OFFER * SATURATION_SECONDS).ceil() as usize,
        },
        End::Abandon(u64::MAX),
        Some(slack as usize),
    );
    let _ = std::fs::remove_file(&checkpoint);
    again(&mut reps, out, tracer);
    runs.push(reference_step(out));
    again(&mut reps, out, tracer);
    let capacity = saturated.completion_rate();
    out.note(format!(
        "saturated: {} traces drained, capacity {capacity:.2}/s, peak rss {:.1} MB",
        saturated.drained(),
        saturated.peak_rss_mb
    ));

    // The search: open-loop steps on a ladder anchored at the capacity.
    let mut search = RateSearch::new(capacity, REFERENCE_RATE, MAX_SEARCH_STEPS);
    while let Some(rate) = search.next() {
        let count = (rate * STEP_SECONDS).ceil() as usize;
        let schedule = Schedule { rate, count };
        let step = run_step(
            attack,
            cfg.clone(),
            pool,
            schedule,
            End::Abandon(3 * slack),
            None,
        );
        let _ = std::fs::remove_file(&checkpoint);
        again(&mut reps, out, tracer);
        search.record(rate, step.as_step().sustained(slack));
        runs.push(step);
    }
    runs.push(reference_step(out));
    while reps.pending() > 0 {
        again(&mut reps, out, tracer);
    }
    reps.report(out);
    let latencies: Vec<f64> = runs
        .iter()
        .filter(|r| r.settled.is_some())
        .flat_map(StepRun::latencies)
        .collect();
    out.set_latency(&latencies);
    out.set("peak_rss_mb", peak_rss_mb);
    let steps: Vec<Step> = runs.iter().map(StepRun::as_step).collect();
    for (run, step) in runs.iter().zip(&steps) {
        let lat = Latency::of(&run.latencies());
        let lag = run.lateness_ms.iter().copied().fold(0.0, f64::max);
        out.note(format!(
            "step {:>6.2}/s: {} traces, delivered {:.2}/s, p50 {:.1} ms, p90 {:.1} ms, backlog {:?}, generator lag max {lag:.1} ms, peak rss {:.1} MB, sustained {}",
            step.offered,
            run.schedule.count,
            step.delivered,
            lat.p50,
            lat.p90,
            step.backlog,
            run.peak_rss_mb,
            step.sustained(slack)
        ));
    }
    out.set(
        "sustained_traces_per_s",
        stats::sustained_rate(&steps, slack).expect("at least the reference step"),
    );

    if args.trace {
        let from_ns = tracer.now_ns();
        let traced_results =
            replay(tracer, &robust, &cfg, pool, &checkpoint).expect("traced replay");
        let to_ns = tracer.now_ns();
        let _ = std::fs::remove_file(&checkpoint);
        out.check(traced_results == results, || {
            "traced replay differs from the untraced one".into()
        });
        out.set_ledger(
            tracer,
            LedgerWindow {
                ops: pool.len(),
                untraced_ns,
                from_ns,
                to_ns,
            },
        );
        common::probe_rv32_and_segmentation(tracer, out, device, pool);
        common::set_profiling_counts(out, counts);
        for (i, (_, capture)) in pool.iter().enumerate() {
            let samples = &capture.run.capture.samples;
            tracer.span("robust_noise_sigma", i as u64, |_| {
                std::hint::black_box(reveal_trace::sanity::robust_noise_sigma(samples))
            });
            tracer.span("attack_trace_expecting", i as u64, |_| {
                attack
                    .attack_trace_expecting(samples, degree)
                    .expect("plain analysis")
            });
            tracer.span("report_robust", i as u64, |_| {
                report_robust(&results[i], &cfg.params).expect("robust report")
            });
        }
        let plain = common::mean_ms(tracer, "attack_trace_expecting");
        let robust_ms = common::mean_ms(tracer, "RobustAttack::attack_trace");
        out.set(
            "trace.noise_sigma_ms",
            common::mean_ms(tracer, "robust_noise_sigma"),
        );
        out.set(
            "template.fit_ms",
            common::mean_ms(tracer, "TrainedAttack::fit"),
        );
        out.set(
            "template.classify_ms",
            plain - out.values["trace.segment_ms"],
        );
        out.set("attack.robust_ms", robust_ms);
        out.set("attack.robust_over_plain", robust_ms / plain);
        out.set("attack.calibrate_ms", common::mean_ms(tracer, "calibrate"));
        out.set(
            "attack.suspect_windows",
            results
                .iter()
                .map(|r| r.diagnostics.suspect_windows as f64)
                .sum::<f64>()
                / results.len() as f64,
        );
        out.set(
            "attack.relaxation_rung_max",
            results
                .iter()
                .map(|r| r.diagnostics.relaxation_rung)
                .max()
                .unwrap_or(0) as f64,
        );
        out.set("hints.report_ms", common::mean_ms(tracer, "report_robust"));
        out.set("hints.perfect", served_first.perfect as f64);
        out.set("hints.approximate", served_first.approximate as f64);
        out.set("hints.skipped", served_first.skipped as f64);
        let inserts = crate::span::totals(tracer.spans(), from_ns, to_ns);
        let per_trace = |name: &str| {
            inserts
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e6 / pool.len() as f64)
        };
        out.set("serve.reassembly_ms", per_trace("Reassembly::insert"));
        out.set(
            "serve.fold_ms",
            common::mean_ms(tracer, "ShardedAccumulator::apply_success"),
        );
        out.set(
            "serve.checkpoint_ms",
            common::mean_ms(tracer, "Snapshot::write_atomic"),
        );
        out.set(
            "serve.checkpoints_written",
            metrics.checkpoints_written as f64,
        );
        out.set(
            "serve.queue_hw.ingest",
            metrics.ingest_queue.high_water as f64,
        );
        out.set("serve.queue_hw.work", metrics.work_queue.high_water as f64);
        out.set(
            "serve.queue_hw.result",
            metrics.result_queue.high_water as f64,
        );
        out.set("serve.retries", metrics.retries as f64);
        out.set(
            "serve.backlog_traces",
            stats::sustained_step(&steps, slack)
                .and_then(|s| s.backlog.last())
                .copied()
                .unwrap_or(0) as f64,
        );
        out.set(
            "serve.generator_lag_ms",
            runs.iter()
                .filter(|r| r.settled.is_some())
                .flat_map(|r| r.lateness_ms.iter().copied())
                .fold(0.0, f64::max),
        );
    }
}
