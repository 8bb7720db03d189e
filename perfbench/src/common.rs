//! What every workload shares: seeds, the attacker's set-up, the metric
//! catalogue, provenance and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    collect_profiling, extract_ladder_windows, AttackConfig, Capture, Device, TrainedAttack,
};
use reveal_bench::{paper_device, Scale};

use crate::span::{self, Tracer};
use crate::stats::{self, Latency};

/// The master seed of `bench_pipeline` and `bench_serve`: profiling with it
/// and attacking the first capture of the `MASTER_SEED ^ 1` stream gives
/// the pinned bikz.
pub const MASTER_SEED: u64 = 0x5EA1_BE9C;
/// Pinned baseline bikz of trace 0 on the pinned stream.
pub const PINNED_BASELINE_BIKZ: f64 = 386.061_200_554_543_6;
/// Pinned hinted bikz of trace 0 on the pinned stream.
pub const PINNED_HINTED_BIKZ: f64 = 242.019_939_408_816_75;
/// Domain separator for the held-out seed, so it collides with no pinned
/// stream.
const HELD_OUT_DOMAIN: u64 = 0x4845_4C44_4F55_5421;
/// Set-ups per untraced run; `setup_s` is their median. They are spread
/// through the run, so the median samples the same machine state as the
/// measured loop rather than one moment of it.
pub const SETUP_REPS: usize = 5;
/// Latency samples a run collects at least, so the p90 has ten beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 110;
/// Analyses of each input a closed loop runs at least, so the median of
/// its repeats is steady.
pub const MIN_REPEATS: usize = 5;
/// Noise σ of the paper device.
pub const NOISE_SIGMA: f64 = 0.05;

/// `(profiling_runs, ring_degree)` of the standard-scale workload.
pub fn workload_shape() -> (usize, usize) {
    let (profile_runs, _, degree) = Scale::Standard.attack_workload();
    (profile_runs, degree)
}

/// The seed used nowhere else, derived from the run's `--seed`.
pub fn held_out_seed(seed: u64) -> u64 {
    let s = reveal_par::derive_seed(HELD_OUT_DOMAIN, seed);
    if s == MASTER_SEED {
        s ^ HELD_OUT_DOMAIN
    } else {
        s
    }
}

/// Which of the two seeds an input came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The pinned stream: pins and consistency checks apply.
    Pinned,
    /// The held-out stream: consistency checks apply.
    HeldOut,
}

/// The run's two seeds.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// `--seed` as given.
    pub given: u64,
    /// Derived held-out seed.
    pub held_out: u64,
}

impl Seeds {
    /// Seeds for `--seed`.
    pub fn new(given: u64) -> Self {
        Self {
            given,
            held_out: held_out_seed(given),
        }
    }

    /// The profiling seed of an origin.
    pub fn profiling(&self, origin: Origin) -> u64 {
        match origin {
            Origin::Pinned => MASTER_SEED,
            Origin::HeldOut => self.held_out,
        }
    }

    /// The victim-capture stream of an origin.
    pub fn captures(&self, origin: Origin) -> StdRng {
        StdRng::seed_from_u64(self.profiling(origin) ^ 1)
    }
}

/// What one profiling pass leaves besides the attacker.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfilingCounts {
    /// Windows that survived segmentation.
    pub windows: usize,
    /// Burst-memo hits.
    pub memo_hits: u64,
    /// Burst-memo misses.
    pub memo_misses: u64,
    /// Superinstruction-block dispatches.
    pub block_dispatch_hits: u64,
}

/// Profiles `device` from `seed` and fits the templates, each inside its
/// own span. Returns the attacker, the profiling counters and the wall
/// time from device to fitted attacker, in seconds.
pub fn train(
    tracer: &mut Tracer,
    device: &Device,
    seed: u64,
    trace_id: u64,
) -> (TrainedAttack, ProfilingCounts, f64) {
    let (runs, _) = workload_shape();
    let config = AttackConfig::default();
    let start = Instant::now();
    let data = tracer.span("collect_profiling", trace_id, |_| {
        collect_profiling(device, runs, &config, seed).expect("profiling collection")
    });
    let counts = ProfilingCounts {
        windows: data.total_windows,
        memo_hits: data.scratch_hits,
        memo_misses: data.scratch_misses,
        block_dispatch_hits: data.block_stats.dispatch_hits,
    };
    let attack = tracer.span("TrainedAttack::fit", trace_id, |_| {
        TrainedAttack::fit(
            config,
            data.sign_set,
            data.pos_set,
            data.neg_set,
            data.total_windows,
        )
        .expect("template fit")
    });
    (attack, counts, start.elapsed().as_secs_f64())
}

/// The paper device at the standard workload's degree.
pub fn device() -> Device {
    let device = paper_device(workload_shape().1, NOISE_SIGMA);
    assert_eq!(
        device.power_config().noise_sampler,
        reveal_rv32::NoiseSampler::MarsagliaPolar,
        "the benchmark runs on the pinned Marsaglia-polar stream"
    );
    device
}

/// A pool of `per_origin` captures from each stream, interleaved so that
/// even indices are pinned (index 0 is the pinned trace 0) and odd ones
/// held out.
pub fn capture_pool(
    tracer: &mut Tracer,
    device: &Device,
    seeds: &Seeds,
    per_origin: usize,
) -> Vec<(Origin, Capture)> {
    let mut pinned = seeds.captures(Origin::Pinned);
    let mut held = seeds.captures(Origin::HeldOut);
    let mut pool = Vec::with_capacity(2 * per_origin);
    for i in 0..per_origin {
        for (origin, rng) in [(Origin::Pinned, &mut pinned), (Origin::HeldOut, &mut held)] {
            let capture = tracer.span("capture_fresh", i as u64, |_| {
                device.capture_fresh(rng).expect("capture")
            });
            pool.push((origin, capture));
        }
    }
    pool
}

/// Whether two pools hold the same captures.
pub fn same_pool(a: &[(Origin, Capture)], b: &[(Origin, Capture)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((oa, ca), (ob, cb))| {
            oa == ob && ca.values == cb.values && ca.run.capture.samples == cb.run.capture.samples
        })
}

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sustained_traces_per_s", "1/s"),
    ("success_frac", "ratio"),
    ("hinted_bikz", "bikz"),
    ("coeff_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A workload
/// reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("rv32.capture_ms", "ms"),
    ("rv32.ns_per_sample", "ns"),
    ("rv32.noise_ms", "ms"),
    ("rv32.memo_hit_rate", "ratio"),
    ("rv32.block_dispatch_hits", "count"),
    ("trace.segment_ms", "ms"),
    ("trace.windows_per_trace", "count"),
    ("trace.noise_sigma_ms", "ms"),
    ("template.fit_ms", "ms"),
    ("template.classify_ms", "ms"),
    ("attack.robust_ms", "ms"),
    ("attack.robust_over_plain", "ratio"),
    ("attack.calibrate_ms", "ms"),
    ("attack.suspect_windows", "count"),
    ("attack.relaxation_rung_max", "count"),
    ("hints.report_ms", "ms"),
    ("hints.perfect", "count"),
    ("hints.approximate", "count"),
    ("hints.skipped", "count"),
    ("serve.reassembly_ms", "ms"),
    ("serve.fold_ms", "ms"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.checkpoints_written", "count"),
    ("serve.queue_hw.ingest", "count"),
    ("serve.queue_hw.work", "count"),
    ("serve.queue_hw.result", "count"),
    ("serve.backlog_traces", "count"),
    ("serve.retries", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("par.threads", "count"),
    ("par.spawn_cost_ns", "ns"),
    ("rv32.self_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("template.self_ms", "ms"),
    ("attack.self_ms", "ms"),
    ("hints.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("rv32.calls", "count"),
    ("trace.calls", "count"),
    ("template.calls", "count"),
    ("attack.calls", "count"),
    ("hints.calls", "count"),
    ("serve.calls", "count"),
    ("bench.calls", "count"),
    ("bench.traced_ops", "count"),
    ("bench.untraced_wall_ms", "ms"),
    ("bench.traced_wall_ms", "ms"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.closure", "ratio"),
];

/// The layer a spanned function belongs to.
pub fn layer_of(function: &str) -> &'static str {
    match function {
        "capture_fresh" | "capture_fresh[sigma=0]" | "collect_profiling" => "rv32",
        "extract_ladder_windows" | "robust_noise_sigma" => "trace",
        "TrainedAttack::fit" | "attack_trace_expecting" => "template",
        "RobustAttack::attack_trace" | "calibrate" => "attack",
        "report_full_attack" | "report_robust" => "hints",
        "Reassembly::insert" | "ShardedAccumulator::apply_success" | "Snapshot::write_atomic" => {
            "serve"
        }
        _ => "bench",
    }
}

/// Layers in ledger order.
pub const LAYERS: [&str; 7] = [
    "rv32", "trace", "template", "attack", "hints", "serve", "bench",
];

/// A timed loop measured twice in a traced run: once untraced, once
/// traced over the same operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerWindow {
    /// Operations in each half.
    pub ops: usize,
    /// Wall time of the untraced half, ns.
    pub untraced_ns: u64,
    /// Start of the traced half on the tracer's clock, ns.
    pub from_ns: u64,
    /// End of the traced half on the tracer's clock, ns.
    pub to_ns: u64,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations plus correctness checks attempted.
    pub attempted: u64,
    /// Operations that failed, expired or went undelivered, plus failed
    /// checks.
    pub failed: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
    /// Values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(name, value);
    }

    /// Counts one correctness check, recording a problem when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the latency metrics of `samples`, noting the sample count
    /// and the highest tail percentile it supports.
    pub fn set_latency(&mut self, samples: &[f64]) {
        let lat = Latency::of(samples);
        self.set("latency_p50_ms", lat.p50);
        self.set("latency_p90_ms", lat.p90);
        self.note(format!(
            "latency: {} samples, p50 {:.3} ms, p90 {:.3} ms ({} beyond p90), highest supported tail p{}",
            lat.count,
            lat.p50,
            lat.p90,
            stats::samples_beyond(lat.count, 90.0),
            lat.tail_p.map_or_else(|| "-".to_string(), |p| p.to_string())
        ));
        self.check(lat.p90_supported(), || {
            format!(
                "only {} latency samples: p90 has fewer than ten beyond",
                lat.count
            )
        });
    }

    /// Records the latency metrics of a closed loop that analyzes the same
    /// inputs again and again: each input's latency is the median of its
    /// repeats (see [`stats::input_medians`]), and p50 and p90 are taken
    /// over the inputs.
    pub fn set_input_latency(&mut self, per_input: &[Vec<f64>]) {
        let lat = Latency::of(&stats::input_medians(per_input));
        self.set("latency_p50_ms", lat.p50);
        self.set("latency_p90_ms", lat.p90);
        let fewest = per_input.iter().map(Vec::len).min().unwrap_or(0);
        self.note(format!(
            "latency: {} inputs, each the median of at least {fewest} repeats; p50 {:.3} ms, p90 {:.3} ms over inputs",
            per_input.len(),
            lat.p50,
            lat.p90,
        ));
        self.check(!per_input.is_empty() && fewest >= MIN_REPEATS, || {
            format!("an input has only {fewest} repeats, fewer than {MIN_REPEATS}")
        });
    }

    /// Records the per-layer ledger of a traced run: self time and calls
    /// per layer within the traced half, tracing overhead and closure.
    pub fn set_ledger(&mut self, tracer: &Tracer, window: LedgerWindow) {
        let totals = span::totals(tracer.spans(), window.from_ns, window.to_ns);
        let wall_ns = window.to_ns - window.from_ns;
        let mut layer_self = BTreeMap::new();
        let mut layer_calls = BTreeMap::new();
        for (name, t) in &totals {
            *layer_self.entry(layer_of(name)).or_insert(0u64) += t.self_ns;
            *layer_calls.entry(layer_of(name)).or_insert(0u64) += t.calls;
        }
        let per_op = |ns: u64| ns as f64 / 1e6 / window.ops.max(1) as f64;
        let mut covered = 0;
        for layer in LAYERS {
            let self_ns = layer_self.get(layer).copied().unwrap_or(0);
            let calls = layer_calls.get(layer).copied().unwrap_or(0);
            if layer != "bench" {
                covered += self_ns;
            }
            self.set(layer_metric(layer, "self_ms"), per_op(self_ns));
            self.set(layer_metric(layer, "calls"), calls as f64);
        }
        self.set("bench.traced_ops", window.ops as f64);
        self.set("bench.untraced_wall_ms", window.untraced_ns as f64 / 1e6);
        self.set("bench.traced_wall_ms", wall_ns as f64 / 1e6);
        self.set(
            "bench.tracing_overhead_pct",
            (wall_ns as f64 - window.untraced_ns as f64) / window.untraced_ns.max(1) as f64 * 100.0,
        );
        let closure = covered as f64 / wall_ns.max(1) as f64;
        self.set("bench.closure", closure);
        let mut line = format!("ledger over {} traced ops, ms per op:", window.ops);
        for layer in LAYERS {
            let self_ns = layer_self.get(layer).copied().unwrap_or(0);
            let _ = write!(line, " {layer} {:.3}", per_op(self_ns));
        }
        let _ = write!(line, " | closure {closure:.3}");
        self.note(line);
    }
}

/// `"<layer>.<suffix>"` as a catalogue name.
fn layer_metric(layer: &str, suffix: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix(layer).and_then(|r| r.strip_prefix('.')) == Some(suffix))
        .expect("every layer has self_ms and calls metrics")
}

/// Mean duration per call of a spanned function, ms (0 when never called).
pub fn mean_ms(tracer: &Tracer, function: &str) -> f64 {
    span::totals(tracer.spans(), 0, u64::MAX)
        .get(function)
        .map_or(0.0, span::Totals::mean_ms)
}

/// The per-layer probes every workload runs in a traced run: segmentation
/// of each pool capture, and the same captures drawn on a σ = 0 device,
/// whose difference in capture time is the cost of the noise draws.
pub fn probe_rv32_and_segmentation(
    tracer: &mut Tracer,
    out: &mut Outcome,
    device: &Device,
    pool: &[(Origin, Capture)],
) {
    let config = AttackConfig::default();
    let mut windows = 0;
    for (i, (_, capture)) in pool.iter().enumerate() {
        windows += tracer.span("extract_ladder_windows", i as u64, |_| {
            extract_ladder_windows(&capture.run.capture.samples, &config)
                .expect("clean capture segments")
                .len()
        });
    }
    out.set(
        "trace.segment_ms",
        mean_ms(tracer, "extract_ladder_windows"),
    );
    out.set(
        "trace.windows_per_trace",
        windows as f64 / pool.len().max(1) as f64,
    );

    // Noise ablation: the same seeds on a noiseless device, alternated so
    // both sides see the same machine state.
    let quiet = paper_device(device.degree(), 0.0);
    let probe = 6;
    let mut noisy_ns = 0u128;
    let mut quiet_ns = 0u128;
    for i in 0..probe {
        let seed = reveal_par::derive_seed(MASTER_SEED ^ 0xAB1A, i);
        for (dev, acc, name) in [
            (device, &mut noisy_ns, "capture_fresh"),
            (&quiet, &mut quiet_ns, "capture_fresh[sigma=0]"),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = Instant::now();
            tracer.span(name, i, |_| {
                dev.capture_fresh(&mut rng).expect("probe capture")
            });
            *acc += start.elapsed().as_nanos();
        }
    }
    out.set(
        "rv32.noise_ms",
        (noisy_ns as f64 - quiet_ns as f64) / probe as f64 / 1e6,
    );
    let capture_ms = mean_ms(tracer, "capture_fresh");
    out.set("rv32.capture_ms", capture_ms);
    let samples = pool.first().map_or(1, |(_, c)| c.run.capture.samples.len());
    out.set("rv32.ns_per_sample", capture_ms * 1e6 / samples as f64);
}

/// Records the profiling counters of a training pass.
pub fn set_profiling_counts(out: &mut Outcome, counts: &ProfilingCounts) {
    let lookups = counts.memo_hits + counts.memo_misses;
    out.set(
        "rv32.memo_hit_rate",
        counts.memo_hits as f64 / lookups.max(1) as f64,
    );
    out.set(
        "rv32.block_dispatch_hits",
        counts.block_dispatch_hits as f64,
    );
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// Service workers: one per core this process may use
/// (`available_parallelism` honours the affinity mask and cgroup quotas).
pub fn serve_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// CPUs this process may run on (what `nproc` prints), for the provenance.
pub fn nproc() -> usize {
    proc_status_field("Cpus_allowed_list:")
        .map(|list| {
            list.split(',')
                .map(|r| match r.split_once('-') {
                    Some((a, b)) => (b.parse::<usize>().unwrap_or(0) + 1)
                        .saturating_sub(a.parse::<usize>().unwrap_or(0)),
                    None => 1,
                })
                .sum()
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// A set-up repeated through a run. The first repetition's state is the
/// one the workload uses; every later one must reproduce it.
pub struct Repeated {
    /// Wall time of each repetition, s.
    pub setup_s: Vec<f64>,
    /// Time from device to fitted attacker within each repetition, s.
    pub train_s: Vec<f64>,
    reps: usize,
}

impl Repeated {
    /// Runs the first repetition and returns its state. `setup` returns
    /// the state and, when it trains an attacker, the training time. A
    /// traced run sets up once.
    pub fn first<T>(trace: bool, setup: impl FnOnce() -> (T, Option<f64>)) -> (Self, T) {
        let start = Instant::now();
        let (state, train) = setup();
        let reps = Self {
            setup_s: vec![start.elapsed().as_secs_f64()],
            train_s: train.into_iter().collect(),
            reps: if trace { 1 } else { SETUP_REPS },
        };
        (reps, state)
    }

    /// Set-ups still to run.
    pub fn pending(&self) -> usize {
        self.reps - self.setup_s.len()
    }

    /// Runs the next repetition when one is pending, checking with `same`
    /// that it reproduces `first`.
    pub fn again<T>(
        &mut self,
        out: &mut Outcome,
        first: &T,
        setup: impl FnOnce() -> (T, Option<f64>),
        same: impl FnOnce(&T, &T) -> bool,
    ) {
        if self.pending() == 0 {
            return;
        }
        let start = Instant::now();
        let (state, train) = setup();
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.train_s.extend(train);
        let rep = self.setup_s.len() - 1;
        out.check(same(first, &state), || {
            format!("set-up repetition {rep} differs from the first")
        });
    }

    /// Records the medians as `setup_s` and, when training ran, `train_s`.
    pub fn report(&self, out: &mut Outcome) {
        out.set("setup_s", stats::median(&self.setup_s));
        if !self.train_s.is_empty() {
            out.set("train_s", stats::median(&self.train_s));
        }
    }
}

/// The commit the benchmark's source came from, read from `.git` when the
/// checkout has one.
pub fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|h| h.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}
