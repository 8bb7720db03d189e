//! The three-stage supervisor: ingress → analyze → score, joined by
//! bounded channels, degrading gracefully under every fault the chaos
//! harness can throw.
//!
//! ## Topology
//!
//! ```text
//!  clients ──IngestHandle──▶ [ingest queue] ── ingress thread
//!                                                │  validate / reassemble / expire
//!                                                ▼
//!                                          [work queue] ── N worker threads
//!                                                │  robust attack (relaxation ladder inside)
//!                                                ▼
//!                                        [result queue] ── scorer thread
//!                                                │  per-key reorder + fold
//!                                                ▼
//!                                   updates / checkpoints / metrics
//! ```
//!
//! The scorer is single-threaded on purpose: per-key fold order is the
//! determinism contract, so worker count only changes *when* outcomes
//! arrive, never what they fold to. A per-key reorder buffer re-serializes
//! outcomes by `trace_seq` before they touch the accumulator, which is why
//! a zero-fault stream emits bit-identical estimates at any
//! `REVEAL_THREADS`.
//!
//! ## Shutdown vs kill
//!
//! [`Supervisor::shutdown`] is the graceful path: close ingest, drain every
//! queue through the normal machinery (incomplete streams become typed
//! failures), write a final checkpoint, join, and report.
//! [`Supervisor::kill`] models a crash: raise the kill flag, slam every
//! channel shut, join, and deliberately skip the final checkpoint — the
//! recovery test restores from whatever the *periodic* checkpoint last
//! persisted, which is exactly what a real crash leaves behind.

use crate::accumulator::{ShardedAccumulator, VictimUpdate};
use crate::checkpoint::Snapshot;
use crate::frame::{KeyId, TraceFrame};
use crate::reassembly::{ExpiredStream, Inserted, Reassembly, ReassemblyConfig};
use crate::{ServeError, Stage};
use reveal_attack::{Calibration, RobustAttack, RobustAttackResult, RobustConfig, TrainedAttack};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_par::channel::{bounded, OverflowPolicy, QueueMetrics, Receiver, RecvError, Sender};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration. Construct with [`ServeConfig::new`] and override
/// fields as needed; every bound has a conservative default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// LWE parameters the hint store estimates against.
    pub params: LweParameters,
    /// Coefficients per victim trace.
    pub coefficients: usize,
    /// Hint classification policy.
    pub policy: HintPolicy,
    /// Robust-pipeline knobs (defaults preserve bit-identity on clean
    /// captures).
    pub robust: RobustConfig,
    /// Clean-capture calibration, if one was measured.
    pub calibration: Option<Calibration>,
    /// Hint-store shard count.
    pub shards: usize,
    /// Analysis worker threads; 0 means [`reveal_par::max_threads`].
    pub workers: usize,
    /// Ingest queue capacity (frames).
    pub ingest_capacity: usize,
    /// Work queue capacity (completed traces awaiting analysis).
    pub work_capacity: usize,
    /// Result queue capacity (outcomes awaiting scoring).
    pub result_capacity: usize,
    /// Update buffer capacity; the oldest update is dropped (and counted)
    /// past this.
    pub update_capacity: usize,
    /// What a full ingest queue does to a submit: block the client or shed
    /// the frame.
    pub ingest_policy: OverflowPolicy,
    /// Per-trace analysis deadline; overruns become
    /// [`ServeError::StageDeadline`] failures.
    pub stage_deadline: Duration,
    /// Reassembly limits (stream deadline, memory budget, frame bound).
    pub reassembly: ReassemblyConfig,
    /// Per-frame payload bound for admission control.
    pub max_frame_samples: usize,
    /// Consecutive failed traces before a victim key is quarantined.
    pub quarantine_threshold: u32,
    /// Checkpoint after every N scored traces; 0 disables periodic
    /// checkpoints.
    pub checkpoint_every: u64,
    /// Where checkpoints are written (atomic tmp+rename). `None` disables
    /// all checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Scorer reorder-buffer depth per key before a missing `trace_seq` is
    /// abandoned as [`ServeError::GapAbandoned`].
    pub gap_limit: usize,
    /// Poll tick for the ingress expiry sweep and scorer kill checks.
    pub tick: Duration,
}

impl ServeConfig {
    /// A configuration with conservative defaults for everything but the
    /// problem shape.
    pub fn new(params: LweParameters, coefficients: usize, policy: HintPolicy) -> Self {
        Self {
            params,
            coefficients,
            policy,
            robust: RobustConfig::default(),
            calibration: None,
            shards: 8,
            workers: 0,
            ingest_capacity: 256,
            work_capacity: 64,
            result_capacity: 128,
            update_capacity: 1024,
            ingest_policy: OverflowPolicy::Block,
            stage_deadline: Duration::from_secs(60),
            reassembly: ReassemblyConfig::default(),
            max_frame_samples: 1 << 20,
            quarantine_threshold: 3,
            checkpoint_every: 0,
            checkpoint_path: None,
            gap_limit: 64,
            tick: Duration::from_millis(25),
        }
    }
}

/// A point-in-time view of the service counters and queue depths.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Frames accepted off the ingest queue.
    pub frames_received: u64,
    /// Frames rejected by admission validation.
    pub frames_rejected: u64,
    /// Frames dropped because their key is quarantined.
    pub frames_quarantined: u64,
    /// Incomplete streams expired by deadline or shutdown flush.
    pub streams_expired: u64,
    /// Traces that completed reassembly.
    pub traces_completed: u64,
    /// Traces scored as successes.
    pub traces_analyzed: u64,
    /// Traces scored as typed failures.
    pub traces_failed: u64,
    /// Segmentation relaxation rungs the robust driver climbed above rung 0
    /// ([`reveal_attack::Diagnostics::relaxation_rung`]), summed over the
    /// traces it analyzed. Each trace is analyzed exactly once: the driver
    /// is deterministic, so re-running it on the same samples could only
    /// repeat the outcome.
    pub retries: u64,
    /// Updates dropped because the update buffer was full.
    pub updates_dropped: u64,
    /// Periodic checkpoints written.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (service keeps running).
    pub checkpoint_failures: u64,
    /// Ingest queue counters (capacity, high-water, depth, shed).
    pub ingest_queue: QueueMetrics,
    /// Work queue counters.
    pub work_queue: QueueMetrics,
    /// Result queue counters.
    pub result_queue: QueueMetrics,
    /// Victim keys tracked.
    pub victims: usize,
    /// Victim keys currently quarantined.
    pub quarantined_keys: usize,
}

/// The terminal report from a graceful [`Supervisor::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final counters.
    pub metrics: ServeMetrics,
    /// Updates that had not been drained before shutdown.
    pub updates: Vec<VictimUpdate>,
    /// Per-trace end-to-end latencies in milliseconds (reassembly
    /// completion → scored), in scoring order.
    pub latencies_ms: Vec<f64>,
}

/// A completed trace queued for analysis.
struct TraceJob {
    key: KeyId,
    trace_seq: u64,
    samples: Vec<f64>,
    completed_at: Instant,
}

/// One trace's terminal outcome, en route to the scorer.
struct Outcome {
    key: KeyId,
    trace_seq: u64,
    result: Result<RobustAttackResult, ServeError>,
    completed_at: Option<Instant>,
}

#[derive(Default)]
struct Counters {
    frames_received: AtomicU64,
    frames_rejected: AtomicU64,
    frames_quarantined: AtomicU64,
    streams_expired: AtomicU64,
    traces_completed: AtomicU64,
    traces_analyzed: AtomicU64,
    traces_failed: AtomicU64,
    retries: AtomicU64,
    updates_dropped: AtomicU64,
    checkpoints_written: AtomicU64,
    checkpoint_failures: AtomicU64,
}

struct SharedState {
    counters: Counters,
    accumulator: Mutex<ShardedAccumulator>,
    quarantined: Mutex<BTreeSet<KeyId>>,
    updates: Mutex<VecDeque<VictimUpdate>>,
    latencies: Mutex<Vec<f64>>,
    kill: AtomicBool,
    workers_active: AtomicUsize,
}

/// Poison-proof lock: a panicking holder (which the crate forbids anyway)
/// must not cascade into every other thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cloneable client-side submit handle.
#[derive(Clone)]
pub struct IngestHandle {
    tx: Sender<TraceFrame>,
    policy: OverflowPolicy,
}

impl IngestHandle {
    /// Submits one frame, honoring the configured overflow policy.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the queue is full under the shed
    /// policy; [`ServeError::QueueClosed`] after shutdown/kill.
    pub fn submit(&self, frame: TraceFrame) -> Result<(), ServeError> {
        use reveal_par::channel::SendError;
        match self.tx.send(frame, self.policy) {
            Ok(()) => Ok(()),
            Err(SendError::Full(_)) => Err(ServeError::Backpressure),
            Err(SendError::Closed(_)) => Err(ServeError::QueueClosed {
                stage: Stage::Ingress,
            }),
        }
    }

    /// Ingest queue counters (capacity, depth, high-water, shed).
    pub fn metrics(&self) -> QueueMetrics {
        self.tx.metrics()
    }
}

/// The running service.
pub struct Supervisor {
    tx_ingest: Sender<TraceFrame>,
    tx_work: Sender<TraceJob>,
    tx_results: Sender<Outcome>,
    ingress: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scorer: Option<JoinHandle<()>>,
    shared: Arc<SharedState>,
    config: ServeConfig,
}

impl Supervisor {
    /// Starts the service with an empty hint store.
    pub fn start(trained: TrainedAttack, config: ServeConfig) -> Self {
        let accumulator = ShardedAccumulator::new(
            config.params,
            config.coefficients,
            config.shards,
            config.quarantine_threshold,
        );
        Self::launch(trained, config, accumulator)
    }

    /// Resumes the service from a checkpoint snapshot; quarantined keys in
    /// the snapshot stay quarantined.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] when the snapshot's parameters do not
    /// match `config`.
    pub fn resume(
        trained: TrainedAttack,
        config: ServeConfig,
        snapshot: &Snapshot,
    ) -> Result<Self, ServeError> {
        snapshot.check_compatible(&config.params, config.coefficients)?;
        let accumulator = snapshot.restore();
        let quarantined: BTreeSet<KeyId> = accumulator
            .iter()
            .filter(|(_, v)| matches!(v.status, crate::accumulator::VictimStatus::Quarantined(_)))
            .map(|(k, _)| k)
            .collect();
        let sup = Self::launch(trained, config, accumulator);
        lock(&sup.shared.quarantined).extend(quarantined);
        Ok(sup)
    }

    fn launch(
        trained: TrainedAttack,
        config: ServeConfig,
        accumulator: ShardedAccumulator,
    ) -> Self {
        let worker_count = if config.workers == 0 {
            reveal_par::max_threads()
        } else {
            config.workers
        };
        let (tx_ingest, rx_ingest) = bounded::<TraceFrame>(config.ingest_capacity);
        let (tx_work, rx_work) = bounded::<TraceJob>(config.work_capacity);
        let (tx_results, rx_results) = bounded::<Outcome>(config.result_capacity);

        let shared = Arc::new(SharedState {
            counters: Counters::default(),
            accumulator: Mutex::new(accumulator),
            quarantined: Mutex::new(BTreeSet::new()),
            updates: Mutex::new(VecDeque::new()),
            latencies: Mutex::new(Vec::new()),
            kill: AtomicBool::new(false),
            workers_active: AtomicUsize::new(worker_count),
        });

        let ingress = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            let rx = rx_ingest;
            let tx_work = tx_work.clone();
            let tx_results = tx_results.clone();
            std::thread::Builder::new()
                .name("serve-ingress".into())
                .spawn(move || ingress_loop(&shared, &config, &rx, &tx_work, &tx_results))
                .expect("spawn ingress thread")
        };

        let trained = Arc::new(trained);
        // Workers share one receiver: each job is delivered to exactly one
        // of them, whichever wins the next recv.
        let rx_work = Arc::new(rx_work);
        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                let trained = Arc::clone(&trained);
                let rx = Arc::clone(&rx_work);
                let tx = tx_results.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &config, &trained, &rx, &tx))
                    .expect("spawn worker thread")
            })
            .collect();

        let scorer = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("serve-scorer".into())
                .spawn(move || scorer_loop(&shared, &config, &rx_results))
                .expect("spawn scorer thread")
        };

        Self {
            tx_ingest,
            tx_work,
            tx_results,
            ingress: Some(ingress),
            workers,
            scorer: Some(scorer),
            shared,
            config,
        }
    }

    /// A cloneable submit handle for clients.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            tx: self.tx_ingest.clone(),
            policy: self.config.ingest_policy,
        }
    }

    /// Drains all pending incremental updates, in scoring order.
    pub fn drain_updates(&self) -> Vec<VictimUpdate> {
        lock(&self.shared.updates).drain(..).collect()
    }

    /// A live snapshot of the hint store (for ad-hoc checkpointing or
    /// inspection while the service runs).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(
            &lock(&self.shared.accumulator),
            self.config.quarantine_threshold,
        )
    }

    /// Current counters and queue depths.
    pub fn metrics(&self) -> ServeMetrics {
        let c = &self.shared.counters;
        ServeMetrics {
            frames_received: c.frames_received.load(Ordering::Relaxed),
            frames_rejected: c.frames_rejected.load(Ordering::Relaxed),
            frames_quarantined: c.frames_quarantined.load(Ordering::Relaxed),
            streams_expired: c.streams_expired.load(Ordering::Relaxed),
            traces_completed: c.traces_completed.load(Ordering::Relaxed),
            traces_analyzed: c.traces_analyzed.load(Ordering::Relaxed),
            traces_failed: c.traces_failed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            updates_dropped: c.updates_dropped.load(Ordering::Relaxed),
            checkpoints_written: c.checkpoints_written.load(Ordering::Relaxed),
            checkpoint_failures: c.checkpoint_failures.load(Ordering::Relaxed),
            ingest_queue: self.tx_ingest.metrics(),
            work_queue: self.tx_work.metrics(),
            result_queue: self.tx_results.metrics(),
            victims: lock(&self.shared.accumulator).victims(),
            quarantined_keys: lock(&self.shared.quarantined).len(),
        }
    }

    /// Graceful shutdown: close ingest, drain every stage, write a final
    /// checkpoint, join all threads, and report.
    pub fn shutdown(mut self) -> ServeSummary {
        self.tx_ingest.close();
        if let Some(h) = self.ingress.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.scorer.take() {
            let _ = h.join();
        }
        let metrics = self.metrics();
        ServeSummary {
            metrics,
            updates: self.drain_updates(),
            latencies_ms: lock(&self.shared.latencies).clone(),
        }
    }

    /// Crash the service: raise the kill flag, slam every channel shut,
    /// join, and skip the final checkpoint. Whatever the last *periodic*
    /// checkpoint persisted is what a restore sees — crash semantics.
    pub fn kill(mut self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.tx_ingest.close();
        self.tx_work.close();
        self.tx_results.close();
        if let Some(h) = self.ingress.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.scorer.take() {
            let _ = h.join();
        }
    }
}

/// Sends a failure outcome toward the scorer; send errors are swallowed
/// (they only happen while the service is being killed).
fn send_failure(tx: &Sender<Outcome>, key: KeyId, trace_seq: u64, error: ServeError) {
    let _ = tx.send(
        Outcome {
            key,
            trace_seq,
            result: Err(error),
            completed_at: None,
        },
        OverflowPolicy::Block,
    );
}

fn expired_to_failures(tx: &Sender<Outcome>, shared: &SharedState, expired: Vec<ExpiredStream>) {
    for e in expired {
        shared
            .counters
            .streams_expired
            .fetch_add(1, Ordering::Relaxed);
        send_failure(
            tx,
            e.key,
            e.trace_seq,
            ServeError::StreamTimeout {
                waited_ms: e.waited_ms,
                frames_seen: e.frames_seen,
            },
        );
    }
}

fn ingress_loop(
    shared: &SharedState,
    config: &ServeConfig,
    rx: &Receiver<TraceFrame>,
    tx_work: &Sender<TraceJob>,
    tx_results: &Sender<Outcome>,
) {
    let mut reassembly = Reassembly::new(config.reassembly);
    let mut last_sweep = Instant::now();
    loop {
        if shared.kill.load(Ordering::SeqCst) {
            break;
        }
        match rx.recv_timeout(config.tick) {
            Ok(frame) => {
                shared
                    .counters
                    .frames_received
                    .fetch_add(1, Ordering::Relaxed);
                let key = frame.key;
                let trace_seq = frame.trace_seq;
                if lock(&shared.quarantined).contains(&key) {
                    shared
                        .counters
                        .frames_quarantined
                        .fetch_add(1, Ordering::Relaxed);
                    reassembly.drop_key(key);
                    continue;
                }
                if let Err(e) = frame.validate(config.max_frame_samples) {
                    shared
                        .counters
                        .frames_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    send_failure(tx_results, key, trace_seq, ServeError::Frame(e));
                    continue;
                }
                let now = Instant::now();
                match reassembly.insert(frame, now) {
                    Ok(Inserted::Complete(trace)) => {
                        shared
                            .counters
                            .traces_completed
                            .fetch_add(1, Ordering::Relaxed);
                        let job = TraceJob {
                            key: trace.key,
                            trace_seq: trace.trace_seq,
                            samples: trace.samples,
                            completed_at: now,
                        };
                        if tx_work.send(job, OverflowPolicy::Block).is_err() {
                            break;
                        }
                    }
                    Ok(Inserted::Pending | Inserted::Duplicate) => {}
                    Err(e) => {
                        send_failure(tx_results, key, trace_seq, ServeError::Reassembly(e));
                    }
                }
                if last_sweep.elapsed() >= config.tick {
                    last_sweep = Instant::now();
                    expired_to_failures(tx_results, shared, reassembly.expire(last_sweep));
                }
            }
            Err(RecvError::Timeout) => {
                last_sweep = Instant::now();
                expired_to_failures(tx_results, shared, reassembly.expire(last_sweep));
            }
            Err(RecvError::Closed) => {
                // Graceful drain: every incomplete stream becomes a typed
                // failure so the scorer never sees a silent gap.
                if !shared.kill.load(Ordering::SeqCst) {
                    expired_to_failures(tx_results, shared, reassembly.drain_all());
                }
                break;
            }
        }
    }
    tx_work.close();
}

fn worker_loop(
    shared: &SharedState,
    config: &ServeConfig,
    trained: &TrainedAttack,
    rx: &Receiver<TraceJob>,
    tx: &Sender<Outcome>,
) {
    let mut robust = RobustAttack::new(trained).with_config(config.robust.clone());
    if let Some(calibration) = config.calibration {
        robust = robust.with_calibration(calibration);
    }
    while let Ok(job) = rx.recv() {
        if shared.kill.load(Ordering::SeqCst) {
            break;
        }
        let start = Instant::now();
        let result = robust
            .attack_trace(&job.samples, config.coefficients, &config.policy)
            .map_err(ServeError::Analysis);
        if let Ok(r) = &result {
            shared
                .counters
                .retries
                .fetch_add(r.diagnostics.relaxation_rung as u64, Ordering::Relaxed);
        }
        let elapsed = start.elapsed();
        let result = if result.is_ok() && elapsed > config.stage_deadline {
            Err(ServeError::StageDeadline {
                stage: Stage::Analyze,
                elapsed_ms: elapsed.as_millis() as u64,
                budget_ms: config.stage_deadline.as_millis() as u64,
            })
        } else {
            result
        };
        let outcome = Outcome {
            key: job.key,
            trace_seq: job.trace_seq,
            result,
            completed_at: Some(job.completed_at),
        };
        if tx.send(outcome, OverflowPolicy::Block).is_err() {
            break;
        }
    }
    // The last worker out closes the result queue so the scorer can drain
    // and exit.
    if shared.workers_active.fetch_sub(1, Ordering::SeqCst) == 1 {
        tx.close();
    }
}

/// The scorer's per-key reorder buffers.
type Pending = BTreeMap<KeyId, BTreeMap<u64, Outcome>>;

struct Scorer<'a> {
    shared: &'a SharedState,
    config: &'a ServeConfig,
    pending: Pending,
    scored: u64,
}

impl Scorer<'_> {
    fn expected(&self, key: KeyId) -> u64 {
        lock(&self.shared.accumulator).next_trace_seq(key)
    }

    /// Applies one outcome to the accumulator and emits its update. The
    /// order — fold, checkpoint, then publish — guarantees that any update
    /// a client has observed is covered by a checkpoint at least as new.
    fn apply(&mut self, outcome: Outcome) {
        let update = {
            let mut acc = lock(&self.shared.accumulator);
            match outcome.result {
                Ok(result) => match acc.apply_success(outcome.key, outcome.trace_seq, &result) {
                    Ok(u) => u,
                    Err(e) => acc.apply_failure(outcome.key, outcome.trace_seq, e),
                },
                Err(e) => acc.apply_failure(outcome.key, outcome.trace_seq, e),
            }
        };
        if update.failed.is_some() {
            self.shared
                .counters
                .traces_failed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared
                .counters
                .traces_analyzed
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(completed_at) = outcome.completed_at {
            lock(&self.shared.latencies).push(completed_at.elapsed().as_secs_f64() * 1e3);
        }
        if update.quarantined {
            lock(&self.shared.quarantined).insert(update.key);
        }
        self.scored += 1;
        if self.config.checkpoint_every > 0
            && self.scored.is_multiple_of(self.config.checkpoint_every)
        {
            self.write_checkpoint();
        }
        let mut updates = lock(&self.shared.updates);
        if updates.len() >= self.config.update_capacity {
            updates.pop_front();
            self.shared
                .counters
                .updates_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
        updates.push_back(update);
    }

    fn write_checkpoint(&self) {
        let Some(path) = self.config.checkpoint_path.as_deref() else {
            return;
        };
        let snapshot = Snapshot::capture(
            &lock(&self.shared.accumulator),
            self.config.quarantine_threshold,
        );
        match snapshot.write_atomic(path) {
            Ok(()) => {
                self.shared
                    .counters
                    .checkpoints_written
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Checkpointing is best-effort: a failed write costs
                // recovery freshness, never liveness.
                self.shared
                    .counters
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Buffers an outcome and drains everything now in order.
    fn admit(&mut self, outcome: Outcome) {
        let key = outcome.key;
        if outcome.trace_seq < self.expected(key) {
            return; // replay of an already-scored trace
        }
        self.pending
            .entry(key)
            .or_default()
            .entry(outcome.trace_seq)
            .or_insert(outcome);
        self.drain_key(key, false);
    }

    /// Scores buffered outcomes for `key` in `trace_seq` order. A missing
    /// sequence number stalls the key until `force` (shutdown flush) or
    /// the reorder buffer exceeds the gap limit, at which point the gap is
    /// abandoned as a typed failure so later outcomes can land.
    fn drain_key(&mut self, key: KeyId, force: bool) {
        loop {
            let expected = self.expected(key);
            let Some(map) = self.pending.get_mut(&key) else {
                return;
            };
            // Discard anything the accumulator has already moved past.
            while let Some((&seq, _)) = map.iter().next() {
                if seq < expected {
                    map.remove(&seq);
                } else {
                    break;
                }
            }
            if map.is_empty() {
                self.pending.remove(&key);
                return;
            }
            if let Some(outcome) = map.remove(&expected) {
                self.apply(outcome);
                continue;
            }
            if force || map.len() > self.config.gap_limit {
                self.apply(Outcome {
                    key,
                    trace_seq: expected,
                    result: Err(ServeError::GapAbandoned),
                    completed_at: None,
                });
                continue;
            }
            return;
        }
    }

    /// Shutdown flush: everything still buffered is scored, with gaps
    /// abandoned, in (key, seq) order.
    fn flush(&mut self) {
        let keys: Vec<KeyId> = self.pending.keys().copied().collect();
        for key in keys {
            self.drain_key(key, true);
        }
    }
}

fn scorer_loop(shared: &SharedState, config: &ServeConfig, rx: &Receiver<Outcome>) {
    let mut scorer = Scorer {
        shared,
        config,
        pending: Pending::new(),
        scored: 0,
    };
    loop {
        if shared.kill.load(Ordering::SeqCst) {
            return; // crash semantics: no flush, no final checkpoint
        }
        match rx.recv_timeout(config.tick) {
            Ok(outcome) => scorer.admit(outcome),
            Err(RecvError::Timeout) => {}
            Err(RecvError::Closed) => break,
        }
    }
    if shared.kill.load(Ordering::SeqCst) {
        return;
    }
    scorer.flush();
    scorer.write_checkpoint();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Supervisor behavior is exercised end-to-end (with real trained
    // attacks) in `tests/serve.rs`; the unit tests here cover the pure
    // config plumbing.

    fn config() -> ServeConfig {
        ServeConfig::new(
            LweParameters::seal_like(16, 3329.0, 2.0),
            16,
            HintPolicy::seal_paper(),
        )
    }

    #[test]
    fn defaults_are_bounded_and_sane() {
        let c = config();
        assert!(c.ingest_capacity > 0 && c.work_capacity > 0 && c.result_capacity > 0);
        assert_eq!(c.ingest_policy, OverflowPolicy::Block);
        assert!(c.checkpoint_path.is_none() && c.checkpoint_every == 0);
    }
}
