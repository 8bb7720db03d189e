#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # reveal-serve
//!
//! The RevEAL attack as a long-running service: a fault-tolerant,
//! backpressured supervisor that accepts streams of raw trace frames from
//! many simulated victims, reassembles them, pushes each completed trace
//! through the robust segment→classify→score pipeline against a persistent
//! fitted-template store, and emits incremental hint sets + bikz updates
//! per victim key.
//!
//! The one-shot pipeline (`reveal-attack`) answers "what does this trace
//! leak?"; this crate answers the operational question a real campaign
//! faces: what happens when a million of them arrive over a lossy link,
//! some of them garbage, and the answer must keep flowing anyway. The
//! design is robustness-first:
//!
//! - **Explicit job model.** Three stages — ingress (validate + reassemble),
//!   analyze (robust attack), score (per-key hint accumulation) — joined by
//!   bounded channels ([`reveal_par::channel`]) with block/shed overflow
//!   policies and high-water metrics. Memory is bounded by construction.
//! - **Typed failure, never panic.** Every way a stream can go wrong is a
//!   [`ServeError`] variant; a failed trace becomes a failure *outcome*
//!   that flows through the same scoring path as a success.
//! - **One analysis per trace.** Each completed trace runs through the
//!   robust driver exactly once; the driver itself walks
//!   `reveal_attack::robust`'s bounded relaxation schedule and heals what
//!   is left. The driver is deterministic, so a failure is final: it
//!   becomes a typed [`ServeError::Analysis`] outcome, and
//!   [`ServeMetrics::retries`] counts the relaxation rungs climbed.
//! - **Degradation ladder.** Per coefficient: perfect → approximate →
//!   skipped, gated by the existing confidence machinery; per victim:
//!   repeated failures quarantine the key, so one poisoned stream can
//!   never stall or corrupt the others.
//! - **Checkpoint / restore.** The per-key accumulator state snapshots to a
//!   bit-exact text format ([`checkpoint`]); killing the supervisor
//!   mid-stream and restoring resumes bit-identically.
//!
//! ## Bit-identity contract
//!
//! A zero-fault served stream reproduces the one-shot pipeline exactly:
//! the scorer folds each trace's [`reveal_attack::HintDecision`]s through
//! [`reveal_attack::integrate_decision`] — the same helper, in the same
//! coordinate order, as [`reveal_attack::report_robust`] — so the emitted
//! bikz matches `report_full_attack` bit-for-bit (`f64::to_bits`
//! equality), at any worker count, across a kill + restore.

pub mod accumulator;
pub mod checkpoint;
pub mod frame;
pub mod reassembly;
pub mod supervisor;

pub use accumulator::{
    QuarantineReason, ShardedAccumulator, VictimState, VictimStatus, VictimUpdate,
};
pub use checkpoint::{CheckpointError, Snapshot};
pub use frame::{frame_stream, FrameError, KeyId, TraceFrame};
pub use reassembly::{CompletedTrace, ExpiredStream, Reassembly, ReassemblyError};
pub use supervisor::{IngestHandle, ServeConfig, ServeMetrics, ServeSummary, Supervisor};

use reveal_attack::AttackError;
use std::fmt;

/// A pipeline stage, for typed deadline/queue errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame validation and reassembly.
    Ingress,
    /// Robust trace analysis.
    Analyze,
    /// Hint accumulation and reporting.
    Score,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Ingress => write!(f, "ingress"),
            Stage::Analyze => write!(f, "analyze"),
            Stage::Score => write!(f, "score"),
        }
    }
}

/// Every way the service can fail a frame, a trace, or an operation —
/// typed, recoverable, and attributable to one victim stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A frame failed admission validation.
    Frame(FrameError),
    /// Reassembly rejected a frame or dropped a stream.
    Reassembly(ReassemblyError),
    /// A stream stalled past the reassembly deadline (mid-stream
    /// disconnect): frames stopped arriving before the trace completed.
    StreamTimeout {
        /// Milliseconds waited since the last frame made progress.
        waited_ms: u64,
        /// Frames that had arrived before the stall.
        frames_seen: u32,
    },
    /// A stage exceeded its per-item deadline.
    StageDeadline {
        /// Which stage blew the budget.
        stage: Stage,
        /// Observed processing time in milliseconds.
        elapsed_ms: u64,
        /// The configured budget in milliseconds.
        budget_ms: u64,
    },
    /// The robust driver failed the trace (every relaxation rung failed to
    /// segment, e.g. a flat or non-finite capture).
    Analysis(AttackError),
    /// The scorer abandoned a trace sequence number that never produced an
    /// outcome (its frames were shed before reassembly began).
    GapAbandoned,
    /// A queue was closed while the item was in flight (shutdown race).
    QueueClosed {
        /// The stage whose input closed.
        stage: Stage,
    },
    /// A submit was rejected because the ingest queue was full under the
    /// shed policy.
    Backpressure,
    /// The victim key is quarantined; its frames are dropped at ingress.
    Quarantined,
    /// Checkpoint encode/decode/IO failure.
    Checkpoint(CheckpointError),
    /// The accumulator rejected a result (coefficient-count mismatch or
    /// hint-integration failure) — indicates a configuration error.
    Accumulator(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "frame rejected: {e}"),
            ServeError::Reassembly(e) => write!(f, "reassembly: {e}"),
            ServeError::StreamTimeout {
                waited_ms,
                frames_seen,
            } => write!(
                f,
                "stream stalled for {waited_ms} ms after {frames_seen} frames"
            ),
            ServeError::StageDeadline {
                stage,
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "stage {stage} took {elapsed_ms} ms against a {budget_ms} ms deadline"
            ),
            ServeError::Analysis(e) => write!(f, "analysis failed: {e}"),
            ServeError::GapAbandoned => write!(f, "trace never produced an outcome"),
            ServeError::QueueClosed { stage } => write!(f, "{stage} queue closed"),
            ServeError::Backpressure => write!(f, "ingest queue full (shed policy)"),
            ServeError::Quarantined => write!(f, "victim key is quarantined"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Accumulator(msg) => write!(f, "accumulator: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<ReassemblyError> for ServeError {
    fn from(e: ReassemblyError) -> Self {
        ServeError::Reassembly(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}
