#![forbid(unsafe_code)]
#![deny(clippy::pedantic)]
// The runtime is all index arithmetic over f64 payloads: precision-lossy
// casts between counts and cost estimates are deliberate, and the scalar
// SIMD references are *defined* as indexed loops.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::needless_range_loop,
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::module_name_repetitions,
    clippy::inline_always
)]

//! # reveal-par
//!
//! A zero-dependency, **deterministic** data-parallel runtime for the `RevEAL`
//! pipeline, built on [`std::thread::scope`]. The workspace has no crates.io
//! access, so `rayon` is unavailable; the hot paths of a template attack are
//! embarrassingly parallel per trace / per window, and this crate provides
//! exactly the primitives they need.
//!
//! ## Determinism contract
//!
//! Every primitive returns results **in input order**, and every reduction
//! combines partial results in a **fixed order** that depends only on the
//! input length and the caller-chosen chunk size — never on the thread count
//! or on scheduling. Consequently the output of any `reveal-par` call is
//! bit-for-bit identical whether it runs on 1 thread or 64:
//!
//! - [`par_map`] / [`par_map_index`]: each element is a pure function of its
//!   index; results are written back by index.
//! - [`par_map_modeled`] / [`par_map_index_modeled`] /
//!   [`par_map_index_with_scratch`]: identical output, but the worker count
//!   and the claim granularity come from a measured [`cost::CostModel`]
//!   instead of a hard-coded minimum. The plan varies with the machine and
//!   with past observations — scheduling only; results are still placed by
//!   index.
//! - [`par_map_index_with_scratch`] additionally gives each worker one
//!   long-lived scratch value for its entire share of the work (a warm
//!   memo cache, a reusable buffer). The caller promises the scratch is
//!   **value-transparent** — it may change how fast a task runs, never what
//!   the task returns — which keeps the output independent of how indices
//!   happen to be partitioned across workers.
//! - [`par_map_chunks`]: chunk boundaries are `chunk_size`-aligned and
//!   independent of the thread count, so a caller that folds each chunk
//!   left-to-right and combines the chunk results left-to-right gets
//!   floating-point reductions that are reproducible across thread counts.
//!
//! ## Thread-count resolution
//!
//! 1. a process-wide override set by [`with_threads`] (tests, benches),
//! 2. the `REVEAL_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ## Example
//!
//! ```
//! let squares = reveal_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! let partials = reveal_par::par_map_chunks(&squares, 2, |_, c| c.iter().sum::<u64>());
//! assert_eq!(partials, vec![5, 25]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod channel;
pub mod cost;
pub mod simd;

pub use channel::{bounded, OverflowPolicy, QueueMetrics, RecvError, SendError};
pub use cost::{
    hardware_threads, snapshots as cost_snapshots, spawn_cost_ns, CostModel, CostSnapshot, Plan,
};

/// Process-wide thread-count override (0 = unset). Written only under
/// [`OVERRIDE_LOCK`] by [`with_threads`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] callers so concurrent tests cannot observe
/// each other's override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The number of worker threads a parallel call will use: the
/// [`with_threads`] override if active, else `REVEAL_THREADS`, else
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn max_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("REVEAL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs `body` with the thread count pinned to `threads`, restoring the
/// previous setting afterwards. Callers are serialized process-wide, so two
/// concurrent `with_threads` blocks (e.g. parallel tests) cannot leak their
/// setting into each other. Results are unchanged by construction — this
/// only controls how much hardware the work is spread over.
pub fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
    let guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let previous = THREAD_OVERRIDE.swap(threads.max(1), Ordering::Relaxed);
    let result = body();
    THREAD_OVERRIDE.store(previous, Ordering::Relaxed);
    drop(guard);
    result
}

/// Derives an independent 64-bit seed from a master seed and a task index
/// (`SplitMix64` finalizer over the golden-ratio sequence). Used to give every
/// parallel task its own RNG stream: task `i`'s randomness depends only on
/// `(master, i)`, never on how much randomness other tasks consumed — the
/// root fix for order-dependent collection.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Core executor: evaluates `task(0..count)` on up to `threads` scoped
/// workers and returns the results in index order, along with the final
/// scratch value each worker carried.
///
/// Work is claimed dynamically — an atomic cursor advanced `claim_chunk`
/// indices at a time — but since every task must be a pure function of its
/// index (the scratch is value-transparent by the caller's contract) and
/// results are placed by index, neither scheduling nor the claim granularity
/// can affect the output.
///
/// Each worker builds its scratch with `init` exactly once and keeps it for
/// every index it claims; the serial path (`threads <= 1`) likewise uses one
/// scratch for the whole loop, so "one worker" and "the calling thread"
/// behave identically.
fn run_indexed_stateful<St: Send, R: Send>(
    count: usize,
    threads: usize,
    claim_chunk: usize,
    init: &(impl Fn() -> St + Sync),
    task: &(impl Fn(&mut St, usize) -> R + Sync),
) -> (Vec<R>, Vec<St>) {
    let claim_chunk = claim_chunk.max(1);
    if threads <= 1 || count <= 1 {
        let mut scratch = init();
        let results = (0..count).map(|i| task(&mut scratch, i)).collect();
        return (results, vec![scratch]);
    }
    let cursor = AtomicUsize::new(0);
    let worker_outputs: Vec<(Vec<(usize, R)>, St)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut produced = Vec::new();
                    loop {
                        let start = cursor.fetch_add(claim_chunk, Ordering::Relaxed);
                        if start >= count {
                            break;
                        }
                        let end = start.saturating_add(claim_chunk).min(count);
                        for index in start..end {
                            produced.push((index, task(&mut scratch, index)));
                        }
                    }
                    (produced, scratch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    let mut scratches = Vec::with_capacity(worker_outputs.len());
    for (bucket, scratch) in worker_outputs {
        for (index, value) in bucket {
            slots[index] = Some(value);
        }
        scratches.push(scratch);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect();
    (results, scratches)
}

/// Stateless single-claim executor (the pre-cost-model shape), the engine
/// behind the plain primitives.
fn run_indexed<R: Send>(count: usize, task: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
    let threads = max_threads().min(count);
    run_indexed_stateful(count, threads, 1, &|| (), &|(): &mut (), i| task(i)).0
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Intended for coarse tasks (a device capture, a trace segmentation, a
/// candidate's full correlation sweep); for element counts in the millions
/// prefer [`par_map_chunks`] to amortize the per-task claim, and for cheap
/// per-item work prefer [`par_map_modeled`] so tiny batches skip the thread
/// spawn entirely.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    run_indexed(items.len(), &|i| f(&items[i]))
}

/// Maps `f` over `0..count` in parallel, returning results in index order.
pub fn par_map_index<R: Send>(count: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    run_indexed(count, &f)
}

/// [`par_map_index`] scheduled by a measured [`CostModel`]: the model sizes
/// the worker count and the claim chunk from `count`, `units_per_item`
/// (the caller's relative work estimate per item — e.g. `dim²` for a matrix
/// row) and its observed nanoseconds-per-unit; the call's own wall time is
/// fed back afterwards. Output is bit-identical to [`par_map_index`] for any
/// thread count, plan, or timing noise.
pub fn par_map_index_modeled<R: Send>(
    count: usize,
    model: &'static CostModel,
    units_per_item: u64,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let plan = model.plan(count, units_per_item);
    let start = Instant::now();
    let results =
        run_indexed_stateful(count, plan.workers, plan.claim_chunk, &|| (), &|(), i| f(i)).0;
    model.record(count, units_per_item, start.elapsed());
    results
}

/// [`par_map`] scheduled by a measured [`CostModel`] (see
/// [`par_map_index_modeled`]).
pub fn par_map_modeled<T: Sync, R: Send>(
    items: &[T],
    model: &'static CostModel,
    units_per_item: u64,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    par_map_index_modeled(items.len(), model, units_per_item, |i| f(&items[i]))
}

/// [`par_map_index_modeled`] where every worker owns one long-lived scratch
/// value for its entire share of the work, built by `init` exactly once per
/// worker. Returns the results in index order plus each worker's final
/// scratch (in worker order) for observability — cache hit counters, buffer
/// high-water marks.
///
/// ## Caller contract: the scratch must be value-transparent
///
/// `task(&mut scratch, i)` must return the same value whatever state the
/// scratch is in — the scratch may only make a task *faster* (memoized
/// noiseless templates, a pre-grown buffer), never change its result. Under
/// that contract the output is bit-identical for any thread count and any
/// partition of indices across workers, preserving the crate's determinism
/// guarantee. The scratch contents themselves are partition-dependent and
/// must only feed diagnostics.
pub fn par_map_index_with_scratch<St: Send, R: Send>(
    count: usize,
    model: &'static CostModel,
    units_per_item: u64,
    init: impl Fn() -> St + Sync,
    task: impl Fn(&mut St, usize) -> R + Sync,
) -> (Vec<R>, Vec<St>) {
    let plan = model.plan(count, units_per_item);
    let start = Instant::now();
    let out = run_indexed_stateful(count, plan.workers, plan.claim_chunk, &init, &task);
    model.record(count, units_per_item, start.elapsed());
    out
}

/// Splits `items` into `chunk_size`-aligned chunks (the last may be short),
/// maps `f(chunk_index, chunk)` over them in parallel, and returns one result
/// per chunk in chunk order. Chunk boundaries depend only on `items.len()`
/// and `chunk_size`, never on the thread count.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn par_map_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let chunk_count = items.len().div_ceil(chunk_size);
    run_indexed(chunk_count, &|c| {
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(items.len());
        f(c, &items[lo..hi])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || par_map(&items, |&x| x * 3 + 1));
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_index_matches_serial() {
        for threads in [1, 4] {
            let out = with_threads(threads, || par_map_index(257, |i| i * i));
            assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// Folds each chunk left-to-right, then the chunk results left-to-right.
    fn chunked_sum(items: &[f64], chunk: usize) -> f64 {
        par_map_chunks(items, chunk, |_, c| c.iter().sum::<f64>())
            .into_iter()
            .sum()
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        let items: Vec<f64> = (0..10_000).map(|i| f64::from(i).sin()).collect();
        let reference = with_threads(1, || chunked_sum(&items, 512));
        for threads in [2, 3, 5, 8] {
            let sum = with_threads(threads, || chunked_sum(&items, 512));
            // Bit-for-bit, not approximately: the combining order is fixed.
            assert_eq!(sum.to_bits(), reference.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn map_chunks_covers_everything_once() {
        let items: Vec<usize> = (0..103).collect();
        let chunks = with_threads(4, || {
            par_map_chunks(&items, 10, |c, chunk| (c, chunk.to_vec()))
        });
        assert_eq!(chunks.len(), 11);
        let mut rebuilt = Vec::new();
        for (i, (c, chunk)) in chunks.into_iter().enumerate() {
            assert_eq!(c, i);
            rebuilt.extend(chunk);
        }
        assert_eq!(rebuilt, items);
    }

    #[test]
    fn modeled_maps_match_serial() {
        static MODEL: CostModel = CostModel::new("par.test.modeled", 50.0);
        let items: Vec<u64> = (0..777).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 13 + 5).collect();
        for threads in [1, 2, 4, 8] {
            // Repeat so the EWMA warms up and plans change between calls —
            // the output must not.
            for _ in 0..3 {
                let out = with_threads(threads, || {
                    par_map_modeled(&items, &MODEL, 1, |&x| x * 13 + 5)
                });
                assert_eq!(out, expected, "threads {threads}");
                let idx =
                    with_threads(threads, || par_map_index_modeled(258, &MODEL, 1, |i| i * i));
                assert_eq!(idx, (0..258).map(|i| i * i).collect::<Vec<_>>());
            }
        }
        let snap = MODEL.snapshot();
        assert!(snap.calls > 0);
        assert!(snap.measured_ns_per_unit.is_some());
    }

    #[test]
    fn scratch_workers_initialize_once_and_results_stay_ordered() {
        static MODEL: CostModel = CostModel::new("par.test.scratch", 10_000.0);
        for threads in [1, 2, 4] {
            let (results, scratches) = with_threads(threads, || {
                par_map_index_with_scratch(
                    100,
                    &MODEL,
                    1,
                    || 0u64, // per-worker counter: how many tasks it ran
                    |seen, i| {
                        *seen += 1;
                        i * 2
                    },
                )
            });
            assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
            // Every index ran on exactly one worker's scratch.
            assert_eq!(scratches.iter().sum::<u64>(), 100, "threads {threads}");
            assert!(!scratches.is_empty() && scratches.len() <= threads.max(1));
            if threads == 1 {
                // Serial path: one scratch for the full collection.
                assert_eq!(scratches, vec![100]);
            }
        }
    }

    #[test]
    fn scratch_path_is_value_transparent_across_thread_counts() {
        static MODEL: CostModel = CostModel::new("par.test.transparent", 20_000.0);
        // A memo-like scratch: caches f(i) but never changes the result.
        let run = |threads: usize| {
            with_threads(threads, || {
                par_map_index_with_scratch(
                    64,
                    &MODEL,
                    1,
                    std::collections::HashMap::<usize, u64>::new,
                    |memo, i| *memo.entry(i % 7).or_insert_with(|| (i % 7) as u64 * 3),
                )
                .0
            })
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map_index(0, |i| i), Vec::<usize>::new());
        assert!(par_map_chunks(&[] as &[i64], 8, |_, c| c.len()).is_empty());
    }

    #[test]
    fn derived_seeds_decorrelate_tasks() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collisions in derived seeds");
        // Different masters give different streams.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn with_threads_restores_previous_setting() {
        let outer = max_threads();
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            // Nesting is allowed; the inner value wins, then unwinds.
        });
        assert_eq!(max_threads(), outer);
    }

    proptest! {
        #[test]
        fn prop_par_map_equals_serial(
            items in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
            threads in 1usize..9,
        ) {
            let serial: Vec<i64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
            let parallel = with_threads(threads, || par_map(&items, |&x| x.wrapping_mul(31) ^ 7));
            prop_assert_eq!(parallel, serial);
        }

        #[test]
        fn prop_par_map_chunks_fold_equals_serial_fold(
            items in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
            threads in 1usize..9,
            chunk in 1usize..64,
        ) {
            let serial = items.iter().fold(0i64, |a, &x| a.wrapping_add(x));
            let parallel = with_threads(threads, || {
                par_map_chunks(&items, chunk, |_, c| {
                    c.iter().fold(0i64, |a, &x| a.wrapping_add(x))
                })
                .into_iter()
                .fold(0i64, i64::wrapping_add)
            });
            prop_assert_eq!(parallel, serial);
        }
    }
}
