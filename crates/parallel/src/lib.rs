//! Deterministic parallel execution for the `rcs-sim` workspace.
//!
//! Every quantitative figure in this reproduction is a pure function of
//! a `u64` seed, and the determinism contract (see `DESIGN.md`) says it
//! must stay one at **any** thread count. This crate supplies the
//! execution half of that contract with nothing but `std`:
//!
//! - [`par_map_indexed`] — a scoped thread pool (`std::thread::scope`
//!   workers pulling from a channel work queue) whose results are always
//!   collected in **input order**, so a parallel map is observably
//!   identical to the serial `iter().map()` no matter how the items were
//!   scheduled;
//! - [`fixed_chunks`] — the fixed-size chunk partition the Monte-Carlo
//!   loops use. Chunk boundaries depend only on the workload size, never
//!   on the thread count, so the chunk → RNG-stream mapping (one
//!   [`jump`]ed stream per chunk) is pinned by the seed alone;
//! - [`thread_count`] — worker-count resolution: the `RCS_THREADS`
//!   environment variable when set, otherwise the machine's available
//!   parallelism;
//! - [`par_map_observed`] — the instrumented map: every item runs on
//!   its own [`Registry::shard`] (counters, plus the trace recorder and
//!   span sink when the caller's registry records them) under
//!   [`isolate`] (`catch_unwind`), so a panicking closure yields a
//!   per-item [`WorkerPanic`] `Err` instead of poisoning the pool and
//!   losing the rest of the batch. The shards are absorbed into the
//!   caller's registry in **input order** — counters, then trace
//!   channels, then span trees — and every caught panic lands on the
//!   golden `resilience.worker.panics` counter, so all three channels
//!   are bit-identical at every thread count.
//!
//! The pool is deliberately not work-stealing and not persistent: sweeps
//! in this workspace are dozens-to-thousands of coarse items, where a
//! one-shot scoped pool costs microseconds and keeps every closure
//! borrow-checked against the caller's stack (no `'static` bounds, no
//! `Arc`).
//!
//! [`jump`]: https://prng.di.unimi.it/
//!
//! # Examples
//!
//! ```
//! let squares = rcs_parallel::par_map_indexed(vec![1u64, 2, 3, 4], 2, |i, x| (i, x * x));
//! assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
//! ```

#![warn(missing_docs)]
// Resilience gate: non-test code in this crate must never take the lazy
// panic path — a worker that `unwrap`s poisons a whole pool. Explicit
// `panic!`/`unreachable!` with a message remain available for genuine
// invariant violations.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};

use rcs_obs::Registry;

/// Environment variable overriding the worker count (`thread_count`).
pub const THREADS_ENV: &str = "RCS_THREADS";

/// Resolves the worker count for parallel sweeps.
///
/// Honours `RCS_THREADS` when it parses as a positive integer (the CI
/// matrix pins it to 1 and 4 so both the serial and the pooled path are
/// exercised on every push); otherwise falls back to
/// [`std::thread::available_parallelism`], and to 1 if even that is
/// unavailable. Results never depend on this value — only wall-clock
/// time does.
#[must_use]
pub fn thread_count() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Parses an `RCS_THREADS`-style override; `None` means "not set or
/// invalid, use the machine default".
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Partitions `0..total` into fixed-size chunks of `chunk_size` (the
/// last chunk may be shorter).
///
/// The partition depends only on `total` and `chunk_size` — never on the
/// thread count — which is what lets a chunked Monte-Carlo assign RNG
/// stream `i` to chunk `i` and stay bit-identical from 1 thread to N.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
#[must_use]
pub fn fixed_chunks(total: usize, chunk_size: usize) -> Vec<Range<usize>> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    (0..total)
        .step_by(chunk_size)
        .map(|start| start..(start + chunk_size).min(total))
        .collect()
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in **input order**.
///
/// `f` receives each item's index alongside the item, so stages can
/// label work (e.g. pick RNG stream `i`) without threading state through
/// the closure. With `threads <= 1` (or fewer than two items) the map
/// runs inline on the caller's thread — that path is the reference the
/// pooled path is tested to be bit-identical against.
///
/// Work distribution is a channel work queue: items are enqueued once,
/// workers pull the next `(index, item)` whenever they finish one, and
/// every result is slotted back by index. Scheduling order therefore
/// affects only timing, never the returned `Vec`.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the panic is propagated once
/// all workers have stopped).
pub fn par_map_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    pooled_map(items, threads.min(n), &f).0
}

/// The pooled path shared by [`par_map_indexed`] and
/// [`par_map_observed`]: runs `workers` scoped threads over a channel
/// work queue and returns the input-order results plus how many items
/// each worker happened to process (a scheduling artifact — callers
/// that surface it must treat it as non-golden).
fn pooled_map<T, R, F>(items: Vec<T>, workers: usize, f: &F) -> (Vec<R>, Vec<u64>)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    // Work queue: pre-filled, sender dropped, so `recv` drains the queue
    // and then reports disconnection — no sentinel values needed.
    let (work_tx, work_rx) = mpsc::channel::<(usize, T)>();
    for pair in items.into_iter().enumerate() {
        // The receiver is alive until after this loop, so the send can
        // only fail if the channel itself is broken — unrecoverable.
        if work_tx.send(pair).is_err() {
            unreachable!("work-queue receiver dropped while enqueueing");
        }
    }
    drop(work_tx);
    let work_rx = Mutex::new(work_rx);

    let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let tallies = Mutex::new(vec![0u64; workers]);

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let result_tx = result_tx.clone();
            let work_rx = &work_rx;
            let tallies = &tallies;
            let f = &f;
            scope.spawn(move || {
                let mut processed = 0u64;
                loop {
                    // Hold the lock only while pulling the next item, not
                    // while computing on it. A poisoned lock just means a
                    // sibling worker panicked between lock and unlock;
                    // the queue itself is still consistent, so keep
                    // draining it rather than cascading the failure.
                    let next = work_rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recv();
                    let Ok((index, item)) = next else { break };
                    let result = f(index, item);
                    processed += 1;
                    if result_tx.send((index, result)).is_err() {
                        break;
                    }
                }
                tallies.lock().unwrap_or_else(PoisonError::into_inner)[worker] = processed;
            });
        }
        drop(result_tx);
        for (index, result) in result_rx {
            slots[index] = Some(result);
        }
    });

    let results = slots
        .into_iter()
        .map(|r| r.unwrap_or_else(|| unreachable!("every index produced exactly one result")))
        .collect();
    (
        results,
        tallies.into_inner().unwrap_or_else(PoisonError::into_inner),
    )
}

/// One worker panic caught by [`isolate`] (per item in
/// [`par_map_observed`]), converted into a value: the panic payload's
/// message when it was a string (the overwhelmingly common case —
/// `panic!`, `assert!`), a fixed placeholder otherwise. The message of a deterministic panic
/// is itself deterministic, so it may appear in golden artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Human-readable panic message.
    pub message: String,
}

impl WorkerPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Self { message }
    }
}

impl core::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Runs `f` under `catch_unwind`, converting a panic into a
/// [`WorkerPanic`] value instead of unwinding into the caller. This is
/// the per-attempt containment primitive the query engine's retry
/// ladder uses; [`par_map_observed`] applies it per item.
///
/// `AssertUnwindSafe` is deliberate: callers of this workspace pass
/// closures over plain data (queries, solver inputs) whose partial
/// state is discarded on `Err`, so broken invariants cannot leak.
///
/// # Errors
///
/// Returns the caught panic as a [`WorkerPanic`].
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, WorkerPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| WorkerPanic::from_payload(payload.as_ref()))
}

/// How [`par_map_observed`] names, wraps and counts its items.
#[derive(Clone, Copy)]
pub struct MapOptions<'a> {
    /// Names item `i`. Its trace channels merge under the prefix
    /// `label(i)`; an empty name merges them unprefixed, concatenating
    /// every item's samples into shared channels in input order.
    pub label: &'a (dyn Fn(usize) -> String + Sync),
    /// Wrap every item in a span labelled `label(i)`, spliced under the
    /// caller's open span. The item span is closed even when the item
    /// panics, so absorbed trees stay balanced.
    pub item_spans: bool,
    /// Record the golden map shape (`parallel.maps` / `parallel.tasks`).
    /// A resumable session that counts its shape once at construction
    /// turns this off: it can then map its items in one call or in
    /// several batches and merge the same registry either way.
    pub count_shape: bool,
}

/// [`par_map_indexed`] with telemetry and panic isolation: `f`
/// additionally receives a per-item [`Registry::shard`] of `obs` and
/// runs under [`isolate`]; each shard is [`sealed`] on its worker, and
/// after the map the shards are [`absorbed`] into `obs` in **input
/// order** (item `i` under the trace prefix `label(i)`), each caught
/// panic adding one to the golden `resilience.worker.panics` counter.
///
/// That merge discipline is what keeps the golden channels
/// bit-identical at any `RCS_THREADS`: no matter which worker recorded
/// a shard, or when, the merged counters are the same integer sums in
/// the same order, trace samples replay in the same order, and span
/// trees splice at the work clock serial inline execution would have
/// reached. A panicked item keeps whatever its shard recorded before
/// the panic (a deterministic prefix). Worker count and per-worker item
/// tallies go to the non-golden note channel (`parallel.workers`,
/// `parallel.worker_tasks.max`), because those *are* scheduling.
///
/// [`sealed`]: Registry::seal
/// [`absorbed`]: Registry::absorb_shard
pub fn par_map_observed<T, R, F>(
    items: Vec<T>,
    threads: usize,
    obs: &Registry,
    opts: MapOptions<'_>,
    f: F,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, &Registry) -> R + Sync,
{
    let n = items.len();
    if opts.count_shape {
        obs.inc("parallel.maps");
        obs.add("parallel.tasks", n as u64);
    }

    let worker = |i: usize, item: T| {
        let shard = obs.shard();
        if opts.item_spans {
            shard.enter(&(opts.label)(i));
        }
        let result = isolate(|| f(i, item, &shard));
        if opts.item_spans {
            shard.exit();
        }
        (result, shard.seal())
    };

    let (pairs, tallies) = if threads <= 1 || n <= 1 {
        let pairs = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| worker(i, x))
            .collect();
        (pairs, vec![n as u64])
    } else {
        pooled_map(items, threads.min(n), &worker)
    };

    obs.note("parallel.workers", tallies.len() as u64);
    obs.note(
        "parallel.worker_tasks.max",
        tallies.iter().copied().max().unwrap_or(0),
    );

    let mut results = Vec::with_capacity(n);
    for (i, (result, shard)) in pairs.into_iter().enumerate() {
        obs.absorb_shard(&(opts.label)(i), &shard);
        if result.is_err() {
            obs.inc("resilience.worker.panics");
            obs.work("resilience.worker.panics", 1);
        }
        results.push(result);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 7, 128] {
            let got = par_map_indexed(items.clone(), threads, |i, x| {
                assert_eq!(i, x, "index must match the item's input position");
                x * x
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let results = par_map_indexed((0..1000).collect::<Vec<usize>>(), 8, |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(results, (0..1000).collect::<Vec<usize>>());
    }

    #[test]
    fn borrows_caller_state_without_arc() {
        let offsets = [10usize, 20, 30];
        let got = par_map_indexed(vec![1usize, 2, 3], 3, |i, x| offsets[i] + x);
        assert_eq!(got, vec![11, 22, 33]);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_indexed(empty, 4, |_, x: u8| x).is_empty());
        assert_eq!(par_map_indexed(vec![9u8], 4, |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(
            par_map_indexed(vec![1, 2], 64, |_, x: u64| x + 1),
            vec![2, 3]
        );
    }

    #[test]
    fn nested_maps_compose() {
        // An outer sweep whose stages are themselves parallel — the shape
        // the experiment harness uses (architectures × MC chunks).
        let got = par_map_indexed(vec![3usize, 4, 5], 2, |_, n| {
            par_map_indexed((0..n).collect::<Vec<usize>>(), 2, |_, x| x)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(got, vec![3, 6, 10]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_indexed(vec![0usize, 1, 2, 3], 2, |_, x| {
            assert!(x != 2, "worker boom");
            x
        });
    }

    #[test]
    fn fixed_chunks_cover_the_range_without_overlap() {
        for (total, chunk) in [(0usize, 5usize), (1, 5), (5, 5), (6, 5), (257, 64)] {
            let chunks = fixed_chunks(total, chunk);
            let mut covered = 0;
            for (i, r) in chunks.iter().enumerate() {
                assert_eq!(
                    r.start, covered,
                    "chunk {i} must start where {total}/{chunk} left off"
                );
                assert!(r.len() <= chunk);
                covered = r.end;
            }
            assert_eq!(covered, total);
            // all but the last chunk are full-size
            for r in chunks.iter().rev().skip(1) {
                assert_eq!(r.len(), chunk);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = fixed_chunks(10, 0);
    }

    /// Runs a labelled, spanned map whose items count, trace and open
    /// a span each, with item 4 panicking; returns everything observable.
    fn observed_run(
        threads: usize,
        opts: MapOptions<'_>,
    ) -> (
        Vec<Result<u64, WorkerPanic>>,
        rcs_obs::Snapshot,
        String,
        String,
    ) {
        use rcs_obs::span::SpanSink;
        use rcs_obs::trace::{ChannelKind, TraceRecorder};
        let obs = Registry::new()
            .with_trace(TraceRecorder::with_capacity(16))
            .with_spans(SpanSink::new());
        obs.enter("batch");
        let got = par_map_observed(
            (0..9).collect::<Vec<u64>>(),
            threads,
            &obs,
            opts,
            |i, x, shard| {
                shard.inc("seen");
                shard.enter("solve");
                shard.work("units", 10 + x);
                for step in 0..40u64 {
                    #[allow(clippy::cast_precision_loss)]
                    shard.trace().record_named(
                        "series",
                        ChannelKind::Scalar,
                        step as f64,
                        (x * 100 + step) as f64,
                    );
                }
                shard.exit();
                assert!(x != 4, "chaos {x}");
                i as u64 + x
            },
        );
        obs.exit();
        (
            got,
            obs.snapshot(),
            rcs_obs::trace::render_ndjson(&obs.trace().snapshot()),
            rcs_obs::span::render_ndjson(&obs.spans().snapshot()),
        )
    }

    #[test]
    fn observed_map_is_thread_invariant_on_every_channel() {
        let labelled = |i: usize| format!("item.{i}");
        let unlabelled = |_: usize| String::new();
        for (label, item_spans) in [
            (&labelled as &(dyn Fn(usize) -> String + Sync), true),
            (&unlabelled as &(dyn Fn(usize) -> String + Sync), false),
        ] {
            let opts = MapOptions {
                label,
                item_spans,
                count_shape: true,
            };
            let reference = observed_run(1, opts);
            let (got, snap, trace, spans) = &reference;
            // input order, one slot per item, the panic contained
            for (i, r) in got.iter().enumerate() {
                if i == 4 {
                    assert!(r.as_ref().unwrap_err().message.contains("chaos 4"));
                } else {
                    assert_eq!(*r, Ok(2 * i as u64));
                }
            }
            assert_eq!(snap.counter("seen"), 9, "pre-panic prefix kept");
            assert_eq!(snap.counter("parallel.maps"), 1);
            assert_eq!(snap.counter("parallel.tasks"), 9);
            assert_eq!(snap.counter("resilience.worker.panics"), 1);
            assert_eq!(snap.counter("profile.resilience.worker.panics"), 1);
            if item_spans {
                assert_eq!(trace.matches("\"name\":\"item.").count(), 9);
                assert_eq!(spans.matches("\"label\":\"item.").count(), 9);
            } else {
                // unlabelled shards concatenate into one bounded channel
                assert_eq!(trace.lines().count(), 1);
                assert_eq!(spans.matches("\"label\":\"item.").count(), 0);
            }
            // every item's inner span is spliced under the caller's span,
            // balanced even for the panicked item
            assert_eq!(spans.matches("\"label\":\"solve\"").count(), 9);
            for threads in [2, 4, 7] {
                assert_eq!(
                    observed_run(threads, opts),
                    reference,
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn uncounted_map_split_across_calls_matches_one_counted_map() {
        let label = |_: usize| String::new();
        let work = |_: usize, x: u64, shard: &Registry| {
            shard.add("units", x);
            shard.work("units", x);
            x * 7
        };
        let counted = MapOptions {
            label: &label,
            item_spans: false,
            count_shape: true,
        };
        let obs_a = Registry::new();
        let got_a = par_map_observed((0..24).collect::<Vec<u64>>(), 4, &obs_a, counted, work);
        // Split run: map shape recorded once up front, then the same
        // items in two uncounted batches.
        let obs_b = Registry::new();
        obs_b.inc("parallel.maps");
        obs_b.add("parallel.tasks", 24);
        let mut got_b = Vec::new();
        for batch in [(0u64..9).collect::<Vec<_>>(), (9..24).collect::<Vec<_>>()] {
            let uncounted = MapOptions {
                count_shape: false,
                ..counted
            };
            got_b.extend(par_map_observed(batch, 4, &obs_b, uncounted, work));
        }
        assert_eq!(got_a, got_b);
        assert_eq!(obs_a.snapshot(), obs_b.snapshot());
    }

    #[test]
    fn observed_map_shards_count_under_a_disabled_parent() {
        let label = |_: usize| String::new();
        let opts = MapOptions {
            label: &label,
            item_spans: true,
            count_shape: true,
        };
        let got = par_map_observed(
            vec![1u64, 2, 3],
            2,
            Registry::disabled(),
            opts,
            |_, x, shard| {
                // per-item work budgets read the shard's own counters
                shard.work("units", x);
                assert!(!shard.trace().is_enabled() && !shard.spans().is_enabled());
                shard.work_units()
            },
        );
        assert_eq!(got, vec![Ok(1), Ok(2), Ok(3)]);
        assert!(Registry::disabled().snapshot().is_empty());
    }

    #[test]
    fn observed_map_worker_tallies_are_notes_not_golden() {
        let label = |_: usize| String::new();
        let opts = MapOptions {
            label: &label,
            item_spans: false,
            count_shape: true,
        };
        let obs = Registry::new();
        let _ = par_map_observed((0..20).collect::<Vec<u64>>(), 4, &obs, opts, |_, x, _| x);
        let notes = obs.notes();
        let workers = notes.iter().find(|(k, _)| k == "parallel.workers");
        assert_eq!(workers, Some(&("parallel.workers".to_owned(), 4)));
        // scheduling artifacts never leak into the golden snapshot
        assert_eq!(obs.snapshot().counter("parallel.workers"), 0);
    }

    #[test]
    fn isolate_converts_panics_into_values() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
        let err = isolate(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err.message, "boom 7");
        let err = isolate(|| -> u32 { std::panic::panic_any(13u64) }).unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 16 ")), Some(16));
        assert_eq!(parse_threads(Some("lots")), None);
        assert!(thread_count() >= 1);
    }
}
