//! The disabled sinks are free: every record call on
//! [`Registry::disabled`] — counters, its trace recorder and its span
//! sink — must return without touching the heap. A counting global
//! allocator proves it — not "fast enough", but **zero allocations**,
//! so un-observed entry points (`solve`, `run`, …) pay one
//! branch per call and nothing else. The same holds for the trace and
//! span sinks of an enabled registry built without them, which is what
//! every registry is unless a binary's export variables turn them on.
//!
//! The allocator counts per thread, so only the recording thread's own
//! allocations are measured: libtest's own threads allocate whenever
//! they like and must not poison the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rcs_obs::trace::ChannelKind;
use rcs_obs::Registry;

/// Forwards to the system allocator, counting every `alloc`/`realloc`
/// on the calling thread.
struct CountingAlloc;

thread_local! {
    /// This thread's allocation count. `const`-initialized and free of
    /// destructors, so touching it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: never panics, even while the thread is being torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The counter, work, histogram and note calls every instrumented
/// layer makes, on the same names each time.
fn record_counters(obs: &Registry, i: u32) {
    obs.inc("solver.calls");
    obs.add("solver.iterations", u64::from(i));
    obs.add("profile.solver.factorizations", 1);
    obs.work("solver.sweeps", u64::from(i));
    obs.record_histogram("solver.rung", &[1, 2, 4], u64::from(i));
    obs.record_histogram_f64("solver.residual", &[1e-9, 1e-6, 1e-3], 1e-7);
    obs.note("workers", 4);
}

/// The trace and span calls every instrumented layer makes.
fn record_trace_and_spans(obs: &Registry, i: u32) {
    let trace = obs.trace();
    let ch = trace.channel("t_chip", ChannelKind::Temperature);
    trace.record(ch, f64::from(i), 45.0);
    trace.record_named("t_bath", ChannelKind::Temperature, 0.0, 30.0);

    // Span recording — enter, nested enter, unbalanced exits, the
    // suppression scope and per-task shards — must all be free too.
    obs.enter("session");
    obs.without_spans(|| {
        obs.enter("rung");
        obs.exit();
    });
    obs.exit();
    obs.exit(); // unbalanced: still a no-op
    let shard = obs.shard();
    assert!(!shard.trace().is_enabled() && !shard.spans().is_enabled());
    shard.enter("item");
    shard.exit();
}

#[test]
fn disabled_sinks_never_touch_the_heap() {
    let obs = Registry::disabled();
    assert!(!obs.is_enabled());
    assert!(!obs.trace().is_enabled());
    assert!(!obs.spans().is_enabled());

    // Channel handles from a disabled recorder are inert sentinels;
    // opening them is part of the hot path and must also be free.
    let chip = obs.trace().channel("t_chip", ChannelKind::Temperature);

    let count = allocations_in(|| {
        for i in 0..1000u32 {
            record_counters(obs, i);
            assert_eq!(
                obs.trace().channel("t_chip", ChannelKind::Temperature),
                chip
            );
            record_trace_and_spans(obs, i);
            assert_eq!(obs.work_units(), 0);
        }
    });
    assert_eq!(count, 0, "disabled telemetry made {count} heap allocations");

    // An enabled registry without a trace or spans pays nothing for
    // them either, and once each name has been touched, nothing for
    // its counters, work paths, histograms and notes.
    let counters_only = Registry::new();
    record_counters(&counters_only, 0);
    let count = allocations_in(|| {
        for i in 0..1000u32 {
            record_counters(&counters_only, i);
            record_trace_and_spans(&counters_only, i);
        }
    });
    assert_eq!(count, 0, "repeat records made {count} heap allocations");
    let snap = counters_only.snapshot();
    assert_eq!(snap.counter("solver.calls"), 1001);
    assert_eq!(snap.counter("profile.solver.sweeps"), 999 * 1000 / 2);
    assert_eq!(snap.histogram("solver.rung").unwrap().total(), 1001);
    assert_eq!(counters_only.notes(), vec![("workers".to_owned(), 4004)]);

    // And nothing was secretly buffered: the golden snapshots are empty.
    assert!(obs.snapshot().is_empty());
    assert!(obs.trace().snapshot().is_empty());
    assert!(obs.spans().snapshot().is_empty());
    assert!(counters_only.trace().snapshot().is_empty());
    assert!(counters_only.spans().snapshot().is_empty());
}
