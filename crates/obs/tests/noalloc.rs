//! The disabled sinks are free: every record call on
//! [`Registry::disabled`] — counters, its trace recorder and its span
//! sink — must return without touching the heap. A counting global
//! allocator proves it — not "fast enough", but **zero allocations**,
//! so un-observed entry points (`solve`, `run`, …) pay one
//! branch per call and nothing else. The same holds for the trace and
//! span sinks of an enabled registry built without them, which is what
//! every registry is unless a binary's export variables turn them on.
//!
//! Everything lives in one `#[test]` so no sibling test can allocate
//! concurrently and poison the counter delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rcs_obs::trace::ChannelKind;
use rcs_obs::Registry;

/// Forwards to the system allocator, counting every `alloc`/`realloc`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
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
            obs.inc("solver.calls");
            obs.add("solver.iterations", u64::from(i));
            obs.work("solver.sweeps", u64::from(i));
            obs.record_histogram("solver.rung", &[1, 2, 4], u64::from(i));
            obs.record_histogram_f64("solver.residual", &[1e-9, 1e-6, 1e-3], 1e-7);
            obs.note("workers", 4);
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
    // them either (its counters allocate, so measure the sinks alone).
    let counters_only = Registry::new();
    let count = allocations_in(|| {
        for i in 0..1000u32 {
            record_trace_and_spans(&counters_only, i);
        }
    });
    assert_eq!(count, 0, "trace/spans off made {count} heap allocations");

    // And nothing was secretly buffered: the golden snapshots are empty.
    assert!(obs.snapshot().is_empty());
    assert!(obs.trace().snapshot().is_empty());
    assert!(obs.spans().snapshot().is_empty());
    assert!(counters_only.trace().snapshot().is_empty());
    assert!(counters_only.spans().snapshot().is_empty());
}
