//! Deterministic telemetry for the `rcs-sim` workspace.
//!
//! Every quantitative figure in this reproduction is a pure function of
//! a `u64` seed at any `RCS_THREADS` setting — and a solver can still
//! silently drift to a different damping rung or iteration count while
//! its *outputs* stay inside golden tolerances. This crate makes the
//! solvers' behaviour itself testable by splitting telemetry into two
//! channels with different contracts:
//!
//! - the **golden channel** — monotonic [`Registry::add`] counters and
//!   fixed-bucket [`Registry::record_histogram`] histograms of integer
//!   observations (iteration counts, damping-rung indices, rejection
//!   counts, residual decades). Everything here must be **bit-identical
//!   at every thread count**: counter merges are integer additions,
//!   which commute, and parallel stages collect per-task shards and
//!   [`Registry::absorb_shard`] them in **input order**, so scheduling
//!   can never reorder an observable. [`Registry::snapshot`] captures
//!   only this channel, and the counter-asserting regression tests
//!   compare snapshots directly.
//! - the **non-golden channel** — scheduling-dependent
//!   [`Registry::note`] gauges (worker counts, per-worker task
//!   tallies). These appear in the run manifest for operators but are
//!   excluded from [`Snapshot`] equality and from the CI counter diff,
//!   because they legitimately vary run to run.
//!
//! # Recording is allocation-free
//!
//! Every record call takes its name as a compile-time `&'static str`,
//! and the registry keys its maps by that borrowed name, so a repeat
//! hit on an enabled registry never touches the heap; only the first
//! touch of a name inserts an entry. Work paths are stored as given:
//! [`Registry::work`] never builds a `profile.<path>` string, the
//! prefix is applied when [`Registry::snapshot`] renders the counters
//! in sorted name order. Owned names appear only when a
//! [`Snapshot`] is merged back in with [`Registry::absorb`] (a restored
//! checkpoint), and a sealed [`Registry::shard`] hands its maps over
//! whole, without renaming through a `Snapshot`.
//!
//! # One telemetry context
//!
//! A [`Registry`] is the only thing instrumented code is handed. Besides
//! its counters it carries the two other golden sinks: a
//! [`trace::TraceRecorder`] for deterministic sample series and a
//! [`span::SpanSink`] for the work-unit span tree. Both are **off**
//! unless the registry is built with them — [`Registry::from_env`]
//! turns each on when its export variable (`RCS_OBS_TRACE`,
//! `RCS_OBS_SPANS`) names a file, which is how every binary builds its
//! registry. An instrumented operation therefore has one entry point
//! taking `&Registry`, and the sinks reach every layer the registry
//! reaches. A leaf whose spans must stay out of the tree runs under
//! [`Registry::without_spans`].
//!
//! The [`manifest`] module renders a registry into the NDJSON run
//! manifest every experiment binary emits (seed, thread count, model
//! version, counter snapshot).
//!
//! # Examples
//!
//! ```
//! use rcs_obs::span::SpanSink;
//! use rcs_obs::Registry;
//!
//! let obs = Registry::new().with_spans(SpanSink::new());
//! obs.inc("solver.calls");
//! obs.record_histogram("solver.iterations", &[5, 10, 50], 7);
//! obs.enter("solver.total");
//! obs.work("solver.sweeps", 3);
//! obs.exit();
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("solver.calls"), 1);
//! assert_eq!(snap.histogram("solver.iterations").unwrap().counts, [0, 1, 0, 0]);
//! assert_eq!(obs.spans().snapshot().nodes[0].total(), 3);
//! ```

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

use span::SpanSink;
use trace::TraceRecorder;

pub mod manifest;
pub mod profile;
pub mod report;
pub mod span;
pub mod trace;

/// A counter, histogram or work-path name: a borrowed compile-time
/// literal on every record call, owned only when it arrives at run
/// time through [`Registry::absorb`] (a restored checkpoint snapshot).
type Name = Cow<'static, str>;

/// Aggregated state behind the registry mutex. `BTreeMap` keeps every
/// iteration (snapshots, manifests) in sorted name order, so rendered
/// telemetry never depends on insertion order. A repeat hit on a name
/// finds its entry without touching the heap.
#[derive(Debug, Clone, Default)]
struct Inner {
    /// Golden: monotonic counters outside the `profile.` namespace.
    counters: BTreeMap<Name, u64>,
    /// Golden: work units keyed by profile path, without the
    /// `profile.` prefix, which [`Registry::snapshot`] applies. Every
    /// `profile.*` value lives here, whichever route recorded it.
    work: BTreeMap<Name, u64>,
    /// Golden: fixed-bucket histograms.
    histograms: BTreeMap<Name, HistogramSnapshot>,
    /// Golden: fixed-edge float histograms.
    fhistograms: BTreeMap<Name, FHistogramSnapshot>,
    /// Non-golden: scheduling-dependent gauges.
    notes: BTreeMap<&'static str, u64>,
    /// Golden: the sum of `work` — the deterministic work clock behind
    /// [`Registry::work_units`], O(1) to read, which the span sink does
    /// on every enter/exit. A clock-only shard keeps this alone.
    work_units: u64,
}

impl Inner {
    /// The golden state a snapshot describes, with every name owned.
    fn restored(snapshot: &Snapshot) -> Self {
        let mut inner = Self::default();
        for &(ref name, v) in &snapshot.counters {
            match name.strip_prefix(profile::PREFIX) {
                Some(path) => {
                    inner.work_units += v;
                    *inner.work.entry(Cow::Owned(path.to_owned())).or_insert(0) += v;
                }
                None => *inner.counters.entry(Cow::Owned(name.clone())).or_insert(0) += v,
            }
        }
        for (name, hist) in &snapshot.histograms {
            inner.add_histogram(&Cow::Owned(name.clone()), hist);
        }
        for (name, hist) in &snapshot.fhistograms {
            inner.add_fhistogram(&Cow::Owned(name.clone()), hist);
        }
        inner
    }

    /// Adds `other`'s golden state into this one: counters and work
    /// add, histogram bucket counts add. Notes stay where they were
    /// recorded.
    ///
    /// # Panics
    ///
    /// Panics if a histogram name collides with different bounds.
    fn merge(&mut self, other: &Inner) {
        self.work_units += other.work_units;
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (path, v) in &other.work {
            *self.work.entry(path.clone()).or_insert(0) += v;
        }
        for (name, hist) in &other.histograms {
            self.add_histogram(name, hist);
        }
        for (name, hist) in &other.fhistograms {
            self.add_fhistogram(name, hist);
        }
    }

    /// Adds `hist`'s bucket counts into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with different bounds.
    fn add_histogram(&mut self, name: &Name, hist: &HistogramSnapshot) {
        let target = self
            .histograms
            .entry(name.clone())
            .or_insert_with(|| HistogramSnapshot {
                bounds: hist.bounds.clone(),
                counts: vec![0; hist.counts.len()],
            });
        assert_eq!(
            target.bounds, hist.bounds,
            "histogram {name} absorbed with different bounds"
        );
        for (t, s) in target.counts.iter_mut().zip(&hist.counts) {
            *t += s;
        }
    }

    /// Adds `hist`'s bucket counts into the float histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with different edges.
    fn add_fhistogram(&mut self, name: &Name, hist: &FHistogramSnapshot) {
        let target = self
            .fhistograms
            .entry(name.clone())
            .or_insert_with(|| FHistogramSnapshot {
                edges: hist.edges.clone(),
                counts: vec![0; hist.counts.len()],
            });
        assert!(
            same_edges(&target.edges, &hist.edges),
            "float histogram {name} absorbed with different edges"
        );
        for (t, s) in target.counts.iter_mut().zip(&hist.counts) {
            *t += s;
        }
    }
}

/// Bitwise equality of two float-histogram edge sets.
fn same_edges(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What a registry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing: the [`Registry::disabled`] sink.
    Off,
    /// Only the work clock: a shard of a registry that does not record
    /// counters, kept so per-task work budgets still read it.
    Clock,
    /// Counters, histograms, notes and the work clock.
    On,
}

/// The telemetry context: golden counters and histograms, non-golden
/// notes, and the trace recorder and span sink riding along.
///
/// `Registry` is `Sync`: concurrent workers may record into one shared
/// registry directly (golden merges are commutative integer additions),
/// or stages may give each task its own [`shard`] and [`absorb_shard`]
/// the shards in input order — the contract the parallel layer uses.
///
/// [`shard`]: Registry::shard
/// [`absorb_shard`]: Registry::absorb_shard
#[derive(Debug)]
pub struct Registry {
    mode: Mode,
    inner: Mutex<Inner>,
    trace: TraceRecorder,
    spans: SpanSink,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared disabled sink behind [`Registry::disabled`].
static DISABLED: Registry = Registry {
    mode: Mode::Off,
    inner: Mutex::new(Inner {
        counters: BTreeMap::new(),
        work: BTreeMap::new(),
        histograms: BTreeMap::new(),
        fhistograms: BTreeMap::new(),
        notes: BTreeMap::new(),
        work_units: 0,
    }),
    trace: TraceRecorder::off(),
    spans: SpanSink::off(),
};

impl Registry {
    /// Creates an empty registry recording counters, histograms and
    /// notes; its trace recorder and span sink are off (see
    /// [`Registry::with_trace`] / [`Registry::with_spans`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            mode: Mode::On,
            inner: Mutex::new(Inner::default()),
            trace: TraceRecorder::off(),
            spans: SpanSink::off(),
        }
    }

    /// [`Registry::new`] with the trace recorder on when
    /// [`trace::TRACE_ENV`] names an export file and the span sink on
    /// when [`span::SPANS_ENV`] does — the registry every binary builds,
    /// so a sink costs nothing unless the run asked for its file.
    #[must_use]
    pub fn from_env() -> Self {
        let named = |var: &str| std::env::var(var).is_ok_and(|path| !path.is_empty());
        let mut obs = Self::new();
        if named(trace::TRACE_ENV) {
            obs = obs.with_trace(TraceRecorder::new());
        }
        if named(span::SPANS_ENV) {
            obs = obs.with_spans(SpanSink::new());
        }
        obs
    }

    /// Replaces the trace recorder (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Replaces the span sink (builder style).
    #[must_use]
    pub fn with_spans(mut self, spans: SpanSink) -> Self {
        self.spans = spans;
        self
    }

    /// The shared no-op context: counters, work clock, trace and spans
    /// all off, so un-observed entry points (`solve`, `run`, …) pay one
    /// branch per record call and nothing else. Its [`Registry::shard`]s
    /// keep only their work clock.
    #[must_use]
    pub fn disabled() -> &'static Registry {
        &DISABLED
    }

    /// `true` when this registry records counters, histograms and
    /// notes: `false` for the [`Registry::disabled`] sink and for every
    /// shard of a registry that does not record them.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.mode == Mode::On
    }

    /// The trace recorder riding on this registry.
    #[must_use]
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// The span sink riding on this registry.
    #[must_use]
    pub fn spans(&self) -> &SpanSink {
        &self.spans
    }

    /// Opens a span labelled `label` on this registry's span sink,
    /// timestamped with this registry's work clock.
    pub fn enter(&self, label: &str) {
        self.spans.enter(label, self);
    }

    /// Closes the innermost open span (see [`Registry::enter`]).
    pub fn exit(&self) {
        self.spans.exit(self);
    }

    /// Runs `f` with span recording suppressed: spans it opens are
    /// invisible (their work still lands on the enclosing span), while
    /// counters and traces record as usual. Solvers whose callers
    /// attribute their work to one coarser span use this to keep their
    /// own ladder spans out of the tree. One branch when spans are off;
    /// a panic inside `f` still restores the span stack.
    pub fn without_spans<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.spans.is_enabled() {
            return f();
        }
        let _restore = self.spans.suppress();
        f()
    }

    /// A fresh per-task registry for a parallel stage. It records
    /// counters exactly when this registry does; otherwise it keeps
    /// only its work clock, which per-task work budgets read even under
    /// a disabled parent. Its trace recorder and span sink are on
    /// exactly when this registry's are. Merge it back with
    /// [`Registry::absorb_shard`].
    #[must_use]
    pub fn shard(&self) -> Registry {
        Self {
            mode: if self.mode == Mode::On {
                Mode::On
            } else {
                Mode::Clock
            },
            inner: Mutex::new(Inner::default()),
            trace: self.trace.shard(),
            spans: self.spans.shard(),
        }
    }

    /// Finishes a [`Registry::shard`] for [`Registry::absorb_shard`],
    /// moving its recorded state out. Call it on the worker that
    /// recorded the shard, so the trace and span copies are made in
    /// parallel and the shard itself is freed there.
    #[must_use]
    pub fn seal(self) -> ShardState {
        ShardState {
            trace: self.trace.snapshot(),
            spans: self.spans.snapshot(),
            inner: self
                .inner
                .into_inner()
                .expect("telemetry registry poisoned"),
        }
    }

    /// Merges a sealed shard: its golden counters, then its retained
    /// trace samples replayed through this registry's bounded
    /// decimation under the channel names `{prefix}/{name}`
    /// (unprefixed when `prefix` is empty), then its span tree spliced
    /// under the currently open span at the work clock the counters
    /// started from. Called once per task in **input order**, this is
    /// bit-identical to running the tasks inline.
    ///
    /// # Panics
    ///
    /// Panics if a histogram name collides with different bounds.
    pub fn absorb_shard(&self, prefix: &str, shard: &ShardState) {
        let base = self.work_units();
        self.merge(&shard.inner);
        self.trace.absorb_prefixed(prefix, &shard.trace);
        self.spans.absorb_at(base, &shard.spans);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("telemetry registry poisoned")
    }

    /// Adds `n` to the golden counter `name` (creating it at zero). A
    /// `profile.<path>` name is the same as [`Registry::work`] on
    /// `<path>`.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(path) = name.strip_prefix(profile::PREFIX) {
            self.work(path, n);
        } else if self.mode == Mode::On {
            *self.lock().counters.entry(Cow::Borrowed(name)).or_insert(0) += n;
        }
    }

    /// Adds `units` of deterministic work under the dot-separated
    /// profile path `path` (rendered as the golden counter
    /// `profile.<path>`) and advances the work clock by as much. Work
    /// units must be pure functions of the workload — iteration counts,
    /// trial counts, step counts — never wall-clock readings.
    pub fn work(&self, path: &'static str, units: u64) {
        if self.mode == Mode::Off {
            return;
        }
        let mut inner = self.lock();
        inner.work_units += units;
        if self.mode == Mode::On {
            *inner.work.entry(Cow::Borrowed(path)).or_insert(0) += units;
        }
    }

    /// The deterministic work clock: the sum of every `profile.*`
    /// counter recorded into (or absorbed by) this registry so far.
    /// Work units are pure functions of the workload — never wall clock
    /// — so two runs of the same workload read identical clocks at
    /// every `RCS_THREADS`. The disabled sink always reads 0.
    #[must_use]
    pub fn work_units(&self) -> u64 {
        if self.mode == Mode::Off {
            return 0;
        }
        self.lock().work_units
    }

    /// Increments the golden counter `name` by one.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Records one observation into the fixed-bucket histogram `name`.
    ///
    /// `bounds` are inclusive upper bucket bounds in ascending order; an
    /// observation lands in the first bucket whose bound it does not
    /// exceed, or in the implicit overflow bucket past the last bound
    /// (so the histogram has `bounds.len() + 1` counts). The bounds are
    /// part of the histogram's identity: they are fixed at first use and
    /// every later call must pass the same slice.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending, or if the
    /// histogram was first recorded with different bounds.
    pub fn record_histogram(&self, name: &'static str, bounds: &[u64], value: u64) {
        if self.mode != Mode::On {
            return;
        }
        assert!(!bounds.is_empty(), "histogram {name} needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly ascending"
        );
        let mut inner = self.lock();
        let hist = inner
            .histograms
            .entry(Cow::Borrowed(name))
            .or_insert_with(|| HistogramSnapshot {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
            });
        assert_eq!(
            hist.bounds, bounds,
            "histogram {name} re-recorded with different bounds"
        );
        let bucket = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        hist.counts[bucket] += 1;
    }

    /// Records one float observation into the fixed-edge histogram
    /// `name`, hardened against degenerate inputs: every float —
    /// including zero, negative values, `±inf` and `NaN` — lands in a
    /// bucket and nothing panics on a value.
    ///
    /// `edges` are finite, strictly ascending bucket edges. The
    /// histogram has `edges.len() + 1` counts with **explicit
    /// underflow and overflow buckets**: `counts[0]` holds values below
    /// `edges[0]` (including `-inf`), `counts[i]` holds
    /// `edges[i-1] <= v < edges[i]`, and the last bucket holds values
    /// at or above the final edge (including `+inf`). `NaN` counts as
    /// divergence and lands in the overflow bucket. Like
    /// [`Registry::record_histogram`], the edges are fixed at first use
    /// (compared bitwise).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, non-finite, or not strictly
    /// ascending, or if the histogram was first recorded with different
    /// edges — edge sets are compile-time constants, never data.
    pub fn record_histogram_f64(&self, name: &'static str, edges: &[f64], value: f64) {
        if self.mode != Mode::On {
            return;
        }
        assert!(!edges.is_empty(), "float histogram {name} needs edges");
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "float histogram {name} edges must be finite"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "float histogram {name} edges must be strictly ascending"
        );
        let mut inner = self.lock();
        let hist = inner
            .fhistograms
            .entry(Cow::Borrowed(name))
            .or_insert_with(|| FHistogramSnapshot {
                edges: edges.to_vec(),
                counts: vec![0; edges.len() + 1],
            });
        assert!(
            same_edges(&hist.edges, edges),
            "float histogram {name} re-recorded with different edges"
        );
        let bucket = if value.is_nan() {
            edges.len() // divergence: explicit overflow bucket
        } else {
            edges.partition_point(|&e| e <= value)
        };
        hist.counts[bucket] += 1;
    }

    /// Adds `n` to the **non-golden** gauge `name` — for values that
    /// legitimately depend on scheduling or the machine (worker counts,
    /// per-worker task tallies). Notes appear in the manifest but never
    /// in [`Registry::snapshot`].
    pub fn note(&self, name: &'static str, n: u64) {
        if self.mode != Mode::On {
            return;
        }
        *self.lock().notes.entry(name).or_insert(0) += n;
    }

    /// Captures the golden channel: all counters and histograms, in
    /// sorted name order, with work paths rendered as `profile.<path>`
    /// counters. Two runs of the same seeded workload must produce `==`
    /// snapshots at any thread count.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        fn owned<V: Clone>((name, v): (&Name, &V)) -> (String, V) {
            (name.to_string(), v.clone())
        }
        let inner = self.lock();
        let mut counters: Vec<_> = inner.counters.iter().map(owned).collect();
        // no other counter falls between two `profile.*` names, so the
        // sorted work block splices in at one position
        let at = counters.partition_point(|(name, _)| name.as_str() < profile::PREFIX);
        counters.splice(
            at..at,
            inner
                .work
                .iter()
                .map(|(path, &v)| (format!("{}{path}", profile::PREFIX), v)),
        );
        Snapshot {
            counters,
            histograms: inner.histograms.iter().map(owned).collect(),
            fhistograms: inner.fhistograms.iter().map(owned).collect(),
        }
    }

    /// Captures the non-golden note gauges, in sorted name order.
    #[must_use]
    pub fn notes(&self) -> Vec<(String, u64)> {
        self.lock()
            .notes
            .iter()
            .map(|(&name, &v)| (name.to_owned(), v))
            .collect()
    }

    /// Merges a golden snapshot into this registry: counters add,
    /// histogram bucket counts add (bounds must match). This is how a
    /// restored checkpoint rejoins a live registry; its names are the
    /// only ones a registry ever owns.
    ///
    /// # Panics
    ///
    /// Panics if a histogram name collides with different bounds.
    pub fn absorb(&self, snapshot: &Snapshot) {
        if self.mode != Mode::Off {
            self.merge(&Inner::restored(snapshot));
        }
    }

    /// Adds recorded state into this registry as far as its mode
    /// records it.
    fn merge(&self, other: &Inner) {
        match self.mode {
            Mode::Off => {}
            Mode::Clock => self.lock().work_units += other.work_units,
            Mode::On => self.lock().merge(other),
        }
    }
}

/// A finished shard's telemetry — counters, trace channels and span
/// tree — as captured by [`Registry::seal`] and merged by
/// [`Registry::absorb_shard`].
#[derive(Debug, Clone, Default)]
pub struct ShardState {
    inner: Inner,
    trace: trace::TraceSnapshot,
    spans: span::SpanState,
}

/// One histogram's state: inclusive upper bucket bounds plus counts
/// (one extra overflow bucket past the last bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One float histogram's state: finite, strictly ascending bucket
/// edges plus counts with explicit underflow (`counts[0]`) and
/// overflow (`counts[edges.len()]`) buckets — see
/// [`Registry::record_histogram_f64`].
///
/// Equality compares edges **bitwise** (`f64::to_bits`): edges are
/// compile-time constants, so bitwise equality is exact and keeps
/// [`Snapshot`] `Eq`.
#[derive(Debug, Clone)]
pub struct FHistogramSnapshot {
    /// Finite bucket edges, strictly ascending.
    pub edges: Vec<f64>,
    /// Per-bucket counts; `counts.len() == edges.len() + 1`.
    pub counts: Vec<u64>,
}

impl PartialEq for FHistogramSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts && same_edges(&self.edges, &other.edges)
    }
}

impl Eq for FHistogramSnapshot {}

impl FHistogramSnapshot {
    /// Total observations across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The explicit underflow bucket (`value < edges[0]`, incl. `-inf`).
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.counts[0]
    }

    /// The explicit overflow bucket (`value >= last edge`, incl. `+inf`
    /// and `NaN`).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("counts never empty")
    }
}

/// A captured golden channel: the thing the regression tests compare
/// and the manifest serializes. Entries are in sorted name order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, float histogram)` pairs.
    pub fhistograms: Vec<(String, FHistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, zero if it was never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram `name`, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// The float histogram `name`, if any observation was recorded.
    #[must_use]
    pub fn fhistogram(&self, name: &str) -> Option<&FHistogramSnapshot> {
        self.fhistograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.fhistograms.is_empty()
    }
}

/// The decade of a solver residual as a histogram-ready integer:
/// `residual_decade(r)` is `floor(-log10(r))` clamped into `[0, 16]`
/// (so `1e-9 → 9`). An exactly-zero or negative residual means
/// "converged past every bucket" and maps to 16; an infinite or NaN
/// residual means divergence and maps to 0, the worst bucket.
/// Residuals are deterministic floats, so their decade is a
/// deterministic integer: the golden channel can summarize a residual
/// trajectory without ever storing a float.
#[must_use]
pub fn residual_decade(residual: f64) -> u64 {
    if residual.is_nan() || residual.is_infinite() {
        return 0;
    }
    if residual <= 0.0 {
        return 16;
    }
    // the epsilon absorbs log10 rounding at exact powers of ten
    // (-log10(1e-9) can land a hair below 9.0); it is the same constant
    // on every run, so the bucketing stays deterministic
    let decade = -residual.log10() + 1e-9;
    if decade < 0.0 {
        0
    } else {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let d = decade.floor() as u64;
        d.min(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let obs = Registry::new();
        obs.inc("z.last");
        obs.add("a.first", 3);
        obs.inc("a.first");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_owned(), 4), ("z.last".to_owned(), 1)]
        );
        assert_eq!(snap.counter("a.first"), 4);
        assert_eq!(snap.counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds_with_overflow() {
        let obs = Registry::new();
        for v in [0, 5, 6, 50, 51, 1000] {
            obs.record_histogram("h", &[5, 50], v);
        }
        let snap = obs.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.bounds, vec![5, 50]);
        assert_eq!(h.counts, vec![2, 2, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_are_fixed_at_first_use() {
        let obs = Registry::new();
        obs.record_histogram("h", &[5, 50], 1);
        obs.record_histogram("h", &[5, 51], 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let obs = Registry::disabled();
        obs.inc("c");
        obs.record_histogram("h", &[1], 0);
        obs.record_histogram_f64("fh", &[1.0], 0.5);
        obs.note("n", 1);
        obs.work("phase.step", 3);
        obs.enter("s");
        obs.exit();
        assert!(!obs.is_enabled());
        assert!(!obs.trace().is_enabled());
        assert!(!obs.spans().is_enabled());
        assert!(obs.snapshot().is_empty());
        assert!(obs.notes().is_empty());
        assert!(obs.spans().snapshot().is_empty());
    }

    #[test]
    fn shards_of_a_disabled_registry_keep_only_the_work_clock() {
        let shard = Registry::disabled().shard();
        assert!(!shard.is_enabled());
        shard.inc("c");
        shard.add("profile.a", 2);
        shard.work("b", 3);
        shard.record_histogram("h", &[1], 0);
        shard.note("n", 1);
        assert_eq!(shard.work_units(), 5);
        assert!(shard.snapshot().is_empty());
        assert!(shard.notes().is_empty());

        let nested = shard.shard();
        nested.work("c", 4);
        shard.absorb_shard("", &nested.seal());
        assert_eq!(shard.work_units(), 9);
        Registry::disabled().absorb_shard("", &shard.seal());
        assert_eq!(Registry::disabled().work_units(), 0);
    }

    #[test]
    fn sealed_shards_merge_like_inline_recording() {
        let record = |obs: &Registry| {
            obs.inc("c");
            obs.work("a.b", 2);
            obs.record_histogram("h", &[1], 5);
            obs.record_histogram_f64("fh", &[0.5], 0.1);
        };
        let inline = Registry::new();
        record(&inline);
        record(&inline);

        let merged = Registry::new();
        record(&merged);
        let shard = merged.shard();
        assert!(shard.is_enabled());
        record(&shard);
        merged.absorb_shard("", &shard.seal());
        assert_eq!(merged.snapshot(), inline.snapshot());
        assert_eq!(merged.work_units(), 4);
    }

    #[test]
    fn f64_histogram_has_explicit_underflow_and_overflow_buckets() {
        let obs = Registry::new();
        let edges = [1e-9, 1e-6, 1e-3];
        // underflow: below the first edge, incl. zero, negatives, -inf
        for v in [0.0, -5.0, 1e-12, f64::NEG_INFINITY] {
            obs.record_histogram_f64("resid", &edges, v);
        }
        // interior buckets: [1e-9, 1e-6) and [1e-6, 1e-3)
        obs.record_histogram_f64("resid", &edges, 1e-9);
        obs.record_histogram_f64("resid", &edges, 5e-7);
        obs.record_histogram_f64("resid", &edges, 1e-4);
        // overflow: at/above the last edge, incl. +inf and NaN
        for v in [1e-3, 7.0, f64::INFINITY, f64::NAN] {
            obs.record_histogram_f64("resid", &edges, v);
        }
        let snap = obs.snapshot();
        let h = snap.fhistogram("resid").expect("recorded");
        // 3 edges → 4 buckets: underflow, [1e-9,1e-6), [1e-6,1e-3), overflow
        assert_eq!(h.counts, vec![4, 2, 1, 4]);
        assert_eq!(h.underflow(), 4);
        assert_eq!(h.overflow(), 4);
        assert_eq!(h.total(), 11);
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn f64_histogram_edges_are_fixed_at_first_use() {
        let obs = Registry::new();
        obs.record_histogram_f64("fh", &[1.0, 2.0], 0.5);
        obs.record_histogram_f64("fh", &[1.0, 3.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn f64_histogram_rejects_non_finite_edges() {
        let obs = Registry::new();
        obs.record_histogram_f64("fh", &[1.0, f64::INFINITY], 0.5);
    }

    #[test]
    fn f64_histograms_absorb_additively() {
        let edges = [0.5];
        let shard_a = Registry::new();
        shard_a.record_histogram_f64("fh", &edges, 0.1);
        let shard_b = Registry::new();
        shard_b.record_histogram_f64("fh", &edges, 0.9);
        let total = Registry::new();
        total.absorb(&shard_a.snapshot());
        total.absorb(&shard_b.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.fhistogram("fh").unwrap().counts, vec![1, 1]);
        assert!(!snap.is_empty());
    }

    #[test]
    fn notes_stay_out_of_the_golden_snapshot() {
        let obs = Registry::new();
        obs.note("workers", 7);
        assert!(obs.snapshot().is_empty());
        assert_eq!(obs.notes(), vec![("workers".to_owned(), 7)]);
    }

    #[test]
    fn absorb_merges_counters_and_histograms_additively() {
        let shard_a = Registry::new();
        shard_a.add("c", 2);
        shard_a.record_histogram("h", &[10], 3);
        let shard_b = Registry::new();
        shard_b.add("c", 5);
        shard_b.record_histogram("h", &[10], 30);

        let total = Registry::new();
        total.absorb(&shard_a.snapshot());
        total.absorb(&shard_b.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.histogram("h").unwrap().counts, vec![1, 1]);

        // merge order cannot matter: integer additions commute
        let reversed = Registry::new();
        reversed.absorb(&shard_b.snapshot());
        reversed.absorb(&shard_a.snapshot());
        assert_eq!(reversed.snapshot(), snap);
    }

    #[test]
    fn concurrent_recording_is_deterministic() {
        let obs = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        obs.inc("hits");
                        obs.record_histogram("vals", &[10], 5);
                    }
                });
            }
        });
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hits"), 4000);
        assert_eq!(snap.histogram("vals").unwrap().counts, vec![4000, 0]);
    }

    #[test]
    fn residual_decades() {
        assert_eq!(residual_decade(1e-9), 9);
        assert_eq!(residual_decade(0.5), 0);
        assert_eq!(residual_decade(2.0), 0);
        assert_eq!(residual_decade(1e-30), 16);
        assert_eq!(residual_decade(0.0), 16);
        assert_eq!(residual_decade(f64::NAN), 0);
        assert_eq!(residual_decade(f64::NEG_INFINITY), 0);
        assert_eq!(residual_decade(-1.0), 16);
        assert_eq!(residual_decade(f64::INFINITY), 0);
    }
}
