//! The benchmark's own wall-clock span recorder.
//!
//! Spans are recorded in memory around the benchmark's calls into the
//! program (never inside it) and written out as NDJSON when the run
//! ends. A span's *self time* is its duration minus the part of its
//! interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation this span belongs to; spans of one operation share it.
    pub trace: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `query.run_batch`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (equal to start while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name rollup of [`Tracer::rollup`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        ns_since(self.epoch, Instant::now())
    }

    /// Converts an instant taken elsewhere (e.g. on a worker) to tracer time.
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        ns_since(self.epoch, t)
    }

    /// Starts a new operation: later spans carry trace id `id`.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.push(name, now, now)
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (a nesting bug in
    /// the benchmark).
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "span exit out of order");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Runs `f` inside a leaf span `name`; returns its result and ns.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name);
        let r = f();
        let ns = self.exit(id);
        (r, ns)
    }

    /// Records an already-timed closed span (e.g. one measured on a
    /// worker thread) under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.push(name, start_ns, end_ns.max(start_ns));
        self.open.pop();
        id
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            trace: self.trace,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns,
        });
        self.open.push(id);
        id
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`spans`](Self::spans):
    /// duration minus the union of its children's intervals clipped to it.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let r = out.entry(s.name).or_default();
            r.count += 1;
            r.total_ns += s.dur_ns();
            r.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Writes one NDJSON line per span: `id`, `trace`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(parent, a, b) in spans {
            t.spans.push(Span {
                trace: 0,
                parent,
                name: "s",
                start_ns: a,
                end_ns: b,
            });
        }
        t
    }

    #[test]
    fn self_time_of_nested_children() {
        // root [0,100] > child [10,60] > grandchild [20,30]
        let t = tracer_with(&[(None, 0, 100), (Some(0), 10, 60), (Some(1), 20, 30)]);
        assert_eq!(t.self_times(), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_of_back_to_back_children() {
        // root [0,100] > [10,40] [40,70] (touching) and [70,70] (empty)
        let t = tracer_with(&[
            (None, 0, 100),
            (Some(0), 10, 40),
            (Some(0), 40, 70),
            (Some(0), 70, 70),
        ]);
        assert_eq!(t.self_times(), vec![40, 30, 30, 0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Worker-timed items overlap each other and may overhang the parent.
        let t = tracer_with(&[
            (None, 10, 100),
            (Some(0), 0, 50),
            (Some(0), 30, 80),
            (Some(0), 90, 120),
        ]);
        assert_eq!(t.self_times()[0], 10);
    }

    #[test]
    fn enter_exit_nest_and_roll_up() {
        let mut t = Tracer::new();
        t.set_trace(7);
        let root = t.enter("op");
        let (_, _) = t.time("leaf", || std::hint::black_box(1 + 1));
        let now = t.now_ns();
        let rec = t.record("item", now, now + 5);
        t.exit(root);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[rec].parent, Some(root));
        assert_eq!(t.spans()[rec].dur_ns(), 5);
        assert!(t.spans().iter().all(|s| s.trace == 7));
        let r = t.rollup();
        assert_eq!(r["op"].count, 1);
        assert_eq!(r["leaf"].count, 1);
        assert!(r["op"].self_ns <= r["op"].total_ns);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn exit_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
