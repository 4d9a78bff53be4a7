//! The closed-loop runner shared by every workload: repeated set-up, the
//! timed loop (plain run) or the rotating plain/traced/telemetry-off loop
//! (traced run), and the reference checks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib::{self, Calibrator};
use crate::fingerprint::Fnv;
use crate::layers::obs::{self, Registry};
use crate::layers::query::{self, DesignQuery, QueryOutcome};
use crate::stats::{self, Samples};
use crate::tracer::Tracer;

pub mod cold;
pub mod hot;
pub mod regen;

/// Seed of the reference inputs whose fingerprints are pinned; distinct
/// from any run's `--seed` stream because the generators mix it first.
pub const REF_SEED: u64 = 2011;

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Seconds of set-up per run at least, so that the median of a fast
/// set-up rests on many samples.
pub const SETUP_MIN_S: f64 = 1.0;

/// Seconds of operations between two calibration runs at least (see
/// [`calib`]); one `regen` pass.
pub const SLICE_S: f64 = 0.2;

/// The tail percentile: the highest one with at least ten samples beyond
/// it on every workload at the benchmark's 30 s run length (`regen`
/// makes about 110 passes). A p99 of `query_cold`'s ~1,700 batches
/// rests on ~17 samples and swung by over 25% between runs on a shared
/// 2-core host.
pub const TAIL_PERCENTILE: u32 = 90;

/// Traced operations per traced run at most, which bounds the span
/// buffer (and the span file) on the fastest workload.
pub const MAX_TRACED_OPS: usize = 1000;

/// Latency samples kept per run at most (see [`Samples`]).
pub const LATENCY_SAMPLES: usize = 1 << 14;

/// The end-to-end metrics, in report order: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run, in report order: name, unit.
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("query.parse_ns", "ns"),
    ("query.hit_ns", "ns"),
    ("query.hit_ratio", "ratio"),
    ("query.evictions_per_batch", "count"),
    ("query.engine_overhead_frac", "ratio"),
    ("parallel.speedup", "x"),
    ("parallel.efficiency", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("obs.work_units_per_op", "count"),
    ("core.immersion_solve_us", "us"),
    ("core.immersion_escalations", "count"),
    ("core.e05_ms", "ms"),
    ("core.e08_ms", "ms"),
    ("core.e12_ms", "ms"),
    ("core.e17_ms", "ms"),
    ("core.e17_share", "ratio"),
    ("core.drill_cell_ms_p50", "ms"),
    ("core.drill_cell_ms_max", "ms"),
    ("core.other_exp_ms", "ms"),
    ("hydraulics.iterations_per_op", "count"),
    ("hydraulics.warm_start_ratio", "ratio"),
    ("thermal.ode_steps_per_op", "count"),
    ("cooling.mc_ns_per_trial", "ns"),
    ("cooling.mc_events_per_trial", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Run settings every workload sees.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop, seconds.
    pub seconds: f64,
    /// Worker threads of the workload's engine calls.
    pub threads: usize,
}

/// One measured operation: requests (or passes) answered, and seconds.
pub type Op = (f64, f64);

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests (or passes) attempted.
    pub attempted: u64,
    /// Failed or degraded outcomes plus output-check mismatches.
    pub failed: u64,
    /// The first few mismatch messages.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable remarks printed with the result.
    pub notes: Vec<String>,
    /// Seconds from process start to the first timed operation.
    pub first_op_at_s: f64,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Counts a failed output check, if `mismatch` is one.
    pub fn check(&mut self, mismatch: Option<String>) {
        if let Some(msg) = mismatch {
            self.fail(msg);
        }
    }

    /// Counts one failure: a failed or degraded outcome, or a mismatch.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// A workload: its state is built by [`setup`](Workload::setup) and
/// driven one closed-loop operation at a time.
pub trait Workload: Sized {
    /// Builds the state. Timed as set-up, at least [`SETUP_REPEATS`] times.
    fn setup(cfg: &Config) -> Self;
    /// One operation with telemetry into `obs` (a fresh enabled
    /// registry, or the disabled one); checks its outputs into `r`.
    fn op(&mut self, obs: &Registry, r: &mut Report) -> Op;
    /// One operation with spans at every layer boundary, then the
    /// traced probes that break it down; the returned seconds cover
    /// the operation only.
    fn traced_op(&mut self, t: &mut Tracer, r: &mut Report) -> Op;
    /// Exact fingerprint checks on the pinned reference inputs.
    fn verify(&mut self, r: &mut Report);
    /// Per-layer metrics from the traced run.
    fn layers(&self, t: &Tracer, out: &mut BTreeMap<&'static str, f64>);
}

/// Runs workload `W`: set-up, then `cfg.seconds` of plain operations
/// (end-to-end metrics) or, with `trace`, of rotating plain, traced and
/// telemetry-off operations (per-layer metrics), then the reference
/// checks.
pub fn run<W: Workload>(cfg: &Config, trace: bool, process_start: Instant) -> Report {
    let mut r = Report::default();
    let mut cal = Calibrator::new(cfg.threads);
    let mut before = cal.measure();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut state = None;
    while setups.len() < SETUP_REPEATS || raw_setups.iter().sum::<f64>() < SETUP_MIN_S {
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(cfg));
        let secs = t.elapsed().as_secs_f64();
        let after = cal.measure();
        raw_setups.push(secs);
        setups.push(secs * Calibrator::scale(before, after));
        before = after;
    }
    let mut w = state.expect("SETUP_REPEATS is positive");
    r.first_op_at_s = process_start.elapsed().as_secs_f64();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);

    if trace {
        let mut t = Tracer::new();
        let (mut plain, mut traced, mut off) = (Vec::new(), Vec::new(), Vec::new());
        let mut round = 0u64;
        // Rotate which variant goes first so drift spreads evenly. Once
        // the span budget is spent, the plain and telemetry-off variants
        // carry on alone until the deadline.
        while round == 0 || Instant::now() < deadline {
            let tracing = traced.len() < MAX_TRACED_OPS;
            for k in 0..3 {
                match (round + k) % 3 {
                    0 => plain.push(w.op(&obs::enabled(), &mut r).1),
                    1 if tracing => {
                        t.set_trace(round);
                        traced.push(w.traced_op(&mut t, &mut r).1);
                    }
                    1 => {}
                    _ => off.push(w.op(obs::disabled(), &mut r).1),
                }
            }
            round += 1;
        }
        // The tracing overhead compares rounds that ran a traced op.
        let plain_traced = stats::median(&plain[..traced.len()]);
        let (plain, traced, off) = (
            stats::median(&plain),
            stats::median(&traced),
            stats::median(&off),
        );
        r.notes.push(format!(
            "traced run: {round} rounds; median op plain {:.4} ms, traced {:.4} ms, telemetry off {:.4} ms",
            plain * 1e3,
            traced * 1e3,
            off * 1e3
        ));
        for (name, _) in PER_LAYER {
            r.set(name, 0.0);
        }
        r.set("obs.overhead_frac", plain / off - 1.0);
        r.set("trace.overhead_frac", traced / plain_traced - 1.0);
        w.layers(&t, &mut r.metrics);
        r.tracer = Some(t);
        w.verify(&mut r);
    } else {
        let mut lat = Samples::with_cap(LATENCY_SAMPLES);
        let mut raw = Samples::with_cap(LATENCY_SAMPLES);
        let (mut units, mut busy, mut raw_busy) = (0.0, 0.0, 0.0);
        let mut slice = Vec::new();
        // Slices of at least SLICE_S of operations, each followed by a
        // calibration run; a slice is rescaled by the runs on its sides.
        while lat.seen() == 0 || Instant::now() < deadline {
            slice.clear();
            let mut spent = 0.0;
            while spent < SLICE_S {
                let (n, secs) = w.op(&obs::enabled(), &mut r);
                slice.push(secs);
                units += n;
                spent += secs;
            }
            let after = cal.measure();
            let k = Calibrator::scale(before, after);
            before = after;
            for &secs in &slice {
                lat.push(secs * k);
                raw.push(secs);
            }
            busy += spent * k;
            raw_busy += spent;
        }
        w.verify(&mut r);
        // The run's own peak: read before the report is assembled.
        r.set("peak_rss_mb", crate::host::peak_rss_mib());
        let seen = lat.seen();
        let sorted = lat.sorted();
        let beyond = stats::beyond(sorted.len(), TAIL_PERCENTILE);
        r.set("setup_s", stats::median(&setups));
        r.set("ops_per_s", units / busy);
        r.set("op_p50_ms", stats::percentile(sorted, 50) * 1e3);
        r.set(
            "op_tail_ms",
            stats::percentile(sorted, TAIL_PERCENTILE) * 1e3,
        );
        let raw = raw.sorted();
        r.notes.push(format!(
            "wall clock as measured: setup_s {:.6}, ops_per_s {:.6}, op_p50_ms {:.6}, op_tail_ms {:.6}",
            stats::median(&raw_setups),
            units / raw_busy,
            stats::percentile(raw, 50) * 1e3,
            stats::percentile(raw, TAIL_PERCENTILE) * 1e3
        ));
        r.notes.push(format!(
            "timings are rescaled to the reference host speed: calibration kernel median {:.4} ms over {} runs (reference {:.4} ms){}",
            stats::median(&cal.times) * 1e3,
            cal.times.len(),
            calib::REF_S * 1e3,
            if cal.crowded > 0 {
                format!(", {} runs with other threads of the process alive", cal.crowded)
            } else {
                String::new()
            }
        ));
        r.notes.push(format!(
            "op_tail_ms is p{TAIL_PERCENTILE} of {seen} operations ({} sampled, {beyond} beyond it{})",
            sorted.len(),
            if beyond < stats::MIN_BEYOND {
                ", fewer than 10: a thin tail"
            } else {
                ""
            }
        ));
        r.notes.push(format!(
            "setup_s is the median of {} set-ups, rescaled: {}",
            setups.len(),
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    r
}

/// Counters summed over the operations of a run, for per-operation
/// means of exact counts.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations added.
    pub ops: u64,
    /// Σ work units.
    pub work_units: u64,
    /// Σ of every counter.
    pub counters: BTreeMap<String, u64>,
}

impl Tally {
    /// Adds one operation's registry.
    pub fn add(&mut self, reg: &Registry) {
        self.ops += 1;
        self.work_units += obs::work_units(reg);
        for (k, v) in reg.snapshot().counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
    }

    /// Σ of counter `name`.
    #[must_use]
    pub fn sum(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean of counter `name` per operation.
    #[must_use]
    pub fn per_op(&self, name: &str) -> f64 {
        ratio(self.sum(name) as f64, self.ops as f64)
    }

    /// `a / b` of two counters.
    #[must_use]
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        ratio(self.sum(a) as f64, self.sum(b) as f64)
    }

    /// The exact per-operation counts every workload reports.
    pub fn report(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert(
            "obs.work_units_per_op",
            ratio(self.work_units as f64, self.ops as f64),
        );
        out.insert(
            "hydraulics.iterations_per_op",
            self.per_op("profile.hydraulics.iterations"),
        );
        out.insert(
            "hydraulics.warm_start_ratio",
            self.ratio("profile.hydraulics.warm_starts", "hydraulics.ladder.calls"),
        );
        out.insert(
            "thermal.ode_steps_per_op",
            self.per_op("profile.thermal.ode_steps"),
        );
        out.insert(
            "cooling.mc_events_per_trial",
            self.ratio("mc.events", "mc.trials"),
        );
        out.insert(
            "core.immersion_escalations",
            self.per_op("immersion.ladder.escalations"),
        );
    }
}

/// `a / b`, 0 when `b` is 0 (the layer did no such work).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Times `f`, returning its result and seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Parses a batch, optionally with one `query.parse` span per spec;
/// specs that fail to parse are counted as failed and dropped.
pub fn parse_all(
    specs: &[&str],
    mut t: Option<&mut Tracer>,
    bad: &mut Vec<String>,
) -> Vec<DesignQuery> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let parsed = match t.as_deref_mut() {
            Some(t) => t.time("query.parse", || query::parse(spec)).0,
            None => query::parse(spec),
        };
        match parsed {
            Ok(q) => out.push(q),
            Err(e) => bad.push(format!("{spec:?}: {e}")),
        }
    }
    out
}

/// Counts each request into `r`: anything but an `Ok` outcome fails.
pub fn count_outcomes(outcomes: &[QueryOutcome], bad: Vec<String>, r: &mut Report) {
    r.attempted += (outcomes.len() + bad.len()) as u64;
    for msg in bad {
        r.fail(format!("parse failed: {msg}"));
    }
    for o in outcomes {
        r.check(match o {
            QueryOutcome::Ok(_) => None,
            QueryOutcome::Degraded { .. } => Some("degraded outcome".into()),
            QueryOutcome::Failed(e) => Some(format!("failed outcome: {e}")),
        });
    }
}

/// The digest of a batch's verdicts, in request order.
#[must_use]
pub fn digest(outcomes: &[QueryOutcome]) -> u64 {
    let mut h = Fnv::default();
    for o in outcomes {
        match o.verdict() {
            Some(v) => h.verdict(v),
            None => h.write(b"-"),
        }
    }
    h.finish()
}
