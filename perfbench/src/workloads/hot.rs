//! `query_hot`: one operation is a batch of [`BATCH`] spec strings drawn
//! Zipf-like from a working set of [`HOT_SET`] design points that the
//! set-up pre-warms into a cache large enough for all of them, so every
//! request is a hit and the solvers stay idle.

use std::collections::BTreeMap;
use std::time::Instant;

use super::{count_outcomes, digest, parse_all, Config, Op, Report, Tally, Workload, REF_SEED};
use crate::fingerprint::{self, Fingerprint};
use crate::inputs::{HotGen, BATCH, HOT_CAPACITY, HOT_SET};
use crate::layers::obs::{self, Registry};
use crate::layers::query::{self, QueryEngine, QueryOutcome};
use crate::stats;
use crate::tracer::Tracer;

/// The engine answers hits on the caller's thread.
const THREADS: usize = 1;

/// Set-up, operation and checks of `query_hot`.
pub struct Hot {
    gen: HotGen,
    engine: QueryEngine,
    /// Pre-warm outcome of each hot-set point, by rank.
    prewarm: Vec<QueryOutcome>,
    tally: Tally,
    parse_ns: Vec<f64>,
    hit_ns: Vec<f64>,
}

/// A generator, its engine pre-warmed with the whole hot set, and the
/// pre-warm outcomes (telemetry into `reg`).
fn prewarmed(seed: u64, reg: &Registry) -> (HotGen, QueryEngine, Vec<QueryOutcome>) {
    let gen = HotGen::new(seed);
    let specs: Vec<&str> = gen.hot_set().iter().map(String::as_str).collect();
    let queries = parse_all(&specs, None, &mut Vec::new());
    let mut engine = query::engine(HOT_CAPACITY);
    let outcomes = query::run_batch(&mut engine, &queries, THREADS, reg);
    (gen, engine, outcomes)
}

impl Hot {
    /// Checks a batch: each verdict bitwise-equal to its pre-warm
    /// verdict, and the cache counters of an all-hit batch.
    fn check(
        &mut self,
        picks: &[usize],
        outcomes: &[QueryOutcome],
        reg: &Registry,
        r: &mut Report,
    ) {
        let same = picks.len() == outcomes.len()
            && picks.iter().zip(outcomes).all(|(&i, o)| {
                matches!((o.verdict(), self.prewarm[i].verdict()), (Some(a), Some(b)) if a.bitwise_eq(b))
            });
        r.check((!same).then(|| "query_hot verdict differs from its pre-warm verdict".into()));
        if reg.is_enabled() {
            let snap = reg.snapshot();
            let got = [
                obs::counter(&snap, "query.cache.hits"),
                obs::counter(&snap, "query.cache.misses"),
                obs::counter(&snap, "query.cache.evictions"),
            ];
            let want = [picks.len() as u64, 0, 0];
            r.check((got != want).then(|| {
                format!("query_hot counters hits/misses/evictions {got:?}, expected {want:?}")
            }));
            self.tally.add(reg);
        }
    }

    fn specs(&self, picks: &[usize]) -> Vec<&str> {
        picks
            .iter()
            .map(|&i| self.gen.hot_set()[i].as_str())
            .collect()
    }
}

impl Workload for Hot {
    fn setup(cfg: &Config) -> Self {
        let (gen, engine, prewarm) = prewarmed(cfg.seed, &obs::enabled());
        Self {
            gen,
            engine,
            prewarm,
            tally: Tally::default(),
            parse_ns: Vec::new(),
            hit_ns: Vec::new(),
        }
    }

    fn op(&mut self, obs: &Registry, r: &mut Report) -> Op {
        let picks = self.gen.batch();
        let specs = self.specs(&picks);
        let mut bad = Vec::new();
        let t0 = Instant::now();
        let queries = parse_all(&specs, None, &mut bad);
        let outcomes = query::run_batch(&mut self.engine, &queries, THREADS, obs);
        let secs = t0.elapsed().as_secs_f64();
        count_outcomes(&outcomes, bad, r);
        self.check(&picks, &outcomes, obs, r);
        (BATCH as f64, secs)
    }

    fn traced_op(&mut self, t: &mut Tracer, r: &mut Report) -> Op {
        let picks = self.gen.batch();
        let reg = obs::enabled();
        let mut bad = Vec::new();
        let specs = self.specs(&picks);
        let op = t.enter("query_hot.batch");
        let parse = t.now_ns();
        let queries = parse_all(&specs, Some(t), &mut bad);
        let parse = t.now_ns() - parse;
        let (outcomes, engine_ns) = t.time("query.run_batch", || {
            query::run_batch(&mut self.engine, &queries, THREADS, &reg)
        });
        let secs = t.exit(op) as f64 * 1e-9;
        count_outcomes(&outcomes, bad, r);
        self.check(&picks, &outcomes, &reg, r);
        self.parse_ns.push(parse as f64 / picks.len() as f64);
        self.hit_ns
            .push(engine_ns as f64 / queries.len().max(1) as f64);
        (BATCH as f64, secs)
    }

    fn verify(&mut self, r: &mut Report) {
        let failed = self
            .prewarm
            .iter()
            .filter(|o| o.verdict().is_none())
            .count();
        r.check(
            (self.prewarm.len() != HOT_SET || failed > 0)
                .then(|| format!("{failed} hot-set points failed to pre-warm")),
        );
        let (pre, batch) = reference();
        for (scope, got) in [("query_hot.prewarm", pre), ("query_hot.ref_batch", batch)] {
            let diffs = fingerprint::diff(scope, &got);
            r.check((!diffs.is_empty()).then(|| diffs.join("; ")));
        }
    }

    fn layers(&self, _t: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("query.parse_ns", stats::median(&self.parse_ns));
        out.insert("query.hit_ns", stats::median(&self.hit_ns));
        out.insert(
            "query.hit_ratio",
            self.tally.ratio("query.cache.hits", "query.requests"),
        );
        out.insert(
            "query.evictions_per_batch",
            self.tally.per_op("query.cache.evictions"),
        );
        self.tally.report(out);
    }
}

/// The pinned reference: pre-warm of the reference hot set, then one
/// batch from it.
#[must_use]
pub fn reference() -> (Fingerprint, Fingerprint) {
    let reg = obs::enabled();
    let (mut gen, mut engine, outcomes) = prewarmed(REF_SEED, &reg);
    let pre = Fingerprint::of(&reg, digest(&outcomes));
    let specs: Vec<String> = gen
        .batch()
        .iter()
        .map(|&i| gen.hot_set()[i].clone())
        .collect();
    let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let queries = parse_all(&specs, None, &mut Vec::new());
    let reg = obs::enabled();
    let outcomes = query::run_batch(&mut engine, &queries, THREADS, &reg);
    (pre, Fingerprint::of(&reg, digest(&outcomes)))
}
