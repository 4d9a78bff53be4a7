//! `query_cold`: one operation is a batch of [`BATCH`] fresh spec
//! strings, parsed and answered by an engine whose cache holds fewer
//! entries than a batch, so every request misses, is solved, inserted
//! and later evicted.

use std::collections::BTreeMap;
use std::time::Instant;

use super::{
    count_outcomes, digest, parse_all, ratio, Config, Op, Report, Tally, Workload, REF_SEED,
};
use crate::fingerprint::{self, Fingerprint};
use crate::inputs::{Batch, ColdGen, SplitMix64, BATCH, COLD_CAPACITY};
use crate::layers::obs::{self, Registry};
use crate::layers::query::{self, DesignQuery, DesignVerdict, QueryEngine, QueryOutcome};
use crate::layers::{cooling, core, parallel};
use crate::stats;
use crate::tracer::Tracer;

/// Warm-up batches per set-up: the first fills the cache, the second
/// starts evicting, so the timed loop begins in steady state.
const WARMUP_BATCHES: usize = 2;

/// Counters on which the rebuilt verdicts must do exactly the engine's work.
const SAME_WORK: [&str; 5] = [
    "profile.hydraulics.iterations",
    "profile.immersion.fixed_point_iterations",
    "immersion.ladder.escalations",
    "mc.trials",
    "mc.events",
];

/// Set-up, operation and checks of `query_cold`.
pub struct Cold {
    gen: ColdGen,
    engine: QueryEngine,
    threads: usize,
    sample: SplitMix64,
    tally: Tally,
    parse_ns: Vec<f64>,
    immersion_us: Vec<f64>,
    mc_ns_per_trial: Vec<f64>,
    engine_overhead: Vec<f64>,
    speedup: Vec<f64>,
    efficiency: Vec<f64>,
}

fn same(a: Option<&DesignVerdict>, b: &Result<DesignVerdict, query::QueryError>) -> bool {
    matches!((a, b), (Some(a), Ok(b)) if a.bitwise_eq(b))
}

impl Cold {
    /// Checks a plain batch: outcomes, the cache counters of a batch
    /// of distinct misses, its exact MC trials, and one sampled verdict
    /// against a serial solve.
    fn check(
        &mut self,
        batch: &Batch,
        queries: &[DesignQuery],
        outcomes: &[QueryOutcome],
        reg: &Registry,
        r: &mut Report,
    ) {
        if reg.is_enabled() {
            let snap = reg.snapshot();
            let got = [
                obs::counter(&snap, "query.cache.hits"),
                obs::counter(&snap, "query.cache.misses"),
                obs::counter(&snap, "query.cache.evictions"),
                obs::counter(&snap, "mc.trials"),
            ];
            let n = queries.len() as u64;
            let want = [0, n, n, batch.trials];
            r.check((got != want).then(|| {
                format!("query_cold counters hits/misses/evictions/mc.trials {got:?}, expected {want:?}")
            }));
            self.tally.add(reg);
        }
        if !queries.is_empty() {
            let i = self.sample.below(queries.len() as u64) as usize;
            let serial = query::solve(&queries[i], obs::disabled());
            r.check((!same(outcomes[i].verdict(), &serial)).then(|| {
                format!(
                    "query_cold verdict of {:?} differs from a serial solve",
                    queries[i].spec()
                )
            }));
        }
    }

    /// Rebuilds every verdict from the layers' own calls, one span per
    /// call, and checks it bitwise against the engine's and the work
    /// counters against the engine's registry.
    fn rebuild(
        &mut self,
        t: &mut Tracer,
        queries: &[DesignQuery],
        outcomes: &[QueryOutcome],
        engine_reg: &Registry,
        r: &mut Report,
    ) {
        let reg = obs::enabled();
        let (mut solve_ns, mut mc_ns, mut trials) = (0u64, 0u64, 0u64);
        let span = t.enter("verify.rebuild");
        for (q, o) in queries.iter().zip(outcomes) {
            let model = core::immersion_model(q);
            let classes = cooling::failure_classes(&q.bath.bath_with(q.coolant));
            let (report, ns) = t.time("core.immersion_solve", || {
                core::immersion_solve(&model, &reg)
            });
            solve_ns += ns;
            let Ok(report) = report else {
                r.fail(format!("rebuild of {:?} did not converge", q.spec()));
                continue;
            };
            let (avail, ns) = t.time("cooling.mc", || {
                cooling::monte_carlo(
                    &classes,
                    query::HORIZON_YEARS,
                    q.trials as usize,
                    q.seed,
                    &reg,
                )
            });
            mc_ns += ns;
            trials += u64::from(q.trials);
            let (compliant, _) = t.time("core.rules", || core::rules_pass(&report, &model));
            let rebuilt = query::assemble(q, &report, &avail, compliant);
            r.check((!same(o.verdict(), &Ok(rebuilt))).then(|| {
                format!(
                    "rebuilt verdict of {:?} differs from the engine's",
                    q.spec()
                )
            }));
        }
        t.exit(span);
        let (a, b) = (reg.snapshot(), engine_reg.snapshot());
        for k in SAME_WORK {
            let (x, y) = (obs::counter(&a, k), obs::counter(&b, k));
            r.check((x != y).then(|| format!("rebuild did {x} {k}, the engine {y}")));
        }
        let n = queries.len().max(1) as f64;
        self.immersion_us.push(solve_ns as f64 / n * 1e-3);
        self.mc_ns_per_trial
            .push(ratio(mc_ns as f64, trials as f64));
    }

    /// Solves the batch's misses with a bare parallel map (no engine,
    /// telemetry off) at `threads`; each item is a `query.solve` span
    /// timed on its worker. Returns the map's ns and Σ item busy ns.
    fn raw(
        &self,
        t: &mut Tracer,
        name: &'static str,
        queries: &[DesignQuery],
        threads: usize,
        outcomes: &[QueryOutcome],
        r: &mut Report,
    ) -> (u64, u64) {
        let span = t.enter(name);
        let solved = parallel::map(queries.to_vec(), threads, |_, q| {
            let a = Instant::now();
            let v = query::solve(&q, obs::disabled());
            (v, a, Instant::now())
        });
        let mut busy = 0;
        for (_, a, b) in &solved {
            let (a, b) = (t.at(*a), t.at(*b));
            t.record("query.solve", a, b);
            busy += b - a;
        }
        let wall = t.exit(span);
        let mismatches = solved
            .iter()
            .zip(outcomes)
            .filter(|((v, _, _), o)| !same(o.verdict(), v))
            .count();
        r.check(
            (mismatches > 0)
                .then(|| format!("{name}: {mismatches} raw verdicts differ from the engine's")),
        );
        (wall, busy)
    }
}

impl Workload for Cold {
    fn setup(cfg: &Config) -> Self {
        let mut w = Self {
            gen: ColdGen::new(cfg.seed),
            engine: query::engine(COLD_CAPACITY),
            threads: cfg.threads,
            sample: SplitMix64::new(cfg.seed ^ 0x5A3B1E),
            tally: Tally::default(),
            parse_ns: Vec::new(),
            immersion_us: Vec::new(),
            mc_ns_per_trial: Vec::new(),
            engine_overhead: Vec::new(),
            speedup: Vec::new(),
            efficiency: Vec::new(),
        };
        for _ in 0..WARMUP_BATCHES {
            let batch = w.gen.batch();
            let specs: Vec<&str> = batch.specs.iter().map(String::as_str).collect();
            let queries = parse_all(&specs, None, &mut Vec::new());
            std::hint::black_box(query::run_batch(
                &mut w.engine,
                &queries,
                w.threads,
                &obs::enabled(),
            ));
        }
        w
    }

    fn op(&mut self, obs: &Registry, r: &mut Report) -> Op {
        let batch = self.gen.batch();
        let specs: Vec<&str> = batch.specs.iter().map(String::as_str).collect();
        let mut bad = Vec::new();
        let t0 = Instant::now();
        let queries = parse_all(&specs, None, &mut bad);
        let outcomes = query::run_batch(&mut self.engine, &queries, self.threads, obs);
        let secs = t0.elapsed().as_secs_f64();
        count_outcomes(&outcomes, bad, r);
        self.check(&batch, &queries, &outcomes, obs, r);
        (BATCH as f64, secs)
    }

    fn traced_op(&mut self, t: &mut Tracer, r: &mut Report) -> Op {
        let batch = self.gen.batch();
        let specs: Vec<&str> = batch.specs.iter().map(String::as_str).collect();
        let reg = obs::enabled();
        let mut bad = Vec::new();
        let op = t.enter("query_cold.batch");
        let parse = t.now_ns();
        let queries = parse_all(&specs, Some(t), &mut bad);
        let parse = t.now_ns() - parse;
        let (outcomes, engine_ns) = t.time("query.run_batch", || {
            query::run_batch(&mut self.engine, &queries, self.threads, &reg)
        });
        let secs = t.exit(op) as f64 * 1e-9;
        count_outcomes(&outcomes, bad, r);
        self.check(&batch, &queries, &outcomes, &reg, r);

        self.parse_ns.push(parse as f64 / specs.len() as f64);
        self.rebuild(t, &queries, &outcomes, &reg, r);
        let (serial, _) = self.raw(t, "parallel.raw_1t", &queries, 1, &outcomes, r);
        let (wall, busy) = self.raw(t, "parallel.raw_nt", &queries, self.threads, &outcomes, r);
        self.engine_overhead
            .push((engine_ns as f64 - wall as f64) / engine_ns as f64);
        self.speedup.push(ratio(serial as f64, wall as f64));
        self.efficiency
            .push(ratio(busy as f64, (self.threads as u64 * wall) as f64));
        (BATCH as f64, secs)
    }

    fn verify(&mut self, r: &mut Report) {
        let threads: Vec<usize> = if self.threads > 1 {
            vec![1, self.threads]
        } else {
            vec![1]
        };
        for n in threads {
            let diffs = fingerprint::diff("query_cold.ref_batch", &reference(n));
            r.check((!diffs.is_empty()).then(|| format!("at {n} threads: {}", diffs.join("; "))));
        }
    }

    fn layers(&self, _t: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("query.parse_ns", stats::median(&self.parse_ns));
        out.insert(
            "query.hit_ratio",
            self.tally.ratio("query.cache.hits", "query.requests"),
        );
        out.insert(
            "query.evictions_per_batch",
            self.tally.per_op("query.cache.evictions"),
        );
        out.insert(
            "query.engine_overhead_frac",
            stats::median(&self.engine_overhead),
        );
        out.insert("parallel.speedup", stats::median(&self.speedup));
        out.insert("parallel.efficiency", stats::median(&self.efficiency));
        out.insert("core.immersion_solve_us", stats::median(&self.immersion_us));
        out.insert(
            "cooling.mc_ns_per_trial",
            stats::median(&self.mc_ns_per_trial),
        );
        self.tally.report(out);
    }
}

/// The pinned reference batch on a fresh engine at `threads`.
#[must_use]
pub fn reference(threads: usize) -> Fingerprint {
    let batch = ColdGen::new(REF_SEED).batch();
    let specs: Vec<&str> = batch.specs.iter().map(String::as_str).collect();
    let queries = parse_all(&specs, None, &mut Vec::new());
    let reg = obs::enabled();
    let outcomes = query::run_batch(&mut query::engine(COLD_CAPACITY), &queries, threads, &reg);
    Fingerprint::of(&reg, digest(&outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::grid;

    /// Both query workloads start at a failure share of 0: every point
    /// of the design grid they draw from solves without error.
    #[test]
    fn every_grid_point_solves() {
        for p in grid() {
            let spec = p.spec(1);
            let q = query::parse(&spec).expect("generated specs parse");
            assert!(
                query::solve(&q, obs::disabled()).is_ok(),
                "{spec} fails to solve"
            );
        }
    }
}
