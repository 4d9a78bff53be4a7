//! Counter-asserting regression tests for the telemetry layer.
//!
//! Each test pins a behavioural claim about the stack to the golden
//! counters of `rcs-obs`: not just "the solver converged" but "the
//! solver converged *without ever leaving rung 0*", not just "the drill
//! stayed clean" but "the plausibility filter rejected exactly the lies
//! we scripted". A regression that changes how hard the system works —
//! extra fallback rungs, surprise relinearizations, silently skipped
//! Monte-Carlo chunks — now fails a test even when the final floats
//! still look right.

use rcs_sim::cooling::faults::{FaultKind, FaultTimeline};
use rcs_sim::cooling::{availability, risk, CoolingArchitecture, ImmersionBath};
use rcs_sim::core::experiments::{e05_skat_thermal, e17_fault_drills, run_all_observed, Table};
use rcs_sim::core::{FaultDrill, ImmersionModel};
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::span::SpanSink;
use rcs_sim::obs::trace::TraceRecorder;
use rcs_sim::obs::{manifest, Registry, Snapshot};
use rcs_sim::query::{DesignQuery, QueryEngine, QueryOutcome};
use rcs_sim::units::Seconds;

/// E5's headline telemetry claim: the SKAT reproduction converges with
/// **zero fallback-rung escalations** — every hydraulic solve succeeds
/// on the default (rung-0) solver settings.
#[test]
fn e5_runs_with_zero_fallback_rung_escalations() {
    let obs = Registry::new();
    let tables = e05_skat_thermal::run_observed(&obs);
    assert!(!tables.is_empty());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
    assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 0);
    assert_eq!(snap.counter("immersion.solve.no_convergence"), 0);
    let rungs = snap
        .histogram("hydraulics.ladder.rung")
        .expect("rung histogram recorded");
    // every ladder call landed in the rung-0 bucket
    assert_eq!(rungs.counts[0], snap.counter("hydraulics.ladder.calls"));
    assert_eq!(rungs.total(), snap.counter("hydraulics.ladder.calls"));
}

/// The steady immersion solve reports its own effort honestly: the
/// outer-iteration count in the report equals the number of circulation
/// (hydraulic ladder) solves the registry saw.
#[test]
fn immersion_iterations_match_circulation_solve_count() {
    let obs = Registry::new();
    let report = ImmersionModel::skat()
        .solve_robust_observed(&obs)
        .expect("SKAT converges");
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("immersion.circulation.calls"),
        report.iterations as u64
    );
    assert_eq!(
        snap.counter("immersion.circulation.calls"),
        snap.counter("hydraulics.ladder.calls")
    );
    assert_eq!(snap.counter("immersion.ladder.escalations"), 0);
}

/// A nominal fault drill is telemetrically silent: zero rejections,
/// zero alarm transitions, zero protective actions — and exactly one
/// plant linearization, reused for all 300 scans.
#[test]
fn nominal_drill_telemetry_is_silent() {
    let drill = FaultDrill::skat("nominal", FaultTimeline::new(), Seconds::minutes(10.0));
    let obs = Registry::new();
    let outcome = drill.run_observed(&mut Rng::seed_from_u64(7), &obs);
    assert!(outcome.clean());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("drill.steps"), 300);
    assert_eq!(snap.counter("drill.relinearizations"), 1);
    assert_eq!(snap.counter("drill.plausibility.rejections"), 0);
    assert_eq!(snap.counter("drill.alarm_transitions"), 0);
    assert_eq!(snap.counter("drill.shutdowns"), 0);
    assert_eq!(snap.counter("drill.violation_steps"), 0);
}

/// A pump seizure exercises the protective ladder: the plant is
/// relinearized, the alarm fires (one silent→alarming transition), the
/// supervisor trips its emergency stop once, and the hardware ceiling
/// is never crossed.
#[test]
fn pump_seizure_drill_records_the_protective_sequence() {
    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(20.0));
    let obs = Registry::new();
    let outcome = drill.run_observed(&mut Rng::seed_from_u64(7), &obs);
    assert!(outcome.shut_down);
    let snap = obs.snapshot();
    assert!(snap.counter("drill.relinearizations") >= 2);
    assert!(snap.counter("drill.alarm_transitions") >= 1);
    assert_eq!(snap.counter("drill.shutdowns"), 1);
    assert_eq!(snap.counter("drill.violation_steps"), 0);
    assert_eq!(snap.counter("drill.solver_failures"), 0);
}

/// The Monte-Carlo availability counters are the exact integer
/// numerators of the float report: `mc.events / (trials × horizon)`
/// reproduces `mean_events_per_year` to machine precision.
#[test]
fn monte_carlo_counters_are_exact_integer_numerators() {
    let classes = risk::failure_classes(&CoolingArchitecture::Immersion(
        ImmersionBath::skat_default(),
    ));
    let obs = Registry::new();
    let report = availability::monte_carlo_observed(&classes, 5.0, 960, 42, 1, &obs);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("mc.runs"), 1);
    assert_eq!(snap.counter("mc.trials"), 960);
    assert_eq!(snap.counter("mc.chunks"), 15);
    let events_per_year = snap.counter("mc.events") as f64 / (960.0 * 5.0);
    assert!(
        (events_per_year - report.mean_events_per_year).abs() < 1e-12,
        "counter numerator {events_per_year} vs report {}",
        report.mean_events_per_year
    );
}

/// The E17 matrix accounts for every cell: `drill.runs` equals the
/// matrix size, the supervised fleet never crosses the ceiling, and the
/// scripted sensor storms are visibly fought off in the counters.
#[test]
fn fault_drill_matrix_accounts_for_every_cell() {
    let obs = Registry::new();
    let rows = e17_fault_drills::rows_with_threads_observed(1, &obs);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("drill.runs"), rows.len() as u64);
    assert_eq!(snap.counter("drill.violation_steps"), 0);
    assert!(snap.counter("drill.plausibility.rejections") > 0);
    assert!(snap.counter("drill.plausibility.dropouts") > 0);
    assert!(snap.counter("drill.shutdowns") > 0);
}

/// Everything a run shows besides its trace and span files: the
/// `exp_all` tables and counter snapshot, and for a mixed query batch
/// at 1 and 4 threads the outcomes and counter snapshot of each.
struct Observed {
    tables: Vec<Table>,
    snapshot: Snapshot,
    batches: Vec<(Vec<QueryOutcome>, Snapshot)>,
}

/// A batch mixing every outcome kind: fresh solves, an in-batch
/// duplicate, a fatally invalid point that degrades onto its cached
/// neighbour, and — replayed once — cache hits.
fn mixed_batch() -> Vec<DesignQuery> {
    let q = |spec: &str| DesignQuery::parse(spec).expect("valid spec");
    let mut invalid = q("family=skat util=0.8 trials=16 seed=3");
    invalid.trials = 0;
    vec![
        q("family=skat util=0.85 trials=16 seed=3"),
        q("family=rigel2 util=0.6 trials=16 seed=3"),
        q("seed=3 trials=16 util=0.85 family=skat"),
        invalid,
    ]
}

/// The mixed batch, twice through one fresh engine at `threads`.
fn batch_outcomes(threads: usize, obs: &Registry) -> Vec<QueryOutcome> {
    let mut engine = QueryEngine::new(8);
    let queries = mixed_batch();
    let mut outcomes = engine.run_batch(&queries, threads, obs);
    outcomes.extend(engine.run_batch(&queries, threads, obs));
    outcomes
}

/// Runs `exp_all` and the mixed batch, each against a fresh registry
/// from `registry`.
fn observe(registry: impl Fn() -> Registry) -> Observed {
    let obs = registry();
    let tables = run_all_observed(&obs);
    let batches = [1, 4]
        .into_iter()
        .map(|threads| {
            let obs = registry();
            (batch_outcomes(threads, &obs), obs.snapshot())
        })
        .collect();
    Observed {
        tables,
        snapshot: obs.snapshot(),
        batches,
    }
}

fn assert_same_outcomes(a: &[QueryOutcome], b: &[QueryOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(x.bitwise_eq(y), "{what}: request {i}: {x:?} vs {y:?}");
    }
}

/// Turning the trace and/or the span sink on is observationally
/// invisible: the counter snapshot, every table and every query verdict
/// are bit-identical to a counters-only registry's — at both thread
/// counts of the batch, and at whatever `RCS_THREADS` the suite runs
/// `exp_all` under (CI runs it at 1 and 4).
#[test]
fn trace_and_spans_never_change_counters_tables_or_verdicts() {
    let reference = observe(Registry::new);
    assert!(!reference.snapshot.is_empty());
    let outcomes = &reference.batches[0].0;
    assert!(
        outcomes.iter().any(QueryOutcome::is_degraded),
        "{outcomes:?}"
    );
    let variants = [
        (
            "trace",
            observe(|| Registry::new().with_trace(TraceRecorder::new())),
        ),
        (
            "spans",
            observe(|| Registry::new().with_spans(SpanSink::new())),
        ),
        (
            "trace+spans",
            observe(|| {
                Registry::new()
                    .with_trace(TraceRecorder::new())
                    .with_spans(SpanSink::new())
            }),
        ),
    ];
    for (name, got) in variants {
        assert!(got.tables == reference.tables, "{name}: tables changed");
        assert_eq!(got.snapshot, reference.snapshot, "{name}: counters changed");
        for ((outcomes, snap), (ref_outcomes, ref_snap)) in
            got.batches.iter().zip(&reference.batches)
        {
            assert_same_outcomes(outcomes, ref_outcomes, name);
            assert_eq!(snap, ref_snap, "{name}: batch counters changed");
        }
    }
}

/// The disabled registry is observationally invisible too: with every
/// sink off, `exp_all` renders the same tables and the mixed batch
/// returns the same verdicts as with every sink on, and nothing is
/// buffered anywhere. (The `rcs-obs` `noalloc` test proves the same
/// calls are also allocation-free.)
#[test]
fn disabled_sinks_bit_match_the_unobserved_entry_points() {
    let enabled = observe(|| {
        Registry::new()
            .with_trace(TraceRecorder::new())
            .with_spans(SpanSink::new())
    });
    let off = Registry::disabled();
    assert!(run_all_observed(off) == enabled.tables, "tables changed");
    for (threads, (ref_outcomes, _)) in [1, 4].into_iter().zip(&enabled.batches) {
        assert_same_outcomes(&batch_outcomes(threads, off), ref_outcomes, "disabled");
    }
    assert!(off.snapshot().is_empty());
    assert!(off.trace().snapshot().is_empty());
    assert!(off.spans().snapshot().is_empty());
}

/// The NDJSON manifest is grep-stable: golden `counter`/`histogram`
/// lines are independent of the non-golden notes (worker counts and
/// other machine-dependent gauges), and the run header carries seed and
/// thread count.
#[test]
fn manifest_golden_lines_ignore_wall_clock() {
    let meta = manifest::RunMeta::new("telemetry_test", Some(99), 4);
    let a = Registry::new();
    let b = Registry::new();
    for (obs, workers) in [(&a, 1), (&b, 8)] {
        obs.inc("demo.calls");
        obs.record_histogram("demo.size", &[1, 2, 4], 3);
        obs.note("parallel.workers", workers);
    }
    let golden = |text: &str| {
        text.lines()
            .filter(|l| {
                l.starts_with("{\"type\":\"counter\"") || l.starts_with("{\"type\":\"histogram\"")
            })
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        golden(&manifest::render(&meta, &a)),
        golden(&manifest::render(&meta, &b))
    );
    assert_ne!(manifest::render(&meta, &a), manifest::render(&meta, &b));
    assert!(manifest::render(&meta, &a).starts_with(
        "{\"type\":\"run\",\"experiment\":\"telemetry_test\",\"seed\":99,\"threads\":4,"
    ));
}
