//! End-to-end regression gate for `obs_report diff`: a real workload's
//! manifest + trace NDJSON round-trips through the parser, an identical
//! pair diffs clean, and injected regressions — a counter drift, a
//! profile drift, a trace drift, even a 1e-9 relative one — each turn
//! into a finding naming the channel (the binary's nonzero exit code).

use rcs_sim::cooling::faults::{FaultKind, FaultTimeline};
use rcs_sim::core::FaultDrill;
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::report;
use rcs_sim::obs::trace::{self, TraceRecorder};
use rcs_sim::obs::{manifest, Registry};
use rcs_sim::units::Seconds;

/// One NDJSON stream exactly as `finish_run` writes it when
/// `RCS_OBS_MANIFEST` and `RCS_OBS_TRACE` point at the same file:
/// manifest lines first, trace lines appended.
fn workload_ndjson(seed: u64) -> String {
    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(8.0));
    let obs = Registry::new().with_trace(TraceRecorder::new());
    let _ = drill.run_observed(&mut Rng::seed_from_u64(seed), &obs);
    let meta = manifest::RunMeta::new("obs_report_test", Some(seed), 1);
    let mut text = manifest::render(&meta, &obs);
    text.push_str(&trace::render_ndjson(&obs.trace().snapshot()));
    text
}

#[test]
fn parser_ingests_a_real_manifest_with_traces_and_profiles() {
    let docs = report::parse_ndjson(&workload_ndjson(7)).expect("parses");
    assert_eq!(docs.len(), 1);
    let doc = &docs[0];
    assert_eq!(doc.experiment, "obs_report_test");
    assert_eq!(doc.seed, Some(7));
    assert!(doc.counters.contains_key("drill.runs"));
    assert!(doc.counters.contains_key("profile.drill.scans"));
    assert!(doc.traces.contains_key("drill.t_chip"));
    let profile = doc.profile();
    assert!(profile.total > 0, "work accounting present: {profile:?}");
}

#[test]
fn identical_runs_diff_clean_with_exit_code_zero() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let diff = report::diff_docs(&a, &b);
    assert!(!diff.has_regressions(), "{}", diff.render());
    assert!(diff.compared > 0);
}

#[test]
fn different_seeds_are_caught_as_regressions() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let b = report::parse_ndjson(&workload_ndjson(8)).unwrap();
    let diff = report::diff_docs(&a, &b);
    assert!(diff.has_regressions());
}

#[test]
fn an_injected_counter_drift_flips_the_exit_code() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    *b[0].counters.get_mut("drill.steps").unwrap() += 1;
    let diff = report::diff_docs(&a, &b);
    assert!(diff.has_regressions());
    assert!(
        diff.findings.iter().any(|f| f.name == "drill.steps"),
        "{}",
        diff.render()
    );
}

#[test]
fn an_injected_profile_drift_is_caught_by_the_full_diff() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    *b[0].counters.get_mut("profile.drill.scans").unwrap() += 10;
    let diff = report::diff_docs(&a, &b);
    let names: Vec<&str> = diff.findings.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["profile.drill.scans"], "{}", diff.render());
    // a non-profile drift beside it is reported too, not masked
    *b[0].counters.get_mut("drill.steps").unwrap() += 1;
    let diff = report::diff_docs(&a, &b);
    let names: Vec<&str> = diff.findings.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        ["drill.steps", "profile.drill.scans"],
        "{}",
        diff.render()
    );
}

#[test]
fn an_injected_trace_drift_flips_the_exit_code() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let t = b[0].traces.get_mut("drill.t_chip").unwrap();
    let last = t.samples.last_mut().unwrap();
    last.1 += 0.25;
    let diff = report::diff_docs(&a, &b);
    assert!(diff.has_regressions());
    assert!(
        diff.findings.iter().any(|f| f.name == "drill.t_chip"),
        "{}",
        diff.render()
    );
}

#[test]
fn the_exact_diff_catches_a_tiny_float_drift() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let t = b[0].traces.get_mut("drill.t_chip").unwrap();
    for s in &mut t.samples {
        s.1 *= 1.0 + 1e-9;
    }
    let diff = report::diff_docs(&a, &b);
    let names: Vec<&str> = diff.findings.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["drill.t_chip"], "{}", diff.render());
}
