//! The NDJSON readers are a public boundary: `obs_report` and
//! `bench_trend` feed them whatever file they are given. Random bytes,
//! truncations and single-byte mutations of committed golden lines, and
//! arbitrarily deep nesting, must all come back as `Ok` or `Err` —
//! never as a panic or a stack overflow.

use rcs_obs::report::{parse_json, parse_ndjson, MAX_JSON_DEPTH};
use rcs_testkit::check;

/// Committed golden lines: counters, histograms, profile and span rows.
const GOLDENS: [&str; 4] = [
    include_str!("../../../goldens/exp_skat_thermal_profile.ndjson"),
    include_str!("../../../goldens/exp_skat_thermal_spans.ndjson"),
    include_str!("../../../goldens/exp_fault_drills_profile.ndjson"),
    include_str!("../../../goldens/exp_query_service_spans.ndjson"),
];

/// Manifest and trace lines, which the goldens above do not carry.
const EXTRA: [&str; 2] = [
    r#"{"type":"run","experiment":"e05_skat_thermal","seed":null,"threads":1,"model_version":"0.1.0"}"#,
    r#"{"type":"trace","name":"immersion.warmup.chip","kind":"temperature","stride":2,"pushed":5,"samples":[[0,30.5],[2,null],[4,-1e-3]]}"#,
];

fn golden_lines() -> Vec<&'static str> {
    GOLDENS
        .iter()
        .flat_map(|text| text.lines())
        .chain(EXTRA)
        .collect()
}

#[test]
fn every_golden_line_parses() {
    for line in golden_lines() {
        parse_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    for text in GOLDENS {
        parse_ndjson(text).expect("committed goldens parse");
    }
}

#[test]
fn hostile_variants_of_golden_lines_never_panic() {
    let lines = golden_lines();
    check("hostile_variants_of_golden_lines_never_panic", |g| {
        let line = lines[g.index(lines.len())];
        let text = g.hostile_text(line);
        let _ = parse_json(&text);
        let _ = parse_ndjson(&text);
        // the variant spliced into an otherwise valid stream as one
        // line fails on that line or not at all
        let stream = format!("{}\n{}\n{}", lines[0], text.replace('\n', " "), lines[1]);
        if let Err(e) = parse_ndjson(&stream) {
            assert!(e.starts_with("line 2:"), "{e}");
        }
    });
}

#[test]
fn counter_totals_past_u64_are_an_error() {
    let max = r#"{"type":"counter","name":"c","value":18446744073709551615}"#;
    let one = r#"{"type":"counter","name":"c","value":1}"#;
    let err = parse_ndjson(&format!("{max}\n{one}\n")).unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
    assert_eq!(parse_ndjson(max).unwrap()[0].counters["c"], u64::MAX);
}

#[test]
fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
    assert!(parse_json(&nested(MAX_JSON_DEPTH + 1)).is_err());
    let objects = format!(
        "{}1{}",
        r#"{"k":"#.repeat(MAX_JSON_DEPTH + 1),
        "}".repeat(MAX_JSON_DEPTH + 1)
    );
    assert!(parse_json(&objects).is_err());

    let deep = "[".repeat(200_000);
    let err = parse_json(&deep).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    let err = parse_ndjson(&format!("{}\n{deep}\n", EXTRA[0])).unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
}

#[test]
fn hostile_nesting_never_panics() {
    check("hostile_nesting_never_panics", |g| {
        let depth = g.draw(0usize..4 * MAX_JSON_DEPTH);
        let opener = if g.bool(0.5) { "[" } else { r#"{"k":"# };
        let text = format!("{}{}", opener.repeat(depth), g.hostile_text("]}"));
        let parsed = parse_json(&text);
        if depth > MAX_JSON_DEPTH {
            assert!(parsed.is_err());
        }
    });
}
