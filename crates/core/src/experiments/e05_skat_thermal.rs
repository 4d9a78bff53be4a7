//! **E5 / F2** — the SKAT prototype heat test (§3, Fig. 2).
//!
//! Paper: "the temperature of the heat-transfer agent does not exceed
//! 30 °C, and the power consumed by each FPGA in operating mode equals
//! 91 W (8736 W for the whole CM) … the maximum FPGA temperature during
//! heat experiments did not exceed 55 °C."

use rcs_obs::Registry;
use rcs_units::Seconds;

use super::Table;
use crate::rules;
use crate::ImmersionModel;

/// Renders the steady-state comparison plus the Fig. 2 warm-up series,
/// with solver telemetry recorded into `obs`: the steady solve and the
/// warm-up integration both thread the registry down, so the manifest
/// shows exactly how hard the prototype reproduction worked
/// (`immersion.solve.*`, `hydraulics.ladder.*`, `thermal.transient.*`).
/// The Fig. 2 warm-up pushes its chip-field and bath series into the
/// `immersion.warmup.*` channels of the trace (decimated
/// deterministically to the recorder capacity), and the steady solve
/// and the warm-up run inside `immersion.solve` / `immersion.warmup`
/// spans.
#[must_use]
pub fn run_observed(obs: &Registry) -> Vec<Table> {
    let model = ImmersionModel::skat();
    obs.enter("immersion.solve");
    let report = model.solve_observed(obs).expect("SKAT converges");
    obs.exit();

    let steady = Table::new(
        "E5 — SKAT immersion heat test, paper vs model",
        &["quantity", "paper", "model", "ok"],
        vec![
            vec![
                "per-FPGA power (operating mode)".into(),
                "91 W".into(),
                format!("{:.1} W", report.chip_power.watts()),
                yes((report.chip_power.watts() - 91.0).abs() < 4.0),
            ],
            vec![
                "module FPGA heat".into(),
                "8736 W".into(),
                format!("{:.0} W", report.chip_power.watts() * 96.0),
                yes((report.chip_power.watts() * 96.0 - 8736.0).abs() < 400.0),
            ],
            vec![
                "heat-transfer agent maximum".into(),
                "<= 30 °C".into(),
                format!("{:.1}", report.coolant_hot),
                yes(report.coolant_hot.degrees() <= 30.0),
            ],
            vec![
                "maximum FPGA temperature".into(),
                "<= 55 °C".into(),
                format!("{:.1}", report.junction),
                yes(report.junction.degrees() <= 55.0),
            ],
            vec![
                "circulated oil flow".into(),
                "(not reported)".into(),
                format!("{:.0} L/min", report.coolant_flow.as_liters_per_minute()),
                "—".into(),
            ],
            vec![
                "cooling overhead (pump + chiller share)".into(),
                "(not reported)".into(),
                format!("{:.1} %", report.cooling_overhead() * 100.0),
                "—".into(),
            ],
        ],
    );

    let checks = rules::operating_rules(&report);
    let rules_table = Table::new(
        "E5 — §3 design-rule checks for SKAT",
        &["rule", "result", "detail"],
        checks
            .iter()
            .map(|c| vec![c.rule.to_owned(), yes(c.passed), c.detail.clone()])
            .collect(),
    );

    obs.enter("immersion.warmup");
    let warmup = model
        .warmup_observed(Seconds::hours(2.0), Seconds::new(2.0), obs)
        .expect("warm-up integrates");
    obs.exit();
    let chip = warmup.chip_series();
    let bath = warmup.bath_series();
    let samples = [0.0, 60.0, 180.0, 420.0, 900.0, 1800.0, 3600.0, 7200.0];
    let mut rows = Vec::new();
    for target in samples {
        let idx = chip
            .iter()
            .position(|(t, _)| t.seconds() >= target)
            .unwrap_or(chip.len() - 1);
        rows.push(vec![
            format!("{:.0}", chip[idx].0.seconds()),
            format!("{:.1}", chip[idx].1.degrees()),
            format!("{:.1}", bath[idx].1.degrees()),
        ]);
    }
    let trace = Table::new(
        format!(
            "F2 — SKAT cold-start warm-up (settles in {:.0} s; chips -> {:.1}, bath -> {:.1})",
            warmup.settling_time(0.5).seconds(),
            warmup.final_chip_temperature(),
            warmup.final_bath_temperature()
        ),
        &["t [s]", "chip field [°C]", "oil bath [°C]"],
        rows,
    );

    vec![steady, rules_table, trace]
}

fn yes(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_skat_checks_pass() {
        let tables = run_observed(Registry::disabled());
        // the steady table's "ok" column contains no "NO"
        for row in &tables[0].rows {
            assert_ne!(row[3], "NO", "{row:?}");
        }
        for row in &tables[1].rows {
            assert_ne!(row[1], "NO", "{row:?}");
        }
    }

    #[test]
    fn e5_converges_without_fallback_rung_escalations() {
        let obs = Registry::new();
        let tables = run_observed(&obs);
        assert_eq!(tables.len(), 3);
        let snap = obs.snapshot();
        // the prototype reproduction converges on the default solver
        // settings: every hydraulic solve succeeds at rung 0 and the
        // steady picture never falls back to a damped retry
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
        assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 0);
        assert_eq!(snap.counter("immersion.solve.no_convergence"), 0);
        // one direct steady solve plus the one embedded in the warm-up
        assert_eq!(snap.counter("immersion.solve.calls"), 2);
        assert_eq!(snap.counter("immersion.warmup.calls"), 1);
        assert_eq!(snap.counter("thermal.transient.calls"), 1);
        assert!(snap.counter("thermal.transient.steps") > 0);
        // every circulation solve went through the observed ladder
        assert_eq!(
            snap.counter("hydraulics.ladder.calls"),
            snap.counter("hydraulics.ladder.converged")
        );
    }

    #[test]
    fn warmup_trace_is_monotone_up() {
        let tables = run_observed(Registry::disabled());
        let trace = &tables[2];
        let temps: Vec<f64> = trace
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap())
            .collect();
        for w in temps.windows(2) {
            assert!(w[1] >= w[0] - 0.2, "{temps:?}");
        }
    }
}
