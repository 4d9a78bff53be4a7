//! Prints the E19 chaos-drill tables (see DESIGN.md) and emits an
//! NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr) whose
//! `resilience.*` golden counters and `profile.resilience.*` work
//! mirrors pin the drill's fault-injection and recovery schedule. When
//! `RCS_OBS_SPANS` names a file the per-cell golden span tree is
//! appended to it; when `RCS_OBS_TRACE` names one, the solver traces of
//! every miss are appended to it.

use rcs_chaos::e19_chaos_drill;
use rcs_obs::Registry;

fn main() {
    // The drill injects worker panics on purpose; keep their hook
    // output out of the report.
    rcs_chaos::silence_expected_panics();
    let obs = Registry::from_env();
    let tables = e19_chaos_drill::run(&obs);
    rcs_core::experiments::finish_run(
        "e19_chaos_drill",
        Some(e19_chaos_drill::SEED),
        &tables,
        &obs,
    );
}
