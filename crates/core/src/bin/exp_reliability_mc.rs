//! Prints the E12 reliability Monte-Carlo experiment tables (see
//! DESIGN.md) and emits an NDJSON run manifest (`RCS_OBS_MANIFEST`
//! file, else stderr) carrying the `mc.*` trial/event telemetry, plus
//! the per-trial availability traces when `RCS_OBS_TRACE` names a file
//! and the span tree when `RCS_OBS_SPANS` names a file.

use rcs_core::experiments::{self, e12_reliability_mc};
use rcs_obs::Registry;

fn main() {
    let obs = Registry::from_env();
    let tables = e12_reliability_mc::run_observed(&obs);
    experiments::finish_run(
        "e12_reliability_mc",
        Some(e12_reliability_mc::SEED),
        &tables,
        &obs,
    );
}
