//! Prints the E15 serviceability tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e15_maintenance};
use rcs_obs::Registry;

fn main() {
    let obs = Registry::from_env();
    let tables = e15_maintenance::run();
    experiments::finish_run("e15_maintenance", None, &tables, &obs);
}
