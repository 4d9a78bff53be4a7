//! Prints the E18 design-query-service tables (see DESIGN.md) and emits
//! an NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr) whose
//! `query.*` golden counters and `profile.query.*` work mirrors pin the
//! cache hit/miss/eviction schedule of the experiment. When
//! `RCS_OBS_SPANS` names a file the per-request golden span tree is
//! appended to it (NDJSON, or a Chrome trace-event document for a
//! `.json` path); when `RCS_OBS_TRACE` names one, the solver traces of
//! every miss are appended to it.

use rcs_obs::Registry;
use rcs_query::e18_query_service;

fn main() {
    let obs = Registry::from_env();
    let tables = e18_query_service::run(&obs);
    rcs_core::experiments::finish_run(
        "e18_query_service",
        Some(e18_query_service::SEED),
        &tables,
        &obs,
    );
}
