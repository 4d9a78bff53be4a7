//! `DesignQuery::parse` is a public boundary: `query_cli` hands it every
//! line of a batch file. Random bytes, truncations and single-byte
//! mutations of the E18 batch specs must come back as `Ok` or a typed
//! `Err` — never a panic — and every spec that parses must render a
//! canonical spec that parses back to the same query.

use rcs_query::{e18_query_service, DesignQuery, QueryError};
use rcs_testkit::check;

#[test]
fn hostile_variants_of_batch_specs_parse_or_fail_cleanly() {
    let specs: Vec<String> = e18_query_service::batch()
        .iter()
        .map(DesignQuery::spec)
        .collect();
    check(
        "hostile_variants_of_batch_specs_parse_or_fail_cleanly",
        |g| {
            let spec = &specs[g.index(specs.len())];
            let text = g.hostile_text(spec);
            match DesignQuery::parse(&text) {
                Ok(q) => assert_eq!(DesignQuery::parse(&q.spec()), Ok(q), "{text:?}"),
                Err(e) => assert!(matches!(e, QueryError::Parse(_)), "{text:?}: {e:?}"),
            }
        },
    );
}
