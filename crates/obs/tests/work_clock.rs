//! The work clock is the rolled-up profile total.
//!
//! `Registry::work_units` keeps a running sum of every `profile.*`
//! counter, and per-query work budgets read it instead of rebuilding
//! the profile tree from a snapshot. This pins the two to the same
//! number under any mix of `work`, raw `add`, and `absorb_shard`, and
//! checks that a path reaching the registry by several of those routes
//! still renders as one `profile.*` counter in sorted order.

use rcs_obs::{profile, Registry};
use rcs_testkit::{check, Gen};

/// Profile paths with a parent next to its own children (`a` and
/// `a.b`), so a node carries both its own work and descendants.
const PATHS: [&str; 6] = ["a", "a.b", "a.b.c", "a.c", "b", "solve.iters"];

/// The same paths as full counter names, for the raw-`add` route.
const PROFILED: [&str; 6] = [
    "profile.a",
    "profile.a.b",
    "profile.a.b.c",
    "profile.a.c",
    "profile.b",
    "profile.solve.iters",
];

/// Counter names outside the `profile.` namespace, including ones that
/// only resemble it.
const OTHER: [&str; 4] = ["a", "profile", "profiles.a", "solve.calls"];

fn record(g: &mut Gen, obs: &Registry) {
    let units = g.draw(0u64..1_000);
    match g.index(3) {
        0 => obs.work(PATHS[g.index(PATHS.len())], units),
        1 => obs.add(PROFILED[g.index(PROFILED.len())], units),
        _ => obs.add(OTHER[g.index(OTHER.len())], units),
    }
}

fn assert_clock_is_tree_total(obs: &Registry) {
    assert_eq!(obs.work_units(), profile::tree(&obs.snapshot()).total);
}

#[test]
fn work_units_equal_the_profile_tree_total() {
    check("work_units_equal_the_profile_tree_total", |g| {
        let obs = Registry::new();
        for _ in 0..g.draw(0usize..24) {
            if g.bool(0.25) {
                let shard = obs.shard();
                for _ in 0..g.draw(0usize..8) {
                    record(g, &shard);
                }
                assert_clock_is_tree_total(&shard);
                let prefix = if g.bool(0.5) { "" } else { "cell" };
                obs.absorb_shard(prefix, &shard.seal());
            } else {
                record(g, &obs);
            }
            assert_clock_is_tree_total(&obs);
        }
    });
}

#[test]
fn profile_paths_render_once_in_sorted_order_whichever_route_recorded_them() {
    check(
        "profile_paths_render_once_in_sorted_order_whichever_route_recorded_them",
        |g| {
            let restored = Registry::new();
            for _ in 0..g.draw(0usize..12) {
                record(g, &restored);
            }
            let obs = Registry::new();
            for _ in 0..g.draw(0usize..24) {
                match g.index(3) {
                    0 => obs.absorb(&restored.snapshot()),
                    1 => {
                        let i = g.index(PATHS.len());
                        obs.work(PATHS[i], 1);
                        obs.add(PROFILED[i], 2);
                    }
                    _ => record(g, &obs),
                }
            }
            let snap = obs.snapshot();
            assert!(
                snap.counters.windows(2).all(|w| w[0].0 < w[1].0),
                "counters not strictly ascending: {:?}",
                snap.counters
            );
            assert_clock_is_tree_total(&obs);
        },
    );
}
