//! Property-based tests for the hydraulic solver and layouts.

use rcs_fluids::Coolant;
use rcs_hydraulics::{balance, layout, Element, HydraulicNetwork, Pipe, PumpCurve};
use rcs_testkit::check_cases;
use rcs_units::{Celsius, Length, Pressure, VolumeFlow};

fn water() -> rcs_fluids::FluidState {
    Coolant::water().state(Celsius::new(20.0))
}

/// Mass conservation holds at every junction for randomized parallel
/// ladders of 2..6 loops with randomized pipe lengths.
#[test]
fn random_ladder_conserves_mass() {
    check_cases("random_ladder_conserves_mass", 64, |g| {
        let lengths = g.vec_f64_in(2.0..40.0, 2..6);
        let shutoff_kpa = g.draw(30.0..200.0f64);
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("s");
        let r = net.add_junction("r");
        for (i, len) in lengths.iter().enumerate() {
            net.add_branch(
                format!("loop{i}"),
                s,
                r,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(*len),
                    Length::millimeters(20.0),
                ))],
            )
            .unwrap();
        }
        net.add_branch(
            "pump",
            r,
            s,
            vec![Element::Pump(PumpCurve::new(
                Pressure::kilopascals(shutoff_kpa),
                VolumeFlow::liters_per_minute(400.0),
            ))],
        )
        .unwrap();
        let sol = net.solve(&water()).unwrap();
        for j in net.junction_ids() {
            let res = sol.continuity_residual(j);
            assert!(res.cubic_meters_per_second().abs() < 1e-7);
        }
        // all loop flows positive (supply to return)
        for k in 0..lengths.len() {
            assert!(sol.flows()[k].cubic_meters_per_second() > 0.0);
        }
    });
}

/// Shorter parallel pipes always carry at least as much flow.
#[test]
fn flow_ordering_follows_resistance() {
    check_cases("flow_ordering_follows_resistance", 64, |g| {
        let l1 = g.draw(2.0..20.0f64);
        let extra = g.draw(0.5..30.0f64);
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("s");
        let r = net.add_junction("r");
        let short = net
            .add_branch(
                "short",
                s,
                r,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(l1),
                    Length::millimeters(20.0),
                ))],
            )
            .unwrap();
        let long = net
            .add_branch(
                "long",
                s,
                r,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(l1 + extra),
                    Length::millimeters(20.0),
                ))],
            )
            .unwrap();
        net.add_branch(
            "pump",
            r,
            s,
            vec![Element::Pump(PumpCurve::new(
                Pressure::kilopascals(80.0),
                VolumeFlow::liters_per_minute(300.0),
            ))],
        )
        .unwrap();
        let sol = net.solve(&water()).unwrap();
        assert!(
            sol.flow(short).cubic_meters_per_second()
                >= sol.flow(long).cubic_meters_per_second() - 1e-12
        );
    });
}

/// Reverse return beats direct return on spread for every rack size and
/// a range of loop resistances.
#[test]
fn reverse_always_beats_direct() {
    check_cases("reverse_always_beats_direct", 64, |g| {
        let n = g.draw(2usize..10);
        let hx_k = g.draw(3.0..12.0f64);
        let params = layout::ManifoldParams {
            exchanger_k: hx_k,
            ..layout::ManifoldParams::default()
        };
        let direct = layout::rack_manifold_with(n, layout::ReturnStyle::Direct, &params);
        let reverse = layout::rack_manifold_with(n, layout::ReturnStyle::Reverse, &params);
        let sd =
            balance::spread(&direct.loop_flows(&direct.network.solve(&water()).unwrap())).unwrap();
        let sr = balance::spread(&reverse.loop_flows(&reverse.network.solve(&water()).unwrap()))
            .unwrap();
        assert!(
            sr <= sd + 1e-9,
            "n={n} k={hx_k}: reverse {sr} !<= direct {sd}"
        );
    });
}

/// Failing any loop leaves the surviving reverse-return loops balanced
/// and faster than before.
#[test]
fn any_single_failure_redistributes() {
    check_cases("any_single_failure_redistributes", 64, |g| {
        let n = g.draw(3usize..8);
        let fail = g.draw(0usize..8) % n;
        let mut plan = layout::rack_manifold(n, layout::ReturnStyle::Reverse);
        let before = plan.loop_flows(&plan.network.solve(&water()).unwrap());
        plan.fail_loop(fail).unwrap();
        let after_sol = plan.network.solve(&water()).unwrap();
        let after = plan.loop_flows(&after_sol);
        for i in 0..n {
            if i == fail {
                assert_eq!(after[i].cubic_meters_per_second(), 0.0);
            } else {
                assert!(after[i] > before[i]);
            }
        }
        let survivors = plan.surviving_loop_flows(&after_sol);
        // manifold losses accumulate with rack height, so the achievable
        // balance loosens slightly with n
        let bound = 1.05 + 0.025 * n as f64;
        assert!(balance::spread(&survivors).unwrap() < bound);
    });
}

/// Cold oil is both denser and far more viscous than warm oil, so the
/// same pressure-driven network flows strictly less of it.
#[test]
fn cold_oil_flows_less_than_warm_oil() {
    check_cases("cold_oil_flows_less_than_warm_oil", 64, |g| {
        let n = g.draw(2usize..6);
        let plan = layout::rack_manifold(n, layout::ReturnStyle::Reverse);
        let cold = Coolant::mineral_oil_md45().state(Celsius::new(0.0));
        let warm = Coolant::mineral_oil_md45().state(Celsius::new(60.0));
        let qc = plan.network.solve(&cold).unwrap();
        let qw = plan.network.solve(&warm).unwrap();
        let total = |flows: Vec<VolumeFlow>| -> f64 {
            flows.iter().map(|q| q.cubic_meters_per_second()).sum()
        };
        assert!(total(plan.loop_flows(&qc)) < total(plan.loop_flows(&qw)));
    });
}
