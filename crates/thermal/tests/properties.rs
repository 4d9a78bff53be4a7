//! Property-based tests for thermal networks: transient settling to
//! the closed-form steady state, and TIM washout bounds.

use rcs_testkit::check_cases;
use rcs_thermal::{ThermalNetwork, TimAging, TimMaterial};
use rcs_units::{Celsius, Power, Seconds, ThermalResistance};

/// The transient solution settles to the steady solution for randomized
/// RC chains.
#[test]
fn transient_settles_to_steady() {
    check_cases("transient_settles_to_steady", 64, |g| {
        let power = g.draw(5.0..100.0f64);
        let r1 = g.draw(0.05..1.0f64);
        let r2 = g.draw(0.05..1.0f64);
        let c1 = g.draw(5.0..50.0f64);
        let c2 = g.draw(5.0..50.0f64);
        let mut net = ThermalNetwork::new();
        let amb = net.add_boundary("amb", Celsius::new(20.0));
        let a = net.add_node_with_capacitance("a", c1);
        let b = net.add_node_with_capacitance("b", c2);
        net.connect(a, b, ThermalResistance::from_kelvin_per_watt(r1))
            .unwrap();
        net.connect(b, amb, ThermalResistance::from_kelvin_per_watt(r2))
            .unwrap();
        net.add_heat(a, Power::from_watts(power)).unwrap();

        // closed form of the chain: T_b = T_amb + P r₂, T_a = T_b + P r₁
        let t_b = 20.0 + power * r2;
        let t_a = t_b + power * r1;
        // integrate long enough: ~12 time constants of the slowest pole
        let tau = (r1 + r2) * (c1 + c2);
        let trace = net
            .solve_transient(
                Celsius::new(20.0),
                Seconds::new(12.0 * tau),
                Seconds::new(tau / 400.0),
            )
            .unwrap();
        for (node, steady) in [(a, t_a), (b, t_b)] {
            assert!(
                (trace.final_temperature(node).degrees() - steady).abs() < 0.05,
                "node {node:?}"
            );
        }
    });
}

/// TIM washout: resistance after any immersion time is bounded between
/// fresh and the 4x floor, monotonically.
#[test]
fn washout_bounds() {
    check_cases("washout_bounds", 64, |g| {
        let months = g.draw(0.0..240.0f64);
        let m = TimMaterial::StandardPaste;
        let k = m.conductivity_after(TimAging::immersed_months(months));
        let fresh = m.fresh_conductivity_w_per_m_k();
        assert!(k <= fresh + 1e-12);
        assert!(k >= 0.25 * fresh - 1e-12);
    });
}
