//! Boundary and empty-collection contracts of the small numeric
//! helpers: `percentile` at the degenerate sample sizes and probability
//! extremes, and the `Option`-returning folds that used to synthesize
//! fake values from empty collections (spread, coefficient of
//! variation, settling time) and now honestly return `None`.

use rcs_sim::hydraulics::balance;
use rcs_sim::numeric::stats::percentile;
use rcs_sim::thermal::ThermalNetwork;
use rcs_sim::units::{Celsius, Seconds, ThermalResistance, VolumeFlow};

#[test]
fn percentile_of_a_single_sample_is_that_sample_at_any_p() {
    for p in [0.0, 0.05, 0.5, 0.95, 1.0] {
        assert_eq!(percentile(&[7.5], p), 7.5, "p = {p}");
    }
}

#[test]
fn percentile_of_two_samples_uses_the_ceiling_rank() {
    let sorted = [1.0, 2.0];
    // rank = ceil(p·2) clamped to [1, 2]
    assert_eq!(percentile(&sorted, 0.0), 1.0);
    assert_eq!(percentile(&sorted, 0.5), 1.0);
    assert_eq!(percentile(&sorted, 0.5 + 1e-12), 2.0);
    assert_eq!(percentile(&sorted, 1.0), 2.0);
}

#[test]
fn percentile_extremes_are_min_and_max() {
    let sorted: Vec<f64> = (1..=17).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.0), 1.0);
    assert_eq!(percentile(&sorted, 1.0), 17.0);
}

#[test]
#[should_panic(expected = "percentile of an empty sample")]
fn percentile_of_an_empty_sample_panics() {
    let _ = percentile(&[], 0.5);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn percentile_rejects_probabilities_above_one() {
    let _ = percentile(&[1.0], 100.0);
}

#[test]
fn flow_spread_and_cv_of_no_loops_are_none() {
    assert_eq!(balance::spread(&[]), None);
    assert_eq!(balance::coefficient_of_variation(&[]), None);
    // one loop is a real (degenerate) distribution, not an error
    let one = [VolumeFlow::liters_per_minute(120.0)];
    assert_eq!(balance::spread(&one), Some(1.0));
    assert_eq!(balance::coefficient_of_variation(&one), Some(0.0));
}

#[test]
fn settling_time_of_a_foreign_node_is_none() {
    let mut net = ThermalNetwork::new();
    let node = net.add_node_with_capacitance("mass", 100.0);
    let sink = net.add_boundary("sink", Celsius::new(20.0));
    net.connect(node, sink, ThermalResistance::from_kelvin_per_watt(0.5))
        .expect("valid nodes");
    let trace = net
        .solve_transient(Celsius::new(40.0), Seconds::new(60.0), Seconds::new(1.0))
        .expect("integrates");
    assert!(trace.settling_time(node, 0.5).is_some());

    // a node id minted by a *different* network is foreign to this trace
    let mut other = ThermalNetwork::new();
    let _ = other.add_node_with_capacitance("a", 1.0);
    let _ = other.add_node_with_capacitance("b", 1.0);
    let foreign = other.add_node_with_capacitance("c", 1.0);
    assert_eq!(trace.settling_time(foreign, 0.5), None);
    assert_eq!(trace.last(foreign), None);
}
