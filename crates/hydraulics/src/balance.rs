//! Flow-balance metrics and balancing-valve auto-trim.
//!
//! The paper argues the reverse-return layout "makes it possible to
//! balance the hydraulic resistance in all the circulation loops ... no
//! additional hydraulic balancing system is needed". This module provides
//! the metrics that quantify balance and the valve-trim algorithm a
//! direct-return system would need instead — the complexity the paper's
//! layout eliminates.

use rcs_fluids::FluidState;
use rcs_obs::Registry;
use rcs_units::VolumeFlow;

use crate::error::HydraulicError;
use crate::layout::ManifoldPlan;

/// Ratio of the largest to the smallest loop flow (`>= 1`, 1 is perfectly
/// balanced); `None` for an empty slice — there is no meaningful spread
/// of zero loops, and folding from `f64::MIN`/`f64::MAX` would invent
/// one.
#[must_use]
pub fn spread(flows: &[VolumeFlow]) -> Option<f64> {
    let (first, rest) = flows.split_first()?;
    let mut max = first.cubic_meters_per_second();
    let mut min = max;
    for q in rest {
        let q = q.cubic_meters_per_second();
        max = max.max(q);
        min = min.min(q);
    }
    Some(if min <= 0.0 { f64::INFINITY } else { max / min })
}

/// Coefficient of variation (standard deviation over mean) of loop
/// flows; `None` for an empty slice.
#[must_use]
pub fn coefficient_of_variation(flows: &[VolumeFlow]) -> Option<f64> {
    if flows.is_empty() {
        return None;
    }
    let xs: Vec<f64> = flows.iter().map(|q| q.cubic_meters_per_second()).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return Some(0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    Some(var.sqrt() / mean)
}

/// Report of an auto-trim run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrimReport {
    /// Spread before trimming.
    pub spread_before: f64,
    /// Spread after trimming.
    pub spread_after: f64,
    /// Solve-trim rounds used.
    pub rounds: usize,
    /// Final valve openings per loop.
    pub openings: Vec<f64>,
}

/// Iteratively trims the balancing valves of a manifold plan until the
/// loop-flow spread falls below `target_spread` (or `max_rounds` is
/// reached, returning the best achieved state).
///
/// The plan must have been built with `balancing_valves: true`; valves can
/// only *throttle*, so the algorithm pinches over-served loops toward the
/// most starved loop's flow.
///
/// # Errors
///
/// Propagates solver failures.
pub fn auto_trim(
    plan: &mut ManifoldPlan,
    fluid: &FluidState,
    target_spread: f64,
    max_rounds: usize,
) -> Result<TrimReport, HydraulicError> {
    let n = plan.loop_count();
    let mut openings = vec![1.0f64; n];
    // Valve trims keep the incidence structure, so every round reuses
    // one solver context: the sparse schedule is analyzed once and each
    // round warm-starts from the previous round's flows.
    let mut ctx = plan.network.solver_context();
    let obs = Registry::disabled();
    let initial = plan.network.solve_with(fluid, &mut ctx, obs)?;
    // a plan with no loops is trivially balanced
    let spread_before = spread(&plan.loop_flows(&initial)).unwrap_or(1.0);

    let mut best = spread_before;
    let mut rounds = 0;
    for round in 0..max_rounds {
        rounds = round + 1;
        let sol = plan.network.solve_with(fluid, &mut ctx, obs)?;
        let flows = plan.loop_flows(&sol);
        let s = spread(&flows).unwrap_or(1.0);
        best = best.min(s);
        if s <= target_spread {
            return Ok(TrimReport {
                spread_before,
                spread_after: s,
                rounds,
                openings,
            });
        }
        let min_q = flows
            .iter()
            .map(|q| q.cubic_meters_per_second())
            .fold(f64::MAX, f64::min);
        for (i, q) in flows.iter().enumerate() {
            let ratio = min_q / q.cubic_meters_per_second().max(1e-12);
            // proportional pinch toward the starved loop's flow
            openings[i] = (openings[i] * ratio.powf(0.5)).clamp(0.05, 1.0);
            plan.network
                .set_valve_opening(plan.loop_branches[i], openings[i])?;
        }
    }
    let sol = plan.network.solve_with(fluid, &mut ctx, obs)?;
    let spread_after = spread(&plan.loop_flows(&sol)).unwrap_or(1.0);
    Ok(TrimReport {
        spread_before,
        spread_after,
        rounds,
        openings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{rack_manifold_with, ManifoldParams, ReturnStyle};
    use rcs_fluids::Coolant;
    use rcs_units::Celsius;

    #[test]
    fn spread_of_equal_flows_is_one() {
        let flows = vec![VolumeFlow::liters_per_minute(40.0); 5];
        assert!((spread(&flows).unwrap() - 1.0).abs() < 1e-12);
        assert!(coefficient_of_variation(&flows).unwrap() < 1e-12);
    }

    #[test]
    fn spread_detects_imbalance() {
        let flows = vec![
            VolumeFlow::liters_per_minute(60.0),
            VolumeFlow::liters_per_minute(40.0),
        ];
        assert!((spread(&flows).unwrap() - 1.5).abs() < 1e-12);
        assert!(coefficient_of_variation(&flows).unwrap() > 0.19);
    }

    #[test]
    fn spread_is_infinite_with_a_dead_loop() {
        let flows = vec![VolumeFlow::liters_per_minute(60.0), VolumeFlow::ZERO];
        assert!(spread(&flows).unwrap().is_infinite());
    }

    #[test]
    fn empty_flow_sets_have_no_metrics() {
        assert_eq!(spread(&[]), None);
        assert_eq!(coefficient_of_variation(&[]), None);
    }

    #[test]
    fn auto_trim_balances_a_direct_return_rack() {
        let params = ManifoldParams {
            balancing_valves: true,
            ..ManifoldParams::default()
        };
        let mut plan = rack_manifold_with(6, ReturnStyle::Direct, &params);
        let water = Coolant::water().state(Celsius::new(20.0));
        let report = auto_trim(&mut plan, &water, 1.03, 40).unwrap();
        assert!(
            report.spread_before > 1.1,
            "before = {}",
            report.spread_before
        );
        assert!(
            report.spread_after <= 1.03,
            "after = {}",
            report.spread_after
        );
        // the near (over-served) loop ends up pinched hardest
        assert!(report.openings[0] < report.openings[5]);
    }
}
