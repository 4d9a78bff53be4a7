//! Rack-scale coupling: many modules, one chiller, one manifold.
//!
//! The single-module models assume ideal facility water. At rack scale
//! (Fig. 1-b + Fig. 5) the modules share a chiller of finite capacity and
//! a manifold whose layout decides how much secondary water each module
//! actually receives. This model couples both: the manifold solution sets
//! per-module water flows, the summed heat loads the shared chiller, and
//! the chiller's (possibly overloaded) supply temperature feeds back into
//! every module's coupled solve.

use rcs_cooling::ImmersionBath;
use rcs_devices::OperatingPoint;
use rcs_fluids::Coolant;
use rcs_hydraulics::layout::{self, ManifoldParams, ReturnStyle};
use rcs_platform::ComputeModule;
use rcs_thermal::Chiller;
use rcs_units::{Celsius, Power, Pressure, VolumeFlow};

use crate::error::CoreError;
use crate::immersion::ImmersionModel;
use crate::report::SteadyReport;

/// Iteration budget of the shared-chiller supply fixed point.
const SUPPLY_ITERATIONS: usize = 20;

/// A rack of identical immersion-cooled modules on a shared secondary
/// loop.
///
/// # Examples
///
/// ```
/// use rcs_core::RackImmersionModel;
///
/// let report = RackImmersionModel::skat_rack(12).solve()?;
/// assert!(report.within_chiller_capacity);
/// assert!(report.junction_spread_k().expect("non-empty rack") < 1.0); // reverse return keeps it tight
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RackImmersionModel {
    module: ComputeModule,
    bath_template: ImmersionBath,
    count: usize,
    facility_chiller: Chiller,
    manifold_style: ReturnStyle,
    manifold_params: ManifoldParams,
    op: OperatingPoint,
}

impl RackImmersionModel {
    /// A 47U rack of `count` SKAT modules on a 150 kW facility chiller and
    /// a reverse-return manifold sized for the rack.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn skat_rack(count: usize) -> Self {
        assert!(count > 0, "a rack needs at least one module");
        Self {
            module: rcs_platform::presets::skat(),
            bath_template: ImmersionBath::skat_default(),
            count,
            facility_chiller: Chiller::new(Celsius::new(20.0), Power::kilowatts(150.0), 4.5),
            manifold_style: ReturnStyle::Reverse,
            manifold_params: Self::rack_manifold_params(count),
            op: OperatingPoint::operating_mode(),
        }
    }

    /// A rack of SKAT+ modules (same facility defaults).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn skat_plus_rack(count: usize) -> Self {
        let mut rack = Self::skat_rack(count);
        rack.module = rcs_platform::presets::skat_plus();
        rack.bath_template = ImmersionBath::skat_plus_default();
        rack
    }

    /// Manifold sizing rule: header diameter grows with sqrt(loops) to
    /// hold header velocity, pump head sized for ~75 L/min per module.
    fn rack_manifold_params(count: usize) -> ManifoldParams {
        ManifoldParams {
            manifold_diameter: rcs_units::Length::millimeters(
                50.0 * (count as f64 / 6.0).sqrt().max(1.0),
            ),
            pump_shutoff: Pressure::kilopascals(180.0),
            pump_max_flow: VolumeFlow::liters_per_minute(150.0 * count as f64),
            ..ManifoldParams::default()
        }
    }

    /// Overrides the facility chiller.
    #[must_use]
    pub fn with_chiller(mut self, chiller: Chiller) -> Self {
        self.facility_chiller = chiller;
        self
    }

    /// Overrides the manifold style (for the direct-return comparison).
    #[must_use]
    pub fn with_manifold_style(mut self, style: ReturnStyle) -> Self {
        self.manifold_style = style;
        self
    }

    /// Overrides the operating point.
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Solves the coupled rack: manifold flows → per-module solves →
    /// shared-chiller feedback, iterated to a fixed point.
    ///
    /// # Errors
    ///
    /// Propagates substrate and per-module convergence failures, and
    /// returns [`CoreError::NoConvergence`] (last supply step as
    /// `residual_k`) when the shared-chiller supply has not settled
    /// within its iteration budget.
    pub fn solve(&self) -> Result<RackReport, CoreError> {
        // 1. Manifold flow distribution at the chiller setpoint. The
        //    distribution is not re-solved if an overloaded chiller raises
        //    the supply a few kelvin: water viscosity shifts the flows by
        //    well under 1 %, far below the solver's other approximations.
        let plan =
            layout::rack_manifold_with(self.count, self.manifold_style, &self.manifold_params);
        let water = Coolant::water().state(self.facility_chiller.setpoint());
        let manifold = plan.network.solve(&water)?;
        let water_flows = plan.loop_flows(&manifold);

        // 2. Fixed point over the shared chiller's supply temperature.
        let mut supply = self.facility_chiller.setpoint();
        let mut per_module: Vec<SteadyReport> = Vec::new();
        let mut total_heat = Power::ZERO;
        let mut converged = false;
        let mut last_step = 0.0;
        for _ in 0..SUPPLY_ITERATIONS {
            per_module.clear();
            total_heat = Power::ZERO;
            for flow in &water_flows {
                let mut bath = self.bath_template.clone();
                bath.water_flow = *flow;
                // each module sees the shared supply temperature; capacity
                // accounting happens at the rack level below
                bath.chiller =
                    Chiller::new(supply, Power::kilowatts(1e3), self.facility_chiller.cop());
                let report = ImmersionModel::new(self.module.clone(), bath)
                    .with_operating_point(self.op)
                    .solve()?;
                total_heat += report.total_heat;
                per_module.push(report);
            }
            let next_supply = self.facility_chiller.supply_temperature(total_heat);
            last_step = (next_supply - supply).kelvins().abs();
            supply = next_supply;
            if last_step < 1e-6 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(CoreError::NoConvergence {
                iterations: SUPPLY_ITERATIONS,
                residual_k: Some(last_step),
            });
        }

        Ok(RackReport {
            per_module,
            water_flows,
            chiller_supply: supply,
            total_heat,
            within_chiller_capacity: self.facility_chiller.within_capacity(total_heat),
            chiller_power: self.facility_chiller.electrical_power(total_heat),
        })
    }
}

/// Solved state of a shared-loop rack.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// Per-module steady reports, in rack order.
    pub per_module: Vec<SteadyReport>,
    /// Secondary water flow delivered to each module by the manifold.
    pub water_flows: Vec<VolumeFlow>,
    /// Facility supply temperature after capacity effects.
    pub chiller_supply: Celsius,
    /// Total rack heat.
    pub total_heat: Power,
    /// `true` if the facility chiller holds its setpoint.
    pub within_chiller_capacity: bool,
    /// Facility chiller electrical power.
    pub chiller_power: Power,
}

impl RackReport {
    /// Hottest junction in the rack, or `None` for an empty module list
    /// (a constructed rack always has at least one module, but a report
    /// must not invent `f64::MIN` °C as a "peak" either way).
    #[must_use]
    pub fn hottest_junction(&self) -> Option<Celsius> {
        self.per_module
            .iter()
            .map(|r| r.junction)
            .reduce(Celsius::max)
    }

    /// Junction spread across modules (hottest minus coolest), in kelvins
    /// — the rack thermal-uniformity metric the manifold layout controls.
    /// `None` for an empty module list.
    #[must_use]
    pub fn junction_spread_k(&self) -> Option<f64> {
        let max = self.hottest_junction()?;
        let min = self
            .per_module
            .iter()
            .map(|r| r.junction)
            .reduce(Celsius::min)?;
        Some((max - min).kelvins())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_rack_holds_the_envelope_on_shared_water() {
        let report = RackImmersionModel::skat_rack(12).solve().unwrap();
        assert!(report.within_chiller_capacity, "{:.0}", report.total_heat);
        assert!(
            report.hottest_junction().unwrap().degrees() <= 55.0,
            "{:?}",
            report.hottest_junction()
        );
        assert_eq!(report.per_module.len(), 12);
        // reverse return keeps module-to-module variation small
        assert!(
            report.junction_spread_k().unwrap() < 1.0,
            "{:?} K",
            report.junction_spread_k()
        );
    }

    #[test]
    fn direct_return_rack_is_less_uniform() {
        let reverse = RackImmersionModel::skat_rack(12).solve().unwrap();
        let direct = RackImmersionModel::skat_rack(12)
            .with_manifold_style(ReturnStyle::Direct)
            .solve()
            .unwrap();
        assert!(direct.junction_spread_k().unwrap() > reverse.junction_spread_k().unwrap());
    }

    #[test]
    fn an_unsettled_chiller_supply_is_a_convergence_error() {
        // ~10 kW of module heat on a 3 kW chiller: every supply step
        // raises the heat enough to keep the supply moving past the
        // iteration budget, while each module solve still converges.
        let err = RackImmersionModel::skat_rack(1)
            .with_chiller(Chiller::new(Celsius::new(20.0), Power::kilowatts(3.0), 4.5))
            .solve()
            .unwrap_err();
        let CoreError::NoConvergence {
            iterations,
            residual_k: Some(step),
        } = err
        else {
            panic!("expected a supply NoConvergence, got {err:?}");
        };
        assert_eq!(iterations, SUPPLY_ITERATIONS);
        assert!(step.is_finite() && step >= 1e-6, "last step {step} K");
    }

    #[test]
    fn undersized_chiller_raises_every_junction() {
        let nominal = RackImmersionModel::skat_rack(12).solve().unwrap();
        let starved = RackImmersionModel::skat_rack(12)
            .with_chiller(Chiller::new(
                Celsius::new(20.0),
                Power::kilowatts(90.0),
                4.5,
            ))
            .solve()
            .unwrap();
        assert!(!starved.within_chiller_capacity);
        assert!(starved.chiller_supply > nominal.chiller_supply);
        assert!(starved.hottest_junction().unwrap() > nominal.hottest_junction().unwrap());
        // but the immersion headroom still keeps it inside the window
        assert!(starved.hottest_junction().unwrap().degrees() <= 67.5);
    }

    #[test]
    fn skat_plus_rack_needs_the_bigger_chiller() {
        let on_150kw = RackImmersionModel::skat_plus_rack(12).solve().unwrap();
        // ~155 kW of SKAT+ heat overloads the 150 kW facility default
        assert!(!on_150kw.within_chiller_capacity);
        let on_220kw = RackImmersionModel::skat_plus_rack(12)
            .with_chiller(Chiller::new(
                Celsius::new(20.0),
                Power::kilowatts(220.0),
                4.5,
            ))
            .solve()
            .unwrap();
        assert!(on_220kw.within_chiller_capacity);
        assert!(on_220kw.hottest_junction().unwrap() < on_150kw.hottest_junction().unwrap());
    }

    #[test]
    fn water_flows_come_from_the_manifold() {
        let report = RackImmersionModel::skat_rack(6).solve().unwrap();
        assert_eq!(report.water_flows.len(), 6);
        for q in &report.water_flows {
            let lpm = q.as_liters_per_minute();
            assert!(lpm > 30.0 && lpm < 200.0, "{lpm} L/min");
        }
    }
}
