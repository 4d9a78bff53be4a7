//! The coupled immersion-cooling model — the SKAT system end to end.

use rcs_cooling::ImmersionBath;
use rcs_devices::{OperatingPoint, PowerModel};
use rcs_hydraulics::{BranchId, Element, HydraulicNetwork, Pipe, PumpCurve, SolverContext, Valve};
use rcs_platform::{presets, ComputeModule};
use rcs_thermal::{
    ChipStack, HeatSink, NodeId, ThermalInterface, ThermalNetwork, TimAging, TimMaterial,
    TransientTrace,
};
use rcs_units::{
    Celsius, Length, Power, Seconds, TempDelta, ThermalCapacityRate, Velocity, VolumeFlow,
};

use rcs_obs::Registry;

use crate::error::CoreError;
use crate::report::SteadyReport;

/// Electrical efficiency of the circulation pump drive (hydraulic power
/// delivered per electrical watt).
pub(crate) const PUMP_DRIVE_EFFICIENCY: f64 = 0.45;

/// Outer fixed-point iteration histogram bounds (inclusive upper
/// bounds, overflow bucket past the heaviest ladder budget).
const ITER_BOUNDS: [u64; 7] = [5, 10, 20, 50, 120, 400, 1200];
/// Coupled-ladder rung histogram bounds: rung 0 (default damping), 1, 2.
const RUNG_BOUNDS: [u64; 3] = [0, 1, 2];

/// `(damping, max_iter)` rungs of [`ImmersionModel::solve_robust_observed`]:
/// the default damping first, then two heavier-damped re-solves.
/// `damping` is the blend factor toward the new iterate; smaller is
/// heavier.
const LADDER: [(f64, usize); 3] = [(0.5, 120), (0.25, 400), (0.1, 1200)];

/// `(damping, max_iter)` rungs of [`ImmersionModel::solve_retry`]:
/// heavier damping than the last [`LADDER`] rung, with matching
/// iteration headroom.
const RETRY_LADDER: [(f64, usize); 2] = [(0.05, 2400), (0.02, 4800)];

/// The coupled model of one immersion-cooled computational module:
/// hydraulic operating point → sink convection → ε-NTU heat exchange →
/// chiller supply → temperature-dependent FPGA power, iterated to a fixed
/// point.
///
/// # Examples
///
/// ```
/// use rcs_core::ImmersionModel;
///
/// let report = ImmersionModel::skat().solve()?;
/// assert!((report.chip_power.watts() - 91.0).abs() < 4.0);
/// assert!(report.coolant_hot.degrees() <= 30.0);
/// assert!(report.junction.degrees() <= 55.0);
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ImmersionModel {
    module: ComputeModule,
    bath: ImmersionBath,
    op: OperatingPoint,
    tim_material: TimMaterial,
    aging: TimAging,
    /// Explicit per-pump curves replacing the bath's identical pumps
    /// (fault injection: wear, seizure). `None` = the healthy default.
    pump_overrides: Option<Vec<PumpCurve>>,
    /// Circulation-path valve opening in `(0, 1]`; `1.0` (the default)
    /// adds no valve element at all, keeping healthy solves identical.
    circulation_valve_opening: f64,
}

impl ImmersionModel {
    /// The SKAT system: the `presets::skat()` module in its default bath.
    #[must_use]
    pub fn skat() -> Self {
        Self::new(presets::skat(), ImmersionBath::skat_default())
    }

    /// The SKAT+ design: UltraScale+ module, immersed pumps, larger
    /// exchanger.
    #[must_use]
    pub fn skat_plus() -> Self {
        Self::new(presets::skat_plus(), ImmersionBath::skat_plus_default())
    }

    /// Builds a model from any module and bath.
    #[must_use]
    pub fn new(module: ComputeModule, bath: ImmersionBath) -> Self {
        Self {
            module,
            bath,
            op: OperatingPoint::operating_mode(),
            tim_material: TimMaterial::SrcDesigned,
            aging: TimAging::fresh(),
            pump_overrides: None,
            circulation_valve_opening: 1.0,
        }
    }

    /// Overrides the operating point.
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Overrides the thermal interface material (washout experiments).
    #[must_use]
    pub fn with_tim(mut self, material: TimMaterial) -> Self {
        self.tim_material = material;
        self
    }

    /// Applies interface aging (service-time experiments).
    #[must_use]
    pub fn with_aging(mut self, aging: TimAging) -> Self {
        self.aging = aging;
        self
    }

    /// Replaces the bath's identical pumps with explicit per-pump
    /// curves — the fault-injection hook for impeller wear (derated
    /// curves) and pump seizure (a seized pump is simply omitted from
    /// the list). An empty list means no circulation at all.
    #[must_use]
    pub fn with_pump_curves(mut self, curves: Vec<PumpCurve>) -> Self {
        self.pump_overrides = Some(curves);
        self
    }

    /// Sets a partially stuck valve in the circulation path (fault
    /// injection). At the default `1.0` no valve element is inserted,
    /// so healthy solves are bit-identical to the unfaulted model.
    ///
    /// # Panics
    ///
    /// Panics if `opening` is outside `(0, 1]`.
    #[must_use]
    pub fn with_circulation_valve(mut self, opening: f64) -> Self {
        assert!(
            opening > 0.0 && opening <= 1.0,
            "valve opening outside (0, 1]"
        );
        self.circulation_valve_opening = opening;
        self
    }

    /// The module being cooled.
    #[must_use]
    pub fn module(&self) -> &ComputeModule {
        &self.module
    }

    /// The bath configuration.
    #[must_use]
    pub fn bath(&self) -> &ImmersionBath {
        &self.bath
    }

    /// The per-chip thermal stack at the current TIM configuration.
    #[must_use]
    pub fn chip_stack(&self) -> ChipStack {
        let part = self.module.ccb().part();
        ChipStack::new(
            part.r_junction_case(),
            ThermalInterface::new(
                self.tim_material,
                Length::millimeters(0.05),
                part.package_side() * part.package_side(),
            ),
            HeatSink::PinFin(self.bath.sink),
        )
        .with_aging(self.aging)
    }

    /// Builds the bath circulation network — the bath + exchanger loss
    /// path against the surviving pump curves — or `None` when every
    /// pump has seized (stagnant bath). The topology depends only on
    /// the model configuration, never on the oil temperature, so one
    /// build (and one [`SolverContext`]) serves a whole fixed-point
    /// iteration or transient.
    fn circulation_network(&self) -> Result<Option<(HydraulicNetwork, BranchId)>, CoreError> {
        let pump_curves: Vec<PumpCurve> = match &self.pump_overrides {
            Some(curves) => curves.clone(),
            None => vec![self.bath.pump; self.bath.pump_count],
        };
        if pump_curves.is_empty() {
            return Ok(None);
        }

        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("bath inlet");
        let b = net.add_junction("bath outlet");
        let d50 = Length::millimeters(50.0);
        let mut path = vec![
            Element::MinorLoss {
                k: 2.0,
                diameter: d50,
            }, // bath entry diffuser
            Element::MinorLoss {
                k: 4.0,
                diameter: d50,
            }, // board stack
            Element::MinorLoss {
                k: 2.0,
                diameter: d50,
            }, // bath exit collector
            Element::MinorLoss {
                k: 6.0,
                diameter: d50,
            }, // plate exchanger passages
            Element::Pipe(Pipe::smooth(Length::from_meters(1.5), d50)),
        ];
        if self.circulation_valve_opening < 1.0 {
            let mut valve = Valve::balancing(d50);
            valve.opening = self.circulation_valve_opening;
            path.push(Element::Valve(valve));
        }
        let bath_branch = net
            .add_branch("bath + exchanger path", a, b, path)
            .map_err(CoreError::from)?;
        for (i, curve) in pump_curves.iter().enumerate() {
            net.add_branch(format!("pump {i}"), b, a, vec![Element::Pump(*curve)])
                .map_err(CoreError::from)?;
        }
        Ok(Some((net, bath_branch)))
    }

    /// One circulation operating-point solve through a caller-held
    /// [`SolverContext`], so consecutive solves of the same bath reuse
    /// the sparse schedule and warm-start from the previous flows.
    fn circulation_solve(
        &self,
        net: &HydraulicNetwork,
        bath_branch: BranchId,
        oil_bulk: Celsius,
        ctx: &mut SolverContext,
        obs: &Registry,
    ) -> Result<(VolumeFlow, Power), CoreError> {
        obs.inc("immersion.circulation.calls");
        let oil = self.bath.coolant.state(oil_bulk);
        // retry ladder: bit-identical to a plain solve for healthy
        // networks, but deeply derated pump curves get the damped rungs
        // and, failing those, diagnostics naming the offending branch
        let solution = net
            .solve_with_ladder(&oil, ctx, obs)
            .map_err(CoreError::from)?;
        let flow = solution.flow(bath_branch);
        let electrical =
            Power::from_watts(solution.total_pump_power().watts() / PUMP_DRIVE_EFFICIENCY);
        Ok((flow, electrical))
    }

    /// Solves the full coupled steady state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoConvergence`] if the outer fixed point fails
    /// (it converges in a handful of iterations for every physical
    /// configuration) and propagates substrate failures.
    pub fn solve(&self) -> Result<SteadyReport, CoreError> {
        self.solve_observed(Registry::disabled())
    }

    /// [`ImmersionModel::solve`] with telemetry recorded into `obs` —
    /// all golden-channel integers:
    ///
    /// - `immersion.solve.calls` / `.converged` / `.no_convergence` /
    ///   `.error` counters;
    /// - `immersion.solve.iterations` histogram of the outer fixed
    ///   point on success;
    /// - the `immersion.circulation.*` and `hydraulics.ladder.*`
    ///   counters of every inner circulation solve.
    ///
    /// # Errors
    ///
    /// Same contract as [`ImmersionModel::solve`].
    pub fn solve_observed(&self, obs: &Registry) -> Result<SteadyReport, CoreError> {
        obs.inc("immersion.solve.calls");
        match self.solve_damped(0.5, 120, obs) {
            Ok(report) => {
                obs.inc("immersion.solve.converged");
                obs.record_histogram(
                    "immersion.solve.iterations",
                    &ITER_BOUNDS,
                    report.iterations as u64,
                );
                obs.work("immersion.fixed_point_iterations", report.iterations as u64);
                Ok(report)
            }
            Err(e @ CoreError::NoConvergence { iterations, .. }) => {
                obs.inc("immersion.solve.no_convergence");
                obs.work("immersion.fixed_point_iterations", iterations as u64);
                Err(e)
            }
            Err(e) => {
                obs.inc("immersion.solve.error");
                Err(e)
            }
        }
    }

    /// Solves through the coupled retry ladder: the default damping
    /// first (bit-identical to [`ImmersionModel::solve`] when it
    /// converges), then two progressively heavier-damped re-solves for
    /// stiff faulted configurations; the last rung's
    /// [`CoreError::NoConvergence`] (with its recorded residual) is
    /// returned if all fail.
    ///
    /// Telemetry recorded into `obs` — golden counters:
    ///
    /// - `immersion.ladder.calls` / `.converged` / `.no_convergence` /
    ///   `.error` counters;
    /// - `immersion.ladder.escalations` — damping rungs abandoned
    ///   before convergence (0 for healthy configurations), i.e. the
    ///   fallback count;
    /// - `immersion.ladder.rung` histogram of the rung that converged
    ///   and `immersion.ladder.iterations` of its outer fixed point;
    /// - the `immersion.circulation.*` and `hydraulics.ladder.*`
    ///   counters of every inner circulation solve (including the
    ///   abandoned rungs — the residual trajectory of the whole
    ///   attempt, not just the survivor);
    ///
    /// plus, on its trace, one `immersion.ladder.iterations` sample per
    /// rung attempted (outer fixed-point iterations spent on that rung)
    /// and an `immersion.ladder.residual` sample where a residual exists
    /// — the convergence trajectory of the whole ladder, with the rung
    /// index as the time axis — and, on its span sink, one
    /// `immersion.ladder` span with a `rung` child per rung attempted,
    /// so span rollups show exactly which rung burned the fixed-point
    /// iterations.
    ///
    /// # Errors
    ///
    /// As [`ImmersionModel::solve`]; substrate failures propagate
    /// immediately without retries.
    #[allow(clippy::cast_precision_loss)]
    pub fn solve_robust_observed(&self, obs: &Registry) -> Result<SteadyReport, CoreError> {
        use rcs_obs::trace::ChannelKind;
        let trace = obs.trace();
        obs.inc("immersion.ladder.calls");
        obs.enter("immersion.ladder");
        let mut last = None;
        for (rung, (damping, max_iter)) in LADDER.into_iter().enumerate() {
            obs.enter("rung");
            let attempt = self.solve_damped(damping, max_iter, obs);
            match attempt {
                Err(
                    e @ CoreError::NoConvergence {
                        iterations,
                        residual_k,
                    },
                ) => {
                    obs.work("immersion.fixed_point_iterations", iterations as u64);
                    obs.exit();
                    trace.record_named(
                        "immersion.ladder.iterations",
                        ChannelKind::Scalar,
                        rung as f64,
                        iterations as f64,
                    );
                    if let Some(residual) = residual_k {
                        trace.record_named(
                            "immersion.ladder.residual",
                            ChannelKind::Residual,
                            rung as f64,
                            residual,
                        );
                    }
                    last = Some(e);
                }
                Ok(report) => {
                    obs.inc("immersion.ladder.converged");
                    obs.add("immersion.ladder.escalations", rung as u64);
                    obs.record_histogram("immersion.ladder.rung", &RUNG_BOUNDS, rung as u64);
                    obs.record_histogram(
                        "immersion.ladder.iterations",
                        &ITER_BOUNDS,
                        report.iterations as u64,
                    );
                    obs.work("immersion.fixed_point_iterations", report.iterations as u64);
                    obs.exit();
                    trace.record_named(
                        "immersion.ladder.iterations",
                        ChannelKind::Scalar,
                        rung as f64,
                        report.iterations as f64,
                    );
                    obs.exit();
                    return Ok(report);
                }
                Err(e) => {
                    obs.inc("immersion.ladder.error");
                    obs.exit();
                    obs.exit();
                    return Err(e);
                }
            }
        }
        obs.inc("immersion.ladder.no_convergence");
        obs.add("immersion.ladder.escalations", (LADDER.len() - 1) as u64);
        obs.exit();
        Err(last.expect("ladder has at least one rung"))
    }

    /// Solves on rung `retry` of the retry ladder past
    /// [`ImmersionModel::solve_robust_observed`] — the hook behind the
    /// query layer's deterministic retries. Retry 0 is the first rung;
    /// a `retry` past the last rung reuses the last (heaviest) one.
    /// Work done by the fixed point lands on
    /// `profile.immersion.fixed_point_iterations` whether or not the
    /// rung converges, so work-unit budgets see every retry attempt.
    ///
    /// # Errors
    ///
    /// As [`ImmersionModel::solve`]: [`CoreError::NoConvergence`] when
    /// the rung's iteration budget runs out, substrate errors verbatim.
    pub fn solve_retry(&self, retry: usize, obs: &Registry) -> Result<SteadyReport, CoreError> {
        let (damping, max_iter) = RETRY_LADDER[retry.min(RETRY_LADDER.len() - 1)];
        let result = self.solve_damped(damping, max_iter, obs);
        match &result {
            Ok(report) => {
                obs.work("immersion.fixed_point_iterations", report.iterations as u64);
            }
            Err(CoreError::NoConvergence { iterations, .. }) => {
                obs.work("immersion.fixed_point_iterations", *iterations as u64);
            }
            Err(_) => {}
        }
        result
    }

    fn solve_damped(
        &self,
        damping: f64,
        max_iter: usize,
        obs: &Registry,
    ) -> Result<SteadyReport, CoreError> {
        let model = PowerModel::for_part(self.module.ccb().part());
        let stack = self.chip_stack();

        // One network build and one solver context for the whole fixed
        // point: every iteration's hydraulic solve after the first
        // warm-starts from the previous iteration's flows.
        let circulation = self.circulation_network()?;
        let mut ctx = circulation.as_ref().map(|(net, _)| net.solver_context());

        let mut tj = Celsius::new(45.0);
        let mut oil_hot = self.bath.chiller.setpoint() + TempDelta::from_kelvins(8.0);
        let mut oil_cold = oil_hot;
        let mut flow = VolumeFlow::ZERO;
        let mut pump_electrical = Power::ZERO;
        let mut velocity = Velocity::from_meters_per_second(0.0);
        let mut converged = false;
        let mut iterations = 0;
        let mut last_step = None;

        for iter in 0..max_iter {
            iterations = iter + 1;
            let oil_bulk = Celsius::new(0.5 * (oil_hot.degrees() + oil_cold.degrees()));
            let (q, p_elec) = match (&circulation, &mut ctx) {
                (Some((net, bath_branch)), Some(ctx)) => {
                    self.circulation_solve(net, *bath_branch, oil_bulk, ctx, obs)?
                }
                _ => {
                    obs.inc("immersion.circulation.calls");
                    obs.inc("immersion.circulation.stagnant");
                    (VolumeFlow::ZERO, Power::ZERO)
                }
            };
            flow = q;
            pump_electrical = p_elec;
            velocity = self.bath.approach_velocity(flow);

            let oil_state = self.bath.coolant.state(oil_bulk);
            let chip_p = model.power(self.op, tj);
            // pump heat also lands in the bath (fully for immersed drives,
            // hydraulic share otherwise)
            let pump_heat = if self.bath.immersed_pumps {
                pump_electrical
            } else {
                Power::from_watts(pump_electrical.watts() * PUMP_DRIVE_EFFICIENCY)
            };
            let total = self.module.total_heat(self.op, tj) + pump_heat;

            let c_oil: ThermalCapacityRate = (flow * oil_state.density) * oil_state.specific_heat;
            let water = rcs_fluids::Coolant::water().state(self.bath.chiller.setpoint());
            let c_water: ThermalCapacityRate =
                (self.bath.water_flow * water.density) * water.specific_heat;
            let eps = self.bath.exchanger.effectiveness(c_oil, c_water);
            let c_min =
                ThermalCapacityRate::new(c_oil.watts_per_kelvin().min(c_water.watts_per_kelvin()));
            let supply = self.bath.chiller.supply_temperature(total);

            // duty balance: total = eps * C_min * (oil_hot - supply)
            let new_hot = supply
                + TempDelta::from_kelvins(
                    total.watts() / (eps * c_min.watts_per_kelvin()).max(1e-9),
                );
            let new_cold = new_hot - total / c_oil;
            // the hottest chip bathes in the warmest oil
            let new_tj = new_hot + chip_p * stack.total_resistance(&oil_state, velocity);

            let step = (new_tj - tj).kelvins().abs() + (new_hot - oil_hot).kelvins().abs();
            last_step = Some(step);
            // blend factor: with the default damping of 0.5 this is the
            // plain average; heavier ladder rungs move more slowly
            let keep = 1.0 - damping;
            oil_hot = Celsius::new(keep * oil_hot.degrees() + damping * new_hot.degrees());
            oil_cold = Celsius::new(keep * oil_cold.degrees() + damping * new_cold.degrees());
            tj = Celsius::new(keep * tj.degrees() + damping * new_tj.degrees());
            if step < 1e-7 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(CoreError::NoConvergence {
                iterations,
                residual_k: last_step,
            });
        }

        let chip_p = model.power(self.op, tj);
        let total = self.module.total_heat(self.op, tj);
        // the chiller rejects everything that crossed the exchanger:
        // module heat plus the pump heat deposited in the bath
        let pump_heat = if self.bath.immersed_pumps {
            pump_electrical
        } else {
            Power::from_watts(pump_electrical.watts() * PUMP_DRIVE_EFFICIENCY)
        };
        Ok(SteadyReport {
            architecture: "open-loop immersion",
            module: self.module.name().to_owned(),
            chip_power: chip_p,
            junction: tj,
            coolant_cold: oil_cold,
            coolant_hot: oil_hot,
            total_heat: total,
            coolant_flow: flow,
            sink_velocity: velocity,
            circulation_power: pump_electrical,
            chiller_power: self.bath.chiller.electrical_power(total + pump_heat),
            iterations,
        })
    }

    /// Simulates the module warm-up from a cold start (Fig. 2's heat
    /// test): lumped chip-field and bath nodes against the chilled-water
    /// boundary.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn warmup(&self, duration: Seconds, step: Seconds) -> Result<WarmupTrace, CoreError> {
        self.warmup_observed(duration, step, Registry::disabled())
    }

    /// [`ImmersionModel::warmup`] with telemetry recorded into `obs`:
    /// an `immersion.warmup.calls` counter plus the counters of the
    /// embedded steady solve (`immersion.solve.*`) and transient
    /// integration (`thermal.transient.*`), and on its trace the
    /// chip-field and bath temperature series in the
    /// `immersion.warmup.chip` / `immersion.warmup.bath` channels
    /// (bounded — long warm-ups are decimated deterministically).
    ///
    /// # Errors
    ///
    /// Same contract as [`ImmersionModel::warmup`].
    pub fn warmup_observed(
        &self,
        duration: Seconds,
        step: Seconds,
        obs: &Registry,
    ) -> Result<WarmupTrace, CoreError> {
        let mut session = WarmupSession::new(self, duration, step, obs)?;
        while session.step() {}
        Ok(session.finish(obs))
    }

    /// Builds the two-node warm-up network (chip field + oil bath
    /// against the chilled-water boundary) around the solved steady
    /// state, recording the steady solve's telemetry into `obs`.
    fn warmup_network(
        &self,
        obs: &Registry,
    ) -> Result<(ThermalNetwork, NodeId, NodeId), CoreError> {
        // Freeze the convection operating point at the solved steady state
        // so the transient uses consistent resistances.
        let steady = self.solve_observed(obs)?;
        let oil_state = self.bath.coolant.state(Celsius::new(
            0.5 * (steady.coolant_hot.degrees() + steady.coolant_cold.degrees()),
        ));
        let stack = self.chip_stack();
        let chips = self.module.compute_fpga_count() as f64;
        let r_field = rcs_units::ThermalResistance::from_kelvin_per_watt(
            stack
                .total_resistance(&oil_state, steady.sink_velocity)
                .kelvin_per_watt()
                / chips,
        );

        let water = rcs_fluids::Coolant::water().state(self.bath.chiller.setpoint());
        let c_oil = (steady.coolant_flow * oil_state.density) * oil_state.specific_heat;
        let c_water = (self.bath.water_flow * water.density) * water.specific_heat;
        let eps = self.bath.exchanger.effectiveness(c_oil, c_water);
        let c_min = c_oil.watts_per_kelvin().min(c_water.watts_per_kelvin());
        let r_hx =
            rcs_units::ThermalResistance::from_kelvin_per_watt(1.0 / (eps * c_min).max(1e-9));

        // capacitances: chip + sink mass per FPGA ~ 150 J/K; the bath is
        // ~60 L of oil
        let mut net = ThermalNetwork::new();
        let chip_node = net.add_node_with_capacitance("chip field", 150.0 * chips);
        let oil_mass_kg = 0.060 * oil_state.density.kg_per_cubic_meter();
        let bath_node = net.add_node_with_capacitance(
            "oil bath",
            oil_mass_kg * oil_state.specific_heat.joules_per_kg_kelvin(),
        );
        let water_node = net.add_boundary("chilled water", self.bath.chiller.setpoint());
        net.connect(chip_node, bath_node, r_field)?;
        net.connect(bath_node, water_node, r_hx)?;
        net.add_heat(chip_node, self.module.fpga_heat(self.op, steady.junction))?;
        net.add_heat(
            bath_node,
            steady.total_heat - self.module.fpga_heat(self.op, steady.junction),
        )?;
        Ok((net, chip_node, bath_node))
    }
}

/// A resumable warm-up: [`ImmersionModel::warmup`] hoisted onto the
/// `rcs-kernel` stepping kernel.
///
/// The session owns the warm-up network (a pure function of the model,
/// rebuilt on resume) and the embedded [`rcs_thermal::TransientSession`] carrying
/// all mutable state. [`WarmupSession::checkpoint`] seals that state —
/// sinks included — into versioned bytes; [`WarmupSession::resume`]
/// reconstructs a session that finishes **bitwise** identically to one
/// that was never interrupted.
#[derive(Debug)]
pub struct WarmupSession {
    net: ThermalNetwork,
    chip_node: NodeId,
    bath_node: NodeId,
    inner: rcs_thermal::TransientSession,
}

/// Snapshot kind tag of [`WarmupSession::checkpoint`] bytes.
pub const WARMUP_SNAPSHOT_KIND: &str = "core.warmup";

impl WarmupSession {
    /// Solves the steady state, builds the warm-up network and prepares
    /// the integration — recording exactly the telemetry the
    /// uninterrupted warm-up records up to its first step.
    ///
    /// # Errors
    ///
    /// Same contract as [`ImmersionModel::warmup`].
    pub fn new(
        model: &ImmersionModel,
        duration: Seconds,
        step: Seconds,
        obs: &Registry,
    ) -> Result<Self, CoreError> {
        obs.inc("immersion.warmup.calls");
        let (net, chip_node, bath_node) = model.warmup_network(obs)?;
        let initial = net.uniform_initial(model.bath.chiller.setpoint());
        let inner = rcs_thermal::TransientSession::new(&net, &initial, duration, step, obs)?;
        Ok(Self {
            net,
            chip_node,
            bath_node,
            inner,
        })
    }

    /// Advances one integration step. Returns `false` once the horizon
    /// is reached (the call is then a no-op).
    pub fn step(&mut self) -> bool {
        self.inner.step(&self.net)
    }

    /// Advances at most `max_steps` steps; returns how many ran.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        self.inner.run(&self.net, max_steps)
    }

    /// `true` once the horizon is reached.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Records the end-of-run telemetry (transient step counters, and
    /// the `immersion.warmup.chip` / `immersion.warmup.bath` series on
    /// the trace of `obs`) and yields the warm-up trace.
    #[must_use]
    pub fn finish(self, obs: &Registry) -> WarmupTrace {
        use rcs_obs::trace::ChannelKind;
        let trace = obs.trace();
        let warmup = WarmupTrace {
            trace: self.inner.finish_observed(&self.net, obs),
            chip_node: self.chip_node,
            bath_node: self.bath_node,
        };
        if trace.is_enabled() {
            let chip = trace.channel("immersion.warmup.chip", ChannelKind::Temperature);
            let bath = trace.channel("immersion.warmup.bath", ChannelKind::Temperature);
            for (t, temp) in warmup.chip_series() {
                trace.record(chip, t.seconds(), temp.degrees());
            }
            for (t, temp) in warmup.bath_series() {
                trace.record(bath, t.seconds(), temp.degrees());
            }
        }
        warmup
    }

    /// Seals the warm-up state — the embedded transient session plus
    /// the contents of `obs` (trace and span sink included) — into
    /// versioned snapshot bytes. The network itself is not captured; it
    /// is a pure function of the model and is rebuilt on
    /// [`WarmupSession::resume`].
    #[must_use]
    pub fn checkpoint(&self, obs: &Registry) -> Vec<u8> {
        rcs_kernel::seal(WARMUP_SNAPSHOT_KIND, &self.inner.checkpoint(obs))
    }

    /// Reconstructs a session from [`WarmupSession::checkpoint`] bytes,
    /// rebuilding the warm-up network from `model` (silently — its
    /// construction telemetry is already inside the snapshot) and
    /// restoring the captured sinks into `obs`.
    ///
    /// # Errors
    ///
    /// [`rcs_kernel::SnapshotError`] on corrupted or truncated bytes, a
    /// snapshot of a different kind, or a `model` whose warm-up network
    /// does not match the captured state.
    pub fn resume(
        model: &ImmersionModel,
        bytes: &[u8],
        obs: &Registry,
    ) -> Result<Self, rcs_kernel::SnapshotError> {
        let inner_bytes = rcs_kernel::open(WARMUP_SNAPSHOT_KIND, bytes)?;
        // The network is derived state: rebuild it under disabled sinks
        // (the original construction's telemetry is part of the captured
        // sink state, so re-recording it would double-count).
        let (net, chip_node, bath_node) =
            model.warmup_network(Registry::disabled()).map_err(|e| {
                rcs_kernel::SnapshotError::Malformed(format!("model rejected on resume: {e}"))
            })?;
        let inner = rcs_thermal::TransientSession::resume(&net, inner_bytes, obs)?;
        Ok(Self {
            net,
            chip_node,
            bath_node,
            inner,
        })
    }
}

/// The warm-up time series of [`ImmersionModel::warmup`].
#[derive(Debug, Clone)]
pub struct WarmupTrace {
    trace: TransientTrace,
    chip_node: NodeId,
    bath_node: NodeId,
}

impl WarmupTrace {
    /// Chip-field temperature series.
    #[must_use]
    pub fn chip_series(&self) -> Vec<(Seconds, Celsius)> {
        self.trace.series(self.chip_node)
    }

    /// Bath (heat-transfer agent) temperature series.
    #[must_use]
    pub fn bath_series(&self) -> Vec<(Seconds, Celsius)> {
        self.trace.series(self.bath_node)
    }

    /// Final chip-field temperature.
    #[must_use]
    pub fn final_chip_temperature(&self) -> Celsius {
        self.trace.final_temperature(self.chip_node)
    }

    /// Final bath temperature.
    #[must_use]
    pub fn final_bath_temperature(&self) -> Celsius {
        self.trace.final_temperature(self.bath_node)
    }

    /// Time for the chip field to settle within `tolerance_k` of its final
    /// value.
    #[must_use]
    pub fn settling_time(&self, tolerance_k: f64) -> Seconds {
        self.trace
            .settling_time(self.chip_node, tolerance_k)
            .expect("warmup traces are never empty")
    }

    /// The underlying network trace.
    #[must_use]
    pub fn trace(&self) -> &TransientTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_meets_the_papers_design_point() {
        // §3: agent <= 30 °C, FPGA <= 55 °C, 91 W per FPGA, 8736 W total.
        let r = ImmersionModel::skat().solve().unwrap();
        assert!(r.coolant_hot.degrees() <= 30.0, "oil = {}", r.coolant_hot);
        assert!(r.junction.degrees() <= 55.0, "Tj = {}", r.junction);
        assert!(
            (r.chip_power.watts() - 91.0).abs() < 4.0,
            "P = {}",
            r.chip_power
        );
        let fpga_total = r.chip_power.watts() * 96.0;
        assert!((fpga_total - 8736.0).abs() < 400.0, "total = {fpga_total}");
    }

    #[test]
    fn skat_has_headroom_for_ultrascale_plus() {
        // §3's conclusion: "the designed immersion liquid cooling system
        // has a reserve and can provide effective cooling for ... the
        // advanced Xilinx UltraScale+ FPGA family."
        let r = ImmersionModel::skat_plus().solve().unwrap();
        assert!(
            r.junction.degrees() <= 67.5,
            "SKAT+ must stay within the reliability window: {}",
            r.junction
        );
        // hotter than SKAT, as §4 expects ("approach again their critical
        // values")
        let skat = ImmersionModel::skat().solve().unwrap();
        assert!(r.junction > skat.junction);
    }

    /// The circulation operating point at `oil_bulk` through a fresh
    /// solver context, unobserved.
    fn circulation(m: &ImmersionModel, oil_bulk: Celsius) -> (VolumeFlow, Power) {
        let (net, bath_branch) = m.circulation_network().unwrap().expect("pumps present");
        let mut ctx = net.solver_context();
        m.circulation_solve(&net, bath_branch, oil_bulk, &mut ctx, Registry::disabled())
            .unwrap()
    }

    #[test]
    fn circulation_operating_point_is_sane() {
        let m = ImmersionModel::skat();
        let (flow, electrical) = circulation(&m, Celsius::new(28.0));
        let lpm = flow.as_liters_per_minute();
        assert!(lpm > 150.0 && lpm < 900.0, "flow = {lpm} L/min");
        assert!(electrical.watts() > 50.0 && electrical.watts() < 3000.0);
    }

    #[test]
    fn warm_oil_circulates_faster() {
        let m = ImmersionModel::skat();
        let (cold, _) = circulation(&m, Celsius::new(10.0));
        let (warm, _) = circulation(&m, Celsius::new(40.0));
        assert!(warm > cold);
    }

    #[test]
    fn washed_out_paste_raises_junction_but_src_tim_does_not() {
        let fresh = ImmersionModel::skat()
            .with_tim(TimMaterial::StandardPaste)
            .solve()
            .unwrap();
        let aged = ImmersionModel::skat()
            .with_tim(TimMaterial::StandardPaste)
            .with_aging(TimAging::immersed_months(24.0))
            .solve()
            .unwrap();
        assert!((aged.junction - fresh.junction).kelvins() > 1.5);

        let src_fresh = ImmersionModel::skat().solve().unwrap();
        let src_aged = ImmersionModel::skat()
            .with_aging(TimAging::immersed_months(24.0))
            .solve()
            .unwrap();
        assert!((src_aged.junction - src_fresh.junction).kelvins().abs() < 0.01);
    }

    #[test]
    fn lower_utilization_runs_cooler() {
        let full = ImmersionModel::skat().solve().unwrap();
        let half = ImmersionModel::skat()
            .with_operating_point(OperatingPoint::at_utilization(0.5))
            .solve()
            .unwrap();
        assert!(half.junction < full.junction);
        assert!(half.total_heat < full.total_heat);
    }

    #[test]
    fn warmup_settles_to_the_steady_state() {
        let m = ImmersionModel::skat();
        let steady = m.solve().unwrap();
        let trace = m.warmup(Seconds::hours(4.0), Seconds::new(2.0)).unwrap();
        // the lumped 2-node warm-up should land near the coupled solve
        let chip_final = trace.final_chip_temperature();
        assert!(
            (chip_final.degrees() - steady.junction.degrees()).abs() < 6.0,
            "warmup {} vs steady {}",
            chip_final,
            steady.junction
        );
        // bath settles near the hot-oil temperature
        assert!(
            (trace.final_bath_temperature().degrees() - steady.coolant_hot.degrees()).abs() < 6.0
        );
        // and it takes minutes, not seconds (the oil mass is big)
        assert!(trace.settling_time(0.5).seconds() > 120.0);
    }

    #[test]
    fn healthy_skat_solve_records_rung_zero_telemetry() {
        let obs = Registry::new();
        let report = ImmersionModel::skat().solve_robust_observed(&obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("immersion.ladder.calls"), 1);
        assert_eq!(snap.counter("immersion.ladder.converged"), 1);
        assert_eq!(snap.counter("immersion.ladder.escalations"), 0);
        let rung = snap.histogram("immersion.ladder.rung").unwrap();
        assert_eq!(rung.counts, vec![1, 0, 0, 0], "healthy SKAT uses rung 0");
        // every outer iteration ran one circulation solve, and every one
        // of those converged on the hydraulic ladder's first rung
        assert_eq!(
            snap.counter("immersion.circulation.calls"),
            report.iterations as u64
        );
        assert_eq!(
            snap.counter("hydraulics.ladder.converged"),
            report.iterations as u64
        );
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
    }

    #[test]
    fn stagnant_bath_records_stagnation_not_hydraulics() {
        let obs = Registry::new();
        let model = ImmersionModel::skat().with_pump_curves(Vec::new());
        assert!(model.circulation_network().unwrap().is_none());
        // a stagnant bath has no steady state; every outer iteration
        // still takes the stagnant branch instead of a network solve
        let _ = model.solve_observed(&obs).unwrap_err();
        let snap = obs.snapshot();
        let calls = snap.counter("immersion.circulation.calls");
        assert!(calls > 0);
        assert_eq!(snap.counter("immersion.circulation.stagnant"), calls);
        assert_eq!(snap.counter("hydraulics.ladder.calls"), 0);
    }

    #[test]
    fn warmup_telemetry_spans_the_solver_and_the_transient() {
        let obs = Registry::new();
        let trace = ImmersionModel::skat()
            .warmup_observed(Seconds::hours(1.0), Seconds::new(2.0), &obs)
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("immersion.warmup.calls"), 1);
        assert_eq!(snap.counter("immersion.solve.calls"), 1);
        assert_eq!(snap.counter("thermal.transient.calls"), 1);
        assert_eq!(
            snap.counter("thermal.transient.steps"),
            trace.trace().len() as u64
        );
    }

    #[test]
    fn immersion_overhead_beats_air() {
        let immersion = ImmersionModel::skat().solve().unwrap();
        let air = crate::AirCooledModel::for_module(rcs_platform::presets::taygeta())
            .solve()
            .unwrap();
        assert!(immersion.cooling_overhead() < air.cooling_overhead());
    }

    #[test]
    fn warmup_session_checkpoint_resume_is_bitwise_identical() {
        use rcs_obs::trace::TraceRecorder;
        let traced = || Registry::new().with_trace(TraceRecorder::new());

        let model = ImmersionModel::skat();
        let duration = Seconds::minutes(30.0);
        let step = Seconds::new(5.0); // 360 steps

        let obs_ref = traced();
        let reference = model.warmup_observed(duration, step, &obs_ref).unwrap();

        for k in [0u64, 1, 179, 359, 360] {
            let obs_a = traced();
            let mut session = WarmupSession::new(&model, duration, step, &obs_a).unwrap();
            session.run(k);
            let bytes = session.checkpoint(&obs_a);

            let obs_b = traced();
            let mut resumed =
                WarmupSession::resume(&model, &bytes, &obs_b).expect("snapshot opens");
            while resumed.step() {}
            assert!(resumed.is_finished());
            let warmup = resumed.finish(&obs_b);

            assert_eq!(
                warmup.chip_series(),
                reference.chip_series(),
                "chip series diverged at split {k}"
            );
            assert_eq!(
                warmup.bath_series(),
                reference.bath_series(),
                "bath series diverged at split {k}"
            );
            assert_eq!(
                warmup.final_chip_temperature().degrees().to_bits(),
                reference.final_chip_temperature().degrees().to_bits(),
                "final chip temp diverged at split {k}"
            );
            assert_eq!(
                obs_b.snapshot(),
                obs_ref.snapshot(),
                "golden counters diverged at split {k}"
            );
            assert_eq!(
                obs_b.trace().snapshot(),
                obs_ref.trace().snapshot(),
                "traces diverged at split {k}"
            );
        }
    }

    #[test]
    fn corrupt_warmup_snapshot_is_a_structured_error() {
        let model = ImmersionModel::skat();
        let obs = Registry::new();
        let mut session =
            WarmupSession::new(&model, Seconds::minutes(10.0), Seconds::new(5.0), &obs).unwrap();
        session.run(17);
        let bytes = session.checkpoint(&obs);

        let mut flipped = bytes.clone();
        flipped[bytes.len() / 3] ^= 0x40;
        assert!(WarmupSession::resume(&model, &flipped, &Registry::new()).is_err());
        assert!(
            WarmupSession::resume(&model, &bytes[..bytes.len() - 5], &Registry::new()).is_err()
        );
    }
}
