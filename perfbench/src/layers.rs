//! Thin adapters: every call the benchmark makes into the program goes
//! through exactly one of these modules, one per layer (crate). When an
//! entry point of the program is renamed or folded into another, only
//! its adapter changes; the workloads never name the program directly.

/// `rcs-obs`: telemetry registries and counter reads.
pub mod obs {
    pub use rcs_obs::{Registry, Snapshot};

    /// An enabled registry, as `exp_all` and `query_cli` create one.
    #[must_use]
    pub fn enabled() -> Registry {
        Registry::new()
    }

    /// The shared no-op registry.
    #[must_use]
    pub fn disabled() -> &'static Registry {
        Registry::disabled()
    }

    /// The deterministic work clock: Σ of every `profile.*` counter.
    #[must_use]
    pub fn work_units(obs: &Registry) -> u64 {
        obs.work_units()
    }

    /// Counter `name` of `snap` (zero when absent).
    #[must_use]
    pub fn counter(snap: &Snapshot, name: &str) -> u64 {
        snap.counter(name)
    }
}

/// `rcs-parallel`: the order-preserving parallel map.
pub mod parallel {
    /// Maps `f` over `items` on up to `threads` workers, results in
    /// input order.
    pub fn map<T: Send, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        rcs_parallel::par_map_indexed(items, threads, f)
    }

    /// The environment variable that fixes the program's worker count.
    pub const THREADS_ENV: &str = rcs_parallel::THREADS_ENV;
}

/// `rcs-query`: spec parsing, the engine and the one-shot solve.
pub mod query {
    use rcs_obs::Registry;
    pub use rcs_query::{DesignQuery, DesignVerdict, QueryEngine, QueryError, QueryOutcome};

    /// Parses one spec string.
    ///
    /// # Errors
    ///
    /// The parser's error for a malformed spec.
    pub fn parse(spec: &str) -> Result<DesignQuery, QueryError> {
        DesignQuery::parse(spec)
    }

    /// An engine with an empty cache of `capacity` entries.
    #[must_use]
    pub fn engine(capacity: usize) -> QueryEngine {
        QueryEngine::new(capacity)
    }

    /// Answers one batch.
    pub fn run_batch(
        engine: &mut QueryEngine,
        queries: &[DesignQuery],
        threads: usize,
        obs: &Registry,
    ) -> Vec<QueryOutcome> {
        engine.run_batch(queries, threads, obs)
    }

    /// Solves one query serially, outside any engine.
    ///
    /// # Errors
    ///
    /// The solver's error for the query.
    pub fn solve(query: &DesignQuery, obs: &Registry) -> Result<DesignVerdict, QueryError> {
        rcs_query::solve_query(query, obs)
    }

    /// Availability horizon of a verdict, years.
    pub const HORIZON_YEARS: f64 = rcs_query::HORIZON_YEARS;

    /// Assembles a verdict from its parts the way the solver does: the
    /// steady report, the availability report and the rules' result.
    #[must_use]
    pub fn assemble(
        q: &DesignQuery,
        report: &rcs_core::SteadyReport,
        avail: &super::cooling::AvailabilityReport,
        compliant: bool,
    ) -> DesignVerdict {
        use rcs_units::{Power, Seconds};
        let total_w = report.total_heat.watts()
            + report.circulation_power.watts()
            + report.chiller_power.watts();
        DesignVerdict {
            query_hash: q.canonical_hash(),
            junction_c: report.junction.degrees(),
            coolant_hot_c: report.coolant_hot.degrees(),
            coolant_cold_c: report.coolant_cold.degrees(),
            total_heat_w: report.total_heat.watts(),
            cooling_overhead: report.cooling_overhead(),
            availability_mean: avail.mean_availability,
            availability_p05: avail.p05_availability,
            annual_energy_kwh: (Power::from_watts(total_w) * Seconds::days(365.25))
                .as_kilowatt_hours(),
            compliant,
        }
    }
}

/// `rcs-cooling`: failure classes and the availability Monte-Carlo.
pub mod cooling {
    pub use rcs_cooling::availability::AvailabilityReport;
    use rcs_cooling::risk::FailureClass;
    use rcs_cooling::{availability, risk, CoolingArchitecture, ImmersionBath};
    use rcs_obs::Registry;

    /// The failure classes of an immersion plant with `bath`.
    #[must_use]
    pub fn failure_classes(bath: &ImmersionBath) -> Vec<FailureClass> {
        risk::failure_classes(&CoolingArchitecture::Immersion(bath.clone()))
    }

    /// The availability Monte-Carlo on one thread.
    #[must_use]
    pub fn monte_carlo(
        classes: &[FailureClass],
        horizon_years: f64,
        trials: usize,
        seed: u64,
        obs: &Registry,
    ) -> AvailabilityReport {
        availability::monte_carlo_observed(classes, horizon_years, trials, seed, 1, obs)
    }
}

/// `rcs-core`: the paper's experiments, the E17 drill cells, the
/// immersion solve and the compliance rules.
pub mod core {
    use rcs_core::experiments as ex;
    use rcs_core::{rules, DrillOutcome, FaultDrill, ImmersionModel, SteadyReport};
    use rcs_devices::OperatingPoint;
    use rcs_numeric::rng::Rng;
    use rcs_obs::Registry;
    use rcs_query::DesignQuery;

    pub use rcs_core::experiments::Table;
    pub use rcs_core::CoreError;

    /// One pass of every experiment, as `exp_all` runs it.
    #[must_use]
    pub fn run_all(obs: &Registry) -> Vec<Table> {
        ex::run_all_observed(obs)
    }

    /// The text `exp_all` prints for `tables`.
    #[must_use]
    pub fn render(tables: &[Table]) -> String {
        tables.iter().map(ToString::to_string).collect()
    }

    /// One experiment of the pass; E17 is run cell by cell instead.
    pub type Experiment = fn(&Registry) -> Vec<Table>;

    /// Span name of the E17 slot in [`EXPERIMENTS`].
    pub const E17: &str = "core.e17";

    /// Every experiment in `run_all` order, with its span name. The E17
    /// slot is `None`: its cells are timed one by one ([`drill_cells`]).
    pub const EXPERIMENTS: [(&str, Option<Experiment>); 17] = [
        ("core.e01", Some(|_| ex::e01_air_anchors::run())),
        ("core.e03", Some(|_| ex::e03_family_scaling::run())),
        ("core.e04", Some(|_| ex::e04_liquid_vs_air::run())),
        ("core.e05", Some(ex::e05_skat_thermal::run_observed)),
        ("core.e06", Some(|_| ex::e06_generation_gains::run())),
        ("core.e07", Some(|_| ex::e07_rack_pflops::run())),
        ("core.e08", Some(ex::e08_hydraulic_balance::run_observed)),
        ("core.e09", Some(|_| ex::e09_skat_plus::run())),
        ("core.e10", Some(|_| ex::e10_tim_washout::run())),
        ("core.e11", Some(|_| ex::e11_heatsink_design::run())),
        ("core.e12", Some(ex::e12_reliability_mc::run_observed)),
        ("core.e13", Some(|_| ex::e13_ablations::run())),
        ("core.e14", Some(|_| ex::e14_energy::run())),
        ("core.e15", Some(|_| ex::e15_maintenance::run())),
        ("core.e16", Some(|_| ex::e16_fleet::run())),
        (E17, None),
        ("core.f01", Some(|_| ex::f01_design_figures::run())),
    ];

    /// The E17 matrix cells in table order, each with its own jumped
    /// RNG stream, exactly as the experiment builds them.
    #[must_use]
    pub fn drill_cells() -> Vec<(FaultDrill, Rng)> {
        let duration = rcs_units::Seconds::minutes(ex::e17_fault_drills::DURATION_MIN);
        let scripts = ex::e17_fault_drills::drill_scripts();
        let mut drills: Vec<FaultDrill> = scripts
            .iter()
            .map(|(name, tl)| FaultDrill::skat(name, tl.clone(), duration))
            .collect();
        drills.extend(
            scripts
                .iter()
                .map(|(name, tl)| FaultDrill::skat_plus(name, tl.clone(), duration)),
        );
        let streams = Rng::seed_from_u64(ex::e17_fault_drills::SEED).split_streams(drills.len());
        drills.into_iter().zip(streams).collect()
    }

    /// Runs one E17 cell.
    #[must_use]
    pub fn run_cell(drill: &FaultDrill, rng: &mut Rng, obs: &Registry) -> DrillOutcome {
        drill.run_observed(rng, obs)
    }

    /// E17's rows on one thread and its rendered table: the reference
    /// a cell-by-cell pass is checked against.
    #[must_use]
    pub fn e17_reference() -> (Vec<DrillOutcome>, Vec<Table>) {
        (
            ex::e17_fault_drills::rows_with_threads(1),
            ex::e17_fault_drills::run(),
        )
    }

    /// The immersion model of a query.
    #[must_use]
    pub fn immersion_model(q: &DesignQuery) -> ImmersionModel {
        ImmersionModel::new(q.family.module(), q.bath.bath_with(q.coolant))
            .with_operating_point(OperatingPoint::at_utilization(q.utilization))
    }

    /// The robust steady-state solve (the query path's attempt 0).
    ///
    /// # Errors
    ///
    /// The solver ladder's error when no rung converges.
    pub fn immersion_solve(
        model: &ImmersionModel,
        obs: &Registry,
    ) -> Result<SteadyReport, CoreError> {
        model.solve_robust_observed(obs)
    }

    /// Whether every operating and structural rule passes.
    #[must_use]
    pub fn rules_pass(report: &SteadyReport, model: &ImmersionModel) -> bool {
        let mut checks = rules::operating_rules(report);
        checks.extend(rules::structural_rules(model.module()));
        rules::all_pass(&checks)
    }
}
