//! Damped global-gradient (Newton) solver for the flow distribution.
//!
//! The algorithm is Todini & Pilati's global gradient method as used by
//! EPANET: each outer iteration linearizes every branch's head-loss curve
//! around its current flow, solves the resulting nodal pressure system,
//! and updates branch flows from the new pressures. An under-relaxation
//! factor keeps the quadratic loss curves from oscillating.
//!
//! The nodal system is solved with sparse graph elimination over the
//! node incidence structure ([`rcs_numeric::SparseSymbolic`]): the
//! symbolic factorization is analyzed once per topology and replayed
//! per Newton iteration. The elimination schedule mirrors the loop
//! order of dense partial-pivoting elimination exactly, so on the
//! diagonally dominant systems the assembly produces the two agree
//! bit for bit; this module's unit tests keep a dense nodal kernel as
//! the reference the sparse one is checked against.
//!
//! Repeated solves — parameter sweeps, coupled fixed points, failure
//! studies — reuse a [`SolverContext`]: the symbolic factorization is
//! shared across Newton iterations and ladder rungs, and each
//! successful solve leaves its flows behind as a **warm start** for the
//! next, so neighboring solves start from the neighboring solution
//! instead of from scratch.
//!
//! Faulted networks (deeply derated pumps, nearly shut valves) can sit
//! on much stiffer loss curves than healthy ones, so the solver also
//! exposes a retry ladder ([`HydraulicNetwork::solve_with_ladder`]): the
//! default settings first, then progressively heavier damping with a
//! larger iteration budget, and finally a structured
//! [`ConvergenceDiagnostics`] naming the worst junction and branch if
//! every rung fails.
//!
//! [`ConvergenceDiagnostics`]: crate::error::ConvergenceDiagnostics

use rcs_fluids::FluidState;
use rcs_numeric::{NumericError, SparseSymbolic};
use rcs_obs::{residual_decade, Registry};
use rcs_units::VolumeFlow;

use crate::error::{ConvergenceDiagnostics, HydraulicError, SolveAttempt};
use crate::network::HydraulicNetwork;
use crate::solution::HydraulicSolution;

/// Convergence tolerance on the worst junction continuity residual, m³/s.
const CONTINUITY_TOL: f64 = 1e-9;
/// Maximum outer Newton iterations.
const MAX_ITER: usize = 200;
/// Under-relaxation on flow updates.
const RELAX: f64 = 0.7;
/// Minimum 0-based iteration index at which a cold solve may declare
/// convergence (≥ 4 iterations — the residual can look deceptively
/// small before the linearization has settled).
const MIN_ITER_COLD: usize = 3;
/// Minimum 0-based iteration index for a warm-started solve: the seed
/// already sits near the solution, but at least one full
/// re-linearization pass must confirm it (≥ 2 iterations).
const MIN_ITER_WARM: usize = 1;

/// Damping and budget of one solve attempt.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// Under-relaxation factor on flow updates, in `(0, 1]`.
    relax: f64,
    /// Maximum outer Newton iterations.
    max_iter: usize,
}

/// The one attempt [`HydraulicNetwork::solve_with`] makes.
const DEFAULT_ATTEMPT: Attempt = Attempt {
    relax: RELAX,
    max_iter: MAX_ITER,
};

/// The retry ladder [`HydraulicNetwork::solve_with_ladder`] climbs: the
/// default attempt first (bit-identical to [`HydraulicNetwork::solve`]
/// when it converges), then two progressively damped re-solves with
/// larger budgets.
const LADDER: [Attempt; 3] = [
    DEFAULT_ATTEMPT,
    Attempt {
        relax: 0.45,
        max_iter: 500,
    },
    Attempt {
        relax: 0.15,
        max_iter: 1500,
    },
];

/// Precomputed per-branch assembly plan: the unknown-column of each
/// endpoint and the sparse value-array indices the branch conductance
/// scatters into.
#[derive(Debug, Clone, Copy)]
struct BranchScatter {
    /// Unknown column of the `from` junction (`None` = reference).
    ci: Option<usize>,
    /// Unknown column of the `to` junction (`None` = reference).
    cj: Option<usize>,
    /// Sparse value index of `(ci, ci)` — valid when `ci` is `Some`.
    ii: usize,
    /// Sparse value index of `(cj, cj)` — valid when `cj` is `Some`.
    jj: usize,
    /// Sparse value index of `(ci, cj)` — valid when both are `Some`.
    ij: usize,
    /// Sparse value index of `(cj, ci)` — valid when both are `Some`.
    ji: usize,
}

/// Reusable solver state bound to one network topology.
///
/// Holds the sparse symbolic factorization (analyzed once, replayed
/// every Newton iteration and ladder rung), the per-branch assembly
/// plan, the numeric workspaces, and the **warm-start seed**: after a
/// successful solve the converged flows are kept and the next solve
/// through this context starts from them instead of from the cold
/// uniform guess. A converged solve that started from the seed records
/// one `hydraulics.warm_starts` work unit into its registry.
///
/// The context revalidates itself against the network on every solve:
/// if the topology changed (junctions, branches, openness, reference)
/// the plan is rebuilt automatically — the warm seed survives pure
/// openness changes (a failure sweep's neighboring solution is still
/// the best available guess) and is dropped when the branch set itself
/// changed. Valve re-trims and fluid changes don't invalidate anything.
///
/// Warm-starting is deterministic: the seed is a pure function of the
/// solve history through this context, so results are bit-identical at
/// every `RCS_THREADS` value (contexts are never shared across
/// threads; each worker chains its own).
///
/// # Examples
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_hydraulics::{Element, HydraulicNetwork, Pipe, PumpCurve};
/// use rcs_obs::Registry;
/// use rcs_units::{Celsius, Length, Pressure, VolumeFlow};
///
/// let mut net = HydraulicNetwork::new();
/// let a = net.add_junction("out");
/// let b = net.add_junction("in");
/// net.add_branch("piping", a, b, vec![Element::Pipe(
///     Pipe::smooth(Length::from_meters(20.0), Length::millimeters(25.0)))])?;
/// net.add_branch("pump", b, a, vec![Element::Pump(PumpCurve::new(
///     Pressure::kilopascals(60.0), VolumeFlow::liters_per_minute(150.0)))])?;
/// let water = Coolant::water().state(Celsius::new(20.0));
///
/// let obs = Registry::disabled();
/// let mut ctx = net.solver_context();
/// let cold = net.solve_with(&water, &mut ctx, obs)?;
/// let warm = net.solve_with(&water, &mut ctx, obs)?; // starts from `cold`'s flows
/// assert!(warm.iterations() < cold.iterations());
/// # Ok::<(), rcs_hydraulics::HydraulicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolverContext {
    // -- topology fingerprint --
    n_junctions: usize,
    reference: usize,
    openness: Vec<bool>,
    // -- assembly plan --
    unknowns: Vec<usize>,
    touched: Vec<bool>,
    scatter: Vec<BranchScatter>,
    symbolic: SparseSymbolic,
    // -- numeric workspaces --
    values: Vec<f64>,
    rhs: Vec<f64>,
    // -- warm state --
    warm_flows: Option<Vec<f64>>,
}

impl SolverContext {
    fn build(net: &HydraulicNetwork, warm: Option<Vec<f64>>) -> Self {
        let n_junctions = net.junctions.len();
        let reference = net.reference.map_or(0, |r| r.0);
        let openness: Vec<bool> = net.branches.iter().map(|b| b.open).collect();
        let unknowns: Vec<usize> = (0..n_junctions).filter(|&j| j != reference).collect();
        let mut col_of: Vec<Option<usize>> = vec![None; n_junctions];
        for (c, &j) in unknowns.iter().enumerate() {
            col_of[j] = Some(c);
        }
        let mut touched = vec![false; n_junctions];
        for b in net.branches.iter().filter(|b| b.open) {
            touched[b.from.0] = true;
            touched[b.to.0] = true;
        }

        // Open-branch incidence only: exactly the edges whose
        // conductances the assembly scatters. Closed branches contribute
        // nothing, so openness is part of the fingerprint above.
        let edges: Vec<(usize, usize)> = net
            .branches
            .iter()
            .filter(|b| b.open)
            .filter_map(|b| Some((col_of[b.from.0]?, col_of[b.to.0]?)))
            .collect();
        let symbolic = SparseSymbolic::analyze(unknowns.len(), &edges);
        let scatter = net
            .branches
            .iter()
            .map(|b| {
                let ci = col_of[b.from.0];
                let cj = col_of[b.to.0];
                let idx = |r: Option<usize>, c: Option<usize>| -> usize {
                    match (r, c, b.open) {
                        (Some(r), Some(c), true) => symbolic
                            .index_of(r, c)
                            .expect("open-branch incidence is structural"),
                        _ => 0,
                    }
                };
                BranchScatter {
                    ci,
                    cj,
                    ii: idx(ci, ci),
                    jj: idx(cj, cj),
                    ij: idx(ci, cj),
                    ji: idx(cj, ci),
                }
            })
            .collect();

        let nnz = symbolic.nnz();
        let n = unknowns.len();
        Self {
            n_junctions,
            reference,
            openness,
            unknowns,
            touched,
            scatter,
            symbolic,
            values: vec![0.0; nnz],
            rhs: vec![0.0; n],
            warm_flows: warm,
        }
    }

    /// `true` if the stored plan still describes `net`'s topology.
    fn matches(&self, net: &HydraulicNetwork) -> bool {
        self.n_junctions == net.junctions.len()
            && self.reference == net.reference.map_or(0, |r| r.0)
            && self.openness.len() == net.branches.len()
            && self
                .openness
                .iter()
                .zip(&net.branches)
                .all(|(o, b)| *o == b.open)
    }

    /// Revalidates against `net`, rebuilding the plan if the topology
    /// changed. The warm seed survives a rebuild when the branch count
    /// is unchanged (openness flips); otherwise it is dropped.
    fn ensure(&mut self, net: &HydraulicNetwork) {
        if self.matches(net) {
            return;
        }
        let warm = self
            .warm_flows
            .take()
            .filter(|w| w.len() == net.branches.len());
        *self = Self::build(net, warm);
    }

    /// Consumes the warm seed if it is usable for `net`.
    fn take_seed(&mut self, net: &HydraulicNetwork) -> Option<Vec<f64>> {
        self.warm_flows
            .take()
            .filter(|w| w.len() == net.branches.len() && w.iter().all(|q| q.is_finite()))
    }
}

/// Iteration-count histogram bounds shared by all solver telemetry
/// (inclusive upper bounds; the overflow bucket catches anything past
/// the heaviest ladder budget).
const ITER_BOUNDS: [u64; 7] = [5, 10, 20, 50, 200, 500, 1500];
/// Ladder-rung histogram bounds: rung index 0 (the default attempt), 1, 2.
const RUNG_BOUNDS: [u64; 3] = [0, 1, 2];
/// Residual-decade histogram bounds (see [`rcs_obs::residual_decade`]).
const DECADE_BOUNDS: [u64; 4] = [3, 6, 9, 12];

/// Bucket edges for the float residual histogram (continuity residual,
/// m³/s). The explicit underflow/overflow buckets absorb exactly-zero
/// residuals and non-finite divergence without panicking.
const RESIDUAL_EDGES: [f64; 4] = [1e-12, 1e-9, 1e-6, 1e-3];

/// Where a failed attempt left off — enough to build the diagnostics.
struct SolveFailure {
    iterations: usize,
    residual: f64,
    worst_junction: usize,
    worst_branch: usize,
}

enum InnerError {
    Stalled(SolveFailure),
    Other(HydraulicError),
}

/// A converged attempt plus how it started (for the work profile).
struct SolveOutcome {
    solution: HydraulicSolution,
    warm_started: bool,
}

impl HydraulicNetwork {
    /// Builds a reusable [`SolverContext`] for this topology. Reuse it
    /// across repeated solves to share the symbolic factorization and
    /// warm-start each solve from the previous solution.
    #[must_use]
    pub fn solver_context(&self) -> SolverContext {
        SolverContext::build(self, None)
    }

    /// Solves the steady flow distribution for the given fluid state:
    /// one default attempt through a fresh context, unobserved.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicError::EmptyNetwork`] for a network without
    /// junctions, [`HydraulicError::NoConvergence`] if the continuity
    /// residual does not fall below tolerance, and propagates
    /// singular-matrix failures from degenerate networks.
    pub fn solve(&self, fluid: &FluidState) -> Result<HydraulicSolution, HydraulicError> {
        self.solve_with(fluid, &mut self.solver_context(), Registry::disabled())
    }

    /// One default solve attempt (under-relaxation 0.7, at most 200
    /// Newton iterations) through a reusable context: the symbolic
    /// factorization is shared and, when `ctx` holds a seed from a
    /// previous success, the attempt starts warm. Telemetry recorded
    /// into `obs` — all golden-channel integers:
    ///
    /// - `hydraulics.solve.calls` / `.converged` / `.stalled` counters;
    /// - `hydraulics.solve.iterations` histogram on success;
    /// - `hydraulics.solve.residual_decade` histogram of the converged
    ///   residual's decade;
    /// - a `hydraulics.warm_starts` work counter when the attempt
    ///   converged from a warm seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`HydraulicNetwork::solve`].
    pub fn solve_with(
        &self,
        fluid: &FluidState,
        ctx: &mut SolverContext,
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        self.attempt_with(fluid, &DEFAULT_ATTEMPT, ctx, obs)
    }

    /// [`HydraulicNetwork::solve_with`] under an explicit attempt; the
    /// unit tests starve it to exercise the failure paths.
    fn attempt_with(
        &self,
        fluid: &FluidState,
        opts: &Attempt,
        ctx: &mut SolverContext,
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        obs.inc("hydraulics.solve.calls");
        match self.solve_inner(fluid, opts, ctx, Self::solve_nodal_sparse) {
            Ok(outcome) => {
                let solution = outcome.solution;
                obs.inc("hydraulics.solve.converged");
                obs.record_histogram(
                    "hydraulics.solve.iterations",
                    &ITER_BOUNDS,
                    solution.iterations() as u64,
                );
                obs.record_histogram(
                    "hydraulics.solve.residual_decade",
                    &DECADE_BOUNDS,
                    residual_decade(solution.worst_residual_m3s()),
                );
                obs.record_histogram_f64(
                    "hydraulics.solve.residual",
                    &RESIDUAL_EDGES,
                    solution.worst_residual_m3s(),
                );
                self.record_solver_work(obs, solution.iterations() as u64);
                if outcome.warm_started {
                    obs.work("hydraulics.warm_starts", 1);
                }
                Ok(solution)
            }
            Err(InnerError::Stalled(fail)) => {
                obs.inc("hydraulics.solve.stalled");
                obs.record_histogram_f64("hydraulics.solve.residual", &RESIDUAL_EDGES, {
                    fail.residual
                });
                self.record_solver_work(obs, fail.iterations as u64);
                Err(HydraulicError::NoConvergence {
                    iterations: fail.iterations,
                    residual: fail.residual,
                })
            }
            Err(InnerError::Other(err)) => {
                obs.inc("hydraulics.solve.error");
                Err(err)
            }
        }
    }

    /// Rolls one solve attempt's deterministic effort into the work
    /// profile: outer iterations, one numeric factorization of the
    /// nodal matrix per iteration, and iterations × unknown pressure
    /// nodes (the figure that scales the per-iteration elimination).
    fn record_solver_work(&self, obs: &Registry, iterations: u64) {
        let unknowns = self.junctions.len().saturating_sub(1) as u64;
        obs.work("hydraulics.iterations", iterations);
        obs.work("hydraulics.factorizations", iterations);
        obs.work("hydraulics.iter_unknowns", iterations * unknowns);
    }

    /// Solves through the retry ladder: the default attempt first, then
    /// two progressively damped re-solves (under-relaxation 0.45 with
    /// 500 iterations, then 0.15 with 1500); a network that defeats
    /// every rung returns
    /// [`HydraulicError::Unsolvable`] with structured diagnostics
    /// naming the worst junction and branch. When the first rung
    /// converges the result is bit-identical to a single default
    /// attempt, so healthy networks pay nothing.
    ///
    /// The rungs share `ctx`'s symbolic factorization; the warm seed
    /// (if any) feeds the first rung only — a seed that failed to
    /// converge is discarded, so damped rungs restart cold — and a
    /// converged rung leaves its flows as the next solve's seed.
    ///
    /// Telemetry recorded into `obs` — all golden-channel integers:
    ///
    /// - `hydraulics.ladder.calls` / `.converged` / `.unsolvable`
    ///   counters;
    /// - `hydraulics.ladder.escalations` — how many rungs had to be
    ///   abandoned before convergence (0 on a healthy network), i.e.
    ///   the fallback count;
    /// - `hydraulics.ladder.rung` histogram of the rung that converged;
    /// - `hydraulics.ladder.iterations` and
    ///   `hydraulics.ladder.residual_decade` histograms of the
    ///   successful attempt.
    ///
    /// # Errors
    ///
    /// [`HydraulicError::Unsolvable`] after every rung stalls;
    /// singular-matrix and builder failures propagate immediately.
    pub fn solve_with_ladder(
        &self,
        fluid: &FluidState,
        ctx: &mut SolverContext,
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        self.climb_ladder(fluid, &LADDER, ctx, obs)
    }

    /// [`HydraulicNetwork::solve_with_ladder`] over an explicit,
    /// non-empty rung list; the unit tests starve rungs to exercise
    /// escalation and exhaustion.
    fn climb_ladder(
        &self,
        fluid: &FluidState,
        rungs: &[Attempt],
        ctx: &mut SolverContext,
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        obs.inc("hydraulics.ladder.calls");
        let mut attempts = Vec::new();
        let mut last_failure: Option<SolveFailure> = None;
        for (rung, opts) in rungs.iter().enumerate() {
            match self.solve_inner(fluid, opts, ctx, Self::solve_nodal_sparse) {
                Ok(outcome) => {
                    let solution = outcome.solution;
                    obs.inc("hydraulics.ladder.converged");
                    obs.add("hydraulics.ladder.escalations", rung as u64);
                    obs.record_histogram("hydraulics.ladder.rung", &RUNG_BOUNDS, rung as u64);
                    obs.record_histogram(
                        "hydraulics.ladder.iterations",
                        &ITER_BOUNDS,
                        solution.iterations() as u64,
                    );
                    obs.record_histogram(
                        "hydraulics.ladder.residual_decade",
                        &DECADE_BOUNDS,
                        residual_decade(solution.worst_residual_m3s()),
                    );
                    self.record_solver_work(obs, solution.iterations() as u64);
                    if outcome.warm_started {
                        obs.work("hydraulics.warm_starts", 1);
                    }
                    return Ok(solution);
                }
                Err(InnerError::Stalled(fail)) => {
                    self.record_solver_work(obs, fail.iterations as u64);
                    attempts.push(SolveAttempt {
                        relax: opts.relax,
                        max_iter: opts.max_iter,
                        residual: fail.residual,
                    });
                    last_failure = Some(fail);
                }
                Err(InnerError::Other(err)) => {
                    obs.inc("hydraulics.ladder.error");
                    return Err(err);
                }
            }
        }
        let fail = last_failure.expect("ladder has at least one rung");
        obs.inc("hydraulics.ladder.unsolvable");
        obs.add("hydraulics.ladder.escalations", (rungs.len() - 1) as u64);
        Err(HydraulicError::Unsolvable {
            diagnostics: ConvergenceDiagnostics {
                attempts,
                worst_junction: self
                    .junctions
                    .get(fail.worst_junction)
                    .map_or_else(|| "<none>".into(), |j| j.name.clone()),
                worst_branch: self
                    .branches
                    .get(fail.worst_branch)
                    .map_or_else(|| "<none>".into(), |b| b.name.clone()),
                residual: fail.residual,
            },
        })
    }

    /// One Newton attempt. `nodal` assembles and solves the linearized
    /// nodal system for the unknown pressures: the entry points pass
    /// [`HydraulicNetwork::solve_nodal_sparse`], and the unit tests pass
    /// a dense reference kernel through the same loop.
    fn solve_inner<N>(
        &self,
        fluid: &FluidState,
        opts: &Attempt,
        ctx: &mut SolverContext,
        nodal: N,
    ) -> Result<SolveOutcome, InnerError>
    where
        N: Fn(&Self, &mut SolverContext, &[f64], &[f64], &[f64]) -> Result<Vec<f64>, NumericError>,
    {
        if self.junctions.is_empty() {
            return Err(InnerError::Other(HydraulicError::EmptyNetwork));
        }
        ctx.ensure(self);
        let n_junctions = self.junctions.len();
        let reference = ctx.reference;
        let n = ctx.unknowns.len();

        // Initial guess: the previous solution's flows when the context
        // carries a seed (closed branches forced shut), else a small
        // uniform flow through every open branch.
        let seed = ctx.take_seed(self);
        let warm_started = seed.is_some();
        let mut flows: Vec<f64> = match seed {
            Some(mut w) => {
                for (q, b) in w.iter_mut().zip(&self.branches) {
                    if !b.open {
                        *q = 0.0;
                    }
                }
                w
            }
            None => self
                .branches
                .iter()
                .map(|b| if b.open { 1e-4 } else { 0.0 })
                .collect(),
        };
        let min_iter = if warm_started {
            MIN_ITER_WARM
        } else {
            MIN_ITER_COLD
        };
        let mut pressures = vec![0.0; n_junctions];

        let mut last_residual = f64::INFINITY;
        let mut worst_junction = 0usize;
        let mut worst_branch = 0usize;
        for iter in 0..opts.max_iter {
            // Linearize each open branch: dp(Q) ~ h + h' (Qnew - Q).
            let mut h = vec![0.0; self.branches.len()];
            let mut d = vec![0.0; self.branches.len()];
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    continue;
                }
                let q = VolumeFlow::from_cubic_meters_per_second(flows[k]);
                h[k] = b.pressure_drop(q, fluid).pascals();
                d[k] = 1.0 / b.drop_derivative(q, fluid).max(1e-9);
            }

            // Assemble and solve the nodal system A p = rhs over the
            // unknown junctions.
            if n > 0 {
                let p =
                    nodal(self, ctx, &flows, &h, &d).map_err(|e| InnerError::Other(e.into()))?;
                for (c, &j) in ctx.unknowns.iter().enumerate() {
                    pressures[j] = p[c];
                }
                pressures[reference] = 0.0;
            }

            // Flow update with under-relaxation.
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    flows[k] = 0.0;
                    continue;
                }
                let dp = pressures[b.from.0] - pressures[b.to.0];
                let q_new = flows[k] + d[k] * (dp - h[k]);
                flows[k] = opts.relax * q_new + (1.0 - opts.relax) * flows[k];
            }

            // Continuity check at every junction...
            let mut residual = vec![0.0; n_junctions];
            for (k, b) in self.branches.iter().enumerate() {
                residual[b.from.0] -= flows[k];
                residual[b.to.0] += flows[k];
            }
            residual[reference] = 0.0; // the reference absorbs the closure
            let mut worst = 0.0f64;
            for (j, r) in residual.iter().enumerate() {
                if r.abs() > worst {
                    worst = r.abs();
                    worst_junction = j;
                }
            }
            let scale = flows.iter().fold(0.0f64, |m, q| m.max(q.abs())).max(1e-6);

            // ...plus head closure on every open branch. Continuity alone is
            // trivially satisfied on a pure loop (any circulating flow
            // conserves mass), so the energy equation must be checked too.
            let mut worst_head = 0.0f64;
            let mut head_scale = 1.0f64;
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    continue;
                }
                let q = VolumeFlow::from_cubic_meters_per_second(flows[k]);
                let drop = b.pressure_drop(q, fluid).pascals();
                let dp = pressures[b.from.0] - pressures[b.to.0];
                if (drop - dp).abs() > worst_head {
                    worst_head = (drop - dp).abs();
                    worst_branch = k;
                }
                head_scale = head_scale.max(drop.abs()).max(dp.abs());
            }

            if worst < CONTINUITY_TOL.max(1e-9 * scale)
                && worst_head < 1e-7 * head_scale
                && iter >= min_iter
            {
                ctx.warm_flows = Some(flows.clone());
                return Ok(SolveOutcome {
                    solution: HydraulicSolution::new(
                        self.clone(),
                        *fluid,
                        pressures,
                        flows,
                        iter + 1,
                        worst,
                    ),
                    warm_started,
                });
            }
            last_residual = worst.max(worst_head / head_scale * scale);
        }
        Err(InnerError::Stalled(SolveFailure {
            iterations: opts.max_iter,
            residual: last_residual,
            worst_junction,
            worst_branch,
        }))
    }

    /// One nodal solve: scatter the linearized conductances into the
    /// context's value workspace (in branch order, so the accumulated
    /// sums are bit-identical to a dense assembly), pin isolated rows,
    /// and replay the precomputed elimination schedule.
    fn solve_nodal_sparse(
        &self,
        ctx: &mut SolverContext,
        flows: &[f64],
        h: &[f64],
        d: &[f64],
    ) -> Result<Vec<f64>, NumericError> {
        let sym = &ctx.symbolic;
        ctx.values.fill(0.0);
        ctx.rhs.fill(0.0);
        for (k, b) in self.branches.iter().enumerate() {
            if !b.open {
                continue;
            }
            let sc = ctx.scatter[k];
            // Linearized: Qnew = Q + D*(p_i - p_j - h)
            let q_lin = flows[k] - d[k] * h[k];
            if let Some(ci) = sc.ci {
                ctx.values[sc.ii] += d[k];
                ctx.rhs[ci] -= q_lin;
                if sc.cj.is_some() {
                    ctx.values[sc.ij] -= d[k];
                }
            }
            if let Some(cj) = sc.cj {
                ctx.values[sc.jj] += d[k];
                ctx.rhs[cj] += q_lin;
                if sc.ci.is_some() {
                    ctx.values[sc.ji] -= d[k];
                }
            }
        }
        // Isolated junctions would produce a zero row; pin them to the
        // reference pressure instead (their row holds only the
        // diagonal — no open branch touches them, so no fill either).
        for (row, &j) in ctx.unknowns.iter().enumerate() {
            if !ctx.touched[j] {
                ctx.values[sym.diag_index(row)] = 1.0;
                ctx.rhs[row] = 0.0;
            }
        }
        sym.factor_solve(&mut ctx.values, &mut ctx.rhs)?;
        Ok(ctx.rhs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Element, Pipe, PumpCurve, Valve};
    use rcs_fluids::Coolant;
    use rcs_testkit::{check_cases, Matrix};
    use rcs_units::{Celsius, Length, Pressure};

    fn water() -> FluidState {
        Coolant::water().state(Celsius::new(20.0))
    }

    /// The dense reference nodal kernel: the same assembly as
    /// [`HydraulicNetwork::solve_nodal_sparse`] into a dense matrix,
    /// solved by Gaussian elimination with partial pivoting. It is the
    /// independent cross-check the sparse schedule is validated against.
    fn solve_nodal_dense(
        net: &HydraulicNetwork,
        ctx: &mut SolverContext,
        flows: &[f64],
        h: &[f64],
        d: &[f64],
    ) -> Result<Vec<f64>, NumericError> {
        let n = ctx.unknowns.len();
        let mut a = Matrix::zeros(n.max(1), n.max(1));
        let mut rhs = vec![0.0; n.max(1)];
        for (k, b) in net.branches.iter().enumerate() {
            if !b.open {
                continue;
            }
            let sc = ctx.scatter[k];
            let q_lin = flows[k] - d[k] * h[k];
            if let Some(ci) = sc.ci {
                a[(ci, ci)] += d[k];
                rhs[ci] -= q_lin;
                if let Some(cj) = sc.cj {
                    a[(ci, cj)] -= d[k];
                }
            }
            if let Some(cj) = sc.cj {
                a[(cj, cj)] += d[k];
                rhs[cj] += q_lin;
                if let Some(ci) = sc.ci {
                    a[(cj, ci)] -= d[k];
                }
            }
        }
        for (row, &j) in ctx.unknowns.iter().enumerate() {
            if !ctx.touched[j] {
                a[(row, row)] = 1.0;
                rhs[row] = 0.0;
            }
        }
        a.solve(&rhs)
    }

    /// One cold default attempt on the dense reference kernel — the
    /// oracle counterpart of [`HydraulicNetwork::solve`].
    fn solve_dense(net: &HydraulicNetwork) -> HydraulicSolution {
        let mut ctx = net.solver_context();
        let Ok(outcome) = net.solve_inner(&water(), &DEFAULT_ATTEMPT, &mut ctx, solve_nodal_dense)
        else {
            panic!("the dense reference must converge");
        };
        outcome.solution
    }

    /// One default attempt through `ctx`, unobserved.
    fn solve_in(
        net: &HydraulicNetwork,
        ctx: &mut SolverContext,
    ) -> Result<HydraulicSolution, HydraulicError> {
        net.solve_with(&water(), ctx, Registry::disabled())
    }

    /// A one-iteration attempt: too short a budget to converge.
    const STARVED: Attempt = Attempt {
        relax: 0.7,
        max_iter: 1,
    };

    /// A ladder whose every rung is too short to converge.
    const HOPELESS: [Attempt; 2] = [
        STARVED,
        Attempt {
            relax: 0.3,
            max_iter: 2,
        },
    ];

    /// A ladder solve over `rungs` through a fresh context, recorded
    /// into `obs`.
    fn ladder(
        net: &HydraulicNetwork,
        rungs: &[Attempt],
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        net.climb_ladder(&water(), rungs, &mut net.solver_context(), obs)
    }

    fn pipe(len_m: f64) -> Element {
        Element::Pipe(Pipe::smooth(
            Length::from_meters(len_m),
            Length::millimeters(25.0),
        ))
    }

    fn pump() -> Element {
        Element::Pump(PumpCurve::new(
            Pressure::kilopascals(60.0),
            VolumeFlow::liters_per_minute(200.0),
        ))
    }

    #[test]
    fn single_loop_operating_point() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let loop_branch = net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        let pump_branch = net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let s = net.solve(&water()).unwrap();
        let q = s.flow(loop_branch);
        // pump and pipe carry the same flow
        assert!(
            (q.cubic_meters_per_second() - s.flow(pump_branch).cubic_meters_per_second()).abs()
                < 1e-9
        );
        // and the pressure gain matches the loss at that flow
        let gain = match pump() {
            Element::Pump(p) => p.pressure_gain(q).pascals(),
            _ => unreachable!(),
        };
        let loss = match pipe(20.0) {
            Element::Pipe(p) => p.pressure_loss(q, &water()).pascals(),
            _ => unreachable!(),
        };
        assert!(
            (gain - loss).abs() / loss < 1e-6,
            "gain {gain}, loss {loss}"
        );
        assert!(q.as_liters_per_minute() > 50.0 && q.as_liters_per_minute() < 200.0);
    }

    #[test]
    fn two_identical_parallel_branches_split_evenly() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("loop1", s, r, vec![pipe(10.0)]).unwrap();
        let b2 = net.add_branch("loop2", s, r, vec![pipe(10.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        let q1 = sol.flow(b1).cubic_meters_per_second();
        let q2 = sol.flow(b2).cubic_meters_per_second();
        assert!((q1 - q2).abs() / q1 < 1e-6, "q1 {q1}, q2 {q2}");
    }

    #[test]
    fn unequal_parallel_branches_favor_the_short_one() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let short = net.add_branch("short", s, r, vec![pipe(5.0)]).unwrap();
        let long = net.add_branch("long", s, r, vec![pipe(40.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert!(
            sol.flow(short).cubic_meters_per_second()
                > 1.5 * sol.flow(long).cubic_meters_per_second()
        );
    }

    #[test]
    fn closed_branch_carries_no_flow() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("loop1", s, r, vec![pipe(10.0)]).unwrap();
        let b2 = net.add_branch("loop2", s, r, vec![pipe(10.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let before = net
            .solve(&water())
            .unwrap()
            .flow(b1)
            .cubic_meters_per_second();
        net.set_branch_open(b2, false).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert_eq!(sol.flow(b2).cubic_meters_per_second(), 0.0);
        // survivor takes more than before, but less than double (pump curve)
        let after = sol.flow(b1).cubic_meters_per_second();
        assert!(after > before);
        assert!(after < 2.0 * before);
    }

    #[test]
    fn valve_throttling_reduces_branch_flow() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let v = Element::Valve(Valve::balancing(Length::millimeters(25.0)));
        let b1 = net.add_branch("valved", s, r, vec![pipe(10.0), v]).unwrap();
        let b2 = net.add_branch("plain", s, r, vec![pipe(10.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let open = net.solve(&water()).unwrap();
        net.set_valve_opening(b1, 0.3).unwrap();
        let throttled = net.solve(&water()).unwrap();
        assert!(
            throttled.flow(b1).cubic_meters_per_second() < open.flow(b1).cubic_meters_per_second()
        );
        assert!(
            throttled.flow(b2).cubic_meters_per_second() > open.flow(b2).cubic_meters_per_second()
        );
    }

    #[test]
    fn isolated_junction_is_pinned_to_reference_pressure() {
        // A working pump loop plus a junction no branch touches at all:
        // the solver must still converge, and the stranded node sits at
        // the reference pressure with zero continuity residual.
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let stranded = net.add_junction("stranded");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert_eq!(sol.pressure(stranded).pascals(), 0.0);
        assert_eq!(
            sol.continuity_residual(stranded).cubic_meters_per_second(),
            0.0
        );
        // the live loop is unaffected by the stranded node
        assert!(sol.flows()[0].as_liters_per_minute() > 50.0);
    }

    #[test]
    fn junction_isolated_by_closed_branches_is_pinned() {
        // Isolation must be judged on *open* incidence: a junction whose
        // only branch is closed is just as stranded as one with none.
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let spur_end = net.add_junction("spur end");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let spur = net
            .add_branch("spur", b, spur_end, vec![pipe(5.0)])
            .unwrap();
        net.set_branch_open(spur, false).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert_eq!(sol.pressure(spur_end).pascals(), 0.0);
        assert_eq!(sol.flow(spur).cubic_meters_per_second(), 0.0);
    }

    #[test]
    fn robust_solve_is_identical_to_plain_solve_on_healthy_networks() {
        // First ladder rung == default options, so a converging network
        // must produce bit-identical flows through either entry point.
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("short", s, r, vec![pipe(5.0)]).unwrap();
        let b2 = net.add_branch("long", s, r, vec![pipe(40.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let plain = net.solve(&water()).unwrap();
        let robust = net
            .solve_with_ladder(&water(), &mut net.solver_context(), Registry::disabled())
            .unwrap();
        for b in [b1, b2] {
            assert_eq!(
                plain.flow(b).cubic_meters_per_second(),
                robust.flow(b).cubic_meters_per_second()
            );
        }
    }

    #[test]
    fn damped_rungs_rescue_a_budget_starved_first_attempt() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        // One-iteration budget cannot converge...
        assert!(matches!(
            net.attempt_with(
                &water(),
                &STARVED,
                &mut net.solver_context(),
                Registry::disabled()
            ),
            Err(HydraulicError::NoConvergence { iterations: 1, .. })
        ));
        // ...but a ladder whose later rung has a real budget succeeds.
        let sol = ladder(&net, &[STARVED, DEFAULT_ATTEMPT], Registry::disabled()).unwrap();
        assert!(sol.flows()[0].as_liters_per_minute() > 50.0);
    }

    #[test]
    fn exhausted_ladder_reports_structured_diagnostics() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("bath outlet");
        let b = net.add_junction("bath inlet");
        net.add_branch("loop pipe", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("bath pump", b, a, vec![pump()]).unwrap();
        let err = ladder(&net, &HOPELESS, Registry::disabled()).unwrap_err();
        let HydraulicError::Unsolvable { diagnostics } = err else {
            panic!("expected Unsolvable, got {err:?}");
        };
        assert_eq!(diagnostics.attempts.len(), 2);
        assert_eq!(diagnostics.attempts[0].max_iter, 1);
        assert_eq!(diagnostics.attempts[1].relax, 0.3);
        assert!(diagnostics.residual.is_finite());
        // the named offenders are real members of this network
        assert!(["bath outlet", "bath inlet"].contains(&diagnostics.worst_junction.as_str()));
        assert!(["loop pipe", "bath pump"].contains(&diagnostics.worst_branch.as_str()));
    }

    #[test]
    fn healthy_ladder_solve_records_rung_zero_and_no_escalations() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let sol = ladder(&net, &LADDER, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.calls"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
        assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 0);
        let rung = snap.histogram("hydraulics.ladder.rung").unwrap();
        assert_eq!(rung.counts, vec![1, 0, 0, 0], "healthy nets use rung 0");
        let iters = snap.histogram("hydraulics.ladder.iterations").unwrap();
        assert_eq!(iters.total(), 1);
        // the recorded iteration bucket matches the solution's count
        assert!(sol.iterations() > 0);
    }

    #[test]
    fn starved_first_rung_records_one_escalation() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let rungs = [STARVED, DEFAULT_ATTEMPT];
        ladder(&net, &rungs, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 1);
        let rung = snap.histogram("hydraulics.ladder.rung").unwrap();
        assert_eq!(rung.counts, vec![0, 1, 0, 0]);
    }

    #[test]
    fn exhausted_ladder_records_unsolvable_telemetry() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let _ = ladder(&net, &HOPELESS, &obs).unwrap_err();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 0);
        assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 1);
        assert!(snap.histogram("hydraulics.ladder.rung").is_none());
    }

    #[test]
    fn single_attempt_telemetry_counts_calls_and_outcomes() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let mut ctx = net.solver_context();
        net.solve_with(&water(), &mut ctx, &obs).unwrap();
        let _ = net
            .attempt_with(&water(), &STARVED, &mut ctx, &obs)
            .unwrap_err();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.solve.calls"), 2);
        assert_eq!(snap.counter("hydraulics.solve.converged"), 1);
        assert_eq!(snap.counter("hydraulics.solve.stalled"), 1);
        let decades = snap.histogram("hydraulics.solve.residual_decade").unwrap();
        assert_eq!(
            decades.total(),
            1,
            "only the converged attempt records a residual"
        );
    }

    #[test]
    fn mass_is_conserved_at_every_junction() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let c = net.add_junction("c");
        net.add_branch("ab", a, b, vec![pipe(8.0)]).unwrap();
        net.add_branch("bc1", b, c, vec![pipe(12.0)]).unwrap();
        net.add_branch("bc2", b, c, vec![pipe(18.0)]).unwrap();
        net.add_branch("pump", c, a, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        for j in net.junction_ids() {
            let res = sol.continuity_residual(j);
            assert!(
                res.cubic_meters_per_second().abs() < 1e-8,
                "junction {j:?}: {res:?}"
            );
        }
    }

    /// A 3-junction branched network with a valve — enough structure to
    /// exercise off-diagonal scatter, isolated handling and reuse.
    fn branched_net() -> (HydraulicNetwork, Vec<crate::BranchId>) {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let c = net.add_junction("c");
        let v = Element::Valve(Valve::balancing(Length::millimeters(25.0)));
        let ids = vec![
            net.add_branch("ab", a, b, vec![pipe(8.0)]).unwrap(),
            net.add_branch("bc1", b, c, vec![pipe(12.0), v]).unwrap(),
            net.add_branch("bc2", b, c, vec![pipe(18.0)]).unwrap(),
            net.add_branch("pump", c, a, vec![pump()]).unwrap(),
        ];
        (net, ids)
    }

    #[test]
    fn sparse_and_dense_engines_agree_bitwise_on_cold_solves() {
        let (net, ids) = branched_net();
        let s = net.solve(&water()).unwrap();
        let d = solve_dense(&net);
        assert_eq!(s.iterations(), d.iterations());
        for &b in &ids {
            assert_eq!(
                s.flow(b).cubic_meters_per_second(),
                d.flow(b).cubic_meters_per_second(),
                "sparse and dense engines must agree bitwise"
            );
        }
        for j in net.junction_ids() {
            assert_eq!(s.pressure(j).pascals(), d.pressure(j).pascals());
        }
    }

    #[test]
    fn stateless_solve_matches_fresh_context_solve_bitwise() {
        let (net, ids) = branched_net();
        let stateless = net.solve(&water()).unwrap();
        let mut ctx = net.solver_context();
        let via_ctx = solve_in(&net, &mut ctx).unwrap();
        assert_eq!(stateless.iterations(), via_ctx.iterations());
        for &b in &ids {
            assert_eq!(
                stateless.flow(b).cubic_meters_per_second(),
                via_ctx.flow(b).cubic_meters_per_second()
            );
        }
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_solution() {
        let (net, ids) = branched_net();
        let mut ctx = net.solver_context();
        let cold = solve_in(&net, &mut ctx).unwrap();
        let obs = Registry::new();
        let warm = net.solve_with(&water(), &mut ctx, &obs).unwrap();
        assert_eq!(
            obs.snapshot().counter("profile.hydraulics.warm_starts"),
            1,
            "a converged solve leaves its flows as the next seed"
        );
        assert!(
            warm.iterations() < cold.iterations(),
            "warm {} vs cold {}",
            warm.iterations(),
            cold.iterations()
        );
        for &b in &ids {
            let qc = cold.flow(b).cubic_meters_per_second();
            let qw = warm.flow(b).cubic_meters_per_second();
            assert!(
                (qc - qw).abs() <= 1e-9,
                "warm flow {qw} drifted from cold {qc}"
            );
        }
    }

    #[test]
    fn context_survives_valve_retrims_and_rebuilds_on_openness_change() {
        let (mut net, ids) = branched_net();
        let mut ctx = net.solver_context();
        solve_in(&net, &mut ctx).unwrap();
        // a valve trim keeps the topology: the context stays warm
        net.set_valve_opening(ids[1], 0.4).unwrap();
        let trimmed = solve_in(&net, &mut ctx).unwrap();
        // closing a branch changes the incidence: the plan is rebuilt
        // (keeping the neighboring seed) and the result matches a
        // from-scratch solve of the same network within tolerance
        net.set_branch_open(ids[1], false).unwrap();
        let failed_warm = solve_in(&net, &mut ctx).unwrap();
        let failed_cold = net.solve(&water()).unwrap();
        assert_eq!(failed_warm.flow(ids[1]).cubic_meters_per_second(), 0.0);
        for &b in &ids {
            let qw = failed_warm.flow(b).cubic_meters_per_second();
            let qc = failed_cold.flow(b).cubic_meters_per_second();
            assert!((qw - qc).abs() <= 1e-9, "warm {qw} vs cold {qc}");
        }
        assert!(trimmed.flow(ids[1]).cubic_meters_per_second() > 0.0);
    }

    #[test]
    fn failed_attempt_discards_the_seed() {
        let (net, _) = branched_net();
        let mut ctx = net.solver_context();
        solve_in(&net, &mut ctx).unwrap();
        // a starved warm attempt fails and must not leave a stale seed
        let _ = net
            .attempt_with(&water(), &STARVED, &mut ctx, Registry::disabled())
            .unwrap_err();
        // the next solve is cold and matches the stateless path bitwise
        let obs = Registry::new();
        let recovered = net.solve_with(&water(), &mut ctx, &obs).unwrap();
        assert_eq!(
            obs.snapshot().counter("profile.hydraulics.warm_starts"),
            0,
            "failed attempts must clear the seed"
        );
        let stateless = net.solve(&water()).unwrap();
        assert_eq!(recovered.iterations(), stateless.iterations());
    }

    #[test]
    fn warm_ladder_records_warm_start_work() {
        let (net, _) = branched_net();
        let mut ctx = net.solver_context();
        let obs = Registry::new();
        net.solve_with_ladder(&water(), &mut ctx, &obs).unwrap();
        net.solve_with_ladder(&water(), &mut ctx, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 2);
        assert_eq!(
            snap.counter("profile.hydraulics.warm_starts"),
            1,
            "only the second solve starts from a seed"
        );
    }

    #[test]
    fn sweep_warm_and_cold_agree_within_solver_tolerance() {
        let (net, ids) = branched_net();
        let openings = [1.0, 0.8, 0.6, 0.4, 0.3, 0.5, 0.9];
        // warm: one context chains every step; cold: a fresh,
        // unseeded context per step
        let sweep = |warm: bool| {
            let mut n = net.clone();
            let mut ctx = n.solver_context();
            let mut out = Vec::new();
            for &opening in &openings {
                n.set_valve_opening(ids[1], opening).unwrap();
                if !warm {
                    ctx = n.solver_context();
                }
                out.push(
                    n.solve_with_ladder(&water(), &mut ctx, Registry::disabled())
                        .unwrap(),
                );
            }
            out
        };
        let cold = sweep(false);
        let warm = sweep(true);
        assert_eq!(cold.len(), warm.len());
        let mut warm_iters = 0;
        let mut cold_iters = 0;
        for (c, w) in cold.iter().zip(&warm) {
            cold_iters += c.iterations();
            warm_iters += w.iterations();
            for &b in &ids {
                let qc = c.flow(b).cubic_meters_per_second();
                let qw = w.flow(b).cubic_meters_per_second();
                assert!((qc - qw).abs() <= 1e-9, "step flows {qc} vs {qw}");
            }
        }
        assert!(
            warm_iters < cold_iters,
            "warm sweep {warm_iters} iters vs cold {cold_iters}"
        );
    }

    #[test]
    fn warm_starting_is_deterministic_across_repeats() {
        // The seed is a pure function of the solve history, so two
        // identical warm chains must agree bit for bit.
        let (net, ids) = branched_net();
        let chain = || {
            let mut ctx = net.solver_context();
            let _ = solve_in(&net, &mut ctx).unwrap();
            solve_in(&net, &mut ctx).unwrap()
        };
        let a = chain();
        let b = chain();
        assert_eq!(a.iterations(), b.iterations());
        for &id in &ids {
            assert_eq!(
                a.flow(id).cubic_meters_per_second(),
                b.flow(id).cubic_meters_per_second()
            );
        }
    }

    #[test]
    fn isolated_junctions_are_pinned_identically_by_both_engines() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let stranded = net.add_junction("stranded");
        let spur_end = net.add_junction("spur end");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let spur = net
            .add_branch("spur", b, spur_end, vec![pipe(5.0)])
            .unwrap();
        net.set_branch_open(spur, false).unwrap();
        let s = net.solve(&water()).unwrap();
        let d = solve_dense(&net);
        for j in [stranded, spur_end] {
            assert_eq!(s.pressure(j).pascals(), 0.0);
            assert_eq!(d.pressure(j).pascals(), 0.0);
        }
        assert_eq!(s.flow(spur).cubic_meters_per_second(), 0.0);
        assert_eq!(
            s.flows()
                .iter()
                .map(|q| q.cubic_meters_per_second())
                .sum::<f64>(),
            d.flows()
                .iter()
                .map(|q| q.cubic_meters_per_second())
                .sum::<f64>()
        );
    }

    /// The sparse kernel must agree with the dense reference on every
    /// randomized topology and open/close pattern — including the
    /// isolated-junction class, where a junction's last open branch
    /// closes and the node must be pinned to the reference pressure by
    /// both kernels identically.
    #[test]
    fn sparse_and_dense_agree_under_random_branch_outages() {
        check_cases(
            "sparse_and_dense_agree_under_random_branch_outages",
            64,
            |g| {
                let loops = g.draw(2usize..=6);
                let mut net = HydraulicNetwork::new();
                // supply/return headers with one loop and one dead-end spur
                // per station; spurs and loops open or close independently
                let supply: Vec<_> = (0..loops)
                    .map(|i| net.add_junction(format!("s{i}")))
                    .collect();
                let ret: Vec<_> = (0..loops)
                    .map(|i| net.add_junction(format!("r{i}")))
                    .collect();
                let spurs: Vec<_> = (0..loops)
                    .map(|i| net.add_junction(format!("x{i}")))
                    .collect();
                let pipe = |len: f64| {
                    Element::Pipe(Pipe::smooth(
                        Length::from_meters(len),
                        Length::millimeters(20.0),
                    ))
                };
                for i in 0..loops - 1 {
                    let run = g.draw(0.5..4.0f64);
                    net.add_branch(format!("sh{i}"), supply[i], supply[i + 1], vec![pipe(run)])
                        .unwrap();
                    net.add_branch(format!("rh{i}"), ret[i + 1], ret[i], vec![pipe(run)])
                        .unwrap();
                }
                let mut loop_ids = Vec::new();
                let mut spur_ids = Vec::new();
                for i in 0..loops {
                    let len = g.draw(2.0..25.0f64);
                    loop_ids.push(
                        net.add_branch(format!("loop{i}"), supply[i], ret[i], vec![pipe(len)])
                            .unwrap(),
                    );
                    spur_ids.push(
                        net.add_branch(format!("spur{i}"), supply[i], spurs[i], vec![pipe(1.0)])
                            .unwrap(),
                    );
                }
                net.add_branch(
                    "pump",
                    ret[0],
                    supply[0],
                    vec![Element::Pump(PumpCurve::new(
                        Pressure::kilopascals(g.draw(40.0..120.0f64)),
                        VolumeFlow::liters_per_minute(400.0),
                    ))],
                )
                .unwrap();
                // random outages: keep loop 0 so the pump always has a
                // circuit; every spur is a dead end, so closing one
                // isolates its junction
                let mut closed_spurs = Vec::new();
                for &id in &loop_ids[1..] {
                    if g.draw(0.0..1.0f64) < 0.35 {
                        net.set_branch_open(id, false).unwrap();
                    }
                }
                for (i, &id) in spur_ids.iter().enumerate() {
                    if g.draw(0.0..1.0f64) < 0.5 {
                        net.set_branch_open(id, false).unwrap();
                        closed_spurs.push(i);
                    }
                }

                let s = net.solve(&water()).unwrap();
                let d = solve_dense(&net);
                assert_eq!(s.iterations(), d.iterations());
                for (k, (qs, qd)) in s.flows().iter().zip(d.flows()).enumerate() {
                    let (qs, qd) = (qs.cubic_meters_per_second(), qd.cubic_meters_per_second());
                    assert!((qs - qd).abs() <= 1e-12, "branch {k}: {qs} vs {qd}");
                }
                for j in net.junction_ids() {
                    let (ps, pd) = (s.pressure(j).pascals(), d.pressure(j).pascals());
                    assert!((ps - pd).abs() <= 1e-12 * ps.abs().max(1.0), "{ps} vs {pd}");
                }
                // a spur junction cut off from the network is pinned to
                // the reference pressure with zero residual by BOTH kernels
                for &i in &closed_spurs {
                    assert_eq!(s.pressure(spurs[i]).pascals(), 0.0);
                    assert_eq!(d.pressure(spurs[i]).pascals(), 0.0);
                    assert_eq!(s.flow(spur_ids[i]).cubic_meters_per_second(), 0.0);
                }
            },
        );
    }

    #[test]
    fn empty_network_is_a_typed_error_on_every_entry_point() {
        let net = HydraulicNetwork::new();
        let empty = Some(HydraulicError::EmptyNetwork);
        assert_eq!(net.solve(&water()).err(), empty);
        let obs = Registry::new();
        let mut ctx = net.solver_context();
        let laddered = net.solve_with_ladder(&water(), &mut ctx, &obs);
        assert_eq!(laddered.err(), empty);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.error"), 1);
        assert_eq!(snap.counter("profile.hydraulics.iterations"), 0);
    }
}
