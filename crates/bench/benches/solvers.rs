//! Substrate solver micro-benchmarks: the kernels every experiment leans
//! on. These bound the cost of scaling the reproduction up (bigger racks,
//! finer transients) and catch algorithmic regressions.

use std::hint::black_box;

use rcs_bench::Harness;
use rcs_core::ImmersionModel;
use rcs_fluids::Coolant;
use rcs_hydraulics::layout;
use rcs_obs::Registry;
use rcs_thermal::ThermalNetwork;
use rcs_units::{Celsius, Power, Seconds, ThermalResistance};

fn bench_thermal_transient(h: &mut Harness) {
    let mut net = ThermalNetwork::new();
    let chip = net.add_node_with_capacitance("chips", 14_400.0);
    let bath = net.add_node_with_capacitance("bath", 105_000.0);
    let water = net.add_boundary("water", Celsius::new(20.0));
    net.connect(chip, bath, ThermalResistance::from_kelvin_per_watt(2.3e-3))
        .unwrap();
    net.connect(bath, water, ThermalResistance::from_kelvin_per_watt(9.6e-4))
        .unwrap();
    net.add_heat(chip, Power::from_watts(8736.0)).unwrap();
    h.bench("thermal_transient_1h", || {
        black_box(
            net.solve_transient(Celsius::new(20.0), Seconds::hours(1.0), Seconds::new(2.0))
                .unwrap(),
        )
    });
}

/// The Fig. 5 manifold at growing rack sizes.
fn bench_hydraulic_manifold(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    for loops in [6usize, 12, 24] {
        let plan = layout::rack_manifold(loops, layout::ReturnStyle::Reverse);
        h.bench(&format!("hydraulic_manifold/{loops}"), || {
            black_box(plan.network.solve(black_box(&water)).unwrap())
        });
    }
}

/// The full coupled SKAT solve: hydraulics + convection + exchanger +
/// leakage fixed point.
fn bench_coupled_immersion(h: &mut Harness) {
    h.bench("coupled_immersion_skat", || {
        black_box(ImmersionModel::skat().solve().unwrap())
    });
}

/// The sparse graph-elimination kernel on the reverse-return manifold,
/// sharing one analyzed context across solves (the production shape:
/// symbolic once, numeric per Newton iteration).
fn bench_sparse_manifold(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    for loops in [6usize, 12, 24] {
        let plan = layout::rack_manifold(loops, layout::ReturnStyle::Reverse);
        let unseeded = plan.network.solver_context();
        h.bench(&format!("hydraulic_manifold_sparse/{loops}"), || {
            // cold every time: isolate the per-solve elimination cost
            let mut ctx = unseeded.clone();
            let solution = plan
                .network
                .solve_with(black_box(&water), &mut ctx, Registry::disabled())
                .unwrap();
            black_box(solution)
        });
    }
}

/// A valve-trim parameter sweep, cold versus warm-started — the reuse
/// pattern `auto_trim`, transients and Monte-Carlo trials lean on.
fn bench_hydraulic_sweep(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    let openings = [1.0, 0.8, 0.6, 0.45, 0.6, 0.8, 1.0];
    for warm in [false, true] {
        let tag = if warm { "warm" } else { "cold" };
        let plan = layout::rack_manifold_with(
            12,
            layout::ReturnStyle::Direct,
            &layout::ManifoldParams {
                balancing_valves: true,
                ..layout::ManifoldParams::default()
            },
        );
        let valve = plan.loop_branches[0];
        // valve trims keep the topology, so one analyzed context fits
        // every step
        let unseeded = plan.network.solver_context();
        h.bench(
            &format!("hydraulic_sweep_{tag}/12x{}", openings.len()),
            || {
                // warm: one context chains every step; cold: an unseeded
                // copy per step
                let mut net = plan.network.clone();
                let mut ctx = unseeded.clone();
                let mut steps = Vec::with_capacity(openings.len());
                for &opening in &openings {
                    net.set_valve_opening(valve, opening).unwrap();
                    if !warm {
                        ctx = unseeded.clone();
                    }
                    steps.push(
                        net.solve_with_ladder(&water, &mut ctx, Registry::disabled())
                            .unwrap(),
                    );
                }
                black_box(steps)
            },
        );
    }
}

fn main() {
    let mut h = Harness::from_args_for("solvers");
    bench_thermal_transient(&mut h);
    bench_hydraulic_manifold(&mut h);
    bench_sparse_manifold(&mut h);
    bench_hydraulic_sweep(&mut h);
    bench_coupled_immersion(&mut h);
    h.finish();
}
