//! One benchmark per paper table/figure: each target regenerates the
//! corresponding experiment end to end (the same code path the `exp_*`
//! binaries print), so `cargo bench` both times the harness and proves
//! every experiment still runs.

use std::hint::black_box;

use rcs_bench::Harness;
use rcs_core::experiments as exp;
use rcs_obs::Registry;

fn main() {
    let mut h = Harness::from_args_for("experiments");
    h.bench("e01_air_anchors", || black_box(exp::e01_air_anchors::run()));
    h.bench("e03_family_scaling", || {
        black_box(exp::e03_family_scaling::run())
    });
    h.bench("e04_liquid_vs_air", || {
        black_box(exp::e04_liquid_vs_air::run())
    });
    h.bench("e05_skat_thermal_f02_warmup", || {
        black_box(exp::e05_skat_thermal::run_observed(Registry::disabled()))
    });
    h.bench("e06_generation_gains", || {
        black_box(exp::e06_generation_gains::run())
    });
    h.bench("e07_rack_pflops", || black_box(exp::e07_rack_pflops::run()));
    h.bench("e08_hydraulic_balance_f05", || {
        black_box(exp::e08_hydraulic_balance::run_observed(
            Registry::disabled(),
        ))
    });
    h.bench("e09_skat_plus_f03_f04", || {
        black_box(exp::e09_skat_plus::run())
    });
    h.bench("e10_tim_washout", || black_box(exp::e10_tim_washout::run()));
    h.bench("e11_heatsink_design", || {
        black_box(exp::e11_heatsink_design::run())
    });
    h.bench("e12_reliability_mc", || {
        black_box(exp::e12_reliability_mc::run_observed(Registry::disabled()))
    });
    h.bench("e13_ablations", || black_box(exp::e13_ablations::run()));
    h.bench("e14_energy", || black_box(exp::e14_energy::run()));
    h.bench("e15_maintenance", || black_box(exp::e15_maintenance::run()));
    h.bench("e16_fleet", || black_box(exp::e16_fleet::run()));
    h.bench("f01_design_figures", || {
        black_box(exp::f01_design_figures::run())
    });
    h.finish();
}
