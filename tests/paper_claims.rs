//! One assertion per headline claim of the paper, driven through the
//! experiment harness — the machine-checkable version of EXPERIMENTS.md.

use rcs_sim::core::experiments;
use rcs_sim::obs::Registry;

/// §1: Rigel-2 at 58.1 °C and Taygeta at 72.9 °C reproduce within 3 K
/// after the one-parameter calibration.
#[test]
fn claim_air_anchors() {
    for row in experiments::e01_air_anchors::rows() {
        assert!(
            (row.model_junction_c - row.paper_junction_c).abs() < 3.0,
            "{row:?}"
        );
    }
}

/// §1: the Virtex-6 → Virtex-7 transition costs a double-digit overheat
/// increase, and the UltraScale generation exceeds the 80–85 °C range on
/// air.
#[test]
fn claim_family_scaling() {
    let rows = experiments::e03_family_scaling::rows();
    let delta = rows[1].delta_vs_previous_k.expect("both converge");
    assert!(delta > 8.0, "delta {delta}");
    if let Some(t) = rows[2].junction_c {
        assert!(t > 85.0); // None = runaway, an even stronger statement
    }
}

/// §2: volumetric heat capacity x1500–4000, per-FPGA flows of ~1 m³/min
/// air vs a few hundred ml/min water, heat flux ~x70.
#[test]
fn claim_liquid_physics() {
    let water = &experiments::e04_liquid_vs_air::rows()[1];
    assert!(water.capacity_ratio_vs_air > 1500.0 && water.capacity_ratio_vs_air < 4000.0);
    let (air_m3, water_ml) = experiments::e04_liquid_vs_air::per_fpga_flow_claim();
    assert!((air_m3 - 1.0).abs() < 1.0);
    assert!((water_ml - 250.0).abs() < 250.0);
    let flux = experiments::e04_liquid_vs_air::heat_flux_intensity_ratio();
    assert!(flux > 40.0 && flux < 120.0);
}

/// §3: 91 W per FPGA, 8736 W per module, agent ≤ 30 °C, FPGA ≤ 55 °C —
/// the SKAT heat test, with no immersion-side calibration.
#[test]
fn claim_skat_envelope() {
    let tables = experiments::e05_skat_thermal::run_observed(Registry::disabled());
    for row in &tables[0].rows {
        assert_ne!(row[3], "NO", "{row:?}");
    }
}

/// §3: x8.7 performance and >x3 packing density over Taygeta; §4: x3 from
/// UltraScale+.
#[test]
fn claim_generation_gains() {
    let rows = experiments::e06_generation_gains::rows();
    assert!((rows[1].perf_vs_taygeta - 8.7).abs() < 0.4);
    assert!(rows[1].density_vs_taygeta > 3.0);
    assert!((rows[2].perf_vs_taygeta / rows[1].perf_vs_taygeta - 3.0).abs() < 0.2);
}

/// §5: 12 modules in 47U, above 1 PFlops.
#[test]
fn claim_rack_petaflops() {
    let rows = experiments::e07_rack_pflops::rows();
    assert_eq!(rows[1].modules, 12);
    assert!(rows[1].peak_pflops > 1.0);
}

/// §4/Fig. 5: reverse return balances without valves; a failed loop's flow
/// redistributes evenly.
#[test]
fn claim_hydraulic_balancing() {
    let rows = experiments::e08_hydraulic_balance::rows_observed(Registry::disabled());
    let direct = &rows[0];
    let reverse = &rows[2];
    assert!(reverse.spread < direct.spread);
    assert!(reverse.spread < 1.10);
    let (_, after) =
        experiments::e08_hydraulic_balance::failure_series_observed(3, Registry::disabled());
    let survivors: Vec<f64> = after
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 3)
        .map(|(_, &q)| q)
        .collect();
    let spread = survivors.iter().cloned().fold(f64::MIN, f64::max)
        / survivors.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1.12, "survivor spread {spread}");
}

/// §4: the 45 mm UltraScale+ package forces dropping the CCB controller,
/// whose functions cost only "some percent" of one modern FPGA.
#[test]
fn claim_skat_plus_redesign() {
    let fractions = experiments::e09_skat_plus::controller_fraction_rows();
    let vu9p = fractions.iter().find(|(n, _)| n.contains("VU9P")).unwrap();
    assert!(vu9p.1 < 0.05, "controller fraction {}", vu9p.1);
}

/// §2/§3: paste washes out in oil, the SRC interface does not.
#[test]
fn claim_tim_washout() {
    let rows = experiments::e10_tim_washout::rows();
    let first = &rows[0];
    let last = rows.last().unwrap();
    assert!(last.paste_junction_c > first.paste_junction_c + 2.0);
    assert!((last.src_junction_c - first.src_junction_c).abs() < 0.1);
}

/// §3: the pin-fin turbulator beats a same-height plate-fin sink in oil.
#[test]
fn claim_pin_fin_sink() {
    let rows = experiments::e11_heatsink_design::rows();
    assert!(rows[2].resistance_k_per_w < rows[1].resistance_k_per_w);
    assert!(rows[2].resistance_k_per_w < rows[0].resistance_k_per_w / 5.0);
}

/// §2: immersion eliminates the conductive-leak and dew-point classes and
/// wins the availability comparison.
#[test]
fn claim_operational_reliability() {
    let rows = experiments::e12_reliability_mc::rows_observed(Registry::disabled());
    let plates = &rows[1];
    let immersion = &rows[2];
    assert!(immersion.availability > plates.availability);
    assert!(immersion.hardware_losses < 1e-9);
    assert!(plates.hardware_losses > 0.5);
}

/// The complete harness renders without panicking and yields every table.
#[test]
fn all_experiments_render() {
    let tables = experiments::run_all_observed(Registry::disabled());
    assert!(tables.len() >= 16, "got {} tables", tables.len());
    for t in &tables {
        assert!(!t.rows.is_empty(), "{} is empty", t.title);
        let _ = t.to_string();
    }
}
