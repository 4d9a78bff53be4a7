//! Coolant selection criteria from §2 of the paper.
//!
//! "The main problem of open-loop liquid cooling systems is the chemical
//! composition of the used heat-transfer liquid which must fulfil strict
//! requirements of heat transfer capacity, electrical conduction, viscosity,
//! toxicity, fire safety, stability of the main parameters and reasonable
//! cost." This module turns that sentence into a weighted scoring model so
//! candidate coolants can be ranked reproducibly.

use rcs_units::Celsius;

use crate::coolant::Coolant;

/// Weights for the §2 coolant requirements. All weights are non-negative;
/// they need not sum to one (scores are normalized by the weight sum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolantCriteria {
    /// Reference temperature at which thermophysical merit is evaluated.
    pub evaluation_temperature: Celsius,
    /// Hard requirement: electronics are immersed directly in the coolant,
    /// so electrically conductive fluids are disqualified outright rather
    /// than merely penalized (§2's "strict requirements ... electrical
    /// conduction").
    pub require_immersion_grade: bool,
    /// Weight of dielectric strength (electrical conduction requirement).
    pub dielectric: f64,
    /// Weight of volumetric heat capacity (heat transfer capacity).
    pub heat_capacity: f64,
    /// Weight of thermal conductivity.
    pub conductivity: f64,
    /// Weight of (low) viscosity.
    pub low_viscosity: f64,
    /// Weight of fire safety (high flash point or non-combustible).
    pub fire_safety: f64,
    /// Weight of (low) toxicity.
    pub low_toxicity: f64,
    /// Weight of parameter stability over long maintenance periods.
    pub stability: f64,
    /// Weight of (low) cost.
    pub low_cost: f64,
}

impl CoolantCriteria {
    /// The paper's immersion-bath priorities: dielectric strength first
    /// (electronics are submerged), then heat transport, then viscosity
    /// (pumping), with cost a real but secondary concern (§2 criticizes the
    /// IMMERS coolant's single-vendor cost).
    #[must_use]
    pub fn immersion_default() -> Self {
        Self {
            evaluation_temperature: Celsius::new(40.0),
            require_immersion_grade: true,
            dielectric: 3.0,
            heat_capacity: 2.0,
            conductivity: 2.0,
            low_viscosity: 1.5,
            fire_safety: 1.5,
            low_toxicity: 1.0,
            stability: 1.5,
            low_cost: 1.0,
        }
    }

    fn weight_sum(&self) -> f64 {
        self.dielectric
            + self.heat_capacity
            + self.conductivity
            + self.low_viscosity
            + self.fire_safety
            + self.low_toxicity
            + self.stability
            + self.low_cost
    }
}

/// Per-criterion sub-scores (each in `[0, 1]`) and the weighted total.
#[derive(Debug, Clone, PartialEq)]
pub struct CoolantScore {
    /// Name of the scored coolant.
    pub coolant: String,
    /// Dielectric-strength sub-score.
    pub dielectric: f64,
    /// Volumetric-heat-capacity sub-score.
    pub heat_capacity: f64,
    /// Thermal-conductivity sub-score.
    pub conductivity: f64,
    /// Low-viscosity sub-score.
    pub low_viscosity: f64,
    /// Fire-safety sub-score.
    pub fire_safety: f64,
    /// Low-toxicity sub-score.
    pub low_toxicity: f64,
    /// Stability sub-score.
    pub stability: f64,
    /// Low-cost sub-score.
    pub low_cost: f64,
    /// `true` if the coolant fails a hard requirement of the criteria
    /// (currently: not immersion grade while immersion grade is required).
    /// Disqualified coolants rank after every qualified one regardless of
    /// their weighted total.
    pub disqualified: bool,
    /// Weighted total in `[0, 1]`.
    pub total: f64,
}

/// Saturating "bigger is better" normalization against a reference scale.
fn merit(value: f64, scale: f64) -> f64 {
    (value / scale).clamp(0.0, 1.0)
}

/// Saturating "smaller is better" normalization against a reference scale.
fn demerit(value: f64, scale: f64) -> f64 {
    (1.0 - value / scale).clamp(0.0, 1.0)
}

/// Scores one coolant against the criteria.
///
/// Sub-scores are normalized against engineering reference scales:
/// 20 kV/mm dielectric strength, water's volumetric heat capacity and
/// conductivity, 20 mPa·s viscosity, 250 °C flash point, cost 20x water.
///
/// # Examples
///
/// ```
/// use rcs_fluids::{selection, Coolant};
/// let c = selection::score(&Coolant::src_dielectric(),
///                          &selection::CoolantCriteria::immersion_default());
/// assert!(c.total > 0.5);
/// ```
#[must_use]
pub fn score(coolant: &Coolant, criteria: &CoolantCriteria) -> CoolantScore {
    let s = coolant.state(criteria.evaluation_temperature);
    let safety = coolant.safety();
    let water = Coolant::water();
    let w = water.state(criteria.evaluation_temperature);

    let dielectric = merit(safety.dielectric_strength_kv_per_mm, 20.0);
    let heat_capacity = merit(
        s.volumetric_heat_capacity().joules_per_cubic_meter_kelvin(),
        w.volumetric_heat_capacity().joules_per_cubic_meter_kelvin(),
    );
    let conductivity = merit(
        s.conductivity.watts_per_meter_kelvin(),
        w.conductivity.watts_per_meter_kelvin(),
    );
    let low_viscosity = demerit(s.viscosity.pascal_seconds(), 20.0e-3);
    let fire_safety = match safety.flash_point {
        None => 1.0,
        Some(fp) => merit(fp.degrees(), 250.0),
    };
    let low_toxicity = demerit(safety.toxicity, 1.0);
    let stability = merit(safety.stability, 1.0);
    let low_cost = demerit(safety.relative_cost, 20.0);

    let total = (criteria.dielectric * dielectric
        + criteria.heat_capacity * heat_capacity
        + criteria.conductivity * conductivity
        + criteria.low_viscosity * low_viscosity
        + criteria.fire_safety * fire_safety
        + criteria.low_toxicity * low_toxicity
        + criteria.stability * stability
        + criteria.low_cost * low_cost)
        / criteria.weight_sum();

    CoolantScore {
        coolant: coolant.name().to_owned(),
        disqualified: criteria.require_immersion_grade && !coolant.is_immersion_grade(),
        dielectric,
        heat_capacity,
        conductivity,
        low_viscosity,
        fire_safety,
        low_toxicity,
        stability,
        low_cost,
        total,
    }
}

/// Ranks candidate coolants by descending total score.
///
/// # Examples
///
/// ```
/// use rcs_fluids::{selection, Coolant};
/// let ranked = selection::rank(
///     &[Coolant::water(), Coolant::src_dielectric()],
///     &selection::CoolantCriteria::immersion_default(),
/// );
/// assert_eq!(ranked[0].coolant, "SRC dielectric coolant");
/// ```
#[must_use]
pub fn rank(candidates: &[Coolant], criteria: &CoolantCriteria) -> Vec<CoolantScore> {
    let mut scores: Vec<CoolantScore> = candidates.iter().map(|c| score(c, criteria)).collect();
    // `total_cmp` keeps the ordering total when a score is NaN (e.g. a
    // degenerate all-zero-weight criteria set): NaN-scored candidates
    // sort after every real score instead of scrambling the ranking.
    scores.sort_by(|a, b| {
        a.disqualified
            .cmp(&b.disqualified)
            .then(a.total.is_nan().cmp(&b.total.is_nan()))
            .then(b.total.total_cmp(&a.total))
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_coolants() -> Vec<Coolant> {
        vec![
            Coolant::air(),
            Coolant::water(),
            Coolant::glycol30(),
            Coolant::mineral_oil_md45(),
            Coolant::src_dielectric(),
        ]
    }

    #[test]
    fn immersion_criteria_prefer_dielectric_oils() {
        let ranked = rank(&all_coolants(), &CoolantCriteria::immersion_default());
        assert_eq!(ranked[0].coolant, "SRC dielectric coolant");
        // Both oils must beat water for immersion: submersion of electronics
        // in a conductive fluid is disqualifying in practice.
        let water_pos = ranked.iter().position(|s| s.coolant == "water").unwrap();
        let oil_pos = ranked
            .iter()
            .position(|s| s.coolant == "mineral oil MD-4.5")
            .unwrap();
        assert!(oil_pos < water_pos);
        assert!(ranked[water_pos].disqualified);
        assert!(!ranked[oil_pos].disqualified);
    }

    #[test]
    fn air_scores_worst_on_heat_capacity() {
        let c = CoolantCriteria::immersion_default();
        let air = score(&Coolant::air(), &c);
        assert!(air.heat_capacity < 0.01);
    }

    #[test]
    fn subscores_bounded() {
        let c = CoolantCriteria::immersion_default();
        for coolant in all_coolants() {
            let s = score(&coolant, &c);
            for v in [
                s.dielectric,
                s.heat_capacity,
                s.conductivity,
                s.low_viscosity,
                s.fire_safety,
                s.low_toxicity,
                s.stability,
                s.low_cost,
                s.total,
            ] {
                assert!((0.0..=1.0).contains(&v), "{coolant}: {v}");
            }
        }
    }

    #[test]
    fn src_dielectric_beats_md45_under_immersion_criteria() {
        let c = CoolantCriteria::immersion_default();
        assert!(
            score(&Coolant::src_dielectric(), &c).total
                > score(&Coolant::mineral_oil_md45(), &c).total
        );
    }

    #[test]
    fn poisoned_totals_still_rank_deterministically() {
        // An all-zero-weight criteria set divides by a zero weight sum,
        // so every total is NaN. The ranking must remain a total order:
        // disqualification still decides the tiers, NaN totals compare
        // equal to each other, and two runs agree element for element.
        let mut criteria = CoolantCriteria::immersion_default();
        criteria.dielectric = 0.0;
        criteria.heat_capacity = 0.0;
        criteria.conductivity = 0.0;
        criteria.low_viscosity = 0.0;
        criteria.fire_safety = 0.0;
        criteria.low_toxicity = 0.0;
        criteria.stability = 0.0;
        criteria.low_cost = 0.0;
        let ranked = rank(&all_coolants(), &criteria);
        assert!(ranked.iter().all(|s| s.total.is_nan()));
        let first_dq = ranked.iter().position(|s| s.disqualified).unwrap();
        assert!(ranked[..first_dq].iter().all(|s| !s.disqualified));
        assert!(ranked[first_dq..].iter().all(|s| s.disqualified));
        let names: Vec<&str> = ranked.iter().map(|s| s.coolant.as_str()).collect();
        let again: Vec<String> = rank(&all_coolants(), &criteria)
            .into_iter()
            .map(|s| s.coolant)
            .collect();
        assert_eq!(names, again, "poisoned ranking must be reproducible");
    }
}
