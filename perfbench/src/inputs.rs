//! Seeded input generation. The program receives only the spec strings
//! made here; the generator is the benchmark's own (SplitMix64), so a
//! change to the program's RNG cannot change the inputs.

use std::collections::BTreeSet;

/// Requests per query batch.
pub const BATCH: usize = 64;
/// Distinct design points in the `query_hot` working set.
pub const HOT_SET: usize = 48;
/// `query_hot` engine cache capacity: the hot set fits.
pub const HOT_CAPACITY: usize = 64;
/// `query_cold` engine cache capacity: below one batch, so every batch
/// inserts and evicts.
pub const COLD_CAPACITY: usize = 48;

const _: () = assert!(
    HOT_SET <= HOT_CAPACITY,
    "the hot set must fit the hot cache"
);
const _: () = assert!(
    COLD_CAPACITY < BATCH,
    "a cold batch must overflow the cache"
);

const FAMILIES: [&str; 4] = ["rigel2", "taygeta", "skat", "skat_plus"];
const COOLANTS: [&str; 2] = ["src_dielectric", "mineral_oil_md45"];
const BATHS: [&str; 2] = ["skat", "skat_plus"];
const TRIALS: [u32; 4] = [128, 256, 1024, 4096];
/// Utilization grid: 0.50..=1.00 in steps of 0.01.
const UTIL_STEPS: u64 = 51;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; bias below 2⁻³² here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One design point as the benchmark draws it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Point {
    family: usize,
    coolant: usize,
    bath: usize,
    util_pct: u64,
    trials: u32,
}

impl Point {
    fn draw(rng: &mut SplitMix64) -> Self {
        Self {
            family: rng.below(4) as usize,
            coolant: rng.below(2) as usize,
            bath: rng.below(2) as usize,
            util_pct: 50 + rng.below(UTIL_STEPS),
            trials: TRIALS[rng.below(4) as usize],
        }
    }

    /// The spec string for this point with Monte-Carlo seed `seed`.
    #[must_use]
    pub fn spec(&self, seed: u64) -> String {
        format!(
            "family={} coolant={} bath={} util={}.{:02} trials={} seed={seed}",
            FAMILIES[self.family],
            COOLANTS[self.coolant],
            BATHS[self.bath],
            self.util_pct / 100,
            self.util_pct % 100,
            self.trials,
        )
    }
}

/// Every point of the family × coolant × bath × utilization grid, at
/// the smallest trial count (the solve ladder does not depend on trials).
#[cfg(test)]
#[must_use]
pub fn grid() -> Vec<Point> {
    let mut out = Vec::new();
    for family in 0..4 {
        for coolant in 0..2 {
            for bath in 0..2 {
                for u in 0..UTIL_STEPS {
                    out.push(Point {
                        family,
                        coolant,
                        bath,
                        util_pct: 50 + u,
                        trials: TRIALS[0],
                    });
                }
            }
        }
    }
    out
}

/// A batch of specs with the MC trials each asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The spec strings, in request order.
    pub specs: Vec<String>,
    /// Σ trials over the batch (the exact `mc.trials` of a cold batch).
    pub trials: u64,
}

/// `query_cold` inputs: every spec of the run is distinct, because each
/// carries its own Monte-Carlo seed from a per-run counter.
#[derive(Debug, Clone)]
pub struct ColdGen {
    rng: SplitMix64,
    next_seed: u64,
}

impl ColdGen {
    /// The generator for benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC01D_C01D_C01D_C01D);
        // below 2^48, so the counter never wraps within a run
        let next_seed = rng.next_u64() >> 16;
        Self { rng, next_seed }
    }

    /// The next batch of [`BATCH`] fresh specs.
    pub fn batch(&mut self) -> Batch {
        let mut specs = Vec::with_capacity(BATCH);
        let mut trials = 0;
        for _ in 0..BATCH {
            let p = Point::draw(&mut self.rng);
            trials += u64::from(p.trials);
            specs.push(p.spec(self.next_seed));
            self.next_seed += 1;
        }
        Batch { specs, trials }
    }
}

/// `query_hot` inputs: a fixed working set of [`HOT_SET`] distinct
/// design points, and batches drawn from it Zipf-like (rank `k` with
/// weight `1/(k+1)`), so a few points dominate as on a dashboard.
#[derive(Debug, Clone)]
pub struct HotGen {
    rng: SplitMix64,
    set: Vec<String>,
    cdf: Vec<f64>,
}

impl HotGen {
    /// The generator for benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0407_0407_0407_0407);
        let mut seen = BTreeSet::new();
        let mut set = Vec::with_capacity(HOT_SET);
        while set.len() < HOT_SET {
            let p = Point::draw(&mut rng);
            if seen.insert(p) {
                set.push(p.spec(rng.below(1 << 32)));
            }
        }
        let weights: Vec<f64> = (0..HOT_SET).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { rng, set, cdf }
    }

    /// The working set, in rank order (rank 0 is the most requested).
    #[must_use]
    pub fn hot_set(&self) -> &[String] {
        &self.set
    }

    /// Index into the hot set of the next request.
    pub fn draw(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(HOT_SET - 1)
    }

    /// The next batch of [`BATCH`] requests, as hot-set indices.
    pub fn batch(&mut self) -> Vec<usize> {
        (0..BATCH).map(|_| self.draw()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_specs_other_seed_other_specs() {
        let (mut a, mut b, mut c) = (ColdGen::new(1), ColdGen::new(1), ColdGen::new(2));
        let (x, y, z) = (a.batch(), b.batch(), c.batch());
        assert_eq!(x, y);
        assert_ne!(x.specs, z.specs);
        assert_eq!(HotGen::new(5).hot_set(), HotGen::new(5).hot_set());
        assert_ne!(HotGen::new(5).hot_set(), HotGen::new(6).hot_set());
        assert_eq!(HotGen::new(5).batch(), HotGen::new(5).batch());
        assert_ne!(HotGen::new(5).batch(), HotGen::new(6).batch());
    }

    #[test]
    fn cold_specs_are_all_distinct_over_a_long_run() {
        let mut g = ColdGen::new(9);
        let mut seen = BTreeSet::new();
        for _ in 0..400 {
            for s in g.batch().specs {
                assert!(seen.insert(s.clone()), "repeated spec {s}");
            }
        }
    }

    #[test]
    fn hot_set_is_distinct() {
        let g = HotGen::new(3);
        let set: BTreeSet<_> = g.hot_set().iter().collect();
        assert_eq!(set.len(), HOT_SET);
    }

    #[test]
    fn zipf_draws_favour_low_ranks_and_stay_in_range() {
        let mut g = HotGen::new(11);
        let mut counts = [0u32; HOT_SET];
        for _ in 0..20_000 {
            counts[g.draw()] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[0] > 2 * counts[HOT_SET - 1]);
    }

    #[test]
    fn batch_trials_sum_matches_specs() {
        let b = ColdGen::new(4).batch();
        let sum: u64 = b
            .specs
            .iter()
            .map(|s| {
                let t = s
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix("trials="));
                t.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
            })
            .sum();
        assert_eq!(sum, b.trials);
        assert!(b
            .specs
            .iter()
            .all(|s| s.contains("util=0.") || s.contains("util=1.00")));
    }

    #[test]
    fn grid_covers_every_design_point_once() {
        let g = grid();
        assert_eq!(g.len(), 4 * 2 * 2 * 51);
        assert_eq!(g.iter().collect::<BTreeSet<_>>().len(), g.len());
    }
}
