//! Order statistics for the timed loops: nearest-rank percentiles and a
//! fixed-memory latency sample.

/// Nearest-rank percentile `p` (in whole percent, 1..=100) of ascending
/// `sorted`: the sample at 1-based rank `ceil(p·n/100)`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside 1..=100.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer arithmetic so that e.g. p90 of 100 samples is exactly rank 90.
fn rank(n: usize, p: u32) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    (p as usize * n).div_ceil(100)
}

/// How many samples lie beyond the nearest-rank percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// Median of `values` (mean of the two middle samples for even counts);
/// `0.0` for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Samples a tail percentile needs beyond it to be reported as such.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in fixed memory: once `cap` are kept, every other one
/// is dropped and only every second later operation is kept, and so on
/// (stride doubling). The kept samples stay an evenly spaced subsequence
/// of all operations, so their percentiles estimate the run's. The
/// buffer is touched in full up front, so the process's resident set
/// does not depend on how many operations a run makes.
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    /// An empty buffer keeping at most `cap` (≥ 2) samples.
    #[must_use]
    pub fn with_cap(cap: usize) -> Self {
        let cap = cap.max(2);
        let mut kept = vec![f64::NAN; cap];
        kept.clear();
        Self {
            kept,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers the next operation's sample.
    pub fn push(&mut self, x: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(x);
            }
        }
        self.seen += 1;
    }

    /// Sorts the kept samples in place (no allocation) and returns them.
    pub fn sorted(&mut self) -> &[f64] {
        self.kept.sort_by(f64::total_cmp);
        &self.kept
    }

    /// Operations offered.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_at_the_boundaries() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51), 2.0);
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_panics() {
        let _ = percentile(&[], 50);
    }

    #[test]
    fn sorted_samples_give_order_free_percentiles() {
        let mut s = Samples::with_cap(1000);
        for x in ramp(250).into_iter().rev() {
            s.push(x);
        }
        let sorted = s.sorted();
        assert_eq!(percentile(sorted, 90), 225.0);
        assert_eq!(beyond(sorted.len(), 90), 25);
    }

    #[test]
    fn median_even_odd_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_decimate_evenly_within_the_cap() {
        let mut s = Samples::with_cap(4);
        for i in 0..10 {
            s.push(f64::from(i));
        }
        // 0..4 kept, then stride 2 keeps 0 2 4 6, then stride 4: 0 4 8.
        assert_eq!(s.sorted(), &[0.0, 4.0, 8.0]);
        assert_eq!(s.seen(), 10);
        let mut s = Samples::with_cap(1000);
        for i in 0..100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.sorted().len(), 100);
    }
}
