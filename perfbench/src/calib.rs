//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host the speed of one core drifts by 15–30% over seconds
//! and minutes as neighbours come and go, and every operation of a run
//! slows together: a 30 s run's median moves with the host, not with
//! the program. The benchmark therefore times a fixed kernel of its own
//! — sort, hash-map build and a dependent random walk over about
//! 0.5 MiB, the same mix of cache-bound work the program does —
//! between short slices of the timed loop, and rescales each slice's
//! wall times by [`REF_S`] / (mean of the kernel times on both sides of
//! it). A timing then reads as the wall time on the reference host at
//! its calm speed. The kernel is benchmark code: a change to the program
//! moves the operation times, never the kernel's.

use std::collections::HashMap;
use std::time::Instant;

use crate::host::threads_alive;

/// The kernel's typical time on the reference host (2 vCPUs of an Intel
/// Xeon, family 6 model 207), seconds.
pub const REF_S: f64 = 0.006;

/// Keys sorted per round (128 KiB) and the walk buffer's length.
const KEYS: usize = 1 << 14;
/// Rounds per kernel run.
const ROUNDS: usize = 12;

/// The calibration kernel's buffers and the times it measured.
#[derive(Debug)]
pub struct Calibrator {
    kernels: Vec<Kernel>,
    checksum: Option<u64>,
    baseline_threads: usize,
    /// Every calibration time measured, seconds.
    pub times: Vec<f64>,
    /// Runs during which the process had more threads alive than when
    /// the calibrator was made: such a run does not time the host alone.
    pub crowded: u64,
}

impl Calibrator {
    /// A calibrator for a workload on `threads` worker threads: it runs
    /// one kernel on each, at once, so that it sees the speed of every
    /// core the workload uses. Allocates and touches the buffers, so
    /// that no run pays for it.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            checksum: None,
            baseline_threads: threads_alive(),
            times: Vec::new(),
            crowded: 0,
        }
    }

    /// Runs the kernels once and returns their mean wall time, seconds.
    ///
    /// # Panics
    ///
    /// Panics if a kernel's result differs from the first one's.
    pub fn measure(&mut self) -> f64 {
        if threads_alive() > self.baseline_threads {
            self.crowded += 1;
        }
        let runs: Vec<(u64, f64)> = match self.kernels.as_mut_slice() {
            [one] => vec![one.timed()],
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many.iter_mut().map(|k| s.spawn(|| k.timed())).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration kernel panicked"))
                    .collect()
            }),
        };
        let first = *self.checksum.get_or_insert(runs[0].0);
        assert!(
            runs.iter().all(|&(sum, _)| sum == first),
            "calibration kernel result changed"
        );
        let secs = runs.iter().map(|&(_, secs)| secs).sum::<f64>() / runs.len() as f64;
        self.times.push(secs);
        secs
    }

    /// The factor that rescales wall times measured between calibration
    /// runs of `before` and `after` seconds to the reference host's speed.
    #[must_use]
    pub fn scale(before: f64, after: f64) -> f64 {
        2.0 * REF_S / (before + after)
    }
}

/// One thread's kernel buffers.
#[derive(Debug)]
struct Kernel {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    walk: Vec<f64>,
    map: HashMap<u64, u32>,
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self {
            keys,
            scratch: vec![0; KEYS],
            walk: vec![0.0; KEYS],
            map: HashMap::with_capacity(KEYS / 4),
        }
    }

    /// The kernel's result and wall time, seconds.
    fn timed(&mut self) -> (u64, f64) {
        let t = Instant::now();
        let sum = self.run();
        (sum, t.elapsed().as_secs_f64())
    }

    fn run(&mut self) -> u64 {
        let mut sum = 0u64;
        self.walk.fill(0.0);
        for round in 0..ROUNDS {
            self.scratch.copy_from_slice(&self.keys);
            let r = round as u32;
            self.scratch.iter_mut().for_each(|k| *k = k.rotate_left(r));
            self.scratch.sort_unstable();
            self.map.clear();
            for (i, k) in self.scratch.iter().enumerate().step_by(4) {
                self.map.insert(k >> 50, i as u32);
            }
            let mut j = round;
            for i in 0..KEYS {
                j = (j.wrapping_mul(1_103_515_245) + 12_345 + i) & (KEYS - 1);
                self.walk[i] = self.walk[i] * 0.5 + self.walk[j] * 0.25 + 1.0;
            }
            sum = sum
                .wrapping_mul(31)
                .wrapping_add(self.scratch[KEYS / 2] ^ self.map.len() as u64)
                .wrapping_add(self.walk[j].to_bits());
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_on_every_thread() {
        let mut k = Kernel::new();
        let first = k.run();
        assert_eq!(k.run(), first);
        for threads in [1, 2] {
            let mut c = Calibrator::new(threads);
            assert!(c.measure() > 0.0 && c.measure() > 0.0);
            assert_eq!(c.times.len(), 2);
        }
    }

    #[test]
    fn scale_is_the_reference_over_the_mean_of_both_sides() {
        assert!((Calibrator::scale(REF_S, REF_S) - 1.0).abs() < 1e-12);
        assert!((Calibrator::scale(REF_S, 3.0 * REF_S) - 0.5).abs() < 1e-12);
    }
}
