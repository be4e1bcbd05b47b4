//! Host-speed normalisation for the timing metrics.
//!
//! Shared hosts change speed by 10–50% from minute to minute, which no
//! median over one run can hide. So every timed sample is preceded by one
//! run of a fixed calibration kernel that shares no code with the
//! repository, and each sample is scaled by `REFERENCE_S / kernel time`
//! before the median is taken. A long sample (a set-up) is timed in
//! pieces, each right after its own kernel run, and the scaled pieces are
//! summed. The result reads as seconds on a host that runs the kernel in
//! [`REFERENCE_S`]. A change to the repository's code cannot move the
//! kernel. Raw medians are kept and printed beside the scaled ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::median;

/// Kernel time that defines a unit-speed host: the typical kernel time on
/// the 2-core Xeon host the bounds in `BENCHMARK.json` were set on.
pub const REFERENCE_S: f64 = 0.030;

/// The calibration kernel and the time of its latest run.
pub struct Speed {
    dense: Vec<u8>,
    last: Option<f64>,
    runs: Vec<f64>,
}

impl Speed {
    /// Builds the kernel's 1 MiB input.
    #[must_use]
    pub fn new() -> Speed {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let dense = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Speed {
            dense,
            last: None,
            runs: Vec::new(),
        }
    }

    /// One kernel run: 16-lane byte dot products over a cache-resident
    /// buffer, a bounded heap with short-lived `Arc`s, and fresh 4 MiB
    /// buffers touched page by page — the SIMD arithmetic, branchy queue
    /// work, allocator traffic and page faults the simulator's hot loops
    /// and per-run chip set-up lean on. Returns a checksum.
    fn kernel(&self) -> u64 {
        const W: [i8; 16] = [3, -1, 4, -1, 5, -9, 2, 6, -5, 3, 5, -8, 9, 7, -9, 3];
        let mut acc = 0u64;
        for _ in 0..20 {
            for c in black_box(&self.dense).chunks_exact(16) {
                let s: i32 = c
                    .iter()
                    .zip(W)
                    .map(|(&a, w)| i32::from(a as i8) * i32::from(w))
                    .sum();
                acc = acc.wrapping_add(s as u64);
            }
        }
        let mut heap = BinaryHeap::new();
        let mut x = 12_345u64;
        for i in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(Reverse(x % 1000 + i));
            if heap.len() > 64 {
                acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
            }
            let word = Arc::new([x as u8; 48]);
            acc = acc.wrapping_add(u64::from(black_box(&word)[3]));
        }
        for _ in 0..24 {
            let mut fresh = vec![0u8; 4 << 20];
            for (i, page) in fresh.chunks_mut(4096).enumerate() {
                page[0] = i as u8;
            }
            acc = acc.wrapping_add(u64::from(black_box(&fresh)[4096]));
        }
        acc
    }

    /// Runs the kernel once and records its wall time.
    pub fn calibrate(&mut self) {
        let t = Instant::now();
        black_box(self.kernel());
        let s = t.elapsed().as_secs_f64();
        self.last = Some(s);
        self.runs.push(s);
    }

    /// Adds `raw` seconds, timed right after a [`Speed::calibrate`] call,
    /// to a sample being assembled piece by piece.
    ///
    /// # Panics
    ///
    /// If the kernel has not run yet (a bug in the benchmark).
    pub fn add(&self, sample: &mut Piece, raw: f64) {
        let kernel = self.last.expect("calibrate before the first sample");
        sample.raw += raw;
        sample.scaled += raw * REFERENCE_S / kernel;
    }

    /// Records a one-piece sample timed right after [`Speed::calibrate`].
    pub fn record(&self, samples: &mut Samples, raw: f64) {
        let mut sample = Piece::default();
        self.add(&mut sample, raw);
        samples.push(sample);
    }

    /// Median kernel time and the number of kernel runs.
    #[must_use]
    pub fn kernel_median(&self) -> (f64, usize) {
        (median(&self.runs), self.runs.len())
    }
}

/// One sample, raw and scaled, possibly summed from pieces that were
/// each timed right after their own kernel run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Piece {
    raw: f64,
    scaled: f64,
}

/// Timed samples, raw and scaled to reference speed.
#[derive(Debug, Default)]
pub struct Samples {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Samples {
    /// Appends one sample.
    pub fn push(&mut self, sample: Piece) {
        self.raw.push(sample.raw);
        self.scaled.push(sample.scaled);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Median of the scaled samples.
    #[must_use]
    pub fn median(&self) -> f64 {
        median(&self.scaled)
    }

    /// Median of the raw samples.
    #[must_use]
    pub fn raw_median(&self) -> f64 {
        median(&self.raw)
    }

    /// Sum of the scaled samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.scaled.iter().sum()
    }

    /// Sum of the raw samples.
    #[must_use]
    pub fn raw_sum(&self) -> f64 {
        self.raw.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(Speed::new().kernel(), Speed::new().kernel());
    }

    #[test]
    fn samples_scale_by_the_latest_kernel_time() {
        let mut s = Speed::new();
        s.calibrate();
        let kernel = s.kernel_median().0;
        let mut samples = Samples::default();
        s.record(&mut samples, 2.0);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples.raw_median(), 2.0);
        assert!((samples.median() - 2.0 * REFERENCE_S / kernel).abs() < 1e-12);
    }
}
