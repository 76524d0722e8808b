//! Order statistics and a fixed-size latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Median of `values` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sub-buckets per power of two above [`LINEAR`].
const SUB: usize = 8;
/// Values below this land in exact one-nanosecond buckets.
const LINEAR: u64 = 32;
/// Octaves covered above [`LINEAR`] (up to 2^41 ns ≈ 37 min).
const OCTAVES: usize = 36;
/// Number of buckets of a [`Hist`].
pub const BUCKETS: usize = LINEAR as usize + OCTAVES * SUB;

fn bucket(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // ≥ 5
    let sub = ((v >> (e - 3)) as usize) & (SUB - 1);
    (LINEAR as usize + (e - 5) * SUB + sub).min(BUCKETS - 1)
}

fn bucket_floor(b: usize) -> u64 {
    if b < LINEAR as usize {
        return b as u64;
    }
    let e = (b - LINEAR as usize) / SUB + 5;
    let sub = ((b - LINEAR as usize) % SUB) as u64;
    (1u64 << e) + (sub << (e - 3))
}

/// A log-linear histogram of nanosecond durations: exact below 32 ns, then
/// eight buckets per octave (≤ 12.5 % relative resolution). Fixed size,
/// so per-call recording never allocates.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
        }
    }
}

impl Hist {
    /// Count one sample.
    pub fn add(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
    }

    /// Samples counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another histogram in.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The `q`-quantile as the midpoint of the bucket holding it.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = bucket_floor(b) as f64;
                let hi = if b + 1 < BUCKETS {
                    bucket_floor(b + 1) as f64
                } else {
                    lo
                };
                return (lo + hi) / 2.0;
            }
        }
        0.0
    }
}

/// A [`Hist`] written by one thread and read by another after a join:
/// the single writer uses plain relaxed load/store (no read-modify-write),
/// and the join orders every write before the reader's loads.
pub struct SharedHist {
    counts: Vec<AtomicU64>,
}

impl Default for SharedHist {
    fn default() -> SharedHist {
        SharedHist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl SharedHist {
    /// Count one sample (owner thread only).
    #[inline]
    pub fn add(&self, ns: u64) {
        let c = &self.counts[bucket(ns)];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Move the counts into `into` and zero them (after the owner joined
    /// or while it is parked).
    pub fn drain_into(&self, into: &mut Hist) {
        for (a, c) in into.counts.iter_mut().zip(&self.counts) {
            *a += c.swap(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in [0, 1, 31, 32, 33, 40, 63, 64, 100, 1_000, 123_456, 1 << 40] {
            let b = bucket(v);
            assert!(b >= last, "bucket order at {v}");
            assert!(bucket_floor(b) <= v, "floor of {v}");
            last = b;
        }
        let mut h = Hist::default();
        for v in 1..=100 {
            h.add(v);
        }
        assert_eq!(h.total(), 100);
        let p50 = h.quantile(0.5);
        assert!((46.0..=56.0).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) >= 96.0);
    }
}
