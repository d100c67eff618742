//! Log-linear latency histogram: 128 buckets per power of two, so a
//! bucket spans at most 1/128 (0.8 %) of its values. Fixed size, so a
//! window's memory does not grow with the number of calls it completes.

/// Buckets per power of two, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values from 2^40 ns (18 minutes) up share the last bucket.
const MAX_BIT: u32 = 39;
const BUCKETS: usize = (MAX_BIT - SUB_BITS + 2) as usize * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = (63 - v.leading_zeros()).min(MAX_BIT);
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize).min(2 * SUB - 1) - SUB;
    (shift as usize + 1) * SUB + sub
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let shift = (i / SUB - 1) as u32;
    let sub = (i % SUB + SUB) as u64;
    (sub << shift, (sub + 1) << shift)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile, placed within its bucket by rank (samples
    /// taken as evenly spread over the bucket); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            let n = u64::from(n);
            if seen + n >= rank {
                let (lo, hi) = bounds(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / n as f64;
            }
            seen += n;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect_lo = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert!(hi > lo);
            assert_eq!(index(lo), i);
            assert_eq!(index(hi - 1), i);
            expect_lo = hi;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        let samples: Vec<u64> = (1..=10_000u64).map(|i| i * 37 % 100_003 + 1_000).collect();
        samples.iter().for_each(|&v| h.record(v));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.99] {
            let exact = sorted[(q * sorted.len() as f64).ceil() as usize - 1] as f64;
            assert!((h.quantile(q) - exact).abs() <= exact / SUB as f64, "q {q}");
        }
    }
}
