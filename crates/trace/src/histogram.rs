//! Fixed-bucket latency histogram.
//!
//! Buckets are powers of two from 128 ns up to ~4.8 hours — fixed at
//! compile time so two histograms are always mergeable and the Prometheus
//! exposition never needs to negotiate boundaries. The histogram keeps
//! counts and a sum only; read percentiles off the exported `le` buckets,
//! and take exact order statistics from the raw samples where they exist.

/// Number of finite buckets; upper bound of bucket `i` is `2^(7+i)` ns.
pub const BUCKET_COUNT: usize = 38;

/// Upper bound (inclusive) of finite bucket `i`, in nanoseconds.
#[must_use]
pub fn bucket_upper_ns(i: usize) -> u64 {
    debug_assert!(i < BUCKET_COUNT);
    1u64 << (7 + i)
}

/// A fixed-bucket histogram of nanosecond observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_COUNT],
    /// Observations above the last finite bucket (`le="+Inf"` only).
    overflow: u64,
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKET_COUNT],
            overflow: 0,
            count: 0,
            sum_ns: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self
            .counts
            .iter_mut()
            .enumerate()
            .find(|(i, _)| ns <= bucket_upper_ns(*i))
        {
            Some((_, slot)) => *slot += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Fold `other` into `self` (bucket-wise; boundaries are fixed, so the
    /// merge is exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Cumulative count at each finite bucket boundary plus the overflow
    /// tally, in Prometheus `le` order (for exposition rendering).
    #[must_use]
    pub fn cumulative(&self) -> ([u64; BUCKET_COUNT], u64) {
        let mut cum = [0u64; BUCKET_COUNT];
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            cum[i] = acc;
        }
        (cum, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(samples_ns: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &ns in samples_ns {
            h.record(ns);
        }
        h
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.cumulative(), ([0; BUCKET_COUNT], 0));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let xs = [150u64, 90, 4_000, 77_000, 1 << 50];
        let ys = [300u64, 300, 128];
        let mut a = of(&xs);
        let b = of(&ys);
        a.merge(&b);
        let all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a, of(&all));
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn overflow_lands_past_the_last_bucket() {
        let mut h = Histogram::new();
        let huge = bucket_upper_ns(BUCKET_COUNT - 1) + 1;
        h.record(huge);
        let (cum, total) = h.cumulative();
        assert_eq!(cum[BUCKET_COUNT - 1], 0, "no finite bucket saw it");
        assert_eq!(total, 1);
        assert_eq!(h.sum_ns(), huge);
    }
}
