//! Fixed-bucket histograms with exact merge.
//!
//! Buckets are defined by a static slice of strictly increasing
//! upper-inclusive bounds plus an implicit overflow bucket; two histograms
//! merge exactly iff their bounds are identical, which makes the per-node →
//! network-wide rollup lossless (unlike quantile sketches).

use std::fmt;

/// Attempted to merge histograms with different bucket bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    pub left: &'static [u64],
    pub right: &'static [u64],
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histogram bounds mismatch: {:?} vs {:?}",
            self.left, self.right
        )
    }
}

/// A fixed-bucket histogram over `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// `bounds` must be strictly increasing upper-inclusive bucket bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: vec![0; bounds.len()],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn observe(&mut self, v: u64) {
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Exact merge; fails if bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.bounds != other.bounds {
            return Err(MergeError {
                left: self.bounds,
                right: other.bounds,
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts, not including the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: &[u64] = &[10, 100, 1000];

    #[test]
    fn empty_merge_is_identity() {
        let mut a = Histogram::new(B);
        let b = Histogram::new(B);
        a.merge(&b).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.mean(), 0.0);

        // Empty merged into non-empty leaves it untouched.
        let mut c = Histogram::new(B);
        c.observe(5);
        let before = c.clone();
        c.merge(&Histogram::new(B)).unwrap();
        assert_eq!(c, before);
    }

    #[test]
    fn single_bucket_saturation() {
        let mut h = Histogram::new(&[7]);
        for _ in 0..1000 {
            h.observe(7); // upper bound is inclusive
        }
        assert_eq!(h.bucket_counts(), &[1000]);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
        h.observe(8);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn overflow_bucket_and_boundaries() {
        let mut h = Histogram::new(B);
        h.observe(0);
        h.observe(10); // inclusive: lands in bucket 0
        h.observe(11); // bucket 1
        h.observe(1000); // bucket 2
        h.observe(1001); // overflow
        h.observe(u64::MAX / 2); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn mismatched_bounds_refuse_to_merge() {
        let mut a = Histogram::new(B);
        let b = Histogram::new(&[10, 100]);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_equals_concat_fixed() {
        let xs = [1u64, 9, 10, 11, 500, 5000];
        let ys = [0u64, 100, 101, 999, 1000, 1001];
        let mut a = Histogram::new(B);
        let mut b = Histogram::new(B);
        let mut whole = Histogram::new(B);
        for &x in &xs {
            a.observe(x);
            whole.observe(x);
        }
        for &y in &ys {
            b.observe(y);
            whole.observe(y);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
    }
}
