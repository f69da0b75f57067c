//! N-bucket math for the serving layer.
//!
//! [`BucketPolicy`] quantises activation widths onto a small set of
//! power-of-two buckets. The serving engine no longer executes on buckets: it
//! keeps one plan per layer version and sweeps every request at its exact
//! width, because the packed panels do not depend on the width. The engine's
//! policy decides two things only, both through its largest bucket: the
//! server's default coalescing cap (the widest group it packs), and the
//! width a weight update's candidate plan is probe-validated at.
//!
//! The rest of the bucket math — [`BucketPolicy::segments`], [`Segment`] and
//! [`BucketPolicy::padded_width`] — describes splitting a request into
//! power-of-two column segments. The kernels' multi-segment
//! `execute_segments` form and its tests use it; splitting and zero-padding
//! are **bit-exact**, because every output column of a GEMM/SpMM depends only
//! on its own activation column.
//!
//! ## Example
//!
//! ```
//! use shfl_core::bucket::BucketPolicy;
//!
//! let policy = BucketPolicy::new(8, 64).unwrap();
//! assert_eq!(policy.bucket_for(1), 8);    // clamped up to the smallest bucket
//! assert_eq!(policy.bucket_for(48), 64);  // next power of two
//! assert_eq!(policy.buckets().collect::<Vec<_>>(), vec![8, 16, 32, 64]);
//! // 150 columns split into 64 + 64 + a padded 32-bucket tail of width 22.
//! let segs = policy.segments(150);
//! assert_eq!(segs.len(), 3);
//! assert_eq!((segs[2].start, segs[2].width, segs[2].bucket), (128, 22, 32));
//! ```

use crate::error::{Error, Result};

/// One column segment of a bucketed request: columns
/// `start .. start + width` of the original operand, served on a plan built
/// for `bucket` columns (`width <= bucket`; the difference is zero padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First column of the segment in the original operand.
    pub start: usize,
    /// Number of real columns the segment carries.
    pub width: usize,
    /// The power-of-two plan bucket the segment executes on.
    pub bucket: usize,
}

impl Segment {
    /// Zero columns added by padding this segment to its bucket.
    pub fn padding(&self) -> usize {
        self.bucket - self.width
    }

    /// First column past the segment in the original operand.
    pub fn end(&self) -> usize {
        self.start + self.width
    }
}

/// The power-of-two N-bucket policy of a serving engine (see the module docs
/// for what it still decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketPolicy {
    /// Smallest bucket: requests narrower than this are padded up to it.
    min_bucket: usize,
    /// Largest bucket: requests wider than this are split into segments.
    max_bucket: usize,
}

impl BucketPolicy {
    /// Creates a policy with buckets `min, 2·min, …, max` (all powers of two).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if either bound is zero or not a power
    /// of two, or if `min > max`.
    pub fn new(min_bucket: usize, max_bucket: usize) -> Result<Self> {
        if min_bucket == 0
            || max_bucket == 0
            || !min_bucket.is_power_of_two()
            || !max_bucket.is_power_of_two()
            || min_bucket > max_bucket
        {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "bucket policy bounds must be powers of two with min <= max, \
                     got min={min_bucket} max={max_bucket}"
                ),
            });
        }
        Ok(BucketPolicy {
            min_bucket,
            max_bucket,
        })
    }

    /// The default serving policy: buckets 8 … 256.
    pub fn serving_default() -> Self {
        BucketPolicy {
            min_bucket: 8,
            max_bucket: 256,
        }
    }

    /// Smallest bucket of the policy.
    pub fn min_bucket(&self) -> usize {
        self.min_bucket
    }

    /// Largest bucket of the policy.
    pub fn max_bucket(&self) -> usize {
        self.max_bucket
    }

    /// The buckets of the policy in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = usize> {
        let (min, max) = (self.min_bucket, self.max_bucket);
        std::iter::successors(Some(min), move |b| Some(b * 2)).take_while(move |b| *b <= max)
    }

    /// Number of distinct buckets (the natural plan-cache capacity per layer).
    pub fn num_buckets(&self) -> usize {
        (self.max_bucket / self.min_bucket).trailing_zeros() as usize + 1
    }

    /// The bucket serving a single segment of width `n` (`1 <= n <=
    /// max_bucket`): the smallest power of two `>= n`, clamped up to the
    /// smallest bucket.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or wider than the largest bucket (wider requests
    /// must be split via [`BucketPolicy::segments`]).
    pub fn bucket_for(&self, n: usize) -> usize {
        assert!(n > 0, "cannot bucket an empty operand");
        assert!(
            n <= self.max_bucket,
            "width {n} exceeds the largest bucket {}; split it into segments",
            self.max_bucket
        );
        n.next_power_of_two().max(self.min_bucket)
    }

    /// Splits a request of `n` columns into bucketed column segments:
    /// full-width `max_bucket` segments while the remainder exceeds the
    /// largest bucket, then one final segment on the bucket fitting the tail.
    /// `n = 0` yields no segments.
    pub fn segments(&self, n: usize) -> Vec<Segment> {
        let mut segments = Vec::with_capacity(n / self.max_bucket + 1);
        let mut start = 0;
        while n - start > self.max_bucket {
            segments.push(Segment {
                start,
                width: self.max_bucket,
                bucket: self.max_bucket,
            });
            start += self.max_bucket;
        }
        if n > start {
            let width = n - start;
            segments.push(Segment {
                start,
                width,
                bucket: self.bucket_for(width),
            });
        }
        segments
    }

    /// Total padded width `n` columns occupy across their segments (the
    /// wasted-work metric of the policy: `padded_width(n) - n` zero columns
    /// are multiplied per request).
    pub fn padded_width(&self, n: usize) -> usize {
        self.segments(n).iter().map(|s| s.bucket).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_bounds() {
        assert!(BucketPolicy::new(0, 8).is_err());
        assert!(BucketPolicy::new(8, 0).is_err());
        assert!(BucketPolicy::new(6, 64).is_err());
        assert!(BucketPolicy::new(8, 48).is_err());
        assert!(BucketPolicy::new(64, 8).is_err());
        assert!(BucketPolicy::new(8, 8).is_ok());
    }

    #[test]
    fn bucket_for_rounds_up_to_powers_of_two() {
        let p = BucketPolicy::new(8, 128).unwrap();
        assert_eq!(p.bucket_for(1), 8);
        assert_eq!(p.bucket_for(8), 8);
        assert_eq!(p.bucket_for(9), 16);
        assert_eq!(p.bucket_for(100), 128);
        assert_eq!(p.bucket_for(128), 128);
    }

    #[test]
    #[should_panic(expected = "exceeds the largest bucket")]
    fn bucket_for_rejects_oversized_widths() {
        BucketPolicy::new(8, 64).unwrap().bucket_for(65);
    }

    #[test]
    fn segments_cover_the_width_exactly_once() {
        let p = BucketPolicy::new(8, 64).unwrap();
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 100, 128, 129, 500] {
            let segs = p.segments(n);
            let mut expected_start = 0;
            for s in &segs {
                assert_eq!(s.start, expected_start);
                assert!(s.width >= 1 && s.width <= s.bucket);
                assert!(s.bucket.is_power_of_two());
                assert!(s.bucket <= 64);
                expected_start += s.width;
            }
            assert_eq!(expected_start, n, "segments must tile n={n}");
            if n == 0 {
                assert!(segs.is_empty());
            }
        }
    }

    #[test]
    fn boundary_widths_pick_the_expected_buckets() {
        let p = BucketPolicy::new(8, 64).unwrap();
        // One past a bucket boundary doubles the bucket …
        assert_eq!(p.segments(17)[0].bucket, 32);
        // … and one past the largest bucket splits instead of doubling.
        let segs = p.segments(65);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].width, segs[0].bucket), (64, 64));
        assert_eq!((segs[1].width, segs[1].bucket), (1, 8));
        assert_eq!(segs[1].padding(), 7);
    }

    #[test]
    fn buckets_and_padded_width_are_consistent() {
        let p = BucketPolicy::new(16, 64).unwrap();
        assert_eq!(p.buckets().collect::<Vec<_>>(), vec![16, 32, 64]);
        assert_eq!(p.num_buckets(), 3);
        assert_eq!(p.padded_width(1), 16);
        assert_eq!(p.padded_width(64), 64);
        assert_eq!(p.padded_width(65), 64 + 16);
        assert_eq!(p.padded_width(0), 0);
        assert_eq!(BucketPolicy::serving_default().num_buckets(), 6);
    }
}
