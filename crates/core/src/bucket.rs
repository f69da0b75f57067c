//! The serving layer's N-bucket bounds.
//!
//! [`BucketPolicy`] holds two power-of-two activation widths, the smallest
//! and the largest bucket. The serving engine does not execute on buckets: it
//! keeps one plan per layer version and sweeps every request at its exact
//! width, because the packed panels do not depend on the width. The largest
//! bucket decides two things only: the server's default coalescing cap (the
//! widest group it packs), and the width a weight update's candidate plan is
//! probe-validated at.
//!
//! ## Example
//!
//! ```
//! use shfl_core::bucket::BucketPolicy;
//!
//! let policy = BucketPolicy::new(8, 256).unwrap();
//! assert_eq!((policy.min_bucket(), policy.max_bucket()), (8, 256));
//! assert!(BucketPolicy::new(8, 100).is_err()); // not a power of two
//! ```

use crate::error::{Error, Result};

/// The power-of-two N-bucket policy of a serving engine (see the module docs
/// for what it still decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketPolicy {
    /// Smallest bucket.
    min_bucket: usize,
    /// Largest bucket: the default coalescing cap and the update probe width.
    max_bucket: usize,
}

impl BucketPolicy {
    /// Creates a policy with the given smallest and largest bucket.
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

    /// Smallest bucket of the policy.
    pub fn min_bucket(&self) -> usize {
        self.min_bucket
    }

    /// Largest bucket of the policy.
    pub fn max_bucket(&self) -> usize {
        self.max_bucket
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
}
