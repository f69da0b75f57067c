//! The Shfl-BW format: a vector-wise matrix plus the original row order.
//!
//! This is the paper's central data structure (Figure 4, step (a)): a Shfl-BW sparse
//! weight matrix is stored as
//!
//! 1. a row permutation that groups rows with identical column patterns into groups of
//!    `V` (the *offline processing* step), and
//! 2. a [`VectorWiseMatrix`] holding the permuted matrix, so that each stored vector is
//!    contiguous in memory and can be loaded with coalesced accesses,
//! 3. the array of original row indices (`row_indices`), which the kernel reads during
//!    the *reordered write-back* phase (Figure 4, step (e)) to place each output row at
//!    its original position.
//!
//! The execution-time transformation "Shfl-BW → vector-wise → block-wise" that the
//! paper describes is therefore: the permutation is applied once offline here, and the
//! in-buffer column stitching in the kernel turns the vector-wise groups into dense
//! tiles.

use crate::error::{Error, Result};
use crate::formats::vector_wise::VectorWiseMatrix;
use crate::mask::BinaryMask;
use crate::matrix::DenseMatrix;
use crate::pattern::shfl_bw_grouping_permutation;
use std::fmt;

/// A Shfl-BW sparse matrix: vector-wise storage in shuffled row order plus the
/// original row indices for the reordered write-back.
#[derive(Debug, Clone, PartialEq)]
pub struct ShflBwMatrix {
    /// Vector-wise storage of the row-permuted matrix.
    inner: VectorWiseMatrix,
    /// `row_indices[permuted_row] = original_row`: where each stored row must be
    /// written back in the output.
    row_indices: Vec<u32>,
}

impl ShflBwMatrix {
    /// Compresses a dense matrix whose non-zero structure satisfies the Shfl-BW
    /// pattern for vector length `v`, discovering the grouping permutation
    /// automatically.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidGroupSize`] if `v` is zero or does not divide the row count.
    /// * [`Error::PatternViolation`] if no row permutation makes the non-zero
    ///   structure vector-wise (i.e. the matrix is not Shfl-BW for this `v`).
    pub fn from_dense(dense: &DenseMatrix, v: usize) -> Result<Self> {
        let (rows, _) = dense.shape();
        if v == 0 || rows % v != 0 {
            return Err(Error::InvalidGroupSize {
                group: v,
                dimension: rows,
            });
        }
        let mask = BinaryMask::from_nonzeros(dense);
        let perm =
            shfl_bw_grouping_permutation(&mask, v).ok_or_else(|| Error::PatternViolation {
                context: format!("matrix is not Shfl-BW for V={v}: no grouping permutation exists"),
            })?;
        Self::from_dense_with_permutation(dense, &perm, v)
    }

    /// Compresses a dense matrix using a caller-provided row permutation (typically
    /// produced by the pruning search in `shfl-pruning`). Output row `i` of the
    /// internal storage holds original row `permutation[i]`.
    ///
    /// The conversion is lossless for any permutation: columns that are only partially
    /// populated inside a group are stored as full vectors with explicit zeros.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidGroupSize`] if `v` is zero or does not divide the row count.
    /// * [`Error::InvalidPermutation`] if `permutation` is not a permutation of
    ///   `0..rows`.
    pub fn from_dense_with_permutation(
        dense: &DenseMatrix,
        permutation: &[usize],
        v: usize,
    ) -> Result<Self> {
        let (rows, _) = dense.shape();
        if v == 0 || rows % v != 0 {
            return Err(Error::InvalidGroupSize {
                group: v,
                dimension: rows,
            });
        }
        let permuted = dense.permuted_rows(permutation)?;
        let inner = VectorWiseMatrix::from_dense(&permuted, v)?;
        let row_indices = permutation.iter().map(|p| *p as u32).collect();
        Ok(ShflBwMatrix { inner, row_indices })
    }

    /// Wraps an already-built vector-wise storage with the original row order,
    /// without materialising the dense matrix. `row_indices[permuted_row]`
    /// gives the original row each stored row is written back to.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPermutation`] if `row_indices` is not a
    /// permutation of `0..inner.rows()`.
    pub fn from_vector_wise(inner: VectorWiseMatrix, row_indices: Vec<u32>) -> Result<Self> {
        let as_usize: Vec<usize> = row_indices.iter().map(|r| *r as usize).collect();
        crate::matrix::validate_permutation(&as_usize, inner.rows())?;
        Ok(ShflBwMatrix { inner, row_indices })
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.inner.cols()
    }

    /// Vector length `V`.
    pub fn vector_size(&self) -> usize {
        self.inner.vector_size()
    }

    /// Number of shuffled row groups.
    pub fn num_groups(&self) -> usize {
        self.inner.num_groups()
    }

    /// Number of stored vectors.
    pub fn stored_vectors(&self) -> usize {
        self.inner.stored_vectors()
    }

    /// Number of stored values.
    pub fn stored_values(&self) -> usize {
        self.inner.stored_values()
    }

    /// Fraction of the logical matrix that is stored.
    pub fn density(&self) -> f64 {
        self.inner.density()
    }

    /// The vector-wise storage of the permuted matrix (what the kernel main loop
    /// consumes).
    pub fn vector_wise(&self) -> &VectorWiseMatrix {
        &self.inner
    }

    /// Original row index of each stored (permuted) row — the array consumed by the
    /// kernel's reordered write-back phase.
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Whether `other` is a *same-pattern magnitude update* of this matrix:
    /// identical vector size, shape, group boundaries, kept columns, and row
    /// permutation — only the stored values may differ.
    ///
    /// This is the gate for the delta re-pack path of live weight updates:
    /// when the pattern is unchanged, a prepared plan's panel layout is still
    /// valid and only the payload bytes need rewriting
    /// ([`crate::packed::PackedPanels::repack`]).
    pub fn same_pattern(&self, other: &ShflBwMatrix) -> bool {
        self.vector_size() == other.vector_size()
            && self.rows() == other.rows()
            && self.cols() == other.cols()
            && self.inner.group_ptr() == other.inner.group_ptr()
            && self.inner.col_idx() == other.inner.col_idx()
            && self.row_indices == other.row_indices
    }

    /// Bytes of sparse metadata: the vector-wise metadata plus the row-index array
    /// (`u32` per row) needed for the reordered write-back.
    pub fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes() + (self.row_indices.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Bytes of stored values assuming fp16 storage.
    pub fn value_bytes_fp16(&self) -> u64 {
        self.inner.value_bytes_fp16()
    }

    /// Decompresses back to a dense matrix in the *original* row order.
    pub fn to_dense(&self) -> DenseMatrix {
        let permuted = self.inner.to_dense();
        let mut out = DenseMatrix::zeros(self.rows(), self.cols());
        for (stored_row, original_row) in self.row_indices.iter().enumerate() {
            out.row_mut(*original_row as usize)
                .copy_from_slice(permuted.row(stored_row));
        }
        out
    }
}

impl fmt::Display for ShflBwMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShflBwMatrix {}x{} (V={}, {} vectors, {:.1}% dense)",
            self.rows(),
            self.cols(),
            self.vector_size(),
            self.stored_vectors(),
            self.density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 3(b)-style matrix: rows with identical patterns scattered
    /// through the matrix (rows 0/2 share a pattern, rows 1/3 share another).
    fn scattered_dense() -> DenseMatrix {
        DenseMatrix::from_fn(4, 6, |r, c| {
            let keep = if r % 2 == 0 {
                c == 0 || c == 3
            } else {
                c == 1 || c == 5
            };
            if keep {
                (r * 6 + c + 1) as f32
            } else {
                0.0
            }
        })
    }

    #[test]
    fn from_dense_discovers_permutation_and_roundtrips() {
        let dense = scattered_dense();
        let shfl = ShflBwMatrix::from_dense(&dense, 2).unwrap();
        assert_eq!(shfl.to_dense(), dense);
        assert_eq!(shfl.num_groups(), 2);
        // Each group stores 2 column vectors.
        assert_eq!(shfl.stored_vectors(), 4);
    }

    #[test]
    fn from_dense_rejects_non_shfl_bw_structure() {
        // Three distinct row patterns cannot be grouped in pairs.
        let dense = DenseMatrix::from_fn(4, 4, |r, c| if c == r { 1.0 } else { 0.0 });
        let err = ShflBwMatrix::from_dense(&dense, 2).unwrap_err();
        assert!(matches!(err, Error::PatternViolation { .. }));
    }

    #[test]
    fn from_dense_with_permutation_roundtrips_any_matrix() {
        // With an explicit permutation the conversion is lossless even when the
        // structure is not perfectly vector-wise after shuffling.
        let dense = DenseMatrix::from_fn(6, 5, |r, c| ((r * 5 + c) % 3) as f32);
        let perm = vec![4, 2, 0, 5, 1, 3];
        let shfl = ShflBwMatrix::from_dense_with_permutation(&dense, &perm, 3).unwrap();
        assert_eq!(shfl.to_dense(), dense);
        assert_eq!(shfl.row_indices(), &[4, 2, 0, 5, 1, 3]);
    }

    #[test]
    fn rejects_bad_group_size_and_permutation() {
        let dense = DenseMatrix::zeros(6, 4);
        assert!(ShflBwMatrix::from_dense(&dense, 4).is_err());
        assert!(ShflBwMatrix::from_dense(&dense, 0).is_err());
        let bad_perm = vec![0, 0, 1, 2, 3, 4];
        assert!(ShflBwMatrix::from_dense_with_permutation(&dense, &bad_perm, 3).is_err());
    }

    #[test]
    fn group_row_indices_expose_the_shuffle() {
        let dense = scattered_dense();
        let shfl = ShflBwMatrix::from_dense(&dense, 2).unwrap();
        // Stored rows 0..2 are group 0 and 2..4 group 1.
        let (g0, g1) = shfl.row_indices().split_at(2);
        // Groups must contain {0, 2} and {1, 3} in some order.
        let mut all: Vec<u32> = g0.iter().chain(g1).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(g0[0] % 2, g0[1] % 2, "group 0 mixes the two patterns");
    }

    #[test]
    fn metadata_includes_row_indices() {
        let dense = scattered_dense();
        let shfl = ShflBwMatrix::from_dense(&dense, 2).unwrap();
        let vw_meta = shfl.vector_wise().metadata_bytes();
        assert_eq!(shfl.metadata_bytes(), vw_meta + 4 * 4);
    }

    #[test]
    fn from_vector_wise_wraps_storage_without_densifying() {
        let dense = scattered_dense();
        let via_dense = ShflBwMatrix::from_dense(&dense, 2).unwrap();
        let rebuilt = ShflBwMatrix::from_vector_wise(
            via_dense.vector_wise().clone(),
            via_dense.row_indices().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, via_dense);
        assert_eq!(rebuilt.to_dense(), dense);
        // Rejects a non-permutation.
        let bad = ShflBwMatrix::from_vector_wise(via_dense.vector_wise().clone(), vec![0, 0, 1, 2]);
        assert!(bad.is_err());
    }

    #[test]
    fn same_pattern_accepts_magnitude_updates_and_rejects_structure_changes() {
        let dense = scattered_dense();
        let a = ShflBwMatrix::from_dense(&dense, 2).unwrap();
        // Magnitude-only update: scale every kept value.
        let scaled = DenseMatrix::from_fn(4, 6, |r, c| dense.get(r, c) * 3.0);
        let b = ShflBwMatrix::from_dense(&scaled, 2).unwrap();
        assert!(a.same_pattern(&b));
        assert!(b.same_pattern(&a));
        assert!(a.same_pattern(&a));
        // Different kept columns: even rows keep {0, 4} instead of {0, 3}.
        let moved = DenseMatrix::from_fn(4, 6, |r, c| {
            let keep = if r % 2 == 0 {
                c == 0 || c == 4
            } else {
                c == 1 || c == 5
            };
            if keep {
                1.0
            } else {
                0.0
            }
        });
        let c = ShflBwMatrix::from_dense(&moved, 2).unwrap();
        assert!(!a.same_pattern(&c));
    }

    #[test]
    fn identity_permutation_equals_vector_wise_storage() {
        let dense = DenseMatrix::from_fn(
            4,
            4,
            |r, c| {
                if c % 2 == 0 {
                    (r + c + 1) as f32
                } else {
                    0.0
                }
            },
        );
        let perm: Vec<usize> = (0..4).collect();
        let shfl = ShflBwMatrix::from_dense_with_permutation(&dense, &perm, 2).unwrap();
        let vw = VectorWiseMatrix::from_dense(&dense, 2).unwrap();
        assert_eq!(shfl.vector_wise(), &vw);
        assert_eq!(shfl.to_dense(), dense);
    }
}
