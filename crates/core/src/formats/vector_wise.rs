//! Vector-wise storage: `V×1` column vectors inside groups of `V` consecutive rows.
//!
//! Vector-wise sparsity (Figure 3(c)) partitions the rows into groups of `V`
//! consecutive rows; inside each group a column is either kept for all `V` rows or
//! pruned for all of them. This is the storage the paper's Shfl-BW kernel operates on
//! *after* the offline row re-ordering (Figure 4, step (a)): values of one vector are
//! contiguous, so the kernel loads the sparse operand with fully-coalesced accesses.

use crate::error::{Error, Result};
use crate::matrix::DenseMatrix;
use std::fmt;

/// A vector-wise sparse matrix with vector length `V`.
///
/// Storage layout: for each row group `g` (of `V` consecutive rows) the kept column
/// indices are `col_idx[group_ptr[g]..group_ptr[g+1]]`; the values of the `j`-th kept
/// column of group `g` are the `V` consecutive entries starting at
/// `(group_ptr[g] + j) * V` — i.e. vectors are stored column-major inside a group, so
/// one vector is contiguous in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorWiseMatrix {
    rows: usize,
    cols: usize,
    v: usize,
    group_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl VectorWiseMatrix {
    /// Compresses a dense matrix into vector-wise form: inside each group of `V`
    /// consecutive rows, every column containing at least one non-zero is stored as a
    /// whole `V×1` vector (zeros inside a kept vector are stored explicitly, so the
    /// conversion is lossless for any input).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGroupSize`] if `v` is zero or does not divide the row
    /// count.
    pub fn from_dense(dense: &DenseMatrix, v: usize) -> Result<Self> {
        let (rows, cols) = dense.shape();
        if v == 0 || rows % v != 0 {
            return Err(Error::InvalidGroupSize {
                group: v,
                dimension: rows,
            });
        }
        let groups = rows / v;
        let mut group_ptr = Vec::with_capacity(groups + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        group_ptr.push(0);
        for g in 0..groups {
            for c in 0..cols {
                let any = (0..v).any(|r| dense.get(g * v + r, c) != 0.0);
                if any {
                    col_idx.push(c as u32);
                    for r in 0..v {
                        values.push(dense.get(g * v + r, c));
                    }
                }
            }
            group_ptr.push(col_idx.len());
        }
        Ok(VectorWiseMatrix {
            rows,
            cols,
            v,
            group_ptr,
            col_idx,
            values,
        })
    }

    /// Assembles a vector-wise matrix directly from its compressed parts,
    /// without materialising a dense intermediate. This is the constructor for
    /// callers that synthesise structured weights at scale (e.g. the model
    /// engine building layer weights in compressed form).
    ///
    /// `group_ptr` must have `rows / v + 1` monotonically non-decreasing
    /// entries starting at 0 and ending at `col_idx.len()`; inside each group
    /// the column indices must be strictly increasing and `< cols`; `values`
    /// holds `V` entries per stored vector (vector-major, exactly the layout
    /// [`VectorWiseMatrix::from_dense`] produces).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidGroupSize`] if `v` is zero or does not divide `rows`.
    /// * [`Error::ShapeMismatch`] if the metadata arrays are inconsistent.
    /// * [`Error::DimensionMismatch`] if `values.len() != col_idx.len() * v`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        v: usize,
        group_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if v == 0 || !rows.is_multiple_of(v) {
            return Err(Error::InvalidGroupSize {
                group: v,
                dimension: rows,
            });
        }
        let groups = rows / v;
        if group_ptr.len() != groups + 1
            || group_ptr.first() != Some(&0)
            || group_ptr.last() != Some(&col_idx.len())
        {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "group_ptr has {} entries ending at {:?}, expected {} ending at {}",
                    group_ptr.len(),
                    group_ptr.last(),
                    groups + 1,
                    col_idx.len()
                ),
            });
        }
        for g in 0..groups {
            let (start, end) = (group_ptr[g], group_ptr[g + 1]);
            if start > end || end > col_idx.len() {
                return Err(Error::ShapeMismatch {
                    context: format!("group {g} pointer range {start}..{end} is invalid"),
                });
            }
            let group_cols = &col_idx[start..end];
            if group_cols.iter().any(|c| *c as usize >= cols) {
                return Err(Error::ShapeMismatch {
                    context: format!("group {g} references a column >= {cols}"),
                });
            }
            if group_cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::ShapeMismatch {
                    context: format!("group {g} column indices are not strictly increasing"),
                });
            }
        }
        if values.len() != col_idx.len() * v {
            return Err(Error::DimensionMismatch {
                expected: col_idx.len() * v,
                actual: values.len(),
            });
        }
        Ok(VectorWiseMatrix {
            rows,
            cols,
            v,
            group_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Vector length `V`.
    pub fn vector_size(&self) -> usize {
        self.v
    }

    /// Number of row groups (`rows / V`).
    pub fn num_groups(&self) -> usize {
        self.rows / self.v
    }

    /// Total number of stored vectors across all groups.
    pub fn stored_vectors(&self) -> usize {
        self.col_idx.len()
    }

    /// Total number of stored values (`stored_vectors × V`).
    pub fn stored_values(&self) -> usize {
        self.values.len()
    }

    /// Fraction of the logical matrix that is stored.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.stored_values() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Group pointer array (length `num_groups + 1`), indexing into the column-index
    /// array.
    pub fn group_ptr(&self) -> &[usize] {
        &self.group_ptr
    }

    /// Column indices of all stored vectors.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// All stored values, vector-major across groups (the exact layout
    /// [`VectorWiseMatrix::from_parts`] consumes).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices kept by one row group.
    ///
    /// # Panics
    ///
    /// Panics if `group >= num_groups`.
    pub fn group_cols(&self, group: usize) -> &[u32] {
        assert!(group < self.num_groups(), "group index out of bounds");
        &self.col_idx[self.group_ptr[group]..self.group_ptr[group + 1]]
    }

    /// The `V` values of the `j`-th kept vector of `group` (ordered by row inside the
    /// group).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn vector_values(&self, group: usize, j: usize) -> &[f32] {
        let cols = self.group_cols(group);
        assert!(j < cols.len(), "vector index out of bounds");
        let offset = (self.group_ptr[group] + j) * self.v;
        &self.values[offset..offset + self.v]
    }

    /// Bytes of sparse metadata: group pointers and per-vector column indices as
    /// `u32`. The metadata per stored value is `V` times smaller than CSR's.
    pub fn metadata_bytes(&self) -> u64 {
        ((self.group_ptr.len() + self.col_idx.len()) * std::mem::size_of::<u32>()) as u64
    }

    /// Bytes of stored values assuming fp16 storage.
    pub fn value_bytes_fp16(&self) -> u64 {
        (self.values.len() * 2) as u64
    }

    /// Decompresses back to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for g in 0..self.num_groups() {
            for (j, c) in self.group_cols(g).iter().enumerate() {
                let vals = self.vector_values(g, j);
                for (r, value) in vals.iter().enumerate() {
                    out.set(g * self.v + r, *c as usize, *value);
                }
            }
        }
        out
    }
}

impl fmt::Display for VectorWiseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VectorWiseMatrix {}x{} (V={}, {} vectors, {:.1}% dense)",
            self.rows,
            self.cols,
            self.v,
            self.stored_vectors(),
            self.density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vector_wise_dense(groups: usize, v: usize, cols: usize, keep_every: usize) -> DenseMatrix {
        DenseMatrix::from_fn(groups * v, cols, |r, c| {
            if (c + (r / v)).is_multiple_of(keep_every) {
                (r * cols + c + 1) as f32
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_structured_matrix() {
        let dense = vector_wise_dense(4, 8, 32, 4);
        let vw = VectorWiseMatrix::from_dense(&dense, 8).unwrap();
        assert_eq!(vw.to_dense(), dense);
        assert_eq!(vw.num_groups(), 4);
        assert_eq!(vw.stored_vectors(), 4 * 8);
        assert!((vw.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_unstructured_matrix_is_lossless_but_denser() {
        // An unstructured matrix still round-trips; it just keeps more vectors.
        let mut rng = StdRng::seed_from_u64(3);
        let dense = DenseMatrix::from_fn(16, 24, |_, _| {
            if rng.gen_bool(0.1) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        assert_eq!(vw.to_dense(), dense);
        assert!(vw.density() >= dense.density());
    }

    #[test]
    fn rejects_bad_group_size() {
        let dense = DenseMatrix::zeros(10, 4);
        assert!(VectorWiseMatrix::from_dense(&dense, 4).is_err());
        assert!(VectorWiseMatrix::from_dense(&dense, 0).is_err());
    }

    #[test]
    fn group_accessors() {
        let dense = DenseMatrix::from_fn(4, 4, |r, c| {
            if c == 1 || (c == 3 && r >= 2) {
                1.0 + (r * 4 + c) as f32
            } else {
                0.0
            }
        });
        let vw = VectorWiseMatrix::from_dense(&dense, 2).unwrap();
        assert_eq!(vw.group_cols(0), &[1]);
        assert_eq!(vw.group_cols(1), &[1, 3]);
        assert_eq!(vw.vector_values(1, 1), &[12.0, 16.0]);
    }

    #[test]
    fn vectors_are_contiguous_in_storage() {
        // The whole point of the format: one vector's V values occupy consecutive
        // memory so the kernel's loads are coalesced.
        let dense = vector_wise_dense(2, 4, 8, 2);
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        let v0 = vw.vector_values(0, 0).to_vec();
        let expected: Vec<f32> = (0..4).map(|r| dense.get(r, 0)).collect();
        assert_eq!(v0, expected);
    }

    #[test]
    fn metadata_shrinks_with_vector_size() {
        let dense = vector_wise_dense(8, 8, 64, 4);
        let vw8 = VectorWiseMatrix::from_dense(&dense, 8).unwrap();
        let vw2 = VectorWiseMatrix::from_dense(&dense, 2).unwrap();
        assert!(vw8.metadata_bytes() < vw2.metadata_bytes());
    }

    #[test]
    fn empty_matrix() {
        let dense = DenseMatrix::zeros(8, 8);
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        assert_eq!(vw.stored_vectors(), 0);
        assert_eq!(vw.to_dense(), dense);
    }

    #[test]
    fn from_parts_roundtrips_through_from_dense() {
        let dense = vector_wise_dense(3, 4, 16, 3);
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        let rebuilt = VectorWiseMatrix::from_parts(
            vw.rows(),
            vw.cols(),
            vw.vector_size(),
            vw.group_ptr().to_vec(),
            vw.col_idx().to_vec(),
            vw.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, vw);
        assert_eq!(rebuilt.to_dense(), dense);
    }

    #[test]
    fn from_parts_rejects_inconsistent_metadata() {
        // Bad group size.
        assert!(VectorWiseMatrix::from_parts(6, 4, 4, vec![0, 0], vec![], vec![]).is_err());
        // group_ptr does not end at col_idx.len().
        assert!(VectorWiseMatrix::from_parts(4, 4, 4, vec![0, 2], vec![1], vec![0.0; 4]).is_err());
        // Column out of range.
        assert!(VectorWiseMatrix::from_parts(4, 4, 4, vec![0, 1], vec![7], vec![0.0; 4]).is_err());
        // Not strictly increasing inside a group.
        assert!(
            VectorWiseMatrix::from_parts(4, 4, 4, vec![0, 2], vec![2, 2], vec![0.0; 8]).is_err()
        );
        // Wrong value count.
        assert!(VectorWiseMatrix::from_parts(4, 4, 4, vec![0, 1], vec![1], vec![0.0; 3]).is_err());
        // A consistent assembly passes.
        assert!(
            VectorWiseMatrix::from_parts(4, 4, 4, vec![0, 2], vec![0, 3], vec![1.0; 8]).is_ok()
        );
    }
}
