//! Dense row-major matrices.
//!
//! [`DenseMatrix`] is the reference representation every sparse format in this crate
//! converts to and from, the operand type of the simulated kernels in `shfl-kernels`,
//! and the weight container the pruning algorithms in `shfl-pruning` operate on.

use crate::error::{Error, Result};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use std::fmt;

/// A dense, row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix with elements drawn uniformly from `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Self {
        let dist = Uniform::new(-1.0f32, 1.0f32);
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrow of `num_rows` consecutive rows starting at `start_row` as one
    /// contiguous row-major slice (`num_rows * cols` elements).
    ///
    /// This is the accessor the blocked kernels stage whole row-tiles with:
    /// one bounds check per tile instead of one per element.
    ///
    /// # Panics
    ///
    /// Panics if `start_row + num_rows > rows`.
    #[inline]
    pub fn rows_chunk(&self, start_row: usize, num_rows: usize) -> &[f32] {
        assert!(
            start_row + num_rows <= self.rows,
            "row chunk {start_row}..{} out of bounds for {} rows",
            start_row + num_rows,
            self.rows
        );
        &self.data[start_row * self.cols..(start_row + num_rows) * self.cols]
    }

    /// Mutable borrow of `num_rows` consecutive rows starting at `start_row`.
    ///
    /// # Panics
    ///
    /// Panics if `start_row + num_rows > rows`.
    #[inline]
    pub fn rows_chunk_mut(&mut self, start_row: usize, num_rows: usize) -> &mut [f32] {
        assert!(
            start_row + num_rows <= self.rows,
            "row chunk {start_row}..{} out of bounds for {} rows",
            start_row + num_rows,
            self.rows
        );
        &mut self.data[start_row * self.cols..(start_row + num_rows) * self.cols]
    }

    /// Returns a copy with every element rounded through fp16
    /// ([`crate::f16::round_to_f16_slice`], the branchless whole-slice
    /// conversion, bit-identical to the scalar [`crate::f16::round_to_f16`]).
    ///
    /// The blocked kernels call this once per operand matrix before entering
    /// their main loops, hoisting the (expensive, software) fp16 conversion out
    /// of the per-fragment hot path. Rounding is element-wise, so pre-rounding a
    /// whole matrix is bit-identical to rounding each operand at use time.
    pub fn as_f16_rounded(&self) -> DenseMatrix {
        let mut data = self.data.clone();
        crate::f16::round_to_f16_slice(&mut data);
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of elements that are non-zero.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.data.len() as f64
        }
    }

    /// Fraction of elements that are zero (`1 - density`).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Returns a copy with rows re-ordered so that output row `i` is input row
    /// `permutation[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPermutation`] if `permutation` is not a permutation of
    /// `0..rows`.
    pub fn permuted_rows(&self, permutation: &[usize]) -> Result<DenseMatrix> {
        validate_permutation(permutation, self.rows)?;
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (dst, &src) in permutation.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Copy of columns `start .. start + width`.
    ///
    /// The server slices each request's columns out of a coalesced group's
    /// output with it.
    ///
    /// # Panics
    ///
    /// Panics if `start + width > cols`.
    pub fn cols_range(&self, start: usize, width: usize) -> DenseMatrix {
        assert!(
            start + width <= self.cols,
            "column slice {start}..{} out of bounds for {} columns",
            start + width,
            self.cols
        );
        let mut out = DenseMatrix::zeros(self.rows, width);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols + start..r * self.cols + start + width];
            out.data[r * width..(r + 1) * width].copy_from_slice(src);
        }
        out
    }

    /// Writes the first `width` columns of `src` into `self` starting at
    /// column `start` (the inverse of [`DenseMatrix::cols_range`];
    /// [`DenseMatrix::concat_cols`] assembles its parts with it).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ, `start + width > cols`, or
    /// `width > src.cols`.
    pub fn copy_cols_from(&mut self, src: &DenseMatrix, start: usize, width: usize) {
        assert_eq!(self.rows, src.rows, "row count mismatch in copy_cols_from");
        assert!(
            start + width <= self.cols,
            "column range {start}..{} out of bounds for {} columns",
            start + width,
            self.cols
        );
        assert!(
            width <= src.cols,
            "source has {} columns, needs {width}",
            src.cols
        );
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols + start..r * self.cols + start + width];
            dst.copy_from_slice(&src.data[r * src.cols..r * src.cols + width]);
        }
    }

    /// Column-concatenates `parts` into one `rows × Σ cols` matrix (the
    /// cross-request coalescing primitive of the serving scheduler: several
    /// same-layer activation operands become one wide operand served by a
    /// single fused execute, and the outputs are scattered back per part with
    /// [`DenseMatrix::cols_range`]). An empty `parts` yields a `0 × 0`
    /// matrix; zero-column parts are permitted and contribute nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the parts disagree on the row
    /// count.
    pub fn concat_cols(parts: &[&DenseMatrix]) -> Result<DenseMatrix> {
        let Some(first) = parts.first() else {
            return Ok(DenseMatrix::zeros(0, 0));
        };
        let rows = first.rows;
        if let Some(bad) = parts.iter().find(|p| p.rows != rows) {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "concat_cols parts disagree on rows: {} vs {}",
                    rows, bad.rows
                ),
            });
        }
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = DenseMatrix::zeros(rows, total);
        let mut start = 0;
        for part in parts {
            out.copy_cols_from(part, start, part.cols);
            start += part.cols;
        }
        Ok(out)
    }

    /// Element-wise absolute values (used as magnitude importance scores).
    pub fn abs(&self) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v.abs()).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| f64::from(*v) * f64::from(*v))
            .sum::<f64>()
            .sqrt()
    }

    /// Sum of all elements (as `f64` for accuracy).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|v| f64::from(*v)).sum()
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "max_abs_diff between {:?} and {:?}",
                    self.shape(),
                    other.shape()
                ),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Whether every element differs from `other` by at most `tol` (absolute) or
    /// `tol` relative to the larger magnitude, whichever is looser.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the shapes differ.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f32) -> Result<bool> {
        if self.shape() != other.shape() {
            return Err(Error::ShapeMismatch {
                context: format!(
                    "approx_eq between {:?} and {:?}",
                    self.shape(),
                    other.shape()
                ),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).all(|(a, b)| {
            let diff = (a - b).abs();
            let scale = a.abs().max(b.abs()).max(1.0);
            diff <= tol * scale
        }))
    }

    /// Reference matrix-matrix product `self · rhs` computed in `f64` accumulation.
    /// This is the golden model every simulated kernel is verified against.
    ///
    /// The implementation is blocked over output rows: every row of the result
    /// only depends on one row of `self` and all of `rhs`, so rows are computed
    /// as independent slice-level AXPY sweeps (skipping zero weights, which makes
    /// the reference cheap on pruned matrices) and distributed across cores via
    /// [`crate::parallel::par_chunks_mut`]. The per-element accumulation order is
    /// identical to the historical scalar triple loop, so results are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                context: format!("matmul of {:?} by {:?}", self.shape(), rhs.shape()),
            });
        }
        let n = rhs.cols;
        let mut out = DenseMatrix::zeros(self.rows, n);
        crate::parallel::par_chunks_mut_weighted(&mut out.data, n, self.cols, |i, out_row| {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (p, &a) in a_row.iter().enumerate() {
                let a = f64::from(a);
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = (f64::from(*o) + a * f64::from(b)) as f32;
                }
            }
        });
        Ok(out)
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseMatrix {}x{} ({} non-zeros, {:.1}% dense)",
            self.rows,
            self.cols,
            self.nnz(),
            self.density() * 100.0
        )
    }
}

/// Validates that `permutation` is a permutation of `0..len`.
pub(crate) fn validate_permutation(permutation: &[usize], len: usize) -> Result<()> {
    if permutation.len() != len {
        return Err(Error::InvalidPermutation {
            len,
            reason: format!("length is {}", permutation.len()),
        });
    }
    let mut seen = vec![false; len];
    for &p in permutation {
        if p >= len {
            return Err(Error::InvalidPermutation {
                len,
                reason: format!("index {p} out of range"),
            });
        }
        if seen[p] {
            return Err(Error::InvalidPermutation {
                len,
                reason: format!("index {p} appears twice"),
            });
        }
        seen[p] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = DenseMatrix::from_vec(2, 3, vec![1.0; 5]).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                expected: 6,
                actual: 5
            }
        ));
    }

    #[test]
    fn set_and_density() {
        let mut m = DenseMatrix::zeros(4, 4);
        assert_eq!(m.nnz(), 0);
        m.set(0, 0, 5.0);
        m.set(3, 3, -1.0);
        assert_eq!(m.nnz(), 2);
        assert!((m.density() - 2.0 / 16.0).abs() < 1e-12);
        assert!((m.sparsity() - 14.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DenseMatrix::random(&mut rng, 7, 5);
        let tt = m.transposed().transposed();
        assert_eq!(m, tt);
    }

    #[test]
    fn permuted_rows_moves_rows() {
        let m = DenseMatrix::from_fn(4, 2, |r, _| r as f32);
        let p = m.permuted_rows(&[2, 0, 3, 1]).unwrap();
        assert_eq!(p.row(0), &[2.0, 2.0]);
        assert_eq!(p.row(1), &[0.0, 0.0]);
        assert_eq!(p.row(3), &[1.0, 1.0]);
    }

    #[test]
    fn permuted_rows_rejects_invalid() {
        let m = DenseMatrix::zeros(3, 1);
        assert!(m.permuted_rows(&[0, 1]).is_err());
        assert!(m.permuted_rows(&[0, 0, 1]).is_err());
        assert!(m.permuted_rows(&[0, 1, 5]).is_err());
    }

    #[test]
    fn matmul_matches_manual_result() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn approx_eq_and_max_abs_diff() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 1e-6).unwrap());
        b.set(0, 2, 3.5);
        assert!(!a.approx_eq(&b, 1e-3).unwrap());
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        let c = DenseMatrix::zeros(2, 2);
        assert!(a.approx_eq(&c, 1e-3).is_err());
    }

    #[test]
    fn abs_and_norms() {
        let a = DenseMatrix::from_vec(1, 3, vec![-3.0, 0.0, 4.0]).unwrap();
        assert_eq!(a.abs().as_slice(), &[3.0, 0.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((a.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let a = DenseMatrix::random(&mut rng1, 8, 8);
        let b = DenseMatrix::random(&mut rng2, 8, 8);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn rows_chunk_matches_row_accessor() {
        let m = DenseMatrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(m.rows_chunk(2, 3), &m.as_slice()[8..20]);
        assert_eq!(m.rows_chunk(0, 0), &[] as &[f32]);
        let mut m2 = m.clone();
        m2.rows_chunk_mut(1, 2).iter_mut().for_each(|v| *v = 0.0);
        assert_eq!(m2.row(1), &[0.0; 4]);
        assert_eq!(m2.row(3), m.row(3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rows_chunk_rejects_overflow() {
        DenseMatrix::zeros(3, 2).rows_chunk(2, 2);
    }

    #[test]
    fn as_f16_rounded_matches_elementwise_rounding() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = DenseMatrix::random(&mut rng, 13, 7);
        let rounded = m.as_f16_rounded();
        for r in 0..13 {
            for c in 0..7 {
                assert_eq!(
                    rounded.get(r, c).to_bits(),
                    crate::f16::round_to_f16(m.get(r, c)).to_bits()
                );
            }
        }
        // Idempotent: a pre-rounded matrix re-rounds to itself bit-exactly.
        assert_eq!(rounded.as_f16_rounded(), rounded);
    }

    #[test]
    fn cols_padded_extracts_and_zero_pads() {
        let m = DenseMatrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 + 1.0);
        let s = m.cols_range(1, 2);
        assert_eq!(s.shape(), (3, 2));
        for r in 0..3 {
            assert_eq!(s.get(r, 0), m.get(r, 1));
            assert_eq!(s.get(r, 1), m.get(r, 2));
        }
        // Full width: a plain copy.
        assert_eq!(m.cols_range(0, 5), m);
    }

    #[test]
    fn concat_cols_stitches_parts_and_validates_rows() {
        let a = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let b = DenseMatrix::from_fn(2, 1, |r, _| 10.0 + r as f32);
        let empty = DenseMatrix::zeros(2, 0);
        let cat = DenseMatrix::concat_cols(&[&a, &empty, &b]).unwrap();
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.row(0), &[0.0, 1.0, 10.0]);
        assert_eq!(cat.row(1), &[2.0, 3.0, 11.0]);
        // Round-trip: each part comes back out via cols_range.
        assert_eq!(cat.cols_range(0, 2), a);
        assert_eq!(cat.cols_range(2, 1), b);
        assert_eq!(DenseMatrix::concat_cols(&[]).unwrap().shape(), (0, 0));
        let bad = DenseMatrix::zeros(3, 1);
        assert!(DenseMatrix::concat_cols(&[&a, &bad]).is_err());
    }

    #[test]
    fn copy_cols_from_roundtrips_with_cols_padded() {
        let m = DenseMatrix::from_fn(4, 7, |r, c| (r * 7 + c) as f32);
        let mut out = DenseMatrix::zeros(4, 7);
        // Reassemble from segments of widths 3 / 2 / 2.
        for (start, width) in [(0, 3), (3, 2), (5, 2)] {
            let seg = m.cols_range(start, width);
            out.copy_cols_from(&seg, start, width);
        }
        assert_eq!(out, m);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cols_padded_rejects_overflow() {
        DenseMatrix::zeros(2, 3).cols_range(2, 2);
    }

    #[test]
    fn matmul_handles_degenerate_shapes() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 4));
        let a = DenseMatrix::zeros(2, 0);
        let b = DenseMatrix::zeros(0, 4);
        assert_eq!(a.matmul(&b).unwrap(), DenseMatrix::zeros(2, 4));
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(3, 0);
        assert_eq!(a.matmul(&b).unwrap().shape(), (2, 0));
    }

    #[test]
    fn display_mentions_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert!(format!("{m}").contains("3x4"));
    }
}
