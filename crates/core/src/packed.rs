//! Pre-packed weight panels — the static operand of the plan/execute split.
//!
//! Real sparse inference engines reorganise the weight matrix **once**, offline,
//! and amortise that work across every inference call (EIE's compressed weight
//! layout, NVIDIA's pre-transformed 2:4 metadata). [`PackedPanels`] is that
//! one-time product for the simulated kernels in `shfl-kernels`: the weight
//! operand is rounded through fp16, transposed into the tile layout the panel
//! sweep reads, and laid out contiguously in execution order. A prepared
//! kernel plan then walks the panels with zero per-call gathering,
//! transposition or rounding of the static operand.
//!
//! Three packings cover every kernel family:
//!
//! * [`PackedPanels::pack_dense_rows`] — dense row-panels for the tensor-core
//!   GEMM (and conv im2col weights): per output row-tile, per reduction slice,
//!   the `rows × kk` A-fragment of one MMA step.
//! * [`PackedPanels::pack_vector_wise`] — pre-stitched `V × tk` group panels
//!   for the vector-wise / Shfl-BW / balanced-style stitched kernels: the
//!   transposed weight tile of every `T_K` step of every row group.
//! * [`PackedPanels::pack_blocks`] — the rounded `V × V` tiles of a block-wise
//!   (BSR) matrix in block-row order.
//!
//! Rounding is element-wise ([`crate::f16::round_to_f16`]), so packing ahead of
//! time is bit-identical to rounding each element at stage time — the contract
//! the property tests in `shfl-kernels` assert.

use crate::f16::round_to_f16;
use crate::formats::{BlockSparseMatrix, VectorWiseMatrix};
use crate::matrix::DenseMatrix;

/// Weight panels packed contiguously in execution order.
///
/// A *panel* is one staged operand fragment (`rows × kk`, row-major,
/// fp16-rounded). Panels are grouped into *chunks* — the outer unit of work a
/// kernel distributes across cores (an output row-tile for GEMM, a row group
/// for the stitched SpMM kernels, a block row for BSR).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedPanels {
    /// Nominal tile height (`fm` for dense packings, `V` for group packings).
    panel_rows: usize,
    /// All panel values, fp16-rounded, concatenated in execution order.
    data: Vec<f32>,
    /// `panel_ptr[i]..panel_ptr[i+1]` bounds panel `i` inside `data`.
    panel_ptr: Vec<usize>,
    /// `(rows, kk)` of each panel.
    panel_dims: Vec<(u32, u32)>,
    /// `chunk_ptr[c]..chunk_ptr[c+1]` is the panel index range of chunk `c`.
    chunk_ptr: Vec<usize>,
}

impl PackedPanels {
    /// Packs a dense weight matrix into row-panels: per row-tile of
    /// `tile_rows` rows, per reduction slice of `tile_k` columns, one
    /// `rows × kk` fragment (shortened at the boundary).
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows` or `tile_k` is zero.
    pub fn pack_dense_rows(weights: &DenseMatrix, tile_rows: usize, tile_k: usize) -> Self {
        assert!(
            tile_rows > 0 && tile_k > 0,
            "tile dimensions must be non-zero"
        );
        let (m, k) = weights.shape();
        let mut packed = PackedPanels::with_panel_rows(tile_rows);
        packed.data.reserve(m * k);
        for i0 in (0..m).step_by(tile_rows) {
            let rows = tile_rows.min(m - i0);
            // A row-tile with k == 0 still forms an (empty) chunk so chunk
            // indices line up with output row-tiles.
            for p0 in (0..k).step_by(tile_k) {
                let kk = tile_k.min(k - p0);
                for i in 0..rows {
                    let row = weights.row(i0 + i);
                    packed
                        .data
                        .extend(row[p0..p0 + kk].iter().map(|v| round_to_f16(*v)));
                }
                packed.push_panel(rows, kk);
            }
            packed.chunk_ptr.push(packed.panel_ptr.len() - 1);
        }
        packed
    }

    /// Packs a vector-wise matrix into pre-stitched group panels: per row
    /// group, per `tk`-wide step over the group's kept columns, the transposed
    /// `V × w` weight tile the stitched kernel builds in shared memory —
    /// resolved here once instead of on every call.
    ///
    /// # Panics
    ///
    /// Panics if `tk` is zero.
    pub fn pack_vector_wise(weights: &VectorWiseMatrix, tk: usize) -> Self {
        assert!(tk > 0, "tk must be non-zero");
        let v = weights.vector_size();
        let mut packed = PackedPanels::with_panel_rows(v);
        packed.data.reserve(weights.stored_values());
        for g in 0..weights.num_groups() {
            let cols = weights.group_cols(g);
            for step_start in (0..cols.len()).step_by(tk) {
                let w = tk.min(cols.len() - step_start);
                let base = packed.data.len();
                packed.data.resize(base + v * w, 0.0);
                // Transpose the w stored vectors into the dense V×w tile.
                for j in 0..w {
                    let vals = weights.vector_values(g, step_start + j);
                    for (r, &val) in vals.iter().enumerate() {
                        packed.data[base + r * w + j] = round_to_f16(val);
                    }
                }
                packed.push_panel(v, w);
            }
            packed.chunk_ptr.push(packed.panel_ptr.len() - 1);
        }
        packed
    }

    /// Rewrites the panel payload in place from a same-pattern magnitude
    /// update of the matrix this packing was built from — the delta re-pack
    /// path for live weight updates.
    ///
    /// The Shfl-BW group/block structure (vector size, group boundaries, kept
    /// columns) is stable under a magnitude-only update, so every panel keeps
    /// its offset and dimensions and only the fp16-rounded values change.
    /// Replays the exact [`PackedPanels::pack_vector_wise`] traversal with the
    /// same `tk`, writing into the existing buffer: the result is bit-identical
    /// to a fresh pack, but no metadata (panel pointers, dims, chunk pointers)
    /// is rebuilt or moved.
    ///
    /// Returns the number of payload bytes rewritten (the full value buffer),
    /// which callers charge against a `TrafficCounter` to compare with the
    /// bytes a full rebuild would move.
    ///
    /// # Panics
    ///
    /// Panics if `tk` is zero or if the update's structure does not match this
    /// packing (different vector size, group count, or step layout) — callers
    /// must gate on a same-pattern check first.
    pub fn repack_vector_wise_values(&mut self, weights: &VectorWiseMatrix, tk: usize) -> usize {
        assert!(tk > 0, "tk must be non-zero");
        let v = weights.vector_size();
        assert_eq!(
            self.panel_rows, v,
            "delta re-pack requires the original vector size"
        );
        assert_eq!(
            self.num_chunks(),
            weights.num_groups(),
            "delta re-pack requires the original group structure"
        );
        let mut panel = 0;
        for g in 0..weights.num_groups() {
            let cols = weights.group_cols(g);
            for step_start in (0..cols.len()).step_by(tk) {
                let w = tk.min(cols.len() - step_start);
                assert_eq!(
                    self.panel_dims[panel],
                    (v as u32, w as u32),
                    "delta re-pack requires the original panel layout"
                );
                let base = self.panel_ptr[panel];
                for j in 0..w {
                    let vals = weights.vector_values(g, step_start + j);
                    for (r, &val) in vals.iter().enumerate() {
                        self.data[base + r * w + j] = round_to_f16(val);
                    }
                }
                panel += 1;
            }
            assert_eq!(
                self.chunk_ptr[g + 1],
                panel,
                "delta re-pack requires the original chunk layout"
            );
        }
        assert_eq!(panel, self.num_panels(), "update left panels unwritten");
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Packs a block-sparse (BSR) matrix: one rounded `V × V` panel per stored
    /// block, chunked by block row.
    pub fn pack_blocks(weights: &BlockSparseMatrix) -> Self {
        let v = weights.block_size();
        let mut packed = PackedPanels::with_panel_rows(v);
        packed.data.reserve(weights.stored_values());
        for br in 0..weights.block_rows() {
            for i in 0..weights.blocks_in_row(br).len() {
                packed
                    .data
                    .extend(weights.block_values(br, i).iter().map(|v| round_to_f16(*v)));
                packed.push_panel(v, v);
            }
            packed.chunk_ptr.push(packed.panel_ptr.len() - 1);
        }
        packed
    }

    fn with_panel_rows(panel_rows: usize) -> Self {
        PackedPanels {
            panel_rows,
            data: Vec::new(),
            panel_ptr: vec![0],
            panel_dims: Vec::new(),
            chunk_ptr: vec![0],
        }
    }

    fn push_panel(&mut self, rows: usize, kk: usize) {
        self.panel_ptr.push(self.data.len());
        self.panel_dims.push((rows as u32, kk as u32));
    }

    /// Nominal tile height the panels were packed for.
    pub fn panel_rows(&self) -> usize {
        self.panel_rows
    }

    /// Number of outer chunks (row-tiles / groups / block rows).
    pub fn num_chunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Total number of panels.
    pub fn num_panels(&self) -> usize {
        self.panel_dims.len()
    }

    /// Panel index range belonging to one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= num_chunks`.
    pub fn chunk_panels(&self, chunk: usize) -> std::ops::Range<usize> {
        assert!(chunk < self.num_chunks(), "chunk index out of bounds");
        self.chunk_ptr[chunk]..self.chunk_ptr[chunk + 1]
    }

    /// One packed panel: `(values, rows, kk)` with `values.len() == rows * kk`,
    /// row-major.
    ///
    /// # Panics
    ///
    /// Panics if `panel >= num_panels`.
    pub fn panel(&self, panel: usize) -> (&[f32], usize, usize) {
        assert!(panel < self.num_panels(), "panel index out of bounds");
        let (rows, kk) = self.panel_dims[panel];
        (
            &self.data[self.panel_ptr[panel]..self.panel_ptr[panel + 1]],
            rows as usize,
            kk as usize,
        )
    }

    /// Total packed values.
    pub fn packed_values(&self) -> usize {
        self.data.len()
    }

    /// Size of the packed representation in bytes (values as `f32` plus panel
    /// and chunk metadata).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
            + self.panel_ptr.len() * std::mem::size_of::<usize>()
            + self.panel_dims.len() * std::mem::size_of::<(u32, u32)>()
            + self.chunk_ptr.len() * std::mem::size_of::<usize>()
    }

    /// Whether the packing holds no values at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dense_rows_match_staged_fragments() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = DenseMatrix::random(&mut rng, 37, 29);
        let a16 = a.as_f16_rounded();
        let (fm, fk) = (16, 16);
        let packed = PackedPanels::pack_dense_rows(&a, fm, fk);
        assert_eq!(packed.num_chunks(), 37usize.div_ceil(fm));
        let mut panel_idx = 0;
        for (tile, i0) in (0..37).step_by(fm).enumerate() {
            let rows = fm.min(37 - i0);
            let range = packed.chunk_panels(tile);
            assert_eq!(range.len(), 29usize.div_ceil(fk));
            for p0 in (0..29).step_by(fk) {
                let kk = fk.min(29 - p0);
                let (values, prows, pkk) = packed.panel(panel_idx);
                assert_eq!((prows, pkk), (rows, kk));
                for i in 0..rows {
                    assert_eq!(
                        &values[i * kk..(i + 1) * kk],
                        &a16.row(i0 + i)[p0..p0 + kk],
                        "tile {tile} slice at {p0}"
                    );
                }
                panel_idx += 1;
            }
        }
        assert_eq!(packed.packed_values(), 37 * 29);
    }

    #[test]
    fn vector_wise_panels_are_transposed_rounded_tiles() {
        let mut rng = StdRng::seed_from_u64(2);
        let dense = DenseMatrix::from_fn(16, 24, |r, c| {
            if (c + r / 4) % 3 == 0 {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        let tk = 3;
        let packed = PackedPanels::pack_vector_wise(&vw, tk);
        assert_eq!(packed.num_chunks(), vw.num_groups());
        for g in 0..vw.num_groups() {
            let cols = vw.group_cols(g);
            let range = packed.chunk_panels(g);
            assert_eq!(range.len(), cols.len().div_ceil(tk));
            for (step, panel) in range.enumerate() {
                let step_start = step * tk;
                let w = tk.min(cols.len() - step_start);
                let (values, rows, kk) = packed.panel(panel);
                assert_eq!((rows, kk), (4, w));
                for j in 0..w {
                    let vals = vw.vector_values(g, step_start + j);
                    for (r, &val) in vals.iter().enumerate() {
                        assert_eq!(
                            values[r * w + j].to_bits(),
                            round_to_f16(val).to_bits(),
                            "group {g} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delta_repack_is_bit_identical_to_a_fresh_pack() {
        let mut rng = StdRng::seed_from_u64(5);
        let dense = DenseMatrix::from_fn(16, 24, |r, c| {
            if (c + r / 4) % 3 == 0 {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        let tk = 3;
        let mut packed = PackedPanels::pack_vector_wise(&vw, tk);
        // Same pattern, new magnitudes: scale the stored values only.
        let scaled = VectorWiseMatrix::from_parts(
            vw.rows(),
            vw.cols(),
            vw.vector_size(),
            vw.group_ptr().to_vec(),
            vw.col_idx().to_vec(),
            vw.values().iter().map(|v| v * 1.25).collect(),
        )
        .unwrap();
        let bytes = packed.repack_vector_wise_values(&scaled, tk);
        assert_eq!(bytes, packed.packed_values() * 4);
        let fresh = PackedPanels::pack_vector_wise(&scaled, tk);
        assert_eq!(packed, fresh, "delta re-pack must equal a fresh pack");
        // Payload-only bytes are strictly below a full rebuild's footprint.
        assert!(bytes < fresh.packed_bytes());
    }

    #[test]
    #[should_panic(expected = "delta re-pack requires the original")]
    fn delta_repack_rejects_a_different_pattern() {
        let dense = DenseMatrix::from_fn(8, 8, |_, c| if c % 2 == 0 { 1.0 } else { 0.0 });
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        let mut packed = PackedPanels::pack_vector_wise(&vw, 2);
        let other = DenseMatrix::from_fn(8, 8, |_, c| if c % 4 == 0 { 1.0 } else { 0.0 });
        let other = VectorWiseMatrix::from_dense(&other, 4).unwrap();
        packed.repack_vector_wise_values(&other, 2);
    }

    #[test]
    fn blocks_round_each_stored_block() {
        let dense = DenseMatrix::from_fn(8, 8, |r, c| {
            if (r / 4 + c / 4) % 2 == 0 {
                0.1 + (r * 8 + c) as f32 * 0.01
            } else {
                0.0
            }
        });
        let bsr = BlockSparseMatrix::from_dense(&dense, 4).unwrap();
        let packed = PackedPanels::pack_blocks(&bsr);
        assert_eq!(packed.num_chunks(), bsr.block_rows());
        assert_eq!(packed.num_panels(), bsr.stored_blocks());
        for br in 0..bsr.block_rows() {
            for (i, panel) in packed.chunk_panels(br).enumerate() {
                let (values, rows, kk) = packed.panel(panel);
                assert_eq!((rows, kk), (4, 4));
                for (packed_v, orig) in values.iter().zip(bsr.block_values(br, i)) {
                    assert_eq!(packed_v.to_bits(), round_to_f16(*orig).to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_matrices_pack_to_empty_chunks() {
        let packed = PackedPanels::pack_dense_rows(&DenseMatrix::zeros(0, 8), 16, 16);
        assert_eq!(packed.num_chunks(), 0);
        assert!(packed.is_empty());
        // Zero columns: chunks exist (one per row-tile) but hold no panels.
        let packed = PackedPanels::pack_dense_rows(&DenseMatrix::zeros(8, 0), 4, 4);
        assert_eq!(packed.num_chunks(), 2);
        assert_eq!(packed.num_panels(), 0);
        let vw = VectorWiseMatrix::from_dense(&DenseMatrix::zeros(8, 8), 4).unwrap();
        let packed = PackedPanels::pack_vector_wise(&vw, 16);
        assert_eq!(packed.num_chunks(), 2);
        assert_eq!(packed.num_panels(), 0);
        assert_eq!(packed.chunk_panels(0), 0..0);
    }

    #[test]
    fn packed_bytes_accounts_for_values_and_metadata() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::random(&mut rng, 32, 32);
        let packed = PackedPanels::pack_dense_rows(&a, 16, 16);
        assert!(packed.packed_bytes() >= 32 * 32 * 4);
        assert_eq!(packed.panel_rows(), 16);
    }
}
