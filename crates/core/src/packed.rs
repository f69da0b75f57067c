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
//! One packing covers every tensor-core kernel, as the paper's block-wise,
//! vector-wise and Shfl-BW kernels run one MMA tile with different metadata.
//! [`PackedPanels::pack`] cuts the weight rows into groups and each group's
//! kept columns into steps; a panel is one group's `rows × kk` tile of one
//! step. The kinds differ only in what they pass:
//!
//! * dense and 2:4 weights: `fm`-row groups keeping all `k` columns,
//!   `fk`-deep steps — the A-fragments of the MMA steps;
//! * block-wise (BSR) weights: `V`-row groups keeping their blocks' columns,
//!   `V`-deep steps, so every panel is one `V × V` block;
//! * vector-wise / Shfl-BW weights: `V`-row groups keeping their stored
//!   vectors, `tk`-deep steps — the stitched tiles.
//!
//! [`PackedPanels::repack`] replays the same traversal into an existing
//! packing, the delta re-pack of a same-pattern weight update.
//!
//! Rounding is element-wise ([`crate::f16::round_to_f16`]), so packing ahead of
//! time is bit-identical to rounding each element at stage time — the contract
//! the property tests in `shfl-kernels` assert.

use crate::f16::{round_to_f16_into, round_to_f16_slice};

/// Weight panels packed contiguously in execution order.
///
/// A *panel* is one staged operand fragment (`rows × kk`, row-major,
/// fp16-rounded). Panels are grouped into *chunks*, one per row group: the
/// outer unit of work a kernel distributes across cores.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedPanels {
    /// Nominal group height (the last group may be shorter).
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

/// The row groups of a `rows`-row operand cut every `group_rows` rows:
/// `(group, height)`, the last group shorter.
fn groups(rows: usize, group_rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows)
        .step_by(group_rows)
        .enumerate()
        .map(move |(g, r0)| (g, group_rows.min(rows - r0)))
}

/// The steps over `kept` columns `depth` at a time: `(first column, width)`,
/// the last step narrower.
fn steps(kept: usize, depth: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..kept)
        .step_by(depth)
        .map(move |start| (start, depth.min(kept - start)))
}

impl PackedPanels {
    /// Packs a weight operand of `rows` stored rows: per group of
    /// `group_rows` rows (the last one shorter), per `depth`-wide step over the
    /// group's `kept(group)` columns (the last one narrower), one
    /// `height × w` panel holding the fp16-rounded values.
    ///
    /// `step_values(group, first)` is the value source: the stored values of
    /// the step that starts at the group's kept column `first`, as
    /// `(values, row_stride, col_stride)`, with row `r` and column `j` of the
    /// step at `values[r * row_stride + j * col_stride]`. It is called once
    /// per step, so every stored value is read once; a row-major source
    /// (`col_stride == 1`) is rounded row by row and a column-major one
    /// (stored vectors) is transposed column by column. Every buffer is sized
    /// exactly before the values are written. A group that keeps no column
    /// still forms an (empty) chunk, so chunk indices line up with row
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics if `group_rows` or `depth` is zero, or if a step reaches past
    /// its source's values.
    pub fn pack<'a>(
        rows: usize,
        group_rows: usize,
        depth: usize,
        kept: impl Fn(usize) -> usize,
        step_values: impl Fn(usize, usize) -> (&'a [f32], usize, usize),
    ) -> Self {
        assert!(
            group_rows > 0 && depth > 0,
            "group height and step depth must be non-zero"
        );
        let num_groups = rows.div_ceil(group_rows);
        let num_panels = (0..num_groups).map(|g| kept(g).div_ceil(depth)).sum();
        let mut panel_ptr = Vec::with_capacity(num_panels + 1);
        let mut panel_dims = Vec::with_capacity(num_panels);
        let mut chunk_ptr = Vec::with_capacity(num_groups + 1);
        let mut end = 0;
        panel_ptr.push(end);
        chunk_ptr.push(0);
        for (g, height) in groups(rows, group_rows) {
            for (_, w) in steps(kept(g), depth) {
                end += height * w;
                panel_ptr.push(end);
                panel_dims.push((height as u32, w as u32));
            }
            chunk_ptr.push(panel_dims.len());
        }
        let mut packed = PackedPanels {
            panel_rows: group_rows,
            data: vec![0.0; end],
            panel_ptr,
            panel_dims,
            chunk_ptr,
        };
        packed.repack(rows, group_rows, depth, kept, step_values);
        packed
    }

    /// Rewrites the panel values in place from a same-pattern update of the
    /// operand this packing was built from — the delta re-pack path for live
    /// weight updates.
    ///
    /// The arguments are [`PackedPanels::pack`]'s, and the traversal is the
    /// same: the result is bit-identical to a fresh pack, but no metadata
    /// (panel pointers, dims, chunk pointers) is rebuilt or moved.
    ///
    /// Returns the number of payload bytes rewritten (the full value buffer),
    /// which callers charge against a `TrafficCounter` to compare with the
    /// bytes a full rebuild would move.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero, if the update's structure does not match
    /// this packing (a different group height, group count, panel or chunk
    /// layout) — callers must gate on a same-pattern check first — or if a
    /// step reaches past its source's values.
    pub fn repack<'a>(
        &mut self,
        rows: usize,
        group_rows: usize,
        depth: usize,
        kept: impl Fn(usize) -> usize,
        step_values: impl Fn(usize, usize) -> (&'a [f32], usize, usize),
    ) -> usize {
        assert_eq!(
            self.panel_rows, group_rows,
            "delta re-pack requires the original group height"
        );
        assert_eq!(
            self.num_chunks(),
            rows.div_ceil(group_rows),
            "delta re-pack requires the original group structure"
        );
        let mut panel = 0;
        for (g, height) in groups(rows, group_rows) {
            for (start, w) in steps(kept(g), depth) {
                assert_eq!(
                    self.panel_dims.get(panel),
                    Some(&(height as u32, w as u32)),
                    "delta re-pack requires the original panel layout"
                );
                let tile = &mut self.data[self.panel_ptr[panel]..self.panel_ptr[panel + 1]];
                let (values, row_stride, col_stride) = step_values(g, start);
                assert!(
                    values.len() > (height - 1) * row_stride + (w - 1) * col_stride,
                    "step at column {start} of group {g} reaches past its values"
                );
                if col_stride == 1 {
                    // Row-major source (dense rows, blocks): round row by row.
                    for (r, dst) in tile.chunks_exact_mut(w).enumerate() {
                        round_to_f16_into(dst, &values[r * row_stride..][..w]);
                    }
                } else {
                    // Column-major source (stored vectors): transpose each
                    // column into the row-major tile, then round the tile.
                    for j in 0..w {
                        let src = values[j * col_stride..].iter().step_by(row_stride);
                        for (dst, src) in tile[j..].iter_mut().step_by(w).zip(src) {
                            *dst = *src;
                        }
                    }
                    round_to_f16_slice(tile);
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

    /// Nominal group height the panels were packed for.
    pub fn panel_rows(&self) -> usize {
        self.panel_rows
    }

    /// Number of chunks (row groups).
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
    use crate::f16::round_to_f16;
    use crate::formats::{BlockSparseMatrix, VectorWiseMatrix};
    use crate::matrix::DenseMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dense row-panels: `fm`-row groups over all `k` columns, `fk` deep.
    fn dense_panels(a: &DenseMatrix, fm: usize, fk: usize) -> PackedPanels {
        let (m, k) = a.shape();
        let values = a.as_slice();
        PackedPanels::pack(m, fm, fk, |_| k, |g, j| (&values[g * fm * k + j..], k, 1))
    }

    /// Vector-wise group panels: `V`-row groups over their stored vectors,
    /// `tk` deep.
    fn vector_wise_panels(vw: &VectorWiseMatrix, tk: usize) -> PackedPanels {
        let v = vw.vector_size();
        PackedPanels::pack(
            vw.rows(),
            v,
            tk,
            |g| vw.group_cols(g).len(),
            |g, j| (&vw.values()[(vw.group_ptr()[g] + j) * v..], 1, v),
        )
    }

    fn vector_wise_repack(packed: &mut PackedPanels, vw: &VectorWiseMatrix, tk: usize) -> usize {
        let v = vw.vector_size();
        packed.repack(
            vw.rows(),
            v,
            tk,
            |g| vw.group_cols(g).len(),
            |g, j| (&vw.values()[(vw.group_ptr()[g] + j) * v..], 1, v),
        )
    }

    #[test]
    fn dense_rows_match_staged_fragments() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = DenseMatrix::random(&mut rng, 37, 29);
        let a16 = a.as_f16_rounded();
        let (fm, fk) = (16, 16);
        let packed = dense_panels(&a, fm, fk);
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
        let packed = vector_wise_panels(&vw, tk);
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
        let mut packed = vector_wise_panels(&vw, tk);
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
        let bytes = vector_wise_repack(&mut packed, &scaled, tk);
        assert_eq!(bytes, packed.packed_values() * 4);
        let fresh = vector_wise_panels(&scaled, tk);
        assert_eq!(packed, fresh, "delta re-pack must equal a fresh pack");
        // Payload-only bytes are strictly below a full rebuild's footprint.
        assert!(bytes < fresh.packed_bytes());
    }

    #[test]
    #[should_panic(expected = "delta re-pack requires the original")]
    fn delta_repack_rejects_a_different_pattern() {
        let dense = DenseMatrix::from_fn(8, 8, |_, c| if c % 2 == 0 { 1.0 } else { 0.0 });
        let vw = VectorWiseMatrix::from_dense(&dense, 4).unwrap();
        let mut packed = vector_wise_panels(&vw, 2);
        let other = DenseMatrix::from_fn(8, 8, |_, c| if c % 4 == 0 { 1.0 } else { 0.0 });
        let other = VectorWiseMatrix::from_dense(&other, 4).unwrap();
        vector_wise_repack(&mut packed, &other, 2);
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
        let v = bsr.block_size();
        let packed = PackedPanels::pack(
            bsr.rows(),
            v,
            v,
            |br| bsr.blocks_in_row(br).len() * v,
            |br, j| (bsr.block_values(br, j / v), v, 1),
        );
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
        let packed = dense_panels(&DenseMatrix::zeros(0, 8), 16, 16);
        assert_eq!(packed.num_chunks(), 0);
        assert!(packed.is_empty());
        // Zero columns: chunks exist (one per row-tile) but hold no panels.
        let packed = dense_panels(&DenseMatrix::zeros(8, 0), 4, 4);
        assert_eq!(packed.num_chunks(), 2);
        assert_eq!(packed.num_panels(), 0);
        let vw = VectorWiseMatrix::from_dense(&DenseMatrix::zeros(8, 8), 4).unwrap();
        let packed = vector_wise_panels(&vw, 16);
        assert_eq!(packed.num_chunks(), 2);
        assert_eq!(packed.num_panels(), 0);
        assert_eq!(packed.chunk_panels(0), 0..0);
    }

    #[test]
    fn packed_bytes_accounts_for_values_and_metadata() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::random(&mut rng, 32, 32);
        let packed = dense_panels(&a, 16, 16);
        assert!(packed.packed_bytes() >= 32 * 32 * 4);
        assert_eq!(packed.panel_rows(), 16);
    }
}
