//! Implicit-GEMM convolution plans: walk the input in place, never im2col.
//!
//! Materialising the full `K × N` im2col operand (`K = C·R·S`,
//! `N = batch·OH·OW`) is pure memory traffic: it duplicates every input pixel
//! `R·S` times and re-rounds it through fp16 on every call. The paper keeps the
//! unfolded input in on-chip buffers only (§4.1). [`ImplicitConvPlan`] is the
//! engine's one conv execute path, and it never materialises the unfolding:
//!
//! 1. **One-time layout transform at execute, not `R·S`-fold duplication.**
//!    Each call stages the NCHW input once into a zero-padded, fp16-pre-rounded
//!    *phase-split* buffer `T` of `batch·C·Hpad·Wrow` elements (≈ input-sized;
//!    `R·S×` smaller than im2col). Within a padded row, column `px` lives at
//!    `(px % stride)·Lφ + px / stride` (`Lφ = ⌈Wpad/stride⌉`, `Wrow =
//!    stride·Lφ`): all pixels a strided output row touches for a fixed filter
//!    tap become one *contiguous* run, so the panel sweep streams them
//!    exactly like im2col columns.
//! 2. **Gather-style segment spans via separable tap offsets.** The implicit
//!    operand element `B[(c,r,s)][(b,oh,ow)]` sits at `block_base(b, oh) +
//!    tap_off(c, r, s) + ow` in `T`; the plan resolves one `tap_off` per
//!    filter tap at build time and sweeps each `(b, oh)` output row as a block
//!    through [`gpu_sim::mma::mma_sweep`] with `scale = 1` — the same panel
//!    sweep (and therefore the same SIMD dispatch tiers) the SpMM plans use,
//!    with tap offsets where they pass kept columns. Because consecutive
//!    output rows sit a fixed `stride·Wrow` apart in `T`, an image's row
//!    blocks merge into a single plane-wide sweep whenever the inter-row gap
//!    lanes (discarded at copy-out) waste under 25% of the width — exact for
//!    `1×1` stride-1, a thin halo for stride-1 `R×S`.
//! 3. **No k-padding.** Panels pack at the per-problem tile target `tk` and
//!    the sweep takes each panel at its own width, so a short stitched tail
//!    costs exactly its taps and reads only the input elements its kept
//!    channels name: a non-finite value elsewhere in the input cannot leak
//!    into a group that does not use it.
//! 4. **Image-parallel execute.** `T` is laid out as one *slab* of
//!    `C·Hpad·Wrow` elements per image, and every operand span an image's
//!    sweeps read stays inside its slab. One execute is a single fan-out
//!    over images ([`shfl_core::parallel::par_chunks_mut_weighted`]): each
//!    task owns one image's slab, its NCHW output planes (contiguous per
//!    image) and its slice of the group accumulator, fills and fp16-rounds
//!    the slab, then sweeps every weight group over it. No element's
//!    accumulation order depends on the split, so the output is the same
//!    bit for bit on any thread count. A batch-1 execute stages its channel
//!    planes in parallel but sweeps on one core.
//!
//! The materialised chain — [`conv::im2col`], an exact-width stitched
//! [`crate::plan::SpmmPlan`], [`conv::col2im_output`] — is the
//! **bit-identical oracle**: the plan mirrors the stitched SpMM panel
//! structure (same `V×tk` tiles, same ascending-panel partial-sum bracketing
//! per output element), and `T` holds exactly the fp16-pre-rounded values
//! im2col would gather, so outputs match the oracle bit for bit — the property
//! tests assert exact equality across stride / padding / dilation / kernel
//! geometries.

use crate::conv::{self, Conv2dParams, Tensor4};
use crate::plan::PanelOperand;
use crate::profile::{KernelError, KernelProfile, KernelResult};
use gpu_sim::mma::{mma_sweep, SegmentSpan};
use gpu_sim::GpuArch;
use shfl_core::f16::{round_to_f16_into, round_to_f16_slice};
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::parallel;
use shfl_core::tiling;
use std::sync::{Mutex, TryLockError};

/// A prepared Shfl-BW implicit-GEMM convolution (see the module docs).
///
/// Built once per `(weights, arch, geometry)` like [`crate::plan::SpmmPlan`];
/// executes many times against fresh inputs without materialising im2col.
#[derive(Debug)]
pub struct ImplicitConvPlan {
    params: Conv2dParams,
    m: usize,
    n: usize,
    k: usize,
    /// The stitched panels of the pruned filter matrix, with the operand
    /// offset into `T` of every kept filter tap as the operand-row table and
    /// the shuffle as the output-row table.
    operand: PanelOperand,
    // Phase-split transform geometry.
    hpad: usize,
    wrow: usize,
    lphi: usize,
    /// Elements of one image's phase-split transform slab, `C·Hpad·Wrow`.
    image_len: usize,
    /// Operand columns one row block covers: `OW` per-row, or
    /// `(OH−1)·stride·Wrow + OW` when an image's rows merge into one sweep.
    block_width: usize,
    /// Output rows one block carries (`OH` merged, `1` per-row): merged
    /// sweeps read the `stride·Wrow − OW` gap columns between consecutive
    /// rows as discarded waste lanes in exchange for wide vector runs.
    rows_per_block: usize,
    /// Row blocks per image (`OH` per-row, or `1` when rows merge).
    blocks_per_image: usize,
    /// Reused transform buffer, pre-sized (and pre-zeroed) at build so the
    /// plan's resident bytes are accounted from cache-insert time. Execute
    /// falls back to a fresh buffer if the lock is contended.
    scratch: Mutex<Vec<f32>>,
    profile: KernelProfile,
}

impl ImplicitConvPlan {
    /// Prepares the implicit-GEMM convolution for a Shfl-BW-pruned filter.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the pruned filter matrix does
    /// not match the convolution geometry, if `stride`/`dilation` are zero, or
    /// if the transform buffer of one image exceeds the `u32` tap-offset range.
    pub fn build(
        arch: &GpuArch,
        weights: &ShflBwMatrix,
        params: &Conv2dParams,
    ) -> KernelResult<Self> {
        let (m, n, k) = params.implicit_gemm_shape();
        if (weights.rows(), weights.cols()) != (m, k) {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "conv weights are {}x{} but the geometry implies {m}x{k}",
                    weights.rows(),
                    weights.cols()
                ),
            });
        }
        if params.stride == 0 || params.dilation == 0 {
            return Err(KernelError::ShapeMismatch {
                context: "conv stride and dilation must be non-zero".to_string(),
            });
        }
        let p = *params;
        let (oh, ow) = (p.output_h(), p.output_w());
        let hpad = (oh - 1) * p.stride + (p.kernel_h - 1) * p.dilation + 1;
        let wpad = (ow - 1) * p.stride + (p.kernel_w - 1) * p.dilation + 1;
        let lphi = wpad.div_ceil(p.stride);
        let wrow = p.stride * lphi;
        let plane = hpad * wrow;
        let image_len = p.in_channels * plane;
        if image_len > u32::MAX as usize {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "transform image of {image_len} elements exceeds the u32 tap-offset range"
                ),
            });
        }
        // One separable operand offset per filter tap `(c, r, s)`; the im2col
        // row index is `(c·R + r)·S + s`, matching [`conv::im2col`].
        let mut tap = vec![0u32; k];
        for c in 0..p.in_channels {
            for r in 0..p.kernel_h {
                for s in 0..p.kernel_w {
                    let q = s * p.dilation;
                    let off =
                        c * plane + r * p.dilation * wrow + (q % p.stride) * lphi + q / p.stride;
                    tap[(c * p.kernel_h + r) * p.kernel_w + s] = off as u32;
                }
            }
        }

        let vw = weights.vector_wise();
        let tk = tiling::select_vector_wise_tile(vw.vector_size(), n).tk;
        let operand = PanelOperand::stitched(
            vw,
            tk,
            vw.col_idx().iter().map(|&c| tap[c as usize]).collect(),
            weights.row_indices().to_vec(),
        );

        // Row merging: within one image, output row `y` starts `stride·Wrow`
        // elements after row `y−1` for every tap, so an image's `OH` row
        // blocks concatenate into ONE sweep of `(OH−1)·stride·Wrow + OW`
        // columns whose inter-row gap lanes compute discarded values. Merge
        // whenever the waste stays under 25% — `1×1` stride-1 maps merge with
        // zero waste (the gap is empty), stride-1 `R×S` maps waste only the
        // `(S−1)·dilation` halo columns per row, while strided maps (≥50%
        // gap) keep per-row blocks. Either way every operand span of an image
        // ends at `base + off + block_width <= image_len`, inside its own
        // slab, so no sweep reads another image's slab while another task
        // fills it.
        let merged_w = (oh - 1) * p.stride * wrow + ow;
        let merge = 3 * merged_w <= 4 * oh * ow;
        let (block_width, rows_per_block, blocks_per_image) = if merge {
            (merged_w, oh, 1)
        } else {
            (ow, 1, oh)
        };
        Ok(ImplicitConvPlan {
            params: p,
            m,
            n,
            k,
            operand,
            hpad,
            wrow,
            lphi,
            image_len,
            block_width,
            rows_per_block,
            blocks_per_image,
            scratch: Mutex::new(vec![0.0f32; p.batch * image_len]),
            profile: conv::conv2d_shfl_bw_profile(arch, weights, params),
        })
    }

    /// The analytical profile resolved at plan time: the Shfl-BW
    /// implicit-GEMM cost model ([`conv::conv2d_shfl_bw_profile`]). The
    /// in-place transform changes CPU wall clock, not the modeled GPU kernel.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// The convolution geometry the plan was built for.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// The implicit-GEMM shape `(M, N, K)` the plan serves.
    pub fn gemm_shape(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    /// Resident bytes the plan owns: packed panels, tap/group tables, shuffle
    /// row indices, **and** the pre-sized transform scratch — so byte-budget
    /// eviction in [`crate::cache::PlanCache`] sees conv plans at true size.
    pub fn packed_bytes(&self) -> usize {
        self.operand.packed_bytes() + self.t_alloc() * std::mem::size_of::<f32>()
    }

    /// Allocated transform length: one phase-split slab per image.
    fn t_alloc(&self) -> usize {
        self.params.batch * self.image_len
    }

    /// Bytes of the phase-split transform buffer one execute reads through the
    /// panel sweeps (the implicit path's entire activation-side footprint).
    pub fn input_bytes_read(&self) -> u64 {
        (self.t_alloc() * std::mem::size_of::<f32>()) as u64
    }

    /// Bytes an im2col execute of the same problem would have materialised and
    /// that this plan avoids: the `K × N` unfold buffer plus the equally sized
    /// per-call fp16 staging copy of it.
    pub fn im2col_bytes_avoided(&self) -> u64 {
        2 * (self.k * self.n * std::mem::size_of::<f32>()) as u64
    }

    /// Executes the prepared convolution against one input feature map.
    ///
    /// One fan-out over images (see the module docs): each task fills and
    /// sweeps its own image. A batch-1 call fills its channel planes in
    /// parallel and sweeps on one core.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the input tensor does not
    /// match the geometry the plan was built for.
    pub fn execute(&self, input: &Tensor4) -> KernelResult<Tensor4> {
        let p = &self.params;
        if input.shape() != (p.batch, p.in_channels, p.input_h, p.input_w) {
            return Err(KernelError::ShapeMismatch {
                context: format!(
                    "conv input is {:?} but the plan expects ({}, {}, {}, {})",
                    input.shape(),
                    p.batch,
                    p.in_channels,
                    p.input_h,
                    p.input_w
                ),
            });
        }
        let (oh, ow) = (p.output_h(), p.output_w());
        let mut out = Tensor4::zeros(p.batch, p.out_channels, oh, ow);
        if self.m == 0 || self.n == 0 || self.k == 0 {
            return Ok(out);
        }
        let mut local = Vec::new();
        let mut guard = match self.scratch.try_lock() {
            Ok(guard) => Some(guard),
            // A panic inside an earlier execute poisons the lock but leaves
            // the buffer reusable: `fill_image` rewrites every valid position
            // and never writes padding.
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let t: &mut Vec<f32> = match guard.as_deref_mut() {
            Some(t) => t,
            None => {
                local.resize(self.t_alloc(), 0.0);
                &mut local
            }
        };
        // The group accumulator is allocated here, once per call, and split
        // per image: allocating it inside the workers grows peak RSS through
        // per-thread malloc arenas.
        let v = self.operand.packed.panel_rows();
        let tile_len = self.blocks_per_image * v * self.block_width;
        let mut tile = vec![0.0f32; p.batch * tile_len];
        let mut jobs: Vec<_> = t
            .chunks_exact_mut(self.image_len)
            .zip(out.as_mut_slice().chunks_exact_mut(self.m * oh * ow))
            .zip(tile.chunks_exact_mut(tile_len))
            .collect();
        if let [((t, planes), tile)] = jobs.as_mut_slice() {
            // A lone image leaves no images to fan out over: its channel
            // planes are staged in parallel instead, then swept on this core.
            self.fill_image(input, 0, t, true);
            self.sweep_image(t, planes, tile);
        } else {
            // One image's sweep MACs: every packed tap times `V` rows times
            // the columns its blocks sweep.
            let taps = self.operand.operand_rows.len();
            let work = taps * v * self.block_width * self.blocks_per_image;
            parallel::par_chunks_mut_weighted(&mut jobs, 1, work, |b, job| {
                let ((t, planes), tile) = &mut job[0];
                self.fill_image(input, b, t, false);
                self.sweep_image(t, planes, tile);
            });
        }
        Ok(out)
    }

    /// Executes into the flattened `M × N` implicit-GEMM output layout
    /// (`N = batch·OH·OW`, column `(b·OH + y)·OW + x`) — the shape the
    /// im2col oracle produces, kept for bit-identity comparisons and
    /// flattened-output consumers. It is [`Self::execute`]
    /// plus a relayout: image `b`'s output plane of channel `o` becomes
    /// columns `b·OH·OW ..` of row `o`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if the input tensor does not
    /// match the geometry the plan was built for.
    pub fn execute_matrix(&self, input: &Tensor4) -> KernelResult<DenseMatrix> {
        let tensor = self.execute(input)?;
        let mut out = DenseMatrix::zeros(self.m, self.n);
        let plane = self.params.output_h() * self.params.output_w();
        for b in 0..self.params.batch {
            for o in 0..self.m {
                out.row_mut(o)[b * plane..][..plane]
                    .copy_from_slice(&tensor.as_slice()[(b * self.m + o) * plane..][..plane]);
            }
        }
        Ok(out)
    }

    /// Sweeps every weight group over one image's filled slab `t` and copies
    /// the results into the image's NCHW output planes `out`. Per group, the
    /// block-major accumulator `tile` holds one contiguous `V × bw` slab per
    /// row block, so every sweep call writes one dense tile exactly like the
    /// stitched SpMM sweep. **Panels outer, row blocks inner**,
    /// so each packed panel and its tap row stream from L1 across every block
    /// instead of re-streaming the whole panel set per block.
    fn sweep_image(&self, t: &[f32], out: &mut [f32], tile: &mut [f32]) {
        let p = &self.params;
        let (oh, ow) = (p.output_h(), p.output_w());
        let op = &self.operand;
        let v = op.packed.panel_rows();
        let bw = self.block_width;
        let slab = v * bw;
        // Operand distance between consecutive output rows of one image.
        let row_step = p.stride * self.wrow;
        let span = [SegmentSpan {
            start: 0,
            width: bw,
        }];
        for (g, &start) in op.group_start.iter().enumerate() {
            let panels = op.packed.chunk_panels(g);
            if panels.is_empty() {
                continue; // all-zero group: output rows stay zero
            }
            tile.fill(0.0);
            let mut taps = &op.operand_rows[start..];
            for panel in panels {
                let (values, rows, kk) = op.packed.panel(panel);
                debug_assert_eq!(rows, v);
                debug_assert!(kk <= op.depth);
                let (step_taps, rest) = taps.split_at(kk);
                taps = rest;
                for (blk, acc) in tile.chunks_exact_mut(slab).enumerate() {
                    let block = &t[blk * self.rows_per_block * row_step..];
                    // Rounded panels against the rounded slab: fused.
                    mma_sweep::<false, true>(values, v, block, step_taps, 1, acc, bw, &span);
                }
            }
            for sr in 0..v {
                let orow = op.output_rows[g * v + sr] as usize;
                let plane = &mut out[orow * oh * ow..][..oh * ow];
                for (blk, acc) in tile.chunks_exact(slab).enumerate() {
                    let row = &acc[sr * bw..][..bw];
                    let y0 = blk * self.rows_per_block;
                    if row_step == ow {
                        // Gap-free merge (`1×1` stride 1): one contiguous copy.
                        plane[y0 * ow..][..bw].copy_from_slice(row);
                    } else {
                        for y in 0..self.rows_per_block {
                            plane[(y0 + y) * ow..][..ow]
                                .copy_from_slice(&row[y * row_step..][..ow]);
                        }
                    }
                }
            }
        }
    }

    /// Stages image `b` of the input into its phase-split slab `t`
    /// (`image_len` elements): zero-padded coordinates `(py, px) = (iy +
    /// padding, ix + padding)`, fp16-pre-rounded values, `px` stored at
    /// `(px % stride)·Lφ + px / stride` within its row. Padding positions
    /// are never written — the buffer arrives
    /// zeroed (at build for the pooled scratch, at allocation for the
    /// fallback) and every valid position is overwritten on every call, so
    /// no per-call clear is needed.
    ///
    /// With `split_planes` the channel planes are staged in parallel (a
    /// batch-1 execute has no other images to spread over the cores);
    /// otherwise the caller's thread stages the whole slab.
    fn fill_image(&self, input: &Tensor4, b: usize, t: &mut [f32], split_planes: bool) {
        let p = &self.params;
        let plane_len = self.hpad * self.wrow;
        let run = if split_planes { plane_len } else { t.len() };
        if p.stride == 1 && p.padding == 0 {
            // Gap-free geometry (`hpad = H`, `wrow = W`): the transform is the
            // identity on the image's contiguous NCHW planes, a fused
            // copy+round pass.
            let src = &input.as_slice()[b * t.len()..][..t.len()];
            parallel::par_chunks_mut(t, run, |i, dst| {
                round_to_f16_into(dst, &src[i * run..][..dst.len()]);
            });
            return;
        }
        let (hpad, wrow, lphi, st) = (self.hpad, self.wrow, self.lphi, p.stride);
        let px0 = p.padding;
        let px1 = (p.padding + p.input_w).min(wrow);
        parallel::par_chunks_mut(t, run, |i, dst| {
            let c0 = i * run / plane_len;
            for (j, plane) in dst.chunks_exact_mut(plane_len).enumerate() {
                for iy in 0..p.input_h {
                    let py = iy + p.padding;
                    if py >= hpad {
                        break; // rows the output never reads are cropped
                    }
                    let in_row = input.plane_row(b, c0 + j, iy);
                    let row = &mut plane[py * wrow..(py + 1) * wrow];
                    if st == 1 {
                        // Phase-split collapses to the identity at stride 1.
                        row[px0..px1].copy_from_slice(&in_row[..px1 - px0]);
                    } else {
                        for px in px0..px1 {
                            row[px % st * lphi + px / st] = in_row[px - p.padding];
                        }
                    }
                }
            }
        });
        // One branchless whole-slab rounding pass: long enough to
        // auto-vectorise (per-row rounding of narrow maps pays the vector
        // prologue every few dozen elements), and re-rounding the padding
        // zeros is a bit-exact no-op (`±0.0` round to themselves).
        round_to_f16_slice(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SpmmPlan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;

    fn shfl_weights(rng: &mut StdRng, m: usize, k: usize, v: usize, density: f64) -> ShflBwMatrix {
        let groups = m / v;
        let keep: Vec<bool> = (0..groups * k).map(|_| rng.gen_bool(density)).collect();
        let dense = shfl_core::matrix::DenseMatrix::from_fn(m, k, |r, c| {
            if keep[(r % groups) * k + c] {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        ShflBwMatrix::from_dense(&dense, v).unwrap()
    }

    /// The oracle: the materialised unfolding on an exact-width stitched SpMM
    /// plan, folded back to NCHW.
    fn im2col_oracle(
        arch: &GpuArch,
        weights: &ShflBwMatrix,
        p: &Conv2dParams,
        input: &Tensor4,
    ) -> Tensor4 {
        let unfolded = conv::im2col(input, p);
        let plan = SpmmPlan::shfl_bw(arch, weights, unfolded.cols());
        let out = plan.execute(&unfolded).unwrap().output;
        conv::reclaim_unfolded(unfolded);
        conv::col2im_output(&out, p)
    }

    fn params() -> Conv2dParams {
        Conv2dParams {
            batch: 2,
            in_channels: 4,
            out_channels: 8,
            input_h: 10,
            input_w: 10,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        }
    }

    #[test]
    fn implicit_plan_is_bit_identical_to_the_im2col_oracle() {
        let mut rng = StdRng::seed_from_u64(23);
        let p = params();
        let (m, _, k) = p.implicit_gemm_shape();
        let weights = shfl_weights(&mut rng, m, k, 4, 0.4);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let arch = GpuArch::a100();
        let implicit = ImplicitConvPlan::build(&arch, &weights, &p).unwrap();
        let got = implicit.execute(&input).unwrap();
        assert_same_bits(&got, &im2col_oracle(&arch, &weights, &p, &input));
    }

    #[test]
    fn execute_matrix_matches_the_tensor_output_layout() {
        let mut rng = StdRng::seed_from_u64(29);
        let p = params();
        let (m, _, k) = p.implicit_gemm_shape();
        let weights = shfl_weights(&mut rng, m, k, 4, 0.5);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let plan = ImplicitConvPlan::build(&GpuArch::v100(), &weights, &p).unwrap();
        let tensor = plan.execute(&input).unwrap();
        let matrix = plan.execute_matrix(&input).unwrap();
        let (oh, ow) = (p.output_h(), p.output_w());
        for o in 0..p.out_channels {
            for b in 0..p.batch {
                for y in 0..oh {
                    for x in 0..ow {
                        let want = tensor.get(b, o, y, x);
                        let got = matrix.row(o)[(b * oh + y) * ow + x];
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn build_rejects_mismatched_weights_and_execute_rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(31);
        let p = params();
        let wrong = shfl_weights(&mut rng, 8, 8, 4, 0.5);
        let arch = GpuArch::v100();
        assert!(ImplicitConvPlan::build(&arch, &wrong, &p).is_err());
        let (m, _, k) = p.implicit_gemm_shape();
        let weights = shfl_weights(&mut rng, m, k, 4, 0.5);
        let plan = ImplicitConvPlan::build(&arch, &weights, &p).unwrap();
        let bad = Tensor4::zeros(1, p.in_channels, p.input_h, p.input_w);
        assert!(plan.execute(&bad).is_err());
    }

    /// A plan sized past the fan-out threshold (batch 3 splits unevenly over
    /// two workers), its input, and the im2col oracle's output.
    fn fan_out_case(seed: u64) -> (ImplicitConvPlan, Tensor4, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Conv2dParams {
            batch: 3,
            in_channels: 16,
            out_channels: 16,
            input_h: 12,
            input_w: 12,
            ..params()
        };
        let (m, _, k) = p.implicit_gemm_shape();
        let weights = shfl_weights(&mut rng, m, k, 4, 0.5);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let arch = GpuArch::a100();
        let plan = ImplicitConvPlan::build(&arch, &weights, &p).unwrap();
        let want = im2col_oracle(&arch, &weights, &p, &input);
        (plan, input, want)
    }

    fn assert_same_bits(got: &Tensor4, want: &Tensor4) {
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    fn scratch_is_untouched(t: &[f32]) -> bool {
        t.iter().all(|&v| v == 0.0)
    }

    #[test]
    fn a_poisoned_scratch_lock_is_recovered_and_reused() {
        let (plan, input, want) = fan_out_case(41);
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = plan.scratch.lock().unwrap();
                panic!("poison the scratch lock");
            })
            .join()
        });
        assert!(poisoner.is_err() && plan.scratch.is_poisoned());
        let got = plan.execute(&input).unwrap();
        assert_same_bits(&got, &want);
        let t = plan.scratch.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!scratch_is_untouched(&t), "execute must reuse the scratch");
    }

    #[test]
    fn concurrent_executes_use_the_scratch_and_the_fallback_bit_identically() {
        let (plan, input, want) = fan_out_case(43);
        let held = Barrier::new(2);
        let fallback_done = Barrier::new(2);
        std::thread::scope(|s| {
            // The scratch holder executes only after the other thread's
            // execute has finished on a fresh buffer.
            let holder = s.spawn(|| {
                let guard = plan.scratch.lock().unwrap();
                held.wait();
                fallback_done.wait();
                assert!(
                    scratch_is_untouched(&guard),
                    "contended execute used the scratch"
                );
                drop(guard);
                plan.execute(&input).unwrap()
            });
            held.wait();
            let fallback = plan.execute(&input);
            fallback_done.wait();
            assert_same_bits(&fallback.unwrap(), &want);
            assert_same_bits(&holder.join().unwrap(), &want);
        });
        let t = plan.scratch.lock().unwrap();
        assert!(
            !scratch_is_untouched(&t),
            "uncontended execute must use the scratch"
        );
    }

    #[test]
    fn byte_accounting_includes_the_transform_scratch() {
        let mut rng = StdRng::seed_from_u64(37);
        let p = params();
        let (m, _, k) = p.implicit_gemm_shape();
        let weights = shfl_weights(&mut rng, m, k, 4, 0.5);
        let plan = ImplicitConvPlan::build(&GpuArch::v100(), &weights, &p).unwrap();
        assert!(plan.packed_bytes() > plan.operand.packed_bytes());
        assert!(plan.packed_bytes() >= plan.input_bytes_read() as usize);
        assert!(plan.im2col_bytes_avoided() > plan.input_bytes_read());
    }
}
