//! 2-D convolution via the implicit-GEMM algorithm (§4.1 of the paper).
//!
//! The paper implements its convolution kernels with implicit GEMM: the input feature
//! map is unfolded into a matrix *temporarily in on-chip buffers* while the weight
//! tensor, flattened to `O × (C·R·S)`, is the (possibly Shfl-BW-pruned) left operand.
//! This module provides
//!
//! * [`Tensor4`] — a minimal NCHW activation tensor,
//! * [`Conv2dParams`] — convolution geometry and its implicit-GEMM shape,
//! * [`im2col`] — the unfolding used by the functional kernels and the reference,
//! * dense and Shfl-BW convolution kernels (functional `_execute` and analytical
//!   `_profile` faces), which delegate their cost model to the corresponding GEMM /
//!   SpMM kernels on the implicit-GEMM shape. The im2col duplication is staged through
//!   shared memory on a real GPU, so approximating its DRAM traffic with the GEMM
//!   operand affects dense and sparse kernels alike and preserves the speedup ratios
//!   the paper reports.

use crate::gemm;
use crate::profile::{KernelProfile, KernelResult};
use crate::spmm::shfl_bw::shfl_bw_spmm_profile;
use gpu_sim::stats::TrafficCounter;
use gpu_sim::GpuArch;
use rand::Rng;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use std::cell::RefCell;

/// Bytes materialised into full `K × N` im2col buffers since process start.
///
/// The implicit-GEMM conv path ([`crate::conv_plan`]) never calls [`im2col`], so
/// the bench harness uses the delta of this counter across a forward pass to
/// *prove* the implicit path moved zero im2col bytes rather than merely claim it.
static IM2COL_TRAFFIC: TrafficCounter = TrafficCounter::new();

/// Cumulative bytes written into materialised im2col buffers (see
/// [`IM2COL_TRAFFIC`]). Monotonically increasing; callers diff two readings.
pub fn im2col_traffic_bytes() -> u64 {
    IM2COL_TRAFFIC.bytes()
}

thread_local! {
    /// Per-thread scratch backing for [`im2col`] so the retained oracle path
    /// reuses one allocation per thread instead of allocating the full `K × N`
    /// buffer on every call.
    static UNFOLD_POOL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Returns an unfolded buffer produced by [`im2col`] to the thread-local
/// scratch pool so the next [`im2col`] call on this thread reuses its
/// allocation. Dropping the matrix instead is always correct — this is purely
/// an allocation-traffic optimisation for the retained im2col oracle path.
pub fn reclaim_unfolded(unfolded: DenseMatrix) {
    let buf = unfolded.into_vec();
    UNFOLD_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if buf.capacity() > pool.capacity() {
            *pool = buf;
        }
    });
}

/// A minimal NCHW activation tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Creates a zero-filled tensor.
    pub fn zeros(batch: usize, channels: usize, height: usize, width: usize) -> Self {
        Tensor4 {
            batch,
            channels,
            height,
            width,
            data: vec![0.0; batch * channels * height * width],
        }
    }

    /// Creates a tensor with elements drawn uniformly from `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(
        rng: &mut R,
        batch: usize,
        channels: usize,
        height: usize,
        width: usize,
    ) -> Self {
        let mut t = Tensor4::zeros(batch, channels, height, width);
        for v in &mut t.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        t
    }

    /// `(batch, channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.batch, self.channels, self.height, self.width)
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        assert!(
            n < self.batch && c < self.channels && h < self.height && w < self.width,
            "tensor index out of bounds"
        );
        self.data[((n * self.channels + c) * self.height + h) * self.width + w]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        assert!(
            n < self.batch && c < self.channels && h < self.height && w < self.width,
            "tensor index out of bounds"
        );
        self.data[((n * self.channels + c) * self.height + h) * self.width + w] = value;
    }

    /// Borrow of one spatial row — the `width` contiguous elements at
    /// `(n, c, h, ..)` — as a slice. The blocked im2col stages activation
    /// segments from these with `copy_from_slice` instead of per-element
    /// `get` calls.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn plane_row(&self, n: usize, c: usize, h: usize) -> &[f32] {
        assert!(
            n < self.batch && c < self.channels && h < self.height,
            "tensor index out of bounds"
        );
        let offset = ((n * self.channels + c) * self.height + h) * self.width;
        &self.data[offset..offset + self.width]
    }

    /// Mutable borrow of one spatial row (see [`Tensor4::plane_row`]).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn plane_row_mut(&mut self, n: usize, c: usize, h: usize) -> &mut [f32] {
        assert!(
            n < self.batch && c < self.channels && h < self.height,
            "tensor index out of bounds"
        );
        let offset = ((n * self.channels + c) * self.height + h) * self.width;
        &mut self.data[offset..offset + self.width]
    }

    /// Flat NCHW backing slice (`((n·C + c)·H + h)·W + w` element order).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat NCHW backing slice (see [`Tensor4::as_slice`]).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor4) -> f32 {
        assert_eq!(self.shape(), other.shape(), "tensor shapes differ");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Geometry of a 2-D convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Batch size.
    pub batch: usize,
    /// Input channels `C`.
    pub in_channels: usize,
    /// Output channels `O`.
    pub out_channels: usize,
    /// Input height.
    pub input_h: usize,
    /// Input width.
    pub input_w: usize,
    /// Kernel height `R`.
    pub kernel_h: usize,
    /// Kernel width `S`.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Dilation (same in both dimensions); `1` is an ordinary convolution.
    pub dilation: usize,
}

impl Conv2dParams {
    /// Output height.
    pub fn output_h(&self) -> usize {
        (self.input_h + 2 * self.padding - self.dilation * (self.kernel_h - 1) - 1) / self.stride
            + 1
    }

    /// Output width.
    pub fn output_w(&self) -> usize {
        (self.input_w + 2 * self.padding - self.dilation * (self.kernel_w - 1) - 1) / self.stride
            + 1
    }

    /// The implicit-GEMM shape `(M, N, K)`: `M = O`, `N = batch·OH·OW`,
    /// `K = C·R·S`.
    pub fn implicit_gemm_shape(&self) -> (usize, usize, usize) {
        (
            self.out_channels,
            self.batch * self.output_h() * self.output_w(),
            self.in_channels * self.kernel_h * self.kernel_w,
        )
    }

    /// FLOPs of the convolution (`2·M·N·K`).
    pub fn flops(&self) -> u64 {
        let (m, n, k) = self.implicit_gemm_shape();
        2 * (m as u64) * (n as u64) * (k as u64)
    }
}

/// Unfolds the input tensor into the `K × N` implicit-GEMM operand
/// (`K = C·R·S`, `N = batch·OH·OW`), applying zero padding.
///
/// The unfolding is blocked: each output row is one `(c, r, s)` filter tap, and
/// for a fixed `(batch, y)` the `OW` consecutive output columns read from one
/// spatial row of the input. With `stride == 1` that read is a single contiguous
/// segment, staged with `copy_from_slice`; strided convolutions fall back to a
/// per-element gather over the same slice. Rows are independent, so they are
/// distributed across cores. Values are identical to the historical per-element
/// gather (`crate::reference::im2col_naive`) — this path only changes how the
/// copies are issued.
pub fn im2col(input: &Tensor4, params: &Conv2dParams) -> DenseMatrix {
    let (_, n, k) = {
        let (m, n, k) = params.implicit_gemm_shape();
        (m, n, k)
    };
    let (oh, ow) = (params.output_h(), params.output_w());
    IM2COL_TRAFFIC.add((k * n * 4) as u64);
    let mut buf = UNFOLD_POOL.with(|pool| std::mem::take(&mut *pool.borrow_mut()));
    buf.clear();
    buf.resize(k * n, 0.0);
    let mut out = DenseMatrix::from_vec(k, n, buf).expect("pooled buffer resized to k*n");
    if k == 0 || n == 0 {
        return out;
    }
    shfl_core::parallel::par_chunks_mut(out.as_mut_slice(), n, |row, out_row| {
        // row = (c * R + r) * S + s ; col = (b * OH + y) * OW + x
        let s = row % params.kernel_w;
        let r = (row / params.kernel_w) % params.kernel_h;
        let c = row / (params.kernel_w * params.kernel_h);
        for b in 0..params.batch {
            for y in 0..oh {
                let seg = &mut out_row[(b * oh + y) * ow..(b * oh + y + 1) * ow];
                let in_y =
                    (y * params.stride + r * params.dilation) as isize - params.padding as isize;
                if in_y < 0 || in_y as usize >= params.input_h {
                    continue; // entire segment stays zero-padded
                }
                let in_row = input.plane_row(b, c, in_y as usize);
                let offset = (s * params.dilation) as isize - params.padding as isize;
                if params.stride == 1 {
                    // x maps to in_x = x + offset: one contiguous valid run.
                    let x0 = (-offset).max(0) as usize;
                    let x1 = (params.input_w as isize - offset).clamp(0, ow as isize) as usize;
                    if x1 > x0 {
                        seg[x0..x1].copy_from_slice(
                            &in_row
                                [(x0 as isize + offset) as usize..(x1 as isize + offset) as usize],
                        );
                    }
                } else {
                    for (x, o) in seg.iter_mut().enumerate() {
                        let in_x = (x * params.stride) as isize + offset;
                        if in_x >= 0 && (in_x as usize) < params.input_w {
                            *o = in_row[in_x as usize];
                        }
                    }
                }
            }
        }
    });
    out
}

/// Reshapes the `O × N` implicit-GEMM output back into an NCHW tensor, packing
/// one `OW`-wide spatial row per `copy_from_slice`. Public counterpart of
/// [`im2col`]: the serving stack unfolds conv inputs, serves the flattened
/// operand through the bucketed SpMM path, and folds the result back here.
pub fn col2im_output(output: &DenseMatrix, params: &Conv2dParams) -> Tensor4 {
    let (oh, ow) = (params.output_h(), params.output_w());
    let mut t = Tensor4::zeros(params.batch, params.out_channels, oh, ow);
    if ow == 0 {
        return t;
    }
    for o in 0..params.out_channels {
        let src = output.row(o);
        for b in 0..params.batch {
            for y in 0..oh {
                t.plane_row_mut(b, o, y)
                    .copy_from_slice(&src[(b * oh + y) * ow..(b * oh + y + 1) * ow]);
            }
        }
    }
    t
}

/// Direct (naive) convolution used as the golden reference for the functional kernels.
/// `weights` is the flattened `O × (C·R·S)` filter matrix.
pub fn conv2d_reference(input: &Tensor4, weights: &DenseMatrix, params: &Conv2dParams) -> Tensor4 {
    let unfolded = im2col(input, params);
    let out = weights
        .matmul(&unfolded)
        .expect("implicit GEMM shapes match");
    reclaim_unfolded(unfolded);
    col2im_output(&out, params)
}

/// Analytical profile of the dense (cuDNN-like) implicit-GEMM convolution.
pub fn conv2d_dense_profile(arch: &GpuArch, params: &Conv2dParams) -> KernelProfile {
    let (m, n, k) = params.implicit_gemm_shape();
    let mut p = gemm::dense_gemm_profile(arch, m, n, k);
    p.name = "dense-conv2d".to_string();
    p
}

/// Analytical profile of the Shfl-BW implicit-GEMM convolution: the flattened filter
/// matrix is Shfl-BW-pruned and consumed by the Shfl-BW SpMM main loop.
pub fn conv2d_shfl_bw_profile(
    arch: &GpuArch,
    weights: &ShflBwMatrix,
    params: &Conv2dParams,
) -> KernelProfile {
    let (_, n, _) = params.implicit_gemm_shape();
    let mut p = shfl_bw_spmm_profile(arch, weights, n);
    p.name = format!("shfl-bw-conv2d(V={})", weights.vector_size());
    p
}

/// Functionally executes the dense implicit-GEMM convolution.
///
/// This is the cold path: a thin wrapper that builds a
/// [`crate::plan::ConvPlan`] for this single call and executes it.
///
/// # Errors
///
/// Returns [`crate::KernelError::ShapeMismatch`] if the flattened filter matrix does not
/// match the convolution geometry or the input does not match it.
pub fn conv2d_dense_execute(
    arch: &GpuArch,
    weights: &DenseMatrix,
    input: &Tensor4,
    params: &Conv2dParams,
) -> KernelResult<(Tensor4, KernelProfile)> {
    crate::plan::ConvPlan::dense(arch, weights, params)?.execute(input)
}

/// Functionally executes the Shfl-BW implicit-GEMM convolution (stitched main loop +
/// reordered write-back over the unfolded input).
///
/// This is the cold path: a thin wrapper that builds a
/// [`crate::plan::ConvPlan`] for this single call and executes it.
///
/// # Errors
///
/// Returns [`crate::KernelError::ShapeMismatch`] if the pruned filter matrix does not match
/// the convolution geometry or the input does not match it.
pub fn conv2d_shfl_bw_execute(
    arch: &GpuArch,
    weights: &ShflBwMatrix,
    input: &Tensor4,
    params: &Conv2dParams,
) -> KernelResult<(Tensor4, KernelProfile)> {
    crate::plan::ConvPlan::shfl_bw(arch, weights, params)?.execute(input)
}

/// Keep the `ShflBwKernelConfig` re-export close to the conv API for discoverability
/// in docs (the conv kernel shares the SpMM configuration).
pub use crate::spmm::shfl_bw::ShflBwKernelConfig as ConvShflBwKernelConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_params() -> Conv2dParams {
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
    fn geometry_is_consistent() {
        let p = small_params();
        assert_eq!(p.output_h(), 10);
        assert_eq!(p.output_w(), 10);
        assert_eq!(p.implicit_gemm_shape(), (8, 2 * 10 * 10, 4 * 3 * 3));
        assert_eq!(p.flops(), 2 * 8 * 200 * 36);
    }

    #[test]
    fn dense_execute_matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = small_params();
        let (m, _, k) = p.implicit_gemm_shape();
        let weights = DenseMatrix::random(&mut rng, m, k);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let arch = GpuArch::v100();
        let (out, profile) = conv2d_dense_execute(&arch, &weights, &input, &p).unwrap();
        let reference = conv2d_reference(&input, &weights, &p);
        assert!(out.max_abs_diff(&reference) < 5e-2);
        assert_eq!(profile.name, "dense-conv2d");
    }

    #[test]
    fn shfl_bw_execute_matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = small_params();
        let (m, _, k) = p.implicit_gemm_shape();
        // Build a Shfl-BW-structured filter: groups of 4 output channels share a
        // column pattern, scattered by taking channels modulo the group count.
        let groups = m / 4;
        let patterns: Vec<Vec<bool>> = (0..groups)
            .map(|_| (0..k).map(|_| rng.gen_bool(0.4)).collect())
            .collect();
        let weights_dense = DenseMatrix::from_fn(m, k, |r, c| {
            if patterns[r % groups][c] {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        let weights = ShflBwMatrix::from_dense(&weights_dense, 4).unwrap();
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let arch = GpuArch::a100();
        let (out, _) = conv2d_shfl_bw_execute(&arch, &weights, &input, &p).unwrap();
        let reference = conv2d_reference(&input, &weights_dense, &p);
        assert!(out.max_abs_diff(&reference) < 5e-2);
    }

    #[test]
    fn execute_rejects_mismatched_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = small_params();
        let arch = GpuArch::v100();
        let weights = DenseMatrix::random(&mut rng, 3, 3);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        assert!(conv2d_dense_execute(&arch, &weights, &input, &p).is_err());
    }

    #[test]
    fn sparse_conv_profile_is_faster_than_dense_at_75_percent() {
        let mut rng = StdRng::seed_from_u64(11);
        // A ResNet-like layer: 256 -> 256 channels, 3x3, 14x14 feature map.
        let p = Conv2dParams {
            batch: 8,
            in_channels: 256,
            out_channels: 256,
            input_h: 14,
            input_w: 14,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        let (m, _, k) = p.implicit_gemm_shape();
        let v = 64;
        let groups = m / v;
        let patterns: Vec<Vec<bool>> = (0..groups)
            .map(|_| (0..k).map(|_| rng.gen_bool(0.25)).collect())
            .collect();
        let weights_dense =
            DenseMatrix::from_fn(m, k, |r, c| if patterns[r % groups][c] { 0.1 } else { 0.0 });
        let weights = ShflBwMatrix::from_dense(&weights_dense, v).unwrap();
        for arch in GpuArch::all() {
            let dense_t = conv2d_dense_profile(&arch, &p).time_us();
            let sparse_t = conv2d_shfl_bw_profile(&arch, &weights, &p).time_us();
            assert!(
                sparse_t < dense_t,
                "{}: sparse conv {sparse_t:.2}us vs dense {dense_t:.2}us",
                arch.name
            );
        }
    }

    #[test]
    fn tensor4_accessors_and_diff() {
        let mut t = Tensor4::zeros(1, 2, 3, 3);
        t.set(0, 1, 2, 2, 5.0);
        assert_eq!(t.get(0, 1, 2, 2), 5.0);
        let u = Tensor4::zeros(1, 2, 3, 3);
        assert_eq!(t.max_abs_diff(&u), 5.0);
    }

    #[test]
    fn im2col_applies_padding() {
        let p = Conv2dParams {
            batch: 1,
            in_channels: 1,
            out_channels: 1,
            input_h: 2,
            input_w: 2,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        let mut input = Tensor4::zeros(1, 1, 2, 2);
        input.set(0, 0, 0, 0, 1.0);
        let unfolded = im2col(&input, &p);
        assert_eq!(unfolded.shape(), (9, 4));
        // The single non-zero shows up where the kernel window covers (0,0).
        assert!(unfolded.nnz() > 0 && unfolded.nnz() <= 4);
    }

    #[test]
    fn dilated_unfolding_matches_the_naive_gather() {
        let p = Conv2dParams {
            batch: 2,
            in_channels: 2,
            out_channels: 1,
            input_h: 9,
            input_w: 7,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 2,
            dilation: 2,
        };
        assert_eq!(p.output_h(), 5);
        assert_eq!(p.output_w(), 4);
        let mut rng = StdRng::seed_from_u64(13);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let unfolded = im2col(&input, &p);
        let (oh, ow) = (p.output_h(), p.output_w());
        for row in 0..p.in_channels * p.kernel_h * p.kernel_w {
            let s = row % p.kernel_w;
            let r = (row / p.kernel_w) % p.kernel_h;
            let c = row / (p.kernel_w * p.kernel_h);
            for b in 0..p.batch {
                for y in 0..oh {
                    for x in 0..ow {
                        let in_y = (y * p.stride + r * p.dilation) as isize - p.padding as isize;
                        let in_x = (x * p.stride + s * p.dilation) as isize - p.padding as isize;
                        let expected = if in_y >= 0
                            && (in_y as usize) < p.input_h
                            && in_x >= 0
                            && (in_x as usize) < p.input_w
                        {
                            input.get(b, c, in_y as usize, in_x as usize)
                        } else {
                            0.0
                        };
                        let got = unfolded.row(row)[(b * oh + y) * ow + x];
                        assert_eq!(got.to_bits(), expected.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_charges_traffic_and_reuses_the_reclaimed_scratch() {
        let p = small_params();
        let (_, n, k) = p.implicit_gemm_shape();
        let mut rng = StdRng::seed_from_u64(17);
        let input = Tensor4::random(&mut rng, p.batch, p.in_channels, p.input_h, p.input_w);
        let before = im2col_traffic_bytes();
        let first = im2col(&input, &p);
        assert_eq!(im2col_traffic_bytes() - before, (k * n * 4) as u64);
        let expected = first.clone();
        reclaim_unfolded(first);
        // The second call must be value-identical even though it reuses the
        // pooled (dirty) backing buffer.
        let second = im2col(&input, &p);
        for row in 0..k {
            assert_eq!(second.row(row), expected.row(row), "row {row} differs");
        }
    }
}
