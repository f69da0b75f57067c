//! Functional model of the tensor-core matrix-multiply-accumulate (MMA) instruction.
//!
//! The paper's kernels are built around the Volta/Turing/Ampere half-precision MMA
//! instruction with granularity `M/N/K = 16/8/16` (§2.1). This module provides the
//! fragment shapes and the two MMA entry points of the simulated kernels in
//! `shfl-kernels`. Operands are stored as `f32` in the simulator but can be rounded
//! through fp16 on the way in to mimic half-precision inputs with fp32 accumulation.
//!
//! * [`warp_mma`] — one complete, padded fragment MMA with optional fp16 rounding:
//!   the building block of the naive oracles in `shfl_kernels::reference`.
//!   Rounding is hoisted out of the `m·n·k` inner loop by pre-rounding each
//!   operand fragment once — bit-identical to rounding every element at its point
//!   of use, because the conversion is element-wise.
//! * [`mma_sweep`] — the one production panel sweep every prepared plan runs: a
//!   packed `rows × kk` weight panel times the `kk` operand rows its metadata
//!   names, accumulated into full-width output rows over a list of column
//!   [`SegmentSpan`]s. Reduction step `p` reads the operand row that starts at
//!   `offs[p]·scale`, which covers every kernel: consecutive rows (dense and
//!   block panels), gathered rows (the stitched vector-wise / Shfl-BW panels and
//!   CSR rows) and per-tap element offsets into a padded input transform (the
//!   implicit-GEMM convolution, `scale = 1`). It dispatches to the active
//!   [`crate::simd`] tier. The vector tiers sweep **four output rows at once**,
//!   the CPU analogue of an MMA fragment reusing each operand element across
//!   its rows: a `4 × 32`-column register tile (AVX-512; `4 × 16` at AVX2,
//!   `4 × 8` at SSE2) loads each operand vector once per reduction step and
//!   multiplies it by four broadcast weights. A tile's last few columns (fewer
//!   than one vector) take one more vector step that reads and writes only the
//!   live lanes — at AVX-512 under a mask register, in a 256-bit step when at
//!   most 8 columns are left — so a ragged width costs about one extra
//!   vector, as a narrow MMA tile costs one padded instruction
//!   ([`MmaShape::instructions_for`]). Rows past the last multiple of four and
//!   the scalar tier sweep one row at a time.
//!
//! Both accumulate each output element in ascending-`k` order with a single `f32`
//! accumulator, so any decomposition of a GEMM into these calls that visits `k` in
//! ascending order produces bit-identical results. A register tile only decides
//! which register lane holds an element while its products arrive: whatever
//! the tile's shape, the element still takes its `kk` products one by one, in
//! ascending `p`, through its own lane, each rounded as the scalar tier rounds
//! it, so tile shapes can never change a bit of the output.

pub use shfl_core::f16::round_to_f16;

#[cfg(target_arch = "x86_64")]
use crate::simd::{x86, SimdTier};

/// Tensor-core MMA instruction shapes relevant to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmaShape {
    /// `mma.sync.m16n8k16` — the native half-precision shape on Volta/Turing/Ampere.
    M16N8K16,
    /// `mma.sync.m16n8k8` — the smaller reduction-depth variant.
    M16N8K8,
    /// `wmma` 16×16×16 — the CUDA C++ WMMA API tile.
    M16N16K16,
}

impl MmaShape {
    /// Rows of the accumulator fragment (`M`).
    pub fn m(&self) -> usize {
        16
    }

    /// Columns of the accumulator fragment (`N`).
    pub fn n(&self) -> usize {
        match self {
            MmaShape::M16N8K16 | MmaShape::M16N8K8 => 8,
            MmaShape::M16N16K16 => 16,
        }
    }

    /// Reduction depth of one instruction (`K`).
    pub fn k(&self) -> usize {
        match self {
            MmaShape::M16N8K16 | MmaShape::M16N16K16 => 16,
            MmaShape::M16N8K8 => 8,
        }
    }

    /// Multiply-accumulate operations performed by one instruction.
    pub fn macs(&self) -> usize {
        self.m() * self.n() * self.k()
    }

    /// FLOPs performed by one instruction (2 FLOPs per MAC).
    pub fn flops(&self) -> usize {
        2 * self.macs()
    }

    /// Number of MMA instructions needed to cover an `m × n × k` tile, rounding each
    /// dimension up to the instruction granularity. This is the quantity the paper's
    /// §2.1 calls the "matrix-shaped instruction granularity" cost: tiles smaller than
    /// the instruction still pay for a full instruction.
    pub fn instructions_for(&self, m: usize, n: usize, k: usize) -> usize {
        let mi = m.div_ceil(self.m());
        let ni = n.div_ceil(self.n());
        let ki = k.div_ceil(self.k());
        mi * ni * ki
    }

    /// Fraction of the MACs issued by [`MmaShape::instructions_for`] that are useful
    /// for an `m × n × k` tile (1.0 when every dimension is a multiple of the
    /// instruction shape).
    pub fn utilization_for(&self, m: usize, n: usize, k: usize) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let useful = (m * n * k) as f64;
        let issued = (self.instructions_for(m, n, k) * self.macs()) as f64;
        useful / issued
    }
}

/// Largest fragment buffer any [`MmaShape`] needs (`16×16` operands).
const MAX_FRAGMENT: usize = 16 * 16;

/// Performs one warp-level MMA: `c[m×n] += a[m×k] · b[k×n]`, all row-major dense
/// fragments, with operands optionally rounded through fp16 and accumulation in f32.
///
/// This is the entry point of the naive reference kernels: callers stage
/// complete (zero-padded) fragments and invoke it per `mma.sync`. When
/// `round_operands_to_f16` is set, each operand fragment is pre-rounded once into a
/// stack buffer before the multiply loops — the fp16 conversion is element-wise, so
/// this produces bit-identical results to the historical implementation that
/// re-rounded both operands inside the `m·n·k` inner loop, at `m·k + k·n` instead of
/// `2·m·n·k` conversions.
///
/// # Panics
///
/// Panics if the slices do not match the fragment dimensions
/// (`a.len() == m*k`, `b.len() == k*n`, `c.len() == m*n`).
pub fn warp_mma(shape: MmaShape, a: &[f32], b: &[f32], c: &mut [f32], round_operands_to_f16: bool) {
    let (m, n, k) = (shape.m(), shape.n(), shape.k());
    assert_eq!(a.len(), m * k, "A fragment must be m*k elements");
    assert_eq!(b.len(), k * n, "B fragment must be k*n elements");
    assert_eq!(c.len(), m * n, "C fragment must be m*n elements");

    if round_operands_to_f16 {
        let mut a16 = [0.0f32; MAX_FRAGMENT];
        let mut b16 = [0.0f32; MAX_FRAGMENT];
        for (dst, src) in a16.iter_mut().zip(a.iter()) {
            *dst = round_to_f16(*src);
        }
        for (dst, src) in b16.iter_mut().zip(b.iter()) {
            *dst = round_to_f16(*src);
        }
        mma_loops(&a16[..a.len()], &b16[..b.len()], c, m, n, k);
    } else {
        mma_loops(a, b, c, m, n, k);
    }
}

/// The shared multiply-accumulate loops: ascending-`k` accumulation per output
/// element, one f32 accumulator each.
#[inline]
fn mma_loops(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// One output-column span of a sweep: columns `start .. start + width` of the
/// output and operand rows, which are stored with the sweep's row stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpan {
    /// First column of the span inside the full-width rows.
    pub start: usize,
    /// Number of columns the span covers.
    pub width: usize,
}

impl SegmentSpan {
    /// First column past the span.
    fn end(&self) -> usize {
        self.start + self.width
    }
}

/// The panel sweep of every prepared kernel: one `rows × kk` weight panel `a`
/// (row-major, `kk = offs.len()`) applied to the columns `j` of every span in
/// `spans`, for every output row `r`:
///
/// `c[r·stride + j] ⊕= Σₚ a[r·kk + p] · b[offs[p]·scale + j]`
///
/// Reduction step `p` reads the operand row that starts at `offs[p]·scale`.
/// Dense and block panels pass ascending row numbers and stitched panels and
/// CSR rows pass their kept column indices, all with `scale` equal to the
/// operand's row stride; the implicit-GEMM convolution passes per-tap element
/// offsets with `scale = 1` into a `b` that starts at its output block.
///
/// `LOAD_C` selects the accumulate mode. With `LOAD_C = true` each element
/// starts from its value in `c` and takes the products one by one; with
/// `LOAD_C = false` the products are summed from `+0.0` and the finished
/// partial is added to `c` once (the stitched kernels' per-step partial tile).
/// The two round differently. Either way an element's `kk` products arrive in
/// ascending `p` order through one `f32`, so every SIMD tier, register tile,
/// chunk width and span split gives the same bits. Spans are swept one after
/// another, so each span's operand columns stay cache-resident across all
/// `rows` output rows; within a span the vector tiers sweep four rows per
/// register tile. A call with `kk = 0` leaves `c` untouched.
///
/// `FUSED` lets the AVX-512 and AVX2 tiers take each product with one fused
/// multiply-add instead of a separately rounded multiply and add. Set it only
/// when every value of `a` and every operand value the spans read from `b` is
/// fp16-exact (a rounded panel against a rounded operand): a product of two
/// binary16 values is exact in `f32`, so the FMA rounds exactly where the
/// scalar tier's `c + a·b` does, and the bits do not change. On any other
/// operand an FMA skips the product's rounding and moves the last bit, so a
/// sweep of unrounded values (the CSR kernel's) leaves it off. SSE2 and the
/// scalar tier never fuse. Where two NaNs meet in one element, which payload
/// survives may differ between tiers; only its NaN-ness is fixed.
///
/// # Panics
///
/// Panics if `a.len() != rows·kk` or `c.len() != rows·stride`, if a span
/// reaches past `stride`, or if an operand row a span reads reaches past `b`.
/// These checks are what make the vector tiers' unchecked reads sound.
#[allow(clippy::too_many_arguments)] // a panel, its operand rows and its output spans
pub fn mma_sweep<const LOAD_C: bool, const FUSED: bool>(
    a: &[f32],
    rows: usize,
    b: &[f32],
    offs: &[u32],
    scale: usize,
    c: &mut [f32],
    stride: usize,
    spans: &[SegmentSpan],
) {
    let kk = offs.len();
    assert_eq!(a.len(), rows * kk, "A panel must be rows*kk elements");
    assert_eq!(
        c.len(),
        rows * stride,
        "C block must be rows*stride elements"
    );
    let mut reach = 0;
    for span in spans {
        assert!(
            span.end() <= stride,
            "span {}..{} exceeds the row stride {stride}",
            span.start,
            span.end()
        );
        reach = reach.max(span.end());
    }
    if rows == 0 || kk == 0 || reach == 0 {
        return;
    }
    for &off in offs {
        let row_end = (off as usize)
            .checked_mul(scale)
            .and_then(|start| start.checked_add(reach));
        assert!(
            row_end.is_some_and(|end| end <= b.len()),
            "operand row at offset {off} (scale {scale}) reaches past the operand"
        );
    }
    let tier = crate::simd::active_tier();
    for span in spans {
        let (start, end) = (span.start, span.end());
        match tier {
            // SAFETY: checked above: `kk > 0`, `a.len() == rows·kk`,
            // `c.len() == rows·stride` and `end <= stride`, so a 4-row tile
            // starting at row `r0 <= rows − 4` reads weights `a[(r0 + r)·kk +
            // p]` and touches outputs `c[(r0 + r)·stride + j]` (`r < 4`,
            // `p < kk`, `j < end`) inside both slices, as does every single
            // row; every operand row a tile column reads ends at
            // `offs[p]·scale + end <= b.len()`. Every step, the last one
            // included, touches only columns `start .. end`: the last step's
            // `__mmask16` / `__mmask8` masked loads and stores never access a
            // masked-off lane past `end`. The tier is only returned when the
            // CPU supports AVX-512F, AVX-512VL and FMA.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe {
                x86::span_avx512::<LOAD_C, FUSED>(a, b, offs, scale, c, stride, start, end)
            },
            // SAFETY: same bounds; the last step's `vmaskmovps` never
            // accesses a masked-off lane past `end`. The tier is only
            // returned when the CPU supports AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe {
                x86::span_avx2::<LOAD_C, FUSED>(a, b, offs, scale, c, stride, start, end)
            },
            // SAFETY: same bounds; the last step loads and stores only the
            // live lanes before `end`. SSE2 is baseline on x86-64.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => unsafe {
                x86::span_sse2::<LOAD_C, FUSED>(a, b, offs, scale, c, stride, start, end)
            },
            _ => {
                for (a_row, c_row) in a.chunks_exact(kk).zip(c.chunks_exact_mut(stride)) {
                    span_scalar::<LOAD_C>(a_row, b, offs, scale, c_row, start, end);
                }
            }
        }
    }
}

/// The scalar tier of [`mma_sweep`] for columns `start .. end` of one output
/// row (and the bit-identity oracle of the vector tiers): register chunks of
/// 64, 32, 16 and 8 columns, then a per-column tail.
fn span_scalar<const LOAD_C: bool>(
    a_row: &[f32],
    b: &[f32],
    offs: &[u32],
    scale: usize,
    c_row: &mut [f32],
    start: usize,
    end: usize,
) {
    let mut j0 = start;
    j0 = chunks::<64, LOAD_C>(a_row, b, offs, scale, c_row, end, j0);
    j0 = chunks::<32, LOAD_C>(a_row, b, offs, scale, c_row, end, j0);
    j0 = chunks::<16, LOAD_C>(a_row, b, offs, scale, c_row, end, j0);
    j0 = chunks::<8, LOAD_C>(a_row, b, offs, scale, c_row, end, j0);
    for j in j0..end {
        let mut part = if LOAD_C { c_row[j] } else { 0.0 };
        for (&av, &off) in a_row.iter().zip(offs) {
            part += av * b[off as usize * scale + j];
        }
        if LOAD_C {
            c_row[j] = part;
        } else {
            c_row[j] += part;
        }
    }
}

/// Sweeps every full `BLK`-wide chunk of columns `j0 .. end`, holding the
/// chunk in registers across the whole reduction (wide chunks give the
/// superscalar units several independent accumulation chains), loaded or
/// zeroed once and stored once. Returns the first column left over.
#[inline]
fn chunks<const BLK: usize, const LOAD_C: bool>(
    a_row: &[f32],
    b: &[f32],
    offs: &[u32],
    scale: usize,
    c_row: &mut [f32],
    end: usize,
    mut j0: usize,
) -> usize {
    while j0 + BLK <= end {
        let mut part = [0.0f32; BLK];
        if LOAD_C {
            part.copy_from_slice(&c_row[j0..j0 + BLK]);
        }
        for (&av, &off) in a_row.iter().zip(offs) {
            let at = off as usize * scale + j0;
            for (o, &bv) in part.iter_mut().zip(&b[at..at + BLK]) {
                *o += av * bv;
            }
        }
        let dst = &mut c_row[j0..j0 + BLK];
        if LOAD_C {
            dst.copy_from_slice(&part);
        } else {
            for (o, &p) in dst.iter_mut().zip(&part) {
                *o += p;
            }
        }
        j0 += BLK;
    }
    j0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_dimensions() {
        assert_eq!(
            (
                MmaShape::M16N8K16.m(),
                MmaShape::M16N8K16.n(),
                MmaShape::M16N8K16.k()
            ),
            (16, 8, 16)
        );
        assert_eq!(MmaShape::M16N8K8.k(), 8);
        assert_eq!(MmaShape::M16N16K16.n(), 16);
    }

    #[test]
    fn macs_and_flops() {
        assert_eq!(MmaShape::M16N8K16.macs(), 16 * 8 * 16);
        assert_eq!(MmaShape::M16N8K16.flops(), 2 * 16 * 8 * 16);
    }

    #[test]
    fn instruction_count_rounds_up() {
        let s = MmaShape::M16N8K16;
        assert_eq!(s.instructions_for(16, 8, 16), 1);
        assert_eq!(s.instructions_for(17, 8, 16), 2);
        assert_eq!(s.instructions_for(32, 16, 32), 2 * 2 * 2);
        // The paper's point: a 1-wide reduction still pays a full instruction.
        assert_eq!(s.instructions_for(16, 8, 1), 1);
    }

    #[test]
    fn utilization_is_one_for_aligned_tiles_and_less_otherwise() {
        let s = MmaShape::M16N8K16;
        assert!((s.utilization_for(64, 64, 64) - 1.0).abs() < 1e-12);
        assert!(s.utilization_for(16, 8, 1) < 0.1);
        assert_eq!(s.utilization_for(0, 8, 16), 0.0);
    }

    #[test]
    fn f16_roundtrip_preserves_representable_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25, 65504.0] {
            assert_eq!(
                round_to_f16(v),
                v,
                "value {v} should be exactly representable"
            );
        }
    }

    #[test]
    fn f16_rounding_introduces_bounded_error() {
        let v = 0.1f32;
        let r = round_to_f16(v);
        assert!((r - v).abs() < 1e-3);
        // Large values saturate instead of becoming infinite.
        assert!(round_to_f16(1e9).is_finite());
        assert!(round_to_f16(1e9) <= 65504.0);
    }

    #[test]
    fn warp_mma_matches_reference() {
        let shape = MmaShape::M16N8K16;
        let (m, n, k) = (shape.m(), shape.n(), shape.k());
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        let mut c = vec![0.25f32; m * n];
        let mut expected = c.clone();
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    expected[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        warp_mma(shape, &a, &b, &mut c, false);
        for (x, y) in c.iter().zip(expected.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "A fragment")]
    fn warp_mma_rejects_wrong_fragment_size() {
        let mut c = vec![0.0f32; 16 * 8];
        warp_mma(MmaShape::M16N8K16, &[0.0; 3], &[0.0; 16 * 8], &mut c, false);
    }

    #[test]
    fn warp_mma_with_f16_rounding_stays_close() {
        let shape = MmaShape::M16N8K16;
        let (m, n, k) = (shape.m(), shape.n(), shape.k());
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 11) as f32 * 0.01).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 13) % 17) as f32 * 0.02).collect();
        let mut exact = vec![0.0f32; m * n];
        let mut rounded = vec![0.0f32; m * n];
        warp_mma(shape, &a, &b, &mut exact, false);
        warp_mma(shape, &a, &b, &mut rounded, true);
        for (x, y) in exact.iter().zip(rounded.iter()) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// The historical implementation re-rounded both operands inside the
    /// `m·n·k` inner loop. The hoisted pre-rounding must be bit-identical.
    fn warp_mma_per_element_rounding(shape: MmaShape, a: &[f32], b: &[f32], c: &mut [f32]) {
        let (m, n, k) = (shape.m(), shape.n(), shape.k());
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    let av = round_to_f16(a[i * k + p]);
                    let bv = round_to_f16(b[p * n + j]);
                    acc += av * bv;
                }
                c[i * n + j] = acc;
            }
        }
    }

    #[test]
    fn hoisted_rounding_is_bit_identical_to_per_element_rounding() {
        for shape in [MmaShape::M16N8K16, MmaShape::M16N8K8, MmaShape::M16N16K16] {
            let (m, n, k) = (shape.m(), shape.n(), shape.k());
            // Values chosen to exercise rounding: irrational-ish magnitudes,
            // negatives, exact zeros, subnormal-range and saturating entries.
            let a: Vec<f32> = (0..m * k)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => (i as f32 * 0.37).sin() * 3.3,
                    2 => -(i as f32) * 1e-7,
                    3 => i as f32 * 97.003,
                    _ => 1.0 / (i as f32 + 0.7),
                })
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 31 + 7) % 23) as f32 * 0.0421 - 0.5)
                .collect();
            let c_init: Vec<f32> = (0..m * n).map(|i| (i % 9) as f32 * 0.125 - 0.5).collect();

            let mut hoisted = c_init.clone();
            warp_mma(shape, &a, &b, &mut hoisted, true);
            let mut per_element = c_init.clone();
            warp_mma_per_element_rounding(shape, &a, &b, &mut per_element);
            for (x, y) in hoisted.iter().zip(per_element.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{shape:?}: {x} vs {y}");
            }
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Ascending operand row numbers `0..kk`: consecutive-row addressing.
    fn ascending(kk: usize) -> Vec<u32> {
        (0..kk as u32).collect()
    }

    /// One span over all `width` columns.
    fn full(width: usize) -> [SegmentSpan; 1] {
        [SegmentSpan { start: 0, width }]
    }

    /// Deterministic full-precision values, about half of them negative.
    fn raw_values(len: usize, phase: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * 0.31 + phase).sin()).collect()
    }

    /// [`raw_values`] rounded through fp16.
    fn values(len: usize, phase: f32) -> Vec<f32> {
        raw_values(len, phase)
            .into_iter()
            .map(round_to_f16)
            .collect()
    }

    /// [`mma_sweep`] with its accumulate mode and fusing chosen at run time.
    #[allow(clippy::too_many_arguments)] // mirrors `mma_sweep`
    fn sweep(
        load_c: bool,
        fused: bool,
        a: &[f32],
        rows: usize,
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c: &mut [f32],
        stride: usize,
        spans: &[SegmentSpan],
    ) {
        match (load_c, fused) {
            (true, true) => mma_sweep::<true, true>(a, rows, b, offs, scale, c, stride, spans),
            (true, false) => mma_sweep::<true, false>(a, rows, b, offs, scale, c, stride, spans),
            (false, true) => mma_sweep::<false, true>(a, rows, b, offs, scale, c, stride, spans),
            (false, false) => mma_sweep::<false, false>(a, rows, b, offs, scale, c, stride, spans),
        }
    }

    /// A `rows × kk` panel, `kk` consecutive `width`-wide operand rows and a
    /// `rows × width` accumulator holding prior partials.
    fn reg_case(rows: usize, kk: usize, width: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let c = (0..rows * width)
            .map(|i| (i % 11) as f32 * 0.125 - 0.5)
            .collect();
        (values(rows * kk, 0.0), values(kk * width, 1.3), c)
    }

    /// Copies the operand rows a sweep step reads into a contiguous
    /// `kk × width` tile — the staging an in-place sweep avoids.
    fn staged(b: &[f32], offs: &[u32], scale: usize, width: usize) -> Vec<f32> {
        offs.iter()
            .flat_map(|&off| &b[off as usize * scale..][..width])
            .copied()
            .collect()
    }

    #[test]
    fn row_block_matches_fragmented_warp_mma() {
        // One 16-row tile times a 40-wide B, reduced over 16: the sweep must
        // equal zero-padded warp_mma fragments stitched over j0.
        let shape = MmaShape::M16N8K16;
        let (m, k) = (shape.m(), shape.k());
        let n = 40;
        let a = values(m * k, 0.5);
        let b = values(k * n, 2.0);

        let mut fast = vec![0.0f32; m * n];
        mma_sweep::<true, true>(&a, m, &b, &ascending(k), n, &mut fast, n, &full(n));

        let fn_ = shape.n();
        let mut reference = vec![0.0f32; m * n];
        let mut b_frag = vec![0.0f32; k * fn_];
        let mut c_frag = vec![0.0f32; m * fn_];
        for j0 in (0..n).step_by(fn_) {
            c_frag.iter_mut().for_each(|x| *x = 0.0);
            for p in 0..k {
                for j in 0..fn_ {
                    b_frag[p * fn_ + j] = if j0 + j < n { b[p * n + j0 + j] } else { 0.0 };
                }
            }
            warp_mma(shape, &a, &b_frag, &mut c_frag, false);
            for i in 0..m {
                for j in 0..fn_ {
                    if j0 + j < n {
                        reference[i * n + j0 + j] = c_frag[i * fn_ + j];
                    }
                }
            }
        }
        assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn row_block_fused_acc_is_bit_identical_to_zero_mma_add() {
        for (rows, kk, width) in [(5, 4, 19), (16, 16, 32), (3, 7, 77), (1, 1, 1), (8, 2, 33)] {
            let (a, b, acc_init) = reg_case(rows, kk, width);
            let offs = ascending(kk);
            // Cold sequence: zero a partial, accumulate into it, add into acc.
            let mut partial = vec![0.0f32; rows * width];
            mma_sweep::<true, true>(
                &a,
                rows,
                &b,
                &offs,
                width,
                &mut partial,
                width,
                &full(width),
            );
            let mut cold = acc_init.clone();
            for (o, p) in cold.iter_mut().zip(&partial) {
                *o += p;
            }
            let mut fused = acc_init.clone();
            mma_sweep::<false, true>(&a, rows, &b, &offs, width, &mut fused, width, &full(width));
            assert_eq!(bits(&cold), bits(&fused), "{rows}x{kk}x{width}");
        }
    }

    #[test]
    fn gather_fused_acc_is_bit_identical_to_staged_fused_acc() {
        for (rows, kk, width, b_height) in [(5, 4, 19, 11), (16, 16, 32, 40), (3, 7, 77, 9)] {
            let (a, _, acc_init) = reg_case(rows, kk, width);
            let b = values(b_height * width, 0.7);
            let b_rows: Vec<u32> = (0..kk).map(|p| ((p * 5 + 2) % b_height) as u32).collect();
            let tile = staged(&b, &b_rows, width, width);
            let mut staged_acc = acc_init.clone();
            mma_sweep::<false, true>(
                &a,
                rows,
                &tile,
                &ascending(kk),
                width,
                &mut staged_acc,
                width,
                &full(width),
            );
            let mut gathered = acc_init.clone();
            mma_sweep::<false, true>(
                &a,
                rows,
                &b,
                &b_rows,
                width,
                &mut gathered,
                width,
                &full(width),
            );
            assert_eq!(bits(&staged_acc), bits(&gathered), "{rows}x{kk}x{width}");
        }
    }

    #[test]
    fn offset_fused_acc_is_bit_identical_to_staged_fused_acc() {
        for (rows, kk, width, slab) in [(5, 4, 19, 512), (16, 16, 32, 1024), (3, 7, 77, 700)] {
            let (a, _, acc_init) = reg_case(rows, kk, width);
            let b = values(slab, 0.7);
            let base = 37usize;
            let taps: Vec<u32> = (0..kk)
                .map(|p| ((p * 53 + 11) % (slab - base - width)) as u32)
                .collect();
            let tile = staged(&b[base..], &taps, 1, width);
            let mut staged_acc = acc_init.clone();
            mma_sweep::<false, true>(
                &a,
                rows,
                &tile,
                &ascending(kk),
                width,
                &mut staged_acc,
                width,
                &full(width),
            );
            let mut offset = acc_init.clone();
            mma_sweep::<false, true>(
                &a,
                rows,
                &b[base..],
                &taps,
                1,
                &mut offset,
                width,
                &full(width),
            );
            assert_eq!(bits(&staged_acc), bits(&offset), "{rows}x{kk}x{width}");
        }
    }

    /// Spans between consecutive cut points of `0..total`.
    fn spans(total: usize, cuts: &[usize]) -> Vec<SegmentSpan> {
        let mut edges = vec![0];
        edges.extend_from_slice(cuts);
        edges.push(total);
        edges
            .windows(2)
            .map(|w| SegmentSpan {
                start: w[0],
                width: w[1] - w[0],
            })
            .collect()
    }

    /// Columns `start..start + width` of a `rows × stride` buffer, densely.
    fn extract(src: &[f32], rows: usize, stride: usize, start: usize, width: usize) -> Vec<f32> {
        (0..rows)
            .flat_map(|r| &src[r * stride + start..][..width])
            .copied()
            .collect()
    }

    #[test]
    fn multi_segment_kernels_are_bit_identical_to_per_segment_sweeps() {
        for (rows, kk, total, cuts) in [
            (5usize, 4usize, 45usize, &[8usize, 24][..]),
            (16, 16, 70, &[64][..]),
            (3, 7, 9, &[1, 2, 8][..]),
            (2, 3, 33, &[][..]), // a single segment covering everything
        ] {
            let (a, _, c_init) = reg_case(rows, kk, total);
            let b_height = kk * 3 + 1;
            let b = values(b_height * total, 0.7);
            let b_rows: Vec<u32> = (0..kk).map(|p| ((p * 5 + 2) % b_height) as u32).collect();
            let segs = spans(total, cuts);
            let check = |fused: &[f32], per_segment: &[f32], mode: &str| {
                assert_eq!(
                    bits(fused),
                    bits(per_segment),
                    "{mode} {rows}x{kk}x{total} cuts {cuts:?}"
                );
            };
            // One call over every segment vs one call per extracted segment.
            let mut fused = c_init.clone();
            mma_sweep::<true, true>(&a, rows, &b, &b_rows, total, &mut fused, total, &segs);
            let mut fused_acc = c_init.clone();
            mma_sweep::<false, true>(&a, rows, &b, &b_rows, total, &mut fused_acc, total, &segs);
            let (mut reference, mut reference_acc) = (c_init.clone(), c_init.clone());
            for s in &segs {
                let b_seg = extract(&b, b_height, total, s.start, s.width);
                let mut c_seg = extract(&c_init, rows, total, s.start, s.width);
                let mut acc_seg = c_seg.clone();
                let one = full(s.width);
                mma_sweep::<true, true>(
                    &a, rows, &b_seg, &b_rows, s.width, &mut c_seg, s.width, &one,
                );
                mma_sweep::<false, true>(
                    &a,
                    rows,
                    &b_seg,
                    &b_rows,
                    s.width,
                    &mut acc_seg,
                    s.width,
                    &one,
                );
                for r in 0..rows {
                    let dst = r * total + s.start..r * total + s.end();
                    reference[dst.clone()].copy_from_slice(&c_seg[r * s.width..][..s.width]);
                    reference_acc[dst].copy_from_slice(&acc_seg[r * s.width..][..s.width]);
                }
            }
            check(&fused, &reference, "direct");
            check(&fused_acc, &reference_acc, "fused-partial");
        }
    }

    #[test]
    fn multi_segment_kernels_handle_empty_segment_lists_and_degenerate_dims() {
        let mut c = vec![1.0f32; 6];
        mma_sweep::<true, true>(&[0.0; 6], 3, &[0.0; 4], &[0, 1], 2, &mut c, 2, &[]);
        mma_sweep::<false, true>(&[0.0; 6], 3, &[0.0; 4], &[0, 1], 2, &mut c, 2, &[]);
        mma_sweep::<false, true>(&[], 3, &[], &[], 2, &mut c, 2, &full(2));
        assert_eq!(c, vec![1.0f32; 6]);
    }

    #[test]
    fn row_block_handles_degenerate_dimensions() {
        let mut c = vec![1.0f32; 0];
        mma_sweep::<true, true>(&[], 0, &[0.0; 8], &[0, 1], 2, &mut c, 2, &full(2));
        let mut c = vec![-0.0f32; 6];
        // No reduction steps: even `-0.0` survives the fused-partial mode.
        mma_sweep::<false, true>(&[], 3, &[], &[], 2, &mut c, 2, &full(2));
        assert_eq!(bits(&c), bits(&[-0.0f32; 6]));
        let mut empty: Vec<f32> = vec![];
        mma_sweep::<true, true>(&[0.0; 4], 2, &[], &[0, 1], 0, &mut empty, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "exceeds the row stride")]
    fn multi_segment_kernels_reject_out_of_range_segments() {
        let mut c = [0.0f32; 4];
        let seg = SegmentSpan { start: 1, width: 2 };
        mma_sweep::<true, true>(&[0.0; 2], 2, &[0.0; 2], &[0], 2, &mut c, 2, &[seg]);
    }

    #[test]
    #[should_panic(expected = "reaches past the operand")]
    fn offset_kernel_rejects_out_of_range_offsets() {
        let b = [0.5f32; 16];
        let mut acc = [0.0f32; 2 * 8];
        // Base 4, taps 0 and 8: 4 + 8 + 8 > 16.
        mma_sweep::<false, true>(&[1.0; 4], 2, &b[4..], &[0, 8], 1, &mut acc, 8, &full(8));
    }

    #[test]
    #[should_panic(expected = "reaches past the operand")]
    fn gather_kernel_rejects_out_of_range_row_indices() {
        let b = [0.5f32; 16];
        let mut acc = [0.0f32; 2 * 8];
        // Row 2 of an 8-wide operand starts at element 16 of 16.
        mma_sweep::<false, true>(&[1.0; 4], 2, &b, &[0, 2], 8, &mut acc, 8, &full(8));
    }

    #[test]
    #[should_panic(expected = "A panel must be rows*kk elements")]
    fn sweep_rejects_a_mis_sized_panel() {
        let mut c = vec![0.0f32; 2 * 8];
        mma_sweep::<true, true>(&[1.0; 3], 2, &[0.5; 16], &[0, 1], 8, &mut c, 8, &full(8));
    }

    /// The sweep as a plain scalar loop: every span column of every row takes
    /// its `kk` products in ascending order, from `c` (`load_c`) or from
    /// `+0.0` with one add into `c`.
    #[allow(clippy::too_many_arguments)] // mirrors `mma_sweep`
    fn scalar_loop(
        load_c: bool,
        a: &[f32],
        rows: usize,
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c: &mut [f32],
        stride: usize,
        spans: &[SegmentSpan],
    ) {
        let kk = offs.len();
        if kk == 0 {
            return;
        }
        for s in spans {
            for r in 0..rows {
                for j in s.start..s.end() {
                    let o = &mut c[r * stride + j];
                    let mut part = if load_c { *o } else { 0.0 };
                    for p in 0..kk {
                        part += a[r * kk + p] * b[offs[p] as usize * scale + j];
                    }
                    *o = if load_c { part } else { *o + part };
                }
            }
        }
    }

    /// The one sweep against [`scalar_loop`] on every SIMD tier, for the three
    /// addressings (consecutive rows, gathered rows, base + taps at scale 1),
    /// both accumulate modes, row counts around the 4-row register tile
    /// (none, exactly one, one plus remainder rows, two), span widths on
    /// every edge of the 32-, 16-, 8- and 4-column tiles and of the one-row
    /// chunks (up to 128 columns), every width 1–64 side by side, so every
    /// remainder each tier's last step takes (at AVX-512 both sides of its
    /// 8/9-column switch from the `ymm` to the `zmm` step, and the 17–31
    /// columns of its two-register tile with a masked second register), span
    /// lists whose edges fall off the 16-, 8- and 4-lane grid, and reduction
    /// depths 0, 1, 3 and 17.
    ///
    /// The fused sweep runs on fp16-exact weights and operands, as the plans
    /// run it. The unfused sweep runs on full-precision values, on which a
    /// fused product would move the last bit, so it fails if the unfused
    /// sweep ever fuses.
    ///
    /// Every output column outside the spans holds NaN, and for the two
    /// row-addressed operands (`scale = stride`) every operand column outside
    /// the spans holds ±inf or NaN. The spans' outputs must still match
    /// bit for bit and the columns outside keep their NaN bits: no lane past
    /// a span's end is ever stored or feeds a stored element.
    #[test]
    fn simd_tiers_are_bit_identical_across_all_kernels() {
        use crate::simd;
        let _guard = simd::tier_test_lock();
        let nan = f32::from_bits(0x7fc0_5a5a);
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let every_width: Vec<(usize, usize)> = (1..=64).map(|w| (w * (w - 1) / 2, w)).collect();
        let layouts: [(usize, &[(usize, usize)]); 12] = [
            (45, &[(0, 45)]),
            (45, &[(3, 10), (13, 25)]),
            (45, &[(0, 1), (1, 5), (6, 38)]),
            (150, &[(5, 137)]),
            (150, &[(0, 75), (75, 75)]),
            (10, &[]),
            (40, &[(0, 7), (7, 8), (15, 9)]),
            (64, &[(1, 15), (16, 16), (32, 17)]),
            (100, &[(0, 31), (31, 32), (63, 33)]),
            (80, &[(1, 4), (5, 12), (17, 28), (46, 30)]),
            (
                310,
                &[(0, 24), (24, 40), (64, 48), (112, 63), (175, 64), (239, 65)],
            ),
            (64 * 65 / 2, &every_width),
        ];
        let row_counts = [1usize, 3, 4, 5, 8, 9];
        let mut checked = 0;
        let tiers = simd::available_tiers();
        let labels: Vec<&str> = tiers.iter().map(|tier| tier.label()).collect();
        println!("SIMD tiers swept: {}", labels.join(", "));
        for &tier in &tiers {
            simd::force_tier(Some(tier));
            for &(stride, layout) in &layouts {
                let spans: Vec<SegmentSpan> = layout
                    .iter()
                    .map(|&(start, width)| SegmentSpan { start, width })
                    .collect();
                let live: Vec<bool> = (0..stride)
                    .map(|j| spans.iter().any(|s| (s.start..s.end()).contains(&j)))
                    .collect();
                // Row-addressed operand rows with every column outside the spans
                // replaced by ±inf or NaN.
                let poisoned = |mut b: Vec<f32>| {
                    for (i, x) in b.iter_mut().enumerate() {
                        if !live[i % stride] {
                            *x = poison[i % poison.len()];
                        }
                    }
                    b
                };
                for rows in row_counts {
                    for kk in [0usize, 1, 3, 17] {
                        for fused in [true, false] {
                            let values = if fused { values } else { raw_values };
                            let a = values(rows * kk, 0.2);
                            let height = 2 * kk + 3;
                            let base = 37;
                            // (operand, first element, step offsets, scale) per addressing.
                            let addressings = [
                                (poisoned(values(kk * stride, 1.1)), 0, ascending(kk), stride),
                                (
                                    poisoned(values(height * stride, 2.3)),
                                    0,
                                    (0..kk).map(|p| ((p * 5 + 2) % height) as u32).collect(),
                                    stride,
                                ),
                                (
                                    values(base + 97 + stride, 3.7),
                                    base,
                                    (0..kk).map(|p| ((p * 53 + 11) % 97) as u32).collect(),
                                    1,
                                ),
                            ];
                            for (b, start, offs, scale) in &addressings {
                                let b = &b[*start..];
                                let mut c_init: Vec<f32> = values(rows * stride, 4.9);
                                for (i, x) in c_init.iter_mut().enumerate() {
                                    if !live[i % stride] {
                                        *x = nan;
                                    }
                                }
                                let outside_kept = |got: &[f32]| {
                                    got.iter().enumerate().all(|(i, x)| {
                                        live[i % stride] || x.to_bits() == nan.to_bits()
                                    })
                                };
                                for load_c in [true, false] {
                                    let what = format!(
                                        "tier {} fused {fused} LOAD_C {load_c} rows {rows} \
                                         stride {stride} spans {layout:?} kk {kk} scale {scale}",
                                        tier.label()
                                    );
                                    let mut got = c_init.clone();
                                    sweep(
                                        load_c, fused, &a, rows, b, offs, *scale, &mut got, stride,
                                        &spans,
                                    );
                                    let mut want = c_init.clone();
                                    scalar_loop(
                                        load_c, &a, rows, b, offs, *scale, &mut want, stride,
                                        &spans,
                                    );
                                    assert_eq!(bits(&got), bits(&want), "{what}");
                                    assert!(outside_kept(&got), "outside the spans: {what}");
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        simd::force_tier(None);
        assert_eq!(checked, tiers.len() * 12 * 6 * 4 * 2 * 3);
    }

    /// Every finite binary16 value, widened to `f32`, in bit-pattern order:
    /// 63,488 values (the 2,048 infinities and NaNs left out).
    fn binary16_values() -> Vec<f32> {
        let least = f32::from_bits((127 - 24) << 23); // 2⁻²⁴, the least subnormal
        let all: Vec<f32> = (0u32..1 << 16)
            .filter(|h| h >> 10 & 0x1f != 0x1f)
            .map(|h| {
                let (exp, mant) = (h >> 10 & 0x1f, h & 0x3ff);
                let magnitude = if exp == 0 {
                    mant as f32 * least
                } else {
                    f32::from_bits((exp + 127 - 15) << 23 | mant << 13)
                };
                if h >> 15 == 1 {
                    -magnitude
                } else {
                    magnitude
                }
            })
            .collect();
        assert_eq!(all.len(), 63_488);
        assert_eq!((all[1], all[0x7bff]), (least, 65504.0));
        assert!(all.iter().all(|&x| round_to_f16(x) == x));
        all
    }

    /// `x·y` is exact in `f32` for `x` in every `stride`-th finite binary16
    /// value and `y` in all of them: the exact product rule that lets a
    /// fused sweep keep the scalar tier's bits.
    fn check_exact_products(stride: usize) {
        let all = binary16_values();
        for &x in all.iter().step_by(stride) {
            for &y in &all {
                let exact = f64::from(x) * f64::from(y);
                assert_eq!(
                    f64::from(x * y).to_bits(),
                    exact.to_bits(),
                    "{x:e} · {y:e} is not exact in f32"
                );
            }
        }
    }

    #[test]
    fn binary16_products_are_exact_in_f32_on_a_strided_sweep() {
        check_exact_products(251);
    }

    /// Every product of two finite binary16 values (about 4.03 billion).
    /// Run it in release mode: `cargo test --release -p gpu-sim -- --ignored`.
    #[test]
    #[ignore = "exhaustive: about 4 billion products, run in release mode"]
    fn every_binary16_product_is_exact_in_f32() {
        check_exact_products(1);
    }

    /// Runs `check(load_c, reference, tier, got)` for both accumulate modes on
    /// every available tier, where `reference` is the fused sweep of `c` on
    /// the scalar tier and `got` the fused sweep of `c` on `tier`.
    #[allow(clippy::too_many_arguments)] // mirrors `mma_sweep`
    fn fused_against_scalar(
        a: &[f32],
        rows: usize,
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c: &[f32],
        stride: usize,
        spans: &[SegmentSpan],
        mut check: impl FnMut(bool, &[f32], crate::simd::SimdTier, &[f32]),
    ) {
        use crate::simd::{self, SimdTier};
        for load_c in [true, false] {
            let run = |tier| {
                simd::force_tier(Some(tier));
                let mut out = c.to_vec();
                sweep(
                    load_c, true, a, rows, b, offs, scale, &mut out, stride, spans,
                );
                out
            };
            let reference = run(SimdTier::Scalar);
            for tier in simd::available_tiers() {
                check(load_c, &reference, tier, &run(tier));
            }
        }
        simd::force_tier(None);
    }

    /// The fused sweep keeps the scalar tier's bits on every weight it can
    /// meet: a panel of every finite binary16 value against operand rows of
    /// ±0, ±2⁻²⁴, ±2⁻¹⁴, ±1, ±65504 and ±∞ (each row holds all twelve, so
    /// every weight meets every one) and accumulators of ±0, ±`f32::MAX` and
    /// f32 subnormals. The 63,488 weights run as a `3968 × 16` panel (four-row
    /// tiles) and as a `31 × 2048` one (three one-row rows, deep chains),
    /// over three spans whose widths reach every tile, chunk and last step.
    #[test]
    fn fused_sweep_is_bit_identical_to_the_scalar_tier_on_every_binary16_weight() {
        let _guard = crate::simd::tier_test_lock();
        let weights = binary16_values();
        let finite = [
            0.0,
            -0.0,
            f32::from_bits((127 - 24) << 23),
            -f32::from_bits((127 - 24) << 23),
            f32::from_bits((127 - 14) << 23),
            -f32::from_bits((127 - 14) << 23),
            1.0,
            -1.0,
            65504.0,
            -65504.0,
        ];
        let accumulators = [
            0.0,
            -0.0,
            f32::MAX,
            -f32::MAX,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x8040_0000),
        ];
        let stride = 170;
        let spans =
            [(0, 137), (137, 29), (166, 4)].map(|(start, width)| SegmentSpan { start, width });
        for (rows, kk) in [(3968, 16), (31, 2048)] {
            // Columns 10 and 11 of every 12 hold +∞ and −∞ at every step;
            // the others rotate through the finite values.
            let b: Vec<f32> = (0..kk * stride)
                .map(|i| match (i % stride) % 12 {
                    10 => f32::INFINITY,
                    11 => f32::NEG_INFINITY,
                    col => finite[(col + i / stride) % finite.len()],
                })
                .collect();
            let c: Vec<f32> = (0..rows * stride)
                .map(|i| accumulators[(i / stride + i) % accumulators.len()])
                .collect();
            let offs = ascending(kk);
            fused_against_scalar(
                &weights,
                rows,
                &b,
                &offs,
                stride,
                &c,
                stride,
                &spans,
                |load_c, reference, tier, got| {
                    assert_eq!(
                        bits(got),
                        bits(reference),
                        "{rows}x{kk} LOAD_C {load_c} on tier {}",
                        tier.label()
                    );
                },
            );
        }
    }

    /// The fused sweep with one NaN operand in each element: a weight (a
    /// third of the rows carry one), an operand value (a third of the
    /// columns) or the accumulator (the rest). Each NaN has its own payload,
    /// quiet or signalling, and must reach its element as the scalar tier
    /// delivers it. Where a NaN row meets a NaN column, two NaNs meet in one
    /// element, and x86 picks the surviving payload by operand position, so
    /// only the NaN-ness is compared there.
    #[test]
    fn fused_sweep_propagates_each_nan_as_the_scalar_tier_does() {
        let _guard = crate::simd::tier_test_lock();
        let (rows, kk, stride) = (3968, 16, 150);
        let spans = [SegmentSpan {
            start: 0,
            width: stride,
        }];
        // A NaN whose payload, sign and quiet bit depend on `id`.
        let nan = |id: usize| {
            let id = id as u32;
            f32::from_bits(id << 31 | 0x7f80_0000 | (id.wrapping_mul(0x9e37_79b9) >> 9) | 1)
        };
        let nan_row = |r: usize| r.is_multiple_of(3);
        let nan_col = |j: usize| j % 3 == 1;
        let mut a = binary16_values();
        for r in (0..rows).filter(|&r| nan_row(r)) {
            a[r * kk + r % kk] = nan(r);
        }
        let finite = [0.0, -0.0, 2e-7, -6.1e-5, 1.0, -1.0, 65504.0, -0.5];
        let mut b: Vec<f32> = (0..kk * stride)
            .map(|i| round_to_f16(finite[(i % stride + i / stride) % finite.len()]))
            .collect();
        for j in (0..stride).filter(|&j| nan_col(j)) {
            b[(j % kk) * stride + j] = nan(rows + j);
        }
        let c: Vec<f32> = (0..rows * stride)
            .map(|i| {
                let (r, j) = (i / stride, i % stride);
                if nan_row(r) || nan_col(j) {
                    (i % 7) as f32 - 3.0
                } else {
                    nan(rows + stride + i)
                }
            })
            .collect();
        let mut both = 0;
        fused_against_scalar(
            &a,
            rows,
            &b,
            &ascending(kk),
            stride,
            &c,
            stride,
            &spans,
            |load_c, reference, tier, got| {
                for (i, (x, y)) in got.iter().zip(reference).enumerate() {
                    let what = format!("element {i} LOAD_C {load_c} on tier {}", tier.label());
                    assert!(y.is_nan(), "{what}: every element holds one NaN");
                    if nan_row(i / stride) && nan_col(i % stride) {
                        assert!(x.is_nan(), "{what}");
                        both += 1;
                    } else {
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
                    }
                }
            },
        );
        assert!(both > 0);
    }
}
