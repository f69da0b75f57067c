//! Runtime-dispatched explicit-SIMD tiers for the panel sweep
//! [`crate::mma::mma_sweep`].
//!
//! Left to the autovectoriser, the sweep's width would depend on the
//! workspace's `-C target-cpu=native` flag: built for a generic x86-64
//! target, it would drop to 128-bit codegen. This module writes the sweep
//! with explicit `std::arch` intrinsics behind a **runtime** CPU-feature
//! dispatch, so one generic binary runs the widest tier the executing machine
//! supports:
//!
//! * [`SimdTier::Avx2`] — 256-bit `__m256` chunks (8 lanes), selected when
//!   `avx2` is detected at runtime,
//! * [`SimdTier::Sse2`] — 128-bit `__m128` chunks (4 lanes), the x86-64
//!   baseline (always available there),
//! * [`SimdTier::Scalar`] — autovectorisable scalar loops, the portable
//!   fallback and the bit-identity oracle for the other tiers.
//!
//! The vector tiers sweep a **register tile of four output rows**: at each
//! reduction step the tile loads its operand vectors once and multiplies each
//! by the four rows' broadcast weights, so one load feeds four rows' worth of
//! multiply-adds. AVX2 tiles `4 × 16` columns in eight `__m256` accumulators,
//! then `4 × 8`; SSE2 tiles `4 × 8`, then `4 × 4` in `__m128`. The tile's
//! last columns (fewer than 8 at AVX2, fewer than 4 at SSE2) take one more
//! `4 × 8` (`4 × 4`) step that reads and writes only the live lanes: AVX2
//! masks its loads and stores with `vmaskmovps`, and SSE2, which has no
//! masked load, moves exactly one, two or three lanes (`movss`, `movsd`).
//! The dead lanes hold zero and are never stored. Rows past the last
//! multiple of four run one row at a time (64- down to 8-column chunks at
//! AVX2, 32 down to 4 at SSE2), then the same last step at one row.
//!
//! **Every tier is bit-identical.** The vector tiers widen the sweep across
//! *independent output elements* only: each output element still accumulates
//! its `k` contributions in ascending order through one `f32` lane, using a
//! separate IEEE-754 multiply and add per step (deliberately **no FMA** — a
//! fused multiply-add skips the intermediate rounding and would diverge from
//! the scalar oracle in the last bit). A tile's shape decides which register
//! lane holds an element, never the order or the rounding of its products, so
//! how rows and columns are grouped into tiles and chunks never changes a
//! result, and the dispatch decision — even one racing a concurrent
//! [`force_tier`] — can never change an output.
//!
//! The active tier is resolved once from CPUID (overridable with the
//! `SHFL_SIMD` environment variable: `scalar`, `sse2` or `avx2`, clamped to
//! what the CPU supports) and cached in an atomic; [`force_tier`] re-pins it
//! at runtime, which tests use to sweep every tier.

use std::sync::atomic::{AtomicU8, Ordering};

/// One dispatchable microkernel implementation tier, ordered from narrowest
/// to widest (`Scalar < Sse2 < Avx2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// The scalar (autovectorisable) reference loops — portable fallback.
    Scalar,
    /// 128-bit `__m128` sweeps; baseline on every x86-64 CPU.
    Sse2,
    /// 256-bit `__m256` sweeps; requires runtime-detected AVX2.
    Avx2,
}

impl SimdTier {
    /// Stable lower-case name of the tier (`"scalar"`, `"sse2"`, `"avx2"`),
    /// matching the `SHFL_SIMD` override spelling.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Parses a tier name as spelled by [`SimdTier::label`]
    /// (case-insensitive); `None` for anything else.
    pub fn from_name(name: &str) -> Option<SimdTier> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "sse2" => Some(SimdTier::Sse2),
            "avx2" => Some(SimdTier::Avx2),
            _ => None,
        }
    }

    /// Like [`SimdTier::from_name`], but an unrecognised name is a **typed
    /// error** naming the offending value and the valid spellings — what the
    /// `SHFL_SIMD` override resolution reports instead of falling back
    /// silently.
    ///
    /// # Errors
    ///
    /// [`UnknownSimdTier`] when `name` is not one of `scalar`, `sse2`,
    /// `avx2` (case-insensitive, surrounding whitespace ignored).
    pub fn parse(name: &str) -> Result<SimdTier, UnknownSimdTier> {
        SimdTier::from_name(name).ok_or_else(|| UnknownSimdTier {
            name: name.to_string(),
        })
    }
}

/// Typed rejection of an unrecognised SIMD tier name (the `SHFL_SIMD`
/// override or any other caller of [`SimdTier::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSimdTier {
    /// The name that failed to parse, as given.
    pub name: String,
}

impl std::fmt::Display for UnknownSimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown SIMD tier {:?}; valid tiers are \"scalar\", \"sse2\", \"avx2\"",
            self.name
        )
    }
}

impl std::error::Error for UnknownSimdTier {}

/// Sentinel for "not resolved yet" in the cached tier atomic.
const UNRESOLVED: u8 = 0;

fn encode(tier: SimdTier) -> u8 {
    match tier {
        SimdTier::Scalar => 1,
        SimdTier::Sse2 => 2,
        SimdTier::Avx2 => 3,
    }
}

fn decode(raw: u8) -> Option<SimdTier> {
    match raw {
        1 => Some(SimdTier::Scalar),
        2 => Some(SimdTier::Sse2),
        3 => Some(SimdTier::Avx2),
        _ => None,
    }
}

/// The resolved (or forced) active tier; `UNRESOLVED` until first use and
/// after a `force_tier(None)` reset.
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// The widest tier the executing CPU supports, from runtime feature
/// detection (CPUID); independent of any `SHFL_SIMD` override or
/// [`force_tier`] pin.
pub fn best_available() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            SimdTier::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdTier::Scalar
    }
}

/// Never hand out a tier the CPU cannot execute, whatever was requested.
fn clamp_to_available(tier: SimdTier) -> SimdTier {
    tier.min(best_available())
}

/// Cold path of [`active_tier`]: resolve from the `SHFL_SIMD` override (if
/// set) or CPUID, then cache. An unrecognised override is rejected **loudly**
/// — the typed [`UnknownSimdTier`] is printed to stderr before falling back
/// to [`best_available`] — so a typo'd `SHFL_SIMD=acx2` can no longer pass
/// as a silent auto-detect.
fn resolve() -> SimdTier {
    let tier = match std::env::var("SHFL_SIMD") {
        Ok(name) => match SimdTier::parse(&name) {
            Ok(tier) => clamp_to_available(tier),
            Err(e) => {
                eprintln!(
                    "shfl-bw: ignoring SHFL_SIMD override: {e}; auto-detected tier \"{}\"",
                    best_available().label()
                );
                best_available()
            }
        },
        Err(_) => best_available(),
    };
    ACTIVE.store(encode(tier), Ordering::Relaxed);
    tier
}

/// The microkernel tier the dispatching sweeps currently select: resolved
/// once from `SHFL_SIMD` / CPUID and cached (one relaxed atomic load on the
/// hot path), unless pinned by [`force_tier`].
#[inline]
pub fn active_tier() -> SimdTier {
    match decode(ACTIVE.load(Ordering::Relaxed)) {
        Some(tier) => tier,
        None => resolve(),
    }
}

/// Pins the active tier (clamped to [`best_available`]), or with `None`
/// clears the pin so the next [`active_tier`] call re-resolves from the
/// environment. Intended for tests and benchmarks that sweep tiers; safe to
/// race with concurrent executes because every tier is bit-identical.
pub fn force_tier(tier: Option<SimdTier>) {
    match tier {
        Some(tier) => ACTIVE.store(encode(clamp_to_available(tier)), Ordering::Relaxed),
        None => ACTIVE.store(UNRESOLVED, Ordering::Relaxed),
    }
}

/// Every tier executable on this machine, narrowest first (always contains
/// [`SimdTier::Scalar`]). Tests sweep this list to pin each tier in turn.
pub fn available_tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Scalar];
    if best_available() >= SimdTier::Sse2 {
        tiers.push(SimdTier::Sse2);
    }
    if best_available() >= SimdTier::Avx2 {
        tiers.push(SimdTier::Avx2);
    }
    tiers
}

/// The x86-64 vector tiers of [`crate::mma::mma_sweep`]: one AVX2 and one
/// SSE2 entry, each covering columns `start .. end` of every output row of
/// the panel with the arithmetic of the scalar tier.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// Output rows one register tile covers: every operand vector the tile
    /// loads is multiplied by this many rows' weights. The `4 × 16` AVX2
    /// tile's eight accumulators, two operand vectors and one broadcast fit
    /// the sixteen `ymm` registers; a `4 × 32` tile would not.
    const TILE_ROWS: usize = 4;

    /// Sweeps every full `NV·8`-wide chunk of columns `j0 .. end` of the `NR`
    /// consecutive output rows whose weights start at `a` and whose outputs
    /// start at `c`, holding the `NR × NV·8` tile in `NR·NV` `__m256`
    /// accumulators across the whole reduction: at step `p` each of the `NV`
    /// operand vectors is loaded once and multiplied by all `NR` rows'
    /// broadcast weights. Returns the first column left over. `LOAD_C`
    /// selects the accumulate mode of `mma_sweep`: start the tile from `c`,
    /// or from `+0.0` with one add into `c` at the end.
    ///
    /// # Safety
    ///
    /// With `kk = offs.len()`: `a` must be valid for `NR·kk` reads, `c` for
    /// reads and writes at `r·stride + j` for every `r < NR` and `j < end`,
    /// and for every step `p`, `offs[p]·scale + end` must not exceed the
    /// length of the slice `b` points into. The CPU must support AVX2.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn chunks256<const NR: usize, const NV: usize, const LOAD_C: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        mut j0: usize,
    ) -> usize {
        let (kk, blk) = (offs.len(), NV * 8);
        while j0 + blk <= end {
            let mut part = [[_mm256_setzero_ps(); NV]; NR];
            if LOAD_C {
                for (r, row) in part.iter_mut().enumerate() {
                    for (v, acc) in row.iter_mut().enumerate() {
                        *acc = _mm256_loadu_ps(c.add(r * stride + j0 + v * 8));
                    }
                }
            }
            for (p, &off) in offs.iter().enumerate() {
                let src = b.add(off as usize * scale + j0);
                let mut bv = [_mm256_setzero_ps(); NV];
                for (v, x) in bv.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(src.add(v * 8));
                }
                for (r, row) in part.iter_mut().enumerate() {
                    let avv = _mm256_set1_ps(*a.add(r * kk + p));
                    for (acc, &x) in row.iter_mut().zip(&bv) {
                        // Separate mul + add: an FMA would skip the intermediate
                        // rounding and break bit-identity with the scalar tier.
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(avv, x));
                    }
                }
            }
            for (r, row) in part.iter().enumerate() {
                for (v, acc) in row.iter().enumerate() {
                    let dst = c.add(r * stride + j0 + v * 8);
                    let out = if LOAD_C {
                        *acc
                    } else {
                        _mm256_add_ps(_mm256_loadu_ps(dst), *acc)
                    };
                    _mm256_storeu_ps(dst, out);
                }
            }
            j0 += blk;
        }
        j0
    }

    /// [`chunks256`] at 128-bit width: every full `NV·4`-wide chunk of the
    /// `NR` rows in `NR·NV` `__m128` accumulators.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks256`]; SSE2 is baseline on x86-64.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn chunks128<const NR: usize, const NV: usize, const LOAD_C: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        mut j0: usize,
    ) -> usize {
        let (kk, blk) = (offs.len(), NV * 4);
        while j0 + blk <= end {
            let mut part = [[_mm_setzero_ps(); NV]; NR];
            if LOAD_C {
                for (r, row) in part.iter_mut().enumerate() {
                    for (v, acc) in row.iter_mut().enumerate() {
                        *acc = _mm_loadu_ps(c.add(r * stride + j0 + v * 4));
                    }
                }
            }
            for (p, &off) in offs.iter().enumerate() {
                let src = b.add(off as usize * scale + j0);
                let mut bv = [_mm_setzero_ps(); NV];
                for (v, x) in bv.iter_mut().enumerate() {
                    *x = _mm_loadu_ps(src.add(v * 4));
                }
                for (r, row) in part.iter_mut().enumerate() {
                    let avv = _mm_set1_ps(*a.add(r * kk + p));
                    for (acc, &x) in row.iter_mut().zip(&bv) {
                        *acc = _mm_add_ps(*acc, _mm_mul_ps(avv, x));
                    }
                }
            }
            for (r, row) in part.iter().enumerate() {
                for (v, acc) in row.iter().enumerate() {
                    let dst = c.add(r * stride + j0 + v * 4);
                    let out = if LOAD_C {
                        *acc
                    } else {
                        _mm_add_ps(_mm_loadu_ps(dst), *acc)
                    };
                    _mm_storeu_ps(dst, out);
                }
            }
            j0 += blk;
        }
        j0
    }

    /// The last `end − j0` columns (fewer than 8, possibly none) of the `NR`
    /// rows of [`chunks256`], in one masked `NR × 8` step: every operand row
    /// is read with `vmaskmovps` under the lane mask `lane < end − j0`, and
    /// `c` is written the same way. Masked-off lanes are neither read nor
    /// written; they load as zero and only ever feed other dead lanes, so each
    /// live column takes exactly the products [`chunks256`] would give it.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks256`], with `end − j0 < 8`. The CPU
    /// must support AVX2.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn remainder256<const NR: usize, const LOAD_C: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        j0: usize,
    ) {
        debug_assert!(end - j0 < 8);
        if j0 == end {
            return;
        }
        let kk = offs.len();
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((end - j0) as i32), lanes);
        let mut part = [_mm256_setzero_ps(); NR];
        if LOAD_C {
            for (r, acc) in part.iter_mut().enumerate() {
                *acc = _mm256_maskload_ps(c.add(r * stride + j0), mask);
            }
        }
        for (p, &off) in offs.iter().enumerate() {
            let x = _mm256_maskload_ps(b.add(off as usize * scale + j0), mask);
            for (r, acc) in part.iter_mut().enumerate() {
                let avv = _mm256_set1_ps(*a.add(r * kk + p));
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(avv, x));
            }
        }
        for (r, acc) in part.iter().enumerate() {
            let dst = c.add(r * stride + j0);
            let out = if LOAD_C {
                *acc
            } else {
                _mm256_add_ps(_mm256_maskload_ps(dst, mask), *acc)
            };
            _mm256_maskstore_ps(dst, mask, out);
        }
    }

    /// [`remainder256`] at 128-bit width: the last `end − j0` columns (fewer
    /// than 4, possibly none) of the `NR` rows in one `NR × 4` step. SSE2 has
    /// no masked load, so the step loads and stores exactly the live lanes
    /// (`movss`, `movsd`, and both for three); lanes past `end` are never
    /// read or written.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks256`], with `end − j0 < 4`; SSE2 is
    /// baseline on x86-64.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn remainder128<const NR: usize, const LOAD_C: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        j0: usize,
    ) {
        debug_assert!(end - j0 < 4);
        let live = end - j0;
        if live == 0 {
            return;
        }
        // The first `live` floats at `src` in the low lanes, the rest zero.
        let load_live = |src: *const f32| match live {
            1 => _mm_load_ss(src),
            2 => _mm_castpd_ps(_mm_load_sd(src.cast())),
            _ => _mm_movelh_ps(
                _mm_castpd_ps(_mm_load_sd(src.cast())),
                _mm_load_ss(src.add(2)),
            ),
        };
        let kk = offs.len();
        let mut part = [_mm_setzero_ps(); NR];
        if LOAD_C {
            for (r, acc) in part.iter_mut().enumerate() {
                *acc = load_live(c.add(r * stride + j0));
            }
        }
        for (p, &off) in offs.iter().enumerate() {
            let x = load_live(b.add(off as usize * scale + j0));
            for (r, acc) in part.iter_mut().enumerate() {
                let avv = _mm_set1_ps(*a.add(r * kk + p));
                *acc = _mm_add_ps(*acc, _mm_mul_ps(avv, x));
            }
        }
        for (r, acc) in part.iter().enumerate() {
            let dst = c.add(r * stride + j0);
            let out = if LOAD_C {
                *acc
            } else {
                _mm_add_ps(load_live(dst), *acc)
            };
            match live {
                1 => _mm_store_ss(dst, out),
                2 => _mm_store_sd(dst.cast(), _mm_castps_pd(out)),
                _ => {
                    _mm_store_sd(dst.cast(), _mm_castps_pd(out));
                    _mm_store_ss(dst.add(2), _mm_movehl_ps(out, out));
                }
            }
        }
    }

    /// The AVX2 tier over columns `start .. end` of every row of a
    /// `rows × kk` panel. Each full group of [`TILE_ROWS`] rows sweeps
    /// `4 × 16`, then `4 × 8` `__m256` tiles, then its last columns (fewer
    /// than 8) in one masked `4 × 8` step ([`remainder256`]). Rows past the
    /// last full group take the one-row path: 64/32/16/8-wide `__m256`
    /// chunks, then the same masked step at one row.
    ///
    /// # Safety
    ///
    /// With `kk = offs.len()`: caller guarantees `kk > 0`,
    /// `a.len() == rows·kk` and `c.len() == rows·stride` for the same
    /// `rows`, `end <= stride`, `offs[p] as usize * scale + end <= b.len()`
    /// for every `p`, and that the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // a panel, its operand rows and one span
    pub(crate) unsafe fn span_avx2<const LOAD_C: bool>(
        a: &[f32],
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c: &mut [f32],
        stride: usize,
        start: usize,
        end: usize,
    ) {
        let kk = offs.len();
        let rows = a.len() / kk;
        let tiled = rows - rows % TILE_ROWS;
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // A tile starts at row `r0 <= rows − TILE_ROWS`, so its rows
        // `r0 + r < rows` read `a[(r0 + r)·kk + p]` with `p < kk` inside
        // `a.len() == rows·kk` and touch `c[(r0 + r)·stride + j]` with
        // `j < end <= stride` inside `c.len() == rows·stride`. No step reads
        // or writes a column outside `start .. end`: the masked step's dead
        // lanes are never accessed.
        for r0 in (0..tiled).step_by(TILE_ROWS) {
            let (a, c) = (a.add(r0 * kk), c.add(r0 * stride));
            let mut j0 = start;
            j0 = chunks256::<TILE_ROWS, 2, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks256::<TILE_ROWS, 1, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            remainder256::<TILE_ROWS, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
        }
        for r in tiled..rows {
            let (a, c) = (a.add(r * kk), c.add(r * stride));
            let mut j0 = start;
            j0 = chunks256::<1, 8, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks256::<1, 4, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks256::<1, 2, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks256::<1, 1, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            remainder256::<1, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
        }
    }

    /// The SSE2 tier: [`span_avx2`]'s row tiling at 128-bit width. Each full
    /// group of [`TILE_ROWS`] rows sweeps `4 × 8`, then `4 × 4` `__m128`
    /// tiles, then its last columns (fewer than 4) in one `4 × 4` step that
    /// loads and stores only the live lanes ([`remainder128`]); the remaining
    /// rows take 32/16/8/4-wide `__m128` chunks, then the same step at one
    /// row.
    ///
    /// # Safety
    ///
    /// Same contract as [`span_avx2`]; SSE2 is baseline on x86-64.
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)] // a panel, its operand rows and one span
    pub(crate) unsafe fn span_sse2<const LOAD_C: bool>(
        a: &[f32],
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c: &mut [f32],
        stride: usize,
        start: usize,
        end: usize,
    ) {
        let kk = offs.len();
        let rows = a.len() / kk;
        let tiled = rows - rows % TILE_ROWS;
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // Tiles stay inside `a` and `c` exactly as in `span_avx2`, and the
        // last step touches only the live columns `j0 .. end`.
        for r0 in (0..tiled).step_by(TILE_ROWS) {
            let (a, c) = (a.add(r0 * kk), c.add(r0 * stride));
            let mut j0 = start;
            j0 = chunks128::<TILE_ROWS, 2, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks128::<TILE_ROWS, 1, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            remainder128::<TILE_ROWS, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
        }
        for r in tiled..rows {
            let (a, c) = (a.add(r * kk), c.add(r * stride));
            let mut j0 = start;
            j0 = chunks128::<1, 8, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks128::<1, 4, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks128::<1, 2, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks128::<1, 1, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
            remainder128::<1, LOAD_C>(a, b, offs, scale, c, stride, end, j0);
        }
    }
}

/// Serialises tests that pin tiers *and assert on the pinned value* (results
/// are tier-independent, but `active_tier()` readbacks are not). Recovers
/// from poisoning: a panicked tier test must not cascade.
#[cfg(test)]
pub(crate) fn tier_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_from_name() {
        for tier in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            assert_eq!(SimdTier::from_name(tier.label()), Some(tier));
        }
        assert_eq!(SimdTier::from_name(" AVX2 "), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::from_name("avx512"), None);
        assert_eq!(SimdTier::from_name(""), None);
    }

    #[test]
    fn parse_rejects_unknown_tier_names_with_a_typed_error() {
        assert_eq!(SimdTier::parse("avx2"), Ok(SimdTier::Avx2));
        assert_eq!(SimdTier::parse(" Scalar "), Ok(SimdTier::Scalar));
        let err = SimdTier::parse("acx2").unwrap_err();
        assert_eq!(err.name, "acx2");
        let msg = err.to_string();
        // The message names the offending value and every valid spelling.
        assert!(msg.contains("acx2"), "{msg}");
        for valid in ["scalar", "sse2", "avx2"] {
            assert!(msg.contains(valid), "{msg}");
        }
        // It is a real std error (boxable, chainable).
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn unrecognised_shfl_simd_override_falls_back_loudly_not_silently() {
        // The tier test lock serialises every test that touches the
        // SHFL_SIMD variable or the cached tier.
        let _guard = tier_test_lock();
        std::env::set_var("SHFL_SIMD", "turbo9000");
        force_tier(None); // drop the cache so resolve() re-reads the env
        let resolved = active_tier();
        std::env::remove_var("SHFL_SIMD");
        force_tier(None);
        // The unknown name must not pick some arbitrary tier: the resolution
        // warns (stderr) and lands exactly on the auto-detected tier.
        assert_eq!(resolved, best_available());
    }

    #[test]
    fn tiers_order_narrowest_to_widest() {
        assert!(SimdTier::Scalar < SimdTier::Sse2);
        assert!(SimdTier::Sse2 < SimdTier::Avx2);
    }

    #[test]
    fn available_tiers_always_starts_with_scalar_and_is_sorted() {
        let tiers = available_tiers();
        assert_eq!(tiers[0], SimdTier::Scalar);
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*tiers.last().unwrap(), best_available());
    }

    #[test]
    fn forcing_clamps_to_what_the_cpu_supports() {
        let _guard = tier_test_lock();
        // Whatever tier we pin, the active tier never exceeds the hardware.
        for tier in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            force_tier(Some(tier));
            assert!(active_tier() <= best_available());
            assert!(active_tier() <= tier);
        }
        force_tier(None);
        assert!(active_tier() <= best_available());
    }
}
