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
//! * [`SimdTier::Avx512`] — 512-bit `__m512` chunks (16 lanes), selected when
//!   `avx512f`, `avx512vl` and `fma` are detected at runtime,
//! * [`SimdTier::Avx2`] — 256-bit `__m256` chunks (8 lanes), selected when
//!   both `avx2` and `fma` are detected at runtime,
//! * [`SimdTier::Sse2`] — 128-bit `__m128` chunks (4 lanes), the x86-64
//!   baseline (always available there). It serves x86-64 CPUs without AVX2,
//!   and it stays because it beats the autovectorised scalar tier there at
//!   narrow widths: on a generic x86-64 build on a 2-vCPU Sapphire Rapids
//!   Xeon, the GNMT decode layers at width 8 ran in 0.48–0.62 of the scalar
//!   tier's time (best of 21, two runs; two scalar runs read 0.90–1.05). At
//!   width 32 the scalar tier was as fast or faster (0.84–1.41).
//! * [`SimdTier::Scalar`] — autovectorisable scalar loops, the portable
//!   fallback and the bit-identity oracle for the other tiers.
//!
//! The vector tiers sweep a **register tile of four output rows**: at each
//! reduction step the tile loads its operand vectors once and multiplies each
//! by the four rows' broadcast weights, so one load feeds four rows' worth of
//! multiply-adds. AVX-512 tiles `4 × 32` columns in eight `__m512`
//! accumulators, AVX2 `4 × 16` in eight `__m256` and SSE2 `4 × 8` in eight
//! `__m128`. One tile body serves all three widths. The tile's last columns
//! (fewer than two registers) take one more step. Past one full register it
//! is the same two-register tile, whose second register reads and writes
//! only the live lanes, so the operand and weight loads of a ragged width
//! feed eight accumulators, as a full tile's do. One full register takes a
//! one-register tile. Fewer take a one-register step that reads and writes
//! only the live lanes:
//!
//! * AVX-512 masks with a mask register. Nine to fifteen columns take one
//!   `zmm` step under a `__mmask16`; one to eight, so every width up to 8,
//!   take one `ymm` step under an AVX-512VL `__mmask8`. A `zmm` step there
//!   would carry eight or more dead lanes: with one, GNMT decode widths 1–8
//!   took 1.13–1.52× the AVX2 time on the same Xeon; with the `ymm` step
//!   they take 0.96–1.02× (one decode round's layers).
//! * AVX2 masks its loads and stores with `vmaskmovps`.
//! * SSE2, which has no masked load, moves exactly one, two or three lanes
//!   (`movss`, `movsd`).
//!
//! The dead lanes hold zero and are never stored. Rows past the last
//! multiple of four run one row at a time (128- down to 16-column chunks at
//! AVX-512, 64 down to 8 at AVX2, 32 down to 4 at SSE2), then the same last
//! step at one row.
//!
//! A masked store's dead lanes overlap the next row's first columns, and a
//! load that overlaps a masked store waits for the store to retire rather
//! than take its value. So a masked step that adds its sums into `c` loads
//! all of `c` before it stores any. Stored row by row, each next row's load
//! stalled, and the two-register step ran slower than a full tile followed
//! by a separate masked step.
//!
//! **Every tier is bit-identical.** The vector tiers widen the sweep across
//! *independent output elements* only: each output element still accumulates
//! its `k` contributions in ascending order through one `f32` lane, rounding
//! each product and each sum once, as the scalar tier does. A *fused* sweep
//! (`mma_sweep`'s `FUSED`) issues one fused multiply-add per product instead
//! on the AVX-512 and AVX2 tiers, and gives the same bits by the **exact
//! product rule**: a product of two binary16 values has at most 22
//! significant bits and a magnitude in [2⁻⁴⁸, 65504²], so it is exact in
//! `f32`, and `fma(a, b, c)` then rounds exactly where `c + a·b` does. A
//! caller fuses only when every weight and operand value it sweeps is
//! fp16-exact; on any other value the FMA skips the product's rounding and
//! moves the last bit. SSE2 has no FMA and the scalar tier never fuses, so
//! both keep the separate multiply and add either way. A tile's shape
//! decides which register lane holds an element, never the order or the
//! rounding of its products, so how rows and columns are grouped into tiles
//! and chunks never changes a result, and the dispatch decision — even one
//! racing a concurrent [`force_tier`] — can never change an output. (Where
//! two NaNs meet in one element, which payload survives follows x86's
//! operand-position rule, so only the NaN-ness is tier-independent there.)
//!
//! The active tier is resolved once from CPUID (overridable with the
//! `SHFL_SIMD` environment variable: `scalar`, `sse2`, `avx2` or `avx512`,
//! clamped to what the CPU supports) and cached in an atomic; [`force_tier`]
//! re-pins it at runtime, which tests use to sweep every tier.

use std::sync::atomic::{AtomicU8, Ordering};

/// One dispatchable microkernel implementation tier, ordered from narrowest
/// to widest (`Scalar < Sse2 < Avx2 < Avx512`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// The scalar (autovectorisable) reference loops — portable fallback.
    Scalar,
    /// 128-bit `__m128` sweeps; baseline on every x86-64 CPU.
    Sse2,
    /// 256-bit `__m256` sweeps; requires runtime-detected AVX2 and FMA.
    Avx2,
    /// 512-bit `__m512` sweeps with mask-register tails; requires
    /// runtime-detected AVX-512F, AVX-512VL and FMA.
    Avx512,
}

/// Every tier, narrowest first.
const TIERS: [SimdTier; 4] = [
    SimdTier::Scalar,
    SimdTier::Sse2,
    SimdTier::Avx2,
    SimdTier::Avx512,
];

impl SimdTier {
    /// Stable lower-case name of the tier (`"scalar"`, `"sse2"`, `"avx2"`,
    /// `"avx512"`), matching the `SHFL_SIMD` override spelling.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parses a tier name as spelled by [`SimdTier::label`]
    /// (case-insensitive); `None` for anything else.
    pub fn from_name(name: &str) -> Option<SimdTier> {
        let name = name.trim().to_ascii_lowercase();
        TIERS.into_iter().find(|tier| tier.label() == name)
    }

    /// Like [`SimdTier::from_name`], but an unrecognised name is a **typed
    /// error** naming the offending value and the valid spellings — what the
    /// `SHFL_SIMD` override resolution reports instead of falling back
    /// silently.
    ///
    /// # Errors
    ///
    /// [`UnknownSimdTier`] when `name` is not one of `scalar`, `sse2`,
    /// `avx2`, `avx512` (case-insensitive, surrounding whitespace ignored).
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
            "unknown SIMD tier {:?}; valid tiers are \"scalar\", \"sse2\", \"avx2\", \"avx512\"",
            self.name
        )
    }
}

impl std::error::Error for UnknownSimdTier {}

/// Sentinel for "not resolved yet" in the cached tier atomic.
const UNRESOLVED: u8 = 0;

/// A tier's cached code: its position in [`TIERS`] plus one.
fn encode(tier: SimdTier) -> u8 {
    tier as u8 + 1
}

fn decode(raw: u8) -> Option<SimdTier> {
    TIERS.get(usize::from(raw).checked_sub(1)?).copied()
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
        // Both wide tiers fuse on exact products (`_mm256_fmadd_ps` in the
        // AVX-512 tier's `ymm` step too), so both need FMA.
        let fma = is_x86_feature_detected!("fma");
        if fma && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            SimdTier::Avx512
        } else if fma && is_x86_feature_detected!("avx2") {
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
    let best = best_available();
    TIERS.into_iter().filter(|&tier| tier <= best).collect()
}

/// The x86-64 vector tiers of [`crate::mma::mma_sweep`]: one AVX-512, one
/// AVX2 and one SSE2 entry, each covering columns `start .. end` of every
/// output row of the panel with the arithmetic of the scalar tier. The three
/// run one register-tile body (`tile`) at their own register width.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;
    use core::marker::PhantomData;

    /// Output rows one register tile covers: every operand vector the tile
    /// loads is multiplied by this many rows' weights. The `4 × 16` AVX2
    /// tile's eight accumulators, two operand vectors and one broadcast fit
    /// the sixteen `ymm` registers, where a `4 × 32` tile would not; the
    /// `4 × 32` AVX-512 tile holds the same eleven registers as `zmm`, a third
    /// of the thirty-two.
    const TILE_ROWS: usize = 4;

    /// One `f32` vector register and the arithmetic a register tile runs on
    /// it. `mul` and `add` are separate IEEE-754 operations, each rounded.
    /// `mul_add` rounds `self·b + c` once where the register has an FMA
    /// (`__m256`, `__m512`) and is `mul` then `add` where it has none
    /// (`__m128`): only a fused sweep calls it, whose products are exact
    /// (the module's exact product rule), so both round alike.
    ///
    /// # Safety
    ///
    /// Every method requires a CPU that supports the register's instruction
    /// set (and FMA for `mul_add` on `__m256`); `load` and `store` require
    /// `src` / `dst` to be valid for [`Vector::LANES`] consecutive `f32`
    /// reads / writes.
    trait Vector: Copy {
        /// `f32` lanes in one register.
        const LANES: usize;
        unsafe fn splat(x: f32) -> Self;
        unsafe fn load(src: *const f32) -> Self;
        unsafe fn store(self, dst: *mut f32);
        unsafe fn add(self, other: Self) -> Self;
        unsafe fn mul(self, other: Self) -> Self;
        unsafe fn mul_add(self, b: Self, c: Self) -> Self;
    }

    /// Implements [`Vector`] for one register type from its lane count and
    /// its broadcast, unaligned load and store, add, multiply and
    /// multiply-add intrinsics.
    macro_rules! vector {
        ($reg:ty, $lanes:literal:
         $splat:ident, $load:ident, $store:ident, $add:ident, $mul:ident, $mul_add:ident) => {
            impl Vector for $reg {
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn splat(x: f32) -> Self {
                    $splat(x)
                }
                #[inline(always)]
                unsafe fn load(src: *const f32) -> Self {
                    $load(src)
                }
                #[inline(always)]
                unsafe fn store(self, dst: *mut f32) {
                    $store(dst, self)
                }
                #[inline(always)]
                unsafe fn add(self, other: Self) -> Self {
                    $add(self, other)
                }
                #[inline(always)]
                unsafe fn mul(self, other: Self) -> Self {
                    $mul(self, other)
                }
                #[inline(always)]
                unsafe fn mul_add(self, b: Self, c: Self) -> Self {
                    $mul_add(self, b, c)
                }
            }
        };
    }

    /// SSE2's `mul_add`: it has no FMA, so a separate multiply and add.
    #[inline(always)]
    unsafe fn sse2_mul_add(a: __m128, b: __m128, c: __m128) -> __m128 {
        _mm_add_ps(c, _mm_mul_ps(a, b))
    }

    vector! {
        __m128, 4: _mm_set1_ps, _mm_loadu_ps, _mm_storeu_ps, _mm_add_ps, _mm_mul_ps, sse2_mul_add
    }
    vector! {
        __m256, 8:
        _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps, _mm256_mul_ps,
        _mm256_fmadd_ps
    }
    vector! {
        __m512, 16:
        _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps, _mm512_mul_ps,
        _mm512_fmadd_ps
    }

    /// Which lanes of a register a tile reads and writes: all of them
    /// ([`Full`]), or the first few, for a tile's ragged last columns. Lanes
    /// outside the access are never read or written; they load as `+0.0`.
    ///
    /// # Safety
    ///
    /// `load` and `store` require `src` / `dst` to be valid for reads /
    /// writes of the accessed lanes, and a CPU that supports the access's
    /// instructions.
    trait Access: Copy {
        /// The register the tile accumulates in.
        type V: Vector;
        /// Whether some lanes lie outside the access.
        const MASKED: bool = true;
        unsafe fn load(self, src: *const f32) -> Self::V;
        unsafe fn store(self, dst: *mut f32, v: Self::V);
    }

    /// Every lane of a `V`.
    #[derive(Clone, Copy)]
    struct Full<V>(PhantomData<V>);

    impl<V: Vector> Access for Full<V> {
        type V = V;
        const MASKED: bool = false;
        #[inline(always)]
        unsafe fn load(self, src: *const f32) -> V {
            V::load(src)
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32, v: V) {
            v.store(dst)
        }
    }

    /// The lanes of a `ymm` set in an AVX2 `vmaskmovps` lane mask.
    #[derive(Clone, Copy)]
    struct VMask256(__m256i);

    impl Access for VMask256 {
        type V = __m256;
        #[inline(always)]
        unsafe fn load(self, src: *const f32) -> __m256 {
            _mm256_maskload_ps(src, self.0)
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32, v: __m256) {
            _mm256_maskstore_ps(dst, self.0, v)
        }
    }

    /// The lanes of a `ymm` set in an AVX-512VL `__mmask8`.
    #[derive(Clone, Copy)]
    struct KMask256(__mmask8);

    impl Access for KMask256 {
        type V = __m256;
        #[inline(always)]
        unsafe fn load(self, src: *const f32) -> __m256 {
            _mm256_maskz_loadu_ps(self.0, src)
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32, v: __m256) {
            _mm256_mask_storeu_ps(dst, self.0, v)
        }
    }

    /// The lanes of a `zmm` set in an AVX-512 `__mmask16`.
    #[derive(Clone, Copy)]
    struct KMask512(__mmask16);

    impl Access for KMask512 {
        type V = __m512;
        #[inline(always)]
        unsafe fn load(self, src: *const f32) -> __m512 {
            _mm512_maskz_loadu_ps(self.0, src)
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32, v: __m512) {
            _mm512_mask_storeu_ps(dst, self.0, v)
        }
    }

    /// The first one, two or three lanes of an `xmm`. SSE2 has no masked
    /// load, so the access moves exactly those lanes (`movss`, `movsd`, and
    /// both for three).
    #[derive(Clone, Copy)]
    struct Live128(usize);

    impl Access for Live128 {
        type V = __m128;
        #[inline(always)]
        unsafe fn load(self, src: *const f32) -> __m128 {
            match self.0 {
                1 => _mm_load_ss(src),
                2 => _mm_castpd_ps(_mm_load_sd(src.cast())),
                _ => _mm_movelh_ps(
                    _mm_castpd_ps(_mm_load_sd(src.cast())),
                    _mm_load_ss(src.add(2)),
                ),
            }
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32, v: __m128) {
            match self.0 {
                1 => _mm_store_ss(dst, v),
                2 => _mm_store_sd(dst.cast(), _mm_castps_pd(v)),
                _ => {
                    _mm_store_sd(dst.cast(), _mm_castps_pd(v));
                    _mm_store_ss(dst.add(2), _mm_movehl_ps(v, v));
                }
            }
        }
    }

    /// One `NR × NV·LANES` register tile at columns `j0 ..` of the `NR`
    /// consecutive output rows whose weights start at `a` and whose outputs
    /// start at `c`, held in `NR·NV` accumulators across the whole reduction:
    /// at step `p` each of the `NV` operand vectors is loaded once and
    /// multiplied by all `NR` rows' broadcast weights. Every vector of a row
    /// but the last reads and writes all its lanes; `access` decides which
    /// lanes of the last one are read and written, so a masked access ends
    /// the tile with a ragged vector. Dead lanes load as zero and only ever
    /// feed other dead lanes, so each live column takes exactly the products
    /// a full tile would give it. `LOAD_C` selects the accumulate mode of
    /// `mma_sweep`: start the tile from `c`, or from `+0.0` with one add into
    /// `c` at the end. `FUSED` takes each product with one `mul_add` in place
    /// of `mul` then `add`: the same bits when the products are exact, as
    /// they are in a fused sweep.
    ///
    /// # Safety
    ///
    /// With `kk = offs.len()`: `a` must be valid for `NR·kk` reads, and for
    /// every `r < NR`, `v < NV` and step `p`, the lanes vector `v` touches
    /// (all `LANES` of them for `v < NV − 1`, those `access` covers for the
    /// last) at `c + r·stride + j0 + v·LANES` must be valid for reads and
    /// writes and those at `b + offs[p]·scale + j0 + v·LANES` for reads. The
    /// CPU must support `A`'s instructions.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn tile<
        A: Access,
        const NR: usize,
        const NV: usize,
        const LOAD_C: bool,
        const FUSED: bool,
    >(
        access: A,
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        j0: usize,
    ) {
        let (kk, lanes) = (offs.len(), A::V::LANES);
        // Vector `v` of a row: all lanes but for the last, which `access` reads.
        let load = |v: usize, src: *const f32| {
            if v + 1 < NV {
                A::V::load(src)
            } else {
                access.load(src)
            }
        };
        let mut part = [[A::V::splat(0.0); NV]; NR];
        if LOAD_C {
            for (r, row) in part.iter_mut().enumerate() {
                for (v, acc) in row.iter_mut().enumerate() {
                    *acc = load(v, c.add(r * stride + j0 + v * lanes));
                }
            }
        }
        for (p, &off) in offs.iter().enumerate() {
            let src = b.add(off as usize * scale + j0);
            let mut bv = [A::V::splat(0.0); NV];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = load(v, src.add(v * lanes));
            }
            for (r, row) in part.iter_mut().enumerate() {
                let avv = A::V::splat(*a.add(r * kk + p));
                for (acc, &x) in row.iter_mut().zip(&bv) {
                    // Fused only on exact products: on any other an FMA
                    // skips the product's rounding and moves the last bit.
                    *acc = if FUSED {
                        avv.mul_add(x, *acc)
                    } else {
                        A::V::add(*acc, A::V::mul(avv, x))
                    };
                }
            }
        }
        // A masked store's dead lanes overlap the next row's first columns,
        // and a load that overlaps a masked store waits for the store to
        // retire instead of taking its value. So a masked tile loads all the
        // `c` it adds to before it stores any; a full one goes row by row.
        if !LOAD_C && A::MASKED {
            for (r, row) in part.iter_mut().enumerate() {
                for (v, acc) in row.iter_mut().enumerate() {
                    *acc = A::V::add(load(v, c.add(r * stride + j0 + v * lanes)), *acc);
                }
            }
        }
        for (r, row) in part.iter().enumerate() {
            for (v, &acc) in row.iter().enumerate() {
                let dst = c.add(r * stride + j0 + v * lanes);
                let out = if LOAD_C || A::MASKED {
                    acc
                } else {
                    A::V::add(load(v, dst), acc)
                };
                if v + 1 < NV {
                    out.store(dst)
                } else {
                    access.store(dst, out)
                }
            }
        }
    }

    /// Sweeps every full `NV·LANES`-wide chunk of columns `j0 .. end` of the
    /// `NR` rows as one all-lanes [`tile`]. Returns the first column left
    /// over.
    ///
    /// # Safety
    ///
    /// With `kk = offs.len()`: `a` must be valid for `NR·kk` reads, `c` for
    /// reads and writes at `r·stride + j` for every `r < NR` and `j < end`,
    /// and for every step `p`, `offs[p]·scale + end` must not exceed the
    /// length of the slice `b` points into. The CPU must support `V`'s
    /// instructions.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn chunks<
        V: Vector,
        const NR: usize,
        const NV: usize,
        const LOAD_C: bool,
        const FUSED: bool,
    >(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        mut j0: usize,
    ) -> usize {
        let blk = NV * V::LANES;
        while j0 + blk <= end {
            let full = Full::<V>(PhantomData);
            tile::<_, NR, NV, LOAD_C, FUSED>(full, a, b, offs, scale, c, stride, j0);
            j0 += blk;
        }
        j0
    }

    /// The AVX-512 tier's last step: the last `end − j0` columns (fewer than
    /// 32, possibly none) of the `NR` rows in one [`tile`]. Seventeen to
    /// thirty-one columns take one `NR × 32` tile whose second `zmm` is
    /// masked by a `__mmask16`, so they keep the eight accumulators of a full
    /// `4 × 32` tile where a `4 × 16` tile and a masked step would each hold
    /// four. Sixteen take one full `zmm` step; nine to fifteen one `zmm` step
    /// under a `__mmask16`; one to eight one `ymm` step under an AVX-512VL
    /// `__mmask8`, which at narrow widths costs less than a `zmm` step with
    /// eight or more dead lanes.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks`], with `end − j0 < 32`. The CPU
    /// must support AVX-512F, AVX-512VL and FMA.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn last_avx512<const NR: usize, const LOAD_C: bool, const FUSED: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        j0: usize,
    ) {
        let live = end - j0;
        debug_assert!(live < 32);
        // The low `n` bits: lane `l` is live when `l < n`.
        let low = |n: usize| (1u32 << n) - 1;
        match live {
            0 => {}
            1..=8 => {
                let mask = KMask256(low(live) as __mmask8);
                tile::<_, NR, 1, LOAD_C, FUSED>(mask, a, b, offs, scale, c, stride, j0);
            }
            9..=15 => {
                let mask = KMask512(low(live) as __mmask16);
                tile::<_, NR, 1, LOAD_C, FUSED>(mask, a, b, offs, scale, c, stride, j0);
            }
            16 => {
                let full = Full::<__m512>(PhantomData);
                tile::<_, NR, 1, LOAD_C, FUSED>(full, a, b, offs, scale, c, stride, j0);
            }
            _ => {
                let mask = KMask512(low(live - 16) as __mmask16);
                tile::<_, NR, 2, LOAD_C, FUSED>(mask, a, b, offs, scale, c, stride, j0);
            }
        }
    }

    /// The AVX2 tier's last step: the last `end − j0` columns (fewer than
    /// 16, possibly none) of the `NR` rows in one [`tile`], as
    /// [`last_avx512`] takes them at half the width. Nine to fifteen columns
    /// take one `NR × 16` tile whose second `ymm` is read and written with
    /// `vmaskmovps` under a lane mask; eight take one full `ymm` step; one to
    /// seven one `vmaskmovps` step.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks`], with `end − j0 < 16`. The CPU must
    /// support AVX2 and FMA.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn last_avx2<const NR: usize, const LOAD_C: bool, const FUSED: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        j0: usize,
    ) {
        let live = end - j0;
        debug_assert!(live < 16);
        // The lane mask `lane < n`.
        let mask = |n: usize| {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            VMask256(_mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lanes))
        };
        match live {
            0 => {}
            1..=7 => tile::<_, NR, 1, LOAD_C, FUSED>(mask(live), a, b, offs, scale, c, stride, j0),
            8 => {
                let full = Full::<__m256>(PhantomData);
                tile::<_, NR, 1, LOAD_C, FUSED>(full, a, b, offs, scale, c, stride, j0);
            }
            _ => tile::<_, NR, 2, LOAD_C, FUSED>(mask(live - 8), a, b, offs, scale, c, stride, j0),
        }
    }

    /// The SSE2 tier's last step: the last `end − j0` columns (fewer than 8,
    /// possibly none) of the `NR` rows in one [`tile`], as [`last_avx512`]
    /// takes them at a quarter of the width. Five to seven columns take one
    /// `NR × 8` tile whose second `xmm` loads and stores only its live lanes;
    /// four take one full `xmm` step; one to three one live-lanes step.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks`], with `end − j0 < 8`; SSE2 is
    /// baseline on x86-64.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // a row tile, its operand rows and its columns
    unsafe fn last_sse2<const NR: usize, const LOAD_C: bool, const FUSED: bool>(
        a: *const f32,
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c: *mut f32,
        stride: usize,
        end: usize,
        j0: usize,
    ) {
        let live = end - j0;
        debug_assert!(live < 8);
        match live {
            0 => {}
            1..=3 => {
                tile::<_, NR, 1, LOAD_C, FUSED>(Live128(live), a, b, offs, scale, c, stride, j0)
            }
            4 => {
                let full = Full::<__m128>(PhantomData);
                tile::<_, NR, 1, LOAD_C, FUSED>(full, a, b, offs, scale, c, stride, j0);
            }
            _ => {
                let mask = Live128(live - 4);
                tile::<_, NR, 2, LOAD_C, FUSED>(mask, a, b, offs, scale, c, stride, j0);
            }
        }
    }

    /// The AVX-512 tier over columns `start .. end` of every row of a
    /// `rows × kk` panel. Each full group of [`TILE_ROWS`] rows sweeps
    /// `4 × 32` `__m512` tiles, then its last columns (fewer than 32) in one
    /// step ([`last_avx512`]). Rows past the last full group take the one-row
    /// path: 128/64/32/16-wide `__m512` chunks, then the same last step at
    /// one row (fewer than 16 columns there). The 128-wide chunk's eight
    /// accumulators give the one-row sweep (every row of a CSR plan) eight
    /// independent chains, as the AVX2 tier's 64-wide chunk does.
    ///
    /// # Safety
    ///
    /// With `kk = offs.len()`: caller guarantees `kk > 0`,
    /// `a.len() == rows·kk` and `c.len() == rows·stride` for the same
    /// `rows`, `end <= stride`, `offs[p] as usize * scale + end <= b.len()`
    /// for every `p`, and that the CPU supports AVX-512F, AVX-512VL and FMA
    /// (which `avx512f` implies as a target feature).
    #[target_feature(enable = "avx512f,avx512vl")]
    #[allow(clippy::too_many_arguments)] // a panel, its operand rows and one span
    pub(crate) unsafe fn span_avx512<const LOAD_C: bool, const FUSED: bool>(
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
            let j0 = chunks::<__m512, TILE_ROWS, 2, LOAD_C, FUSED>(
                a, b, offs, scale, c, stride, end, start,
            );
            last_avx512::<TILE_ROWS, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
        }
        for r in tiled..rows {
            let (a, c) = (a.add(r * kk), c.add(r * stride));
            let mut j0 = start;
            j0 = chunks::<__m512, 1, 8, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m512, 1, 4, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m512, 1, 2, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m512, 1, 1, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            last_avx512::<1, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
        }
    }

    /// The AVX2 tier: [`span_avx512`]'s row tiling at 256-bit width. Each
    /// full group of [`TILE_ROWS`] rows sweeps `4 × 16` `__m256` tiles, then
    /// its last columns (fewer than 16) in one step ([`last_avx2`]); the
    /// remaining rows take 64/32/16/8-wide `__m256` chunks, then the same
    /// last step at one row.
    ///
    /// # Safety
    ///
    /// Same contract as [`span_avx512`], with a CPU that supports AVX2 and
    /// FMA.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)] // a panel, its operand rows and one span
    pub(crate) unsafe fn span_avx2<const LOAD_C: bool, const FUSED: bool>(
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
        // Tiles stay inside `a` and `c` exactly as in `span_avx512`, and the
        // masked step touches only the live columns `j0 .. end`.
        for r0 in (0..tiled).step_by(TILE_ROWS) {
            let (a, c) = (a.add(r0 * kk), c.add(r0 * stride));
            let j0 = chunks::<__m256, TILE_ROWS, 2, LOAD_C, FUSED>(
                a, b, offs, scale, c, stride, end, start,
            );
            last_avx2::<TILE_ROWS, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
        }
        for r in tiled..rows {
            let (a, c) = (a.add(r * kk), c.add(r * stride));
            let mut j0 = start;
            j0 = chunks::<__m256, 1, 8, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m256, 1, 4, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m256, 1, 2, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m256, 1, 1, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            last_avx2::<1, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
        }
    }

    /// The SSE2 tier: [`span_avx512`]'s row tiling at 128-bit width. Each
    /// full group of [`TILE_ROWS`] rows sweeps `4 × 8` `__m128` tiles, then
    /// its last columns (fewer than 8) in one step ([`last_sse2`]); the
    /// remaining rows take 32/16/8/4-wide `__m128` chunks, then the same last
    /// step at one row.
    ///
    /// # Safety
    ///
    /// Same contract as [`span_avx512`]; SSE2 is baseline on x86-64.
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)] // a panel, its operand rows and one span
    pub(crate) unsafe fn span_sse2<const LOAD_C: bool, const FUSED: bool>(
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
        // Tiles stay inside `a` and `c` exactly as in `span_avx512`, and the
        // last step touches only the live columns `j0 .. end`.
        for r0 in (0..tiled).step_by(TILE_ROWS) {
            let (a, c) = (a.add(r0 * kk), c.add(r0 * stride));
            let j0 = chunks::<__m128, TILE_ROWS, 2, LOAD_C, FUSED>(
                a, b, offs, scale, c, stride, end, start,
            );
            last_sse2::<TILE_ROWS, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
        }
        for r in tiled..rows {
            let (a, c) = (a.add(r * kk), c.add(r * stride));
            let mut j0 = start;
            j0 = chunks::<__m128, 1, 8, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m128, 1, 4, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m128, 1, 2, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            j0 = chunks::<__m128, 1, 1, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
            last_sse2::<1, LOAD_C, FUSED>(a, b, offs, scale, c, stride, end, j0);
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
        for tier in TIERS {
            assert_eq!(SimdTier::from_name(tier.label()), Some(tier));
            assert_eq!(decode(encode(tier)), Some(tier));
        }
        assert_eq!(SimdTier::from_name(" AVX2 "), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::from_name("AVX512"), Some(SimdTier::Avx512));
        assert_eq!(SimdTier::from_name("avx512f"), None);
        assert_eq!(SimdTier::from_name(""), None);
        assert_eq!(decode(UNRESOLVED), None);
    }

    #[test]
    fn parse_rejects_unknown_tier_names_with_a_typed_error() {
        assert_eq!(SimdTier::parse("avx2"), Ok(SimdTier::Avx2));
        assert_eq!(SimdTier::parse(" Scalar "), Ok(SimdTier::Scalar));
        assert_eq!(SimdTier::parse("avx512"), Ok(SimdTier::Avx512));
        let err = SimdTier::parse("acx2").unwrap_err();
        assert_eq!(err.name, "acx2");
        let msg = err.to_string();
        // The message names the offending value and every valid spelling.
        assert!(msg.contains("acx2"), "{msg}");
        for valid in ["scalar", "sse2", "avx2", "avx512"] {
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
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        assert!(TIERS.windows(2).all(|w| w[0] < w[1]));
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
        for tier in TIERS {
            force_tier(Some(tier));
            assert!(active_tier() <= best_available());
            assert!(active_tier() <= tier);
            // A tier the CPU has is pinned exactly, not clamped below it.
            if tier <= best_available() {
                assert_eq!(active_tier(), tier);
            }
        }
        force_tier(None);
        assert!(active_tier() <= best_available());
    }
}
