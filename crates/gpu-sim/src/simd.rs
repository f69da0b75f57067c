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
//! **Every tier is bit-identical.** The vector tiers widen the sweep across
//! *independent output columns* only: each output element still accumulates
//! its `k` contributions in ascending order through one `f32` lane, using a
//! separate IEEE-754 multiply and add per step (deliberately **no FMA** — a
//! fused multiply-add skips the intermediate rounding and would diverge from
//! the scalar oracle in the last bit). How columns are grouped into register
//! chunks never changes a result, so the dispatch decision — even one racing
//! a concurrent [`force_tier`] — can never change an output.
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
/// SSE2 entry, each covering columns `start .. end` of one output row with
/// the arithmetic of the scalar tier.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// Sweeps every full `NV·8`-wide chunk of columns `j0 .. end`, holding
    /// the chunk in `NV` `__m256` accumulators across the whole reduction.
    /// Returns the first column left over. `LOAD_C` selects the accumulate
    /// mode of `mma_sweep`: start the chunk from `c`, or from `+0.0` with one
    /// add into `c` at the end.
    ///
    /// # Safety
    ///
    /// For every step `p`: `offs[p]·scale + end` must not exceed the length
    /// of the slice `b` points into, `c_row` must be valid for `end`
    /// elements, and the CPU must support AVX2.
    #[inline(always)]
    unsafe fn chunks256<const NV: usize, const LOAD_C: bool>(
        a_row: &[f32],
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c_row: *mut f32,
        end: usize,
        mut j0: usize,
    ) -> usize {
        let blk = NV * 8;
        while j0 + blk <= end {
            let mut part = [_mm256_setzero_ps(); NV];
            if LOAD_C {
                for (v, acc) in part.iter_mut().enumerate() {
                    *acc = _mm256_loadu_ps(c_row.add(j0 + v * 8) as *const f32);
                }
            }
            for (&av, &off) in a_row.iter().zip(offs) {
                let avv = _mm256_set1_ps(av);
                let row = b.add(off as usize * scale + j0);
                for (v, acc) in part.iter_mut().enumerate() {
                    let bv = _mm256_loadu_ps(row.add(v * 8));
                    // Separate mul + add: an FMA would skip the intermediate
                    // rounding and break bit-identity with the scalar tier.
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(avv, bv));
                }
            }
            for (v, acc) in part.iter().enumerate() {
                let dst = c_row.add(j0 + v * 8);
                let out = if LOAD_C {
                    *acc
                } else {
                    _mm256_add_ps(_mm256_loadu_ps(dst as *const f32), *acc)
                };
                _mm256_storeu_ps(dst, out);
            }
            j0 += blk;
        }
        j0
    }

    /// [`chunks256`] at 128-bit width: every full `NV·4`-wide chunk in `NV`
    /// `__m128` accumulators.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks256`]; SSE2 is baseline on x86-64.
    #[inline(always)]
    unsafe fn chunks128<const NV: usize, const LOAD_C: bool>(
        a_row: &[f32],
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c_row: *mut f32,
        end: usize,
        mut j0: usize,
    ) -> usize {
        let blk = NV * 4;
        while j0 + blk <= end {
            let mut part = [_mm_setzero_ps(); NV];
            if LOAD_C {
                for (v, acc) in part.iter_mut().enumerate() {
                    *acc = _mm_loadu_ps(c_row.add(j0 + v * 4) as *const f32);
                }
            }
            for (&av, &off) in a_row.iter().zip(offs) {
                let avv = _mm_set1_ps(av);
                let row = b.add(off as usize * scale + j0);
                for (v, acc) in part.iter_mut().enumerate() {
                    let bv = _mm_loadu_ps(row.add(v * 4));
                    *acc = _mm_add_ps(*acc, _mm_mul_ps(avv, bv));
                }
            }
            for (v, acc) in part.iter().enumerate() {
                let dst = c_row.add(j0 + v * 4);
                let out = if LOAD_C {
                    *acc
                } else {
                    _mm_add_ps(_mm_loadu_ps(dst as *const f32), *acc)
                };
                _mm_storeu_ps(dst, out);
            }
            j0 += blk;
        }
        j0
    }

    /// Remainder columns `j0 .. end`, one at a time, with the arithmetic of
    /// the scalar tier's tail.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`chunks256`].
    #[inline(always)]
    unsafe fn scalar_tail<const LOAD_C: bool>(
        a_row: &[f32],
        b: *const f32,
        offs: &[u32],
        scale: usize,
        c_row: *mut f32,
        end: usize,
        j0: usize,
    ) {
        for j in j0..end {
            let o = c_row.add(j);
            let mut part = if LOAD_C { *o } else { 0.0 };
            for (&av, &off) in a_row.iter().zip(offs) {
                part += av * *b.add(off as usize * scale + j);
            }
            if LOAD_C {
                *o = part;
            } else {
                *o += part;
            }
        }
    }

    /// The AVX2 tier: 64/32/16/8-wide `__m256` chunks, one 4-wide `__m128`
    /// step, then the scalar tail.
    ///
    /// # Safety
    ///
    /// Caller guarantees `offs[p] as usize * scale + end <= b.len()` for
    /// every `p`, `end <= c_row.len()`, and that the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn span_avx2<const LOAD_C: bool>(
        a_row: &[f32],
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c_row: &mut [f32],
        start: usize,
        end: usize,
    ) {
        let (b, c) = (b.as_ptr(), c_row.as_mut_ptr());
        let mut j0 = start;
        j0 = chunks256::<8, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks256::<4, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks256::<2, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks256::<1, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks128::<1, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        scalar_tail::<LOAD_C>(a_row, b, offs, scale, c, end, j0);
    }

    /// The SSE2 tier: 32/16/8/4-wide `__m128` chunks, then the scalar tail.
    ///
    /// # Safety
    ///
    /// Same bounds contract as [`span_avx2`]; SSE2 is baseline on x86-64.
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn span_sse2<const LOAD_C: bool>(
        a_row: &[f32],
        b: &[f32],
        offs: &[u32],
        scale: usize,
        c_row: &mut [f32],
        start: usize,
        end: usize,
    ) {
        let (b, c) = (b.as_ptr(), c_row.as_mut_ptr());
        let mut j0 = start;
        j0 = chunks128::<8, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks128::<4, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks128::<2, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        j0 = chunks128::<1, LOAD_C>(a_row, b, offs, scale, c, end, j0);
        scalar_tail::<LOAD_C>(a_row, b, offs, scale, c, end, j0);
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
