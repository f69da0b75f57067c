//! Software IEEE 754 binary16 (fp16) rounding.
//!
//! The simulated kernels store operands as `f32` but mimic half-precision
//! inputs by rounding every operand through fp16 on the way into the MMA
//! pipeline. This module owns the conversion so that both the GPU substrate
//! simulator (`gpu-sim`, which re-exports [`round_to_f16`] from its `mma`
//! module) and [`crate::matrix::DenseMatrix::as_f16_rounded`] — the whole-matrix
//! pre-pass the blocked kernels use to hoist rounding out of their inner loops —
//! share one implementation.

/// Rounds an `f32` value through IEEE 754 binary16 and back, mimicking the
/// precision loss of storing kernel operands in fp16.
///
/// Values whose magnitude exceeds the fp16 range saturate to ±65504; subnormals
/// are flushed following round-to-nearest-even semantics of the conversion.
#[inline]
pub fn round_to_f16(value: f32) -> f32 {
    f32::from(half_from_f32(value))
}

/// Rounds every element of `values` through fp16 in place, using the
/// branchless conversion (`f16_bits_branchless` / `f32_bits_branchless`).
///
/// This is the whole-operand hot path behind
/// [`crate::matrix::DenseMatrix::as_f16_rounded`]: the straight-line,
/// select-based conversion has no data-dependent branches, so the loop
/// auto-vectorises where the branchy scalar [`round_to_f16`] cannot. The
/// property tests assert it is **bit-identical** to the scalar conversion
/// across every `f32` class (NaN payloads, subnormals, ±inf, ±0,
/// round-to-even ties, saturating magnitudes).
pub fn round_to_f16_slice(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = f32::from_bits(f32_bits_branchless(f16_bits_branchless(v.to_bits())));
    }
}

/// Copies `src` into `dst` rounding every element through fp16 in one pass —
/// the fused copy+round used when staging operands into transform buffers,
/// bit-identical to a copy followed by [`round_to_f16_slice`] but with half
/// the memory traffic.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn round_to_f16_into(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "round_to_f16_into length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = f32::from_bits(f32_bits_branchless(f16_bits_branchless(s.to_bits())));
    }
}

/// All-ones mask when `cond` holds, all-zeros otherwise.
#[inline(always)]
fn mask32(cond: bool) -> u32 {
    (cond as u32).wrapping_neg()
}

/// Bitwise select: `a` where `mask` is set, `b` elsewhere.
#[inline(always)]
fn select32(mask: u32, a: u32, b: u32) -> u32 {
    (a & mask) | (b & !mask)
}

/// Branchless f32-bits → f16-bits conversion with the exact semantics of
/// [`round_to_f16`]'s scalar path: round-to-nearest-even, finite overflow
/// saturating to ±65504, NaNs quieted to `0x7e00`-class payloads, gradual
/// underflow to subnormals, flush to signed zero below half the smallest
/// subnormal. Every case is computed unconditionally and the result is picked
/// with bit masks, so there is no data-dependent control flow.
#[inline(always)]
fn f16_bits_branchless(bits: u32) -> u16 {
    let sign = (bits >> 16) & 0x8000;
    let exp = (bits >> 23) & 0xff;
    let mant = bits & 0x007f_ffff;
    let new_exp = exp as i32 - 127 + 15;

    // Normal path: drop 13 mantissa bits with round-to-nearest-even. The
    // rounding increment is added to the packed (exponent | mantissa) value,
    // so a mantissa carry bumps the exponent for free; carrying into the
    // infinity encoding saturates below.
    let mant10 = mant >> 13;
    let inc = ((mant >> 12) & 1) & (((mant & 0x0fff) != 0) as u32 | (mant10 & 1));
    let normal = (new_exp as u32) << 10 | mant10;
    let normal = normal.wrapping_add(inc);
    let normal = select32(mask32(new_exp >= 0x1f || normal >= 0x7c00), 0x7bff, normal);

    // Subnormal path (`-10 <= new_exp <= 0`): shift the full 24-bit mantissa
    // right by `14 - new_exp` with round-to-nearest-even. The shift is clamped
    // into range so the computation stays defined when another path is
    // selected; values below half the smallest subnormal flush to zero.
    let shift = (14 - new_exp).clamp(1, 24) as u32;
    let full = mant | 0x0080_0000;
    let sub = full >> shift;
    let round_bit = 1u32 << (shift - 1);
    let sub_inc =
        (((full & round_bit) != 0) as u32) & (((full & (round_bit - 1)) != 0) as u32 | (sub & 1));
    let sub = select32(mask32(new_exp < -10), 0, sub.wrapping_add(sub_inc));

    // NaN / Inf path: infinities stay infinite, NaNs are quieted to 0x200.
    let nan_inf = 0x7c00 | select32(mask32(mant != 0), 0x200, 0);

    let finite = select32(mask32(new_exp <= 0), sub, normal);
    let magnitude = select32(mask32(exp == 0xff), nan_inf, finite);
    (sign | magnitude) as u16
}

/// Branchless f16-bits → f32-bits decode matching `From<HalfBits> for f32`.
///
/// The subnormal case is decoded arithmetically: an fp16 subnormal is exactly
/// `mant × 2⁻²⁴`, and both the integer-to-float conversion (`mant ≤ 1023`) and
/// the power-of-two scale are exact in `f32`, so no normalisation loop is
/// needed.
#[inline(always)]
fn f32_bits_branchless(half: u16) -> u32 {
    let bits = half as u32;
    let sign = (bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1f;
    let mant = bits & 0x03ff;
    let normal = ((exp + 127 - 15) << 23) | (mant << 13);
    let nan_inf = 0x7f80_0000 | (mant << 13);
    let subnormal = (mant as f32 * (1.0 / (1u32 << 24) as f32)).to_bits();
    let magnitude = select32(
        mask32(exp == 0),
        subnormal,
        select32(mask32(exp == 0x1f), nan_inf, normal),
    );
    sign | magnitude
}

/// Minimal software fp16 conversion (round-to-nearest-even), returning the
/// decoded value as `f32` via the bit pattern.
#[inline]
fn half_from_f32(value: f32) -> HalfBits {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let mant16 = if mant != 0 { 0x200 } else { 0 };
        return HalfBits(sign | 0x7c00 | mant16);
    }

    // Re-bias from 127 to 15.
    let unbiased = exp - 127;
    let new_exp = unbiased + 15;

    if new_exp >= 0x1f {
        // Overflow: saturate to the largest finite fp16 value rather than infinity,
        // matching the saturating behaviour most DNN frameworks configure.
        return HalfBits(sign | 0x7bff);
    }
    if new_exp <= 0 {
        // Subnormal or underflow to zero.
        if new_exp < -10 {
            return HalfBits(sign);
        }
        let full_mant = mant | 0x0080_0000;
        let shift = (14 - new_exp) as u32;
        let half_mant = full_mant >> shift;
        // Round to nearest even.
        let round_bit = 1u32 << (shift - 1);
        let rounded = if (full_mant & round_bit) != 0
            && ((full_mant & (round_bit - 1)) != 0 || (half_mant & 1) != 0)
        {
            half_mant + 1
        } else {
            half_mant
        };
        return HalfBits(sign | rounded as u16);
    }

    // Normalised result; round mantissa from 23 to 10 bits (nearest even).
    let mant10 = mant >> 13;
    let round_bit = mant & 0x0000_1000;
    let sticky = mant & 0x0000_0fff;
    let mut half = (new_exp as u16) << 10 | mant10 as u16;
    if round_bit != 0 && (sticky != 0 || (half & 1) != 0) {
        half = half.wrapping_add(1);
        if half & 0x7c00 == 0x7c00 {
            // Rounded up into the infinity encoding: saturate.
            half = 0x7bff;
        }
    }
    HalfBits(sign | half)
}

/// Raw fp16 bits produced by [`half_from_f32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HalfBits(u16);

impl From<HalfBits> for f32 {
    #[inline]
    fn from(h: HalfBits) -> f32 {
        let bits = h.0 as u32;
        let sign = (bits & 0x8000) << 16;
        let exp = (bits >> 10) & 0x1f;
        let mant = bits & 0x03ff;
        let out = if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalise.
                let mut exp32 = 127 - 15 - 10;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    exp32 -= 1;
                }
                m &= 0x03ff;
                sign | (((exp32 + 1 + 10) as u32) << 23) | (m << 13)
            }
        } else if exp == 0x1f {
            sign | 0x7f80_0000 | (mant << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_preserves_representable_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25, 65504.0] {
            assert_eq!(
                round_to_f16(v),
                v,
                "value {v} should be exactly representable"
            );
        }
    }

    #[test]
    fn rounding_introduces_bounded_error() {
        let v = 0.1f32;
        let r = round_to_f16(v);
        assert!((r - v).abs() < 1e-3);
        // Large values saturate instead of becoming infinite.
        assert!(round_to_f16(1e9).is_finite());
        assert!(round_to_f16(1e9) <= 65504.0);
    }

    #[test]
    fn handles_negative_and_subnormal() {
        let v = -std::f32::consts::PI;
        assert!((round_to_f16(v) - v).abs() < 2e-3);
        let tiny = 1e-6f32;
        let r = round_to_f16(tiny);
        assert!((0.0..1e-5).contains(&r));
    }

    #[test]
    fn rounding_is_idempotent() {
        for i in 0..10_000u32 {
            let v = f32::from_bits(0x3f00_0000 ^ i.wrapping_mul(2_654_435_761));
            if !v.is_finite() {
                continue;
            }
            let once = round_to_f16(v);
            assert_eq!(once.to_bits(), round_to_f16(once).to_bits(), "value {v}");
        }
    }

    #[test]
    fn preserves_zero_signs() {
        assert_eq!(round_to_f16(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(round_to_f16(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    /// Asserts the branchless slice path equals the scalar reference bit for
    /// bit on `value` (NaNs compare by bit pattern, not by value).
    fn assert_branchless_matches_scalar(value: f32) {
        let mut slice = [value];
        round_to_f16_slice(&mut slice);
        assert_eq!(
            slice[0].to_bits(),
            round_to_f16(value).to_bits(),
            "input bits {:#010x} ({value})",
            value.to_bits()
        );
    }

    #[test]
    fn branchless_matches_scalar_on_every_f32_class() {
        for bits in [
            0x0000_0000u32, // +0
            0x8000_0000,    // -0
            0x0000_0001,    // smallest +subnormal
            0x8000_0001,    // smallest -subnormal
            0x007f_ffff,    // largest subnormal
            0x0080_0000,    // smallest normal
            0x3f80_0000,    // 1.0
            0x3f80_0001,    // just above 1.0 (rounds down, sticky only)
            0x3f80_1000,    // exact tie at the half bit (round to even)
            0x3f80_1001,    // tie broken by sticky
            0x3f80_3000,    // tie with odd mantissa (rounds up)
            0x477f_efff,    // just below 65504
            0x477f_f000,    // 65504 + tie (rounds into saturation)
            0x477f_f001,    // above 65504 (saturates)
            0x7f7f_ffff,    // f32::MAX (saturates)
            0x3380_0000,    // 2^-24 exactly (tie at smallest f16 subnormal)
            0x337f_ffff,    // just below half the smallest subnormal
            0x3380_0001,    // just above it (rounds to smallest subnormal)
            0x3300_0000,    // 2^-25 (flushes to zero)
            0x387f_c000,    // largest f16 subnormal neighbourhood
            0x3880_0000,    // smallest f16 normal (2^-14)
            0x7f80_0000,    // +inf
            0xff80_0000,    // -inf
            0x7fc0_0000,    // quiet NaN
            0x7f80_0001,    // signalling NaN (smallest payload)
            0xffff_ffff,    // -NaN with full payload
            0x7faa_aaaa,    // NaN with arbitrary payload
        ] {
            assert_branchless_matches_scalar(f32::from_bits(bits));
        }
    }

    #[test]
    fn branchless_matches_scalar_exhaustively_around_exponent_boundaries() {
        // Every (exponent, low-mantissa) combination, both signs: covers the
        // normal/subnormal/flush/saturate/NaN boundaries of the converter.
        for exp in 0..=0xffu32 {
            for low in 0..64u32 {
                for sign in [0u32, 0x8000_0000] {
                    assert_branchless_matches_scalar(f32::from_bits(
                        sign | (exp << 23) | (low * 0x0003_ffff),
                    ));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn branchless_slice_is_bit_identical_to_scalar(bits in any::<u32>()) {
            assert_branchless_matches_scalar(f32::from_bits(bits));
        }
    }

    #[test]
    fn slice_rounding_covers_whole_slices() {
        let mut values: Vec<f32> = (0..1027u32)
            .map(|i| f32::from_bits(i.wrapping_mul(2_654_435_761)))
            .collect();
        let expected: Vec<u32> = values.iter().map(|v| round_to_f16(*v).to_bits()).collect();
        round_to_f16_slice(&mut values);
        let got: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expected);
    }
}
