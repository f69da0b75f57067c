//! Branch-free f32 `tanh` and `sigmoid` for the decode hooks.
//!
//! The GNMT and Transformer [`DecodeModel`](shfl_serving::DecodeModel)
//! hooks apply these per element to every GEMM output column of a decode
//! round. Both functions are plain IEEE `f32` arithmetic: no libm call, no
//! branch (the range split is a select) and no `mul_add`. So a slice loop
//! over them autovectorises, and a scalar and a vector build give the same
//! bits, because Rust never contracts a multiply and an add into an FMA.
//!
//! * [`tanh`] is within 2 ulp of `f64::tanh` rounded to f32 on every finite
//!   input (1 ulp on the tested sweeps). Below |x| = 0.625 it is Cephes'
//!   odd polynomial `x + x³·P(x²)`; above it is `1 − 2 / (e^{2|x|} + 1)`.
//!   It is odd bit for bit, keeps the sign of zero, is exactly ±1 wherever
//!   the correctly rounded value is, and never exceeds 1 in magnitude.
//! * [`sigmoid`] is `1 / (1 + e^{−x})`, within 2⁻²³ absolute of the exact
//!   logistic, and in `[0, 1]`.
//!
//! Both return NaN for a NaN input. The shared `exp` is Cephes' `expf`: a
//! Cody–Waite reduction by `ln 2`, a degree-5 polynomial on the remainder,
//! and the power of two built in the exponent bits. Its argument is clamped
//! to `[-87, 88]`, so the scale stays a normal float; both functions have
//! saturated long before either end.

/// `1.5 · 2²³`: adding it rounds an `f32` of magnitude below 2²² to the
/// nearest integer, which then sits in the low mantissa bits.
const ROUND_SHIFT: f32 = 12_582_912.0;
/// `ln 2` split so that `n · LN2_HI` is exact for every reduction count `n`
/// (`LN2_HI` = 355/512).
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` polynomial on the reduced argument, highest degree first.
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];
/// Cephes `tanhf` polynomial in `x²` for |x| < [`TANH_SPLIT`], highest
/// degree first.
const TANH_P: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_909e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328e-1,
];
/// Below this magnitude `tanh` takes the polynomial, above it the `exp` form.
const TANH_SPLIT: f32 = 0.625;

/// `e^x` for `x` clamped to `[-87, 88]` (NaN stays NaN).
#[inline(always)]
fn exp(x: f32) -> f32 {
    let x = x.clamp(-87.0, 88.0);
    // n = round(x / ln 2), both as a float and in the mantissa bits.
    let shifted = x * std::f32::consts::LOG2_E + ROUND_SHIFT;
    let n = shifted - ROUND_SHIFT;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p =
        ((((EXP_P[0] * r + EXP_P[1]) * r + EXP_P[2]) * r + EXP_P[3]) * r + EXP_P[4]) * r + EXP_P[5];
    let p = p * (r * r) + r + 1.0;
    // 2^n from n's two's-complement bits: |n| ≤ 127, so the biased exponent
    // n + 127 lies in 1..=254.
    let n_bits = shifted.to_bits().wrapping_sub(ROUND_SHIFT.to_bits());
    p * f32::from_bits(n_bits.wrapping_add(127) << 23)
}

/// Hyperbolic tangent, within 2 ulp of the correctly rounded value (see the
/// module docs for the exact properties).
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ax = x.abs();
    let z = ax * ax;
    let poly = (((TANH_P[0] * z + TANH_P[1]) * z + TANH_P[2]) * z + TANH_P[3]) * z + TANH_P[4];
    let small = poly * z * ax + ax;
    let large = 1.0 - 2.0 / (exp(ax + ax) + 1.0);
    let t = if ax < TANH_SPLIT { small } else { large };
    t.copysign(x)
}

/// Logistic sigmoid `1 / (1 + e^{−x})`, within 2⁻²³ absolute of the exact
/// value.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable f32 steps (both finite).
    fn ulps(a: f32, b: f32) -> u32 {
        let ordered = |x: f32| {
            let bits = x.to_bits() as i32;
            i64::from(if bits < 0 { i32::MIN - bits } else { bits })
        };
        (ordered(a) - ordered(b)).unsigned_abs() as u32
    }

    /// `tanh`'s contract at `x` and `-x`: within 2 ulp of the rounded f64
    /// value, exactly ±1 where that value is, odd bit for bit, bounded.
    fn check_tanh(x: f32) {
        let want = (f64::from(x)).tanh() as f32;
        let got = tanh(x);
        assert!(ulps(got, want) <= 2, "tanh({x:e}) = {got:e}, want {want:e}");
        assert_eq!(got.abs() == 1.0, want.abs() == 1.0, "saturation at {x:e}");
        assert!(got.abs() <= 1.0, "tanh({x:e}) = {got:e}");
        assert_eq!(
            tanh(-x).to_bits(),
            got.to_bits() ^ 0x8000_0000,
            "odd at {x:e}"
        );
    }

    /// `sigmoid`'s contract at `x`: within 2⁻²³ of the f64 logistic, in [0, 1].
    fn check_sigmoid(x: f32) {
        let want = 1.0 / (1.0 + (-f64::from(x)).exp());
        let got = sigmoid(x);
        assert!(
            (f64::from(got) - want).abs() <= f64::powi(2.0, -23),
            "sigmoid({x:e}) = {got:e}, want {want:e}"
        );
        assert!((0.0..=1.0).contains(&got), "sigmoid({x:e}) = {got:e}");
    }

    /// Every `stride`-th non-negative f32 up to 20 (by bit pattern), and its
    /// negation through the checks above.
    fn sweep(stride: usize, mut check: impl FnMut(f32)) {
        for bits in (0..=20.0f32.to_bits()).step_by(stride) {
            let x = f32::from_bits(bits);
            check(x);
            check(-x);
        }
    }

    /// Every f32 within `radius` steps of `centre`, and their negations.
    fn around(centre: f32, radius: u32, mut check: impl FnMut(f32)) {
        let c = centre.to_bits();
        for bits in c.saturating_sub(radius)..=c + radius {
            check(f32::from_bits(bits));
            check(-f32::from_bits(bits));
        }
    }

    #[test]
    fn tanh_is_within_two_ulp_on_a_strided_sweep() {
        sweep(1009, check_tanh);
    }

    #[test]
    fn sigmoid_is_within_2_pow_minus_23_on_a_strided_sweep() {
        sweep(1009, check_sigmoid);
    }

    #[test]
    fn dense_sweeps_around_the_switch_point_saturation_and_zero() {
        // The polynomial/exp switch, tanh's saturation at ≈ 9.0109 (the
        // first f32 whose tanh rounds to 1), and the subnormals above zero.
        around(TANH_SPLIT, 1 << 16, check_tanh);
        around(9.010_914, 1 << 16, check_tanh);
        around(f32::from_bits(1 << 16), 1 << 16, check_tanh);
        // sigmoid rounds to 1 from ≈ 16.6; its small end underflows slowly.
        around(16.635_532, 1 << 16, check_sigmoid);
        around(0.0, 1 << 16, check_sigmoid);
    }

    #[test]
    fn exact_properties_hold() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f32::MAX), 1.0);
        assert_eq!(tanh(-1e30), -1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::MAX), 1.0);
        // The clamped exp keeps the low end at e^-88 rather than 0.
        for x in [f32::NEG_INFINITY, -f32::MAX, -88.0] {
            assert!((0.0..1e-37).contains(&sigmoid(x)), "sigmoid({x:e})");
        }
        for nan in [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC0_1234),
        ] {
            assert!(tanh(nan).is_nan(), "tanh of {:#x}", nan.to_bits());
            assert!(sigmoid(nan).is_nan(), "sigmoid of {:#x}", nan.to_bits());
        }
    }

    /// Output bits at a handful of inputs, fixed so that every build (the
    /// native target, a forced-scalar `RUSTFLAGS=""` build, any SIMD width
    /// the loops vectorise to) must agree on them.
    #[test]
    fn output_bits_are_pinned() {
        let tanh_bits = [
            (0.1f32, 0x3DCC_1EBC_u32),
            (0.5, 0x3EEC_9A9F),
            (0.625, 0x3F0D_FA40),
            (1.0, 0x3F42_F7D6),
            (2.5, 0x3F7C_92C1),
            (-3.75, 0xBF7F_B78C),
            (9.0, 0x3F7F_FFFF),
            (12.0, 0x3F80_0000),
        ];
        for (x, bits) in tanh_bits {
            assert_eq!(tanh(x).to_bits(), bits, "tanh({x})");
        }
        let sigmoid_bits = [
            (-20.0f32, 0x310D_A433_u32),
            (-4.0, 0x3C93_57D1),
            (-1.0, 0x3E89_B2B1),
            (0.0, 0x3F00_0000),
            (0.5, 0x3F1F_597F),
            (3.0, 0x3F73_DBE6),
            (17.0, 0x3F80_0000),
        ];
        for (x, bits) in sigmoid_bits {
            assert_eq!(sigmoid(x).to_bits(), bits, "sigmoid({x})");
        }
        // The slice loop the decode hooks run gives the same bits as one
        // call per element.
        let xs: Vec<f32> = (0..4099).map(|i| (i as f32 - 2049.0) / 97.0).collect();
        let mut ys = xs.clone();
        for y in &mut ys {
            *y = tanh(*y);
        }
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(y.to_bits(), tanh(std::hint::black_box(*x)).to_bits());
        }
    }

    /// Every finite f32 in [−20, 20]. Run it in release mode:
    /// `cargo test --release -p shfl-models -- --ignored`.
    #[test]
    #[ignore = "exhaustive: about 2.2 billion inputs, run in release mode"]
    fn exhaustive_sweep_of_every_f32_in_plus_minus_20() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        let end = 20.0f32.to_bits() + 1;
        let chunk = end.div_ceil(threads as u32);
        std::thread::scope(|scope| {
            for t in 0..threads as u32 {
                scope.spawn(move || {
                    for bits in t * chunk..((t + 1) * chunk).min(end) {
                        let x = f32::from_bits(bits);
                        check_tanh(x);
                        check_sigmoid(x);
                        check_sigmoid(-x);
                    }
                });
            }
        });
    }
}
