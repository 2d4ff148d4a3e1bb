//! The crate's transcendental activations: one [`tanh`] and one
//! [`sigmoid`], used by every place that evaluates them (`Var::tanh` /
//! `Var::sigmoid`, the plan's fused elementwise runs and its general
//! evaluator).
//!
//! Both are branch-free and built from IEEE `+ − × ÷`, bit casts and
//! selects only: no libm call and no fused multiply-add. That has two
//! consequences:
//!
//! * **Throughput.** A loop applying them has no call in its body, so
//!   LLVM vectorizes it; libm's `f32::tanh` is an opaque call, one
//!   element at a time.
//! * **One truth for the bits.** The result depends only on the input:
//!   not on the host's libm, the thread count or the vector width
//!   (vector lanes run the same IEEE operations as one-element code).
//!
//! Accuracy, measured exhaustively over all 2³² inputs against an `f64`
//! reference (see the `#[ignore]`d sweep below): `tanh` is within 1 ulp
//! and `sigmoid` within 2 ulp wherever the reference result is a normal
//! float. NaN maps to NaN, `tanh(±∞) = ±1`, `sigmoid(+∞) = 1`,
//! `sigmoid(−∞) = 0`, and `tanh` is odd bit for bit (it keeps `±0`).

/// `e^x` for `x ≤ 88`. Cephes-style: magic-number rounding picks
/// `n = round(x / ln 2)`, a two-part `ln 2` reduces `r = x − n·ln 2`
/// exactly in its high part, a polynomial gives `e^r`, and `2^n` is
/// applied as two power-of-two factors so results below the normal range
/// round once into the subnormals. Inputs below −110 are clamped there
/// (the result is already `+0`); NaN propagates.
#[inline(always)]
#[allow(clippy::excessive_precision)]
fn exp(x: f32) -> f32 {
    // 1.5 · 2²³: adding it to a float below 2²² in magnitude rounds that
    // float to the nearest integer, which then sits in the low mantissa
    // bits of the sum.
    const ROUND: f32 = 12_582_912.0;
    const LN2_HI: f32 = 0.693_359_375; // 9 significant bits: n·LN2_HI is exact
    const LN2_LO: f32 = -2.121_944_40e-4;
    let x = if x < -110.0 { -110.0 } else { x };
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = (((((1.987_569_150_0e-4 * r + 1.398_199_950_7e-3) * r + 8.333_451_907_3e-3) * r
        + 4.166_579_589_4e-2)
        * r
        + 1.666_666_545_9e-1)
        * r
        + 5.000_000_120_1e-1)
        * (r * r)
        + r
        + 1.0;
    // n as an integer, read from the bits of `t`; wrapping so a NaN's
    // garbage exponent cannot trip a debug overflow check.
    let k = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let k1 = k >> 1;
    let k2 = k.wrapping_sub(k1);
    let s1 = f32::from_bits((k1.wrapping_add(127) as u32) << 23);
    let s2 = f32::from_bits((k2.wrapping_add(127) as u32) << 23);
    p * s1 * s2
}

/// Hyperbolic tangent, within 1 ulp of the exact result.
///
/// On `|x| < 0.625` an odd polynomial in `|x|`; above it
/// `1 − 2 / (e^{2|x|} + 1)`, with `|x|` clamped to 10 (past about 9.01
/// the exact result already rounds to 1). The sign of `x` is copied onto
/// the magnitude, so `tanh(−x)` is `−tanh(x)` bit for bit.
#[inline]
#[allow(clippy::excessive_precision)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let s = a * a;
    let small = ((((-5.704_988_727_45e-3 * s + 2.063_908_879_54e-2) * s - 5.373_971_555_31e-2)
        * s
        + 1.333_144_220_36e-1)
        * s
        - 3.333_328_194_22e-1)
        * s
        * a
        + a;
    let c = if a > 10.0 { 10.0 } else { a };
    let large = 1.0 - 2.0 / (exp(c + c) + 1.0);
    let t = if a < 0.625 { small } else { large };
    f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// Logistic sigmoid `1 / (1 + e^{−x})`, within 2 ulp of the exact result
/// wherever that is a normal float.
///
/// Below −80, where `e^{−x}` heads for overflow, it is evaluated as
/// `e^x / (1 + e^x)` instead, so the far negative tail follows `e^x` into
/// the subnormals rather than clamping.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let tail = x < -80.0;
    let e = exp(if tail { x } else { -x });
    let num = if tail { e } else { 1.0 };
    num / (1.0 + e)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position of `x` on the number line of floats (`±0` both map to 0),
    /// so the ulp distance of two finite floats is a difference.
    fn ordinal(x: f32) -> i64 {
        let b = x.to_bits();
        let mag = (b & 0x7FFF_FFFF) as i64;
        if b >> 31 == 1 {
            -mag
        } else {
            mag
        }
    }

    fn ulps(got: f32, want: f32) -> i64 {
        (ordinal(got) - ordinal(want)).abs()
    }

    /// The exact result rounded to `f32`, from `f64` libm. Where that
    /// rounding is known in closed form the libm call is skipped (most bit
    /// patterns lie there, which keeps the exhaustive sweep short):
    /// `|tanh(x) − x| < |x|³/3` is below half the gap around `x` for
    /// `|x| < 2⁻¹³`, and `1 − tanh(x) < 2e^{−19}` is below half an ulp of 1
    /// for `x ≥ 9.5`.
    fn tanh_ref(x: f32) -> f32 {
        let a = x.abs();
        if a < 1.0 / 8192.0 {
            x
        } else if a >= 9.5 {
            1.0f32.copysign(x)
        } else {
            (x as f64).tanh() as f32
        }
    }

    /// As [`tanh_ref`]: `|sigmoid(x) − 0.5| < |x|/4` is below half the gap
    /// around 0.5 for `|x| < 2⁻²⁵`, `1 − sigmoid(x) < e^{−x}` is below half
    /// an ulp of 1 for `x ≥ 17.5`, and below −88 the result is subnormal
    /// (NaN here marks "no bound to check").
    fn sigmoid_ref(x: f32) -> f32 {
        if x.abs() < 1.0 / 33_554_432.0 {
            0.5
        } else if x >= 17.5 {
            1.0
        } else if x < -88.0 {
            f32::NAN
        } else {
            (1.0 / (1.0 + (-(x as f64)).exp())) as f32
        }
    }

    /// Worst ulp error of `tanh` and `sigmoid` over `inputs`, asserting
    /// the bounds and the NaN rule on the way. The kernels run as whole
    /// slice loops first (vectorized, as in a tensor map), which also
    /// amortizes the slow subnormal arithmetic of the tiny and far-tail
    /// inputs over the vector lanes.
    fn check(inputs: &[f32]) -> (i64, i64) {
        let t: Vec<f32> = inputs.iter().map(|&x| tanh(x)).collect();
        let s: Vec<f32> = inputs.iter().map(|&x| sigmoid(x)).collect();
        let (mut worst_t, mut worst_s) = (0, 0);
        for ((&x, &got_t), &got_s) in inputs.iter().zip(&t).zip(&s) {
            if x.is_nan() {
                assert!(got_t.is_nan() && got_s.is_nan(), "NaN {:#x}", x.to_bits());
                continue;
            }
            let want = tanh_ref(x);
            if want.is_normal() {
                let e = ulps(got_t, want);
                assert!(e <= 1, "tanh({x:e}) = {got_t:e}, want {want:e} ({e} ulp)");
                worst_t = worst_t.max(e);
            }
            let want = sigmoid_ref(x);
            if want.is_normal() {
                let e = ulps(got_s, want);
                assert!(
                    e <= 2,
                    "sigmoid({x:e}) = {got_s:e}, want {want:e} ({e} ulp)"
                );
                worst_s = worst_s.max(e);
            }
        }
        (worst_t, worst_s)
    }

    /// [`check`] over the bit patterns `bits`, a block at a time.
    fn check_bits(bits: impl Iterator<Item = u64>) -> (i64, i64) {
        let mut worst = (0, 0);
        let mut block = Vec::with_capacity(1 << 16);
        let mut bits = bits.peekable();
        while bits.peek().is_some() {
            block.clear();
            block.extend(
                bits.by_ref()
                    .take(1 << 16)
                    .map(|b| f32::from_bits(b as u32)),
            );
            let (t, s) = check(&block);
            worst = (worst.0.max(t), worst.1.max(s));
        }
        worst
    }

    #[test]
    fn strided_sweep_and_dense_grid_within_ulp_bounds() {
        // ~1.05M bit patterns spread over the whole space (an odd stride
        // visits every exponent and sign), then 2M points on [-10, 10]
        // where the activations do their work.
        check_bits((0..(1u64 << 32)).step_by(4093));
        let grid: Vec<f32> = (-1_000_000..=1_000_000).map(|i| i as f32 * 1e-5).collect();
        check(&grid);
    }

    #[test]
    fn special_values() {
        assert!(tanh(f32::NAN).is_nan() && tanh(-f32::NAN).is_nan());
        assert!(sigmoid(f32::NAN).is_nan() && sigmoid(-f32::NAN).is_nan());
        assert_eq!(tanh(f32::INFINITY).to_bits(), 1.0f32.to_bits());
        assert_eq!(tanh(f32::NEG_INFINITY).to_bits(), (-1.0f32).to_bits());
        assert_eq!(sigmoid(f32::INFINITY).to_bits(), 1.0f32.to_bits());
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        // The negative tail follows e^x into the subnormals and reaches 0.
        assert!(sigmoid(-90.0) > 0.0 && !sigmoid(-90.0).is_normal());
        assert_eq!(sigmoid(-200.0), 0.0);
        for x in (0..(1u32 << 31))
            .step_by(7919)
            .map(f32::from_bits)
            .filter(|x| !x.is_nan())
        {
            assert_eq!(
                tanh(-x).to_bits(),
                (-tanh(x)).to_bits(),
                "tanh not odd at {x:e}"
            );
        }
    }

    #[test]
    fn tensor_map_matches_scalar_bits_at_every_setting() {
        use crate::tensor::Tensor;
        let _guard = crate::global_state_test_lock();
        let n = 3 * crate::parallel::PAR_MIN_ELEMS + 7;
        let xs: Vec<f32> = (0..n).map(|i| (i as f32 - n as f32 / 2.0) * 7e-4).collect();
        let x = Tensor::from_vec(xs.clone(), &[n]);
        let prev_threads = crate::parallel::num_threads();
        for &threads in &[1, 4] {
            crate::parallel::set_threads(threads);
            for f in [tanh as fn(f32) -> f32, sigmoid] {
                let got = x.map(f);
                for (g, &v) in got.data().iter().zip(&xs) {
                    assert_eq!(g.to_bits(), f(v).to_bits(), "{threads}t at {v:e}");
                }
            }
        }
        crate::parallel::set_threads(prev_threads);
    }

    /// Every one of the 2³² inputs, split over the host's threads. About
    /// two CPU-minutes in release:
    /// `cargo test --release -p urcl-tensor --lib activation -- --ignored`.
    #[test]
    #[ignore = "exhaustive sweep, run in release"]
    fn exhaustive_sweep_within_ulp_bounds() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let worst = std::thread::scope(|s| {
            let parts: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * span;
                    let hi = ((t + 1) * span).min(1 << 32);
                    s.spawn(move || check_bits(lo..hi))
                })
                .collect();
            parts.into_iter().fold((0, 0), |acc, h| {
                let (t, s) = h.join().expect("sweep thread panicked");
                (acc.0.max(t), acc.1.max(s))
            })
        });
        println!(
            "exhaustive: tanh max {} ulp, sigmoid max {} ulp",
            worst.0, worst.1
        );
    }
}
