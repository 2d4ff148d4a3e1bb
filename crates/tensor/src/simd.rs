//! Runtime SIMD feature detection and the `URCL_SIMD` toggle.
//!
//! Kernels in [`crate::gemm`], [`crate::tensor`] and [`crate::autodiff`]
//! carry explicit `std::arch` AVX2 arms next to their scalar loops. Which
//! arm runs is decided *at runtime* from two inputs:
//!
//! * what the CPU supports ([`detected_isa`], probed once per process via
//!   `is_x86_feature_detected!`), and
//! * whether SIMD is administratively enabled ([`simd_enabled`]:
//!   `URCL_SIMD=0` or [`set_simd`]`(false)` forces the scalar arms, which
//!   is how CI keeps the fallback path tested on AVX2 hosts).
//!
//! ## The bitwise contract
//!
//! Every SIMD arm must produce **bitwise identical** results to its scalar
//! twin — `tests/simd_parity.rs` churns shapes asserting exactly that, and
//! the cross-thread/pooling determinism suites pin one truth for the whole
//! crate. The practical consequence: SIMD arms vectorize across
//! *independent output elements* only (each lane performs the same
//! mul-then-add sequence, in the same order, as the scalar loop), and the
//! FMA instruction is **never** used for kernel math even when detected —
//! a fused multiply-add rounds once where `a * b + c` rounds twice, so
//! contraction would fork the numerics between hosts. FMA presence is
//! still detected and reported (trace gauge `simd_isa`, bench headers)
//! because it identifies the hardware tier.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Instruction-set tier a kernel dispatch can land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Plain Rust loops (also the forced tier when `URCL_SIMD=0`).
    Scalar,
    /// 256-bit AVX2 integer/float vectors, no FMA available.
    Avx2,
    /// AVX2 with FMA present (FMA is reported but not used for math —
    /// see the module docs for why).
    Avx2Fma,
}

impl Isa {
    /// Stable lowercase name used by trace gauges and bench JSON headers.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx2Fma => "avx2+fma",
        }
    }

    /// Numeric code for the `simd_isa` trace gauge (0 scalar, 1 avx2,
    /// 2 avx2+fma).
    pub fn code(self) -> u64 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx2Fma => 2,
        }
    }
}

/// What the host CPU supports, probed once per process.
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                if std::arch::is_x86_feature_detected!("fma") {
                    return Isa::Avx2Fma;
                }
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// SIMD state: 0 = unset (read env on first use), 1 = on, 2 = off.
static SIMD: AtomicUsize = AtomicUsize::new(0);

fn simd_from_env() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("URCL_SIMD") {
        Ok(v) if v.trim() == "0" || v.trim().eq_ignore_ascii_case("off") => 2,
        _ => 1,
    })
}

/// Whether SIMD kernel arms are administratively enabled (they still
/// require hardware support — see [`active_isa`]).
#[inline]
pub fn simd_enabled() -> bool {
    match SIMD.load(Ordering::Relaxed) {
        0 => {
            let v = simd_from_env();
            SIMD.store(v, Ordering::Relaxed);
            v == 1
        }
        v => v == 1,
    }
}

/// Turns the SIMD arms on or off at runtime, returning the previous
/// setting — the `URCL_POOL`-style toggle benches flip to measure both
/// paths in one process. Normal runs use the `URCL_SIMD` env variable.
pub fn set_simd(on: bool) -> bool {
    let prev = simd_enabled();
    SIMD.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    prev
}

/// The tier kernel dispatches currently land on: [`detected_isa`] when
/// SIMD is enabled, [`Isa::Scalar`] when forced off.
#[inline]
pub fn active_isa() -> Isa {
    if simd_enabled() {
        detected_isa()
    } else {
        Isa::Scalar
    }
}

/// True when dispatches may take the AVX2 arms right now. Kernels call
/// this once per op (not per element); the cost is one relaxed load.
#[inline]
pub fn use_avx2() -> bool {
    simd_enabled() && detected_isa() != Isa::Scalar
}

/// True when the restructured fast kernels may run: the stride-collapsed
/// walkers in [`crate::tensor`], the transpose-packed GEMM routing in
/// [`crate::gemm`], and the blocked transpose below. These are plain Rust
/// (the compiler vectorizes them), but they ride the same administrative
/// switch as the intrinsic arms: `URCL_SIMD=0` pins the exact seed-era
/// loops, which keeps the scalar baseline honest and gives the bench its
/// `simd {off,on}` axis.
#[inline]
pub fn fast_kernels() -> bool {
    simd_enabled()
}

/// Test hook: force the `std::arch` intrinsic arms on even when
/// [`intrinsic_arms`] would normally skip them (because the binary's
/// compile-time ISA baseline already covers the detected hardware).
/// Returns the previous setting. Hardware support is still required —
/// forcing on a non-AVX2 host does nothing.
pub fn set_force_intrinsics(on: bool) -> bool {
    FORCE_INTRINSICS.swap(on, Ordering::Relaxed)
}

static FORCE_INTRINSICS: AtomicBool = AtomicBool::new(false);

/// True when runtime-dispatched intrinsic arms should replace loops the
/// compiler can autovectorize (the GEMM micro/column kernels, the fused
/// backward accumulators). The arms only *pay* when the binary was
/// compiled for a baseline below the detected hardware tier — on a build
/// already targeting AVX2+ (e.g. `target-cpu=native`), the scalar source
/// compiles to vector code at least as wide, so dispatch keeps it.
/// [`set_force_intrinsics`] overrides the skip for parity testing.
#[inline]
pub fn intrinsic_arms() -> bool {
    use_avx2()
        && (cfg!(not(target_feature = "avx2")) || FORCE_INTRINSICS.load(Ordering::Relaxed))
}

// --------------------------------------------------------------- kernels

/// Blocked 2-D transpose gather: `dst[b * q + a] = src[a * src_rs + b]`
/// for `b in 0..p`, `a in 0..q`. Pure data movement, so any tile order is
/// bitwise-safe. The AVX2 arm moves 8x8 tiles through registers
/// (unpack/shuffle), turning the strided gather — which the compiler
/// cannot autovectorize — into contiguous loads and stores; it dispatches
/// on [`use_avx2`] alone since there is no scalar codegen to beat.
///
/// The caller guarantees `src` covers index `(q-1)*src_rs + p - 1` and
/// `dst` covers `p * q` elements, with `src_rs >= p`.
pub(crate) fn transpose_gather(src: &[f32], src_rs: usize, dst: &mut [f32], p: usize, q: usize) {
    debug_assert!(dst.len() >= p * q);
    debug_assert!(p == 0 || q == 0 || src.len() > (q - 1) * src_rs + p - 1);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if p >= 8
        && q >= 8
        && dst.len() >= p * q
        && src.len() > (q - 1) * src_rs + p - 1
        && use_avx2()
    {
        // SAFETY: AVX2 presence and slice bounds just checked.
        unsafe { transpose_gather_avx2(src, src_rs, dst, p, q) };
        return;
    }
    transpose_scalar(src, src_rs, dst, q, 0..p, 0..q);
}

/// Scalar transpose over a sub-rectangle (also the AVX2 arm's edge path).
fn transpose_scalar(
    src: &[f32],
    src_rs: usize,
    dst: &mut [f32],
    dst_rs: usize,
    bs: std::ops::Range<usize>,
    along: std::ops::Range<usize>,
) {
    for b in bs {
        for a in along.clone() {
            dst[b * dst_rs + a] = src[a * src_rs + b];
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn transpose_gather_avx2(src: &[f32], src_rs: usize, dst: &mut [f32], p: usize, q: usize) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    let p8 = p & !7;
    let q8 = q & !7;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    for a0 in (0..q8).step_by(8) {
        for b0 in (0..p8).step_by(8) {
            // SAFETY: tile indices satisfy a0+7 < q, b0+7 < p, so every
            // load/store stays inside the bounds the caller guarantees.
            unsafe {
                let r0 = _mm256_loadu_ps(sp.add(a0 * src_rs + b0));
                let r1 = _mm256_loadu_ps(sp.add((a0 + 1) * src_rs + b0));
                let r2 = _mm256_loadu_ps(sp.add((a0 + 2) * src_rs + b0));
                let r3 = _mm256_loadu_ps(sp.add((a0 + 3) * src_rs + b0));
                let r4 = _mm256_loadu_ps(sp.add((a0 + 4) * src_rs + b0));
                let r5 = _mm256_loadu_ps(sp.add((a0 + 5) * src_rs + b0));
                let r6 = _mm256_loadu_ps(sp.add((a0 + 6) * src_rs + b0));
                let r7 = _mm256_loadu_ps(sp.add((a0 + 7) * src_rs + b0));
                // Classic 8x8 in-register transpose: interleave pairs,
                // then quads, then swap 128-bit halves.
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                let t4 = _mm256_unpacklo_ps(r4, r5);
                let t5 = _mm256_unpackhi_ps(r4, r5);
                let t6 = _mm256_unpacklo_ps(r6, r7);
                let t7 = _mm256_unpackhi_ps(r6, r7);
                let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
                let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
                let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
                let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
                let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
                let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
                let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
                let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
                let write = |j: usize, v| _mm256_storeu_ps(dp.add((b0 + j) * q + a0), v);
                write(0, _mm256_permute2f128_ps(s0, s4, 0x20));
                write(1, _mm256_permute2f128_ps(s1, s5, 0x20));
                write(2, _mm256_permute2f128_ps(s2, s6, 0x20));
                write(3, _mm256_permute2f128_ps(s3, s7, 0x20));
                write(4, _mm256_permute2f128_ps(s0, s4, 0x31));
                write(5, _mm256_permute2f128_ps(s1, s5, 0x31));
                write(6, _mm256_permute2f128_ps(s2, s6, 0x31));
                write(7, _mm256_permute2f128_ps(s3, s7, 0x31));
            }
        }
    }
    if q8 < q {
        transpose_scalar(src, src_rs, dst, q, 0..p, q8..q);
    }
    if p8 < p {
        transpose_scalar(src, src_rs, dst, q, p8..p, 0..q8);
    }
}

/// Fused Mul-backward accumulator: `dst[i] += g[i] * x[i]` (or `=` when
/// `acc` is false). The AVX2 arm vectorizes lanes of independent output
/// elements with the same mul-then-add per lane — never FMA — so it is
/// bitwise identical to the scalar loop.
pub(crate) fn mul_acc(dst: &mut [f32], g: &[f32], x: &[f32], acc: bool) {
    debug_assert!(dst.len() == g.len() && g.len() == x.len());
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if dst.len() >= 8 && intrinsic_arms() {
        // SAFETY: AVX2 presence checked by `intrinsic_arms`.
        unsafe { mul_acc_avx2(dst, g, x, acc) };
        return;
    }
    if acc {
        for ((d, &gv), &xv) in dst.iter_mut().zip(g).zip(x) {
            *d += gv * xv;
        }
    } else {
        for ((d, &gv), &xv) in dst.iter_mut().zip(g).zip(x) {
            *d = gv * xv;
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn mul_acc_avx2(dst: &mut [f32], g: &[f32], x: &[f32], acc: bool) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    let n = dst.len();
    let n8 = n & !7;
    let (dp, gp, xp) = (dst.as_mut_ptr(), g.as_ptr(), x.as_ptr());
    let mut i = 0;
    while i < n8 {
        // SAFETY: i + 7 < n for all three equal-length slices.
        unsafe {
            let prod = _mm256_mul_ps(_mm256_loadu_ps(gp.add(i)), _mm256_loadu_ps(xp.add(i)));
            let v = if acc {
                _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), prod)
            } else {
                prod
            };
            _mm256_storeu_ps(dp.add(i), v);
        }
        i += 8;
    }
    for j in n8..n {
        if acc {
            dst[j] += g[j] * x[j];
        } else {
            dst[j] = g[j] * x[j];
        }
    }
}

/// Fused Scale/Neg-backward accumulator: `dst[i] += g[i] * c` (or `=`
/// when `acc` is false), same bitwise contract as [`mul_acc`].
pub(crate) fn scale_acc(dst: &mut [f32], g: &[f32], c: f32, acc: bool) {
    debug_assert_eq!(dst.len(), g.len());
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if dst.len() >= 8 && intrinsic_arms() {
        // SAFETY: AVX2 presence checked by `intrinsic_arms`.
        unsafe { scale_acc_avx2(dst, g, c, acc) };
        return;
    }
    if acc {
        for (d, &gv) in dst.iter_mut().zip(g) {
            *d += gv * c;
        }
    } else {
        for (d, &gv) in dst.iter_mut().zip(g) {
            *d = gv * c;
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn scale_acc_avx2(dst: &mut [f32], g: &[f32], c: f32, acc: bool) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    let n = dst.len();
    let n8 = n & !7;
    let (dp, gp) = (dst.as_mut_ptr(), g.as_ptr());
    // SAFETY (whole loop): i + 7 < n for both equal-length slices.
    unsafe {
        let cv = _mm256_set1_ps(c);
        let mut i = 0;
        while i < n8 {
            let prod = _mm256_mul_ps(_mm256_loadu_ps(gp.add(i)), cv);
            let v = if acc {
                _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), prod)
            } else {
                prod
            };
            _mm256_storeu_ps(dp.add(i), v);
            i += 8;
        }
    }
    for j in n8..n {
        if acc {
            dst[j] += g[j] * c;
        } else {
            dst[j] = g[j] * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_forces_scalar() {
        let _guard = crate::global_state_test_lock();
        let prev = set_simd(false);
        assert_eq!(active_isa(), Isa::Scalar);
        assert!(!use_avx2());
        set_simd(true);
        assert_eq!(active_isa(), detected_isa());
        set_simd(prev);
    }

    #[test]
    fn transpose_gather_matches_scalar() {
        // Rectangles crossing the 8x8 tile boundary in every way.
        for &(p, q, rs_pad) in &[(1, 1, 0), (7, 9, 0), (8, 8, 0), (11, 13, 3), (16, 24, 1), (33, 17, 5)] {
            let src_rs = p + rs_pad;
            let src: Vec<f32> = (0..q * src_rs).map(|v| v as f32).collect();
            let mut want = vec![0.0f32; p * q];
            transpose_scalar(&src, src_rs, &mut want, q, 0..p, 0..q);
            let mut got = vec![0.0f32; p * q];
            transpose_gather(&src, src_rs, &mut got, p, q);
            assert_eq!(got, want, "transpose {p}x{q} rs={src_rs}");
        }
    }

    #[test]
    fn acc_kernels_match_scalar_bitwise() {
        let _guard = crate::global_state_test_lock();
        let prev = set_simd(true);
        let force = set_force_intrinsics(true);
        let g: Vec<f32> = (0..37).map(|v| (v as f32).sin() * 1e3).collect();
        let x: Vec<f32> = (0..37).map(|v| (v as f32).cos() * 1e-3).collect();
        for acc in [false, true] {
            let mut d0: Vec<f32> = (0..37).map(|v| v as f32 * 0.25).collect();
            let mut d1 = d0.clone();
            mul_acc(&mut d0, &g, &x, acc);
            for ((d, &gv), &xv) in d1.iter_mut().zip(&g).zip(&x) {
                if acc { *d += gv * xv } else { *d = gv * xv }
            }
            assert_eq!(d0, d1, "mul_acc acc={acc}");

            let mut s0: Vec<f32> = (0..37).map(|v| v as f32 * -0.5).collect();
            let mut s1 = s0.clone();
            scale_acc(&mut s0, &g, -3.25, acc);
            for (d, &gv) in s1.iter_mut().zip(&g) {
                if acc { *d += gv * -3.25 } else { *d = gv * -3.25 }
            }
            assert_eq!(s0, s1, "scale_acc acc={acc}");
        }
        set_force_intrinsics(force);
        set_simd(prev);
    }

    #[test]
    fn names_and_codes_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(Isa::Scalar.code(), 0);
        assert_eq!(Isa::Avx2.code(), 1);
        assert_eq!(Isa::Avx2Fma.code(), 2);
    }
}
