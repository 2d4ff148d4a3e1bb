//! Runtime SIMD feature detection and the crate's one intrinsic kernel.
//!
//! Every kernel in [`crate::gemm`], [`crate::tensor`] and the backward
//! walk is plain Rust that LLVM vectorizes for the build's target
//! (`.cargo/config.toml` builds with `target-cpu=native`; a portable
//! build runs the same loops at the baseline's vector width).
//! The one exception is the blocked transpose below: a strided gather
//! the compiler cannot vectorize, so it carries an explicit `std::arch`
//! AVX2 arm that dispatches on [`detected_isa`] (probed once per process
//! via `is_x86_feature_detected!`).
//!
//! ## The bitwise contract
//!
//! No kernel result depends on the ISA: vector code runs across
//! *independent output elements* only (each lane performs the same
//! mul-then-add sequence, in the same order, as a one-element loop), and
//! the FMA instruction is **never** used for kernel math even when
//! detected — a fused multiply-add rounds once where `a * b + c` rounds
//! twice, so contraction would fork the numerics between hosts. The
//! transpose is pure data movement. `tests/simd_parity.rs` pins the
//! kernels bitwise against the seed-era loops kept as test oracles in
//! `tests/reference`. FMA presence is still detected and reported (trace
//! gauge `simd_isa`, bench headers) because it identifies the hardware
//! tier.

use std::sync::OnceLock;

/// Instruction-set tier a kernel dispatch can land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// No AVX2: plain Rust loops only.
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

// --------------------------------------------------------------- kernels

/// Blocked 2-D transpose gather: `dst[b * q + a] = src[a * src_rs + b]`
/// for `b in 0..p`, `a in 0..q`. Pure data movement, so any tile order is
/// bitwise-safe. The AVX2 arm moves 8x8 tiles through registers
/// (unpack/shuffle), turning the strided gather — which the compiler
/// cannot autovectorize — into contiguous loads and stores; it dispatches
/// on the detected ISA alone since there is no scalar codegen to beat.
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
        && detected_isa() != Isa::Scalar
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_gather_matches_scalar() {
        // Rectangles crossing the 8x8 tile boundary in every way.
        for &(p, q, rs_pad) in &[
            (1, 1, 0),
            (7, 9, 0),
            (8, 8, 0),
            (11, 13, 3),
            (16, 24, 1),
            (33, 17, 5),
        ] {
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
    fn names_and_codes_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(Isa::Scalar.code(), 0);
        assert_eq!(Isa::Avx2.code(), 1);
        assert_eq!(Isa::Avx2Fma.code(), 2);
    }
}
