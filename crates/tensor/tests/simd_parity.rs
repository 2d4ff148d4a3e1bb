//! Kernel ↔ oracle bitwise-parity property tests.
//!
//! `urcl-tensor` runs one kernel path per (op, shape, host ISA): shape
//! rules pick the GEMM route (tiled, direct, row-blocked, transposed
//! scratch), and the build's target picks the vector width. This suite
//! pins every one of those paths to the plain loops in `reference` — the
//! seed-era kernels, kept as test oracles — through xoshiro-seeded shape
//! and stride churn, comparing `to_bits`, not approximately. Coverage:
//! `gemm_strided` over all four A/B transpose layouts including the
//! skinny/strided shapes the training step hits, and the strided walkers
//! (permute, broadcast zip, axis reductions).
//!
//! [`set_threads`] mutates process-global state, so every test
//! serializes on a file-local mutex and restores what it changed.

mod reference;

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::gemm::{gemm_strided, KC};
use urcl_tensor::{set_threads, Rng, Tensor};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Asserts `got` equals the oracle's `want` bit for bit.
fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (e, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: elem {e} diverged from the oracle: {g:?} vs {w:?}"
        );
    }
}

/// The four A/B layouts of an `m x k x n` product over the same backing
/// arrays — `(a_rs, a_cs, b_rs, b_cs)` for NN, TN, NT, TT: a transposed
/// operand is read column-major.
fn layouts(m: usize, k: usize, n: usize) -> [(usize, usize, usize, usize); 4] {
    [(k, 1, n, 1), (1, m, n, 1), (k, 1, 1, k), (1, m, 1, k)]
}

#[test]
fn gemm_strided_parity_over_shape_and_layout_churn() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x51_3D);
    // Random small/medium shapes plus the exact skinny/strided shapes the
    // GraphWaveNet training step routes through the fast paths: the TN
    // backward [k x m]^T @ [k x n] with large k (transpose-A packing),
    // tiny strided-B products (transpose-B packing), and single-block
    // direct shapes; then the GraphWaveNet forward's row-blocked direct
    // shapes (gated TCN, batched diffusion, the decoder's N = 1 matvec).
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (16, 2112, 16),
        (16, 960, 16),
        (2112, 16, 16),
        (16, 300, 8),
        (1, 1, 1),
        (7, 9, 5),
        (33, 65, 17),
        (130, 300, 270),
        (4608, 32, 16),
        (24, 24, 16),
        (1152, 64, 1),
    ];
    for _ in 0..12 {
        let m = 1 + (rng.next_u64() % 48) as usize;
        let k = 1 + (rng.next_u64() % 333) as usize;
        let n = 1 + (rng.next_u64() % 48) as usize;
        shapes.push((m, k, n));
    }

    for (m, k, n) in shapes {
        let a = rng.uniform_tensor(&[m * k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k * n], -1.0, 1.0);
        let (ad, bd) = (a.data(), b.data());
        for (a_rs, a_cs, b_rs, b_cs) in layouts(m, k, n) {
            let label = format!("gemm {m}x{k}x{n} rs/cs=({a_rs},{a_cs},{b_rs},{b_cs})");
            let mut out = vec![0.0f32; m * n];
            gemm_strided(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs, &mut out);
            let want = reference::gemm(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs);
            assert_bits(&label, &out, &want);
        }
    }
}

/// The direct kernel's R-row blocks (8 rows for widths up to 16, 4
/// above) plus leftover rows, across a KC block edge and several KC
/// blocks, every layout: bitwise equal to one row at a time.
#[test]
fn row_blocked_direct_kernel_matches_one_row_loop_bitwise() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0xB10C);
    for m in 1..=2 * 8 + 3 {
        for n in [1usize, 8, 16, 24, 32, 64] {
            for k in [1usize, 17, KC, KC + 1, 700] {
                let a = rng.uniform_tensor(&[m * k], -1.0, 1.0);
                let b = rng.uniform_tensor(&[k * n], -1.0, 1.0);
                let (ad, bd) = (a.data(), b.data());
                for (a_rs, a_cs, b_rs, b_cs) in layouts(m, k, n) {
                    let want = reference::gemm(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs);
                    let mut got = vec![0.0f32; m * n];
                    gemm_strided(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs, &mut got);
                    let bad = got
                        .iter()
                        .zip(&want)
                        .position(|(g, w)| g.to_bits() != w.to_bits());
                    assert!(
                        bad.is_none(),
                        "{m}x{k}x{n} rs/cs=({a_rs},{a_cs},{b_rs},{b_cs}): \
                         elem {bad:?} diverged from the one-row loop"
                    );
                }
            }
        }
    }
}

#[test]
fn elementwise_fast_path_parity_over_stride_churn() {
    let _guard = lock();
    let prev_threads = set_threads(1);
    let mut rng = Rng::seed_from_u64(0xE1E);

    // Permute: 3-D and 4-D shapes with every axis order hit by the model
    // (channels-last <-> channels-first moves) plus random churn.
    let permute_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![8, 9, 24, 16], vec![0, 2, 3, 1]),
        (vec![8, 11, 24, 16], vec![0, 3, 1, 2]),
        (vec![5, 7, 3], vec![2, 0, 1]),
        (vec![1, 13, 1, 4], vec![3, 2, 1, 0]),
        (vec![64, 48], vec![1, 0]),
    ];
    for (shape, perm) in permute_cases {
        let x = rng.uniform_tensor(&shape, -1.0, 1.0);
        let label = format!("permute {shape:?} perm {perm:?}");
        assert_bits(
            &label,
            x.permute(&perm).data(),
            &reference::permute(&x, &perm),
        );
    }

    // Broadcast zips: the bias-add / gate shapes from the backbone, with
    // both operands in both positions.
    let zip_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![192, 16, 9], vec![1, 16, 1]),
        (vec![88, 24, 16], vec![16]),
        (vec![6, 5, 4], vec![6, 5, 4]),
        (vec![3, 1, 7], vec![1, 9, 7]),
    ];
    let add = |x: f32, y: f32| x + y;
    let mul = |x: f32, y: f32| x * y;
    for (sa, sb) in zip_cases {
        let a = rng.uniform_tensor(&sa, -1.0, 1.0);
        let b = rng.uniform_tensor(&sb, -1.0, 1.0);
        let label = format!("zip {sa:?} x {sb:?}");
        let cases: [(&str, Tensor, Vec<f32>); 3] = [
            ("a+b", a.add(&b), reference::broadcast_zip(&a, &b, add)),
            ("a*b", a.mul(&b), reference::broadcast_zip(&a, &b, mul)),
            ("b+a", b.add(&a), reference::broadcast_zip(&b, &a, add)),
        ];
        for (op, got, want) in &cases {
            assert_bits(&format!("{label} {op}"), got.data(), want);
        }
    }

    // Axis reductions: leading, trailing and mixed reduced axes.
    let sum_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![40, 24, 24], vec![0]),
        (vec![192, 16, 9], vec![0, 2]),
        (vec![7, 5, 3], vec![1]),
        (vec![6, 4], vec![0, 1]),
    ];
    for (shape, axes) in sum_cases {
        let x = rng.uniform_tensor(&shape, -1.0, 1.0);
        let label = format!("sum_axes {shape:?} axes {axes:?}");
        let want = reference::sum_axes(&x, &axes);
        assert_bits(
            &format!("{label} keepdim"),
            x.sum_axes(&axes, true).data(),
            &want,
        );
        assert_bits(&label, x.sum_axes(&axes, false).data(), &want);
    }

    set_threads(prev_threads);
}
