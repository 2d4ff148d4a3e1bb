//! SIMD ↔ scalar bitwise-parity property tests.
//!
//! The SIMD seam (`urcl_tensor::simd`) promises that enabling the fast
//! kernels — and, separately, forcing the explicit AVX2 intrinsic arms —
//! never changes a single result bit relative to the scalar baseline.
//! This suite drives that promise through xoshiro-seeded shape and stride
//! churn: every case runs three times, with
//!
//! 1. `set_simd(false)` — the seed-era scalar path (reference),
//! 2. `set_simd(true)` — stride-collapsed fast kernels + SIMD routing,
//! 3. `set_simd(true)` + `set_force_intrinsics(true)` — the hand-written
//!    AVX2 arms, which a `target-cpu=native` build would otherwise skip
//!    because the autovectorized loops already cover them,
//!
//! and asserts all three produce bitwise-identical outputs (`to_bits`,
//! not approximate comparison). Coverage: `gemm_strided` over all four
//! A/B transpose layouts including the skinny/strided shapes the training
//! step hits, `conv1d` forward *and* backward (input + weight gradients
//! through a real tape), and the elementwise fast paths (permute,
//! broadcast zip, axis reductions).
//!
//! [`set_simd`]/[`set_pooling`]/[`set_threads`] mutate process-global
//! state, so every test serializes on a file-local mutex and restores
//! what it changed.

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::gemm::{gemm_strided, KC};
use urcl_tensor::simd::set_force_intrinsics;
use urcl_tensor::{set_pooling, set_simd, set_threads, ParamStore, Rng};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under the three SIMD configurations and asserts every output
/// buffer is bitwise identical to the scalar reference.
fn assert_three_way_parity(label: &str, f: impl Fn() -> Vec<Vec<f32>>) {
    let prev_simd = set_simd(false);
    let reference = f();
    set_simd(true);
    let fast = f();
    set_force_intrinsics(true);
    let forced = f();
    set_force_intrinsics(false);
    set_simd(prev_simd);
    for (mode, outs) in [("simd", &fast), ("forced-intrinsics", &forced)] {
        assert_eq!(reference.len(), outs.len(), "{label}: output count ({mode})");
        for (i, (r, o)) in reference.iter().zip(outs).enumerate() {
            assert_eq!(r.len(), o.len(), "{label}: output {i} length ({mode})");
            for (e, (rv, ov)) in r.iter().zip(o).enumerate() {
                assert_eq!(
                    rv.to_bits(),
                    ov.to_bits(),
                    "{label}: output {i} elem {e} diverged under {mode}: \
                     {rv:?} vs {ov:?}"
                );
            }
        }
    }
}

#[test]
fn gemm_strided_parity_over_shape_and_layout_churn() {
    let _guard = lock();
    let prev_pool = set_pooling(true);
    let prev_threads = set_threads(1);

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
        // (a_rs, a_cs, b_rs, b_cs) for NN, TN, NT, TT: the transposed
        // operand keeps the same backing array, read column-major.
        let layouts = [
            (k, 1, n, 1),
            (1, m, n, 1),
            (k, 1, 1, k),
            (1, m, 1, k),
        ];
        for (a_rs, a_cs, b_rs, b_cs) in layouts {
            let label = format!("gemm {m}x{k}x{n} rs/cs=({a_rs},{a_cs},{b_rs},{b_cs})");
            assert_three_way_parity(&label, || {
                let mut out = vec![0.0f32; m * n];
                gemm_strided(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs, &mut out);
                vec![out]
            });
        }
    }

    set_threads(prev_threads);
    set_pooling(prev_pool);
}

/// The one-row streaming ikj loop in KC-sized zero-seeded partial sums:
/// the per-element order the row-blocked direct kernel must reproduce.
#[allow(clippy::too_many_arguments)]
fn one_row_oracle(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let mut part = vec![0.0f32; n];
    for i in 0..m {
        for pc in (0..k).step_by(KC) {
            part.fill(0.0);
            for p in pc..(pc + KC).min(k) {
                let aip = a[i * a_rs + p * a_cs];
                for (j, s) in part.iter_mut().enumerate() {
                    *s += aip * b[p * b_rs + j * b_cs];
                }
            }
            for (o, &s) in out[i * n..(i + 1) * n].iter_mut().zip(&part) {
                *o += s;
            }
        }
    }
    out
}

/// The direct kernel's R-row blocks (8 rows for widths up to 16, 4
/// above) plus leftover rows, across a KC block edge and several KC
/// blocks, every layout, the fast routing and the forced AVX2 twin:
/// bitwise equal to one row at a time.
#[test]
fn row_blocked_direct_kernel_matches_one_row_loop_bitwise() {
    let _guard = lock();
    let prev_pool = set_pooling(true);
    let prev_threads = set_threads(1);
    let prev_simd = set_simd(true);
    let mut rng = Rng::seed_from_u64(0xB10C);
    for m in 1..=2 * 8 + 3 {
        for n in [1usize, 8, 16, 24, 32, 64] {
            for k in [1usize, 17, 256, 257, 700] {
                let a = rng.uniform_tensor(&[m * k], -1.0, 1.0);
                let b = rng.uniform_tensor(&[k * n], -1.0, 1.0);
                let (ad, bd) = (a.data(), b.data());
                for (a_rs, a_cs, b_rs, b_cs) in [(k, 1, n, 1), (1, m, n, 1), (k, 1, 1, k), (1, m, 1, k)] {
                    let want = one_row_oracle(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs);
                    for forced in [false, true] {
                        set_force_intrinsics(forced);
                        let mut got = vec![0.0f32; m * n];
                        gemm_strided(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs, &mut got);
                        set_force_intrinsics(false);
                        let bad = got.iter().zip(&want).position(|(g, w)| g.to_bits() != w.to_bits());
                        assert!(
                            bad.is_none(),
                            "{m}x{k}x{n} rs/cs=({a_rs},{a_cs},{b_rs},{b_cs}) forced={forced}: \
                             elem {bad:?} diverged from the one-row loop"
                        );
                    }
                }
            }
        }
    }
    set_simd(prev_simd);
    set_threads(prev_threads);
    set_pooling(prev_pool);
}

#[test]
fn conv1d_forward_and_backward_parity() {
    let _guard = lock();
    let prev_pool = set_pooling(true);
    let prev_threads = set_threads(1);

    let mut rng = Rng::seed_from_u64(0xC0_71);
    // (batch, cin, t, cout, kernel, dilation) — includes the GWN gated-TCN
    // shapes (small channels, dilated) and degenerate edges.
    let cases = [
        (2, 3, 12, 4, 2, 1),
        (4, 8, 24, 8, 2, 4),
        (1, 1, 5, 1, 3, 1),
        (3, 16, 20, 16, 3, 2),
        (8, 2, 12, 32, 2, 1),
    ];
    for (b, cin, t, cout, k, dilation) in cases {
        let pad_left = (k - 1) * dilation;
        let x0 = rng.uniform_tensor(&[b, cin, t], -1.0, 1.0);
        let w0 = rng.uniform_tensor(&[cout, cin, k], -1.0, 1.0);
        let label = format!("conv1d b{b} c{cin}x{cout} t{t} k{k}d{dilation}");
        assert_three_way_parity(&label, || {
            let mut store = ParamStore::new();
            let w_id = store.add("w", w0.clone());
            let x_id = store.add("x", x0.clone());
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &mut store);
            let w = sess.param(w_id);
            let x = sess.param(x_id);
            let y = x.conv1d(w, dilation, pad_left);
            let fwd = tape.value(y).clone();
            let loss = y.abs().mean_all();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            vec![
                fwd.data().to_vec(),
                store.grad(x_id).data().to_vec(),
                store.grad(w_id).data().to_vec(),
            ]
        });
    }

    set_threads(prev_threads);
    set_pooling(prev_pool);
}

#[test]
fn elementwise_fast_path_parity_over_stride_churn() {
    let _guard = lock();
    let prev_pool = set_pooling(true);
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
        assert_three_way_parity(&label, || vec![x.permute(&perm).into_vec()]);
    }

    // Broadcast zips: the bias-add / gate shapes from the backbone, with
    // both operands in both positions.
    let zip_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![192, 16, 9], vec![1, 16, 1]),
        (vec![88, 24, 16], vec![16]),
        (vec![6, 5, 4], vec![6, 5, 4]),
        (vec![3, 1, 7], vec![1, 9, 7]),
    ];
    for (sa, sb) in zip_cases {
        let a = rng.uniform_tensor(&sa, -1.0, 1.0);
        let b = rng.uniform_tensor(&sb, -1.0, 1.0);
        let label = format!("zip {sa:?} x {sb:?}");
        assert_three_way_parity(&label, || {
            vec![
                a.add(&b).into_vec(),
                a.mul(&b).into_vec(),
                b.add(&a).into_vec(),
            ]
        });
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
        assert_three_way_parity(&label, || {
            vec![
                x.sum_axes(&axes, false).into_vec(),
                x.sum_axes(&axes, true).into_vec(),
            ]
        });
    }

    set_threads(prev_threads);
    set_pooling(prev_pool);
}
