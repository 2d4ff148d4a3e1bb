//! Randomized cross-checks of the tiled/parallel compute path against the
//! retained naive references, plus determinism and gradcheck coverage at
//! 1 and 4 threads.
//!
//! Thread counts are switched with [`set_threads`]; because Rust runs
//! tests in one process, every test that touches the pool re-asserts the
//! count it needs rather than assuming a default.

use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::{set_threads, Rng, Tensor};

/// Odd, prime and power-of-two shapes around the blocking parameters
/// (MR=8, NR=32, MC=128, KC=256, NC=256) so every edge path is hit.
const DIMS: [usize; 8] = [1, 3, 7, 13, 31, 97, 129, 257];

fn max_rel_err(got: &Tensor, want: &Tensor) -> f32 {
    assert_eq!(got.shape(), want.shape(), "shape mismatch");
    got.data()
        .iter()
        .zip(want.data())
        .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
        .fold(0.0f32, f32::max)
}

#[test]
fn matmul_matches_naive_on_awkward_shapes() {
    let mut rng = Rng::seed_from_u64(11);
    for threads in [1usize, 4] {
        set_threads(threads);
        for case in 0..24 {
            let m = DIMS[rng.below(DIMS.len())];
            let k = DIMS[rng.below(DIMS.len())];
            let n = DIMS[rng.below(DIMS.len())];
            let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
            let b = rng.uniform_tensor(&[k, n], -2.0, 2.0);
            let got = a.matmul(&b);
            let want = a.matmul_reference(&b);
            let err = max_rel_err(&got, &want);
            assert!(
                err < 1e-4,
                "case {case} ({m}x{k}x{n}, {threads} threads): rel err {err}"
            );
        }
    }
}

#[test]
fn matmul_t_variants_match_explicit_transposes() {
    let mut rng = Rng::seed_from_u64(12);
    for threads in [1usize, 4] {
        set_threads(threads);
        for _ in 0..16 {
            let m = DIMS[rng.below(6)];
            let k = DIMS[rng.below(6)];
            let n = DIMS[rng.below(6)];
            // A @ B^T with B stored [n, k].
            let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
            let bt = rng.uniform_tensor(&[n, k], -2.0, 2.0);
            let got = a.matmul_nt(&bt);
            let want = a.matmul_reference(&bt.transpose(0, 1));
            assert!(max_rel_err(&got, &want) < 1e-4, "matmul_nt {m}x{k}x{n}");
            // A^T @ B with A stored [k, m].
            let at = rng.uniform_tensor(&[k, m], -2.0, 2.0);
            let b = rng.uniform_tensor(&[k, n], -2.0, 2.0);
            let got = at.matmul_tn(&b);
            let want = at.transpose(0, 1).matmul_reference(&b);
            assert!(max_rel_err(&got, &want) < 1e-4, "matmul_tn {m}x{k}x{n}");
        }
    }
}

#[test]
fn matmul_broadcast_and_empty_batches() {
    set_threads(4);
    let mut rng = Rng::seed_from_u64(13);
    // Broadcast: [5, 7, 13] @ [13, 3] and [1, 7, 13] @ [5, 13, 3].
    let a = rng.uniform_tensor(&[5, 7, 13], -1.0, 1.0);
    let b = rng.uniform_tensor(&[13, 3], -1.0, 1.0);
    let got = a.matmul(&b);
    let want = a.matmul_reference(&b);
    assert!(max_rel_err(&got, &want) < 1e-4, "broadcast rhs");

    let a1 = rng.uniform_tensor(&[1, 7, 13], -1.0, 1.0);
    let b5 = rng.uniform_tensor(&[5, 13, 3], -1.0, 1.0);
    let got = a1.matmul(&b5);
    let want = a1.matmul_reference(&b5);
    assert!(max_rel_err(&got, &want) < 1e-4, "broadcast lhs");

    // Empty batch dim: shape must be preserved, no panic.
    let ea = rng.uniform_tensor(&[0, 7, 13], -1.0, 1.0);
    let eb = rng.uniform_tensor(&[0, 13, 3], -1.0, 1.0);
    let out = ea.matmul(&eb);
    assert_eq!(out.shape(), &[0, 7, 3]);
    assert_eq!(ea.matmul_nt(&rng.uniform_tensor(&[0, 3, 13], -1.0, 1.0)).shape(), &[0, 7, 3]);
}

#[test]
fn results_bitwise_identical_across_thread_counts_and_runs() {
    let mut rng = Rng::seed_from_u64(15);
    let a = rng.uniform_tensor(&[3, 129, 257], -1.0, 1.0);
    let b = rng.uniform_tensor(&[3, 257, 97], -1.0, 1.0);

    set_threads(1);
    let mm1 = a.matmul(&b);
    set_threads(4);
    let mm4 = a.matmul(&b);
    // Repeated runs at the same thread count.
    let mm4b = a.matmul(&b);

    assert_eq!(mm1.data(), mm4.data(), "matmul differs across thread counts");
    assert_eq!(mm4.data(), mm4b.data(), "matmul differs run-to-run");
}

// ---------------------------------------------------------- gradcheck

/// Central-difference gradient check of a scalar loss built from the
/// parallel kernels, at the given thread count.
fn gradcheck_matmul(threads: usize) {
    set_threads(threads);
    let mut rng = Rng::seed_from_u64(16);
    let a0 = rng.uniform_tensor(&[3, 5], -1.0, 1.0);
    let b0 = rng.uniform_tensor(&[5, 4], -1.0, 1.0);

    let loss_of = |a: &Tensor, b: &Tensor| -> f32 {
        let tape = Tape::new();
        let store = urcl_tensor::ParamStore::new();
        let sess = Session::new(&tape, &store);
        let av = sess.input(a.clone());
        let bv = sess.input(b.clone());
        av.matmul(bv).tanh().mean_all().value().item()
    };

    // Analytic gradients (leaves: constants receive no gradient).
    let tape = Tape::new();
    let av = tape.leaf(a0.clone());
    let bv = tape.leaf(b0.clone());
    let loss = av.matmul(bv).tanh().mean_all();
    let grads = tape.backward(loss);

    let eps = 1e-3f32;
    let analytic_grads: [&Tensor; 2] = [
        grads.get(av).expect("missing dA"),
        grads.get(bv).expect("missing dB"),
    ];
    let tensors: [&Tensor; 2] = [&a0, &b0];
    for which in 0..2 {
        let tensor = tensors[which];
        let g = analytic_grads[which];
        for idx in 0..tensor.data().len() {
            let mut plus = tensor.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = tensor.clone();
            minus.data_mut()[idx] -= eps;
            let eval = |t: &Tensor| match which {
                0 => loss_of(t, &b0),
                _ => loss_of(&a0, t),
            };
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let analytic = g.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2 * analytic.abs().max(1.0),
                "{threads} threads, input {which}, elem {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}

#[test]
fn gradcheck_through_parallel_path_one_thread() {
    gradcheck_matmul(1);
}

#[test]
fn gradcheck_through_parallel_path_four_threads() {
    gradcheck_matmul(4);
}

#[test]
fn backward_identical_across_thread_counts() {
    let mut rng = Rng::seed_from_u64(17);
    let a = rng.uniform_tensor(&[6, 129], -1.0, 1.0);
    let b = rng.uniform_tensor(&[129, 33], -1.0, 1.0);

    let run = || {
        let tape = Tape::new();
        let av = tape.leaf(a.clone());
        let bv = tape.leaf(b.clone());
        let loss = av.matmul(bv).tanh().mean_all();
        let grads = tape.backward(loss);
        (grads.get(av).unwrap().clone(), grads.get(bv).unwrap().clone())
    };

    set_threads(1);
    let (ga1, gb1) = run();
    set_threads(4);
    let (ga4, gb4) = run();
    assert_eq!(ga1.data(), ga4.data(), "dA differs across thread counts");
    assert_eq!(gb1.data(), gb4.data(), "dB differs across thread counts");
}
