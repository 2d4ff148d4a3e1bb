//! Numerical gradient checking.
//!
//! Every backward rule in the crate's backward walk is validated against
//! central finite differences. The checker rebuilds the computation twice
//! per probed coordinate, which is slow but only runs in tests.
//!
//! The harness is also a plan-parity check: the analytic gradient from
//! [`Tape::backward`] is replayed through a compiled training
//! [`crate::plan::ExecPlan`] and asserted **bitwise** equal, and every
//! finite-difference probe replays a forward-only plan instead of
//! re-recording a tape.

use crate::autodiff::{Tape, Var};
use crate::params::ParamStore;
use crate::plan::{ExecPlan, Recording};
use crate::tensor::Tensor;

/// Result of a gradient check: the largest absolute and relative deviation
/// found over all probed coordinates.
#[derive(Debug)]
pub struct GradCheck {
    /// Largest |analytic − numeric| over probed coordinates.
    pub max_abs_err: f32,
    /// Largest |analytic − numeric| / max(1, |numeric|).
    pub max_rel_err: f32,
}

impl GradCheck {
    /// Asserts both deviations are under `tol`, with a readable panic.
    pub fn assert_close(&self, tol: f32) {
        assert!(
            self.max_abs_err < tol && self.max_rel_err < tol,
            "gradient check failed: abs {} rel {} (tol {tol})",
            self.max_abs_err,
            self.max_rel_err
        );
    }
}

/// Checks the gradient of a scalar-valued graph at `x`.
///
/// `build` receives a fresh tape plus `x` as a leaf and must return a
/// scalar-shaped loss variable; the checker compares the tape gradient
/// against central differences with step `eps` at every coordinate. The
/// recorded tape is also compiled into a training plan (loss and
/// analytic gradient asserted bitwise equal to the tape's) and a
/// forward-only plan that serves the FD probes.
pub fn check_scalar<F>(x: &Tensor, eps: f32, build: F) -> GradCheck
where
    F: for<'t> Fn(&'t Tape, Var<'t>) -> Var<'t> + Copy,
{
    let store = ParamStore::new();
    let tape = Tape::new();
    let (input, root) = {
        let v = tape.leaf(x.clone());
        (v.index(), build(&tape, v).index())
    };
    let analytic = tape
        .backward(tape.var(root))
        .by_index(input)
        .cloned()
        .unwrap_or_else(|| Tensor::zeros(x.shape()));

    let mut rec = Recording {
        tape,
        root: Some(root),
        inputs: vec![input],
        outputs: Vec::new(),
        bindings: Vec::new(),
    };
    let train = ExecPlan::compile(&rec);
    let (l, grads) = train.run_training(&store, &[x]);
    assert_eq!(
        l.item().to_bits(),
        rec.tape.var(root).value().item().to_bits(),
        "gradcheck: plan loss diverged from the tape"
    );
    let plan_g = grads
        .by_index(input)
        .cloned()
        .unwrap_or_else(|| Tensor::zeros(x.shape()));
    for (i, (a, p)) in analytic.data().iter().zip(plan_g.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            p.to_bits(),
            "gradcheck: plan analytic grad diverged at coord {i}: {a:?} vs {p:?}"
        );
    }
    rec.root = None;
    rec.outputs = vec![root];
    let fwd_plan = ExecPlan::compile(&rec);
    let eval = |xt: &Tensor| -> f32 { fwd_plan.run_forward(&store, &[xt])[0].item() };
    let mut max_abs: f32 = 0.0;
    let mut max_rel: f32 = 0.0;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let numeric = (eval(&xp) - eval(&xm)) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / numeric.abs().max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheck {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        Rng::seed_from_u64(seed).uniform_tensor(shape, -1.0, 1.0)
    }

    #[test]
    fn check_elementwise_chain() {
        let x = rand_t(&[2, 3], 1);
        check_scalar(&x, EPS, |_t, v| v.tanh().mul(v.sigmoid()).sum_all()).assert_close(TOL);
    }

    #[test]
    fn check_exp_ln_sqrt() {
        // Keep inputs positive for ln/sqrt.
        let x = Rng::seed_from_u64(2).uniform_tensor(&[6], 0.5, 2.0);
        check_scalar(&x, 1e-3, |_t, v| v.ln().sum_all()).assert_close(TOL);
        check_scalar(&x, 1e-3, |_t, v| v.sqrt().sum_all()).assert_close(TOL);
        check_scalar(&x, 1e-3, |_t, v| v.exp().mean_all()).assert_close(TOL);
    }

    #[test]
    fn check_abs_away_from_zero() {
        let x = Rng::seed_from_u64(3).uniform_tensor(&[8], 0.2, 1.0);
        check_scalar(&x, 1e-3, |_t, v| v.abs().sum_all()).assert_close(TOL);
    }

    #[test]
    fn check_matmul() {
        let x = rand_t(&[3, 4], 4);
        check_scalar(&x, EPS, |t, v| {
            let w = t.constant(rand_t(&[4, 2], 5));
            v.matmul(w).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_batched_matmul_broadcast() {
        let x = rand_t(&[2, 2], 6);
        check_scalar(&x, EPS, |t, v| {
            let batch = t.constant(rand_t(&[3, 2, 2], 7));
            v.matmul(batch).mul(v.matmul(batch)).sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_softmax() {
        let x = rand_t(&[2, 4], 8);
        check_scalar(&x, 1e-2, |t, v| {
            let w = t.constant(rand_t(&[2, 4], 9));
            v.softmax(1).mul(w).sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_permute_reshape_narrow() {
        let x = rand_t(&[2, 3, 4], 14);
        check_scalar(&x, EPS, |_t, v| {
            v.permute(&[2, 0, 1])
                .reshape(&[4, 6])
                .narrow(1, 1, 3)
                .powf(2.0)
                .sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_sum_axes_and_div() {
        let x = Rng::seed_from_u64(15).uniform_tensor(&[3, 4], 0.5, 1.5);
        check_scalar(&x, 1e-3, |_t, v| {
            let s = v.sum_axes(&[1], true);
            v.div(s).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_l2_normalize() {
        let x = Rng::seed_from_u64(16).uniform_tensor(&[2, 5], 0.3, 1.0);
        check_scalar(&x, 1e-3, |t, v| {
            let w = t.constant(rand_t(&[2, 5], 17));
            v.l2_normalize(1).mul(w).sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_concat_paths() {
        let x = rand_t(&[2, 3], 18);
        check_scalar(&x, EPS, |t, v| {
            let a = v.narrow(1, 0, 1);
            let b = v.narrow(1, 1, 2).scale(2.0);
            let c = t.concat(&[a, b], 1);
            c.powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }

    #[test]
    fn check_mean_axes_keepdim() {
        let x = rand_t(&[2, 3, 2], 20);
        check_scalar(&x, EPS, |_t, v| v.mean_axes(&[1], true).powf(2.0).sum_all())
            .assert_close(TOL);
    }
}
