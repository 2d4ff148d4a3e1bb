//! The forward rules: one per op, in one evaluator.
//!
//! Every op's forward value is computed once, by [`eval`], the
//! counterpart of the one backward walk in `crate::backward`. Two callers
//! run it: [`Tape`](crate::autodiff::Tape) records every op through it,
//! and [`ExecPlan`](crate::plan::ExecPlan) replays through it every node
//! it neither fuses into a run nor moves. So a recorded value and a
//! replayed one are the same function of the same operands, and the
//! plan's bitwise parity with the tape holds by construction.
//!
//! Each unary elementwise op's per-element function is written once, as a
//! [`Stage`]. A lone unary op is a run of one stage ([`exec_run`]); a
//! plan fuses a chain of them into one run of several. Every stage rounds
//! to `f32`, so a run of several stages is bitwise identical to
//! materializing each intermediate.

use crate::autodiff::Op;
use crate::parallel::{par_fill, PAR_MIN_ELEMS};
use crate::pool;
use crate::tensor::Tensor;

/// One unary elementwise function: the per-element arithmetic of the
/// matching [`Op`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Neg,
    Scale(f32),
    AddScalar(f32),
    PowF(f32),
    Exp,
    Ln,
    Sqrt,
    Abs,
    Relu,
    Sigmoid,
    Tanh,
}

impl Stage {
    /// Writes this stage of `src` into `dst`, or applies it to `dst` in
    /// place when `src` is `None`. The match sits outside the loop, so
    /// each arm is a plain loop over one function that LLVM vectorizes.
    fn apply(self, dst: &mut [f32], src: Option<&[f32]>) {
        fn each(dst: &mut [f32], src: Option<&[f32]>, f: impl Fn(f32) -> f32) {
            match src {
                Some(src) => {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = f(s);
                    }
                }
                None => {
                    for d in dst {
                        *d = f(*d);
                    }
                }
            }
        }
        match self {
            Stage::Neg => each(dst, src, |v| v * -1.0),
            Stage::Scale(c) => each(dst, src, |v| v * c),
            Stage::AddScalar(c) => each(dst, src, |v| v + c),
            Stage::PowF(p) => each(dst, src, |v| v.powf(p)),
            Stage::Exp => each(dst, src, f32::exp),
            Stage::Ln => each(dst, src, f32::ln),
            Stage::Sqrt => each(dst, src, f32::sqrt),
            Stage::Abs => each(dst, src, f32::abs),
            Stage::Relu => each(dst, src, |v| v.max(0.0)),
            Stage::Sigmoid => each(dst, src, crate::activation::sigmoid),
            Stage::Tanh => each(dst, src, crate::activation::tanh),
        }
    }
}

/// Maps a unary elementwise op to its stage and input index.
pub(crate) fn stage_of(op: &Op) -> Option<(Stage, usize)> {
    Some(match *op {
        Op::Neg(a) => (Stage::Neg, a),
        Op::Scale(a, c) => (Stage::Scale(c), a),
        Op::AddScalar(a, c) => (Stage::AddScalar(c), a),
        Op::PowF(a, p) => (Stage::PowF(p), a),
        Op::Exp(a) => (Stage::Exp, a),
        Op::Ln(a) => (Stage::Ln, a),
        Op::Sqrt(a) => (Stage::Sqrt, a),
        Op::Abs(a) => (Stage::Abs, a),
        Op::Relu(a) => (Stage::Relu, a),
        Op::Sigmoid(a) => (Stage::Sigmoid, a),
        Op::Tanh(a) => (Stage::Tanh, a),
        _ => return None,
    })
}

/// Evaluates `op` on its operands, read through `value_of` (node index →
/// forward value). `shape` is the result's shape; only `Reshape` reads it.
pub(crate) fn eval<'a>(op: &Op, value_of: impl Fn(usize) -> &'a Tensor, shape: &[usize]) -> Tensor {
    match op {
        Op::Leaf | Op::Constant => unreachable!("source nodes are never evaluated"),
        Op::Add(a, b) => value_of(*a).add(value_of(*b)),
        Op::Sub(a, b) => value_of(*a).sub(value_of(*b)),
        Op::Mul(a, b) => value_of(*a).mul(value_of(*b)),
        Op::Div(a, b) => value_of(*a).div(value_of(*b)),
        Op::MatMul(a, b) => value_of(*a).matmul(value_of(*b)),
        Op::Permute(a, perm) => value_of(*a).permute(perm),
        Op::Reshape(a) => value_of(*a).clone().reshape(shape),
        Op::SumAxes {
            input,
            axes,
            keepdim,
        } => value_of(*input).sum_axes(axes, *keepdim),
        Op::SumAll(a) => Tensor::scalar(value_of(*a).sum_all()),
        Op::MeanAll(a) => Tensor::scalar(value_of(*a).mean_all()),
        Op::Softmax(a, axis) => value_of(*a).softmax(*axis),
        Op::Concat { inputs, axis } => {
            let parts: Vec<&Tensor> = inputs.iter().map(|&p| value_of(p)).collect();
            Tensor::concat(&parts, *axis)
        }
        Op::Narrow {
            input,
            axis,
            start,
            len,
        } => value_of(*input).narrow(*axis, *start, *len),
        Op::Detach(a) => value_of(*a).clone(),
        unary => {
            let (stage, a) = stage_of(unary).expect("every other op is a unary stage");
            exec_run(value_of(a), &[stage])
        }
    }
}

/// Elements per block of a run: small enough that a block stays in L1
/// while every stage passes over it.
const RUN_BLOCK: usize = 256;

/// Applies `stages` in order to every element of `src`. Stage-major over
/// fixed blocks: the first stage reads a block of `src` and writes the
/// output, and each later stage sweeps that block in place. Every element
/// passes through the same stage sequence, so the bits are those of an
/// element-at-a-time loop, while each stage's loop vectorizes. Large
/// tensors split across the thread pool like [`Tensor::map`].
pub(crate) fn exec_run(src: &Tensor, stages: &[Stage]) -> Tensor {
    fn run(dst: &mut [f32], src: &[f32], stages: &[Stage]) {
        let (first, rest) = stages.split_first().expect("a run has a stage");
        for (d, s) in dst.chunks_mut(RUN_BLOCK).zip(src.chunks(RUN_BLOCK)) {
            first.apply(d, Some(s));
            for stage in rest {
                stage.apply(d, None);
            }
        }
    }
    let sd = src.data();
    let n = sd.len();
    let mut data = pool::take_uninit(n);
    if n < PAR_MIN_ELEMS {
        run(&mut data, sd, stages);
    } else {
        par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
            run(chunk, &sd[r], stages)
        });
    }
    Tensor::from_vec(data, src.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation;
    use crate::parallel::set_threads;

    /// Each stage's defining scalar function, written out independently
    /// of [`Stage::apply`]; the match keeps it exhaustive.
    fn definition(stage: Stage, v: f32) -> f32 {
        match stage {
            Stage::Neg => v * -1.0,
            Stage::Scale(c) => v * c,
            Stage::AddScalar(c) => v + c,
            Stage::PowF(p) => v.powf(p),
            Stage::Exp => f32::exp(v),
            Stage::Ln => f32::ln(v),
            Stage::Sqrt => f32::sqrt(v),
            Stage::Abs => f32::abs(v),
            Stage::Relu => v.max(0.0),
            Stage::Sigmoid => activation::sigmoid(v),
            Stage::Tanh => activation::tanh(v),
        }
    }

    fn assert_same_bits(got: &[f32], want: impl Fn(usize) -> f32, what: &str) {
        for (i, &g) in got.iter().enumerate() {
            let w = want(i);
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:e} ({:#x}), want {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Every stage as a one-stage run and as the middle of a three-stage
    /// run equals its scalar definition applied element by element, bit
    /// for bit, over special values, across a block boundary and across
    /// the parallel split, at 1 and 4 threads.
    #[test]
    fn stages_match_their_scalar_definitions() {
        let grid = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            88.5,
            -88.5,
            1e30,
            -1e30,
        ];
        let stages = [
            Stage::Neg,
            Stage::Scale(0.5),
            Stage::Scale(-3.0),
            Stage::AddScalar(0.25),
            Stage::PowF(2.0),
            Stage::PowF(-0.5),
            Stage::Exp,
            Stage::Ln,
            Stage::Sqrt,
            Stage::Abs,
            Stage::Relu,
            Stage::Sigmoid,
            Stage::Tanh,
        ];
        let _guard = crate::global_state_test_lock();
        let prev = set_threads(1);
        for threads in [1, 4] {
            set_threads(threads);
            for n in [1, RUN_BLOCK - 1, RUN_BLOCK + 1, PAR_MIN_ELEMS + 3] {
                let x = Tensor::from_vec(
                    (0..n).map(|i| grid[i % grid.len()]).collect::<Vec<f32>>(),
                    &[n],
                );
                let xd = x.data();
                for &stage in &stages {
                    let what = format!("{stage:?}, n = {n}, {threads} threads");
                    let one = exec_run(&x, &[stage]);
                    assert_eq!(one.shape(), &[n]);
                    assert_same_bits(one.data(), |i| definition(stage, xd[i]), &what);
                    let three = exec_run(&x, &[Stage::Neg, stage, Stage::Neg]);
                    assert_same_bits(
                        three.data(),
                        |i| definition(stage, xd[i] * -1.0) * -1.0,
                        &format!("Neg → {what} → Neg"),
                    );
                }
            }
        }
        set_threads(prev);
    }
}
