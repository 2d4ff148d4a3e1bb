//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as an explicit [`Op`] node, computing
//! its value through the crate's one forward rule per op; calling
//! [`Tape::backward`] walks the tape in reverse, applying one hand-written
//! backward rule per variant. Both rule sets live in one place each,
//! shared with compiled [`ExecPlan`](crate::plan::ExecPlan) replays, so a
//! `Var` method only names its op. Compared to closure-captured rules
//! this keeps every rule inspectable and testable — each backward rule
//! is verified against numerical differentiation in `gradcheck` tests.
//!
//! Variables ([`Var`]) are `Copy` indices into the tape, so expression code
//! reads naturally:
//!
//! ```
//! use urcl_tensor::{Tensor, autodiff::Tape};
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2.0], &[1]));
//! let y = x.mul(x).add_scalar(1.0); // y = x^2 + 1
//! let g = tape.backward(y);
//! assert_eq!(g.get(x).unwrap().data(), &[4.0]); // dy/dx = 2x
//! ```

use crate::backward::BackwardSchedule;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// One recorded operation. Fields are the tape indices of the inputs plus
/// whatever metadata the backward rule needs. `PartialEq` compares the
/// recorded structure (indices and metadata, scalar constants bitwise via
/// `f32` equality) — the plan compiler uses it to check that two
/// recordings of the same step graph are op-for-op identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Trainable input: receives a gradient slot.
    Leaf,
    /// Non-trainable input (data, masks, adjacency matrices).
    Constant,
    /// Broadcasting elementwise `a + b`.
    Add(usize, usize),
    /// Broadcasting elementwise `a - b`.
    Sub(usize, usize),
    /// Broadcasting elementwise `a * b`.
    Mul(usize, usize),
    /// Broadcasting elementwise `a / b`.
    Div(usize, usize),
    /// Elementwise negation `-a`.
    Neg(usize),
    /// Multiplication by a compile-time scalar: `a * c`.
    Scale(usize, f32),
    /// Addition of a compile-time scalar: `a + c`.
    AddScalar(usize, f32),
    /// Elementwise power with a scalar exponent: `a^c`.
    PowF(usize, f32),
    /// Elementwise `exp(a)`.
    Exp(usize),
    /// Elementwise natural logarithm `ln(a)`.
    Ln(usize),
    /// Elementwise square root.
    Sqrt(usize),
    /// Elementwise absolute value (subgradient 0 at the kink).
    Abs(usize),
    /// Rectified linear unit `max(a, 0)`.
    Relu(usize),
    /// Logistic sigmoid `1 / (1 + exp(-a))`.
    Sigmoid(usize),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// Batched matrix product over the two trailing axes.
    MatMul(usize, usize),
    /// Axis permutation (generalised transpose); the `Vec` is the
    /// forward permutation, inverted in the backward rule.
    Permute(usize, Vec<usize>),
    /// Shape change without data movement; the backward rule reshapes
    /// the gradient back to the input's shape.
    Reshape(usize),
    /// Sum-reduction over a set of axes.
    SumAxes {
        /// Tape index of the reduced tensor.
        input: usize,
        /// Axes being summed over (ascending, deduplicated).
        axes: Vec<usize>,
        /// Keep reduced axes as size-1 dims instead of dropping them.
        keepdim: bool,
    },
    /// Sum of every element, yielding a scalar.
    SumAll(usize),
    /// Mean of every element, yielding a scalar.
    MeanAll(usize),
    /// Softmax along one axis: `Softmax(input, axis)`.
    Softmax(usize, usize),
    /// Concatenation of several tensors along one axis; the backward
    /// rule narrows the gradient back into per-input slices.
    Concat {
        /// Tape indices of the concatenated tensors, in order.
        inputs: Vec<usize>,
        /// Axis along which the inputs were joined.
        axis: usize,
    },
    /// Contiguous slice `[start, start + len)` along one axis.
    Narrow {
        /// Tape index of the sliced tensor.
        input: usize,
        /// Axis being sliced.
        axis: usize,
        /// First element of the slice along `axis`.
        start: usize,
        /// Slice length along `axis`.
        len: usize,
    },
    /// Identity in the forward pass, blocks gradient flow (the paper's
    /// `SG(·)` stop-gradient of Eq. 13).
    Detach(usize),
}

/// Profile index of an op kind (aligned with [`crate::opprof::OP_NAMES`]);
/// `None` for pure tape bookkeeping nodes.
pub(crate) fn kind_index(op: &Op) -> Option<usize> {
    Some(match op {
        Op::Leaf | Op::Constant => return None,
        Op::Add(..) => 0,
        Op::Sub(..) => 1,
        Op::Mul(..) => 2,
        Op::Div(..) => 3,
        Op::Neg(..) => 4,
        Op::Scale(..) => 5,
        Op::AddScalar(..) => 6,
        Op::PowF(..) => 7,
        Op::Exp(..) => 8,
        Op::Ln(..) => 9,
        Op::Sqrt(..) => 10,
        Op::Abs(..) => 11,
        Op::Relu(..) => 12,
        Op::Sigmoid(..) => 13,
        Op::Tanh(..) => 14,
        Op::MatMul(..) => 15,
        Op::Permute(..) => 16,
        Op::Reshape(..) => 17,
        Op::SumAxes { .. } => 18,
        Op::SumAll(..) => 19,
        Op::MeanAll(..) => 20,
        Op::Softmax(..) => 21,
        Op::Concat { .. } => 22,
        Op::Narrow { .. } => 23,
        Op::Detach(..) => 24,
    })
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
}

/// The autodiff tape. Create one per training step; parameters are bound to
/// it through [`Session`].
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, value: Tensor, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var {
            tape: self,
            idx: nodes.len() - 1,
        }
    }

    /// Registers a trainable input.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Leaf)
    }

    /// Registers a non-trainable input. Gradients are not propagated into
    /// constants, which keeps the backward pass cheap for data tensors.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Constant)
    }

    /// Concatenates variables along `axis`.
    pub fn concat<'t>(&'t self, parts: &[Var<'t>], axis: usize) -> Var<'t> {
        let inputs = parts.iter().map(|&v| self.operand(v)).collect();
        self.record(Op::Concat { inputs, axis }, &[])
    }

    /// Records `op`: evaluates it through the crate's one forward rule per
    /// op (`forward::eval`) on this tape's values, samples the
    /// `URCL_OP_PROFILE` timer once and appends the node. `shape` is the
    /// result's shape, which only `Reshape` reads.
    fn record(&self, op: Op, shape: &[usize]) -> Var<'_> {
        let t0 = crate::opprof::op_profile_enabled().then(std::time::Instant::now);
        let value = {
            let nodes = self.nodes.borrow();
            crate::forward::eval(&op, |i| &nodes[i].value, shape)
        };
        if let (Some(t0), Some(k)) = (t0, kind_index(&op)) {
            crate::opprof::record_forward(k, t0.elapsed().as_nanos() as u64);
        }
        self.push(value, op)
    }

    /// The node index of operand `v`, which must be on this tape.
    fn operand(&self, v: Var<'_>) -> usize {
        assert!(
            std::ptr::eq(self, v.tape),
            "variables belong to different tapes"
        );
        v.idx
    }

    /// Clones the forward value of a variable.
    pub fn value(&self, v: Var<'_>) -> Tensor {
        self.nodes.borrow()[v.idx].value.clone()
    }

    /// The variable of the node at `idx`, for callers that hold node
    /// indices (a [`crate::plan::Recording`]'s root) rather than live
    /// `Var`s.
    pub fn var(&self, idx: usize) -> Var<'_> {
        assert!(idx < self.len(), "tape node {idx} out of range");
        Var { tape: self, idx }
    }

    /// Runs the backward pass from `loss` (which must hold exactly one
    /// element) and returns per-node gradients.
    ///
    /// This is the crate's one backward walk (the one compiled plans run)
    /// over the recorded values in place: no forward pass is replayed and
    /// nothing is copied. Only nodes with a path to a trainable leaf get a
    /// gradient — constants receive none — and the gradient of every
    /// trainable leaf is bitwise the one a compiled
    /// [`crate::plan::ExecPlan`] replay of this graph produces.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.idx].value.len(),
            1,
            "backward root must be a scalar, got shape {:?}",
            nodes[loss.idx].value.shape()
        );
        let mut recorded: &[Node] = &nodes;
        let grads = BackwardSchedule::new(recorded, loss.idx).run(&mut recorded);
        Gradients { grads }
    }
}

/// Per-node gradients produced by [`Tape::backward`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Wraps a raw per-node gradient vector (used by the plan executor,
    /// whose backward walk produces the same indexed layout).
    pub(crate) fn from_raw(grads: Vec<Option<Tensor>>) -> Self {
        Gradients { grads }
    }

    /// Gradient of the loss w.r.t. `v`, if any path reached it.
    pub fn get(&self, v: Var<'_>) -> Option<&Tensor> {
        self.grads.get(v.idx).and_then(|g| g.as_ref())
    }

    /// Gradient by raw node index (used by [`Session`]).
    pub fn by_index(&self, idx: usize) -> Option<&Tensor> {
        self.grads.get(idx).and_then(|g| g.as_ref())
    }
}

/// A differentiable variable: a copyable handle into a [`Tape`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div/neg mirror tensor math, not std ops
impl<'t> Var<'t> {
    /// Raw node index (stable for the lifetime of the tape).
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Clones the forward value.
    pub fn value(&self) -> Tensor {
        self.tape.value(*self)
    }

    /// Shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.nodes.borrow()[self.idx].value.shape().to_vec()
    }

    /// Records `op` on this variable's tape.
    fn record(self, op: Op) -> Var<'t> {
        self.tape.record(op, &[])
    }

    /// Elementwise addition (broadcasting).
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.record(Op::Add(self.idx, self.tape.operand(other)))
    }

    /// Elementwise subtraction (broadcasting).
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.record(Op::Sub(self.idx, self.tape.operand(other)))
    }

    /// Elementwise multiplication (broadcasting).
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.record(Op::Mul(self.idx, self.tape.operand(other)))
    }

    /// Elementwise division (broadcasting).
    pub fn div(self, other: Var<'t>) -> Var<'t> {
        self.record(Op::Div(self.idx, self.tape.operand(other)))
    }

    /// Negation.
    pub fn neg(self) -> Var<'t> {
        self.record(Op::Neg(self.idx))
    }

    /// Scalar multiply.
    pub fn scale(self, c: f32) -> Var<'t> {
        self.record(Op::Scale(self.idx, c))
    }

    /// Scalar add.
    pub fn add_scalar(self, c: f32) -> Var<'t> {
        self.record(Op::AddScalar(self.idx, c))
    }

    /// Elementwise power with a constant exponent.
    pub fn powf(self, p: f32) -> Var<'t> {
        self.record(Op::PowF(self.idx, p))
    }

    /// Elementwise exponential.
    pub fn exp(self) -> Var<'t> {
        self.record(Op::Exp(self.idx))
    }

    /// Elementwise natural logarithm.
    pub fn ln(self) -> Var<'t> {
        self.record(Op::Ln(self.idx))
    }

    /// Elementwise square root.
    pub fn sqrt(self) -> Var<'t> {
        self.record(Op::Sqrt(self.idx))
    }

    /// Elementwise absolute value.
    pub fn abs(self) -> Var<'t> {
        self.record(Op::Abs(self.idx))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.record(Op::Relu(self.idx))
    }

    /// Logistic sigmoid ([`crate::activation::sigmoid`]).
    pub fn sigmoid(self) -> Var<'t> {
        self.record(Op::Sigmoid(self.idx))
    }

    /// Hyperbolic tangent ([`crate::activation::tanh`]).
    pub fn tanh(self) -> Var<'t> {
        self.record(Op::Tanh(self.idx))
    }

    /// Matrix product (batched with broadcasting, see [`Tensor::matmul`]).
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        self.record(Op::MatMul(self.idx, self.tape.operand(other)))
    }

    /// Generalized transpose.
    pub fn permute(self, perm: &[usize]) -> Var<'t> {
        self.record(Op::Permute(self.idx, perm.to_vec()))
    }

    /// Swaps two axes.
    pub fn transpose(self, a: usize, b: usize) -> Var<'t> {
        let ndim = self.shape().len();
        let mut perm: Vec<usize> = (0..ndim).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Reshape preserving element count.
    pub fn reshape(self, shape: &[usize]) -> Var<'t> {
        self.tape.record(Op::Reshape(self.idx), shape)
    }

    /// Sum over axes.
    pub fn sum_axes(self, axes: &[usize], keepdim: bool) -> Var<'t> {
        self.record(Op::SumAxes {
            input: self.idx,
            axes: axes.to_vec(),
            keepdim,
        })
    }

    /// Mean over axes (sum then scale).
    pub fn mean_axes(self, axes: &[usize], keepdim: bool) -> Var<'t> {
        let shape = self.shape();
        let n: usize = axes.iter().map(|&a| shape[a]).product();
        self.sum_axes(axes, keepdim).scale(1.0 / n.max(1) as f32)
    }

    /// Sum of all elements, as a `[1]`-shaped variable.
    pub fn sum_all(self) -> Var<'t> {
        self.record(Op::SumAll(self.idx))
    }

    /// Mean of all elements, as a `[1]`-shaped variable.
    pub fn mean_all(self) -> Var<'t> {
        self.record(Op::MeanAll(self.idx))
    }

    /// Softmax along `axis`.
    pub fn softmax(self, axis: usize) -> Var<'t> {
        self.record(Op::Softmax(self.idx, axis))
    }

    /// Slice along an axis.
    pub fn narrow(self, axis: usize, start: usize, len: usize) -> Var<'t> {
        self.record(Op::Narrow {
            input: self.idx,
            axis,
            start,
            len,
        })
    }

    /// Stop-gradient: identity forward, zero backward (Eq. 13's `SG(·)`).
    pub fn detach(self) -> Var<'t> {
        self.record(Op::Detach(self.idx))
    }

    /// L2-normalizes along `axis` (used by the cosine similarity of the
    /// STSimSiam loss). Adds a small epsilon for stability.
    pub fn l2_normalize(self, axis: usize) -> Var<'t> {
        let norm = self
            .mul(self)
            .sum_axes(&[axis], true)
            .add_scalar(1e-12)
            .sqrt();
        self.div(norm)
    }
}

/// Binds a [`ParamStore`] to a [`Tape`], memoizing one leaf node per
/// parameter so that shared parameters (e.g. the STEncoder used by both the
/// prediction head and STSimSiam) receive accumulated gradients.
pub struct Session<'t, 's> {
    tape: &'t Tape,
    store: &'s ParamStore,
    bindings: Vec<(ParamId, usize)>,
}

impl<'t, 's> Session<'t, 's> {
    /// Creates a session binding `store` to `tape`.
    pub fn new(tape: &'t Tape, store: &'s ParamStore) -> Self {
        Self {
            tape,
            store,
            bindings: Vec::new(),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Returns the tape variable for a parameter, creating the leaf on
    /// first use.
    pub fn param(&mut self, id: ParamId) -> Var<'t> {
        if let Some(&(_, idx)) = self.bindings.iter().find(|(pid, _)| *pid == id) {
            return Var {
                tape: self.tape,
                idx,
            };
        }
        let v = self.tape.leaf(self.store.value(id).clone());
        self.bindings.push((id, v.idx));
        v
    }

    /// Registers input data as a constant variable.
    pub fn input(&self, value: Tensor) -> Var<'t> {
        self.tape.constant(value)
    }

    /// Consumes the session, returning `(ParamId, node index)` bindings for
    /// gradient extraction.
    pub fn into_bindings(self) -> Vec<(ParamId, usize)> {
        self.bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn add_backward_broadcast() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
        let b = tape.leaf(t(vec![1.0, 1.0, 1.0], &[3]));
        let loss = a.add(b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[1.0; 6]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_backward() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![2.0, 3.0], &[2]));
        let b = tape.leaf(t(vec![5.0, 7.0], &[2]));
        let loss = a.mul(b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![1.0; 6], &[2, 3]));
        let b = tape.leaf(t(vec![1.0; 12], &[3, 4]));
        let loss = a.matmul(b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), &[2, 3]);
        assert_eq!(g.get(b).unwrap().shape(), &[3, 4]);
        // dA = ones(2,4) @ B^T = each entry 4 (row sums of ones B)
        assert_eq!(g.get(a).unwrap().data(), &[4.0; 6]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0; 12]);
    }

    #[test]
    fn matmul_backward_broadcast_lhs() {
        // A[2,2] shared across a batch of 3: grads accumulate over batch.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::eye(2));
        let x = tape.leaf(Tensor::ones(&[3, 2, 2]));
        let loss = a.matmul(x).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), &[2, 2]);
        // dA = sum over batch of g @ X^T = 3 * ones@ones^T = all 6
        assert_eq!(g.get(a).unwrap().data(), &[6.0; 4]);
    }

    #[test]
    fn chain_rule_through_tanh() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![0.5], &[1]));
        let y = x.tanh().mul(x.tanh()); // tanh(x)^2
        let g = tape.backward(y.sum_all());
        let th = 0.5f32.tanh();
        let expected = 2.0 * th * (1.0 - th * th);
        assert!((g.get(x).unwrap().data()[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn detach_blocks_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![3.0], &[1]));
        let loss = x.detach().mul(x).sum_all(); // treated as c*x
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[3.0]); // only the non-detached path
    }

    #[test]
    fn shared_leaf_accumulates() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![2.0], &[1]));
        let loss = x.mul(x).sum_all(); // x^2
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[4.0]);
    }

    #[test]
    fn softmax_backward_sums_to_zero() {
        // Softmax gradient rows always sum to ~0 when upstream grad hits a
        // single logit.
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0], &[1, 3]));
        let y = x.softmax(1);
        let first = y.narrow(1, 0, 1).sum_all();
        let g = tape.backward(first);
        let gx = g.get(x).unwrap();
        let s: f32 = gx.data().iter().sum();
        assert!(s.abs() < 1e-6, "softmax grad sum {s}");
    }

    #[test]
    fn concat_backward_splits() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![1.0, 2.0], &[1, 2]));
        let b = tape.leaf(t(vec![3.0], &[1, 1]));
        let c = tape.concat(&[a, b], 1);
        let loss = c.mul(c).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[2.0, 4.0]);
        assert_eq!(g.get(b).unwrap().data(), &[6.0]);
    }

    #[test]
    fn narrow_backward_scatters() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0], &[4]));
        let loss = x.narrow(0, 1, 2).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sum_axes_backward_no_keepdim() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
        let s = x.sum_axes(&[0], false); // shape [3]
        let w = tape.constant(t(vec![1.0, 10.0, 100.0], &[3]));
        let loss = s.mul(w).sum_all();
        let g = tape.backward(loss);
        assert_eq!(
            g.get(x).unwrap().data(),
            &[1.0, 10.0, 100.0, 1.0, 10.0, 100.0]
        );
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![3.0, 4.0], &[1, 2]));
        let n = x.l2_normalize(1);
        let v = n.value();
        assert!((v.data()[0] - 0.6).abs() < 1e-5);
        assert!((v.data()[1] - 0.8).abs() < 1e-5);
        // Gradient flows without NaN.
        let g = tape.backward(n.sum_all());
        assert!(g.get(x).unwrap().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn constants_do_not_block_backward() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![2.0], &[1]));
        let c = tape.constant(t(vec![5.0], &[1]));
        let g = tape.backward(x.mul(c).sum_all());
        assert_eq!(g.get(x).unwrap().data(), &[5.0]);
        // The constant also records its grad slot but that's incidental.
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar_root() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0], &[2]));
        let _ = tape.backward(x);
    }

    #[test]
    fn session_binds_params_once() {
        use crate::params::ParamStore;
        let mut store = ParamStore::new();
        let w = store.add("w", t(vec![2.0], &[1]));
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let w1 = sess.param(w);
        let w2 = sess.param(w);
        assert_eq!(w1.index(), w2.index());
        let loss = w1.mul(w2).sum_all(); // w^2
        let grads = tape.backward(loss);
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        assert_eq!(store.grad(w).data(), &[4.0]);
    }
}
