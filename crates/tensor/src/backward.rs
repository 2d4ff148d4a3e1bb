//! The backward walk: reverse-mode differentiation over a recorded graph.
//!
//! Every op's gradient rule exists once, in [`BackwardSchedule::run`].
//! Two callers run it: [`Tape::backward`](crate::autodiff::Tape::backward)
//! over a tape's recorded nodes in place, and
//! [`ExecPlan::run_training`](crate::plan::ExecPlan::run_training) over a
//! plan replay's value slots ([`ForwardValues`] abstracts the two). Both
//! first analyse the graph into a [`BackwardSchedule`]:
//!
//! * **Dead-gradient elimination** — only nodes that can *usefully*
//!   receive a gradient (a path to a trainable leaf) get one; edges into
//!   constants (data, graph supports, masks) and detached values are never
//!   evaluated. This skips entire GEMMs, e.g. the gradient of
//!   `support @ x` into the constant support matrix.
//! * **A precomputed walk order** — the reached, useful non-source nodes
//!   in descending index order; every other node is skipped without a
//!   gradient-slot check.
//!
//! Each slot accumulates its contributions in descending consumer order,
//! and a consumer of a useful node is itself useful, so a trainable leaf
//! receives exactly the sum, in exactly the order, a full reverse sweep
//! over every recorded node would produce.

use crate::autodiff::{kind_index, Node, Op};
use crate::parallel::{par_fill, PAR_MIN_ELEMS};
use crate::pool;
use crate::shape::numel;
use crate::tensor::Tensor;

/// Read access to a recorded graph during the backward walk: a tape's
/// nodes in place, or a plan replay's value slots.
pub(crate) trait ForwardValues {
    /// The op that produced node `i`.
    fn op(&self, i: usize) -> &Op;
    /// Shape of node `i`'s value; valid even after the value is released.
    fn shape(&self, i: usize) -> &[usize];
    /// Node `i`'s forward value.
    fn value(&self, i: usize) -> &Tensor;
    /// Node `i`'s rule has run and no later rule reads its value. A tape
    /// keeps its values; a plan replay recycles the buffer.
    fn release(&mut self, _i: usize) {}
}

impl ForwardValues for &[Node] {
    fn op(&self, i: usize) -> &Op {
        &self[i].op
    }

    fn shape(&self, i: usize) -> &[usize] {
        self[i].value.shape()
    }

    fn value(&self, i: usize) -> &Tensor {
        &self[i].value
    }
}

/// The backward analysis of one recorded graph for a walk from a scalar
/// root: which nodes get a gradient and in what order, decided once and
/// reused by every walk (a plan keeps its schedule across replays).
pub(crate) struct BackwardSchedule {
    /// The scalar node the walk starts from.
    pub(crate) root: usize,
    /// `useful[i]`: a gradient flowing into node `i` can reach a
    /// trainable leaf.
    pub(crate) useful: Vec<bool>,
    /// `reached[i]`: the walk from the root produces a gradient for node
    /// `i`. Constants and detach cut propagation.
    pub(crate) reached: Vec<bool>,
    /// Reached, useful non-source nodes in descending order.
    order: Vec<usize>,
    /// Backward edges skipped because their input is not useful.
    pub(crate) dead_edges: u64,
}

impl BackwardSchedule {
    /// Analyses the walk from `root` over `nodes` (a recording whose
    /// nodes past the root, if any, are ignored).
    pub(crate) fn new(nodes: &[Node], root: usize) -> Self {
        let n = root + 1;
        let mut scratch = Vec::with_capacity(4);
        let mut useful = vec![false; n];
        for i in 0..n {
            useful[i] = match &nodes[i].op {
                Op::Leaf => true,
                Op::Constant | Op::Detach(_) => false,
                op => {
                    scratch.clear();
                    op_inputs(op, &mut scratch);
                    scratch.iter().any(|&a| useful[a])
                }
            };
        }
        let mut reached = vec![false; n];
        reached[root] = true;
        for i in (0..n).rev() {
            if !reached[i] || matches!(nodes[i].op, Op::Detach(_)) {
                continue;
            }
            scratch.clear();
            op_inputs(&nodes[i].op, &mut scratch);
            for &a in &scratch {
                if useful[a] {
                    reached[a] = true;
                }
            }
        }
        let mut order = Vec::new();
        let mut dead_edges = 0u64;
        for i in (0..n).rev() {
            // `reached && !useful` only happens at the root (reached is
            // seeded there unconditionally): a loss over constants and
            // detached values has no edge to schedule, and the rules
            // assume at least one useful input.
            if !reached[i] || !useful[i] || matches!(nodes[i].op, Op::Leaf | Op::Constant) {
                continue; // a leaf keeps its gradient in the slot
            }
            order.push(i);
            scratch.clear();
            op_inputs(&nodes[i].op, &mut scratch);
            dead_edges += scratch.iter().filter(|&&a| !useful[a]).count() as u64;
        }
        BackwardSchedule {
            root,
            useful,
            reached,
            order,
            dead_edges,
        }
    }

    /// Runs the walk: seeds the root with ones, then applies each
    /// scheduled node's rule, reading forward values from `fwd`. Returns
    /// per-node gradients, indexed like the recording: trainable leaves
    /// keep theirs, intermediate slots are consumed on the way.
    pub(crate) fn run(&self, fwd: &mut impl ForwardValues) -> Vec<Option<Tensor>> {
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(self.useful.len(), || None);
        grads[self.root] = Some(Tensor::ones(fwd.shape(self.root)));
        let prof = crate::opprof::op_profile_enabled();
        let uf = |a: usize| self.useful[a];
        for &i in &self.order {
            let t0 = prof.then(std::time::Instant::now);
            let g = grads[i]
                .take()
                .unwrap_or_else(|| panic!("backward bug: node {i} reached but has no grad"));
            match fwd.op(i) {
                Op::Leaf | Op::Constant => unreachable!("leaves are not scheduled"),
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    match (uf(a), uf(b)) {
                        (true, true) => {
                            if fwd.shape(a) == fwd.shape(i) {
                                accumulate_ref(&mut grads, a, &g);
                            } else {
                                accumulate(&mut grads, a, g.reduce_to_shape(fwd.shape(a)));
                            }
                            if fwd.shape(b) == fwd.shape(i) {
                                accumulate(&mut grads, b, g); // final edge: move, not clone
                            } else {
                                accumulate(&mut grads, b, g.reduce_to_shape(fwd.shape(b)));
                            }
                        }
                        (true, false) => {
                            if fwd.shape(a) == fwd.shape(i) {
                                accumulate(&mut grads, a, g);
                            } else {
                                accumulate(&mut grads, a, g.reduce_to_shape(fwd.shape(a)));
                            }
                        }
                        (false, true) => {
                            if fwd.shape(b) == fwd.shape(i) {
                                accumulate(&mut grads, b, g);
                            } else {
                                accumulate(&mut grads, b, g.reduce_to_shape(fwd.shape(b)));
                            }
                        }
                        (false, false) => unreachable!("node reached with no useful edge"),
                    }
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    // Rule order is a then b; when the indices
                    // differ the contributions land in different slots, so
                    // evaluating b's (which borrows g) first lets a's
                    // identity edge move g instead of cloning it.
                    if uf(b) && (a != b || !uf(a)) {
                        if fwd.shape(b) == fwd.shape(i) {
                            fused_scale_acc(&mut grads, b, &g, -1.0);
                        } else {
                            accumulate(&mut grads, b, g.scale(-1.0).reduce_to_shape(fwd.shape(b)));
                        }
                        if uf(a) {
                            if fwd.shape(a) == fwd.shape(i) {
                                accumulate(&mut grads, a, g);
                            } else {
                                accumulate(&mut grads, a, g.reduce_to_shape(fwd.shape(a)));
                            }
                        }
                    } else {
                        // a == b (or only a useful): keep rule order.
                        if uf(a) {
                            if fwd.shape(a) == fwd.shape(i) {
                                accumulate_ref(&mut grads, a, &g);
                            } else {
                                accumulate(&mut grads, a, g.reduce_to_shape(fwd.shape(a)));
                            }
                        }
                        if uf(b) {
                            if fwd.shape(b) == fwd.shape(i) {
                                fused_scale_acc(&mut grads, b, &g, -1.0);
                            } else {
                                accumulate(
                                    &mut grads,
                                    b,
                                    g.scale(-1.0).reduce_to_shape(fwd.shape(b)),
                                );
                            }
                        }
                    }
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    if fwd.shape(a) == fwd.shape(i) && fwd.shape(b) == fwd.shape(i) {
                        if uf(a) {
                            fused_mul_acc(&mut grads, a, &g, fwd.value(b));
                        }
                        if uf(b) {
                            fused_mul_acc(&mut grads, b, &g, fwd.value(a));
                        }
                    } else {
                        if uf(a) {
                            let ga = g.mul(fwd.value(b)).reduce_to_shape(fwd.shape(a));
                            accumulate(&mut grads, a, ga);
                        }
                        if uf(b) {
                            let gb = g.mul(fwd.value(a)).reduce_to_shape(fwd.shape(b));
                            accumulate(&mut grads, b, gb);
                        }
                    }
                }
                Op::Div(a, b) => {
                    let (a, b) = (*a, *b);
                    if fwd.shape(a) == fwd.shape(i) && fwd.shape(b) == fwd.shape(i) {
                        if uf(a) {
                            fused_map2(&mut grads, a, &g, fwd.value(b), |gv, b| gv / b);
                        }
                        if uf(b) {
                            fused_map3(
                                &mut grads,
                                b,
                                &g,
                                fwd.value(a),
                                fwd.value(b),
                                |gv, a, b| ((gv * a) / (b * b)) * -1.0,
                            );
                        }
                    } else {
                        if uf(a) {
                            let ga = g.div(fwd.value(b)).reduce_to_shape(fwd.shape(a));
                            accumulate(&mut grads, a, ga);
                        }
                        if uf(b) {
                            let bv = fwd.value(b);
                            let gb = g
                                .mul(fwd.value(a))
                                .div(&bv.mul(bv))
                                .scale(-1.0)
                                .reduce_to_shape(fwd.shape(b));
                            accumulate(&mut grads, b, gb);
                        }
                    }
                }
                Op::Neg(a) => fused_scale_acc(&mut grads, *a, &g, -1.0),
                Op::Scale(a, c) => fused_scale_acc(&mut grads, *a, &g, *c),
                Op::AddScalar(a, _) => accumulate(&mut grads, *a, g),
                Op::PowF(a, p) => {
                    let p = *p;
                    fused_map2(&mut grads, *a, &g, fwd.value(*a), move |gv, v| {
                        gv * (p * v.powf(p - 1.0))
                    });
                }
                Op::Exp(a) => fused_map2(&mut grads, *a, &g, fwd.value(i), |gv, y| gv * y),
                Op::Ln(a) => fused_map2(&mut grads, *a, &g, fwd.value(*a), |gv, v| gv / v),
                Op::Sqrt(a) => {
                    fused_map2(&mut grads, *a, &g, fwd.value(i), |gv, y| gv / (y * 2.0));
                }
                Op::Abs(a) => {
                    let sign = |v: f32| {
                        if v > 0.0 {
                            1.0
                        } else if v < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    };
                    fused_map2(&mut grads, *a, &g, fwd.value(*a), |gv, v| gv * sign(v));
                }
                Op::Relu(a) => {
                    fused_map2(&mut grads, *a, &g, fwd.value(*a), |gv, v| {
                        gv * if v > 0.0 { 1.0 } else { 0.0 }
                    });
                }
                Op::Sigmoid(a) => {
                    fused_map2(&mut grads, *a, &g, fwd.value(i), |gv, y| {
                        gv * (y * (1.0 - y))
                    });
                }
                Op::Tanh(a) => {
                    fused_map2(&mut grads, *a, &g, fwd.value(i), |gv, y| gv * (1.0 - y * y));
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if uf(a) {
                        let ga = g.matmul_nt(fwd.value(b));
                        let ga = if ga.shape() == fwd.shape(a) {
                            ga
                        } else {
                            ga.reduce_to_shape(fwd.shape(a))
                        };
                        accumulate(&mut grads, a, ga);
                    }
                    if uf(b) {
                        let gb = fwd.value(a).matmul_tn(&g);
                        let gb = if gb.shape() == fwd.shape(b) {
                            gb
                        } else {
                            gb.reduce_to_shape(fwd.shape(b))
                        };
                        accumulate(&mut grads, b, gb);
                    }
                }
                Op::Permute(a, perm) => {
                    let mut inv = vec![0usize; perm.len()];
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = i;
                    }
                    accumulate(&mut grads, *a, g.permute(&inv));
                }
                Op::Reshape(a) => {
                    accumulate(&mut grads, *a, g.reshape(fwd.shape(*a)));
                }
                Op::SumAxes {
                    input,
                    axes,
                    keepdim,
                } => {
                    let in_shape = fwd.shape(*input);
                    let keep_shape: Vec<usize> = {
                        let mut s = in_shape.to_vec();
                        for &a in axes {
                            s[a] = 1;
                        }
                        s
                    };
                    let gk = if *keepdim { g } else { g.reshape(&keep_shape) };
                    let expanded = Tensor::zeros(in_shape).add(&gk);
                    accumulate(&mut grads, *input, expanded);
                }
                Op::SumAll(a) => {
                    let full = Tensor::full(fwd.shape(*a), g.item());
                    accumulate(&mut grads, *a, full);
                }
                Op::MeanAll(a) => {
                    let n = numel(fwd.shape(*a)).max(1) as f32;
                    let full = Tensor::full(fwd.shape(*a), g.item() / n);
                    accumulate(&mut grads, *a, full);
                }
                Op::Softmax(a, axis) => {
                    let y = fwd.value(i);
                    let gy = g.mul(y);
                    let s = gy.sum_axes(&[*axis], true);
                    let dg = y.mul(&g.sub(&s));
                    accumulate(&mut grads, *a, dg);
                }
                Op::Concat {
                    inputs: parts,
                    axis,
                } => {
                    let mut start = 0;
                    for &inp in parts {
                        let len = fwd.shape(inp)[*axis];
                        if uf(inp) {
                            let part = g.narrow(*axis, start, len);
                            accumulate(&mut grads, inp, part);
                        }
                        start += len;
                    }
                }
                Op::Narrow {
                    input,
                    axis,
                    start,
                    len,
                } => {
                    let dg = narrow_scatter(&g, fwd.shape(*input), *axis, *start, *len);
                    accumulate(&mut grads, *input, dg);
                }
                Op::Detach(_) => unreachable!("detach is never reached"),
            }
            if let Some(t0) = t0 {
                if let Some(k) = kind_index(fwd.op(i)) {
                    crate::opprof::record_backward(k, t0.elapsed().as_nanos() as u64);
                }
            }
            // Node i's own value can only be read by itself (own-output
            // rules, handled above) or by already-processed consumers, so
            // it is dead from here on.
            fwd.release(i);
        }
        grads
    }
}

/// Appends the tape indices `op` reads to `out`.
pub(crate) fn op_inputs(op: &Op, out: &mut Vec<usize>) {
    match op {
        Op::Leaf | Op::Constant => {}
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::MatMul(a, b) => {
            out.push(*a);
            out.push(*b);
        }
        Op::Neg(a)
        | Op::Scale(a, _)
        | Op::AddScalar(a, _)
        | Op::PowF(a, _)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sqrt(a)
        | Op::Abs(a)
        | Op::Relu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Permute(a, _)
        | Op::Reshape(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::Softmax(a, _)
        | Op::Detach(a) => out.push(*a),
        Op::SumAxes { input, .. } | Op::Narrow { input, .. } => out.push(*input),
        Op::Concat { inputs, .. } => out.extend_from_slice(inputs),
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Like [`accumulate`] but borrows the gradient, cloning only when the
/// slot is empty. Lets rules that propagate `g` unchanged to several
/// inputs skip one full-tensor copy per edge with an occupied slot.
fn accumulate_ref(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Core of the fused backward kernels: `grads[idx][e] (+)= eval(e)`.
///
/// When the slot already holds a partial gradient the contribution is
/// accumulated *in place* — no temporary tensor is materialized, which is
/// the axpy-style fusion that removes one allocation + write + read per
/// backward edge. When the slot is empty the contribution is written into
/// a pooled buffer. Either way the per-element arithmetic is "evaluate
/// `eval(e)`, then add" — exactly what the old temporary-then-`add_assign`
/// code produced (Rust does not contract `a + b * c` to FMA), so results
/// are bitwise identical. Large tensors split over the thread pool on
/// disjoint output chunks, preserving determinism at any thread count.
fn fused_apply(
    grads: &mut [Option<Tensor>],
    idx: usize,
    shape: &[usize],
    eval: &(impl Fn(usize) -> f32 + Sync),
) {
    let n = numel(shape);
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), shape, "fused gradient shape mismatch");
            let dst = existing.data_mut();
            if n < PAR_MIN_ELEMS {
                for (e, d) in dst.iter_mut().enumerate() {
                    *d += eval(e);
                }
            } else {
                par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| {
                    for (d, e) in chunk.iter_mut().zip(r) {
                        *d += eval(e);
                    }
                });
            }
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                for (e, d) in data.iter_mut().enumerate() {
                    *d = eval(e);
                }
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    for (d, e) in chunk.iter_mut().zip(r) {
                        *d = eval(e);
                    }
                });
            }
            *slot = Some(Tensor::from_vec(data, shape));
        }
    }
}

/// `grads[idx] (+)= f(g, x)` elementwise (same-shape inputs only).
fn fused_map2(
    grads: &mut [Option<Tensor>],
    idx: usize,
    g: &Tensor,
    x: &Tensor,
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    debug_assert_eq!(g.shape(), x.shape(), "fused_map2 shape mismatch");
    let gd = g.data();
    let xd = x.data();
    fused_apply(grads, idx, g.shape(), &|e| f(gd[e], xd[e]));
}

/// `grads[idx] (+)= f(g, a, b)` elementwise (same-shape inputs only).
fn fused_map3(
    grads: &mut [Option<Tensor>],
    idx: usize,
    g: &Tensor,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32, f32) -> f32 + Sync,
) {
    debug_assert_eq!(g.shape(), a.shape(), "fused_map3 shape mismatch");
    debug_assert_eq!(g.shape(), b.shape(), "fused_map3 shape mismatch");
    let gd = g.data();
    let ad = a.data();
    let bd = b.data();
    fused_apply(grads, idx, g.shape(), &|e| f(gd[e], ad[e], bd[e]));
}

/// `grads[idx] (+)= g * x` elementwise: the arithmetic [`fused_map2`]
/// would run (`dst (+)= g[e] * x[e]`, ascending `e`), as zipped slice
/// loops ([`mul_acc`]) that vectorize without the per-index closure.
fn fused_mul_acc(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor, x: &Tensor) {
    debug_assert_eq!(g.shape(), x.shape(), "fused_mul_acc shape mismatch");
    let gd = g.data();
    let xd = x.data();
    let n = gd.len();
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), g.shape(), "fused gradient shape mismatch");
            let dst = existing.data_mut();
            if n < PAR_MIN_ELEMS {
                mul_acc(dst, gd, xd, true);
            } else {
                par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| {
                    mul_acc(chunk, &gd[r.clone()], &xd[r], true);
                });
            }
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                mul_acc(&mut data, gd, xd, false);
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    mul_acc(chunk, &gd[r.clone()], &xd[r], false);
                });
            }
            *slot = Some(Tensor::from_vec(data, g.shape()));
        }
    }
}

/// `grads[idx] (+)= g * c` elementwise through [`scale_acc`], like
/// [`fused_mul_acc`].
fn fused_scale_acc(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor, c: f32) {
    let gd = g.data();
    let n = gd.len();
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), g.shape(), "fused gradient shape mismatch");
            let dst = existing.data_mut();
            if n < PAR_MIN_ELEMS {
                scale_acc(dst, gd, c, true);
            } else {
                par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| {
                    scale_acc(chunk, &gd[r], c, true);
                });
            }
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                scale_acc(&mut data, gd, c, false);
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    scale_acc(chunk, &gd[r], c, false);
                });
            }
            *slot = Some(Tensor::from_vec(data, g.shape()));
        }
    }
}

/// `dst[i] += g[i] * x[i]` (or `=` when `acc` is false). Each element is
/// one mul then one add (never FMA), so the vectorized loop is bitwise
/// identical to an element-at-a-time one.
fn mul_acc(dst: &mut [f32], g: &[f32], x: &[f32], acc: bool) {
    debug_assert!(dst.len() == g.len() && g.len() == x.len());
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

/// `dst[i] += g[i] * c` (or `=` when `acc` is false), as [`mul_acc`].
fn scale_acc(dst: &mut [f32], g: &[f32], c: f32, acc: bool) {
    debug_assert_eq!(dst.len(), g.len());
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

/// Embeds a gradient of the narrowed slice back into a zero tensor of the
/// input's shape.
fn narrow_scatter(g: &Tensor, in_shape: &[usize], axis: usize, start: usize, len: usize) -> Tensor {
    let mut out = Tensor::zeros(in_shape);
    let outer: usize = in_shape[..axis].iter().product();
    let inner: usize = in_shape[axis + 1..].iter().product();
    let d = in_shape[axis];
    let gd = g.data();
    let od = out.data_mut();
    for o in 0..outer {
        let src = o * len * inner;
        let dst = o * d * inner + start * inner;
        od[dst..dst + len * inner].copy_from_slice(&gd[src..src + len * inner]);
    }
    out
}
