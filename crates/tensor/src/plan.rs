//! Compiled execution plans: record one autodiff tape for a model,
//! compile it once, then replay it every step without re-recording the
//! graph. Plans can be **batch-polymorphic** — compiled against a
//! symbolic batch dimension so one plan serves every replay-grown batch
//! size ([`ExecPlan::compile_poly`]) — and accept **dynamic inputs beyond
//! parameters** (graph supports, contrastive masks) so per-step
//! augmentation draws replay through the same plan.
//!
//! ## Why
//!
//! Recording a tape per training step clones every parameter onto it and
//! materializes every intermediate. The model architecture is static
//! across steps, so that work can be decided once at compile time:
//!
//! * **One backward analysis** — the plan keeps the backward schedule
//!   [`Tape::backward`] also runs (which nodes usefully receive a
//!   gradient, in what order, dead edges into constants never evaluated),
//!   computed once instead of per step.
//! * **Buffer lifetimes known up front** — each intermediate's last use
//!   is precomputed; values are dropped (recycled into the buffer pool)
//!   the moment their final consumer has run, both in the forward replay
//!   and mid-backward.
//! * **Move elision** — `reshape`/`detach` of a dying intermediate steal
//!   its buffer instead of copying; the final identity-propagated
//!   backward edge of an `add`/`sub` moves the gradient instead of
//!   cloning it.
//! * **Fused op runs** — chains of unary elementwise ops whose
//!   intermediates nobody else needs execute as one pass over the data
//!   with a precomputed parallel decision, instead of one kernel +
//!   buffer per op.
//! * **By-reference sources** — parameters are read straight from the
//!   [`ParamStore`] and recorded constants from the plan's captured set;
//!   nothing is cloned onto a tape per step.
//!
//! ## Bitwise parity contract
//!
//! Replaying a plan is **bitwise identical** to re-recording the tape and
//! calling [`Tape::backward`], on every observable: forward outputs, the
//! loss, gradients of trainable leaves, and post-step parameters. Both
//! run the same backward walk, differing only in where it reads forward
//! values; the replayed forward values carry the recorded bits (moved
//! buffers are the same bits; fused elementwise stages round to `f32`
//! after every stage, exactly like materializing each intermediate).
//! `tests/plan_parity.rs` and the `bench_train_step` loss assertion pin
//! this.

use crate::autodiff::{Gradients, Op, Tape};
use crate::backward::{op_inputs, BackwardSchedule, ForwardValues};
use crate::parallel::{par_fill, PAR_MIN_ELEMS};
use crate::params::{ParamId, ParamStore};
use crate::pool;
use crate::shape::numel;
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// -------------------------------------------------------------- counters

static COMPILES: AtomicU64 = AtomicU64::new(0);
static REPLAYS: AtomicU64 = AtomicU64::new(0);
static FUSED_STAGES: AtomicU64 = AtomicU64::new(0);
static DEAD_EDGES: AtomicU64 = AtomicU64::new(0);
static BUFFER_MOVES: AtomicU64 = AtomicU64::new(0);
static VALUES_DROPPED: AtomicU64 = AtomicU64::new(0);
static CACHE_ENTRIES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Cumulative plan-execution statistics since process start (or the last
/// [`reset_plan_stats`]), exported by `urcl-trace` as the `plan` object.
/// These are process-wide trace aggregates: concurrent work anywhere in
/// the process lands in them, so a per-cache count belongs to its cache
/// (the trainer's step-plan cache keeps its own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Tapes compiled into plans.
    pub compiles: u64,
    /// Plan replays (forward-only and training).
    pub replays: u64,
    /// Unary elementwise stages folded into a preceding op's fused run,
    /// summed over replays (each fused stage is one intermediate buffer
    /// that was never materialized).
    pub fused_stages: u64,
    /// Backward edges skipped by dead-gradient elimination, summed over
    /// replays (gradients into nodes with no path to a trainable leaf).
    pub dead_edges_skipped: u64,
    /// Buffers moved instead of copied (reshape/detach of a dying
    /// value), summed over replays.
    pub buffer_moves: u64,
    /// Intermediate values dropped at their precomputed last use (and
    /// recycled into the buffer pool), summed over replays.
    pub values_dropped: u64,
    /// Current number of plans held by the trainer's bounded cache
    /// (a gauge — the trainer updates it on insert/evict/clear).
    pub cache_entries: u64,
    /// Plans evicted from the trainer's bounded cache since reset.
    pub cache_evictions: u64,
}

/// Reads the cumulative plan counters.
pub fn plan_stats() -> PlanStats {
    PlanStats {
        compiles: COMPILES.load(Ordering::Relaxed),
        replays: REPLAYS.load(Ordering::Relaxed),
        fused_stages: FUSED_STAGES.load(Ordering::Relaxed),
        dead_edges_skipped: DEAD_EDGES.load(Ordering::Relaxed),
        buffer_moves: BUFFER_MOVES.load(Ordering::Relaxed),
        values_dropped: VALUES_DROPPED.load(Ordering::Relaxed),
        cache_entries: CACHE_ENTRIES.load(Ordering::Relaxed),
        cache_evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Zeroes the cumulative plan counters.
pub fn reset_plan_stats() {
    COMPILES.store(0, Ordering::Relaxed);
    REPLAYS.store(0, Ordering::Relaxed);
    FUSED_STAGES.store(0, Ordering::Relaxed);
    DEAD_EDGES.store(0, Ordering::Relaxed);
    BUFFER_MOVES.store(0, Ordering::Relaxed);
    VALUES_DROPPED.store(0, Ordering::Relaxed);
    CACHE_ENTRIES.store(0, Ordering::Relaxed);
    CACHE_EVICTIONS.store(0, Ordering::Relaxed);
}

/// Records the current size of the trainer's bounded plan cache (a
/// gauge: the latest call wins).
pub fn note_plan_cache_entries(n: u64) {
    CACHE_ENTRIES.store(n, Ordering::Relaxed);
}

/// Counts one eviction from the trainer's bounded plan cache.
pub fn note_plan_cache_eviction() {
    CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

// ------------------------------------------------------------------ spec

/// Describes how a recorded [`Tape`] maps onto a reusable plan: which
/// nodes are substituted per replay, which are trainable parameters, and
/// what the plan must produce.
pub struct PlanSpec<'a> {
    /// Scalar loss node for training plans; `None` compiles a
    /// forward-only plan (no gradient bookkeeping, aggressive fusion).
    pub root: Option<usize>,
    /// Tape indices of per-replay inputs (recorded as `Constant` data or
    /// probe `Leaf` nodes). [`ExecPlan::run_training`] /
    /// [`ExecPlan::run_forward`] substitute fresh same-shape tensors for
    /// these, positionally.
    pub inputs: &'a [usize],
    /// Tape indices whose forward values [`ExecPlan::run_forward`]
    /// returns, in order.
    pub outputs: &'a [usize],
    /// `(ParamId, node index)` pairs from
    /// [`Session::into_bindings`](crate::autodiff::Session::into_bindings):
    /// these leaves read the *current* value from the [`ParamStore`]
    /// passed at replay time.
    pub bindings: &'a [(ParamId, usize)],
    /// Optional second recording of the *same* step graph at a different
    /// batch size, enabling a batch-polymorphic plan. See [`PolySpec`].
    pub poly: Option<PolySpec<'a>>,
}

/// Second recording for a batch-polymorphic compile: the caller records
/// the identical step graph twice, at batch sizes `batch0` (the primary
/// tape handed to [`ExecPlan::compile`]) and `batch1 = batch0 + 1` (this
/// tape; dummy data values are fine — only shapes are read). The compiler
/// checks the recordings are op-for-op identical and derives, for every
/// node dimension, the affine form `k + c·b` in the symbolic batch `b`
/// fitting both recordings. Two adjacent batch sizes pin an affine form
/// exactly, so every compile-time shape decision checked against both
/// recordings holds for all `b`. If any check fails (structure diverges,
/// a dimension is not affine in the batch, or a *captured* constant turns
/// out batch-dependent) the plan silently degrades to a mono-shape plan
/// for `batch0` — correct, just not shared across batch sizes.
pub struct PolySpec<'a> {
    /// The second recording, at `batch1`.
    pub tape: &'a Tape,
    /// Batch size of the primary recording.
    pub batch0: usize,
    /// Batch size of `tape`; must be `batch0 + 1`.
    pub batch1: usize,
}

/// One recording of a plan's graph: the tape plus the [`PlanSpec`] node
/// indices into it. [`ExecPlan::compile_poly`] asks for one per batch
/// size.
pub struct Recording {
    /// The recorded tape.
    pub tape: Tape,
    /// Scalar loss node of a training plan; `None` for forward-only.
    pub root: Option<usize>,
    /// Per-replay input nodes (see [`PlanSpec::inputs`]).
    pub inputs: Vec<usize>,
    /// Nodes a forward replay returns (see [`PlanSpec::outputs`]).
    pub outputs: Vec<usize>,
    /// Parameter bindings (see [`PlanSpec::bindings`]).
    pub bindings: Vec<(ParamId, usize)>,
}

/// Where a node's forward value comes from at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Computed by executing the node's op.
    Computed,
    /// The k-th tensor passed to `run_*` by the caller.
    Input(usize),
    /// The k-th bound parameter, read from the store by reference.
    Param(usize),
    /// The k-th captured constant, recorded once at compile time
    /// (supports, masks, EWC anchors, eye matrices).
    Captured(usize),
}

/// One stage of a fused unary elementwise run. Each stage's arithmetic is
/// the exact per-element function the matching [`Op`]'s forward closure
/// applies, and every stage rounds to `f32`, so a fused run is bitwise
/// identical to materializing each intermediate.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Neg,
    Scale(f32),
    AddScalar(f32),
    PowF(f32),
    Exp,
    Ln,
    Sqrt,
    Abs,
    Relu,
    LeakyRelu(f32),
    Sigmoid,
    Tanh,
}

impl Stage {
    /// Applies this stage to every element of `block` in place. The match
    /// sits outside the loop, so each arm is a plain loop over one
    /// function that LLVM vectorizes.
    fn apply(self, block: &mut [f32]) {
        fn each(block: &mut [f32], f: impl Fn(f32) -> f32) {
            for v in block {
                *v = f(*v);
            }
        }
        match self {
            Stage::Neg => each(block, |v| v * -1.0),
            Stage::Scale(c) => each(block, |v| v * c),
            Stage::AddScalar(c) => each(block, |v| v + c),
            Stage::PowF(p) => each(block, |v| v.powf(p)),
            Stage::Exp => each(block, f32::exp),
            Stage::Ln => each(block, f32::ln),
            Stage::Sqrt => each(block, f32::sqrt),
            Stage::Abs => each(block, f32::abs),
            Stage::Relu => each(block, |v| v.max(0.0)),
            Stage::LeakyRelu(s) => each(block, |v| if v > 0.0 { v } else { s * v }),
            Stage::Sigmoid => each(block, crate::activation::sigmoid),
            Stage::Tanh => each(block, crate::activation::tanh),
        }
    }
}

/// Maps a unary elementwise op to its fused stage and input index.
fn stage_of(op: &Op) -> Option<(Stage, usize)> {
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
        Op::LeakyRelu(a, s) => (Stage::LeakyRelu(s), a),
        Op::Sigmoid(a) => (Stage::Sigmoid, a),
        Op::Tanh(a) => (Stage::Tanh, a),
        _ => return None,
    })
}

/// Same-shape binary ops with a direct-loop fast path.
#[derive(Debug, Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
}

/// Per-node execution strategy decided at compile time.
#[derive(Debug, Clone)]
enum NodeExec {
    /// Never executed: a source node, a fused-away intermediate, or dead
    /// forward code no output depends on.
    Skip,
    /// Fused unary elementwise run ending at this node: apply `stages`
    /// to the value of `src` in a single pass.
    Run {
        src: usize,
        stages: Vec<Stage>,
        par: bool,
    },
    /// Same-shape binary elementwise op, direct-loop.
    Bin { kind: BinKind, a: usize, b: usize, par: bool },
    /// `reshape` stealing its dying input's buffer (zero-copy).
    MoveReshape(usize),
    /// `detach` stealing its dying input's buffer (zero-copy).
    MoveDetach(usize),
    /// Everything else: evaluate through the same `Tensor` methods the
    /// recording closures used.
    General,
}

// ------------------------------------------------------------------ plan

/// A compiled, reusable execution plan for one recorded tape. See the
/// module docs for what compilation precomputes. Plans are immutable and
/// `Send + Sync`, so a serving snapshot can share one across shard
/// threads behind an `Arc`.
pub struct ExecPlan {
    ops: Vec<Op>,
    /// Shapes of the primary recording (batch size `base_batch` for a
    /// poly plan; the only valid shapes for a mono plan).
    shapes: Vec<Vec<usize>>,
    /// Per-dimension affine forms `k + c·b` in the symbolic batch `b`;
    /// `None` for mono-shape plans.
    forms: Option<Vec<Vec<(usize, usize)>>>,
    /// Batch size the primary recording was made at (0 for mono plans).
    base_batch: usize,
    /// Materialized shape sets for batch sizes other than `base_batch`,
    /// built on first use and shared across replays and threads.
    scaled: Mutex<Vec<(usize, Arc<Vec<Vec<usize>>>)>>,
    source: Vec<Source>,
    captured: Vec<Tensor>,
    bindings: Vec<(ParamId, usize)>,
    input_nodes: Vec<usize>,
    outputs: Vec<usize>,
    /// The backward analysis of a training plan (`None` for forward-only
    /// plans), run against the replay's value slots.
    backward: Option<BackwardSchedule>,
    exec: Vec<NodeExec>,
    /// Forward values to drop right after computing node `i`
    /// (`drop_after[i]`): each listed node's last consumer is `i` and its
    /// value is not needed by the backward pass.
    drop_after: Vec<Vec<usize>>,
    /// Per-replay telemetry increments, counted once at compile time.
    fused_stages: u64,
    dead_edges: u64,
    static_moves: u64,
    static_drops: u64,
}

/// The shape set one replay executes against: the compile-time shapes
/// (mono plans, or a poly plan at its recorded batch), or a materialized
/// per-batch set shared through the plan's scaled-shape cache.
enum ReplayShapes<'a> {
    Base(&'a [Vec<usize>]),
    Scaled(Arc<Vec<Vec<usize>>>),
}

impl std::ops::Deref for ReplayShapes<'_> {
    type Target = [Vec<usize>];
    fn deref(&self) -> &[Vec<usize>] {
        match self {
            ReplayShapes::Base(s) => s,
            ReplayShapes::Scaled(s) => s,
        }
    }
}

/// One training replay's forward values, as the backward walk reads them:
/// by source, with computed values recycled once their rule has run.
struct Replay<'a> {
    plan: &'a ExecPlan,
    values: &'a mut [Option<Tensor>],
    store: &'a ParamStore,
    inputs: &'a [&'a Tensor],
    shapes: &'a [Vec<usize>],
}

impl ForwardValues for Replay<'_> {
    fn op(&self, i: usize) -> &Op {
        &self.plan.ops[i]
    }

    fn shape(&self, i: usize) -> &[usize] {
        &self.shapes[i]
    }

    fn value(&self, i: usize) -> &Tensor {
        self.plan.value(self.values, self.store, self.inputs, i)
    }

    fn release(&mut self, i: usize) {
        if matches!(self.plan.source[i], Source::Computed) {
            self.values[i] = None;
        }
    }
}

impl ExecPlan {
    /// Compiles a recorded tape into a reusable plan.
    ///
    /// Panics if the spec is inconsistent with the tape: input/binding
    /// indices must name `Leaf`/`Constant` nodes, a training root must be
    /// scalar, and indices must be in range.
    pub fn compile(tape: &Tape, spec: &PlanSpec<'_>) -> ExecPlan {
        let nodes = tape.nodes.borrow();
        let n = match spec
            .root
            .into_iter()
            .chain(spec.outputs.iter().copied())
            .max()
        {
            Some(hi) => {
                assert!(hi < nodes.len(), "plan root/output index out of range");
                hi + 1
            }
            None => nodes.len(),
        };
        if let Some(r) = spec.root {
            assert_eq!(
                nodes[r].value.len(),
                1,
                "training plan root must be scalar, got shape {:?}",
                nodes[r].value.shape()
            );
        }

        let ops: Vec<Op> = nodes[..n].iter().map(|nd| nd.op.clone()).collect();
        let shapes: Vec<Vec<usize>> = nodes[..n]
            .iter()
            .map(|nd| nd.value.shape().to_vec())
            .collect();

        // --- Batch-polymorphic second recording (see [`PolySpec`]):
        // check the two recordings agree op-for-op, then fit the
        // per-dimension affine forms. `None` keeps the plan mono-shape.
        let mut poly = spec.poly.as_ref().and_then(|p| poly_forms(&ops, &shapes, p));

        // --- Sources: where does each node's value come from at replay?
        let mut source = vec![Source::Computed; n];
        let mut captured = Vec::new();
        for (slot, &idx) in spec.inputs.iter().enumerate() {
            assert!(idx < n, "plan input index {idx} out of range");
            assert!(
                matches!(ops[idx], Op::Leaf | Op::Constant),
                "plan input {idx} must be a Leaf or Constant node"
            );
            source[idx] = Source::Input(slot);
        }
        for (k, &(_, idx)) in spec.bindings.iter().enumerate() {
            assert!(idx < n, "plan binding index {idx} out of range");
            assert!(
                matches!(ops[idx], Op::Leaf),
                "plan binding {idx} must be a Leaf node"
            );
            assert!(
                matches!(source[idx], Source::Computed),
                "plan binding {idx} is also listed as an input"
            );
            source[idx] = Source::Param(k);
        }
        for i in 0..n {
            if matches!(ops[i], Op::Leaf | Op::Constant)
                && matches!(source[i], Source::Computed)
            {
                source[i] = Source::Captured(captured.len());
                captured.push(nodes[i].value.clone());
            }
        }
        let backward = spec
            .root
            .map(|root| BackwardSchedule::new(&nodes[..n], root));

        // --- needed_fwd[i]: the forward value is (transitively) required
        // to produce the root or an output. Anything else is dead forward
        // code and is skipped entirely.
        let mut scratch = Vec::with_capacity(4);
        let mut needed_fwd = vec![false; n];
        if let Some(root) = spec.root {
            needed_fwd[root] = true;
        }
        for &o in spec.outputs {
            assert!(o < n, "plan output index out of range");
            needed_fwd[o] = true;
        }
        for i in (0..n).rev() {
            if !needed_fwd[i] {
                continue;
            }
            scratch.clear();
            op_inputs(&ops[i], &mut scratch);
            for &a in &scratch {
                needed_fwd[a] = true;
            }
        }
        drop(nodes);

        // A captured constant is recorded once and reused at every batch
        // size, so its shape must be batch-independent (equal in both
        // recordings ⇔ affine coefficient 0). A batch-dependent constant
        // the caller did not promote to an input (e.g. a contrastive mask
        // in a graph compiled without slot promotion) degrades the plan
        // to mono-shape rather than replaying with a stale value.
        if let Some((shapes1, _)) = &poly {
            let stale_capture = (0..n)
                .any(|i| matches!(source[i], Source::Captured(_)) && shapes1[i] != shapes[i]);
            if stale_capture {
                poly = None;
            }
        }
        let poly_shapes = poly.as_ref().map(|(s1, _)| s1.as_slice());

        // --- keep_value[i]: the forward value survives past its last
        // forward consumer because a backward rule reads it. Own-output
        // rules (exp, sqrt, sigmoid, tanh, softmax) keep their own value
        // when reached; consumer rules keep the sibling operand they
        // multiply by. Shape-only rules keep nothing.
        let mut keep_value = vec![false; n];
        if let Some(root) = spec.root {
            keep_value[root] = true; // the loss value is returned
        }
        for &o in spec.outputs {
            keep_value[o] = true;
        }
        let (useful, reached): (&[bool], &[bool]) = match &backward {
            Some(b) => (&b.useful, &b.reached),
            None => (&[], &[]),
        };
        for i in 0..reached.len() {
            if !reached[i] {
                continue;
            }
            match &ops[i] {
                Op::Exp(_) | Op::Sqrt(_) | Op::Sigmoid(_) | Op::Tanh(_) | Op::Softmax(..) => {
                    keep_value[i] = true;
                }
                _ => {}
            }
            match &ops[i] {
                Op::Mul(a, b) => {
                    if useful[*a] {
                        keep_value[*b] = true;
                    }
                    if useful[*b] {
                        keep_value[*a] = true;
                    }
                }
                Op::Div(a, b) => {
                    if useful[*a] {
                        keep_value[*b] = true;
                    }
                    if useful[*b] {
                        keep_value[*a] = true;
                        keep_value[*b] = true;
                    }
                }
                Op::PowF(a, _)
                | Op::Ln(a)
                | Op::Abs(a)
                | Op::Relu(a)
                | Op::LeakyRelu(a, _) => {
                    if useful[*a] {
                        keep_value[*a] = true;
                    }
                }
                Op::MatMul(a, b) => {
                    if useful[*a] {
                        keep_value[*b] = true;
                    }
                    if useful[*b] {
                        keep_value[*a] = true;
                    }
                }
                _ => {}
            }
        }

        // --- Reference counts over live forward code (for fusion and
        // move legality) and last forward use (for the drop schedule).
        let mut refs = vec![0usize; n];
        let mut last_use = vec![usize::MAX; n];
        for i in 0..n {
            if !needed_fwd[i] {
                continue;
            }
            scratch.clear();
            op_inputs(&ops[i], &mut scratch);
            for &a in &scratch {
                refs[a] += 1;
                last_use[a] = i;
            }
        }
        if let Some(root) = spec.root {
            refs[root] += 1;
            last_use[root] = usize::MAX;
        }
        for &o in spec.outputs {
            refs[o] += 1;
            last_use[o] = usize::MAX;
        }

        // --- Fusion: fold chains of unary elementwise ops whose
        // intermediates are single-consumer, not kept for backward, and
        // computed (not sources) into a single run.
        let mut exec: Vec<NodeExec> = Vec::with_capacity(n);
        let mut fused_stages = 0u64;
        for i in 0..n {
            if !needed_fwd[i] || !matches!(source[i], Source::Computed) {
                exec.push(NodeExec::Skip);
                continue;
            }
            let e = match stage_of(&ops[i]) {
                Some((stage, a)) => {
                    // Extend the input's run when it can be fused away.
                    let fuse_prev = matches!(source[a], Source::Computed)
                        && refs[a] == 1
                        && !keep_value[a]
                        && matches!(exec[a], NodeExec::Run { .. });
                    if fuse_prev {
                        let NodeExec::Run { src, stages, .. } = std::mem::replace(
                            &mut exec[a],
                            NodeExec::Skip,
                        ) else {
                            unreachable!()
                        };
                        let mut stages = stages;
                        stages.push(stage);
                        fused_stages += 1;
                        NodeExec::Run {
                            src,
                            stages,
                            par: numel(&shapes[i]) >= PAR_MIN_ELEMS,
                        }
                    } else {
                        NodeExec::Run {
                            src: a,
                            stages: vec![stage],
                            par: numel(&shapes[i]) >= PAR_MIN_ELEMS,
                        }
                    }
                }
                None => match &ops[i] {
                    Op::Reshape(a)
                        if matches!(source[*a], Source::Computed)
                            && refs[*a] == 1
                            && !keep_value[*a]
                            && !matches!(exec[*a], NodeExec::Skip) =>
                    {
                        NodeExec::MoveReshape(*a)
                    }
                    Op::Detach(a)
                        if matches!(source[*a], Source::Computed)
                            && refs[*a] == 1
                            && !keep_value[*a]
                            && !matches!(exec[*a], NodeExec::Skip) =>
                    {
                        NodeExec::MoveDetach(*a)
                    }
                    // Same-shape in *both* recordings: per-dim affine
                    // forms equal at two adjacent batches are equal at
                    // every batch, so the direct-loop fast path stays
                    // exact for any replay size.
                    Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b)
                        if shapes[*a] == shapes[i]
                            && shapes[*b] == shapes[i]
                            && poly_shapes
                                .map_or(true, |s1| s1[*a] == s1[i] && s1[*b] == s1[i]) =>
                    {
                        let kind = match &ops[i] {
                            Op::Add(..) => BinKind::Add,
                            Op::Sub(..) => BinKind::Sub,
                            Op::Mul(..) => BinKind::Mul,
                            _ => BinKind::Div,
                        };
                        NodeExec::Bin {
                            kind,
                            a: *a,
                            b: *b,
                            par: numel(&shapes[i]) >= PAR_MIN_ELEMS,
                        }
                    }
                    _ => NodeExec::General,
                },
            };
            exec.push(e);
        }

        // --- Demote single-stage runs: a fused run only wins when it
        // eliminates an intermediate buffer. A lone stage pays per-element
        // enum dispatch that the recorder's monomorphized closures
        // (e.g. `map(|v| v.max(0.0))` vectorizing to maxps) do not, so
        // route it through the same `Tensor` method the recorder used.
        for e in &mut exec {
            if matches!(e, NodeExec::Run { stages, .. } if stages.len() == 1) {
                *e = NodeExec::General;
            }
        }

        // --- Forward drop schedule: a computed value whose last consumer
        // is node i and which the backward pass never reads is dropped
        // right after i executes. Fused-away intermediates never
        // materialize at all; moved inputs are consumed by the move.
        let mut drop_after: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut static_drops = 0u64;
        let mut static_moves = 0u64;
        for i in 0..n {
            match exec[i] {
                NodeExec::Skip => continue,
                NodeExec::MoveReshape(_) | NodeExec::MoveDetach(_) => {
                    static_moves += 1;
                    continue; // input consumed by the move itself
                }
                _ => {}
            }
            // A value may be dropped at its own index only when nothing
            // consumes it (dead-end kept out by needed_fwd) — not a case
            // that occurs in live code, so only check real consumers.
            if last_use[i] != usize::MAX {
                let j = last_use[i];
                if !keep_value[i] {
                    // Values read through a fused run belong to the run's
                    // terminal node; redirect the drop to it. (The original
                    // consumer was fused away, so `exec[j]` is Skip.)
                    let owner = if matches!(exec[j], NodeExec::Skip) {
                        // Find the run that absorbed j: scan forward for the
                        // run whose src chain includes i. Runs record their
                        // ultimate src, so the terminal node of j's chain
                        // reads i directly.
                        (j..n).find(|&t| match &exec[t] {
                            NodeExec::Run { src, .. } => *src == i,
                            _ => false,
                        })
                    } else {
                        Some(j)
                    };
                    if let Some(owner) = owner {
                        drop_after[owner].push(i);
                        static_drops += 1;
                    }
                }
            }
        }

        COMPILES.fetch_add(1, Ordering::Relaxed);
        let (forms, base_batch) = match poly {
            Some((_, forms)) => (
                Some(forms),
                spec.poly.as_ref().expect("poly accepted without a spec").batch0,
            ),
            None => (None, 0),
        };
        ExecPlan {
            ops,
            shapes,
            forms,
            base_batch,
            scaled: Mutex::new(Vec::new()),
            source,
            captured,
            bindings: spec.bindings.to_vec(),
            input_nodes: spec.inputs.to_vec(),
            outputs: spec.outputs.to_vec(),
            dead_edges: backward.as_ref().map_or(0, |b| b.dead_edges),
            backward,
            exec,
            drop_after,
            fused_stages,
            static_moves,
            static_drops,
        }
    }

    /// Compiles a batch-polymorphic plan from two recordings of one graph:
    /// `record(batch)` and `record(batch + 1)`, in that order. The first
    /// is the primary recording — its captured constants are what every
    /// replay uses, so it must record the real graph. The compiler reads
    /// only shapes from the second, which may run on zero-filled shape
    /// proxies ([`Tensor::at_batch`]). Degrades to a mono plan for
    /// `batch` as [`PolySpec`] describes.
    pub fn compile_poly(batch: usize, mut record: impl FnMut(usize) -> Recording) -> ExecPlan {
        let primary = record(batch);
        let second = record(batch + 1);
        ExecPlan::compile(
            &primary.tape,
            &PlanSpec {
                root: primary.root,
                inputs: &primary.inputs,
                outputs: &primary.outputs,
                bindings: &primary.bindings,
                poly: Some(PolySpec {
                    tape: &second.tape,
                    batch0: batch,
                    batch1: batch + 1,
                }),
            },
        )
    }

    /// The `(ParamId, node index)` bindings this plan was compiled with,
    /// in the layout [`ParamStore::accumulate_grads`] expects.
    pub fn bindings(&self) -> &[(ParamId, usize)] {
        &self.bindings
    }

    /// Number of tape nodes the plan covers.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True when the plan was compiled with a training root.
    pub fn is_training(&self) -> bool {
        self.backward.is_some()
    }

    /// Shapes the substituted inputs must have, in spec order.
    pub fn input_shapes(&self) -> Vec<Vec<usize>> {
        self.input_nodes
            .iter()
            .map(|&i| self.shapes[i].clone())
            .collect()
    }

    /// True when the plan was compiled batch-polymorphic: one compile
    /// serves every batch size consistent with its affine shape forms.
    pub fn is_poly(&self) -> bool {
        self.forms.is_some()
    }

    /// Infers the symbolic batch size from the replay inputs (poly
    /// plans) or checks exact shape equality (mono plans). `Err` carries
    /// the mismatch description.
    fn try_batch(&self, inputs: &[&Tensor]) -> Result<usize, String> {
        if inputs.len() != self.input_nodes.len() {
            return Err(format!(
                "plan expects {} inputs, got {}",
                self.input_nodes.len(),
                inputs.len()
            ));
        }
        let Some(forms) = &self.forms else {
            for (k, (&t, &idx)) in inputs.iter().zip(&self.input_nodes).enumerate() {
                if t.shape() != &self.shapes[idx][..] {
                    return Err(format!(
                        "plan input {k} shape mismatch (compile a new plan for new shapes)"
                    ));
                }
            }
            return Ok(self.base_batch);
        };
        let mut batch: Option<usize> = None;
        for (k, (&t, &idx)) in inputs.iter().zip(&self.input_nodes).enumerate() {
            let form = &forms[idx];
            let shape = t.shape();
            if shape.len() != form.len() {
                return Err(format!("plan input {k} rank mismatch"));
            }
            for (j, (&d, &(k0, c))) in shape.iter().zip(form).enumerate() {
                if c == 0 {
                    if d != k0 {
                        return Err(format!(
                            "plan input {k} dim {j}: expected {k0}, got {d}"
                        ));
                    }
                    continue;
                }
                let num = d
                    .checked_sub(k0)
                    .filter(|num| num % c == 0 && num / c > 0)
                    .ok_or_else(|| {
                        format!("plan input {k} dim {j}: {d} not on the batch form {k0}+{c}b")
                    })?;
                let b = num / c;
                match batch {
                    Some(prev) if prev != b => {
                        return Err(format!(
                            "plan inputs disagree on the batch size ({prev} vs {b})"
                        ))
                    }
                    _ => batch = Some(b),
                }
            }
        }
        Ok(batch.unwrap_or(self.base_batch))
    }

    /// True when `inputs` can replay through this plan: exact shape match
    /// for a mono plan, one consistent batch size for a poly plan.
    pub fn accepts(&self, inputs: &[&Tensor]) -> bool {
        self.try_batch(inputs).is_ok()
    }

    /// Resolves the shape set this replay executes against, materializing
    /// (and caching) the affine forms at the inferred batch size — the
    /// "lifetime rescale": the drop/move/fusion schedule is index-based
    /// and batch-free, so only buffer extents change between batches.
    fn shapes_for(&self, inputs: &[&Tensor]) -> ReplayShapes<'_> {
        let b = self.try_batch(inputs).unwrap_or_else(|e| panic!("{e}"));
        if self.forms.is_none() || b == self.base_batch {
            return ReplayShapes::Base(&self.shapes);
        }
        let mut cache = self.scaled.lock().unwrap();
        if let Some((_, s)) = cache.iter().find(|(b2, _)| *b2 == b) {
            return ReplayShapes::Scaled(Arc::clone(s));
        }
        let forms = self.forms.as_ref().expect("checked above");
        let shapes: Vec<Vec<usize>> = forms
            .iter()
            .map(|f| f.iter().map(|&(k, c)| k + c * b).collect())
            .collect();
        let arc = Arc::new(shapes);
        cache.push((b, Arc::clone(&arc)));
        ReplayShapes::Scaled(arc)
    }

    /// Replays the forward pass and returns clones of the output nodes'
    /// values, in spec order. Parameters are read from `store` by
    /// reference; `inputs` substitute the spec's input nodes positionally
    /// and must match the compiled shapes (exactly for mono plans, up to
    /// the symbolic batch size for poly plans).
    pub fn run_forward(&self, store: &ParamStore, inputs: &[&Tensor]) -> Vec<Tensor> {
        let shapes = self.shapes_for(inputs);
        let mut values: Vec<Option<Tensor>> = Vec::new();
        values.resize_with(self.ops.len(), || None);
        self.forward(&mut values, store, inputs, &shapes);
        self.note_replay();
        self.outputs
            .iter()
            .map(|&o| self.value(&values, store, inputs, o).clone())
            .collect()
    }

    /// Replays the full training step computation: forward, then the
    /// backward walk. Returns the scalar loss value and per-node
    /// gradients (retrieve via [`Gradients::by_index`] or feed to
    /// [`ParamStore::accumulate_grads`] with [`Self::bindings`]).
    ///
    /// Bitwise identical to recording a fresh tape with the current
    /// parameter values and calling [`Tape::backward`]: the backward walk
    /// is the same, reading the replayed values instead of recorded ones.
    pub fn run_training(&self, store: &ParamStore, inputs: &[&Tensor]) -> (Tensor, Gradients) {
        let backward = self
            .backward
            .as_ref()
            .expect("run_training on a forward-only plan");
        let shapes = self.shapes_for(inputs);
        let mut values: Vec<Option<Tensor>> = Vec::new();
        values.resize_with(self.ops.len(), || None);
        self.forward(&mut values, store, inputs, &shapes);
        let loss = self.value(&values, store, inputs, backward.root).clone();
        let grads = backward.run(&mut Replay {
            plan: self,
            values: &mut values,
            store,
            inputs,
            shapes: &shapes,
        });
        self.note_replay();
        (loss, Gradients::from_raw(grads))
    }

    /// Bumps the per-replay telemetry counters by this plan's
    /// compile-time census.
    fn note_replay(&self) {
        REPLAYS.fetch_add(1, Ordering::Relaxed);
        FUSED_STAGES.fetch_add(self.fused_stages, Ordering::Relaxed);
        DEAD_EDGES.fetch_add(self.dead_edges, Ordering::Relaxed);
        BUFFER_MOVES.fetch_add(self.static_moves, Ordering::Relaxed);
        VALUES_DROPPED.fetch_add(self.static_drops, Ordering::Relaxed);
    }

    /// Forward value of node `i` at replay time, by source.
    #[inline]
    fn value<'a>(
        &'a self,
        values: &'a [Option<Tensor>],
        store: &'a ParamStore,
        inputs: &'a [&'a Tensor],
        i: usize,
    ) -> &'a Tensor {
        match self.source[i] {
            Source::Computed => values[i]
                .as_ref()
                .unwrap_or_else(|| panic!("plan lifetime bug: value of node {i} already dropped")),
            Source::Input(slot) => inputs[slot],
            Source::Param(k) => store.value(self.bindings[k].0),
            Source::Captured(k) => &self.captured[k],
        }
    }

    fn forward(
        &self,
        values: &mut [Option<Tensor>],
        store: &ParamStore,
        inputs: &[&Tensor],
        shapes: &[Vec<usize>],
    ) {
        let prof = crate::opprof::op_profile_enabled();
        for i in 0..self.ops.len() {
            let t0 = if prof && !matches!(self.exec[i], NodeExec::Skip) {
                Some(std::time::Instant::now())
            } else {
                None
            };
            match &self.exec[i] {
                NodeExec::Skip => continue,
                NodeExec::Run { src, stages, par } => {
                    let out = exec_run(
                        self.value(values, store, inputs, *src),
                        stages,
                        *par,
                        &shapes[i],
                    );
                    values[i] = Some(out);
                }
                NodeExec::Bin { kind, a, b, par } => {
                    let out = exec_bin(
                        *kind,
                        self.value(values, store, inputs, *a),
                        self.value(values, store, inputs, *b),
                        *par,
                        &shapes[i],
                    );
                    values[i] = Some(out);
                }
                NodeExec::MoveReshape(a) => {
                    let t = values[*a]
                        .take()
                        .unwrap_or_else(|| panic!("plan lifetime bug: move of dropped node {a}"));
                    values[i] = Some(t.reshape(&shapes[i]));
                }
                NodeExec::MoveDetach(a) => {
                    let t = values[*a]
                        .take()
                        .unwrap_or_else(|| panic!("plan lifetime bug: move of dropped node {a}"));
                    values[i] = Some(t);
                }
                NodeExec::General => {
                    values[i] = Some(self.eval_general(values, store, inputs, shapes, i));
                }
            }
            if let Some(t0) = t0 {
                if let Some(k) = crate::autodiff::kind_index(&self.ops[i]) {
                    crate::opprof::record_forward(k, t0.elapsed().as_nanos() as u64);
                }
            }
            for &d in &self.drop_after[i] {
                values[d] = None;
            }
        }
    }

    /// Evaluates one op through the same `Tensor` methods the recording
    /// closures in [`crate::autodiff`] use — bitwise identical forward.
    fn eval_general(
        &self,
        values: &[Option<Tensor>],
        store: &ParamStore,
        inputs: &[&Tensor],
        shapes: &[Vec<usize>],
        i: usize,
    ) -> Tensor {
        let v = |a: usize| self.value(values, store, inputs, a);
        match &self.ops[i] {
            Op::Leaf | Op::Constant => unreachable!("source nodes are never executed"),
            Op::Add(a, b) => v(*a).add(v(*b)),
            Op::Sub(a, b) => v(*a).sub(v(*b)),
            Op::Mul(a, b) => v(*a).mul(v(*b)),
            Op::Div(a, b) => v(*a).div(v(*b)),
            // Unary elementwise ops normally run as fused runs; these arms
            // exist for completeness (e.g. a plan compiled from a tape
            // where the op's input is itself an op with no Run repr).
            Op::Neg(a) => v(*a).scale(-1.0),
            Op::Scale(a, c) => v(*a).scale(*c),
            Op::AddScalar(a, c) => v(*a).add_scalar(*c),
            Op::PowF(a, p) => {
                let p = *p;
                v(*a).map(|x| x.powf(p))
            }
            Op::Exp(a) => v(*a).map(f32::exp),
            Op::Ln(a) => v(*a).map(f32::ln),
            Op::Sqrt(a) => v(*a).map(f32::sqrt),
            Op::Abs(a) => v(*a).map(f32::abs),
            Op::Relu(a) => v(*a).map(|x| x.max(0.0)),
            Op::LeakyRelu(a, s) => {
                let s = *s;
                v(*a).map(move |x| if x > 0.0 { x } else { s * x })
            }
            Op::Sigmoid(a) => v(*a).map(crate::activation::sigmoid),
            Op::Tanh(a) => v(*a).map(crate::activation::tanh),
            Op::MatMul(a, b) => v(*a).matmul(v(*b)),
            Op::Permute(a, perm) => v(*a).permute(perm),
            Op::Reshape(a) => v(*a).clone().reshape(&shapes[i]),
            Op::SumAxes {
                input,
                axes,
                keepdim,
            } => v(*input).sum_axes(axes, *keepdim),
            Op::SumAll(a) => Tensor::scalar(v(*a).sum_all()),
            Op::MeanAll(a) => Tensor::scalar(v(*a).mean_all()),
            Op::Softmax(a, axis) => v(*a).softmax(*axis),
            Op::Concat { inputs: parts, axis } => {
                let tensors: Vec<&Tensor> = parts.iter().map(|&p| v(p)).collect();
                Tensor::concat(&tensors, *axis)
            }
            Op::Narrow {
                input,
                axis,
                start,
                len,
            } => v(*input).narrow(*axis, *start, *len),
            Op::Detach(a) => v(*a).clone(),
        }
    }
}

/// True when a parallel region can actually run on more than one worker;
/// on an oversubscribed host (requested threads > physical cores) the
/// dispatch overhead has no upside, and serial execution is bitwise
/// identical for elementwise work (splits only partition the output).
#[inline]
fn parallelism_available() -> bool {
    crate::parallel::num_threads() > 1 && crate::parallel::host_parallelism() > 1
}

/// Elements per block of a fused run: small enough that a block stays in
/// L1 while every stage passes over it.
const RUN_BLOCK: usize = 256;

/// Executes a fused unary elementwise run over `src`, producing a tensor
/// of `out_shape`. Stage-major over fixed blocks: each block is copied
/// out, then every stage sweeps it in order. Every element still passes
/// through the same stage sequence, so the bits are those of an
/// element-at-a-time loop, while each stage's loop vectorizes.
fn exec_run(src: &Tensor, stages: &[Stage], par: bool, out_shape: &[usize]) -> Tensor {
    fn run(dst: &mut [f32], src: &[f32], stages: &[Stage]) {
        for (d, s) in dst.chunks_mut(RUN_BLOCK).zip(src.chunks(RUN_BLOCK)) {
            d.copy_from_slice(s);
            for stage in stages {
                stage.apply(d);
            }
        }
    }
    let sd = src.data();
    let n = sd.len();
    let mut data = pool::take_uninit(n);
    if !par || n < PAR_MIN_ELEMS || !parallelism_available() {
        run(&mut data, sd, stages);
    } else {
        par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| run(chunk, &sd[r], stages));
    }
    Tensor::from_vec(data, out_shape)
}

/// Same-shape binary elementwise op via a direct slice loop (the exact
/// per-element arithmetic of [`Tensor::zip`]'s same-shape path, minus the
/// shape analysis per call).
fn exec_bin(kind: BinKind, a: &Tensor, b: &Tensor, par: bool, out_shape: &[usize]) -> Tensor {
    let ad = a.data();
    let bd = b.data();
    let n = ad.len();
    let mut data = pool::take_uninit(n);
    macro_rules! go {
        ($f:expr) => {{
            let f = $f;
            if !par || n < PAR_MIN_ELEMS || !parallelism_available() {
                for ((slot, &x), &y) in data.iter_mut().zip(ad.iter()).zip(bd.iter()) {
                    *slot = f(x, y);
                }
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    for ((slot, &x), &y) in
                        chunk.iter_mut().zip(&ad[r.clone()]).zip(&bd[r])
                    {
                        *slot = f(x, y);
                    }
                });
            }
        }};
    }
    match kind {
        BinKind::Add => go!(|x: f32, y: f32| x + y),
        BinKind::Sub => go!(|x: f32, y: f32| x - y),
        BinKind::Mul => go!(|x: f32, y: f32| x * y),
        BinKind::Div => go!(|x: f32, y: f32| x / y),
    }
    Tensor::from_vec(data, out_shape)
}

/// Validates a [`PolySpec`] against the primary recording and fits the
/// per-dimension affine forms `k + c·b`. Returns the second recording's
/// shapes (used by the compile-time shape guards) plus the forms, or
/// `None` when the recordings diverge structurally or a dimension is not
/// affine in the batch — in which case the plan stays mono-shape.
fn poly_forms(
    ops: &[Op],
    shapes: &[Vec<usize>],
    p: &PolySpec<'_>,
) -> Option<(Vec<Vec<usize>>, Vec<Vec<(usize, usize)>>)> {
    assert_eq!(
        p.batch1,
        p.batch0 + 1,
        "poly recordings must be at adjacent batch sizes"
    );
    let nodes1 = p.tape.nodes.borrow();
    if nodes1.len() < ops.len() {
        return None;
    }
    if ops.iter().zip(nodes1.iter()).any(|(op, nd)| *op != nd.op) {
        return None;
    }
    let shapes1: Vec<Vec<usize>> = nodes1[..ops.len()]
        .iter()
        .map(|nd| nd.value.shape().to_vec())
        .collect();
    drop(nodes1);
    let mut forms = Vec::with_capacity(shapes.len());
    for (s0, s1) in shapes.iter().zip(&shapes1) {
        if s0.len() != s1.len() {
            return None;
        }
        let mut f = Vec::with_capacity(s0.len());
        for (&d0, &d1) in s0.iter().zip(s1) {
            // d = k + c·b fit through (batch0, d0) and (batch0+1, d1);
            // shrinking or super-linear dims have no valid (k, c) ≥ 0.
            let c = d1.checked_sub(d0)?;
            let k = d0.checked_sub(c.checked_mul(p.batch0)?)?;
            f.push((k, c));
        }
        forms.push(f);
    }
    Some((shapes1, forms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::Session;
    use crate::rng::Rng;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    /// A recording (`Tape::backward`) and a plan replay must agree bitwise
    /// on loss and param grads for a mixed graph with constants,
    /// broadcasts and shared leaves.
    #[test]
    fn training_replay_matches_interpreter_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(11);
        let w = store.add("w", rng.uniform_tensor(&[3, 4], -1.0, 1.0));
        let b = store.add("b", rng.uniform_tensor(&[4], -1.0, 1.0));
        let x0 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y0 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);

        let run_interp = |store: &ParamStore, x: &Tensor, y: &Tensor| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let pred = xv.matmul(wv).add(bv).tanh();
            let loss = pred.sub(yv).abs().mean_all();
            let lv = loss.value();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            let gw = grads.by_index(binds[0].1).unwrap().clone();
            let gb = grads.by_index(binds[1].1).unwrap().clone();
            (lv, gw, gb)
        };

        // Record once, compile, then replay with a *different* batch.
        let plan = {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x0.clone());
            let yv = sess.input(y0.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let pred = xv.matmul(wv).add(bv).tanh();
            let loss = pred.sub(yv).abs().mean_all();
            let binds = sess.into_bindings();
            ExecPlan::compile(
                &tape,
                &PlanSpec {
                    root: Some(loss.index()),
                    inputs: &[xv.index(), yv.index()],
                    outputs: &[],
                    bindings: &binds,
                    poly: None,
                },
            )
        };

        let x1 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y1 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);
        let (li, gwi, gbi) = run_interp(&store, &x1, &y1);
        let (lp, grads) = plan.run_training(&store, &[&x1, &y1]);
        assert_eq!(lp.item().to_bits(), li.item().to_bits());
        let gwp = grads.by_index(plan.bindings()[0].1).unwrap();
        let gbp = grads.by_index(plan.bindings()[1].1).unwrap();
        assert_eq!(gwp.shape(), gwi.shape());
        for (a, b) in gwp.data().iter().zip(gwi.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in gbp.data().iter().zip(gbi.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Gradients into constants are eliminated; the plan must report the
    /// dead edges and still produce identical observables.
    #[test]
    fn dead_gradient_elimination_counts_edges() {
        let mut store = ParamStore::new();
        let w = store.add("w", t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let support = t(vec![0.5, 0.1, 0.2, 0.7], &[2, 2]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let sv = sess.input(support.clone());
        let wv = sess.param(w);
        // support @ w: the edge into the constant support is dead.
        let loss = sv.matmul(wv).mean_all();
        let binds = sess.into_bindings();
        let plan = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &[],
                outputs: &[],
                bindings: &binds,
                poly: None,
            },
        );
        assert!(plan.dead_edges >= 1, "support edge should be dead");
        let (lp, grads) = plan.run_training(&store, &[]);
        let gi = tape.backward(loss);
        assert_eq!(lp.item().to_bits(), loss.value().item().to_bits());
        let gw_i = gi.by_index(binds[0].1).unwrap();
        let gw_p = grads.by_index(binds[0].1).unwrap();
        for (a, b) in gw_p.data().iter().zip(gw_i.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Forward-only plans fuse unary chains and return output clones.
    #[test]
    fn forward_only_plan_fuses_and_matches() {
        let store = ParamStore::new();
        let x0 = Rng::seed_from_u64(3).uniform_tensor(&[4, 5], -2.0, 2.0);
        let tape = Tape::new();
        let sess = Session::new(&tape, &store);
        let xv = sess.input(x0.clone());
        let y = xv.scale(2.0).add_scalar(1.0).tanh().relu();
        let plan = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: None,
                inputs: &[xv.index()],
                outputs: &[y.index()],
                bindings: &[],
                poly: None,
            },
        );
        assert!(plan.fused_stages >= 3, "chain of 4 should fuse 3 stages");
        let x1 = Rng::seed_from_u64(4).uniform_tensor(&[4, 5], -2.0, 2.0);
        let out = plan.run_forward(&store, &[&x1]);
        let expect = x1.scale(2.0).add_scalar(1.0).map(crate::activation::tanh).map(|v| v.max(0.0));
        assert_eq!(out.len(), 1);
        for (a, b) in out[0].data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Replaying after a parameter update sees the *current* store values.
    #[test]
    fn replay_reads_current_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", t(vec![2.0], &[1]));
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let wv = sess.param(w);
        let loss = wv.mul(wv).mean_all();
        let binds = sess.into_bindings();
        let plan = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &[],
                outputs: &[],
                bindings: &binds,
                poly: None,
            },
        );
        let (l0, g0) = plan.run_training(&store, &[]);
        assert_eq!(l0.item(), 4.0);
        assert_eq!(g0.by_index(binds[0].1).unwrap().data(), &[4.0]);
        store.value_mut(w).data_mut()[0] = 3.0;
        let (l1, g1) = plan.run_training(&store, &[]);
        assert_eq!(l1.item(), 9.0);
        assert_eq!(g1.by_index(binds[0].1).unwrap().data(), &[6.0]);
    }

    /// One batch-polymorphic plan (recorded at batches 2 and 3) replays
    /// bitwise against a fresh recording at unseen batch sizes, with no
    /// recompilation.
    #[test]
    fn poly_plan_replays_at_unseen_batches() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(21);
        let w = store.add("w", rng.uniform_tensor(&[3, 4], -1.0, 1.0));
        let b = store.add("b", rng.uniform_tensor(&[4], -1.0, 1.0));
        let record = |store: &ParamStore, x: &Tensor, y: &Tensor| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let pred = xv.matmul(wv).add(bv).tanh();
            let loss = pred.sub(yv).abs().mean_all();
            let root = loss.index();
            let inputs = vec![xv.index(), yv.index()];
            let binds = sess.into_bindings();
            (tape, inputs, binds, root)
        };
        let x2 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y2 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);
        let (t0, in0, binds0, root0) = record(&store, &x2, &y2);
        // Second recording at batch 3; only shapes matter, zeros are fine.
        let (t1, _, _, _) = record(&store, &Tensor::zeros(&[3, 3]), &Tensor::zeros(&[3, 4]));
        let plan = ExecPlan::compile(
            &t0,
            &PlanSpec {
                root: Some(root0),
                inputs: &in0,
                outputs: &[],
                bindings: &binds0,
                poly: Some(PolySpec {
                    tape: &t1,
                    batch0: 2,
                    batch1: 3,
                }),
            },
        );
        assert!(plan.is_poly());
        for bsz in [5usize, 2, 7, 3] {
            let x = rng.uniform_tensor(&[bsz, 3], -1.0, 1.0);
            let y = rng.uniform_tensor(&[bsz, 4], -1.0, 1.0);
            assert!(plan.accepts(&[&x, &y]));
            // Recorded reference at this batch size.
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let loss = xv.matmul(wv).add(bv).tanh().sub(yv).abs().mean_all();
            let gi = tape.backward(loss);
            let binds = sess.into_bindings();
            let (lp, gp) = plan.run_training(&store, &[&x, &y]);
            assert_eq!(lp.item().to_bits(), loss.value().item().to_bits());
            for (k, &(_, idx)) in binds.iter().enumerate() {
                let a = gp.by_index(plan.bindings()[k].1).unwrap();
                let b = gi.by_index(idx).unwrap();
                for (av, bv) in a.data().iter().zip(b.data()) {
                    assert_eq!(av.to_bits(), bv.to_bits());
                }
            }
        }
        // A mismatched rank or off-form shape is rejected, not replayed.
        let bad = Tensor::zeros(&[2, 5]);
        assert!(!plan.accepts(&[&bad, &Tensor::zeros(&[2, 4])]));
    }

    /// `compile_poly` records at `b` and `b + 1` through the caller's
    /// closure (the second over `at_batch` zero proxies) and yields one
    /// plan accepting other batch sizes.
    #[test]
    fn compile_poly_records_both_batch_sizes() {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Rng::seed_from_u64(23).uniform_tensor(&[3, 2], -1.0, 1.0),
        );
        let x = Rng::seed_from_u64(24).uniform_tensor(&[4, 3], -1.0, 1.0);
        let mut seen = Vec::new();
        let plan = ExecPlan::compile_poly(4, |b| {
            let xb = x.at_batch(b);
            seen.push((b, xb.data().iter().all(|&v| v == 0.0)));
            let tape = Tape::new();
            let (inputs, outputs, bindings) = {
                let mut sess = Session::new(&tape, &store);
                let xv = sess.input(xb);
                let y = xv.matmul(sess.param(w)).tanh();
                (vec![xv.index()], vec![y.index()], sess.into_bindings())
            };
            Recording {
                tape,
                root: None,
                inputs,
                outputs,
                bindings,
            }
        });
        assert_eq!(
            seen,
            [(4, false), (5, true)],
            "primary on real data, then a zero proxy"
        );
        assert!(plan.is_poly());
        let x7 = Rng::seed_from_u64(25).uniform_tensor(&[7, 3], -1.0, 1.0);
        let out = plan.run_forward(&store, &[&x7]);
        let expect = x7.matmul(store.value(w)).map(crate::activation::tanh);
        assert_eq!(out[0].data(), expect.data());
    }

    /// A batch-dependent constant that was *not* promoted to an input
    /// degrades the plan to mono-shape: replaying it at a new batch size
    /// with a stale captured value would be wrong, so only the recorded
    /// batch is accepted.
    #[test]
    fn stale_capture_degrades_to_mono() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(22);
        let w = store.add("w", rng.uniform_tensor(&[3, 3], -1.0, 1.0));
        let record = |store: &ParamStore, bsz: usize| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let x = Tensor::zeros(&[bsz, 3]);
            let xv = sess.input(x);
            let wv = sess.param(w);
            // Batch-dependent mask recorded as a plain captured constant.
            let mask = sess.input(Tensor::ones(&[bsz, 3]));
            let loss = xv.matmul(wv).mul(mask).mean_all();
            let root = loss.index();
            let inputs = vec![xv.index()];
            let binds = sess.into_bindings();
            (tape, inputs, binds, root)
        };
        let (t0, in0, binds0, root0) = record(&store, 2);
        let (t1, _, _, _) = record(&store, 3);
        let plan = ExecPlan::compile(
            &t0,
            &PlanSpec {
                root: Some(root0),
                inputs: &in0,
                outputs: &[],
                bindings: &binds0,
                poly: Some(PolySpec {
                    tape: &t1,
                    batch0: 2,
                    batch1: 3,
                }),
            },
        );
        assert!(!plan.is_poly());
        assert!(plan.accepts(&[&Tensor::zeros(&[2, 3])]));
        assert!(!plan.accepts(&[&Tensor::zeros(&[3, 3])]));
    }
}
