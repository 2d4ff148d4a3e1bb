//! Compiled execution plans: record one autodiff tape for a model,
//! compile it once, then replay it every step without re-recording the
//! graph. Model plans are **batch-polymorphic**: compiled against a
//! symbolic batch dimension so one plan serves every replay-grown batch
//! size ([`ExecPlan::compile_poly`]). Plans accept **dynamic inputs
//! beyond parameters** (graph supports, contrastive masks) so per-step
//! augmentation draws replay through the same plan.
//!
//! ## Batch polymorphism
//!
//! Every node dimension is an affine form `k + c·b` in the batch `b`; a
//! replay infers `b` from its inputs, and the node-indexed schedule
//! (fusion, moves, drops) holds at every `b`. [`ExecPlan::compile_poly`]
//! panics, naming the node, on a graph that is not batch-polymorphic —
//! there is no plan for one batch size to fall back to.
//! [`ExecPlan::compile`] compiles one recording with constant forms.
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
//!   intermediates nobody else needs execute as one run of stages over
//!   the data, instead of one pass + buffer per op.
//! * **By-reference sources** — parameters are read straight from the
//!   [`ParamStore`] and recorded constants from the plan's captured set;
//!   nothing is cloned onto a tape per step.
//!
//! ## Bitwise parity contract
//!
//! Replaying a plan is **bitwise identical** to re-recording the tape and
//! calling [`Tape::backward`], on every observable: forward outputs, the
//! loss, gradients of trainable leaves, and post-step parameters. Both
//! evaluate every op through the same forward rule (`forward::eval`, or
//! its stages for a fused run) and run the same backward walk, differing
//! only in where they read values: moved buffers are the same bits, and
//! fused stages round to `f32` after every stage, exactly like
//! materializing each intermediate.
//! `tests/plan_parity.rs` and the `bench_train_step` loss assertion pin
//! this.

use crate::autodiff::{Gradients, Op, Session, Tape, Var};
use crate::backward::{op_inputs, BackwardSchedule, ForwardValues};
use crate::forward::{self, exec_run, stage_of, Stage};
use crate::params::{ParamId, ParamStore};
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

/// Cumulative plan-execution statistics since process start (or the last
/// [`reset_plan_stats`]), exported by `urcl-trace` as the `plan` object.
/// These are process-wide trace aggregates: concurrent work anywhere in
/// the process lands in them, so a count that must hold for one plan
/// holder belongs to that holder (the trainer counts its own step-plan
/// compiles).
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
}

// ------------------------------------------------------------- recording

/// One recording of a plan's graph: the tape plus which of its nodes are
/// substituted per replay, which are trainable parameters, and what the
/// plan must produce. [`Recording::training`] and [`Recording::forward`]
/// record one through a [`Session`]; [`ExecPlan::compile`] compiles one
/// and [`ExecPlan::compile_poly`] asks for one per batch size.
pub struct Recording {
    /// The recorded tape.
    pub tape: Tape,
    /// Scalar loss node for training plans; `None` compiles a
    /// forward-only plan (no gradient bookkeeping, aggressive fusion).
    pub root: Option<usize>,
    /// Tape indices of per-replay inputs (recorded as `Constant` data or
    /// probe `Leaf` nodes). [`ExecPlan::run_training`] /
    /// [`ExecPlan::run_forward`] substitute fresh tensors for these,
    /// positionally.
    pub inputs: Vec<usize>,
    /// Tape indices whose forward values [`ExecPlan::run_forward`]
    /// returns, in order.
    pub outputs: Vec<usize>,
    /// `(ParamId, node index)` pairs from
    /// [`Session::into_bindings`](crate::autodiff::Session::into_bindings):
    /// these leaves read the *current* value from the [`ParamStore`]
    /// passed at replay time.
    pub bindings: Vec<(ParamId, usize)>,
}

impl Recording {
    /// Records a training graph on a fresh tape through a [`Session`]
    /// over `store`. `build` records the graph and returns the variables
    /// a replay substitutes, in replay order, and the scalar loss. The
    /// code that records an input is thereby the code that lists it.
    pub fn training(
        store: &ParamStore,
        build: impl for<'t> FnOnce(&mut Session<'t, '_>) -> (Vec<Var<'t>>, Var<'t>),
    ) -> Recording {
        Recording::record(store, |sess| {
            let (inputs, loss) = build(sess);
            (inputs, Some(loss), Vec::new())
        })
    }

    /// Like [`Recording::training`], for a forward-only graph: `build`
    /// returns the replayed inputs and the outputs a replay returns.
    pub fn forward(
        store: &ParamStore,
        build: impl for<'t> FnOnce(&mut Session<'t, '_>) -> (Vec<Var<'t>>, Vec<Var<'t>>),
    ) -> Recording {
        Recording::record(store, |sess| {
            let (inputs, outputs) = build(sess);
            (inputs, None, outputs)
        })
    }

    fn record(
        store: &ParamStore,
        build: impl for<'t> FnOnce(
            &mut Session<'t, '_>,
        ) -> (Vec<Var<'t>>, Option<Var<'t>>, Vec<Var<'t>>),
    ) -> Recording {
        let tape = Tape::new();
        let (inputs, root, outputs, bindings) = {
            let mut sess = Session::new(&tape, store);
            let (inputs, root, outputs) = build(&mut sess);
            let index = |vars: Vec<Var<'_>>| vars.iter().map(Var::index).collect::<Vec<_>>();
            (
                index(inputs),
                root.map(|r| r.index()),
                index(outputs),
                sess.into_bindings(),
            )
        };
        Recording {
            tape,
            root,
            inputs,
            outputs,
            bindings,
        }
    }
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

/// Per-node execution strategy decided at compile time.
#[derive(Debug, Clone)]
enum NodeExec {
    /// Never executed: a source node, a fused-away intermediate, or dead
    /// forward code no output depends on.
    Skip,
    /// Unary elementwise run ending at this node: apply `stages` to the
    /// value of `src` in a single pass (one stage for a lone unary op).
    Run { src: usize, stages: Vec<Stage> },
    /// `reshape` stealing its dying input's buffer (zero-copy).
    MoveReshape(usize),
    /// `detach` stealing its dying input's buffer (zero-copy).
    MoveDetach(usize),
    /// Everything else: evaluate through the one forward rule per op
    /// the tape records with.
    General,
}

// ------------------------------------------------------------------ plan

/// A compiled, reusable execution plan for one recorded tape. See the
/// module docs for what compilation precomputes. Plans are immutable and
/// `Send + Sync`, so a serving snapshot can share one across worker
/// threads behind an `Arc`.
pub struct ExecPlan {
    ops: Vec<Op>,
    /// Shapes of the primary recording, made at batch size `base_batch`.
    shapes: Vec<Vec<usize>>,
    /// Per-dimension affine forms `k + c·b` in the symbolic batch `b`.
    /// A one-recording [`ExecPlan::compile`] has `c = 0` everywhere: its
    /// shapes are fixed.
    forms: Vec<Vec<(usize, usize)>>,
    /// Batch size the primary recording was made at (0 for a
    /// one-recording compile, which has no batch dimension).
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
/// (at the recorded batch), or a materialized per-batch set shared
/// through the plan's scaled-shape cache.
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
    /// Compiles one recording into a plan that replays at exactly the
    /// recorded shapes.
    ///
    /// Panics if the recording's node indices are inconsistent with its
    /// tape: input/binding indices must name `Leaf`/`Constant` nodes, a
    /// training root must be scalar, and indices must be in range.
    pub fn compile(rec: &Recording) -> ExecPlan {
        ExecPlan::build(rec, None)
    }

    /// Compiles a batch-polymorphic plan from two recordings of one graph:
    /// `record(batch)` and `record(batch + 1)`, in that order. The first
    /// is the primary recording — its captured constants are what every
    /// replay uses, so it must record the real graph. The compiler reads
    /// only shapes from the second, which may run on zero-filled shape
    /// proxies ([`Tensor::at_batch`]). For every node dimension it fits
    /// the affine form `k + c·b` in the symbolic batch `b` through both
    /// recordings; two adjacent batch sizes pin an affine form exactly, so
    /// every compile-time shape decision checked against both recordings
    /// holds for all `b`.
    ///
    /// Panics, naming the node, when the graph is not batch-polymorphic:
    /// the recordings differ op for op, a dimension is not affine in the
    /// batch, or a captured constant's shape depends on the batch (record
    /// it as a plan input, or build it from one).
    pub fn compile_poly(batch: usize, mut record: impl FnMut(usize) -> Recording) -> ExecPlan {
        let primary = record(batch);
        let second = record(batch + 1);
        ExecPlan::build(&primary, Some((&second.tape, batch)))
    }

    /// Compiles `rec`; with `poly = Some((tape, b))` the recording was made
    /// at batch `b` and `tape` records the same graph at `b + 1`.
    fn build(rec: &Recording, poly: Option<(&Tape, usize)>) -> ExecPlan {
        let nodes = rec.tape.nodes.borrow();
        let n = match rec
            .root
            .into_iter()
            .chain(rec.outputs.iter().copied())
            .max()
        {
            Some(hi) => {
                assert!(hi < nodes.len(), "plan root/output index out of range");
                hi + 1
            }
            None => nodes.len(),
        };
        if let Some(r) = rec.root {
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

        // --- Per-dimension affine forms in the batch: fitted through the
        // second recording, or constant for a one-recording compile.
        let (forms, base_batch) = match poly {
            Some((tape1, b0)) => (
                poly_forms(&ops, &shapes, tape1, b0)
                    .unwrap_or_else(|e| panic!("compile_poly: {e}")),
                b0,
            ),
            None => (
                shapes
                    .iter()
                    .map(|s| s.iter().map(|&d| (d, 0)).collect())
                    .collect(),
                0,
            ),
        };

        // --- Sources: where does each node's value come from at replay?
        let mut source = vec![Source::Computed; n];
        let mut captured = Vec::new();
        for (slot, &idx) in rec.inputs.iter().enumerate() {
            assert!(idx < n, "plan input index {idx} out of range");
            assert!(
                matches!(ops[idx], Op::Leaf | Op::Constant),
                "plan input {idx} must be a Leaf or Constant node"
            );
            source[idx] = Source::Input(slot);
        }
        for (k, &(_, idx)) in rec.bindings.iter().enumerate() {
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
            if matches!(ops[i], Op::Leaf | Op::Constant) && matches!(source[i], Source::Computed) {
                // A captured constant is recorded once and reused at every
                // batch size, so its shape must not depend on the batch.
                assert!(
                    forms[i].iter().all(|&(_, c)| c == 0),
                    "compile_poly: node {i} ({:?}, shape {:?} at batch {base_batch}) \
                     is a captured constant whose shape depends on the batch; \
                     record it as a plan input or build it from one",
                    ops[i],
                    shapes[i]
                );
                source[i] = Source::Captured(captured.len());
                captured.push(nodes[i].value.clone());
            }
        }
        let backward = rec
            .root
            .map(|root| BackwardSchedule::new(&nodes[..n], root));

        // --- needed_fwd[i]: the forward value is (transitively) required
        // to produce the root or an output. Anything else is dead forward
        // code and is skipped entirely.
        let mut scratch = Vec::with_capacity(4);
        let mut needed_fwd = vec![false; n];
        if let Some(root) = rec.root {
            needed_fwd[root] = true;
        }
        for &o in &rec.outputs {
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

        // --- keep_value[i]: the forward value survives past its last
        // forward consumer because a backward rule reads it. Own-output
        // rules (exp, sqrt, sigmoid, tanh, softmax) keep their own value
        // when reached; consumer rules keep the sibling operand they
        // multiply by. Shape-only rules keep nothing.
        let mut keep_value = vec![false; n];
        if let Some(root) = rec.root {
            keep_value[root] = true; // the loss value is returned
        }
        for &o in &rec.outputs {
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
                Op::PowF(a, _) | Op::Ln(a) | Op::Abs(a) | Op::Relu(a) => {
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
        if let Some(root) = rec.root {
            refs[root] += 1;
            last_use[root] = usize::MAX;
        }
        for &o in &rec.outputs {
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
                        let NodeExec::Run { src, mut stages } =
                            std::mem::replace(&mut exec[a], NodeExec::Skip)
                        else {
                            unreachable!()
                        };
                        stages.push(stage);
                        fused_stages += 1;
                        NodeExec::Run { src, stages }
                    } else {
                        NodeExec::Run {
                            src: a,
                            stages: vec![stage],
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
                    _ => NodeExec::General,
                },
            };
            exec.push(e);
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
        ExecPlan {
            ops,
            shapes,
            forms,
            base_batch,
            scaled: Mutex::new(Vec::new()),
            source,
            captured,
            bindings: rec.bindings.clone(),
            input_nodes: rec.inputs.clone(),
            outputs: rec.outputs.clone(),
            dead_edges: backward.as_ref().map_or(0, |b| b.dead_edges),
            backward,
            exec,
            drop_after,
            fused_stages,
            static_moves,
            static_drops,
        }
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

    /// Infers the symbolic batch size from the replay inputs' affine
    /// shape forms. `Err` carries the mismatch description.
    fn try_batch(&self, inputs: &[&Tensor]) -> Result<usize, String> {
        if inputs.len() != self.input_nodes.len() {
            return Err(format!(
                "plan expects {} inputs, got {}",
                self.input_nodes.len(),
                inputs.len()
            ));
        }
        let mut batch: Option<usize> = None;
        for (k, (&t, &idx)) in inputs.iter().zip(&self.input_nodes).enumerate() {
            let form = &self.forms[idx];
            let shape = t.shape();
            if shape.len() != form.len() {
                return Err(format!("plan input {k} rank mismatch"));
            }
            for (j, (&d, &(k0, c))) in shape.iter().zip(form).enumerate() {
                if c == 0 {
                    if d != k0 {
                        return Err(format!("plan input {k} dim {j}: expected {k0}, got {d}"));
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

    /// True when `inputs` can replay through this plan: every input
    /// dimension on its affine form, at one consistent batch size.
    pub fn accepts(&self, inputs: &[&Tensor]) -> bool {
        self.try_batch(inputs).is_ok()
    }

    /// Resolves the shape set this replay executes against, materializing
    /// (and caching) the affine forms at the inferred batch size — the
    /// "lifetime rescale": the drop/move/fusion schedule is index-based
    /// and batch-free, so only buffer extents change between batches.
    fn shapes_for(&self, inputs: &[&Tensor]) -> ReplayShapes<'_> {
        let b = self.try_batch(inputs).unwrap_or_else(|e| panic!("{e}"));
        if b == self.base_batch {
            return ReplayShapes::Base(&self.shapes);
        }
        let mut cache = self.scaled.lock().unwrap();
        if let Some((_, s)) = cache.iter().find(|(b2, _)| *b2 == b) {
            return ReplayShapes::Scaled(Arc::clone(s));
        }
        let shapes: Vec<Vec<usize>> = self
            .forms
            .iter()
            .map(|f| f.iter().map(|&(k, c)| k + c * b).collect())
            .collect();
        let arc = Arc::new(shapes);
        cache.push((b, Arc::clone(&arc)));
        ReplayShapes::Scaled(arc)
    }

    /// Replays the forward pass and returns clones of the output nodes'
    /// values, in recording order. Parameters are read from `store` by
    /// reference; `inputs` substitute the recording's input nodes
    /// positionally and must match the compiled shapes up to the symbolic
    /// batch size.
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
                NodeExec::Run { src, stages } => {
                    values[i] = Some(exec_run(self.value(values, store, inputs, *src), stages));
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
                    let v = |a| self.value(values, store, inputs, a);
                    values[i] = Some(forward::eval(&self.ops[i], v, &shapes[i]));
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
}

/// Fits the per-dimension affine forms `k + c·b` through the primary
/// recording (`ops`, `shapes`, made at batch `b0`) and `tape1`, the same
/// graph recorded at `b0 + 1`. `Err` names the first node that keeps the
/// graph from being batch-polymorphic.
fn poly_forms(
    ops: &[Op],
    shapes: &[Vec<usize>],
    tape1: &Tape,
    b0: usize,
) -> Result<Vec<Vec<(usize, usize)>>, String> {
    let nodes1 = tape1.nodes.borrow();
    if nodes1.len() < ops.len() {
        return Err(format!(
            "the recording at batch {} has {} nodes, the one at batch {b0} needs {}",
            b0 + 1,
            nodes1.len(),
            ops.len()
        ));
    }
    // d = k + c·b fit through (b0, d0) and (b0 + 1, d1); shrinking or
    // super-linear dims have no valid (k, c) ≥ 0.
    let fit = |(&d0, &d1): (&usize, &usize)| {
        let c = d1.checked_sub(d0)?;
        Some((d0.checked_sub(c.checked_mul(b0)?)?, c))
    };
    let mut forms = Vec::with_capacity(shapes.len());
    for (i, ((op, s0), nd)) in ops.iter().zip(shapes).zip(nodes1.iter()).enumerate() {
        if *op != nd.op {
            return Err(format!(
                "the recordings at batch {b0} and {} diverge at node {i}: {op:?} vs {:?}",
                b0 + 1,
                nd.op
            ));
        }
        let s1 = nd.value.shape();
        let form = if s0.len() == s1.len() {
            s0.iter().zip(s1).map(fit).collect()
        } else {
            None
        };
        let Some(form) = form else {
            return Err(format!(
                "node {i} ({op:?}) has shape {s0:?} at batch {b0} and {s1:?} at batch {}, \
                 not affine in the batch",
                b0 + 1
            ));
        };
        forms.push(form);
    }
    Ok(forms)
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

        // Record once, compile, then replay with different data.
        let plan = {
            let tape = Tape::new();
            let (root, inputs, bindings) = {
                let mut sess = Session::new(&tape, &store);
                let xv = sess.input(x0.clone());
                let yv = sess.input(y0.clone());
                let wv = sess.param(w);
                let bv = sess.param(b);
                let pred = xv.matmul(wv).add(bv).tanh();
                let loss = pred.sub(yv).abs().mean_all();
                (
                    loss.index(),
                    vec![xv.index(), yv.index()],
                    sess.into_bindings(),
                )
            };
            ExecPlan::compile(&Recording {
                tape,
                root: Some(root),
                inputs,
                outputs: Vec::new(),
                bindings,
            })
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
        let (root, bindings) = {
            let mut sess = Session::new(&tape, &store);
            let sv = sess.input(support.clone());
            let wv = sess.param(w);
            // support @ w: the edge into the constant support is dead.
            let loss = sv.matmul(wv).mean_all();
            (loss.index(), sess.into_bindings())
        };
        let rec = Recording {
            tape,
            root: Some(root),
            inputs: Vec::new(),
            outputs: Vec::new(),
            bindings,
        };
        let plan = ExecPlan::compile(&rec);
        assert!(plan.dead_edges >= 1, "support edge should be dead");
        let (lp, grads) = plan.run_training(&store, &[]);
        let loss = rec.tape.var(root);
        let gi = rec.tape.backward(loss);
        assert_eq!(lp.item().to_bits(), loss.value().item().to_bits());
        let gw_i = gi.by_index(rec.bindings[0].1).unwrap();
        let gw_p = grads.by_index(rec.bindings[0].1).unwrap();
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
        let (input, output) = {
            let sess = Session::new(&tape, &store);
            let xv = sess.input(x0.clone());
            let y = xv.scale(2.0).add_scalar(1.0).tanh().relu();
            (xv.index(), y.index())
        };
        let plan = ExecPlan::compile(&Recording {
            tape,
            root: None,
            inputs: vec![input],
            outputs: vec![output],
            bindings: Vec::new(),
        });
        assert!(plan.fused_stages >= 3, "chain of 4 should fuse 3 stages");
        let x1 = Rng::seed_from_u64(4).uniform_tensor(&[4, 5], -2.0, 2.0);
        let out = plan.run_forward(&store, &[&x1]);
        let expect = x1
            .scale(2.0)
            .add_scalar(1.0)
            .map(crate::activation::tanh)
            .map(|v| v.max(0.0));
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
        let (root, bindings) = {
            let mut sess = Session::new(&tape, &store);
            let wv = sess.param(w);
            let loss = wv.mul(wv).mean_all();
            (loss.index(), sess.into_bindings())
        };
        let binds = bindings.clone();
        let plan = ExecPlan::compile(&Recording {
            tape,
            root: Some(root),
            inputs: Vec::new(),
            outputs: Vec::new(),
            bindings,
        });
        let (l0, g0) = plan.run_training(&store, &[]);
        assert_eq!(l0.item(), 4.0);
        assert_eq!(g0.by_index(binds[0].1).unwrap().data(), &[4.0]);
        store.value_mut(w).data_mut()[0] = 3.0;
        let (l1, g1) = plan.run_training(&store, &[]);
        assert_eq!(l1.item(), 9.0);
        assert_eq!(g1.by_index(binds[0].1).unwrap().data(), &[6.0]);
    }

    /// Records `|tanh(x @ w + b) − y|` at batch `x.shape()[0]`.
    fn record_affine(
        store: &ParamStore,
        w: ParamId,
        b: ParamId,
        x: Tensor,
        y: Tensor,
    ) -> Recording {
        let tape = Tape::new();
        let (root, inputs, bindings) = {
            let mut sess = Session::new(&tape, store);
            let xv = sess.input(x);
            let yv = sess.input(y);
            let wv = sess.param(w);
            let bv = sess.param(b);
            let loss = xv.matmul(wv).add(bv).tanh().sub(yv).abs().mean_all();
            (
                loss.index(),
                vec![xv.index(), yv.index()],
                sess.into_bindings(),
            )
        };
        Recording {
            tape,
            root: Some(root),
            inputs,
            outputs: Vec::new(),
            bindings,
        }
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
        let x2 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y2 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);
        // Second recording at batch 3; only shapes matter, zeros are fine.
        let plan = ExecPlan::compile_poly(2, |bsz| {
            record_affine(&store, w, b, x2.at_batch(bsz), y2.at_batch(bsz))
        });
        for bsz in [5usize, 2, 7, 3] {
            let x = rng.uniform_tensor(&[bsz, 3], -1.0, 1.0);
            let y = rng.uniform_tensor(&[bsz, 4], -1.0, 1.0);
            assert!(plan.accepts(&[&x, &y]));
            // Recorded reference at this batch size.
            let rec = record_affine(&store, w, b, x.clone(), y.clone());
            let loss = rec.tape.var(rec.root.unwrap());
            let gi = rec.tape.backward(loss);
            let (lp, gp) = plan.run_training(&store, &[&x, &y]);
            assert_eq!(lp.item().to_bits(), loss.value().item().to_bits());
            for (k, &(_, idx)) in rec.bindings.iter().enumerate() {
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
        let x7 = Rng::seed_from_u64(25).uniform_tensor(&[7, 3], -1.0, 1.0);
        let out = plan.run_forward(&store, &[&x7]);
        let expect = x7.matmul(store.value(w)).map(crate::activation::tanh);
        assert_eq!(out[0].data(), expect.data());
    }

    /// A batch-dependent constant that was *not* promoted to an input
    /// would replay with a stale captured value at any other batch size,
    /// so `compile_poly` rejects the graph, naming the constant.
    #[test]
    #[should_panic(expected = "captured constant whose shape depends on the batch")]
    fn batch_dependent_capture_is_rejected() {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Rng::seed_from_u64(22).uniform_tensor(&[3, 3], -1.0, 1.0),
        );
        ExecPlan::compile_poly(2, |bsz| {
            let tape = Tape::new();
            let (root, inputs, bindings) = {
                let mut sess = Session::new(&tape, &store);
                let xv = sess.input(Tensor::zeros(&[bsz, 3]));
                let wv = sess.param(w);
                // Batch-dependent mask recorded as a plain captured constant.
                let mask = sess.input(Tensor::ones(&[bsz, 3]));
                let loss = xv.matmul(wv).mul(mask).mean_all();
                (loss.index(), vec![xv.index()], sess.into_bindings())
            };
            Recording {
                tape,
                root: Some(root),
                inputs,
                outputs: Vec::new(),
                bindings,
            }
        });
    }

    /// Two recordings that are not the same graph (here `tanh` at one
    /// batch, `relu` at the other) are rejected at the first node where
    /// they differ.
    #[test]
    #[should_panic(expected = "diverge at node")]
    fn diverging_recordings_are_rejected() {
        let store = ParamStore::new();
        ExecPlan::compile_poly(2, |bsz| {
            let tape = Tape::new();
            let (inputs, outputs) = {
                let sess = Session::new(&tape, &store);
                let xv = sess.input(Tensor::zeros(&[bsz, 3]));
                let y = if bsz == 2 { xv.tanh() } else { xv.relu() };
                (vec![xv.index()], vec![y.index()])
            };
            Recording {
                tape,
                root: None,
                inputs,
                outputs,
                bindings: Vec::new(),
            }
        });
    }
}
