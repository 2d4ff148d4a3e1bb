//! Interpreter ↔ compiled-plan bitwise-parity property tests.
//!
//! The plan compiler (`urcl_tensor::plan`) promises that replaying a
//! compiled [`ExecPlan`] — with its op fusion, buffer moves, precomputed
//! drop points, shared conv panels and fused conv-bias scatter — produces
//! results bitwise identical to re-recording and interpreting the tape.
//! This suite drives that promise through xoshiro-seeded shape and
//! architecture churn. Every program trains for a few Adam steps under
//! both engines and asserts `to_bits` equality of
//!
//! * the scalar loss at every step,
//! * an auxiliary forward output (through a separate forward-only plan),
//! * every parameter gradient at the final step, and
//! * every post-step parameter value,
//!
//! at 1 and 4 threads. The conv programs cover share-group panel reuse
//! and ConvBias fusion with `pad_left > 0`, `pad_left == 0`, and
//! guard-failing shapes (wide `t_out`, deep `cin*k`) that must fall back
//! to the unshared direct loops.
//!
//! [`set_threads`] mutates process-global state, so every test
//! serializes on a file-local mutex and restores what it changed.

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::autodiff::{Session, Tape, Var};
use urcl_tensor::{
    set_threads, Adam, ExecPlan, Optimizer, ParamId, ParamStore, PlanSpec, Rng, Tensor,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Optimisation steps per engine run: enough to prove plan replay (not
/// just first execution) and to let Adam state diverge if grads did.
const STEPS: usize = 3;

/// Builds one recorded graph: given a session, the program's parameter
/// ids, its per-replay input vars, and integer metadata (e.g. conv
/// dilation), returns `(scalar loss, auxiliary forward output)`.
type Build =
    for<'t, 's> fn(&mut Session<'t, 's>, &[ParamId], &[Var<'t>], &[usize]) -> (Var<'t>, Var<'t>);

struct Prog {
    label: String,
    build: Build,
    store: ParamStore,
    params: Vec<ParamId>,
    input_shapes: Vec<Vec<usize>>,
    meta: Vec<usize>,
}

/// Everything one engine run produces, as raw bits.
struct CaseOut {
    losses: Vec<u32>,
    aux: Vec<Vec<u32>>,
    grads: Vec<Vec<u32>>,
    params: Vec<Vec<u32>>,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Trains `prog` for [`STEPS`] steps from a fresh store clone. With
/// `use_plan` the tape is recorded once and replayed through a compiled
/// training plan (plus a forward-only plan for the aux output); otherwise
/// every step re-records and interprets the tape.
fn run_engine(prog: &Prog, step_inputs: &[Vec<Tensor>], use_plan: bool) -> CaseOut {
    let mut store = prog.store.clone();
    let mut opt = Adam::new(1e-3);
    let mut losses = Vec::new();
    let mut aux = Vec::new();
    let mut grads_bits = Vec::new();

    if use_plan {
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let xs: Vec<Var<'_>> = step_inputs[0].iter().map(|t| sess.input(t.clone())).collect();
        let (loss, aux_var) = (prog.build)(&mut sess, &prog.params, &xs, &prog.meta);
        let in_idx: Vec<usize> = xs.iter().map(|v| v.index()).collect();
        let binds = sess.into_bindings();
        let train = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &in_idx,
                outputs: &[],
                bindings: &binds,
                poly: None,
            },
        );
        let fwd = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: None,
                inputs: &in_idx,
                outputs: &[aux_var.index()],
                bindings: &binds,
                poly: None,
            },
        );
        for (si, ins) in step_inputs.iter().enumerate() {
            let refs: Vec<&Tensor> = ins.iter().collect();
            let outs = fwd.run_forward(&store, &refs);
            aux.push(bits(&outs[0]));
            store.zero_grads();
            let (l, grads) = train.run_training(&store, &refs);
            store.accumulate_grads(train.bindings(), &grads);
            losses.push(l.item().to_bits());
            if si == step_inputs.len() - 1 {
                grads_bits = prog.params.iter().map(|&id| bits(store.grad(id))).collect();
            }
            opt.step(&mut store);
        }
    } else {
        for (si, ins) in step_inputs.iter().enumerate() {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xs: Vec<Var<'_>> = ins.iter().map(|t| sess.input(t.clone())).collect();
            let (loss, aux_var) = (prog.build)(&mut sess, &prog.params, &xs, &prog.meta);
            aux.push(bits(&tape.value(aux_var)));
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.zero_grads();
            store.accumulate_grads(&binds, &grads);
            losses.push(tape.value(loss).item().to_bits());
            if si == step_inputs.len() - 1 {
                grads_bits = prog.params.iter().map(|&id| bits(store.grad(id))).collect();
            }
            opt.step(&mut store);
        }
    }

    let params = prog.params.iter().map(|&id| bits(store.value(id))).collect();
    CaseOut { losses, aux, grads: grads_bits, params }
}

fn assert_same(label: &str, what: &str, a: &[u32], b: &[u32]) {
    assert_eq!(a.len(), b.len(), "{label}: {what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x,
            y,
            "{label}: {what} elem {i} diverged: {:?} vs {:?}",
            f32::from_bits(*x),
            f32::from_bits(*y)
        );
    }
}

/// Runs `prog` under interpreter and plan at 1 and 4 threads and asserts
/// full bitwise agreement at each.
fn check_prog(prog: &Prog, rng: &mut Rng) {
    let step_inputs: Vec<Vec<Tensor>> = (0..STEPS)
        .map(|_| {
            prog.input_shapes
                .iter()
                .map(|s| rng.uniform_tensor(s, -1.0, 1.0))
                .collect()
        })
        .collect();

    for threads in [1usize, 4] {
        let prev_threads = set_threads(threads);
        let interp = run_engine(prog, &step_inputs, false);
        let plan = run_engine(prog, &step_inputs, true);
        set_threads(prev_threads);

        let label = format!("{} [{threads}t]", prog.label);
        assert_same(&label, "loss", &interp.losses, &plan.losses);
        for (s, (a, b)) in interp.aux.iter().zip(&plan.aux).enumerate() {
            assert_same(&label, &format!("aux step {s}"), a, b);
        }
        for (p, (a, b)) in interp.grads.iter().zip(&plan.grads).enumerate() {
            assert_same(&label, &format!("grad of param {p}"), a, b);
        }
        for (p, (a, b)) in interp.params.iter().zip(&plan.params).enumerate() {
            assert_same(&label, &format!("post-step param {p}"), a, b);
        }
    }
}

/// Exercises every elementwise op, matmul, reshape/permute, narrow +
/// concat, softmax, axis/full reductions and detach in one graph, so the
/// plan's fusion, move and drop machinery all fire.
fn build_mixed<'t, 's>(
    sess: &mut Session<'t, 's>,
    params: &[ParamId],
    xs: &[Var<'t>],
    _meta: &[usize],
) -> (Var<'t>, Var<'t>) {
    let x = xs[0]; // [b, t, d]
    let w = sess.param(params[0]); // [d, d]
    let sh = x.shape();
    let (b, t, d) = (sh[0], sh[1], sh[2]);
    let h = x.reshape(&[b * t, d]).matmul(w);
    let gate = h.tanh().scale(1.25).add_scalar(0.1).sigmoid();
    let act = gate.mul(h.relu().neg().leaky_relu(0.2));
    let e = act.abs().add_scalar(0.5).sqrt().ln().exp();
    let p2 = e.powf(2.0);
    let half = b * t / 2;
    let cat = sess.tape().concat(
        &[p2.narrow(0, 0, half), p2.narrow(0, half, b * t - half)],
        0,
    );
    let sm = cat.reshape(&[b, t, d]).softmax(2);
    let red = sm.permute(&[0, 2, 1]).sum_axes(&[2], false).mean_axes(&[0], true);
    let det = e.detach().mean_all();
    let loss = red
        .sum_all()
        .add(det)
        .add(h.div(h.abs().add_scalar(1.0)).mean_all());
    (loss, sm)
}

/// The GatedTcn pattern: two convs over the *same* input (a share group)
/// each followed by a `[1, C, 1]` bias add (the ConvBias fusion target),
/// gated through tanh × sigmoid.
fn build_gated_conv<'t, 's>(
    sess: &mut Session<'t, 's>,
    params: &[ParamId],
    xs: &[Var<'t>],
    meta: &[usize],
) -> (Var<'t>, Var<'t>) {
    let x = xs[0]; // [b, cin, t]
    let (dilation, pad_left) = (meta[0], meta[1]);
    let wf = sess.param(params[0]);
    let bf = sess.param(params[1]);
    let wg = sess.param(params[2]);
    let bg = sess.param(params[3]);
    let cout = wf.shape()[0];
    let f = x
        .conv1d(wf, dilation, pad_left)
        .add(bf.reshape(&[1, cout, 1]))
        .tanh();
    let g = x
        .conv1d(wg, dilation, pad_left)
        .add(bg.reshape(&[1, cout, 1]))
        .sigmoid();
    let y = f.mul(g);
    (y.abs().mean_all(), y)
}

/// A lone conv (no share group) with bias and activation: the plan must
/// not mis-apply group machinery to singleton convs.
fn build_single_conv<'t, 's>(
    sess: &mut Session<'t, 's>,
    params: &[ParamId],
    xs: &[Var<'t>],
    meta: &[usize],
) -> (Var<'t>, Var<'t>) {
    let x = xs[0];
    let (dilation, pad_left) = (meta[0], meta[1]);
    let w = sess.param(params[0]);
    let b = sess.param(params[1]);
    let cout = w.shape()[0];
    let y = x
        .conv1d(w, dilation, pad_left)
        .add(b.reshape(&[1, cout, 1]))
        .relu();
    (y.mean_all(), y)
}

fn mixed_prog(label: &str, b: usize, t: usize, d: usize, rng: &mut Rng) -> Prog {
    let mut store = ParamStore::new();
    let w = store.add("w", rng.uniform_tensor(&[d, d], -0.8, 0.8));
    Prog {
        label: format!("mixed {label} b{b} t{t} d{d}"),
        build: build_mixed,
        store,
        params: vec![w],
        input_shapes: vec![vec![b, t, d]],
        meta: vec![],
    }
}

fn conv_prog(
    label: &str,
    gated: bool,
    b: usize,
    cin: usize,
    t: usize,
    cout: usize,
    k: usize,
    dilation: usize,
    pad_left: usize,
    rng: &mut Rng,
) -> Prog {
    let mut store = ParamStore::new();
    let mut params = vec![
        store.add("wf", rng.uniform_tensor(&[cout, cin, k], -0.7, 0.7)),
        store.add("bf", rng.uniform_tensor(&[cout], -0.3, 0.3)),
    ];
    if gated {
        params.push(store.add("wg", rng.uniform_tensor(&[cout, cin, k], -0.7, 0.7)));
        params.push(store.add("bg", rng.uniform_tensor(&[cout], -0.3, 0.3)));
    }
    Prog {
        label: format!("conv {label} b{b} c{cin}x{cout} t{t} k{k}d{dilation}p{pad_left}"),
        build: if gated { build_gated_conv } else { build_single_conv },
        store,
        params,
        input_shapes: vec![vec![b, cin, t]],
        meta: vec![dilation, pad_left],
    }
}

#[test]
fn mixed_graph_parity_over_architecture_churn() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x9_1A_0001);

    check_prog(&mixed_prog("fixed", 3, 4, 6, &mut rng), &mut rng);
    for i in 0..4 {
        // b*t >= 2 so the narrow split is non-degenerate.
        let b = 1 + (rng.next_u64() % 3) as usize;
        let t = 2 + (rng.next_u64() % 4) as usize;
        let d = 1 + (rng.next_u64() % 7) as usize;
        check_prog(&mixed_prog(&format!("churn{i}"), b, t, d, &mut rng), &mut rng);
    }
}

#[test]
fn conv_share_group_and_bias_fusion_parity() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x9_1A_0002);

    // Guard-passing gated pairs: causal pad, deeper dilation, zero pad.
    check_prog(&conv_prog("gated", true, 3, 4, 10, 5, 2, 1, 1, &mut rng), &mut rng);
    check_prog(&conv_prog("gated", true, 2, 3, 9, 4, 3, 2, 4, &mut rng), &mut rng);
    check_prog(&conv_prog("gated-p0", true, 2, 3, 8, 4, 2, 1, 0, &mut rng), &mut rng);
    // Guard-failing shapes: t_out >= 32 (panel wider than one GEMM
    // microtile) and cin*k > 256 (panel deeper than one GEMM K block).
    check_prog(&conv_prog("wide", true, 2, 3, 40, 4, 2, 1, 1, &mut rng), &mut rng);
    check_prog(&conv_prog("deep", true, 2, 130, 6, 4, 2, 1, 1, &mut rng), &mut rng);
    // Singleton conv: no share group to exploit.
    check_prog(&conv_prog("single", false, 2, 4, 9, 3, 2, 2, 2, &mut rng), &mut rng);
    // Random churn.
    for i in 0..3 {
        let b = 1 + (rng.next_u64() % 3) as usize;
        let cin = 1 + (rng.next_u64() % 6) as usize;
        let cout = 1 + (rng.next_u64() % 6) as usize;
        let k = 2 + (rng.next_u64() % 2) as usize;
        let dilation = 1 + (rng.next_u64() % 2) as usize;
        let pad = (k - 1) * dilation;
        let t = pad + k + (rng.next_u64() % 8) as usize;
        check_prog(
            &conv_prog(&format!("churn{i}"), true, b, cin, t, cout, k, dilation, pad, &mut rng),
            &mut rng,
        );
    }
}
