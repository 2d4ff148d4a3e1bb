//! Interpreter ↔ compiled-plan bitwise-parity property tests.
//!
//! The plan compiler (`urcl_tensor::plan`) promises that replaying a
//! compiled [`ExecPlan`] — with its op fusion, buffer moves and
//! precomputed drop points — produces results bitwise identical to
//! re-recording and interpreting the tape.
//! This suite drives that promise through xoshiro-seeded shape and
//! architecture churn. Every program trains for a few Adam steps under
//! both engines and asserts `to_bits` equality of
//!
//! * the scalar loss at every step,
//! * an auxiliary forward output (through a separate forward-only plan),
//! * every parameter gradient at the final step, and
//! * every post-step parameter value,
//!
//! at 1 and 4 threads. The gated-TCN programs record the graph every
//! temporal convolution in the workspace runs: one gathered tap matrix
//! read by two GEMMs, channel-bias adds, then `tanh ⊙ sigmoid`, over
//! churned row counts and a tap width past one GEMM k-block.
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
/// ids, its per-replay input vars, and integer metadata (e.g. the TCN
/// kernel width), returns `(scalar loss, auxiliary forward output)`.
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

/// The window-form gated TCN (`urcl_nn::GatedTcn`): a projected
/// `[b, k, n, c]` feature window gathered into `[b·n, c·k]` taps in
/// `(ci, ki)` order, read by a filter and a gate GEMM against
/// `[cout, c, k]` weights viewed as `[cout, c·k]`, each plus a `[cout]`
/// bias, gated through tanh ⊙ sigmoid. The projection gives the taps a
/// gradient, so the plan must keep the one tap matrix alive for both
/// weight gradients and route both input gradients back through it.
fn build_gated_tcn<'t, 's>(
    sess: &mut Session<'t, 's>,
    params: &[ParamId],
    xs: &[Var<'t>],
    meta: &[usize],
) -> (Var<'t>, Var<'t>) {
    let sh = xs[0].shape(); // [b, k, n, c_in0]
    let (b, k, n) = (sh[0], meta[0], sh[2]);
    let feat = xs[0].matmul(sess.param(params[0])); // [b, k, n, cin]
    let cin = feat.shape()[3];
    let taps = feat.permute(&[0, 2, 3, 1]).reshape(&[b * n, cin * k]);
    let mut branch = |w: ParamId, bias: ParamId| {
        let w = sess.param(w);
        let cout = w.shape()[0];
        let w = w.reshape(&[cout, cin * k]).transpose(0, 1);
        taps.matmul(w).add(sess.param(bias))
    };
    let f = branch(params[1], params[2]).tanh();
    let g = branch(params[3], params[4]).sigmoid();
    let y = f.mul(g);
    (y.abs().mean_all(), y)
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

/// A gated-TCN program over `rows = b·n` tap rows of width `cin·k`,
/// projected from `c0` input channels.
#[allow(clippy::too_many_arguments)]
fn tcn_prog(
    label: &str,
    b: usize,
    n: usize,
    c0: usize,
    cin: usize,
    cout: usize,
    k: usize,
    rng: &mut Rng,
) -> Prog {
    let mut store = ParamStore::new();
    let params = vec![
        store.add("win", rng.uniform_tensor(&[c0, cin], -0.7, 0.7)),
        store.add("wf", rng.uniform_tensor(&[cout, cin, k], -0.7, 0.7)),
        store.add("bf", rng.uniform_tensor(&[cout], -0.3, 0.3)),
        store.add("wg", rng.uniform_tensor(&[cout, cin, k], -0.7, 0.7)),
        store.add("bg", rng.uniform_tensor(&[cout], -0.3, 0.3)),
    ];
    Prog {
        label: format!("gated tcn {label} b{b} n{n} c{c0}->{cin}x{cout} k{k}"),
        build: build_gated_tcn,
        store,
        params,
        input_shapes: vec![vec![b, k, n, c0]],
        meta: vec![k],
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
fn gated_tcn_window_parity() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x9_1A_0002);

    // GraphWaveNet's and MTGNN's kernel-2 layers, STGCN's kernel-3 one.
    check_prog(&tcn_prog("k2", 3, 5, 2, 8, 8, 2, &mut rng), &mut rng);
    check_prog(&tcn_prog("k3", 2, 4, 3, 6, 5, 3, &mut rng), &mut rng);
    // cin*k = 260 > KC = 256: the GEMM splits each reduction into two
    // k-blocks.
    check_prog(&tcn_prog("deep", 2, 3, 2, 130, 4, 2, &mut rng), &mut rng);
    // Row-count churn: one tap row per (batch, node) pair.
    for i in 0..3 {
        let b = 1 + (rng.next_u64() % 4) as usize;
        let n = 1 + (rng.next_u64() % 6) as usize;
        let cin = 1 + (rng.next_u64() % 6) as usize;
        let cout = 1 + (rng.next_u64() % 6) as usize;
        let k = 2 + (rng.next_u64() % 2) as usize;
        check_prog(&tcn_prog(&format!("churn{i}"), b, n, 2, cin, cout, k, &mut rng), &mut rng);
    }
}
