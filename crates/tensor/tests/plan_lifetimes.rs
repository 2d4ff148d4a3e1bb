//! NaN-poisoning property tests for the plan's buffer-lifetime schedule.
//!
//! A compiled [`ExecPlan`] precomputes where every intermediate buffer
//! dies: drop points release values back to the pool mid-replay, and
//! reshape/detach steal dying inputs' buffers. A bug anywhere in that
//! schedule — releasing a buffer an op still reads, or reading a
//! `take_uninit` slot before writing it — would usually go unnoticed,
//! because the recycled memory still holds plausible stale floats.
//!
//! [`set_pool_poison`] closes that gap: with poisoning on, the pool fills
//! every non-zeroed hand-out *and* every returned buffer with NaN, so any
//! read of dropped or uninitialized pool memory propagates NaN into the
//! results. The property tested here over randomly generated op graphs
//! (xoshiro-seeded opcode tapes) and window-form gated TCNs:
//!
//! 1. plan replays under poisoning are bitwise identical to the
//!    poison-off interpreter reference, and
//! 2. no NaN appears in any loss, output, gradient, or updated parameter.
//!
//! The interpreter itself also runs under poisoning as a kernel-contract
//! check (every `take_uninit` consumer must fully overwrite its buffer).

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::autodiff::{Session, Tape, Var};
use urcl_tensor::{
    set_pool_poison, set_threads, Adam, ExecPlan, Optimizer, ParamId, ParamStore, PlanSpec,
    PolySpec, Rng, Tensor,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const STEPS: usize = 3;

/// One engine run's results as raw bits, in a fixed order.
fn bits_of(out: &mut Vec<u32>, t: &Tensor) {
    out.extend(t.data().iter().map(|v| v.to_bits()));
}

/// Interprets a pre-generated opcode tape into a graph of `[b, d]`
/// intermediates. Every opcode yields a new var; operands are picked from
/// earlier vars (so refcounts vary), and unpicked vars become dead code
/// the plan must skip without disturbing live buffers. Returns
/// `(scalar loss, last intermediate)`.
fn build_random<'t, 's>(
    sess: &mut Session<'t, 's>,
    params: &[ParamId],
    xs: &[Var<'t>],
    meta: &[usize],
) -> (Var<'t>, Var<'t>) {
    let x = xs[0]; // [b, d]
    let sh = x.shape();
    let (b, d) = (sh[0], sh[1]);
    let mut vars: Vec<Var<'t>> = vec![x];
    for chunk in meta.chunks_exact(3) {
        let (code, p1, p2) = (chunk[0], chunk[1], chunk[2]);
        let a = vars[p1 % vars.len()];
        let c = vars[p2 % vars.len()];
        let v = match code % 10 {
            0 => a.tanh().scale(0.5).add_scalar(0.1),
            1 => a.sigmoid().mul(c.relu()),
            2 => a.add(c),
            3 => a.sub(c).leaky_relu(0.1),
            4 => a.div(c.abs().add_scalar(1.0)),
            5 => a.matmul(sess.param(params[p2 % params.len()])),
            6 => a.reshape(&[b * d]).exp().scale(0.25).reshape(&[b, d]),
            7 => a.permute(&[1, 0]).permute(&[1, 0]).add_scalar(0.01),
            8 => {
                if b >= 2 {
                    let half = b / 2;
                    sess.tape()
                        .concat(&[a.narrow(0, 0, half), a.narrow(0, half, b - half)], 0)
                } else {
                    a.softmax(1)
                }
            }
            _ => a.detach().mul(c.softmax(1)),
        };
        vars.push(v);
    }
    let mut loss = vars[vars.len() - 1].mean_all();
    for v in vars.iter().rev().skip(1).take(2) {
        loss = loss.add(v.mean_all());
    }
    (loss, *vars.last().unwrap())
}

/// The window-form gated TCN (`urcl_nn::GatedTcn`): a projected
/// `[b, k, n, c]` window gathered into one `[b·n, c·k]` tap matrix that
/// both branch GEMMs read forward and both weight gradients read
/// backward, so its buffer must outlive every one of those reads.
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

type Build =
    for<'t, 's> fn(&mut Session<'t, 's>, &[ParamId], &[Var<'t>], &[usize]) -> (Var<'t>, Var<'t>);

/// Trains for [`STEPS`] steps and returns every observable as one flat
/// bit vector: per-step losses and aux outputs, final grads, final params.
fn run_engine(
    build: Build,
    store0: &ParamStore,
    params: &[ParamId],
    step_inputs: &[Tensor],
    meta: &[usize],
    use_plan: bool,
) -> Vec<u32> {
    let mut store = store0.clone();
    let mut opt = Adam::new(1e-3);
    let mut out = Vec::new();

    let compiled = if use_plan {
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(step_inputs[0].clone());
        let (loss, aux) = build(&mut sess, params, &[x], meta);
        let binds = sess.into_bindings();
        let train = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &[x.index()],
                outputs: &[],
                bindings: &binds,
                poly: None,
            },
        );
        let fwd = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: None,
                inputs: &[x.index()],
                outputs: &[aux.index()],
                bindings: &binds,
                poly: None,
            },
        );
        Some((train, fwd))
    } else {
        None
    };

    for input in step_inputs {
        match &compiled {
            Some((train, fwd)) => {
                bits_of(&mut out, &fwd.run_forward(&store, &[input])[0]);
                store.zero_grads();
                let (l, grads) = train.run_training(&store, &[input]);
                store.accumulate_grads(train.bindings(), &grads);
                out.push(l.item().to_bits());
            }
            None => {
                let tape = Tape::new();
                let mut sess = Session::new(&tape, &store);
                let x = sess.input(input.clone());
                let (loss, aux) = build(&mut sess, params, &[x], meta);
                bits_of(&mut out, &tape.value(aux));
                let grads = tape.backward(loss);
                let binds = sess.into_bindings();
                store.zero_grads();
                store.accumulate_grads(&binds, &grads);
                out.push(tape.value(loss).item().to_bits());
            }
        }
        opt.step(&mut store);
    }
    for &id in params {
        bits_of(&mut out, store.grad(id));
        bits_of(&mut out, store.value(id));
    }
    out
}

/// Asserts bitwise equality against the reference and that no NaN leaked
/// into any observable.
fn check_poisoned(label: &str, reference: &[u32], poisoned: &[u32]) {
    assert_eq!(reference.len(), poisoned.len(), "{label}: observable count");
    for (i, (r, p)) in reference.iter().zip(poisoned).enumerate() {
        let pv = f32::from_bits(*p);
        assert!(
            !pv.is_nan(),
            "{label}: observable {i} is NaN — a buffer was read after release \
             or before initialization"
        );
        assert_eq!(r, p, "{label}: observable {i} diverged under poisoning: {:?} vs {pv:?}",
            f32::from_bits(*r));
    }
}

fn run_case(
    label: &str,
    build: Build,
    store: &ParamStore,
    params: &[ParamId],
    step_inputs: &[Tensor],
    meta: &[usize],
) {
    for threads in [1usize, 4] {
        let prev_threads = set_threads(threads);
        let reference = run_engine(build, store, params, step_inputs, meta, false);
        let prev_poison = set_pool_poison(true);
        let plan = run_engine(build, store, params, step_inputs, meta, true);
        let interp = run_engine(build, store, params, step_inputs, meta, false);
        set_pool_poison(prev_poison);
        set_threads(prev_threads);
        check_poisoned(&format!("{label} plan {threads}t"), &reference, &plan);
        check_poisoned(&format!("{label} interp {threads}t"), &reference, &interp);
    }
}

#[test]
fn random_graphs_survive_pool_poisoning() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x11FE_7135);

    for case in 0..8 {
        let b = 1 + (rng.next_u64() % 5) as usize;
        let d = 1 + (rng.next_u64() % 6) as usize;
        let n_ops = 4 + (rng.next_u64() % 9) as usize;
        let meta: Vec<usize> = (0..3 * n_ops).map(|_| rng.next_u64() as usize).collect();
        let mut store = ParamStore::new();
        let params: Vec<ParamId> = (0..2)
            .map(|i| store.add(format!("w{i}"), rng.uniform_tensor(&[d, d], -0.8, 0.8)))
            .collect();
        let step_inputs: Vec<Tensor> = (0..STEPS)
            .map(|_| rng.uniform_tensor(&[b, d], -1.0, 1.0))
            .collect();
        run_case(
            &format!("random case {case} b{b} d{d} ops{n_ops}"),
            build_random,
            &store,
            &params,
            &step_inputs,
            &meta,
        );
    }

}

#[test]
fn gated_tcn_window_survives_pool_poisoning() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x11FE_7136);

    // (b, n, c0, cin, cout, k): kernel-2 and kernel-3 layers, a tap
    // width past one GEMM k-block (cin*k = 260 > KC), then row-count
    // churn.
    let mut cases = vec![(3, 5, 2, 8, 8, 2), (2, 4, 3, 6, 5, 3), (2, 3, 2, 130, 4, 2)];
    for _ in 0..3 {
        let b = 1 + (rng.next_u64() % 4) as usize;
        let n = 1 + (rng.next_u64() % 6) as usize;
        let k = 2 + (rng.next_u64() % 2) as usize;
        cases.push((b, n, 2, 4, 3, k));
    }
    for (b, n, c0, cin, cout, k) in cases {
        let mut store = ParamStore::new();
        let params = vec![
            store.add("win", rng.uniform_tensor(&[c0, cin], -0.7, 0.7)),
            store.add("wf", rng.uniform_tensor(&[cout, cin, k], -0.7, 0.7)),
            store.add("bf", rng.uniform_tensor(&[cout], -0.3, 0.3)),
            store.add("wg", rng.uniform_tensor(&[cout, cin, k], -0.7, 0.7)),
            store.add("bg", rng.uniform_tensor(&[cout], -0.3, 0.3)),
        ];
        let step_inputs: Vec<Tensor> = (0..STEPS)
            .map(|_| rng.uniform_tensor(&[b, k, n, c0], -1.0, 1.0))
            .collect();
        run_case(
            &format!("gated tcn b{b} n{n} c{c0}->{cin}x{cout} k{k}"),
            build_gated_tcn,
            &store,
            &params,
            &step_inputs,
            &[k],
        );
    }
}

/// Graph with a second, non-batch dynamic input: a `[d, d]` mixing mask
/// standing in for the trainer's promoted augmentation slots (graph
/// supports, contrastive masks). `x` is batch-led, `m` is not — exactly
/// the mixed-input shape profile a poly plan must keep straight.
fn build_masked<'t, 's>(
    sess: &mut Session<'t, 's>,
    params: &[ParamId],
    xs: &[Var<'t>],
    _meta: &[usize],
) -> (Var<'t>, Var<'t>) {
    let (x, m) = (xs[0], xs[1]); // [b, d], [d, d]
    let h = x
        .tanh()
        .matmul(m)
        .add(x.matmul(sess.param(params[0])))
        .relu();
    let g = h.matmul(m.softmax(1)).sigmoid().mul(h);
    (g.abs().mean_all(), g)
}

/// Trains over a schedule that churns BOTH the batch size and the mask
/// tensor per step, replaying one batch-polymorphic plan (dual-recorded
/// at batch 3 and 4). Observables as raw bits, same layout as
/// [`run_engine`].
fn run_masked(
    store0: &ParamStore,
    params: &[ParamId],
    steps: &[(Tensor, Tensor)],
    use_plan: bool,
) -> Vec<u32> {
    let mut store = store0.clone();
    let mut opt = Adam::new(1e-3);
    let mut out = Vec::new();

    let compiled = if use_plan {
        let record = |x: &Tensor, m: &Tensor| {
            let tape = Tape::new();
            let (root, aux_idx, inputs, binds);
            {
                let mut sess = Session::new(&tape, &store);
                let xv = sess.input(x.clone());
                let mv = sess.input(m.clone());
                let (loss, aux) = build_masked(&mut sess, params, &[xv, mv], &[]);
                root = loss.index();
                aux_idx = aux.index();
                inputs = vec![xv.index(), mv.index()];
                binds = sess.into_bindings();
            }
            (tape, root, aux_idx, inputs, binds)
        };
        let (x0, m0) = &steps[0];
        let b0 = x0.shape()[0];
        let d = x0.shape()[1];
        let (tape0, root, aux, inputs, binds) = record(x0, m0);
        let (tape1, _, _, _, _) = record(&Tensor::zeros(&[b0 + 1, d]), m0);
        let train = ExecPlan::compile(
            &tape0,
            &PlanSpec {
                root: Some(root),
                inputs: &inputs,
                outputs: &[],
                bindings: &binds,
                poly: Some(PolySpec {
                    tape: &tape1,
                    batch0: b0,
                    batch1: b0 + 1,
                }),
            },
        );
        let fwd = ExecPlan::compile(
            &tape0,
            &PlanSpec {
                root: None,
                inputs: &inputs,
                outputs: &[aux],
                bindings: &binds,
                poly: Some(PolySpec {
                    tape: &tape1,
                    batch0: b0,
                    batch1: b0 + 1,
                }),
            },
        );
        assert!(
            train.is_poly() && fwd.is_poly(),
            "masked graph failed to compile batch-polymorphically"
        );
        Some((train, fwd))
    } else {
        None
    };

    for (x, m) in steps {
        match &compiled {
            Some((train, fwd)) => {
                assert!(
                    train.accepts(&[x, m]),
                    "poly plan rejected batch size {}",
                    x.shape()[0]
                );
                bits_of(&mut out, &fwd.run_forward(&store, &[x, m])[0]);
                store.zero_grads();
                let (l, grads) = train.run_training(&store, &[x, m]);
                store.accumulate_grads(train.bindings(), &grads);
                out.push(l.item().to_bits());
            }
            None => {
                let tape = Tape::new();
                let mut sess = Session::new(&tape, &store);
                let xv = sess.input(x.clone());
                let mv = sess.input(m.clone());
                let (loss, aux) = build_masked(&mut sess, params, &[xv, mv], &[]);
                bits_of(&mut out, &tape.value(aux));
                let grads = tape.backward(loss);
                let binds = sess.into_bindings();
                store.zero_grads();
                store.accumulate_grads(&binds, &grads);
                out.push(tape.value(loss).item().to_bits());
            }
        }
        opt.step(&mut store);
    }
    for &id in params {
        bits_of(&mut out, store.grad(id));
        bits_of(&mut out, store.value(id));
    }
    out
}

#[test]
fn poly_dynamic_input_replay_survives_pool_poisoning() {
    let _guard = lock();
    let mut rng = Rng::seed_from_u64(0x11FE_7137);

    let d = 5;
    let mut store = ParamStore::new();
    let params = vec![store.add("w", rng.uniform_tensor(&[d, d], -0.8, 0.8))];
    // Batch sizes churn around the recorded pair (3, 4); the mask input
    // is freshly drawn every step, so each replay rebinds both a new
    // batch-led shape and a new non-batch dynamic input.
    let schedule = [3usize, 5, 1, 4, 2, 3];
    let steps: Vec<(Tensor, Tensor)> = schedule
        .iter()
        .map(|&b| {
            (
                rng.uniform_tensor(&[b, d], -1.0, 1.0),
                rng.uniform_tensor(&[d, d], -1.0, 1.0),
            )
        })
        .collect();

    for threads in [1usize, 4] {
        let prev_threads = set_threads(threads);
        let reference = run_masked(&store, &params, &steps, false);
        let prev_poison = set_pool_poison(true);
        let plan = run_masked(&store, &params, &steps, true);
        let interp = run_masked(&store, &params, &steps, false);
        set_pool_poison(prev_poison);
        set_threads(prev_threads);
        check_poisoned(&format!("poly dynamic-input plan {threads}t"), &reference, &plan);
        check_poisoned(
            &format!("poly dynamic-input interp {threads}t"),
            &reference,
            &interp,
        );
    }

}
