//! Buffer pooling must be invisible to numerics: a full training loop run
//! at 1 and 4 threads, with recycled buffers holding stale values or NaN
//! poison ([`set_pool_poison`]), must produce bitwise-identical
//! parameters, gradients and evaluation error. The pool only hands out
//! buffers that are either zeroed or fully overwritten before first read,
//! so any divergence here is a correctness bug, not a tolerance issue.
//!
//! Also verifies the steady-state claim behind the optimisation: after a
//! few warmup steps every buffer shape the step needs is cached, so
//! further steps hit the free lists exclusively (zero pool misses).
//!
//! [`set_pool_poison`]/[`set_threads`] mutate process-global state, so
//! every test serializes on a file-local mutex and restores what it
//! changed.

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::{
    buffer_pool_stats, reset_buffer_pool_stats, set_pool_poison, set_threads, Adam, ParamId,
    ParamStore, Rng, Tensor,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Two-layer MLP regression parameters, sized so the matmuls cross the
/// parallel-dispatch threshold and exercise the tiled GEMM.
struct Mlp {
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

const BATCH: usize = 48;
const IN: usize = 64;
const HIDDEN: usize = 96;
const OUT: usize = 32;

fn build_model(store: &mut ParamStore, rng: &mut Rng) -> Mlp {
    Mlp {
        w1: store.add("w1", rng.glorot(&[IN, HIDDEN])),
        b1: store.add("b1", Tensor::zeros(&[HIDDEN])),
        w2: store.add("w2", rng.glorot(&[HIDDEN, OUT])),
        b2: store.add("b2", Tensor::zeros(&[OUT])),
    }
}

/// One forward/backward/update step; returns the mean absolute error of
/// the step's predictions against the targets.
fn train_step(model: &Mlp, store: &mut ParamStore, opt: &mut Adam, x: Tensor, y: Tensor) -> f32 {
    store.zero_grads();
    let tape = Tape::new();
    let mut sess = Session::new(&tape, store);
    let (w1, b1, w2, b2) = (
        sess.param(model.w1),
        sess.param(model.b1),
        sess.param(model.w2),
        sess.param(model.b2),
    );
    let xv = sess.input(x);
    let yv = sess.input(y);
    let h = xv.matmul(w1).add(b1).relu();
    let pred = h.matmul(w2).add(b2);
    let err = pred.sub(yv);
    let mae = tape.value(err.abs().mean_all()).item();
    let loss = err.mul(err).mean_all();
    let grads = tape.backward(loss);
    let binds = sess.into_bindings();
    store.accumulate_grads(&binds, &grads);
    opt.step(store);
    mae
}

/// Runs `steps` fixed-seed training steps and returns the bit patterns of
/// every parameter, every final gradient buffer, and the last-step MAE.
fn run_training(steps: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, u32) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(0x5EED_5);
    let model = build_model(&mut store, &mut rng);
    let mut opt = Adam::new(1e-3);
    let mut mae = 0.0f32;
    for _ in 0..steps {
        let x = rng.uniform_tensor(&[BATCH, IN], -1.0, 1.0);
        let y = rng.uniform_tensor(&[BATCH, OUT], -1.0, 1.0);
        mae = train_step(&model, &mut store, &mut opt, x, y);
    }
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let params = store.ids().map(|id| bits(store.value(id))).collect();
    let grads = store.ids().map(|id| bits(store.grad(id))).collect();
    (params, grads, mae.to_bits())
}

#[test]
fn pooling_and_threads_do_not_change_any_bit() {
    let _guard = lock();
    let prev_threads = set_threads(1);
    let prev_poison = set_pool_poison(false);

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        for poison in [false, true] {
            set_threads(threads);
            set_pool_poison(poison);
            runs.push(((threads, poison), run_training(8)));
        }
    }

    set_threads(prev_threads);
    set_pool_poison(prev_poison);

    let ((_, _), reference) = &runs[0];
    for ((threads, poison), result) in &runs[1..] {
        assert_eq!(
            result, reference,
            "run at {threads} threads, poison={poison} diverged from \
             the 1-thread reference"
        );
    }
}

#[test]
fn steady_state_training_has_zero_pool_misses() {
    let _guard = lock();
    let prev_threads = set_threads(4);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(0x5EED_6);
    let model = build_model(&mut store, &mut rng);
    let mut opt = Adam::new(1e-3);

    // Warmup: first steps populate the free lists (and Adam's moment
    // buffers) with every shape the step allocates.
    for _ in 0..3 {
        let x = rng.uniform_tensor(&[BATCH, IN], -1.0, 1.0);
        let y = rng.uniform_tensor(&[BATCH, OUT], -1.0, 1.0);
        train_step(&model, &mut store, &mut opt, x, y);
    }

    reset_buffer_pool_stats();
    for _ in 0..5 {
        let x = rng.uniform_tensor(&[BATCH, IN], -1.0, 1.0);
        let y = rng.uniform_tensor(&[BATCH, OUT], -1.0, 1.0);
        train_step(&model, &mut store, &mut opt, x, y);
    }
    let stats = buffer_pool_stats();

    set_threads(prev_threads);

    assert_eq!(
        stats.misses, 0,
        "steady-state steps allocated fresh buffers: {stats:?}"
    );
    assert!(stats.hits > 0, "pool saw no traffic at all: {stats:?}");
    assert!(
        stats.bytes_recycled > 0,
        "nothing returned to the pool: {stats:?}"
    );
}
