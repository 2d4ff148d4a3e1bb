//! Finite-difference gradient checks for every `urcl-nn` layer.
//!
//! `urcl_tensor::gradcheck` already validates the raw autodiff ops; these
//! tests validate the *composed* layer graphs — input gradients via
//! [`check_scalar`] and parameter gradients via a store-level
//! finite-difference probe — so a wiring mistake inside a layer (wrong
//! transpose, dropped bias, bad reshape) fails here even if every
//! primitive op is correct.
//!
//! Inputs are drawn from the in-tree RNG with fixed seeds and kept away
//! from non-smooth points (ReLU kinks), matching the tolerances used by
//! the tensor crate's own checks.

use urcl_graph::{cheb_polynomials, random_geometric, scaled_laplacian, SupportSet};
use urcl_nn::linear::Activation;
use urcl_nn::{
    AdaptiveAdjacency, Attention, ChebGcn, Conv1dLayer, DcGruCell, DiffusionGcn, GatedTcn,
    GruCell, Linear, Mlp,
};
use urcl_tensor::autodiff::{Session, Tape, Var};
use urcl_tensor::gradcheck::check_scalar;
use urcl_tensor::{ParamId, ParamStore, Rng, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// At most this many coordinates are probed per parameter tensor; larger
/// tensors are stride-sampled. Two rebuilds per coordinate keeps runtime
/// bounded while still covering every row/column pattern.
const MAX_COORDS: usize = 24;

/// Finite-difference check of d(loss)/d(param `pname`) against the tape
/// gradient. `f` rebuilds the loss graph from scratch on each call and
/// returns the scalar loss plus the session's parameter bindings.
fn check_param<F>(store: &mut ParamStore, pname: &str, eps: f32, tol: f32, f: F)
where
    F: for<'t> Fn(&'t Tape, &ParamStore) -> (Var<'t>, Vec<(ParamId, usize)>),
{
    let id = store
        .ids()
        .find(|&i| store.name(i) == pname)
        .unwrap_or_else(|| panic!("no parameter named {pname}"));

    store.zero_grads();
    let analytic = {
        let tape = Tape::new();
        let (loss, binds) = f(&tape, store);
        let grads = tape.backward(loss);
        store.accumulate_grads(&binds, &grads);
        store.grad(id).clone()
    };

    let eval = |store: &ParamStore| -> f32 {
        let tape = Tape::new();
        let (loss, _) = f(&tape, store);
        loss.value().item()
    };

    let n = store.value(id).len();
    let stride = n.div_ceil(MAX_COORDS).max(1);
    for i in (0..n).step_by(stride) {
        let orig = store.value(id).data()[i];
        store.value_mut(id).data_mut()[i] = orig + eps;
        let plus = eval(store);
        store.value_mut(id).data_mut()[i] = orig - eps;
        let minus = eval(store);
        store.value_mut(id).data_mut()[i] = orig;
        let numeric = (plus - minus) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / numeric.abs().max(1.0);
        assert!(
            abs < tol && rel < tol,
            "param {pname}[{i}]: analytic {a} vs numeric {numeric} (abs {abs}, rel {rel})"
        );
    }
}

fn rand_t(shape: &[usize], seed: u64) -> Tensor {
    Rng::seed_from_u64(seed).uniform_tensor(shape, -1.0, 1.0)
}

// --- linear ---

#[test]
fn linear_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(1);
    let lin = Linear::new(&mut store, &mut rng, "lin", 4, 3, true);
    let x = rand_t(&[2, 5, 4], 2);
    {
        let store = &store;
        let lin = &lin;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            lin.forward(&mut sess, v).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["lin.w", "lin.b"] {
        let x = x.clone();
        let lin = lin.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(x.clone());
            let loss = lin.forward(&mut sess, v).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

#[test]
fn mlp_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(3);
    // Tanh keeps the graph smooth for finite differences.
    let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[4, 6, 2], Activation::Tanh);
    let x = rand_t(&[3, 4], 4);
    {
        let store = &store;
        let mlp = &mlp;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            mlp.forward(&mut sess, v).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    let mlp2 = mlp.clone();
    check_param(&mut store, "mlp.0.w", EPS, TOL, move |t, s| {
        let mut sess = Session::new(t, s);
        let v = sess.input(x.clone());
        let loss = mlp2.forward(&mut sess, v).powf(2.0).sum_all();
        (loss, sess.into_bindings())
    });
}

// --- attention ---

#[test]
fn attention_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(5);
    let attn = Attention::new(&mut store, &mut rng, "a", 4, 6);
    let x = rand_t(&[2, 3, 4], 6);
    {
        let store = &store;
        let attn = &attn;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            attn.forward(&mut sess, v, v, v).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["a.wq.w", "a.wk.w", "a.wv.w"] {
        let x = x.clone();
        let attn = attn.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(x.clone());
            let loss = attn.forward(&mut sess, v, v, v).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

// --- cheb ---

#[test]
fn cheb_gcn_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(7);
    let net = random_geometric(5, 0.9, &mut rng);
    let basis = cheb_polynomials(&scaled_laplacian(net.adjacency()), 3);
    let cheb = ChebGcn::new(&mut store, &mut rng, "c", 3, 2, basis);
    let x = rand_t(&[2, 5, 3], 8);
    {
        let store = &store;
        let cheb = &cheb;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            cheb.forward(&mut sess, v).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["c.t0", "c.t2", "c.b"] {
        let x = x.clone();
        let cheb = cheb.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(x.clone());
            let loss = cheb.forward(&mut sess, v).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

// --- gcn ---

#[test]
fn diffusion_gcn_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(9);
    let net = random_geometric(5, 0.9, &mut rng);
    let supports = SupportSet::diffusion(&net, 2);
    let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 3, 2, supports, false);
    let x = rand_t(&[2, 5, 3], 10);
    {
        let store = &store;
        let gcn = &gcn;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            gcn.forward(&mut sess, v, None).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["g.w0", "g.b"] {
        let x = x.clone();
        let gcn = gcn.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(x.clone());
            let loss = gcn.forward(&mut sess, v, None).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

#[test]
fn adaptive_adjacency_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(11);
    let adp = AdaptiveAdjacency::new(&mut store, &mut rng, "adp", 5, 4);
    // The adjacency applies relu(E1 E2ᵀ); positive embeddings keep every
    // pre-activation away from the kink so central differences are valid.
    for id in store.ids().collect::<Vec<_>>() {
        let shape = store.value(id).shape().to_vec();
        *store.value_mut(id) = rng.uniform_tensor(&shape, 0.1, 0.6);
    }
    let w = rand_t(&[5, 5], 12);
    for pname in ["adp.e1", "adp.e2"] {
        let w = w.clone();
        let adp = adp.clone();
        check_param(&mut store, pname, 1e-3, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let wv = sess.input(w.clone());
            let loss = adp.adjacency(&mut sess).mul(wv).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

// --- gru ---

#[test]
fn gru_cell_two_step_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(13);
    let cell = GruCell::new(&mut store, &mut rng, "g", 3, 4);
    let x = rand_t(&[2, 3], 14);
    // Two chained steps exercise the recurrent path h -> h'.
    {
        let store = &store;
        let cell = &cell;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            let h0 = sess.input(Tensor::zeros(&[2, 4]));
            let h1 = cell.step(&mut sess, v, h0);
            let h2 = cell.step(&mut sess, v, h1);
            h2.powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["g.z.w", "g.r.w", "g.c.w", "g.c.b"] {
        let x = x.clone();
        let cell = cell.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(x.clone());
            let h0 = sess.input(Tensor::zeros(&[2, 4]));
            let h1 = cell.step(&mut sess, v, h0);
            let h2 = cell.step(&mut sess, v, h1);
            (h2.powf(2.0).sum_all(), sess.into_bindings())
        });
    }
}

#[test]
fn dcgru_cell_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(15);
    let net = random_geometric(4, 0.9, &mut rng);
    let supports = SupportSet::diffusion(&net, 1);
    let cell = DcGruCell::new(&mut store, &mut rng, "d", 2, 3, supports);
    let x = rand_t(&[2, 4, 2], 16);
    {
        let store = &store;
        let cell = &cell;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            let h0 = sess.input(Tensor::zeros(&[2, 4, 3]));
            cell.step(&mut sess, v, h0).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    let cell2 = cell.clone();
    check_param(&mut store, "d.z.w0", EPS, TOL, move |t, s| {
        let mut sess = Session::new(t, s);
        let v = sess.input(x.clone());
        let h0 = sess.input(Tensor::zeros(&[2, 4, 3]));
        let loss = cell2.step(&mut sess, v, h0).powf(2.0).sum_all();
        (loss, sess.into_bindings())
    });
}

// --- tcn ---

#[test]
fn conv_layer_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(21);
    let conv = Conv1dLayer::new(&mut store, &mut rng, "tw", 3, 2, 2);
    let taps = rand_t(&[5, 6], 22);
    {
        let store = &store;
        let conv = &conv;
        check_scalar(&taps, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            conv.forward(&mut sess, v).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["tw.w", "tw.b"] {
        let taps = taps.clone();
        let conv = conv.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(taps.clone());
            let loss = conv.forward(&mut sess, v).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

/// Gathers the taps of a causal, dilated temporal convolution from a
/// `[B, C, T]` sequence the way the backbones do: `pad_left` zero steps
/// in front, output position `to` reads padded steps `to + dilation·ki`,
/// rows `(b, to)`, columns flattened `(ci, ki)`: `[B·T_out, C·K]`.
fn causal_taps<'t>(
    tape: &'t Tape,
    x: Var<'t>,
    kernel: usize,
    dilation: usize,
    pad_left: usize,
) -> Var<'t> {
    let [b, c, len] = <[usize; 3]>::try_from(x.shape()).expect("3-D input");
    let pad = tape.constant(Tensor::zeros(&[b, c, pad_left]));
    let padded = tape.concat(&[pad, x], 2);
    let t_out = len + pad_left - dilation * (kernel - 1);
    let windows: Vec<_> = (0..kernel)
        .map(|ki| {
            padded
                .narrow(2, dilation * ki, t_out)
                .reshape(&[b, c, t_out, 1])
        })
        .collect();
    tape.concat(&windows, 3) // [B, C, T_out, K]
        .permute(&[0, 2, 1, 3])
        .reshape(&[b * t_out, c * kernel])
}

#[test]
fn gated_tcn_input_and_param_grads() {
    // A [B, C, T] sequence through a dilation-2, causally padded gated TCN:
    // the input gradient flows back through the tap gather.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(19);
    let tcn = GatedTcn::new(&mut store, &mut rng, "gt", 3, 2, 2);
    let x = rand_t(&[2, 3, 6], 20);
    {
        let store = &store;
        let tcn = &tcn;
        check_scalar(&x, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            let taps = causal_taps(t, v, 2, 2, 2);
            tcn.forward(&mut sess, taps).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["gt.filter.w", "gt.gate.w"] {
        let x = x.clone();
        let tcn = tcn.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(x.clone());
            let taps = causal_taps(t, v, 2, 2, 2);
            let loss = tcn.forward(&mut sess, taps).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}

#[test]
fn gated_tcn_window_form_input_and_param_grads() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(23);
    let tcn = GatedTcn::new(&mut store, &mut rng, "gw", 3, 2, 2);
    let taps = rand_t(&[4, 6], 24);
    {
        let store = &store;
        let tcn = &tcn;
        check_scalar(&taps, EPS, |t, v| {
            let mut sess = Session::new(t, store);
            tcn.forward(&mut sess, v).powf(2.0).sum_all()
        })
        .assert_close(TOL);
    }
    for pname in ["gw.filter.w", "gw.filter.b", "gw.gate.w", "gw.gate.b"] {
        let taps = taps.clone();
        let tcn = tcn.clone();
        check_param(&mut store, pname, EPS, TOL, move |t, s| {
            let mut sess = Session::new(t, s);
            let v = sess.input(taps.clone());
            let loss = tcn.forward(&mut sess, v).powf(2.0).sum_all();
            (loss, sess.into_bindings())
        });
    }
}
