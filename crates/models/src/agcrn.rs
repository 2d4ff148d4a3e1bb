//! AGCRN baseline (Bai et al., NeurIPS 2020): a recurrent model whose
//! defining features are (a) **NAPL** — node-adaptive parameter learning,
//! where each node's layer weights are generated from a learned node
//! embedding — and (b) a fully learned adjacency used inside the gates.

use crate::backbone::{decoder::MlpDecoder, zero_state, Backbone, BackboneConfig};
use urcl_nn::linear::Linear;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamId, ParamStore, Rng, Tensor};

/// Node-adaptive linear layer: per-node weights `W_i = E_i · W_pool`
/// generated from a shared node-embedding table.
#[derive(Debug, Clone)]
struct NaplLinear {
    w_pool: ParamId,
    b_pool: ParamId,
    in_dim: usize,
    out_dim: usize,
    emb_dim: usize,
}

impl NaplLinear {
    fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        emb_dim: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w_pool = store.add(
            format!("{name}.wpool"),
            rng.normal_tensor(&[emb_dim, in_dim * out_dim], 0.0, 0.1),
        );
        let b_pool = store.add(format!("{name}.bpool"), Tensor::zeros(&[emb_dim, out_dim]));
        Self {
            w_pool,
            b_pool,
            in_dim,
            out_dim,
            emb_dim,
        }
    }

    /// `x: [B, N, in]`, `emb: [N, d]` → `[B, N, out]`.
    fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>, emb: Var<'t>) -> Var<'t> {
        let shape = x.shape();
        let (b, n) = (shape[0], shape[1]);
        assert_eq!(shape[2], self.in_dim, "NAPL input dim mismatch");
        let w_pool = sess.param(self.w_pool);
        let b_pool = sess.param(self.b_pool);
        let _ = self.emb_dim;
        // Per-node weights [N, in, out] and biases [N, out].
        let w = emb.matmul(w_pool).reshape(&[n, self.in_dim, self.out_dim]);
        let bias = emb.matmul(b_pool); // [N, out]
                                       // Batched per-node matmul: [B, N, 1, in] @ [N, in, out] -> [B, N, 1, out].
        let x4 = x.reshape(&[b, n, 1, self.in_dim]);
        let y = x4.matmul(w).reshape(&[b, n, self.out_dim]);
        y.add(bias)
    }
}

/// AGCRN: NAPL-gated recurrent cell over a learned adjacency.
pub struct Agcrn {
    cfg: BackboneConfig,
    emb: ParamId,
    update: NaplLinear,
    reset: NaplLinear,
    candidate: NaplLinear,
    latent_head: Linear,
    decoder: MlpDecoder,
}

impl Agcrn {
    /// Builds the model; `emb_dim` is the node-embedding width shared by
    /// NAPL and the learned adjacency.
    pub fn new(store: &mut ParamStore, rng: &mut Rng, cfg: BackboneConfig, emb_dim: usize) -> Self {
        let emb = store.add(
            "agcrn.emb",
            rng.normal_tensor(&[cfg.num_nodes, emb_dim], 0.0, 0.1),
        );
        let cat = cfg.channels + cfg.hidden;
        Self {
            update: NaplLinear::new(store, rng, "agcrn.z", emb_dim, cat, cfg.hidden),
            reset: NaplLinear::new(store, rng, "agcrn.r", emb_dim, cat, cfg.hidden),
            candidate: NaplLinear::new(store, rng, "agcrn.c", emb_dim, cat, cfg.hidden),
            latent_head: Linear::new(store, rng, "agcrn.latent", cfg.hidden, cfg.latent, true),
            decoder: MlpDecoder::new(store, rng, "agcrn.dec", cfg.latent, 64, cfg.horizon),
            cfg,
            emb,
        }
    }

    /// Learned adjacency `softmax(relu(E Eᵀ))`.
    fn adjacency<'t>(&self, sess: &mut Session<'t, '_>) -> Var<'t> {
        let e = sess.param(self.emb);
        e.matmul(e.transpose(0, 1)).relu().softmax(1)
    }
}

impl Backbone for Agcrn {
    fn name(&self) -> &str {
        "AGCRN"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.check_input(&x);
        let [b, m, n, c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let adj = self.adjacency(sess);
        let emb = sess.param(self.emb);
        let tape = sess.tape();
        let mut h = zero_state(sess, x, self.cfg.hidden);
        for t in 0..m {
            let xt = x.narrow(1, t, 1).reshape(&[b, n, c]);
            // Graph-mix the concatenated state before each gate (AGCRN's
            // "adaptive graph convolution" with the learned adjacency).
            let xh = adj.matmul(tape.concat(&[xt, h], 2));
            let z = self.update.forward(sess, xh, emb).sigmoid();
            let r = self.reset.forward(sess, xh, emb).sigmoid();
            let xrh = adj.matmul(tape.concat(&[xt, r.mul(h)], 2));
            let cand = self.candidate.forward(sess, xrh, emb).tanh();
            h = z.mul(h).add(z.neg().add_scalar(1.0).mul(cand));
        }
        self.latent_head.forward(sess, h).relu()
    }

    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
        self.decoder.forward(sess, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::Adam;

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let cfg = BackboneConfig::small(5, 3, 6, 1);
        let model = Agcrn::new(&mut store, &mut rng, cfg, 4);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 6, 5, 3], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 1, 5]);
    }

    #[test]
    fn napl_generates_distinct_per_node_weights() {
        // Two nodes with different embeddings must transform identical
        // inputs differently.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let napl = NaplLinear::new(&mut store, &mut rng, "t", 2, 1, 1);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let emb = sess.input(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
        let x = sess.input(Tensor::ones(&[1, 2, 1]));
        let y = napl.forward(&mut sess, x, emb).value();
        assert!(
            (y.data()[0] - y.data()[1]).abs() > 1e-6,
            "per-node weights identical: {y:?}"
        );
    }

    #[test]
    fn trains_on_fixed_batch() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let cfg = BackboneConfig::small(3, 1, 5, 1);
        let model = Agcrn::new(&mut store, &mut rng, cfg, 3);
        let x = rng.uniform_tensor(&[4, 5, 3, 1], 0.0, 1.0);
        let y = rng.uniform_tensor(&[4, 1, 3], 0.0, 1.0);
        let mut opt = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let loss = model.forward(&mut sess, xv).sub(yv).abs().mean_all();
            last = loss.value().item();
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            opt.step(&mut store);
        }
        assert!(
            last < first.unwrap() * 0.7,
            "no learning: {first:?} -> {last}"
        );
    }
}
