//! MTGNN baseline (Wu et al., KDD 2020): graph structure *learned* from
//! node embeddings plus mix-hop propagation and temporal convolution. We
//! keep the learned graph and two-hop mix-hop propagation; the top-k
//! sparsification and inception kernels are simplified away (DESIGN.md).

use crate::backbone::{decoder::MlpDecoder, Backbone, BackboneConfig};
use urcl_nn::gcn::AdaptiveAdjacency;
use urcl_nn::linear::Linear;
use urcl_nn::tcn::GatedTcn;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// MTGNN: learned adjacency + mix-hop GCN + gated TCN.
pub struct Mtgnn {
    cfg: BackboneConfig,
    input_proj: Linear,
    graph: AdaptiveAdjacency,
    tcn: GatedTcn,
    hop0: Linear,
    hop1: Linear,
    hop2: Linear,
    latent_head: Linear,
    decoder: MlpDecoder,
    kernel: usize,
}

impl Mtgnn {
    /// Builds the model; `emb_dim` is the node-embedding width of the
    /// graph-learning layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        cfg: BackboneConfig,
        emb_dim: usize,
    ) -> Self {
        let h = cfg.hidden;
        let kernel = 2;
        assert!(cfg.input_steps >= kernel, "window too short for the TCN");
        Self {
            input_proj: Linear::new(store, rng, "mtgnn.in", cfg.channels, h, true),
            graph: AdaptiveAdjacency::new(store, rng, "mtgnn.graph", cfg.num_nodes, emb_dim),
            tcn: GatedTcn::new(store, rng, "mtgnn.tcn", h, h, kernel),
            hop0: Linear::new(store, rng, "mtgnn.hop0", h, h, true),
            hop1: Linear::new(store, rng, "mtgnn.hop1", h, h, false),
            hop2: Linear::new(store, rng, "mtgnn.hop2", h, h, false),
            latent_head: Linear::new(store, rng, "mtgnn.latent", h, cfg.latent, true),
            decoder: MlpDecoder::new(store, rng, "mtgnn.dec", cfg.latent, 64, cfg.horizon),
            cfg,
            kernel,
        }
    }
}

impl Backbone for Mtgnn {
    fn name(&self) -> &str {
        "MTGNN"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.check_input(&x);
        let [b, m, n, _c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let h = self.cfg.hidden;

        // Receptive field: the convolution's last position reads the
        // last `kernel` steps, the only ones projected.
        let k = self.kernel;
        let feat = self.input_proj.forward(sess, x.narrow(1, m - k, k)); // [B, k, N, h]

        // Temporal convolution down to the last time step: the window is
        // that position's taps, flattened (ci, ki).
        let taps = feat.permute(&[0, 2, 3, 1]).reshape(&[b * n, h * k]);
        let last = self.tcn.forward(sess, taps).reshape(&[b, n, h]); // [B, N, h]

        // Mix-hop propagation over the learned graph:
        // out = X W0 + (A X) W1 + (A² X) W2.
        let adj = self.graph.adjacency(sess);
        let ax = adj.matmul(last);
        let aax = adj.matmul(ax);
        let mixed = self
            .hop0
            .forward(sess, last)
            .add(self.hop1.forward(sess, ax))
            .add(self.hop2.forward(sess, aax))
            .relu();

        self.latent_head.forward(sess, mixed.add(last)).relu()
    }

    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
        self.decoder.forward(sess, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let cfg = BackboneConfig::small(6, 2, 12, 1);
        let model = Mtgnn::new(&mut store, &mut rng, cfg, 5);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 12, 6, 2], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 1, 6]);
    }

    #[test]
    fn learned_graph_receives_gradient() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let cfg = BackboneConfig::small(4, 1, 6, 1);
        let model = Mtgnn::new(&mut store, &mut rng, cfg, 3);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 6, 4, 1], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        let grads = tape.backward(y.powf(2.0).mean_all());
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        let mut graph_grads = 0.0;
        for id in store.ids() {
            if store.name(id).starts_with("mtgnn.graph") {
                graph_grads += store.grad(id).norm();
            }
        }
        assert!(graph_grads > 0.0, "graph-learning layer got no gradient");
    }
}
