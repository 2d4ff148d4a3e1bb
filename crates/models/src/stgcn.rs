//! STGCN baseline (Yu et al., IJCAI 2018): the "sandwich" block —
//! gated temporal convolution → Chebyshev graph convolution → gated
//! temporal convolution — followed by a readout on the final step.

use crate::backbone::{decoder::MlpDecoder, Backbone, BackboneConfig};
use urcl_graph::{cheb_polynomials, scaled_laplacian, SensorNetwork};
use urcl_nn::cheb::ChebGcn;
use urcl_nn::linear::Linear;
use urcl_nn::tcn::GatedTcn;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// STGCN: TCN → ChebGCN → TCN sandwich.
pub struct Stgcn {
    cfg: BackboneConfig,
    tcn1: GatedTcn,
    gcn: ChebGcn,
    tcn2: GatedTcn,
    kernel: usize,
    latent_head: Linear,
    decoder: MlpDecoder,
}

impl Stgcn {
    /// Builds the model with Chebyshev order `cheb_k` and temporal kernel
    /// size `kernel` (3 in the original paper).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        net: &SensorNetwork,
        cfg: BackboneConfig,
        cheb_k: usize,
        kernel: usize,
    ) -> Self {
        assert!(
            cfg.input_steps > 2 * (kernel - 1),
            "input window {} too short for two kernel-{kernel} convolutions",
            cfg.input_steps
        );
        let basis = cheb_polynomials(&scaled_laplacian(net.adjacency()), cheb_k);
        let h = cfg.hidden;
        let tcn1 = GatedTcn::new(store, rng, "stgcn.tcn1", cfg.channels, h, kernel, 1, 0);
        let gcn = ChebGcn::new(store, rng, "stgcn.gcn", h, h, basis);
        let tcn2 = GatedTcn::new(store, rng, "stgcn.tcn2", h, h, kernel, 1, 0);
        let latent_head = Linear::new(store, rng, "stgcn.latent", h, cfg.latent, true);
        let decoder = MlpDecoder::new(store, rng, "stgcn.dec", cfg.latent, 64, cfg.horizon);
        Self {
            cfg,
            tcn1,
            gcn,
            tcn2,
            kernel,
            latent_head,
            decoder,
        }
    }
}

impl Backbone for Stgcn {
    fn name(&self) -> &str {
        "STGCN"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.check_input(&x);
        let [b, window, n, c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let h = self.cfg.hidden;

        // Receptive field: two kernel-k convolutions leave one position,
        // which reads the last 2(k − 1) + 1 steps.
        let m = 2 * (self.kernel - 1) + 1;
        let x = x.narrow(1, window - m, m);

        // Temporal 1: [B, M, N, C] -> [B*N, C, M] -> conv -> [B*N, h, T1].
        let t1 = m - (self.kernel - 1);
        let conv_in = x.permute(&[0, 2, 3, 1]).reshape(&[b * n, c, m]);
        let conv1 = self.tcn1.forward(sess, conv_in);

        // Spatial: per time step Chebyshev GCN.
        let spatial_in = conv1
            .reshape(&[b, n, h, t1])
            .permute(&[0, 3, 1, 2])
            .reshape(&[b * t1, n, h]);
        let gcn_out = self.gcn.forward(sess, spatial_in).relu();

        // Temporal 2: the one remaining time step per node.
        let conv2_in = gcn_out
            .reshape(&[b, t1, n, h])
            .permute(&[0, 2, 3, 1])
            .reshape(&[b * n, h, t1]);
        let last = self.tcn2.forward(sess, conv2_in).reshape(&[b, n, h]);
        self.latent_head.forward(sess, last).relu()
    }

    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
        self.decoder.forward(sess, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;

    fn line(n: usize) -> SensorNetwork {
        let mut e = Vec::new();
        for i in 0..n - 1 {
            e.push((i, i + 1, 1.0));
            e.push((i + 1, i, 1.0));
        }
        SensorNetwork::from_edges(n, &e)
    }

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let net = line(5);
        let cfg = BackboneConfig::small(5, 3, 12, 1);
        let model = Stgcn::new(&mut store, &mut rng, &net, cfg, 3, 3);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 12, 5, 3], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 1, 5]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn window_shorter_than_two_kernels_rejected() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let net = line(3);
        let cfg = BackboneConfig::small(3, 1, 4, 1);
        let _ = Stgcn::new(&mut store, &mut rng, &net, cfg, 2, 3);
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let net = line(4);
        let cfg = BackboneConfig::small(4, 1, 8, 1);
        let model = Stgcn::new(&mut store, &mut rng, &net, cfg, 2, 2);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 8, 4, 1], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        let grads = tape.backward(y.powf(2.0).mean_all());
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        for id in store.ids() {
            assert!(store.grad(id).norm() > 0.0, "no grad for {}", store.name(id));
        }
    }
}
