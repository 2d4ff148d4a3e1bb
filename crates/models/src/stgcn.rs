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
        let tcn1 = GatedTcn::new(store, rng, "stgcn.tcn1", cfg.channels, h, kernel);
        let gcn = ChebGcn::new(store, rng, "stgcn.gcn", h, h, basis);
        let tcn2 = GatedTcn::new(store, rng, "stgcn.tcn2", h, h, kernel);
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

    /// The first gated TCN at the `k` positions the second one reads:
    /// two kernel-k convolutions leave one position, which reads the last
    /// `2(k − 1) + 1` steps, so position `to` reads the `k` steps from
    /// `to` on among them. Taps flattened `(ci, ki)`, rows ordered
    /// `(b, to, n)`: `[B, T, N, C] -> [B·k·N, h]`.
    fn temporal1<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let [b, window, n, c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let k = self.kernel;
        let first = window - (2 * (k - 1) + 1);
        let windows: Vec<_> = (0..k)
            .map(|to| x.narrow(1, first + to, k).reshape(&[b, 1, k, n, c]))
            .collect();
        let taps = sess
            .tape()
            .concat(&windows, 1) // [B, k(to), k(ki), N, C]
            .permute(&[0, 1, 3, 4, 2])
            .reshape(&[b * k * n, c * k]);
        self.tcn1.forward(sess, taps)
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
        let [b, _, n, _] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let h = self.cfg.hidden;

        // Temporal 1, then spatial: per time step Chebyshev GCN.
        let t1 = self.kernel;
        let spatial_in = self.temporal1(sess, x).reshape(&[b * t1, n, h]);
        let gcn_out = self.gcn.forward(sess, spatial_in).relu();

        // Temporal 2: the one remaining position per node reads all T1
        // steps, flattened (ci, ki).
        let taps2 = gcn_out
            .reshape(&[b, t1, n, h])
            .permute(&[0, 2, 3, 1])
            .reshape(&[b * n, h * t1]);
        let last = self.tcn2.forward(sess, taps2).reshape(&[b, n, h]);
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
    fn first_tcn_taps_match_plain_loop_bitwise() {
        // Pins the taps order: row (b, to, n), column co of the first TCN
        // is position `to` of the gated convolution over the last 2k − 1
        // steps, each branch a +0.0-seeded sum over (ci, ki) ascending,
        // then + bias.
        use urcl_tensor::activation::{sigmoid, tanh};
        use urcl_tensor::Tensor;
        let (n, c, window, k) = (5, 3, 12, 3);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let cfg = BackboneConfig::small(n, c, window, 1);
        let h = cfg.hidden;
        let model = Stgcn::new(&mut store, &mut rng, &line(n), cfg, 3, k);
        let id = |store: &ParamStore, name: &str| {
            store
                .ids()
                .find(|&i| store.name(i) == name)
                .expect("parameter")
        };
        // Biases start at zero; random ones make a misplaced add show.
        for branch in ["filter", "gate"] {
            let b = id(&store, &format!("stgcn.tcn1.{branch}.b"));
            *store.value_mut(b) = rng.normal_tensor(&[h], 0.0, 0.5);
        }
        let param = |name: &str| store.value(id(&store, name)).clone();
        let (wf, bf) = (param("stgcn.tcn1.filter.w"), param("stgcn.tcn1.filter.b"));
        let (wg, bg) = (param("stgcn.tcn1.gate.w"), param("stgcn.tcn1.gate.b"));
        let first = window - (2 * (k - 1) + 1);
        for batch in [1, 13] {
            let x = rng.normal_tensor(&[batch, window, n, c], 0.0, 1.0);
            let conv = |w: &Tensor, bias: &Tensor, bi: usize, to: usize, ni: usize, co: usize| {
                let mut sum = 0.0f32;
                for ci in 0..c {
                    for ki in 0..k {
                        sum += w.at(&[co, ci, ki]) * x.at(&[bi, first + to + ki, ni, ci]);
                    }
                }
                sum + bias.at(&[co])
            };
            let mut want = Vec::new();
            for bi in 0..batch {
                for to in 0..k {
                    for ni in 0..n {
                        for co in 0..h {
                            let f = tanh(conv(&wf, &bf, bi, to, ni, co));
                            let g = sigmoid(conv(&wg, &bg, bi, to, ni, co));
                            want.push((f * g).to_bits());
                        }
                    }
                }
            }
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x.clone());
            let got = model.temporal1(&mut sess, xv).value();
            assert_eq!(got.shape(), &[batch * k * n, h]);
            let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "batch {batch}");
        }
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
            assert!(
                store.grad(id).norm() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }
}
