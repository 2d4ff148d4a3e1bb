//! DCRNN baseline (Li et al., ICLR 2018): a diffusion-convolutional GRU
//! encoder unrolled over the input window. The paper's evaluation predicts
//! a single step (`N = 1`), so the recurrent decoder with scheduled
//! sampling reduces to a per-node readout; we document that simplification
//! in DESIGN.md.

use crate::backbone::{
    decoder::MlpDecoder, diffusion_supports, zero_state, Backbone, BackboneConfig,
};
use urcl_graph::{SensorNetwork, SupportSet};
use urcl_nn::gru::DcGruCell;
use urcl_nn::linear::Linear;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// DCRNN: DCGRU encoder + per-node MLP readout.
pub struct Dcrnn {
    cfg: BackboneConfig,
    /// The sensor graph's diffusion supports, which every gate of every
    /// step diffuses over.
    supports: SupportSet,
    cell: DcGruCell,
    latent_head: Linear,
    decoder: MlpDecoder,
}

impl Dcrnn {
    /// Builds the model with `k_diffusion` diffusion steps in each gate.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        net: &SensorNetwork,
        cfg: BackboneConfig,
        k_diffusion: usize,
    ) -> Self {
        let supports = SupportSet::diffusion(net, k_diffusion);
        let cell = DcGruCell::new(
            store,
            rng,
            "dcrnn.cell",
            cfg.channels,
            cfg.hidden,
            supports.len(),
        );
        let latent_head = Linear::new(store, rng, "dcrnn.latent", cfg.hidden, cfg.latent, true);
        let decoder = MlpDecoder::new(store, rng, "dcrnn.dec", cfg.latent, 64, cfg.horizon);
        Self {
            cfg,
            supports,
            cell,
            latent_head,
            decoder,
        }
    }
}

impl Backbone for Dcrnn {
    fn name(&self) -> &str {
        "DCRNN"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn support_template(&self) -> Option<&SupportSet> {
        Some(&self.supports)
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.encode_perturbed(sess, x, None)
    }

    fn encode_perturbed<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        supports: Option<&[Var<'t>]>,
    ) -> Var<'t> {
        self.check_input(&x);
        let [b, m, n, c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let supports = diffusion_supports(sess, &self.supports, supports);
        let mut h = zero_state(sess, x, self.cfg.hidden);
        for t in 0..m {
            let xt = x.narrow(1, t, 1).reshape(&[b, n, c]);
            h = self.cell.step(sess, xt, h, &supports);
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

    fn ring(n: usize) -> SensorNetwork {
        let mut e = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            e.push((i, j, 1.0));
            e.push((j, i, 1.0));
        }
        SensorNetwork::from_edges(n, &e)
    }

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let net = ring(4);
        let cfg = BackboneConfig::small(4, 2, 6, 1);
        let model = Dcrnn::new(&mut store, &mut rng, &net, cfg, 2);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 6, 4, 2], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 1, 4]);
    }

    #[test]
    fn trains_on_fixed_batch() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let net = ring(3);
        let cfg = BackboneConfig::small(3, 1, 5, 1);
        let model = Dcrnn::new(&mut store, &mut rng, &net, cfg, 1);
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
