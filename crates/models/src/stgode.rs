//! STGODE baseline (Fang et al., KDD 2021): a graph ordinary-differential
//! block — features evolve under `dh/dt = (P h) W + h₀ − h` — integrated
//! with fixed-step Euler (the original uses an adaptive solver; the
//! architecture is unchanged), combined with temporal convolution.

use crate::backbone::{decoder::MlpDecoder, Backbone, BackboneConfig};
use urcl_graph::{transition_matrix, SensorNetwork};
use urcl_nn::linear::Linear;
use urcl_nn::tcn::GatedTcn;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng, Tensor};

/// STGODE: gated TCN front-end + Euler-integrated graph ODE block.
pub struct Stgode {
    cfg: BackboneConfig,
    input_proj: Linear,
    tcn: GatedTcn,
    ode_weight: Linear,
    transition: Tensor,
    steps: usize,
    dt: f32,
    latent_head: Linear,
    decoder: MlpDecoder,
    kernel: usize,
}

impl Stgode {
    /// Builds the model; `steps` Euler steps of size `dt` integrate the
    /// ODE block.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        net: &SensorNetwork,
        cfg: BackboneConfig,
        steps: usize,
        dt: f32,
    ) -> Self {
        let h = cfg.hidden;
        let kernel = 2;
        assert!(cfg.input_steps >= kernel, "window too short for the TCN");
        assert!(steps > 0 && dt > 0.0, "need positive integration steps");
        Self {
            input_proj: Linear::new(store, rng, "stgode.in", cfg.channels, h, true),
            tcn: GatedTcn::new(store, rng, "stgode.tcn", h, h, kernel),
            ode_weight: Linear::new(store, rng, "stgode.ode", h, h, false),
            transition: transition_matrix(net.adjacency()),
            steps,
            dt,
            latent_head: Linear::new(store, rng, "stgode.latent", h, cfg.latent, true),
            decoder: MlpDecoder::new(store, rng, "stgode.dec", cfg.latent, 64, cfg.horizon),
            cfg,
            kernel,
        }
    }
}

impl Backbone for Stgode {
    fn name(&self) -> &str {
        "STGODE"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.check_input(&x);
        let [b, m, n, _c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let hdim = self.cfg.hidden;

        // Receptive field: the convolution's last position reads the
        // last `kernel` steps, the only ones projected.
        let k = self.kernel;
        let feat = self.input_proj.forward(sess, x.narrow(1, m - k, k)); // [B, k, N, h]

        // The window is that position's taps, flattened (ci, ki).
        let taps = feat.permute(&[0, 2, 3, 1]).reshape(&[b * n, hdim * k]);
        let h0 = self.tcn.forward(sess, taps).reshape(&[b, n, hdim]); // initial state [B, N, h]

        // Euler integration of dh/dt = (P h) W + h0 − h.
        let p = sess.input(self.transition.clone());
        let mut h = h0;
        for _ in 0..self.steps {
            let ph = p.matmul(h);
            let drift = self.ode_weight.forward(sess, ph).tanh().add(h0).sub(h);
            h = h.add(drift.scale(self.dt));
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
        use urcl_tensor::autodiff::Tape;
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let net = line(4);
        let cfg = BackboneConfig::small(4, 3, 12, 1);
        let model = Stgode::new(&mut store, &mut rng, &net, cfg, 4, 0.25);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 12, 4, 3], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 1, 4]);
    }

    #[test]
    fn more_euler_steps_changes_state() {
        use urcl_tensor::autodiff::Tape;
        // Integrating longer must move the latent, showing the ODE block
        // is active.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let net = line(3);
        let cfg = BackboneConfig::small(3, 1, 6, 1);
        let m1 = Stgode::new(&mut store, &mut rng, &net, cfg.clone(), 1, 0.5);
        let x = rng.uniform_tensor(&[1, 6, 3, 1], 0.0, 1.0);
        let run = |model: &Stgode, store: &ParamStore| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let xv = sess.input(x.clone());
            model.encode(&mut sess, xv).value()
        };
        let l1 = run(&m1, &store);
        // Same weights, more steps.
        let m8 = Stgode { steps: 8, ..m1 };
        let l8 = run(&m8, &store);
        let diff: f32 = l1
            .data()
            .iter()
            .zip(l8.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "ODE integration had no effect");
    }

    #[test]
    #[should_panic(expected = "positive integration")]
    fn zero_steps_rejected() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let net = line(3);
        let cfg = BackboneConfig::small(3, 1, 6, 1);
        let _ = Stgode::new(&mut store, &mut rng, &net, cfg, 0, 0.5);
    }
}
