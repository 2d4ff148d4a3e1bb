//! GeoMAN baseline (Liang et al., IJCAI 2018): multi-level attention for
//! geo-sensory time series. We keep the defining two attention levels — a
//! **temporal** attention over the input window (per sensor) and a
//! **spatial** attention across sensors — on a shared feature pipeline;
//! the original encoder-decoder LSTM scaffolding is simplified away
//! (horizon is 1 in all paper runs).

use crate::backbone::{decoder::MlpDecoder, Backbone, BackboneConfig};
use urcl_nn::attention::Attention;
use urcl_nn::linear::Linear;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// GeoMAN: temporal + spatial attention backbone.
pub struct GeoMan {
    cfg: BackboneConfig,
    input_proj: Linear,
    temporal: Attention,
    spatial: Attention,
    latent_head: Linear,
    decoder: MlpDecoder,
}

impl GeoMan {
    /// Builds the model; attention width follows `cfg.hidden`.
    pub fn new(store: &mut ParamStore, rng: &mut Rng, cfg: BackboneConfig) -> Self {
        let h = cfg.hidden;
        Self {
            input_proj: Linear::new(store, rng, "geoman.in", cfg.channels, h, true),
            temporal: Attention::new(store, rng, "geoman.tattn", h, h),
            spatial: Attention::new(store, rng, "geoman.sattn", h, h),
            latent_head: Linear::new(store, rng, "geoman.latent", h, cfg.latent, true),
            decoder: MlpDecoder::new(store, rng, "geoman.dec", cfg.latent, 64, cfg.horizon),
            cfg,
        }
    }
}

impl Backbone for GeoMan {
    fn name(&self) -> &str {
        "GeoMAN"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.check_input(&x);
        let [b, m, n, _c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let h = self.cfg.hidden;

        let feat = self.input_proj.forward(sess, x); // [B, M, N, h]

        // Temporal attention per sensor: query = the most recent step.
        let series = feat.permute(&[0, 2, 1, 3]).reshape(&[b * n, m, h]);
        let query = series.narrow(1, m - 1, 1); // [B*N, 1, h]
        let t_ctx = self
            .temporal
            .forward(sess, query, series, series)
            .reshape(&[b, n, h]);

        // Spatial attention across sensors at the attended context.
        let s_ctx = self.spatial.forward(sess, t_ctx, t_ctx, t_ctx); // [B, N, h]

        let fused = t_ctx.add(s_ctx);
        self.latent_head.forward(sess, fused).relu()
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
        let cfg = BackboneConfig::small(6, 2, 12, 1);
        let model = GeoMan::new(&mut store, &mut rng, cfg);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.uniform_tensor(&[2, 12, 6, 2], 0.0, 1.0));
        let y = model.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 1, 6]);
    }

    #[test]
    fn trains_on_fixed_batch() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let cfg = BackboneConfig::small(3, 1, 6, 1);
        let model = GeoMan::new(&mut store, &mut rng, cfg);
        let x = rng.uniform_tensor(&[4, 6, 3, 1], 0.0, 1.0);
        let y = rng.uniform_tensor(&[4, 1, 3], 0.0, 1.0);
        let mut opt = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
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
            last < first.unwrap() * 0.8,
            "no learning: {first:?} -> {last}"
        );
    }
}
