//! The [`Backbone`] trait: the paper's STEncoder / STDecoder contract.

use urcl_graph::SupportSet;
use urcl_nn::gcn::record_supports;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ExecPlan, ParamStore, Recording, Tensor};

/// Shared geometry of a spatio-temporal backbone.
#[derive(Debug, Clone)]
pub struct BackboneConfig {
    /// Number of sensor nodes `|V|`.
    pub num_nodes: usize,
    /// Input channels `C`.
    pub channels: usize,
    /// Input window length `M`.
    pub input_steps: usize,
    /// Prediction horizon `N` (output steps).
    pub horizon: usize,
    /// Hidden feature width used by the model's internal layers.
    pub hidden: usize,
    /// Latent feature width `F` produced by the encoder.
    pub latent: usize,
}

impl BackboneConfig {
    /// A small default suitable for the scaled-down experiments: hidden 16,
    /// latent 32.
    pub fn small(num_nodes: usize, channels: usize, input_steps: usize, horizon: usize) -> Self {
        Self {
            num_nodes,
            channels,
            input_steps,
            horizon,
            hidden: 16,
            latent: 32,
        }
    }
}

/// A spatio-temporal prediction model decomposed into the paper's
/// autoencoder form. `encode` is the STEncoder `f_{θ_E}` (shared with
/// STSimSiam in URCL), `decode` the STDecoder `f_{θ_D}` (Eq. 17).
pub trait Backbone {
    /// Model name for experiment tables.
    fn name(&self) -> &str;

    /// Geometry of this backbone.
    fn config(&self) -> &BackboneConfig;

    /// STEncoder: `[B, M, N, C] -> [B, N, F]` per-node latent features.
    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t>;

    /// STEncoder over a *perturbed* sensor graph, used by the
    /// spatio-temporal augmentations (DN/DE/SG/AE change the adjacency).
    /// `supports` are the perturbed graph's diffusion supports, recorded
    /// by the caller: one `[N, N]` variable per matrix of
    /// [`Self::support_template`], in [`SupportSet::all`] order. With
    /// `None` the backbone records its own graph, which is what
    /// [`Self::encode`] does. The default ignores the perturbation and
    /// encodes the (already feature-masked) signal over the original
    /// graph; backbones with a support template must honour `supports`.
    fn encode_perturbed<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        supports: Option<&[Var<'t>]>,
    ) -> Var<'t> {
        let _ = supports;
        self.encode(sess, x)
    }

    /// The diffusion supports of the backbone's own graph, which every
    /// spatial layer diffuses over when [`Self::encode_perturbed`]
    /// receives none, or `None` when the backbone has no graph supports.
    /// Its length is the support count `encode_perturbed` expects, and its
    /// depth `K` the one augmentations rebuild perturbed supports with. A
    /// plan-compiling trainer records a view that kept the original graph
    /// over this set, so every view binds the same number of supports.
    fn support_template(&self) -> Option<&SupportSet> {
        None
    }

    /// STDecoder: `[B, N, F] -> [B, H, N]` predictions of the target
    /// channel.
    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t>;

    /// Full prediction pass (Eq. 17). The encode/decode halves are traced
    /// separately so profiles show where a backbone spends its time.
    fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let h = {
            let _sp = urcl_trace::span("encode");
            self.encode(sess, x)
        };
        let _sp = urcl_trace::span("decode");
        self.decode(sess, h)
    }

    /// Compiles [`Self::forward`] into a forward-only, batch-polymorphic
    /// plan with input `[x]` and output the prediction: one compile
    /// replays at every batch size. Parameters resolve from the store a
    /// replay passes. `x` seeds the primary recording.
    fn compile_forward(&self, store: &ParamStore, x: &Tensor) -> ExecPlan {
        ExecPlan::compile_poly(x.shape()[0], |b| {
            Recording::forward(store, |sess| {
                let xv = sess.input(x.at_batch(b));
                let pred = self.forward(sess, xv);
                (vec![xv], vec![pred])
            })
        })
    }

    /// Validates an input batch against the configured geometry, with a
    /// readable panic on mismatch. Call at the top of `encode`.
    fn check_input(&self, x: &Var<'_>) {
        let c = self.config();
        let shape = x.shape();
        assert_eq!(
            shape.len(),
            4,
            "{}: input must be [B, M, N, C], got {shape:?}",
            self.name()
        );
        assert_eq!(
            &shape[1..],
            &[c.input_steps, c.num_nodes, c.channels],
            "{}: input {shape:?} does not match config (M={}, N={}, C={})",
            self.name(),
            c.input_steps,
            c.num_nodes,
            c.channels
        );
    }
}

/// The zero initial state `[B, N, hidden]` of a recurrent encoder over
/// `x: [B, M, N, C]`, built as `x₀ @ 0` so its shape follows the batch in
/// a batch-polymorphic plan. The GEMM sums `±0` products from `+0.0`, so
/// every entry is `+0.0` for finite input.
pub(crate) fn zero_state<'t>(sess: &mut Session<'t, '_>, x: Var<'t>, hidden: usize) -> Var<'t> {
    let [b, _m, n, c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
    let x0 = x.narrow(1, 0, 1).reshape(&[b, n, c]);
    x0.matmul(sess.input(Tensor::zeros(&[c, hidden])))
}

/// The supports an encode diffuses over: the caller's, for a perturbed
/// graph (see [`Backbone::encode_perturbed`]), else `own` recorded once.
pub(crate) fn diffusion_supports<'t>(
    sess: &Session<'t, '_>,
    own: &SupportSet,
    perturbed: Option<&[Var<'t>]>,
) -> Vec<Var<'t>> {
    perturbed.map_or_else(|| record_supports(sess, own), <[Var<'t>]>::to_vec)
}

/// Boxed backbones forward the whole contract, so a type-erased
/// `Box<dyn Backbone + Send + Sync>` (the multi-tenant serving registry's
/// element type) is itself a [`Backbone`].
impl<B: Backbone + ?Sized> Backbone for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn config(&self) -> &BackboneConfig {
        (**self).config()
    }

    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        (**self).encode(sess, x)
    }

    fn encode_perturbed<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        supports: Option<&[Var<'t>]>,
    ) -> Var<'t> {
        (**self).encode_perturbed(sess, x, supports)
    }

    fn support_template(&self) -> Option<&SupportSet> {
        (**self).support_template()
    }

    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
        (**self).decode(sess, h)
    }

    fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        (**self).forward(sess, x)
    }
}

/// Standard decoder used by most backbones: a per-node MLP from latent
/// features to the horizon (the stacked feed-forward STDecoder of Fig. 4).
pub(crate) mod decoder {
    use urcl_nn::linear::{Activation, Mlp};
    use urcl_tensor::autodiff::{Session, Var};
    use urcl_tensor::{ParamStore, Rng};

    /// `[B, N, F] -> [B, H, N]` via per-node MLP `F -> hidden -> H`.
    #[derive(Debug, Clone)]
    pub struct MlpDecoder {
        mlp: Mlp,
        horizon: usize,
    }

    impl MlpDecoder {
        pub fn new(
            store: &mut ParamStore,
            rng: &mut Rng,
            name: &str,
            latent: usize,
            hidden: usize,
            horizon: usize,
        ) -> Self {
            Self {
                mlp: Mlp::new(
                    store,
                    rng,
                    name,
                    &[latent, hidden, horizon],
                    Activation::Relu,
                ),
                horizon,
            }
        }

        pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
            let shape = h.shape(); // [B, N, F]
            assert_eq!(shape.len(), 3, "decoder input must be [B, N, F]");
            let y = self.mlp.forward(sess, h); // [B, N, H]
            let _ = self.horizon;
            y.permute(&[0, 2, 1]) // [B, H, N]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::decoder::MlpDecoder;
    use super::*;
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::{ParamStore, Rng, Tensor};

    #[test]
    fn mlp_decoder_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let dec = MlpDecoder::new(&mut store, &mut rng, "d", 8, 16, 3);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let h = sess.input(Tensor::ones(&[2, 5, 8]));
        let y = dec.forward(&mut sess, h);
        assert_eq!(y.shape(), vec![2, 3, 5]);
    }

    #[test]
    fn small_config_defaults() {
        let c = BackboneConfig::small(10, 2, 12, 1);
        assert_eq!(c.hidden, 16);
        assert_eq!(c.latent, 32);
        assert_eq!(c.horizon, 1);
    }
}
