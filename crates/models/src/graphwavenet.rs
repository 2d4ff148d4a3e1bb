//! GraphWaveNet reorganised into the STEncoder / STDecoder form of
//! Section IV-D (Figs. 3–4): an input MLP, stacked spatio-temporal layers
//! (gated dilated TCN → diffusion GCN with residual, Eq. 18), a latent
//! head, and a stacked feed-forward decoder (Eq. 27).

use crate::backbone::{decoder::MlpDecoder, diffusion_supports, Backbone, BackboneConfig};
use urcl_graph::{SensorNetwork, SupportSet};
use urcl_nn::gcn::{AdaptiveAdjacency, DiffusionGcn};
use urcl_nn::linear::Linear;
use urcl_nn::tcn::GatedTcn;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// GraphWaveNet hyperparameters.
#[derive(Debug, Clone)]
pub struct GwnConfig {
    /// Shared geometry.
    pub base: BackboneConfig,
    /// Number of spatio-temporal layers; dilations double per layer
    /// (1, 2, 4, …) over GraphWaveNet's kernel-2 TCNs. The paper uses 5
    /// layers at full scale; 2–3 suffice at the reduced node counts.
    pub layers: usize,
    /// Diffusion steps `K` for the fixed supports (Eq. 21).
    pub k_diffusion: usize,
    /// Whether to learn the self-adaptive adjacency (Eq. 23).
    pub adaptive: bool,
    /// Node-embedding width for the adaptive adjacency.
    pub adaptive_dim: usize,
    /// Hidden width of the decoder MLP (512 in the paper; scaled here).
    pub decoder_hidden: usize,
}

impl GwnConfig {
    /// Sensible small defaults for the scaled experiments.
    pub fn small(num_nodes: usize, channels: usize, input_steps: usize, horizon: usize) -> Self {
        Self {
            base: BackboneConfig::small(num_nodes, channels, input_steps, horizon),
            layers: 3,
            k_diffusion: 2,
            adaptive: true,
            adaptive_dim: 8,
            decoder_hidden: 64,
        }
    }

    /// Total time steps consumed by the dilated convolutions: the
    /// kernel-2 layer at dilation `2^i` consumes `2^i`.
    pub fn receptive_span(&self) -> usize {
        (1usize << self.layers) - 1
    }
}

struct StLayer {
    tcn: GatedTcn,
    gcn: DiffusionGcn,
}

/// The GraphWaveNet backbone (the URCL default).
pub struct GraphWaveNet {
    cfg: GwnConfig,
    /// The sensor graph's diffusion supports, which every layer's GCN
    /// diffuses over.
    supports: SupportSet,
    input_proj: Linear,
    layers: Vec<StLayer>,
    adaptive: Option<AdaptiveAdjacency>,
    latent_head: Linear,
    decoder: MlpDecoder,
}

impl GraphWaveNet {
    /// Builds the model, registering all parameters in `store`.
    pub fn new(store: &mut ParamStore, rng: &mut Rng, net: &SensorNetwork, cfg: GwnConfig) -> Self {
        assert!(
            cfg.base.input_steps > cfg.receptive_span(),
            "input window {} too short for receptive span {}",
            cfg.base.input_steps,
            cfg.receptive_span()
        );
        let h = cfg.base.hidden;
        let input_proj = Linear::new(store, rng, "gwn.in", cfg.base.channels, h, true);
        let supports = SupportSet::diffusion(net, cfg.k_diffusion);
        // The dilation lives in which taps each layer pairs (see
        // `encode_perturbed`), not in the convolution.
        let layers = (0..cfg.layers)
            .map(|i| StLayer {
                tcn: GatedTcn::new(store, rng, &format!("gwn.l{i}.tcn"), h, h, 2),
                gcn: DiffusionGcn::new(
                    store,
                    rng,
                    &format!("gwn.l{i}.gcn"),
                    h,
                    h,
                    supports.len(),
                    cfg.adaptive,
                ),
            })
            .collect();
        let adaptive = cfg.adaptive.then(|| {
            AdaptiveAdjacency::new(store, rng, "gwn.adp", cfg.base.num_nodes, cfg.adaptive_dim)
        });
        let latent_head = Linear::new(store, rng, "gwn.latent", h, cfg.base.latent, true);
        let decoder = MlpDecoder::new(
            store,
            rng,
            "gwn.dec",
            cfg.base.latent,
            cfg.decoder_hidden,
            cfg.base.horizon,
        );
        Self {
            cfg,
            supports,
            input_proj,
            layers,
            adaptive,
            latent_head,
            decoder,
        }
    }
}

impl Backbone for GraphWaveNet {
    fn name(&self) -> &str {
        "GraphWaveNet"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg.base
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
        let [b, m, n, _c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let h = self.cfg.base.hidden;
        let supports = diffusion_supports(sess, &self.supports, supports);

        // Receptive field: the one position the stack leaves reads the
        // last `receptive_span() + 1 = 2^layers` steps, so no layer sees
        // the rest.
        let mut t_len = self.cfg.receptive_span() + 1;
        let x = x.narrow(1, m - t_len, t_len);

        // Input projection C -> hidden.
        let mut feat = self.input_proj.forward(sess, x); // [B, T, N, h]

        // Shared adaptive adjacency (computed once per forward).
        let adj = self.adaptive.as_ref().map(|a| a.adjacency(sess));

        // Merge tree: of the positions a dilation-2^i layer would emit,
        // the final one reads only every other, and those pair up
        // adjacent positions of the layer's kept input. So each layer
        // halves the time axis, 2^layers -> ... -> 1.
        for layer in &self.layers {
            t_len /= 2;
            let pairs = feat.reshape(&[b, t_len, 2, n, h]);
            // Temporal: each pair is one position's two taps, flattened
            // (ci, ki): [B, T/2, N, h, 2] -> [B·T/2·N, 2h].
            let taps = pairs
                .permute(&[0, 1, 3, 4, 2])
                .reshape(&[b * t_len * n, 2 * h]);
            let conv_out = layer.tcn.forward(sess, taps); // [B·T/2·N, h]

            // Spatial: diffusion GCN per time step (over the perturbed
            // graph when the augmentations supply one).
            let spatial_in = conv_out.reshape(&[b * t_len, n, h]);
            let gcn_out = layer.gcn.forward(sess, spatial_in, &supports, adj).relu();
            // Residual: the pair's later element, the step the dilated
            // conv's output is aligned to.
            let residual = pairs.narrow(2, 1, 1).reshape(&[b, t_len, n, h]);
            feat = gcn_out.reshape(&[b, t_len, n, h]).add(residual);
        }

        // Latent: the one remaining time step -> per-node features.
        debug_assert_eq!(t_len, 1);
        let last = feat.reshape(&[b, n, h]);
        self.latent_head.forward(sess, last).relu() // [B, N, F]
    }

    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
        self.decoder.forward(sess, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_nn::gcn::record_supports;
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::{Adam, Tensor};

    fn small_net(n: usize) -> SensorNetwork {
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1, 1.0));
            edges.push((i + 1, i, 1.0));
        }
        SensorNetwork::from_edges(n, &edges)
    }

    /// Directed ring with chords: `i -> i+1`, `i+1 -> i` at half weight
    /// and `i -> i+5` skipping every `skip`-th chord, so two `skip`s give
    /// two graphs with the same support count.
    fn chorded_ring(n: usize, skip: usize) -> SensorNetwork {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n, 1.0));
            edges.push(((i + 1) % n, i, 0.5));
            if i % skip != 0 {
                edges.push((i, (i + 5) % n, 0.3 + 0.02 * i as f32));
            }
        }
        SensorNetwork::from_edges(n, &edges)
    }

    /// The dense stack the merge tree replaces, over the same parameters:
    /// the gated TCN at dilation `2^i` over every position (its taps
    /// gathered with `narrow` + `concat`), diffusion at every position,
    /// and the residual aligned with `narrow`.
    fn dense_encode<'t>(
        model: &GraphWaveNet,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        supports: &SupportSet,
    ) -> Var<'t> {
        let supports = record_supports(sess, supports);
        let [b, m, n, _c] = <[usize; 4]>::try_from(x.shape()).expect("4-D input");
        let h = model.cfg.base.hidden;
        let mut t_len = model.cfg.receptive_span() + 1;
        let mut feat = model
            .input_proj
            .forward(sess, x.narrow(1, m - t_len, t_len));
        let adj = model.adaptive.as_ref().map(|a| a.adjacency(sess));
        for (i, layer) in model.layers.iter().enumerate() {
            let dilation = 1usize << i;
            let t_out = t_len - dilation;
            // Output step `to` reads steps `to` and `to + dilation`;
            // flattened (ci, ki): [B, T_out, N, h, 2] -> [B·T_out·N, 2h].
            let tap = |start: usize| feat.narrow(1, start, t_out).reshape(&[b, t_out, n, h, 1]);
            let taps = sess
                .tape()
                .concat(&[tap(0), tap(dilation)], 4)
                .reshape(&[b * t_out * n, 2 * h]);
            let spatial_in = layer.tcn.forward(sess, taps).reshape(&[b * t_out, n, h]);
            let gcn_out = layer.gcn.forward(sess, spatial_in, &supports, adj).relu();
            let residual = feat.narrow(1, t_len - t_out, t_out);
            feat = gcn_out.reshape(&[b, t_out, n, h]).add(residual);
            t_len = t_out;
        }
        let last = feat.reshape(&[b, n, h]);
        model.latent_head.forward(sess, last).relu()
    }

    #[test]
    fn merge_tree_matches_dense_stack_bitwise() {
        let n = 24;
        let net = chorded_ring(n, 4);
        let perturbed = SupportSet::diffusion(&chorded_ring(n, 3), 2);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for layers in [2, 3] {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from_u64(7);
            let mut cfg = GwnConfig::small(n, 2, 12, 1);
            cfg.layers = layers;
            let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
            // Biases start at zero; random ones make a misplaced add show.
            let ids: Vec<_> = store.ids().collect();
            for id in ids {
                if store.name(id).ends_with(".b") {
                    let shape = store.value(id).shape().to_vec();
                    *store.value_mut(id) = rng.normal_tensor(&shape, 0.0, 0.5);
                }
            }
            let x48 = rng.normal_tensor(&[48, 12, n, 2], 0.0, 1.0);
            let plan = model.compile_forward(&store, &x48);
            for batch in [1, 13, 48] {
                let x = x48.narrow(0, 0, batch);
                for supports in [None, Some(&perturbed)] {
                    let forecast = |dense: bool| {
                        let tape = Tape::new();
                        let mut sess = Session::new(&tape, &store);
                        let xv = sess.input(x.clone());
                        let latent = if dense {
                            dense_encode(&model, &mut sess, xv, supports.unwrap_or(&model.supports))
                        } else {
                            let perturbed = supports.map(|s| record_supports(&sess, s));
                            model.encode_perturbed(&mut sess, xv, perturbed.as_deref())
                        };
                        model.decode(&mut sess, latent).value()
                    };
                    let dense = forecast(true);
                    let graph = if supports.is_some() {
                        "perturbed"
                    } else {
                        "built"
                    };
                    let what = format!("{layers} layers, batch {batch}, {graph} supports");
                    assert_eq!(bits(&forecast(false)), bits(&dense), "tape: {what}");
                    if supports.is_none() {
                        let replay = plan.run_forward(&store, &[&x]).remove(0);
                        assert_eq!(bits(&replay), bits(&dense), "plan replay: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let net = small_net(5);
        let cfg = GwnConfig::small(5, 2, 12, 1);
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[3, 12, 5, 2], 0.5, 0.1));
        let latent = model.encode(&mut sess, x);
        assert_eq!(latent.shape(), vec![3, 5, 32]);
        let y = model.decode(&mut sess, latent);
        assert_eq!(y.shape(), vec![3, 1, 5]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_window_shorter_than_receptive_field() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let net = small_net(4);
        let mut cfg = GwnConfig::small(4, 1, 6, 1);
        cfg.layers = 4; // span 1+2+4+8 = 15 > 6
        let _ = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
    }

    #[test]
    fn loss_decreases_when_training_on_fixed_batch() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let net = small_net(4);
        let mut cfg = GwnConfig::small(4, 1, 8, 1);
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let x = rng.uniform_tensor(&[4, 8, 4, 1], 0.0, 1.0);
        let y = rng.uniform_tensor(&[4, 1, 4], 0.0, 1.0);
        let mut opt = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let pred = model.forward(&mut sess, xv);
            let loss = pred.sub(yv).abs().mean_all();
            last = loss.value().item();
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            opt.step(&mut store);
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.6,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn encoder_is_deterministic() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let net = small_net(3);
        let mut cfg = GwnConfig::small(3, 1, 6, 1);
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let x = rng.uniform_tensor(&[2, 6, 3, 1], 0.0, 1.0);
        let run = |store: &ParamStore| -> Tensor {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let xv = sess.input(x.clone());
            model.encode(&mut sess, xv).value()
        };
        assert_eq!(run(&store), run(&store));
    }
}
