//! The STSimSiam network (Section IV-C2): two parameter-shared STEncoders
//! plus a projection MLP head, trained to maximise mutual information
//! between two augmented views via the symmetric GraphCL loss
//! (Eq. 12–16) with a stop-gradient on the target branch (Eq. 13).

use crate::augment::AugmentedView;
use urcl_models::Backbone;
use urcl_nn::gcn::record_supports;
use urcl_nn::linear::{Activation, Mlp};
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng, Tensor};

/// STSimSiam: projector head + GraphCL loss over a shared encoder.
///
/// The two STEncoders of Fig. 1 share parameters, so a single
/// [`Backbone`] reference supplies both branches; the projector `h(·)` is
/// the only extra trainable component.
pub struct StSimSiam {
    projector: Mlp,
    tau: f32,
}

impl StSimSiam {
    /// Builds the projector `h : F → F` (hidden width `proj_hidden`) and
    /// stores the GraphCL temperature τ.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        latent: usize,
        proj_hidden: usize,
        tau: f32,
    ) -> Self {
        assert!(tau > 0.0, "temperature must be positive");
        Self {
            projector: Mlp::new(
                store,
                rng,
                "simsiam.proj",
                &[latent, proj_hidden, latent],
                Activation::Relu,
            ),
            tau,
        }
    }

    /// Temperature τ of Eq. 14.
    pub fn temperature(&self) -> f32 {
        self.tau
    }

    /// Pools per-node latents `[B, N, F]` to per-window embeddings
    /// `[B, F]` (mean over nodes), the representation the contrastive
    /// loss compares.
    fn pool<'t>(z: Var<'t>) -> Var<'t> {
        z.mean_axes(&[1], false)
    }

    /// Computes the symmetric GraphCL loss (Eq. 15–16) for a pair of
    /// augmented views encoded by the shared backbone.
    ///
    /// Returns a scalar variable. Batches of size 1 have no negatives, so
    /// the loss degenerates to the (negative) positive-pair similarity.
    pub fn loss<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        backbone: &dyn Backbone,
        view1: &AugmentedView,
        view2: &AugmentedView,
    ) -> Var<'t> {
        let [(x1, s1), (x2, s2)] = [view1, view2].map(|v| {
            let x = sess.input(v.x.clone());
            (x, v.supports.as_ref().map(|s| record_supports(sess, s)))
        });
        let masks = Self::contrastive_masks(x1.shape()[0]).map(|m| sess.input(m));
        let views = [(x1, s1.as_deref()), (x2, s2.as_deref())];
        self.loss_from_vars(sess, backbone, views, masks)
    }

    /// The batch-size-dependent constants of the loss over `s` samples:
    /// `[eye, off_mask, single]`, where `eye` is `I_s`, `off_mask` is
    /// `1 − I_s` and `single` is `[1]` holding 1 when `s == 1`, else 0.
    /// [`Self::loss_from_vars`] takes them recorded in this order.
    pub fn contrastive_masks(s: usize) -> [Tensor; 3] {
        let eye = Tensor::eye(s);
        let off = eye.map(|v| 1.0 - v);
        let single = Tensor::full(&[1], if s == 1 { 1.0 } else { 0.0 });
        [eye, off, single]
    }

    /// [`Self::loss`] over variables the caller recorded: each view's
    /// signal `[B, M, N, C]` and, for a perturbed graph, its diffusion
    /// supports (see [`Backbone::encode_perturbed`]), plus the
    /// [`Self::contrastive_masks`] of the batch size. Recording them as
    /// its inputs lets the trainer compile this graph into one `ExecPlan`
    /// that every augmentation draw and batch size replays.
    ///
    /// The graph is the same at every batch size: `single` joins the
    /// negatives' sum before `ln`, so at batch 1, where that sum is
    /// empty, the loss is `ln 1 − mean(diag) = −mean(diag)`.
    pub fn loss_from_vars<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        backbone: &dyn Backbone,
        views: [(Var<'t>, Option<&[Var<'t>]>); 2],
        masks: [Var<'t>; 3],
    ) -> Var<'t> {
        let [eye, off_mask, single] = masks;
        let logits = self.logits(sess, backbone, views);
        let diag = logits.mul(eye).sum_axes(&[1], false); // [S]
        let denom = logits.exp().mul(off_mask).sum_axes(&[1], false).add(single); // [S]
        denom.ln().sub(diag).mean_all()
    }

    /// The symmetrised pairwise cosine similarities over τ (Eq. 15),
    /// `[S, S]`: row `i` compares view 1's prediction of window `i` with
    /// view 2's stop-gradient target of every window, and vice versa.
    fn logits<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        backbone: &dyn Backbone,
        views: [(Var<'t>, Option<&[Var<'t>]>); 2],
    ) -> Var<'t> {
        let [z1, z2] =
            views.map(|(x, supports)| Self::pool(backbone.encode_perturbed(sess, x, supports)));
        let p1 = self.projector.forward(sess, z1);
        let p2 = self.projector.forward(sess, z2);

        // Row-normalised embeddings; targets are stop-gradient (Eq. 13).
        let p1n = p1.l2_normalize(1);
        let p2n = p2.l2_normalize(1);
        let z1t = z1.detach().l2_normalize(1);
        let z2t = z2.detach().l2_normalize(1);

        let sims1 = p1n.matmul(z2t.transpose(0, 1));
        let sims2 = p2n.matmul(z1t.transpose(0, 1));
        sims1.add(sims2).scale(0.5 / self.tau) // [S, S]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::random_geometric;
    use urcl_models::{GraphWaveNet, GwnConfig};
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::Adam;

    fn setup() -> (ParamStore, GraphWaveNet, StSimSiam, Rng) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(7);
        let net = random_geometric(6, 0.4, &mut rng);
        let mut cfg = GwnConfig::small(6, 2, 8, 1);
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let sim = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);
        (store, model, sim, rng)
    }

    fn views(rng: &mut Rng) -> (AugmentedView, AugmentedView) {
        let x = rng.uniform_tensor(&[4, 8, 6, 2], 0.0, 1.0);
        (
            AugmentedView {
                x: x.clone(),
                supports: None,
            },
            AugmentedView {
                x: x.map(|v| (v + 0.05).min(1.0)),
                supports: None,
            },
        )
    }

    #[test]
    fn loss_is_finite_scalar() {
        let (store, model, sim, mut rng) = setup();
        let (v1, v2) = views(&mut rng);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let loss = sim.loss(&mut sess, &model, &v1, &v2);
        let v = loss.value();
        assert_eq!(v.len(), 1);
        assert!(v.item().is_finite());
    }

    #[test]
    fn batch_of_one_degenerates_to_negative_similarity() {
        let (store, model, sim, mut rng) = setup();
        let x = rng.uniform_tensor(&[1, 8, 6, 2], 0.0, 1.0);
        let v1 = AugmentedView {
            x: x.clone(),
            supports: None,
        };
        let v2 = AugmentedView { x, supports: None };
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let loss = sim.loss(&mut sess, &model, &v1, &v2).value().item();
        // Degenerate form is −(symmetric cosine)/τ, bounded by ±1/τ.
        assert!(loss.is_finite());
        assert!(loss.abs() <= 1.0 / sim.temperature() + 1e-4, "loss {loss}");
    }

    /// At batch 1 the one graph reduces to the plain-SimSiam form
    /// `−mean(diag)`: the loss and every parameter gradient keep the bits
    /// of that form over 20 random windows.
    #[test]
    fn batch_of_one_matches_negative_mean_diagonal_bitwise() {
        let (store, model, sim, mut rng) = setup();
        let grad_bits = |loss: &dyn Fn(&mut Session<'_, '_>) -> f32| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let value = loss(&mut sess);
            let root = tape.var(tape.len() - 1);
            let grads = tape.backward(root);
            let mut probe = store.clone();
            probe.zero_grads();
            probe.accumulate_grads(&sess.into_bindings(), &grads);
            let bits: Vec<Vec<u32>> = probe
                .ids()
                .map(|id| probe.grad(id).data().iter().map(|g| g.to_bits()).collect())
                .collect();
            (value.to_bits(), bits)
        };
        for draw in 0..20 {
            let x = rng.uniform_tensor(&[1, 8, 6, 2], 0.0, 1.0);
            let v1 = AugmentedView {
                x: x.clone(),
                supports: None,
            };
            let v2 = AugmentedView {
                x: x.map(|v| v * 0.9),
                supports: None,
            };
            let one_graph = grad_bits(&|sess| sim.loss(sess, &model, &v1, &v2).value().item());
            let reference = grad_bits(&|sess| {
                let x1 = sess.input(v1.x.clone());
                let x2 = sess.input(v2.x.clone());
                let logits = sim.logits(sess, &model, [(x1, None), (x2, None)]);
                let eye = sess.input(Tensor::eye(1));
                let diag = logits.mul(eye).sum_axes(&[1], false);
                diag.neg().mean_all().value().item()
            });
            assert_eq!(one_graph.0, reference.0, "draw {draw}: loss");
            for (id, (got, want)) in store.ids().zip(one_graph.1.iter().zip(&reference.1)) {
                assert_eq!(got, want, "draw {draw}: gradient of {}", store.name(id));
            }
        }
    }

    #[test]
    fn training_reduces_ssl_loss() {
        let (mut store, model, sim, mut rng) = setup();
        let (v1, v2) = views(&mut rng);
        let mut opt = Adam::new(0.005);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let loss = sim.loss(&mut sess, &model, &v1, &v2);
            last = loss.value().item();
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            store.clip_grad_norm(5.0);
            opt.step(&mut store);
        }
        assert!(
            last < first.unwrap(),
            "ssl loss did not improve: {first:?} -> {last}"
        );
    }

    #[test]
    fn stop_gradient_blocks_target_branch() {
        // The projector must receive gradients; the loss must still be
        // differentiable despite the detached targets.
        let (mut store, model, sim, mut rng) = setup();
        let (v1, v2) = views(&mut rng);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let loss = sim.loss(&mut sess, &model, &v1, &v2);
        let grads = tape.backward(loss);
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        let mut proj_grad = 0.0;
        for id in store.ids() {
            if store.name(id).starts_with("simsiam.proj") {
                proj_grad += store.grad(id).norm();
            }
        }
        assert!(proj_grad > 0.0, "projector received no gradient");
    }
}
