//! The STSimSiam network (Section IV-C2): two parameter-shared STEncoders
//! plus a projection MLP head, trained to maximise mutual information
//! between two augmented views via the symmetric GraphCL loss
//! (Eq. 12–16) with a stop-gradient on the target branch (Eq. 13).

use crate::augment::AugmentedView;
use urcl_graph::SupportSet;
use urcl_models::Backbone;
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
        let x1 = sess.input(view1.x.clone());
        let x2 = sess.input(view2.x.clone());
        self.loss_from_vars(
            sess,
            backbone,
            x1,
            view1.supports.as_ref(),
            x2,
            view2.supports.as_ref(),
        )
    }

    /// The batch-size-dependent contrastive constants: `(eye, off_mask)`
    /// for `s` samples. Exposed so the trainer can bind the same tensors
    /// to a compiled plan's promoted `ssl.eye` / `ssl.off_mask` input
    /// slots that this module registers at record time — both sides call
    /// this one helper, keeping record and replay bitwise-identical.
    pub fn contrastive_masks(s: usize) -> (Tensor, Tensor) {
        let eye = Tensor::eye(s);
        let off = eye.map(|v| 1.0 - v);
        (eye, off)
    }

    /// [`Self::loss`] over already-registered view variables. Exposing the
    /// view inputs lets the trainer record this graph once and compile it
    /// into an `ExecPlan` that substitutes fresh view tensors per replay.
    /// Everything that varies per augmentation draw is registered as a
    /// named input slot: the view encodes run under the `ssl.v1` / `ssl.v2`
    /// scopes (so their per-layer `support` slots become `ssl.v1.support`,
    /// …), and the batch-size constants register as `ssl.eye` /
    /// `ssl.off_mask`. The trainer promotes these slots to plan inputs and
    /// rebinds fresh supports and masks at replay, so one compiled plan
    /// serves every draw instead of recompiling per draw.
    pub fn loss_from_vars<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        backbone: &dyn Backbone,
        x1: Var<'t>,
        supports1: Option<&SupportSet>,
        x2: Var<'t>,
        supports2: Option<&SupportSet>,
    ) -> Var<'t> {
        sess.push_scope("ssl.v1");
        let z1 = Self::pool(backbone.encode_perturbed(sess, x1, supports1));
        sess.pop_scope();
        sess.push_scope("ssl.v2");
        let z2 = Self::pool(backbone.encode_perturbed(sess, x2, supports2));
        sess.pop_scope();
        let p1 = self.projector.forward(sess, z1);
        let p2 = self.projector.forward(sess, z2);

        let s = z1.shape()[0];
        // Row-normalised embeddings; targets are stop-gradient (Eq. 13).
        let p1n = p1.l2_normalize(1);
        let p2n = p2.l2_normalize(1);
        let z1t = z1.detach().l2_normalize(1);
        let z2t = z2.detach().l2_normalize(1);

        // Pairwise cosine similarities, symmetrised (Eq. 15).
        let sims1 = p1n.matmul(z2t.transpose(0, 1));
        let sims2 = p2n.matmul(z1t.transpose(0, 1));
        let logits = sims1.add(sims2).scale(0.5 / self.tau); // [S, S]

        let (eye_t, off_t) = Self::contrastive_masks(s);
        let eye = sess.slot_input("ssl.eye", eye_t);
        let diag = logits.mul(eye).sum_axes(&[1], false); // [S]
        if s == 1 {
            // No negatives: minimise −similarity directly (plain SimSiam).
            return diag.neg().mean_all();
        }
        let off_mask = sess.slot_input("ssl.off_mask", off_t);
        let denom = logits.exp().mul(off_mask).sum_axes(&[1], false); // [S]
        denom.ln().sub(diag).mean_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::random_geometric;
    use urcl_models::{GraphWaveNet, GwnConfig};
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::{Adam, Optimizer};

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
