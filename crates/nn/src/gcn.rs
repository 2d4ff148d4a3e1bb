//! Diffusion graph convolution (Eq. 21–24) and the self-adaptive
//! adjacency matrix (Eq. 23).

use crate::map_last_axis;
use urcl_graph::SupportSet;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamId, ParamStore, Rng, Tensor};

/// The learned adjacency Ã_adp = Softmax(ReLU(E₁ E₂ᵀ)) of Eq. 23, which
/// captures global spatial correlations the distance graph misses.
#[derive(Debug, Clone)]
pub struct AdaptiveAdjacency {
    e1: ParamId,
    e2: ParamId,
    n: usize,
}

impl AdaptiveAdjacency {
    /// Registers two `[n, emb_dim]` node-embedding tables.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        n: usize,
        emb_dim: usize,
    ) -> Self {
        let e1 = store.add(
            format!("{name}.e1"),
            rng.normal_tensor(&[n, emb_dim], 0.0, 0.1),
        );
        let e2 = store.add(
            format!("{name}.e2"),
            rng.normal_tensor(&[n, emb_dim], 0.0, 0.1),
        );
        Self { e1, e2, n }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Materialises the `[n, n]` adjacency on the tape.
    pub fn adjacency<'t>(&self, sess: &mut Session<'t, '_>) -> Var<'t> {
        let e1 = sess.param(self.e1);
        let e2 = sess.param(self.e2);
        e1.matmul(e2.transpose(0, 1)).relu().softmax(1)
    }
}

/// Diffusion graph convolution over a fixed [`SupportSet`] plus an
/// optional adaptive adjacency:
///
/// `f(X) = X W₀ + Σ_s (P_s X) W_s [+ (Ã_adp X) W_adp] + b`
///
/// This is Eq. 24 with the K-step power series baked into the support set.
/// Inputs are `[B, N, C_in]` (or `[B*T, N, C_in]` when applied per time
/// step); outputs keep the leading axes with `C_out` channels. Activation
/// is left to the caller.
#[derive(Debug, Clone)]
pub struct DiffusionGcn {
    w_self: ParamId,
    w_supports: Vec<ParamId>,
    w_adaptive: Option<ParamId>,
    bias: ParamId,
    supports: SupportSet,
    in_dim: usize,
    out_dim: usize,
}

impl DiffusionGcn {
    /// The construction-time diffusion supports this layer diffuses over
    /// when no override is passed. Backbones expose these as the support
    /// template for plan input binding.
    pub fn supports(&self) -> &SupportSet {
        &self.supports
    }

    /// Builds the layer. Pass `adaptive = true` to include the learned
    /// adjacency term (requires a separate [`AdaptiveAdjacency`] whose
    /// matrix is handed to [`Self::forward`]).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        supports: SupportSet,
        adaptive: bool,
    ) -> Self {
        let w_self = store.add(format!("{name}.w0"), rng.glorot(&[in_dim, out_dim]));
        let w_supports = (0..supports.len())
            .map(|i| store.add(format!("{name}.w{}", i + 1), rng.glorot(&[in_dim, out_dim])))
            .collect();
        let w_adaptive =
            adaptive.then(|| store.add(format!("{name}.wadp"), rng.glorot(&[in_dim, out_dim])));
        let bias = store.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Self {
            w_self,
            w_supports,
            w_adaptive,
            bias,
            supports,
            in_dim,
            out_dim,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Whether the layer expects an adaptive adjacency at forward time.
    pub fn wants_adaptive(&self) -> bool {
        self.w_adaptive.is_some()
    }

    /// `x: [.., N, C_in] -> [.., N, C_out]`. `adaptive` must be `Some`
    /// exactly when the layer was built with `adaptive = true`.
    pub fn forward<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        adaptive: Option<Var<'t>>,
    ) -> Var<'t> {
        self.forward_with(sess, x, adaptive, None)
    }

    /// Like [`Self::forward`] but diffusing over `override_supports`
    /// instead of the construction-time supports. Used by the
    /// spatio-temporal augmentations, which perturb the sensor graph; the
    /// override must have the same support count (same `K`, same
    /// directedness) so the per-support weights still line up.
    pub fn forward_with<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        adaptive: Option<Var<'t>>,
        override_supports: Option<&SupportSet>,
    ) -> Var<'t> {
        assert_eq!(
            adaptive.is_some(),
            self.w_adaptive.is_some(),
            "adaptive adjacency presence mismatch"
        );
        let supports = override_supports.unwrap_or(&self.supports);
        assert_eq!(
            supports.len(),
            self.supports.len(),
            "override support count mismatch"
        );
        let w_self = sess.param(self.w_self);
        let bias = sess.param(self.bias);

        // Self term.
        let mut out = linear_term(x, w_self, self.in_dim, self.out_dim);

        // Fixed diffusion supports, registered as named input slots so a
        // plan-compiling caller can promote them to per-replay inputs
        // (one compiled plan per architecture, any augmentation draw).
        for (p, &wid) in supports.all().iter().zip(&self.w_supports) {
            let pv = sess.slot_input("support", (*p).clone());
            let px = pv.matmul(x); // [N,N] @ [.., N, C] broadcast
            let w = sess.param(wid);
            out = out.add(linear_term(px, w, self.in_dim, self.out_dim));
        }

        // Adaptive term.
        if let (Some(adj), Some(wid)) = (adaptive, self.w_adaptive) {
            let ax = adj.matmul(x);
            let w = sess.param(wid);
            out = out.add(linear_term(ax, w, self.in_dim, self.out_dim));
        }
        out.add(bias)
    }
}

fn linear_term<'t>(x: Var<'t>, w: Var<'t>, in_dim: usize, out_dim: usize) -> Var<'t> {
    map_last_axis(x, in_dim, out_dim, |flat| flat.matmul(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::SensorNetwork;
    use urcl_tensor::autodiff::Tape;

    fn path3() -> SensorNetwork {
        SensorNetwork::from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    }

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let supports = SupportSet::diffusion(&path3(), 2);
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 4, 8, supports, false);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[5, 3, 4]));
        let y = gcn.forward(&mut sess, x, None);
        assert_eq!(y.shape(), vec![5, 3, 8]);
    }

    #[test]
    fn diffusion_mixes_neighbours() {
        // With identity weights (in==out) the support term must move
        // information between connected nodes.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let supports = SupportSet::diffusion(&path3(), 1);
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 1, 1, supports, false);
        // w0 = 0 so only the diffusion term contributes; w1 = 1.
        *store.value_mut(gcn.w_self) = Tensor::zeros(&[1, 1]);
        *store.value_mut(gcn.w_supports[0]) = Tensor::ones(&[1, 1]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        // Only node 0 carries signal.
        let x = sess.input(Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, 3, 1]));
        let y = gcn.forward(&mut sess, x, None).value();
        // P row 1 has weight on node 0, so node 1 receives signal.
        assert!(y.data()[1] > 0.0, "neighbour did not receive signal: {y:?}");
        // Node 2 is two hops away; with K=1 it receives nothing.
        assert!(y.data()[2].abs() < 1e-6);
    }

    #[test]
    fn adaptive_adjacency_rows_are_distributions() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let adp = AdaptiveAdjacency::new(&mut store, &mut rng, "a", 4, 3);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let a = adp.adjacency(&mut sess).value();
        assert_eq!(a.shape(), &[4, 4]);
        for i in 0..4 {
            let s: f32 = a.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
        assert!(a.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn gradients_flow_to_all_weights() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let supports = SupportSet::diffusion(&path3(), 2);
        let adp = AdaptiveAdjacency::new(&mut store, &mut rng, "a", 3, 2);
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 2, 2, supports, true);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[2, 3, 2], 0.0, 1.0));
        let adj = adp.adjacency(&mut sess);
        let y = gcn.forward(&mut sess, x, Some(adj));
        let loss = y.powf(2.0).mean_all();
        let grads = tape.backward(loss);
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        for id in store.ids() {
            let gnorm = store.grad(id).norm();
            assert!(
                gnorm > 0.0,
                "parameter {} received no gradient",
                store.name(id)
            );
        }
    }

    #[test]
    #[should_panic(expected = "adaptive adjacency presence mismatch")]
    fn adaptive_mismatch_panics() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let supports = SupportSet::diffusion(&path3(), 1);
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 2, 2, supports, true);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[1, 3, 2]));
        let _ = gcn.forward(&mut sess, x, None);
    }
}
