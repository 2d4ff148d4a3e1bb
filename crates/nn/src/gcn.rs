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

/// Records every support of `supports` on the session's tape as one
/// `[N, N]` constant, in [`SupportSet::all`] order: the form
/// [`DiffusionGcn::forward`] and [`crate::gru::DcGruCell::step`] diffuse
/// over. A model records its graph once per encode and hands the same
/// variables to every layer.
pub fn record_supports<'t>(sess: &Session<'t, '_>, supports: &SupportSet) -> Vec<Var<'t>> {
    supports
        .all()
        .into_iter()
        .map(|p| sess.input(p.clone()))
        .collect()
}

/// Diffusion graph convolution over the diffusion supports its caller
/// records, plus an optional adaptive adjacency:
///
/// `f(X) = X W₀ + Σ_s (P_s X) W_s [+ (Ã_adp X) W_adp] + b`
///
/// This is Eq. 24 with the K-step power series baked into the support set.
/// The layer owns only weights: the supports `P_s` are a forward argument
/// ([`record_supports`] of the model's graph, or of a perturbed one), so
/// every layer of a model reads the same recorded matrices.
/// Inputs are `[B, N, C_in]` (or `[B*T, N, C_in]` when applied per time
/// step); outputs keep the leading axes with `C_out` channels. Activation
/// is left to the caller.
#[derive(Debug, Clone)]
pub struct DiffusionGcn {
    w_self: ParamId,
    w_supports: Vec<ParamId>,
    w_adaptive: Option<ParamId>,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl DiffusionGcn {
    /// Builds the layer with one weight per diffusion support
    /// (`num_supports`, a [`SupportSet`]'s `len()`). Pass
    /// `adaptive = true` to include the learned adjacency term (requires
    /// a separate [`AdaptiveAdjacency`] whose matrix is handed to
    /// [`Self::forward`]).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        num_supports: usize,
        adaptive: bool,
    ) -> Self {
        let w_self = store.add(format!("{name}.w0"), rng.glorot(&[in_dim, out_dim]));
        let w_supports = (0..num_supports)
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

    /// `x: [.., N, C_in] -> [.., N, C_out]`, diffusing over `supports`
    /// (one `[N, N]` variable per support weight, in the order the layer
    /// was built for). `adaptive` must be `Some` exactly when the layer
    /// was built with `adaptive = true`.
    pub fn forward<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        supports: &[Var<'t>],
        adaptive: Option<Var<'t>>,
    ) -> Var<'t> {
        assert_eq!(
            adaptive.is_some(),
            self.w_adaptive.is_some(),
            "adaptive adjacency presence mismatch"
        );
        assert_eq!(
            supports.len(),
            self.w_supports.len(),
            "support count mismatch"
        );
        let w_self = sess.param(self.w_self);
        let bias = sess.param(self.bias);

        // Self term.
        let mut out = linear_term(x, w_self, self.in_dim, self.out_dim);

        // Diffusion supports.
        for (&pv, &wid) in supports.iter().zip(&self.w_supports) {
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
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 4, 8, supports.len(), false);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[5, 3, 4]));
        let sv = record_supports(&sess, &supports);
        let y = gcn.forward(&mut sess, x, &sv, None);
        assert_eq!(y.shape(), vec![5, 3, 8]);
    }

    #[test]
    fn diffusion_mixes_neighbours() {
        // With identity weights (in==out) the support term must move
        // information between connected nodes.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let supports = SupportSet::diffusion(&path3(), 1);
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 1, 1, supports.len(), false);
        // w0 = 0 so only the diffusion term contributes; w1 = 1.
        *store.value_mut(gcn.w_self) = Tensor::zeros(&[1, 1]);
        *store.value_mut(gcn.w_supports[0]) = Tensor::ones(&[1, 1]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        // Only node 0 carries signal.
        let x = sess.input(Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, 3, 1]));
        let sv = record_supports(&sess, &supports);
        let y = gcn.forward(&mut sess, x, &sv, None).value();
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
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 2, 2, supports.len(), true);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[2, 3, 2], 0.0, 1.0));
        let adj = adp.adjacency(&mut sess);
        let sv = record_supports(&sess, &supports);
        let y = gcn.forward(&mut sess, x, &sv, Some(adj));
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
        let gcn = DiffusionGcn::new(&mut store, &mut rng, "g", 2, 2, supports.len(), true);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[1, 3, 2]));
        let sv = record_supports(&sess, &supports);
        let _ = gcn.forward(&mut sess, x, &sv, None);
    }
}
