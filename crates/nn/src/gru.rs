//! Recurrent cells: a dense GRU and the diffusion-convolutional GRU
//! (DCGRU) that powers the DCRNN baseline, where every gate's dense map is
//! replaced by a diffusion graph convolution over the sensor network.

use crate::gcn::DiffusionGcn;
use crate::linear::Linear;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// Standard GRU cell over `[B, C]` inputs and `[B, H]` states.
#[derive(Debug, Clone)]
pub struct GruCell {
    update: Linear,
    reset: Linear,
    candidate: Linear,
}

impl GruCell {
    /// Builds a cell with the given input and hidden sizes.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Self {
        let cat = input + hidden;
        Self {
            update: Linear::new(store, rng, &format!("{name}.z"), cat, hidden, true),
            reset: Linear::new(store, rng, &format!("{name}.r"), cat, hidden, true),
            candidate: Linear::new(store, rng, &format!("{name}.c"), cat, hidden, true),
        }
    }

    /// One step: `(x: [B, C], h: [B, H]) -> h': [B, H]`.
    pub fn step<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>, h: Var<'t>) -> Var<'t> {
        let tape = sess.tape();
        let xh = tape.concat(&[x, h], 1);
        let z = self.update.forward(sess, xh).sigmoid();
        let r = self.reset.forward(sess, xh).sigmoid();
        let xrh = tape.concat(&[x, r.mul(h)], 1);
        let c = self.candidate.forward(sess, xrh).tanh();
        // h' = z ⊙ h + (1 − z) ⊙ c
        z.mul(h).add(z.neg().add_scalar(1.0).mul(c))
    }
}

/// DCGRU cell: GRU gates computed by diffusion graph convolution, state
/// kept per node. Inputs `[B, N, C]`, state `[B, N, H]`. Like
/// [`DiffusionGcn`], the cell holds weights only: every step takes the
/// supports its gates diffuse over.
#[derive(Debug, Clone)]
pub struct DcGruCell {
    update: DiffusionGcn,
    reset: DiffusionGcn,
    candidate: DiffusionGcn,
}

impl DcGruCell {
    /// Builds a cell whose gates diffuse over `num_supports` supports.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        input: usize,
        hidden: usize,
        num_supports: usize,
    ) -> Self {
        let cat = input + hidden;
        let gate = |store: &mut ParamStore, rng: &mut Rng, g: &str| {
            DiffusionGcn::new(
                store,
                rng,
                &format!("{name}.{g}"),
                cat,
                hidden,
                num_supports,
                false,
            )
        };
        Self {
            update: gate(store, rng, "z"),
            reset: gate(store, rng, "r"),
            candidate: gate(store, rng, "c"),
        }
    }

    /// One step: `(x: [B, N, C], h: [B, N, H]) -> h': [B, N, H]`, every
    /// gate diffusing over `supports` (see [`DiffusionGcn::forward`]).
    pub fn step<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        x: Var<'t>,
        h: Var<'t>,
        supports: &[Var<'t>],
    ) -> Var<'t> {
        let tape = sess.tape();
        let xh = tape.concat(&[x, h], 2);
        let z = self.update.forward(sess, xh, supports, None).sigmoid();
        let r = self.reset.forward(sess, xh, supports, None).sigmoid();
        let xrh = tape.concat(&[x, r.mul(h)], 2);
        let c = self.candidate.forward(sess, xrh, supports, None).tanh();
        z.mul(h).add(z.neg().add_scalar(1.0).mul(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::record_supports;
    use urcl_graph::{SensorNetwork, SupportSet};
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::Tensor;

    #[test]
    fn gru_step_shape_and_bounds() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let cell = GruCell::new(&mut store, &mut rng, "g", 3, 5);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[2, 3], 0.0, 1.0));
        let h = sess.input(Tensor::zeros(&[2, 5]));
        let h1 = cell.step(&mut sess, x, h);
        assert_eq!(h1.shape(), vec![2, 5]);
        // From zero state, |h'| < 1 (convex mix of 0 and tanh).
        assert!(h1.value().data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gru_remembers_with_saturated_update_gate() {
        // Force z ≈ 1 by huge bias: h' ≈ h.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let cell = GruCell::new(&mut store, &mut rng, "g", 1, 2);
        // Set update-gate bias very positive.
        for id in store.ids() {
            if store.name(id) == "g.z.b" {
                *store.value_mut(id) = Tensor::full(&[2], 50.0);
            }
        }
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[1, 1]));
        let h = sess.input(Tensor::from_vec(vec![0.7, -0.3], &[1, 2]));
        let h1 = cell.step(&mut sess, x, h).value();
        assert!((h1.data()[0] - 0.7).abs() < 1e-3);
        assert!((h1.data()[1] + 0.3).abs() < 1e-3);
    }

    #[test]
    fn dcgru_step_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let net =
            SensorNetwork::from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let supports = SupportSet::diffusion(&net, 2);
        let cell = DcGruCell::new(&mut store, &mut rng, "d", 2, 4, supports.len());
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[2, 3, 2], 0.0, 1.0));
        let h = sess.input(Tensor::zeros(&[2, 3, 4]));
        let sv = record_supports(&sess, &supports);
        let h1 = cell.step(&mut sess, x, h, &sv);
        assert_eq!(h1.shape(), vec![2, 3, 4]);
    }

    #[test]
    fn dcgru_gradients_flow_over_multiple_steps() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let net = SensorNetwork::from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let supports = SupportSet::diffusion(&net, 1);
        let cell = DcGruCell::new(&mut store, &mut rng, "d", 1, 3, supports.len());
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let sv = record_supports(&sess, &supports);
        let mut h = sess.input(Tensor::zeros(&[1, 2, 3]));
        for step in 0..4 {
            let x = sess.input(rng.normal_tensor(&[1, 2, 1], step as f32, 1.0));
            h = cell.step(&mut sess, x, h, &sv);
        }
        let grads = tape.backward(h.powf(2.0).mean_all());
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        let total: f32 = store.ids().map(|id| store.grad(id).norm()).sum();
        assert!(total > 0.0);
    }
}
