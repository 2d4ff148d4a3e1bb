//! Chebyshev graph convolution (ChebNet), the spatial block of the STGCN
//! baseline: `f(X) = Σ_m T_m(L̃) X W_m` over a precomputed polynomial
//! basis of the scaled Laplacian.

use crate::map_last_axis;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamId, ParamStore, Rng, Tensor};

/// ChebNet layer with a fixed polynomial basis.
#[derive(Debug, Clone)]
pub struct ChebGcn {
    weights: Vec<ParamId>,
    bias: ParamId,
    basis: Vec<Tensor>,
    in_dim: usize,
    out_dim: usize,
}

impl ChebGcn {
    /// Builds the layer from a Chebyshev basis
    /// (see [`urcl_graph::cheb_polynomials`]).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        basis: Vec<Tensor>,
    ) -> Self {
        assert!(!basis.is_empty(), "ChebGcn needs at least T_0");
        let weights = (0..basis.len())
            .map(|m| store.add(format!("{name}.t{m}"), rng.glorot(&[in_dim, out_dim])))
            .collect();
        let bias = store.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Self {
            weights,
            bias,
            basis,
            in_dim,
            out_dim,
        }
    }

    /// Polynomial order (number of basis matrices).
    pub fn order(&self) -> usize {
        self.basis.len()
    }

    /// `x: [.., N, C_in] -> [.., N, C_out]`.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let mut out: Option<Var<'t>> = None;
        for (t_m, &wid) in self.basis.iter().zip(&self.weights) {
            let tv = sess.input(t_m.clone());
            let tx = tv.matmul(x);
            let w = sess.param(wid);
            let term = map_last_axis(tx, self.in_dim, self.out_dim, |f| f.matmul(w));
            out = Some(match out {
                Some(acc) => acc.add(term),
                None => term,
            });
        }
        let bias = sess.param(self.bias);
        out.expect("non-empty basis").add(bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::{cheb_polynomials, scaled_laplacian, SensorNetwork};
    use urcl_tensor::autodiff::Tape;

    fn basis3() -> Vec<Tensor> {
        let g = SensorNetwork::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        );
        cheb_polynomials(&scaled_laplacian(g.adjacency()), 3)
    }

    #[test]
    fn forward_shape_and_order() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let layer = ChebGcn::new(&mut store, &mut rng, "c", 3, 6, basis3());
        assert_eq!(layer.order(), 3);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[2, 4, 3]));
        let y = layer.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 4, 6]);
    }

    #[test]
    fn gradients_reach_every_order() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let layer = ChebGcn::new(&mut store, &mut rng, "c", 2, 2, basis3());
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[1, 4, 2], 0.0, 1.0));
        let y = layer.forward(&mut sess, x);
        let grads = tape.backward(y.powf(2.0).mean_all());
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        for id in store.ids() {
            assert!(
                store.grad(id).norm() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }
}
