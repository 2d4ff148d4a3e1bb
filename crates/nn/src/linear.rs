//! Affine layers and feed-forward stacks.

use crate::map_last_axis;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamId, ParamStore, Rng};

/// Activation functions selectable for [`Mlp`] hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// logistic sigmoid
    Sigmoid,
    /// identity
    None,
}

fn apply<'t>(a: Activation, x: Var<'t>) -> Var<'t> {
    match a {
        Activation::Relu => x.relu(),
        Activation::Tanh => x.tanh(),
        Activation::Sigmoid => x.sigmoid(),
        Activation::None => x,
    }
}

/// A dense affine map `y = x W + b` applied over the last axis of an
/// arbitrary-rank input.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Glorot-initialised weight (and optional zero bias) in
    /// the store.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add(format!("{name}.w"), rng.glorot(&[in_dim, out_dim]));
        let b =
            bias.then(|| store.add(format!("{name}.b"), urcl_tensor::Tensor::zeros(&[out_dim])));
        Self {
            w,
            b,
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

    /// `[.., in] -> [.., out]`.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let w = sess.param(self.w);
        let b = self.b.map(|id| sess.param(id));
        map_last_axis(x, self.in_dim, self.out_dim, |flat| {
            let y = flat.matmul(w);
            match b {
                Some(b) => y.add(b),
                None => y,
            }
        })
    }
}

/// A stack of [`Linear`] layers with an activation between (not after)
/// them — the stacked feed-forward STDecoder of Eq. 27.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP through `dims`, e.g. `[256, 512, 12]` gives two
    /// layers 256→512→12.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dims: &[usize],
        activation: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.{i}"), w[0], w[1], true))
            .collect();
        Self { layers, activation }
    }

    /// `[.., dims[0]] -> [.., dims.last()]`.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(sess, h);
            if i + 1 < self.layers.len() {
                h = apply(self.activation, h);
            }
        }
        h
    }

    /// Number of affine layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::Tensor;

    #[test]
    fn linear_shapes_and_values() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 2, true);
        // Overwrite with known weights.
        *store.value_mut(lin.w) = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0], &[3, 2]);
        *store.value_mut(lin.b.unwrap()) = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let y = lin.forward(&mut sess, x);
        assert_eq!(y.value().data(), &[11.0, 22.0]);
    }

    #[test]
    fn linear_applies_over_leading_axes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 5, false);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[2, 3, 7, 4]));
        let y = lin.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![2, 3, 7, 5]);
    }

    #[test]
    fn mlp_learns_identity_ish_mapping() {
        // Train y = 2x with a 1-16-1 MLP for a few hundred steps.
        use urcl_tensor::Adam;
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[1, 16, 1], Activation::Tanh);
        let mut opt = Adam::new(0.01);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x).collect();
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let x = sess.input(Tensor::from_vec(xs.clone(), &[16, 1]));
            let y = sess.input(Tensor::from_vec(ys.clone(), &[16, 1]));
            let pred = mlp.forward(&mut sess, x);
            let loss = pred.sub(y).powf(2.0).mean_all();
            last = loss.value().item();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            opt.step(&mut store);
        }
        assert!(last < 1e-2, "final loss {last}");
    }

    #[test]
    #[should_panic(expected = "does not match layer input")]
    fn wrong_input_dim_panics() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 2, false);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[1, 4]));
        let _ = lin.forward(&mut sess, x);
    }
}
