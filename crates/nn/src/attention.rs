//! Scaled dot-product attention, the mechanism behind the GeoMAN
//! baseline's multi-level (spatial + temporal) attention.

use crate::linear::Linear;
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Rng};

/// Single-head scaled dot-product attention with learned projections:
/// `Attn(Q, K, V) = softmax(QWq (KWk)ᵀ / √d) VWv`.
#[derive(Debug, Clone)]
pub struct Attention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    dim: usize,
}

impl Attention {
    /// Builds projections from `model_dim` into an attention space of
    /// size `attn_dim` (values are projected to `attn_dim` too).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        model_dim: usize,
        attn_dim: usize,
    ) -> Self {
        Self {
            wq: Linear::new(
                store,
                rng,
                &format!("{name}.wq"),
                model_dim,
                attn_dim,
                false,
            ),
            wk: Linear::new(
                store,
                rng,
                &format!("{name}.wk"),
                model_dim,
                attn_dim,
                false,
            ),
            wv: Linear::new(
                store,
                rng,
                &format!("{name}.wv"),
                model_dim,
                attn_dim,
                false,
            ),
            dim: attn_dim,
        }
    }

    /// Attention output size.
    pub fn out_dim(&self) -> usize {
        self.dim
    }

    /// `query: [B, Tq, D]`, `key`/`value`: `[B, Tk, D]` →
    /// `[B, Tq, attn_dim]`.
    pub fn forward<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        query: Var<'t>,
        key: Var<'t>,
        value: Var<'t>,
    ) -> Var<'t> {
        let q = self.wq.forward(sess, query);
        let k = self.wk.forward(sess, key);
        let v = self.wv.forward(sess, value);
        let kt = k.transpose(1, 2); // [B, d, Tk]
        let scores = q.matmul(kt).scale(1.0 / (self.dim as f32).sqrt()); // [B, Tq, Tk]
        let weights = scores.softmax(2);
        weights.matmul(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::Tensor;

    #[test]
    fn output_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let attn = Attention::new(&mut store, &mut rng, "a", 6, 4);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let q = sess.input(rng.normal_tensor(&[2, 5, 6], 0.0, 1.0));
        let kv = sess.input(rng.normal_tensor(&[2, 9, 6], 0.0, 1.0));
        let y = attn.forward(&mut sess, q, kv, kv);
        assert_eq!(y.shape(), vec![2, 5, 4]);
    }

    #[test]
    fn uniform_keys_average_values() {
        // With zeroed query projection, scores are all equal and attention
        // returns the mean of the projected values.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let attn = Attention::new(&mut store, &mut rng, "a", 2, 2);
        for id in store.ids() {
            if store.name(id) == "a.wq.w" {
                *store.value_mut(id) = Tensor::zeros(&[2, 2]);
            }
            if store.name(id) == "a.wv.w" {
                *store.value_mut(id) = Tensor::eye(2);
            }
        }
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let q = sess.input(Tensor::ones(&[1, 1, 2]));
        let kv = sess.input(Tensor::from_vec(vec![0.0, 0.0, 4.0, 2.0], &[1, 2, 2]));
        let y = attn.forward(&mut sess, q, kv, kv).value();
        assert!((y.data()[0] - 2.0).abs() < 1e-5);
        assert!((y.data()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let attn = Attention::new(&mut store, &mut rng, "a", 3, 3);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let q = sess.input(rng.normal_tensor(&[1, 4, 3], 0.0, 1.0));
        let y = attn.forward(&mut sess, q, q, q);
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
