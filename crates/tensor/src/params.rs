//! Persistent parameter storage shared across training steps.
//!
//! A [`ParamStore`] owns every trainable tensor of a model together with a
//! gradient buffer. Each training step binds the store to a fresh
//! [`crate::autodiff::Tape`] through a [`crate::autodiff::Session`], runs
//! forward/backward, copies gradients back, and lets an optimizer update
//! the values. The RMIR sampler keeps a second store of the same layout
//! for its *virtual* parameter update (Eq. 3 of the paper), refreshed
//! with [`ParamStore::copy_values_from`] each round.

use crate::autodiff::Gradients;
use crate::tensor::Tensor;

/// Opaque handle to one parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

#[derive(Clone)]
struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// Named collection of trainable tensors plus gradient buffers.
#[derive(Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle. Names are for
    /// diagnostics and need not be unique (layers prefix their own).
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.shape());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameter is registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Current gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Zeroes every gradient buffer in place (no reallocation — the
    /// buffers persist across steps).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.data_mut().fill(0.0);
        }
    }

    /// Split borrow of a parameter's value (mutable) and gradient
    /// (shared), so optimizers can update in place without cloning the
    /// gradient first.
    pub fn value_grad_mut(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let p = &mut self.params[id.0];
        (&mut p.value, &p.grad)
    }

    /// Copies tape gradients into the store, accumulating on top of the
    /// existing buffers. `bindings` comes from
    /// [`crate::autodiff::Session::into_bindings`].
    pub fn accumulate_grads(&mut self, bindings: &[(ParamId, usize)], grads: &Gradients) {
        for &(id, node) in bindings {
            if let Some(g) = grads.by_index(node) {
                self.params[id.0].grad.add_assign(g);
            }
        }
    }

    /// Global L2 norm over all gradients (for clipping diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Rescales all gradients so their global L2 norm is at most
    /// `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                for g in p.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
        norm
    }

    /// Applies a plain gradient step `value -= lr * grad` to every
    /// parameter. This is the *virtual update* primitive used by RMIR
    /// sampling (copy the store, step it, compare losses).
    pub fn sgd_step(&mut self, lr: f32) {
        for p in &mut self.params {
            let pd = p.value.data_mut();
            for (v, g) in pd.iter_mut().zip(p.grad.data()) {
                *v -= lr * g;
            }
        }
    }

    /// Copies parameter values from another store with identical layout,
    /// reusing the existing buffers.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(
            self.params.len(),
            other.params.len(),
            "store layout mismatch"
        );
        for (a, b) in self.params.iter_mut().zip(&other.params) {
            assert_eq!(a.value.shape(), b.value.shape(), "param shape mismatch");
            a.value.data_mut().copy_from_slice(b.value.data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::ones(&[2, 2]));
        let b = s.add("b", Tensor::zeros(&[2]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 6);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.value(b).shape(), &[2]);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![1.0], &[1]));
        s.params[w.0].grad = Tensor::from_vec(vec![2.0], &[1]);
        s.sgd_step(0.5);
        assert_eq!(s.value(w).data(), &[0.0]);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::zeros(&[2]));
        s.params[w.0].grad = Tensor::from_vec(vec![3.0, 4.0], &[2]); // norm 5
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clone_is_independent() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![1.0], &[1]));
        let mut c = s.clone();
        c.value_mut(w).data_mut()[0] = 9.0;
        assert_eq!(s.value(w).data(), &[1.0]);
        assert_eq!(c.value(w).data(), &[9.0]);
    }

    #[test]
    fn zero_grads_resets() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::zeros(&[2]));
        s.params[w.0].grad = Tensor::ones(&[2]);
        s.zero_grads();
        assert_eq!(s.grad(w).data(), &[0.0, 0.0]);
    }
}
