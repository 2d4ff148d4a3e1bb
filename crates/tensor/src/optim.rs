//! The Adam optimizer over a [`ParamStore`]. (RMIR's virtual update is
//! plain SGD: [`ParamStore::sgd_step`].)

use crate::params::ParamStore;
use crate::tensor::Tensor;

/// A serializable snapshot of Adam's internal state: the step count and
/// the per-parameter first/second moment estimates, in [`ParamStore`]
/// registration order. Capturing and restoring this (together with the
/// parameter values) makes an optimisation trajectory resumable
/// bit-for-bit after a process restart.
#[derive(Clone, Debug, Default)]
pub struct AdamState {
    /// Number of steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one tensor per parameter.
    pub m: Vec<Tensor>,
    /// Second-moment estimates, one tensor per parameter.
    pub v: Vec<Tensor>,
}

/// Adam (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Snapshots the moment buffers and step count for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken by [`Self::export_state`]. The moment
    /// vectors must be paired (same length); an empty snapshot resets the
    /// optimizer to its pristine state.
    pub fn import_state(&mut self, state: AdamState) {
        assert_eq!(
            state.m.len(),
            state.v.len(),
            "Adam snapshot m/v length mismatch"
        );
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.m.len() != store.len() {
            self.m = store
                .ids()
                .map(|id| Tensor::zeros(store.value(id).shape()))
                .collect();
            self.v = self.m.clone();
        }
    }
}

impl Adam {
    /// Applies one update using the gradients accumulated in `store`,
    /// mutating its values in place.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.ensure_state(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let ids: Vec<_> = store.ids().collect();
        for (i, id) in ids.into_iter().enumerate() {
            // Split-borrow the gradient and update everything in place.
            let (value, grad) = store.value_grad_mut(id);
            let gd = grad.data();
            let md = self.m[i].data_mut();
            let vd = self.v[i].data_mut();
            for (((p, &g), m), v) in value
                .data_mut()
                .iter_mut()
                .zip(gd)
                .zip(md.iter_mut())
                .zip(vd.iter_mut())
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::{Session, Tape};

    /// Minimises f(w) = (w - 3)^2 with `step` applying each update, and
    /// returns the final w.
    fn optimise_quadratic(steps: usize, mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        for _ in 0..steps {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let wv = sess.param(w);
            let d = wv.add_scalar(-3.0);
            let loss = d.mul(d).sum_all();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            step(&mut store);
        }
        store.value(w).item()
    }

    /// Plain SGD, as RMIR's virtual update applies it.
    #[test]
    fn sgd_converges_on_quadratic() {
        let w = optimise_quadratic(200, |store| store.sgd_step(0.1));
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = optimise_quadratic(500, |store| opt.step(store));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_state_resizes_with_store() {
        let mut store = ParamStore::new();
        let _a = store.add("a", Tensor::zeros(&[2]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut store);
        assert_eq!(opt.m.len(), 1);
        let _b = store.add("b", Tensor::zeros(&[3]));
        opt.step(&mut store); // must not panic
        assert_eq!(opt.m.len(), 2);
    }

    /// Runs `steps` Adam steps of the quadratic problem on `store`,
    /// returning the parameter value afterwards.
    fn quadratic_steps(opt: &mut Adam, store: &mut ParamStore, steps: usize) -> f32 {
        let w = store.ids().next().unwrap();
        for _ in 0..steps {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let wv = sess.param(w);
            let d = wv.add_scalar(-3.0);
            let loss = d.mul(d).sum_all();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            opt.step(store);
        }
        store.value(w).item()
    }

    #[test]
    fn exported_state_resumes_bitwise() {
        // 30 uninterrupted steps vs. 12 steps + snapshot/restore + 18 steps
        // must land on bit-identical parameters and moments.
        let mut store_a = ParamStore::new();
        store_a.add("w", Tensor::scalar(0.0));
        let mut opt_a = Adam::new(0.1);
        let w_full = quadratic_steps(&mut opt_a, &mut store_a, 30);

        let mut store_b = ParamStore::new();
        store_b.add("w", Tensor::scalar(0.0));
        let mut opt_b = Adam::new(0.1);
        quadratic_steps(&mut opt_b, &mut store_b, 12);
        let snap = opt_b.export_state();
        let params_mid = store_b.value(store_b.ids().next().unwrap()).clone();

        // "New process": fresh optimizer, restored state + params.
        let mut store_c = ParamStore::new();
        store_c.add("w", params_mid);
        let mut opt_c = Adam::new(0.1);
        opt_c.import_state(snap.clone());
        assert_eq!(opt_c.export_state().t, 12);
        let w_resumed = quadratic_steps(&mut opt_c, &mut store_c, 18);

        assert_eq!(w_full.to_bits(), w_resumed.to_bits());
        for (a, b) in opt_a.export_state().m.iter().zip(&opt_c.export_state().m) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(snap.m.len(), snap.v.len());
    }

    #[test]
    #[should_panic(expected = "m/v length mismatch")]
    fn unpaired_snapshot_rejected() {
        let mut opt = Adam::new(0.1);
        opt.import_state(AdamState {
            t: 1,
            m: vec![Tensor::zeros(&[2])],
            v: vec![],
        });
    }
}
