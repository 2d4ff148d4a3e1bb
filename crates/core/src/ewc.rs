//! Elastic Weight Consolidation (Kirkpatrick et al., PNAS 2017) — the
//! *regularization-based* continual-learning family the paper's related
//! work contrasts with replay (Section II-B, reference 15).
//!
//! Implemented here as an optional extension so the repository can compare
//! the replay-based URCL against a regularization-based alternative on the
//! same substrate: after finishing each streaming period, the trainer
//! anchors the parameters and estimates a diagonal Fisher information;
//! subsequent training adds the quadratic penalty
//! `λ/2 · Σᵢ Fᵢ (θᵢ − θᵢ*)²` to the task loss.

use crate::trainer::TaskLossPlan;
use urcl_models::Backbone;
use urcl_stdata::{stack_samples, Sample};
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamStore, Tensor};

/// Anchored parameters plus their (diagonal) Fisher importance, refreshed
/// at every period boundary.
pub struct EwcState {
    anchors: Vec<Tensor>,
    fisher: Vec<Tensor>,
}

impl EwcState {
    /// Estimates the state from up to `max_batches` batches of the
    /// just-finished period's training windows.
    ///
    /// The Fisher diagonal is approximated by the mean squared gradient of
    /// the task loss — the standard empirical-Fisher surrogate. Each batch
    /// replays `task`, the trainer's task-loss plan, into one probe copy
    /// of the parameters whose gradients are zeroed per batch.
    pub fn estimate(
        backbone: &dyn Backbone,
        store: &ParamStore,
        windows: &[Sample],
        batch_size: usize,
        max_batches: usize,
        task: &mut TaskLossPlan,
    ) -> Self {
        let anchors: Vec<Tensor> = store.ids().map(|id| store.value(id).clone()).collect();
        let mut fisher: Vec<Tensor> = store
            .ids()
            .map(|id| Tensor::zeros(store.value(id).shape()))
            .collect();
        let mut probe = store.clone();
        let mut batches = 0usize;
        for chunk in windows.chunks(batch_size).take(max_batches) {
            let batch = stack_samples(chunk);
            probe.zero_grads();
            let plan = task.plan(backbone, store, &batch);
            let (_loss, grads) = plan.run_training(store, &[&batch.x, &batch.y]);
            probe.accumulate_grads(plan.bindings(), &grads);
            for (slot, id) in fisher.iter_mut().zip(probe.ids()) {
                let g = probe.grad(id);
                for (f, gi) in slot.data_mut().iter_mut().zip(g.data()) {
                    *f += gi * gi;
                }
            }
            batches += 1;
        }
        if batches > 0 {
            let inv = 1.0 / batches as f32;
            for f in &mut fisher {
                for v in f.data_mut() {
                    *v *= inv;
                }
            }
        }
        Self { anchors, fisher }
    }

    /// Number of anchored parameter tensors.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True when no parameters are anchored.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// Total Fisher mass (diagnostics; grows with task-relevant weights).
    pub fn fisher_mass(&self) -> f32 {
        self.fisher.iter().map(Tensor::sum_all).sum()
    }

    /// Adds the EWC penalty `λ/2 Σ F (θ − θ*)²` to a loss graph. The
    /// session binds every parameter so the penalty reaches weights even
    /// if the current batch's forward pass did not touch them.
    pub fn penalty<'t>(
        &self,
        sess: &mut Session<'t, '_>,
        store: &ParamStore,
        lambda: f32,
    ) -> Var<'t> {
        assert_eq!(
            self.anchors.len(),
            store.len(),
            "store layout changed since the anchor was taken"
        );
        let mut total: Option<Var<'t>> = None;
        for (i, id) in store.ids().enumerate() {
            let theta = sess.param(id);
            let anchor = sess.input(self.anchors[i].clone());
            let fisher = sess.input(self.fisher[i].clone());
            let term = theta.sub(anchor).powf(2.0).mul(fisher).sum_all();
            total = Some(match total {
                Some(t) => t.add(term),
                None => term,
            });
        }
        total
            .expect("store has at least one parameter")
            .scale(0.5 * lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::random_geometric;
    use urcl_models::{GraphWaveNet, GwnConfig};
    use urcl_tensor::autodiff::Tape;
    use urcl_tensor::{Adam, Rng};

    fn setup() -> (ParamStore, GraphWaveNet, Vec<Sample>, Rng) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(21);
        let net = random_geometric(5, 0.5, &mut rng);
        let mut cfg = GwnConfig::small(5, 1, 6, 1);
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let windows: Vec<Sample> = (0..12)
            .map(|_| Sample {
                x: rng.uniform_tensor(&[6, 5, 1], 0.0, 1.0),
                y: rng.uniform_tensor(&[1, 5], 0.0, 1.0),
            })
            .collect();
        (store, model, windows, rng)
    }

    #[test]
    fn estimate_produces_nonnegative_fisher() {
        let (store, model, windows, _) = setup();
        let state =
            EwcState::estimate(&model, &store, &windows, 4, 3, &mut TaskLossPlan::default());
        assert_eq!(state.len(), store.len());
        assert!(state.fisher_mass() > 0.0);
        for f in &state.fisher {
            assert!(f.data().iter().all(|&v| v >= 0.0));
        }
    }

    /// The plan replay reproduces the Fisher diagonal of a per-batch tape
    /// recording bit for bit: 12 windows in batches of 5 take the
    /// recorded batch size, an unseen one and the remainder of 2.
    #[test]
    fn fisher_matches_tape_recording_bitwise() {
        let (store, model, windows, _) = setup();
        let state =
            EwcState::estimate(&model, &store, &windows, 5, 8, &mut TaskLossPlan::default());
        let mut expected: Vec<Vec<f32>> = store
            .ids()
            .map(|id| vec![0.0; store.value(id).len()])
            .collect();
        let chunks = windows.chunks(5);
        let batches = chunks.len() as f32;
        for chunk in chunks {
            let batch = stack_samples(chunk);
            let mut probe = store.clone();
            probe.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &probe);
            let x = sess.input(batch.x.clone());
            let y = sess.input(batch.y.clone());
            let loss = model.forward(&mut sess, x).sub(y).abs().mean_all();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            probe.accumulate_grads(&binds, &grads);
            for (f, id) in expected.iter_mut().zip(probe.ids()) {
                for (f, g) in f.iter_mut().zip(probe.grad(id).data()) {
                    *f += g * g;
                }
            }
        }
        for (i, id) in store.ids().enumerate() {
            let want: Vec<u32> = expected[i]
                .iter()
                .map(|f| (f * (1.0 / batches)).to_bits())
                .collect();
            let got: Vec<u32> = state.fisher[i].data().iter().map(|f| f.to_bits()).collect();
            assert_eq!(got, want, "Fisher diagonal of {}", store.name(id));
        }
    }

    #[test]
    fn penalty_zero_at_anchor_positive_away() {
        let (mut store, model, windows, _) = setup();
        let state =
            EwcState::estimate(&model, &store, &windows, 4, 3, &mut TaskLossPlan::default());
        // At the anchor: zero penalty.
        {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let p = state.penalty(&mut sess, &store, 1.0);
            assert!(p.value().item().abs() < 1e-9);
        }
        // Perturb every parameter: positive penalty.
        for id in store.ids().collect::<Vec<_>>() {
            for v in store.value_mut(id).data_mut() {
                *v += 0.1;
            }
        }
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let p = state.penalty(&mut sess, &store, 1.0);
        assert!(p.value().item() > 0.0);
    }

    #[test]
    fn penalty_pulls_parameters_back_to_anchor() {
        let (mut store, model, windows, _) = setup();
        let state =
            EwcState::estimate(&model, &store, &windows, 4, 3, &mut TaskLossPlan::default());
        let anchor0 = store.value(store.ids().next().unwrap()).clone();
        // Move away, then optimise the penalty alone.
        for id in store.ids().collect::<Vec<_>>() {
            for v in store.value_mut(id).data_mut() {
                *v += 0.5;
            }
        }
        let dist = |s: &ParamStore| {
            let id = s.ids().next().unwrap();
            s.value(id)
                .data()
                .iter()
                .zip(anchor0.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
        };
        let before = dist(&store);
        let mut opt = Adam::new(0.05);
        for _ in 0..50 {
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let p = state.penalty(&mut sess, &store, 10.0);
            let grads = tape.backward(p);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            opt.step(&mut store);
        }
        let after = dist(&store);
        assert!(
            after < before,
            "penalty failed to pull parameters back: {before} -> {after}"
        );
    }
}
