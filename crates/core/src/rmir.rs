//! Ranking-based Maximally Interfered Retrieval (RMIR, Section IV-B1).
//!
//! Instead of sampling the replay buffer uniformly, RMIR selects the
//! observations that (a) would be *most negatively impacted* by the
//! imminent parameter update — their loss rises the most under the
//! virtual update θᵛ = θ − α∇L of Eq. 3 — and then (b) ranks those
//! candidates by Pearson similarity to the current window, exploiting the
//! periodicity of traffic (Section IV-B1's temporal-correlation
//! argument).

use crate::replay::ReplayBuffer;
use crate::trainer::{ForwardPlan, TaskLossPlan};
use urcl_models::Backbone;
use urcl_stdata::Batch;
use urcl_tensor::{ExecPlan, ParamStore, Tensor};

/// Running statistics of RMIR selection over a training run. The trainer
/// accumulates these; they are part of the v2 full-pipeline checkpoint so
/// a resumed process reports the same cumulative selection activity as an
/// uninterrupted one (and so dashboards built on them survive restarts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmirStats {
    /// Number of virtual updates θᵛ = θ − α∇L performed (one per RMIR
    /// sampling round, Eq. 3).
    pub virtual_updates: u64,
    /// Total buffer observations selected for replay by RMIR.
    pub selected: u64,
}

impl RmirStats {
    /// Records one sampling round that picked `picked` observations.
    pub fn record_round(&mut self, picked: usize) {
        self.virtual_updates += 1;
        self.selected += picked as u64;
    }
}

/// Selects `select` buffer indices for replay.
///
/// * `pool` — buffer indices forming the candidate pool to score. Scoring
///   requires two forward passes over the pool, so the trainer draws a
///   random pool (e.g. 48 of 256) instead of the whole buffer — a
///   documented CPU-budget approximation of the paper's full scan.
/// * `current` — the incoming minibatch that will drive the next update.
/// * `lr` — the virtual-update step size α (Eq. 3).
/// * `candidates` — the interference short-list size |𝒩| (must be ≥
///   `select`; both are clamped to the pool size).
/// * `virtual_store` — RMIR's virtual parameter store θᵛ, built from
///   `store` when `None` and refreshed from it every round instead of
///   cloned.
/// * `task` — the backbone's task-loss plan, replayed for the virtual
///   update (the trainer shares its own with EWC).
/// * `forward` — the backbone's forward-only plan, replayed for both
///   scoring passes (the trainer shares its own with evaluation).
///
/// Returns buffer indices, best first. Empty when the pool is empty.
#[allow(clippy::too_many_arguments)]
pub fn rmir_sample(
    buffer: &ReplayBuffer,
    pool: &[usize],
    current: &Batch,
    backbone: &dyn Backbone,
    store: &ParamStore,
    lr: f32,
    candidates: usize,
    select: usize,
    virtual_store: &mut Option<ParamStore>,
    task: &mut TaskLossPlan,
    forward: &mut ForwardPlan,
) -> Vec<usize> {
    if pool.is_empty() || select == 0 {
        return Vec::new();
    }
    let select = select.min(pool.len());
    let candidates = candidates.clamp(select, pool.len());

    // Virtual update: θᵛ = θ − α ∇_θ L(f_θ(current)) (Eq. 3), replaying
    // the task-loss plan against a copy of the parameters kept across
    // rounds.
    let virtual_store = virtual_store.get_or_insert_with(|| store.clone());
    virtual_store.copy_values_from(store);
    virtual_store.zero_grads();
    {
        let _sp = urcl_trace::span("virtual_update");
        let plan = task.plan(backbone, store, current);
        let (_loss, grads) = plan.run_training(virtual_store, &[&current.x, &current.y]);
        virtual_store.accumulate_grads(plan.bindings(), &grads);
        virtual_store.sgd_step(lr);
    }
    urcl_trace::counter_inc("rmir.virtual_updates");

    // Interference: per-sample loss increase under θᵛ over the pool. One
    // forward-only plan scores both parameter sets.
    let pool_batch = buffer.gather(pool);
    let score = forward.plan(backbone, store, &pool_batch.x);
    let loss_before = per_sample_mae(store, &pool_batch, score);
    let loss_after = per_sample_mae(virtual_store, &pool_batch, score);
    let mut by_interference: Vec<(usize, f32)> = loss_before
        .iter()
        .zip(&loss_after)
        .map(|(b, a)| a - b)
        .enumerate()
        .map(|(pi, d)| (pool[pi], d))
        .collect();
    by_interference.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_interference.truncate(candidates);

    // Rank the short-list by Pearson similarity to the current windows
    // (mean over the minibatch).
    let reference = mean_over_batch(&current.x);
    let mut by_similarity: Vec<(usize, f32)> = by_interference
        .into_iter()
        .map(|(idx, _)| {
            let sim = buffer.get(idx).x.pearson(&reference);
            (idx, sim)
        })
        .collect();
    by_similarity.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_similarity.truncate(select);
    let picked: Vec<usize> = by_similarity.into_iter().map(|(idx, _)| idx).collect();
    urcl_trace::counter_add("rmir.selected", picked.len() as u64);
    picked
}

/// Per-sample MAE of a batch under the given parameters: `[B]` values.
/// The forward pass replays the compiled scoring plan; the reduction is
/// off-tape.
fn per_sample_mae(store: &ParamStore, batch: &Batch, plan: &ExecPlan) -> Vec<f32> {
    let pred = plan.run_forward(store, &[&batch.x]).remove(0); // [B, H, N]
    let diff = pred.sub(&batch.y).map(f32::abs);
    let per: Tensor = diff.sum_axes(&[1, 2], false);
    let denom = (batch.y.len() / batch.len()) as f32;
    per.data().iter().map(|v| v / denom).collect()
}

/// Mean of a `[B, ...]` tensor over the batch axis, keeping one sample's
/// shape.
fn mean_over_batch(x: &Tensor) -> Tensor {
    let b = x.shape()[0] as f32;
    let rest = x.shape()[1..].to_vec();
    x.sum_axes(&[0], false).scale(1.0 / b).reshape(&rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::random_geometric;
    use urcl_models::{Backbone, GraphWaveNet, GwnConfig};
    use urcl_stdata::{stack_samples, Sample};
    use urcl_tensor::autodiff::{Session, Tape};
    use urcl_tensor::{ParamStore, Rng};

    fn setup() -> (ParamStore, GraphWaveNet, ReplayBuffer, Batch, Rng) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(11);
        let net = random_geometric(5, 0.5, &mut rng);
        let mut cfg = GwnConfig::small(5, 1, 6, 1);
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let mut buffer = ReplayBuffer::new(16);
        for i in 0..10 {
            buffer.push(Sample {
                x: rng
                    .uniform_tensor(&[6, 5, 1], 0.0, 1.0)
                    .map(|v| v + i as f32 * 0.01),
                y: rng.uniform_tensor(&[1, 5], 0.0, 1.0),
            });
        }
        let current = stack_samples(&[
            Sample {
                x: rng.uniform_tensor(&[6, 5, 1], 0.0, 1.0),
                y: rng.uniform_tensor(&[1, 5], 0.0, 1.0),
            },
            Sample {
                x: rng.uniform_tensor(&[6, 5, 1], 0.0, 1.0),
                y: rng.uniform_tensor(&[1, 5], 0.0, 1.0),
            },
        ]);
        (store, model, buffer, current, rng)
    }

    fn full_pool(buffer: &ReplayBuffer) -> Vec<usize> {
        (0..buffer.len()).collect()
    }

    #[test]
    fn returns_requested_count_of_valid_indices() {
        let (store, model, buffer, current, _) = setup();
        let pool = full_pool(&buffer);
        let picked = rmir_sample(
            &buffer,
            &pool,
            &current,
            &model,
            &store,
            0.05,
            6,
            3,
            &mut None,
            &mut TaskLossPlan::default(),
            &mut ForwardPlan::default(),
        );
        assert_eq!(picked.len(), 3);
        assert!(picked.iter().all(|&i| i < buffer.len()));
        // Distinct indices.
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn empty_pool_returns_nothing() {
        let (store, model, buffer, current, _) = setup();
        assert!(rmir_sample(
            &buffer,
            &[],
            &current,
            &model,
            &store,
            0.05,
            4,
            2,
            &mut None,
            &mut TaskLossPlan::default(),
            &mut ForwardPlan::default(),
        )
        .is_empty());
    }

    #[test]
    fn select_clamped_to_pool_len() {
        let (store, model, buffer, current, _) = setup();
        let pool = full_pool(&buffer);
        let picked = rmir_sample(
            &buffer,
            &pool,
            &current,
            &model,
            &store,
            0.05,
            99,
            99,
            &mut None,
            &mut TaskLossPlan::default(),
            &mut ForwardPlan::default(),
        );
        assert_eq!(picked.len(), buffer.len());
    }

    #[test]
    fn restricted_pool_only_returns_pool_members() {
        let (store, model, buffer, current, _) = setup();
        let pool = vec![1usize, 4, 7];
        let picked = rmir_sample(
            &buffer,
            &pool,
            &current,
            &model,
            &store,
            0.05,
            3,
            2,
            &mut None,
            &mut TaskLossPlan::default(),
            &mut ForwardPlan::default(),
        );
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|i| pool.contains(i)));
    }

    #[test]
    fn per_sample_losses_match_batch_mean() {
        let (store, model, buffer, _, _) = setup();
        let all = buffer.as_batch().unwrap();
        let plan = model.compile_forward(&store, &all.x);
        let per = per_sample_mae(&store, &all, &plan);
        assert_eq!(per.len(), buffer.len());
        // Mean of per-sample MAEs equals the batch MAE.
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(all.x.clone());
        let pred = model.forward(&mut sess, x).value();
        let batch_mae = pred.sub(&all.y).map(f32::abs).mean_all();
        let per_mean: f32 = per.iter().sum::<f32>() / per.len() as f32;
        assert!((batch_mae - per_mean).abs() < 1e-5);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (store, model, buffer, current, _) = setup();
        let pool = full_pool(&buffer);
        let a = rmir_sample(
            &buffer,
            &pool,
            &current,
            &model,
            &store,
            0.05,
            6,
            3,
            &mut None,
            &mut TaskLossPlan::default(),
            &mut ForwardPlan::default(),
        );
        let b = rmir_sample(
            &buffer,
            &pool,
            &current,
            &model,
            &store,
            0.05,
            6,
            3,
            &mut None,
            &mut TaskLossPlan::default(),
            &mut ForwardPlan::default(),
        );
        assert_eq!(a, b);
    }
}
