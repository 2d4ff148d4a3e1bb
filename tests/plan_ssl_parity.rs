//! Augmented-SSL record-vs-replay parity: the paper-default training step
//! (task MAE + weighted GraphCL term over two augmentation draws) must
//! produce bitwise-identical loss and parameter gradients whether it is
//! recorded afresh and differentiated with `Tape::backward`, or replayed
//! through ONE compiled batch-polymorphic plan whose inputs (view tensors,
//! per-view graph supports, contrastive masks) are rebound per draw.
//!
//! The sweep churns augmentation draws, batch sizes 1–5 (poly replay) and
//! architectures (two models alternating) through one plan per
//! architecture.

use urcl::core::{Augmentation, AugmentedView, StSimSiam};
use urcl::graph::random_geometric;
use urcl::models::{Backbone, GraphWaveNet, GwnConfig};
use urcl::stdata::{stack_samples, Batch, Sample};
use urcl::tensor::{ExecPlan, ParamStore, Recording, Rng, Tensor};

const SSL_WEIGHT: f32 = 0.05;
const K_DIFFUSION: usize = 2;
const NODES: usize = 12;
const STEPS: usize = 8;
const CHANNELS: usize = 2;

struct Arch {
    store: ParamStore,
    model: GraphWaveNet,
    simsiam: StSimSiam,
}

fn make_arch(net: &urcl::graph::SensorNetwork, layers: usize, seed: u64) -> Arch {
    let mut rng = Rng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let mut cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    cfg.layers = layers;
    let latent = cfg.base.latent;
    let model = GraphWaveNet::new(&mut store, &mut rng, net, cfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, latent, latent, 0.5);
    Arch {
        store,
        model,
        simsiam,
    }
}

fn make_batch(rng: &mut Rng, b: usize) -> Batch {
    let samples: Vec<Sample> = (0..b)
        .map(|_| Sample {
            x: rng.uniform_tensor(&[STEPS, NODES, CHANNELS], 0.0, 1.0),
            y: rng.uniform_tensor(&[1, NODES], 0.0, 1.0),
        })
        .collect();
    stack_samples(&samples)
}

/// Records the augmented step graph for one draw: task MAE plus the
/// weighted GraphCL term. Every input is recorded once, through `input`,
/// which also keeps its tensor, so the returned tensors are the
/// recording's plan inputs in order and a replay binds exactly what the
/// recording read. A view that kept the original graph records the
/// model's own supports.
fn record_step(
    arch: &Arch,
    batch: &Batch,
    v1: &AugmentedView,
    v2: &AugmentedView,
) -> (Recording, Vec<Tensor>) {
    let template = arch
        .model
        .support_template()
        .expect("GraphWaveNet supports");
    let masks = StSimSiam::contrastive_masks(batch.x.shape()[0]);
    let mut bound = Vec::new();
    let rec = Recording::training(&arch.store, |sess| {
        let mut vars = Vec::new();
        let mut input = |t: &Tensor| {
            bound.push(t.clone());
            let v = sess.input(t.clone());
            vars.push(v);
            v
        };
        let (x, y) = (input(&batch.x), input(&batch.y));
        let views = [v1, v2].map(|v| {
            let x = input(&v.x);
            let supports = v.supports.as_ref().unwrap_or(template).all();
            (x, supports.into_iter().map(&mut input).collect::<Vec<_>>())
        });
        let masks = masks.each_ref().map(&mut input);
        let task = arch.model.forward(sess, x).sub(y).abs().mean_all();
        let views = views.each_ref().map(|(x, s)| (*x, Some(&s[..])));
        let ssl = arch.simsiam.loss_from_vars(sess, &arch.model, views, masks);
        (vars, task.add(ssl.scale(SSL_WEIGHT)))
    });
    (rec, bound)
}

/// Compiles one batch-polymorphic plan for the architecture's augmented
/// step.
fn compile_ssl(arch: &Arch, batch: &Batch, v1: &AugmentedView, v2: &AugmentedView) -> ExecPlan {
    ExecPlan::compile_poly(batch.x.shape()[0], |b| {
        let batch = Batch {
            x: batch.x.at_batch(b),
            y: batch.y.at_batch(b),
        };
        record_step(arch, &batch, &v1.at_batch(b), &v2.at_batch(b)).0
    })
}

/// Reference for one draw (no parameter update): the draw's fresh
/// recording differentiated by `Tape::backward`. Returns the loss bits
/// and every bound parameter's gradient bits, in binding order.
fn recorded_reference(rec: &Recording) -> (u32, Vec<Vec<u32>>) {
    let root = rec.tape.var(rec.root.expect("training recording"));
    let grads = rec.tape.backward(root);
    let grad_bits = rec
        .bindings
        .iter()
        .map(|&(_, idx)| bits(grads.by_index(idx).expect("bound parameter has a gradient")))
        .collect();
    (root.value().item().to_bits(), grad_bits)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn one_plan_per_arch_serves_every_draw_and_batch_size() {
    let mut rng = Rng::seed_from_u64(53);
    let net = random_geometric(NODES, 0.4, &mut rng);
    let archs = [make_arch(&net, 1, 7), make_arch(&net, 2, 11)];

    // Batch sizes churn around the recorded size 4, down to 1, where the
    // GraphCL loss has no negatives and replays the same plan.
    let sizes = [4usize, 1, 3, 2, 5, 1, 4];
    let batches: Vec<Batch> = sizes.iter().map(|&b| make_batch(&mut rng, b)).collect();
    let draws: Vec<(AugmentedView, AugmentedView)> = batches
        .iter()
        .map(|batch| {
            let (a1, a2) = Augmentation::sample_two(&mut rng);
            (
                a1.apply(&batch.x, &net, K_DIFFUSION, &mut rng),
                a2.apply(&batch.x, &net, K_DIFFUSION, &mut rng),
            )
        })
        .collect();

    // One compile per architecture, before the sweep.
    let plans: Vec<ExecPlan> = archs
        .iter()
        .map(|arch| compile_ssl(arch, &batches[0], &draws[0].0, &draws[0].1))
        .collect();

    // Arch-churn sweep: alternate architectures per (batch, draw) point.
    // Every point must match a fresh recording bitwise — loss and every
    // bound parameter's gradient — through the one plan per architecture.
    for (i, (batch, (v1, v2))) in batches.iter().zip(&draws).enumerate() {
        for (ai, arch) in archs.iter().enumerate() {
            let plan = &plans[ai];
            let (rec, inputs) = record_step(arch, batch, v1, v2);
            let inputs: Vec<&Tensor> = inputs.iter().collect();
            assert!(
                plan.accepts(&inputs),
                "arch {ai} plan rejected batch size {} at point {i}",
                batch.x.shape()[0]
            );
            let (loss, grads) = plan.run_training(&arch.store, &inputs);
            let (ref_loss, ref_grads) = recorded_reference(&rec);
            let ctx = format!("arch {ai} point {i} (batch {})", batch.x.shape()[0]);
            assert_eq!(
                loss.item().to_bits(),
                ref_loss,
                "{ctx}: replay loss diverged from the recording"
            );
            assert_eq!(
                plan.bindings().len(),
                ref_grads.len(),
                "{ctx}: binding count"
            );
            for (k, &(id, idx)) in plan.bindings().iter().enumerate() {
                let g = grads.by_index(idx).expect("bound parameter has a gradient");
                assert_eq!(
                    bits(g),
                    ref_grads[k],
                    "{ctx}: gradient of {} diverged from the recording",
                    arch.store.name(id)
                );
            }
        }
    }
}
