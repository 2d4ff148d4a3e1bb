//! Augmented-SSL record-vs-replay parity: the paper-default training step
//! (task MAE + weighted GraphCL term over two augmentation draws) must
//! produce bitwise-identical loss and parameter gradients whether it is
//! recorded afresh and differentiated with `Tape::backward`, or replayed
//! through ONE compiled batch-polymorphic plan whose promoted input slots
//! (view tensors, per-view graph supports, contrastive masks) are rebound
//! per draw.
//!
//! The sweep churns augmentation draws, batch sizes (poly replay) and
//! architectures (two models alternating) through one plan per
//! architecture.

use urcl::core::{Augmentation, AugmentedView, StSimSiam};
use urcl::graph::{random_geometric, SupportSet};
use urcl::models::{Backbone, GraphWaveNet, GwnConfig};
use urcl::stdata::{stack_samples, Batch, Sample};
use urcl::tensor::autodiff::{Session, Tape};
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

/// Records the augmented step graph and collects the promoted input
/// slots in the trainer's binding order: `[x, y, x1, x2, eye, off_mask,
/// view-1 supports…, view-2 supports…]`. Returns the recording and the
/// per-view support slot count.
fn record_ssl(
    arch: &Arch,
    x: &Tensor,
    y: &Tensor,
    v1: &AugmentedView,
    v2: &AugmentedView,
) -> (Recording, usize) {
    let tape = Tape::new();
    let (root, inputs, bindings, view_slots);
    {
        let mut sess = Session::new(&tape, &arch.store);
        let xv = sess.input(x.clone());
        let yv = sess.input(y.clone());
        let x1 = sess.input(v1.x.clone());
        let x2 = sess.input(v2.x.clone());
        let mut ins = vec![xv.index(), yv.index(), x1.index(), x2.index()];
        let task = arch.model.forward(&mut sess, xv).sub(yv).abs().mean_all();
        let ssl = arch.simsiam.loss_from_vars(
            &mut sess,
            &arch.model,
            x1,
            v1.supports.as_ref(),
            x2,
            v2.supports.as_ref(),
        );
        let total = task.add(ssl.scale(SSL_WEIGHT));
        ins.extend(sess.slot_nodes("ssl.eye"));
        ins.extend(sess.slot_nodes("ssl.off_mask"));
        let s1 = sess.slot_nodes_prefix("ssl.v1.");
        let s2 = sess.slot_nodes_prefix("ssl.v2.");
        assert_eq!(s1.len(), s2.len(), "view support slot counts differ");
        view_slots = s1.len();
        ins.extend(s1);
        ins.extend(s2);
        root = total.index();
        inputs = ins;
        bindings = sess.into_bindings();
    }
    let recording = Recording {
        tape,
        root: Some(root),
        inputs,
        outputs: Vec::new(),
        bindings,
    };
    (recording, view_slots)
}

/// Compiles one batch-polymorphic plan for the architecture's augmented
/// step.
fn compile_ssl(
    arch: &Arch,
    batch: &Batch,
    v1: &AugmentedView,
    v2: &AugmentedView,
) -> (ExecPlan, usize) {
    let b0 = batch.x.shape()[0];
    let mut view_slots = 0;
    let plan = ExecPlan::compile_poly(b0, |b| {
        let (rec, slots) = record_ssl(
            arch,
            &batch.x.at_batch(b),
            &batch.y.at_batch(b),
            &v1.at_batch(b),
            &v2.at_batch(b),
        );
        view_slots = slots;
        rec
    });
    (plan, view_slots)
}

/// Reference for one draw (no parameter update): a fresh recording
/// differentiated by `Tape::backward`. Returns the loss bits and every
/// bound parameter's gradient bits, in binding order.
fn recorded_reference(
    arch: &Arch,
    batch: &Batch,
    v1: &AugmentedView,
    v2: &AugmentedView,
) -> (u32, Vec<Vec<u32>>) {
    let (rec, _) = record_ssl(arch, &batch.x, &batch.y, v1, v2);
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

fn ssl_refs<'a>(
    batch: &'a Batch,
    v1: &'a AugmentedView,
    v2: &'a AugmentedView,
    eye: &'a Tensor,
    off: &'a Tensor,
    view_slots: usize,
    template: Option<&'a SupportSet>,
) -> Vec<&'a Tensor> {
    let mut refs = vec![&batch.x, &batch.y, &v1.x, &v2.x, eye, off];
    for v in [v1, v2] {
        let set = v
            .supports
            .as_ref()
            .or(template)
            .expect("backbone exposes no support template");
        let sup = set.all();
        for j in 0..view_slots {
            refs.push(sup[j % sup.len()]);
        }
    }
    refs
}

#[test]
fn one_plan_per_arch_serves_every_draw_and_batch_size() {
    let mut rng = Rng::seed_from_u64(53);
    let net = random_geometric(NODES, 0.4, &mut rng);
    let archs = [make_arch(&net, 1, 7), make_arch(&net, 2, 11)];

    // Batch sizes churn around the recorded size 4; SSL batches of 1 are
    // a structurally different graph the trainer records per step, so
    // the poly sweep starts at 2.
    let sizes = [4usize, 3, 2, 5, 4];
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
    let plans: Vec<(ExecPlan, usize)> = archs
        .iter()
        .map(|arch| compile_ssl(arch, &batches[0], &draws[0].0, &draws[0].1))
        .collect();

    // Arch-churn sweep: alternate architectures per (batch, draw) point.
    // Every point must match a fresh recording bitwise — loss and every
    // bound parameter's gradient — through the one plan per architecture.
    for (i, (batch, (v1, v2))) in batches.iter().zip(&draws).enumerate() {
        for (ai, arch) in archs.iter().enumerate() {
            let (plan, view_slots) = &plans[ai];
            let (eye, off) = StSimSiam::contrastive_masks(batch.x.shape()[0]);
            let template = arch.model.support_template();
            let refs = ssl_refs(batch, v1, v2, &eye, &off, *view_slots, template);
            assert!(
                plan.accepts(&refs),
                "arch {ai} plan rejected batch size {} at point {i}",
                batch.x.shape()[0]
            );
            let (loss, grads) = plan.run_training(&arch.store, &refs);
            let (ref_loss, ref_grads) = recorded_reference(arch, batch, v1, v2);
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
