//! Integration tests across `urcl-models` + `urcl-core`: every deep
//! backbone must (a) produce correctly-shaped predictions, (b) train
//! through the continuous trainer, and (c) work as a URCL backbone with
//! the STSimSiam head — the generality claim of Table IV.
//!
//! Training scenarios run on a shrunk 4-day stream to keep the debug-mode
//! suite fast; the original full-size runs are gated behind `#[ignore]`
//! and prove the same properties on 2.5× more data. Run them with
//! `cargo test --test backbones -- --ignored` (or `--include-ignored`).

use urcl::core::{ContinualTrainer, StSimSiam, Strategy, TrainerConfig};
use urcl::graph::SensorNetwork;
use urcl::models::{
    Agcrn, Arima, Backbone, BackboneConfig, Dcrnn, GeoMan, GraphWaveNet, GwnConfig, Mtgnn, Stgcn,
    Stgode,
};
use urcl::stdata::{stack_samples, Batch, ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::autodiff::{Session, Tape};
use urcl::tensor::{ParamStore, Rng, Tensor};

fn tiny_days(num_days: usize) -> (SyntheticDataset, ContinualSplit, f32) {
    let mut cfg = DatasetConfig::metr_la().tiny();
    cfg.num_days = num_days;
    let dataset = SyntheticDataset::generate(cfg);
    let normalizer = dataset.fit_normalizer();
    let raw = dataset.continual_split(2);
    let split = ContinualSplit {
        base: raw.base.normalized(&normalizer),
        incremental: raw
            .incremental
            .iter()
            .map(|p| p.normalized(&normalizer))
            .collect(),
    };
    let scale = normalizer.scale(dataset.config.target_channel);
    (dataset, split, scale)
}

fn all_backbones(net: &SensorNetwork, cfg: &DatasetConfig) -> Vec<(Box<dyn Backbone>, ParamStore)> {
    let base = || {
        BackboneConfig::small(
            cfg.num_nodes,
            cfg.num_channels(),
            cfg.input_steps,
            cfg.output_steps,
        )
    };
    let mut out: Vec<(Box<dyn Backbone>, ParamStore)> = Vec::new();
    {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let mut gcfg = GwnConfig::small(
            cfg.num_nodes,
            cfg.num_channels(),
            cfg.input_steps,
            cfg.output_steps,
        );
        gcfg.layers = 2;
        out.push((
            Box::new(GraphWaveNet::new(&mut store, &mut rng, net, gcfg)),
            store,
        ));
    }
    macro_rules! push {
        ($ctor:expr) => {{
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from_u64(1);
            #[allow(clippy::redundant_closure_call)]
            let model: Box<dyn Backbone> = Box::new($ctor(&mut store, &mut rng));
            out.push((model, store));
        }};
    }
    push!(|s: &mut ParamStore, r: &mut Rng| Dcrnn::new(s, r, net, base(), 2));
    push!(|s: &mut ParamStore, r: &mut Rng| Stgcn::new(s, r, net, base(), 2, 3));
    push!(|s: &mut ParamStore, r: &mut Rng| Mtgnn::new(s, r, base(), 4));
    push!(|s: &mut ParamStore, r: &mut Rng| Agcrn::new(s, r, base(), 4));
    push!(|s: &mut ParamStore, r: &mut Rng| Stgode::new(s, r, net, base(), 3, 0.3));
    push!(|s: &mut ParamStore, r: &mut Rng| GeoMan::new(s, r, base()));
    out
}

#[test]
fn every_backbone_predicts_correct_shapes() {
    let (dataset, split, _) = tiny_days(4);
    let windows = split.base.windows(&dataset.config);
    let batch = stack_samples(&windows[..3]);
    for (model, store) in all_backbones(&dataset.network, &dataset.config) {
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(batch.x.clone());
        let latent = model.encode(&mut sess, x);
        assert_eq!(
            latent.shape()[..2],
            [3, dataset.config.num_nodes],
            "{} latent shape",
            model.name()
        );
        let pred = model.decode(&mut sess, latent);
        assert_eq!(
            pred.shape(),
            vec![3, 1, dataset.config.num_nodes],
            "{} prediction shape",
            model.name()
        );
        assert!(
            pred.value().data().iter().all(|v| v.is_finite()),
            "{} produced non-finite predictions",
            model.name()
        );
        // One batch-polymorphic forward plan replays a fresh recording
        // bit for bit at the batch it was compiled from and at another.
        let plan = model.compile_forward(&store, &batch.x);
        for b in [3, 5] {
            let x = stack_samples(&windows[..b]).x;
            let replay = plan.run_forward(&store, &[&x]).remove(0);
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x);
            let recorded = model.forward(&mut sess, xv).value();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&replay),
                bits(&recorded),
                "{} forward plan at batch {b}",
                model.name()
            );
        }
    }
}

/// Forecast and MAE loss of `batch` with `x` substituted, accumulating
/// every parameter gradient into `store`.
fn forecast_and_grads(
    model: &dyn Backbone,
    store: &mut ParamStore,
    x: &Tensor,
    batch: &Batch,
) -> (Tensor, f32) {
    store.zero_grads();
    let tape = Tape::new();
    let mut sess = Session::new(&tape, store);
    let xv = sess.input(x.clone());
    let yv = sess.input(batch.y.clone());
    let pred = model.forward(&mut sess, xv);
    let loss = pred.sub(yv).abs().mean_all();
    let grads = tape.backward(loss);
    let bindings = sess.into_bindings();
    let out = (pred.value(), loss.value().item());
    store.accumulate_grads(&bindings, &grads);
    out
}

/// The convolutional encoders narrow each window to the steps their
/// forecast reads before the first layer, so no kernel ever touches the
/// steps before: with those steps NaN the forecast keeps its bits, and
/// the loss and every parameter gradient stay finite (a NaN row inside
/// any layer would reach a weight gradient as NaN·0).
#[test]
fn encoders_never_read_outside_their_receptive_field() {
    let (dataset, split, _) = tiny_days(4);
    let cfg = &dataset.config;
    let net = &dataset.network;
    let base = BackboneConfig::small(cfg.num_nodes, cfg.num_channels(), cfg.input_steps, 1);
    // (model, store, input steps its forecast reads)
    let mut cases: Vec<(Box<dyn Backbone>, ParamStore, usize)> = Vec::new();
    for layers in [2, 3] {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let mut gcfg = GwnConfig::small(cfg.num_nodes, cfg.num_channels(), cfg.input_steps, 1);
        gcfg.layers = layers;
        let field = gcfg.receptive_span() + 1;
        let model = GraphWaveNet::new(&mut store, &mut rng, net, gcfg);
        cases.push((Box::new(model), store, field));
    }
    {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let model = Stgcn::new(&mut store, &mut rng, net, base.clone(), 2, 3);
        cases.push((Box::new(model), store, 2 * (3 - 1) + 1));
    }
    {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let model = Mtgnn::new(&mut store, &mut rng, base.clone(), 4);
        cases.push((Box::new(model), store, 2));
    }
    {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let model = Stgode::new(&mut store, &mut rng, net, base.clone(), 3, 0.3);
        cases.push((Box::new(model), store, 2));
    }

    let windows = split.base.windows(cfg);
    let batch = stack_samples(&windows[..4]);
    let [b, m, n, c] = <[usize; 4]>::try_from(batch.x.shape()).expect("4-D batch");
    for (model, mut store, field) in cases {
        let name = model.name().to_string();
        assert!(
            field < m,
            "{name}: receptive field {field} covers the window"
        );
        let mut poisoned = batch.x.clone();
        let step = n * c;
        for sample in poisoned.data_mut().chunks_mut(m * step).take(b) {
            sample[..(m - field) * step].fill(f32::NAN);
        }
        let (clean, _) = forecast_and_grads(model.as_ref(), &mut store, &batch.x, &batch);
        let (pred, loss) = forecast_and_grads(model.as_ref(), &mut store, &poisoned, &batch);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&pred),
            bits(&clean),
            "{name}: forecast read a poisoned step"
        );
        assert!(loss.is_finite(), "{name}: loss {loss}");
        for id in store.ids() {
            assert!(
                store.grad(id).data().iter().all(|g| g.is_finite()),
                "{name}: gradient of {} read a poisoned step",
                store.name(id)
            );
        }
    }
}

fn check_every_backbone_trains(num_days: usize, window_stride: usize) {
    let (dataset, split, scale) = tiny_days(num_days);
    for (model, mut store) in all_backbones(&dataset.network, &dataset.config) {
        let cfg = TrainerConfig {
            strategy: Strategy::FinetuneSt,
            epochs_base: 1,
            epochs_incremental: 1,
            window_stride,
            ..TrainerConfig::default()
        };
        let mut trainer = ContinualTrainer::new(cfg);
        let report = trainer.run(
            model.as_ref(),
            None,
            &mut store,
            &dataset.network,
            &split,
            &dataset.config,
            scale,
        );
        assert_eq!(report.sets.len(), 3, "{}", model.name());
        assert!(
            report.sets.iter().all(|s| s.mae.is_finite()),
            "{} diverged",
            model.name()
        );
    }
}

#[test]
fn every_backbone_trains_through_the_stream() {
    check_every_backbone_trains(4, 14);
}

/// Original full-size run over all eight backbones (slow in debug builds).
#[test]
#[ignore = "full-size stream; run with cargo test --test backbones -- --ignored"]
fn every_backbone_trains_through_the_stream_full() {
    check_every_backbone_trains(10, 10);
}

fn check_urcl_accepts_alternate_backbones(num_days: usize, window_stride: usize) {
    // Table IV: DCRNN and GeoMAN as URCL backbones.
    let (dataset, split, scale) = tiny_days(num_days);
    let base = BackboneConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    let candidates: Vec<(Box<dyn Backbone>, ParamStore, StSimSiam)> = {
        let mut v: Vec<(Box<dyn Backbone>, ParamStore, StSimSiam)> = Vec::new();
        {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from_u64(2);
            let m = Dcrnn::new(&mut store, &mut rng, &dataset.network, base.clone(), 1);
            let sim = StSimSiam::new(&mut store, &mut rng, base.latent, 16, 0.5);
            v.push((Box::new(m), store, sim));
        }
        {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from_u64(2);
            let m = GeoMan::new(&mut store, &mut rng, base.clone());
            let sim = StSimSiam::new(&mut store, &mut rng, base.latent, 16, 0.5);
            v.push((Box::new(m), store, sim));
        }
        v
    };
    for (model, mut store, sim) in candidates {
        let cfg = TrainerConfig {
            epochs_base: 1,
            epochs_incremental: 1,
            window_stride,
            ..TrainerConfig::default()
        };
        let mut trainer = ContinualTrainer::new(cfg);
        let report = trainer.run(
            model.as_ref(),
            Some(&sim),
            &mut store,
            &dataset.network,
            &split,
            &dataset.config,
            scale,
        );
        assert!(
            report.sets.iter().all(|s| s.mae.is_finite()),
            "URCL with {} backbone diverged",
            model.name()
        );
        assert!(!trainer.buffer().is_empty());
    }
}

#[test]
fn urcl_accepts_alternate_backbones() {
    check_urcl_accepts_alternate_backbones(4, 16);
}

/// Original full-size run (slow in debug builds).
#[test]
#[ignore = "full-size stream; run with cargo test --test backbones -- --ignored"]
fn urcl_accepts_alternate_backbones_full() {
    check_urcl_accepts_alternate_backbones(10, 12);
}

#[test]
fn arima_fits_and_forecasts_the_stream() {
    let (dataset, split, _) = tiny_days(4);
    let cfg = &dataset.config;
    let train = &split.base.series;
    let t = train.shape()[0];
    let target = train
        .index_select(2, &[cfg.target_channel])
        .reshape(&[t, cfg.num_nodes]);
    let model = Arima::fit(&target, 3, 0);
    let windows = split.base.windows(cfg);
    let w = &windows[10];
    let xt =
        w.x.index_select(2, &[cfg.target_channel])
            .reshape(&[cfg.input_steps, cfg.num_nodes]);
    let pred = model.forecast(&xt);
    assert_eq!(pred.shape(), &[1, cfg.num_nodes]);
    // Normalized data: predictions should be near [0, 1].
    assert!(pred
        .data()
        .iter()
        .all(|v| v.is_finite() && *v > -0.5 && *v < 1.5));
}
