//! The streaming workloads: the paper's protocol (a base set plus 4
//! incremental sets, cumulative eval after each) driven through
//! `ContinualTrainer::run_with_hook`/`resume_with_hook`. The hook pauses
//! at every period boundary, the benchmark publishes a full checkpoint
//! through `CheckpointDir::save`, and the run resumes.

use std::path::Path;
use std::time::Instant;

use urcl::core::{
    CheckpointDir, ContinualTrainer, HookAction, PipelineState, RunOutcome, RunReport, SetReport,
    StSimSiam, StepInfo, Strategy, TrainHook, TrainerConfig,
};
use urcl::graph::SensorNetwork;
use urcl::json::Value;
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, Normalizer, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};

use crate::host;
use crate::layers;
use crate::{mean, median, quantile, sub_seed, Checks, Measured, Opts};

/// Incremental sets after the base set (the paper's protocol).
const INCREMENTAL_SETS: usize = 4;

/// Everything a protocol run consumes, built from the seed.
struct Fixture {
    data_cfg: DatasetConfig,
    network: SensorNetwork,
    split: ContinualSplit,
    normalizer: Normalizer,
    scale: f32,
    model: GraphWaveNet,
    simsiam: StSimSiam,
    store: ParamStore,
    trainer: ContinualTrainer,
}

impl Fixture {
    /// Data synthesis and model build: the METR-LA analogue (24 sensors,
    /// 28 days) and GraphWaveNet with the STSimSiam head, trainer
    /// components from `TrainerConfig::default()`.
    fn build(opts: &Opts, strategy: Strategy) -> Self {
        let mut data_cfg = DatasetConfig::metr_la();
        data_cfg.seed = sub_seed(opts.seed, 1);
        // Two base epochs, one per incremental set and every 4th training
        // window keep a URCL protocol near 9 s on the reference host, so a
        // run fits a warm-up and three timed protocols; the paper-default
        // 8 + 5 epochs over every 2nd window take ~80 s.
        let mut trainer_cfg = TrainerConfig {
            strategy,
            epochs_base: 2,
            epochs_incremental: 1,
            window_stride: 4,
            seed: sub_seed(opts.seed, 2),
            ..TrainerConfig::default()
        };
        if opts.smoke {
            data_cfg = data_cfg.tiny();
            data_cfg.num_days = 4;
            trainer_cfg.epochs_base = 1;
            trainer_cfg.epochs_incremental = 1;
            trainer_cfg.window_stride = 8;
        }
        let ds = SyntheticDataset::generate(data_cfg);
        let normalizer = ds.fit_normalizer();
        let raw = ds.continual_split(INCREMENTAL_SETS);
        let split = ContinualSplit {
            base: raw.base.normalized(&normalizer),
            incremental: raw
                .incremental
                .iter()
                .map(|p| p.normalized(&normalizer))
                .collect(),
        };
        let scale = normalizer.scale(ds.config.target_channel);

        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(sub_seed(opts.seed, 3));
        let gwn_cfg = GwnConfig::small(
            ds.config.num_nodes,
            ds.config.num_channels(),
            ds.config.input_steps,
            ds.config.output_steps,
        );
        let latent = gwn_cfg.base.latent;
        let model = GraphWaveNet::new(&mut store, &mut rng, &ds.network, gwn_cfg);
        let simsiam = StSimSiam::new(&mut store, &mut rng, latent, latent, trainer_cfg.tau);
        Self {
            data_cfg: ds.config,
            network: ds.network,
            split,
            normalizer,
            scale,
            model,
            simsiam,
            store,
            trainer: ContinualTrainer::new(trainer_cfg),
        }
    }
}

/// What an interval of a protocol covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    /// One optimisation step. A period's first step also carries the
    /// period's own set-up (window building, plan compiles).
    Step,
    /// From a period's last step until the trainer returns: cumulative
    /// eval and the period report.
    Eval,
    /// The benchmark's checkpoint publish: trainer snapshot plus
    /// `CheckpointDir::save`.
    Publish,
}

/// One interval between consecutive timestamps of a protocol. A
/// protocol's segments add up to its wall time.
#[derive(Clone, Copy)]
struct Segment {
    part: Part,
    period: usize,
    secs: f64,
}

/// Times every optimisation step, checks each step loss, and pauses the
/// run at each period boundary so the benchmark can publish.
struct ProtocolHook {
    mark: Instant,
    segments: Vec<Segment>,
    nonfinite_losses: u64,
}

impl ProtocolHook {
    /// Closes the interval since the previous timestamp.
    fn lap(&mut self, part: Part, period: usize) {
        let now = Instant::now();
        self.segments.push(Segment {
            part,
            period,
            secs: now.duration_since(self.mark).as_secs_f64(),
        });
        self.mark = now;
    }
}

impl TrainHook for ProtocolHook {
    fn after_step(&mut self, info: &StepInfo) -> HookAction {
        self.lap(Part::Step, info.period);
        if !info.loss.is_finite() {
            self.nonfinite_losses += 1;
        }
        HookAction::Continue
    }

    fn after_period(&mut self, _period: usize, _report: &SetReport) -> HookAction {
        HookAction::Stop
    }
}

/// What one pass over the protocol measured.
struct Protocol {
    protocol_s: f64,
    segments: Vec<Segment>,
    publish_bytes: u64,
    nonfinite_losses: u64,
    report: RunReport,
}

impl Protocol {
    fn total(&self, part: Part) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.part == part)
            .map(|s| s.secs)
            .sum()
    }
}

/// The step times among `segments`.
fn step_times(segments: &[Segment]) -> Vec<f64> {
    segments
        .iter()
        .filter(|s| s.part == Part::Step)
        .map(|s| s.secs)
        .collect()
}

/// Per period: from its start until its checkpoint is published.
fn period_times(segments: &[Segment]) -> Vec<f64> {
    let mut times = Vec::new();
    for s in segments {
        if times.len() <= s.period {
            times.resize(s.period + 1, 0.0);
        }
        times[s.period] += s.secs;
    }
    times
}

fn run_protocol(fx: &mut Fixture, dir: &Path) -> Protocol {
    let slots = CheckpointDir::new(dir).expect("checkpoint directory inside the checkout");
    let t0 = Instant::now();
    let mut hook = ProtocolHook {
        mark: t0,
        segments: Vec::new(),
        nonfinite_losses: 0,
    };
    let mut publish_bytes = 0;
    let mut period = 0;
    let mut outcome = fx.trainer.run_with_hook(
        &fx.model,
        Some(&fx.simsiam),
        &mut fx.store,
        &fx.network,
        &fx.split,
        &fx.data_cfg,
        fx.scale,
        &mut hook,
    );
    let report = loop {
        hook.lap(Part::Eval, period);
        // A period just finished: publish the full pipeline state, as a
        // deployment does before serving the new model.
        let state = PipelineState {
            trainer: fx.trainer.snapshot(),
            normalizer: Some(fx.normalizer.clone()),
            periods_seen: period + 1,
        };
        publish_bytes += slots
            .save(&format!("period {period}"), &fx.store, Some(&state))
            .expect("checkpoint publish");
        hook.lap(Part::Publish, period);
        period += 1;
        match outcome {
            RunOutcome::Completed(report) => break report,
            RunOutcome::Paused => {
                outcome = fx.trainer.resume_with_hook(
                    &fx.model,
                    Some(&fx.simsiam),
                    &mut fx.store,
                    &fx.network,
                    &fx.split,
                    &fx.data_cfg,
                    fx.scale,
                    &mut hook,
                );
            }
        }
    };
    Protocol {
        protocol_s: t0.elapsed().as_secs_f64(),
        segments: hook.segments,
        publish_bytes,
        nonfinite_losses: hook.nonfinite_losses,
        report,
    }
}

/// Builds `n` fixtures, timing each into `setup`, and returns the last.
fn set_up(opts: &Opts, strategy: Strategy, n: usize, setup: &mut Vec<f64>) -> Fixture {
    let mut fixture = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        fixture = Some(Fixture::build(opts, strategy));
        setup.push(t0.elapsed().as_secs_f64());
    }
    fixture.expect("at least one set-up")
}

/// Whether two stores hold the same parameters, bit for bit.
fn same_bits(a: &ParamStore, b: &ParamStore) -> bool {
    a.len() == b.len()
        && a.ids().zip(b.ids()).all(|(ia, ib)| {
            let (x, y) = (a.value(ia).data(), b.value(ib).data());
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs one streaming workload (`stream_urcl` or `stream_finetune`).
pub fn run(opts: &Opts, strategy: Strategy) -> Measured {
    // Fixed work: one warm-up protocol, untimed (the buffer pool and fresh
    // pages fill during the first protocol in a process), then whole timed
    // protocols, as many as fit `--seconds` at the reference host's pace
    // and at least three. A traced run times a single traced protocol.
    let nominal_s = if strategy == Strategy::Urcl {
        10.0
    } else {
        2.3
    };
    let reps = if opts.trace { 1 } else { opts.reps(nominal_s) };
    // Set-up takes ~10 ms and follows the host's load of the moment, so
    // the set-ups are spread over the run: a batch before the warm-up and
    // before every timed protocol, which runs on the batch's last fixture.
    let batch = opts.setup_reps().div_ceil(reps + 1);
    let mut setup = Vec::new();
    let warmup = run_protocol(
        &mut set_up(opts, strategy, batch, &mut setup),
        &opts.run_dir.join("warmup"),
    );
    let mut passes = Vec::new();
    let mut reloads = Vec::new();
    let host0 = host::sample();
    for rep in 0..reps {
        let mut fx = set_up(opts, strategy, batch, &mut setup);
        let dir = opts.run_dir.join(format!("ckpt-{rep}"));
        if opts.trace {
            urcl::trace::reset();
            urcl::trace::enable();
        }
        passes.push(run_protocol(&mut fx, &dir));
        // Only the protocol itself is traced, not the checks after it.
        urcl::trace::disable();
        reloads.push(
            CheckpointDir::new(&dir)
                .and_then(|slots| slots.load())
                .is_ok_and(|ckpt| same_bits(&ckpt.store, &fx.store)),
        );
    }
    let contention = host::Contention::between(&host0, &host::sample());

    let mut out = Measured::default();
    let mut checks = Checks::default();
    checks.count(
        passes.iter().map(|p| p.nonfinite_losses).sum(),
        "every step loss is finite",
    );
    checks.expect(
        passes
            .iter()
            .all(|p| p.report.sets.len() == INCREMENTAL_SETS + 1),
        "one report per period",
    );
    checks.expect(
        passes.iter().all(|p| {
            p.report
                .sets
                .iter()
                .all(|s| s.mae.is_finite() && s.rmse.is_finite())
        }),
        "every period MAE and RMSE is finite",
    );
    checks.expect(
        reloads.iter().all(|ok| *ok),
        "published checkpoint reloads bit for bit",
    );
    let mae_bits =
        |p: &Protocol| -> Vec<u32> { p.report.sets.iter().map(|s| s.mae.to_bits()).collect() };
    checks.expect(
        passes.iter().all(|p| mae_bits(p) == mae_bits(&warmup)),
        "period MAE bits repeat across protocols in this run",
    );
    checks.expect_repeatable(
        opts,
        &mae_bits(&passes[0]),
        "period MAE bits repeat across runs of one seed",
    );
    out.attempted = passes.iter().map(|p| p.segments.len() as u64).sum();
    out.failed = checks.failed;

    // Means, not medians: the shared host slows the program in bursts of
    // seconds, so step and protocol times are bimodal, and a median jumps
    // between the modes as their mix shifts while a mean moves in
    // proportion (see NOTES.md). The medians are printed beside them.
    let protocol: Vec<f64> = passes.iter().map(|p| p.protocol_s).collect();
    let updates: Vec<f64> = passes
        .iter()
        .flat_map(|p| period_times(&p.segments)[1..].to_vec())
        .collect();
    let steps: Vec<f64> = passes
        .iter()
        .flat_map(|p| step_times(&p.segments))
        .collect();
    let first = &passes[0];
    out.set("setup_s", median(&setup));
    out.set("protocol_s", mean(&protocol));
    out.set("update_s", mean(&updates));
    out.set("latency_ms", mean(&steps) * 1e3);
    out.set("peak_rss_mb", host::peak_rss_mib());
    out.set("core.eval.mae", f64::from(first.report.incremental_mae()));

    out.note("checks", checks.to_json());
    out.note("protocols", reps);
    out.note("warmup_protocol_s", warmup.protocol_s);
    out.note("protocol_samples_s", protocol.clone());
    out.note(
        "medians",
        Value::object()
            .with("protocol_s", median(&protocol))
            .with("update_s", median(&updates))
            .with("latency_ms", median(&steps) * 1e3),
    );
    out.note("steps", step_times(&first.segments).len());
    out.note("setup_samples_s", setup.clone());
    out.note("period_s", period_times(&first.segments));
    out.note("inc_mae", f64::from(first.report.incremental_mae()));
    out.note(
        "period_mae",
        first
            .report
            .sets
            .iter()
            .map(|s| f64::from(s.mae))
            .collect::<Vec<_>>(),
    );
    // Tails of every timed step, reported, not gated: they moved with host
    // steal far more than any bound allows (see NOTES.md).
    out.note("latency_p90_ms", quantile(&steps, 0.9) * 1e3);
    out.note("latency_p99_ms", quantile(&steps, 0.99) * 1e3);
    out.note("latency_samples", steps.len());
    out.host(&contention);

    if opts.trace {
        let stats = urcl::trace::span_stats();
        let snapshot = urcl::trace::snapshot();
        // Tracing overhead: the same protocol again, untraced, on a fresh
        // fixture of the same seed (after the warm-up, as the traced one).
        let mut plain = Fixture::build(opts, strategy);
        let untraced = run_protocol(&mut plain, &opts.run_dir.join("untraced"));
        layers::stream(
            &mut out,
            &layers::StreamTimes {
                protocol_s: first.protocol_s,
                untraced_protocol_s: untraced.protocol_s,
                step_s: first.total(Part::Step),
                eval_s: first.total(Part::Eval),
                publish_s: first.total(Part::Publish),
                publish_bytes: first.publish_bytes,
            },
            &stats,
            &snapshot,
        );
        out.set("host.steal_frac", contention.steal_frac);
        out.set("host.runqueue_wait_s", contention.runqueue_wait_s);
    }
    out
}
