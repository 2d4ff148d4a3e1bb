//! One function per table/figure of the paper's evaluation. Each prints
//! the paper-style rows and writes JSON into `results/`.

use crate::{
    format_row, run_arima, run_backbone, run_deep_model, set_header, write_results, Effort,
    ExperimentContext, ModelKind,
};
use urcl_core::{Ablation, RunReport, Strategy, TrainerConfig};
use urcl_json::{ToJson, Value};
use urcl_models::{GraphWaveNet, GwnConfig};
use urcl_stdata::DatasetConfig;
use urcl_tensor::{ParamStore, Rng};

/// A labelled run, the unit every results file is made of.
#[derive(Debug, Clone)]
pub struct LabelledRun {
    /// Dataset name.
    pub dataset: String,
    /// Row label (model, strategy or variant name).
    pub label: String,
    /// The full per-set report.
    pub report: RunReport,
}

impl ToJson for LabelledRun {
    fn to_json(&self) -> Value {
        Value::object()
            .with("dataset", self.dataset.as_str())
            .with("label", self.label.as_str())
            .with("report", self.report.to_json())
    }
}

fn urcl_config(effort: &Effort) -> TrainerConfig {
    effort.apply(TrainerConfig {
        strategy: Strategy::Urcl,
        ..TrainerConfig::default()
    })
}

fn strategy_config(effort: &Effort, strategy: Strategy) -> TrainerConfig {
    effort.apply(TrainerConfig {
        strategy,
        ..TrainerConfig::default()
    })
}

/// Table I: dataset statistics.
pub fn table1() {
    println!("== Table I: dataset statistics (synthetic analogues) ==");
    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>6} {:>12} {:>12}",
        "Dataset", "Nodes", "Interval", "Days", "Chans", "Input steps", "Output steps"
    );
    let mut rows = Vec::new();
    for cfg in [
        DatasetConfig::metr_la(),
        DatasetConfig::pems_bay(),
        DatasetConfig::pems04(),
        DatasetConfig::pems08(),
    ] {
        println!(
            "{:<10} {:>6} {:>8}min {:>8} {:>6} {:>12} {:>12}",
            cfg.name,
            cfg.num_nodes,
            cfg.interval_minutes,
            cfg.num_days,
            cfg.num_channels(),
            cfg.input_steps,
            cfg.output_steps
        );
        rows.push(
            Value::object()
                .with("name", cfg.name.as_str())
                .with("nodes", cfg.num_nodes)
                .with("interval_minutes", cfg.interval_minutes)
                .with("days", cfg.num_days)
                .with("channels", cfg.num_channels())
                .with("input_steps", cfg.input_steps)
                .with("output_steps", cfg.output_steps)
                .with("total_steps", cfg.total_steps()),
        );
    }
    write_results("table1_datasets", &rows);
}

/// Table II: OneFitAll vs FinetuneST vs URCL on PEMS-BAY and PEMS08.
pub fn table2(effort: &Effort) -> Vec<LabelledRun> {
    println!("== Table II: training on streaming data ==");
    let mut runs = Vec::new();
    for cfg in [DatasetConfig::pems_bay(), DatasetConfig::pems08()] {
        let ctx = ExperimentContext::new(cfg);
        println!("--- {} ---", ctx.config().name);
        println!("{}", set_header());
        for strategy in [Strategy::OneFitAll, Strategy::FinetuneSt, Strategy::Urcl] {
            let tcfg = strategy_config(effort, strategy);
            let report = run_deep_model(ModelKind::GraphWaveNet, &ctx, tcfg, 7);
            println!("{}", format_row(strategy.name(), &report));
            runs.push(LabelledRun {
                dataset: ctx.config().name.clone(),
                label: strategy.name().into(),
                report,
            });
        }
    }
    write_results("table2_streaming", &runs);
    runs
}

/// Table III: overall accuracy vs the six baselines on all four datasets.
pub fn table3(effort: &Effort) -> Vec<LabelledRun> {
    println!("== Table III: overall accuracy ==");
    let mut runs = Vec::new();
    for cfg in [
        DatasetConfig::metr_la(),
        DatasetConfig::pems_bay(),
        DatasetConfig::pems04(),
        DatasetConfig::pems08(),
    ] {
        let ctx = ExperimentContext::new(cfg);
        println!("--- {} ---", ctx.config().name);
        println!("{}", set_header());

        // ARIMA: statistical baseline, refit per set.
        let arima = run_arima(&ctx, 3, 0);
        println!("{}", format_row("ARIMA", &arima));
        runs.push(LabelledRun {
            dataset: ctx.config().name.clone(),
            label: "ARIMA".into(),
            report: arima,
        });

        // Deep baselines: per-set retraining (Fig. 5 protocol).
        for kind in ModelKind::table3_baselines() {
            let tcfg = strategy_config(effort, Strategy::FinetuneSt);
            let report = run_deep_model(kind, &ctx, tcfg, 7);
            println!("{}", format_row(kind.name(), &report));
            runs.push(LabelledRun {
                dataset: ctx.config().name.clone(),
                label: kind.name().into(),
                report,
            });
        }

        // URCL (full framework, GraphWaveNet backbone).
        let report = run_deep_model(ModelKind::GraphWaveNet, &ctx, urcl_config(effort), 7);
        println!("{}", format_row("URCL", &report));
        runs.push(LabelledRun {
            dataset: ctx.config().name.clone(),
            label: "URCL".into(),
            report,
        });
    }
    write_results("table3_overall", &runs);
    runs
}

/// Table IV: URCL with different backbones on METR-LA and PEMS04.
pub fn table4(effort: &Effort) -> Vec<LabelledRun> {
    println!("== Table IV: effect of various backbones ==");
    let mut runs = Vec::new();
    for cfg in [DatasetConfig::metr_la(), DatasetConfig::pems04()] {
        let ctx = ExperimentContext::new(cfg);
        println!("--- {} ---", ctx.config().name);
        println!("{}", set_header());
        for (label, kind) in [
            ("DCRNN", ModelKind::Dcrnn),
            ("GeoMAN", ModelKind::GeoMan),
            ("URCL(GWN)", ModelKind::GraphWaveNet),
        ] {
            let report = run_deep_model(kind, &ctx, urcl_config(effort), 7);
            println!("{}", format_row(label, &report));
            runs.push(LabelledRun {
                dataset: ctx.config().name.clone(),
                label: label.into(),
                report,
            });
        }
    }
    write_results("table4_backbones", &runs);
    runs
}

/// Fig. 6: ablation study on METR-LA and PEMS08.
pub fn fig6(effort: &Effort) -> Vec<LabelledRun> {
    println!("== Fig. 6: ablation study ==");
    let variants: [(&str, Ablation); 5] = [
        ("URCL", Ablation::default()),
        (
            "w/o_STU",
            Ablation {
                mixup: false,
                ..Ablation::default()
            },
        ),
        (
            "w/o_RMIR",
            Ablation {
                rmir: false,
                ..Ablation::default()
            },
        ),
        (
            "w/o_STA",
            Ablation {
                augmentation: false,
                ..Ablation::default()
            },
        ),
        (
            "w/o_GCL",
            Ablation {
                graphcl: false,
                ..Ablation::default()
            },
        ),
    ];
    let mut runs = Vec::new();
    for cfg in [DatasetConfig::metr_la(), DatasetConfig::pems08()] {
        let ctx = ExperimentContext::new(cfg);
        println!("--- {} ---", ctx.config().name);
        println!("{}", set_header());
        for (label, ablation) in variants {
            let mut tcfg = urcl_config(effort);
            tcfg.ablation = ablation;
            let report = run_deep_model(ModelKind::GraphWaveNet, &ctx, tcfg, 7);
            println!("{}", format_row(label, &report));
            runs.push(LabelledRun {
                dataset: ctx.config().name.clone(),
                label: label.into(),
                report,
            });
        }
    }
    write_results("fig6_ablation", &runs);
    runs
}

/// Fig. 7: training and inference time on PEMS04.
pub fn fig7(effort: &Effort) -> Vec<LabelledRun> {
    println!("== Fig. 7: efficiency on PEMS04 ==");
    let ctx = ExperimentContext::new(DatasetConfig::pems04());
    let mut runs = Vec::new();
    println!(
        "{:<14} {:>16} {:>16} {:>18}",
        "Model", "train s/ep (B)", "train s/ep (I)", "infer ms/obs"
    );
    let mut do_run = |label: &str, report: RunReport| {
        let base = report
            .set("B_set")
            .map(|s| s.train_seconds_per_epoch)
            .unwrap_or(0.0);
        let inc: Vec<f64> = report
            .sets
            .iter()
            .filter(|s| s.name != "B_set")
            .map(|s| s.train_seconds_per_epoch)
            .collect();
        let inc_mean = if inc.is_empty() {
            0.0
        } else {
            inc.iter().sum::<f64>() / inc.len() as f64
        };
        let infer_ms = report
            .sets
            .iter()
            .map(|s| s.infer_seconds_per_obs)
            .sum::<f64>()
            / report.sets.len() as f64
            * 1000.0;
        println!("{label:<14} {base:>16.3} {inc_mean:>16.3} {infer_ms:>18.4}");
        runs.push(LabelledRun {
            dataset: "PEMS04".into(),
            label: label.into(),
            report,
        });
    };
    for kind in ModelKind::table3_baselines() {
        let report = run_deep_model(kind, &ctx, strategy_config(effort, Strategy::FinetuneSt), 7);
        do_run(kind.name(), report);
    }
    do_run(
        "URCL",
        run_deep_model(ModelKind::GraphWaveNet, &ctx, urcl_config(effort), 7),
    );
    write_results("fig7_efficiency", &runs);
    runs
}

/// Fig. 8: training-loss convergence on METR-LA and PEMS08.
pub fn fig8(effort: &Effort) -> Vec<LabelledRun> {
    println!("== Fig. 8: training convergence ==");
    let mut runs = Vec::new();
    for cfg in [DatasetConfig::metr_la(), DatasetConfig::pems08()] {
        let ctx = ExperimentContext::new(cfg);
        let report = run_deep_model(ModelKind::GraphWaveNet, &ctx, urcl_config(effort), 7);
        println!(
            "--- {} (loss per epoch, sets in stream order) ---",
            ctx.config().name
        );
        for set in &report.sets {
            let curve: Vec<String> = set.loss_curve.iter().map(|l| format!("{l:.4}")).collect();
            println!("{:<8} {}", set.name, curve.join(" "));
        }
        runs.push(LabelledRun {
            dataset: ctx.config().name.clone(),
            label: "URCL".into(),
            report,
        });
    }
    write_results("fig8_convergence", &runs);
    runs
}

/// Design-choice sweeps (DESIGN.md §4): replay-buffer capacity, diffusion
/// steps `K`, STMixup α, and a replay-vs-regularization (EWC) comparison.
/// Reports the mean MAE over incremental sets on METR-LA.
pub fn sweeps(effort: &Effort) -> Vec<LabelledRun> {
    use urcl_core::Strategy;
    println!("== Design-choice sweeps (METR-LA) ==");
    let ctx = ExperimentContext::new(DatasetConfig::metr_la());
    let mut runs = Vec::new();
    println!("{:<26} {:>16}", "variant", "incremental MAE");
    let push = |label: String, report: RunReport, runs: &mut Vec<LabelledRun>| {
        println!("{label:<26} {:>16.2}", report.incremental_mae());
        runs.push(LabelledRun {
            dataset: "METR-LA".into(),
            label,
            report,
        });
    };
    let run = |label: String, cfg: TrainerConfig, runs: &mut Vec<LabelledRun>| {
        let report = run_deep_model(ModelKind::GraphWaveNet, &ctx, cfg, 7);
        push(label, report, runs);
    };
    for cap in [64usize, 256, 1024] {
        let mut cfg = urcl_config(effort);
        cfg.buffer_capacity = cap;
        run(format!("buffer capacity {cap}"), cfg, &mut runs);
    }
    // GraphWaveNet diffusing K steps in every GCN layer; the trainer's
    // graph augmentations rebuild supports at the backbone's K.
    for k in [1usize, 2, 3] {
        let d = ctx.config();
        let gcfg = GwnConfig {
            k_diffusion: k,
            ..GwnConfig::small(d.num_nodes, d.num_channels(), d.input_steps, d.output_steps)
        };
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(7);
        let model = GraphWaveNet::new(&mut store, &mut rng, ctx.network(), gcfg);
        let report = run_backbone(&model, store, &ctx, urcl_config(effort), 7);
        push(format!("diffusion steps K={k}"), report, &mut runs);
    }
    for alpha in [0.2f32, 0.8, 2.0] {
        let mut cfg = urcl_config(effort);
        cfg.mixup_alpha = alpha;
        run(format!("mixup alpha {alpha}"), cfg, &mut runs);
    }
    // Replay (URCL) vs regularization (EWC) vs naive fine-tuning.
    let ewc = strategy_config(effort, Strategy::Ewc);
    run("EWC (regularization CL)".into(), ewc, &mut runs);
    write_results("sweeps", &runs);
    runs
}
