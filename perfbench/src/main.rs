//! `perfbench` — the end-to-end benchmark of urcl-rs: the paper's
//! streaming protocol and forecasts served over the wire, measured with
//! tracing off, plus a traced run that splits each workload's time into
//! named layers of `core`, `tensor`, `serve` and `json`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Workloads: `stream_urcl`, `stream_finetune`, `serve_wire`,
//! `serve_hot_swap` (see `BENCHMARK.json` and `perfbench/NOTES.md`). The
//! seed makes every input; the program sees only the generated data.
//! Every run is fixed work — whole protocols, fixed request counts — never a
//! fixed duration: `--seconds` sizes the request count of the serving
//! workloads and the number of timed protocols of the stream workloads,
//! which run after an untimed warm-up protocol. `--smoke`
//! shrinks every workload for the smoke test. The process runs pinned to
//! one CPU, with one compute thread (`set_threads(1)`).
//!
//! Output: one diagnostics line (host contention, sample counts, output
//! checks and, when traced, the per-layer report), then as the last line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set.
//! Exits non-zero on bad arguments or when the run cannot complete.

mod host;
mod layers;
mod serve;
mod stream;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;

use urcl::core::Strategy;
use urcl::json::Value;

/// End-to-end metrics `(name, unit)`: every untraced run prints each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("protocol_s", "s"),
    ("update_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: every traced run prints each one, 0
/// where the workload never enters the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.trainer.step_s", "s"),
    ("core.trainer.data_s", "s"),
    ("core.replay.gather_s", "s"),
    ("core.rmir.score_s", "s"),
    ("core.rmir.virtual_update_s", "s"),
    ("core.augment_s", "s"),
    ("core.mixup_s", "s"),
    ("tensor.plan.exec_s", "s"),
    ("tensor.plan.compile_s", "s"),
    ("tensor.plan.compiles", "count"),
    ("tensor.optim_s", "s"),
    ("core.eval_s", "s"),
    ("core.eval.forward_s", "s"),
    ("core.eval.compile_s", "s"),
    ("core.eval.mae", "mph"),
    ("core.persist.save_s", "s"),
    ("core.persist.save_bytes", "B"),
    ("unattributed_s", "s"),
    ("unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("serve.http.rtt_ms", "ms"),
    ("serve.http.dispatch_ms", "ms"),
    ("serve.http.wire_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("json.encode_ms", "ms"),
    ("serve.shard.queue_wait_ms", "ms"),
    ("serve.shard.batch_size", "count"),
    ("serve.snapshot.forward_ms", "ms"),
    ("serve.snapshot.reload_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.dedup_joins", "count"),
    ("tensor.pool.hit_ratio", "ratio"),
    ("tensor.pool.peak_resident_mb", "MiB"),
    ("tensor.pool.rss_growth_kb_per_req", "KiB"),
    ("host.steal_frac", "ratio"),
    ("host.runqueue_wait_s", "s"),
];

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamUrcl,
    StreamFinetune,
    ServeWire,
    ServeHotSwap,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "stream_urcl" => Self::StreamUrcl,
            "stream_finetune" => Self::StreamFinetune,
            "serve_wire" => Self::ServeWire,
            "serve_hot_swap" => Self::ServeHotSwap,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::StreamUrcl => "stream_urcl",
            Self::StreamFinetune => "stream_finetune",
            Self::ServeWire => "serve_wire",
            Self::ServeHotSwap => "serve_hot_swap",
        }
    }
}

/// Command-line options.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory of this run (checkpoints), removed at exit.
    pub run_dir: PathBuf,
    /// Records kept across runs (output bits per seed), for the
    /// determinism check.
    pub state_dir: PathBuf,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        // Scratch and state live in the build directory of the checkout
        // the benchmark runs from.
        let base = PathBuf::from(".bench_build").join("perfbench");
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.ok_or("--trace is required")?,
            smoke,
            run_dir: base.join(format!("run-{}", std::process::id())),
            state_dir: base.join("state"),
        })
    }

    /// How many fixed-work repetitions of `nominal_s` seconds (on the
    /// reference host) fit `--seconds`; at least three, so a median has a
    /// middle.
    pub fn reps(&self, nominal_s: f64) -> usize {
        if self.smoke {
            2
        } else {
            ((self.seconds as f64 / nominal_s).round() as usize).max(3)
        }
    }

    /// How many set-ups a run makes at least; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            25
        }
    }
}

/// What a workload measured: counts, metric values and diagnostics.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<(String, Value)>,
}

impl Measured {
    /// Records a metric; the name must be registered in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Adds a diagnostics entry to the report line.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Records host contention over the timed phase, with the compute-pool
    /// thread count (the CPUs available and the pinned one are in the
    /// report line itself).
    pub fn host(&mut self, c: &host::Contention) {
        self.note(
            "host",
            Value::object()
                .with("steal_frac", c.steal_frac)
                .with("runqueue_wait_s", c.runqueue_wait_s)
                .with("timed_wall_s", c.wall_s)
                .with("compute_threads", urcl::tensor::num_threads()),
        );
    }
}

/// Named output checks. `failed` sums the operations each failed check
/// names (one for a check about the run as a whole).
#[derive(Default)]
pub struct Checks {
    pub failed: u64,
    results: Vec<(String, bool)>,
}

impl Checks {
    /// Records a check over many operations, `failures` of which failed.
    pub fn count(&mut self, failures: u64, what: &str) {
        if failures > 0 {
            self.failed += failures;
            eprintln!("perfbench: check failed ({failures}x): {what}");
        }
        self.results.push((what.to_string(), failures == 0));
    }

    /// Records a check about the run as a whole.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.count(u64::from(!ok), what);
    }

    /// Checks that `bits` equal what an earlier run of the same binary
    /// with the same workload, seed and size produced; the first run
    /// records them.
    pub fn expect_repeatable(&mut self, opts: &Opts, bits: &[u32], what: &str) {
        let exe = std::env::current_exe()
            .and_then(std::fs::metadata)
            .map(|m| {
                let mtime = m
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_nanos());
                format!("{}-{mtime}", m.len())
            })
            .unwrap_or_default();
        let path = opts.state_dir.join(format!(
            "{}-seed{}-seconds{}{}-exe{exe}.bits",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            if opts.smoke { "-smoke" } else { "" },
        ));
        let text: String = bits.iter().map(|b| format!("{b:08x}\n")).collect();
        let ok = match std::fs::read_to_string(&path) {
            Ok(previous) => previous == text,
            Err(_) => {
                std::fs::create_dir_all(&opts.state_dir).expect("state directory");
                std::fs::write(&path, &text).expect("record output bits");
                true
            }
        };
        self.expect(ok, what);
    }

    /// Every check by name with whether it passed.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        for (what, ok) in &self.results {
            doc.set(what, *ok);
        }
        doc
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile of a sample (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of a sample (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Derives an independent sub-seed (splitmix64) so data, model and
/// trainer draw from unrelated streams of one benchmark seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    // The whole process runs on one CPU, pinned before any thread starts:
    // unpinned, serving runs fell into a fast and a 4x slower group. Compute
    // runs on one thread: with two, hypervisor steal made the training
    // workloads take 28–41 s instead of 16–19 s (see NOTES.md).
    let nproc = host::nproc();
    let pinned_cpu = host::pin_to_one_cpu();
    urcl::tensor::set_threads(1);
    std::fs::create_dir_all(&opts.run_dir).expect("run directory inside the checkout");

    let measured = match opts.workload {
        Workload::StreamUrcl => stream::run(&opts, Strategy::Urcl),
        Workload::StreamFinetune => stream::run(&opts, Strategy::FinetuneSt),
        Workload::ServeWire | Workload::ServeHotSwap => serve::run(&opts),
    };
    std::fs::remove_dir_all(&opts.run_dir).ok();

    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Value::object();
    for (name, unit) in wanted {
        let value = match measured.metrics.get(name) {
            Some(v) => *v,
            None if opts.trace => 0.0,
            None => panic!("workload did not measure end-to-end metric {name}"),
        };
        metrics.set(
            name,
            Value::object().with("value", value).with("unit", *unit),
        );
    }
    let mut report = Value::object()
        .with("workload", opts.workload.name())
        .with("seed", opts.seed)
        .with("trace", opts.trace)
        .with("smoke", opts.smoke)
        .with("nproc", nproc)
        .with("pinned_cpu", pinned_cpu.map_or(Value::Null, Value::from));
    for (key, value) in measured.notes {
        report.set(&key, value);
    }
    println!("{}", report.to_string_compact());
    let result = Value::object()
        .with("correct", measured.failed == 0)
        .with("attempted", measured.attempted.max(1))
        .with("failed", measured.failed)
        .with("metrics", metrics);
    println!("{}", result.to_string_compact());
}
