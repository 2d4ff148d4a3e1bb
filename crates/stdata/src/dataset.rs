//! Dataset assembly and the continuous-learning splits.
//!
//! [`SyntheticDataset::generate`] builds the sensor network and signal for
//! a [`DatasetConfig`]; [`SyntheticDataset::continual_split`] carves it
//! into the paper's streaming protocol — a base set `B_set` (30%) and
//! equal incremental sets `I¹..I⁴` delivered sequentially (Section V-A4).

use crate::config::DatasetConfig;
use crate::generator::generate_series;
use crate::normalize::Normalizer;
use crate::window::{sliding_windows, Sample};
use urcl_graph::{random_geometric, SensorNetwork};
use urcl_tensor::{Rng, Tensor};

/// A fully generated synthetic dataset: configuration, sensor network,
/// raw signal and per-day regime labels.
#[derive(Clone)]
pub struct SyntheticDataset {
    /// Generating configuration.
    pub config: DatasetConfig,
    /// The spatial sensor graph.
    pub network: SensorNetwork,
    /// Raw (unnormalized) signal `[T, N, C]`.
    pub series: Tensor,
    /// Regime label of each half-day block (diagnostics; drift ground
    /// truth — see [`crate::generator::BLOCKS_PER_DAY`]).
    pub regime_schedule: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates the dataset deterministically from its config seed.
    pub fn generate(config: DatasetConfig) -> Self {
        let mut rng = Rng::seed_from_u64(config.seed);
        let network = random_geometric(config.num_nodes, config.graph_radius, &mut rng);
        let (series, regime_schedule) = generate_series(&config, &network, &mut rng);
        Self {
            config,
            network,
            series,
            regime_schedule,
        }
    }

    /// Splits into the streaming protocol: base set = first 30% of time
    /// slots, the remainder divided into `num_incremental` equal parts.
    /// Sets are chronological, matching how the stream arrives.
    pub fn continual_split(&self, num_incremental: usize) -> ContinualSplit {
        let t = self.series.shape()[0];
        let base_len = (t as f32 * 0.3).round() as usize;
        let base = SequenceData {
            name: "B_set".into(),
            series: self.series.narrow(0, 0, base_len),
        };
        let rest = t - base_len;
        let inc_len = rest / num_incremental.max(1);
        let mut incremental = Vec::with_capacity(num_incremental);
        for i in 0..num_incremental {
            let start = base_len + i * inc_len;
            let len = if i + 1 == num_incremental {
                t - start // absorb the remainder
            } else {
                inc_len
            };
            incremental.push(SequenceData {
                name: format!("I{}_set", i + 1),
                series: self.series.narrow(0, start, len),
            });
        }
        ContinualSplit { base, incremental }
    }

    /// Fits the min-max normalizer on the base-set portion (streaming
    /// systems cannot see the future).
    pub fn fit_normalizer(&self) -> Normalizer {
        let t = self.series.shape()[0];
        let base_len = (t as f32 * 0.3).round() as usize;
        Normalizer::fit(&self.series.narrow(0, 0, base_len))
    }
}

/// One streaming period's data (`D_i` in the paper): a chronological
/// slice of the signal.
#[derive(Clone)]
pub struct SequenceData {
    /// Display name (`B_set`, `I1_set`, …).
    pub name: String,
    /// Signal slice `[T_i, N, C]`.
    pub series: Tensor,
}

impl SequenceData {
    /// Number of time slots in this period.
    pub fn len(&self) -> usize {
        self.series.shape()[0]
    }

    /// True when the period holds no time slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chronological train/val/test split (Algorithm 1, lines 2–3).
    /// Ratios must sum to ≤ 1; the test set absorbs rounding remainders.
    pub fn train_val_test(
        &self,
        train: f32,
        val: f32,
    ) -> (SequenceData, SequenceData, SequenceData) {
        assert!(
            train + val < 1.0 + 1e-6,
            "train+val must leave room for test"
        );
        let t = self.len();
        let t_train = (t as f32 * train).round() as usize;
        let t_val = (t as f32 * val).round() as usize;
        let t_test = t - t_train - t_val;
        let part = |name: &str, start: usize, len: usize| SequenceData {
            name: format!("{}/{}", self.name, name),
            series: self.series.narrow(0, start, len),
        };
        (
            part("train", 0, t_train),
            part("val", t_train, t_val),
            part("test", t_train + t_val, t_test),
        )
    }

    /// Normalised copy of this period.
    pub fn normalized(&self, norm: &Normalizer) -> SequenceData {
        SequenceData {
            name: self.name.clone(),
            series: norm.transform(&self.series),
        }
    }

    /// Sliding windows over this period.
    pub fn windows(&self, config: &DatasetConfig) -> Vec<Sample> {
        sliding_windows(
            &self.series,
            config.input_steps,
            config.output_steps,
            config.target_channel,
        )
    }
}

/// The streaming protocol's sets: `B_set` plus `I¹..Iᵏ`.
#[derive(Clone)]
pub struct ContinualSplit {
    /// The base set (first 30%).
    pub base: SequenceData,
    /// The incremental sets, in arrival order.
    pub incremental: Vec<SequenceData>,
}

impl ContinualSplit {
    /// All periods in stream order: base first, then incrementals.
    pub fn all_periods(&self) -> Vec<&SequenceData> {
        std::iter::once(&self.base)
            .chain(self.incremental.iter())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetConfig::metr_la().tiny())
    }

    #[test]
    fn split_covers_everything_in_order() {
        let ds = tiny();
        let split = ds.continual_split(4);
        let t = ds.series.shape()[0];
        let total: usize = split.all_periods().iter().map(|p| p.len()).sum();
        assert_eq!(total, t);
        // Base is ~30%.
        let frac = split.base.len() as f32 / t as f32;
        assert!((frac - 0.3).abs() < 0.02, "base fraction {frac}");
        // Re-concatenation equals the original (chronological, no gaps).
        let parts: Vec<&Tensor> = split.all_periods().iter().map(|p| &p.series).collect();
        let recon = Tensor::concat(&parts, 0);
        assert_eq!(recon, ds.series);
    }

    #[test]
    fn incremental_sets_near_equal() {
        let ds = tiny();
        let split = ds.continual_split(4);
        let lens: Vec<usize> = split.incremental.iter().map(|p| p.len()).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(max - min <= 4, "uneven incremental sets: {lens:?}");
    }

    #[test]
    fn train_val_test_partitions() {
        let ds = tiny();
        let split = ds.continual_split(4);
        let (tr, va, te) = split.base.train_val_test(0.7, 0.1);
        assert_eq!(tr.len() + va.len() + te.len(), split.base.len());
        assert!(tr.len() > te.len());
        assert!(tr.name.contains("train"));
    }

    #[test]
    fn windows_respect_config() {
        let ds = tiny();
        let split = ds.continual_split(4);
        let ws = split.base.windows(&ds.config);
        assert!(!ws.is_empty());
        assert_eq!(
            ws[0].x.shape(),
            &[
                ds.config.input_steps,
                ds.config.num_nodes,
                ds.config.num_channels()
            ]
        );
        assert_eq!(
            ws[0].y.shape(),
            &[ds.config.output_steps, ds.config.num_nodes]
        );
    }

    #[test]
    fn normalizer_fit_on_base_only() {
        let ds = tiny();
        let norm = ds.fit_normalizer();
        let split = ds.continual_split(4);
        let nb = split.base.normalized(&norm);
        assert!(nb.series.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Incremental sets may clip but stay in range too (clamped).
        let ni = split.incremental[3].normalized(&norm);
        assert!(ni.series.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn generation_deterministic_by_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.series, b.series);
        assert_eq!(a.regime_schedule, b.regime_schedule);
    }
}
