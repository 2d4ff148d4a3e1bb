//! The synthetic traffic-signal generator.
//!
//! Produces a `[T, N, C]` series over a random-geometric sensor network
//! with three ingredients (see the crate docs for why each matters):
//!
//! * **Daily structure** — congestion intensity follows two Gaussian rush
//!   bumps (AM/PM); speed dips and flow/occupancy rise with congestion.
//! * **Spatial coherence** — each node has a smooth spatial "loading"
//!   factor, and the AR(1) noise is smoothed over graph neighbours.
//! * **Regimes & drift** — each day belongs to a traffic regime; regimes
//!   shift peak hours/levels (concept drift) and *recur* in later
//!   periods so replay has something worth remembering.

use crate::config::{ChannelKind, DatasetConfig};
use urcl_graph::SensorNetwork;
use urcl_tensor::{Rng, Tensor};

/// Per-regime traffic parameters.
///
/// Besides shifting the daily profile, each regime owns the *dynamics* of
/// the fast congestion field (`ar_self`, `ar_nbr`): how strongly a
/// sensor's short-term fluctuation persists and how it couples to its
/// graph neighbours. One-step-ahead prediction must implicitly learn this
/// operator, so a regime change is genuine concept drift — a model locked
/// to an old regime's operator mispredicts even with a perfect window.
#[derive(Debug, Clone)]
pub struct Regime {
    /// Morning rush peak, hours.
    pub am_peak: f32,
    /// Evening rush peak, hours.
    pub pm_peak: f32,
    /// Congestion amplitude multiplier.
    pub amplitude: f32,
    /// Additive demand level in `[0, 1]` congestion units.
    pub level: f32,
    /// AR(1) self-coupling of the fast congestion field.
    pub ar_self: f32,
    /// Neighbour coupling of the fast congestion field (sign and
    /// magnitude differ per regime).
    pub ar_nbr: f32,
}

/// Dynamic range of each channel kind, used for signal synthesis and for
/// interpreting normalized errors back in physical units.
pub fn channel_range(kind: ChannelKind) -> f32 {
    match kind {
        ChannelKind::Speed => 65.0,
        ChannelKind::Flow => 300.0,
        ChannelKind::Occupancy => 0.5,
    }
}

/// Draws the regime parameter table. Regime 0 is the "base" traffic
/// pattern; later regimes drift away proportionally to `config.drift`.
pub fn make_regimes(config: &DatasetConfig, rng: &mut Rng) -> Vec<Regime> {
    // Distinct fast-field operators per regime; the spread scales with
    // the drift strength so `drift = 0` collapses them to one operator.
    // |ar_self| + |ar_nbr| stays below 1 so the field is stationary.
    let s = 0.5 + 0.5 * config.drift;
    let dyn_table = [
        (0.68, 0.28 * s), // regime 0: persistent, positively coupled
        (0.25, 0.55 * s), // regime 1: jumpy, neighbour-driven
        (0.90, 0.0),      // regime 2: very persistent, decoupled
        (0.45, 0.45 * s),
        (0.80, 0.10 * s),
    ];
    (0..config.num_regimes.max(1))
        .map(|k| {
            let kf = k as f32;
            let d = config.drift;
            let (ar_self, ar_nbr) = dyn_table[k % dyn_table.len()];
            Regime {
                am_peak: 7.5 + d * kf * 1.3 + rng.uniform_range(-0.2, 0.2),
                pm_peak: 17.5 - d * kf * 1.0 + rng.uniform_range(-0.2, 0.2),
                amplitude: 1.0 + d * 0.35 * kf * if k % 2 == 0 { 1.0 } else { -0.6 },
                level: d * 0.18 * kf,
                ar_self,
                ar_nbr,
            }
        })
        .collect()
}

/// Number of regime blocks per day: regimes switch on half-day
/// boundaries, so every streaming period contains several switches and
/// the continual-learning effects are not dominated by which single
/// regime a period happened to end in.
pub const BLOCKS_PER_DAY: usize = 2;

/// Assigns a regime to every half-day block.
///
/// The base period (first 30% of blocks) stays in regime 0. Afterwards
/// new regimes unlock progressively; each block picks the newest unlocked
/// regime with probability ~0.5 and otherwise *revisits* an older one
/// uniformly. That revisiting is what makes historical knowledge
/// valuable: a model that forgot regime 0 will be wrong when it returns.
pub fn make_regime_schedule(config: &DatasetConfig, rng: &mut Rng) -> Vec<usize> {
    let blocks = config.num_days * BLOCKS_PER_DAY;
    let base_blocks = (blocks as f32 * 0.3).ceil() as usize;
    let nregimes = config.num_regimes.max(1);
    (0..blocks)
        .map(|b| {
            if b < base_blocks || nregimes == 1 {
                return 0;
            }
            let frac = (b - base_blocks) as f32 / (blocks - base_blocks).max(1) as f32;
            let unlocked = (2 + (frac * (nregimes - 1) as f32) as usize).min(nregimes);
            if rng.bernoulli(0.5) {
                unlocked - 1 // the newest regime
            } else {
                rng.below(unlocked) // revisit anything unlocked, incl. old
            }
        })
        .collect()
}

/// Smooth spatial loading field: how strongly a sensor's location is
/// affected by congestion. Nearby sensors get similar loadings.
pub fn node_loadings(net: &SensorNetwork) -> Vec<f32> {
    net.coords()
        .iter()
        .map(|&(x, y)| 1.0 + 0.35 * (2.7 * x + 1.3).sin() * (3.1 * y + 0.7).cos())
        .collect()
}

/// Double-Gaussian daily congestion profile in `[0, ~1]`.
fn congestion(hour: f32, regime: &Regime) -> f32 {
    let am = (-((hour - regime.am_peak).powi(2)) / (2.0 * 1.2f32.powi(2))).exp();
    let pm = (-((hour - regime.pm_peak).powi(2)) / (2.0 * 1.5f32.powi(2))).exp();
    (regime.amplitude * (0.9 * am + pm).min(1.4) + regime.level).max(0.0)
}

/// Generates the full `[T, N, C]` series. Returns the series and the
/// per-block regime schedule (see [`BLOCKS_PER_DAY`]).
pub fn generate_series(
    config: &DatasetConfig,
    net: &SensorNetwork,
    rng: &mut Rng,
) -> (Tensor, Vec<usize>) {
    let n = config.num_nodes;
    let c = config.num_channels();
    let spd = config.steps_per_day();
    let t_total = config.total_steps();
    let regimes = make_regimes(config, rng);
    let schedule = make_regime_schedule(config, rng);
    let steps_per_block = spd / BLOCKS_PER_DAY;
    let loadings = node_loadings(net);

    // Fast congestion field per node, evolved under regime operators.
    let mut noise_state = vec![0.0f32; n];
    let neighbors: Vec<Vec<usize>> = (0..n).map(|i| net.neighbors(i)).collect();

    let mut data = vec![0.0f32; t_total * n * c];
    for t in 0..t_total {
        let hour = (t % spd) as f32 * config.interval_minutes as f32 / 60.0;
        let regime = &regimes[schedule[t / steps_per_block]];

        // Advance the fast congestion field under the regime's operator:
        // e' = a_r e + b_r · nbr_mean(e) + innovation. The operator (not
        // just the level) changes across regimes — that is the concept
        // drift a one-step predictor feels.
        let prev = noise_state.clone();
        for i in 0..n {
            let nbr_mean = if neighbors[i].is_empty() {
                prev[i]
            } else {
                neighbors[i].iter().map(|&j| prev[j]).sum::<f32>() / neighbors[i].len() as f32
            };
            noise_state[i] =
                regime.ar_self * prev[i] + regime.ar_nbr * nbr_mean + 0.15 * rng.normal();
        }

        for i in 0..n {
            let cong = (congestion(hour, regime) * loadings[i]).clamp(0.0, 1.6);
            for (ch, &kind) in config.channels.iter().enumerate() {
                let range = channel_range(kind);
                // Fast field dominates the one-step error budget;
                // a small i.i.d. term models sensor read-out noise.
                let fast = config.noise * range * 2.5 * noise_state[i];
                let meas = config.noise * range * 0.3 * rng.normal();
                let v = match kind {
                    ChannelKind::Speed => range * (1.0 - 0.55 * cong.min(1.4)) + fast + meas,
                    ChannelKind::Flow => range * (0.15 + 0.55 * cong) + fast + meas,
                    ChannelKind::Occupancy => range * (0.1 + 0.55 * cong) + 0.5 * fast + meas,
                };
                data[(t * n + i) * c + ch] = v.max(0.0);
            }
        }
    }
    (Tensor::from_vec(data, &[t_total, n, c]), schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_graph::random_geometric;

    fn setup() -> (DatasetConfig, SensorNetwork, Tensor, Vec<usize>) {
        let cfg = DatasetConfig::metr_la().tiny();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let net = random_geometric(cfg.num_nodes, cfg.graph_radius, &mut rng);
        let (series, schedule) = generate_series(&cfg, &net, &mut rng);
        (cfg, net, series, schedule)
    }

    #[test]
    fn series_shape_matches_config() {
        let (cfg, _, series, _) = setup();
        assert_eq!(
            series.shape(),
            &[cfg.total_steps(), cfg.num_nodes, cfg.num_channels()]
        );
    }

    #[test]
    fn values_non_negative_and_finite() {
        let (_, _, series, _) = setup();
        assert!(series.data().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn base_period_is_regime_zero() {
        let (cfg, _, _, schedule) = setup();
        let blocks = cfg.num_days * BLOCKS_PER_DAY;
        assert_eq!(schedule.len(), blocks);
        let base_blocks = (blocks as f32 * 0.3).ceil() as usize;
        assert!(schedule[..base_blocks].iter().all(|&r| r == 0));
    }

    #[test]
    fn later_periods_use_multiple_regimes() {
        let cfg = DatasetConfig::metr_la(); // 28 days => 56 blocks, 3 regimes
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let schedule = make_regime_schedule(&cfg, &mut rng);
        let mid = schedule.len() / 2;
        let late: std::collections::HashSet<_> = schedule[mid..].iter().copied().collect();
        assert!(late.len() >= 2, "drift should introduce new regimes");
        // Old regime 0 recurs after the base period.
        assert!(
            schedule[mid..].contains(&0),
            "old regimes must recur so replay matters"
        );
    }

    #[test]
    fn speed_dips_at_rush_hour() {
        let (cfg, _, series, _) = setup();
        let spd = cfg.steps_per_day();
        // Day 0, node 0, channel 0 (Speed): 8 AM vs 3 AM.
        let step_8am = 8 * 60 / cfg.interval_minutes;
        let step_3am = 3 * 60 / cfg.interval_minutes;
        // Average over days in the base period to suppress noise.
        let base_days = 3;
        let avg = |step: usize| -> f32 {
            (0..base_days)
                .map(|d| series.at(&[d * spd + step, 0, 0]))
                .sum::<f32>()
                / base_days as f32
        };
        assert!(
            avg(step_8am) < avg(step_3am),
            "rush-hour speed should be lower: {} vs {}",
            avg(step_8am),
            avg(step_3am)
        );
    }

    #[test]
    fn nearby_nodes_correlate_more_than_average() {
        let (cfg, net, series, _) = setup();
        // Pick an edge (i,j); correlation along time between neighbours
        // should be high because the daily pattern dominates.
        let mut edge = None;
        'outer: for i in 0..cfg.num_nodes {
            for j in 0..cfg.num_nodes {
                if i != j && net.has_edge(i, j) {
                    edge = Some((i, j));
                    break 'outer;
                }
            }
        }
        let (i, j) = edge.expect("generated graph has edges");
        let t = cfg.total_steps();
        let col = |node: usize| -> Tensor {
            let data: Vec<f32> = (0..t).map(|s| series.at(&[s, node, 0])).collect();
            Tensor::from_vec(data, &[t])
        };
        let corr = col(i).pearson(&col(j));
        assert!(corr > 0.5, "neighbour correlation {corr} too low");
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, _, a, _) = setup();
        let (_, _, b, _) = setup();
        assert_eq!(a, b);
    }
}
