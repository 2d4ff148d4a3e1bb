//! Synthetic sensor-network generators.
//!
//! Real deployments (METR-LA, PEMS) place sensors along roads, so nearby
//! sensors are densely connected with weights decaying in distance
//! (Eq. 20: w = 1/dist). The random-geometric generator reproduces that
//! structure: uniform points in the unit square, edges between points
//! within a radius, weight 1/dist, and a connectivity fix-up so the graph
//! has no isolated islands (real road networks are connected).

use crate::network::SensorNetwork;
use urcl_tensor::{Rng, Tensor};

/// Generates a connected random-geometric sensor network.
///
/// * `n` — number of sensors.
/// * `radius` — connection radius in the unit square; `0.25` with
///   `n = 30` gives densities similar (relative to size) to the PEMS
///   graphs.
/// * Edge weights are `1 / distance` (Eq. 20), symmetric.
pub fn random_geometric(n: usize, radius: f32, rng: &mut Rng) -> SensorNetwork {
    assert!(n > 0, "need at least one sensor");
    let coords: Vec<(f32, f32)> = (0..n).map(|_| (rng.uniform(), rng.uniform())).collect();
    let mut adj = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(coords[i], coords[j]);
            if d <= radius && d > 0.0 {
                let w = 1.0 / d;
                adj.data_mut()[i * n + j] = w;
                adj.data_mut()[j * n + i] = w;
            }
        }
    }
    let mut net = SensorNetwork::new(coords, adj);
    connect_components(&mut net);
    net
}

fn dist(a: (f32, f32), b: (f32, f32)) -> f32 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Links each disconnected component to the main one via the closest node
/// pair, mimicking how arterial roads join neighbourhoods.
fn connect_components(net: &mut SensorNetwork) {
    loop {
        let comp = components(net);
        let ncomp = *comp.iter().max().unwrap() + 1;
        if ncomp == 1 {
            return;
        }
        // Find the closest pair across the (0, other) component boundary.
        let n = net.num_nodes();
        let mut best: Option<(usize, usize, f32)> = None;
        for i in 0..n {
            if comp[i] != 0 {
                continue;
            }
            for (j, &cj) in comp.iter().enumerate() {
                if cj == 0 {
                    continue;
                }
                let d = net.distance(i, j).max(1e-6);
                if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, j, d));
                }
            }
        }
        let (i, j, d) = best.expect("multiple components imply a crossing pair");
        let mut adj = net.adjacency().clone();
        let w = 1.0 / d;
        adj.data_mut()[i * n + j] = w;
        adj.data_mut()[j * n + i] = w;
        *net = net.with_adjacency(adj);
    }
}

/// Connected-component labels via union-free BFS flooding.
fn components(net: &SensorNetwork) -> Vec<usize> {
    let n = net.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([s]);
        label[s] = next;
        while let Some(u) = queue.pop_front() {
            for v in net.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_network_is_connected() {
        for seed in 0..5 {
            let mut rng = Rng::seed_from_u64(seed);
            let net = random_geometric(25, 0.2, &mut rng);
            let comp = components(&net);
            assert!(
                comp.iter().all(|&c| c == 0),
                "seed {seed} produced a disconnected network"
            );
        }
    }

    #[test]
    fn generated_network_is_symmetric_with_inverse_distance_weights() {
        let mut rng = Rng::seed_from_u64(7);
        let net = random_geometric(20, 0.3, &mut rng);
        assert!(net.is_symmetric());
        // Every positive weight is 1/dist for its endpoint pair.
        for i in 0..20 {
            for j in 0..20 {
                let w = net.weight(i, j);
                if w > 0.0 {
                    let expect = 1.0 / net.distance(i, j).max(1e-6);
                    assert!(
                        (w - expect).abs() / expect < 1e-4,
                        "weight({i},{j}) = {w}, expected {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = random_geometric(15, 0.25, &mut Rng::seed_from_u64(42));
        let b = random_geometric(15, 0.25, &mut Rng::seed_from_u64(42));
        assert_eq!(a.adjacency(), b.adjacency());
        assert_eq!(a.coords(), b.coords());
    }

    #[test]
    fn single_node_ok() {
        let net = random_geometric(1, 0.25, &mut Rng::seed_from_u64(1));
        assert_eq!(net.num_nodes(), 1);
        assert_eq!(net.num_edges(), 0);
    }
}
