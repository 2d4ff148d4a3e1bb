//! The sensor network of Definition 1: a weighted directed graph whose
//! nodes are sensors and whose edge weights encode spatial proximity
//! (Eq. 20: weight = 1 / distance).

use urcl_tensor::Tensor;

/// A sensor network `G = (V, E)` with dense weighted adjacency.
///
/// `adj[i * n + j] > 0` means an edge from sensor `i` to sensor `j` with
/// that weight. Sensors carry planar coordinates so that generators and
/// augmentations can reason about geography.
#[derive(Clone, Debug)]
pub struct SensorNetwork {
    n: usize,
    coords: Vec<(f32, f32)>,
    adj: Tensor,
}

impl SensorNetwork {
    /// Builds a network from coordinates and a dense adjacency tensor of
    /// shape `[n, n]`. Panics on shape mismatch or negative weights.
    pub fn new(coords: Vec<(f32, f32)>, adj: Tensor) -> Self {
        let n = coords.len();
        assert_eq!(adj.shape(), &[n, n], "adjacency must be [n, n]");
        assert!(
            adj.data().iter().all(|&w| w >= 0.0),
            "edge weights must be non-negative"
        );
        Self { n, coords, adj }
    }

    /// Builds a network from an edge list with explicit weights. Node
    /// coordinates default to a unit line layout when not meaningful.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f32)]) -> Self {
        let mut adj = Tensor::zeros(&[n, n]);
        for &(i, j, w) in edges {
            assert!(i < n && j < n, "edge ({i},{j}) out of range");
            assert!(w >= 0.0, "negative edge weight");
            adj.data_mut()[i * n + j] = w;
        }
        let coords = (0..n).map(|i| (i as f32, 0.0)).collect();
        Self::new(coords, adj)
    }

    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges with positive weight.
    pub fn num_edges(&self) -> usize {
        self.adj.data().iter().filter(|&&w| w > 0.0).count()
    }

    /// Sensor coordinates.
    pub fn coords(&self) -> &[(f32, f32)] {
        &self.coords
    }

    /// The dense weighted adjacency matrix `[n, n]`.
    pub fn adjacency(&self) -> &Tensor {
        &self.adj
    }

    /// Weight of the edge `i -> j` (0 when absent).
    pub fn weight(&self, i: usize, j: usize) -> f32 {
        self.adj.data()[i * self.n + j]
    }

    /// True when an edge `i -> j` exists.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.weight(i, j) > 0.0
    }

    /// Out-neighbours of node `i`.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        (0..self.n).filter(|&j| self.has_edge(i, j)).collect()
    }

    /// Out-degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.neighbors(i).len()
    }

    /// Euclidean distance between two sensors.
    pub fn distance(&self, i: usize, j: usize) -> f32 {
        let (xi, yi) = self.coords[i];
        let (xj, yj) = self.coords[j];
        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
    }

    /// Returns a copy with a different adjacency (used by spatial
    /// augmentations which perturb edges but keep node identity).
    pub fn with_adjacency(&self, adj: Tensor) -> Self {
        Self::new(self.coords.clone(), adj)
    }

    /// Restriction of the network to a node subset (the SubGraph
    /// augmentation). Node order follows `nodes`.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Self {
        let coords = nodes.iter().map(|&i| self.coords[i]).collect();
        let m = nodes.len();
        let mut adj = Tensor::zeros(&[m, m]);
        for (a, &i) in nodes.iter().enumerate() {
            for (b, &j) in nodes.iter().enumerate() {
                adj.data_mut()[a * m + b] = self.weight(i, j);
            }
        }
        Self::new(coords, adj)
    }

    /// Whether the adjacency is symmetric (undirected network).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.weight(i, j) - self.weight(j, i)).abs() > 1e-6 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> SensorNetwork {
        SensorNetwork::from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
    }

    #[test]
    fn edge_queries() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.weight(1, 2), 0.5);
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn symmetric_detection() {
        let g = triangle();
        assert!(g.is_symmetric());
        let d = SensorNetwork::from_edges(2, &[(0, 1, 1.0)]);
        assert!(!d.is_symmetric());
    }

    #[test]
    fn induced_subgraph_keeps_weights() {
        let g = triangle();
        let s = g.induced_subgraph(&[1, 2]);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.weight(0, 1), 0.5); // old (1,2)
        assert_eq!(s.weight(1, 0), 0.5);
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "negative edge weight")]
    fn negative_weight_rejected() {
        let _ = SensorNetwork::from_edges(2, &[(0, 1, -1.0)]);
    }

    #[test]
    fn distance_uses_coords() {
        let g = SensorNetwork::new(vec![(0.0, 0.0), (3.0, 4.0)], Tensor::zeros(&[2, 2]));
        assert!((g.distance(0, 1) - 5.0).abs() < 1e-6);
    }
}
