//! Diffusion transition matrices and Chebyshev polynomials.
//!
//! Implements the normalisations behind the paper's graph-convolution
//! layers: Ã = A + Iₙ with row normalisation (Eq. 19/21), the forward and
//! backward transition matrices P^f = Ã / rowsum(Ã) and
//! P^b = Ãᵀ / rowsum(Ãᵀ) for directed diffusion (Eq. 22), their power
//! series P_k, and the scaled Laplacian / Chebyshev basis used by the
//! STGCN baseline.

use crate::network::SensorNetwork;
use urcl_tensor::Tensor;

/// Precomputed diffusion supports for a sensor network: the matrices the
/// diffusion GCN multiplies node features with (Eq. 24 without the
/// adaptive term, which is learned).
#[derive(Clone, Debug)]
pub struct SupportSet {
    /// `P_k` for the forward transition matrix, k = 1..=K (k=0 identity is
    /// implicit in the layer).
    pub forward: Vec<Tensor>,
    /// `P_k` for the backward transition matrix; empty for undirected
    /// graphs where it would duplicate `forward`.
    pub backward: Vec<Tensor>,
}

impl SupportSet {
    /// Builds K-step diffusion supports from a network.
    pub fn diffusion(net: &SensorNetwork, k: usize) -> Self {
        let pf = transition_matrix(net.adjacency());
        let forward = power_series(&pf, k);
        let backward = if net.is_symmetric() {
            Vec::new()
        } else {
            let at = net.adjacency().transpose(0, 1);
            let pb = transition_matrix(&at);
            power_series(&pb, k)
        };
        Self { forward, backward }
    }

    /// All support matrices in a flat list (forward then backward).
    pub fn all(&self) -> Vec<&Tensor> {
        self.forward.iter().chain(self.backward.iter()).collect()
    }

    /// Number of supports.
    pub fn len(&self) -> usize {
        self.forward.len() + self.backward.len()
    }

    /// True when no supports exist (edgeless graph with k = 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Row-normalised transition matrix of Ã = A + Iₙ. Rows with zero sum
/// (isolated nodes before the self-loop, impossible after) normalise to
/// the self-loop alone.
pub fn transition_matrix(adj: &Tensor) -> Tensor {
    let n = adj.shape()[0];
    assert_eq!(adj.shape(), &[n, n], "adjacency must be square");
    let mut t = adj.clone();
    // Self connections.
    for i in 0..n {
        t.data_mut()[i * n + i] += 1.0;
    }
    // Row normalise.
    for i in 0..n {
        let row_sum: f32 = t.data()[i * n..(i + 1) * n].iter().sum();
        if row_sum > 0.0 {
            for j in 0..n {
                t.data_mut()[i * n + j] /= row_sum;
            }
        }
    }
    t
}

/// `[P, P², …, P^k]`.
pub fn power_series(p: &Tensor, k: usize) -> Vec<Tensor> {
    let mut out = Vec::with_capacity(k);
    let mut cur = p.clone();
    for _ in 0..k {
        out.push(cur.clone());
        cur = cur.matmul(p);
    }
    out
}

/// Scaled Laplacian `2 L / λ_max − I` with `L = I − D^(−1/2) A D^(−1/2)`,
/// the ChebNet input used by STGCN. `λ_max` is approximated by 2 (standard
/// practice for normalized Laplacians, whose spectrum lies in [0, 2]).
pub fn scaled_laplacian(adj: &Tensor) -> Tensor {
    let n = adj.shape()[0];
    // Symmetrise first: ChebNet assumes undirected graphs.
    let sym = adj.zip(&adj.transpose(0, 1), |a, b| 0.5 * (a + b));
    let deg: Vec<f32> = (0..n)
        .map(|i| sym.data()[i * n..(i + 1) * n].iter().sum())
        .collect();
    let mut lap = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            let a = sym.data()[i * n + j];
            let norm = if deg[i] > 0.0 && deg[j] > 0.0 {
                a / (deg[i].sqrt() * deg[j].sqrt())
            } else {
                0.0
            };
            let l = if i == j { 1.0 - norm } else { -norm };
            // 2L/λ_max − I with λ_max ≈ 2  ⇒  L − I.
            lap.data_mut()[i * n + j] = l - if i == j { 1.0 } else { 0.0 };
        }
    }
    lap
}

/// Chebyshev polynomial basis `T_0(L̃) … T_{k−1}(L̃)` with the recurrence
/// `T_m = 2 L̃ T_{m−1} − T_{m−2}`.
pub fn cheb_polynomials(scaled_lap: &Tensor, k: usize) -> Vec<Tensor> {
    let n = scaled_lap.shape()[0];
    let mut out: Vec<Tensor> = Vec::with_capacity(k);
    if k == 0 {
        return out;
    }
    out.push(Tensor::eye(n));
    if k == 1 {
        return out;
    }
    out.push(scaled_lap.clone());
    for m in 2..k {
        let t = scaled_lap.matmul(&out[m - 1]).scale(2.0).sub(&out[m - 2]);
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SensorNetwork;

    fn path3() -> SensorNetwork {
        SensorNetwork::from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    }

    #[test]
    fn transition_rows_sum_to_one() {
        let g = path3();
        let p = transition_matrix(g.adjacency());
        for i in 0..3 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn transition_handles_isolated_node() {
        let g = SensorNetwork::from_edges(2, &[]);
        let p = transition_matrix(g.adjacency());
        // Self-loop only: identity.
        assert_eq!(p.data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn power_series_lengths_and_stochasticity() {
        let g = path3();
        let p = transition_matrix(g.adjacency());
        let ps = power_series(&p, 3);
        assert_eq!(ps.len(), 3);
        // Powers of a row-stochastic matrix stay row-stochastic.
        for (k, m) in ps.iter().enumerate() {
            for i in 0..3 {
                let s: f32 = m.data()[i * 3..(i + 1) * 3].iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "P^{} row {i} sums to {s}", k + 1);
            }
        }
    }

    #[test]
    fn diffusion_supports_undirected_skips_backward() {
        let g = path3();
        let s = SupportSet::diffusion(&g, 2);
        assert_eq!(s.forward.len(), 2);
        assert!(s.backward.is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn diffusion_supports_directed_has_backward() {
        let g = SensorNetwork::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let s = SupportSet::diffusion(&g, 2);
        assert_eq!(s.forward.len(), 2);
        assert_eq!(s.backward.len(), 2);
        assert_eq!(s.all().len(), 4);
    }

    #[test]
    fn scaled_laplacian_symmetric_and_bounded() {
        let g = path3();
        let l = scaled_laplacian(g.adjacency());
        // Symmetric.
        for i in 0..3 {
            for j in 0..3 {
                let a = l.data()[i * 3 + j];
                let b = l.data()[j * 3 + i];
                assert!((a - b).abs() < 1e-6);
            }
        }
        // Entries of L̃ = L − I lie in [−2, 1] for normalized Laplacians.
        assert!(l.data().iter().all(|&v| (-2.0..=1.0).contains(&v)));
    }

    #[test]
    fn cheb_recurrence_matches_definition() {
        let g = path3();
        let l = scaled_laplacian(g.adjacency());
        let t = cheb_polynomials(&l, 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], Tensor::eye(3));
        assert_eq!(t[1], l);
        let expect = l.matmul(&l).scale(2.0).sub(&Tensor::eye(3));
        let diff: f32 = t[2]
            .data()
            .iter()
            .zip(expect.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff < 1e-5);
    }
}
