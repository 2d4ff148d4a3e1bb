//! # urcl-graph
//!
//! Sensor networks for spatio-temporal prediction: the weighted spatial
//! graph of Definition 1 in the URCL paper, the diffusion transition
//! matrices used by the graph-convolution layers (Eq. 19–24), and
//! generators for synthetic road-sensor topologies.
//!
//! Adjacency is stored densely as an `N × N` [`urcl_tensor::Tensor`]
//! because the paper's graphs are small (hundreds of sensors) and every
//! consumer — graph convolutions, augmentations — wants dense matrices
//! anyway.

pub mod generate;
pub mod network;
pub mod transition;
pub mod walk;

pub use generate::random_geometric;
pub use network::SensorNetwork;
pub use transition::{
    cheb_polynomials, power_series, scaled_laplacian, transition_matrix, SupportSet,
};
pub use walk::{distant_pairs, hop_distances, random_walk_subgraph};
