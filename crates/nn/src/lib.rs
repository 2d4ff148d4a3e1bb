//! # urcl-nn
//!
//! Neural-network layers on the `urcl-tensor` autodiff substrate — the
//! building blocks of Section IV-D of the URCL paper and of its baseline
//! models:
//!
//! * [`Linear`] / [`Mlp`] — affine maps and feed-forward stacks (the
//!   STDecoder of Fig. 4 / Eq. 27).
//! * [`DiffusionGcn`] — the diffusion graph convolution of Eq. 21–24,
//!   including the self-adaptive adjacency of Eq. 23.
//! * [`ChebGcn`] — Chebyshev graph convolution (the STGCN baseline).
//! * [`Conv1dLayer`] / [`GatedTcn`] — temporal convolution with the
//!   output gate of Eq. 25–26, one GEMM over taps the caller gathers
//!   (dilation and padding live in which taps it gathers).
//! * [`GruCell`] / [`DcGruCell`] — recurrent cells; `DcGruCell` replaces
//!   the dense gates with diffusion graph convolutions (the DCRNN
//!   baseline).
//! * [`Attention`] — scaled dot-product attention (the GeoMAN baseline).
//!
//! Layers register their parameters in a shared
//! [`urcl_tensor::ParamStore`] at construction and rebuild their forward
//! graph on a fresh tape every step via [`urcl_tensor::Session`].

pub mod attention;
pub mod cheb;
pub mod gcn;
pub mod gru;
pub mod linear;
pub mod tcn;

pub use attention::Attention;
pub use cheb::ChebGcn;
pub use gcn::{AdaptiveAdjacency, DiffusionGcn};
pub use gru::{DcGruCell, GruCell};
pub use linear::{Linear, Mlp};
pub use tcn::{Conv1dLayer, GatedTcn};

use urcl_tensor::autodiff::Var;

/// Applies a linear layer over the last axis of an arbitrary-rank input:
/// flattens to `[rows, in]`, maps, restores the leading shape with the new
/// channel count. Shared by every layer in this crate.
pub(crate) fn map_last_axis<'t>(
    x: Var<'t>,
    in_dim: usize,
    out_dim: usize,
    f: impl FnOnce(Var<'t>) -> Var<'t>,
) -> Var<'t> {
    let shape = x.shape();
    assert_eq!(
        *shape.last().expect("input must have at least one axis"),
        in_dim,
        "last axis {:?} does not match layer input {in_dim}",
        shape
    );
    let rows: usize = shape[..shape.len() - 1].iter().product();
    let flat = x.reshape(&[rows, in_dim]);
    let out = f(flat);
    let mut out_shape = shape[..shape.len() - 1].to_vec();
    out_shape.push(out_dim);
    out.reshape(&out_shape)
}
