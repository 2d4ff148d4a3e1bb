//! Test oracles: the plain loops `urcl-tensor`'s kernels must reproduce
//! bit for bit.
//!
//! Each function here is the straightforward one-element-at-a-time form
//! of a kernel — the seed-era index-decomposition loops behind
//! `permute`, the broadcast `zip` and `sum_axes`, and the one-row GEMM in
//! KC-sized partial sums — written for clarity, not speed, and reachable
//! only from tests. The library
//! runs one kernel path per (op, shape, host ISA); the bitwise suites
//! (`simd_parity.rs`) compare every path against these.
//!
//! Load with `mod reference;` from a test file.

#![allow(dead_code)]

use urcl_tensor::gemm::KC;
use urcl_tensor::shape::{broadcast_offset, broadcast_shape, broadcast_strides, strides};
use urcl_tensor::Tensor;

/// `x.permute(perm)`: decompose every output index in the output shape,
/// then gather.
pub fn permute(x: &Tensor, perm: &[usize]) -> Vec<f32> {
    let in_strides = strides(x.shape());
    let out_shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
    let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut idx = vec![0usize; out_shape.len()];
    (0..x.len())
        .map(|linear| {
            let mut rem = linear;
            for i in (0..out_shape.len()).rev() {
                idx[i] = rem % out_shape[i];
                rem /= out_shape[i];
            }
            let src: usize = idx.iter().zip(&src_strides).map(|(i, s)| i * s).sum();
            x.data()[src]
        })
        .collect()
}

/// `a.zip(b, f)` under NumPy broadcasting: one `f` call per output
/// element on the operands its broadcast offsets select.
pub fn broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let out_shape = broadcast_shape(a.shape(), b.shape()).expect("incompatible broadcast");
    let sa = broadcast_strides(a.shape(), out_shape.len());
    let sb = broadcast_strides(b.shape(), out_shape.len());
    let n: usize = out_shape.iter().product();
    (0..n)
        .map(|linear| {
            let oa = broadcast_offset(linear, &out_shape, &sa);
            let ob = broadcast_offset(linear, &out_shape, &sb);
            f(a.data()[oa], b.data()[ob])
        })
        .collect()
}

/// `x.sum_axes(axes, _)`'s data (the same for either `keepdim`): every
/// input element, in ascending linear order, added into its output slot.
pub fn sum_axes(x: &Tensor, axes: &[usize]) -> Vec<f32> {
    let shape = x.shape();
    let keep: Vec<usize> = (0..shape.len())
        .map(|i| if axes.contains(&i) { 1 } else { shape[i] })
        .collect();
    let out_strides = strides(&keep);
    let mut out = vec![0.0f32; keep.iter().product()];
    let mut idx = vec![0usize; shape.len()];
    for (linear, &v) in x.data().iter().enumerate() {
        let mut rem = linear;
        for i in (0..shape.len()).rev() {
            idx[i] = rem % shape[i];
            rem /= shape[i];
        }
        let off: usize = (0..shape.len())
            .map(|i| {
                if axes.contains(&i) {
                    0
                } else {
                    idx[i] * out_strides[i]
                }
            })
            .sum();
        out[off] += v;
    }
    out
}

/// `gemm_strided`: one output row at a time, k ascending in KC-sized
/// `+0.0`-seeded partial sums, each partial added to the zeroed output —
/// the per-element order every GEMM route (tiled, direct, row-blocked)
/// must reproduce.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let mut part = vec![0.0f32; n];
    for i in 0..m {
        for pc in (0..k).step_by(KC) {
            part.fill(0.0);
            for p in pc..(pc + KC).min(k) {
                let aip = a[i * a_rs + p * a_cs];
                for (j, s) in part.iter_mut().enumerate() {
                    *s += aip * b[p * b_rs + j * b_cs];
                }
            }
            for (o, &s) in out[i * n..(i + 1) * n].iter_mut().zip(&part) {
                *o += s;
            }
        }
    }
    out
}
