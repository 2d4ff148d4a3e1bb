//! Test oracles: the plain loops `urcl-tensor`'s kernels must reproduce
//! bit for bit.
//!
//! Each function here is the straightforward one-element-at-a-time form
//! of a kernel — the seed-era index-decomposition loops behind
//! `permute`, the broadcast `zip` and `sum_axes`, the one-row GEMM in
//! KC-sized partial sums, and the direct conv1d backward loops — written
//! for clarity, not speed, and reachable only from tests. The library
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

/// The input position tap `ki` of output step `to` reads, if it is not
/// padding: `to + ki * dilation - pad_left` within `[0, t)`.
fn tap(to: usize, ki: usize, dilation: usize, pad_left: usize, t: usize) -> Option<usize> {
    (to + ki * dilation)
        .checked_sub(pad_left)
        .filter(|&j| j < t)
}

/// Input gradient of `x.conv1d(w, dilation, pad_left)` for upstream
/// gradient `g` (`[B, C_out, T_out]`), with `x` of shape `x_shape`. Each
/// element is one `+0.0`-seeded sum over `(co, ki)` ascending of
/// `w[co, ci, ki] * g[bi, co, to]`, padding taps skipped.
pub fn conv1d_dx(
    g: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    dilation: usize,
    pad_left: usize,
) -> Vec<f32> {
    let (b, cin, t) = (x_shape[0], x_shape[1], x_shape[2]);
    let (cout, k) = (w.shape()[0], w.shape()[2]);
    let t_out = g.shape()[2];
    let (gd, wd) = (g.data(), w.data());
    let mut dx = vec![0.0f32; b * cin * t];
    for bi in 0..b {
        for ci in 0..cin {
            for co in 0..cout {
                for ki in 0..k {
                    let wv = wd[(co * cin + ci) * k + ki];
                    for to in 0..t_out {
                        if let Some(j) = tap(to, ki, dilation, pad_left, t) {
                            dx[(bi * cin + ci) * t + j] += wv * gd[(bi * cout + co) * t_out + to];
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Weight gradient of `x.conv1d(w, dilation, pad_left)` for upstream
/// gradient `g`, with `w` of shape `w_shape`. Each `(bi, ki)` pair of an
/// element gets its own `+0.0`-seeded dot over `to` ascending (padding
/// taps skipped, and a pair with no valid tap adds nothing); the dots
/// are summed over `bi` in order.
pub fn conv1d_dw(
    g: &Tensor,
    x: &Tensor,
    w_shape: &[usize],
    dilation: usize,
    pad_left: usize,
) -> Vec<f32> {
    let (b, cin, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, k) = (w_shape[0], w_shape[2]);
    let t_out = g.shape()[2];
    let (gd, xd) = (g.data(), x.data());
    let mut dw = vec![0.0f32; cout * cin * k];
    for co in 0..cout {
        for ci in 0..cin {
            for ki in 0..k {
                let slot = &mut dw[(co * cin + ci) * k + ki];
                for bi in 0..b {
                    let mut dot = 0.0f32;
                    let mut any = false;
                    for to in 0..t_out {
                        if let Some(j) = tap(to, ki, dilation, pad_left, t) {
                            dot += gd[(bi * cout + co) * t_out + to] * xd[(bi * cin + ci) * t + j];
                            any = true;
                        }
                    }
                    if any {
                        *slot += dot;
                    }
                }
            }
        }
    }
    dw
}
