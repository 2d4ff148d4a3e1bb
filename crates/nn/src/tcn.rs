//! Temporal convolution (Eq. 25) and the gated variant
//! `h = tanh(W₁ ⋆ X) ⊙ σ(W₂ ⋆ X)` of Eq. 26, each one GEMM over taps the
//! caller gathers.

use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamId, ParamStore, Rng, Tensor};

/// A 1-D temporal convolution with per-channel bias, evaluated at the
/// output positions whose taps the caller has gathered.
#[derive(Debug, Clone)]
pub struct Conv1dLayer {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
    kernel: usize,
}

impl Conv1dLayer {
    /// Registers a `[out, in, kernel]` weight and `[out]` bias.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
    ) -> Self {
        let fan = (in_dim * kernel) as f32;
        let bound = (1.0 / fan).sqrt();
        let w = store.add(
            format!("{name}.w"),
            rng.uniform_tensor(&[out_dim, in_dim, kernel], -bound, bound),
        );
        let b = store.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Self {
            w,
            b,
            in_dim,
            out_dim,
            kernel,
        }
    }

    /// `taps: [R, C_in·K] -> [R, C_out]`: one GEMM for `R` output
    /// positions, each row the position's taps flattened in `(ci, ki)`
    /// order, against the `[C_out, C_in, K]` weight read as
    /// `[C_out, C_in·K]`, plus the bias. Each output element is one
    /// `(ci, ki)`-ascending sum while `C_in·K` stays within one GEMM
    /// k-block. Dilation and padding are the caller's, expressed in which
    /// taps it gathers.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, taps: Var<'t>) -> Var<'t> {
        let taps_len = self.in_dim * self.kernel;
        let shape = taps.shape();
        assert_eq!(shape.len(), 2, "conv taps must be [R, C_in*K]");
        assert_eq!(shape[1], taps_len, "conv tap count mismatch");
        let w = sess.param(self.w).reshape(&[self.out_dim, taps_len]);
        let b = sess.param(self.b);
        taps.matmul(w.transpose(0, 1)).add(b)
    }
}

/// Gated TCN (Eq. 26): two parallel convolutions combined as
/// `tanh(a) ⊙ sigmoid(b)`. Both branches share geometry.
#[derive(Debug, Clone)]
pub struct GatedTcn {
    filter: Conv1dLayer,
    gate: Conv1dLayer,
}

impl GatedTcn {
    /// Builds the two parallel branches.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
    ) -> Self {
        let mut branch = |part: &str| {
            Conv1dLayer::new(
                store,
                rng,
                &format!("{name}.{part}"),
                in_dim,
                out_dim,
                kernel,
            )
        };
        Self {
            filter: branch("filter"),
            gate: branch("gate"),
        }
    }

    /// `taps: [R, C_in·K] -> [R, C_out]`, see [`Conv1dLayer::forward`].
    /// Both branches read the one tap matrix.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, taps: Var<'t>) -> Var<'t> {
        let f = self.filter.forward(sess, taps).tanh();
        let g = self.gate.forward(sess, taps).sigmoid();
        f.mul(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;

    #[test]
    fn bias_broadcasts_over_channels() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let conv = Conv1dLayer::new(&mut store, &mut rng, "c", 1, 2, 1);
        *store.value_mut(conv.w) = Tensor::zeros(&[2, 1, 1]);
        *store.value_mut(conv.b) = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let taps = sess.input(Tensor::ones(&[3, 1]));
        let y = conv.forward(&mut sess, taps).value();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn window_form_matches_conv_bitwise() {
        // Row (bi, to) carries the taps of output step `to` of a
        // dilation-`d` convolution over x: x[bi, ci, to + ki·d] at column
        // ci·K + ki. The plain loop reads x directly.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(6);
        let (b, cin, cout, k, d, t) = (2, 3, 4, 2, 2, 7);
        let conv = Conv1dLayer::new(&mut store, &mut rng, "c", cin, cout, k);
        *store.value_mut(conv.b) = rng.normal_tensor(&[cout], 0.0, 1.0);
        let x = rng.normal_tensor(&[b, cin, t], 0.0, 1.0);
        let t_out = t - (k - 1) * d;
        let mut taps = Vec::new();
        for bi in 0..b {
            for to in 0..t_out {
                for ci in 0..cin {
                    for ki in 0..k {
                        taps.push(x.at(&[bi, ci, to + ki * d]));
                    }
                }
            }
        }
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let tv = sess.input(Tensor::from_vec(taps, &[b * t_out, cin * k]));
        let y = conv.forward(&mut sess, tv).value();
        let (w, bias) = (store.value(conv.w), store.value(conv.b));
        let mut want = Vec::new();
        for bi in 0..b {
            for to in 0..t_out {
                for co in 0..cout {
                    let mut sum = 0.0f32;
                    for ci in 0..cin {
                        for ki in 0..k {
                            sum += w.at(&[co, ci, ki]) * x.at(&[bi, ci, to + ki * d]);
                        }
                    }
                    want.push((sum + bias.at(&[co])).to_bits());
                }
            }
        }
        let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn gated_tcn_bounded_output() {
        // tanh ⊙ sigmoid is bounded to (-1, 1).
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let tcn = GatedTcn::new(&mut store, &mut rng, "g", 2, 4, 2);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let taps = sess.input(rng.normal_tensor(&[24, 4], 0.0, 5.0));
        let y = tcn.forward(&mut sess, taps).value();
        assert_eq!(y.shape(), &[24, 4]);
        assert!(y.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_flow_through_gate() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let tcn = GatedTcn::new(&mut store, &mut rng, "g", 1, 2, 2);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let taps = sess.input(rng.normal_tensor(&[12, 2], 0.0, 1.0));
        let y = tcn.forward(&mut sess, taps);
        let grads = tape.backward(y.powf(2.0).mean_all());
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        for id in store.ids() {
            assert!(
                store.grad(id).norm() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }
}
