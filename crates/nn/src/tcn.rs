//! Temporal convolution: dilated causal conv1d (Eq. 25) and the gated
//! variant `h = tanh(W₁ ⋆ X) ⊙ σ(W₂ ⋆ X)` of Eq. 26.

use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{ParamId, ParamStore, Rng, Tensor};

/// A dilated causal 1-D convolution over the last axis of a
/// `[B, C_in, T]` input, with per-channel bias.
#[derive(Debug, Clone)]
pub struct Conv1dLayer {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
    kernel: usize,
    dilation: usize,
    /// Zeros virtually prepended to the time axis; `0` shrinks the output
    /// (GraphWaveNet style), `(kernel-1)*dilation` keeps the length.
    pad_left: usize,
}

impl Conv1dLayer {
    /// Registers a `[out, in, kernel]` weight and `[out]` bias.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
        dilation: usize,
        pad_left: usize,
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
            dilation,
            pad_left,
        }
    }

    /// Output length for a given input length.
    pub fn out_len(&self, t: usize) -> usize {
        t + self.pad_left - (self.kernel - 1) * self.dilation
    }

    /// `x: [B, C_in, T] -> [B, C_out, out_len(T)]`.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "conv input must be [B, C, T]");
        assert_eq!(shape[1], self.in_dim, "conv channel mismatch");
        let w = sess.param(self.w);
        let b = sess.param(self.b);
        let y = x.conv1d(w, self.dilation, self.pad_left);
        // Bias over the channel axis: [out] -> [1, out, 1].
        let bb = b.reshape(&[1, self.out_dim, 1]);
        y.add(bb)
    }

    /// Window form: `taps: [R, C_in·K] -> [R, C_out]`, one GEMM for `R`
    /// output positions whose taps the caller has gathered, each row
    /// flattened in `(ci, ki)` order. The `[C_out, C_in, K]` weight is
    /// read as `[C_out, C_in·K]`, so every output element reduces over the
    /// same products in the same order as [`Self::forward`]'s conv1d and
    /// matches it bitwise while `C_in·K` stays within one GEMM k-block.
    /// Dilation and padding are the caller's, expressed in which taps it
    /// gathers.
    pub fn forward_window<'t>(&self, sess: &mut Session<'t, '_>, taps: Var<'t>) -> Var<'t> {
        let taps_len = self.in_dim * self.kernel;
        let shape = taps.shape();
        assert_eq!(shape.len(), 2, "window taps must be [R, C_in*K]");
        assert_eq!(shape[1], taps_len, "window tap count mismatch");
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
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
        dilation: usize,
        pad_left: usize,
    ) -> Self {
        Self {
            filter: Conv1dLayer::new(
                store,
                rng,
                &format!("{name}.filter"),
                in_dim,
                out_dim,
                kernel,
                dilation,
                pad_left,
            ),
            gate: Conv1dLayer::new(
                store,
                rng,
                &format!("{name}.gate"),
                in_dim,
                out_dim,
                kernel,
                dilation,
                pad_left,
            ),
        }
    }

    /// Output length for a given input length.
    pub fn out_len(&self, t: usize) -> usize {
        self.filter.out_len(t)
    }

    /// `x: [B, C_in, T] -> [B, C_out, out_len(T)]`.
    pub fn forward<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        let f = self.filter.forward(sess, x).tanh();
        let g = self.gate.forward(sess, x).sigmoid();
        f.mul(g)
    }

    /// Window form of [`Self::forward`]: `taps: [R, C_in·K] -> [R, C_out]`,
    /// see [`Conv1dLayer::forward_window`]. Both branches read the one
    /// tap matrix.
    pub fn forward_window<'t>(&self, sess: &mut Session<'t, '_>, taps: Var<'t>) -> Var<'t> {
        let f = self.filter.forward_window(sess, taps).tanh();
        let g = self.gate.forward_window(sess, taps).sigmoid();
        f.mul(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::autodiff::Tape;

    #[test]
    fn conv_shapes_shrink_without_padding() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let conv = Conv1dLayer::new(&mut store, &mut rng, "c", 3, 5, 2, 2, 0);
        assert_eq!(conv.out_len(12), 10);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[4, 3, 12]));
        let y = conv.forward(&mut sess, x);
        assert_eq!(y.shape(), vec![4, 5, 10]);
    }

    #[test]
    fn causal_padding_keeps_length() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let conv = Conv1dLayer::new(&mut store, &mut rng, "c", 1, 1, 3, 1, 2);
        assert_eq!(conv.out_len(8), 8);
    }

    #[test]
    fn bias_broadcasts_over_channels() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let conv = Conv1dLayer::new(&mut store, &mut rng, "c", 1, 2, 1, 1, 0);
        *store.value_mut(conv.w) = Tensor::zeros(&[2, 1, 1]);
        *store.value_mut(conv.b) = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(Tensor::ones(&[1, 1, 3]));
        let y = conv.forward(&mut sess, x).value();
        assert_eq!(y.data(), &[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn window_form_matches_conv_bitwise() {
        // Row (bi, to) of the window form carries the taps conv1d reads
        // for output step `to`: x[bi, ci, to + ki·d] at column ci·K + ki.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(6);
        let (cin, k, d, t) = (3, 2, 2, 7);
        let tcn = GatedTcn::new(&mut store, &mut rng, "g", cin, 4, k, d, 0);
        *store.value_mut(tcn.filter.b) = rng.normal_tensor(&[4], 0.0, 1.0);
        let x = rng.normal_tensor(&[2, cin, t], 0.0, 1.0);
        let t_out = tcn.out_len(t);
        let mut taps = Vec::new();
        for bi in 0..2 {
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
        let xv = sess.input(x);
        let conv = tcn.forward(&mut sess, xv).permute(&[0, 2, 1]).value();
        let tv = sess.input(Tensor::from_vec(taps, &[2 * t_out, cin * k]));
        let window = tcn.forward_window(&mut sess, tv).value();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&window), bits(&conv));
    }

    #[test]
    fn gated_tcn_bounded_output() {
        // tanh ⊙ sigmoid is bounded to (-1, 1).
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(4);
        let tcn = GatedTcn::new(&mut store, &mut rng, "g", 2, 4, 2, 1, 0);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[3, 2, 9], 0.0, 5.0));
        let y = tcn.forward(&mut sess, x).value();
        assert_eq!(y.shape(), &[3, 4, 8]);
        assert!(y.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_flow_through_gate() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let tcn = GatedTcn::new(&mut store, &mut rng, "g", 1, 2, 2, 1, 1);
        store.zero_grads();
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(rng.normal_tensor(&[2, 1, 6], 0.0, 1.0));
        let y = tcn.forward(&mut sess, x);
        let grads = tape.backward(y.powf(2.0).mean_all());
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        for id in store.ids() {
            assert!(store.grad(id).norm() > 0.0, "no grad for {}", store.name(id));
        }
    }
}
