//! The dense tensor type and its (non-differentiable) math kernels.
//!
//! Everything here is plain data math; the autodiff layer in
//! [`crate::autodiff`] calls these kernels from both forward and backward
//! passes. All tensors are contiguous row-major `f32` buffers.

use crate::gemm::gemm_strided;
use crate::parallel::{par_fill, parallel_for, SendPtr, PAR_MIN_ELEMS, PAR_MIN_FLOPS};
use crate::pool;
use crate::shape::{
    broadcast_offset, broadcast_reduce_axes, broadcast_shape, broadcast_strides, numel, strides,
};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// Storage is a [`pool::Buffer`] from the tape-scoped buffer pool
/// ([`crate::pool`]): every constructor draws a (32-byte-aligned) block
/// from the current thread's free list, and `Drop` returns it there (or
/// to the allocator, when dropped on another thread), so steady-state
/// training reuses the same buffers step after step instead of hitting
/// the allocator.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: pool::Buffer,
    shape: Vec<usize>,
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.data));
    }
}

/// Which operands of a matrix product are logically transposed.
#[derive(Clone, Copy, Debug)]
enum MatKind {
    /// `A @ B`
    NN,
    /// `A @ B^T`
    NT,
    /// `A^T @ B`
    TN,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:?}, ... {} elems]", &self.data[..8], self.data.len())
        }
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Builds a tensor from a flat buffer and a shape. A [`pool::Buffer`]
    /// is moved in; a plain `Vec<f32>` is copied into a pool block and
    /// freed, so a tensor's storage always comes from the pool. Panics if
    /// the buffer length does not match the shape.
    pub fn from_vec(data: impl Into<pool::Buffer>, shape: &[usize]) -> Self {
        let data = data.into();
        assert_eq!(
            data.len(),
            numel(shape),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: pool::take_zeroed(numel(shape)),
            shape: shape.to_vec(),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut data = pool::take_uninit(numel(shape));
        data.fill(value);
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// A scalar (shape `[1]`) tensor. Using `[1]` instead of the empty
    /// shape keeps broadcast logic uniform.
    pub fn scalar(value: f32) -> Self {
        Self::full(&[1], value)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// This tensor as a recording at batch size `b`: a copy of itself when
    /// its leading (batch) dim already is `b`, otherwise zeros with the
    /// leading dim set to `b` — the shape proxy the second recording of
    /// [`ExecPlan::compile_poly`](crate::plan::ExecPlan::compile_poly)
    /// runs on.
    pub fn at_batch(&self, b: usize) -> Self {
        if self.shape[0] == b {
            return self.clone();
        }
        let mut shape = self.shape.clone();
        shape[0] = b;
        Self::zeros(&shape)
    }

    // ------------------------------------------------------------ accessors

    /// The dimension sizes.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        debug_assert_eq!(idx.len(), self.shape.len());
        let st = strides(&self.shape);
        let off: usize = idx.iter().zip(&st).map(|(i, s)| i * s).sum();
        self.data[off]
    }

    /// The single value of a one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor of shape {:?}",
            self.shape
        );
        self.data[0]
    }

    // --------------------------------------------------------- shape moves

    /// Reinterprets the buffer under a new shape with the same element
    /// count. Cheap: the buffer is moved, not copied.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            numel(shape),
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Generalized transpose: permutes axes so that output axis `i` is
    /// input axis `perm[i]`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.ndim(), "permute rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_strides = strides(&self.shape);
        let out_strides_in_input: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut out = pool::take_uninit(self.data.len());
        strided_copy(&self.data, &mut out, &out_shape, &out_strides_in_input);
        Tensor {
            data: out,
            shape: out_shape,
        }
    }

    /// Swaps two axes (special case of [`Self::permute`]).
    pub fn transpose(&self, a: usize, b: usize) -> Self {
        let mut perm: Vec<usize> = (0..self.ndim()).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    // ----------------------------------------------------------- elementwise

    /// Applies `f` to every element, producing a new tensor. Large tensors
    /// are split across the thread pool (each chunk writes a disjoint
    /// output range, so the result is identical at any thread count).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let n = self.data.len();
        let mut data = pool::take_uninit(n);
        if n < PAR_MIN_ELEMS {
            for (slot, &x) in data.iter_mut().zip(self.data.iter()) {
                *slot = f(x);
            }
        } else {
            par_fill(&mut data, PAR_MIN_ELEMS / 4, |dst, r| {
                for (slot, &x) in dst.iter_mut().zip(&self.data[r]) {
                    *slot = f(x);
                }
            });
        }
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Elementwise binary op with NumPy-style broadcasting. Parallelized
    /// like [`Self::map`] above the size threshold.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        if self.shape == other.shape {
            let n = self.data.len();
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                for ((slot, &a), &b) in data.iter_mut().zip(self.data.iter()).zip(other.data.iter())
                {
                    *slot = f(a, b);
                }
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |dst, r| {
                    for ((slot, &a), &b) in dst
                        .iter_mut()
                        .zip(&self.data[r.clone()])
                        .zip(&other.data[r])
                    {
                        *slot = f(a, b);
                    }
                });
            }
            return Tensor {
                data,
                shape: self.shape.clone(),
            };
        }
        let out_shape = broadcast_shape(&self.shape, &other.shape).unwrap_or_else(|| {
            panic!(
                "incompatible broadcast: {:?} vs {:?}",
                self.shape, other.shape
            )
        });
        let sa = broadcast_strides(&self.shape, out_shape.len());
        let sb = broadcast_strides(&other.shape, out_shape.len());
        let n = numel(&out_shape);
        let mut data = pool::take_uninit(n);
        broadcast_zip_into(&self.data, &other.data, &mut data, &out_shape, &sa, &sb, &f);
        Tensor {
            data,
            shape: out_shape,
        }
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a / b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, c: f32) -> Self {
        self.map(|x| x * c)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Self {
        self.map(|x| x + c)
    }

    /// In-place accumulation `self += other` (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        if self.data.len() < PAR_MIN_ELEMS {
            for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
                *a += b;
            }
        } else {
            par_fill(&mut self.data, PAR_MIN_ELEMS / 4, |dst, r| {
                for (a, b) in dst.iter_mut().zip(&other.data[r]) {
                    *a += b;
                }
            });
        }
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, as an `f32`.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements, as an `f32`.
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Sums over the given axes. When `keepdim` is true the reduced axes
    /// remain with size 1; otherwise they are removed.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Self {
        let mut reduce = vec![false; self.ndim()];
        for &a in axes {
            assert!(
                a < self.ndim(),
                "sum axis {a} out of range for {:?}",
                self.shape
            );
            reduce[a] = true;
        }
        let keep_shape: Vec<usize> = self
            .shape
            .iter()
            .enumerate()
            .map(|(i, &d)| if reduce[i] { 1 } else { d })
            .collect();
        let out_strides_full = strides(&keep_shape);
        let mut out = Tensor::zeros(&keep_shape);
        let os: Vec<usize> = (0..self.ndim())
            .map(|i| if reduce[i] { 0 } else { out_strides_full[i] })
            .collect();
        sum_axes_into(&self.data, &mut out.data, &self.shape, &os);
        if keepdim {
            out
        } else {
            let squeezed: Vec<usize> = keep_shape
                .iter()
                .enumerate()
                .filter(|(i, _)| !reduce[*i])
                .map(|(_, &d)| d)
                .collect();
            let shape = if squeezed.is_empty() {
                vec![1]
            } else {
                squeezed
            };
            out.reshape(&shape)
        }
    }

    // -------------------------------------------------------------- matmul

    /// Matrix product with NumPy-style batched broadcasting.
    ///
    /// The last two axes of each operand are the matrix dimensions
    /// (`[.., m, k] @ [.., k, n] -> [.., m, n]`); leading axes broadcast.
    /// 1-D operands are not supported — reshape explicitly instead.
    ///
    /// Runs on the tiled GEMM kernel ([`crate::gemm`]), parallelized over
    /// batch entries and output-row strips.
    pub fn matmul(&self, other: &Tensor) -> Self {
        self.batched_gemm(other, MatKind::NN)
    }

    /// Fused `A @ B^T`: `[.., m, k] @ [.., n, k] -> [.., m, n]` without
    /// materializing the transpose. Backward passes use this for
    /// `dA = dC @ B^T`.
    pub fn matmul_nt(&self, other: &Tensor) -> Self {
        self.batched_gemm(other, MatKind::NT)
    }

    /// Fused `A^T @ B`: `[.., k, m] @ [.., k, n] -> [.., m, n]` without
    /// materializing the transpose. Backward passes use this for
    /// `dB = A^T @ dC`.
    pub fn matmul_tn(&self, other: &Tensor) -> Self {
        self.batched_gemm(other, MatKind::TN)
    }

    fn batched_gemm(&self, other: &Tensor, kind: MatKind) -> Self {
        assert!(
            self.ndim() >= 2 && other.ndim() >= 2,
            "matmul requires >=2-D operands, got {:?} @ {:?}",
            self.shape,
            other.shape
        );
        let (a0, a1) = (self.shape[self.ndim() - 2], self.shape[self.ndim() - 1]);
        let (b0, b1) = (other.shape[other.ndim() - 2], other.shape[other.ndim() - 1]);
        // Logical dims (m, k) x (k, n) plus element strides per operand.
        let (m, ka, a_rs, a_cs) = match kind {
            MatKind::NN | MatKind::NT => (a0, a1, a1, 1),
            MatKind::TN => (a1, a0, 1, a1),
        };
        let (kb, n, b_rs, b_cs) = match kind {
            MatKind::NN | MatKind::TN => (b0, b1, b1, 1),
            MatKind::NT => (b1, b0, 1, b1),
        };
        assert_eq!(
            ka, kb,
            "matmul inner dim mismatch ({kind:?}): {:?} @ {:?}",
            self.shape, other.shape
        );
        let batch_a = &self.shape[..self.ndim() - 2];
        let batch_b = &other.shape[..other.ndim() - 2];
        let batch = broadcast_shape(batch_a, batch_b).unwrap_or_else(|| {
            panic!(
                "matmul batch dims incompatible: {:?} @ {:?}",
                self.shape, other.shape
            )
        });
        let nbatch = numel(&batch);
        let sa = broadcast_strides(batch_a, batch.len());
        let sb = broadcast_strides(batch_b, batch.len());
        let a_mat = a0 * a1;
        let b_mat = b0 * b1;
        let mut out_shape = batch.clone();
        out_shape.push(m);
        out_shape.push(n);
        let mut out = pool::take_uninit(nbatch * m * n);
        if nbatch == 0 || m == 0 || n == 0 {
            return Tensor {
                data: out,
                shape: out_shape,
            };
        }

        // Work items are (batch entry) x (strip of output rows). Each item
        // computes an independent gemm on disjoint output rows, so the
        // split affects neither correctness nor the per-element f32
        // accumulation order: results are bitwise identical at any thread
        // count. When full-MC strips would leave workers idle (few batch
        // entries, m barely above MC), shrink the strip — still a multiple
        // of MR — to target ~2 items per thread. Strip height never
        // changes per-element accumulation order (gemm always sums k
        // ascending in KC-sized partial sums), so this sizing, though a
        // function of the thread count, preserves bitwise reproducibility
        // across thread counts.
        let flops = nbatch * m * n * ka;
        let threads = crate::parallel::num_threads();
        let strip = if flops < PAR_MIN_FLOPS || nbatch * m.div_ceil(crate::gemm::MC) >= 2 * threads
        {
            crate::gemm::MC
        } else {
            let want_strips = (2 * threads).div_ceil(nbatch).max(1);
            let s = m.div_ceil(want_strips).div_ceil(crate::gemm::MR) * crate::gemm::MR;
            s.clamp(crate::gemm::MR, crate::gemm::MC)
        };
        let strips = m.div_ceil(strip);
        let items = nbatch * strips;
        let out_ptr = SendPtr(out.as_mut_ptr());
        let run_item = |item: usize| {
            let bi = item / strips;
            let r0 = (item % strips) * strip;
            let rows = strip.min(m - r0);
            let a_off = broadcast_offset(bi, &batch, &sa) * a_mat + r0 * a_rs;
            let b_off = broadcast_offset(bi, &batch, &sb) * b_mat;
            // SAFETY: each item owns rows [r0, r0+rows) of batch entry bi.
            let o = unsafe { out_ptr.slice(bi * m * n + r0 * n, rows * n) };
            gemm_strided(
                rows,
                ka,
                n,
                &self.data[a_off..],
                a_rs,
                a_cs,
                &other.data[b_off..],
                b_rs,
                b_cs,
                o,
            );
        };
        if flops < PAR_MIN_FLOPS {
            for item in 0..items {
                run_item(item);
            }
        } else {
            parallel_for(items, 1, |r| {
                for item in r {
                    run_item(item);
                }
            });
        }
        Tensor {
            data: out,
            shape: out_shape,
        }
    }

    /// Naive serial batched matmul kept as the correctness reference for
    /// the tiled/parallel kernel (branch-free: no zero-skip shortcut, so
    /// FLOP count does not depend on input sparsity).
    pub fn matmul_reference(&self, other: &Tensor) -> Self {
        assert!(
            self.ndim() >= 2 && other.ndim() >= 2,
            "matmul requires >=2-D operands, got {:?} @ {:?}",
            self.shape,
            other.shape
        );
        let (m, ka) = (self.shape[self.ndim() - 2], self.shape[self.ndim() - 1]);
        let (kb, n) = (other.shape[other.ndim() - 2], other.shape[other.ndim() - 1]);
        assert_eq!(
            ka, kb,
            "matmul inner dim mismatch: {:?} @ {:?}",
            self.shape, other.shape
        );
        let batch_a = &self.shape[..self.ndim() - 2];
        let batch_b = &other.shape[..other.ndim() - 2];
        let batch = broadcast_shape(batch_a, batch_b).unwrap_or_else(|| {
            panic!(
                "matmul batch dims incompatible: {:?} @ {:?}",
                self.shape, other.shape
            )
        });
        let nbatch = numel(&batch);
        let sa = broadcast_strides(batch_a, batch.len());
        let sb = broadcast_strides(batch_b, batch.len());
        let a_mat = m * ka;
        let b_mat = kb * n;
        let mut out_shape = batch.clone();
        out_shape.push(m);
        out_shape.push(n);
        let mut out = pool::take_zeroed(nbatch * m * n);
        for bi in 0..nbatch {
            let a_off = broadcast_offset(bi, &batch, &sa) * a_mat;
            let b_off = broadcast_offset(bi, &batch, &sb) * b_mat;
            let o_off = bi * m * n;
            let a = &self.data[a_off..a_off + a_mat];
            let b = &other.data[b_off..b_off + b_mat];
            let o = &mut out[o_off..o_off + m * n];
            // ikj loop order: stream through b rows, accumulate into o rows.
            for i in 0..m {
                let arow = &a[i * ka..(i + 1) * ka];
                let orow = &mut o[i * n..(i + 1) * n];
                for (k, &aik) in arow.iter().enumerate() {
                    let brow = &b[k * n..(k + 1) * n];
                    for (j, &bkj) in brow.iter().enumerate() {
                        orow[j] += aik * bkj;
                    }
                }
            }
        }
        Tensor {
            data: out,
            shape: out_shape,
        }
    }

    // ------------------------------------------------------------- sections

    /// Slices `len` entries starting at `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Self {
        assert!(axis < self.ndim(), "narrow axis out of range");
        assert!(
            start + len <= self.shape[axis],
            "narrow [{start}, {start}+{len}) exceeds axis {} of size {}",
            axis,
            self.shape[axis]
        );
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let d = self.shape[axis];
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let row = len * inner;
        let mut data = pool::take_uninit(outer * row);
        for o in 0..outer {
            let base = o * d * inner + start * inner;
            data[o * row..(o + 1) * row].copy_from_slice(&self.data[base..base + row]);
        }
        Tensor {
            data,
            shape: out_shape,
        }
    }

    /// Concatenates tensors along `axis`. All other axes must match.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Self {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let first = parts[0];
        assert!(axis < first.ndim(), "concat axis out of range");
        for p in parts {
            assert_eq!(p.ndim(), first.ndim(), "concat rank mismatch");
            for i in 0..first.ndim() {
                if i != axis {
                    assert_eq!(
                        p.shape[i], first.shape[i],
                        "concat non-axis dim mismatch at axis {i}"
                    );
                }
            }
        }
        let outer: usize = first.shape[..axis].iter().product();
        let inner: usize = first.shape[axis + 1..].iter().product();
        let total_axis: usize = parts.iter().map(|p| p.shape[axis]).sum();
        let mut out_shape = first.shape.clone();
        out_shape[axis] = total_axis;
        let mut data = pool::take_uninit(outer * total_axis * inner);
        let mut dst = 0;
        for o in 0..outer {
            for p in parts {
                let chunk = p.shape[axis] * inner;
                let base = o * chunk;
                data[dst..dst + chunk].copy_from_slice(&p.data[base..base + chunk]);
                dst += chunk;
            }
        }
        Tensor {
            data,
            shape: out_shape,
        }
    }

    /// Gathers rows along `axis` by index, producing a tensor whose `axis`
    /// has length `indices.len()`. Out-of-range indices panic.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Self {
        assert!(axis < self.ndim(), "index_select axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let d = self.shape[axis];
        let mut out_shape = self.shape.clone();
        out_shape[axis] = indices.len();
        let mut data = pool::take_uninit(outer * indices.len() * inner);
        let mut dst = 0;
        for o in 0..outer {
            for &i in indices {
                assert!(i < d, "index_select index {i} out of range {d}");
                let base = o * d * inner + i * inner;
                data[dst..dst + inner].copy_from_slice(&self.data[base..base + inner]);
                dst += inner;
            }
        }
        Tensor {
            data,
            shape: out_shape,
        }
    }

    /// Reverses the order of entries along `axis` (used by the TimeFlipping
    /// augmentation).
    pub fn flip(&self, axis: usize) -> Self {
        let d = self.shape[axis];
        let rev: Vec<usize> = (0..d).rev().collect();
        self.index_select(axis, &rev)
    }

    // ------------------------------------------------------------- softmax

    /// Softmax along `axis`, numerically stabilised by subtracting the
    /// per-slice maximum.
    pub fn softmax(&self, axis: usize) -> Self {
        assert!(axis < self.ndim(), "softmax axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let d = self.shape[axis];
        let mut out = pool::take_uninit(self.data.len());
        for o in 0..outer {
            for i in 0..inner {
                let idx = |j: usize| o * d * inner + j * inner + i;
                let mut mx = f32::NEG_INFINITY;
                for j in 0..d {
                    mx = mx.max(self.data[idx(j)]);
                }
                let mut sum = 0.0;
                for j in 0..d {
                    let e = (self.data[idx(j)] - mx).exp();
                    out[idx(j)] = e;
                    sum += e;
                }
                for j in 0..d {
                    out[idx(j)] /= sum;
                }
            }
        }
        Tensor {
            data: out,
            shape: self.shape.clone(),
        }
    }

    // ---------------------------------------------------------- grad helper

    /// Reduces a (possibly broadcast) gradient back to `target` shape by
    /// summing over expanded axes. Inverse of broadcasting in backward
    /// passes.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Self {
        if self.shape == target {
            return self.clone();
        }
        let axes = broadcast_reduce_axes(target, &self.shape);
        let mut t = self.sum_axes(&axes, true);
        // sum_axes keeps rank; drop leading axes that `target` lacks.
        if t.ndim() > target.len() {
            let lead: usize = t.shape[..t.ndim() - target.len()].iter().product();
            assert_eq!(lead, 1, "reduce_to_shape cannot drop non-unit axes");
            let s = t.shape[t.ndim() - target.len()..].to_vec();
            t = t.reshape(&s);
        }
        assert_eq!(t.shape(), target, "reduce_to_shape failed");
        t
    }

    // -------------------------------------------------------------- stats

    /// Pearson correlation coefficient between two equal-length tensors
    /// (flattened). Returns 0 when either side has zero variance.
    pub fn pearson(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "pearson length mismatch");
        let n = self.len() as f32;
        if n == 0.0 {
            return 0.0;
        }
        let ma = self.mean_all();
        let mb = other.mean_all();
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&a, &b) in self.data.iter().zip(other.data.iter()) {
            let da = a - ma;
            let db = b - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
        if va <= f32::EPSILON || vb <= f32::EPSILON {
            return 0.0;
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    /// Frobenius (L2) norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

// ------------------------------------------------------- strided kernels
//
// Stride-collapsed walkers behind `permute`, the broadcast `zip` and
// `sum_axes`. Each visits exactly the same (input element -> output
// element) pairs as the seed-era index-decomposition loop it replaced and
// keeps every per-output-element accumulation sequence intact, so results
// are bitwise identical — `tests/simd_parity.rs` churns shapes asserting
// it against those loops, kept as oracles in `tests/reference`.

/// Gathers strided input into a contiguous output: output axis `i` has
/// extent `out_shape[i]` and reads the source with stride
/// `src_strides[i]`. Pure data movement (no arithmetic), so any traversal
/// order is safe; this one avoids a per-element div/mod and lowers
/// trailing transposes to the blocked kernel in [`crate::simd`].
fn strided_copy(src: &[f32], dst: &mut [f32], out_shape: &[usize], src_strides: &[usize]) {
    if dst.is_empty() {
        return;
    }
    // Drop unit axes, then merge axes contiguous in both source and
    // destination (src stride of the outer axis == inner stride * extent;
    // the destination is linear, so it always merges).
    let mut dims: Vec<(usize, usize)> = Vec::with_capacity(out_shape.len());
    for (&d, &s) in out_shape.iter().zip(src_strides) {
        if d == 1 {
            continue;
        }
        if let Some(last) = dims.last_mut() {
            if last.1 == s * d {
                last.0 *= d;
                last.1 = s;
                continue;
            }
        }
        dims.push((d, s));
    }
    match dims.len() {
        0 => {
            dst[0] = src[0];
            return;
        }
        1 => {
            let (d, s) = dims[0];
            if s == 1 {
                dst.copy_from_slice(&src[..d]);
            } else {
                let mut so = 0;
                for slot in dst.iter_mut() {
                    *slot = src[so];
                    so += s;
                }
            }
            return;
        }
        _ => {}
    }
    // A trailing ((p, 1), (q, s)) pair is a blocked 2-D transpose:
    // dst[.. + b*q + a] = src[.. + a*s + b]. Everything further out just
    // iterates around the block.
    let nd = dims.len();
    let transpose_tail = dims[nd - 2].1 == 1;
    let (outer, block_len) = if transpose_tail {
        (&dims[..nd - 2], dims[nd - 2].0 * dims[nd - 1].0)
    } else {
        (&dims[..nd - 1], dims[nd - 1].0)
    };
    let runs: usize = outer.iter().map(|&(d, _)| d).product();
    for r in 0..runs {
        let mut rem = r;
        let mut src_off = 0;
        for &(d, s) in outer.iter().rev() {
            src_off += (rem % d) * s;
            rem /= d;
        }
        let dst_run = &mut dst[r * block_len..(r + 1) * block_len];
        if transpose_tail {
            let (p, _) = dims[nd - 2];
            let (q, s) = dims[nd - 1];
            crate::simd::transpose_gather(&src[src_off..], s, dst_run, p, q);
        } else {
            let (q, s) = dims[nd - 1];
            if s == 1 {
                dst_run.copy_from_slice(&src[src_off..src_off + q]);
            } else {
                let mut so = src_off;
                for slot in dst_run.iter_mut() {
                    *slot = src[so];
                    so += s;
                }
            }
        }
    }
}

/// Broadcast binary map `dst[i] = f(a[..], b[..])` with stride-collapsed
/// addressing. Every output element is computed independently (one `f`
/// call each), so traversal order and the parallel split cannot change
/// bits.
fn broadcast_zip_into(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    out_shape: &[usize],
    sa: &[usize],
    sb: &[usize],
    f: &(impl Fn(f32, f32) -> f32 + Sync),
) {
    if dst.is_empty() {
        return;
    }
    // Merge adjacent axes contiguous in *both* operands (broadcast axes
    // merge with each other: 0 == 0 * d).
    let mut dims: Vec<(usize, usize, usize)> = Vec::with_capacity(out_shape.len());
    for i in 0..out_shape.len() {
        let (d, ia, ib) = (out_shape[i], sa[i], sb[i]);
        if d == 1 {
            continue;
        }
        if let Some(last) = dims.last_mut() {
            if last.1 == ia * d && last.2 == ib * d {
                last.0 *= d;
                last.1 = ia;
                last.2 = ib;
                continue;
            }
        }
        dims.push((d, ia, ib));
    }
    if dims.is_empty() {
        dst[0] = f(a[0], b[0]);
        return;
    }
    let (id, ia, ib) = dims.pop().unwrap();
    let outer = dims;
    let runs: usize = outer.iter().map(|d| d.0).product();
    let run = |dst_run: &mut [f32], r: usize| {
        let mut rem = r;
        let (mut oa, mut ob) = (0usize, 0usize);
        for &(d, xa, xb) in outer.iter().rev() {
            let j = rem % d;
            rem /= d;
            oa += j * xa;
            ob += j * xb;
        }
        match (ia, ib) {
            (1, 1) => {
                let ar = &a[oa..oa + id];
                let br = &b[ob..ob + id];
                for ((slot, &av), &bv) in dst_run.iter_mut().zip(ar).zip(br) {
                    *slot = f(av, bv);
                }
            }
            (1, 0) => {
                let bv = b[ob];
                for (slot, &av) in dst_run.iter_mut().zip(&a[oa..oa + id]) {
                    *slot = f(av, bv);
                }
            }
            (0, 1) => {
                let av = a[oa];
                for (slot, &bv) in dst_run.iter_mut().zip(&b[ob..ob + id]) {
                    *slot = f(av, bv);
                }
            }
            _ => {
                for (j, slot) in dst_run.iter_mut().enumerate() {
                    *slot = f(a[oa + j * ia], b[ob + j * ib]);
                }
            }
        }
    };
    if runs * id < PAR_MIN_ELEMS {
        for r in 0..runs {
            run(&mut dst[r * id..(r + 1) * id], r);
        }
    } else {
        let out = SendPtr(dst.as_mut_ptr());
        let grain = (PAR_MIN_ELEMS / 4 / id).max(1);
        parallel_for(runs, grain, |rr| {
            for r in rr {
                // SAFETY: run r owns the disjoint range [r*id, (r+1)*id).
                let dst_run = unsafe { out.slice(r * id, id) };
                run(dst_run, r);
            }
        });
    }
}

/// Axis-sum with stride-collapsed addressing: `out[..] += src[..]` where
/// `os[i]` is the output stride of input axis `i` (0 for reduced axes).
/// Each *output* element accumulates its terms in ascending input-linear
/// order, as a per-element index-decomposition loop would: the inner-axis
/// specializations only change where partial sums are kept (a register
/// instead of the output slot), never the order or grouping of adds.
fn sum_axes_into(src: &[f32], out: &mut [f32], in_shape: &[usize], os: &[usize]) {
    if src.is_empty() {
        return;
    }
    let mut dims: Vec<(usize, usize)> = Vec::with_capacity(in_shape.len());
    for (&d, &s) in in_shape.iter().zip(os) {
        if d == 1 {
            continue;
        }
        if let Some(last) = dims.last_mut() {
            if last.1 == s * d {
                last.0 *= d;
                last.1 = s;
                continue;
            }
        }
        dims.push((d, s));
    }
    if dims.is_empty() {
        out[0] += src[0];
        return;
    }
    let (id, is) = dims.pop().unwrap();
    let outer = dims;
    let runs: usize = outer.iter().map(|d| d.0).product();
    for r in 0..runs {
        let mut rem = r;
        let mut base = 0;
        for &(d, s) in outer.iter().rev() {
            base += (rem % d) * s;
            rem /= d;
        }
        let run = &src[r * id..(r + 1) * id];
        if is == 1 {
            for (slot, &v) in out[base..base + id].iter_mut().zip(run) {
                *slot += v;
            }
        } else if is == 0 {
            let mut acc = out[base];
            for &v in run {
                acc += v;
            }
            out[base] = acc;
        } else {
            for (j, &v) in run.iter().enumerate() {
                out[base + j * is] += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.shape(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 3]);
    }

    #[test]
    fn broadcast_add() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 100.0], &[2, 1]);
        let c = a.mul(&b);
        assert_eq!(c.data(), &[10.0, 20.0, 30.0, 400.0, 500.0, 600.0]);
    }

    #[test]
    fn matmul_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_broadcast_lhs_2d() {
        // A[2,2] @ X[3,2,1] -> [3,2,1]
        let a = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]); // swap rows
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2, 1]);
        let y = a.matmul(&x);
        assert_eq!(y.shape(), &[3, 2, 1]);
        assert_eq!(y.data(), &[2.0, 1.0, 4.0, 3.0, 6.0, 5.0]);
    }

    #[test]
    fn matmul_batched_equal() {
        let a = Tensor::from_vec((0..8).map(|x| x as f32).collect::<Vec<f32>>(), &[2, 2, 2]);
        let b = Tensor::eye(2).reshape(&[1, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn sum_axes_keepdim() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s = t.sum_axes(&[1], true);
        assert_eq!(s.shape(), &[2, 1]);
        assert_eq!(s.data(), &[6.0, 15.0]);
        let s2 = t.sum_axes(&[0], false);
        assert_eq!(s2.shape(), &[3]);
        assert_eq!(s2.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_all_axes_gives_scalar() {
        let t = Tensor::ones(&[2, 3]);
        let s = t.sum_axes(&[0, 1], false);
        assert_eq!(s.shape(), &[1]);
        assert_eq!(s.item(), 6.0);
    }

    #[test]
    fn permute_and_transpose() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect::<Vec<f32>>(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
        let tr = t.transpose(0, 2);
        assert_eq!(tr.shape(), &[4, 3, 2]);
        assert_eq!(tr.at(&[3, 2, 1]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn narrow_middle_axis() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect::<Vec<f32>>(), &[2, 3, 4]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(n.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn concat_roundtrip_with_narrow() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect::<Vec<f32>>(), &[2, 3, 4]);
        let a = t.narrow(1, 0, 1);
        let b = t.narrow(1, 1, 2);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c, t);
    }

    #[test]
    fn index_select_and_flip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let s = t.index_select(0, &[2, 0]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
        let f = t.flip(0);
        assert_eq!(f.data(), &[5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = t.softmax(1);
        let r0: f32 = s.data()[..3].iter().sum();
        let r1: f32 = s.data()[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-6);
        assert!((r1 - 1.0).abs() < 1e-6);
        // Uniform row stays uniform.
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = t.softmax(1);
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        let g = Tensor::ones(&[2, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3]);
        assert!((a.pearson(&b) - 1.0).abs() < 1e-6);
        let c = Tensor::from_vec(vec![3.0, 2.0, 1.0], &[3]);
        assert!((a.pearson(&c) + 1.0).abs() < 1e-6);
        let flat = Tensor::ones(&[3]);
        assert_eq!(a.pearson(&flat), 0.0);
    }

    #[test]
    fn eye_matmul_identity() {
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect::<Vec<f32>>(), &[3, 3]);
        let y = Tensor::eye(3).matmul(&x);
        assert_eq!(x, y);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect::<Vec<f32>>(), &[2, 3]);
        let b = Tensor::from_vec(
            (0..12).map(|v| v as f32 * 0.5).collect::<Vec<f32>>(),
            &[4, 3],
        );
        let fused = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose(0, 1));
        assert_eq!(fused.shape(), &[2, 4]);
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect::<Vec<f32>>(), &[3, 2]);
        let b = Tensor::from_vec(
            (0..12).map(|v| v as f32 * 0.5).collect::<Vec<f32>>(),
            &[3, 4],
        );
        let fused = a.matmul_tn(&b);
        let explicit = a.transpose(0, 1).matmul(&b);
        assert_eq!(fused.shape(), &[2, 4]);
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_batched_broadcast() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect::<Vec<f32>>(), &[3, 2, 2]);
        let b = Tensor::from_vec((0..4).map(|v| v as f32).collect::<Vec<f32>>(), &[1, 2, 2]);
        let fused = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose(1, 2));
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_empty_batch_dim() {
        let a = Tensor::zeros(&[0, 2, 3]);
        let b = Tensor::zeros(&[0, 3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[0, 2, 4]);
        assert!(c.is_empty());
    }

    #[test]
    fn matmul_matches_reference() {
        let a = Tensor::from_vec(
            (0..30).map(|v| (v as f32).sin()).collect::<Vec<f32>>(),
            &[5, 6],
        );
        let b = Tensor::from_vec(
            (0..42).map(|v| (v as f32).cos()).collect::<Vec<f32>>(),
            &[6, 7],
        );
        let fast = a.matmul(&b);
        let slow = a.matmul_reference(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }
}
