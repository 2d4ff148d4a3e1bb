//! Pack-and-tile single-precision GEMM.
//!
//! One stride-parameterized kernel serves `A @ B`, `A @ B^T` and
//! `A^T @ B`: transposition is expressed by swapping the row/column
//! strides of an operand, so backward passes never materialize a
//! transposed copy.
//!
//! ## Blocking scheme (BLIS-style)
//!
//! ```text
//! for jc in 0..n  step NC        // B column panel  -> L3-ish
//!   for pc in 0..k  step KC      // k block, B panel packed -> L2
//!     for ic in 0..m  step MC    // A block packed          -> L1/L2
//!       for jr in 0..nc step NR  // micro-tile columns
//!         for ir in 0..mc step MR
//!           C[MR x NR] += Apanel[MR x kc] * Bpanel[kc x NR]
//! ```
//!
//! The micro-kernel keeps an `MR x NR` accumulator tile in registers and
//! streams packed, zero-padded panels, so its inner loop is branch-free
//! (no zero-skip tests — dense data mispredicts them and they make FLOP
//! counts input-dependent). Panels are padded with zeros along m and n
//! only; k is never padded, so the floating-point accumulation order per
//! output element is exactly "k ascending, in KC-sized partial sums" —
//! independent of where the matrix sits in a parallel work split. That is
//! what makes results bitwise identical across thread counts.
//!
//! Callers parallelize *above* this module over disjoint output row
//! strips and batch entries; `gemm_strided` itself is serial.

/// Micro-tile rows. 6 rows x 32 cols = 12 AVX-512 (24 AVX2) accumulator
/// registers plus the B row and broadcasts — measured fastest on the
/// target Xeon among shapes from 2x128 to 16x16.
pub const MR: usize = 6;
/// Micro-tile columns.
pub const NR: usize = 32;
/// Rows of A packed per block (a multiple of MR; MC*KC floats ~ 120 KiB,
/// L2 resident).
pub const MC: usize = 120;
/// Depth of one packed block (k is split into KC partial sums).
pub const KC: usize = 256;
/// Columns of B packed per panel (KC*NC floats = 256 KiB).
pub const NC: usize = 256;

/// Below this many multiply-adds, packing costs more than it saves and a
/// plain branch-free ikj loop wins.
pub const SMALL_GEMM_FLOPS: usize = 32 * 32 * 32;

/// Outputs at most this many rows tall are routed to the direct kernel.
/// Rationale: packing touches all `k * n` elements of B once per call,
/// which is `1/m` of the multiply-add count — for thin outputs (small
/// `m`, as produced by graph convolutions over a couple dozen nodes, and
/// by per-thread row strips of such shapes) that overhead approaches the
/// cost of the GEMM itself.
pub const DIRECT_M_MAX: usize = 32;

/// B operands with at most this many elements (32 KiB of f32 — L1-sized)
/// are considered "tiny": skinny outputs (`n <= NR`, where the micro-tile
/// would multiply mostly padding) with a tiny L1-resident B also route to
/// the direct kernel, and a tiny *strided* B is first transposed into a
/// pooled row-major scratch so the direct inner loop vectorizes.
pub const SMALL_B_ELEMS: usize = 8192;

/// Upper bound (elements) on the pooled scratch used to transpose a
/// column-strided A into row-major before a direct small GEMM (1 MiB of
/// f32). Above this the copy stops being L2-resident and the strided walk
/// is no worse.
pub const A_SCRATCH_ELEMS: usize = 1 << 18;

/// `out[m x n] = A[m x k] * B[k x n]` with arbitrary element strides on A
/// and B; `out` is contiguous row-major and fully overwritten.
///
/// * `a[i, p] = a[i * a_rs + p * a_cs]`
/// * `b[p, j] = b[p * b_rs + j * b_cs]`
///
/// Pass `(a_rs, a_cs) = (k, 1)` for row-major A, `(1, m)` for transposed;
/// likewise for B. Any m, k or n may be zero.
pub fn gemm_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n, "gemm output buffer mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Shape-aware routing. Thin single-block outputs (small m, k within
    // one KC block, contiguous B rows) run the direct kernel: packing costs
    // `~1/m` of the multiply-add count, which for a couple dozen rows —
    // graph-convolution outputs, or per-thread row strips of them —
    // approaches the GEMM itself. Small GEMMs with a *strided* L1-sized B
    // (e.g. `A @ B^T` against a tiny weight) first transpose B into
    // pooled row-major scratch so the direct inner loop vectorizes
    // instead of gathering scalars. Routing never affects results — both
    // kernels produce bitwise identical elements (see [`gemm_small`]),
    // and the transpose is a pure copy, so it cannot change bits either.
    let tiny_strided_b = b_cs != 1 && k * n <= SMALL_B_ELEMS;
    // Skinny outputs (n within one micro-tile, B L1-resident) route
    // direct at *any* height: the micro-tile would multiply mostly
    // padding, and the direct column kernel keeps the whole output row in
    // registers.
    let skinny = n <= NR && k * n <= SMALL_B_ELEMS;
    let thin = (m <= DIRECT_M_MAX || skinny) && (b_cs == 1 || tiny_strided_b);
    if m * n * k < SMALL_GEMM_FLOPS || thin {
        // Column-strided A with deep k (the `dB = A^T @ dC` backward
        // shape) makes the direct kernel gather one cache line per
        // element. Transpose A into contiguous pooled scratch first —
        // pure data movement, so it cannot change a bit of the result.
        let transpose_a = a_rs == 1 && a_cs != 1 && k >= 64 && m * k <= A_SCRATCH_ELEMS;
        let at = if transpose_a {
            let mut at = crate::pool::take_uninit(m * k);
            crate::simd::transpose_gather(a, a_cs, &mut at, m, k);
            Some(at)
        } else {
            None
        };
        let (aa, aa_rs, aa_cs): (&[f32], usize, usize) = match &at {
            Some(at) => (at, k, 1),
            None => (a, a_rs, a_cs),
        };
        if tiny_strided_b {
            let mut bt = crate::pool::take_uninit(k * n);
            if b_rs == 1 {
                crate::simd::transpose_gather(b, b_cs, &mut bt, k, n);
            } else {
                for p in 0..k {
                    let row = &mut bt[p * n..(p + 1) * n];
                    let base = p * b_rs;
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = b[base + j * b_cs];
                    }
                }
            }
            gemm_small(m, k, n, aa, aa_rs, aa_cs, &bt, n, 1, out);
            crate::pool::recycle(bt);
        } else {
            gemm_small(m, k, n, aa, aa_rs, aa_cs, b, b_rs, b_cs, out);
        }
        if let Some(at) = at {
            crate::pool::recycle(at);
        }
        return;
    }

    // Pack buffers come from the thread-local buffer pool: after the first
    // call on a given thread (worker or caller), every subsequent gemm
    // reuses the same two buffers instead of paying an mmap-sized
    // allocation per call. Contents need no init — pack_a/pack_b fully
    // overwrite every region the micro-kernel reads this call.
    let mut apack = crate::pool::take_uninit(MC * KC);
    let mut bpack = crate::pool::take_uninit(KC * NC);
    let mut acc = [[0.0f32; NR]; MR];

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nr_panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(&mut bpack, b, b_rs, b_cs, pc, kc, jc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mr_panels = mc.div_ceil(MR);
                pack_a(&mut apack, a, a_rs, a_cs, ic, mc, pc, kc);
                for jp in 0..nr_panels {
                    let j0 = jp * NR;
                    let nr_eff = NR.min(nc - j0);
                    let bpanel = &bpack[jp * KC * NR..][..kc * NR];
                    for ip in 0..mr_panels {
                        let i0 = ip * MR;
                        let mr_eff = MR.min(mc - i0);
                        let apanel = &apack[ip * KC * MR..][..kc * MR];
                        microkernel(kc, apanel, bpanel, &mut acc);
                        // C += acc (only the live mr_eff x nr_eff corner;
                        // the rest multiplied padding zeros).
                        let c0 = (ic + i0) * n + jc + j0;
                        for r in 0..mr_eff {
                            let crow = &mut out[c0 + r * n..][..nr_eff];
                            for (cv, &av) in crow.iter_mut().zip(&acc[r][..nr_eff]) {
                                *cv += av;
                            }
                        }
                    }
                }
            }
        }
    }
    crate::pool::recycle(apack);
    crate::pool::recycle(bpack);
}

/// Register-tiled inner kernel: `acc[MR x NR] = Apanel * Bpanel` over a
/// kc-deep slice of packed panels. Branch-free. The c-outer/r-inner loop
/// order with a fixed-size accumulator lets LLVM keep the whole MR x NR
/// tile in vector registers across the p loop — the r-outer form leaves
/// it in memory and runs ~15x slower on the target CPU.
#[inline]
fn microkernel(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let mut rows = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let arow: &[f32; MR] = apanel[p * MR..p * MR + MR].try_into().unwrap();
        let brow: &[f32; NR] = bpanel[p * NR..p * NR + NR].try_into().unwrap();
        for c in 0..NR {
            let bv = brow[c];
            for r in 0..MR {
                rows[r][c] += arow[r] * bv;
            }
        }
    }
    *acc = rows;
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into MR-row micro-panels: panel `ip`
/// holds `apack[ip*KC*MR + p*MR + r] = A[ic + ip*MR + r, pc + p]`. Rows
/// beyond `mc` are zero so the micro-kernel never needs an m-edge branch.
fn pack_a(
    apack: &mut [f32],
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    for ip in 0..mc.div_ceil(MR) {
        let i0 = ip * MR;
        let rows = MR.min(mc - i0);
        let panel = &mut apack[ip * KC * MR..][..kc * MR];
        for p in 0..kc {
            let col = &mut panel[p * MR..p * MR + MR];
            let src_base = (ic + i0) * a_rs + (pc + p) * a_cs;
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < rows { a[src_base + r * a_rs] } else { 0.0 };
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into NR-column micro-panels: panel
/// `jp` holds `bpack[jp*KC*NR + p*NR + c] = B[pc + p, jc + jp*NR + c]`,
/// zero-padded along n.
fn pack_b(
    bpack: &mut [f32],
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    for jp in 0..nc.div_ceil(NR) {
        let j0 = jp * NR;
        let cols = NR.min(nc - j0);
        let panel = &mut bpack[jp * KC * NR..][..kc * NR];
        for p in 0..kc {
            let row = &mut panel[p * NR..p * NR + NR];
            let src_base = (pc + p) * b_rs + (jc + j0) * b_cs;
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = if c < cols { b[src_base + c * b_cs] } else { 0.0 };
            }
        }
    }
}

/// Branch-free ikj kernel for matrices too small to amortize packing.
///
/// Per-element accumulation order is *exactly* the tiled path's: k
/// ascending, in KC-sized partial sums. For `k <= KC` the direct running
/// sum is bitwise identical to "compute a zero-seeded partial then add it
/// to a zero output" (a sum seeded `+0.0` can never be `-0.0`, so the
/// final `0.0 + s` is exact); for `k > KC` each KC block accumulates, for
/// all rows at once, into a zero-seeded `[m, n]` scratch that is then
/// added to the output, matching the tiled kernel's per-block `C += acc`
/// (the first block lands in the zeroed output directly, which is the
/// same exact `0.0 + s`). This equivalence is what lets
/// callers size parallel row strips freely — whether a strip lands on the
/// small or tiled path cannot change a single output bit.
fn gemm_small(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    out: &mut [f32],
) {
    if k <= KC {
        gemm_small_block(m, 0, k, n, a, a_rs, a_cs, b, b_rs, b_cs, out);
        return;
    }
    gemm_small_block(m, 0, KC, n, a, a_rs, a_cs, b, b_rs, b_cs, out);
    let mut scratch = crate::pool::take_uninit(m * n);
    for pc in (KC..k).step_by(KC) {
        let kc = KC.min(k - pc);
        scratch.fill(0.0);
        gemm_small_block(m, pc, kc, n, a, a_rs, a_cs, b, b_rs, b_cs, &mut scratch);
        for (o, &s) in out.iter_mut().zip(scratch.iter()) {
            *o += s;
        }
    }
    crate::pool::recycle(scratch);
}

/// Accumulates `out += A[.., pc..pc+kc] * B[pc..pc+kc, ..]` with the
/// plain ikj loop, k ascending within the block.
///
/// Contiguous-B shapes whose width is a known small constant dispatch to
/// [`gemm_small_cols`], which keeps a tile of output rows in registers
/// across the whole k block instead of streaming them through L1 once
/// per `p`.
#[allow(clippy::too_many_arguments)]
fn gemm_small_block(
    m: usize,
    pc: usize,
    kc: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    out: &mut [f32],
) {
    if b_cs == 1 {
        if n % NR == 0 {
            for j0 in (0..n).step_by(NR) {
                gemm_small_cols::<NR>(m, pc, kc, n, j0, a, a_rs, a_cs, b, b_rs, out);
            }
            return;
        }
        match n {
            1 => return gemm_small_cols::<1>(m, pc, kc, n, 0, a, a_rs, a_cs, b, b_rs, out),
            8 => return gemm_small_cols::<8>(m, pc, kc, n, 0, a, a_rs, a_cs, b, b_rs, out),
            16 => return gemm_small_cols::<16>(m, pc, kc, n, 0, a, a_rs, a_cs, b, b_rs, out),
            24 => return gemm_small_cols::<24>(m, pc, kc, n, 0, a, a_rs, a_cs, b, b_rs, out),
            _ => {}
        }
    }
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for p in pc..pc + kc {
            let aip = a[i * a_rs + p * a_cs];
            let b_base = p * b_rs;
            if b_cs == 1 {
                let brow = &b[b_base..b_base + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            } else {
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += aip * b[b_base + j * b_cs];
                }
            }
        }
    }
}

/// Fixed-width column panel of the direct kernel: computes columns
/// `[j0, j0 + W)` of `out += A[.., pc..pc+kc] * B[pc..pc+kc, ..]`.
///
/// Rows run in blocks of R (8 for `W <= 16`, 4 above), each block holding
/// an R x W accumulator tile in registers across the whole k block
/// (compile-time R and W let LLVM fully unroll it). A single row's sum is
/// a chain of dependent adds, so a one-row loop waits on add latency; the
/// tile keeps R independent chains in flight. Leftover rows run the same
/// code with R = 1.
///
/// Bitwise equivalence with the streaming loop: every accumulator
/// performs the *same* addition sequence (k ascending from a `+0.0`
/// seed) whatever the block height, and the final `out += acc` adds each
/// total to the `0.0` the caller zeroed the output with. A `+0.0`-seeded
/// running sum can never be `-0.0` (adding a signed zero to `+0.0` gives
/// `+0.0`, and exact cancellation rounds to `+0.0`), so that last add
/// returns `acc` exactly.
#[allow(clippy::too_many_arguments)]
fn gemm_small_cols<const W: usize>(
    m: usize,
    pc: usize,
    kc: usize,
    n: usize,
    j0: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    out: &mut [f32],
) {
    let blocked = if W <= 16 { m - m % 8 } else { m - m % 4 };
    if W <= 16 {
        cols_tile::<W, 8>(0..blocked, pc, kc, n, j0, a, a_rs, a_cs, b, b_rs, out);
    } else {
        cols_tile::<W, 4>(0..blocked, pc, kc, n, j0, a, a_rs, a_cs, b, b_rs, out);
    }
    cols_tile::<W, 1>(blocked..m, pc, kc, n, j0, a, a_rs, a_cs, b, b_rs, out);
}

/// Rows `rows` (a multiple of R long) of [`gemm_small_cols`], R at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn cols_tile<const W: usize, const R: usize>(
    rows: std::ops::Range<usize>,
    pc: usize,
    kc: usize,
    n: usize,
    j0: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    out: &mut [f32],
) {
    // Every A and B index the tile reads is monotone in its row, k and
    // column, so checking the largest ones here lets the k loop skip
    // per-element bounds checks (which cost the tile ~20 % of its time).
    if kc > 0 && !rows.is_empty() {
        let _ = a[(rows.end - 1) * a_rs + (pc + kc - 1) * a_cs];
        let _ = &b[(pc + kc - 1) * b_rs + j0..][..W];
    }
    for i in rows.step_by(R) {
        let mut acc = [[0.0f32; W]; R];
        for p in pc..pc + kc {
            // SAFETY: indices bounded by the checks above.
            let brow = unsafe { &*(b.as_ptr().add(p * b_rs + j0) as *const [f32; W]) };
            for (r, row) in acc.iter_mut().enumerate() {
                let aip = unsafe { *a.get_unchecked((i + r) * a_rs + p * a_cs) };
                for (av, &bv) in row.iter_mut().zip(brow) {
                    *av += aip * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (o, &v) in out[(i + r) * n + j0..][..W].iter_mut().zip(row) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
            }
        }
        out.into_iter().map(|v| v as f32).collect()
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        // Tiny LCG; gemm tests must not depend on the crate Rng.
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn assert_close(got: &[f32], want: &[f32], k: usize) {
        let tol = 1e-4 * (k.max(1) as f32).sqrt();
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let denom = w.abs().max(1.0);
            assert!(
                (g - w).abs() / denom < tol,
                "elem {i}: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn matches_reference_over_edge_shapes() {
        // Shapes straddling every blocking edge: micro-tile remainders,
        // exact multiples, and panels larger than MC/KC/NC.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 32, 32),
            (9, 33, 31),
            (17, 257, 65),
            (130, 300, 270),
            (256, 256, 256),
        ] {
            let a = fill(m * k, 1 + m as u64);
            let b = fill(k * n, 2 + n as u64);
            let mut out = vec![0.0f32; m * n];
            gemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut out);
            assert_close(&out, &reference(m, k, n, &a, &b), k);
        }
    }

    #[test]
    fn zero_dims_yield_zero_output() {
        let mut out = vec![7.0f32; 0];
        gemm_strided(0, 4, 0, &[], 4, 1, &[], 0, 1, &mut out);
        let a = fill(0, 9);
        let b = fill(0, 9);
        let mut out = vec![7.0f32; 6];
        gemm_strided(3, 0, 2, &a, 0, 1, &b, 2, 1, &mut out);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn transposed_strides_match_explicit_transpose() {
        let (m, k, n) = (37, 65, 41);
        let a = fill(m * k, 3);
        let bt = fill(n * k, 4); // B stored as [n, k]
        // Explicitly transpose bt into b [k, n].
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut want = vec![0.0f32; m * n];
        gemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut want);
        let mut got = vec![0.0f32; m * n];
        // B^T via strides: element (p, j) lives at bt[j * k + p].
        gemm_strided(m, k, n, &a, k, 1, &bt, 1, k, &mut got);
        assert_eq!(got.len(), want.len());
        assert_close(&got, &want, k);

        // A^T via strides: A stored [k, m].
        let at = fill(k * m, 5);
        let mut a2 = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a2[i * k + p] = at[p * m + i];
            }
        }
        let mut want = vec![0.0f32; m * n];
        gemm_strided(m, k, n, &a2, k, 1, &b, n, 1, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_strided(m, k, n, &at, 1, m, &b, n, 1, &mut got);
        assert_close(&got, &want, k);
    }

    #[test]
    fn dense_zeros_are_handled_like_any_value() {
        // The old kernel skipped zero multiplicands; the tiled kernel must
        // produce identical results for sparse and dense inputs alike.
        let (m, k, n) = (40, 50, 60);
        let mut a = fill(m * k, 6);
        for (i, v) in a.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = fill(k * n, 7);
        let mut out = vec![0.0f32; m * n];
        gemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut out);
        assert_close(&out, &reference(m, k, n, &a, &b), k);
    }

    #[test]
    #[ignore = "timing probe, run manually with --release"]
    fn shape_timing_probe() {
        // m, k, n, b_rs, b_cs
        let shapes = [
            (2112usize, 16usize, 16usize, 16usize, 1usize), // NN skinny
            (16, 2112, 16, 16, 1),                          // TN-ish (b contiguous)
            (2112, 16, 16, 1, 16),                          // NT tiny strided B
            (24, 24, 16, 16, 1),                            // batched tiny
            (24, 16, 24, 1, 16),                            // batched tiny NT
            (192, 32, 64, 64, 1),                           // decoder
            (4608, 32, 16, 16, 1),                          // GWN gated TCN, batch 48
            (1152, 64, 1, 1, 1),                            // GWN decoder matvec
        ];
        for &(m, k, n, b_rs, b_cs) in &shapes {
            let a = fill(m * k, 11);
            let b = fill(k * n, 12);
            let mut out = vec![0.0f32; m * n];
            let t0 = std::time::Instant::now();
            let iters = 2000;
            for _ in 0..iters {
                gemm_strided(m, k, n, &a, k, 1, &b, b_rs, b_cs, &mut out);
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
            let gfs = (m * n * k) as f64 / us / 1e3;
            println!("m={m:<5} k={k:<5} n={n:<3} b_cs={b_cs:<3} {us:>8.2} us  {gfs:>6.2} GF/s");
        }
    }

    #[test]
    fn repeated_runs_are_bitwise_identical() {
        let (m, k, n) = (65, 300, 33);
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let mut first = vec![0.0f32; m * n];
        gemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            gemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut again);
            assert!(first.iter().zip(&again).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
