//! Micro-benchmark: seed-era naive kernels vs the tiled/parallel compute
//! path, at 1 and 4 threads in one process. Prints a table and writes
//! `BENCH_tensor_ops.json` at the workspace root.
//!
//! The naive baselines below are verbatim copies of the pre-optimisation
//! kernels (including their zero-skip branches), so the reported speedups
//! measure exactly what the rewrite bought. The 1- and 4-thread results
//! are asserted bitwise identical.

use std::time::Instant;
use urcl_json::Value;
use urcl_tensor::{set_threads, Rng};

/// The seed repository's matmul inner loop (ikj with zero-skip), 2-D.
fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], o: &mut [f32]) {
    o.fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut o[i * n..(i + 1) * n];
        for (p, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (j, &bkj) in brow.iter().enumerate() {
                orow[j] += aik * bkj;
            }
        }
    }
}

/// The seed repository's conv1d loop (with zero-weight skip).
#[allow(clippy::too_many_arguments)]
fn naive_conv1d(
    b: usize,
    cin: usize,
    t: usize,
    cout: usize,
    k: usize,
    dilation: usize,
    pad_left: usize,
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
) {
    let span = (k - 1) * dilation;
    let t_out = t + pad_left - span;
    out.fill(0.0);
    for bi in 0..b {
        for co in 0..cout {
            let o_base = (bi * cout + co) * t_out;
            for ci in 0..cin {
                let x_base = (bi * cin + ci) * t;
                let w_base = (co * cin + ci) * k;
                for ki in 0..k {
                    let wv = w[w_base + ki];
                    if wv == 0.0 {
                        continue;
                    }
                    let shift = ki * dilation;
                    for to in 0..t_out {
                        let j = to + shift;
                        if j < pad_left {
                            continue;
                        }
                        let j = j - pad_left;
                        if j < t {
                            out[o_base + to] += wv * x[x_base + j];
                        }
                    }
                }
            }
        }
    }
}

/// Best-of-repeats wall time for `f`, sampling for at least `min_seconds`.
fn time_best(mut f: impl FnMut(), min_seconds: f64) -> f64 {
    f(); // warm up caches, pools, allocator
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    while total < min_seconds {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    best
}

fn rel_err(a: &[f32], b: &[f32]) -> f32 {
    let mut num = 0.0f32;
    let mut den = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        num += (x - y).abs();
        den += y.abs().max(1.0);
    }
    num / den.max(1.0)
}

struct Case {
    json: Value,
    line: String,
}

fn bench_matmul(rng: &mut Rng, m: usize, k: usize, n: usize, min_secs: f64) -> Case {
    let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
    let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
    let flops = 2.0 * (m * k * n) as f64;

    let mut naive_out = vec![0.0f32; m * n];
    let naive_s = time_best(
        || naive_matmul(m, k, n, a.data(), b.data(), &mut naive_out),
        min_secs,
    );

    set_threads(1);
    let out_1t = a.matmul(&b);
    let tiled_1t_s = time_best(|| { std::hint::black_box(a.matmul(&b)); }, min_secs);
    set_threads(4);
    let out_4t = a.matmul(&b);
    let tiled_4t_s = time_best(|| { std::hint::black_box(a.matmul(&b)); }, min_secs);

    assert_eq!(
        out_1t.data(),
        out_4t.data(),
        "matmul {m}x{k}x{n}: 1-thread and 4-thread results must be bitwise identical"
    );
    let err = rel_err(out_4t.data(), &naive_out);
    assert!(
        err < 1e-4,
        "matmul {m}x{k}x{n}: tiled result diverges from naive (rel err {err})"
    );

    let gf = |s: f64| flops / s / 1e9;
    let name = format!("matmul_{m}x{k}x{n}");
    let line = format!(
        "{name:<22} naive {:>7.2} GF/s | 1t {:>7.2} GF/s ({:>5.2}x) | 4t {:>7.2} GF/s ({:>5.2}x)",
        gf(naive_s),
        gf(tiled_1t_s),
        naive_s / tiled_1t_s,
        gf(tiled_4t_s),
        naive_s / tiled_4t_s,
    );
    let json = Value::object()
        .with("name", name.as_str())
        .with("op", "matmul")
        .with("m", m)
        .with("k", k)
        .with("n", n)
        .with("naive_gflops", gf(naive_s))
        .with("tiled_1t_gflops", gf(tiled_1t_s))
        .with("tiled_4t_gflops", gf(tiled_4t_s))
        .with("speedup_1t", naive_s / tiled_1t_s)
        .with("speedup_4t", naive_s / tiled_4t_s)
        .with("max_rel_err_vs_naive", err as f64);
    Case { json, line }
}

#[allow(clippy::too_many_arguments)]
fn bench_conv(
    rng: &mut Rng,
    b: usize,
    cin: usize,
    t: usize,
    cout: usize,
    k: usize,
    dilation: usize,
    min_secs: f64,
) -> Case {
    let pad_left = (k - 1) * dilation;
    let t_out = t; // causal padding keeps the time axis
    let x = rng.uniform_tensor(&[b, cin, t], -1.0, 1.0);
    let w = rng.uniform_tensor(&[cout, cin, k], -1.0, 1.0);
    let flops = 2.0 * (b * cout * cin * k * t_out) as f64;

    let mut naive_out = vec![0.0f32; b * cout * t_out];
    let naive_s = time_best(
        || naive_conv1d(b, cin, t, cout, k, dilation, pad_left, x.data(), w.data(), &mut naive_out),
        min_secs,
    );

    set_threads(1);
    let out_1t = x.conv1d(&w, dilation, pad_left);
    let par_1t_s = time_best(|| { std::hint::black_box(x.conv1d(&w, dilation, pad_left)); }, min_secs);
    set_threads(4);
    let out_4t = x.conv1d(&w, dilation, pad_left);
    let par_4t_s = time_best(|| { std::hint::black_box(x.conv1d(&w, dilation, pad_left)); }, min_secs);

    assert_eq!(
        out_1t.data(),
        out_4t.data(),
        "conv1d: 1-thread and 4-thread results must be bitwise identical"
    );
    let err = rel_err(out_4t.data(), &naive_out);
    assert!(err < 1e-4, "conv1d diverges from naive (rel err {err})");

    let gf = |s: f64| flops / s / 1e9;
    let name = format!("conv1d_b{b}_c{cin}x{cout}_t{t}_k{k}d{dilation}");
    let line = format!(
        "{name:<22} naive {:>7.2} GF/s | 1t {:>7.2} GF/s ({:>5.2}x) | 4t {:>7.2} GF/s ({:>5.2}x)",
        gf(naive_s),
        gf(par_1t_s),
        naive_s / par_1t_s,
        gf(par_4t_s),
        naive_s / par_4t_s,
    );
    let json = Value::object()
        .with("name", name.as_str())
        .with("op", "conv1d")
        .with("batch", b)
        .with("cin", cin)
        .with("cout", cout)
        .with("t", t)
        .with("kernel", k)
        .with("dilation", dilation)
        .with("naive_gflops", gf(naive_s))
        .with("tiled_1t_gflops", gf(par_1t_s))
        .with("tiled_4t_gflops", gf(par_4t_s))
        .with("speedup_1t", naive_s / par_1t_s)
        .with("speedup_4t", naive_s / par_4t_s)
        .with("max_rel_err_vs_naive", err as f64);
    Case { json, line }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let min_secs = if quick { 0.05 } else { 0.4 };
    let mut rng = Rng::seed_from_u64(7);

    println!("tensor-ops micro-benchmark (best-of-repeats, {min_secs}s sampling per case)");
    println!(
        "host: {} hardware threads, detected ISA {:?}",
        urcl_tensor::host_parallelism(),
        urcl_tensor::detected_isa(),
    );
    let mut cases = Vec::new();
    // The acceptance shape plus shapes the backbones actually hit.
    cases.push(bench_matmul(&mut rng, 256, 256, 256, min_secs));
    cases.push(bench_matmul(&mut rng, 128, 128, 128, min_secs));
    cases.push(bench_matmul(&mut rng, 512, 64, 512, min_secs));
    cases.push(bench_matmul(&mut rng, 64, 512, 64, min_secs));
    // GWN-style gated TCN shapes: many small channel mixes over time.
    cases.push(bench_conv(&mut rng, 8, 32, 64, 32, 2, 1, min_secs));
    cases.push(bench_conv(&mut rng, 8, 32, 64, 32, 2, 4, min_secs));
    cases.push(bench_conv(&mut rng, 4, 64, 256, 64, 3, 2, min_secs));
    for c in &cases {
        println!("{}", c.line);
    }

    let key = &cases[0];
    let speedup_1t = key.json.get("speedup_1t").and_then(Value::as_f64).unwrap();
    let speedup_4t = key.json.get("speedup_4t").and_then(Value::as_f64).unwrap();
    println!(
        "256x256x256 f32 matmul: {speedup_1t:.2}x single-threaded, {speedup_4t:.2}x at 4 threads"
    );

    let doc = Value::object()
        .with("benchmark", "tensor_ops")
        .with("sampling_seconds_per_case", min_secs)
        .with("host_threads", urcl_tensor::host_parallelism())
        .with("simd_isa", urcl_tensor::detected_isa().code() as f64)
        .with(
            "acceptance",
            Value::object()
                .with("shape", "256x256x256 f32 matmul")
                .with("speedup_1t", speedup_1t)
                .with("speedup_4t", speedup_4t)
                .with("required_1t", 1.5)
                .with("required_4t", 3.0),
        )
        .with(
            "cases",
            Value::Array(cases.into_iter().map(|c| c.json).collect()),
        );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_tensor_ops.json");
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_tensor_ops.json");
    println!("[results -> {}]", path.display());
}
