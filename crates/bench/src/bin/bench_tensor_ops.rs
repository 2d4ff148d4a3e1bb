//! Micro-benchmark: the seed-era naive matmul vs the tiled/parallel GEMM,
//! at 1 and 4 threads in one process. Prints a table and writes
//! `BENCH_tensor_ops.json` at the workspace root.
//!
//! The naive baseline below is a verbatim copy of the pre-optimisation
//! kernel (including its zero-skip branch), so the reported speedups
//! measure exactly what the rewrite bought. The 1- and 4-thread results
//! are asserted bitwise identical. Every temporal convolution in the
//! workspace runs as one of these GEMMs over gathered taps.

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
    let tiled_1t_s = time_best(
        || {
            std::hint::black_box(a.matmul(&b));
        },
        min_secs,
    );
    set_threads(4);
    let out_4t = a.matmul(&b);
    let tiled_4t_s = time_best(
        || {
            std::hint::black_box(a.matmul(&b));
        },
        min_secs,
    );

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
    // The acceptance shape plus shapes the backbones actually hit.
    let cases = vec![
        bench_matmul(&mut rng, 256, 256, 256, min_secs),
        bench_matmul(&mut rng, 128, 128, 128, min_secs),
        bench_matmul(&mut rng, 512, 64, 512, min_secs),
        bench_matmul(&mut rng, 64, 512, 64, min_secs),
    ];
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
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tensor_ops.json");
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_tensor_ops.json");
    println!("[results -> {}]", path.display());
}
