//! The packed GEMM core vs. the retained seed kernels
//! (`qn_tensor::reference`), at the shapes the reproduction actually runs:
//! ResNet-20 im2col products (the conv hot path, a `matmul_transb`) and
//! transformer attention products (square `matmul`s per head).
//!
//! For every shape the bench measures single-thread GFLOP/s of the naive
//! seed kernel and of the packed vector core at the active SIMD level under
//! both profiles: `Exact`, which runs vector code only where every lane
//! computes the seed's scalar expression (an unfused multiply then add),
//! and `Fast`, which adds FMA fusing (and, in other kernels, reassociated
//! reductions and polynomial `exp`). It asserts the exact outputs are
//! bit-identical to the seed (the determinism contract) and the fast
//! outputs are close (the ULP tier); and records everything —
//! including the packed core's full-pool throughput — in `BENCH_gemm.json`
//! at the repo root. Set `QN_SMOKE=1` for a CI-sized run,
//! `QN_SIMD={scalar,sse2,avx2}` to pin the vector level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qn_bench::time_mean;
use qn_tensor::{reference, Rng, Tensor};

/// (label, m, k, n, lhs-of-transb?): ResNet-20/CIFAR im2col products are
/// `[B·OH·OW, C·K²] × [OC, C·K²]ᵀ`; attention products are `[T, dh] × [dh, T]`
/// per head.
const SHAPES: [(&str, usize, usize, usize, bool); 6] = [
    ("resnet20_stage1_im2col", 1024, 144, 16, true),
    ("resnet20_stage2_im2col", 256, 288, 32, true),
    ("resnet20_stage3_im2col", 64, 576, 64, true),
    ("attention_scores_t64", 64, 32, 64, false),
    ("attention_context_t64", 64, 64, 32, false),
    ("attention_scores_t128", 128, 64, 128, false),
];

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("QN_SMOKE").map(|v| v == "1").unwrap_or(false);
    let samples = if smoke { 5 } else { 40 };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rng = Rng::seed_from(61);

    let mut records = Vec::new();
    for &(label, m, k, n, transb) in &SHAPES {
        let a = Tensor::randn(&[m, k], &mut rng);
        // transb stores B as [N, K] (weights row-major); plain matmul as [K, N]
        let b = if transb {
            Tensor::randn(&[n, k], &mut rng)
        } else {
            Tensor::randn(&[k, n], &mut rng)
        };
        let packed = |a: &Tensor, b: &Tensor| {
            if transb {
                a.matmul_transb(b)
            } else {
                a.matmul(b)
            }
        };
        let naive = |a: &Tensor, b: &Tensor| {
            if transb {
                reference::matmul_transb(a, b)
            } else {
                reference::matmul(a, b)
            }
        };
        assert!(
            packed(&a, &b).bit_identical(&naive(&a, &b)),
            "{label}: packed core must be bit-identical to the seed kernel"
        );
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let naive_s = time_mean(samples, || {
            std::hint::black_box(naive(&a, &b).data()[0]);
        });
        let packed_1t = qn_parallel::with_max_threads(1, || {
            time_mean(samples, || {
                std::hint::black_box(packed(&a, &b).data()[0]);
            })
        });
        let packed_nt = time_mean(samples, || {
            std::hint::black_box(packed(&a, &b).data()[0]);
        });
        // Fast-profile (vector) single-thread run at the active SIMD level.
        let prev = qn_simd::force_profile(qn_simd::KernelProfile::Fast);
        let fast_out = packed(&a, &b);
        let fast_1t = qn_parallel::with_max_threads(1, || {
            time_mean(samples, || {
                std::hint::black_box(packed(&a, &b).data()[0]);
            })
        });
        qn_simd::force_profile(prev);
        let exact_out = packed(&a, &b);
        for (f, e) in fast_out.data().iter().zip(exact_out.data()) {
            assert!(
                (f - e).abs() <= 1e-4 * (1.0 + e.abs()),
                "{label}: fast-profile output drifted beyond the ULP tier: {f} vs {e}"
            );
        }
        let (gf_naive, gf_1t, gf_nt, gf_fast) = (
            flops / naive_s / 1e9,
            flops / packed_1t / 1e9,
            flops / packed_nt / 1e9,
            flops / fast_1t / 1e9,
        );
        let speedup = gf_1t / gf_naive;
        let fast_speedup = gf_fast / gf_1t;
        eprintln!(
            "gemm/{label} ({m}x{k}x{n}): naive {gf_naive:.2} GFLOP/s, \
             packed 1t {gf_1t:.2} GFLOP/s ({speedup:.2}x), \
             fast({simd}) 1t {gf_fast:.2} GFLOP/s ({fast_speedup:.2}x over packed), \
             packed {host_cpus}t {gf_nt:.2} GFLOP/s",
            simd = qn_simd::SimdLevel::active().name(),
        );
        records.push(format!(
            "    {{\n      \"shape\": \"{label}\",\n      \"m\": {m},\n      \"k\": {k},\n      \
\"n\": {n},\n      \"transb\": {transb},\n      \"naive_gflops\": {gf_naive:.3},\n      \
\"packed_1t_gflops\": {gf_1t:.3},\n      \"packed_vector_1t_gflops\": {gf_fast:.3},\n      \
\"packed_full_pool_gflops\": {gf_nt:.3},\n      \
\"speedup_1t_vs_naive\": {speedup:.3},\n      \
\"speedup_vector_vs_packed_1t\": {fast_speedup:.3},\n      \"bit_identical\": true\n    }}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"gemm\",\n  \"smoke\": {smoke},\n  \"samples\": {samples},\n  \
\"host_cpus\": {host_cpus},\n  \"simd\": \"{simd}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n"),
        simd = qn_simd::SimdLevel::active().name(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        eprintln!("recorded {path}");
    }

    let mut group = c.benchmark_group("gemm");
    group.sample_size(samples);
    let a = Tensor::randn(&[1024, 144], &mut rng);
    let b = Tensor::randn(&[16, 144], &mut rng);
    group.bench_function(BenchmarkId::new("packed", "resnet20_stage1"), |bch| {
        bch.iter(|| std::hint::black_box(a.matmul_transb(&b).data()[0]))
    });
    group.bench_function(BenchmarkId::new("naive", "resnet20_stage1"), |bch| {
        bch.iter(|| std::hint::black_box(reference::matmul_transb(&a, &b).data()[0]))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
