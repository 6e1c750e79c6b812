//! `resnet-infer`: batch-1 `InferenceSession::predict` on ResNet-20
//! (width 8, 3×32×32) in three interleaved sessions — quadratic k=9 f32,
//! linear f32, and quadratic k=9 calibrated int8 — plus `predict_batch` of
//! 32 on the quadratic f32 session. Closed loop, one caller.
//!
//! The bounded CPU p50/p90 are taken over iterations, each the sum of the
//! three sessions' predicts; `per_cpu_s` is batch-32 samples per CPU
//! second.

use crate::stats::{cpu_ms, median, median_cpu_ms, quantile, Clock, Digest, Timings};
use crate::trace::{replay_gemms, replay_im2cols, OpStat, Traced};
use crate::{report_samples, report_value, timed_setup, Outcome, SETUP_REPS};
use qn_autograd::{EagerExec, Exec};
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::Module;
use qn_tensor::{Rng, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 32;
const MODELS: [&str; 3] = ["quad", "linear", "int8"];
/// The op classes the traced run reports for the ResNet models.
const OPS: [&str; 11] = [
    "conv2d",
    "im2col",
    "matmul_transb",
    "weighted_square_sum",
    "add_bcast",
    "add",
    "interleave_last",
    "rows_to_nchw",
    "elemwise_chain",
    "param",
    "leaf",
];

fn resnet20(neuron: NeuronSpec, seed: u64) -> Arc<ResNet> {
    Arc::new(ResNet::cifar(ResNetConfig {
        depth: 20,
        base_width: 8,
        num_classes: 10,
        neuron,
        placement: NeuronPlacement::All,
        seed,
    }))
}

/// Models, their sessions and the seeded inputs.
struct Bench {
    /// The f32 models behind `sessions[0..2]`.
    quad: Arc<ResNet>,
    linear: Arc<ResNet>,
    /// quad f32, linear f32, quad int8 (calibrated) — in `MODELS` order.
    sessions: Vec<InferenceSession<'static>>,
    samples: Vec<Tensor>,
    batch: Tensor,
}

fn build(seed: u64) -> Bench {
    let quad = resnet20(NeuronSpec::EfficientQuadratic { rank: 9 }, seed);
    let linear = resnet20(NeuronSpec::Linear, seed);
    let mut rng = Rng::seed_from(seed ^ 0x005e_ed1f);
    let samples: Vec<Tensor> = (0..SAMPLES)
        .map(|_| Tensor::randn(&[3, 32, 32], &mut rng))
        .collect();
    let calib: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[8, 3, 32, 32], &mut rng))
        .collect();
    let int8 = InferenceSession::quantized_calibrated(quad.as_ref(), calib)
        .expect("ResNet-20 has an int8 twin");
    let mut data = Vec::with_capacity(SAMPLES * 3 * 32 * 32);
    for s in &samples {
        data.extend_from_slice(s.data());
    }
    let batch = Tensor::from_vec(data, &[SAMPLES, 3, 32, 32]).expect("stacked samples");
    let mut sessions = vec![
        InferenceSession::owned(quad.clone()),
        InferenceSession::owned(linear.clone()),
        int8,
    ];
    // warm-up: fill every arena and pool before the first timed call
    for s in &mut sessions {
        for x in samples.iter().take(2) {
            let y = s.predict(x);
            s.recycle(y);
        }
    }
    let y = sessions[0].predict_batch(&batch);
    sessions[0].recycle(y);
    Bench {
        quad,
        linear,
        sessions,
        samples,
        batch,
    }
}

/// Logits of one sample from `Module::forward` on a fresh arena: the
/// reference every `predict` must match bit for bit.
fn fresh_forward(model: &dyn Module, x: &Tensor) -> Vec<f32> {
    let mut cx = EagerExec::new();
    let v = cx.leaf_reshaped(x, &[1, 3, 32, 32]);
    let y = model.forward(&mut cx, v);
    cx.value(y).data().to_vec()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn references(b: &Bench) -> Vec<Vec<Vec<f32>>> {
    b.sessions
        .iter()
        .map(|s| {
            b.samples
                .iter()
                .map(|x| fresh_forward(s.model(), x))
                .collect()
        })
        .collect()
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    println!("resnet-infer: ResNet-20 w8, 3x32x32; quad k=9 f32 | linear f32 | quad k=9 int8 calibrated; batch-32 on quad f32");
    let (setup_s, mut b) = timed_setup(SETUP_REPS, || build(seed));
    let refs = references(&b);
    let mut digest = Digest::default();
    for per_model in &refs {
        for r in per_model {
            digest.f32s(r);
        }
    }
    let mut o = Outcome::default();
    // per model in `MODELS` order, then batch-32 on the quad session
    let mut t = vec![Timings::default(); 4];
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget {
        let si = i % SAMPLES;
        // rotate the session order so no model always runs first
        for j in 0..3 {
            let m = (i + j) % 3;
            let s = &mut b.sessions[m];
            let c = Clock::start();
            let y = s.predict(&b.samples[si]);
            t[m].stop(&c);
            o.check(same_bits(y.data(), &refs[m][si]));
            s.recycle(y);
        }
        if i % 4 == 3 {
            let s = &mut b.sessions[0];
            let c = Clock::start();
            let y = s.predict_batch(&b.batch);
            t[3].stop(&c);
            let ok = y.numel() == SAMPLES * 10
                && y.data()
                    .chunks(10)
                    .zip(&refs[0])
                    .all(|(row, r)| same_bits(row, r));
            o.check(ok);
            s.recycle(y);
        }
        i += 1;
    }
    for (m, name) in MODELS.iter().enumerate() {
        t[m].report(&format!("{name}_predict"));
    }
    // one sample per iteration: its three batch-1 predicts summed, so the
    // bounds cover every session, the int8 one included
    let iteration_cpu: Vec<f64> = (0..t[0].cpu.len())
        .map(|k| t[..3].iter().map(|m| m.cpu[k]).sum())
        .collect();
    report_samples("iteration_cpu_ms", "ms", &iteration_cpu);
    t[3].report("quad_batch32");
    let sps = 32.0 * 1e3 / median(&t[3].wall);
    let sps_cpu = 32.0 * 1e3 / median(&t[3].cpu);
    report_value("quad_batch32_sps", "samples/s", sps);
    report_value("quad_batch32_per_cpu_s", "samples/cpu_s", sps_cpu);
    println!(
        "  quad/linear predict ratio: wall {:.3}, CPU {:.3}; int8/quad: wall {:.3}, CPU {:.3}",
        median(&t[0].wall) / median(&t[1].wall),
        median(&t[0].cpu) / median(&t[1].cpu),
        median(&t[2].wall) / median(&t[0].wall),
        median(&t[2].cpu) / median(&t[0].cpu)
    );
    println!(
        "  ops {} failed {} digest {}",
        o.attempted,
        o.failed,
        digest.hex()
    );
    o.metric("setup_s", "s", setup_s);
    o.metric("cpu_p50_ms", "ms", median(&iteration_cpu));
    o.metric("cpu_p90_ms", "ms", quantile(&iteration_cpu, 0.9));
    o.metric("per_cpu_s", "1/cpu_s", sps_cpu);
    o
}

/// Traced forwards of one model: op totals per forward and the shapes of
/// one forward.
struct ModelTrace {
    ops: BTreeMap<&'static str, OpStat>,
    forward_ms: f64,
    op_ms: f64,
    record_ms: f64,
    t: Traced<EagerExec>,
}

const TRACE_REPS: usize = 12;

fn trace_model(model: &dyn Module, x: &Tensor, expect: &[f32], o: &mut Outcome) -> ModelTrace {
    let mut t = Traced::new(EagerExec::new());
    let mut ops: BTreeMap<&'static str, OpStat> = BTreeMap::new();
    let (mut forward, mut op, mut rec) = (0.0, 0.0, 0.0);
    // two untimed passes warm the arena, like the session warm-up
    for rep in 0..TRACE_REPS + 2 {
        t.inner.reset();
        t.clear();
        let t0 = cpu_ms();
        let v = t.inner.leaf_reshaped(x, &[1, 3, 32, 32]);
        let y = model.forward(&mut t, v);
        let ms = cpu_ms() - t0;
        if rep < 2 {
            continue;
        }
        o.check(same_bits(t.value(y).data(), expect));
        forward += ms;
        op += t.op_ms();
        rec += t.record_ms;
        t.add_into(&mut ops);
    }
    let n = TRACE_REPS as f64;
    ModelTrace {
        ops,
        forward_ms: forward / n,
        op_ms: op / n,
        record_ms: rec / n,
        t,
    }
}

pub fn trace(seed: u64) -> Outcome {
    println!("trace resnet-infer: {TRACE_REPS} traced forwards per model on a wrapped EagerExec (CPU ms)");
    let mut b = build(seed);
    let mut o = Outcome::default();
    let x = b.samples[0].clone();
    let n = TRACE_REPS as f64;
    let mut untraced = [0.0f64; 3];
    let mut op_split: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut macs_exec = [0u64; 2];
    for (m, name) in MODELS.iter().enumerate() {
        let s = &mut b.sessions[m];
        let expect = s.predict(&x).data().to_vec();
        untraced[m] = median_cpu_ms(30, || {
            let y = s.predict(&x);
            s.recycle(y);
        });
        let before = qn_bench::counting_alloc::snapshot();
        for _ in 0..10 {
            let y = s.predict(&x);
            s.recycle(y);
        }
        let allocs = qn_bench::counting_alloc::snapshot()
            .since(&before)
            .allocations as f64
            / 10.0;

        let mt = trace_model(s.model(), &x, &expect, &mut o);
        let module_self = mt.forward_ms - mt.op_ms - mt.record_ms;
        let mut split = BTreeMap::new();
        let mut other = 0.0;
        for (op, st) in &mt.ops {
            let ms = st.ms / n;
            if OPS.contains(op) {
                split.insert(*op, ms);
            } else {
                other += ms;
            }
        }
        println!(
            "  {name}: untraced CPU p50 {:.4} ms, traced forward {:.4} ms = ops {:.4} + module self {:.4} + recording {:.4}; overhead x{:.3}",
            untraced[m], mt.forward_ms, mt.op_ms, module_self, mt.record_ms, mt.forward_ms / untraced[m]
        );
        for op in OPS {
            let ms = split.get(op).copied().unwrap_or(0.0);
            o.metric(format!("{name}.autograd.{op}.ms"), "ms", ms);
        }
        o.metric(format!("{name}.autograd.other.ms"), "ms", other);
        let calls: u64 = mt.ops.values().map(|s| s.calls).sum();
        o.metric(format!("{name}.autograd.calls"), "count", calls as f64 / n);
        o.metric(format!("{name}.module_self_ms"), "ms", module_self);
        o.metric(format!("{name}.allocs_per_predict"), "count", allocs);
        o.metric(format!("{name}.untraced_p50_ms"), "ms", untraced[m]);
        o.metric(
            format!("{name}.trace_overhead"),
            "ratio",
            mt.forward_ms / untraced[m],
        );
        split.insert("other", other);
        split.insert("module_self", module_self);
        op_split.push(split);

        if m < 2 {
            // qn-tensor kernels and the paper's cost model, f32 models only
            let f32_model: &ResNet = if m == 0 { &b.quad } else { &b.linear };
            let modeled = f32_model.costs(&[1, 3, 32, 32]).macs;
            let gemm_macs: u64 = mt.t.gemms.iter().map(|g| g.macs()).sum();
            let lambda_macs =
                mt.ops.get("weighted_square_sum").map_or(0, |s| s.macs) / TRACE_REPS as u64;
            let executed = gemm_macs + lambda_macs;
            macs_exec[m] = executed;
            if executed == modeled {
                println!("  {name}: macs modeled {modeled} == executed {executed} (GEMM {gemm_macs} + Λ {lambda_macs}): exact");
            } else {
                println!(
                    "  {name}: macs modeled {modeled} != executed {executed} (GEMM {gemm_macs} + Λ {lambda_macs}); difference {} in the {} term",
                    executed as i64 - modeled as i64,
                    if lambda_macs == 0 || gemm_macs > modeled { "GEMM" } else { "Λ" }
                );
            }
            let bytes: u64 = mt.ops.values().map(|s| s.bytes).sum::<u64>() / TRACE_REPS as u64;
            let gemm_ms = replay_gemms(&mt.t.gemms, 10);
            let im2col_ms = replay_im2cols(&mt.t.im2cols, 10);
            let gflops = 2.0 * executed as f64 / (untraced[m] * 1e6);
            println!(
                "  {name}: {gflops:.2} GFLOP/s end to end; {bytes} bytes moved (computed from tensor sizes); GEMM replay {gemm_ms:.4} ms, im2col replay {im2col_ms:.4} ms"
            );
            o.metric(format!("{name}.macs_modeled"), "count", modeled as f64);
            o.metric(format!("{name}.macs_executed"), "count", executed as f64);
            o.metric(format!("{name}.gflops"), "GFLOP/cpu_s", gflops);
            o.metric(format!("{name}.bytes_moved"), "bytes", bytes as f64);
            o.metric(format!("{name}.tensor.gemm_replay_ms"), "ms", gemm_ms);
            o.metric(format!("{name}.tensor.im2col_replay_ms"), "ms", im2col_ms);
            if m == 1 {
                let modeled_ratio = b.quad.costs(&[1, 3, 32, 32]).macs as f64 / modeled as f64;
                let measured_ratio = untraced[0] / untraced[1];
                println!(
                    "  quad/linear: modeled MAC ratio {modeled_ratio:.3} (executed {:.3}), measured predict CPU ratio {measured_ratio:.3}",
                    macs_exec[0] as f64 / macs_exec[1] as f64
                );
                o.metric("quad_linear.macs_ratio_modeled", "ratio", modeled_ratio);
                o.metric(
                    "quad_linear.latency_ratio_measured",
                    "ratio",
                    measured_ratio,
                );
            }
        }
    }
    // where the quad-vs-linear and int8-vs-f32 gaps sit, op class by class
    for (a, bi, label) in [(0usize, 1usize, "quad - linear"), (2, 0, "int8 - quad")] {
        let mut keys: Vec<&str> = op_split[a]
            .keys()
            .chain(op_split[bi].keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut rows: Vec<(f64, &str)> = keys
            .iter()
            .map(|k| {
                let va = op_split[a].get(k).copied().unwrap_or(0.0);
                let vb = op_split[bi].get(k).copied().unwrap_or(0.0);
                (va - vb, *k)
            })
            .collect();
        rows.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
        let parts: Vec<String> = rows
            .iter()
            .filter(|r| r.0.abs() >= 0.01)
            .map(|(d, k)| format!("{k} {d:+.3}"))
            .collect();
        println!(
            "  {label}: untraced CPU p50 {:+.3} ms; traced split (CPU ms): {}",
            untraced[a] - untraced[bi],
            parts.join(", ")
        );
    }
    o
}
