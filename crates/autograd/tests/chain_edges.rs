//! `EagerExec::elemwise_chain` against each stage's scalar expression, bit
//! for bit, at **every** dispatch level reachable on this host
//! (`available_levels()`; cap with `QN_SIMD=scalar|sse2` to exercise the
//! lower tiers on wide machines), on edge values: ±0, ±NaN, ±∞,
//! ±subnormal and ±`f32::MAX`, with NaN compared by NaN-ness.
//!
//! The chain is the arithmetic of the eager bias, scale, norm, ReLU and
//! residual stages, and the tape's `add_channel`, `mul_channel` and
//! `batch_norm2d` take their values from it. Every input, bias, scale,
//! mean, variance, γ and β comes from the edge grid, on planes whose width
//! (107) is not a multiple of any lane count, so each level runs both its
//! vector body and its scalar tail.
//!
//! `force_level` is process-global, so the test holds a lock while it
//! forces levels.

use qn_autograd::{ChainStage, EagerExec, Exec, Var};
use qn_tensor::Tensor;
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

const EDGES: [f32; 10] = [
    0.0,
    -0.0,
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE / 2.0,
    -f32::MIN_POSITIVE / 2.0,
    f32::MAX,
    f32::MIN,
];

const EPS: f32 = 1e-5;

/// Bit equality, except that any NaN matches any NaN.
fn same(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Every ordered pair of [`EDGES`] as `(x[i], r[i])`, then seven repeats:
/// 107 elements per plane.
fn edge_pairs() -> (Vec<f32>, Vec<f32>) {
    let (mut x, mut r): (Vec<f32>, Vec<f32>) = EDGES
        .iter()
        .flat_map(|&a| EDGES.iter().map(move |&b| (a, b)))
        .unzip();
    x.extend_from_within(..7);
    r.extend_from_within(..7);
    (x, r)
}

/// One stage with its per-channel parameters, which the scalar reference
/// reads directly.
enum Stage {
    Bias(Vec<f32>),
    Scale(Vec<f32>),
    Norm([Vec<f32>; 4]),
    Relu,
    Residual,
}

impl Stage {
    /// Channels needed so every parameter combination of the grid occurs.
    fn channels(&self) -> usize {
        match self {
            Stage::Bias(p) | Stage::Scale(p) => p.len(),
            Stage::Norm(p) => p[0].len(),
            Stage::Relu | Stage::Residual => 1,
        }
    }

    /// The stage's scalar expression at channel `c`, residual value `r`.
    fn apply(&self, v: f32, c: usize, r: f32) -> f32 {
        match self {
            Stage::Bias(b) => v + b[c],
            Stage::Scale(s) => v * s[c],
            Stage::Norm([mean, var, gamma, beta]) => {
                (v - mean[c]) * (1.0 / (var[c] + EPS).sqrt()) * gamma[c] + beta[c]
            }
            Stage::Relu => v.max(0.0),
            Stage::Residual => v + r,
        }
    }
}

/// Runs `stage` through `elemwise_chain` on `[1, C, 1, 107]` planes and
/// returns the first element that differs from the scalar expression.
fn first_mismatch(stage: &Stage) -> Option<String> {
    let (xp, rp) = edge_pairs();
    let c = stage.channels();
    let dims = [1, c, 1, xp.len()];
    let x = Tensor::from_vec(xp.repeat(c), &dims).expect("plane dims");
    let r = Tensor::from_vec(rp.repeat(c), &dims).expect("plane dims");
    let mut e = EagerExec::new();
    let xv = e.leaf(x.clone());
    let rv = e.leaf(r.clone());
    let leaf = |e: &mut EagerExec, p: &[f32]| -> Var {
        e.leaf(Tensor::from_vec(p.to_vec(), &[p.len()]).expect("channel vector"))
    };
    let stats = match stage {
        Stage::Norm([mean, var, ..]) => Some(
            [mean, var].map(|p| Tensor::from_vec(p.clone(), &[p.len()]).expect("channel vector")),
        ),
        _ => None,
    };
    let chain = match stage {
        Stage::Bias(b) => ChainStage::AddChannel(leaf(&mut e, b)),
        Stage::Scale(s) => ChainStage::MulChannel(leaf(&mut e, s)),
        Stage::Norm([_, _, gamma, beta]) => {
            let [mean, var] = stats.as_ref().expect("norm statistics");
            ChainStage::NormChannel {
                gamma: leaf(&mut e, gamma),
                beta: leaf(&mut e, beta),
                mean,
                var,
                eps: EPS,
            }
        }
        Stage::Relu => ChainStage::Relu,
        Stage::Residual => ChainStage::AddResidual(rv),
    };
    let out = e.elemwise_chain(xv, &[chain]);
    let plane = xp.len();
    e.value(out)
        .data()
        .iter()
        .enumerate()
        .find_map(|(i, &got)| {
            let want = stage.apply(x.data()[i], i / plane, r.data()[i]);
            (!same(got, want)).then(|| format!("element {i}: {got} vs {want}"))
        })
}

#[test]
fn every_chain_stage_is_bit_exact_on_edge_values_at_every_level() {
    let n = EDGES.len();
    // (mean, var, γ, β) runs through every combination of edge values
    let norm = [0, 1, 2, 3].map(|d| (0..n.pow(4)).map(|i| EDGES[i / n.pow(d) % n]).collect());
    let stages = [
        ("bias", Stage::Bias(EDGES.to_vec())),
        ("scale", Stage::Scale(EDGES.to_vec())),
        ("norm", Stage::Norm(norm)),
        ("relu", Stage::Relu),
        ("residual", Stage::Residual),
    ];
    let _lock = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev = qn_simd::SimdLevel::active();
    let mut failures = Vec::new();
    for level in qn_simd::available_levels() {
        qn_simd::force_level(level);
        for (name, stage) in &stages {
            if let Some(m) = first_mismatch(stage) {
                failures.push(format!("{name} @ {level:?}: {m}"));
            }
        }
    }
    qn_simd::force_level(prev);
    assert!(failures.is_empty(), "{failures:#?}");
}
