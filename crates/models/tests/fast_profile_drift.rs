//! End-to-end determinism tiers on ResNet-20: the whole inference stack
//! (im2col GEMM, fused batch-norm/relu/residual chain, quadratic-neuron
//! weighted square sums, softmax) under `Fast` must stay close to the
//! `Exact` output, and `Exact` — which runs vector code wherever every lane
//! computes the seed's scalar expression — must print the same logits bit
//! for bit at every SIMD level. Own integration binary because
//! `force_profile`/`force_level` are process-global.

use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{Rng, Tensor};
use std::sync::Mutex;

static PROFILE_LOCK: Mutex<()> = Mutex::new(());

fn resnet20(neuron: NeuronSpec) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 20,
        base_width: 8,
        num_classes: 10,
        neuron,
        placement: NeuronPlacement::All,
        seed: 33,
    })
}

fn drift_check(neuron: NeuronSpec, seed: u64) {
    let _g = PROFILE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let net = resnet20(neuron);
    let mut rng = Rng::seed_from(seed);
    let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);

    let prev = qn_simd::force_profile(qn_simd::KernelProfile::Exact);
    let exact = InferenceSession::new(&net).predict_batch(&x);
    qn_simd::force_profile(qn_simd::KernelProfile::Fast);
    let fast = InferenceSession::new(&net).predict_batch(&x);
    qn_simd::force_profile(prev);

    assert_eq!(exact.shape(), fast.shape());
    for (f, e) in fast.data().iter().zip(exact.data()) {
        assert!(
            (f - e).abs() <= 1e-3 * (1.0 + e.abs()),
            "fast-profile logits drifted: {f} vs {e} (neuron {neuron:?})"
        );
    }
    // the Fast profile must still be deterministic run-to-run
    let prev = qn_simd::force_profile(qn_simd::KernelProfile::Fast);
    let again = InferenceSession::new(&net).predict_batch(&x);
    qn_simd::force_profile(prev);
    assert!(
        fast.bit_identical(&again),
        "Fast profile must be deterministic across runs"
    );
}

#[test]
fn quadratic_resnet20_fast_profile_tracks_exact() {
    drift_check(NeuronSpec::EfficientQuadratic { rank: 2 }, 7);
}

#[test]
fn linear_resnet20_fast_profile_tracks_exact() {
    drift_check(NeuronSpec::Linear, 8);
}

/// Under `Exact`, each SIMD level runs different instructions (the GEMM,
/// the fused chain and the batch-norm affine at its own lane width) and
/// must still produce bit-identical logits.
fn exact_across_levels(neuron: NeuronSpec, seed: u64) {
    let _g = PROFILE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let net = resnet20(neuron);
    let mut rng = Rng::seed_from(seed);
    let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);

    let prev_profile = qn_simd::force_profile(qn_simd::KernelProfile::Exact);
    let prev_level = qn_simd::SimdLevel::active();
    let outputs: Vec<(qn_simd::SimdLevel, Tensor)> = qn_simd::available_levels()
        .into_iter()
        .map(|level| {
            qn_simd::force_level(level);
            (level, InferenceSession::new(&net).predict_batch(&x))
        })
        .collect();
    qn_simd::force_level(prev_level);
    qn_simd::force_profile(prev_profile);

    let (first, expect) = &outputs[0];
    for (level, got) in &outputs[1..] {
        assert!(
            got.bit_identical(expect),
            "Exact logits at {level:?} differ from {first:?} (neuron {neuron:?})"
        );
    }
}

#[test]
fn quadratic_resnet20_exact_profile_is_bit_identical_across_levels() {
    exact_across_levels(NeuronSpec::EfficientQuadratic { rank: 2 }, 9);
}

#[test]
fn linear_resnet20_exact_profile_is_bit_identical_across_levels() {
    exact_across_levels(NeuronSpec::Linear, 10);
}
