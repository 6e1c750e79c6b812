//! End-to-end determinism on ResNet-20: the whole inference stack (im2col
//! GEMM, fused batch-norm/relu/residual chain, quadratic-neuron epilogue,
//! softmax) runs vector code only where every lane computes the seed's
//! scalar expression, so it must print the same logits bit for bit at
//! every SIMD level. Own integration binary because `force_level` is
//! process-global.

use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{Rng, Tensor};
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

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

/// Each SIMD level runs different instructions (the GEMM, the fused chain
/// and the batch-norm affine at its own lane width) and must still produce
/// bit-identical logits.
fn exact_across_levels(neuron: NeuronSpec, seed: u64) {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let net = resnet20(neuron);
    let mut rng = Rng::seed_from(seed);
    let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);

    let prev_level = qn_simd::SimdLevel::active();
    let outputs: Vec<(qn_simd::SimdLevel, Tensor)> = qn_simd::available_levels()
        .into_iter()
        .map(|level| {
            qn_simd::force_level(level);
            (level, InferenceSession::new(&net).predict_batch(&x))
        })
        .collect();
    qn_simd::force_level(prev_level);

    let (first, expect) = &outputs[0];
    for (level, got) in &outputs[1..] {
        assert!(
            got.bit_identical(expect),
            "logits at {level:?} differ from {first:?} (neuron {neuron:?})"
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
