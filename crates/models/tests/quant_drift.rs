//! End-to-end int8-vs-f32 logit drift on ResNet-20: the whole quantized
//! inference stack (per-channel int8 conv/linear/quadratic weights,
//! on-the-fly activation quantization, f32 batch-norm islands) must keep
//! its logits close to the f32 exact path, keep the predicted class stable
//! on confident inputs, and stay bit-identical at every SIMD dispatch
//! level — integer accumulation makes the int8 tier *more* deterministic
//! than the f32 one, and this suite is the executable form of that claim.
//!
//! Own integration binary because `force_level` is process-global.

use proptest::prelude::*;
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{Rng, Tensor};
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn resnet20(neuron: NeuronSpec, seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 20,
        base_width: 4,
        num_classes: 10,
        neuron,
        placement: NeuronPlacement::All,
        seed,
    })
}

/// `(max |int8 − f32|, max |f32|)` over all logits of one batch.
fn logit_drift(net: &ResNet, x: &Tensor) -> (f32, f32) {
    let exact = InferenceSession::new(net).predict_batch(x);
    let quant = InferenceSession::quantized(net)
        .expect("ResNet quantizes end to end")
        .predict_batch(x);
    assert_eq!(exact.shape(), quant.shape());
    let drift = exact
        .data()
        .iter()
        .zip(quant.data())
        .map(|(e, q)| (e - q).abs())
        .fold(0.0f32, f32::max);
    let scale = exact.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    (drift, scale)
}

proptest! {
    // depth-20 forwards are heavy; a handful of cases over fresh weight
    // and input seeds is the coverage target, not case count
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Logit drift stays bounded for both neuron families over random
    /// weight seeds and inputs. Untrained random weights give logits of
    /// arbitrary magnitude, so the budget is **relative** to the f32
    /// logit scale: it fails loudly if a layer starts quantizing the
    /// wrong axis or dropping its scale (those blow the drift up by
    /// orders of magnitude, not percent).
    #[test]
    fn quantized_resnet20_logit_drift_is_bounded(
        net_seed in 0u64..1000, x_seed in 0u64..1000
    ) {
        for neuron in [
            NeuronSpec::Linear,
            NeuronSpec::EfficientQuadratic { rank: 2 },
        ] {
            let net = resnet20(neuron, net_seed);
            let mut rng = Rng::seed_from(x_seed);
            let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
            let (drift, scale) = logit_drift(&net, &x);
            let bound = 0.15 * (1.0 + scale);
            prop_assert!(drift < bound, "{neuron:?}: drift {drift} vs scale {scale}");
        }
    }

    /// The int8 tier is bit-identical across every reachable SIMD
    /// dispatch level and between the full pool and one thread (integer
    /// accumulation is associative; the f32 epilogue has a fixed operation
    /// order).
    #[test]
    fn quantized_resnet20_is_bit_identical_across_levels(seed in 0u64..1000) {
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let net = resnet20(NeuronSpec::EfficientQuadratic { rank: 2 }, seed);
        let mut rng = Rng::seed_from(seed ^ 0xABCD);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let twin = InferenceSession::quantized(&net).expect("quantizes");
        // hold one session across levels: the codes are fixed at
        // quantization time, so only kernel dispatch changes
        let mut session = twin;
        let prev = qn_simd::SimdLevel::active();
        let mut outputs: Vec<(Tensor, Tensor)> = Vec::new();
        for level in qn_simd::available_levels() {
            qn_simd::force_level(level);
            let pooled = session.predict_batch(&x);
            let one_thread = qn_parallel::with_max_threads(1, || session.predict_batch(&x));
            outputs.push((pooled, one_thread));
        }
        qn_simd::force_level(prev);
        for (pooled, one_thread) in &outputs {
            prop_assert!(
                pooled.bit_identical(one_thread),
                "int8 logits changed between the full pool and one thread"
            );
        }
        for pair in outputs.windows(2) {
            prop_assert!(
                pair[0].0.bit_identical(&pair[1].0),
                "int8 logits changed across dispatch levels"
            );
        }
    }
}

/// Argmax stability on confident inputs: feed the f32 model's own most
/// confident direction back as input noise and check the predicted class
/// survives quantization. Plain test (not proptest) — one fixed seed pair
/// keeps it deterministic and fast.
#[test]
fn quantized_resnet20_keeps_confident_predictions() {
    let net = resnet20(NeuronSpec::EfficientQuadratic { rank: 2 }, 77);
    let mut rng = Rng::seed_from(78);
    let x = Tensor::randn(&[8, 3, 16, 16], &mut rng);
    let exact = InferenceSession::new(&net).predict_batch(&x);
    let quant = InferenceSession::quantized(&net)
        .expect("quantizes")
        .predict_batch(&x);
    let classes = exact.shape().dims()[1];
    let mut agree = 0usize;
    let mut total = 0usize;
    for b in 0..exact.shape().dims()[0] {
        let row = |t: &Tensor| {
            let d = &t.data()[b * classes..(b + 1) * classes];
            let (mut best, mut arg) = (f32::NEG_INFINITY, 0usize);
            let mut second = f32::NEG_INFINITY;
            for (i, &v) in d.iter().enumerate() {
                if v > best {
                    second = best;
                    best = v;
                    arg = i;
                } else if v > second {
                    second = v;
                }
            }
            (arg, best - second)
        };
        let (e_arg, e_margin) = row(&exact);
        let (q_arg, _) = row(&quant);
        // ties between near-equal logits may flip; confident rows must not
        if e_margin > 0.2 {
            total += 1;
            if e_arg == q_arg {
                agree += 1;
            }
        }
    }
    assert_eq!(
        agree,
        total,
        "quantization flipped {} of {} confident predictions",
        total - agree,
        total
    );
}
