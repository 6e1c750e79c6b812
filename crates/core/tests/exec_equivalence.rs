//! Tape vs tape-free equivalence properties for every neuron family.
//!
//! Each property builds a layer with randomized shape/rank, runs the same
//! forward pass on the autograd tape ([`Graph`]) and on the eager arena
//! ([`EagerExec`]), and asserts the outputs agree bit for bit — the
//! contract the dual-mode [`qn_nn::Module`] API relies on.

use proptest::prelude::*;
use qn_autograd::{EagerExec, Exec, Graph};
use qn_core::neurons::{
    EfficientQuadraticConv2d, EfficientQuadraticLinear, FactorizedQuadraticLinear,
    GeneralQuadraticLinear, KervolutionLinear, LowRankQuadraticLinear, NoLinearQuadraticLinear,
    PatchConv2d, Quad1Linear, Quad2Linear,
};
use qn_core::NeuronSpec;
use qn_nn::Module;
use qn_tensor::{Conv2dSpec, Rng, Tensor};

/// Runs `layer` on both execution contexts and asserts bit-identical
/// outputs.
fn assert_equivalent(layer: &dyn Module, x: &Tensor) -> Result<(), TestCaseError> {
    let mut g = Graph::new();
    let xv = g.leaf(x.clone());
    let tv = layer.forward(&mut g, xv);
    let taped = g.value(tv);

    let mut e = EagerExec::new();
    let xe = e.leaf(x.clone());
    let ev = layer.forward(&mut e, xe);
    let eager = e.value(ev);

    prop_assert_eq!(taped.shape().dims(), eager.shape().dims());
    prop_assert!(
        taped.bit_identical(eager),
        "tape and eager outputs differ in their bits"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Family 1 — the paper's efficient quadratic neuron (vectorized).
    #[test]
    fn efficient_quadratic_matches(
        n in 3usize..12, m in 1usize..4, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let k = 1 + (seed as usize % n.min(4));
        let layer = EfficientQuadraticLinear::new(n, m, k, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 1b — the scalar-output ablation of the proposed neuron.
    #[test]
    fn efficient_quadratic_scalar_matches(
        n in 3usize..12, m in 1usize..4, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let k = 1 + (seed as usize % n.min(4));
        let layer = EfficientQuadraticLinear::new_scalar_output(n, m, k, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 2 — the general quadratic neuron (full n×n matrix).
    #[test]
    fn general_quadratic_matches(
        n in 2usize..8, m in 1usize..4, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = GeneralQuadraticLinear::new(n, m, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 3 — the linear-term-free variant.
    #[test]
    fn no_linear_quadratic_matches(
        n in 2usize..8, m in 1usize..4, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = NoLinearQuadraticLinear::new(n, m, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 4 — the unsymmetric low-rank neuron.
    #[test]
    fn low_rank_matches(
        n in 3usize..12, m in 1usize..4, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let k = 1 + (seed as usize % n.min(4));
        let layer = LowRankQuadraticLinear::new(n, m, k, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 5 — the quadratic-residual neuron.
    #[test]
    fn factorized_matches(
        n in 2usize..12, m in 1usize..5, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = FactorizedQuadraticLinear::new(n, m, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 6 — Quad-1.
    #[test]
    fn quad1_matches(
        n in 2usize..12, m in 1usize..5, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = Quad1Linear::new(n, m, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 7 — Quad-2.
    #[test]
    fn quad2_matches(
        n in 2usize..12, m in 1usize..5, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = Quad2Linear::new(n, m, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// Family 8 — polynomial kervolution.
    #[test]
    fn kervolution_matches(
        n in 2usize..12, m in 1usize..5, p in 1i32..5, seed in 0u64..1000, batch in 1usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = KervolutionLinear::new(n, m, 0.5, p, &mut rng);
        let x = Tensor::randn(&[batch, n], &mut rng);
        assert_equivalent(&layer, &x)?;
    }

    /// The proposed neuron's convolutional form (PatchConv2d deployment).
    #[test]
    fn efficient_quadratic_conv_matches(
        c in 1usize..4, filters in 1usize..3, res in 4usize..8, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let spec = Conv2dSpec::new(3, 1, 1);
        let k = 1 + (seed as usize % 4);
        let conv = EfficientQuadraticConv2d::efficient(c, filters, k, spec, &mut rng);
        let x = Tensor::randn(&[1, c, res, res], &mut rng);
        assert_equivalent(&conv, &x)?;
    }

    /// PatchConv2d around an arbitrary dense family, plus strided geometry.
    #[test]
    fn patch_conv_matches(
        c in 1usize..4, units in 1usize..4, stride in 1usize..3, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let spec = Conv2dSpec::new(3, stride, 1);
        let n = spec.patch_len(c);
        let conv = PatchConv2d::new(Quad2Linear::new(n, units, &mut rng), c, spec);
        let x = Tensor::randn(&[2, c, 6, 6], &mut rng);
        assert_equivalent(&conv, &x)?;
    }

    /// Every NeuronSpec-built conv agrees between the two paths.
    #[test]
    fn all_specs_match(seed in 0u64..1000, target in 4usize..10) {
        let mut rng = Rng::seed_from(seed);
        let conv = Conv2dSpec::new(3, 1, 1);
        let specs = [
            NeuronSpec::Linear,
            NeuronSpec::EfficientQuadratic { rank: 3 },
            NeuronSpec::EfficientQuadraticScalar { rank: 3 },
            NeuronSpec::LowRank { rank: 2 },
            NeuronSpec::Quad1,
            NeuronSpec::Quad2,
            NeuronSpec::Factorized,
            NeuronSpec::Kervolution { degree: 3, offset: 1.0 },
        ];
        for spec in specs {
            let (layer, _) = spec.build_conv(2, target, conv, &mut rng);
            let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
            assert_equivalent(layer.as_ref(), &x)?;
        }
    }
}
