//! Tape vs tape-free equivalence properties for every layer kind in qn-nn.
//!
//! The dual-mode [`Module`] contract: running a layer's forward pass on the
//! autograd tape ([`Graph`]) and on the eager arena ([`EagerExec`]) must
//! produce bit-identical outputs for any valid input shape.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qn_autograd::{EagerExec, Exec, Graph};
use qn_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Embedding, Flatten, GlobalAvgPool, LayerNorm, Linear,
    MaxPool2d, Module, Relu, Sequential, Tanh,
};
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

    /// Linear over 2-D and 3-D inputs, with and without bias.
    #[test]
    fn linear_matches(
        n in 1usize..10, m in 1usize..10, batch in 1usize..5,
        t in 1usize..4, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let layer = Linear::new(n, m, seed % 2 == 0, &mut rng);
        assert_equivalent(&layer, &Tensor::randn(&[batch, n], &mut rng))?;
        assert_equivalent(&layer, &Tensor::randn(&[batch, t, n], &mut rng))?;
    }

    /// Conv2d across kernel geometries (the eager path uses a fused kernel).
    #[test]
    fn conv2d_matches(
        c in 1usize..4, oc in 1usize..5, stride in 1usize..3,
        pad in 0usize..2, res in 5usize..9, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let spec = Conv2dSpec::new(3, stride, pad);
        let layer = Conv2d::new(c, oc, spec, seed % 2 == 0, &mut rng);
        assert_equivalent(&layer, &Tensor::randn(&[2, c, res, res], &mut rng))?;
    }

    /// Activations and shape layers.
    #[test]
    fn activations_and_shapes_match(
        c in 1usize..4, res in 4usize..9, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[2, c, res, res], &mut rng);
        assert_equivalent(&Relu, &x)?;
        assert_equivalent(&Tanh, &x)?;
        assert_equivalent(&Flatten, &x)?;
        assert_equivalent(&Dropout::new(0.4), &x)?; // identity in inference
    }

    /// Pooling layers across window geometries.
    #[test]
    fn pooling_matches(
        c in 1usize..4, res in 4usize..9, window in 2usize..4, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[2, c, res, res], &mut rng);
        assert_equivalent(&MaxPool2d::new(window, window), &x)?;
        assert_equivalent(&AvgPool2d::new(window, 1), &x)?;
        assert_equivalent(&GlobalAvgPool, &x)?;
    }

    /// Normalization layers (inference mode: batch norm on running stats).
    #[test]
    fn norms_match(c in 1usize..5, res in 3usize..7, d in 2usize..9, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let bn = BatchNorm2d::new(c);
        // give the running stats a non-trivial value first
        let mut warm = Graph::training(seed);
        let wx = warm.leaf(Tensor::randn(&[2, c, res, res], &mut rng).add_scalar(1.0));
        let _ = bn.forward(&mut warm, wx);
        assert_equivalent(&bn, &Tensor::randn(&[2, c, res, res], &mut rng))?;
        let ln = LayerNorm::new(d);
        assert_equivalent(&ln, &Tensor::randn(&[3, d], &mut rng).scale(4.0))?;
    }

    /// A full Sequential stack, mixing every structural layer kind.
    #[test]
    fn sequential_stack_matches(seed in 0u64..1000, width in 2usize..6) {
        let mut rng = Rng::seed_from(seed);
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(1, width, Conv2dSpec::new(3, 1, 1), true, &mut rng)),
            Box::new(Relu),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten),
            Box::new(Linear::new(width * 4 * 4, 10, true, &mut rng)),
            Box::new(Tanh),
        ]);
        assert_equivalent(&net, &Tensor::randn(&[2, 1, 8, 8], &mut rng))?;
    }

    /// Embedding lookup (not a Module: id-indexed forward).
    #[test]
    fn embedding_matches(
        vocab in 2usize..20, dim in 1usize..8, len in 1usize..6, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let emb = Embedding::new(vocab, dim, &mut rng);
        let ids: Vec<usize> = (0..len).map(|i| (seed as usize + i) % vocab).collect();
        let mut g = Graph::new();
        let tv = emb.forward(&mut g, &ids);
        let mut e = EagerExec::new();
        let ev = emb.forward(&mut e, &ids);
        prop_assert!(g.value(tv).bit_identical(e.value(ev)));
    }
}
