//! The eager quadratic layer against the tape, bit for bit.
//!
//! `EagerExec` runs `Exec::quadratic_neurons` as one GEMM against each
//! neuron's stacked `[wⱼ; Qⱼ]` rows plus one in-place epilogue pass; the
//! tape runs the op's default decomposition (`x·Qᵀ`, `x·Wᵀ`,
//! `weighted_square_sum`, `add_bcast`, `add`, `interleave_last`). The
//! convolutional form runs `Exec::quadratic_conv2d`: eagerly the same
//! stacked product on patches read straight from the image, stored into
//! the output planes and finished plane by plane; on the tape im2col, the
//! decomposition above and `rows_to_nchw`. The two must agree in every bit
//! at every SIMD level, at the pool's width and on one thread, with NaN,
//! ±∞ and −0.0 in the input. The dense shapes reach each path `gemm` can
//! take for the stacked product: it packs only with ≥ 4 rows, ≥ 8 columns
//! and ≥ 2048 MACs, and splits row bands from 32768 MACs. The patch
//! operand packs at every shape, including fewer than 4 positions or 8
//! columns, and splits a batch across its images from 32768 MACs.
//! (`exec_equivalence.rs` compares bits on tiny random shapes only.) Own
//! integration binary because `force_level` is process-global.

use qn_autograd::{EagerExec, Graph};
use qn_core::neurons::{EfficientQuadraticConv2d, EfficientQuadraticLinear, PatchConv2d};
use qn_nn::Module;
use qn_tensor::{Conv2dSpec, Rng, Tensor};
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn taped(layer: &dyn Module, x: &Tensor) -> Tensor {
    let mut g = Graph::new();
    let xv = g.leaf(x.clone());
    let y = layer.forward(&mut g, xv);
    g.value(y).clone()
}

fn eager(layer: &dyn Module, x: &Tensor) -> Tensor {
    let mut e = EagerExec::new();
    let xv = e.leaf_view(x);
    let y = layer.forward(&mut e, xv);
    e.take(y)
}

/// NaN matches any NaN; every other value (signed zeros, infinities
/// included) must match bit for bit.
fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let same = if w.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == w.to_bits()
        };
        assert!(same, "{what}: element {i} is {g:e} eager vs {w:e} taped");
    }
}

/// Normal draws with −0.0 at every fifth element and one NaN, +∞ and −∞
/// each, so most rows stay finite.
fn edge_input(dims: &[usize], rng: &mut Rng) -> Tensor {
    let mut x = Tensor::randn(dims, rng);
    let d = x.data_mut();
    let len = d.len();
    for i in (0..len).step_by(5) {
        d[i] = -0.0;
    }
    for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        d[(7919 * i + 13) % len] = v;
    }
    x
}

/// A layer of `m` neurons of rank `k` over `n` inputs with normal factors
/// (so every product and λ term carries bits) and a −0.0 bias.
fn layer(
    n: usize,
    m: usize,
    k: usize,
    vectorized: bool,
    rng: &mut Rng,
) -> EfficientQuadraticLinear {
    let q = Tensor::randn(&[m * k, n], rng);
    let lambda = Tensor::randn(&[m, k], rng);
    let w = Tensor::randn(&[m, n], rng);
    let mut b = Tensor::randn(&[m], rng);
    b.data_mut()[0] = -0.0;
    EfficientQuadraticLinear::from_factors(q, lambda, w, b, vectorized)
}

/// Eager equals taped at every available SIMD level, with the pool at its
/// default width and capped to one thread.
fn check(layer: &dyn Module, x: &Tensor, what: &str) {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev_level = qn_simd::SimdLevel::active();
    for level in qn_simd::available_levels() {
        qn_simd::force_level(level);
        let want = taped(layer, x);
        assert!(
            want.data().iter().any(|v| v.is_nan()) && want.data().iter().any(|v| v.is_finite()),
            "{what}: the input should reach the output as NaN and finite values"
        );
        assert_same_bits(&eager(layer, x), &want, &format!("{what} at {level:?}"));
        let one = qn_parallel::with_max_threads(1, || eager(layer, x));
        assert_same_bits(&one, &want, &format!("{what} at {level:?}, one thread"));
    }
    qn_simd::force_level(prev_level);
}

/// `(rows, n, m, k)` of dense cases: the stacked product is
/// `[rows, n] × [n, m(k+1)]`.
const DENSE: [(usize, usize, usize, usize, &str); 7] = [
    (3, 27, 3, 9, "fallback: 3 rows"),
    (64, 36, 1, 2, "fallback: 3 columns"),
    (4, 16, 2, 3, "fallback: 512 MACs"),
    (8, 20, 4, 3, "one packed band, 16 columns"),
    (16, 24, 3, 3, "one packed band, 12 columns"),
    (64, 72, 3, 9, "packed row bands, 30 columns"),
    (33, 40, 5, 7, "packed row bands, 40 columns, ragged rows"),
];

#[test]
fn vectorized_linear_is_bit_identical_to_tape() {
    let mut rng = Rng::seed_from(1);
    for (rows, n, m, k, what) in DENSE {
        let l = layer(n, m, k, true, &mut rng);
        check(&l, &edge_input(&[rows, n], &mut rng), what);
    }
}

#[test]
fn scalar_output_linear_is_bit_identical_to_tape() {
    let mut rng = Rng::seed_from(2);
    for (rows, n, m, k, what) in DENSE {
        let l = layer(n, m, k, false, &mut rng);
        check(&l, &edge_input(&[rows, n], &mut rng), what);
    }
}

#[test]
fn sequence_input_is_bit_identical_to_tape() {
    // the transformer projections' shape: [B, T, d] with 4 neurons of k=7
    let mut rng = Rng::seed_from(3);
    for vectorized in [true, false] {
        let l = layer(32, 4, 7, vectorized, &mut rng);
        let x = edge_input(&[2, 5, 32], &mut rng);
        check(
            &l,
            &x,
            &format!("[2, 5, 32] input, vectorized {vectorized}"),
        );
    }
}

/// `(input dims, conv spec, filters, k, vectorized, what)` of a conv case.
type ConvCase = ([usize; 4], Conv2dSpec, usize, usize, bool, &'static str);

#[test]
fn conv_is_bit_identical_to_tape() {
    let mut rng = Rng::seed_from(4);
    // the eager op runs the stacked product on the patch operand, which
    // takes the packed path at every shape, with B·OH·OW patch rows and
    // m(k+1) columns
    let cases: [ConvCase; 9] = [
        (
            [1, 2, 5, 5],
            Conv2dSpec::new(3, 2, 1),
            1,
            2,
            true,
            "3 columns, 9 positions",
        ),
        (
            [2, 3, 6, 6],
            Conv2dSpec::new(3, 1, 1),
            2,
            5,
            true,
            "12 columns",
        ),
        (
            [2, 4, 8, 8],
            Conv2dSpec::new(3, 1, 1),
            3,
            9,
            true,
            "30 columns, split across images",
        ),
        (
            [1, 3, 32, 32],
            Conv2dSpec::new(3, 1, 1),
            1,
            2,
            true,
            "the serve model's 3-channel k=2 stem",
        ),
        (
            [1, 4, 9, 9],
            Conv2dSpec::new(3, 2, 1),
            2,
            3,
            true,
            "3x3 stride 2",
        ),
        (
            [3, 4, 6, 6],
            Conv2dSpec::new(1, 2, 0),
            2,
            3,
            true,
            "1x1 stride-2 projection",
        ),
        (
            [3, 2, 5, 7],
            Conv2dSpec::new(3, 1, 1),
            2,
            4,
            true,
            "batch 3 on a 5x7 image",
        ),
        (
            [2, 3, 6, 6],
            Conv2dSpec::new(3, 1, 1),
            3,
            4,
            false,
            "scalar output",
        ),
        (
            [1, 4, 9, 9],
            Conv2dSpec::new(3, 2, 1),
            2,
            3,
            false,
            "scalar output, 3x3 stride 2",
        ),
    ];
    for (dims, spec, filters, k, vectorized, what) in cases {
        let n = spec.patch_len(dims[1]);
        let conv: EfficientQuadraticConv2d =
            PatchConv2d::new(layer(n, filters, k, vectorized, &mut rng), dims[1], spec);
        check(&conv, &edge_input(&dims, &mut rng), &format!("conv {what}"));
    }
}
