//! Regression tests for the zero-skip matmul bug: a `0.0` coefficient used
//! to skip its RHS row unconditionally, so `0 × NaN` silently produced
//! `0.0` instead of propagating the NaN — divergence could hide inside any
//! product with structural zeros (ReLU outputs, zero-padded im2col rows).
//!
//! All three matmul variants now route through the shared packed GEMM core
//! (`qn_tensor::gemm`), which never skips a zero coefficient —
//! IEEE-754-exact: these tests pin the propagation behaviour for all three
//! entry points.

use qn_tensor::Tensor;

fn t(data: &[f32], dims: &[usize]) -> Tensor {
    Tensor::from_vec(data.to_vec(), dims).expect("test tensor")
}

#[test]
fn matmul_zero_times_nan_is_nan() {
    // a = [[0.0]], b = [[NaN]]: IEEE-754 says 0 × NaN = NaN.
    let a = t(&[0.0], &[1, 1]);
    let b = t(&[f32::NAN], &[1, 1]);
    assert!(a.matmul(&b).data()[0].is_nan(), "0 × NaN must be NaN");
}

#[test]
fn matmul_zero_times_infinity_is_nan() {
    let a = t(&[0.0], &[1, 1]);
    for inf in [f32::INFINITY, f32::NEG_INFINITY] {
        let b = t(&[inf], &[1, 1]);
        assert!(a.matmul(&b).data()[0].is_nan(), "0 × ∞ must be NaN");
    }
}

#[test]
fn matmul_nan_propagates_only_through_its_column() {
    // a = [[0, 1]], b = [[NaN, 7], [2, 3]]: row 0 of b carries a NaN in
    // column 0 only, and its coefficient is 0. The NaN must reach out[0,0]
    // (0 × NaN) while out[0,1] stays finite (0 × 7 + 1 × 3 = 3).
    let a = t(&[0.0, 1.0], &[1, 2]);
    let b = t(&[f32::NAN, 7.0, 2.0, 3.0], &[2, 2]);
    let c = a.matmul(&b);
    assert!(c.data()[0].is_nan(), "NaN column must contaminate");
    assert_eq!(c.data()[1], 3.0, "finite column must stay exact");
}

#[test]
fn matmul_zero_skip_still_exact_on_finite_rows() {
    // b row 0 = [5, 6] is finite (zero coefficients may skip it); b row 1 =
    // [NaN, 8] is not (its zero coefficients must still multiply through).
    let a = t(&[0.0, 1.0, 0.0, 0.0], &[2, 2]);
    let b = t(&[5.0, 6.0, f32::NAN, 8.0], &[2, 2]);
    let c = a.matmul(&b);
    assert!(c.get(&[0, 0]).is_nan()); // 0·5 + 1·NaN
    assert_eq!(c.get(&[0, 1]), 8.0); // 0·6 + 1·8 — NaN sits in column 0 only
    assert!(c.get(&[1, 0]).is_nan()); // 0·5 (skipped) + 0·NaN
    assert_eq!(c.get(&[1, 1]), 0.0); // 0·6 (skipped) + 0·8
}

#[test]
fn matmul_transa_zero_times_nan_is_nan() {
    // selfᵀ @ other with self = [[0]], other = [[NaN]].
    let a = t(&[0.0], &[1, 1]);
    let b = t(&[f32::NAN], &[1, 1]);
    assert!(a.matmul_transa(&b).data()[0].is_nan());
    let binf = t(&[f32::INFINITY], &[1, 1]);
    assert!(a.matmul_transa(&binf).data()[0].is_nan());
}

#[test]
fn matmul_transa_nan_row_reaches_zero_coefficient() {
    // self is [K=2, M=2]; self[1][0] = 0 pairs with other row 1 = [NaN, 4].
    let a = t(&[1.0, 2.0, 0.0, 3.0], &[2, 2]);
    let b = t(&[1.0, 1.0, f32::NAN, 4.0], &[2, 2]);
    let c = a.matmul_transa(&b);
    // out[0][0] = 1·1 + 0·NaN -> NaN; out[0][1] = 1·1 + 0·4 = 1.
    assert!(c.get(&[0, 0]).is_nan());
    assert_eq!(c.get(&[0, 1]), 1.0);
    // column 1 of self is dense, so NaN propagates normally there too.
    assert!(c.get(&[1, 0]).is_nan());
}

#[test]
fn matmul_transb_zero_times_nan_is_nan() {
    let a = t(&[0.0], &[1, 1]);
    let b = t(&[f32::NAN], &[1, 1]);
    assert!(a.matmul_transb(&b).data()[0].is_nan());
    let binf = t(&[f32::NEG_INFINITY], &[1, 1]);
    assert!(a.matmul_transb(&binf).data()[0].is_nan());
}

#[test]
fn matmul_transb_mixed_zero_and_nan() {
    // a = [[0, 2]], bᵀ rows: [NaN, 1] and [3, 4].
    // out[0][0] = 0·NaN + 2·1 -> NaN; out[0][1] = 0·3 + 2·4 = 8.
    let a = t(&[0.0, 2.0], &[1, 2]);
    let b = t(&[f32::NAN, 1.0, 3.0, 4.0], &[2, 2]);
    let c = a.matmul_transb(&b);
    assert!(c.data()[0].is_nan());
    assert_eq!(c.data()[1], 8.0);
}

#[test]
fn zero_width_rhs_with_zero_coefficients_yields_empty_product() {
    // Regression: zero coefficients over an RHS with zero columns (no
    // data) must not index out of bounds.
    let a = t(&[0.0, 1.0], &[1, 2]);
    let b = Tensor::zeros(&[2, 0]);
    assert_eq!(a.matmul(&b).shape().dims(), &[1, 0]);
    let at = t(&[0.0, 1.0], &[2, 1]);
    assert_eq!(at.matmul_transa(&b).shape().dims(), &[1, 0]);
}

#[test]
fn sparse_products_unchanged_for_finite_inputs() {
    // The corrected skip must not change any finite result: compare a
    // zero-heavy product against the dense definition.
    let a = t(&[0.0, 1.5, 0.0, 0.0, -2.0, 0.0], &[2, 3]);
    let b = t(&[1.0, 2.0, 0.0, -1.0, 3.0, 0.5], &[3, 2]);
    let c = a.matmul(&b);
    let mut expect = vec![0.0f32; 4];
    for i in 0..2 {
        for j in 0..2 {
            for p in 0..3 {
                expect[i * 2 + j] += a.get(&[i, p]) * b.get(&[p, j]);
            }
        }
    }
    assert_eq!(c.data(), expect.as_slice());
}
