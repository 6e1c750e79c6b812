//! Regression tests: non-finite values must propagate through the matmul
//! ops of **both** execution contexts (taped [`Graph`] and tape-free
//! [`EagerExec`]): the shared GEMM core never skips a zero coefficient.
//! Max pooling propagates a NaN tap too, forward and backward.

use qn_autograd::{EagerExec, Exec, Graph, Var};
use qn_tensor::{Conv2dSpec, PoolSpec, Tensor};

fn t(data: &[f32], dims: &[usize]) -> Tensor {
    Tensor::from_vec(data.to_vec(), dims).expect("test tensor")
}

/// Runs `f` on both contexts and returns both outputs.
fn both(f: impl Fn(&mut dyn Exec) -> Var) -> (Tensor, Tensor) {
    let mut g = Graph::new();
    let tv = f(&mut g);
    let mut e = EagerExec::new();
    let ev = f(&mut e);
    (g.value(tv).clone(), e.value(ev).clone())
}

#[test]
fn matmul_propagates_nan_in_both_contexts() {
    let a = t(&[0.0, 1.0], &[1, 2]);
    let b = t(&[f32::NAN, 7.0, 2.0, 3.0], &[2, 2]);
    let (taped, eager) = both(|cx| {
        let av = cx.leaf(a.clone());
        let bv = cx.leaf(b.clone());
        cx.matmul(av, bv)
    });
    for out in [&taped, &eager] {
        assert!(out.data()[0].is_nan(), "0 × NaN must be NaN");
        assert_eq!(out.data()[1], 3.0, "finite column must stay exact");
    }
}

#[test]
fn matmul_propagates_infinity_in_both_contexts() {
    let a = t(&[0.0], &[1, 1]);
    let b = t(&[f32::INFINITY], &[1, 1]);
    let (taped, eager) = both(|cx| {
        let av = cx.leaf(a.clone());
        let bv = cx.leaf(b.clone());
        cx.matmul(av, bv)
    });
    assert!(taped.data()[0].is_nan(), "0 × ∞ must be NaN");
    assert!(eager.data()[0].is_nan(), "0 × ∞ must be NaN");
}

#[test]
fn matmul_transb_propagates_nan_in_both_contexts() {
    let a = t(&[0.0, 2.0], &[1, 2]);
    let b = t(&[f32::NAN, 1.0, 3.0, 4.0], &[2, 2]);
    let (taped, eager) = both(|cx| {
        let av = cx.leaf(a.clone());
        let bv = cx.leaf(b.clone());
        cx.matmul_transb(av, bv)
    });
    for out in [&taped, &eager] {
        assert!(out.data()[0].is_nan());
        assert_eq!(out.data()[1], 8.0);
    }
}

#[test]
fn bmm_propagates_nan_in_both_contexts() {
    // batch 0: 0 × NaN; batch 1: finite sanity value.
    let a = t(&[0.0, 2.0], &[2, 1, 1]);
    let b = t(&[f32::NAN, 3.0], &[2, 1, 1]);
    let (taped, eager) = both(|cx| {
        let av = cx.leaf(a.clone());
        let bv = cx.leaf(b.clone());
        cx.bmm(av, bv)
    });
    for out in [&taped, &eager] {
        assert!(out.data()[0].is_nan(), "bmm must not swallow 0 × NaN");
        assert_eq!(out.data()[1], 6.0);
    }
}

#[test]
fn bmm_zero_skip_reinstated_stays_exact() {
    // A zero attention row over a *finite* value matrix must produce
    // exact zeros, while a zero row over a non-finite one must go NaN.
    let a = t(&[0.0, 0.0, 1.0, 2.0], &[1, 2, 2]); // row 0 is all zeros
    let b_fin = t(&[3.0, 4.0, 5.0, 6.0], &[1, 2, 2]);
    let b_nan = t(&[f32::NAN, 4.0, 5.0, 6.0], &[1, 2, 2]);
    let (taped, eager) = both(|cx| {
        let av = cx.leaf(a.clone());
        let bv = cx.leaf(b_fin.clone());
        cx.bmm(av, bv)
    });
    for out in [&taped, &eager] {
        assert_eq!(&out.data()[..2], &[0.0, 0.0], "skipped zeros stay exact");
        assert_eq!(&out.data()[2..], &[13.0, 16.0]);
    }
    let (taped, eager) = both(|cx| {
        let av = cx.leaf(a.clone());
        let bv = cx.leaf(b_nan.clone());
        cx.bmm(av, bv)
    });
    for out in [&taped, &eager] {
        assert!(out.data()[0].is_nan(), "0 × NaN must survive the skip");
        assert_eq!(out.data()[1], 0.0, "NaN sits in column 0 only");
    }
}

#[test]
fn conv2d_propagates_nan_in_both_contexts() {
    // A NaN pixel with an all-zero filter: the im2col product is 0 × NaN,
    // which must contaminate the output positions whose patch covers the
    // pixel — in the taped pipeline and the fused eager kernel alike.
    let mut x = Tensor::zeros(&[1, 1, 4, 4]);
    x.set(&[0, 0, 0, 0], f32::NAN);
    let w = Tensor::zeros(&[1, 1, 3, 3]);
    let spec = Conv2dSpec::new(3, 1, 0);
    let (taped, eager) = both(|cx| {
        let xv = cx.leaf(x.clone());
        let wv = cx.leaf(w.clone());
        cx.conv2d(xv, wv, spec)
    });
    for out in [&taped, &eager] {
        assert!(out.data()[0].is_nan(), "patch covering the NaN pixel");
        assert_eq!(out.data()[3], 0.0, "patches past the pixel stay exact");
    }
}

#[test]
fn max_pool_propagates_nan_in_both_contexts_and_backward() {
    // plane 0's window holds a NaN after its largest value, plane 1's
    // holds none: the NaN pools through, and the gradient goes to its tap
    let x = t(
        &[9.0, 1.0, f32::NAN, 2.0, 1.0, 4.0, 3.0, 2.0],
        &[1, 2, 2, 2],
    );
    let spec = PoolSpec::new(2, 2);
    let (taped, eager) = both(|cx| {
        let xv = cx.leaf(x.clone());
        cx.max_pool2d(xv, spec)
    });
    for out in [&taped, &eager] {
        assert!(out.data()[0].is_nan(), "a NaN tap must win its window");
        assert_eq!(out.data()[1], 4.0, "a window without NaN is unchanged");
    }
    let mut g = Graph::new();
    let xv = g.leaf(x.clone());
    let y = g.max_pool2d(xv, spec);
    let s = g.sum_all(y);
    g.backward(s);
    let dx = g.grad(xv).expect("grad reaches x");
    assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
}

#[test]
fn transa_in_backward_and_tensor_level() {
    // matmul_transa is not a forward Exec op; it runs inside every matmul
    // backward. Pin it at the Tensor level too, from this crate's contexts.
    let a = t(&[0.0, 1.0], &[2, 1]); // aᵀ = [0, 1]
    let b = t(&[f32::NAN, 2.0], &[2, 1]);
    assert!(a.matmul_transa(&b).data()[0].is_nan(), "0 × NaN via transa");
}

#[test]
fn backward_through_matmul_propagates_nan() {
    // The backward pass runs matmul_transa/matmul_transb: a NaN in the
    // upstream value must reach the gradients instead of being zero-masked.
    let mut g = Graph::new();
    let a = g.leaf(t(&[0.0, 1.0], &[1, 2]));
    let b = g.leaf(t(&[f32::NAN, 2.0], &[2, 1]));
    let y = g.matmul(a, b); // [1, 1] = 0·NaN + 1·2 -> NaN
    let s = g.sum_all(y);
    g.backward(s);
    let da = g.grad(a).expect("grad reaches a");
    assert!(
        da.data().iter().any(|v| v.is_nan()),
        "dA = g @ Bᵀ must carry the NaN"
    );
}
