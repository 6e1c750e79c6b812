//! Batched-matrix products: the eager `bmm` kernel and the two products of
//! its backward pass.
//!
//! Everything here routes through the shared `qn-tensor` [`gemm`] core: the
//! batch dimension is a loop of zero-copy [`MatRef`] subslices, and the
//! backward products pass stride-transposed views instead of materializing
//! (or hand-rolling) transposed kernels. That gives all of them the core's
//! guarantees for free — bit-identical results at any thread count and
//! IEEE-754 propagation (`0 × NaN` is NaN).

use qn_tensor::{gemm_batched, MatRef, Tensor};

/// Validated `(N, M, K, P)` dims of a `[N, M, K] × [N, K, P]` batched
/// product.
pub(crate) fn bmm_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(a.ndim(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.ndim(), 3, "bmm rhs must be 3-D");
    let (n, m, k) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let (n2, k2, p) = (b.shape().dim(0), b.shape().dim(1), b.shape().dim(2));
    assert_eq!(n, n2, "bmm batch dims differ: {n} vs {n2}");
    assert_eq!(k, k2, "bmm inner dims differ: {k} vs {k2}");
    (n, m, k, p)
}

/// `[N, M, K] × [N, K, P] -> [N, M, P]` into a caller-provided
/// (slot-recycled) buffer of `N·M·P` elements, fully overwritten: one
/// zero-copy `MatRef` subslice pair per batch element. Bit-identical at any
/// thread count; `0 × NaN` propagates.
pub(crate) fn bmm_forward_into(dst: &mut [f32], a: &Tensor, b: &Tensor) {
    let (n, m, k, p) = bmm_dims(a, b);
    let (ad, bd) = (a.data(), b.data());
    gemm_batched(
        dst,
        n,
        m,
        p,
        k,
        |ni| MatRef::new(&ad[ni * m * k..(ni + 1) * m * k], m, k),
        |ni| MatRef::new(&bd[ni * k * p..(ni + 1) * k * p], k, p),
    );
}

/// `g [N, M, P] × bᵀ [N, P, K]` per batch: returns `[N, M, K]`. The
/// per-batch transpose of `b` is a stride swap, not a copy.
pub(crate) fn bmm_transb(g: &Tensor, b: &Tensor) -> Tensor {
    let (n, k, p) = (b.shape().dim(0), b.shape().dim(1), b.shape().dim(2));
    let m = g.shape().dim(1);
    let mut out = vec![0.0f32; n * m * k];
    let (gd, bd) = (g.data(), b.data());
    gemm_batched(
        &mut out,
        n,
        m,
        k,
        p,
        |ni| MatRef::new(&gd[ni * m * p..(ni + 1) * m * p], m, p),
        |ni| MatRef::new(&bd[ni * k * p..(ni + 1) * k * p], k, p).transpose(),
    );
    Tensor::from_vec(out, &[n, m, k]).expect("bmm shape consistent")
}

/// `aᵀ [N, K, M] × g [N, M, P]` per batch: returns `[N, K, P]`. The
/// per-batch transpose of `a` is a stride swap, not a copy.
pub(crate) fn bmm_transa(a: &Tensor, g: &Tensor) -> Tensor {
    let (n, m, k) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let p = g.shape().dim(2);
    let mut out = vec![0.0f32; n * k * p];
    let (ad, gd) = (a.data(), g.data());
    gemm_batched(
        &mut out,
        n,
        k,
        p,
        m,
        |ni| MatRef::new(&ad[ni * m * k..(ni + 1) * m * k], m, k).transpose(),
        |ni| MatRef::new(&gd[ni * m * p..(ni + 1) * m * p], m, p),
    );
    Tensor::from_vec(out, &[n, k, p]).expect("bmm shape consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gradcheck, Exec, Graph};
    use qn_tensor::Rng;

    #[test]
    fn matmul_forward_matches_tensor() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 5], &mut rng);
        let mut g = Graph::new();
        let av = g.leaf(a.clone());
        let bv = g.leaf(b.clone());
        let c = g.matmul(av, bv);
        assert!(g.value(c).allclose(&a.matmul(&b), 1e-5));
    }

    #[test]
    fn matmul_gradcheck_both_sides() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        let bc = b.clone();
        assert!(gradcheck(
            move |g, v| {
                let bv = g.leaf(bc.clone());
                let y = g.matmul(v, bv);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &a,
            1e-2,
            2e-2
        ));
        let ac = a.clone();
        assert!(gradcheck(
            move |g, v| {
                let av = g.leaf(ac.clone());
                let y = g.matmul(av, v);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &b,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn matmul_transb_equals_explicit_transpose() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let w = Tensor::randn(&[5, 4], &mut rng); // [out, in]
        let mut g = Graph::new();
        let av = g.leaf(a.clone());
        let wv = g.leaf(w.clone());
        let y = g.matmul_transb(av, wv);
        assert!(g.value(y).allclose(&a.matmul(&w.transpose2()), 1e-5));
    }

    #[test]
    fn matmul_transb_gradcheck() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(&[2, 3], &mut rng);
        let w = Tensor::randn(&[4, 3], &mut rng);
        let wc = w.clone();
        assert!(gradcheck(
            move |g, v| {
                let wv = g.leaf(wc.clone());
                let y = g.matmul_transb(v, wv);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &a,
            1e-2,
            2e-2
        ));
        let ac = a.clone();
        assert!(gradcheck(
            move |g, v| {
                let av = g.leaf(ac.clone());
                let y = g.matmul_transb(av, v);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &w,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(&[3, 2, 4], &mut rng);
        let b = Tensor::randn(&[3, 4, 5], &mut rng);
        let mut out = vec![0.0f32; 3 * 2 * 5];
        bmm_forward_into(&mut out, &a, &b);
        let out = Tensor::from_vec(out, &[3, 2, 5]).unwrap();
        for ni in 0..3 {
            let ai = a.slice_axis(0, ni, ni + 1).reshape(&[2, 4]).unwrap();
            let bi = b.slice_axis(0, ni, ni + 1).reshape(&[4, 5]).unwrap();
            let oi = out.slice_axis(0, ni, ni + 1).reshape(&[2, 5]).unwrap();
            assert!(oi.allclose(&ai.matmul(&bi), 1e-5));
        }
    }

    #[test]
    fn bmm_gradcheck() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        let b = Tensor::randn(&[2, 4, 2], &mut rng);
        let bc = b.clone();
        assert!(gradcheck(
            move |g, v| {
                let bv = g.leaf(bc.clone());
                let y = g.bmm(v, bv);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &a,
            1e-2,
            2e-2
        ));
        let ac = a.clone();
        assert!(gradcheck(
            move |g, v| {
                let av = g.leaf(ac.clone());
                let y = g.bmm(av, v);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &b,
            1e-2,
            2e-2
        ));
    }

    #[test]
    #[should_panic(expected = "batch dims differ")]
    fn bmm_batch_mismatch_panics() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[2, 2, 2]));
        let b = g.leaf(Tensor::zeros(&[3, 2, 2]));
        g.bmm(a, b);
    }
}
