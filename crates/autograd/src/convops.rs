//! The convolution's backward pass.

use qn_tensor::{col2im, gemm, im2col, Conv2dSpec, MatMut, MatRef, Tensor};

/// Gradients `[dx, dW]` of `y = conv2d(x, W)` (`[B, OC, OH, OW]`) from
/// `g = ∂L/∂y`, with the arithmetic and order of the primitive chain the
/// convolution lowers to — `im2col` → `matmul_transb` with `W` as
/// `[OC, C·K·K]` → `permute` to NCHW — so each gradient has the chain's
/// bits: the inverse permute, `dcols = g·W` and `dW = gᵀ·cols` with `cols`
/// rebuilt by `im2col`, then `dx = col2im(dcols)`.
pub(crate) fn conv2d_backward(g: Tensor, x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Vec<Tensor> {
    let (b, oc, oh, ow) = g.dims4();
    let rows = b * oh * ow;
    let g = g
        .permute(&[0, 2, 3, 1])
        .into_reshaped(&[rows, oc])
        .expect("conv output shape consistent");
    let cols = im2col(x, spec);
    let patch = cols.dims2().1;
    let mut dcols = Tensor::zeros(&[rows, patch]);
    gemm(
        MatMut::new(dcols.data_mut(), rows, patch),
        g.mat(),
        MatRef::new(w.data(), oc, patch),
    );
    let dw = g
        .matmul_transa(&cols)
        .into_reshaped(w.shape().dims())
        .expect("weight shape consistent");
    vec![col2im(&dcols, spec, x.dims4()), dw]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gradcheck, Exec, Graph};
    use qn_tensor::PoolSpec;
    use qn_tensor::Rng;

    #[test]
    fn conv2d_gradcheck_input_and_weight() {
        let mut rng = Rng::seed_from(7);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng).scale(0.5);
        let wc = w.clone();
        assert!(gradcheck(
            move |g, v| {
                let wv = g.leaf(wc.clone());
                let y = g.conv2d(v, wv, spec);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
        let xc = x.clone();
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let y = g.conv2d(xv, v, spec);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &w,
            1e-2,
            3e-2
        ));
    }

    #[test]
    fn strided_conv_shapes() {
        let mut rng = Rng::seed_from(8);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[1, 2, 8, 8], &mut rng));
        let w = g.leaf(Tensor::randn(&[4, 2, 3, 3], &mut rng));
        let y = g.conv2d(x, w, Conv2dSpec::new(3, 2, 1));
        assert_eq!(g.value(y).shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn max_pool_gradcheck() {
        let rng = Rng::seed_from(9);
        // well-separated values so the argmax does not flip under perturbation
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 7.3) % 11.0);
        let _ = rng;
        assert!(gradcheck(
            |g, v| {
                let y = g.max_pool2d(v, PoolSpec::new(2, 2));
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-3,
            2e-2
        ));
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = Rng::seed_from(10);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let y = g.avg_pool2d(v, PoolSpec::new(2, 2));
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn global_avg_pool_shape_and_value() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[2, 3, 4, 4]));
        let y = g.global_avg_pool(x);
        assert_eq!(g.value(y).shape().dims(), &[2, 3]);
        assert!(g.value(y).allclose(&Tensor::ones(&[2, 3]), 1e-6));
    }

    #[test]
    fn im2col_gradcheck() {
        let mut rng = Rng::seed_from(11);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let cols = g.im2col(v, Conv2dSpec::new(3, 1, 1));
                let sq = g.square(cols);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
    }
}
