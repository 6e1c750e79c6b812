use crate::{tensor::PAR_MIN_ELEMS, Tensor};

/// Geometry of a 2-D pooling window (square, non-padded).
///
/// # Example
///
/// ```
/// use qn_tensor::PoolSpec;
///
/// let spec = PoolSpec::new(2, 2);
/// assert_eq!(spec.output_hw(8, 8), (4, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window side length.
    pub window: usize,
    /// Stride in both directions.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pooling spec.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0`.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        PoolSpec { window, stride }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    ///
    /// Panics if the input is smaller than the window.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.window && w >= self.window,
            "input {h}x{w} smaller than window {}",
            self.window
        );
        (
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        )
    }
}

/// The largest value of window `(oy, ox)` of one `w`-wide `plane`, and its
/// index in the plane: the first tap holding it, or the window's first tap
/// when every tap is `−∞`. A NaN propagates: the first NaN tap wins, with
/// its own bits.
#[inline(always)]
fn window_max(plane: &[f32], w: usize, (oy, ox): (usize, usize), spec: PoolSpec) -> (f32, usize) {
    let first = oy * spec.stride * w + ox * spec.stride;
    let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
    for ky in 0..spec.window {
        for kx in 0..spec.window {
            let idx = first + ky * w + kx;
            let v = plane[idx];
            if v > best {
                (best, best_idx) = (v, idx);
            } else if v.is_nan() {
                return (v, idx);
            }
        }
    }
    (best, best_idx)
}

/// Max pooling over `[B, C, H, W]` into a caller-provided buffer of
/// `B·C·OH·OW` elements (fully overwritten). A window holding a NaN pools
/// to its first NaN tap, so a diverged activation stays visible; a window
/// of `−∞` taps pools to `−∞`.
///
/// # Panics
///
/// Panics if `input` is not 4-D, smaller than the window, or `dst` has the
/// wrong length.
pub fn max_pool2d_into(dst: &mut [f32], input: &Tensor, spec: PoolSpec) {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        dst.len(),
        b * c * oh * ow,
        "max_pool2d_into length mismatch"
    );
    let data = input.data();
    // One unit per (batch, channel) plane: identical per-plane results at
    // any thread count.
    qn_parallel::par_chunks_mut_min(dst, oh * ow, PAR_MIN_ELEMS, |p, out_plane| {
        let plane = &data[p * h * w..(p + 1) * h * w];
        for (o, v) in out_plane.iter_mut().enumerate() {
            *v = window_max(plane, w, (o / ow, o % ow), spec).0;
        }
    });
}

/// Backward pass of max pooling over the `[B, C, H, W]` input `x`: routes
/// each output gradient of `grad` (`[B, C, OH, OW]`) to its window's winner
/// — the first NaN tap if the window holds one, else the first tap holding
/// the maximum, or the window's first tap when every tap is `−∞` —
/// accumulating in output order.
///
/// # Panics
///
/// Panics if `grad`'s dims are not the pooled dims of `x`.
pub fn max_pool2d_backward(grad: &Tensor, x: &Tensor, spec: PoolSpec) -> Tensor {
    let (b, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(grad.dims4(), (b, c, oh, ow), "grad geometry mismatch");
    let mut out = Tensor::zeros(&[b, c, h, w]);
    let (data, gdata) = (x.data(), grad.data());
    // Windows route only within their own plane, so the scatter
    // parallelizes over planes with the in-plane order unchanged.
    qn_parallel::par_chunks_mut_min(out.data_mut(), h * w, PAR_MIN_ELEMS, |p, out_plane| {
        let plane = &data[p * h * w..(p + 1) * h * w];
        for (o, &g) in gdata[p * oh * ow..(p + 1) * oh * ow].iter().enumerate() {
            out_plane[window_max(plane, w, (o / ow, o % ow), spec).1] += g;
        }
    });
    out
}

/// Average pooling over `[B, C, H, W]`.
///
/// # Panics
///
/// Panics if `input` is not 4-D or smaller than the window.
pub fn avg_pool2d(input: &Tensor, spec: PoolSpec) -> Tensor {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = Tensor::zeros(&[b, c, oh, ow]);
    avg_pool2d_into(out.data_mut(), input, spec);
    out
}

/// [`avg_pool2d`] into a caller-provided buffer of `B·C·OH·OW` elements
/// (fully overwritten). Bit-identical to the allocating version.
///
/// # Panics
///
/// Panics if `input` is not 4-D, smaller than the window, or `dst` has the
/// wrong length.
pub fn avg_pool2d_into(dst: &mut [f32], input: &Tensor, spec: PoolSpec) {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        dst.len(),
        b * c * oh * ow,
        "avg_pool2d_into length mismatch"
    );
    let norm = 1.0 / (spec.window * spec.window) as f32;
    let data = input.data();
    // Parallel over (batch, channel) planes; window sums stay sequential.
    qn_parallel::par_chunks_mut_min(dst, oh * ow, PAR_MIN_ELEMS, |plane, out_plane| {
        let img = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        acc += data[img + (oy * spec.stride + ky) * w + ox * spec.stride + kx];
                    }
                }
                out_plane[oy * ow + ox] = acc * norm;
            }
        }
    });
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Panics
///
/// Panics if `grad`'s spatial dims are inconsistent with the geometry.
pub fn avg_pool2d_backward(
    grad: &Tensor,
    spec: PoolSpec,
    input_dims: (usize, usize, usize, usize),
) -> Tensor {
    let (b, c, h, w) = input_dims;
    let (oh, ow) = spec.output_hw(h, w);
    let (gb, gc, goh, gow) = grad.dims4();
    assert_eq!((gb, gc, goh, gow), (b, c, oh, ow), "grad geometry mismatch");
    let mut out = Tensor::zeros(&[b, c, h, w]);
    let norm = 1.0 / (spec.window * spec.window) as f32;
    let gdata = grad.data();
    // Overlapping windows accumulate only within their own plane, so the
    // scatter parallelizes over (batch, channel) planes with the in-plane
    // accumulation order unchanged.
    qn_parallel::par_chunks_mut_min(out.data_mut(), h * w, PAR_MIN_ELEMS, |plane, out_plane| {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gdata[(plane * oh + oy) * ow + ox] * norm;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        out_plane[(oy * spec.stride + ky) * w + ox * spec.stride + kx] += g;
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn max_pool_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut y = [0.0f32; 4];
        max_pool2d_into(&mut y, &x, PoolSpec::new(2, 2));
        assert_eq!(y, [6.0, 8.0, 14.0, 16.0]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let back = max_pool2d_backward(&g, &x, PoolSpec::new(2, 2));
        let mut want = [0.0f32; 16];
        (want[5], want[7], want[13], want[15]) = (1.0, 2.0, 3.0, 4.0);
        assert_eq!(back.data(), &want);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let g = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]).unwrap();
        let back = max_pool2d_backward(&g, &x, PoolSpec::new(2, 2));
        assert_eq!(back.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_backward_keeps_an_all_neg_inf_window_in_its_plane() {
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, ninf, ninf, ninf, ninf],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let mut y = [0.0f32; 2];
        max_pool2d_into(&mut y, &x, PoolSpec::new(2, 2));
        assert_eq!(y, [4.0, ninf]);
        let g = Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1, 1]).unwrap();
        let back = max_pool2d_backward(&g, &x, PoolSpec::new(2, 2));
        assert_eq!(back.data(), &[0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_propagates_the_first_nan_tap() {
        // one 2×2 window per plane: NaN first, NaN after a larger value,
        // NaN in a window of −∞, two NaNs (the first wins), and no NaN
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let nan2 = f32::from_bits(f32::NAN.to_bits() | 1);
        #[rustfmt::skip]
        let x = Tensor::from_vec(
            vec![
                nan, 1.0, 2.0, 3.0,
                7.0, 1.0, nan, 2.0,
                ninf, ninf, ninf, nan,
                5.0, nan2, 9.0, nan,
                1.0, 2.0, 9.0, 3.0,
            ],
            &[1, 5, 2, 2],
        )
        .unwrap();
        let mut y = [0.0f32; 5];
        max_pool2d_into(&mut y, &x, PoolSpec::new(2, 2));
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&[nan, nan, nan, nan2, 9.0]));
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[1, 5, 1, 1]).unwrap();
        let back = max_pool2d_backward(&g, &x, PoolSpec::new(2, 2));
        #[rustfmt::skip]
        let want = [
            1.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 2.0, 0.0,
            0.0, 0.0, 0.0, 3.0,
            0.0, 4.0, 0.0, 0.0,
            0.0, 0.0, 5.0, 0.0,
        ];
        assert_eq!(back.data(), &want);
    }

    #[test]
    fn max_pool_backward_accumulates_overlapping_windows() {
        // 2×2 windows at stride 1: the 9 wins both, so its gradients add
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 0.0, 0.0, 0.0], &[1, 1, 2, 3]).unwrap();
        let g = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]).unwrap();
        let back = max_pool2d_backward(&g, &x, PoolSpec::new(2, 1));
        assert_eq!(back.data(), &[0.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = avg_pool2d(&x, PoolSpec::new(2, 2));
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_spreads() {
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let back = avg_pool2d_backward(&g, PoolSpec::new(2, 2), (1, 1, 2, 2));
        assert_eq!(back.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_via_window() {
        let mut rng = Rng::seed_from(20);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let y = avg_pool2d(&x, PoolSpec::new(4, 4));
        assert_eq!(y.shape().dims(), &[2, 3, 1, 1]);
        for bi in 0..2 {
            for ci in 0..3 {
                let manual = x.slice_axis(0, bi, bi + 1).slice_axis(1, ci, ci + 1).mean();
                assert!((y.get(&[bi, ci, 0, 0]) - manual).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn avg_pool_adjoint_property() {
        let mut rng = Rng::seed_from(21);
        let dims = (2usize, 2usize, 6usize, 6usize);
        let spec = PoolSpec::new(2, 2);
        let x = Tensor::randn(&[dims.0, dims.1, dims.2, dims.3], &mut rng);
        let y = avg_pool2d(&x, spec);
        let g = Tensor::randn(y.shape().dims(), &mut rng);
        let lhs = y.dot(&g);
        let rhs = x.dot(&avg_pool2d_backward(&g, spec, dims));
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn pool_window_too_large_panics() {
        PoolSpec::new(4, 1).output_hw(3, 3);
    }
}
