//! The tape's two losses, and the row kernels of the eager softmax and
//! layer norm.

use crate::graph::{Graph, Var};
use crate::{Exec, PAR_MIN_ELEMS};
use qn_tensor::Tensor;

/// Accumulates one row's label-smoothed cross-entropy into `loss`:
/// `loss -= w · y_j · ln(max(p_j, 1e-12))` with `y_j = on` at the target and
/// `off` elsewhere. The shared inner loop of [`Graph::softmax_cross_entropy`]
/// and [`Graph::softmax_cross_entropy_weighted`]; `w = 1` multiplies
/// bit-exactly, so the unweighted loss is unchanged by sharing. Zero-weight
/// rows contribute nothing (masked padding).
fn ce_row_loss(loss: &mut f32, row: &[f32], t: usize, on: f32, off: f32, w: f32) {
    if w == 0.0 {
        return;
    }
    for (j, &p) in row.iter().enumerate() {
        let y = if j == t { on } else { off };
        if y > 0.0 {
            *loss -= w * y * p.max(1e-12).ln();
        }
    }
}

/// Rewrites one probability row into its cross-entropy gradient
/// `(p_j - y_j) · scale · w`; zero-weight rows zero out (their loss term was
/// skipped). Shared by both loss backward closures — `w = 1` multiplies
/// bit-exactly, matching the unweighted form.
fn ce_row_grad(row: &mut [f32], t: usize, on: f32, off: f32, scale: f32, w: f32) {
    if w == 0.0 {
        row.fill(0.0);
        return;
    }
    for (j, v) in row.iter_mut().enumerate() {
        let y = if j == t { on } else { off };
        *v = (*v - y) * scale * w;
    }
}

impl Graph {
    /// Fused softmax + cross-entropy loss over logits `[B, C]` with integer
    /// targets, optional label smoothing. Returns the mean loss as `[1]`.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not 2-D, `targets.len() != B`, or any target is
    /// out of range.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        targets: &[usize],
        label_smoothing: f32,
    ) -> Var {
        let (b, c) = self.value(logits).dims2();
        assert_eq!(
            targets.len(),
            b,
            "target count {} != batch {b}",
            targets.len()
        );
        for &t in targets {
            assert!(t < c, "target {t} out of range for {c} classes");
        }
        let probs = softmax(self.value(logits));
        let eps = label_smoothing;
        let off = eps / c as f32;
        let on = 1.0 - eps + off;
        let mut loss = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            ce_row_loss(
                &mut loss,
                &probs.data()[i * c..(i + 1) * c],
                t,
                on,
                off,
                1.0,
            );
        }
        loss /= b as f32;
        let targets = targets.to_vec();
        let out = self
            .eager
            .leaf(Tensor::from_vec(vec![loss], &[1]).expect("scalar"));
        self.record(out, &[logits], move |g, _| {
            let scale = g.data()[0] / b as f32;
            let mut dx = probs;
            for (i, &t) in targets.iter().enumerate() {
                ce_row_grad(
                    &mut dx.data_mut()[i * c..(i + 1) * c],
                    t,
                    on,
                    off,
                    scale,
                    1.0,
                );
            }
            vec![dx]
        })
    }

    /// Per-position weighted softmax cross-entropy over logits `[B, C]`:
    /// the loss is `Σᵢ wᵢ·CE(logitsᵢ, targetᵢ) / Σᵢ wᵢ`. Zero weights mask
    /// padding positions in sequence models.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches, out-of-range targets, or if all weights
    /// are zero.
    pub fn softmax_cross_entropy_weighted(
        &mut self,
        logits: Var,
        targets: &[usize],
        weights: &[f32],
        label_smoothing: f32,
    ) -> Var {
        let (b, c) = self.value(logits).dims2();
        assert_eq!(
            targets.len(),
            b,
            "target count {} != batch {b}",
            targets.len()
        );
        assert_eq!(
            weights.len(),
            b,
            "weight count {} != batch {b}",
            weights.len()
        );
        let wsum: f32 = weights.iter().sum();
        assert!(wsum > 0.0, "all weights are zero");
        for &t in targets {
            assert!(t < c, "target {t} out of range for {c} classes");
        }
        let probs = softmax(self.value(logits));
        let eps = label_smoothing;
        let off = eps / c as f32;
        let on = 1.0 - eps + off;
        let mut loss = 0.0f32;
        for (i, (&t, &wi)) in targets.iter().zip(weights.iter()).enumerate() {
            ce_row_loss(&mut loss, &probs.data()[i * c..(i + 1) * c], t, on, off, wi);
        }
        loss /= wsum;
        let targets = targets.to_vec();
        let weights = weights.to_vec();
        let out = self
            .eager
            .leaf(Tensor::from_vec(vec![loss], &[1]).expect("scalar"));
        self.record(out, &[logits], move |g, _| {
            let scale = g.data()[0] / wsum;
            let mut dx = probs;
            for (i, (&t, &wi)) in targets.iter().zip(weights.iter()).enumerate() {
                ce_row_grad(
                    &mut dx.data_mut()[i * c..(i + 1) * c],
                    t,
                    on,
                    off,
                    scale,
                    wi,
                );
            }
            vec![dx]
        })
    }
}

/// Layer norm into a caller-provided (slot-recycled) buffer — the parallel
/// per-row kernel of the eager op. Fully overwrites `dst`; the tape's
/// backward recomputes `x̂` and `1/σ` with the same expressions.
pub(crate) fn layer_norm_infer_into(
    dst: &mut [f32],
    xv: &Tensor,
    gv: &Tensor,
    bv: &Tensor,
    eps: f32,
) {
    let d = *xv.shape().dims().last().expect("non-empty shape");
    assert_eq!(gv.numel(), d, "gamma width {} != {d}", gv.numel());
    assert_eq!(bv.numel(), d, "beta width {} != {d}", bv.numel());
    assert_eq!(
        dst.len(),
        xv.numel(),
        "layer_norm_infer_into length mismatch"
    );
    // rows are independent, so normalize them in parallel (bit-identical
    // at any thread count)
    qn_parallel::par_chunks_mut_min(dst, d.max(1), PAR_MIN_ELEMS, |r, orow| {
        let base = r * d;
        let row = &xv.data()[base..base + d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + eps).sqrt();
        for (j, o) in orow.iter_mut().enumerate() {
            *o = (row[j] - mean) * istd * gv.data()[j] + bv.data()[j];
        }
    });
}

/// Normalizes each `last`-wide row of `data` in place with the stable
/// softmax — the kernel of the eager `softmax_last` and of the losses.
pub(crate) fn softmax_rows_inplace(data: &mut [f32], last: usize) {
    qn_parallel::par_chunks_mut_min(data, last.max(1), PAR_MIN_ELEMS, |_, row| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    });
}

/// Stable softmax over the rows of `[B, C]` logits — the probabilities
/// both losses derive their value and gradient from.
fn softmax(logits: &Tensor) -> Tensor {
    let mut probs = logits.clone();
    softmax_rows_inplace(probs.data_mut(), logits.dims2().1);
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use qn_tensor::Rng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[4, 7], &mut rng).scale(3.0);
        let p = softmax(&x);
        for r in 0..4 {
            let s: f32 = p.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.min() >= 0.0);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let shifted = x.add_scalar(100.0);
        assert!(softmax(&x).allclose(&softmax(&shifted), 1e-5));
    }

    #[test]
    fn softmax_gradcheck() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[3, 5], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let p = g.softmax_last(v);
                let sq = g.square(p);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn cross_entropy_known_value() {
        // two logits, uniform -> loss = ln 2
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[1, 2]));
        let l = g.softmax_cross_entropy(x, &[0], 0.0);
        assert!((g.value(l).data()[0] - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[4, 6], &mut rng);
        assert!(gradcheck(
            |g, v| g.softmax_cross_entropy(v, &[1, 0, 5, 3], 0.0),
            &x,
            1e-2,
            2e-2
        ));
        // with label smoothing
        assert!(gradcheck(
            |g, v| g.softmax_cross_entropy(v, &[1, 0, 5, 3], 0.1),
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn cross_entropy_decreases_with_confidence() {
        let mut g = Graph::new();
        let weak = g.leaf(Tensor::from_vec(vec![0.1, 0.0], &[1, 2]).unwrap());
        let strong = g.leaf(Tensor::from_vec(vec![5.0, 0.0], &[1, 2]).unwrap());
        let lw = g.softmax_cross_entropy(weak, &[0], 0.0);
        let ls = g.softmax_cross_entropy(strong, &[0], 0.0);
        assert!(g.value(ls).data()[0] < g.value(lw).data()[0]);
    }

    #[test]
    fn weighted_cross_entropy_masks_padding() {
        let mut rng = Rng::seed_from(11);
        let x = Tensor::randn(&[4, 5], &mut rng);
        // weights zero on rows 1 and 3: loss must equal the 2-row loss
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let lw = g.softmax_cross_entropy_weighted(v, &[1, 0, 2, 3], &[1.0, 0.0, 1.0, 0.0], 0.0);
        let kept = Tensor::concat(&[&x.slice_axis(0, 0, 1), &x.slice_axis(0, 2, 3)], 0);
        let mut g2 = Graph::new();
        let v2 = g2.leaf(kept);
        let l2 = g2.softmax_cross_entropy(v2, &[1, 2], 0.0);
        assert!((g.value(lw).data()[0] - g2.value(l2).data()[0]).abs() < 1e-5);
    }

    #[test]
    fn weighted_cross_entropy_gradcheck() {
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn(&[3, 4], &mut rng);
        assert!(gradcheck(
            |g, v| g.softmax_cross_entropy_weighted(v, &[0, 2, 1], &[1.0, 0.0, 2.0], 0.1),
            &x,
            1e-2,
            2e-2
        ));
        // grad of masked row must be zero
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let l = g.softmax_cross_entropy_weighted(v, &[0, 2, 1], &[1.0, 0.0, 2.0], 0.0);
        g.backward(l);
        let grad = g.grad(v).unwrap();
        for j in 0..4 {
            assert_eq!(grad.get(&[1, j]), 0.0);
        }
    }

    #[test]
    fn layer_norm_normalizes() {
        let mut rng = Rng::seed_from(5);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[3, 8], &mut rng).scale(4.0).add_scalar(2.0));
        let gamma = g.leaf(Tensor::ones(&[8]));
        let beta = g.leaf(Tensor::zeros(&[8]));
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        let yv = g.value(y);
        for r in 0..3 {
            let row = &yv.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layer_norm_gradcheck_all_inputs() {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let gamma = Tensor::rand_uniform(&[5], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[5], &mut rng);
        let (gc, bc) = (gamma.clone(), beta.clone());
        assert!(gradcheck(
            move |g, v| {
                let ga = g.leaf(gc.clone());
                let be = g.leaf(bc.clone());
                let y = g.layer_norm(v, ga, be, 1e-5);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
        let (xc, bc2) = (x.clone(), beta.clone());
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let be = g.leaf(bc2.clone());
                let y = g.layer_norm(xv, v, be, 1e-5);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &gamma,
            1e-2,
            3e-2
        ));
        let (xc2, gc2) = (x.clone(), gamma.clone());
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc2.clone());
                let ga = g.leaf(gc2.clone());
                let y = g.layer_norm(xv, ga, v, 1e-5);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &beta,
            1e-2,
            3e-2
        ));
    }

    #[test]
    fn batch_norm_training_normalizes_channels() {
        let mut rng = Rng::seed_from(7);
        let mut g = Graph::training(0);
        let x = g.leaf(
            Tensor::randn(&[4, 3, 5, 5], &mut rng)
                .scale(3.0)
                .add_scalar(-1.0),
        );
        let gamma = g.leaf(Tensor::ones(&[3]));
        let beta = g.leaf(Tensor::zeros(&[3]));
        let (y, stats) = g.batch_norm2d(
            x,
            gamma,
            beta,
            &Tensor::zeros(&[3]),
            &Tensor::ones(&[3]),
            1e-5,
        );
        assert!(stats.is_some());
        let yv = g.value(y);
        // per-channel mean ~0, var ~1
        let (b, c, h, w) = yv.dims4();
        for ci in 0..c {
            let mut vals = Vec::new();
            for bi in 0..b {
                for p in 0..h * w {
                    vals.push(yv.data()[(bi * c + ci) * h * w + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn batch_norm_inference_uses_running_stats() {
        let mut g = Graph::new(); // inference
        let x = g.leaf(Tensor::full(&[1, 2, 2, 2], 3.0));
        let gamma = g.leaf(Tensor::ones(&[2]));
        let beta = g.leaf(Tensor::zeros(&[2]));
        let rm = Tensor::from_vec(vec![1.0, 3.0], &[2]).unwrap();
        let rv = Tensor::from_vec(vec![4.0, 1.0], &[2]).unwrap();
        let (y, stats) = g.batch_norm2d(x, gamma, beta, &rm, &rv, 0.0);
        assert!(stats.is_none());
        let yv = g.value(y);
        assert!((yv.get(&[0, 0, 0, 0]) - 1.0).abs() < 1e-4); // (3-1)/2
        assert!(yv.get(&[0, 1, 0, 0]).abs() < 1e-4); // (3-3)/1
    }

    #[test]
    fn batch_norm_training_gradcheck() {
        let mut rng = Rng::seed_from(8);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let gamma = g.leaf(Tensor::from_vec(vec![1.2, 0.7], &[2]).unwrap());
                let beta = g.leaf(Tensor::from_vec(vec![0.1, -0.2], &[2]).unwrap());
                let (y, _) = g.batch_norm2d(
                    v,
                    gamma,
                    beta,
                    &Tensor::zeros(&[2]),
                    &Tensor::ones(&[2]),
                    1e-5,
                );
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            5e-2
        ));
    }

    #[test]
    fn embedding_forward_and_scatter_backward() {
        let mut g = Graph::new();
        let w = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap());
        let e = g.embedding(w, &[2, 0, 2]);
        assert_eq!(g.value(e).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.sum_all(e);
        g.backward(s);
        // row 2 used twice -> grad 2, row 0 once -> 1, row 1 unused -> 0
        assert_eq!(g.grad(w).unwrap().data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[4, 4], &mut rng);
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let y = g.dropout(v, 0.5);
        assert!(g.value(y).allclose(&x, 0.0));
    }

    #[test]
    fn dropout_training_preserves_expectation() {
        let x = Tensor::ones(&[100, 100]);
        let mut g = Graph::training(13);
        let v = g.leaf(x);
        let y = g.dropout(v, 0.3);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // zeros really appear
        assert!(g.value(y).min() == 0.0);
    }
}
