//! The tape: `impl Exec for Graph`.
//!
//! Every op takes its value from the [`EagerExec`] op of the same name and
//! records a node whose backward closure reads the op's operands and output
//! from the arena when it runs, so no op copies a value for its closure.
//! Only the batch statistics, the dropout mask and the max-pool argmax are
//! computed here. The composites (`elemwise_chain`, `quadratic_neurons`,
//! `quadratic_conv2d`, `rows_to_nchw`, `weighted_square_sum`,
//! `interleave_last`) and `neg`, `mean_all` and `mean_axis` keep their
//! default decompositions, so the tape records the primitives they run;
//! `detached` keeps its default too, so its value is a leaf.

use crate::convops::conv2d_backward;
use crate::graph::{Graph, Var};
use crate::matops::{bmm_transa, bmm_transb};
use crate::{Exec, Parameter};
use qn_tensor::{avg_pool2d_backward, col2im, max_pool2d_backward, Conv2dSpec, PoolSpec, Tensor};

impl Exec for Graph {
    fn leaf(&mut self, t: Tensor) -> Var {
        Graph::leaf(self, t)
    }

    fn param(&mut self, p: &Parameter) -> Var {
        Graph::param(self, p)
    }

    fn value(&self, v: Var) -> &Tensor {
        Graph::value(self, v)
    }

    fn is_training(&self) -> bool {
        Graph::is_training(self)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.add(a, b);
        self.record(out, &[a, b], |g, _| vec![g.clone(), g])
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.sub(a, b);
        self.record(out, &[a, b], |g, _| {
            let db = g.neg();
            vec![g, db]
        })
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.mul(a, b);
        self.record(out, &[a, b], move |g, vals| {
            let da = g.mul(vals.value(b));
            let mut db = g;
            db.zip_inplace(vals.value(a), |gi, ai| gi * ai);
            vec![da, db]
        })
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        let out = self.eager.scale(a, s);
        self.record(out, &[a], move |mut g, _| {
            g.map_inplace(move |v| v * s);
            vec![g]
        })
    }

    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let out = self.eager.add_scalar(a, s);
        self.record(out, &[a], |g, _| vec![g])
    }

    fn square(&mut self, a: Var) -> Var {
        let out = self.eager.square(a);
        self.record(out, &[a], move |mut g, vals| {
            g.zip_inplace(vals.value(a), |gi, x| gi * x * 2.0);
            vec![g]
        })
    }

    fn powi(&mut self, a: Var, p: i32) -> Var {
        let out = self.eager.powi(a, p);
        self.record(out, &[a], move |mut g, vals| {
            g.zip_inplace(vals.value(a), |gi, x| gi * p as f32 * x.powi(p - 1));
            vec![g]
        })
    }

    fn relu(&mut self, a: Var) -> Var {
        let out = self.eager.relu(a);
        self.record(out, &[a], move |mut g, vals| {
            // fused mask: the derivative rewrites the incoming gradient in
            // place instead of allocating a masked copy
            g.zip_inplace(vals.value(a), |gi, x| if x > 0.0 { gi } else { 0.0 });
            vec![g]
        })
    }

    fn tanh(&mut self, a: Var) -> Var {
        let out = self.eager.tanh(a);
        self.record(out, &[a], move |mut g, vals| {
            g.zip_inplace(vals.value(out), |gi, y| gi * (1.0 - y * y));
            vec![g]
        })
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let out = self.eager.sigmoid(a);
        self.record(out, &[a], move |mut g, vals| {
            g.zip_inplace(vals.value(out), |gi, y| gi * y * (1.0 - y));
            vec![g]
        })
    }

    fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.add_bcast(a, b);
        self.record(out, &[a, b], move |g, vals| {
            let bv = vals.value(b);
            let mut db = vec![0.0f32; bv.numel()];
            for chunk in g.data().chunks(db.len()) {
                for (o, &x) in db.iter_mut().zip(chunk) {
                    *o += x;
                }
            }
            let db = Tensor::from_vec(db, bv.shape().dims()).expect("suffix shape consistent");
            vec![g, db]
        })
    }

    fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.mul_bcast(a, b);
        self.record(out, &[a, b], move |mut g, vals| {
            let (av, bv) = (vals.value(a), vals.value(b));
            let bl = bv.numel();
            // db reads the *original* gradient, so compute it first, then
            // rescale g in place for da
            let mut db = vec![0.0f32; bl];
            for (gchunk, achunk) in g.data().chunks(bl).zip(av.data().chunks(bl)) {
                for ((o, &gi), &ai) in db.iter_mut().zip(gchunk).zip(achunk) {
                    *o += gi * ai;
                }
            }
            for chunk in g.data_mut().chunks_mut(bl) {
                for (o, &x) in chunk.iter_mut().zip(bv.data()) {
                    *o *= x;
                }
            }
            let db = Tensor::from_vec(db, bv.shape().dims()).expect("suffix shape consistent");
            vec![g, db]
        })
    }

    fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        let out = self.eager.add_channel(a, bias);
        self.record(out, &[a, bias], |g, _| {
            let (b, c, h, w) = g.dims4();
            let mut db = vec![0.0f32; c];
            let hw = h * w;
            for bi in 0..b {
                for (ci, dbc) in db.iter_mut().enumerate() {
                    let base = (bi * c + ci) * hw;
                    *dbc += g.data()[base..base + hw].iter().sum::<f32>();
                }
            }
            let db = Tensor::from_vec(db, &[c]).expect("channel count consistent");
            vec![g, db]
        })
    }

    fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        let out = self.eager.mul_channel(a, scale);
        self.record(out, &[a, scale], move |mut g, vals| {
            let (av, sv) = (vals.value(a), vals.value(scale));
            let (b, c, h, w) = av.dims4();
            let hw = h * w;
            // ds reads the original gradient; compute it before the
            // in-place per-channel rescale that produces da
            let mut ds = vec![0.0f32; c];
            for bi in 0..b {
                for (ci, dsc) in ds.iter_mut().enumerate() {
                    let base = (bi * c + ci) * hw;
                    *dsc += g.data()[base..base + hw]
                        .iter()
                        .zip(&av.data()[base..base + hw])
                        .map(|(&gi, &ai)| gi * ai)
                        .sum::<f32>();
                }
            }
            for bi in 0..b {
                for ci in 0..c {
                    let base = (bi * c + ci) * hw;
                    let sc = sv.data()[ci];
                    for v in &mut g.data_mut()[base..base + hw] {
                        *v *= sc;
                    }
                }
            }
            let ds = Tensor::from_vec(ds, &[c]).expect("channel count consistent");
            vec![g, ds]
        })
    }

    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let out = self.eager.reshape(a, dims);
        self.record(out, &[a], move |g, vals| {
            let dims = vals.value(a).shape().dims();
            vec![g.into_reshaped(dims).expect("inverse reshape consistent")]
        })
    }

    fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        let out = self.eager.permute(a, axes);
        let mut inverse = vec![0usize; axes.len()];
        for (i, &ax) in axes.iter().enumerate() {
            inverse[ax] = i;
        }
        self.record(out, &[a], move |g, _| vec![g.permute(&inverse)])
    }

    fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        let out = self.eager.concat(parts, axis);
        let owned = parts.to_vec();
        self.record(out, parts, move |g, vals| {
            let mut start = 0usize;
            owned
                .iter()
                .map(|&p| {
                    let s = vals.value(p).shape().dim(axis);
                    start += s;
                    g.slice_axis(axis, start - s, start)
                })
                .collect()
        })
    }

    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        let out = self.eager.slice_axis(a, axis, start, end);
        self.record(out, &[a], move |g, vals| {
            // embed the slice gradient into a zero tensor of the full shape
            let full = vals.value(a).shape().dims();
            let mut parts: Vec<Tensor> = Vec::new();
            if start > 0 {
                let mut dims = full.to_vec();
                dims[axis] = start;
                parts.push(Tensor::zeros(&dims));
            }
            parts.push(g);
            if end < full[axis] {
                let mut dims = full.to_vec();
                dims[axis] = full[axis] - end;
                parts.push(Tensor::zeros(&dims));
            }
            let refs: Vec<&Tensor> = parts.iter().collect();
            vec![Tensor::concat(&refs, axis)]
        })
    }

    fn sum_all(&mut self, a: Var) -> Var {
        let out = self.eager.sum_all(a);
        self.record(out, &[a], move |g, vals| {
            vec![Tensor::full(vals.value(a).shape().dims(), g.data()[0])]
        })
    }

    fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let out = self.eager.sum_axis(a, axis);
        self.record(out, &[a], move |g, vals| {
            // broadcast g back along the removed axis
            let dims = vals.value(a).shape().dims();
            let outer: usize = dims[..axis].iter().product();
            let mid = dims[axis];
            let inner: usize = dims[axis + 1..].iter().product();
            let mut out = vec![0.0f32; outer * mid * inner];
            for o in 0..outer {
                for m in 0..mid {
                    let dst = (o * mid + m) * inner;
                    let src = o * inner;
                    out[dst..dst + inner].copy_from_slice(&g.data()[src..src + inner]);
                }
            }
            vec![Tensor::from_vec(out, dims).expect("shape consistent")]
        })
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.matmul(a, b);
        self.record(out, &[a, b], move |g, vals| {
            // dA = g @ Bᵀ ; dB = Aᵀ @ g
            let (av, bv) = (vals.value(a), vals.value(b));
            vec![g.matmul_transb(bv), av.matmul_transa(&g)]
        })
    }

    fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.matmul_transb(a, b);
        self.record(out, &[a, b], move |g, vals| {
            // y = a bᵀ : dA = g @ B ; dB = gᵀ @ A
            let (av, bv) = (vals.value(a), vals.value(b));
            vec![g.matmul(bv), g.matmul_transa(av)]
        })
    }

    fn bmm(&mut self, a: Var, b: Var) -> Var {
        let out = self.eager.bmm(a, b);
        self.record(out, &[a, b], move |g, vals| {
            let (av, bv) = (vals.value(a), vals.value(b));
            vec![bmm_transb(&g, bv), bmm_transa(av, &g)]
        })
    }

    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        let out = self.eager.im2col(x, spec);
        self.record(out, &[x], move |g, vals| {
            vec![col2im(&g, spec, vals.value(x).dims4())]
        })
    }

    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        let out = self.eager.conv2d(x, weight, spec);
        self.record(out, &[x, weight], move |g, vals| {
            conv2d_backward(g, vals.value(x), vals.value(weight), spec)
        })
    }

    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        let out = self.eager.max_pool2d(x, spec);
        self.record(out, &[x], move |g, vals| {
            vec![max_pool2d_backward(&g, vals.value(x), spec)]
        })
    }

    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        let out = self.eager.avg_pool2d(x, spec);
        self.record(out, &[x], move |g, vals| {
            vec![avg_pool2d_backward(&g, spec, vals.value(x).dims4())]
        })
    }

    fn global_avg_pool(&mut self, x: Var) -> Var {
        let out = self.eager.global_avg_pool(x);
        self.record(out, &[x], move |g, vals| {
            // the gradient of avg_pool2d over the whole map, then reshape
            let dims @ (b, c, h, _) = vals.value(x).dims4();
            let g = g
                .into_reshaped(&[b, c, 1, 1])
                .expect("pooled shape consistent");
            vec![avg_pool2d_backward(&g, PoolSpec::new(h, 1), dims)]
        })
    }

    fn softmax_last(&mut self, x: Var) -> Var {
        let out = self.eager.softmax_last(x);
        self.record(out, &[x], move |mut g, vals| {
            // dx = p ⊙ (g - sum(g ⊙ p, last)), rewriting g in place: each
            // row's sum is taken before any of its elements are overwritten
            let pv = vals.value(out);
            let last = pv.shape().dims().last().copied().unwrap_or(1);
            let pd = pv.data();
            let gd = g.data_mut();
            for row in 0..pd.len() / last {
                let base = row * last;
                let s: f32 = (0..last).map(|j| gd[base + j] * pd[base + j]).sum();
                for j in 0..last {
                    gd[base + j] = pd[base + j] * (gd[base + j] - s);
                }
            }
            vec![g]
        })
    }

    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let out = self.eager.layer_norm(x, gamma, beta, eps);
        self.record(out, &[x, gamma, beta], move |g, vals| {
            let (xv, gv) = (vals.value(x), vals.value(gamma));
            let d = gv.numel();
            let gd = g.data();
            let mut dgamma = vec![0.0f32; d];
            let mut dbeta = vec![0.0f32; d];
            let mut dx = vec![0.0f32; gd.len()];
            let mut xhat = vec![0.0f32; d];
            for (r, row) in xv.data().chunks(d).enumerate() {
                let base = r * d;
                // x̂ and 1/σ exactly as the forward computed them
                let mean = row.iter().sum::<f32>() / d as f32;
                let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                let istd = 1.0 / (var + eps).sqrt();
                for (xh, &v) in xhat.iter_mut().zip(row) {
                    *xh = (v - mean) * istd;
                }
                // accumulate affine grads
                for j in 0..d {
                    dgamma[j] += gd[base + j] * xhat[j];
                    dbeta[j] += gd[base + j];
                }
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for j in 0..d {
                    let dxh = gd[base + j] * gv.data()[j];
                    sum_dxhat += dxh;
                    sum_dxhat_xhat += dxh * xhat[j];
                }
                for j in 0..d {
                    let dxh = gd[base + j] * gv.data()[j];
                    dx[base + j] =
                        istd * (dxh - sum_dxhat / d as f32 - xhat[j] * sum_dxhat_xhat / d as f32);
                }
            }
            vec![
                Tensor::from_vec(dx, xv.shape().dims()).expect("shape consistent"),
                Tensor::from_vec(dgamma, &[d]).expect("width consistent"),
                Tensor::from_vec(dbeta, &[d]).expect("width consistent"),
            ]
        })
    }

    fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> (Var, Option<(Tensor, Tensor)>) {
        let training = self.is_training();
        let stats = training.then(|| batch_stats(self.value(x)));
        let (mean, var) = match &stats {
            Some((mean, var)) => (mean, var),
            None => (running_mean, running_var),
        };
        let (out, _) = self.eager.batch_norm2d(x, gamma, beta, mean, var, eps);
        let inv_std: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mean = mean.data().to_vec();
        let out = self.record(out, &[x, gamma, beta], move |g, vals| {
            let (xv, gv) = (vals.value(x), vals.value(gamma));
            let (b, c, h, w) = xv.dims4();
            let hw = h * w;
            let m = (b * hw) as f32;
            // x̂ exactly as the forward computed it
            let xhat = |base: usize, ci: usize| (xv.data()[base] - mean[ci]) * inv_std[ci];
            let gd = g.data();
            let mut dgamma = vec![0.0f32; c];
            let mut dbeta = vec![0.0f32; c];
            for bi in 0..b {
                for ci in 0..c {
                    let base = (bi * c + ci) * hw;
                    for j in 0..hw {
                        dgamma[ci] += gd[base + j] * xhat(base + j, ci);
                        dbeta[ci] += gd[base + j];
                    }
                }
            }
            let mut dx = vec![0.0f32; gd.len()];
            for (ci, &istd) in inv_std.iter().enumerate() {
                let gam = gv.data()[ci];
                let sum_dxhat = dbeta[ci] * gam;
                let sum_dxhat_xhat = dgamma[ci] * gam;
                for bi in 0..b {
                    let base = (bi * c + ci) * hw;
                    for j in 0..hw {
                        dx[base + j] = if training {
                            let dxh = gd[base + j] * gam;
                            istd * (dxh - sum_dxhat / m - xhat(base + j, ci) * sum_dxhat_xhat / m)
                        } else {
                            gd[base + j] * gam * istd
                        };
                    }
                }
            }
            vec![
                Tensor::from_vec(dx, &[b, c, h, w]).expect("shape consistent"),
                Tensor::from_vec(dgamma, &[c]).expect("width consistent"),
                Tensor::from_vec(dbeta, &[c]).expect("width consistent"),
            ]
        });
        (out, stats)
    }

    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        let out = self.eager.embedding(weight, ids);
        let ids = ids.to_vec();
        self.record(out, &[weight], move |g, vals| {
            // scatter-add each row's gradient into its token's weight row
            let (v, d) = vals.value(weight).dims2();
            let mut dw = Tensor::zeros(&[v, d]);
            for (row, &id) in ids.iter().enumerate() {
                let src = &g.data()[row * d..(row + 1) * d];
                let dst = &mut dw.data_mut()[id * d..(id + 1) * d];
                for (o, &x) in dst.iter_mut().zip(src) {
                    *o += x;
                }
            }
            vec![dw]
        })
    }

    fn dropout(&mut self, x: Var, p: f32) -> Var {
        // the eager op checks `p` and is the identity
        let x = self.eager.dropout(x, p);
        if !self.is_training() || p == 0.0 {
            return x;
        }
        let n = self.value(x).numel();
        let keep = 1.0 - p;
        let mask: Vec<f32> = (0..n)
            .map(|_| {
                if self.rng.chance(keep) {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::from_vec(mask, self.value(x).shape().dims()).expect("mask shape");
        let out = self.value(x).mul(&mask);
        let out = self.eager.leaf(out);
        self.record(out, &[x], move |mut g, _| {
            g.zip_inplace(&mask, |gi, m| gi * m);
            vec![g]
        })
    }
}

/// Per-channel batch mean and (biased) variance of `[B, C, H, W]`, each
/// summed plane by plane in batch order.
fn batch_stats(xv: &Tensor) -> (Tensor, Tensor) {
    let (b, c, h, w) = xv.dims4();
    let hw = h * w;
    let m = (b * hw) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for bi in 0..b {
        for (ci, mc) in mean.iter_mut().enumerate() {
            let base = (bi * c + ci) * hw;
            *mc += xv.data()[base..base + hw].iter().sum::<f32>();
        }
    }
    for v in &mut mean {
        *v /= m;
    }
    for bi in 0..b {
        for ci in 0..c {
            let base = (bi * c + ci) * hw;
            var[ci] += xv.data()[base..base + hw]
                .iter()
                .map(|&x| (x - mean[ci]) * (x - mean[ci]))
                .sum::<f32>();
        }
    }
    for v in &mut var {
        *v /= m;
    }
    (
        Tensor::from_vec(mean, &[c]).expect("width consistent"),
        Tensor::from_vec(var, &[c]).expect("width consistent"),
    )
}

/// Validates the suffix-broadcast contract and returns the number of leading
/// broadcast elements. Shared with the eager execution path.
pub(crate) fn bcast_lead(a: &Tensor, b: &Tensor) -> usize {
    let ad = a.shape().dims();
    let bd = b.shape().dims();
    assert!(
        bd.len() <= ad.len() && ad[ad.len() - bd.len()..] == *bd,
        "broadcast shape {:?} is not a trailing suffix of {:?}",
        bd,
        ad
    );
    ad[..ad.len() - bd.len()].iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use qn_tensor::Rng;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_sub_mul_forward() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0], &[2]));
        let b = g.leaf(t(&[3.0, 4.0], &[2]));
        let sum = g.add(a, b);
        assert_eq!(g.value(sum).data(), &[4.0, 6.0]);
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0], &[2]));
        let b = g.leaf(t(&[3.0, 4.0], &[2]));
        let d = g.sub(a, b);
        assert_eq!(g.value(d).data(), &[-2.0, -2.0]);
        let m = g.mul(a, b);
        assert_eq!(g.value(m).data(), &[3.0, 8.0]);
    }

    #[test]
    fn gradcheck_elementwise() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[3, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let y = g.square(v);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.tanh(v);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.sigmoid(v);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.powi(v, 3);
                g.sum_all(y)
            },
            &x,
            1e-2,
            5e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.scale(v, -2.5);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn gradcheck_relu_away_from_kink() {
        let mut rng = Rng::seed_from(2);
        // keep values away from 0 so finite differences are valid
        let x = Tensor::randn(&[3, 3], &mut rng).map(|v| if v.abs() < 0.2 { v + 0.5 } else { v });
        assert!(gradcheck(
            |g, v| {
                let y = g.relu(v);
                g.sum_all(y)
            },
            &x,
            1e-3,
            2e-2
        ));
    }

    #[test]
    fn add_bcast_forward_and_grad() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.leaf(t(&[10.0, 20.0], &[2]));
        let y = g.add_bcast(a, b);
        assert_eq!(g.value(y).data(), &[11.0, 22.0, 13.0, 24.0]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn mul_bcast_gradcheck_both_sides() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        let w = Tensor::randn(&[3, 4], &mut rng);
        let wc = w.clone();
        assert!(gradcheck(
            move |g, v| {
                let wv = g.leaf(wc.clone());
                let y = g.mul_bcast(v, wv);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        let xc = x.clone();
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let y = g.mul_bcast(xv, v);
                g.sum_all(y)
            },
            &w,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn channel_ops_grad() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 2, 2], &mut rng);
        let bias = Tensor::randn(&[3], &mut rng);
        let bc = bias.clone();
        assert!(gradcheck(
            move |g, v| {
                let b = g.leaf(bc.clone());
                let y = g.add_channel(v, b);
                let y2 = g.square(y);
                g.sum_all(y2)
            },
            &x,
            1e-2,
            2e-2
        ));
        let xc = x.clone();
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let y = g.mul_channel(xv, v);
                g.sum_all(y)
            },
            &bias,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn reshape_permute_grad_flow() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let r = g.reshape(v, &[6, 4]);
                let p = g.permute(r, &[1, 0]);
                let sq = g.square(p);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn concat_slice_grads() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0], &[1, 2]));
        let b = g.leaf(t(&[3.0, 4.0, 5.0], &[1, 3]));
        let c = g.concat(&[a, b], 1);
        assert_eq!(g.value(c).data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sl = g.slice_axis(c, 1, 1, 4);
        let sq = g.square(sl);
        let s = g.sum_all(sq);
        g.backward(s);
        // d/dx of x² over sliced [2, 3, 4]
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 4.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[6.0, 8.0, 0.0]);
    }

    #[test]
    fn sum_axis_grad() {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[3, 4, 2], &mut rng);
        for axis in 0..3 {
            assert!(
                gradcheck(
                    move |g, v| {
                        let s = g.sum_axis(v, axis);
                        let sq = g.square(s);
                        g.sum_all(sq)
                    },
                    &x,
                    1e-2,
                    3e-2
                ),
                "axis {axis}"
            );
        }
    }

    #[test]
    fn mean_ops() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[2.0, 4.0, 6.0, 8.0], &[2, 2]));
        let m = g.mean_all(a);
        assert!((g.value(m).data()[0] - 5.0).abs() < 1e-6);
        let ma = g.mean_axis(a, 0);
        assert_eq!(g.value(ma).data(), &[4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "trailing suffix")]
    fn bad_broadcast_panics() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[2, 3]));
        let b = g.leaf(Tensor::zeros(&[2]));
        g.add_bcast(a, b);
    }
}
