//! `Traced`: an [`Exec`] that wraps another one and times every call.
//!
//! The wrapper overrides and delegates **every** trait method, including
//! the defaulted composites (`neg`, `mean_all`, `mean_axis`,
//! `weighted_square_sum`, `interleave_last`, `rows_to_nchw`,
//! `elemwise_chain`). Leaving one on its default would make the fused
//! eager kernels fall back to their decompositions, and the trace would
//! measure a different program from the one that serves traffic.
//!
//! Per op name it keeps the call count, self time (process CPU time, like
//! the end-to-end metrics), MACs and bytes computed from tensor sizes, in
//! memory; it also records the GEMM and im2col shapes so the replays can
//! time the `qn-tensor` kernels alone.

use crate::stats::cpu_ms;
use qn_autograd::{ChainStage, Exec, Parameter, Var};
use qn_tensor::{gemm, gemm_batched, im2col_into, Conv2dSpec, MatMut, MatRef, PoolSpec, Tensor};
use std::collections::BTreeMap;

/// Totals for one op name.
#[derive(Clone, Copy, Default, Debug)]
pub struct OpStat {
    pub calls: u64,
    pub ms: f64,
    pub macs: u64,
    pub bytes: u64,
}

/// One GEMM as `gemm` saw it: `batches` products of `[m, k] × [k, n]`,
/// with B stored transposed (`[n, k]`) when `b_trans`.
#[derive(Clone, Copy, Debug)]
pub struct GemmShape {
    pub batches: usize,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub b_trans: bool,
}

impl GemmShape {
    pub fn macs(&self) -> u64 {
        (self.batches * self.m * self.n * self.k) as u64
    }

    /// One product's B operand over `data`, as the traced op passed it.
    fn b_mat<'a>(&self, data: &'a [f32]) -> MatRef<'a> {
        if self.b_trans {
            MatRef::new(data, self.n, self.k).transpose()
        } else {
            MatRef::new(data, self.k, self.n)
        }
    }
}

pub struct Traced<E: Exec> {
    pub inner: E,
    pub ops: BTreeMap<&'static str, OpStat>,
    pub gemms: Vec<GemmShape>,
    /// `(input dims [B, C, H, W], spec)` of every im2col lowering,
    /// including the one inside `conv2d`.
    pub im2cols: Vec<([usize; 4], Conv2dSpec)>,
    /// CPU ms spent recording (outside the timed op bodies).
    pub record_ms: f64,
}

impl<E: Exec> Traced<E> {
    pub fn new(inner: E) -> Self {
        Traced {
            inner,
            ops: BTreeMap::new(),
            gemms: Vec::new(),
            im2cols: Vec::new(),
            record_ms: 0.0,
        }
    }

    /// Clears the recorded statistics, keeping the inner context.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.gemms.clear();
        self.im2cols.clear();
        self.record_ms = 0.0;
    }

    pub fn op_ms(&self) -> f64 {
        self.ops.values().map(|s| s.ms).sum()
    }

    /// Adds this trace's op totals into `acc`.
    pub fn add_into(&self, acc: &mut BTreeMap<&'static str, OpStat>) {
        for (k, s) in &self.ops {
            let e = acc.entry(k).or_default();
            e.calls += s.calls;
            e.ms += s.ms;
            e.macs += s.macs;
            e.bytes += s.bytes;
        }
    }

    fn numel(&self, v: Var) -> u64 {
        self.inner.value(v).numel() as u64
    }

    /// Books one finished call: `t0` is the CPU clock when the op started,
    /// `inputs` the operands whose sizes count towards the bytes moved.
    fn record(&mut self, name: &'static str, t0: f64, out: Var, inputs: &[Var], macs: u64) {
        let t1 = cpu_ms();
        let mut elems = self.numel(out);
        for &v in inputs {
            elems += self.numel(v);
        }
        let s = self.ops.entry(name).or_default();
        s.calls += 1;
        s.ms += t1 - t0;
        s.macs += macs;
        s.bytes += 4 * elems;
        self.record_ms += cpu_ms() - t1;
    }

    fn gemm_2d(&mut self, a: Var, b: Var, b_trans: bool) -> GemmShape {
        let (m, k) = self.inner.value(a).dims2();
        let (r, c) = self.inner.value(b).dims2();
        let n = if b_trans { r } else { c };
        GemmShape {
            batches: 1,
            m,
            n,
            k,
            b_trans,
        }
    }
}

/// Times one delegated call: `op!(self, "name", [inputs], macs, call)`.
macro_rules! op {
    ($s:ident, $name:literal, [$($inp:expr),*], $macs:expr, $call:expr) => {{
        let t0 = cpu_ms();
        let y = $call;
        $s.record($name, t0, y, &[$($inp),*], $macs);
        y
    }};
}

impl<E: Exec> Exec for Traced<E> {
    fn leaf(&mut self, t: Tensor) -> Var {
        op!(self, "leaf", [], 0, self.inner.leaf(t))
    }
    fn param(&mut self, p: &Parameter) -> Var {
        op!(self, "param", [], 0, self.inner.param(p))
    }
    fn value(&self, v: Var) -> &Tensor {
        self.inner.value(v)
    }
    fn is_training(&self) -> bool {
        self.inner.is_training()
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        op!(self, "add", [a, b], 0, self.inner.add(a, b))
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        op!(self, "sub", [a, b], 0, self.inner.sub(a, b))
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        op!(self, "mul", [a, b], 0, self.inner.mul(a, b))
    }
    fn scale(&mut self, a: Var, s: f32) -> Var {
        op!(self, "scale", [a], 0, self.inner.scale(a, s))
    }
    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        op!(self, "add_scalar", [a], 0, self.inner.add_scalar(a, s))
    }
    fn neg(&mut self, a: Var) -> Var {
        op!(self, "neg", [a], 0, self.inner.neg(a))
    }
    fn square(&mut self, a: Var) -> Var {
        op!(self, "square", [a], 0, self.inner.square(a))
    }
    fn powi(&mut self, a: Var, p: i32) -> Var {
        op!(self, "powi", [a], 0, self.inner.powi(a, p))
    }
    fn relu(&mut self, a: Var) -> Var {
        op!(self, "relu", [a], 0, self.inner.relu(a))
    }
    fn tanh(&mut self, a: Var) -> Var {
        op!(self, "tanh", [a], 0, self.inner.tanh(a))
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        op!(self, "sigmoid", [a], 0, self.inner.sigmoid(a))
    }
    fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        op!(self, "add_bcast", [a, b], 0, self.inner.add_bcast(a, b))
    }
    fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        op!(self, "mul_bcast", [a, b], 0, self.inner.mul_bcast(a, b))
    }
    fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        op!(
            self,
            "add_channel",
            [a, bias],
            0,
            self.inner.add_channel(a, bias)
        )
    }
    fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        op!(
            self,
            "mul_channel",
            [a, scale],
            0,
            self.inner.mul_channel(a, scale)
        )
    }
    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        op!(self, "reshape", [a], 0, self.inner.reshape(a, dims))
    }
    fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        op!(self, "permute", [a], 0, self.inner.permute(a, axes))
    }
    fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        let t0 = cpu_ms();
        let y = self.inner.concat(parts, axis);
        self.record("concat", t0, y, parts, 0);
        y
    }
    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        op!(
            self,
            "slice_axis",
            [a],
            0,
            self.inner.slice_axis(a, axis, start, end)
        )
    }
    fn sum_all(&mut self, a: Var) -> Var {
        op!(self, "sum_all", [a], 0, self.inner.sum_all(a))
    }
    fn mean_all(&mut self, a: Var) -> Var {
        op!(self, "mean_all", [a], 0, self.inner.mean_all(a))
    }
    fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        op!(self, "sum_axis", [a], 0, self.inner.sum_axis(a, axis))
    }
    fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        op!(self, "mean_axis", [a], 0, self.inner.mean_axis(a, axis))
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let g = self.gemm_2d(a, b, false);
        self.gemms.push(g);
        op!(self, "matmul", [a, b], g.macs(), self.inner.matmul(a, b))
    }
    fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        let g = self.gemm_2d(a, b, true);
        self.gemms.push(g);
        op!(
            self,
            "matmul_transb",
            [a, b],
            g.macs(),
            self.inner.matmul_transb(a, b)
        )
    }
    fn bmm(&mut self, a: Var, b: Var) -> Var {
        let (batches, m, k) = {
            let d = self.inner.value(a).shape().dims();
            (d[0], d[1], d[2])
        };
        let n = self.inner.value(b).shape().dim(2);
        let g = GemmShape {
            batches,
            m,
            n,
            k,
            b_trans: false,
        };
        self.gemms.push(g);
        op!(self, "bmm", [a, b], g.macs(), self.inner.bmm(a, b))
    }
    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        let (b, c, h, w) = self.inner.value(x).dims4();
        self.im2cols.push(([b, c, h, w], spec));
        op!(self, "im2col", [x], 0, self.inner.im2col(x, spec))
    }
    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        // the eager kernel is im2col + one batched GEMM per sample:
        // W [OC, n] · colsᵀ [n, OH·OW]
        let (b, c, h, w) = self.inner.value(x).dims4();
        let (oc, ..) = self.inner.value(weight).dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let g = GemmShape {
            batches: b,
            m: oc,
            n: oh * ow,
            k: spec.patch_len(c),
            b_trans: true,
        };
        self.gemms.push(g);
        self.im2cols.push(([b, c, h, w], spec));
        op!(
            self,
            "conv2d",
            [x, weight],
            g.macs(),
            self.inner.conv2d(x, weight, spec)
        )
    }
    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        op!(self, "max_pool2d", [x], 0, self.inner.max_pool2d(x, spec))
    }
    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        op!(self, "avg_pool2d", [x], 0, self.inner.avg_pool2d(x, spec))
    }
    fn global_avg_pool(&mut self, x: Var) -> Var {
        op!(
            self,
            "global_avg_pool",
            [x],
            0,
            self.inner.global_avg_pool(x)
        )
    }
    fn softmax_last(&mut self, x: Var) -> Var {
        op!(self, "softmax_last", [x], 0, self.inner.softmax_last(x))
    }
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        op!(
            self,
            "layer_norm",
            [x],
            0,
            self.inner.layer_norm(x, gamma, beta, eps)
        )
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
        let t0 = cpu_ms();
        let (y, stats) = self
            .inner
            .batch_norm2d(x, gamma, beta, running_mean, running_var, eps);
        self.record("batch_norm2d", t0, y, &[x], 0);
        (y, stats)
    }
    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        op!(self, "embedding", [], 0, self.inner.embedding(weight, ids))
    }
    fn dropout(&mut self, x: Var, p: f32) -> Var {
        op!(self, "dropout", [x], 0, self.inner.dropout(x, p))
    }
    fn weighted_square_sum(&mut self, f: Var, lambda: Var, neurons: usize, k: usize) -> Var {
        // the Λ term of the paper's cost: k squares and k λ-products per
        // neuron and row, i.e. 2k MACs
        let rows = self.inner.value(f).shape().dim(0);
        let macs = (rows * neurons * 2 * k) as u64;
        op!(
            self,
            "weighted_square_sum",
            [f],
            macs,
            self.inner.weighted_square_sum(f, lambda, neurons, k)
        )
    }
    fn interleave_last(&mut self, y: Var, f: Var, k: usize) -> Var {
        op!(
            self,
            "interleave_last",
            [y, f],
            0,
            self.inner.interleave_last(y, f, k)
        )
    }
    fn rows_to_nchw(&mut self, v: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var {
        op!(
            self,
            "rows_to_nchw",
            [v],
            0,
            self.inner.rows_to_nchw(v, b, oh, ow, c)
        )
    }
    fn elemwise_chain(&mut self, x: Var, stages: &[ChainStage<'_>]) -> Var {
        op!(
            self,
            "elemwise_chain",
            [x],
            0,
            self.inner.elemwise_chain(x, stages)
        )
    }
}

/// Median CPU time, in ms, of replaying the recorded GEMMs (`gemm` for
/// single products, `gemm_batched` for the per-sample conv products) on
/// seeded data, over `reps` replays.
pub fn replay_gemms(shapes: &[GemmShape], reps: usize) -> f64 {
    let mut rng = qn_tensor::Rng::seed_from(0x9e37);
    let bufs: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .map(|g| {
            let a: Vec<f32> = (0..g.m * g.k).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let b: Vec<f32> = (0..g.batches * g.k * g.n)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            (a, b, vec![0.0f32; g.batches * g.m * g.n])
        })
        .collect();
    let mut bufs = bufs;
    crate::stats::median_cpu_ms(reps, || {
        for (g, (a, b, c)) in shapes.iter().zip(bufs.iter_mut()) {
            if g.batches == 1 {
                gemm(
                    MatMut::new(c, g.m, g.n),
                    MatRef::new(a, g.m, g.k),
                    g.b_mat(b),
                );
            } else {
                let (a, b) = (&a[..], &b[..]);
                let per = g.k * g.n;
                gemm_batched(
                    c,
                    g.batches,
                    g.m,
                    g.n,
                    g.k,
                    |_| MatRef::new(a, g.m, g.k),
                    |bi| g.b_mat(&b[bi * per..(bi + 1) * per]),
                );
            }
            std::hint::black_box(&c[0]);
        }
    })
}

/// Median CPU time, in ms, of replaying the recorded im2col lowerings.
pub fn replay_im2cols(shapes: &[([usize; 4], Conv2dSpec)], reps: usize) -> f64 {
    let mut rng = qn_tensor::Rng::seed_from(0x7f4a);
    let mut bufs: Vec<(Tensor, Vec<f32>)> = shapes
        .iter()
        .map(|(d, spec)| {
            let (oh, ow) = spec.output_hw(d[2], d[3]);
            let len = d[0] * oh * ow * spec.patch_len(d[1]);
            (Tensor::randn(d, &mut rng), vec![0.0f32; len])
        })
        .collect();
    crate::stats::median_cpu_ms(reps, || {
        for ((x, dst), (_, spec)) in bufs.iter_mut().zip(shapes) {
            im2col_into(dst, x, *spec);
            std::hint::black_box(&dst[0]);
        }
    })
}
