//! Int8 twins of the quadratic-neuron layers.
//!
//! [`QuantizedQuadratic`] is the inference-only form of
//! [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear): each
//! neuron's rows `[wⱼ; Qⱼ]` are stacked into one per-row int8 operand, so
//! a single [`qn_tensor::gemm_i8`] over **one** activation quantization
//! of `x` writes `x·wⱼ` and `fᵏ = (Qᵏ)ᵀx` straight into the vectorized
//! output layout of §III-B. The cheap per-neuron tail
//! (`Σᵢ λᵢ fᵢ² + b`) stays in f32: `Λᵏ` is trained at tiny learning rates
//! and its dynamic range is what the paper's stability lemma bounds, so
//! it is the one place 8-bit rounding would bite.
//!
//! [`QuantizedPatchConv`] redeploys any quantized dense layer as a
//! convolution by im2col lowering, exactly like
//! [`PatchConv2d`](super::PatchConv2d) does for the f32 original.
//!
//! Like the `qn-nn` quantized layers, forwards compute off-tape and
//! re-enter the graph as leaves: no gradients flow.

use qn_autograd::{Exec, Var};
use qn_nn::quant::{quantize_acts, ACT_STATS_NAME};
use qn_nn::{Costs, Module, ParamVisitor};
use qn_tensor::{gemm_i8, Conv2dSpec, MatMut, MatRefI8, QTensor, Tensor, GEMM_I8_MAX_K};
use std::sync::RwLock;

/// Inference-only int8 form of the paper's efficient quadratic neuron
/// layer. Build via [`Module::quantized`] on
/// [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear) or
/// directly with [`QuantizedQuadratic::from_factors`].
pub struct QuantizedQuadratic {
    /// `[m·(k+1), n]` int8, per-row scales: row `j·(k+1)` is neuron j's
    /// `wⱼ`, the next `k` rows its `(Qᵏ)ᵀ` rows.
    wq: QTensor,
    /// `[m, k]` f32 eigenvalues (kept full precision, see module docs).
    lambda: Tensor,
    /// `[m]` f32 bias.
    b: Tensor,
    n: usize,
    m: usize,
    k: usize,
    vectorized: bool,
    act_stats: RwLock<Tensor>,
}

impl QuantizedQuadratic {
    /// Quantizes explicit factors: `q` is `[m·k, n]`, `lambda` `[m, k]`,
    /// `w` `[m, n]`, `b` `[m]` — the same layout as
    /// `EfficientQuadraticLinear::from_factors`.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistency, non-finite weights, or
    /// `n > GEMM_I8_MAX_K`.
    pub fn from_factors(
        q: &Tensor,
        lambda: &Tensor,
        w: &Tensor,
        b: &Tensor,
        vectorized: bool,
    ) -> QuantizedQuadratic {
        let (mk, n) = q.dims2();
        let (m, k) = lambda.dims2();
        assert_eq!(mk, m * k, "q rows {mk} != m*k = {}", m * k);
        assert_eq!(w.dims2(), (m, n), "w shape mismatch");
        assert_eq!(b.numel(), m, "b length mismatch");
        assert!(n <= GEMM_I8_MAX_K, "input width {n} exceeds GEMM_I8_MAX_K");
        // quantization is per row, so stacking first changes no code or scale
        let mut stacked = Vec::with_capacity(m * (k + 1) * n);
        for j in 0..m {
            stacked.extend_from_slice(&w.data()[j * n..(j + 1) * n]);
            stacked.extend_from_slice(&q.data()[j * k * n..(j + 1) * k * n]);
        }
        QuantizedQuadratic {
            wq: QTensor::quantize_rows(&stacked, m * (k + 1), n),
            lambda: lambda.clone(),
            b: b.clone(),
            n,
            m,
            k,
            vectorized,
            act_stats: RwLock::new(Tensor::zeros(&[2])),
        }
    }

    /// Number of inputs `n`.
    pub fn in_features(&self) -> usize {
        self.n
    }

    /// Output width: `m·(k+1)` vectorized, `m` scalar-output.
    pub fn out_features(&self) -> usize {
        if self.vectorized {
            self.m * (self.k + 1)
        } else {
            self.m
        }
    }

    /// Total int8 + scale bytes of the `Qᵏ` and `w` rows (the f32
    /// original stores `(m·k + m)·n` floats).
    pub fn weight_bytes(&self) -> usize {
        self.wq.weight_bytes()
    }

    /// `[lead, n] -> [lead, out]` forward on raw data, off-tape.
    fn apply(&self, xd: &[f32], lead: usize) -> Vec<f32> {
        let (m, k, n) = (self.m, self.k, self.n);
        let width = m * (k + 1);
        let (codes, sa) = quantize_acts(&self.act_stats, xd, lead, n);
        let mut out = vec![0.0f32; lead * width];
        gemm_i8(
            MatMut::new(&mut out, lead, width),
            MatRefI8::new(&codes, lead, n),
            self.wq.mat().transpose(),
            &sa,
            self.wq.scales(),
        );
        let (lam, bias) = (self.lambda.data(), self.b.data());
        for row in out.chunks_mut(width) {
            for (j, group) in row.chunks_mut(k + 1).enumerate() {
                let (y, f) = group.split_first_mut().expect("k + 1 >= 1");
                let mut acc = *y + bias[j];
                for (&fi, &li) in f.iter().zip(&lam[j * k..(j + 1) * k]) {
                    acc += li * fi * fi;
                }
                *y = acc;
            }
        }
        if !self.vectorized {
            // compact the y columns in place: row r's y lands before any
            // entry a later step still reads
            for r in 0..lead {
                for j in 0..m {
                    out[r * m + j] = out[r * width + j * (k + 1)];
                }
            }
            out.truncate(lead * m);
        }
        out
    }
}

impl Module for QuantizedQuadratic {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        let dims = cx.value(x).shape().dims().to_vec();
        let nd = dims.len();
        assert!(
            nd >= 1 && dims[nd - 1] == self.n,
            "QuantizedQuadratic: input trailing dim {:?} != {}",
            dims,
            self.n
        );
        let lead: usize = dims[..nd - 1].iter().product();
        let mut out_dims = dims;
        out_dims[nd - 1] = self.out_features();
        let y = {
            let xt = cx.value(x);
            let data = self.apply(xt.data(), lead);
            Tensor::from_vec(data, &out_dims).expect("quantized output shape is consistent")
        };
        cx.leaf(y)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.state(ACT_STATS_NAME, &self.act_stats);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        super::efficient::layer_costs(input, self.n, self.m, self.k, self.out_features())
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(QuantizedQuadratic {
            wq: self.wq.clone(),
            lambda: self.lambda.clone(),
            b: self.b.clone(),
            n: self.n,
            m: self.m,
            k: self.k,
            vectorized: self.vectorized,
            act_stats: RwLock::new(
                self.act_stats
                    .read()
                    .expect("act_stats lock poisoned")
                    .clone(),
            ),
        }))
    }
}

/// Convolutional deployment of a quantized dense layer: the int8 sibling
/// of [`PatchConv2d`](super::PatchConv2d), produced by its
/// [`Module::quantized`] implementation.
pub struct QuantizedPatchConv {
    inner: Box<dyn Module>,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl QuantizedPatchConv {
    /// Wraps a quantized dense layer whose input width equals
    /// `spec.patch_len(in_channels)`.
    pub fn new(inner: Box<dyn Module>, in_channels: usize, spec: Conv2dSpec) -> QuantizedPatchConv {
        let n = spec.patch_len(in_channels);
        let probe = inner.costs(&[1, n]);
        let out_channels = probe.output[1];
        QuantizedPatchConv {
            inner,
            spec,
            in_channels,
            out_channels,
        }
    }

    /// Produced channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Module for QuantizedPatchConv {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let c = g.value(x).dims4().1;
        assert_eq!(
            c, self.in_channels,
            "expected {} channels, got {c}",
            self.in_channels
        );
        self.inner.forward_patches(g, x, self.spec)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.inner.visit_params(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        assert_eq!(input.len(), 4, "QuantizedPatchConv expects a 4-D input");
        let (b, _c, h, w) = (input[0], input[1], input[2], input[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let rows = b * oh * ow;
        let n = self.spec.patch_len(self.in_channels);
        let inner = self.inner.costs(&[rows, n]);
        Costs {
            macs: inner.macs,
            output: vec![b, self.out_channels, oh, ow],
        }
    }

    fn weight_dtype(&self) -> &'static str {
        self.inner.weight_dtype()
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(QuantizedPatchConv {
            inner: self.inner.quantized()?,
            spec: self.spec,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EfficientQuadraticConv2d, EfficientQuadraticLinear};
    use super::*;
    use qn_autograd::EagerExec;
    use qn_tensor::Rng;

    fn drift(a: &Tensor, b: &Tensor) -> f32 {
        let mut worst = 0.0f32;
        for (x, y) in a.data().iter().zip(b.data()) {
            worst = worst.max((x - y).abs());
        }
        worst
    }

    fn eager_forward(m: &dyn Module, x: Tensor) -> Tensor {
        let mut ex = EagerExec::new();
        let v = ex.leaf(x);
        let y = m.forward(&mut ex, v);
        ex.value(y).clone()
    }

    #[test]
    fn quantized_quadratic_tracks_f32() {
        let mut rng = Rng::seed_from(1);
        let layer = EfficientQuadraticLinear::new(12, 3, 2, &mut rng);
        let q = layer.quantized().expect("quadratic layer quantizes");
        assert_eq!(q.weight_dtype(), "int8");
        let x = Tensor::randn(&[5, 12], &mut rng);
        let yf = eager_forward(&layer, x.clone());
        let yq = eager_forward(q.as_ref(), x);
        assert_eq!(yf.shape().dims(), yq.shape().dims());
        let d = drift(&yf, &yq);
        assert!(d < 0.25, "quantized quadratic drift too large: {d}");
    }

    #[test]
    fn scalar_output_form_also_quantizes() {
        let mut rng = Rng::seed_from(2);
        let layer = EfficientQuadraticLinear::new_scalar_output(8, 4, 3, &mut rng);
        let q = layer.quantized().expect("scalar-output form quantizes");
        let x = Tensor::randn(&[3, 8], &mut rng);
        let yq = eager_forward(q.as_ref(), x);
        assert_eq!(yq.shape().dims(), &[3, 4]);
    }

    #[test]
    fn quantized_patch_conv_matches_f32_geometry() {
        let mut rng = Rng::seed_from(3);
        let spec = Conv2dSpec::new(3, 1, 1);
        let conv = EfficientQuadraticConv2d::efficient(3, 4, 3, spec, &mut rng);
        let q = conv.quantized().expect("patch conv quantizes");
        assert_eq!(q.weight_dtype(), "int8");
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let yf = eager_forward(&conv, x.clone());
        let yq = eager_forward(q.as_ref(), x);
        assert_eq!(yf.shape().dims(), yq.shape().dims());
        let d = drift(&yf, &yq);
        assert!(d < 0.5, "quantized conv drift too large: {d}");
    }

    #[test]
    fn costs_and_widths_match_original() {
        let mut rng = Rng::seed_from(4);
        let layer = EfficientQuadraticLinear::new(10, 2, 3, &mut rng);
        let q = layer.quantized().unwrap();
        assert_eq!(layer.costs(&[7, 10]).macs, q.costs(&[7, 10]).macs);
        assert_eq!(layer.costs(&[7, 10]).output, q.costs(&[7, 10]).output);
    }

    #[test]
    fn stacked_rows_keep_per_matrix_codes_and_scales() {
        let mut rng = Rng::seed_from(6);
        let (n, m, k) = (20, 3, 4);
        let layer = EfficientQuadraticLinear::new(n, m, k, &mut rng);
        let p = layer.params();
        let (q, w) = (p[0].value(), p[2].value());
        let s = QuantizedQuadratic::from_factors(&q, &p[1].value(), &w, &p[3].value(), true);
        let (qq, qw) = (QTensor::quantize(&q), QTensor::quantize(&w));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for j in 0..m {
            let (rows, scales) = (
                &s.wq.data()[j * (k + 1) * n..(j + 1) * (k + 1) * n],
                &s.wq.scales()[j * (k + 1)..(j + 1) * (k + 1)],
            );
            assert_eq!(&rows[..n], &qw.data()[j * n..(j + 1) * n]);
            assert_eq!(&rows[n..], &qq.data()[j * k * n..(j + 1) * k * n]);
            assert_eq!(scales[0].to_bits(), qw.scales()[j].to_bits());
            assert_eq!(bits(&scales[1..]), bits(&qq.scales()[j * k..(j + 1) * k]));
        }
        assert_eq!(s.weight_bytes(), qq.weight_bytes() + qw.weight_bytes());
    }

    #[test]
    fn weight_bytes_beat_f32() {
        let mut rng = Rng::seed_from(5);
        let layer = EfficientQuadraticLinear::new(64, 8, 4, &mut rng);
        let q = QuantizedQuadratic::from_factors(
            &layer.params()[0].value(),
            &layer.params()[1].value(),
            &layer.params()[2].value(),
            &layer.params()[3].value(),
            true,
        );
        let f32_bytes = (8 * 4 * 64 + 8 * 64) * 4;
        assert!(
            (f32_bytes as f64) / (q.weight_bytes() as f64) > 3.5,
            "compression below target: {} vs {}",
            f32_bytes,
            q.weight_bytes()
        );
    }
}
