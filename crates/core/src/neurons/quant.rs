//! The int8 twin of the quadratic-neuron layer.
//!
//! [`QuantizedQuadratic`] is the inference-only form of
//! [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear): each
//! neuron's rows `[wⱼ; Qⱼ]` are stacked into one per-row int8 operand, so
//! a single product on `qn-nn`'s [`Int8Core`] — one activation
//! quantization of `x`, then [`qn_tensor::gemm_i8`] — writes `x·wⱼ` and
//! `fᵏ = (Qᵏ)ᵀx` straight into the vectorized output layout of §III-B.
//! The cheap per-neuron tail (`Σᵢ λᵢ fᵢ² + b`) stays in f32: `Λᵏ` is
//! trained at tiny learning rates and its dynamic range is what the
//! paper's stability lemma bounds, so it is the one place 8-bit rounding
//! would bite.
//!
//! Its convolutional form is [`PatchConv2d`](super::PatchConv2d) over the
//! boxed twin, which [`Module::quantized`] on the f32 conv returns. Its
//! [`Module::forward_patches`] builds no im2col matrix: the stacked
//! product quantizes each patch as it packs it from the `f32` image
//! ([`Int8Core::apply_patches`]) and stores it into the output planes,
//! and one pass then finishes each `y` plane — the bits of the im2col
//! route.
//!
//! Like the `qn-nn` quantized layers, forwards compute off-tape into the
//! arena ([`Exec::detached`]) and re-enter the graph as leaves: no
//! gradients flow.

use qn_autograd::{Exec, Var};
use qn_nn::{Costs, Int8Core, Module, ParamVisitor};
use qn_tensor::{Conv2dSpec, QTensor, Tensor, GEMM_I8_MAX_K};
use std::cell::Cell;

/// Inference-only int8 form of the paper's efficient quadratic neuron
/// layer. Build via [`Module::quantized`] on
/// [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear) or
/// directly with [`QuantizedQuadratic::from_factors`].
#[derive(Clone)]
pub struct QuantizedQuadratic {
    /// `[m·(k+1), n]` int8, per-row scales, no bias: row `j·(k+1)` is
    /// neuron j's `wⱼ`, the next `k` rows its `(Qᵏ)ᵀ` rows.
    core: Int8Core,
    /// `[m, k]` f32 eigenvalues (kept full precision, see module docs).
    lambda: Tensor,
    /// `[m]` f32 bias.
    b: Tensor,
    n: usize,
    m: usize,
    k: usize,
    vectorized: bool,
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
            core: Int8Core::new(QTensor::quantize_rows(&stacked, m * (k + 1), n), None),
            lambda: lambda.clone(),
            b: b.clone(),
            n,
            m,
            k,
            vectorized,
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
        self.core.weight().weight_bytes()
    }

    /// The per-neuron tail `yⱼ ← (yⱼ + bⱼ) + λⱼ₀·fⱼ₀·fⱼ₀ + …`, added in
    /// index order, over `out`'s neuron groups: `k + 1` runs of `lanes`
    /// values each (`y`, then each `fᵢ`), neuron-major — a dense row's
    /// group for `lanes = 1`, a conv image's planes for `lanes = OH·OW`.
    /// Chunks of positions keep the loops vectorizable without mixing
    /// lanes.
    fn finish(&self, out: &mut [f32], lanes: usize) {
        const CHUNK: usize = 8;
        let (m, k) = (self.m, self.k);
        let (lam, bias) = (self.lambda.data(), self.b.data());
        for (g, group) in out.chunks_exact_mut((k + 1) * lanes).enumerate() {
            let j = g % m;
            let (y, f) = group.split_at_mut(lanes);
            for (p0, yc) in (0..lanes).step_by(CHUNK).zip(y.chunks_mut(CHUNK)) {
                let mut acc = [0.0f32; CHUNK];
                for (a, &yv) in acc.iter_mut().zip(yc.iter()) {
                    *a = yv + bias[j];
                }
                for (fi, &li) in f.chunks_exact(lanes).zip(&lam[j * k..(j + 1) * k]) {
                    for (a, &fv) in acc.iter_mut().zip(&fi[p0..p0 + yc.len()]) {
                        *a += li * fv * fv;
                    }
                }
                yc.copy_from_slice(&acc[..yc.len()]);
            }
        }
    }

    /// Runs the stacked product through `product` into `out`, then the
    /// tail: in place when vectorized; the scalar-output form multiplies
    /// into scratch and keeps each group's `y` run.
    fn run(&self, out: &mut [f32], lanes: usize, product: impl Fn(&mut [f32])) {
        if self.vectorized {
            product(out);
            return self.finish(out, lanes);
        }
        // the wide output dies here, so each thread keeps one buffer; it
        // is moved out for the call, so a nested call cannot find it
        // borrowed
        thread_local! {
            static WIDE: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
        }
        let mut wide = WIDE.take();
        wide.resize(out.len() * (self.k + 1), 0.0);
        product(&mut wide);
        self.finish(&mut wide, lanes);
        let groups = wide.chunks_exact((self.k + 1) * lanes);
        for (o, group) in out.chunks_exact_mut(lanes).zip(groups) {
            o.copy_from_slice(&group[..lanes]);
        }
        WIDE.set(wide);
    }
}

impl Module for QuantizedQuadratic {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        // dims on the stack, so the serving path allocates nothing
        let mut dims = [0usize; 8];
        let nd = {
            let d = cx.value(x).shape().dims();
            assert!(
                !d.is_empty() && d.len() <= dims.len(),
                "QuantizedQuadratic supports rank 1 to 8, got {d:?}"
            );
            dims[..d.len()].copy_from_slice(d);
            d.len()
        };
        assert_eq!(
            dims[nd - 1],
            self.n,
            "QuantizedQuadratic: input trailing dim {:?} != {}",
            &dims[..nd],
            self.n
        );
        let lead: usize = dims[..nd - 1].iter().product();
        dims[nd - 1] = self.out_features();
        cx.detached(x, &dims[..nd], &|xt, y| {
            self.run(y, 1, |c| self.core.apply(xt.data(), lead, c))
        })
    }

    fn forward_patches(&self, cx: &mut dyn Exec, x: Var, spec: Conv2dSpec) -> Var {
        let (b, c, h, w) = cx.value(x).dims4();
        assert_eq!(
            spec.patch_len(c),
            self.n,
            "QuantizedQuadratic: {c}-channel patches are not {} inputs",
            self.n
        );
        let (oh, ow) = spec.output_hw(h, w);
        cx.detached(x, &[b, self.out_features(), oh, ow], &|xt, y| {
            self.run(y, oh * ow, |c| self.core.apply_patches(xt, spec, c))
        })
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.core.visit_params(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        super::efficient::layer_costs(input, self.n, self.m, self.k, self.out_features())
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(self.clone()))
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
                &s.core.weight().data()[j * (k + 1) * n..(j + 1) * (k + 1) * n],
                &s.core.weight().scales()[j * (k + 1)..(j + 1) * (k + 1)],
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
