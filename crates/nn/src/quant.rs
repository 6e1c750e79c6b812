//! Inference-only int8 layers: the runtime half of the quantized tier.
//!
//! [`QuantizedLinear`] and [`QuantizedConv2d`] are the int8 twins that
//! [`Module::quantized`] produces for `Linear` and `Conv2d`, both built on
//! one [`Int8Core`]. Weights are snapshotted into per-output-channel
//! symmetric int8 ([`qn_tensor::QTensor`]); activations are quantized per
//! **row** on the fly, and the product runs on the packed `f32` GEMM loop
//! over the widened codes, whose sums are the exact integer sums —
//! bit-identical at every SIMD dispatch level and thread count. That holds
//! up to [`GEMM_I8_MAX_K`] inputs; a wider layer has no quantized form
//! (`quantized()` is `None`).
//!
//! A dense product quantizes its input rows, then runs
//! [`qn_tensor::gemm_i8`]. A convolution builds no im2col matrix:
//! [`qn_tensor::gemm_i8_patches`] quantizes each patch row by its own
//! scale as the GEMM packs it from the `f32` image, with the codes and
//! output bits of the im2col route. Either way the output is written into
//! the execution context's arena through [`Exec::detached`].
//!
//! # Activation scales: dynamic vs. frozen
//!
//! Every quantized layer carries a 2-element `act_stats` state tensor
//! `[observed_absmax, frozen_scale]`:
//!
//! - **Dynamic** (`frozen_scale == 0`, the initial state): each forward
//!   pass quantizes every activation row (a conv's: every patch) with that
//!   row's own absmax — always well-scaled, at the cost of one extra pass
//!   over the input. While dynamic, the layer also folds the batch absmax
//!   into `observed_absmax`, so ordinary forwards double as calibration.
//! - **Frozen** (`frozen_scale > 0`, after [`calibrate`]): all rows share
//!   the calibrated scale and values beyond the observed range saturate at
//!   ±127. This is the deployment configuration — it removes the data
//!   dependence, so a served model's arithmetic depends only on its
//!   checkpoint, not on traffic history.
//!
//! `act_stats` is reported through [`ParamVisitor::state`], so it rides
//! along in checkpoints like batch-norm running statistics.
//!
//! # No gradients
//!
//! Quantized forwards read the input value, compute in int8 off-tape, and
//! re-enter the graph as a **leaf** ([`Exec::detached`]): gradients do not
//! flow through a quantized layer. These modules are for inference; keep
//! the f32 original for training.

use crate::layers::Linear;
use crate::module::{Costs, Module, ParamVisitor};
use qn_autograd::{EagerExec, Exec, Var};
use qn_tensor::{
    gemm_i8, gemm_i8_patches, ActScale, Checkpoint, CheckpointWriter, Conv2dSpec, MatMut, MatRefI8,
    QTensor, Tensor, TensorError, GEMM_I8_MAX_K,
};
use std::cell::Cell;
use std::sync::RwLock;

/// Local name every quantized layer reports its activation statistics
/// under (a 2-element tensor `[observed_absmax, frozen_scale]`).
pub const ACT_STATS_NAME: &str = "act_stats";

/// Fresh activation statistics: nothing observed, dynamic scaling.
fn new_act_stats() -> RwLock<Tensor> {
    RwLock::new(Tensor::zeros(&[2]))
}

/// The scale mode `stats` selects: its frozen scale once calibrated, else
/// each row's own.
fn act_scale(stats: &RwLock<Tensor>) -> ActScale {
    match stats.read().expect("act_stats lock poisoned").data()[1] {
        frozen if frozen > 0.0 => ActScale::Frozen(frozen),
        _ => ActScale::PerRow,
    }
}

/// Folds a dynamic forward's largest row absmax into `stats[0]`; a zero
/// or non-finite batch absmax is not observed.
fn observe(stats: &RwLock<Tensor>, batch_absmax: f32) {
    if batch_absmax > 0.0 && batch_absmax.is_finite() {
        let mut g = stats.write().expect("act_stats lock poisoned");
        if batch_absmax > g.data()[0] {
            g.data_mut()[0] = batch_absmax;
        }
    }
}

/// Quantizes a `[rows, cols]` activation block against `stats` into
/// `codes` and the per-row `scales` ([`gemm_i8`]'s `sa` operand), both
/// cleared and resized.
///
/// With a frozen scale, every row uses it (out-of-range values saturate).
/// Otherwise each row is quantized with its own absmax and the batch
/// absmax is folded into `stats[0]` — see the module docs. A zero (or
/// non-finite) row gets scale `0.0` and all-zero codes, which [`gemm_i8`]
/// turns into exact zero outputs.
///
/// # Panics
///
/// Panics if `x.len() != rows * cols` or the stats lock is poisoned.
fn quantize_acts(
    stats: &RwLock<Tensor>,
    x: &[f32],
    rows: usize,
    cols: usize,
    codes: &mut Vec<i8>,
    scales: &mut Vec<f32>,
) {
    assert_eq!(x.len(), rows * cols, "quantize_acts: length mismatch");
    let frozen = stats.read().expect("act_stats lock poisoned").data()[1];
    codes.resize(rows * cols, 0);
    scales.resize(rows, 0.0);
    if frozen > 0.0 {
        // all rows share the calibrated scale, so the whole block goes
        // through one SIMD quantization pass — no per-row bookkeeping
        scales.fill(frozen);
        qn_simd::quantize_to_i8(codes, x, 1.0 / frozen);
    } else {
        let mut batch_absmax = 0.0f32;
        for (r, s) in scales.iter_mut().enumerate() {
            let row = &x[r * cols..(r + 1) * cols];
            let dst = &mut codes[r * cols..(r + 1) * cols];
            let mut absmax = 0.0f32;
            for &v in row {
                let a = v.abs();
                if a > absmax {
                    absmax = a;
                }
            }
            if absmax > 0.0 && absmax.is_finite() {
                *s = absmax / 127.0;
                qn_simd::quantize_to_i8(dst, row, 127.0 / absmax);
            } else {
                // reused scratch may hold stale codes; this row must be
                // exactly zero
                *s = 0.0;
                dst.fill(0);
            }
            if absmax > batch_absmax {
                batch_absmax = absmax;
            }
        }
        observe(stats, batch_absmax);
    }
}

/// The int8 matmul engine behind every quantized dense product
/// ([`QuantizedLinear`], [`QuantizedConv2d`] and `qn-core`'s quadratic
/// twin): quantized `[out, in]` weights, optional f32 bias, and the
/// layer's activation statistics.
pub struct Int8Core {
    /// Per-output-channel int8 weights, `[out, in]` row-major.
    weight: QTensor,
    /// Optional f32 bias, `[out]`.
    bias: Option<Tensor>,
    act_stats: RwLock<Tensor>,
}

impl Int8Core {
    /// Wraps quantized `[out, in]` weights and an optional `[out]` bias,
    /// with fresh (dynamic) activation statistics.
    ///
    /// # Panics
    ///
    /// Panics if the bias length is not `out`, or `in` exceeds
    /// [`GEMM_I8_MAX_K`].
    pub fn new(weight: QTensor, bias: Option<Tensor>) -> Int8Core {
        if let Some(b) = &bias {
            assert_eq!(
                b.numel(),
                weight.rows(),
                "bias length must match output channels"
            );
        }
        assert!(
            weight.cols() <= GEMM_I8_MAX_K,
            "reduction dim {} exceeds GEMM_I8_MAX_K",
            weight.cols()
        );
        Int8Core {
            weight,
            bias,
            act_stats: new_act_stats(),
        }
    }

    /// The quantized weight matrix.
    pub fn weight(&self) -> &QTensor {
        &self.weight
    }

    /// Reports the activation statistics under [`ACT_STATS_NAME`]: the
    /// `visit_params` of a layer built on this core.
    pub fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.state(ACT_STATS_NAME, &self.act_stats);
    }

    /// `[rows, in] × [in, out] + bias` into `y` (`[rows, out]`, fully
    /// overwritten), all in int8 with an f32 epilogue.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows · in` or `y.len() != rows · out`.
    pub fn apply(&self, x: &[f32], rows: usize, y: &mut [f32]) {
        let (k, out) = (self.weight.cols(), self.weight.rows());
        // activation codes die as soon as the GEMM consumes them, so each
        // thread keeps one scratch pair across layers and forwards; it is
        // moved out for the call, so a nested call cannot find it borrowed
        thread_local! {
            static ACT_SCRATCH: Cell<(Vec<i8>, Vec<f32>)> =
                const { Cell::new((Vec::new(), Vec::new())) };
        }
        let (mut codes, mut sa) = ACT_SCRATCH.take();
        quantize_acts(&self.act_stats, x, rows, k, &mut codes, &mut sa);
        gemm_i8(
            MatMut::new(y, rows, out),
            MatRefI8::new(&codes, rows, k),
            // `[out, in]` row-major transposed is `[in, out]`
            self.weight.mat().transpose(),
            &sa,
            self.weight.scales(),
        );
        ACT_SCRATCH.set((codes, sa));
        self.add_bias(y, 1);
    }

    /// The convolution form of [`apply`](Int8Core::apply): every `spec`
    /// patch of the `[B, C, H, W]` input `x` times the `[out, C·K·K]`
    /// weights, plus bias, into `y` (`[B, out, OH, OW]`, fully
    /// overwritten). Each patch is quantized as the GEMM packs it from the
    /// image ([`gemm_i8_patches`]), so no im2col matrix is built, and the
    /// codes, the observed range and the output bits are those of
    /// [`apply`](Int8Core::apply) on the im2col rows.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 4-D, its patch length is not `in`, or
    /// `y.len() != B · out · OH · OW`.
    pub fn apply_patches(&self, x: &Tensor, spec: Conv2dSpec, y: &mut [f32]) {
        let (_, _, h, w) = x.dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let seen = gemm_i8_patches(
            y,
            x,
            spec,
            self.weight.mat().transpose(),
            self.weight.scales(),
            act_scale(&self.act_stats),
        );
        observe(&self.act_stats, seen);
        self.add_bias(y, oh * ow);
    }

    /// Adds the bias to every output channel's run of `lanes` values,
    /// channel-major (`lanes = 1` for rows, `OH·OW` for planes).
    fn add_bias(&self, y: &mut [f32], lanes: usize) {
        if let Some(b) = &self.bias {
            for (run, &bv) in y.chunks_exact_mut(lanes).zip(b.data().iter().cycle()) {
                for o in run {
                    *o += bv;
                }
            }
        }
    }
}

impl Clone for Int8Core {
    fn clone(&self) -> Int8Core {
        Int8Core {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            act_stats: RwLock::new(
                self.act_stats
                    .read()
                    .expect("act_stats lock poisoned")
                    .clone(),
            ),
        }
    }
}

/// Int8 twin of [`Linear`]: per-output-channel int8 weights, per-row
/// dynamic (or calibrated static) activation quantization, f32 bias.
///
/// Produced by [`Module::quantized`] on `Linear`; constructible directly
/// from any `[out, in]` weight via [`QuantizedLinear::new`].
pub struct QuantizedLinear {
    core: Int8Core,
    in_features: usize,
    out_features: usize,
}

impl QuantizedLinear {
    /// Quantizes `weight` (`[out, in]`) per output channel; `bias` is kept
    /// in f32.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 2-D, contains non-finite values, has more
    /// than [`GEMM_I8_MAX_K`] input features, or `bias` length mismatches.
    pub fn new(weight: &Tensor, bias: Option<&Tensor>) -> QuantizedLinear {
        let (out_features, in_features) = weight.dims2();
        QuantizedLinear {
            core: Int8Core::new(QTensor::quantize(weight), bias.cloned()),
            in_features,
            out_features,
        }
    }

    /// The quantized weight matrix.
    pub fn weight(&self) -> &QTensor {
        &self.core.weight
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The frozen activation scale, or `0.0` while still dynamic.
    pub fn frozen_scale(&self) -> f32 {
        self.core
            .act_stats
            .read()
            .expect("act_stats lock poisoned")
            .data()[1]
    }
}

impl Module for QuantizedLinear {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        // dims on the stack, so the serving path allocates nothing
        let mut dims = [0usize; 8];
        let nd = {
            let d = cx.value(x).shape().dims();
            assert!(
                !d.is_empty() && d.len() <= dims.len(),
                "QuantizedLinear supports rank 1 to 8, got {d:?}"
            );
            dims[..d.len()].copy_from_slice(d);
            d.len()
        };
        assert_eq!(
            dims[nd - 1],
            self.in_features,
            "QuantizedLinear: input trailing dim {:?} != {}",
            &dims[..nd],
            self.in_features
        );
        let lead: usize = dims[..nd - 1].iter().product();
        dims[nd - 1] = self.out_features;
        cx.detached(x, &dims[..nd], &|xt, y| self.core.apply(xt.data(), lead, y))
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.core.visit_params(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let nd = input.len();
        assert!(nd >= 1 && input[nd - 1] == self.in_features);
        let lead: usize = input[..nd - 1].iter().product();
        let mut output = input.to_vec();
        output[nd - 1] = self.out_features;
        Costs {
            macs: (lead * self.in_features * self.out_features) as u64,
            output,
        }
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(QuantizedLinear {
            core: self.core.clone(),
            in_features: self.in_features,
            out_features: self.out_features,
        }))
    }
}

/// Int8 twin of `Conv2d`: the patch product runs against
/// `[out_channels, in_channels·k²]` int8 weights through
/// [`gemm_i8_patches`], which quantizes each patch as it packs it from the
/// `f32` image — per patch while dynamic, at the frozen scale once
/// calibrated — so no im2col matrix is built (see
/// [`Int8Core::apply_patches`]).
pub struct QuantizedConv2d {
    core: Int8Core,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl QuantizedConv2d {
    /// Quantizes a `[oc, c, k, k]` convolution weight per output channel.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 4-D with square kernels matching `spec`,
    /// contains non-finite values, or `bias` length mismatches.
    pub fn new(weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> QuantizedConv2d {
        let (oc, c, kh, kw) = weight.dims4();
        assert_eq!(kh, kw, "QuantizedConv2d: kernels must be square");
        assert_eq!(
            kh, spec.kernel,
            "QuantizedConv2d: weight/spec kernel mismatch"
        );
        let patch = c * kh * kw;
        let q = QTensor::quantize_rows(weight.data(), oc, patch);
        QuantizedConv2d {
            core: Int8Core::new(q, bias.cloned()),
            spec,
            in_channels: c,
            out_channels: oc,
        }
    }

    /// The quantized `[oc, c·k²]` patch-weight matrix.
    pub fn weight(&self) -> &QTensor {
        &self.core.weight
    }

    /// Spatial geometry of the convolution.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Module for QuantizedConv2d {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        let (b, c, h, w) = cx.value(x).dims4();
        assert_eq!(
            c, self.in_channels,
            "QuantizedConv2d: input has {c} channels, layer expects {}",
            self.in_channels
        );
        let (oh, ow) = self.spec.output_hw(h, w);
        cx.detached(x, &[b, self.out_channels, oh, ow], &|xt, y| {
            self.core.apply_patches(xt, self.spec, y)
        })
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.core.visit_params(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        assert_eq!(input.len(), 4, "QuantizedConv2d costs expects NCHW");
        let (b, _, h, w) = (input[0], input[1], input[2], input[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let patch = self.in_channels * self.spec.kernel * self.spec.kernel;
        Costs {
            macs: (b * oh * ow * patch * self.out_channels) as u64,
            output: vec![b, self.out_channels, oh, ow],
        }
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(QuantizedConv2d {
            core: self.core.clone(),
            spec: self.spec,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
        }))
    }
}

impl Linear {
    /// Builds the int8 twin [`QuantizedLinear`] from this layer's current
    /// weights (used by its [`Module::quantized`] implementation).
    pub fn to_quantized(&self) -> QuantizedLinear {
        let w = self.weight().value();
        let b = self.bias_value();
        QuantizedLinear::new(&w, b.as_ref())
    }
}

/// Snapshots `m` into its inference-only int8 twin, if every layer in the
/// tree supports quantization — the public entry point of the quantized
/// tier. Equivalent to `m.quantized()`; see [`Module::quantized`].
pub fn quantize_module(m: &dyn Module) -> Option<Box<dyn Module>> {
    m.quantized()
}

/// Quantizes `m` and immediately calibrates the twin's activation scales
/// on `batches` (see [`calibrate`]). Returns `None` when the tree has a
/// layer with no quantized form.
pub fn quantize_calibrated(
    m: &dyn Module,
    batches: impl IntoIterator<Item = Tensor>,
) -> Option<Box<dyn Module>> {
    let q = m.quantized()?;
    calibrate(q.as_ref(), batches);
    Some(q)
}

/// Calibrates a quantized module: resets every layer's activation
/// statistics, runs `batches` through it in eager (inference) mode to
/// observe activation ranges, then freezes each layer's activation scale
/// at `observed_absmax / 127`. Returns the number of batches consumed.
///
/// With zero batches this still resets and "freezes" to the dynamic state
/// (scale 0), so calling it twice is safe.
pub fn calibrate(m: &dyn Module, batches: impl IntoIterator<Item = Tensor>) -> usize {
    for_each_act_stats(m, &mut |s| {
        let mut g = s.write().expect("act_stats lock poisoned");
        g.data_mut()[0] = 0.0;
        g.data_mut()[1] = 0.0;
    });
    let mut n = 0usize;
    for b in batches {
        let mut ex = EagerExec::new();
        let x = ex.leaf(b);
        let _ = m.forward(&mut ex, x);
        n += 1;
    }
    for_each_act_stats(m, &mut |s| {
        let mut g = s.write().expect("act_stats lock poisoned");
        let observed = g.data()[0];
        g.data_mut()[1] = if observed > 0.0 {
            observed / 127.0
        } else {
            0.0
        };
    });
    n
}

/// Invokes `f` on every `act_stats` state tensor in `m`'s tree.
fn for_each_act_stats(m: &dyn Module, f: &mut dyn FnMut(&RwLock<Tensor>)) {
    struct V<'a> {
        f: &'a mut dyn FnMut(&RwLock<Tensor>),
    }
    impl ParamVisitor for V<'_> {
        fn param(&mut self, _name: &str, _p: &qn_autograd::Parameter) {}
        fn state(&mut self, name: &str, t: &RwLock<Tensor>) {
            if name == ACT_STATS_NAME {
                (self.f)(t);
            }
        }
    }
    m.visit_params(&mut V { f });
}

/// Writes a [`QTensor`] into a checkpoint as the int8 `"{name}.codes"`
/// blob plus an f32 `"{name}.scales"` sibling — the persistence pairing
/// [`read_qtensor`] reverses.
pub fn write_qtensor(w: &mut CheckpointWriter, name: &str, q: &QTensor) {
    w.add_i8(
        format!("{name}.codes"),
        q.data().to_vec(),
        &[q.rows(), q.cols()],
    );
    let scales =
        Tensor::from_vec(q.scales().to_vec(), &[q.rows()]).expect("scales length equals row count");
    w.add(format!("{name}.scales"), scales);
}

/// Reads a [`QTensor`] written by [`write_qtensor`] back out of a
/// checkpoint.
///
/// # Errors
///
/// Returns [`TensorError`] if either entry is missing, has the wrong
/// dtype, or the codes/scales shapes disagree.
pub fn read_qtensor(ck: &Checkpoint, name: &str) -> Result<QTensor, TensorError> {
    let codes_name = format!("{name}.codes");
    let codes = ck.i8_slice(&codes_name)?;
    let entry = ck
        .entry(&codes_name)
        .expect("i8_slice succeeded, so the entry exists");
    let dims = entry.shape.clone();
    if dims.len() != 2 {
        return Err(TensorError::InvalidCheckpoint {
            offset: 0,
            detail: format!("{codes_name}: expected 2-D codes, got {dims:?}"),
        });
    }
    let scales = ck.tensor(&format!("{name}.scales"))?;
    QTensor::from_parts(codes.to_vec(), scales.data().to_vec(), dims[0], dims[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Sequential;
    use qn_tensor::Rng;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::randn(dims, &mut rng)
    }

    #[test]
    fn quantized_linear_tracks_f32_closely() {
        let w = randn(&[8, 16], 1);
        let b = randn(&[8], 2);
        let lin = Linear::from_parts(w.clone(), Some(b.clone()));
        let q = lin.to_quantized();
        let x = randn(&[4, 16], 3);

        let mut ex = EagerExec::new();
        let xv = ex.leaf(x.clone());
        let yf = lin.forward(&mut ex, xv);
        let yf = ex.value(yf).clone();

        let mut ex = EagerExec::new();
        let xv = ex.leaf(x);
        let yq = q.forward(&mut ex, xv);
        let yq = ex.value(yq).clone();

        assert_eq!(yf.shape().dims(), yq.shape().dims());
        let mut worst = 0.0f32;
        for (a, b) in yf.data().iter().zip(yq.data()) {
            worst = worst.max((a - b).abs());
        }
        // 8-bit weights and activations over k=16: comfortably sub-0.1
        // for unit-scale Gaussian data.
        assert!(worst < 0.1, "int8 drift too large: {worst}");
    }

    #[test]
    fn quantized_linear_flattens_leading_dims() {
        let lin = Linear::from_parts(randn(&[5, 6], 7), None);
        let q = lin.to_quantized();
        let x = randn(&[2, 3, 6], 8);
        let mut ex = EagerExec::new();
        let xv = ex.leaf(x);
        let y = q.forward(&mut ex, xv);
        assert_eq!(ex.value(y).shape().dims(), &[2, 3, 5]);
    }

    #[test]
    fn calibration_freezes_and_saturates() {
        let lin = Linear::from_parts(randn(&[4, 8], 11), None);
        let q = lin.to_quantized();
        assert_eq!(q.frozen_scale(), 0.0);
        let n = calibrate(&q, (0..3).map(|s| randn(&[2, 8], 20 + s)));
        assert_eq!(n, 3);
        assert!(q.frozen_scale() > 0.0, "calibration must freeze a scale");

        // A frozen layer quantizes every row with the same scale: feeding
        // an input far beyond the calibrated range must saturate, not
        // rescale.
        let big = Tensor::from_vec(vec![1e6; 8], &[1, 8]).unwrap();
        let (mut codes, mut scales) = (Vec::new(), Vec::new());
        quantize_acts(&q.core.act_stats, big.data(), 1, 8, &mut codes, &mut scales);
        assert!(codes.iter().all(|&c| c == 127 || c == -127));
        assert!((scales[0] - q.frozen_scale()).abs() < 1e-12);
    }

    #[test]
    fn dynamic_forward_observes_ranges() {
        let q = QuantizedLinear::new(&randn(&[3, 4], 31), None);
        let x = Tensor::from_vec(vec![0.5, -2.0, 1.0, 0.0], &[1, 4]).unwrap();
        let mut ex = EagerExec::new();
        let xv = ex.leaf(x);
        let _ = q.forward(&mut ex, xv);
        let g = q.core.act_stats.read().unwrap();
        assert_eq!(g.data()[0], 2.0, "observed absmax must track the batch");
        assert_eq!(g.data()[1], 0.0, "still dynamic until calibrated");
    }

    #[test]
    fn quantized_conv_matches_f32_within_tolerance() {
        use crate::layers::Conv2d;
        let mut rng = Rng::seed_from(5);
        let conv = Conv2d::new(3, 8, Conv2dSpec::new(3, 1, 1), true, &mut rng);
        let q = conv.quantized().expect("conv quantizes");
        let x = randn(&[2, 3, 6, 6], 6);

        let mut ex = EagerExec::new();
        let xv = ex.leaf(x.clone());
        let yf = conv.forward(&mut ex, xv);
        let yf = ex.value(yf).clone();

        let mut ex = EagerExec::new();
        let xv = ex.leaf(x);
        let yq = q.forward(&mut ex, xv);
        let yq = ex.value(yq).clone();

        assert_eq!(yf.shape().dims(), yq.shape().dims());
        assert_eq!(q.weight_dtype(), "int8");
        let mut worst = 0.0f32;
        for (a, b) in yf.data().iter().zip(yq.data()) {
            worst = worst.max((a - b).abs());
        }
        assert!(worst < 0.2, "int8 conv drift too large: {worst}");
    }

    #[test]
    fn sequential_quantizes_end_to_end_or_not_at_all() {
        use crate::layers::Relu;
        let seq = Sequential::new(vec![
            Box::new(Linear::from_parts(randn(&[8, 4], 41), None)),
            Box::new(Relu),
            Box::new(Linear::from_parts(randn(&[2, 8], 42), None)),
        ]);
        let q = seq.quantized().expect("all layers quantize");
        assert_eq!(q.weight_dtype(), "int8");
        let x = randn(&[3, 4], 43);
        let mut ex = EagerExec::new();
        let xv = ex.leaf(x);
        let y = q.forward(&mut ex, xv);
        assert_eq!(ex.value(y).shape().dims(), &[3, 2]);

        struct NoQuant;
        impl Module for NoQuant {
            fn forward(&self, _cx: &mut dyn Exec, x: Var) -> Var {
                x
            }
            fn visit_params(&self, _v: &mut dyn ParamVisitor) {}
            fn costs(&self, input: &[usize]) -> Costs {
                Costs::passthrough(input)
            }
        }
        let seq = Sequential::new(vec![Box::new(NoQuant) as Box<dyn Module>]);
        assert!(seq.quantized().is_none(), "one holdout blocks the tree");
    }

    #[test]
    fn qtensor_checkpoint_roundtrip() {
        let w = randn(&[6, 10], 51);
        let q = QTensor::quantize(&w);
        let mut wtr = CheckpointWriter::new();
        write_qtensor(&mut wtr, "layer.weight", &q);
        let bytes = wtr.to_bytes().unwrap();
        let ck = Checkpoint::from_mmap(qn_tensor::Mmap::from_bytes(bytes).into()).unwrap();
        let back = read_qtensor(&ck, "layer.weight").unwrap();
        assert_eq!(back.data(), q.data());
        assert_eq!(back.scales(), q.scales());
        assert!(read_qtensor(&ck, "missing").is_err());
    }
}
