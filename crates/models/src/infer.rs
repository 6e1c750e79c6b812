//! Tape-free inference sessions for serving-style workloads.

use qn_autograd::{EagerExec, Exec, Var};
use qn_nn::Module;
use qn_tensor::{BufferPool, Tensor, TensorError};
use std::sync::Arc;

/// Hard upper bound on the batch dimension the validating (`try_*`) entry
/// points accept. A serving front-end must enforce this at **admission**
/// (qn-serve clamps every route's flush size to it), so a single oversized
/// request can never commit the arena to an unbounded amount of activation
/// memory. Trusted callers that really want larger batches can use the
/// panicking [`InferenceSession::predict_batch`] directly.
pub const MAX_BATCH: usize = 1024;

/// Numeric tier an [`InferenceSession`] executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-precision f32 weights — the model exactly as given.
    #[default]
    F32,
    /// Per-output-channel symmetric int8 weights with on-the-fly activation
    /// quantization (see `Module::quantized` in `qn-nn`). Integer
    /// accumulation is bit-identical at every SIMD level and thread count;
    /// the logits drift from f32 only by the quantization error itself.
    Int8,
}

impl Precision {
    /// Wire/metrics label: `"f32"` or `"int8"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a wire label (`"f32"` / `"int8"`).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f32" => Some(Precision::F32),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The model behind a session: borrowed from the caller, or shared
/// ownership (what [`ModelRegistry`](crate::ModelRegistry) hands out so a
/// hot-swap can retire the old model only after its last session drops —
/// and what an int8 session uses for the quantized twin it owns).
/// `dyn Module` is `Send + Sync` via the trait's supertraits.
enum ModelRef<'m> {
    Borrowed(&'m dyn Module),
    Owned(Arc<dyn Module>),
}

impl ModelRef<'_> {
    fn as_dyn(&self) -> &dyn Module {
        match self {
            ModelRef::Borrowed(m) => *m,
            ModelRef::Owned(m) => m.as_ref(),
        }
    }
}

/// A reusable tape-free execution session around a model.
///
/// Owns an [`EagerExec`] arena that is reset — not reallocated — between
/// requests, so a serving loop pays no autograd bookkeeping (no tape nodes,
/// backward closures or operand clones) and reuses its activation arena
/// across calls. Works with any [`Module`]: a full [`ResNet`](crate::ResNet),
/// a single layer, or a custom stack.
///
/// Batches are **sharded across the `qn-parallel` worker pool**: the batch
/// axis is split into contiguous chunks, each chunk runs the full forward
/// pass on its own persistent worker arena (reset, not reallocated, between
/// calls), and the chunk outputs are concatenated. Inference is per-sample
/// independent (batch norm uses running statistics, all other ops act per
/// sample or per row), so the sharded result is **bit-identical** to the
/// unsharded one at any thread count — the property suites assert this.
/// Set `QN_NUM_THREADS=1` to force sequential execution.
///
/// For requests whose shape comes from untrusted input, construct the
/// session with [`InferenceSession::with_sample_shape`] and use the `try_*`
/// entry points: they return [`TensorError::ShapeMismatch`] instead of
/// panicking on a malformed request.
///
/// # Example
///
/// ```
/// use qn_core::NeuronSpec;
/// use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
/// use qn_tensor::{Rng, Tensor};
///
/// let net = ResNet::cifar(ResNetConfig {
///     depth: 8,
///     base_width: 4,
///     num_classes: 10,
///     neuron: NeuronSpec::EfficientQuadratic { rank: 3 },
///     placement: NeuronPlacement::All,
///     seed: 0,
/// });
/// let mut session = InferenceSession::new(&net);
/// let mut rng = Rng::seed_from(1);
/// // one sample: [C, H, W] in, [classes] out
/// let logits = session.predict(&Tensor::randn(&[3, 16, 16], &mut rng));
/// assert_eq!(logits.shape().dims(), &[10]);
/// // a batch: [B, C, H, W] in, [B, classes] out
/// let batch = session.predict_batch(&Tensor::randn(&[4, 3, 16, 16], &mut rng));
/// assert_eq!(batch.shape().dims(), &[4, 10]);
/// ```
pub struct InferenceSession<'m> {
    model: ModelRef<'m>,
    cx: EagerExec,
    /// Session-owned buffer pool: outputs are materialized from it (hand
    /// them back with [`InferenceSession::recycle`]) and the arena draws
    /// its kernel scratch from it. With a warm pool and a caller that
    /// recycles, steady-state f32 `predict` on one worker thread performs
    /// **zero** heap allocations (checked with a counting allocator by
    /// `crates/bench/tests/contracts.rs`).
    pool: Arc<BufferPool>,
    /// Per-worker arenas for sharded batches, grown on demand and reused
    /// across calls (index `w` always serves shard `w`, so each arena's
    /// parameter-snapshot cache stays warm). Each worker arena recycles
    /// through its **own** `BufferPool` shard, so workers never contend on
    /// a pool lock.
    shard_arenas: Vec<EagerExec>,
    /// Output var of each shard's last pass (reused across calls).
    shard_out: Vec<Option<Var>>,
    /// Shard ranges of the last batch (reused across calls).
    shard_ranges: Vec<(usize, usize)>,
    sample_shape: Option<Vec<usize>>,
    precision: Precision,
}

impl<'m> InferenceSession<'m> {
    /// Creates a session around `model` with no input validation: the
    /// `try_*` entry points then perform no shape checks and behave exactly
    /// like [`InferenceSession::predict`] / [`predict_batch`]
    /// (`Err` is never returned). Use
    /// [`InferenceSession::with_sample_shape`] when requests are untrusted.
    ///
    /// [`predict_batch`]: InferenceSession::predict_batch
    pub fn new(model: &'m dyn Module) -> Self {
        Self::from_ref(ModelRef::Borrowed(model))
    }

    /// Creates a session that **shares ownership** of its model, so the
    /// session has no borrow on the caller (`InferenceSession<'static>`).
    /// This is the constructor hot-swap registries use: the old model stays
    /// alive until the last session holding its `Arc` drops.
    pub fn owned(model: Arc<dyn Module>) -> InferenceSession<'static> {
        InferenceSession::from_ref(ModelRef::Owned(model))
    }

    /// Creates an **int8** session: snapshots `model` into its quantized
    /// twin (see `Module::quantized`) and serves that, owned. Returns
    /// `None` when some layer in the tree has no quantized form — callers
    /// fall back to an f32 session.
    ///
    /// The original `model` is not retained: later weight updates to it do
    /// not affect this session.
    pub fn quantized(model: &dyn Module) -> Option<InferenceSession<'static>> {
        let twin = model.quantized()?;
        let mut s = InferenceSession::from_ref(ModelRef::Owned(Arc::from(twin)));
        s.precision = Precision::Int8;
        Some(s)
    }

    /// Like [`InferenceSession::quantized`], but calibrates the twin's
    /// activation scales on `batches` before serving (see
    /// `qn_nn::calibrate`). This is the deployment configuration: frozen
    /// scales skip the per-row absmax pass and make the served arithmetic
    /// depend only on the snapshot, not on traffic history. With zero
    /// batches the twin stays in dynamic mode.
    pub fn quantized_calibrated(
        model: &dyn Module,
        batches: impl IntoIterator<Item = Tensor>,
    ) -> Option<InferenceSession<'static>> {
        let twin = qn_nn::quantize_calibrated(model, batches)?;
        let mut s = InferenceSession::from_ref(ModelRef::Owned(Arc::from(twin)));
        s.precision = Precision::Int8;
        Some(s)
    }

    fn from_ref(model: ModelRef<'m>) -> Self {
        let pool = Arc::new(BufferPool::new());
        InferenceSession {
            model,
            cx: EagerExec::with_pool(Arc::clone(&pool)),
            pool,
            shard_arenas: Vec::new(),
            shard_out: Vec::new(),
            shard_ranges: Vec::new(),
            sample_shape: None,
            precision: Precision::F32,
        }
    }

    /// Creates a session that validates every request against the
    /// **per-sample** shape `dims` (batch dimension excluded) — e.g.
    /// `[3, 32, 32]` for a CIFAR classifier.
    pub fn with_sample_shape(model: &'m dyn Module, dims: &[usize]) -> Self {
        let mut s = InferenceSession::new(model);
        s.sample_shape = Some(dims.to_vec());
        s
    }

    /// Configures (or clears) per-sample shape validation after
    /// construction — the post-hoc form of
    /// [`InferenceSession::with_sample_shape`] for sessions built through
    /// [`InferenceSession::owned`] / [`InferenceSession::quantized`].
    pub fn set_sample_shape(&mut self, dims: Option<&[usize]>) {
        self.sample_shape = dims.map(<[usize]>::to_vec);
    }

    /// The numeric tier this session executes in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The served model's weight storage dtype (`"f32"` / `"int8"`) — from
    /// `Module::weight_dtype`, so it reflects what is actually loaded, not
    /// just the requested precision.
    pub fn weight_dtype(&self) -> &'static str {
        self.model.as_dyn().weight_dtype()
    }

    /// The session's buffer pool (outputs are drawn from it; see
    /// [`InferenceSession::recycle`]).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Returns a finished output tensor's storage to the session pool, so
    /// the next `predict`/`predict_batch` reuses it instead of allocating.
    /// Purely an optimization — dropping the tensor is always correct.
    pub fn recycle(&self, output: Tensor) {
        output.into_pool(&self.pool);
    }

    /// The model served by this session.
    pub fn model(&self) -> &dyn Module {
        self.model.as_dyn()
    }

    /// Runs one sample (no batch dimension) through the tape-free path and
    /// strips the batch dimension from the output.
    ///
    /// # Panics
    ///
    /// Panics if the sample's shape does not fit the model (each layer's
    /// shape contract applies); use [`InferenceSession::try_predict`] for
    /// untrusted input.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        // Single sample: always the one-arena path. The batch dim is added
        // on a stack array (spilling to the heap only for rank > 15
        // requests) and the output copied into a pooled tensor with the
        // batch dim stripped — no intermediate reshapes, and with a warm
        // pool no allocations at all.
        let nd = x.ndim();
        let mut stack = [0usize; 16];
        let mut heap = Vec::new();
        let dims: &[usize] = if nd < stack.len() {
            stack[0] = 1;
            stack[1..=nd].copy_from_slice(x.shape().dims());
            &stack[..nd + 1]
        } else {
            heap.reserve_exact(nd + 1);
            heap.push(1);
            heap.extend_from_slice(x.shape().dims());
            &heap
        };
        self.cx.reset();
        let v = self.cx.leaf_reshaped(x, dims);
        let y = self.model.as_dyn().forward(&mut self.cx, v);
        let yv = self.cx.value(y);
        let ydims = yv.shape().dims();
        assert!(
            ydims.first() == Some(&1),
            "model output must keep the batch dimension"
        );
        let mut out = Tensor::from_pooled_uninit(&self.pool, &ydims[1..]);
        out.data_mut().copy_from_slice(yv.data());
        out
    }

    /// Runs a batch (leading batch dimension) through the tape-free path,
    /// sharding the batch axis across the `qn-parallel` pool (bit-identical
    /// to sequential execution; see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if the batch's shape does not fit the model; use
    /// [`InferenceSession::try_predict_batch`] for untrusted input.
    pub fn predict_batch(&mut self, x: &Tensor) -> Tensor {
        let batch = x.shape().dim(0);
        let shards = qn_parallel::num_threads().min(batch.max(1));
        // rank > 16 cannot use the shard-slicing fast path; run unsharded
        if shards <= 1 || x.ndim() > 16 {
            self.cx.reset();
            let v = self.cx.leaf_view(x);
            let y = self.model.as_dyn().forward(&mut self.cx, v);
            let yv = self.cx.value(y);
            let mut out = Tensor::from_pooled_uninit(&self.pool, yv.shape().dims());
            out.data_mut().copy_from_slice(yv.data());
            return out;
        }
        if self.shard_arenas.len() < shards {
            self.shard_arenas
                .resize_with(shards, || EagerExec::with_pool(Arc::new(BufferPool::new())));
        }
        if self.shard_out.len() < shards {
            self.shard_out.resize(shards, None);
        }
        qn_parallel::split_evenly_into(batch, shards, &mut self.shard_ranges);
        let model = self.model.as_dyn();
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(shards);
            let work = self
                .shard_arenas
                .iter_mut()
                .zip(self.shard_out.iter_mut())
                .zip(self.shard_ranges.iter());
            for ((arena, slot), &(lo, hi)) in work {
                tasks.push(Box::new(move || {
                    arena.reset();
                    // copy the shard's rows straight into a recycled slot
                    let v = arena.leaf_slice0(x, lo, hi);
                    *slot = Some(model.forward(arena, v));
                }));
            }
            qn_parallel::par_scope(tasks);
        }
        // Assemble the shard outputs (still sitting in their arenas) into
        // one pooled tensor: shard `i` owns rows `ranges[i]`, so this is a
        // straight per-shard memcpy — bit-identical to the old
        // slice-then-concat, without materializing per-shard tensors.
        let (nd, out_dims, inner) = {
            let first = self.shard_out[0].expect("par_scope runs every shard");
            let sd = self.shard_arenas[0].value(first).shape().dims();
            assert!(
                !sd.is_empty() && sd.len() <= 16,
                "model output must keep the batch dimension (rank <= 16)"
            );
            let mut out_dims = [0usize; 16];
            out_dims[..sd.len()].copy_from_slice(sd);
            out_dims[0] = batch;
            let inner: usize = sd[1..].iter().product();
            (sd.len(), out_dims, inner)
        };
        let mut out = Tensor::from_pooled_uninit(&self.pool, &out_dims[..nd]);
        {
            let od = out.data_mut();
            for (si, &(lo, hi)) in self.shard_ranges.iter().enumerate() {
                let v = self.shard_out[si].expect("par_scope runs every shard");
                let sv = self.shard_arenas[si].value(v);
                debug_assert_eq!(sv.shape().dim(0), hi - lo, "shard output rows");
                od[lo * inner..hi * inner].copy_from_slice(sv.data());
            }
        }
        out
    }

    /// Validating variant of [`InferenceSession::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] if the sample has zero elements
    /// (any zero-sized dimension), and [`TensorError::ShapeMismatch`] if
    /// its shape differs from the shape configured via
    /// [`InferenceSession::with_sample_shape`].
    pub fn try_predict(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        if x.shape().dims().contains(&0) {
            return Err(TensorError::EmptyInput {
                what: "predict sample",
            });
        }
        if let Some(expected) = &self.sample_shape {
            if x.shape().dims() != expected.as_slice() {
                return Err(TensorError::ShapeMismatch {
                    expected: expected.clone(),
                    actual: x.shape().dims().to_vec(),
                });
            }
        }
        Ok(self.predict(x))
    }

    /// Validating variant of [`InferenceSession::predict_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch (`b == 0`, or
    /// any other zero-sized dimension) and [`TensorError::ShapeMismatch`]
    /// when the batch dimension exceeds [`MAX_BATCH`] or the trailing dims
    /// differ from the configured per-sample shape (or the input has no
    /// batch dimension). Never panics on a malformed batch *shape*; the
    /// underlying model's own shape contract still applies to the sample
    /// dims when no sample shape was configured.
    pub fn try_predict_batch(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        let dims = x.shape().dims();
        if dims.is_empty() || dims.contains(&0) {
            return Err(TensorError::EmptyInput {
                what: "predict_batch batch",
            });
        }
        let batch = dims[0];
        if batch > MAX_BATCH {
            let mut want = vec![MAX_BATCH];
            want.extend_from_slice(&dims[1..]);
            return Err(TensorError::ShapeMismatch {
                expected: want,
                actual: dims.to_vec(),
            });
        }
        if let Some(expected) = &self.sample_shape {
            if dims.len() != expected.len() + 1 || dims[1..] != expected[..] {
                let mut want = vec![dims.first().copied().unwrap_or(1)];
                want.extend_from_slice(expected);
                return Err(TensorError::ShapeMismatch {
                    expected: want,
                    actual: dims.to_vec(),
                });
            }
        }
        Ok(self.predict_batch(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeuronPlacement, ResNet, ResNetConfig};
    use qn_autograd::Graph;
    use qn_core::NeuronSpec;
    use qn_tensor::Rng;

    fn tiny_net(neuron: NeuronSpec) -> ResNet {
        ResNet::cifar(ResNetConfig {
            depth: 8,
            base_width: 4,
            num_classes: 10,
            neuron,
            placement: NeuronPlacement::All,
            seed: 5,
        })
    }

    #[test]
    fn predict_matches_taped_forward() {
        for neuron in [
            NeuronSpec::Linear,
            NeuronSpec::EfficientQuadratic { rank: 3 },
        ] {
            let net = tiny_net(neuron);
            let mut rng = Rng::seed_from(7);
            let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let yv = qn_nn::Module::forward(&net, &mut g, xv);
            let taped = g.value(yv).clone();
            let mut session = InferenceSession::new(&net);
            let eager = session.predict_batch(&x);
            assert!(taped.allclose(&eager, 1e-6), "{neuron:?}");
        }
    }

    #[test]
    fn predict_strips_batch_dim() {
        let net = tiny_net(NeuronSpec::Linear);
        let mut rng = Rng::seed_from(8);
        let mut session = InferenceSession::new(&net);
        let y = session.predict(&Tensor::randn(&[3, 16, 16], &mut rng));
        assert_eq!(y.shape().dims(), &[10]);
    }

    #[test]
    fn session_is_reusable_across_requests() {
        let net = tiny_net(NeuronSpec::EfficientQuadratic { rank: 3 });
        let mut rng = Rng::seed_from(9);
        let mut session = InferenceSession::new(&net);
        let x = Tensor::randn(&[1, 3, 16, 16], &mut rng);
        let first = session.predict_batch(&x);
        for _ in 0..3 {
            let again = session.predict_batch(&x);
            assert!(first.allclose(&again, 0.0), "deterministic across reuse");
        }
    }

    #[test]
    fn quantized_session_tracks_f32_logits() {
        for neuron in [
            NeuronSpec::Linear,
            NeuronSpec::EfficientQuadratic { rank: 3 },
        ] {
            let net = tiny_net(neuron);
            let mut f32_session = InferenceSession::new(&net);
            assert_eq!(f32_session.precision(), Precision::F32);
            assert_eq!(f32_session.weight_dtype(), "f32");

            let mut q_session =
                InferenceSession::quantized(&net).expect("ResNet quantizes end to end");
            assert_eq!(q_session.precision(), Precision::Int8);
            assert_eq!(q_session.weight_dtype(), "int8");

            let mut rng = Rng::seed_from(21);
            let x = Tensor::randn(&[4, 3, 16, 16], &mut rng);
            let exact = f32_session.predict_batch(&x);
            let quant = q_session.predict_batch(&x);
            assert_eq!(exact.shape().dims(), quant.shape().dims());
            let drift = exact
                .data()
                .iter()
                .zip(quant.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(drift < 0.5, "{neuron:?}: max logit drift {drift}");
        }
    }

    #[test]
    fn quantized_session_is_deterministic_across_reuse() {
        let net = tiny_net(NeuronSpec::EfficientQuadratic { rank: 3 });
        let mut session = InferenceSession::quantized(&net).expect("quantizes");
        let mut rng = Rng::seed_from(22);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        // The first pass observes activation ranges (dynamic mode); its
        // output is already deterministic because each forward quantizes
        // per-row, independent of the observed stats.
        let first = session.predict_batch(&x);
        for _ in 0..3 {
            let again = session.predict_batch(&x);
            assert!(first.allclose(&again, 0.0), "bit-identical across reuse");
        }
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse("int8"), Some(Precision::Int8));
        assert_eq!(Precision::parse("fp64"), None);
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn try_predict_rejects_malformed_shapes() {
        let net = tiny_net(NeuronSpec::Linear);
        let mut rng = Rng::seed_from(10);
        let mut session = InferenceSession::with_sample_shape(&net, &[3, 16, 16]);
        // good sample passes
        assert!(session
            .try_predict(&Tensor::randn(&[3, 16, 16], &mut rng))
            .is_ok());
        // wrong rank and wrong extent are rejected, not panicking
        for bad in [vec![16usize, 16], vec![1, 16, 16], vec![3, 8, 16]] {
            let err = session.try_predict(&Tensor::zeros(&bad)).unwrap_err();
            assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{bad:?}");
        }
        // batch variants
        assert!(session
            .try_predict_batch(&Tensor::randn(&[2, 3, 16, 16], &mut rng))
            .is_ok());
        assert!(session
            .try_predict_batch(&Tensor::zeros(&[3, 16, 16]))
            .is_err());
    }

    #[test]
    fn try_predict_batch_rejects_empty_and_oversized_batches() {
        let net = tiny_net(NeuronSpec::Linear);
        // b == 0 must error, not panic — with and without a sample shape
        let mut plain = InferenceSession::new(&net);
        let err = plain
            .try_predict_batch(&Tensor::zeros(&[0, 3, 16, 16]))
            .unwrap_err();
        assert!(matches!(err, TensorError::EmptyInput { .. }), "{err:?}");
        let mut checked = InferenceSession::with_sample_shape(&net, &[3, 16, 16]);
        let err = checked
            .try_predict_batch(&Tensor::zeros(&[0, 3, 16, 16]))
            .unwrap_err();
        assert!(matches!(err, TensorError::EmptyInput { .. }), "{err:?}");
        // an interior zero-sized dim is also an empty input
        let err = plain
            .try_predict_batch(&Tensor::zeros(&[2, 0, 16, 16]))
            .unwrap_err();
        assert!(matches!(err, TensorError::EmptyInput { .. }), "{err:?}");
        // a zero-element sample too
        let err = plain.try_predict(&Tensor::zeros(&[0, 16, 16])).unwrap_err();
        assert!(matches!(err, TensorError::EmptyInput { .. }), "{err:?}");
        // over-limit batches are rejected at admission (shape is cheap to
        // build: the guard fires before any data is touched)
        let over = Tensor::zeros(&[MAX_BATCH + 1, 1]);
        let err = plain.try_predict_batch(&over).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err:?}");
    }
}
