//! Dual-mode execution: the [`Exec`] context abstraction and the tape-free
//! [`EagerExec`] arena.
//!
//! Every layer's forward pass is written once against [`Exec`]. Running it
//! on a [`Graph`] records the differentiation tape (training); running it on
//! an [`EagerExec`] evaluates the same arithmetic eagerly with **no** tape
//! nodes, no backward closures and none of the operand clones the tape
//! retains for the backward pass (inference/serving).
//!
//! [`Var`] handles are indices into whichever context produced them; a `Var`
//! from one context is meaningless in another.
//!
//! # Example
//!
//! ```
//! use qn_autograd::{EagerExec, Exec, Graph};
//! use qn_tensor::Tensor;
//!
//! # fn main() -> Result<(), qn_tensor::TensorError> {
//! let x = Tensor::from_vec(vec![1.0, -2.0], &[2])?;
//! // taped
//! let mut g = Graph::new();
//! let v = g.leaf(x.clone());
//! let y = g.relu(v);
//! // tape-free
//! let mut e = EagerExec::new();
//! let v2 = e.leaf(x);
//! let y2 = e.relu(v2);
//! assert!(g.value(y).allclose(e.value(y2), 0.0));
//! # Ok(())
//! # }
//! ```

use crate::graph::{Graph, Var};
use crate::nnops::{layer_norm_infer_into, softmax_rows_inplace};
use crate::ops::bcast_lead;
use crate::Parameter;
use crate::PAR_MIN_ELEMS;
use qn_tensor::{
    avg_pool2d_into, elemwise, gemm, gemm_patches, im2col_into, max_pool2d_into, BufferPool,
    Conv2dSpec, MatMut, MatRef, PoolSpec, Tensor, TensorError,
};
use std::sync::Arc;

/// One stage of a fused elementwise pipeline over a `[B, C, H, W]`
/// activation — see [`Exec::elemwise_chain`].
///
/// Each stage is exactly one of the workspace's elementwise primitives,
/// with the **same per-element scalar expression**, so a fused chain is
/// bit-identical to running the stages as separate ops.
#[derive(Clone, Copy)]
pub enum ChainStage<'a> {
    /// `v += bias[c]` — a per-channel bias ([`Exec::add_channel`]). The
    /// `Var` must be a `[C]` tensor.
    AddChannel(Var),
    /// `v *= scale[c]` — a per-channel scale ([`Exec::mul_channel`]).
    MulChannel(Var),
    /// Inference batch normalization
    /// `v = (v - mean[c]) · 1/√(var[c] + eps) · gamma[c] + beta[c]`
    /// ([`Exec::batch_norm2d`] with running statistics). Inference-only:
    /// the default decomposition panics if the context is in training mode
    /// (training must go through the layer so running stats update).
    NormChannel {
        /// Per-channel scale parameter (`[C]`).
        gamma: Var,
        /// Per-channel shift parameter (`[C]`).
        beta: Var,
        /// Running mean (`[C]`).
        mean: &'a Tensor,
        /// Running variance (`[C]`).
        var: &'a Tensor,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// `v = max(v, 0)` ([`Exec::relu`]).
    Relu,
    /// `v += residual[i]` — an elementwise residual add ([`Exec::add`]).
    /// The `Var` must have the same shape as the chain input.
    AddResidual(Var),
}

/// Execution context for a forward pass: either the differentiation tape
/// ([`Graph`]) or the allocation-light eager arena ([`EagerExec`]).
///
/// The op set mirrors [`Graph`]'s inherent forward ops one-to-one; both
/// implementations produce bitwise-identical values (the equivalence
/// property suites in `qn-nn` and `qn-core` assert this for every layer and
/// neuron family). Ops panic on shape mismatch exactly like their taped
/// counterparts — see each [`Graph`] method for the per-op contract.
///
/// Loss functions (`softmax_cross_entropy*`) and [`Graph::backward`] remain
/// tape-only: they exist to produce gradients.
pub trait Exec {
    /// Registers an input/constant tensor, returning its handle.
    fn leaf(&mut self, t: Tensor) -> Var;

    /// Registers a parameter's current value. On a [`Graph`] the leaf is
    /// bound so `backward` flushes its gradient; eagerly it is just a value.
    fn param(&mut self, p: &Parameter) -> Var;

    /// Value of a node.
    fn value(&self, v: Var) -> &Tensor;

    /// Whether stochastic/normalization layers should use training
    /// behaviour. Always `false` for [`EagerExec`].
    fn is_training(&self) -> bool;

    /// Elementwise sum of two same-shape nodes.
    fn add(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise difference `a - b`.
    fn sub(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Var, b: Var) -> Var;
    /// Multiplies every element by a constant.
    fn scale(&mut self, a: Var, s: f32) -> Var;
    /// Adds a constant to every element.
    fn add_scalar(&mut self, a: Var, s: f32) -> Var;
    /// Elementwise negation.
    fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }
    /// Elementwise square.
    fn square(&mut self, a: Var) -> Var;
    /// Elementwise integer power `xᵖ` (`p >= 1`).
    fn powi(&mut self, a: Var, p: i32) -> Var;
    /// Rectified linear unit.
    fn relu(&mut self, a: Var) -> Var;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Var) -> Var;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var;

    /// Adds `b` (a trailing-suffix shape of `a`) broadcast over leading dims.
    fn add_bcast(&mut self, a: Var, b: Var) -> Var;
    /// Multiplies by `b` broadcast over leading dims (suffix rule).
    fn mul_bcast(&mut self, a: Var, b: Var) -> Var;
    /// Adds a per-channel bias `[C]` to a `[B, C, H, W]` activation.
    fn add_channel(&mut self, a: Var, bias: Var) -> Var;
    /// Multiplies a `[B, C, H, W]` activation by a per-channel scale `[C]`.
    fn mul_channel(&mut self, a: Var, scale: Var) -> Var;

    /// Reshapes to `dims` (element count must match).
    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var;
    /// Permutes axes.
    fn permute(&mut self, a: Var, axes: &[usize]) -> Var;
    /// Concatenates nodes along `axis`.
    fn concat(&mut self, parts: &[Var], axis: usize) -> Var;
    /// Copies the half-open `[start, end)` range of `axis`.
    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var;

    /// Sum of all elements, as a `[1]` tensor.
    fn sum_all(&mut self, a: Var) -> Var;
    /// Mean of all elements, as a `[1]` tensor.
    fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).numel() as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }
    /// Sums over `axis`, removing it.
    fn sum_axis(&mut self, a: Var, axis: usize) -> Var;
    /// Mean over `axis`, removing it.
    fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        let n = self.value(a).shape().dim(axis) as f32;
        let s = self.sum_axis(a, axis);
        self.scale(s, 1.0 / n)
    }

    /// Matrix product `a @ b` of `[M, K] × [K, N]`.
    fn matmul(&mut self, a: Var, b: Var) -> Var;
    /// Matrix product `a @ bᵀ` of `[M, K] × [N, K]ᵀ`.
    fn matmul_transb(&mut self, a: Var, b: Var) -> Var;
    /// Batched matrix product of `[N, M, K] × [N, K, P]`.
    fn bmm(&mut self, a: Var, b: Var) -> Var;

    /// Lowers `[B, C, H, W]` to patch rows `[B·OH·OW, C·K·K]`.
    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var;
    /// 2-D convolution of `[B, C, H, W]` with filters `[OC, C, K, K]`.
    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var;
    /// Max pooling with a square window.
    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var;
    /// Average pooling with a square window.
    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var;
    /// Global average pooling: `[B, C, H, W] -> [B, C]`.
    fn global_avg_pool(&mut self, x: Var) -> Var;

    /// Numerically-stable softmax over the last axis.
    fn softmax_last(&mut self, x: Var) -> Var;
    /// Layer normalization over the last axis with affine `gamma`/`beta`.
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var;
    /// Batch normalization over `[B, C, H, W]`. In training mode (tape only)
    /// returns the batch statistics for the caller's running-stat update; in
    /// inference mode normalizes with the provided running statistics and
    /// returns `None`.
    fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> (Var, Option<(Tensor, Tensor)>);
    /// Embedding lookup: gathers rows of `weight` (`[V, D]`) by token id.
    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var;
    /// Inverted dropout; identity in inference mode.
    fn dropout(&mut self, x: Var, p: f32) -> Var;

    // ----- fused composites -----------------------------------------------
    //
    // Composite ops with a default decomposition into the primitives above.
    // The tape uses the defaults (so gradients flow through the recorded
    // primitives); `EagerExec` overrides `quadratic_neurons`, `quadratic_conv2d`,
    // `rows_to_nchw` and `elemwise_chain` with fused kernels that skip the
    // intermediate tensors. Both produce bitwise-identical values.

    /// The quadratic energy `y₂[r, j] = Σᵢ λ[j, i] · f[r, j·k + i]²` of the
    /// paper's efficient neuron: `f` is `[rows, m·k]` (per-neuron feature
    /// groups of width `k`), `lambda` is `[m, k]`; returns `[rows, m]`. A
    /// step of [`quadratic_neurons`](Exec::quadratic_neurons)' default.
    fn weighted_square_sum(&mut self, f: Var, lambda: Var, neurons: usize, k: usize) -> Var {
        let rows = self.value(f).shape().dim(0);
        let f3 = self.reshape(f, &[rows, neurons, k]);
        let fsq = self.square(f3);
        let weighted = self.mul_bcast(fsq, lambda);
        self.sum_axis(weighted, 2)
    }

    /// Interleaves scalar outputs `y` (`[rows, m]`) with their feature
    /// groups `f` (`[rows, m·k]`) neuron-major into `[rows, m·(k+1)]`:
    /// `[y₀, f₀…, y₁, f₁…, …]` — the paper's vectorized output layout. A
    /// step of [`quadratic_neurons`](Exec::quadratic_neurons)' default.
    fn interleave_last(&mut self, y: Var, f: Var, k: usize) -> Var {
        let (rows, m) = self.value(y).dims2();
        let f3 = self.reshape(f, &[rows, m, k]);
        let y3 = self.reshape(y, &[rows, m, 1]);
        let out3 = self.concat(&[y3, f3], 2);
        self.reshape(out3, &[rows, m * (k + 1)])
    }

    /// A layer of `m` of the paper's efficient quadratic neurons of rank
    /// `k` over `x` (`[rows, n]`): `q` is `[m·k, n]` (row `j·k + i` is the
    /// i-th column of neuron j's `Qᵏ`), `lambda` `[m, k]`, `w` `[m, n]`,
    /// `b` `[m]`. Neuron j computes `fⱼ = Qⱼx` and
    /// `yⱼ = (wⱼ·x + bⱼ) + Σᵢ λⱼᵢ·fⱼᵢ²`. Returns `[rows, m·(k+1)]` in the
    /// interleaved `[y₀, f₀…, y₁, f₁…, …]` layout when `vectorized`, else
    /// `[rows, m]` holding `y` alone.
    ///
    /// The default runs two products (`x·Qᵀ`, `x·Wᵀ`) and the
    /// [`weighted_square_sum`](Exec::weighted_square_sum), `add_bcast`,
    /// `add` and [`interleave_last`](Exec::interleave_last) passes, so the
    /// tape records every primitive. `EagerExec` stacks each neuron's rows
    /// `[wⱼ; Qⱼ]` into one `[m·(k+1), n]` operand, so a single GEMM writes
    /// `x·wⱼ` and `fⱼ` straight into the interleaved layout, and one row
    /// pass then finishes each `yⱼ` in place.
    ///
    /// Both produce the same bits. Each product element is a sequential
    /// dot over `n` starting from `+0.0`, whichever operand holds its
    /// weight row and whichever GEMM path (packed or fallback) runs it. The
    /// eager pass sums `fᵢ·fᵢ·λᵢ` from `+0.0` in index order, like the
    /// default's `square`, `mul_bcast` and `sum_axis`, and then forms
    /// `(x·w + b) + Σ` in the default's order.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `x`, `q`, `lambda`, `w` and `b`.
    fn quadratic_neurons(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        vectorized: bool,
    ) -> Var {
        let (m, k) = self.value(lambda).dims2();
        let f = self.matmul_transb(x, q); // [rows, m·k]
        let y2 = self.weighted_square_sum(f, lambda, m, k); // [rows, m]
        let xw = self.matmul_transb(x, w);
        let y1 = self.add_bcast(xw, b);
        let y = self.add(y1, y2);
        if vectorized {
            self.interleave_last(y, f, k)
        } else {
            y
        }
    }

    /// [`quadratic_neurons`](Exec::quadratic_neurons) on every `spec` patch
    /// of the `[B, C, H, W]` input `x` (`n = C·K·K`): the paper's quadratic
    /// conv, `[B, m·(k+1), OH, OW]`, or `[B, m, OH, OW]` unless `vectorized`.
    /// The default runs `im2col`, `quadratic_neurons` and `rows_to_nchw`,
    /// so the tape records them; `EagerExec` runs the stacked product on
    /// patches read straight from the image and finishes `y` plane by
    /// plane, vectorized across positions, with the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 4-D or on `quadratic_neurons`' shape checks.
    #[allow(clippy::too_many_arguments)]
    fn quadratic_conv2d(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        spec: Conv2dSpec,
        vectorized: bool,
    ) -> Var {
        let (batch, _, h, wd) = self.value(x).dims4();
        let (oh, ow) = spec.output_hw(h, wd);
        let cols = self.im2col(x, spec);
        let y = self.quadratic_neurons(cols, q, lambda, w, b, vectorized);
        let channels = self.value(y).dims2().1;
        self.rows_to_nchw(y, batch, oh, ow, channels)
    }

    /// Reinterprets patch-major rows `[B·OH·OW, C]` (the output of a dense
    /// layer applied to im2col patches) as a `[B, C, OH, OW]` feature map.
    fn rows_to_nchw(&mut self, v: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var {
        let r = self.reshape(v, &[b, oh, ow, c]);
        self.permute(r, &[0, 3, 1, 2])
    }

    /// Fused elementwise pipeline over a `[B, C, H, W]` activation: applies
    /// the [`ChainStage`]s left to right. The default decomposes into the
    /// primitive ops (so the tape records every stage and gradients flow);
    /// `EagerExec` overrides it with a **single pass** over the activation —
    /// bias + norm + activation + residual in one sweep instead of one full
    /// memory pass per stage. Both produce bitwise-identical values because
    /// each element sees the same scalar expressions in the same order.
    ///
    /// # Panics
    ///
    /// Panics on stage shape mismatches (each stage's primitive contract
    /// applies), and if a [`ChainStage::NormChannel`] stage runs in a
    /// training-mode context (running statistics would silently not
    /// update — use the normalization layer's training path instead).
    fn elemwise_chain(&mut self, x: Var, stages: &[ChainStage<'_>]) -> Var {
        let mut v = x;
        for stage in stages {
            v = match *stage {
                ChainStage::AddChannel(bias) => self.add_channel(v, bias),
                ChainStage::MulChannel(scale) => self.mul_channel(v, scale),
                ChainStage::NormChannel {
                    gamma,
                    beta,
                    mean,
                    var,
                    eps,
                } => {
                    let (y, stats) = self.batch_norm2d(v, gamma, beta, mean, var, eps);
                    assert!(
                        stats.is_none(),
                        "elemwise_chain norm stages are inference-only"
                    );
                    y
                }
                ChainStage::Relu => self.relu(v),
                ChainStage::AddResidual(r) => self.add(v, r),
            };
        }
        v
    }
}

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
        Graph::add(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        Graph::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Graph::mul(self, a, b)
    }
    fn scale(&mut self, a: Var, s: f32) -> Var {
        Graph::scale(self, a, s)
    }
    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        Graph::add_scalar(self, a, s)
    }
    fn neg(&mut self, a: Var) -> Var {
        Graph::neg(self, a)
    }
    fn square(&mut self, a: Var) -> Var {
        Graph::square(self, a)
    }
    fn powi(&mut self, a: Var, p: i32) -> Var {
        Graph::powi(self, a, p)
    }
    fn relu(&mut self, a: Var) -> Var {
        Graph::relu(self, a)
    }
    fn tanh(&mut self, a: Var) -> Var {
        Graph::tanh(self, a)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        Graph::sigmoid(self, a)
    }
    fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        Graph::add_bcast(self, a, b)
    }
    fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        Graph::mul_bcast(self, a, b)
    }
    fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        Graph::add_channel(self, a, bias)
    }
    fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        Graph::mul_channel(self, a, scale)
    }
    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        Graph::reshape(self, a, dims)
    }
    fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        Graph::permute(self, a, axes)
    }
    fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        Graph::concat(self, parts, axis)
    }
    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        Graph::slice_axis(self, a, axis, start, end)
    }
    fn sum_all(&mut self, a: Var) -> Var {
        Graph::sum_all(self, a)
    }
    fn mean_all(&mut self, a: Var) -> Var {
        Graph::mean_all(self, a)
    }
    fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        Graph::sum_axis(self, a, axis)
    }
    fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        Graph::mean_axis(self, a, axis)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Graph::matmul(self, a, b)
    }
    fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        Graph::matmul_transb(self, a, b)
    }
    fn bmm(&mut self, a: Var, b: Var) -> Var {
        Graph::bmm(self, a, b)
    }
    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        Graph::im2col(self, x, spec)
    }
    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        Graph::conv2d(self, x, weight, spec)
    }
    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        Graph::max_pool2d(self, x, spec)
    }
    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        Graph::avg_pool2d(self, x, spec)
    }
    fn global_avg_pool(&mut self, x: Var) -> Var {
        Graph::global_avg_pool(self, x)
    }
    fn softmax_last(&mut self, x: Var) -> Var {
        Graph::softmax_last(self, x)
    }
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        Graph::layer_norm(self, x, gamma, beta, eps)
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
        Graph::batch_norm2d(self, x, gamma, beta, running_mean, running_var, eps)
    }
    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        Graph::embedding(self, weight, ids)
    }
    fn dropout(&mut self, x: Var, p: f32) -> Var {
        Graph::dropout(self, x, p)
    }
}

/// Tape-free eager execution arena for inference.
///
/// Holds only the computed activation tensors — no gradients, parents or
/// backward closures — and recycles **everything** across requests:
///
/// - **Slot recycling (high-water-mark arena):** [`EagerExec::reset`] does
///   not drop the computed tensors; it rewinds a cursor. The next pass
///   refits each slot's buffer in place, so a steady-state serving loop
///   that repeats the same op sequence (the common case: one model, one
///   request shape) on one worker thread performs **zero heap
///   allocations** — `crates/bench/tests/contracts.rs` checks this with a
///   counting allocator. With more threads, each parallel region boxes
///   its tasks.
/// - **Pooled scratch:** kernel workspace that is not an activation (the
///   stacked `[wⱼ; Qⱼ]` operand of the quadratic ops, per-channel `1/σ`
///   vectors in batch norm) is drawn from — and returned to — the arena's
///   [`BufferPool`] ([`EagerExec::with_pool`]; `new` uses the global pool).
/// - **Parameter snapshots** are recycled across resets exactly as before:
///   `param` moves a weight tensor out of an internal cache instead of
///   cloning the parameter storage, and `reset` moves it back. The cache is
///   keyed by parameter storage identity (holding the [`Parameter`] handle,
///   so identity cannot be recycled) and invalidated by
///   [`Parameter::version`], so a weight update between requests triggers
///   exactly one fresh snapshot.
///
/// Recycled buffers carry stale contents; every op fully overwrites (or
/// zero-fills) its output, and the `pool_equivalence` property suite
/// asserts pooled execution is bit-identical to fresh-allocation execution
/// even when the pool is pre-poisoned with NaN garbage.
///
/// Always in inference mode: dropout is the identity and batch norm uses
/// running statistics.
pub struct EagerExec {
    /// Arena slots. `values[..live]` are this pass's nodes; slots past
    /// `live` are spare tensors from the previous pass awaiting refit.
    /// `None` marks a slot whose tensor was moved out (`take`, or a
    /// parameter snapshot reclaimed by `reset`).
    values: Vec<Option<Tensor>>,
    /// Number of live nodes in the current pass.
    live: usize,
    /// Scratch-buffer pool (see the type-level docs).
    pool: Arc<BufferPool>,
    /// `(parameter handle, version, snapshot)` of parameters not currently
    /// in the arena. Holding the handle keeps the storage alive, so
    /// identity can never be recycled to a different parameter (no
    /// pointer-reuse aliasing). Linear scan: models hold tens of
    /// parameters, not thousands.
    param_cache: Vec<(Parameter, u64, Tensor)>,
    /// `(arena slot, parameter handle, version)` of parameters pushed
    /// since the last reset, so their snapshots can be reclaimed.
    param_slots: Vec<(usize, Parameter, u64)>,
}

impl Default for EagerExec {
    fn default() -> Self {
        EagerExec::new()
    }
}

/// Reads a live arena value (the immutable prefix returned by `out_slot`).
fn live_val(head: &[Option<Tensor>], v: Var) -> &Tensor {
    head.get(v.id)
        .and_then(|slot| slot.as_ref())
        .expect("var is not live in this arena")
}

/// Refits a (possibly spare) slot to `dims`, reusing its buffer and shape
/// when they match; contents are unspecified and must be fully overwritten.
fn refit_slot<'s>(slot: &'s mut Option<Tensor>, dims: &[usize]) -> &'s mut Tensor {
    match slot {
        Some(t) => {
            t.refit(dims);
            t
        }
        None => {
            *slot = Some(Tensor::zeros(dims));
            slot.as_mut().expect("just set")
        }
    }
}

/// Finishes one neuron's conv planes: `y ← (y + b) + Σᵢ λᵢ·fᵢ²` over the
/// `k` planes `f`, summed from `+0.0` in index order like the dense row
/// pass, in chunks of positions so the loops vectorize without mixing lanes.
fn finish_y(y: &mut [f32], f: &[f32], lambda: &[f32], bias: f32) {
    const CHUNK: usize = 8;
    let lanes = y.len();
    for (p0, yc) in (0..lanes).step_by(CHUNK).zip(y.chunks_mut(CHUNK)) {
        let mut energy = [0.0f32; CHUNK];
        for (fi, &li) in f.chunks_exact(lanes).zip(lambda) {
            for (e, &fv) in energy.iter_mut().zip(&fi[p0..p0 + yc.len()]) {
                *e += fv * fv * li;
            }
        }
        for (yv, &e) in yc.iter_mut().zip(&energy) {
            *yv = (*yv + bias) + e;
        }
    }
}

impl EagerExec {
    /// Creates an empty arena backed by the global [`BufferPool`].
    pub fn new() -> Self {
        EagerExec::with_pool(Arc::clone(BufferPool::global()))
    }

    /// Creates an empty arena drawing kernel scratch from `pool` — used by
    /// `InferenceSession` to give every session (and every batch-shard
    /// worker) its own isolated pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        EagerExec {
            values: Vec::new(),
            live: 0,
            pool,
            param_cache: Vec::new(),
            param_slots: Vec::new(),
        }
    }

    /// The pool this arena recycles kernel scratch through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Rewinds the arena while keeping every slot's tensor for in-place
    /// reuse by the next pass; parameter snapshots move back into the
    /// recycle cache.
    pub fn reset(&mut self) {
        for (slot, param, version) in self.param_slots.drain(..) {
            if let Some(t) = self.values[slot].take() {
                self.param_cache.push((param, version, t));
            }
        }
        self.live = 0;
    }

    /// Number of live values in the current pass.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes the value of `v` from the arena, transferring ownership to
    /// the caller (the slot refills on the next pass). Used by serving code
    /// to extract the output without a final copy; note that a serving loop
    /// gets a cheaper steady state by *copying* the output into a pooled
    /// tensor instead, which keeps the slot's buffer in the arena.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not live in this arena.
    pub fn take(&mut self, v: Var) -> Tensor {
        assert!(v.id < self.live, "var is not live in this arena");
        // if the caller extracts a parameter leaf, it must not be recycled
        self.param_slots.retain(|(slot, _, _)| *slot != v.id);
        self.values[v.id].take().expect("value already taken")
    }

    /// Registers an input by **copying** it into a recycled slot — the
    /// allocation-free counterpart of `leaf(x.clone())`.
    pub fn leaf_view(&mut self, t: &Tensor) -> Var {
        let (_, slot) = self.out_slot();
        let out = refit_slot(slot, t.shape().dims());
        out.data_mut().copy_from_slice(t.data());
        self.commit()
    }

    /// Registers an input by copying it into a recycled slot under a
    /// different shape (same element count) — lets `predict` add a batch
    /// dimension without materializing an intermediate reshape.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has a different element count than `t`, or
    /// `dims.len() > 16`.
    pub fn leaf_reshaped(&mut self, t: &Tensor, dims: &[usize]) -> Var {
        let numel: usize = dims.iter().product();
        assert_eq!(t.numel(), numel, "leaf_reshaped element count mismatch");
        let (_, slot) = self.out_slot();
        let out = refit_slot(slot, dims);
        out.data_mut().copy_from_slice(t.data());
        self.commit()
    }

    /// Registers rows `[lo, hi)` of `t`'s leading axis by copying them into
    /// a recycled slot — the allocation-free counterpart of
    /// `leaf(t.slice_axis(0, lo, hi))`, used by sharded batch inference.
    ///
    /// # Panics
    ///
    /// Panics if `t` is rank 0, the range is out of bounds or inverted, or
    /// the rank exceeds 16.
    pub fn leaf_slice0(&mut self, t: &Tensor, lo: usize, hi: usize) -> Var {
        let dims = t.shape().dims();
        assert!(!dims.is_empty(), "leaf_slice0 needs a leading axis");
        assert!(dims.len() <= 16, "leaf_slice0 supports rank <= 16");
        assert!(
            lo <= hi && hi <= dims[0],
            "slice [{lo}, {hi}) out of bounds for axis of size {}",
            dims[0]
        );
        let inner: usize = dims[1..].iter().product();
        let mut nd = [0usize; 16];
        nd[..dims.len()].copy_from_slice(dims);
        nd[0] = hi - lo;
        let (_, slot) = self.out_slot();
        let out = refit_slot(slot, &nd[..dims.len()]);
        out.data_mut()
            .copy_from_slice(&t.data()[lo * inner..hi * inner]);
        self.commit()
    }

    /// The eager quadratic layer on rows `[rows, n]` or, given `spec`, on
    /// the patches of `[B, C, H, W]`: one product with each neuron's rows
    /// `[wⱼ; Qⱼ]` stacked writes `x·wⱼ` and `fⱼ` into its output group.
    fn quadratic_eager(
        &mut self,
        x: Var,
        [q, lambda, w, b]: [Var; 4],
        vectorized: bool,
        spec: Option<Conv2dSpec>,
    ) -> Var {
        let pool = Arc::clone(&self.pool);
        let (head, slot) = self.out_slot();
        let (xv, lv) = (live_val(head, x), live_val(head, lambda));
        let (qd, wd) = (live_val(head, q).data(), live_val(head, w).data());
        let (ld, bd) = (lv.data(), live_val(head, b).data());
        // `lanes` output positions share each neuron group
        let ((lead, n), lanes, planes) = match spec {
            None => (xv.dims2(), 1, None),
            Some(spec) => {
                let (batch, c, h, wd) = xv.dims4();
                let (oh, ow) = spec.output_hw(h, wd);
                ((batch, spec.patch_len(c)), oh * ow, Some((oh, ow)))
            }
        };
        let (m, k) = lv.dims2();
        assert_eq!(qd.len(), m * k * n, "q must be [{}, {n}]", m * k);
        assert_eq!(wd.len(), m * n, "w must be [{m}, {n}]");
        assert_eq!(bd.len(), m, "b must hold {m} biases");
        let width = m * (k + 1);
        let mut stacked = BufferPool::take_ref(&pool, width * n);
        for (j, dst) in stacked.chunks_mut((k + 1) * n).enumerate() {
            dst[..n].copy_from_slice(&wd[j * n..(j + 1) * n]);
            dst[n..].copy_from_slice(&qd[j * k * n..(j + 1) * k * n]);
        }
        let channels = if vectorized { width } else { m };
        let out = match planes {
            None => refit_slot(slot, &[lead, channels]),
            Some((oh, ow)) => refit_slot(slot, &[lead, channels, oh, ow]),
        };
        // the scalar-output form multiplies into scratch, then keeps y
        let mut scratch = (!vectorized).then(|| BufferPool::take_ref(&pool, lead * width * lanes));
        let c: &mut [f32] = match scratch.as_deref_mut() {
            Some(s) => s,
            None => out.data_mut(),
        };
        let stacked_t = MatRef::new(&stacked, width, n).transpose();
        match spec {
            None => {
                gemm(MatMut::new(c, lead, width), xv.mat(), stacked_t);
                qn_parallel::par_chunks_mut_min(c, width, PAR_MIN_ELEMS, |_, row| {
                    for (j, group) in row.chunks_mut(k + 1).enumerate() {
                        let (y, f) = group.split_first_mut().expect("k + 1 >= 1");
                        let mut energy = 0.0f32;
                        for (&fi, &li) in f.iter().zip(&ld[j * k..(j + 1) * k]) {
                            energy += fi * fi * li;
                        }
                        *y = (*y + bd[j]) + energy;
                    }
                });
            }
            Some(spec) => {
                gemm_patches(c, xv, spec, stacked_t);
                qn_parallel::par_chunks_mut_min(c, (k + 1) * lanes, PAR_MIN_ELEMS, |g, group| {
                    let (j, (y, f)) = (g % m, group.split_at_mut(lanes));
                    finish_y(y, f, &ld[j * k..(j + 1) * k], bd[j]);
                });
            }
        }
        if let Some(s) = &scratch {
            let groups = s.chunks((k + 1) * lanes);
            for (o, group) in out.data_mut().chunks_mut(lanes).zip(groups) {
                o.copy_from_slice(&group[..lanes]);
            }
        }
        self.commit()
    }

    /// Moves an owned tensor into the next slot (dropping any spare buffer
    /// the slot held). The op implementations prefer `out_slot`/`commit`,
    /// which recycle instead.
    fn push(&mut self, value: Tensor) -> Var {
        if self.live == self.values.len() {
            self.values.push(Some(value));
        } else {
            self.values[self.live] = Some(value);
        }
        self.commit()
    }

    /// Splits the arena into the live prefix (op inputs) and the next
    /// output slot; `commit` afterwards makes the slot live.
    fn out_slot(&mut self) -> (&[Option<Tensor>], &mut Option<Tensor>) {
        if self.live == self.values.len() {
            self.values.push(None);
        }
        let (head, tail) = self.values.split_at_mut(self.live);
        (head, &mut tail[0])
    }

    fn commit(&mut self) -> Var {
        let id = self.live;
        self.live += 1;
        Var { id }
    }
}

impl Exec for EagerExec {
    fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t)
    }

    fn param(&mut self, p: &Parameter) -> Var {
        let version = p.version();
        let snapshot = match self
            .param_cache
            .iter()
            .position(|(cp, v, _)| cp.same_storage(p) && *v == version)
        {
            Some(i) => self.param_cache.swap_remove(i).2,
            None => {
                // drop only *stale* snapshots of this parameter; same-version
                // copies stay cached (weight sharing uses several per pass)
                self.param_cache
                    .retain(|(cp, v, _)| !cp.same_storage(p) || *v == version);
                p.value()
            }
        };
        let var = self.push(snapshot);
        self.param_slots.push((var.id, p.clone(), version));
        var
    }

    fn value(&self, v: Var) -> &Tensor {
        assert!(v.id < self.live, "var is not live in this arena");
        self.values[v.id].as_ref().expect("value was taken")
    }

    fn is_training(&self) -> bool {
        false
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        assert_eq!(
            av.shape(),
            bv.shape(),
            "zip shape mismatch: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let out = refit_slot(slot, av.shape().dims());
        elemwise::add_to(out.data_mut(), av.data(), bv.data());
        self.commit()
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        assert_eq!(
            av.shape(),
            bv.shape(),
            "zip shape mismatch: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let out = refit_slot(slot, av.shape().dims());
        elemwise::sub_to(out.data_mut(), av.data(), bv.data());
        self.commit()
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        assert_eq!(
            av.shape(),
            bv.shape(),
            "zip shape mismatch: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let out = refit_slot(slot, av.shape().dims());
        elemwise::mul_to(out.data_mut(), av.data(), bv.data());
        self.commit()
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::scale_to(out.data_mut(), av.data(), s);
        self.commit()
    }

    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::add_scalar_to(out.data_mut(), av.data(), s);
        self.commit()
    }

    fn square(&mut self, a: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::square_to(out.data_mut(), av.data());
        self.commit()
    }

    fn powi(&mut self, a: Var, p: i32) -> Var {
        assert!(p >= 1, "powi requires p >= 1, got {p}");
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::map_to(out.data_mut(), av.data(), move |x| x.powi(p));
        self.commit()
    }

    fn relu(&mut self, a: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::relu_to(out.data_mut(), av.data());
        self.commit()
    }

    fn tanh(&mut self, a: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::map_to(out.data_mut(), av.data(), |x| x.tanh());
        self.commit()
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let out = refit_slot(slot, av.shape().dims());
        elemwise::sigmoid_to(out.data_mut(), av.data());
        self.commit()
    }

    fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        bcast_lead(av, bv);
        let out = refit_slot(slot, av.shape().dims());
        let od = out.data_mut();
        od.copy_from_slice(av.data());
        let bl = bv.numel();
        for chunk in od.chunks_mut(bl) {
            for (o, &x) in chunk.iter_mut().zip(bv.data()) {
                *o += x;
            }
        }
        self.commit()
    }

    fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        bcast_lead(av, bv);
        let out = refit_slot(slot, av.shape().dims());
        let od = out.data_mut();
        od.copy_from_slice(av.data());
        let bl = bv.numel();
        for chunk in od.chunks_mut(bl) {
            for (o, &x) in chunk.iter_mut().zip(bv.data()) {
                *o *= x;
            }
        }
        self.commit()
    }

    fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        let stages = [ChainStage::AddChannel(bias)];
        self.elemwise_chain(a, &stages)
    }

    fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        let stages = [ChainStage::MulChannel(scale)];
        self.elemwise_chain(a, &stages)
    }

    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        if self.value(a).shape().dims() == dims {
            // shape is unchanged: reuse the node, no copy
            return a;
        }
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let numel: usize = dims.iter().product();
        if av.numel() != numel {
            panic!(
                "reshape: {}",
                TensorError::ReshapeMismatch {
                    from: av.shape().dims().to_vec(),
                    to: dims.to_vec(),
                }
            );
        }
        let out = refit_slot(slot, dims);
        out.data_mut().copy_from_slice(av.data());
        self.commit()
    }

    fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let nd = av.ndim();
        assert_eq!(axes.len(), nd, "permute needs {nd} axes");
        assert!(nd <= 16, "permute supports rank <= 16");
        let old_dims = av.shape().dims();
        let mut new_dims = [0usize; 16];
        for (i, &ax) in axes.iter().enumerate() {
            assert!(ax < nd, "axes must be a permutation of 0..{nd}");
            new_dims[i] = old_dims[ax];
        }
        let out = refit_slot(slot, &new_dims[..nd]);
        av.permute_into(axes, out.data_mut());
        self.commit()
    }

    fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let (head, slot) = self.out_slot();
        let first = live_val(head, parts[0]);
        let nd = first.ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        assert!(nd <= 16, "concat supports rank <= 16");
        let dims = first.shape().dims();
        let mut total_mid = 0usize;
        for p in parts {
            let pv = live_val(head, *p);
            assert_eq!(pv.ndim(), nd, "concat rank mismatch");
            for (a, &d) in dims.iter().enumerate() {
                if a != axis {
                    assert_eq!(pv.shape().dim(a), d, "concat dim {a} mismatch");
                }
            }
            total_mid += pv.shape().dim(axis);
        }
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims = [0usize; 16];
        out_dims[..nd].copy_from_slice(dims);
        out_dims[axis] = total_mid;
        let out = refit_slot(slot, &out_dims[..nd]);
        let od = out.data_mut();
        for o in 0..outer {
            let mut mid_off = 0usize;
            for p in parts {
                let pv = live_val(head, *p);
                let mid = pv.shape().dim(axis);
                let src = &pv.data()[o * mid * inner..(o + 1) * mid * inner];
                let dst_base = (o * total_mid + mid_off) * inner;
                od[dst_base..dst_base + mid * inner].copy_from_slice(src);
                mid_off += mid;
            }
        }
        self.commit()
    }

    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let nd = av.ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        assert!(nd <= 16, "slice_axis supports rank <= 16");
        let dims = av.shape().dims();
        assert!(
            start <= end && end <= dims[axis],
            "slice [{start}, {end}) out of bounds for axis of size {}",
            dims[axis]
        );
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mid = dims[axis];
        let new_mid = end - start;
        let mut out_dims = [0usize; 16];
        out_dims[..nd].copy_from_slice(dims);
        out_dims[axis] = new_mid;
        let out = refit_slot(slot, &out_dims[..nd]);
        let od = out.data_mut();
        for o in 0..outer {
            let src_base = (o * mid + start) * inner;
            let dst_base = o * new_mid * inner;
            od[dst_base..dst_base + new_mid * inner]
                .copy_from_slice(&av.data()[src_base..src_base + new_mid * inner]);
        }
        self.commit()
    }

    fn sum_all(&mut self, a: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let total: f32 = av.data().iter().sum();
        let out = refit_slot(slot, &[1]);
        out.data_mut()[0] = total;
        self.commit()
    }

    fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let nd = av.ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        assert!(nd <= 16, "sum_axis supports rank <= 16");
        let dims = av.shape().dims();
        let mut out_dims = [0usize; 16];
        let mut odn = 0usize;
        for (i, &d) in dims.iter().enumerate() {
            if i != axis {
                out_dims[odn] = d;
                odn += 1;
            }
        }
        if odn == 0 {
            out_dims[0] = 1;
            odn = 1;
        }
        let out = refit_slot(slot, &out_dims[..odn]);
        av.sum_axis_into(axis, out.data_mut());
        self.commit()
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        assert_eq!(av.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(bv.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = av.dims2();
        let (k2, n) = bv.dims2();
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let out = refit_slot(slot, &[m, n]);
        gemm(MatMut::new(out.data_mut(), m, n), av.mat(), bv.mat());
        self.commit()
    }

    fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        assert_eq!(av.ndim(), 2, "matmul_transb lhs must be 2-D");
        assert_eq!(bv.ndim(), 2, "matmul_transb rhs must be 2-D");
        let (m, k) = av.dims2();
        let (n, k2) = bv.dims2();
        assert_eq!(k, k2, "matmul_transb trailing dims differ: {k} vs {k2}");
        let out = refit_slot(slot, &[m, n]);
        gemm(
            MatMut::new(out.data_mut(), m, n),
            av.mat(),
            bv.mat().transpose(),
        );
        self.commit()
    }

    fn bmm(&mut self, a: Var, b: Var) -> Var {
        let (head, slot) = self.out_slot();
        let av = live_val(head, a);
        let bv = live_val(head, b);
        let (n, m, _k, p) = crate::matops::bmm_dims(av, bv);
        let out = refit_slot(slot, &[n, m, p]);
        crate::matops::bmm_forward_into(out.data_mut(), av, bv);
        self.commit()
    }

    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let (b, c, h, w) = xv.dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let patch = c * spec.kernel * spec.kernel;
        let out = refit_slot(slot, &[b * oh * ow, patch]);
        im2col_into(out.data_mut(), xv, spec);
        self.commit()
    }

    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        // per image `patches · Wᵀ`, read from the image and stored into the
        // planes: the taped im2col → matmul_transb → permute bits, no copies
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let wv = live_val(head, weight);
        let (b, c, h, w) = xv.dims4();
        let (oc, wc, kh, kw) = wv.dims4();
        assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
        assert_eq!(kh, spec.kernel, "conv2d kernel mismatch");
        assert_eq!(kw, spec.kernel, "conv2d kernel mismatch");
        let (oh, ow) = spec.output_hw(h, w);
        let out = refit_slot(slot, &[b, oc, oh, ow]);
        let wmat = MatRef::new(wv.data(), oc, c * kh * kw).transpose();
        gemm_patches(out.data_mut(), xv, spec, wmat);
        self.commit()
    }

    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        // values-only kernel: inference never needs the argmax indices
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let (b, c, h, w) = xv.dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let out = refit_slot(slot, &[b, c, oh, ow]);
        max_pool2d_into(out.data_mut(), xv, spec);
        self.commit()
    }

    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let (b, c, h, w) = xv.dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let out = refit_slot(slot, &[b, c, oh, ow]);
        avg_pool2d_into(out.data_mut(), xv, spec);
        self.commit()
    }

    fn global_avg_pool(&mut self, x: Var) -> Var {
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let (b, c, h, w) = xv.dims4();
        assert_eq!(h, w, "global_avg_pool expects square feature maps");
        // single pass, same summation order as avg_pool2d over a full window
        let norm = 1.0 / (h * w) as f32;
        let data = xv.data();
        let out = refit_slot(slot, &[b, c]);
        qn_parallel::par_chunks_mut_min(out.data_mut(), c.max(1), PAR_MIN_ELEMS, |bi, orow| {
            for (ci, o) in orow.iter_mut().enumerate() {
                let base = (bi * c + ci) * h * w;
                let mut acc = 0.0f32;
                for &v in &data[base..base + h * w] {
                    acc += v;
                }
                *o = acc * norm;
            }
        });
        self.commit()
    }

    fn softmax_last(&mut self, x: Var) -> Var {
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let last = xv.shape().dims().last().copied().unwrap_or(1);
        let out = refit_slot(slot, xv.shape().dims());
        let od = out.data_mut();
        od.copy_from_slice(xv.data());
        softmax_rows_inplace(od, last);
        self.commit()
    }

    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        // shared inference kernel, with no x̂ / 1/σ capture (nothing to
        // backprop) and the output written straight into the recycled slot
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let gv = live_val(head, gamma);
        let bv = live_val(head, beta);
        let out = refit_slot(slot, xv.shape().dims());
        layer_norm_infer_into(out.data_mut(), xv, gv, bv, eps);
        self.commit()
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
        // Inference-only: normalize with running statistics through the
        // fused chain (one pass, pooled 1/σ scratch, recycled output slot).
        let stages = [ChainStage::NormChannel {
            gamma,
            beta,
            mean: running_mean,
            var: running_var,
            eps,
        }];
        (self.elemwise_chain(x, &stages), None)
    }

    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        let (head, slot) = self.out_slot();
        let wv = live_val(head, weight);
        let (v, d) = wv.dims2();
        for &id in ids {
            assert!(id < v, "token id {id} out of range for vocab {v}");
        }
        let out = refit_slot(slot, &[ids.len(), d]);
        let od = out.data_mut();
        for (row, &id) in ids.iter().enumerate() {
            od[row * d..(row + 1) * d].copy_from_slice(&wv.data()[id * d..(id + 1) * d]);
        }
        self.commit()
    }

    fn dropout(&mut self, x: Var, p: f32) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0, 1), got {p}"
        );
        // inference mode: identity (no new node needed)
        x
    }

    fn quadratic_neurons(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        vectorized: bool,
    ) -> Var {
        self.quadratic_eager(x, [q, lambda, w, b], vectorized, None)
    }

    fn quadratic_conv2d(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        spec: Conv2dSpec,
        vectorized: bool,
    ) -> Var {
        self.quadratic_eager(x, [q, lambda, w, b], vectorized, Some(spec))
    }

    fn rows_to_nchw(&mut self, v: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var {
        let (head, slot) = self.out_slot();
        let vv = live_val(head, v);
        assert_eq!(vv.numel(), b * oh * ow * c, "rows_to_nchw size mismatch");
        let hw = oh * ow;
        let vd = vv.data();
        let out = refit_slot(slot, &[b, c, oh, ow]);
        qn_parallel::par_chunks_mut_min(
            out.data_mut(),
            (c * hw).max(1),
            PAR_MIN_ELEMS,
            |bi, oslab| {
                for pos in 0..hw {
                    let row = &vd[(bi * hw + pos) * c..(bi * hw + pos + 1) * c];
                    for (ci, &x) in row.iter().enumerate() {
                        oslab[ci * hw + pos] = x;
                    }
                }
            },
        );
        self.commit()
    }

    fn elemwise_chain(&mut self, x: Var, stages: &[ChainStage<'_>]) -> Var {
        /// Stage resolved to raw per-channel / per-element slices.
        enum Prep<'p> {
            Bias(&'p [f32]),
            Scale(&'p [f32]),
            Norm {
                mean: &'p [f32],
                inv: &'p [f32],
                gamma: &'p [f32],
                beta: &'p [f32],
            },
            Relu,
            Residual(&'p [f32]),
        }
        const MAX_STAGES: usize = 8;
        assert!(
            stages.len() <= MAX_STAGES,
            "elemwise_chain supports at most {MAX_STAGES} stages"
        );
        let pool = Arc::clone(&self.pool);
        // per-Norm-stage 1/σ scratch, drawn from the pool (hoisted per
        // channel exactly like the unfused batch-norm kernel)
        let mut inv_scratch: [Option<Vec<f32>>; MAX_STAGES] = Default::default();
        for (si, stage) in stages.iter().enumerate() {
            if let ChainStage::NormChannel { var, eps, .. } = stage {
                let mut inv = pool.take_f32(var.numel());
                for (o, &v) in inv.iter_mut().zip(var.data()) {
                    *o = 1.0 / (v + eps).sqrt();
                }
                inv_scratch[si] = Some(inv);
            }
        }
        let (head, slot) = self.out_slot();
        let xv = live_val(head, x);
        let (_b, c, h, w) = xv.dims4();
        let hw = h * w;
        let mut prep: [Option<Prep>; MAX_STAGES] = Default::default();
        for (si, stage) in stages.iter().enumerate() {
            prep[si] = Some(match *stage {
                ChainStage::AddChannel(bias) => {
                    let bv = live_val(head, bias);
                    assert_eq!(bv.ndim(), 1, "bias must be 1-D");
                    assert_eq!(bv.numel(), c, "bias width {} != {c}", bv.numel());
                    Prep::Bias(bv.data())
                }
                ChainStage::MulChannel(scale) => {
                    let sv = live_val(head, scale);
                    assert_eq!(sv.ndim(), 1, "scale must be 1-D");
                    assert_eq!(sv.numel(), c, "scale width {} != {c}", sv.numel());
                    Prep::Scale(sv.data())
                }
                ChainStage::NormChannel {
                    gamma, beta, mean, ..
                } => {
                    let gv = live_val(head, gamma);
                    let bv = live_val(head, beta);
                    assert_eq!(gv.numel(), c, "gamma width {} != {c}", gv.numel());
                    assert_eq!(bv.numel(), c, "beta width {} != {c}", bv.numel());
                    assert_eq!(mean.numel(), c, "mean width {} != {c}", mean.numel());
                    Prep::Norm {
                        mean: mean.data(),
                        inv: inv_scratch[si].as_deref().expect("computed above"),
                        gamma: gv.data(),
                        beta: bv.data(),
                    }
                }
                ChainStage::Relu => Prep::Relu,
                ChainStage::AddResidual(r) => {
                    let rv = live_val(head, r);
                    assert_eq!(
                        rv.shape(),
                        xv.shape(),
                        "zip shape mismatch: {} vs {}",
                        rv.shape(),
                        xv.shape()
                    );
                    Prep::Residual(rv.data())
                }
            });
        }
        let nst = stages.len();
        let xd = xv.data();
        let out = refit_slot(slot, xv.shape().dims());
        // Every stage is a plain lane-wise add/sub/mul/max — no fusing, no
        // reassociation — so each lane computes the exact scalar expression
        // of the tail loop and the op is bit-identical at every SIMD level.
        #[inline(always)]
        unsafe fn run_plane<S: qn_simd::arch::SimdF32>(
            oplane: &mut [f32],
            xd: &[f32],
            prep: &[Option<Prep<'_>>],
            ci: usize,
            base: usize,
        ) {
            let n = oplane.len();
            let mut j = 0;
            while j + S::LANES <= n {
                let mut v = S::load(&xd[base + j..]);
                for stage in prep.iter() {
                    match stage.as_ref().expect("prepared above") {
                        Prep::Bias(bs) => v = v.add(S::splat(bs[ci])),
                        Prep::Scale(ss) => v = v.mul(S::splat(ss[ci])),
                        Prep::Norm {
                            mean,
                            inv,
                            gamma,
                            beta,
                        } => {
                            v = v
                                .sub(S::splat(mean[ci]))
                                .mul(S::splat(inv[ci]))
                                .mul(S::splat(gamma[ci]))
                                .add(S::splat(beta[ci]))
                        }
                        Prep::Relu => v = v.max(S::zero()),
                        Prep::Residual(r) => v = v.add(S::load(&r[base + j..])),
                    }
                }
                v.store(&mut oplane[j..]);
                j += S::LANES;
            }
            // tail: the same expression one lane at a time
            for (jj, o) in oplane.iter_mut().enumerate().skip(j) {
                let mut v = xd[base + jj];
                for stage in prep.iter() {
                    match stage.as_ref().expect("prepared above") {
                        Prep::Bias(bs) => v += bs[ci],
                        Prep::Scale(ss) => v *= ss[ci],
                        Prep::Norm {
                            mean,
                            inv,
                            gamma,
                            beta,
                        } => v = (v - mean[ci]) * inv[ci] * gamma[ci] + beta[ci],
                        Prep::Relu => v = v.max(0.0),
                        Prep::Residual(r) => v += r[base + jj],
                    }
                }
                *o = v;
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn run_plane_avx2(
            oplane: &mut [f32],
            xd: &[f32],
            prep: &[Option<Prep<'_>>],
            ci: usize,
            base: usize,
        ) {
            run_plane::<qn_simd::arch::Avx2F32>(oplane, xd, prep, ci, base)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        unsafe fn run_plane_sse2(
            oplane: &mut [f32],
            xd: &[f32],
            prep: &[Option<Prep<'_>>],
            ci: usize,
            base: usize,
        ) {
            run_plane::<qn_simd::arch::Sse2F32>(oplane, xd, prep, ci, base)
        }
        let level = qn_simd::SimdLevel::active();
        // one pass: per element, the stages apply in order with the exact
        // scalar expression of their unfused counterparts, so the fusion is
        // bit-identical to the decomposed pipeline. Parallel over disjoint
        // (batch, channel) planes like the unfused channel kernels.
        qn_parallel::par_chunks_mut_min(
            out.data_mut(),
            hw.max(1),
            PAR_MIN_ELEMS,
            |plane, oplane| {
                let ci = plane % c;
                let base = plane * hw;
                match level {
                    // SAFETY: the dispatched level never exceeds the CPU's
                    // detected features (`SimdLevel::active` clamps), and
                    // every lane read stays inside `xd`/`r` because each
                    // `oplane` chunk maps to the same-length `[base..)`
                    // window of the equally-sized inputs.
                    #[cfg(target_arch = "x86_64")]
                    qn_simd::SimdLevel::Avx2 => unsafe {
                        run_plane_avx2(oplane, xd, &prep[..nst], ci, base)
                    },
                    #[cfg(target_arch = "x86_64")]
                    qn_simd::SimdLevel::Sse2 => unsafe {
                        run_plane_sse2(oplane, xd, &prep[..nst], ci, base)
                    },
                    // SAFETY: `ScalarF32` has no ISA requirement.
                    _ => unsafe {
                        run_plane::<qn_simd::arch::ScalarF32>(oplane, xd, &prep[..nst], ci, base)
                    },
                }
            },
        );
        let var = self.commit();
        for inv in inv_scratch.into_iter().flatten() {
            pool.give_f32(inv);
        }
        var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_tensor::Rng;

    /// Runs `f` on both contexts and asserts identical outputs.
    fn both(f: impl Fn(&mut dyn Exec) -> Var) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let tv = f(&mut g);
        let mut e = EagerExec::new();
        let ev = f(&mut e);
        (g.value(tv).clone(), e.value(ev).clone())
    }

    #[test]
    fn elementwise_ops_match_tape() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[3, 4], &mut rng);
        for op in [
            |cx: &mut dyn Exec, v: Var| cx.relu(v),
            |cx: &mut dyn Exec, v: Var| cx.tanh(v),
            |cx: &mut dyn Exec, v: Var| cx.sigmoid(v),
            |cx: &mut dyn Exec, v: Var| cx.square(v),
            |cx: &mut dyn Exec, v: Var| cx.powi(v, 3),
            |cx: &mut dyn Exec, v: Var| cx.scale(v, -2.5),
            |cx: &mut dyn Exec, v: Var| cx.add_scalar(v, 0.7),
            |cx: &mut dyn Exec, v: Var| cx.neg(v),
        ] {
            let (t, e) = both(|cx| {
                let v = cx.leaf(x.clone());
                op(cx, v)
            });
            assert!(t.allclose(&e, 0.0));
        }
    }

    #[test]
    fn conv2d_matches_tape_exactly() {
        let mut rng = Rng::seed_from(2);
        // (input dims, spec, output channels): a same conv and a valid
        // strided one, the serve model's 3-in, 3-out stem, a 3×3 stride-2
        // conv, the 1×1 stride-2 projection and batch 3 on a 5×7 image
        let cases = [
            ([2, 3, 6, 6], Conv2dSpec::new(3, 1, 1), 5),
            ([2, 3, 6, 6], Conv2dSpec::new(3, 2, 0), 5),
            ([1, 3, 32, 32], Conv2dSpec::new(3, 1, 1), 3),
            ([1, 4, 9, 9], Conv2dSpec::new(3, 2, 1), 8),
            ([2, 8, 8, 8], Conv2dSpec::new(1, 2, 0), 16),
            ([3, 2, 5, 7], Conv2dSpec::new(3, 1, 1), 6),
        ];
        for (dims, spec, oc) in cases {
            let c = dims[1];
            let x = Tensor::randn(&dims, &mut rng);
            let w = Tensor::randn(&[oc, c, spec.kernel, spec.kernel], &mut rng);
            let (t, e) = both(|cx| {
                let xv = cx.leaf(x.clone());
                let wv = cx.leaf(w.clone());
                cx.conv2d(xv, wv, spec)
            });
            assert!(t.bit_identical(&e), "conv2d {dims:?} {spec:?}");
            // the quadratic conv with 2 neurons of rank 2, both output forms
            let n = spec.patch_len(c);
            let q = Tensor::randn(&[4, n], &mut rng);
            let lambda = Tensor::randn(&[2, 2], &mut rng);
            let wl = Tensor::randn(&[2, n], &mut rng);
            let b = Tensor::randn(&[2], &mut rng);
            for vectorized in [true, false] {
                let (t, e) = both(|cx| {
                    let [xv, qv, lv, wv, bv] =
                        [&x, &q, &lambda, &wl, &b].map(|v| cx.leaf(v.clone()));
                    cx.quadratic_conv2d(xv, qv, lv, wv, bv, spec, vectorized)
                });
                assert!(
                    t.bit_identical(&e),
                    "quadratic_conv2d {dims:?} {spec:?} vectorized {vectorized}"
                );
            }
        }
    }

    #[test]
    fn norms_and_softmax_match_tape() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 4, 8], &mut rng).scale(3.0);
        let gamma = Tensor::rand_uniform(&[8], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[8], &mut rng);
        let (t, e) = both(|cx| {
            let xv = cx.leaf(x.clone());
            let gv = cx.leaf(gamma.clone());
            let bv = cx.leaf(beta.clone());
            cx.layer_norm(xv, gv, bv, 1e-5)
        });
        assert!(t.allclose(&e, 0.0));
        let (t, e) = both(|cx| {
            let xv = cx.leaf(x.clone());
            cx.softmax_last(xv)
        });
        assert!(t.allclose(&e, 0.0));
    }

    #[test]
    fn batch_norm_inference_matches_tape() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let gamma = Tensor::rand_uniform(&[3], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[3], &mut rng);
        let rm = Tensor::randn(&[3], &mut rng);
        let rv = Tensor::rand_uniform(&[3], 0.5, 2.0, &mut rng);
        let (t, e) = both(|cx| {
            let xv = cx.leaf(x.clone());
            let gv = cx.leaf(gamma.clone());
            let bv = cx.leaf(beta.clone());
            let (y, stats) = cx.batch_norm2d(xv, gv, bv, &rm, &rv, 1e-5);
            assert!(stats.is_none());
            y
        });
        assert!(t.allclose(&e, 0.0));
    }

    #[test]
    fn pooling_and_shape_ops_match_tape() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        for op in [
            |cx: &mut dyn Exec, v: Var| cx.max_pool2d(v, PoolSpec::new(2, 2)),
            |cx: &mut dyn Exec, v: Var| cx.avg_pool2d(v, PoolSpec::new(3, 3)),
            |cx: &mut dyn Exec, v: Var| cx.global_avg_pool(v),
            |cx: &mut dyn Exec, v: Var| cx.reshape(v, &[6, 36]),
            |cx: &mut dyn Exec, v: Var| cx.permute(v, &[0, 2, 3, 1]),
            |cx: &mut dyn Exec, v: Var| cx.slice_axis(v, 1, 1, 3),
            |cx: &mut dyn Exec, v: Var| cx.im2col(v, Conv2dSpec::new(3, 1, 1)),
            |cx: &mut dyn Exec, v: Var| cx.sum_axis(v, 2),
            |cx: &mut dyn Exec, v: Var| cx.mean_axis(v, 1),
            |cx: &mut dyn Exec, v: Var| cx.sum_all(v),
            |cx: &mut dyn Exec, v: Var| cx.mean_all(v),
        ] {
            let (t, e) = both(|cx| {
                let v = cx.leaf(x.clone());
                op(cx, v)
            });
            assert!(t.allclose(&e, 0.0));
        }
    }

    #[test]
    fn matmuls_and_bcast_match_tape() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 5], &mut rng);
        let bt = Tensor::randn(&[5, 4], &mut rng);
        let bias = Tensor::randn(&[4], &mut rng);
        let (t, e) = both(|cx| {
            let av = cx.leaf(a.clone());
            let bv = cx.leaf(b.clone());
            cx.matmul(av, bv)
        });
        assert!(t.allclose(&e, 0.0));
        let (t, e) = both(|cx| {
            let av = cx.leaf(a.clone());
            let bv = cx.leaf(bt.clone());
            cx.matmul_transb(av, bv)
        });
        assert!(t.allclose(&e, 0.0));
        type BcastOp = fn(&mut dyn Exec, Var, Var) -> Var;
        let bcast_ops: [BcastOp; 2] =
            [|cx, a, b| cx.add_bcast(a, b), |cx, a, b| cx.mul_bcast(a, b)];
        for op in bcast_ops {
            let (t, e) = both(|cx| {
                let av = cx.leaf(a.clone());
                let bv = cx.leaf(bias.clone());
                op(cx, av, bv)
            });
            assert!(t.allclose(&e, 0.0));
        }
        let a3 = Tensor::randn(&[2, 3, 4], &mut rng);
        let b3 = Tensor::randn(&[2, 4, 2], &mut rng);
        let (t, e) = both(|cx| {
            let av = cx.leaf(a3.clone());
            let bv = cx.leaf(b3.clone());
            cx.bmm(av, bv)
        });
        assert!(t.allclose(&e, 0.0));
    }

    #[test]
    fn eager_dropout_and_embedding() {
        let mut rng = Rng::seed_from(7);
        let mut e = EagerExec::new();
        let x = e.leaf(Tensor::randn(&[2, 2], &mut rng));
        let y = e.dropout(x, 0.5);
        assert_eq!(x, y, "eager dropout is the identity");
        let w = e.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let emb = e.embedding(w, &[1, 0]);
        assert_eq!(e.value(emb).data(), &[3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn reset_retains_capacity_and_take_moves() {
        let mut e = EagerExec::new();
        let v = e.leaf(Tensor::ones(&[4]));
        let w = e.relu(v);
        assert_eq!(e.len(), 2);
        let out = e.take(w);
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 1.0]);
        e.reset();
        assert!(e.is_empty());
        // arena is reusable after reset
        let v2 = e.leaf(Tensor::zeros(&[2]));
        assert_eq!(v2.id, 0);
    }

    #[test]
    fn eager_param_is_not_bound() {
        let p = Parameter::new(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut e = EagerExec::new();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[2.0]);
        assert!(!e.is_training());
    }

    #[test]
    fn eager_param_snapshots_recycle_and_invalidate() {
        let p = Parameter::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let mut e = EagerExec::new();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[1.0, 2.0]);
        // recycled across reset: same value, no stale data
        e.reset();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[1.0, 2.0]);
        // a weight update invalidates the cached snapshot
        e.reset();
        p.update(|value, _| value.map_inplace(|x| x + 10.0));
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[11.0, 12.0]);
        // weight sharing: the same parameter twice in one pass
        e.reset();
        let a = e.param(&p);
        let b = e.param(&p);
        assert_eq!(e.value(a).data(), &[11.0, 12.0]);
        assert_eq!(e.value(b).data(), &[11.0, 12.0]);
        e.reset();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[11.0, 12.0]);
        // taking a param leaf out of the arena must not poison the cache
        let t = e.take(v);
        assert_eq!(t.data(), &[11.0, 12.0]);
        e.reset();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "token id 9 out of range")]
    fn eager_embedding_bounds_checked() {
        let mut e = EagerExec::new();
        let w = e.leaf(Tensor::zeros(&[3, 2]));
        e.embedding(w, &[9]);
    }
}
