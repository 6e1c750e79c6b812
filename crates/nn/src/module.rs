use qn_autograd::{Exec, Parameter, Var};
use qn_tensor::{Conv2dSpec, Tensor};
use std::sync::RwLock;

/// Cost report for one layer on a given input shape: multiply–accumulate
/// count and the produced output shape.
///
/// Used by the experiment harnesses to regenerate the paper's parameter and
/// FLOP axes (Figs. 4–5, Tables I–II) without running a forward pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Costs {
    /// Number of multiply–accumulate operations for one forward pass.
    pub macs: u64,
    /// Shape of the layer output for the given input shape.
    pub output: Vec<usize>,
}

impl Costs {
    /// A zero-cost, shape-preserving report (activations, reshapes, …).
    pub fn passthrough(input: &[usize]) -> Self {
        Costs {
            macs: 0,
            output: input.to_vec(),
        }
    }
}

/// Walks a module's parameter tree, giving every parameter a stable dotted
/// path (`block2.conv1.weight`) — the naming scheme the checkpoint format
/// persists.
///
/// [`Module::visit_params`] drives the walk: containers call
/// [`ParamVisitor::enter`]/[`ParamVisitor::leave`] around each child scope
/// and leaves report their parameters with short local names; the visitor
/// joins the scope stack with dots. Non-trainable buffers that still belong
/// in a checkpoint (batch-norm running statistics) are reported through
/// [`ParamVisitor::state`].
///
/// Paths are a **persistence contract**: they must stay stable across
/// refactors or old checkpoints stop loading. They are independent of
/// [`Parameter::name`], which remains the (unscoped) diagnostic label.
pub trait ParamVisitor {
    /// Pushes a scope (layer index, block name, …) onto the path stack.
    fn enter(&mut self, scope: &str) {
        let _ = scope;
    }

    /// Pops the innermost scope.
    fn leave(&mut self) {}

    /// Reports one trainable parameter under its local `name`.
    fn param(&mut self, name: &str, p: &Parameter);

    /// Reports one non-trainable state tensor (e.g. `running_mean`) under
    /// its local `name`. Default: ignored, so gradient-only walkers don't
    /// see buffers.
    fn state(&mut self, name: &str, t: &RwLock<Tensor>) {
        let _ = (name, t);
    }
}

/// Runs `f` inside a named visitor scope — the one-liner containers use to
/// prefix a child's parameters.
pub fn visit_scoped(v: &mut dyn ParamVisitor, scope: &str, f: impl FnOnce(&mut dyn ParamVisitor)) {
    v.enter(scope);
    f(v);
    v.leave();
}

/// A neural-network layer: forward pass, parameters and cost accounting.
///
/// Implementations are object-safe so models can hold heterogeneous
/// `Box<dyn Module>` stacks built from pluggable neuron kinds.
///
/// `Send + Sync` is a supertrait: a model is shared by reference across the
/// `qn-parallel` worker pool (sharded `InferenceSession::predict_batch`),
/// so layers must keep their interior state thread-safe — [`Parameter`] is
/// `Arc<RwLock<…>>` and `BatchNorm2d` guards its running statistics with an
/// `RwLock`.
///
/// The forward pass is written once against the [`Exec`] execution context
/// and therefore runs in **both** modes: on a
/// [`Graph`](qn_autograd::Graph) it records the differentiation tape
/// (training), and on an [`EagerExec`](qn_autograd::EagerExec) it evaluates
/// tape-free (inference) — same arithmetic, no autograd bookkeeping.
pub trait Module: Send + Sync {
    /// Runs the layer in the given execution context, returning the output
    /// node. Pass a `&mut Graph` to record the tape, or a `&mut EagerExec`
    /// for the allocation-light inference path.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x` violates the layer's input contract
    /// (wrong rank, trailing width or channel count) — forward is a hot
    /// path and shape errors here are programmer errors. Serving code that
    /// receives shapes from untrusted requests should validate first, e.g.
    /// via `InferenceSession::try_predict` in `qn-models`, which returns a
    /// `TensorError` instead.
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var;

    /// Runs this dense layer on every `spec` patch of the `[B, C, H, W]`
    /// input `x` (the paper's Fig. 3 conv deployment), giving
    /// `[B, out, OH, OW]`. The default is [`Exec::im2col`], `forward` on the
    /// patch rows and [`Exec::rows_to_nchw`]; a layer with a conv op of its
    /// own overrides it to skip the patch matrix. Panics if `x` is not 4-D
    /// or its patch length is not the input width.
    fn forward_patches(&self, cx: &mut dyn Exec, x: Var, spec: Conv2dSpec) -> Var {
        let (b, _, h, w) = cx.value(x).dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let cols = cx.im2col(x, spec); // [B·OH·OW, C·K·K]
        let y = self.forward(cx, cols); // [B·OH·OW, out]
        let out = cx.value(y).dims2().1;
        cx.rows_to_nchw(y, b, oh, ow, out)
    }

    /// Walks this module's parameter tree in a **stable order with stable
    /// names** (see [`ParamVisitor`]). Implementations visit parameters in
    /// the same order [`Module::params`] historically returned them.
    fn visit_params(&self, v: &mut dyn ParamVisitor);

    /// The trainable parameters (cloned handles that alias layer storage),
    /// in visit order. Provided: collects from [`Module::visit_params`].
    fn params(&self) -> Vec<Parameter> {
        struct Collect(Vec<Parameter>);
        impl ParamVisitor for Collect {
            fn param(&mut self, _name: &str, p: &Parameter) {
                self.0.push(p.clone());
            }
        }
        let mut c = Collect(Vec::new());
        self.visit_params(&mut c);
        c.0
    }

    /// MAC count and output shape for the given input shape.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `input` has the wrong rank for the
    /// layer.
    fn costs(&self, input: &[usize]) -> Costs;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// The storage dtype of this module's weights: `"f32"` for ordinary
    /// layers, `"int8"` for quantized ones. Containers report `"int8"`
    /// when any weight-bearing child does (a quantized model is quantized
    /// end-to-end, so mixed trees only arise transiently).
    fn weight_dtype(&self) -> &'static str {
        "f32"
    }

    /// An **inference-only** int8 twin of this module, or `None` when the
    /// layer kind has no quantized form. Weight-bearing layers return a
    /// sibling holding per-output-channel symmetric int8 weights
    /// ([`qn_tensor::QTensor`]); stateless layers return a copy of
    /// themselves; containers return `Some` only when every child does.
    ///
    /// The twin shares no storage with `self` — quantization snapshots
    /// the weights — and its forward pass does not record gradients
    /// (quantized outputs enter the tape as leaves).
    fn quantized(&self) -> Option<Box<dyn Module>> {
        None
    }
}

/// A boxed module is a module: every method forwards to the box's
/// contents, so a wrapper generic over its layer (`PatchConv2d<L>` in
/// `qn-core`) can also hold a `Box<dyn Module>`, such as a quantized twin.
impl<M: Module + ?Sized> Module for Box<M> {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        (**self).forward(cx, x)
    }

    fn forward_patches(&self, cx: &mut dyn Exec, x: Var, spec: Conv2dSpec) -> Var {
        (**self).forward_patches(cx, x, spec)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        (**self).visit_params(v)
    }

    fn params(&self) -> Vec<Parameter> {
        (**self).params()
    }

    fn costs(&self, input: &[usize]) -> Costs {
        (**self).costs(input)
    }

    fn param_count(&self) -> usize {
        (**self).param_count()
    }

    fn weight_dtype(&self) -> &'static str {
        (**self).weight_dtype()
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        (**self).quantized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_keeps_shape() {
        let c = Costs::passthrough(&[2, 3]);
        assert_eq!(c.macs, 0);
        assert_eq!(c.output, vec![2, 3]);
    }
}
