//! Standard layers: linear, convolution, activations, pooling, dropout and
//! sequential composition.

use crate::{kaiming_normal, Costs, Module, ParamVisitor};
use qn_autograd::{Exec, Parameter, Var};
use qn_tensor::{Conv2dSpec, PoolSpec, Rng, Tensor, GEMM_I8_MAX_K};

/// Fully-connected layer `y = xWᵀ + b` with weight stored `[out, in]`.
///
/// # Example
///
/// ```
/// use qn_nn::{Linear, Module};
/// use qn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let l = Linear::new(8, 4, true, &mut rng);
/// assert_eq!(l.param_count(), 8 * 4 + 4);
/// ```
#[derive(Debug)]
pub struct Linear {
    weight: Parameter,
    bias: Option<Parameter>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let weight = Parameter::named(
            "linear.weight",
            kaiming_normal(&[out_features, in_features], in_features, rng),
        );
        let bias = bias.then(|| Parameter::named("linear.bias", Tensor::zeros(&[out_features])));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Builds a layer from an explicit `[out, in]` weight and optional
    /// `[out]` bias.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 2-D or the bias length mismatches.
    pub fn from_parts(weight: Tensor, bias: Option<Tensor>) -> Self {
        let (out_features, in_features) = weight.dims2();
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_features, "bias length must be [out]");
        }
        Linear {
            weight: Parameter::named("linear.weight", weight),
            bias: bias.map(|b| Parameter::named("linear.bias", b)),
            in_features,
            out_features,
        }
    }

    /// The weight parameter (shape `[out, in]`).
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// A copy of the bias vector, if the layer has one.
    pub fn bias_value(&self) -> Option<Tensor> {
        self.bias.as_ref().map(|b| b.value())
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Module for Linear {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        // accept [B, in] or [B, T, in]: flatten leading dims. Dims are
        // copied to a stack array so the hot serving path allocates nothing.
        let mut dims = [0usize; 8];
        let nd = {
            let d = g.value(x).shape().dims();
            assert!(!d.is_empty(), "Linear expects an input of rank >= 1");
            assert!(d.len() <= dims.len(), "Linear supports rank <= 8");
            dims[..d.len()].copy_from_slice(d);
            d.len()
        };
        let lead: usize = dims[..nd - 1].iter().product();
        assert_eq!(
            dims[nd - 1],
            self.in_features,
            "Linear expected trailing dim {}, got {:?}",
            self.in_features,
            &dims[..nd]
        );
        let flat = g.reshape(x, &[lead, self.in_features]);
        let w = g.param(&self.weight);
        let mut y = g.matmul_transb(flat, w);
        if let Some(b) = &self.bias {
            let bv = g.param(b);
            y = g.add_bcast(y, bv);
        }
        dims[nd - 1] = self.out_features;
        g.reshape(y, &dims[..nd])
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.param("weight", &self.weight);
        if let Some(b) = &self.bias {
            v.param("bias", b);
        }
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let lead: usize = input[..input.len() - 1].iter().product();
        let mut output = input.to_vec();
        *output.last_mut().expect("non-empty") = self.out_features;
        Costs {
            macs: (lead * self.in_features * self.out_features) as u64,
            output,
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        (self.in_features <= GEMM_I8_MAX_K).then(|| Box::new(self.to_quantized()) as _)
    }
}

/// 2-D convolution layer over `[B, C, H, W]`.
#[derive(Debug)]
pub struct Conv2d {
    weight: Parameter,
    bias: Option<Parameter>,
    in_channels: usize,
    out_channels: usize,
    spec: Conv2dSpec,
}

impl Conv2d {
    /// Creates a conv layer with Kaiming-normal filters.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        spec: Conv2dSpec,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = spec.patch_len(in_channels);
        let weight = Parameter::named(
            "conv.weight",
            kaiming_normal(
                &[out_channels, in_channels, spec.kernel, spec.kernel],
                fan_in,
                rng,
            ),
        );
        let bias = bias.then(|| Parameter::named("conv.bias", Tensor::zeros(&[out_channels])));
        Conv2d {
            weight,
            bias,
            in_channels,
            out_channels,
            spec,
        }
    }

    /// The filter parameter (`[OC, C, K, K]`).
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// A copy of the bias vector, if the layer has one.
    pub fn bias_value(&self) -> Option<Tensor> {
        self.bias.as_ref().map(|b| b.value())
    }

    /// Convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Module for Conv2d {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let w = g.param(&self.weight);
        let mut y = g.conv2d(x, w, self.spec);
        if let Some(b) = &self.bias {
            let bv = g.param(b);
            y = g.add_channel(y, bv);
        }
        y
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.param("weight", &self.weight);
        if let Some(b) = &self.bias {
            v.param("bias", b);
        }
    }

    fn costs(&self, input: &[usize]) -> Costs {
        assert_eq!(input.len(), 4, "Conv2d expects a 4-D input shape");
        let (b, c, h, w) = (input[0], input[1], input[2], input[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = self.spec.output_hw(h, w);
        let patch = self.spec.patch_len(c) as u64;
        Costs {
            macs: (b * oh * ow) as u64 * patch * self.out_channels as u64,
            output: vec![b, self.out_channels, oh, ow],
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        if self.spec.patch_len(self.in_channels) > GEMM_I8_MAX_K {
            return None;
        }
        let bias = self.bias_value();
        Some(Box::new(crate::quant::QuantizedConv2d::new(
            &self.weight.value(),
            bias.as_ref(),
            self.spec,
        )))
    }
}

/// ReLU activation as a module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Module for Relu {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        g.relu(x)
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        Costs::passthrough(input)
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Tanh activation as a module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tanh;

impl Module for Tanh {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        g.tanh(x)
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        Costs::passthrough(input)
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Max pooling module.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    spec: PoolSpec,
}

impl MaxPool2d {
    /// Creates a square max pool.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: PoolSpec::new(window, stride),
        }
    }
}

impl Module for MaxPool2d {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        g.max_pool2d(x, self.spec)
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        let (oh, ow) = self.spec.output_hw(input[2], input[3]);
        Costs {
            macs: 0,
            output: vec![input[0], input[1], oh, ow],
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Average pooling module.
#[derive(Debug, Clone, Copy)]
pub struct AvgPool2d {
    spec: PoolSpec,
}

impl AvgPool2d {
    /// Creates a square average pool.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: PoolSpec::new(window, stride),
        }
    }
}

impl Module for AvgPool2d {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        g.avg_pool2d(x, self.spec)
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        let (oh, ow) = self.spec.output_hw(input[2], input[3]);
        Costs {
            macs: 0,
            output: vec![input[0], input[1], oh, ow],
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Global average pooling `[B, C, H, W] -> [B, C]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool;

impl Module for GlobalAvgPool {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        g.global_avg_pool(x)
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        Costs {
            macs: 0,
            output: vec![input[0], input[1]],
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Flattens all trailing dims: `[B, …] -> [B, prod(…)]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten;

impl Module for Flatten {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let dims = g.value(x).shape().dims().to_vec();
        let b = dims[0];
        let rest: usize = dims[1..].iter().product();
        g.reshape(x, &[b, rest])
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        Costs {
            macs: 0,
            output: vec![input[0], input[1..].iter().product()],
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Dropout module (inverted scaling; identity in inference mode).
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout { p }
    }
}

impl Module for Dropout {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        g.dropout(x, self.p)
    }

    fn visit_params(&self, _v: &mut dyn ParamVisitor) {}

    fn costs(&self, input: &[usize]) -> Costs {
        Costs::passthrough(input)
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(*self))
    }
}

/// Ordered stack of modules applied left to right.
///
/// # Example
///
/// ```
/// use qn_nn::{Flatten, Linear, Module, Relu, Sequential};
/// use qn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let net = Sequential::new(vec![
///     Box::new(Linear::new(4, 8, true, &mut rng)),
///     Box::new(Relu),
///     Box::new(Linear::new(8, 2, true, &mut rng)),
/// ]);
/// assert_eq!(net.costs(&[1, 4]).output, vec![1, 2]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Builds a stack from boxed modules.
    pub fn new(layers: Vec<Box<dyn Module>>) -> Self {
        Sequential { layers }
    }

    /// Appends a module.
    pub fn push(&mut self, m: Box<dyn Module>) {
        self.layers.push(m);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if there are no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The contained layers.
    pub fn layers(&self) -> &[Box<dyn Module>] {
        &self.layers
    }
}

impl Module for Sequential {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let mut v = x;
        for layer in &self.layers {
            v = layer.forward(g, v);
        }
        v
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        for (i, layer) in self.layers.iter().enumerate() {
            v.enter(&i.to_string());
            layer.visit_params(v);
            v.leave();
        }
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let mut macs = 0u64;
        let mut shape = input.to_vec();
        for layer in &self.layers {
            let c = layer.costs(&shape);
            macs += c.macs;
            shape = c.output;
        }
        Costs {
            macs,
            output: shape,
        }
    }

    fn weight_dtype(&self) -> &'static str {
        if self.layers.iter().any(|l| l.weight_dtype() == "int8") {
            "int8"
        } else {
            "f32"
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        let layers = self
            .layers
            .iter()
            .map(|l| l.quantized())
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(Sequential::new(layers)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_autograd::{gradcheck, Graph};

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = Rng::seed_from(1);
        let l = Linear::new(3, 5, true, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 3], &mut rng));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 5]);
        assert_eq!(l.param_count(), 20);
    }

    #[test]
    fn linear_handles_3d_input() {
        let mut rng = Rng::seed_from(2);
        let l = Linear::new(4, 6, true, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 3, 4], &mut rng));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 3, 6]);
    }

    #[test]
    fn linear_matches_manual_matmul() {
        let mut rng = Rng::seed_from(3);
        let l = Linear::new(3, 2, false, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let manual = x.matmul_transb(&l.weight().value());
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let y = l.forward(&mut g, xv);
        assert!(g.value(y).allclose(&manual, 1e-5));
    }

    #[test]
    fn linear_gradcheck_through_input() {
        let mut rng = Rng::seed_from(4);
        let l = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::randn(&[2, 3], &mut rng);
        assert!(gradcheck(
            move |g, v| {
                let y = l.forward(g, v);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn conv_forward_and_costs() {
        let mut rng = Rng::seed_from(5);
        let conv = Conv2d::new(3, 8, Conv2dSpec::new(3, 1, 1), false, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 3, 6, 6], &mut rng));
        let y = conv.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 8, 6, 6]);
        let c = conv.costs(&[2, 3, 6, 6]);
        assert_eq!(c.output, vec![2, 8, 6, 6]);
        assert_eq!(c.macs, 2 * 6 * 6 * 27 * 8);
        assert_eq!(conv.param_count(), 8 * 3 * 9);
    }

    #[test]
    fn sequential_stacks_and_counts() {
        let mut rng = Rng::seed_from(6);
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, Conv2dSpec::new(3, 1, 1), false, &mut rng)),
            Box::new(Relu),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten),
            Box::new(Linear::new(4 * 4 * 4, 10, true, &mut rng)),
        ]);
        let c = net.costs(&[1, 1, 8, 8]);
        assert_eq!(c.output, vec![1, 10]);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[1, 1, 8, 8], &mut rng));
        let y = net.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[1, 10]);
        assert_eq!(net.params().len(), 3); // conv.w, linear.w, linear.b
    }

    #[test]
    fn pooling_modules_shapes() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[1, 2, 8, 8]));
        let y = MaxPool2d::new(2, 2).forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[1, 2, 4, 4]);
        let z = AvgPool2d::new(2, 2).forward(&mut g, y);
        assert_eq!(g.value(z).shape().dims(), &[1, 2, 2, 2]);
        let w = GlobalAvgPool.forward(&mut g, z);
        assert_eq!(g.value(w).shape().dims(), &[1, 2]);
    }

    #[test]
    fn dropout_module_identity_in_eval() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[2, 2]));
        let y = Dropout::new(0.5).forward(&mut g, x);
        assert!(g.value(y).allclose(&Tensor::ones(&[2, 2]), 0.0));
    }
}
