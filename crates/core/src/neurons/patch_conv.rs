use super::EfficientQuadraticLinear;
use qn_autograd::{Exec, Var};
use qn_nn::{Costs, Module, ParamVisitor};
use qn_tensor::{Conv2dSpec, Rng};

/// Deploys any dense neuron layer as a 2-D convolution — the paper's Fig. 3
/// deployment: each receptive-field patch becomes the neuron input `x`, and
/// each neuron's outputs become output channels.
/// The forward pass is the inner layer's [`Module::forward_patches`]; the
/// [`EfficientQuadraticLinear`] one reads patches straight from the image.
///
/// For the proposed neuron the `k + 1` outputs of each filter land on the
/// channel dimension, so a layer with `m` filters produces `m·(k+1)`
/// channels.
///
/// # Example
///
/// ```
/// use qn_core::neurons::{EfficientQuadraticLinear, PatchConv2d};
/// use qn_nn::Module;
/// use qn_tensor::{Conv2dSpec, Rng};
///
/// let mut rng = Rng::seed_from(0);
/// let spec = Conv2dSpec::new(3, 1, 1);
/// let n = spec.patch_len(3); // 27 inputs per patch
/// let dense = EfficientQuadraticLinear::new(n, 4, 3, &mut rng);
/// let conv = PatchConv2d::new(dense, 3, spec);
/// assert_eq!(conv.out_channels(), 16); // 4 neurons × (3 + 1)
/// ```
pub struct PatchConv2d<L: Module> {
    inner: L,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl<L: Module> PatchConv2d<L> {
    /// Wraps a dense layer whose input width equals
    /// `spec.patch_len(in_channels)`.
    ///
    /// # Panics
    ///
    /// Panics if the dense layer's input width does not match the patch
    /// length.
    pub fn new(inner: L, in_channels: usize, spec: Conv2dSpec) -> Self {
        let n = spec.patch_len(in_channels);
        let probe = inner.costs(&[1, n]);
        let out_channels = probe.output[1];
        PatchConv2d {
            inner,
            spec,
            in_channels,
            out_channels,
        }
    }

    /// The wrapped dense layer.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Produced channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }
}

impl<L: Module> Module for PatchConv2d<L> {
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
        assert_eq!(input.len(), 4, "PatchConv2d expects a 4-D input shape");
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
        Some(Box::new(super::QuantizedPatchConv::new(
            self.inner.quantized()?,
            self.in_channels,
            self.spec,
        )))
    }
}

/// The proposed quadratic neuron in convolutional form.
pub type EfficientQuadraticConv2d = PatchConv2d<EfficientQuadraticLinear>;

impl EfficientQuadraticConv2d {
    /// Creates a quadratic convolution with `filters` neurons of rank `k`,
    /// producing `filters·(k+1)` channels.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k` exceeds the patch length.
    pub fn efficient(
        in_channels: usize,
        filters: usize,
        k: usize,
        spec: Conv2dSpec,
        rng: &mut Rng,
    ) -> Self {
        let n = spec.patch_len(in_channels);
        PatchConv2d::new(
            EfficientQuadraticLinear::new(n, filters, k, rng),
            in_channels,
            spec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_autograd::{gradcheck, Graph};
    use qn_tensor::Tensor;

    #[test]
    fn conv_shapes_and_channel_count() {
        let mut rng = Rng::seed_from(1);
        let spec = Conv2dSpec::new(3, 1, 1);
        let conv = EfficientQuadraticConv2d::efficient(3, 4, 3, spec, &mut rng);
        assert_eq!(conv.out_channels(), 16);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 3, 6, 6], &mut rng));
        let y = conv.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 16, 6, 6]);
    }

    #[test]
    fn conv_equals_dense_on_each_patch() {
        let mut rng = Rng::seed_from(2);
        let spec = Conv2dSpec::new(3, 1, 0); // no padding: patches are plain crops
        let conv = EfficientQuadraticConv2d::efficient(2, 2, 2, spec, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let y = conv.forward(&mut g, xv);
        // patch at output (0, 0) is the top-left 3x3 crop, channel-major
        let patch = {
            let mut v = Vec::new();
            for ci in 0..2 {
                for yy in 0..3 {
                    for xx in 0..3 {
                        v.push(x.get(&[0, ci, yy, xx]));
                    }
                }
            }
            Tensor::from_vec(v, &[1, 18]).unwrap()
        };
        let mut g2 = Graph::new();
        let pv = g2.leaf(patch);
        let dense_out = conv.inner().forward(&mut g2, pv);
        for ch in 0..6 {
            assert!(
                (g.value(y).get(&[0, ch, 0, 0]) - g2.value(dense_out).get(&[0, ch])).abs() < 1e-4,
                "channel {ch}"
            );
        }
    }

    #[test]
    fn strided_conv_geometry() {
        let mut rng = Rng::seed_from(3);
        let spec = Conv2dSpec::new(3, 2, 1);
        let conv = EfficientQuadraticConv2d::efficient(4, 3, 1, spec, &mut rng);
        let c = conv.costs(&[1, 4, 8, 8]);
        assert_eq!(c.output, vec![1, 6, 4, 4]);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[1, 4, 8, 8], &mut rng));
        let y = conv.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[1, 6, 4, 4]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut rng = Rng::seed_from(4);
        let spec = Conv2dSpec::new(3, 1, 1);
        let conv = EfficientQuadraticConv2d::efficient(1, 1, 2, spec, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let y = conv.forward(g, v);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
    }

    #[test]
    fn costs_scale_with_spatial_positions() {
        let mut rng = Rng::seed_from(5);
        let spec = Conv2dSpec::new(3, 1, 1);
        let conv = EfficientQuadraticConv2d::efficient(2, 2, 3, spec, &mut rng);
        let small = conv.costs(&[1, 2, 4, 4]).macs;
        let big = conv.costs(&[1, 2, 8, 8]).macs;
        assert_eq!(big, small * 4);
    }
}
