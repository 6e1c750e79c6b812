//! `PatchConv2d<QuantizedQuadratic>` against the im2col route, bit for bit.
//!
//! The int8 quadratic conv runs its stacked `[wⱼ; Qⱼ]` product on patches
//! quantized as the GEMM packs them from the image, then finishes each `y`
//! plane. Its forward must equal `im2col` → the dense `QuantizedQuadratic`
//! forward → `rows_to_nchw` in every output bit, vectorized and
//! scalar-output, while dynamic and once calibrated, and leave the same
//! `act_stats`.

use qn_autograd::{EagerExec, Exec, Var};
use qn_core::neurons::{EfficientQuadraticLinear, PatchConv2d, QuantizedQuadratic};
use qn_nn::{calibrate, Costs, Module, ParamVisitor, ACT_STATS_NAME};
use qn_tensor::{Conv2dSpec, Rng, Tensor};
use std::sync::RwLock;

/// The im2col route: `im2col`, the dense layer on the patch rows,
/// `rows_to_nchw`.
struct Im2colRoute<M> {
    dense: M,
    spec: Conv2dSpec,
}

impl<M: Module> Module for Im2colRoute<M> {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        let (b, _, h, w) = cx.value(x).dims4();
        let (oh, ow) = self.spec.output_hw(h, w);
        let cols = cx.im2col(x, self.spec);
        let y = self.dense.forward(cx, cols);
        let c = cx.value(y).dims2().1;
        cx.rows_to_nchw(y, b, oh, ow, c)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.dense.visit_params(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        Costs::passthrough(input)
    }
}

/// The bits of every `act_stats` tensor in `m`, in visit order.
fn act_stats(m: &dyn Module) -> Vec<Vec<u32>> {
    struct Stats(Vec<Vec<u32>>);
    impl ParamVisitor for Stats {
        fn param(&mut self, _name: &str, _p: &qn_autograd::Parameter) {}
        fn state(&mut self, name: &str, t: &RwLock<Tensor>) {
            if name == ACT_STATS_NAME {
                let t = t.read().unwrap();
                self.0.push(t.data().iter().map(|v| v.to_bits()).collect());
            }
        }
    }
    let mut s = Stats(Vec::new());
    m.visit_params(&mut s);
    s.0
}

fn forward(m: &dyn Module, x: &Tensor) -> Tensor {
    let mut e = EagerExec::new();
    let v = e.leaf(x.clone());
    let y = m.forward(&mut e, v);
    e.value(y).clone()
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape().dims(), want.shape().dims(), "{what}: shape");
    for (e, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {e} is {g:e} patch vs {w:e} im2col"
        );
    }
}

/// The int8 twin of `layer`'s factors, with fresh (dynamic) statistics.
fn twin(layer: &EfficientQuadraticLinear, vectorized: bool) -> QuantizedQuadratic {
    let p = layer.params();
    QuantizedQuadratic::from_factors(
        &p[0].value(),
        &p[1].value(),
        &p[2].value(),
        &p[3].value(),
        vectorized,
    )
}

#[test]
fn quantized_quadratic_conv_equals_the_im2col_route() {
    let mut rng = Rng::seed_from(41);
    for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 1), (1, 2, 0)] {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let c = 3;
        let layer = EfficientQuadraticLinear::new(spec.patch_len(c), 3, 2, &mut rng);
        for vectorized in [true, false] {
            let conv = PatchConv2d::new(twin(&layer, vectorized), c, spec);
            let route = Im2colRoute {
                dense: twin(&layer, vectorized),
                spec,
            };
            let what =
                format!("{kernel}x{kernel} stride {stride} pad {padding}, vectorized {vectorized}");
            for scale in [1.0, 3.0] {
                let x = Tensor::randn(&[2, c, 9, 7], &mut rng).map(|v| v * scale);
                let (got, want) = (forward(&conv, &x), forward(&route, &x));
                assert_same_bits(&got, &want, &format!("{what}, dynamic"));
                assert_eq!(
                    act_stats(&conv),
                    act_stats(&route),
                    "{what}: observed range"
                );
            }
            let batches: Vec<Tensor> = (0..3)
                .map(|_| Tensor::randn(&[2, c, 9, 7], &mut rng))
                .collect();
            calibrate(&conv, batches.clone());
            calibrate(&route, batches);
            let stats = act_stats(&conv);
            assert_eq!(stats, act_stats(&route), "{what}: frozen scale");
            assert!(
                f32::from_bits(stats[0][1]) > 0.0,
                "{what}: calibration froze"
            );
            let x = Tensor::randn(&[2, c, 9, 7], &mut rng).map(|v| v * 4.0);
            let (got, want) = (forward(&conv, &x), forward(&route, &x));
            assert_same_bits(&got, &want, &format!("{what}, calibrated"));
        }
    }
}
