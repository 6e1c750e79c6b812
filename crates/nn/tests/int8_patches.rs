//! `QuantizedConv2d` against the im2col route, bit for bit.
//!
//! The int8 conv quantizes each patch as the GEMM packs it from the image.
//! Its forward must equal `im2col` → the dense int8 twin of the same
//! weights (`QuantizedLinear`) → `rows_to_nchw` in every output bit, while
//! dynamic (each patch at its own scale) and once calibrated (one frozen
//! scale), and both must leave the same `act_stats`: the same observed
//! range while dynamic, the same frozen scale after calibration.

use qn_autograd::{EagerExec, Exec, Var};
use qn_nn::{
    calibrate, Costs, Module, ParamVisitor, QuantizedConv2d, QuantizedLinear, ACT_STATS_NAME,
};
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

#[test]
fn quantized_conv_equals_the_im2col_route() {
    let mut rng = Rng::seed_from(31);
    for (kernel, stride, padding, bias) in [(3, 1, 1, true), (3, 2, 1, false), (1, 2, 0, true)] {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let (c, oc) = (3, 7);
        let w = Tensor::randn(&[oc, c, kernel, kernel], &mut rng);
        let b = bias.then(|| Tensor::randn(&[oc], &mut rng));
        let conv = QuantizedConv2d::new(&w, b.as_ref(), spec);
        let dense = w.reshape(&[oc, spec.patch_len(c)]).unwrap();
        let route = Im2colRoute {
            dense: QuantizedLinear::new(&dense, b.as_ref()),
            spec,
        };
        let what = format!("{kernel}x{kernel} stride {stride} pad {padding}");
        // dynamic: each patch at its own scale, and the batch absmax is
        // observed — the first forward's, then the larger second one's
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
        // calibrated: one frozen scale from the same batches
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
        // far past the calibrated range, so codes saturate
        let x = Tensor::randn(&[2, c, 9, 7], &mut rng).map(|v| v * 4.0);
        let (got, want) = (forward(&conv, &x), forward(&route, &x));
        assert_same_bits(&got, &want, &format!("{what}, calibrated"));
        assert_eq!(
            act_stats(&conv),
            stats,
            "{what}: a frozen layer observes nothing"
        );
    }
}
