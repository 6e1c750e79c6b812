//! Property-based tests of the differentiation tape: linearity of the
//! backward pass and gradient checks of composed expressions.

use proptest::prelude::*;
use qn_autograd::{gradcheck, Exec, Graph};
use qn_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// d/dx of c·f(x) is c·(df/dx): scaling the loss scales every gradient.
    #[test]
    fn backward_is_linear_in_loss(values in prop::collection::vec(-2.0f32..2.0, 6), c in 0.5f32..3.0) {
        let x = Tensor::from_vec(values, &[2, 3]).unwrap();
        let grad_of = |scale: f32| -> Tensor {
            let mut g = Graph::new();
            let v = g.leaf(x.clone());
            let sq = g.square(v);
            let s = g.sum_all(sq);
            let s = g.scale(s, scale);
            g.backward(s);
            g.grad(v).unwrap().clone()
        };
        let g1 = grad_of(1.0);
        let gc = grad_of(c);
        prop_assert!(gc.allclose(&g1.scale(c), 1e-3));
    }

    /// Gradients of a composite expression pass a finite-difference check.
    #[test]
    fn composite_expression_gradcheck(values in prop::collection::vec(-1.5f32..1.5, 8)) {
        let x = Tensor::from_vec(values, &[2, 4]).unwrap();
        let ok = gradcheck(
            |g, v| {
                let t = g.tanh(v);
                let s = g.square(t);
                let m = g.mul(s, v);
                let r = g.reshape(m, &[4, 2]);
                let sm = g.softmax_last(r);
                g.sum_all(sm)
            },
            &x,
            1e-2,
            5e-2,
        );
        prop_assert!(ok);
    }

    /// Sum rule: grad(f + g) = grad(f) + grad(g).
    #[test]
    fn gradient_sum_rule(values in prop::collection::vec(-2.0f32..2.0, 4)) {
        let x = Tensor::from_vec(values, &[4]).unwrap();
        let grad_of = |which: u8| -> Tensor {
            let mut g = Graph::new();
            let v = g.leaf(x.clone());
            let a = g.square(v);
            let b = g.tanh(v);
            let out = match which {
                0 => a,
                1 => b,
                _ => g.add(a, b),
            };
            let s = g.sum_all(out);
            g.backward(s);
            g.grad(v).unwrap().clone()
        };
        let sum = grad_of(0).add(&grad_of(1));
        prop_assert!(grad_of(2).allclose(&sum, 1e-4));
    }

    /// Shape round-trips (reshape/permute) leave gradients numerically
    /// identical to the direct computation.
    #[test]
    fn shape_ops_are_gradient_transparent(values in prop::collection::vec(-2.0f32..2.0, 12)) {
        let x = Tensor::from_vec(values, &[3, 4]).unwrap();
        let direct = {
            let mut g = Graph::new();
            let v = g.leaf(x.clone());
            let sq = g.square(v);
            let s = g.sum_all(sq);
            g.backward(s);
            g.grad(v).unwrap().clone()
        };
        let via_shapes = {
            let mut g = Graph::new();
            let v = g.leaf(x.clone());
            let r = g.reshape(v, &[4, 3]);
            let p = g.permute(r, &[1, 0]);
            let sq = g.square(p);
            let s = g.sum_all(sq);
            g.backward(s);
            g.grad(v).unwrap().clone()
        };
        prop_assert!(direct.allclose(&via_shapes, 1e-5));
    }
}
