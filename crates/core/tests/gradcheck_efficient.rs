//! Gradient checks of the efficient quadratic neuron's four parameter
//! factors `Q`, `Λ`, `w`, `b` against `qn_autograd::gradcheck`, at the
//! 1e-3 tolerance the tape should sustain: the loss is polynomial of degree
//! ≤ 2 in every factor, so central finite differences are exact up to f32
//! rounding.

use qn_autograd::{gradcheck_multi, Exec, Graph, Var};
use qn_core::neurons::EfficientQuadraticLinear;
use qn_nn::Module;
use qn_tensor::{Rng, Tensor};

const N: usize = 3; // inputs
const M: usize = 2; // neurons
const K: usize = 2; // rank

/// The layer's forward pass written over explicit factor vars
/// (`vars = [q, lambda, w, b]`) so `gradcheck` can differentiate with
/// respect to each factor. Mirrors the default decomposition of
/// `Exec::quadratic_neurons`; `factors_forward_matches_layer` below pins
/// it to the real layer.
fn forward_from_factors(g: &mut Graph, x: &Tensor, vars: &[Var]) -> Var {
    let (q, lam, w, b) = (vars[0], vars[1], vars[2], vars[3]);
    let xv = g.leaf(x.clone());
    let f = g.matmul_transb(xv, q); // [B, m·k]
    let batch = g.value(f).shape().dim(0);
    let f3 = g.reshape(f, &[batch, M, K]);
    let fsq = g.square(f3);
    let weighted = g.mul_bcast(fsq, lam);
    let y2 = g.sum_axis(weighted, 2); // [B, m]
    let xw = g.matmul_transb(xv, w);
    let y1 = g.add_bcast(xw, b);
    let y = g.add(y1, y2);
    let y3 = g.reshape(y, &[batch, M, 1]);
    let out3 = g.concat(&[y3, f3], 2); // [B, m, k+1]
    g.reshape(out3, &[batch, M * (K + 1)])
}

fn factor_tensors(rng: &mut Rng) -> (Tensor, Tensor, Tensor, Tensor) {
    let layer = EfficientQuadraticLinear::new(N, M, K, rng);
    let p = layer.params();
    // params() returns [q, lambda, w, b]
    (p[0].value(), p[1].value(), p[2].value(), p[3].value())
}

/// The factor-var graph above computes exactly what the layer computes.
#[test]
fn factors_forward_matches_layer() {
    let mut rng = Rng::seed_from(11);
    let (q, lam, w, b) = factor_tensors(&mut rng);
    let x = Tensor::randn(&[2, N], &mut rng);

    let layer =
        EfficientQuadraticLinear::from_factors(q.clone(), lam.clone(), w.clone(), b.clone(), true);
    let expected = {
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let y = layer.forward(&mut g, xv);
        g.value(y).clone()
    };

    let mut g = Graph::new();
    let vars: Vec<Var> = [&q, &lam, &w, &b]
        .iter()
        .map(|t| g.leaf((*t).clone()))
        .collect();
    let out = forward_from_factors(&mut g, &x, &vars);
    assert!(g.value(out).allclose(&expected, 1e-6));
}

/// `qn_autograd::gradcheck` (multi-input form) accepts the tape's gradients
/// for all four factors within 1e-3.
#[test]
fn gradcheck_accepts_q_lambda_w_b_at_1e3() {
    let mut rng = Rng::seed_from(12);
    let (q, lam, w, b) = factor_tensors(&mut rng);
    let x = Tensor::randn(&[2, N], &mut rng);

    assert!(gradcheck_multi(
        |g, vars| {
            let out = forward_from_factors(g, &x, vars);
            // weight channels unevenly so no gradient cancels by symmetry
            let mask = g.leaf(Tensor::from_fn(&[2, M * (K + 1)], |i| {
                0.25 + 0.125 * i as f32
            }));
            let prod = g.mul(out, mask);
            g.sum_all(prod)
        },
        &[q, lam, w, b],
        5e-2,
        1e-3,
    ));
}

/// The gradients `Graph::backward` flushes into `Parameter` storage agree
/// with central finite differences on each of `Q`, `Λ`, `w`, `b` within
/// 1e-3 — the same property exercised through the layer's own tape path.
#[test]
fn tape_parameter_gradients_match_finite_differences_at_1e3() {
    let mut rng = Rng::seed_from(13);
    let layer = EfficientQuadraticLinear::new(N, M, K, &mut rng);
    let x = Tensor::randn(&[2, N], &mut rng);

    let loss_value = |layer: &EfficientQuadraticLinear| -> f32 {
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let y = layer.forward(&mut g, xv);
        let s = g.sum_all(y);
        g.value(s).data()[0]
    };

    for p in layer.params() {
        p.zero_grad();
    }
    let mut g = Graph::new();
    let xv = g.leaf(x.clone());
    let y = layer.forward(&mut g, xv);
    let s = g.sum_all(y);
    g.backward(s);

    let eps = 5e-2f32;
    for p in layer.params() {
        let analytic = p.grad();
        let base = p.value();
        for i in 0..base.numel() {
            let mut plus = base.clone();
            plus.data_mut()[i] += eps;
            p.set_value(plus);
            let fp = loss_value(&layer);
            let mut minus = base.clone();
            minus.data_mut()[i] -= eps;
            p.set_value(minus);
            let fm = loss_value(&layer);
            p.set_value(base.clone());
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data()[i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() <= 1e-3 * denom,
                "param {} index {i}: analytic {a} vs numeric {numeric}",
                p.name()
            );
        }
    }
}
