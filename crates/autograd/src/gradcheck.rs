//! Finite-difference gradient checking used by every layer's tests.

use crate::graph::{Graph, Var};
use qn_tensor::Tensor;

/// Verifies the analytic gradient of `build` at `x` against central finite
/// differences.
///
/// `build` receives a fresh graph and the input leaf and must return a
/// **scalar** output var. Comparison is relative: for each coordinate,
/// `|analytic - numeric| <= tol * max(1, |analytic|, |numeric|)`.
///
/// `f32` arithmetic limits attainable precision; `eps` around `1e-2` and
/// `tol` around `2e-2` are appropriate.
pub fn gradcheck(build: impl Fn(&mut Graph, Var) -> Var, x: &Tensor, eps: f32, tol: f32) -> bool {
    let mut g = Graph::new();
    let v = g.leaf(x.clone());
    let out = build(&mut g, v);
    g.backward(out);
    let analytic = g.grad(v).expect("input must receive a gradient").clone();

    let eval = |t: &Tensor| -> f32 {
        let mut g = Graph::new();
        let v = g.leaf(t.clone());
        let out = build(&mut g, v);
        g.value(out).data()[0]
    };

    for i in 0..x.numel() {
        let mut plus = x.clone();
        plus.data_mut()[i] += eps;
        let mut minus = x.clone();
        minus.data_mut()[i] -= eps;
        let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
        let a = analytic.data()[i];
        let denom = 1.0f32.max(a.abs()).max(numeric.abs());
        if (a - numeric).abs() > tol * denom {
            eprintln!(
                "gradcheck failed at flat index {i}: analytic {a}, numeric {numeric} (tol {tol})"
            );
            return false;
        }
    }
    true
}

/// Gradient check over several inputs at once: `build` receives leaves for
/// every tensor in `xs` and returns a scalar var. Checks each input.
pub fn gradcheck_multi(
    build: impl Fn(&mut Graph, &[Var]) -> Var,
    xs: &[Tensor],
    eps: f32,
    tol: f32,
) -> bool {
    for (which, x) in xs.iter().enumerate() {
        let others: Vec<Tensor> = xs.to_vec();
        let build_one = |g: &mut Graph, v: Var| {
            let vars: Vec<Var> = others
                .iter()
                .enumerate()
                .map(|(i, t)| if i == which { v } else { g.leaf(t.clone()) })
                .collect();
            build(g, &vars)
        };
        if !gradcheck(build_one, x, eps, tol) {
            eprintln!("gradcheck_multi failed for input {which}");
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exec;
    use qn_tensor::Rng;

    #[test]
    fn accepts_correct_gradient() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[3, 3], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let sq = g.square(v);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn multi_checks_every_input() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn(&[2, 3], &mut rng);
        let b = Tensor::randn(&[3, 2], &mut rng);
        assert!(gradcheck_multi(
            |g, vars| {
                let y = g.matmul(vars[0], vars[1]);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &[a, b],
            1e-2,
            2e-2
        ));
    }
}
