use crate::complexity::NeuronFamily;
use crate::LAMBDA_PARAM_NAME;
use qn_autograd::{Exec, Parameter, Var};
use qn_linalg::random_orthonormal;
use qn_nn::{kaiming_normal, Costs, Module, ParamVisitor};
use qn_tensor::{Conv2dSpec, Rng, Tensor};

/// The paper's efficient quadratic neuron, as a dense layer of `m` neurons
/// over `n` inputs with decomposition rank `k`.
///
/// Each neuron computes `y = xᵀQᵏΛᵏ(Qᵏ)ᵀx + wᵀx + b` and, with vectorized
/// output enabled (the default, §III-B of the paper), additionally emits the
/// intermediate features `fᵏ = (Qᵏ)ᵀx`, for `k + 1` output channels per
/// neuron. Output layout is neuron-major: `[y₀, f₀…, y₁, f₁…, …]`.
///
/// Per-neuron cost matches the paper's Eqs. (9)–(10): `(k+1)n + k`
/// parameters and `(k+1)n + 2k` MACs.
///
/// # Example
///
/// ```
/// use qn_autograd::Graph;
/// use qn_core::neurons::EfficientQuadraticLinear;
/// use qn_nn::Module;
/// use qn_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(1);
/// let layer = EfficientQuadraticLinear::new(16, 4, 3, &mut rng);
/// assert_eq!(layer.out_features(), 16); // 4 neurons × (3 + 1)
/// let mut g = Graph::new();
/// let x = g.leaf(Tensor::randn(&[2, 16], &mut rng));
/// let y = layer.forward(&mut g, x);
/// assert_eq!(g.value(y).shape().dims(), &[2, 16]);
/// ```
#[derive(Debug)]
pub struct EfficientQuadraticLinear {
    /// `[m·k, n]`: row `j·k + i` is the i-th column of neuron j's `Qᵏ`.
    q: Parameter,
    /// `[m, k]` eigenvalue diagonal per neuron.
    lambda: Parameter,
    /// `[m, n]` linear weights.
    w: Parameter,
    /// `[m]` bias.
    b: Parameter,
    n: usize,
    m: usize,
    k: usize,
    vectorized: bool,
}

impl EfficientQuadraticLinear {
    /// Creates a layer of `neurons` quadratic neurons with vectorized
    /// output. `Qᵏ` columns are initialized orthonormal per neuron, `Λᵏ`
    /// small uniform, `w` Kaiming-normal.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > in_features`.
    pub fn new(in_features: usize, neurons: usize, k: usize, rng: &mut Rng) -> Self {
        Self::with_options(in_features, neurons, k, true, rng)
    }

    /// Creates a layer whose neurons emit only the scalar `y` (no `fᵏ`
    /// reuse) — the ablation of the paper's §III-B contribution.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > in_features`.
    pub fn new_scalar_output(in_features: usize, neurons: usize, k: usize, rng: &mut Rng) -> Self {
        Self::with_options(in_features, neurons, k, false, rng)
    }

    fn with_options(n: usize, m: usize, k: usize, vectorized: bool, rng: &mut Rng) -> Self {
        assert!(m > 0, "layer needs at least one neuron");
        assert!(k >= 1 && k <= n, "rank k={k} must be in 1..={n}");
        let mut q_rows = Vec::with_capacity(m * k * n);
        for _ in 0..m {
            // orthonormal columns, stored as rows of the stacked matrix
            let qn = random_orthonormal(n, k, rng); // [n, k]
            let qt = qn.transpose2(); // [k, n]
            q_rows.extend_from_slice(qt.data());
        }
        let q = Parameter::named(
            "quad.q",
            Tensor::from_vec(q_rows, &[m * k, n]).expect("sizes consistent"),
        );
        let lambda = Parameter::named(
            LAMBDA_PARAM_NAME,
            Tensor::rand_uniform(&[m, k], -0.05, 0.05, rng),
        );
        let w = Parameter::named("quad.w", kaiming_normal(&[m, n], n, rng));
        let b = Parameter::named("quad.b", Tensor::zeros(&[m]));
        EfficientQuadraticLinear {
            q,
            lambda,
            w,
            b,
            n,
            m,
            k,
            vectorized,
        }
    }

    /// Builds the layer from explicit factors: `q` is `[m·k, n]`, `lambda`
    /// `[m, k]`, `w` `[m, n]`, `b` `[m]` — used by the compression pipeline.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency.
    pub fn from_factors(q: Tensor, lambda: Tensor, w: Tensor, b: Tensor, vectorized: bool) -> Self {
        let (mk, n) = q.dims2();
        let (m, k) = lambda.dims2();
        assert_eq!(mk, m * k, "q rows {mk} != m*k = {}", m * k);
        assert_eq!(w.dims2(), (m, n), "w shape mismatch");
        assert_eq!(b.numel(), m, "b length mismatch");
        EfficientQuadraticLinear {
            q: Parameter::named("quad.q", q),
            lambda: Parameter::named(LAMBDA_PARAM_NAME, lambda),
            w: Parameter::named("quad.w", w),
            b: Parameter::named("quad.b", b),
            n,
            m,
            k,
            vectorized,
        }
    }

    /// Number of inputs `n`.
    pub fn in_features(&self) -> usize {
        self.n
    }

    /// Output width: `m·(k+1)` vectorized, `m` scalar-output.
    pub fn out_features(&self) -> usize {
        if self.vectorized {
            self.m * (self.k + 1)
        } else {
            self.m
        }
    }

    /// Number of neurons `m`.
    pub fn neurons(&self) -> usize {
        self.m
    }

    /// Decomposition rank `k`.
    pub fn rank(&self) -> usize {
        self.k
    }

    /// Whether the `fᵏ` features are emitted.
    pub fn is_vectorized(&self) -> bool {
        self.vectorized
    }

    /// The eigenvalue parameters `Λᵏ` (for the dedicated optimizer group).
    pub fn lambda_param(&self) -> &Parameter {
        &self.lambda
    }

    /// Snapshot of neuron `j`'s reconstructed quadratic matrix
    /// `QᵏΛᵏ(Qᵏ)ᵀ` — used by analysis experiments.
    ///
    /// # Panics
    ///
    /// Panics if `j >= neurons()`.
    pub fn quadratic_matrix(&self, j: usize) -> Tensor {
        assert!(j < self.m, "neuron index {j} out of range");
        let q = self.q.value(); // [m*k, n]
        let lam = self.lambda.value();
        let qj = q.slice_axis(0, j * self.k, (j + 1) * self.k); // [k, n]
                                                                // Σ_i λ_i q_i q_iᵀ
        let mut out = Tensor::zeros(&[self.n, self.n]);
        for i in 0..self.k {
            let qi = qj.slice_axis(0, i, i + 1); // [1, n]
            let outer = qi.matmul_transa(&qi); // qᵢᵀqᵢ: [n, 1] @ [1, n] = [n, n]
            let outer = outer.scale(lam.get(&[j, i]));
            out.add_assign(&outer);
        }
        out
    }
}

/// Modeled cost of `m` neurons of rank `k` over `n` inputs on an input of
/// shape `[…, n]`: the paper's `(k+1)n + 2k` MACs per neuron and row, with
/// leading dims flattened like `Linear::costs`; the output is `[…, out]`.
pub(super) fn layer_costs(input: &[usize], n: usize, m: usize, k: usize, out: usize) -> Costs {
    let lead: usize = input[..input.len() - 1].iter().product();
    let per_neuron = NeuronFamily::EfficientQuadratic
        .complexity(n as u64, k as u64)
        .macs;
    let mut output = input.to_vec();
    *output.last_mut().expect("non-empty") = out;
    Costs {
        macs: lead as u64 * m as u64 * per_neuron,
        output,
    }
}

impl Module for EfficientQuadraticLinear {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        // accept [B, n] or [B, T, n]: flatten leading dims like Linear
        // does. Dims live on the stack so the serving path allocates
        // nothing.
        let mut dims = [0usize; 8];
        let nd = {
            let d = g.value(x).shape().dims();
            assert!(
                !d.is_empty(),
                "EfficientQuadraticLinear expects an input of rank >= 1"
            );
            assert!(
                d.len() <= dims.len(),
                "EfficientQuadraticLinear supports rank <= 8"
            );
            dims[..d.len()].copy_from_slice(d);
            d.len()
        };
        assert_eq!(
            dims[nd - 1],
            self.n,
            "expected {} inputs, got shape {:?}",
            self.n,
            &dims[..nd]
        );
        let lead: usize = dims[..nd - 1].iter().product();
        let x = g.reshape(x, &[lead, self.n]);
        let q = g.param(&self.q);
        let lambda = g.param(&self.lambda);
        let w = g.param(&self.w);
        let b = g.param(&self.b);
        let y = g.quadratic_neurons(x, q, lambda, w, b, self.vectorized);
        dims[nd - 1] = self.out_features();
        g.reshape(y, &dims[..nd])
    }

    fn forward_patches(&self, cx: &mut dyn Exec, x: Var, spec: Conv2dSpec) -> Var {
        let q = cx.param(&self.q);
        let lambda = cx.param(&self.lambda);
        let w = cx.param(&self.w);
        let b = cx.param(&self.b);
        cx.quadratic_conv2d(x, q, lambda, w, b, spec, self.vectorized)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.param("q", &self.q);
        v.param("lambda", &self.lambda);
        v.param("w", &self.w);
        v.param("b", &self.b);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        layer_costs(input, self.n, self.m, self.k, self.out_features())
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(super::QuantizedQuadratic::from_factors(
            &self.q.value(),
            &self.lambda.value(),
            &self.w.value(),
            &self.b.value(),
            self.vectorized,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_autograd::{gradcheck, Graph};

    /// Naive per-sample reference implementing the paper's equations
    /// directly.
    fn reference(layer: &EfficientQuadraticLinear, x: &Tensor) -> Tensor {
        let (batch, n) = x.dims2();
        let (m, k) = (layer.neurons(), layer.rank());
        let q = layer.q.value();
        let lam = layer.lambda.value();
        let w = layer.w.value();
        let b = layer.b.value();
        let width = layer.out_features();
        let mut out = Tensor::zeros(&[batch, width]);
        for bi in 0..batch {
            for j in 0..m {
                let mut y = b.get(&[j]);
                for i in 0..n {
                    y += w.get(&[j, i]) * x.get(&[bi, i]);
                }
                let mut f = vec![0.0f32; k];
                for (i, fi) in f.iter_mut().enumerate() {
                    for p in 0..n {
                        *fi += q.get(&[j * k + i, p]) * x.get(&[bi, p]);
                    }
                }
                for (i, &fi) in f.iter().enumerate() {
                    y += lam.get(&[j, i]) * fi * fi;
                }
                if layer.is_vectorized() {
                    out.set(&[bi, j * (k + 1)], y);
                    for (i, &fi) in f.iter().enumerate() {
                        out.set(&[bi, j * (k + 1) + 1 + i], fi);
                    }
                } else {
                    out.set(&[bi, j], y);
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference() {
        let mut rng = Rng::seed_from(1);
        let layer = EfficientQuadraticLinear::new(7, 3, 2, &mut rng);
        let x = Tensor::randn(&[4, 7], &mut rng);
        let expected = reference(&layer, &x);
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let y = layer.forward(&mut g, xv);
        assert!(g.value(y).allclose(&expected, 1e-4));
    }

    #[test]
    fn scalar_output_matches_reference() {
        let mut rng = Rng::seed_from(2);
        let layer = EfficientQuadraticLinear::new_scalar_output(5, 4, 3, &mut rng);
        assert_eq!(layer.out_features(), 4);
        let x = Tensor::randn(&[3, 5], &mut rng);
        let expected = reference(&layer, &x);
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let y = layer.forward(&mut g, xv);
        assert!(g.value(y).allclose(&expected, 1e-4));
    }

    #[test]
    fn gradcheck_through_input_and_all_params() {
        let mut rng = Rng::seed_from(3);
        let layer = EfficientQuadraticLinear::new(4, 2, 2, &mut rng);
        let x = Tensor::randn(&[3, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let y = layer.forward(g, v);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
        // parameter gradients: backward into Parameter storage vs central
        // finite differences on the parameter value
        let input = Tensor::from_fn(&[2, 4], |i| (i as f32) * 0.3 - 1.0);
        let eval = |layer: &EfficientQuadraticLinear| -> f32 {
            let mut g = Graph::new();
            let xv = g.leaf(input.clone());
            let y = layer.forward(&mut g, xv);
            let sq = g.square(y);
            let s = g.sum_all(sq);
            g.value(s).data()[0]
        };
        for p in layer.params() {
            p.zero_grad();
            let mut g = Graph::new();
            let xv = g.leaf(input.clone());
            let y = layer.forward(&mut g, xv);
            let sq = g.square(y);
            let s = g.sum_all(sq);
            g.backward(s);
            let analytic = p.grad();
            let base = p.value();
            let eps = 1e-2f32;
            for i in 0..base.numel() {
                let mut plus = base.clone();
                plus.data_mut()[i] += eps;
                p.set_value(plus);
                let fp = eval(&layer);
                let mut minus = base.clone();
                minus.data_mut()[i] -= eps;
                p.set_value(minus);
                let fm = eval(&layer);
                p.set_value(base.clone());
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.data()[i];
                let denom = 1.0f32.max(a.abs()).max(numeric.abs());
                assert!(
                    (a - numeric).abs() <= 5e-2 * denom,
                    "param {} index {i}: analytic {a} vs numeric {numeric}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn quadratic_matrix_reconstruction_matches_form() {
        let mut rng = Rng::seed_from(4);
        let layer = EfficientQuadraticLinear::new(6, 2, 3, &mut rng);
        let mj = layer.quadratic_matrix(1);
        // evaluate xᵀMx and compare against the layer's quadratic part
        let x = Tensor::randn(&[1, 6], &mut rng);
        let form = qn_linalg::quadratic_form(&x.reshape(&[6]).unwrap(), &mj);
        let out = {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let y = layer.forward(&mut g, xv);
            g.value(y).clone()
        };
        // y for neuron 1 lives at column 1*(k+1); subtract linear part + bias
        let w = layer.w.value();
        let b = layer.b.value();
        let mut linear = b.get(&[1]);
        for i in 0..6 {
            linear += w.get(&[1, i]) * x.get(&[0, i]);
        }
        let y_quad = out.get(&[0, 4]) - linear;
        assert!((y_quad - form).abs() < 1e-3, "{y_quad} vs {form}");
    }

    #[test]
    fn costs_match_paper_formula() {
        let mut rng = Rng::seed_from(5);
        let (n, m, k, b) = (32usize, 5usize, 9usize, 7usize);
        let layer = EfficientQuadraticLinear::new(n, m, k, &mut rng);
        let c = layer.costs(&[b, n]);
        let per_neuron = ((k + 1) * n + 2 * k) as u64;
        assert_eq!(c.macs, (b * m) as u64 * per_neuron);
        assert_eq!(c.output, vec![b, m * (k + 1)]);
        // params: (k+1)n + k per neuron, plus m biases (excluded by paper)
        assert_eq!(layer.param_count(), m * ((k + 1) * n + k) + m);
    }

    #[test]
    fn costs_flatten_leading_dims() {
        let mut rng = Rng::seed_from(9);
        let (n, m, k, b, t) = (12usize, 4usize, 3usize, 2usize, 5usize);
        let layer = EfficientQuadraticLinear::new(n, m, k, &mut rng);
        let c = layer.costs(&[b, t, n]);
        assert_eq!(c.macs, (b * t * m * ((k + 1) * n + 2 * k)) as u64);
        assert_eq!(c.output, vec![b, t, m * (k + 1)]);
        let mut g = Graph::new();
        let xv = g.leaf(Tensor::randn(&[b, t, n], &mut rng));
        let y = layer.forward(&mut g, xv);
        assert_eq!(g.value(y).shape().dims(), &c.output[..]);
        let q = layer.quantized().expect("quadratic layer quantizes");
        assert_eq!(q.costs(&[b, t, n]).macs, c.macs);
        assert_eq!(q.costs(&[b, t, n]).output, c.output);
        let scalar = EfficientQuadraticLinear::new_scalar_output(n, m, k, &mut rng);
        assert_eq!(scalar.costs(&[b, t, n]).output, vec![b, t, m]);
    }

    #[test]
    fn lambda_param_is_tagged() {
        let mut rng = Rng::seed_from(6);
        let layer = EfficientQuadraticLinear::new(4, 2, 2, &mut rng);
        let (lambda, other) = crate::split_lambda_params(layer.params());
        assert_eq!(lambda.len(), 1);
        assert_eq!(other.len(), 3);
        assert!(lambda[0].same_storage(layer.lambda_param()));
    }

    #[test]
    fn q_columns_initialized_orthonormal() {
        let mut rng = Rng::seed_from(7);
        let layer = EfficientQuadraticLinear::new(10, 3, 4, &mut rng);
        let q = layer.q.value();
        for j in 0..3 {
            let qj = q.slice_axis(0, j * 4, (j + 1) * 4); // [k, n], rows orthonormal
            let gram = qj.matmul_transb(&qj); // [k, k]
            assert!(gram.allclose(&Tensor::eye(4), 1e-4), "neuron {j}");
        }
    }

    #[test]
    #[should_panic(expected = "rank k=5")]
    fn rank_exceeding_inputs_panics() {
        let mut rng = Rng::seed_from(8);
        EfficientQuadraticLinear::new(4, 1, 5, &mut rng);
    }
}
