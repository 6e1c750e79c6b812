use crate::{EagerExec, Exec, Parameter};
use qn_tensor::{BufferPool, Rng, Tensor};
use std::sync::Arc;

/// Handle to a value recorded by an [`Exec`] context.
///
/// `Var` is a cheap copyable index; the ops are [`Exec`] methods
/// (`g.add(a, b)`, `g.matmul(a, b)`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

/// A node's backward function. It runs **once**, consuming the node's
/// upstream gradient by value — so derivatives that only rescale or mask the
/// gradient (the activation family) rewrite it in place — and reads the
/// node's operands and output from the graph's arena, which still holds
/// every value up to the node's own when it runs.
type BackwardFn = Box<dyn FnOnce(Tensor, &EagerExec) -> Vec<Tensor>>;

struct Node {
    grad: Option<Tensor>,
    parents: Vec<usize>,
    /// `None` for leaves (inputs and parameter bindings), and once run.
    backward: Option<BackwardFn>,
}

/// A single forward pass recorded as a differentiation tape.
///
/// Create one `Graph` per training step, feed inputs with [`Graph::leaf`]
/// and parameters with [`Graph::param`], build the computation through the
/// [`Exec`] ops, then call [`Graph::backward`] on a scalar output.
///
/// The forward values live in an [`EagerExec`] arena that the graph owns:
/// each op takes its value from the eager op of the same name, so the tape
/// and the inference path share one forward implementation. Var `i` is
/// arena slot `i`, and tape node `i` keeps only its gradient, its parents
/// and a backward closure that reads its operands and output from the arena
/// when it runs. An op that hands back an existing var (a same-shape
/// `reshape`, an identity `dropout`) records no node.
///
/// The graph carries a `training` flag (consulted by dropout and batch
/// norm) and its own [`Rng`] so stochastic layers are reproducible.
///
/// # Buffer recycling
///
/// With a [`BufferPool`] attached ([`Graph::set_pool`] /
/// [`Graph::training_pooled`]), the backward sweep returns to the pool each
/// op's value once the op's own closure ran — a closure reads only its own
/// value and earlier ones, so no later step of the sweep needs it — and
/// each distributed gradient buffer once accumulated. The loss the sweep
/// starts from, every leaf and every parameter binding stay readable.
/// Only the arena's kernel scratch (the quadratic ops' stacked `[wⱼ; Qⱼ]`
/// operand, batch norm's `1/σ`) takes from the pool again; the GEMM
/// packing scratch recycles through per-thread caches instead, and a
/// fresh arena slot or gradient is a new tensor, so most reclaimed buffers
/// stay in the pool unused. After a pooled backward,
/// [`Graph::value`] of an op the gradient reached panics — read
/// intermediate values before calling `backward`, or leave the pool
/// unattached (the default, which reclaims nothing).
pub struct Graph {
    /// Forward values: var `i` is slot `i`.
    pub(crate) eager: EagerExec,
    /// Tape: node `i` belongs to var `i`.
    nodes: Vec<Node>,
    bindings: Vec<(usize, Parameter)>,
    training: bool,
    pool: Option<Arc<BufferPool>>,
    pub(crate) rng: Rng,
    /// Set by [`Graph::backward`], which consumes the closures.
    swept: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// Creates an inference-mode graph (training features disabled).
    pub fn new() -> Self {
        Graph {
            eager: EagerExec::new(),
            nodes: Vec::new(),
            bindings: Vec::new(),
            training: false,
            pool: None,
            rng: Rng::seed_from(0),
            swept: false,
        }
    }

    /// Creates a training-mode graph with a seeded RNG for stochastic ops.
    pub fn training(seed: u64) -> Self {
        Graph {
            training: true,
            rng: Rng::seed_from(seed),
            ..Graph::new()
        }
    }

    /// Creates a training-mode graph whose backward sweep recycles
    /// intermediate buffers into `pool` (see the type-level docs).
    pub fn training_pooled(seed: u64, pool: Arc<BufferPool>) -> Self {
        let mut g = Graph::training(seed);
        g.set_pool(pool);
        g
    }

    /// Attaches a buffer pool: the backward sweep will reclaim op values
    /// and spent gradient buffers into it, and the arena draws its kernel
    /// scratch from it (see the type-level docs). Without a pool (the
    /// default), nothing is reclaimed and every value stays readable after
    /// `backward`.
    pub fn set_pool(&mut self, pool: Arc<BufferPool>) {
        self.eager.pool = Arc::clone(&pool);
        self.pool = Some(pool);
    }

    /// Consumes the graph, returning **every** remaining tensor buffer —
    /// values, gradients — to `pool`. Call at the end of a training step so
    /// the next step's pooled allocations reuse this step's storage.
    pub fn recycle_into(self, pool: &BufferPool) {
        for v in self.eager.values.into_iter().flatten() {
            v.into_pool(pool);
        }
        for g in self.nodes.into_iter().filter_map(|n| n.grad) {
            g.into_pool(pool);
        }
    }

    /// Whether stochastic/normalization layers should use training behaviour.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a leaf holding `value` (an input or constant).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let v = self.eager.leaf(value);
        self.push_node(v, Vec::new(), None)
    }

    /// Records a leaf bound to a persistent [`Parameter`]; after
    /// [`Graph::backward`] the leaf's gradient is accumulated into the
    /// parameter's `.grad()` storage.
    pub fn param(&mut self, p: &Parameter) -> Var {
        let v = self.eager.param(p);
        self.bindings.push((v.id, p.clone()));
        self.push_node(v, Vec::new(), None)
    }

    /// Value of a var.
    ///
    /// # Panics
    ///
    /// Panics if the value was reclaimed into an attached buffer pool by a
    /// pooled backward sweep (see the type-level docs).
    pub fn value(&self, v: Var) -> &Tensor {
        self.eager.values[v.id]
            .as_ref()
            .expect("node value was reclaimed into the buffer pool during backward")
    }

    /// Gradient of a var, if backward has reached it. After the sweep,
    /// gradients remain available for **leaves** (inputs and parameter
    /// bindings); an op's gradient is consumed by its own backward function.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.id].grad.as_ref()
    }

    /// Records the node of the op whose value the arena just produced as
    /// `out` (by an eager op, or by `eager.leaf` for the values the tape
    /// computes itself), with `parents` as the operands `backward` returns
    /// gradients for, in order. An `out` that is an existing var (the op
    /// returned its input) records nothing.
    pub(crate) fn record(
        &mut self,
        out: Var,
        parents: &[Var],
        backward: impl FnOnce(Tensor, &EagerExec) -> Vec<Tensor> + 'static,
    ) -> Var {
        if out.id < self.nodes.len() {
            return out;
        }
        let parents = parents.iter().map(|p| p.id).collect();
        self.push_node(out, parents, Some(Box::new(backward)))
    }

    fn push_node(&mut self, v: Var, parents: Vec<usize>, backward: Option<BackwardFn>) -> Var {
        assert_eq!(v.id, self.nodes.len(), "one arena slot per tape node");
        self.nodes.push(Node {
            grad: None,
            parents,
            backward,
        });
        v
    }

    /// Runs reverse-mode differentiation from a scalar output, then flushes
    /// gradients into every bound [`Parameter`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a single-element tensor, and if `backward`
    /// already ran on this graph: the first call consumed every backward
    /// closure and flushed the parameter gradients, so a second would
    /// flush them again.
    pub fn backward(&mut self, out: Var) {
        assert!(
            !self.swept,
            "backward called twice on one graph: the first call already consumed the tape and flushed the parameter gradients"
        );
        let out_value = self.value(out);
        assert_eq!(
            out_value.numel(),
            1,
            "backward requires a scalar output, got shape {}",
            out_value.shape()
        );
        let seed = Tensor::ones(out_value.shape().dims());
        self.swept = true;
        self.nodes[out.id].grad = Some(seed);
        let pool = self.pool.clone();
        for i in (0..=out.id).rev() {
            if self.nodes[i].grad.is_none() {
                continue; // gradient never reached this node
            }
            let Some(bw) = self.nodes[i].backward.take() else {
                continue; // leaf: keep the grad for the user / bindings
            };
            // The backward fn consumes the upstream gradient by value: no
            // defensive clone, and in-place derivatives can reuse it.
            let grad = self.nodes[i].grad.take().expect("checked above");
            let parents = std::mem::take(&mut self.nodes[i].parents);
            let pgrads = bw(grad, &self.eager);
            assert_eq!(
                parents.len(),
                pgrads.len(),
                "backward fn returned {} grads for {} parents",
                pgrads.len(),
                parents.len()
            );
            for (&p, pg) in parents.iter().zip(pgrads) {
                match &mut self.nodes[p].grad {
                    Some(g) => {
                        g.add_assign(&pg);
                        // accumulated: the distributed buffer is spent
                        if let Some(pool) = &pool {
                            pg.into_pool(pool);
                        }
                    }
                    slot @ None => *slot = Some(pg),
                }
            }
            // The closures still to run read only earlier values, so this
            // op's value is dead (the sweep root is the loss the caller
            // reads — always kept).
            if let Some(pool) = &pool {
                if i != out.id {
                    if let Some(v) = self.eager.values[i].take() {
                        v.into_pool(pool);
                    }
                }
            }
        }
        for (id, p) in &self.bindings {
            if let Some(g) = &self.nodes[*id].grad {
                p.accumulate_grad(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value_roundtrip() {
        let mut g = Graph::new();
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let v = g.leaf(t.clone());
        assert!(g.value(v).allclose(&t, 0.0));
        assert!(g.grad(v).is_none());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn backward_through_diamond_accumulates() {
        // y = x + x: dy/dx must be 2 (two paths)
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let y = g.add(x, x);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn param_binding_flushes_grad() {
        let p = Parameter::new(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut g = Graph::new();
        let v = g.param(&p);
        let y = g.mul(v, v);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(p.grad().data(), &[4.0]); // d(x²)/dx = 2x = 4
    }

    #[test]
    fn param_used_twice_accumulates_once_per_use() {
        let p = Parameter::new(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let mut g = Graph::new();
        let a = g.param(&p);
        let b = g.param(&p); // weight sharing
        let y = g.mul(a, b); // x * x
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(p.grad().data(), &[6.0]);
    }

    #[test]
    fn second_backward_panics_without_touching_gradients() {
        let p = Parameter::new(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut g = Graph::new();
        let v = g.param(&p);
        let y = g.mul(v, v);
        g.backward(y);
        assert_eq!(p.grad().data(), &[4.0]);
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.backward(y)));
        let payload = again.expect_err("a second backward must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("backward called twice"), "message: {msg}");
        assert_eq!(p.grad().data(), &[4.0], "the gradient is not flushed twice");
    }

    #[test]
    #[should_panic(expected = "scalar output")]
    fn backward_non_scalar_panics() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2]));
        g.backward(x);
    }

    #[test]
    fn training_flag() {
        assert!(!Graph::new().is_training());
        assert!(Graph::training(0).is_training());
    }
}
