//! The tape's single-node ops against the primitive chains they replace,
//! and the tape's bookkeeping.
//!
//! `conv2d` and `global_avg_pool` each record one node whose backward
//! closure repeats the gradient arithmetic of the chain the tape used to
//! record for them, in the same order, so both must give the same input and
//! weight gradients bit for bit — at any thread count. The input also feeds
//! a second op, so the order in which contributions accumulate into its
//! gradient is part of what is compared.

use qn_autograd::{Exec, Graph, Parameter, Var};
use qn_tensor::{BufferPool, Conv2dSpec, PoolSpec, Rng, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// `conv2d` spelled with the primitives the tape once recorded for it.
fn conv_chain(g: &mut Graph, x: Var, w: Var, spec: Conv2dSpec) -> Var {
    let (b, c, h, wd) = g.value(x).dims4();
    let (oc, _, k, _) = g.value(w).dims4();
    let (oh, ow) = spec.output_hw(h, wd);
    let cols = g.im2col(x, spec);
    let wmat = g.reshape(w, &[oc, c * k * k]);
    let y = g.matmul_transb(cols, wmat);
    let y = g.reshape(y, &[b, oh, ow, oc]);
    g.permute(y, &[0, 3, 1, 2])
}

/// `global_avg_pool` spelled with the primitives the tape once recorded.
fn pool_chain(g: &mut Graph, x: Var) -> Var {
    let (b, c, h, _) = g.value(x).dims4();
    let pooled = g.avg_pool2d(x, PoolSpec::new(h, 1));
    g.reshape(pooled, &[b, c])
}

/// Runs `loss = Σ op(x, w) ⊙ r + Σ x ⊙ x` and returns the output value and
/// the gradients of `x` and `w` (if `op` reads `w`): `x` receives three
/// contributions (the op's, and both operands of `x ⊙ x`).
fn grads(
    x: &Tensor,
    w: &Tensor,
    r: &Tensor,
    op: &dyn Fn(&mut Graph, Var, Var) -> Var,
) -> (Tensor, Tensor, Option<Tensor>) {
    let mut g = Graph::training(0);
    let xv = g.leaf(x.clone());
    let wv = g.leaf(w.clone());
    let y = op(&mut g, xv, wv);
    let rv = g.leaf(r.clone());
    let yr = g.mul(y, rv);
    let s = g.sum_all(yr);
    let xx = g.mul(xv, xv);
    let t = g.sum_all(xx);
    let loss = g.add(s, t);
    let out = g.value(y).clone();
    g.backward(loss);
    let dx = g.grad(xv).expect("x gradient").clone();
    (out, dx, g.grad(wv).cloned())
}

/// Asserts that `node` and `chain` agree bit for bit, at N threads and at
/// one.
fn assert_same(
    what: &str,
    x: &Tensor,
    w: &Tensor,
    r: &Tensor,
    node: &dyn Fn(&mut Graph, Var, Var) -> Var,
    chain: &dyn Fn(&mut Graph, Var, Var) -> Var,
) {
    let want = grads(x, w, r, chain);
    let at_one = qn_parallel::with_max_threads(1, || grads(x, w, r, node));
    for (threads, got) in [("N", grads(x, w, r, node)), ("1", at_one)] {
        assert!(
            got.0.bit_identical(&want.0),
            "{what}: value @ {threads} threads"
        );
        assert!(
            got.1.bit_identical(&want.1),
            "{what}: dx @ {threads} threads"
        );
        let dw_same = match (&got.2, &want.2) {
            (Some(a), Some(b)) => a.bit_identical(b),
            (a, b) => a.is_none() && b.is_none(),
        };
        assert!(dw_same, "{what}: dw @ {threads} threads");
    }
}

#[test]
fn conv2d_node_matches_primitive_chain_bit_for_bit() {
    let mut rng = Rng::seed_from(3);
    // (input dims, spec, output channels): a 3×3 same conv large enough to
    // run the parallel kernels, a 3×3 stride-2 padded conv and the 1×1
    // stride-2 projection, all at batch 2
    let cases = [
        ([2, 8, 16, 16], Conv2dSpec::new(3, 1, 1), 8),
        ([2, 4, 9, 9], Conv2dSpec::new(3, 2, 1), 6),
        ([2, 8, 8, 8], Conv2dSpec::new(1, 2, 0), 16),
    ];
    for (dims, spec, oc) in cases {
        let x = Tensor::randn(&dims, &mut rng);
        let w = Tensor::randn(&[oc, dims[1], spec.kernel, spec.kernel], &mut rng);
        let (oh, ow) = spec.output_hw(dims[2], dims[3]);
        let r = Tensor::randn(&[dims[0], oc, oh, ow], &mut rng);
        assert_same(
            &format!("conv2d {dims:?} {spec:?}"),
            &x,
            &w,
            &r,
            &|g, x, w| g.conv2d(x, w, spec),
            &|g, x, w| conv_chain(g, x, w, spec),
        );
    }
}

#[test]
fn global_avg_pool_node_matches_primitive_chain_bit_for_bit() {
    let mut rng = Rng::seed_from(4);
    for dims in [[2, 3, 5, 5], [2, 16, 32, 32]] {
        let x = Tensor::randn(&dims, &mut rng);
        let r = Tensor::randn(&dims[..2], &mut rng);
        // the pool has no weight: `w` stays unread
        let w = Tensor::zeros(&[1]);
        assert_same(
            &format!("global_avg_pool {dims:?}"),
            &x,
            &w,
            &r,
            &|g, x, _| g.global_avg_pool(x),
            &|g, x, _| pool_chain(g, x),
        );
    }
}

#[test]
fn ops_that_return_their_input_record_no_node() {
    let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5, -1.5, 2.5], &[2, 3]).unwrap();
    let mut g = Graph::new(); // inference mode: dropout is the identity
    let v = g.leaf(x.clone());
    let nodes = g.len();
    let r = g.reshape(v, &[2, 3]);
    let d = g.dropout(r, 0.5);
    assert_eq!((r, d), (v, v), "same-shape reshape and dropout return x");
    assert_eq!(g.len(), nodes, "neither records a node");
    let sq = g.square(d);
    let loss = g.sum_all(sq);
    g.backward(loss);
    let want: Vec<f32> = x.data().iter().map(|&v| v * 2.0).collect();
    assert_eq!(g.grad(v).expect("gradient flows").data(), &want[..]);
}

#[test]
fn pooled_backward_keeps_loss_leaves_and_params_readable() {
    let mut rng = Rng::seed_from(5);
    let x = Tensor::randn(&[4, 3], &mut rng);
    let p = Parameter::new(Tensor::randn(&[3, 2], &mut rng));
    let pool = Arc::new(BufferPool::new());
    let mut g = Graph::training_pooled(1, Arc::clone(&pool));
    let xv = g.leaf(x.clone());
    let wv = g.param(&p);
    let h = g.matmul(xv, wv);
    let a = g.relu(h);
    let s = g.sum_all(a);
    let loss = g.scale(s, 0.5);
    let loss_value = g.value(loss).clone();
    g.backward(loss);
    assert!(g.value(loss).bit_identical(&loss_value), "the loss stays");
    assert!(g.value(xv).bit_identical(&x), "a leaf stays");
    assert!(g.value(wv).bit_identical(&p.value()), "a binding stays");
    assert!(g.grad(xv).is_some() && g.grad(wv).is_some());
    for op in [h, a, s] {
        let read = catch_unwind(AssertUnwindSafe(|| g.value(op).clone()));
        assert!(read.is_err(), "an op's value went back to the pool");
    }
    g.recycle_into(&pool);
}
