//! Quickstart: train a tiny classifier built from efficient quadratic
//! neurons on a task where second-order features are essential — telling
//! apart two point clouds with equal means but different covariance
//! structure (a linear model cannot beat chance here).
//!
//! Run with: `cargo run --release --example quickstart`

use quadranet::autograd::{Exec, Graph};
use quadranet::core::neurons::EfficientQuadraticLinear;
use quadranet::metrics::accuracy;
use quadranet::nn::{Linear, Module, Sgd, SgdConfig};
use quadranet::tensor::{Rng, Tensor};

/// class 0: x ~ N(0, I); class 1: x ~ N(0, diag(4, 0.25, …)) — same mean,
/// different second moments.
fn sample(n: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
    let dim = 8;
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        for d in 0..dim {
            let scale = if class == 0 {
                1.0
            } else if d % 2 == 0 {
                2.0
            } else {
                0.5
            };
            data.push(rng.normal() * scale);
        }
        labels.push(class);
    }
    (
        Tensor::from_vec(data, &[n, dim]).expect("sizes consistent"),
        labels,
    )
}

fn main() {
    let mut rng = Rng::seed_from(7);
    let (train_x, train_y) = sample(512, &mut rng);
    let (test_x, test_y) = sample(256, &mut rng);

    // a single layer of 4 quadratic neurons (rank 3 → 16 outputs) + readout
    let quad = EfficientQuadraticLinear::new(8, 4, 3, &mut rng);
    let head = Linear::new(quad.out_features(), 2, true, &mut rng);
    let mut opt = Sgd::new(SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
    });
    let (lambda, other) = quadranet::core::split_lambda_params(
        quad.params().into_iter().chain(head.params()).collect(),
    );
    opt.add_group(other, None, None);
    opt.add_group(lambda, Some(5e-2), Some(0.0));

    for epoch in 0..60 {
        let mut g = Graph::training(epoch as u64);
        let x = g.leaf(train_x.clone());
        let h = quad.forward(&mut g, x);
        let h = g.relu(h);
        let logits = head.forward(&mut g, h);
        let loss = g.softmax_cross_entropy(logits, &train_y, 0.0);
        let lv = g.value(loss).data()[0];
        g.backward(loss);
        opt.step(1.0);
        opt.zero_grad();
        if epoch % 20 == 0 {
            println!("epoch {epoch:>2}: loss {lv:.4}");
        }
    }

    let mut g = Graph::new();
    let x = g.leaf(test_x);
    let h = quad.forward(&mut g, x);
    let h = g.relu(h);
    let logits = head.forward(&mut g, h);
    let acc = accuracy(g.value(logits), &test_y);
    println!("test accuracy: {:.1}% (chance = 50%)", acc * 100.0);
    println!(
        "quadratic layer: {} params for {} outputs (amortized {:.2}/output)",
        quad.param_count(),
        quad.out_features(),
        quad.param_count() as f64 / quad.out_features() as f64
    );
    assert!(
        acc > 0.75,
        "quadratic neurons should solve the covariance task"
    );
}
