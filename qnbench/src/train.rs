//! The training path, traced only: `qn_experiments::train_classifier` with
//! the quadratic ResNet-20 (k=9, width 8) on `synthetic_cifar10` at 32 px —
//! 32 training images (one batch of 32 per epoch) and 10 test images, with
//! the default `TrainConfig` except for `epochs` (2) and the seed — and a
//! replica of its steps on a wrapped `Graph`.
//!
//! There is no end-to-end `resnet-train` workload: across ten seeds its
//! CPU time per job spread 16–19% (quartile distance over median), more
//! than a third of the largest bound the benchmark may set.

use crate::stats::{cpu_ms, Clock, Timings};
use crate::trace::{OpStat, Traced};
use crate::Outcome;
use qn_autograd::Graph;
use qn_core::NeuronSpec;
use qn_data::{augment_batch, synthetic_cifar10, DataLoader, ImageDataset};
use qn_experiments::{train_classifier, TrainConfig};
use qn_models::{NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::{clip_grad_norm, Module, Sgd, SgdConfig, StepDecay};
use qn_tensor::{BufferPool, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;

const TRAIN_IMAGES: usize = 32;
const EPOCHS: usize = 2;
/// Op classes of the traced forward on the tape.
const OPS: [&str; 5] = [
    "conv2d",
    "im2col",
    "matmul_transb",
    "weighted_square_sum",
    "batch_norm2d",
];
/// Ops that count as `elemwise` in the traced forward.
const ELEMWISE: [&str; 16] = [
    "add",
    "sub",
    "mul",
    "scale",
    "add_scalar",
    "neg",
    "square",
    "powi",
    "relu",
    "tanh",
    "sigmoid",
    "add_bcast",
    "mul_bcast",
    "add_channel",
    "mul_channel",
    "elemwise_chain",
];

fn model(seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 20,
        base_width: 8,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank: 9 },
        placement: NeuronPlacement::All,
        seed,
    })
}

fn dataset(seed: u64) -> ImageDataset {
    let mut d = synthetic_cifar10(32, 4, 1, seed);
    d.train_images = d.train_images.slice_axis(0, 0, TRAIN_IMAGES);
    d.train_labels.truncate(TRAIN_IMAGES);
    d
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        seed,
        ..TrainConfig::default()
    }
}

/// One timed job, booked in `t`: returns the epoch losses.
fn job(seed: u64, data: &ImageDataset, t: &mut Timings) -> Vec<f32> {
    let net = model(seed);
    let c = Clock::start();
    let r = train_classifier(&net, data, config(seed));
    t.stop(&c);
    r.curve.iter().map(|e| e.loss).collect()
}

/// Replays `train_classifier`'s steps from public pieces — shuffle and
/// `augment_batch`, a `Graph::training_pooled` forward through the timing
/// wrapper, `softmax_cross_entropy`, `backward`, and clip + `Sgd::step` —
/// and checks each step's loss against the job's epoch losses bit for bit
/// (so every epoch loss must also be finite).
pub fn trace(seed: u64) -> Outcome {
    println!("trace resnet-train: replica of train_classifier's steps on a wrapped Graph");
    let data = dataset(seed);
    let mut o = Outcome::default();
    let mut t = Timings::default();
    let losses = job(seed, &data, &mut t);
    let e2e_step_ms = t.cpu[0] / EPOCHS as f64;

    let cfg = config(seed);
    let net = model(seed);
    let (lambda, other) = net.param_groups();
    let mut opt = Sgd::new(SgdConfig {
        lr: cfg.lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
    });
    opt.add_group(other, None, None);
    opt.add_group(lambda, Some(cfg.lambda_lr), Some(0.0));
    let schedule = StepDecay::new(vec![cfg.epochs / 2, cfg.epochs * 3 / 4], 0.1);
    let loader = DataLoader::new(&data.train_images, &data.train_labels, cfg.batch_size);
    let pool = Arc::new(BufferPool::new());
    let mut rng = Rng::seed_from(cfg.seed);
    let mut step_seed = cfg.seed;
    let mut phase = [0.0f64; 5];
    let mut ops: BTreeMap<&'static str, OpStat> = BTreeMap::new();
    for (epoch, want) in losses.iter().enumerate() {
        let t0 = cpu_ms();
        let order = loader.shuffle_order(&mut rng);
        let (images, labels) = loader
            .epoch_with_order(order)
            .next()
            .expect("one batch per epoch");
        let images = augment_batch(&images, 2, &mut rng);
        step_seed = step_seed.wrapping_add(1);
        let mut t = Traced::new(Graph::training_pooled(step_seed, Arc::clone(&pool)));
        let x = t.inner.leaf(images);
        phase[0] += cpu_ms() - t0;

        let t0 = cpu_ms();
        let logits = net.forward(&mut t, x);
        phase[1] += cpu_ms() - t0;
        let Traced {
            inner: mut g,
            ops: step_ops,
            ..
        } = t;
        for (k, s) in step_ops {
            let e = ops.entry(k).or_default();
            e.calls += s.calls;
            e.ms += s.ms;
        }

        let t0 = cpu_ms();
        let loss = g.softmax_cross_entropy(logits, &labels, 0.0);
        let loss_val = g.value(loss).data()[0];
        phase[2] += cpu_ms() - t0;
        o.check(want.is_finite() && loss_val.to_bits() == want.to_bits());

        let t0 = cpu_ms();
        g.backward(loss);
        g.recycle_into(&pool);
        phase[3] += cpu_ms() - t0;

        let t0 = cpu_ms();
        if let Some(max_norm) = cfg.clip {
            clip_grad_norm(&opt.params(), max_norm);
        }
        opt.step(schedule.factor(epoch));
        opt.zero_grad();
        phase[4] += cpu_ms() - t0;
    }
    let steps = losses.len().max(1) as f64;
    let names = ["data", "forward", "loss", "backward", "optim"];
    for (name, ms) in names.iter().zip(phase) {
        o.metric(format!("train.{name}_ms"), "ms", ms / steps);
    }
    let (mut elemwise, mut other) = (0.0, 0.0);
    let mut split = BTreeMap::new();
    for (k, s) in &ops {
        let ms = s.ms / steps;
        if OPS.contains(k) {
            split.insert(*k, ms);
        } else if ELEMWISE.contains(k) {
            elemwise += ms;
        } else {
            other += ms;
        }
    }
    for op in OPS {
        o.metric(
            format!("train.forward.{op}.ms"),
            "ms",
            split.get(op).copied().unwrap_or(0.0),
        );
    }
    o.metric("train.forward.elemwise.ms", "ms", elemwise);
    o.metric("train.forward.other.ms", "ms", other);
    let replica_ms: f64 = phase.iter().sum::<f64>() / steps;
    println!(
        "  replica step {replica_ms:.2} CPU ms (data {:.2}, forward {:.2}, loss {:.2}, backward {:.2}, optim {:.2}) vs train_classifier {e2e_step_ms:.2} CPU ms per step (includes its evaluation pass)",
        phase[0] / steps,
        phase[1] / steps,
        phase[2] / steps,
        phase[3] / steps,
        phase[4] / steps
    );
    o.metric("train.replica_vs_e2e", "ratio", replica_ms / e2e_step_ms);
    o
}
