//! # qn-nn
//!
//! Neural-network building blocks on top of [`qn_autograd`]: layers, weight
//! initialization, optimizers and learning-rate schedules.
//!
//! The central abstraction is the [`Module`] trait: a layer that can run a
//! forward pass in any [`Exec`](qn_autograd::Exec) execution context —
//! taped on a [`Graph`](qn_autograd::Graph) for training, or tape-free on
//! an [`EagerExec`](qn_autograd::EagerExec) for inference — expose its
//! [`Parameter`](qn_autograd::Parameter)s, and report its cost
//! ([`Costs`]: multiply–accumulate operations and output shape) for the
//! paper's parameter/FLOP accounting.
//!
//! Optimizers support **parameter groups with independent learning rates**,
//! which the paper relies on: the quadratic eigenvalue parameters `Λᵏ` are
//! trained with a much smaller learning rate (1e-4 … 1e-6) than the rest of
//! the network.
//!
//! # Example
//!
//! ```
//! use qn_autograd::Graph;
//! use qn_nn::{Linear, Module, Sgd, SgdConfig};
//! use qn_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let layer = Linear::new(4, 2, true, &mut rng);
//! let mut opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });
//! opt.add_group(layer.params(), None, None);
//!
//! let mut g = Graph::training(0);
//! let x = g.leaf(Tensor::randn(&[8, 4], &mut rng));
//! let y = layer.forward(&mut g, x);
//! let loss = g.softmax_cross_entropy(y, &[0, 1, 0, 1, 0, 1, 0, 1], 0.0);
//! g.backward(loss);
//! opt.step(1.0);
//! opt.zero_grad();
//! ```

pub mod checkpoint;
mod embedding;
mod init;
mod layers;
mod module;
mod norm;
mod optim;
pub mod quant;
mod schedule;

pub use checkpoint::{load_module, save_module, LoadMode};
pub use embedding::Embedding;
pub use init::{kaiming_normal, kaiming_uniform, xavier_uniform};
pub use layers::{
    AvgPool2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, Sequential, Tanh,
};
pub use module::{visit_scoped, Costs, Module, ParamVisitor};
pub use norm::{BatchNorm2d, LayerNorm};
pub use optim::{clip_grad_norm, Adam, AdamConfig, Sgd, SgdConfig};
pub use quant::{
    calibrate, quantize_calibrated, quantize_module, read_qtensor, write_qtensor, Int8Core,
    QuantizedConv2d, QuantizedLinear, ACT_STATS_NAME,
};
pub use schedule::{NoamSchedule, StepDecay};
