//! # quadranet
//!
//! A pure-Rust reproduction of *"Computational and Storage Efficient Quadratic
//! Neurons for Deep Neural Networks"* (DATE 2024, arXiv:2306.07294).
//!
//! The workspace implements the paper's efficient quadratic neuron
//! `y = xᵀQᵏΛᵏ(Qᵏ)ᵀx + wᵀx + b` with vectorized output `{y, fᵏ}`, every
//! comparator neuron family from the paper's Table I, and the full training
//! substrate (tensors, reverse-mode autodiff, layers, optimizers, synthetic
//! datasets, ResNets and Transformers) needed to regenerate each table and
//! figure of the evaluation section.
//!
//! This umbrella crate re-exports the member crates under stable names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`parallel`] | `qn-parallel` | std-only worker pool: `par_chunks_mut`/`par_map` |
//! | [`simd`] | `qn-simd` | vectorized kernel layer: runtime SIMD dispatch, bit-identical at every level |
//! | [`tensor`] | `qn-tensor` | dense `f32` tensors, matmul, convolution on patches packed from the image |
//! | [`linalg`] | `qn-linalg` | symmetric eigendecomposition, spectral top-k |
//! | [`autograd`] | `qn-autograd` | tape-based reverse-mode differentiation + tape-free eager execution |
//! | [`nn`] | `qn-nn` | layers, losses, optimizers, LR schedules |
//! | [`core`] | `qn-core` | the paper's neuron + all comparator neurons |
//! | [`data`] | `qn-data` | synthetic CIFAR / ImageNet / translation data |
//! | [`models`] | `qn-models` | ResNet family, Transformer, `InferenceSession` |
//! | [`metrics`] | `qn-metrics` | accuracy, BLEU, parameter/MAC counting |
//! | [`experiments`] | `qn-experiments` | per-table / per-figure harnesses |
//! | [`serve`] | `qn-serve` | std-only HTTP serving: dynamic batching, backpressure, hot-swap |
//!
//! Every layer's forward pass is written once against the
//! [`Exec`](autograd::Exec) execution context and runs in **two modes**:
//! on the autograd tape ([`Graph`](autograd::Graph)) for training, or
//! tape-free on an [`EagerExec`](autograd::EagerExec) arena for inference
//! (wrapped by [`InferenceSession`](models::InferenceSession) for serving).
//!
//! # Quickstart
//!
//! Training (tape mode): build a [`Graph`](autograd::Graph), run the
//! forward pass, backpropagate.
//!
//! ```
//! use quadranet::core::neurons::EfficientQuadraticLinear;
//! use quadranet::autograd::Graph;
//! use quadranet::nn::Module;
//! use quadranet::tensor::Tensor;
//!
//! # fn main() -> Result<(), quadranet::tensor::TensorError> {
//! // A layer of efficient quadratic neurons: 8 inputs, rank k = 3,
//! // 2 neurons, each emitting k + 1 = 4 channels -> 8 outputs.
//! let mut rng = quadranet::tensor::Rng::seed_from(7);
//! let layer = EfficientQuadraticLinear::new(8, 2, 3, &mut rng);
//! let mut g = Graph::training(0);
//! let x = g.leaf(Tensor::randn(&[4, 8], &mut rng));
//! let y = layer.forward(&mut g, x);
//! assert_eq!(g.value(y).shape().dims(), &[4, 8]);
//! let sq = g.square(y);
//! let loss = g.sum_all(sq);
//! g.backward(loss); // gradients land in layer.params()
//! # Ok(())
//! # }
//! ```
//!
//! Inference (tape-free mode): wrap any model in an
//! [`InferenceSession`](models::InferenceSession) — no tape nodes, no
//! backward closures, a reusable activation arena across requests.
//!
//! ```
//! use quadranet::core::NeuronSpec;
//! use quadranet::models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
//! use quadranet::tensor::{Rng, Tensor};
//!
//! let net = ResNet::cifar(ResNetConfig {
//!     depth: 8,
//!     base_width: 4,
//!     num_classes: 10,
//!     neuron: NeuronSpec::EfficientQuadratic { rank: 3 },
//!     placement: NeuronPlacement::All,
//!     seed: 0,
//! });
//! let mut rng = Rng::seed_from(1);
//! // validate untrusted request shapes instead of panicking:
//! let mut session = InferenceSession::with_sample_shape(&net, &[3, 16, 16]);
//! let logits = session
//!     .try_predict(&Tensor::randn(&[3, 16, 16], &mut rng))
//!     .expect("shape was validated");
//! assert_eq!(logits.shape().dims(), &[10]);
//! assert!(session.try_predict(&Tensor::zeros(&[1, 8, 8])).is_err());
//! ```
//!
//! # Scaling
//!
//! The hot kernels (matmul family, conv2d, pooling, the fused inference
//! kernels, batched inference and data-parallel training) run on the
//! [`parallel`] worker pool, sized from `QN_NUM_THREADS` (default:
//! [`std::thread::available_parallelism`]; `QN_NUM_THREADS=1` disables
//! parallelism). Work is only ever split into disjoint output regions with
//! sequential per-unit accumulation, so **results are bit-identical at any
//! thread count** — `predict_batch` on one thread and on eight produce the
//! same bits, which the workspace's property suites assert. Training with
//! `TrainConfig::grad_shards > 1` shards each mini-batch across the pool
//! and accumulates gradients in shard order (deterministic per shard
//! count; batch norm then uses per-shard statistics, the standard
//! unsynchronized data-parallel semantics).
pub use qn_autograd as autograd;
pub use qn_core as core;
pub use qn_data as data;
pub use qn_experiments as experiments;
pub use qn_linalg as linalg;
pub use qn_metrics as metrics;
pub use qn_models as models;
pub use qn_nn as nn;
pub use qn_parallel as parallel;
pub use qn_serve as serve;
pub use qn_simd as simd;
pub use qn_tensor as tensor;
