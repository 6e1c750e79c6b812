//! `qn-serve`: a `std`-only HTTP/1.1 serving front-end for QuadraNet
//! models, with **dynamic batching** and **bounded-queue backpressure**.
//!
//! The paper's efficiency story (quadratic neurons matching larger
//! conventional networks at a fraction of the FLOPs and parameters) pays
//! off at inference time, and inference in production arrives as many
//! concurrent single-sample requests. This crate turns those into the
//! batched workloads the rest of the stack is optimised for:
//!
//! - [`http`] — a minimal, defensive HTTP/1.1 parser and writer (no
//!   tokio, no hyper; plain blocking sockets with read timeouts);
//! - [`queue`] — the dynamic-batching admission queue: bounded FIFO,
//!   size-or-deadline flush, non-blocking admission mapped to `429`/`503`
//!   + `Retry-After` when the server is saturated;
//! - [`server`] — accept loop, per-connection handler threads, per-route
//!   batch workers holding long-lived `InferenceSession`s (arena + buffer
//!   pool reuse from the zero-alloc steady state), registry-backed model
//!   hot-swap via `POST /admin/models/{name}/load`;
//! - [`histogram`] + [`metrics`] — lock-free latency percentiles,
//!   batch-size distribution, queue depth, and `BufferPool` stats behind
//!   `GET /metrics`.
//!
//! Batching is **transparent**: per-sample outputs are bit-identical to a
//! sequential `predict` no matter which batch a sample rode in or how many
//! worker threads are live (see the determinism notes in [`queue`]).
//!
//! ```no_run
//! use qn_serve::{BatchConfig, ServeConfig, ServerBuilder};
//! use std::sync::Arc;
//!
//! let mut rng = qn_tensor::Rng::seed_from(0);
//! let model: Arc<dyn qn_nn::Module + Send + Sync> =
//!     Arc::new(qn_nn::Linear::new(4, 2, true, &mut rng));
//! let server = ServerBuilder::new(ServeConfig::default())
//!     .route("tiny", &[4], model, BatchConfig::default())
//!     .start()
//!     .expect("bind");
//! println!("serving on http://{}", server.addr());
//! # server.shutdown();
//! ```
//!
//! The `resnet-serve` workload of the repository's `qnbench` benchmark
//! load-tests a server over loopback.
//!
//! # Panics
//!
//! The crate's request path is panic-free by construction: untrusted input
//! flows through fallible parsing ([`http`] returns [`HttpError`]), fallible
//! admission ([`queue::BatchQueue::try_admit`] returns [`AdmitError`]), and
//! the validating `try_predict_batch` inference entry point — and a model
//! panic inside a batch worker is caught, fails only that batch with a
//! `500`, and rebuilds the worker's session. The `expect` calls that remain
//! fall into exactly two classes, both programming errors rather than
//! runtime conditions: **poisoned internal locks** (another thread panicked
//! while holding serve state, so continuing would serve from a torn
//! structure) and **spawn/join failures** at server startup/shutdown. Every
//! such site carries a named `expect` message so a crash identifies the
//! broken invariant.

pub mod histogram;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use http::{HttpError, Limits, Request, Response};
pub use queue::{AdmitError, BatchConfig, BatchError, BatchQueue, ResponseSlot};
pub use server::{ModelFactory, ServeConfig, Server, ServerBuilder};
