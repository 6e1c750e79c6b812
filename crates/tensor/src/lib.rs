//! # qn-tensor
//!
//! Dense, contiguous, row-major `f32` tensors and the numeric kernels the rest
//! of the `quadranet` workspace builds on: matrix multiplication, convolution
//! (patches packed straight from the image, or im2col for the tape),
//! pooling, broadcasting helpers and reductions.
//!
//! The crate is deliberately small and dependency-free (only `rand` for
//! initialization) so that the quadratic-neuron library reproduces the paper's
//! system from scratch rather than delegating to an existing framework.
//!
//! # Layout, views, and determinism
//!
//! [`Tensor`] owns a dense, contiguous, **row-major** buffer. On top of that
//! single layout sit the stride-aware matrix views [`MatRef`]/[`MatMut`]:
//! a matrix is `(data, rows, cols, row_stride, col_stride)`, so transposition
//! ([`MatRef::transpose`]) is a stride swap and slicing one batch element out
//! of a `[N, M, K]` buffer is a subslice — **zero-copy** either way. Every
//! matrix product in the workspace (`matmul`, `matmul_transa`,
//! `matmul_transb`, the batched attention products, the convolutions, the
//! `qn-linalg` reconstructions) routes through the one packed,
//! register-tiled band loop behind [`gemm`] and [`gemm_patches`].
//!
//! Two invariants hold everywhere and are enforced by the workspace's
//! property suites:
//!
//! - **Determinism:** the `k`-accumulation of every output element is
//!   strictly sequential, and parallelism only ever splits disjoint output
//!   regions — results are **bit-identical at any thread count**, and
//!   bit-identical to the seed naive kernels (retained in [`reference`](mod@reference) as
//!   the executable specification).
//! - **IEEE-754 exactness:** the GEMM never skips a zero coefficient, so
//!   `0 × NaN = NaN` and `0 × ∞ = NaN` propagate instead of being silently
//!   swallowed.
//!
//! # Storage: owned, pooled, and mapped buffers
//!
//! A tensor's buffer is a [`Storage`] — one of three variants behind a
//! single `Deref<Target = [f32]>` surface, so kernels never care which one
//! they are reading:
//!
//! - [`Storage::Owned`] — a plain `Vec<f32>`; every ordinary constructor
//!   produces this.
//! - [`Storage::Pooled`] — a [`PoolRef`] on loan from a [`BufferPool`],
//!   returned on drop.
//! - [`Storage::Mapped`] — a shared, immutable window into a memory-mapped
//!   checkpoint file ([`Mmap`]): the tensor **borrows the file's bytes with
//!   zero copies**, cloning bumps an `Arc`, and the first in-place write
//!   copies-on-write into an owned buffer. This is how `Checkpoint::
//!   tensor_mapped` loads model weights without touching the allocator
//!   (cold-start loading is bounded by I/O, not memcpy).
//!
//! The [`checkpoint`] module defines the versioned on-disk container
//! (magic + version + CRC-32 + JSON-ish header + 64-byte-aligned raw
//! little-endian `f32` blobs) that [`Storage::Mapped`] windows into; see
//! its docs for the wire format and validation guarantees.
//!
//! # Pooling and in-place ops
//!
//! Allocation is the workspace's second hot-path cost after FLOPs, so the
//! crate ships a buffer-recycling layer:
//!
//! - [`BufferPool`] — thread-safe, size-bucketed free lists of `Vec`
//!   storage with hit/miss/return counters ([`BufferPool::stats`]) and an
//!   RAII handout ([`PoolRef`], used by the fused eager conv for its patch
//!   matrix). One global instance ([`BufferPool::global`]) backs default
//!   `EagerExec` arenas; per-session instances isolate serving loops
//!   (`InferenceSession` in `qn-models`). The [`gemm`] packing scratch
//!   recycles through **per-thread** caches instead, so parallel workers
//!   never touch a pool lock.
//! - [`Tensor::from_pooled`] / [`Tensor::into_pool`] round-trip a tensor's
//!   data *and* shape storage through a pool; [`Tensor::refit`] reshapes a
//!   tensor in place reusing its own buffers (the `EagerExec` arena's
//!   workhorse).
//! - In-place and into-buffer elementwise kernels —
//!   [`Tensor::map_inplace`], [`Tensor::zip_inplace`], [`Tensor::axpy`],
//!   and the slice-level [`elemwise`] module — share one parallel banding
//!   rule with the allocating [`Tensor::map`]/[`Tensor::zip`], so every
//!   variant is **bit-identical**.
//!
//! Recycled buffers carry **unspecified contents**: every consumer either
//! fully overwrites or zero-fills. The `pool_equivalence.rs` property
//! suite pre-poisons pools with NaN and asserts pooled execution equals
//! fresh-allocation execution bit for bit.
//!
//! # Example
//!
//! ```
//! use qn_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), qn_tensor::TensorError> {
//! let mut rng = Rng::seed_from(42);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 4], &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape().dims(), &[2, 4]);
//! let back = Tensor::from_vec(vec![1.0; 8], &[2, 4])?;
//! let grad_a = back.matmul_transb(&b); // dC/dA = gB^T
//! assert_eq!(grad_a.shape().dims(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

mod bufpool;
pub mod checkpoint;
mod conv;
pub mod elemwise;
mod error;
mod mat;
mod mmap;
mod pool;
pub mod quant;
mod rng;
mod shape;
mod storage;
mod tensor;

pub use bufpool::{BufferPool, PoolRef, PoolStats};
pub use checkpoint::{
    Checkpoint, CheckpointWriter, DType, TensorEntry, CHECKPOINT_VERSION, CHECKPOINT_VERSION_F32,
};
pub use conv::{col2im, im2col, im2col_into, Conv2dSpec};
pub use error::TensorError;
pub use mat::{gemm, gemm_batched, gemm_patches, reference, MatMut, MatRef};
pub use mmap::Mmap;
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_into, max_pool2d, max_pool2d_backward,
    max_pool2d_into, PoolSpec,
};
pub use quant::{
    decode_f16, encode_f16, f16_bits_to_f32, f32_to_f16_bits, gemm_i8, gemm_i8_reference, MatRefI8,
    QTensor, GEMM_I8_MAX_K,
};
pub use rng::Rng;
pub use shape::Shape;
pub use storage::Storage;
pub use tensor::Tensor;
