//! # qn-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`qn_tensor::Tensor`].
//!
//! Execution is **dual-mode**: the [`Exec`] trait is the op set, and every
//! forward pass is written once against `&mut dyn Exec`. [`EagerExec`]
//! computes each op into a recycled arena with no tape — the inference path,
//! and the one forward implementation of every op. A [`Graph`] owns an
//! `EagerExec`, takes each op's value from it and records one tape node per
//! op: a backward closure that reads the op's operands and output from the
//! arena when it runs. [`Graph::backward`] on a scalar output runs the
//! closures in reverse and flushes the gradients of [`Parameter`] leaves
//! into persistent storage, so an optimizer can consume them.
//!
//! The op set is exactly what the quadratic-neuron paper's models need:
//! dense and conv primitives (convolutions read patches straight from the
//! image; the tape lowers the quadratic conv to im2col), broadcast arithmetic, batched matmul and softmax for
//! attention, fused batch/layer norm, the quadratic neuron layer and conv,
//! the elementwise powers of kervolutional neurons, and a fused loss.
//!
//! # Example
//!
//! ```
//! use qn_autograd::{Exec, Graph};
//! use qn_tensor::Tensor;
//!
//! # fn main() -> Result<(), qn_tensor::TensorError> {
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![3.0], &[1])?);
//! let y = g.mul(x, x);            // y = x²
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(x).unwrap().data(), &[6.0]); // dy/dx = 2x
//! # Ok(())
//! # }
//! ```

pub(crate) use qn_parallel::PAR_MIN_ELEMS;

mod convops;
mod exec;
mod gradcheck;
mod graph;
mod matops;
mod nnops;
mod ops;
mod param;

pub use exec::{ChainStage, EagerExec, Exec};
pub use gradcheck::{gradcheck, gradcheck_multi};
pub use graph::{Graph, Var};
pub use param::Parameter;
