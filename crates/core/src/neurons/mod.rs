//! Neuron-layer implementations: the proposed efficient quadratic neuron and
//! every comparator family from the paper's Table I.
//!
//! All dense layers implement [`qn_nn::Module`] mapping `[B, n] -> [B, out]`;
//! convolutional forms are obtained with [`PatchConv2d`], in which each
//! spatial patch (im2col, or read straight from the image by the efficient
//! neuron's eager `Exec::quadratic_conv2d`) becomes the neuron input `x` —
//! the deployment scheme of the paper's Fig. 3.

mod efficient;
mod general;
mod kervolution;
mod patch_conv;
mod quant;
mod rank_forms;

pub use efficient::EfficientQuadraticLinear;
pub use general::{GeneralQuadraticLinear, NoLinearQuadraticLinear};
pub use kervolution::KervolutionLinear;
pub use patch_conv::{EfficientQuadraticConv2d, PatchConv2d};
pub use quant::QuantizedQuadratic;
pub use rank_forms::{FactorizedQuadraticLinear, LowRankQuadraticLinear, Quad1Linear, Quad2Linear};
