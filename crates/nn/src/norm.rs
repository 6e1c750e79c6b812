//! Normalization layers.

use crate::{Costs, Module, ParamVisitor};
use qn_autograd::{ChainStage, Exec, Parameter, Var};
use qn_tensor::Tensor;
use std::sync::RwLock;

/// Batch normalization over `[B, C, H, W]` with running statistics.
///
/// In training mode (graph built with [`Graph::training`](qn_autograd::Graph::training)) the layer
/// normalizes with batch statistics and folds them into its running mean and
/// variance with the configured momentum; in inference mode it uses the
/// running statistics.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    // `RwLock`, not `RefCell`: modules are shared across the `qn-parallel`
    // pool during sharded inference, which only ever reads these.
    running_mean: RwLock<Tensor>,
    running_var: RwLock<Tensor>,
    momentum: f32,
    eps: f32,
    channels: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels
    /// (γ = 1, β = 0, running mean = 0, running var = 1).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::named("bn.gamma", Tensor::ones(&[channels])),
            beta: Parameter::named("bn.beta", Tensor::zeros(&[channels])),
            running_mean: RwLock::new(Tensor::zeros(&[channels])),
            running_var: RwLock::new(Tensor::ones(&[channels])),
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }

    /// Snapshot of the running mean.
    ///
    /// # Panics
    ///
    /// Panics if the running-stats lock is poisoned (a training thread
    /// panicked mid-update) — the statistics would be unreliable, so this
    /// is unrecoverable by design.
    pub fn running_mean(&self) -> Tensor {
        self.running_mean
            .read()
            .expect("running stats lock poisoned")
            .clone()
    }

    /// Snapshot of the running variance.
    ///
    /// # Panics
    ///
    /// Panics if the running-stats lock is poisoned (see
    /// [`BatchNorm2d::running_mean`]).
    pub fn running_var(&self) -> Tensor {
        self.running_var
            .read()
            .expect("running stats lock poisoned")
            .clone()
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// A deep copy of this layer with the current γ/β and running
    /// statistics — the batch-norm contribution to [`Module::quantized`]
    /// trees, which must not alias the original's training state.
    ///
    /// # Panics
    ///
    /// Panics if the running-stats lock is poisoned (see
    /// [`BatchNorm2d::running_mean`]).
    pub fn snapshot(&self) -> BatchNorm2d {
        BatchNorm2d {
            gamma: Parameter::named("bn.gamma", self.gamma.value()),
            beta: Parameter::named("bn.beta", self.beta.value()),
            running_mean: RwLock::new(self.running_mean()),
            running_var: RwLock::new(self.running_var()),
            momentum: self.momentum,
            eps: self.eps,
            channels: self.channels,
        }
    }

    /// Forward pass with an optionally fused tail: batch norm, then an
    /// optional residual add, then an optional ReLU — the `conv → bn
    /// (→ add → relu)` shape of every ResNet block.
    ///
    /// In **training** mode this decomposes into the ordinary primitives
    /// (`forward`, `add`, `relu`) so the tape records every stage and the
    /// running statistics update. In **inference** mode the whole tail runs
    /// as one [`Exec::elemwise_chain`] — on the eager path a single pass
    /// over the activation instead of three — with bitwise-identical
    /// values (each element sees the same scalar expressions in the same
    /// order).
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`Module::forward`] /
    /// [`Exec::add`], and if the running-stats lock is poisoned (see
    /// [`BatchNorm2d::running_mean`]).
    pub fn forward_fused(
        &self,
        g: &mut dyn Exec,
        x: Var,
        relu: bool,
        residual: Option<Var>,
    ) -> Var {
        if g.is_training() {
            let mut v = self.forward(g, x);
            if let Some(r) = residual {
                v = g.add(v, r);
            }
            if relu {
                v = g.relu(v);
            }
            return v;
        }
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        let rm = self
            .running_mean
            .read()
            .expect("running stats lock poisoned");
        let rv = self
            .running_var
            .read()
            .expect("running stats lock poisoned");
        let mut stages = [ChainStage::Relu; 3];
        let mut n = 0usize;
        stages[n] = ChainStage::NormChannel {
            gamma,
            beta,
            mean: &rm,
            var: &rv,
            eps: self.eps,
        };
        n += 1;
        if let Some(r) = residual {
            stages[n] = ChainStage::AddResidual(r);
            n += 1;
        }
        if relu {
            stages[n] = ChainStage::Relu;
            n += 1;
        }
        g.elemwise_chain(x, &stages[..n])
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        // read-guard the running stats for the duration of the op instead
        // of cloning snapshots: two fewer allocations per call, and the
        // guards drop before the training path takes the write locks below
        let (y, stats) = {
            let rm = self
                .running_mean
                .read()
                .expect("running stats lock poisoned");
            let rv = self
                .running_var
                .read()
                .expect("running stats lock poisoned");
            g.batch_norm2d(x, gamma, beta, &rm, &rv, self.eps)
        };
        if let Some((mean, var)) = stats {
            // Fold each batch statistic into the *current* running value
            // under one write-lock acquisition: concurrent training graphs
            // on one model then each contribute their momentum step in
            // completion order instead of racing a read-modify-write and
            // losing updates.
            let m = self.momentum;
            {
                let mut rm = self
                    .running_mean
                    .write()
                    .expect("running stats lock poisoned");
                // in place: rm·(1−m) + mean·m via decay + axpy — the same
                // per-element expression as the old scale/add chain, minus
                // its three temporaries
                rm.map_inplace(|v| v * (1.0 - m));
                rm.axpy(m, &mean);
            }
            {
                let mut rv = self
                    .running_var
                    .write()
                    .expect("running stats lock poisoned");
                rv.map_inplace(|v| v * (1.0 - m));
                rv.axpy(m, &var);
            }
        }
        y
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.param("gamma", &self.gamma);
        v.param("beta", &self.beta);
        v.state("running_mean", &self.running_mean);
        v.state("running_var", &self.running_var);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        Costs::passthrough(input)
    }

    // Batch norm stays in f32 inside quantized trees (its per-channel
    // affine is cheap and numerically delicate); quantization just
    // snapshots the statistics.
    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(self.snapshot()))
    }
}

/// Layer normalization over the trailing dimension with learned affine
/// parameters — the Transformer's normalizer.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
    eps: f32,
    width: usize,
}

impl LayerNorm {
    /// Creates a layer norm over a trailing dim of `width`.
    pub fn new(width: usize) -> Self {
        LayerNorm {
            gamma: Parameter::named("ln.gamma", Tensor::ones(&[width])),
            beta: Parameter::named("ln.beta", Tensor::zeros(&[width])),
            eps: 1e-5,
            width,
        }
    }

    /// Normalized width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Module for LayerNorm {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        v.param("gamma", &self.gamma);
        v.param("beta", &self.beta);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        Costs::passthrough(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_autograd::Graph;
    use qn_tensor::Rng;

    #[test]
    fn batch_norm_updates_running_stats_in_training() {
        let mut rng = Rng::seed_from(1);
        let bn = BatchNorm2d::new(3);
        let before = bn.running_mean();
        let mut g = Graph::training(0);
        let x = g.leaf(Tensor::randn(&[4, 3, 4, 4], &mut rng).add_scalar(5.0));
        let _ = bn.forward(&mut g, x);
        let after = bn.running_mean();
        assert!(!after.allclose(&before, 1e-6), "running mean must move");
        // moved toward +5 with momentum 0.1
        assert!(after.mean() > 0.3 && after.mean() < 0.7);
    }

    #[test]
    fn batch_norm_inference_leaves_stats() {
        let mut rng = Rng::seed_from(2);
        let bn = BatchNorm2d::new(2);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 2, 3, 3], &mut rng));
        let _ = bn.forward(&mut g, x);
        assert!(bn.running_mean().allclose(&Tensor::zeros(&[2]), 0.0));
        assert!(bn.running_var().allclose(&Tensor::ones(&[2]), 0.0));
    }

    #[test]
    fn layer_norm_module_runs() {
        let mut rng = Rng::seed_from(3);
        let ln = LayerNorm::new(6);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 4, 6], &mut rng).scale(5.0));
        let y = ln.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 4, 6]);
        // rows normalized
        let row = g.value(y).slice_axis(0, 0, 1).slice_axis(1, 0, 1);
        assert!(row.mean().abs() < 1e-4);
        assert_eq!(ln.params().len(), 2);
    }
}
