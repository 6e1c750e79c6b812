//! Optimizers with parameter groups and gradient clipping.
//!
//! Update loops run the vectorized `qn_simd::{sgd_update, adam_update}`
//! kernels. Each lane computes the seed's scalar expression: the kernels
//! are element-local, with no FMA and with correctly-rounded div/sqrt, so
//! parameters are bit-identical at every SIMD level.

use qn_autograd::Parameter;
use qn_tensor::{Checkpoint, CheckpointWriter, Tensor, TensorError};

/// Restores one optimizer state tensor from `ckpt`, shape-checked against
/// the live buffer it replaces.
fn load_state_tensor(ckpt: &Checkpoint, name: &str, into: &mut Tensor) -> Result<(), TensorError> {
    let t = ckpt.tensor(name)?;
    if t.shape() != into.shape() {
        return Err(TensorError::InvalidCheckpoint {
            offset: 0,
            detail: format!(
                "optimizer state \"{name}\": checkpoint shape {:?} does not match live shape {:?}",
                t.shape().dims(),
                into.shape().dims()
            ),
        });
    }
    *into = t;
    Ok(())
}

/// Configuration for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Base learning rate (used by groups without an override).
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }
}

struct Group {
    params: Vec<Parameter>,
    lr_override: Option<f32>,
    weight_decay_override: Option<f32>,
    velocity: Vec<Tensor>,
}

/// Stochastic gradient descent with momentum, weight decay and parameter
/// groups.
///
/// Groups may override the learning rate — the paper trains the quadratic
/// eigenvalues `Λᵏ` at 1e-4…1e-6 while the rest of the network uses 0.1.
/// [`Sgd::step`] takes a schedule factor that scales every group's rate,
/// so step-decay applies uniformly.
///
/// # Example
///
/// ```
/// use qn_autograd::Parameter;
/// use qn_nn::{Sgd, SgdConfig};
/// use qn_tensor::Tensor;
///
/// let p = Parameter::new(Tensor::ones(&[2]));
/// p.accumulate_grad(&Tensor::ones(&[2]));
/// let mut opt = Sgd::new(SgdConfig { lr: 0.5, momentum: 0.0, weight_decay: 0.0 });
/// opt.add_group(vec![p.clone()], None, None);
/// opt.step(1.0);
/// assert_eq!(p.value().data(), &[0.5, 0.5]);
/// ```
pub struct Sgd {
    config: SgdConfig,
    groups: Vec<Group>,
}

impl Sgd {
    /// Creates an optimizer with no parameter groups.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            groups: Vec::new(),
        }
    }

    /// Adds a parameter group with optional learning-rate and weight-decay
    /// overrides.
    pub fn add_group(
        &mut self,
        params: Vec<Parameter>,
        lr_override: Option<f32>,
        weight_decay_override: Option<f32>,
    ) {
        let velocity = params
            .iter()
            .map(|p| Tensor::zeros(p.value().shape().dims()))
            .collect();
        self.groups.push(Group {
            params,
            lr_override,
            weight_decay_override,
            velocity,
        });
    }

    /// Applies one update. `schedule` scales every group's learning rate
    /// (pass the current decay factor, 1.0 for none).
    pub fn step(&mut self, schedule: f32) {
        for group in &mut self.groups {
            let lr = group.lr_override.unwrap_or(self.config.lr) * schedule;
            let wd = group
                .weight_decay_override
                .unwrap_or(self.config.weight_decay);
            let momentum = self.config.momentum;
            for (p, vel) in group.params.iter().zip(group.velocity.iter_mut()) {
                p.update(|value, grad| {
                    qn_simd::sgd_update(
                        value.data_mut(),
                        vel.data_mut(),
                        grad.data(),
                        lr,
                        momentum,
                        wd,
                    );
                });
            }
        }
    }

    /// Zeroes every parameter's gradient accumulator.
    pub fn zero_grad(&self) {
        for group in &self.groups {
            for p in &group.params {
                p.zero_grad();
            }
        }
    }

    /// All parameters across groups (clone handles).
    pub fn params(&self) -> Vec<Parameter> {
        self.groups
            .iter()
            .flat_map(|g| g.params.iter().cloned())
            .collect()
    }

    /// Appends the momentum buffers to `writer` as
    /// `{prefix}.g{group}.v{index}`, so optimizer state rides in the same
    /// checkpoint as the model it trains.
    pub fn save_state(&self, writer: &mut CheckpointWriter, prefix: &str) {
        for (gi, group) in self.groups.iter().enumerate() {
            for (pi, vel) in group.velocity.iter().enumerate() {
                writer.add(format!("{prefix}.g{gi}.v{pi}"), vel.clone());
            }
        }
    }

    /// Restores momentum buffers written by [`Sgd::save_state`]. Groups must
    /// have been re-added in the same order and with the same shapes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidCheckpoint`] when a buffer is missing
    /// or stored with a different shape.
    pub fn load_state(&mut self, ckpt: &Checkpoint, prefix: &str) -> Result<(), TensorError> {
        for (gi, group) in self.groups.iter_mut().enumerate() {
            for (pi, vel) in group.velocity.iter_mut().enumerate() {
                load_state_tensor(ckpt, &format!("{prefix}.g{gi}.v{pi}"), vel)?;
            }
        }
        Ok(())
    }
}

/// Configuration for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Base learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.98,
            eps: 1e-9,
        }
    }
}

struct AdamGroup {
    params: Vec<Parameter>,
    lr_override: Option<f32>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

/// Adam optimizer (β₂ = 0.98, ε = 1e-9 defaults per "Attention Is All You
/// Need") with parameter groups for the quadratic `Λᵏ` learning rate.
pub struct Adam {
    config: AdamConfig,
    groups: Vec<AdamGroup>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with no parameter groups.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            groups: Vec::new(),
            t: 0,
        }
    }

    /// Adds a parameter group with an optional learning-rate override.
    pub fn add_group(&mut self, params: Vec<Parameter>, lr_override: Option<f32>) {
        let m = params
            .iter()
            .map(|p| Tensor::zeros(p.value().shape().dims()))
            .collect();
        let v = params
            .iter()
            .map(|p| Tensor::zeros(p.value().shape().dims()))
            .collect();
        self.groups.push(AdamGroup {
            params,
            lr_override,
            m,
            v,
        });
    }

    /// Applies one update; `schedule` scales every group's rate (e.g. a Noam
    /// warmup factor).
    pub fn step(&mut self, schedule: f32) {
        self.t += 1;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let eps = self.config.eps;
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        for group in &mut self.groups {
            let lr = group.lr_override.unwrap_or(self.config.lr) * schedule;
            for ((p, m), v) in group
                .params
                .iter()
                .zip(group.m.iter_mut())
                .zip(group.v.iter_mut())
            {
                p.update(|value, grad| {
                    qn_simd::adam_update(
                        value.data_mut(),
                        m.data_mut(),
                        v.data_mut(),
                        grad.data(),
                        lr,
                        b1,
                        b2,
                        eps,
                        bias1,
                        bias2,
                    );
                });
            }
        }
    }

    /// Zeroes every parameter's gradient accumulator.
    pub fn zero_grad(&self) {
        for group in &self.groups {
            for p in &group.params {
                p.zero_grad();
            }
        }
    }

    /// Step counter `t` (drives bias correction); 0 before the first step.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Appends moment buffers to `writer` as `{prefix}.g{group}.m{index}` /
    /// `{prefix}.g{group}.v{index}`. The step counter is **not** a tensor —
    /// persist [`Adam::steps`] in checkpoint metadata and restore it with
    /// [`Adam::set_steps`].
    pub fn save_state(&self, writer: &mut CheckpointWriter, prefix: &str) {
        for (gi, group) in self.groups.iter().enumerate() {
            for (pi, m) in group.m.iter().enumerate() {
                writer.add(format!("{prefix}.g{gi}.m{pi}"), m.clone());
            }
            for (pi, v) in group.v.iter().enumerate() {
                writer.add(format!("{prefix}.g{gi}.v{pi}"), v.clone());
            }
        }
    }

    /// Restores moment buffers written by [`Adam::save_state`]. Groups must
    /// have been re-added in the same order and with the same shapes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidCheckpoint`] when a buffer is missing
    /// or stored with a different shape.
    pub fn load_state(&mut self, ckpt: &Checkpoint, prefix: &str) -> Result<(), TensorError> {
        for (gi, group) in self.groups.iter_mut().enumerate() {
            for (pi, m) in group.m.iter_mut().enumerate() {
                load_state_tensor(ckpt, &format!("{prefix}.g{gi}.m{pi}"), m)?;
            }
            for (pi, v) in group.v.iter_mut().enumerate() {
                load_state_tensor(ckpt, &format!("{prefix}.g{gi}.v{pi}"), v)?;
            }
        }
        Ok(())
    }

    /// Overwrites the step counter (checkpoint resume).
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }
}

/// Clips the global L2 norm of all gradients to `max_norm`, returning the
/// pre-clip norm.
pub fn clip_grad_norm(params: &[Parameter], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        let g = p.grad();
        total += g.dot(&g);
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            let scaled = p.grad().scale(scale);
            p.zero_grad();
            p.accumulate_grad(&scaled);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_param(x0: f32) -> Parameter {
        Parameter::new(Tensor::from_vec(vec![x0], &[1]).unwrap())
    }

    /// Minimizes f(x) = x² with the given closure producing one step.
    fn run_opt(mut step: impl FnMut(&Parameter), p: &Parameter, iters: usize) -> f32 {
        for _ in 0..iters {
            p.zero_grad();
            let x = p.value().data()[0];
            p.accumulate_grad(&Tensor::from_vec(vec![2.0 * x], &[1]).unwrap());
            step(p);
        }
        p.value().data()[0]
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let p = quad_param(5.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        opt.add_group(vec![p.clone()], None, None);
        let x = run_opt(|_| opt.step(1.0), &p, 50);
        assert!(x.abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let p1 = quad_param(5.0);
        let mut plain = Sgd::new(SgdConfig {
            lr: 0.02,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        plain.add_group(vec![p1.clone()], None, None);
        let x_plain = run_opt(|_| plain.step(1.0), &p1, 20);

        let p2 = quad_param(5.0);
        let mut mom = Sgd::new(SgdConfig {
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        mom.add_group(vec![p2.clone()], None, None);
        let x_mom = run_opt(|_| mom.step(1.0), &p2, 20);
        assert!(x_mom.abs() < x_plain.abs(), "{x_mom} vs {x_plain}");
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let p = quad_param(1.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        });
        opt.add_group(vec![p.clone()], None, None);
        // zero gradient: only decay acts
        opt.step(1.0);
        let x = p.value().data()[0];
        assert!((x - (1.0 - 0.1 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn group_lr_override_is_respected() {
        let fast = quad_param(1.0);
        let slow = quad_param(1.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        opt.add_group(vec![fast.clone()], None, None);
        opt.add_group(vec![slow.clone()], Some(1e-4), None);
        fast.accumulate_grad(&Tensor::ones(&[1]));
        slow.accumulate_grad(&Tensor::ones(&[1]));
        opt.step(1.0);
        assert!((fast.value().data()[0] - 0.9).abs() < 1e-6);
        assert!((slow.value().data()[0] - (1.0 - 1e-4)).abs() < 1e-6);
    }

    #[test]
    fn schedule_factor_scales_all_groups() {
        let p = quad_param(1.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        opt.add_group(vec![p.clone()], None, None);
        p.accumulate_grad(&Tensor::ones(&[1]));
        opt.step(0.1);
        assert!((p.value().data()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let p = quad_param(5.0);
        let mut opt = Adam::new(AdamConfig {
            lr: 0.3,
            ..AdamConfig::default()
        });
        opt.add_group(vec![p.clone()], None);
        let x = run_opt(|_| opt.step(1.0), &p, 100);
        assert!(x.abs() < 0.1, "x = {x}");
    }

    #[test]
    fn clip_grad_norm_caps_large_gradients() {
        let p = Parameter::new(Tensor::zeros(&[4]));
        p.accumulate_grad(&Tensor::full(&[4], 10.0)); // norm 20
        let before = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((before - 20.0).abs() < 1e-4);
        let after = p.grad().frob_norm();
        assert!((after - 1.0).abs() < 1e-4);
    }

    /// One f(x) = x² gradient step for resume tests.
    fn quad_step(p: &Parameter) {
        p.zero_grad();
        let x = p.value().data()[0];
        p.accumulate_grad(&Tensor::from_vec(vec![2.0 * x], &[1]).unwrap());
    }

    #[test]
    fn sgd_state_roundtrip_resumes_bitwise() {
        let p = quad_param(5.0);
        let mut opt = Sgd::new(SgdConfig::default());
        opt.add_group(vec![p.clone()], None, None);
        for _ in 0..3 {
            quad_step(&p);
            opt.step(1.0);
        }
        let mut w = CheckpointWriter::new();
        w.add("param", p.value());
        opt.save_state(&mut w, "opt");
        let ckpt = Checkpoint::from_bytes(w.to_bytes().unwrap()).unwrap();

        let q = Parameter::new(ckpt.tensor("param").unwrap());
        let mut opt2 = Sgd::new(SgdConfig::default());
        opt2.add_group(vec![q.clone()], None, None);
        opt2.load_state(&ckpt, "opt").unwrap();

        for _ in 0..2 {
            quad_step(&p);
            opt.step(1.0);
            quad_step(&q);
            opt2.step(1.0);
        }
        assert!(p.value().bit_identical(&q.value()));
    }

    #[test]
    fn adam_state_roundtrip_resumes_bitwise() {
        let p = quad_param(5.0);
        let mut opt = Adam::new(AdamConfig::default());
        opt.add_group(vec![p.clone()], None);
        for _ in 0..3 {
            quad_step(&p);
            opt.step(1.0);
        }
        let mut w = CheckpointWriter::new();
        w.add("param", p.value());
        opt.save_state(&mut w, "opt");
        let steps = opt.steps();
        let ckpt = Checkpoint::from_bytes(w.to_bytes().unwrap()).unwrap();

        let q = Parameter::new(ckpt.tensor("param").unwrap());
        let mut opt2 = Adam::new(AdamConfig::default());
        opt2.add_group(vec![q.clone()], None);
        opt2.load_state(&ckpt, "opt").unwrap();
        opt2.set_steps(steps);

        for _ in 0..2 {
            quad_step(&p);
            opt.step(1.0);
            quad_step(&q);
            opt2.step(1.0);
        }
        assert!(p.value().bit_identical(&q.value()));
    }

    #[test]
    fn missing_optimizer_state_is_an_error() {
        let p = quad_param(1.0);
        let mut opt = Sgd::new(SgdConfig::default());
        opt.add_group(vec![p], None, None);
        let w = CheckpointWriter::new(); // no state saved
        let ckpt = Checkpoint::from_bytes(w.to_bytes().unwrap()).unwrap();
        assert!(matches!(
            opt.load_state(&ckpt, "opt"),
            Err(TensorError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let p = Parameter::new(Tensor::zeros(&[2]));
        p.accumulate_grad(&Tensor::full(&[2], 0.1));
        clip_grad_norm(std::slice::from_ref(&p), 5.0);
        assert!(p.grad().allclose(&Tensor::full(&[2], 0.1), 1e-6));
    }
}
