use qn_tensor::{Tensor, TensorError};
use std::fmt;
use std::sync::{Arc, RwLock};

/// A trainable tensor with persistent gradient storage.
///
/// `Parameter` is a shared handle (`Arc<RwLock<…>>`): cloning it aliases the
/// same storage, which is how modules hand their weights both to the graph
/// (via [`crate::Graph::param`]) and to an optimizer. The handle is
/// `Send + Sync`, so one model can serve concurrent shards on the
/// `qn-parallel` pool (sharded `predict_batch`); accesses are short
/// value/gradient copies, so the lock is uncontended in steady state.
///
/// # Example
///
/// ```
/// use qn_autograd::Parameter;
/// use qn_tensor::Tensor;
///
/// let p = Parameter::new(Tensor::zeros(&[2, 2]));
/// assert_eq!(p.numel(), 4);
/// p.update(|value, _grad| value.map_inplace(|v| v + 1.0));
/// assert_eq!(p.value().sum(), 4.0);
/// ```
#[derive(Clone)]
pub struct Parameter {
    inner: Arc<RwLock<Inner>>,
    name: Arc<str>,
}

struct Inner {
    value: Tensor,
    grad: Tensor,
    /// Bumped on every value mutation; lets snapshot caches (the eager
    /// execution arena) detect staleness without comparing tensors.
    version: u64,
}

impl fmt::Debug for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.read();
        write!(
            f,
            "Parameter(name={:?}, shape={}, |g|={:.3e})",
            self.name,
            inner.value.shape(),
            inner.grad.frob_norm()
        )
    }
}

impl Parameter {
    /// Wraps a tensor as a trainable parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Parameter {
            inner: Arc::new(RwLock::new(Inner {
                value,
                grad,
                version: 0,
            })),
            name: Arc::from(""),
        }
    }

    /// Like [`Parameter::new`] but tagged with a diagnostic name.
    pub fn named(name: &str, value: Tensor) -> Self {
        let mut p = Parameter::new(value);
        p.name = Arc::from(name);
        p
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("parameter lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("parameter lock poisoned")
    }

    /// The diagnostic name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot copy of the current value.
    pub fn value(&self) -> Tensor {
        self.read().value.clone()
    }

    /// A snapshot copy of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.read().grad.clone()
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.read().value.numel()
    }

    /// `true` if the current value borrows a mapped checkpoint window
    /// (zero-copy loaded). Cheap — reads the storage tag under the lock
    /// without snapshotting the data, so introspection walks (registry
    /// `SlotInfo`, `/metrics` scrapes) don't copy weights.
    pub fn is_mapped(&self) -> bool {
        self.read().value.is_mapped()
    }

    /// Overwrites the value (used by initializers and spectral re-projection).
    ///
    /// # Panics
    ///
    /// Panics if the new value has a different shape.
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.write();
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "set_value shape mismatch"
        );
        inner.value = value;
        inner.version += 1;
    }

    /// Fallible [`Parameter::set_value`]: rejects a wrong-shape tensor with
    /// an error instead of panicking — the entry point checkpoint loading
    /// uses, where the shape comes from an untrusted file.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the new value's shape
    /// differs from the parameter's.
    pub fn try_set_value(&self, value: Tensor) -> Result<(), TensorError> {
        let mut inner = self.write();
        if inner.value.shape() != value.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: inner.value.shape().dims().to_vec(),
                actual: value.shape().dims().to_vec(),
            });
        }
        inner.value = value;
        inner.version += 1;
        Ok(())
    }

    /// Monotonic counter bumped on every value mutation
    /// ([`Parameter::set_value`] / [`Parameter::update`]) — snapshot caches
    /// (the eager execution arena) pair it with
    /// [`Parameter::same_storage`] identity to detect stale copies.
    pub fn version(&self) -> u64 {
        self.read().version
    }

    /// Adds `g` into the gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&self, g: &Tensor) {
        self.write().grad.add_assign(g);
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&self) {
        let mut inner = self.write();
        inner.grad = Tensor::zeros(inner.value.shape().dims());
    }

    /// Applies an in-place update with access to value and gradient —
    /// the hook optimizers use.
    pub fn update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let inner = &mut *self.write();
        f(&mut inner.value, &inner.grad);
        inner.version += 1;
    }

    /// `true` if two handles alias the same storage.
    pub fn same_storage(&self, other: &Parameter) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_aliases_storage() {
        let p = Parameter::new(Tensor::zeros(&[2]));
        let q = p.clone();
        assert!(p.same_storage(&q));
        q.update(|v, _| v.map_inplace(|_| 9.0));
        assert_eq!(p.value().data(), &[9.0, 9.0]);
    }

    #[test]
    fn grad_accumulates_and_zeroes() {
        let p = Parameter::new(Tensor::zeros(&[2]));
        let g = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        p.accumulate_grad(&g);
        p.accumulate_grad(&g);
        assert_eq!(p.grad().data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn named_parameter_keeps_name() {
        let p = Parameter::named("conv1.weight", Tensor::zeros(&[1]));
        assert_eq!(p.name(), "conv1.weight");
        assert!(format!("{p:?}").contains("conv1.weight"));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_value_shape_mismatch_panics() {
        let p = Parameter::new(Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }
}
