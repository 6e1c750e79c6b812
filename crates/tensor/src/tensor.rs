use crate::mat::{gemm, MatMut, MatRef};
use crate::{elemwise, BufferPool, Rng, Shape, Storage, TensorError};
use std::fmt;

pub(crate) use qn_parallel::PAR_MIN_ELEMS;

/// A dense, contiguous, row-major `f32` array of arbitrary rank.
///
/// `Tensor` is the single numeric container used throughout `quadranet`.
/// Its buffer is a [`Storage`]: usually an owned `Vec`, sometimes a pooled
/// buffer, and — for checkpoint-loaded parameters — a **zero-copy window
/// into a memory mapping** (see [`Tensor::is_mapped`]; in-place writes
/// copy-on-write). It is contiguous and row-major: rank-changing views are
/// materialized by copying, which keeps the autodiff tape simple. The
/// exception is the 2-D
/// matrix-product path: [`Tensor::mat`] borrows a tensor as a zero-copy
/// stride-aware [`MatRef`](crate::MatRef) view, and the `matmul` family
/// below passes transposes into the shared [`gemm`](crate::gemm) core as
/// stride swaps instead of copies.
///
/// # Example
///
/// ```
/// use qn_tensor::Tensor;
///
/// # fn main() -> Result<(), qn_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Storage,
    shape: Shape,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={}, data[..{}]={:?}{})",
            self.shape,
            preview.len(),
            preview,
            if self.data.len() > 8 { ", …" } else { "" }
        )
    }
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()].into(),
            shape,
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()].into(),
            shape,
        }
    }

    /// Builds a tensor from an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            data: data.into(),
            shape,
        })
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data: Vec<f32> = (0..shape.numel()).map(&mut f).collect();
        Tensor {
            data: data.into(),
            shape,
        }
    }

    /// Assembles a tensor from pre-validated storage (the `checkpoint`
    /// module's constructor: the shape/length invariant is the caller's).
    pub(crate) fn from_storage(data: Storage, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.numel());
        Tensor { data, shape }
    }

    /// `true` if this tensor's storage is a zero-copy window into a
    /// memory-mapped checkpoint (see [`Storage::Mapped`]).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Standard-normal initialized tensor.
    pub fn randn(dims: &[usize], rng: &mut Rng) -> Self {
        Tensor::from_fn(dims, |_| rng.normal())
    }

    /// All-zeros tensor whose data **and** shape buffers are drawn from
    /// `pool` (see [`BufferPool`]); hand them back with
    /// [`Tensor::into_pool`] when done. With a warm pool the round trip
    /// performs no heap allocation — the basis of the zero-alloc serving
    /// path in `qn-models`.
    pub fn from_pooled(pool: &BufferPool, dims: &[usize]) -> Self {
        let mut dvec = pool.take_usize(dims.len());
        dvec.copy_from_slice(dims);
        let shape = Shape::from(dvec);
        let mut data = pool.take_f32(shape.numel());
        data.fill(0.0);
        Tensor {
            data: data.into(),
            shape,
        }
    }

    /// Like [`Tensor::from_pooled`] but with **unspecified contents** (the
    /// recycled buffer is not zeroed). Every element must be written before
    /// it is read; use this only when the tensor is fully overwritten.
    pub fn from_pooled_uninit(pool: &BufferPool, dims: &[usize]) -> Self {
        let mut dvec = pool.take_usize(dims.len());
        dvec.copy_from_slice(dims);
        let shape = Shape::from(dvec);
        let data = pool.take_f32(shape.numel());
        Tensor {
            data: data.into(),
            shape,
        }
    }

    /// Returns this tensor's data and shape buffers to `pool` for reuse by
    /// a later [`Tensor::from_pooled`] of the same shape. (Mapped storage
    /// has nothing to give back — the mapping is shared, not recyclable.)
    pub fn into_pool(self, pool: &BufferPool) {
        self.data.give_to(pool);
        pool.give_usize(self.shape.into_dims());
    }

    /// Reshapes this tensor **in place** to `dims`, recycling its own
    /// storage: the data buffer is resized (grown elements are zero, all
    /// others keep their previous values — i.e. contents are **unspecified**
    /// and must be fully overwritten), and the `Shape` is kept as-is when
    /// `dims` already matches. The workhorse of the `EagerExec`
    /// slot-recycling arena: refitting a slot to the same shape it held
    /// last pass touches the allocator not at all.
    pub fn refit(&mut self, dims: &[usize]) {
        if self.shape.dims() != dims {
            self.shape = Shape::new(dims);
        }
        let numel = self.shape.numel();
        if self.data.len() != numel {
            self.data.resize(numel, 0.0);
        }
    }

    /// Uniform `[lo, hi)` initialized tensor.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        Tensor::from_fn(dims, |_| rng.uniform(lo, hi))
    }

    // ----- accessors -----------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Immutable view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer (copied out of shared
    /// storage if the tensor was mapped).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    // ----- shape manipulation --------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape,
        })
    }

    /// Consuming reshape: reuses the data buffer outright — no copy, no
    /// allocation beyond the new `Shape`. Bit-identical to
    /// [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn into_reshaped(self, dims: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data,
            shape: new_shape,
        })
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.ndim(), 2, "transpose2 requires a 2-D tensor");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// General axis permutation, e.g. `permute(&[0, 2, 1, 3])`.
    ///
    /// Walks the output in order while **stepping** a source offset by the
    /// permuted strides (odometer-style carries), instead of re-deriving the
    /// full multi-index with divisions for every element; when the innermost
    /// output axis is contiguous in the source the row is a single
    /// `copy_from_slice`. Output is bit-identical to the naive gather.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation of `0..ndim`.
    pub fn permute(&self, axes: &[usize]) -> Self {
        if self.ndim() == 0 {
            assert!(axes.is_empty(), "permute needs 0 axes");
            // rank-0: the only permutation is the identity
            return self.clone();
        }
        let old_dims = self.shape.dims();
        let new_dims: Vec<usize> = axes.iter().map(|&a| old_dims[a]).collect();
        let mut out = vec![0.0f32; self.numel()];
        self.permute_into(axes, &mut out);
        Tensor {
            data: out.into(),
            shape: Shape::new(&new_dims),
        }
    }

    /// [`Tensor::permute`] into a caller-provided buffer of `numel`
    /// elements (fully overwritten; the caller owns the permuted shape).
    /// Bit-identical to the allocating version.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation of `0..ndim` or `dst` has the
    /// wrong length.
    pub fn permute_into(&self, axes: &[usize], dst: &mut [f32]) {
        let nd = self.ndim();
        assert_eq!(axes.len(), nd, "permute needs {nd} axes");
        assert_eq!(dst.len(), self.numel(), "permute_into length mismatch");
        let mut seen = [false; 16];
        assert!(nd <= seen.len(), "permute supports rank <= 16");
        for &a in axes {
            assert!(a < nd && !seen[a], "axes must be a permutation of 0..{nd}");
            seen[a] = true;
        }
        if nd == 0 {
            dst.copy_from_slice(&self.data);
            return;
        }
        let old_dims = self.shape.dims();
        // row-major strides, computed on the stack (no allocation)
        let mut old_strides = [0usize; 16];
        {
            let mut s = 1usize;
            for i in (0..nd).rev() {
                old_strides[i] = s;
                s *= old_dims[i];
            }
        }
        let mut new_dims = [0usize; 16];
        let mut new_strides_in_old = [0usize; 16];
        for (i, &a) in axes.iter().enumerate() {
            new_dims[i] = old_dims[a];
            new_strides_in_old[i] = old_strides[a];
        }
        let new_dims = &new_dims[..nd];
        let new_strides_in_old = &new_strides_in_old[..nd];
        if !dst.is_empty() {
            let inner_len = new_dims[nd - 1];
            let inner_stride = new_strides_in_old[nd - 1];
            let outer = nd - 1;
            let mut index = [0usize; 16];
            let mut base = 0usize;
            for chunk in dst.chunks_mut(inner_len) {
                if inner_stride == 1 {
                    chunk.copy_from_slice(&self.data[base..base + inner_len]);
                } else {
                    let mut src = base;
                    for v in chunk.iter_mut() {
                        *v = self.data[src];
                        src += inner_stride;
                    }
                }
                // odometer carry over the outer axes, stepping `base` by the
                // source stride of whichever axis advanced
                for axis in (0..outer).rev() {
                    index[axis] += 1;
                    base += new_strides_in_old[axis];
                    if index[axis] < new_dims[axis] {
                        break;
                    }
                    base -= new_strides_in_old[axis] * new_dims[axis];
                    index[axis] = 0;
                }
            }
        }
    }

    // ----- elementwise ----------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    ///
    /// Large tensors are processed in parallel bands on the `qn-parallel`
    /// pool (each element depends only on itself, so results are identical
    /// at any thread count); `f` therefore has to be `Sync`. Shares its
    /// banding with the whole elementwise family (see [`elemwise`]), so
    /// allocating, in-place and into-buffer variants are bit-identical.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut out = vec![0.0f32; self.numel()];
        elemwise::map_to(&mut out, &self.data, f);
        Tensor {
            data: out.into(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place — bit-identical to
    /// [`Tensor::map`] without the output allocation. Parallelized the same
    /// way, so `f` has to be `Sync`.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        elemwise::map_assign(&mut self.data, f);
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// Parallelized like [`Tensor::map`], so `f` has to be `Sync`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; self.numel()];
        elemwise::zip_to(&mut out, &self.data, &other.data, f);
        Tensor {
            data: out.into(),
            shape: self.shape.clone(),
        }
    }

    /// Combines with `other` elementwise **in place**:
    /// `self[i] = f(self[i], other[i])` — bit-identical to [`Tensor::zip`]
    /// without the output allocation. The backbone of the allocation-free
    /// activation derivatives in `qn-autograd`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(
            self.shape, other.shape,
            "zip_inplace shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        elemwise::zip_assign(&mut self.data, &other.data, f);
    }

    /// BLAS-style accumulate `self += alpha · x` in place (bit-identical to
    /// `self.add(&x.scale(alpha))` for the per-element expression
    /// `self + alpha * x`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, x: &Tensor) {
        assert_eq!(
            self.shape, x.shape,
            "axpy shape mismatch: {} vs {}",
            self.shape, x.shape
        );
        elemwise::zip_assign(&mut self.data, &x.data, move |d, s| d + alpha * s);
    }

    /// Elementwise sum. See [`Tensor::zip`] for panics.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference. See [`Tensor::zip`] for panics.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. See [`Tensor::zip`] for panics.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise quotient. See [`Tensor::zip`] for panics.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place (gradient accumulation) — the
    /// `alpha = 1` case of [`Tensor::axpy`], parallel-banded like the rest
    /// of the elementwise family (bit-identical to the sequential sweep).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        elemwise::zip_assign(&mut self.data, &other.data, |a, b| a + b);
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|v| -v)
    }

    // ----- broadcast helpers ----------------------------------------------

    /// Adds a length-`M` bias to each row of a `[B, M]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `bias` is not 1-D of matching width.
    pub fn add_row(&self, bias: &Tensor) -> Self {
        assert_eq!(self.ndim(), 2, "add_row requires a 2-D tensor");
        assert_eq!(bias.ndim(), 1, "bias must be 1-D");
        let (b, m) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(bias.numel(), m, "bias width {} != {}", bias.numel(), m);
        let mut out = self.clone();
        for i in 0..b {
            for j in 0..m {
                out.data[i * m + j] += bias.data[j];
            }
        }
        out
    }

    /// Adds a length-`C` bias to every spatial position of a `[B, C, H, W]`
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 4-D or `bias` is not 1-D of matching channels.
    pub fn add_channel(&self, bias: &Tensor) -> Self {
        assert_eq!(self.ndim(), 4, "add_channel requires a 4-D tensor");
        assert_eq!(bias.ndim(), 1, "bias must be 1-D");
        let (b, c, h, w) = self.dims4();
        assert_eq!(bias.numel(), c, "bias width {} != {}", bias.numel(), c);
        let mut out = self.clone();
        let hw = h * w;
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let add = bias.data[ci];
                for v in &mut out.data[base..base + hw] {
                    *v += add;
                }
            }
        }
        out
    }

    /// Multiplies each channel of a `[B, C, H, W]` tensor by a per-channel
    /// factor.
    ///
    /// # Panics
    ///
    /// Panics on rank/width mismatch (see [`Tensor::add_channel`]).
    pub fn mul_channel(&self, scale: &Tensor) -> Self {
        assert_eq!(self.ndim(), 4, "mul_channel requires a 4-D tensor");
        assert_eq!(scale.ndim(), 1, "scale must be 1-D");
        let (b, c, h, w) = self.dims4();
        assert_eq!(scale.numel(), c, "scale width {} != {}", scale.numel(), c);
        let mut out = self.clone();
        let hw = h * w;
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let s = scale.data[ci];
                for v in &mut out.data[base..base + hw] {
                    *v *= s;
                }
            }
        }
        out
    }

    /// Convenience destructuring of a 4-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.ndim(), 4, "dims4 requires a 4-D tensor");
        let d = self.shape.dims();
        (d[0], d[1], d[2], d[3])
    }

    /// Convenience destructuring of a 2-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(self.ndim(), 2, "dims2 requires a 2-D tensor");
        let d = self.shape.dims();
        (d[0], d[1])
    }

    // ----- linear algebra ---------------------------------------------------

    /// Matrix product `self @ other` of `[M, K] × [K, N]`.
    ///
    /// A thin wrapper over the shared [`gemm`](crate::gemm) core: results
    /// are bit-identical at any thread count, and `0 × NaN = NaN`
    /// propagates (see the [`mat`](crate::MatRef) module docs).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Self {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = self.dims2();
        let (k2, n) = other.dims2();
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm(MatMut::new(&mut out, m, n), self.mat(), other.mat());
        Tensor {
            data: out.into(),
            shape: Shape::new(&[m, n]),
        }
    }

    /// Matrix product `selfᵀ @ other` of `[K, M]ᵀ × [K, N]`: the transpose
    /// is a zero-copy stride swap into the shared [`gemm`](crate::gemm)
    /// core, never a materialized copy.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible leading dims.
    pub fn matmul_transa(&self, other: &Tensor) -> Self {
        assert_eq!(self.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transa rhs must be 2-D");
        let (k, m) = self.dims2();
        let (k2, n) = other.dims2();
        assert_eq!(k, k2, "matmul_transa leading dims differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm(
            MatMut::new(&mut out, m, n),
            self.mat().transpose(),
            other.mat(),
        );
        Tensor {
            data: out.into(),
            shape: Shape::new(&[m, n]),
        }
    }

    /// Matrix product `self @ otherᵀ` of `[M, K] × [N, K]ᵀ`: the transpose
    /// is a zero-copy stride swap into the shared [`gemm`](crate::gemm)
    /// core, never a materialized copy.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible trailing dims.
    pub fn matmul_transb(&self, other: &Tensor) -> Self {
        assert_eq!(self.ndim(), 2, "matmul_transb lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transb rhs must be 2-D");
        let (m, k) = self.dims2();
        let (n, k2) = other.dims2();
        assert_eq!(k, k2, "matmul_transb trailing dims differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm(
            MatMut::new(&mut out, m, n),
            self.mat(),
            other.mat().transpose(),
        );
        Tensor {
            data: out.into(),
            shape: Shape::new(&[m, n]),
        }
    }

    /// Inner product of two same-length tensors viewed as flat vectors —
    /// the `1 × K · K × 1` case of the shared [`gemm`](crate::gemm) core
    /// (identical accumulation order to a sequential fold).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            other.numel(),
            "dot length mismatch: {} vs {}",
            self.numel(),
            other.numel()
        );
        let k = self.numel();
        let mut out = [0.0f32];
        gemm(
            MatMut::new(&mut out, 1, 1),
            MatRef::new(&self.data, 1, k),
            MatRef::new(&other.data, k, 1),
        );
        out[0]
    }

    /// Frobenius norm (`sqrt` of the sum of squares).
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    // ----- reductions ---------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(self.numel() > 0, "mean of empty tensor");
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sums over one axis, removing it.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim`.
    pub fn sum_axis(&self, axis: usize) -> Self {
        let nd = self.ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        let dims = self.shape.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims: Vec<usize> = dims.to_vec();
        out_dims.remove(axis);
        if out_dims.is_empty() {
            out_dims.push(1);
        }
        let mut out = vec![0.0f32; outer * inner];
        self.sum_axis_into(axis, &mut out);
        Tensor {
            data: out.into(),
            shape: Shape::new(&out_dims),
        }
    }

    /// [`Tensor::sum_axis`] into a caller-provided buffer of
    /// `numel / dim(axis)` elements (fully overwritten; the caller owns the
    /// reduced shape). Bit-identical to the allocating version.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim` or `dst` has the wrong length.
    pub fn sum_axis_into(&self, axis: usize, dst: &mut [f32]) {
        let nd = self.ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        let dims = self.shape.dims();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let outer: usize = dims[..axis].iter().product();
        assert_eq!(dst.len(), outer * inner, "sum_axis_into length mismatch");
        dst.fill(0.0);
        if inner > 0 {
            // stride-stepping slice walk: the source cursor advances by
            // `inner` per mid-step, with no per-element index arithmetic;
            // accumulation order per output element (mid ascending) is
            // unchanged, so results are bit-identical to the naive loop
            for (o, orow) in dst.chunks_mut(inner).enumerate() {
                let mut src = o * mid * inner;
                for _ in 0..mid {
                    let row = &self.data[src..src + inner];
                    for (ov, &v) in orow.iter_mut().zip(row) {
                        *ov += v;
                    }
                    src += inner;
                }
            }
        }
    }

    /// Mean over one axis, removing it. See [`Tensor::sum_axis`] for panics.
    pub fn mean_axis(&self, axis: usize) -> Self {
        let n = self.shape.dim(axis) as f32;
        self.sum_axis(axis).scale(1.0 / n)
    }

    /// Row-wise argmax of a `[B, C]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (b, c) = self.dims2();
        (0..b)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    // ----- slicing / joining -----------------------------------------------------

    /// Concatenates tensors along `axis`. All other dims must match.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, ranks differ, or non-`axis` dims differ.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Self {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let nd = parts[0].ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        for p in parts {
            assert_eq!(p.ndim(), nd, "concat rank mismatch");
            for a in 0..nd {
                if a != axis {
                    assert_eq!(
                        p.shape.dim(a),
                        parts[0].shape.dim(a),
                        "concat dim {a} mismatch"
                    );
                }
            }
        }
        let dims = parts[0].shape.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let total_mid: usize = parts.iter().map(|p| p.shape.dim(axis)).sum();
        let mut out_dims = dims.to_vec();
        out_dims[axis] = total_mid;
        let mut out = vec![0.0f32; outer * total_mid * inner];
        for o in 0..outer {
            let mut mid_off = 0usize;
            for p in parts {
                let mid = p.shape.dim(axis);
                let src = &p.data[o * mid * inner..(o + 1) * mid * inner];
                let dst_base = (o * total_mid + mid_off) * inner;
                out[dst_base..dst_base + mid * inner].copy_from_slice(src);
                mid_off += mid;
            }
        }
        Tensor {
            data: out.into(),
            shape: Shape::new(&out_dims),
        }
    }

    /// Copies the half-open range `[start, end)` of `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Self {
        let nd = self.ndim();
        assert!(axis < nd, "axis {axis} out of range for rank {nd}");
        let dims = self.shape.dims();
        assert!(
            start <= end && end <= dims[axis],
            "slice [{start}, {end}) out of bounds for axis of size {}",
            dims[axis]
        );
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mid = dims[axis];
        let new_mid = end - start;
        let mut out_dims = dims.to_vec();
        out_dims[axis] = new_mid;
        let mut out = vec![0.0f32; outer * new_mid * inner];
        for o in 0..outer {
            let src_base = (o * mid + start) * inner;
            let dst_base = o * new_mid * inner;
            out[dst_base..dst_base + new_mid * inner]
                .copy_from_slice(&self.data[src_base..src_base + new_mid * inner]);
        }
        Tensor {
            data: out.into(),
            shape: Shape::new(&out_dims),
        }
    }

    /// Gathers rows (axis 0) by index, with repetition allowed.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let dims = self.shape.dims();
        let rows = dims[0];
        let inner: usize = dims[1..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims[0] = indices.len();
        let mut out = vec![0.0f32; indices.len() * inner];
        for (d, &i) in indices.iter().enumerate() {
            assert!(i < rows, "row index {i} out of bounds ({rows} rows)");
            out[d * inner..(d + 1) * inner].copy_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        Tensor {
            data: out.into(),
            shape: Shape::new(&out_dims),
        }
    }

    /// Zero-pads the two trailing spatial dims of a `[B, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn pad_spatial(&self, pad: usize) -> Self {
        let (b, c, h, w) = self.dims4();
        let (nh, nw) = (h + 2 * pad, w + 2 * pad);
        let mut out = Tensor::zeros(&[b, c, nh, nw]);
        for bi in 0..b {
            for ci in 0..c {
                for y in 0..h {
                    let src = ((bi * c + ci) * h + y) * w;
                    let dst = ((bi * c + ci) * nh + y + pad) * nw + pad;
                    out.data[dst..dst + w].copy_from_slice(&self.data[src..src + w]);
                }
            }
        }
        out
    }

    /// Crops a `[B, C, H, W]` tensor to `[B, C, ch, cw]` starting at
    /// `(top, left)`.
    ///
    /// # Panics
    ///
    /// Panics if the crop window exceeds the spatial extent.
    pub fn crop_spatial(&self, top: usize, left: usize, ch: usize, cw: usize) -> Self {
        let (b, c, h, w) = self.dims4();
        assert!(
            top + ch <= h && left + cw <= w,
            "crop ({top}+{ch}, {left}+{cw}) exceeds ({h}, {w})"
        );
        let mut out = Tensor::zeros(&[b, c, ch, cw]);
        for bi in 0..b {
            for ci in 0..c {
                for y in 0..ch {
                    let src = ((bi * c + ci) * h + top + y) * w + left;
                    let dst = ((bi * c + ci) * ch + y) * cw;
                    out.data[dst..dst + cw].copy_from_slice(&self.data[src..src + cw]);
                }
            }
        }
        out
    }

    /// Flips a `[B, C, H, W]` tensor horizontally (mirror along width).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn flip_horizontal(&self) -> Self {
        let (b, c, h, w) = self.dims4();
        let mut out = self.clone();
        for bi in 0..b {
            for ci in 0..c {
                for y in 0..h {
                    let base = ((bi * c + ci) * h + y) * w;
                    for x in 0..w {
                        out.data[base + x] = self.data[base + w - 1 - x];
                    }
                }
            }
        }
        out
    }

    // ----- comparison helpers ----------------------------------------------------

    /// `true` if every element differs by at most `tol` in absolute value.
    ///
    /// Shapes must match for the comparison to succeed.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` if shapes match and every element is **bit-identical**
    /// (`f32::to_bits` equality, so `-0.0 != 0.0` and NaN payloads are
    /// compared exactly) — the comparator behind the workspace's
    /// determinism contract that parallel kernels reproduce sequential
    /// results bit-for-bit.
    pub fn bit_identical(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).expect("test tensor")
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn constructors_fill() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
        let e = Tensor::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.get(&[1, 1]), 1.0);
        assert_eq!(e.get(&[0, 1]), 0.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.set(&[1, 2], 7.0);
        assert_eq!(a.get(&[1, 2]), 7.0);
        assert_eq!(a.data()[5], 7.0);
    }

    #[test]
    fn reshape_checks_numel() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert!(a.reshape(&[4]).is_ok());
        assert!(a.reshape(&[5]).is_err());
        assert_eq!(a.reshape(&[1, 4]).unwrap().shape().dims(), &[1, 4]);
    }

    #[test]
    fn transpose2_swaps() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = a.transpose2();
        assert_eq!(b.shape().dims(), &[3, 2]);
        assert_eq!(b.get(&[2, 0]), 3.0);
        assert_eq!(b.get(&[0, 1]), 4.0);
        assert!(b.transpose2().allclose(&a, 0.0));
    }

    #[test]
    fn permute_matches_transpose_on_2d() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert!(a.permute(&[1, 0]).allclose(&a.transpose2(), 0.0));
    }

    #[test]
    fn permute_rank0_is_identity() {
        let s = Tensor::from_vec(vec![2.5], &[]).expect("rank-0 tensor");
        let p = s.permute(&[]);
        assert_eq!(p.data(), &[2.5]);
        assert_eq!(p.ndim(), 0);
    }

    #[test]
    fn bit_identical_distinguishes_zero_signs_and_shapes() {
        let a = t(&[0.0, 1.0], &[2]);
        assert!(a.bit_identical(&a.clone()));
        assert!(!a.bit_identical(&t(&[-0.0, 1.0], &[2])));
        assert!(!a.bit_identical(&t(&[0.0, 1.0], &[2, 1])));
    }

    #[test]
    fn permute_4d_roundtrip() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[2, 3, 4, 5], &mut rng);
        let p = a.permute(&[0, 2, 3, 1]);
        assert_eq!(p.shape().dims(), &[2, 4, 5, 3]);
        let back = p.permute(&[0, 3, 1, 2]);
        assert!(back.allclose(&a, 0.0));
        assert_eq!(p.get(&[1, 2, 3, 1]), a.get(&[1, 1, 2, 3]));
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 5.0], &[2]);
        assert!(a.add(&b).allclose(&t(&[4.0, 7.0], &[2]), 0.0));
        assert!(a.sub(&b).allclose(&t(&[-2.0, -3.0], &[2]), 0.0));
        assert!(a.mul(&b).allclose(&t(&[3.0, 10.0], &[2]), 0.0));
        assert!(b.div(&a).allclose(&t(&[3.0, 2.5], &[2]), 0.0));
        assert!(a.neg().allclose(&t(&[-1.0, -2.0], &[2]), 0.0));
        assert!(a.scale(2.0).allclose(&t(&[2.0, 4.0], &[2]), 0.0));
        assert!(a.add_scalar(1.0).allclose(&t(&[2.0, 3.0], &[2]), 0.0));
    }

    #[test]
    #[should_panic(expected = "zip shape mismatch")]
    fn elementwise_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = t(&[1.0, 2.0], &[2]);
        a.add_assign(&t(&[0.5, 0.5], &[2]));
        a.add_assign(&t(&[0.5, 0.5], &[2]));
        assert!(a.allclose(&t(&[2.0, 3.0], &[2]), 0.0));
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert!(c.allclose(&t(&[58.0, 64.0, 139.0, 154.0], &[2, 2]), 1e-5));
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn(&[4, 4], &mut rng);
        assert!(a.matmul(&Tensor::eye(4)).allclose(&a, 1e-6));
        assert!(Tensor::eye(4).matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_trans_variants_agree() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(&[3, 5], &mut rng);
        let b = Tensor::randn(&[5, 4], &mut rng);
        let c = a.matmul(&b);
        // selfᵀ @ other with self = aᵀ
        let at = a.transpose2();
        assert!(at.matmul_transa(&b).allclose(&c, 1e-5));
        // self @ otherᵀ with other = bᵀ
        let bt = b.transpose2();
        assert!(a.matmul_transb(&bt).allclose(&c, 1e-5));
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_and_norm() {
        let a = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.frob_norm(), 5.0);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(a.max(), 6.0);
        assert_eq!(a.min(), 1.0);
        let s0 = a.sum_axis(0);
        assert!(s0.allclose(&t(&[5.0, 7.0, 9.0], &[3]), 1e-6));
        let s1 = a.sum_axis(1);
        assert!(s1.allclose(&t(&[6.0, 15.0], &[2]), 1e-6));
        let m1 = a.mean_axis(1);
        assert!(m1.allclose(&t(&[2.0, 5.0], &[2]), 1e-6));
    }

    #[test]
    fn sum_axis_middle() {
        let a = Tensor::from_fn(&[2, 3, 2], |i| i as f32);
        let s = a.sum_axis(1);
        assert_eq!(s.shape().dims(), &[2, 2]);
        // slice [0,:,0] = 0,2,4 -> 6 ; [0,:,1] = 1,3,5 -> 9
        assert!(s.allclose(&t(&[6.0, 9.0, 24.0, 27.0], &[2, 2]), 1e-6));
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = t(&[0.1, 0.9, 0.0, 0.6, 0.2, 0.2], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(&[2]);
        assert!(!a.has_non_finite());
        a.set(&[1], f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0], &[1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert!(c0.allclose(&t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]), 0.0));
        let d = t(&[7.0, 8.0], &[2, 1]);
        let c1 = Tensor::concat(&[&a, &d], 1);
        assert!(c1.allclose(&t(&[1.0, 2.0, 7.0, 3.0, 4.0, 8.0], &[2, 3]), 0.0));
    }

    #[test]
    fn slice_axis_inverse_of_concat() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert!(c.slice_axis(1, 0, 2).allclose(&a, 0.0));
        assert!(c.slice_axis(1, 2, 4).allclose(&b, 0.0));
    }

    #[test]
    fn select_rows_gathers() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = a.select_rows(&[2, 0, 2]);
        assert!(g.allclose(&t(&[5.0, 6.0, 1.0, 2.0, 5.0, 6.0], &[3, 2]), 0.0));
    }

    #[test]
    fn pad_and_crop_roundtrip() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let p = a.pad_spatial(2);
        assert_eq!(p.shape().dims(), &[1, 2, 7, 7]);
        assert_eq!(p.get(&[0, 0, 0, 0]), 0.0);
        let c = p.crop_spatial(2, 2, 3, 3);
        assert!(c.allclose(&a, 0.0));
    }

    #[test]
    fn flip_horizontal_is_involution() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[2, 3, 4, 5], &mut rng);
        let f = a.flip_horizontal();
        assert_eq!(f.get(&[0, 0, 0, 0]), a.get(&[0, 0, 0, 4]));
        assert!(f.flip_horizontal().allclose(&a, 0.0));
    }

    #[test]
    fn channel_broadcasts() {
        let a = Tensor::ones(&[1, 2, 2, 2]);
        let bias = t(&[1.0, -1.0], &[2]);
        let ab = a.add_channel(&bias);
        assert_eq!(ab.get(&[0, 0, 1, 1]), 2.0);
        assert_eq!(ab.get(&[0, 1, 0, 0]), 0.0);
        let ms = a.mul_channel(&t(&[2.0, 3.0], &[2]));
        assert_eq!(ms.get(&[0, 0, 0, 0]), 2.0);
        assert_eq!(ms.get(&[0, 1, 1, 0]), 3.0);
    }

    #[test]
    fn add_row_broadcasts() {
        let a = Tensor::zeros(&[2, 3]);
        let b = a.add_row(&t(&[1.0, 2.0, 3.0], &[3]));
        assert!(b.allclose(&t(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], &[2, 3]), 0.0));
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Tensor::zeros(&[2, 2]);
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn pooled_roundtrip_recycles_and_zeroes() {
        let pool = BufferPool::new();
        let mut a = Tensor::from_pooled(&pool, &[2, 3]);
        assert!(a.allclose(&Tensor::zeros(&[2, 3]), 0.0));
        a.data_mut().fill(9.0);
        a.into_pool(&pool);
        // warm: same storage comes back, zeroed again by from_pooled
        let b = Tensor::from_pooled(&pool, &[2, 3]);
        assert!(b.allclose(&Tensor::zeros(&[2, 3]), 0.0));
        assert_eq!(pool.stats().hits, 2, "data + dims buffers both recycled");
        // uninit variant exposes the stale contents
        b.into_pool(&pool);
        pool.clear();
        pool.give_f32(vec![5.0; 6]);
        let c = Tensor::from_pooled_uninit(&pool, &[6]);
        assert_eq!(c.data(), &[5.0; 6]);
    }

    #[test]
    fn refit_reuses_storage_and_changes_shape() {
        let mut a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        a.refit(&[2, 2]); // same shape: nothing changes
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0]);
        a.refit(&[3]); // shrink: contents unspecified, length right
        assert_eq!(a.shape().dims(), &[3]);
        assert_eq!(a.numel(), 3);
        a.refit(&[2, 3]); // grow
        assert_eq!(a.numel(), 6);
    }

    #[test]
    fn zip_inplace_matches_zip() {
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(&[5, 7], &mut rng);
        let b = Tensor::randn(&[5, 7], &mut rng);
        let expect = a.zip(&b, |x, y| x * y + 1.0);
        let mut got = a.clone();
        got.zip_inplace(&b, |x, y| x * y + 1.0);
        assert!(got.bit_identical(&expect));
    }

    #[test]
    fn axpy_matches_scale_add() {
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let x = Tensor::randn(&[4, 4], &mut rng);
        let expect = a.zip(&x, |av, xv| av + 2.5 * xv);
        let mut got = a.clone();
        got.axpy(2.5, &x);
        assert!(got.bit_identical(&expect));
    }

    #[test]
    fn permute_into_matches_permute() {
        let mut rng = Rng::seed_from(9);
        let a = Tensor::randn(&[2, 3, 4, 5], &mut rng);
        let expect = a.permute(&[0, 3, 1, 2]);
        let mut dst = vec![f32::NAN; a.numel()];
        a.permute_into(&[0, 3, 1, 2], &mut dst);
        assert_eq!(dst, expect.data());
    }

    #[test]
    fn sum_axis_into_matches_sum_axis() {
        let a = Tensor::from_fn(&[3, 4, 2], |i| i as f32);
        for axis in 0..3 {
            let expect = a.sum_axis(axis);
            let mut dst = vec![f32::NAN; expect.numel()];
            a.sum_axis_into(axis, &mut dst);
            assert_eq!(dst, expect.data(), "axis {axis}");
        }
    }
}
