//! Stride-aware matrix views and the packed GEMM core.
//!
//! Every matrix product in the workspace — `Tensor::{matmul, matmul_transa,
//! matmul_transb}`, the batched products behind attention, the
//! convolutions, and the `qn-linalg` reconstructions — bottoms out in the
//! single packed band loop defined here, following the classic layered
//! BLAS design (Goto & van de Geijn, "Anatomy of High-Performance Matrix
//! Multiplication"):
//!
//! - [`MatRef`]/[`MatMut`] describe a matrix as `(data, rows, cols,
//!   strides)` over a borrowed `f32` slice, so **transposition is a stride
//!   swap** ([`MatRef::transpose`]) and slicing a batch element out of a
//!   contiguous `[N, M, K]` buffer is a subslice — no copies anywhere on the
//!   way into the kernel.
//! - [`gemm`] packs the right-hand side into contiguous column panels,
//!   packs the left-hand side into register-block tiles, and drives an
//!   `MR × NR` register-tiled micro-kernel with an `NR`-unrolled inner
//!   loop. Large products are parallelized over disjoint output-row bands
//!   on the `qn-parallel` pool.
//! - The band loop is generic over its left operand and destination:
//!   [`gemm_patches`] copies each NCHW image once into zero-padded planes,
//!   packs a conv's tiles from them and stores the blocks transposed into
//!   its output planes (the implicit GEMM of cuDNN, Chetlur et al.,
//!   arXiv:1410.0759), with no im2col matrix. Every receptive field lies
//!   inside the padded planes, so a tile packs without a bounds test: a
//!   full tile within one output row copies `MR`-float windows, and any
//!   other tile gathers row by row.
//! - It also serves the int8 tier: [`gemm_i8`](crate::gemm_i8) packs its
//!   int8 operands widened to `f32` and runs the same loop, whose `f32`
//!   sums of int8 products are exact up to
//!   [`GEMM_I8_MAX_K`](crate::GEMM_I8_MAX_K) (see [`crate::quant`]), then
//!   scales the integer sums in one pass.
//!   [`gemm_i8_patches`](crate::gemm_i8_patches) runs the patch product
//!   on int8 codes: under a frozen scale the planes hold each pixel's code,
//!   while dynamic each tile row is quantized by its own scale as it packs,
//!   and the transposed store scales the sums.
//!
//! # Determinism
//!
//! The `k`-accumulation for every output element is **strictly sequential**
//! (`p = 0, 1, …, k-1`), in the packed path, the small fallback path, and at
//! any thread count. The packed path runs one micro-kernel
//! ([`run_band_g`]), generic over `qn_simd::arch::SimdF32` at the active
//! `QN_SIMD` level, in which every lane computes one output element's
//! sequential chain — there is **no reassociation** — and each step rounds
//! the product and then the sum, the seed's `*o += a * b`. So every product
//! is **bit-identical** to the seed triple-loop kernels (retained in
//! [`reference`](mod@reference)) at every SIMD level, and a patch product
//! to `gemm` over the im2col matrix — the property suites in
//! `crates/tensor/tests/` enforce the equality across shapes, transpose
//! flags, conv geometries, thread counts and levels.
//!
//! No path skips zero coefficients of `A`, and none needs to:
//! every accumulator starts at `+0.0` and round-to-nearest never turns
//! `+0.0` into `-0.0`, so adding a `±0.0` product never changes a bit,
//! while `0 × NaN` and `0 × ∞` propagate NaN as IEEE-754 requires.

use crate::{ActScale, Conv2dSpec, Tensor};
#[cfg(target_arch = "x86_64")]
use qn_simd::arch::{Avx2F32, Sse2F32};
use qn_simd::arch::{ScalarF32, SimdF32};
use qn_simd::SimdLevel;

/// Rows per register block of the micro-kernel.
const MR: usize = 4;
/// Columns per packed panel / register block; the inner loop is unrolled
/// over `NR` so the compiler can keep the whole `MR × NR` accumulator block
/// in vector registers.
const NR: usize = 8;

/// Minimum multiply–accumulate count before [`gemm`] packs; below this the
/// packing traffic costs more than it saves and the strided fallback runs.
const PACK_MIN_MACS: usize = 2048;

/// Minimum multiply–accumulate count before a product fans out to the
/// `qn-parallel` pool (the seed kernels' threshold, unchanged; int8
/// products reach the pool through the same band split).
const PAR_MIN_MACS: usize = 32 * 1024;

/// An immutable stride-aware matrix view over a borrowed slice of `f32`
/// values or, as [`MatRefI8`](crate::MatRefI8), of int8 codes.
///
/// `at(i, j)` reads `data[i * row_stride + j * col_stride]`; a row-major
/// matrix has `row_stride = cols, col_stride = 1`. Because the layout is
/// explicit, [`transpose`](MatRef::transpose) is a stride swap — **no
/// copy** — and a batch element of a contiguous 3-D tensor is a plain
/// subslice.
///
/// # Example
///
/// ```
/// use qn_tensor::{MatRef, MatMut, gemm, Tensor};
///
/// # fn main() -> Result<(), qn_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let at = a.mat().transpose(); // zero-copy 3×2 view
/// assert_eq!(at.at(2, 1), 6.0);
/// let mut out = vec![0.0; 9];
/// gemm(MatMut::new(&mut out, 3, 3), at, a.mat()); // aᵀ @ a
/// assert_eq!(out[0], 1.0 * 1.0 + 4.0 * 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a, T = f32> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a, T: Copy> MatRef<'a, T> {
    /// Row-major contiguous view of `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than `rows * cols`.
    pub fn new(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert!(
            data.len() >= rows * cols,
            "MatRef: slice of {} elements cannot hold {rows}x{cols}",
            data.len()
        );
        MatRef {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// General strided view.
    ///
    /// # Panics
    ///
    /// Panics if the last addressable element
    /// (`(rows-1)·row_stride + (cols-1)·col_stride`) falls outside `data`.
    pub fn with_strides(
        data: &'a [T],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        if rows > 0 && cols > 0 {
            let last = (rows - 1) * row_stride + (cols - 1) * col_stride;
            assert!(
                last < data.len(),
                "MatRef: {rows}x{cols} view with strides ({row_stride}, {col_stride}) \
                 exceeds slice of {} elements",
                data.len()
            );
        }
        MatRef {
            data,
            rows,
            cols,
            row_stride,
            col_stride,
        }
    }

    /// The transposed view: swaps dims and strides. Zero-copy.
    pub fn transpose(self) -> Self {
        MatRef {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the computed flat offset is out of bounds (debug builds
    /// additionally assert `i < rows && j < cols`).
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// `true` when the view is dense row-major (`row_stride == cols`,
    /// `col_stride == 1`).
    pub fn is_contiguous(&self) -> bool {
        self.col_stride == 1 && self.row_stride == self.cols
    }
}

/// A mutable output-matrix view: `rows × cols` written row-major with an
/// optional `row_stride >= cols` (so a sub-block of a wider buffer can be
/// the destination). The data between `cols` and `row_stride` is never
/// touched.
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

impl<'a> MatMut<'a> {
    /// Dense row-major destination of `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than `rows * cols`.
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        MatMut::with_row_stride(data, rows, cols, cols)
    }

    /// Destination whose consecutive rows are `row_stride` elements apart.
    ///
    /// # Panics
    ///
    /// Panics if `row_stride < cols` or `data` cannot hold the last row.
    pub fn with_row_stride(
        data: &'a mut [f32],
        rows: usize,
        cols: usize,
        row_stride: usize,
    ) -> Self {
        assert!(
            row_stride >= cols,
            "MatMut: row_stride {row_stride} < cols {cols}"
        );
        if rows > 0 && cols > 0 {
            let need = (rows - 1) * row_stride + cols;
            assert!(
                data.len() >= need,
                "MatMut: slice of {} elements cannot hold {rows}x{cols} \
                 with row stride {row_stride}",
                data.len()
            );
        }
        MatMut {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Decomposes the view into `(data, rows, cols, row_stride)` for
    /// sibling kernels in this crate (the int8 GEMM epilogue writes
    /// through the raw slice).
    pub(crate) fn into_raw(self) -> (&'a mut [f32], usize, usize, usize) {
        (self.data, self.rows, self.cols, self.row_stride)
    }
}

/// Thread-local scratch cache for the packing buffers.
///
/// Each thread reuses its own small stack of buffers — the calling thread
/// holds the packed-B panel, and every pool worker
/// takes its A-tile from its **own** cache inside the band task — so
/// parallel products never contend on a lock, and a steady-state loop of
/// same-shape products allocates nothing. A take reuses the smallest
/// buffer that fits, and a full cache keeps the largest buffers, so
/// buffers left by earlier, smaller products cannot crowd out the ones a
/// later loop needs. Recycled buffers have unspecified contents; the
/// packing routines write every element, padding included.
mod scratch {
    use std::cell::RefCell;

    /// Buffers retained per thread.
    const MAX_HELD: usize = 8;

    thread_local! {
        static F32S: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    }

    /// A `len`-element buffer with unspecified contents: the smallest
    /// cached buffer whose capacity suffices, else a new one.
    pub fn take_f32(len: usize) -> Vec<f32> {
        F32S.with(|cache| {
            let cache = &mut *cache.borrow_mut();
            let fit = (0..cache.len())
                .filter(|&i| cache[i].capacity() >= len)
                .min_by_key(|&i| cache[i].capacity());
            match fit {
                Some(i) => {
                    let mut buf = cache.swap_remove(i);
                    buf.resize(len, 0.0);
                    buf
                }
                None => vec![0.0; len],
            }
        })
    }

    /// Caches `buf`; a full cache swaps out its smallest buffer if `buf`
    /// is larger, and drops `buf` otherwise.
    pub fn give_f32(buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        F32S.with(|cache| {
            let cache = &mut *cache.borrow_mut();
            if cache.len() < MAX_HELD {
                cache.push(buf);
            } else if let Some(smallest) = cache.iter_mut().min_by_key(|b| b.capacity()) {
                if smallest.capacity() < buf.capacity() {
                    *smallest = buf;
                }
            }
        });
    }
}

/// Right-hand side packed into `⌈n/NR⌉` column panels, each `k × NR`
/// row-major (`data[panel · k·NR + p · NR + j]`), zero-padded past `n`.
///
/// The buffer is drawn from — and returned to — the calling thread's
/// [`scratch`] cache, so a steady-state loop of same-shape products packs
/// without touching the allocator and parallel workers never contend on a
/// lock. Every element (padding included) is written explicitly, so
/// recycled contents never leak.
struct PackedB {
    data: Vec<f32>,
    n: usize,
    panels: usize,
}

/// Packs `b` through its element accessor, widening int8 codes to `f32`
/// (exactly) on the way.
fn pack_b<T: Copy + Into<f32>>(b: MatRef<'_, T>) -> PackedB {
    let (k, n) = (b.rows, b.cols);
    let panels = n.div_ceil(NR);
    let mut data = scratch::take_f32(panels * k * NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        let pbase = jp * k * NR;
        for p in 0..k {
            let dst = &mut data[pbase + p * NR..pbase + (p + 1) * NR];
            for (jj, d) in dst.iter_mut().take(nr).enumerate() {
                *d = b.at(p, j0 + jj).into();
            }
            // explicit zero padding past n: the buffer may be recycled
            dst[nr..].fill(0.0);
        }
    }
    PackedB { data, n, panels }
}

/// Processes `band_rows` consecutive output rows starting at global row
/// `first_row` of `a` (`k` columns), writing them through `c`, with the
/// micro-kernel instantiated for `level`.
fn run_band<A: PackA, C: StoreC>(
    c: &mut C,
    band_rows: usize,
    first_row: usize,
    a: A,
    k: usize,
    packed: &PackedB,
    level: SimdLevel,
) {
    // A-tile scratch from this worker thread's cache; every element is
    // overwritten per block (incl. zero padding), so recycled contents
    // never leak.
    let mut atile = scratch::take_f32(k * MR);
    match level {
        // SAFETY (both vector arms): `gemm` passes `SimdLevel::active()`,
        // which never exceeds the detected CPU features, so the
        // `#[target_feature]` wrapper only runs on hardware that has its
        // ISA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            run_band_avx2(c, band_rows, first_row, a, k, packed, &mut atile)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            run_band_sse2(c, band_rows, first_row, a, k, packed, &mut atile)
        },
        // SAFETY: scalar lanes are plain f32 arithmetic — sound everywhere.
        _ => unsafe {
            run_band_g::<ScalarF32, A, C>(c, band_rows, first_row, a, k, packed, &mut atile)
        },
    }
    scratch::give_f32(atile);
}

/// The left operand of the band loop, a source of `MR`-row tiles: a
/// [`MatRef`] for [`gemm`] and [`gemm_i8`](crate::gemm_i8), a conv's
/// [`Patches`] for [`gemm_patches`].
pub(crate) trait PackA: Copy + Sync {
    /// Fills `atile[p·MR + ii]` with element `(first + ii, p)`, `p < k`,
    /// and with `+0.0` for `ii >= mr`.
    fn pack(&self, atile: &mut [f32], first: usize, mr: usize, k: usize);
}

/// Packs one A block, widening int8 codes to `f32` (exactly):
/// `atile[p·MR + ii] = A[first + ii, p]`, zero-padded past `mr` so the
/// micro-kernels always see a full `MR`-row block.
///
/// The full-block row-contiguous case (every block but the last when `A`
/// is untransposed — the overwhelming majority) interleaves four
/// pre-sliced rows instead of going through the bounds-checked strided
/// `at()`, which matters: for skinny products (`n ≪ m`) the pack is a
/// constant fraction of total work. Element values are identical either
/// way, so the specialization is bit-neutral.
impl<T: Copy + Into<f32> + Sync> PackA for MatRef<'_, T> {
    #[inline(always)]
    fn pack(&self, atile: &mut [f32], first: usize, mr: usize, k: usize) {
        if mr == MR && self.col_stride == 1 && k > 0 {
            let mut rows: [&[T]; MR] = [&[]; MR];
            for (ii, r) in rows.iter_mut().enumerate() {
                let s = (first + ii) * self.row_stride;
                *r = &self.data[s..s + k];
            }
            for (p, dst) in atile[..k * MR].chunks_exact_mut(MR).enumerate() {
                for (ii, d) in dst.iter_mut().enumerate() {
                    *d = rows[ii][p].into();
                }
            }
            return;
        }
        for (p, dst) in atile[..k * MR].chunks_exact_mut(MR).enumerate() {
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = if ii < mr {
                    self.at(first + ii, p).into()
                } else {
                    0.0
                };
            }
        }
    }
}

/// The packed band loop, generic over the SIMD lane type, operand and output.
///
/// Panels are consumed **in pairs** where possible: with `MR = 4` rows ×
/// 2 panels the kernel keeps `8·(NR/LANES)` independent accumulator
/// chains live, enough instruction-level parallelism to keep both vector
/// ports busy (a single `MR × NR` block has only 4 chains at AVX2 width —
/// latency then caps throughput at half peak). Each lane's
/// `k`-accumulation is strictly sequential, and each step rounds the
/// product and then the sum, like the seed's `*o += a * b`.
///
/// # Safety
///
/// `S`'s instruction set must be available; callers go through the
/// `#[target_feature]` wrappers selected by [`run_band`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn run_band_g<S: SimdF32, A: PackA, C: StoreC>(
    c: &mut C,
    band_rows: usize,
    first_row: usize,
    a: A,
    k: usize,
    packed: &PackedB,
    atile: &mut [f32],
) {
    let nv = NR / S::LANES;
    for ib in (0..band_rows).step_by(MR) {
        let mr = MR.min(band_rows - ib);
        a.pack(atile, first_row + ib, mr, k);
        let atile = &atile[..k * MR];
        let mut jp = 0;
        // Two panels at a time: 2·MR·nv accumulator chains.
        while jp + 2 <= packed.panels {
            let bp0 = &packed.data[jp * k * NR..(jp + 1) * k * NR];
            let bp1 = &packed.data[(jp + 1) * k * NR..(jp + 2) * k * NR];
            let mut acc0 = [[S::zero(); NR]; MR];
            let mut acc1 = [[S::zero(); NR]; MR];
            for (p, ac) in atile.chunks_exact(MR).enumerate() {
                let br0 = &bp0[p * NR..p * NR + NR];
                let br1 = &bp1[p * NR..p * NR + NR];
                let mut bv0 = [S::zero(); NR];
                let mut bv1 = [S::zero(); NR];
                for v in 0..nv {
                    bv0[v] = S::load(&br0[v * S::LANES..]);
                    bv1[v] = S::load(&br1[v * S::LANES..]);
                }
                for i in 0..MR {
                    let av = S::splat(ac[i]);
                    for v in 0..nv {
                        acc0[i][v] = acc0[i][v].add(av.mul(bv0[v]));
                        acc1[i][v] = acc1[i][v].add(av.mul(bv1[v]));
                    }
                }
            }
            let j0 = jp * NR;
            c.store(&acc0, ib, mr, j0, NR);
            let nr1 = NR.min(packed.n - (j0 + NR));
            c.store(&acc1, ib, mr, j0 + NR, nr1);
            jp += 2;
        }
        if jp < packed.panels {
            let bp = &packed.data[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [[S::zero(); NR]; MR];
            for (p, ac) in atile.chunks_exact(MR).enumerate() {
                let br = &bp[p * NR..p * NR + NR];
                let mut bv = [S::zero(); NR];
                for v in 0..nv {
                    bv[v] = S::load(&br[v * S::LANES..]);
                }
                for i in 0..MR {
                    let av = S::splat(ac[i]);
                    for v in 0..nv {
                        acc[i][v] = acc[i][v].add(av.mul(bv[v]));
                    }
                }
            }
            let j0 = jp * NR;
            let nr = NR.min(packed.n - j0);
            c.store(&acc, ib, mr, j0, nr);
        }
    }
}

/// One `MR × NR` block of vector accumulators.
type Acc<S> = [[S; NR]; MR];

/// Where the band loop writes its accumulator blocks.
trait StoreC {
    /// Writes band rows `i..i + mr` and columns `j..j + nr` of `acc`.
    ///
    /// # Safety
    ///
    /// The ISA contract of [`run_band_g`], its only caller.
    unsafe fn store<S: SimdF32>(&mut self, acc: &Acc<S>, i: usize, mr: usize, j: usize, nr: usize);
}

/// A band of [`gemm`]'s row-major `C`, rows `row_stride` apart.
struct RowBand<'a> {
    data: &'a mut [f32],
    row_stride: usize,
}

impl StoreC for RowBand<'_> {
    #[inline(always)]
    unsafe fn store<S: SimdF32>(&mut self, acc: &Acc<S>, i: usize, mr: usize, j: usize, nr: usize) {
        let nv = NR / S::LANES;
        let mut tmp = [0.0f32; NR];
        for (ii, accrow) in acc.iter().enumerate().take(mr) {
            let off = (i + ii) * self.row_stride + j;
            if nr == NR {
                for (v, av) in accrow.iter().enumerate().take(nv) {
                    av.store(&mut self.data[off + v * S::LANES..]);
                }
            } else {
                for (v, av) in accrow.iter().enumerate().take(nv) {
                    av.store(&mut tmp[v * S::LANES..]);
                }
                self.data[off..off + nr].copy_from_slice(&tmp[..nr]);
            }
        }
    }
}

/// Band rows from `first` of a transposed `C`: `(i, j)` lands at `j·m + i`
/// of `slab`, the `m`-position output planes. Concurrent bands own disjoint
/// rows, whose elements interleave, so they share `slab` as a raw pointer.
/// An int8 product's `scales` (`sa` over the image's `m` rows, `sb` over
/// the columns) turn each integer sum into `(acc·sa[i])·sb[j]` on the way.
#[derive(Clone, Copy)]
struct ColBand<'a> {
    slab: *mut [f32],
    m: usize,
    first: usize,
    scales: Option<(&'a [f32], &'a [f32])>,
}

// SAFETY: `m` and `first` are plain integers and `scales` shared reads;
// through `slab`, the bands of one product write disjoint rows of a buffer
// that `patch_product` borrows mutably until every band has joined.
unsafe impl Send for ColBand<'_> {}
unsafe impl Sync for ColBand<'_> {}

impl StoreC for ColBand<'_> {
    #[inline(always)]
    unsafe fn store<S: SimdF32>(&mut self, acc: &Acc<S>, i: usize, mr: usize, j: usize, nr: usize) {
        let mut tile = [0.0f32; MR * NR];
        RowBand {
            data: &mut tile,
            row_stride: NR,
        }
        .store(acc, 0, MR, 0, NR);
        if let Some((sa, sb)) = self.scales {
            let sa = &sa[self.first + i..self.first + i + mr];
            for (row, &si) in tile.chunks_exact_mut(NR).zip(sa) {
                for (v, &sj) in row.iter_mut().zip(&sb[j..j + nr]) {
                    *v = *v * si * sj;
                }
            }
        }
        for jj in 0..nr {
            let off = (j + jj) * self.m + self.first + i;
            assert!(off + mr <= self.slab.len(), "store out of bounds");
            for ii in 0..mr {
                // SAFETY: in bounds, and no other band writes this row
                *(self.slab as *mut f32).add(off + ii) = tile[ii * NR + jj];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_band_avx2<A: PackA, C: StoreC>(
    c: &mut C,
    band_rows: usize,
    first_row: usize,
    a: A,
    k: usize,
    packed: &PackedB,
    atile: &mut [f32],
) {
    run_band_g::<Avx2F32, A, C>(c, band_rows, first_row, a, k, packed, atile)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn run_band_sse2<A: PackA, C: StoreC>(
    c: &mut C,
    band_rows: usize,
    first_row: usize,
    a: A,
    k: usize,
    packed: &PackedB,
    atile: &mut [f32],
) {
    run_band_g::<Sse2F32, A, C>(c, band_rows, first_row, a, k, packed, atile)
}

/// Fallback for products too small (or too skinny) to pack, parallelized
/// over output rows past the seed threshold. Also zero-fills `C` when
/// `k == 0`.
///
/// Per output element the accumulation is sequential over `p` either way —
/// bit-identical to the packed path and the seed kernels — but the loop
/// shape follows `B`'s layout so the inner loop streams contiguous memory:
/// row-major `B` gets the seed's saxpy over `B`-rows (row-vector matmuls,
/// matvecs), column-major `B` (a stride-swapped transpose view) gets one
/// dot product per element over `B`-columns (the seed `transb` shape).
fn gemm_fallback(c: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    let row_stride = c.row_stride;
    let saxpy = b.col_stride == 1;
    let row_kernel = |i: usize, crow: &mut [f32]| {
        let crow = &mut crow[..n];
        if saxpy {
            crow.fill(0.0);
            for p in 0..k {
                let av = a.at(i, p);
                let brow = &b.data[p * b.row_stride..p * b.row_stride + n];
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        } else {
            for (j, o) in crow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                *o = acc;
            }
        }
    };
    let len = (m - 1) * row_stride + n;
    if m * n * k >= PAR_MIN_MACS {
        qn_parallel::par_chunks_mut(&mut c.data[..len], row_stride, row_kernel);
    } else {
        for (i, crow) in c.data[..len].chunks_mut(row_stride).enumerate() {
            row_kernel(i, crow);
        }
    }
}

/// Matrix product `C ← A · B` (`C` is fully overwritten).
///
/// The one GEMM kernel every product in the workspace routes through.
/// Transposed operands are passed as stride-swapped views
/// ([`MatRef::transpose`]); `C` must be row-major (an optional row stride
/// lets a sub-block of a wider buffer be the destination).
///
/// Guarantees (see the module docs for the analysis):
///
/// - **bit-identical** results to the seed naive kernels
///   ([`reference`](mod@reference)) at any thread count and any SIMD
///   level — per-element accumulation over `k` is strictly sequential,
///   each lane rounds the product and then the sum, and parallelism only
///   ever splits disjoint output-row bands;
/// - IEEE-754-exact non-finite propagation (`0 × NaN = NaN` survives);
/// - `k == 0` zero-fills `C` (the empty sum).
///
/// # Panics
///
/// Panics on dimension mismatch between `c`, `a` and `b`.
pub fn gemm(c: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    assert_eq!(a.rows, m, "gemm: a has {} rows, c has {m}", a.rows);
    assert_eq!(b.rows, k, "gemm: a is {m}x{k} but b has {} rows", b.rows);
    assert_eq!(b.cols, n, "gemm: b has {} cols, c has {n}", b.cols);
    if m == 0 || n == 0 {
        return;
    }
    if m < MR || n < NR || m * n * k < PACK_MIN_MACS {
        return gemm_fallback(c, a, b);
    }
    gemm_packed(c, a, b)
}

/// The packed path of [`gemm`], which [`gemm_i8`](crate::gemm_i8) takes at
/// every shape: packs `b` (widened to `f32`), runs the band loop over the
/// tiles of `a` into `c`, and splits `c`'s rows into one band per pool
/// thread once the product is large. `c` is nonempty and the shapes agree.
pub(crate) fn gemm_packed<A: PackA, T: Copy + Into<f32> + Sync>(
    c: MatMut<'_>,
    a: A,
    b: MatRef<'_, T>,
) {
    let (m, n, k) = (c.rows, c.cols, b.rows);
    // Resolved once per call, so every band of one product runs the same
    // code whichever pool worker executes it.
    let level = SimdLevel::active();
    let packed = pack_b(b);
    let row_stride = c.row_stride;
    let band = |data: &mut [f32], band_rows: usize, first: usize| {
        let mut dst = RowBand { data, row_stride };
        run_band(&mut dst, band_rows, first, a, k, &packed, level)
    };
    let blocks = m.div_ceil(MR);
    let threads = qn_parallel::num_threads();
    let bands = threads.min(blocks);
    let len = (m - 1) * row_stride + n;
    let cdata = &mut c.data[..len];
    if bands > 1 && m * n * k >= PAR_MIN_MACS {
        let rows_per_band = blocks.div_ceil(bands) * MR;
        qn_parallel::par_chunks_mut(cdata, rows_per_band * row_stride, |bi, cband| {
            let first = bi * rows_per_band;
            band(cband, rows_per_band.min(m - first), first);
        });
    } else {
        band(cdata, m, 0);
    }
    scratch::give_f32(packed.data);
}

/// Runs `batches` independent products `out[i] ← a_of(i) · b_of(i)` (each
/// `m × k · k × n`) into the contiguous `[batches, m, n]` buffer `out`.
///
/// Batch-parallelism is preferred whenever the batch dimension alone can
/// occupy the pool (each product then runs inline inside its worker) —
/// [`gemm`]'s internal row-band split is capped at `⌈m/MR⌉` bands, so for
/// wide short-`m` products (e.g. per-head attention scores) the batch is the
/// better axis. Only when there are fewer batches than threads do batches
/// run sequentially with [`gemm`] parallelizing internally. Either way the
/// output regions are disjoint and per-element accumulation is sequential,
/// so results are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `out.len() != batches * m * n` or any view has the wrong shape.
pub fn gemm_batched<'a, FA, FB>(
    out: &mut [f32],
    batches: usize,
    m: usize,
    n: usize,
    k: usize,
    a_of: FA,
    b_of: FB,
) where
    FA: Fn(usize) -> MatRef<'a> + Sync,
    FB: Fn(usize) -> MatRef<'a> + Sync,
{
    assert_eq!(
        out.len(),
        batches * m * n,
        "gemm_batched: output of {} elements cannot hold {batches}x{m}x{n}",
        out.len()
    );
    if batches == 0 || m * n == 0 {
        return;
    }
    let per = m * n;
    let run = |ni: usize, slab: &mut [f32]| {
        gemm(MatMut::new(slab, m, n), a_of(ni), b_of(ni));
    };
    let per_macs = m * n * k;
    let threads = qn_parallel::num_threads();
    let batch_parallel =
        batches * per_macs >= PAR_MIN_MACS && (batches >= threads || per_macs < PAR_MIN_MACS);
    if batch_parallel {
        qn_parallel::par_chunks_mut(out, per, run);
    } else {
        for (ni, slab) in out.chunks_mut(per).enumerate() {
            run(ni, slab);
        }
    }
}

/// The `[OH·OW, C·K·K]` patch matrix of one image, read from its `(C, HP,
/// WP)` planes: the image zero-padded by `spec.padding` on every side (the
/// image itself when that is 0), `hw = (HP, WP)`. Every receptive field
/// lies inside the planes, so a tile row is `C·K` runs of `K` floats from
/// its origin, the values and order of the row [`im2col`](crate::im2col)
/// writes, `+0.0` at pads. With `inv`, the inverse scales of the image's
/// rows, each tile row packs as the int8 codes `quantize_to_i8` gives that
/// im2col row, widened to `f32`.
#[derive(Clone, Copy)]
struct Patches<'a> {
    planes: &'a [f32],
    hw: (usize, usize),
    ow: usize,
    spec: Conv2dSpec,
    inv: Option<&'a [f32]>,
}

impl PackA for Patches<'_> {
    #[inline(always)]
    fn pack(&self, atile: &mut [f32], first: usize, mr: usize, k: usize) {
        self.fill(atile, first, mr, k);
        if let Some(inv) = self.inv {
            // padding rows past `mr` hold +0.0, whose code is 0 at any scale
            let mut s = [0.0f32; MR];
            s[..mr].copy_from_slice(&inv[first..first + mr]);
            for tap in atile[..k * MR].chunks_exact_mut(MR) {
                for (v, &s) in tap.iter_mut().zip(&s) {
                    *v = qn_simd::quantize_lane(*v, s);
                }
            }
        }
    }
}

impl Patches<'_> {
    /// Offset in the planes of output position `r`'s receptive-field origin.
    #[inline(always)]
    fn origin(&self, r: usize) -> usize {
        (r / self.ow * self.hw.1 + r % self.ow) * self.spec.stride
    }

    /// The `f32` tile: `atile[p·MR + ii]` is element `p` of patch row
    /// `first + ii`, `+0.0` for `ii >= mr`.
    #[inline(always)]
    fn fill(&self, atile: &mut [f32], first: usize, mr: usize, k: usize) {
        let (kernel, (hp, wp), atile) = (self.spec.kernel, self.hw, &mut atile[..k * MR]);
        // a full tile within one output row: `MR` evenly spaced windows
        if mr == MR && first % self.ow + MR <= self.ow {
            let (planes, at) = ((self.planes, hp * wp, wp), self.origin(first));
            match (kernel, self.spec.stride) {
                (1, 1) => return window_taps::<1, 1>(atile, planes, at),
                (3, 1) => return window_taps::<3, 1>(atile, planes, at),
                (1, 2) => return window_taps::<1, 2>(atile, planes, at),
                (3, 2) => return window_taps::<3, 2>(atile, planes, at),
                _ => {}
            }
        }
        // any other tile, row by row
        for ii in 0..MR {
            let col = atile.chunks_exact_mut(MR).map(|tap| &mut tap[ii]);
            if ii >= mr {
                col.for_each(|d| *d = 0.0);
                continue;
            }
            let o = self.origin(first + ii);
            let runs = (0..k / (kernel * kernel))
                .flat_map(|ci| (0..kernel).map(move |ky| ci * hp * wp + o + ky * wp));
            for (d, &v) in col.zip(runs.flat_map(|s| &self.planes[s..s + kernel])) {
                *d = v;
            }
        }
    }
}

/// The taps of a full tile whose positions lie in one output row, from the
/// receptive-field origin `at` of its first position in `planes` (each
/// `len` floats, rows `wp` apart): per `(c, ky)`, `K` windows of `MR`
/// floats `S` apart along one padded row.
#[inline(always)]
fn window_taps<const K: usize, const S: usize>(
    atile: &mut [f32],
    (planes, len, wp): (&[f32], usize, usize),
    at: usize,
) {
    for (ci, taps) in atile.chunks_exact_mut(K * K * MR).enumerate() {
        for (ky, row) in taps.chunks_exact_mut(K * MR).enumerate() {
            let src = &planes[ci * len + at + ky * wp..][..(MR - 1) * S + K];
            for (kx, dst) in row.chunks_exact_mut(MR).enumerate() {
                let window = &src[kx..kx + (MR - 1) * S + 1];
                for (ii, d) in dst.iter_mut().enumerate() {
                    *d = window[ii * S];
                }
            }
        }
    }
}

/// Copies the `(C, H, W)` planes of `img` into `dst` as `(C, H+2p, W+2p)`
/// planes with `+0.0` borders, quantizing each pixel at `inv` if given
/// (the border's code is 0 at any scale).
fn pad_into(dst: &mut [f32], img: &[f32], (h, w): (usize, usize), p: usize, inv: Option<f32>) {
    let wp = w + 2 * p;
    for (ci, plane) in dst.chunks_exact_mut((h + 2 * p) * wp).enumerate() {
        plane[..p * wp].fill(0.0);
        plane[(p + h) * wp..].fill(0.0);
        for (y, row) in plane[p * wp..(p + h) * wp].chunks_exact_mut(wp).enumerate() {
            row[..p].fill(0.0);
            row[p + w..].fill(0.0);
            let (row, src) = (&mut row[p..p + w], &img[(ci * h + y) * w..][..w]);
            match inv {
                Some(inv) => {
                    for (d, &v) in row.iter_mut().zip(src) {
                        *d = qn_simd::quantize_lane(v, inv);
                    }
                }
                None => row.copy_from_slice(src),
            }
        }
    }
}

/// Convolution on a patch operand: `out[i] ← (patches(x[i]) · b)ᵀ` for each
/// image of the NCHW `x`, `b` `[C·K·K, N]` (`Wᵀ` for filters `W`), `out`
/// `[B, N, OH·OW]`. Each image is copied once into zero-padded planes
/// (read in place when the padding is 0), and every tile packs from them
/// into the packed path at every shape and stores transposed into the
/// output planes; each element is the `gemm`-over-[`im2col`](crate::im2col)
/// dot, from `+0.0` in the same order, so the bits match at any thread
/// count and SIMD level. Large images split into bands of output positions
/// across the pool.
///
/// # Panics
///
/// Panics if `x` is not 4-D, `b` does not have `C·K·K` rows or `out`
/// does not hold `B·N·OH·OW` floats.
pub fn gemm_patches(out: &mut [f32], x: &Tensor, spec: Conv2dSpec, b: MatRef<'_>) {
    patch_product("gemm_patches", out, x, spec, b, None);
}

/// The band loop of [`gemm_patches`] and, given `int8 = (sb, act)`, of
/// [`gemm_i8_patches`](crate::gemm_i8_patches): patch row `r` is quantized
/// at its `act` scale `sa[r]` and each sum stored as `(acc·sa[r])·sb[j]`.
/// The padded planes and the scales come from the calling thread's
/// [`scratch`] cache and are rewritten, borders included, for every image.
/// Returns the largest patch-row absmax under [`ActScale::PerRow`], else
/// `0.0`. `what` names the caller in panics.
pub(crate) fn patch_product<T: Copy + Into<f32> + Sync>(
    what: &str,
    out: &mut [f32],
    x: &Tensor,
    spec: Conv2dSpec,
    b: MatRef<'_, T>,
    int8: Option<(&[f32], ActScale)>,
) -> f32 {
    let (batches, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let (m, k, n) = (oh * ow, spec.patch_len(c), b.cols);
    assert_eq!(b.rows, k, "{what}: b must have {k} rows");
    assert_eq!(
        out.len(),
        batches * n * m,
        "{what}: out must be {batches}x{n}x{m}"
    );
    if out.is_empty() {
        return 0.0;
    }
    let (p, hw) = (spec.padding, (h + 2 * spec.padding, w + 2 * spec.padding));
    // an int8 product's row scales `sa` for one image and, while dynamic,
    // their inverses `inv` and the image's per-pixel channel absmaxes, as
    // `quantize_acts` in `qn-nn` derives the scales for the im2col rows;
    // every row shares a frozen scale, so each pixel is quantized once, as
    // it is padded: its code is the same in every patch row that holds it
    let (frozen, mut scales) = match int8 {
        None => (None, Vec::new()),
        Some((_, ActScale::Frozen(s))) => {
            let mut sa = scratch::take_f32(m);
            sa.fill(s);
            (Some(1.0 / s), sa)
        }
        Some((_, ActScale::PerRow)) => (None, scratch::take_f32(2 * m + hw.0 * hw.1)),
    };
    let (copy, mut seen) = (p > 0 || frozen.is_some(), 0.0f32);
    let mut padded = if copy {
        scratch::take_f32(c * hw.0 * hw.1)
    } else {
        Vec::new()
    };
    let (level, packed, blocks) = (SimdLevel::active(), pack_b(b), m.div_ceil(MR));
    let (big, threads) = (m * n * k >= PAR_MIN_MACS, qn_parallel::num_threads());
    let rows_per_band = blocks.div_ceil(if big { threads.min(blocks) } else { 1 }) * MR;
    let chw = c * h * w;
    for (i, slab) in out.chunks_mut(n * m).enumerate() {
        let img = &x.data()[i * chw..(i + 1) * chw];
        if copy {
            pad_into(&mut padded, img, (h, w), p, frozen);
        }
        let mut a = Patches {
            planes: if copy { &padded } else { img },
            hw,
            ow,
            spec,
            inv: None,
        };
        let sa = if let Some((_, ActScale::PerRow)) = int8 {
            let (sa, rest) = scales.split_at_mut(m);
            let (inv, pixel) = rest.split_at_mut(m);
            patch_absmax(sa, pixel, &a);
            for (a, v) in sa.iter_mut().zip(&mut *inv) {
                if *a > seen {
                    seen = *a;
                }
                (*a, *v) = if *a > 0.0 && a.is_finite() {
                    (*a / 127.0, 127.0 / *a)
                } else {
                    (0.0, 0.0)
                };
            }
            a.inv = Some(inv);
            &*sa
        } else {
            &scales[..]
        };
        let scales = int8.map(|(sb, _)| (sa, sb));
        let dst = ColBand {
            slab,
            m,
            first: 0,
            scales,
        };
        let packed = &packed;
        let band = move |first: usize| {
            let (mut dst, rows) = (dst, rows_per_band.min(m - first));
            dst.first = first;
            run_band(&mut dst, rows, first, a, k, packed, level)
        };
        if rows_per_band >= m {
            band(0);
        } else {
            let tasks = (0..m).step_by(rows_per_band);
            qn_parallel::par_scope(tasks.map(|f| Box::new(move || band(f)) as _).collect());
        }
    }
    scratch::give_f32(packed.data);
    scratch::give_f32(scales);
    scratch::give_f32(padded);
    seen
}

/// Writes the absmax of each patch row of `a`'s image into `out` (`OH·OW`
/// values): the largest `|v|` from `+0.0`, NaN skipped, as `quantize_acts`
/// in `qn-nn` scans an im2col row. Each pixel's absmax over the channels
/// goes into `pixel` first, then each row takes the largest over its
/// `K×K` window of `pixel`. Both scans keep the largest non-NaN magnitude,
/// which does not depend on their order, so every row keeps its bits.
fn patch_absmax(out: &mut [f32], pixel: &mut [f32], a: &Patches<'_>) {
    let (kernel, (hp, wp)) = (a.spec.kernel, a.hw);
    pixel.fill(0.0);
    for plane in a.planes.chunks_exact(hp * wp) {
        for (mx, &v) in pixel.iter_mut().zip(plane) {
            if v.abs() > *mx {
                *mx = v.abs();
            }
        }
    }
    for (r, mx) in out.iter_mut().enumerate() {
        let o = a.origin(r);
        *mx = 0.0;
        for ky in 0..kernel {
            for &v in &pixel[o + ky * wp..][..kernel] {
                if v > *mx {
                    *mx = v;
                }
            }
        }
    }
}

/// The seed naive matmul kernels, retained verbatim (modulo the parallel
/// split, which was bit-neutral) as the executable specification the packed
/// [`gemm`] core is tested against.
///
/// These run strictly sequentially and are **not** called by any production
/// path; `crates/tensor/tests/gemm_equivalence.rs` asserts bit-equality
/// against them.
pub mod reference {
    use crate::Tensor;

    /// Per-row finiteness of a `[rows, width]` matrix — the seed guard for
    /// the zero-coefficient skip (`0 × NaN` must propagate).
    fn finite_rows(data: &[f32], rows: usize, width: usize) -> Vec<bool> {
        (0..rows)
            .map(|r| {
                data[r * width..(r + 1) * width]
                    .iter()
                    .all(|v| v.is_finite())
            })
            .collect()
    }

    /// Seed `[M, K] × [K, N]` kernel (finiteness-guarded zero skip).
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.dims2();
        let (k2, n) = b.dims2();
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let skippable = if a.data().contains(&0.0) {
            finite_rows(b.data(), k, n)
        } else {
            vec![false; k]
        };
        let mut out = vec![0.0f32; m * n];
        for (i, orow) in out.chunks_mut(n.max(1)).enumerate() {
            let arow = &a.data()[i * k..(i + 1) * k];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 && skippable[p] {
                    continue;
                }
                let brow = &b.data()[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n]).expect("matmul shape consistent")
    }

    /// Seed `[K, M]ᵀ × [K, N]` kernel.
    pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = a.dims2();
        let (k2, n) = b.dims2();
        assert_eq!(k, k2, "matmul_transa leading dims differ: {k} vs {k2}");
        let skippable = if a.data().contains(&0.0) {
            finite_rows(b.data(), k, n)
        } else {
            vec![false; k]
        };
        let mut out = vec![0.0f32; m * n];
        for (i, orow) in out.chunks_mut(n.max(1)).enumerate() {
            for (p, ok) in skippable.iter().enumerate() {
                let av = a.data()[p * m + i];
                if av == 0.0 && *ok {
                    continue;
                }
                let brow = &b.data()[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n]).expect("matmul_transa shape consistent")
    }

    /// Seed `[M, K] × [N, K]ᵀ` kernel (per-element dot products).
    pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.dims2();
        let (n, k2) = b.dims2();
        assert_eq!(k, k2, "matmul_transb trailing dims differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for (i, orow) in out.chunks_mut(n.max(1)).enumerate() {
            let arow = &a.data()[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b.data()[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
        Tensor::from_vec(out, &[m, n]).expect("matmul_transb shape consistent")
    }
}

impl Tensor {
    /// Borrows a 2-D tensor as a zero-copy [`MatRef`] view.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn mat(&self) -> MatRef<'_> {
        assert_eq!(self.ndim(), 2, "mat view requires a 2-D tensor");
        let (r, c) = self.dims2();
        MatRef::new(self.data(), r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn transpose_view_reads_transposed() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let v = t.mat().transpose();
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(v.at(j, i), t.get(&[i, j]));
            }
        }
        assert!(!v.is_contiguous());
        assert!(t.mat().is_contiguous());
    }

    #[test]
    fn packed_path_matches_reference_kernels() {
        let mut rng = Rng::seed_from(11);
        // 24·24·24 = 13.8k MACs > PACK_MIN_MACS with m ≥ MR, n ≥ NR.
        let a = Tensor::randn(&[24, 24], &mut rng);
        let b = Tensor::randn(&[24, 24], &mut rng);
        assert!(a.matmul(&b).bit_identical(&reference::matmul(&a, &b)));
        assert!(a
            .matmul_transa(&b)
            .bit_identical(&reference::matmul_transa(&a, &b)));
        assert!(a
            .matmul_transb(&b)
            .bit_identical(&reference::matmul_transb(&a, &b)));
    }

    #[test]
    fn sparse_packed_path_matches_reference() {
        let mut rng = Rng::seed_from(12);
        // Zero-heavy A: the ±0 products must leave every bit unchanged.
        let a = Tensor::randn(&[32, 24], &mut rng).map(|v| if v > 0.0 { 0.0 } else { v });
        let b = Tensor::randn(&[24, 16], &mut rng);
        assert!(a.matmul(&b).bit_identical(&reference::matmul(&a, &b)));
    }

    #[test]
    fn gemm_with_strided_destination_leaves_gap_untouched() {
        // C is a 2×2 block inside rows of width 4; the gap keeps its value.
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let mut out = vec![-1.0f32; 8];
        gemm(MatMut::with_row_stride(&mut out, 2, 2, 4), a.mat(), b.mat());
        assert_eq!(out, [5.0, 6.0, -1.0, -1.0, 7.0, 8.0, -1.0, -1.0]);
    }

    #[test]
    fn k_zero_zero_fills() {
        let mut out = vec![9.0f32; 6];
        gemm(
            MatMut::new(&mut out, 2, 3),
            MatRef::new(&[], 2, 0),
            MatRef::new(&[], 0, 3),
        );
        assert_eq!(out, [0.0; 6]);
    }

    #[test]
    fn double_transpose_views_compose() {
        let mut rng = Rng::seed_from(13);
        let a = Tensor::randn(&[5, 7], &mut rng); // used as aᵀ: [7, 5]
        let b = Tensor::randn(&[9, 7], &mut rng); // used as bᵀ: [7, 9]
        let mut out = vec![0.0f32; 5 * 9];
        gemm(
            MatMut::new(&mut out, 5, 9),
            a.mat().transpose().transpose(),
            b.mat().transpose(),
        );
        let expect = a.matmul_transb(&b);
        assert_eq!(out, expect.data());
    }

    #[test]
    #[should_panic(expected = "gemm: a is")]
    fn gemm_inner_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let mut out = vec![0.0f32; 4];
        gemm(MatMut::new(&mut out, 2, 2), a.mat(), b.mat());
    }

    #[test]
    #[should_panic(expected = "row_stride")]
    fn matmut_narrow_stride_panics() {
        let mut out = vec![0.0f32; 4];
        MatMut::with_row_stride(&mut out, 2, 2, 1);
    }
}
