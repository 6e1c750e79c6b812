//! Architecture-specific `f32` vector types behind the [`SimdF32`] trait.
//!
//! One trait, three implementations:
//!
//! - [`Avx2F32`] — 8 lanes over `__m256` (`x86_64` only, requires `avx2`
//!   **and** `fma` at runtime).
//! - [`Sse2F32`] — 4 lanes over `__m128` (`x86_64` baseline, always
//!   available there).
//! - [`ScalarF32`] — 1 lane, plain `f32` arithmetic.
//!
//! Kernels are written once, generic over `S: SimdF32`, marked
//! `#[inline(always)]`, and instantiated inside thin
//! `#[target_feature(enable = ...)]` wrapper functions (see
//! `crates/simd/src/kernels.rs` and the GEMM micro-kernel in
//! `qn-tensor`). The wrapper gives LLVM permission to emit the wide
//! instructions; runtime dispatch (`SimdLevel::active()`) guarantees the
//! wrapper is only ever reached on a CPU that has them.
//!
//! # Safety model
//!
//! Every method is `unsafe fn`: calling it is sound only when the
//! implementation's instruction set is available on the executing CPU.
//! Obtaining that proof is the dispatcher's job — user code should go
//! through the safe slice kernels in this crate (or the dispatched entry
//! points in `qn-tensor`/`qn-autograd`) rather than touching these types
//! directly.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// A small fixed-width vector of `f32` lanes.
///
/// Every operation is lane-wise and follows IEEE-754 single precision
/// exactly as the underlying instruction does. The three implementations
/// share those semantics (the scalar `max` copies `maxps`), so they differ
/// only in width.
///
/// # Safety
///
/// Implementing this trait asserts that every method is sound whenever
/// the target ISA named by the implementation is available at runtime.
/// Callers must guarantee that availability (via `SimdLevel` dispatch)
/// before invoking any method.
pub unsafe trait SimdF32: Copy {
    /// Number of `f32` lanes in one vector.
    const LANES: usize;

    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn splat(v: f32) -> Self;

    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn zero() -> Self;

    /// Unaligned load of the first `LANES` elements of `src`.
    ///
    /// # Safety
    /// ISA must be available and `src.len() >= LANES`.
    unsafe fn load(src: &[f32]) -> Self;

    /// Unaligned store into the first `LANES` elements of `dst`.
    ///
    /// # Safety
    /// ISA must be available and `dst.len() >= LANES`.
    unsafe fn store(self, dst: &mut [f32]);

    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn add(self, o: Self) -> Self;

    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn sub(self, o: Self) -> Self;

    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn mul(self, o: Self) -> Self;

    /// Lane-wise maximum with x86 `maxps` NaN semantics: if a lane of
    /// either operand is NaN, the lane of `o` is returned. Matches
    /// `f32::max(x, c)` for the ReLU pattern `x.max(0.0)`.
    ///
    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn max(self, o: Self) -> Self;

    /// Lane-wise IEEE division (`divps`) — correctly rounded, so results
    /// are bit-identical to scalar `/` at every level.
    ///
    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn div(self, o: Self) -> Self;

    /// Lane-wise IEEE square root (`sqrtps`) — correctly rounded, so
    /// results are bit-identical to scalar `f32::sqrt` at every level.
    ///
    /// # Safety
    /// The implementation's ISA must be available on the executing CPU.
    unsafe fn sqrt(self) -> Self;
}

/// One-lane fallback: plain `f32` arithmetic, valid on every CPU.
#[derive(Copy, Clone, Debug)]
pub struct ScalarF32(pub f32);

unsafe impl SimdF32 for ScalarF32 {
    const LANES: usize = 1;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        ScalarF32(v)
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        ScalarF32(0.0)
    }

    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(!src.is_empty());
        ScalarF32(*src.get_unchecked(0))
    }

    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(!dst.is_empty());
        *dst.get_unchecked_mut(0) = self.0;
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        ScalarF32(self.0 + o.0)
    }

    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        ScalarF32(self.0 - o.0)
    }

    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        ScalarF32(self.0 * o.0)
    }

    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        // `maxps` semantics: return the second operand if either is NaN.
        ScalarF32(if self.0 > o.0 { self.0 } else { o.0 })
    }

    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        ScalarF32(self.0 / o.0)
    }

    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        ScalarF32(self.0.sqrt())
    }
}

/// 4 × `f32` over `__m128`. SSE2 is part of the `x86_64` baseline, so
/// this level is always reachable there.
#[cfg(target_arch = "x86_64")]
#[derive(Copy, Clone)]
pub struct Sse2F32(__m128);

#[cfg(target_arch = "x86_64")]
unsafe impl SimdF32 for Sse2F32 {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Sse2F32(_mm_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        Sse2F32(_mm_setzero_ps())
    }

    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        Sse2F32(_mm_loadu_ps(src.as_ptr()))
    }

    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= Self::LANES);
        _mm_storeu_ps(dst.as_mut_ptr(), self.0);
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Sse2F32(_mm_add_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        Sse2F32(_mm_sub_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Sse2F32(_mm_mul_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        Sse2F32(_mm_max_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        Sse2F32(_mm_div_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Sse2F32(_mm_sqrt_ps(self.0))
    }
}

/// 8 × `f32` over `__m256`.
///
/// Requires both `avx2` and `fma` at runtime (always detected together
/// on real parts; the dispatcher checks both).
#[cfg(target_arch = "x86_64")]
#[derive(Copy, Clone)]
pub struct Avx2F32(__m256);

#[cfg(target_arch = "x86_64")]
unsafe impl SimdF32 for Avx2F32 {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Avx2F32(_mm256_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        Avx2F32(_mm256_setzero_ps())
    }

    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        Avx2F32(_mm256_loadu_ps(src.as_ptr()))
    }

    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= Self::LANES);
        _mm256_storeu_ps(dst.as_mut_ptr(), self.0);
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Avx2F32(_mm256_add_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        Avx2F32(_mm256_sub_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Avx2F32(_mm256_mul_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        Avx2F32(_mm256_max_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        Avx2F32(_mm256_div_ps(self.0, o.0))
    }

    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Avx2F32(_mm256_sqrt_ps(self.0))
    }
}
