//! Runtime-dispatched int8 lane kernels — the integer sibling of
//! [`kernels`](crate::add_to).
//!
//! These back the quantized inference tier (`qn-tensor`'s `gemm_i8`):
//! [`dot_i8`] is the widening multiply–add inner product the int8 GEMM
//! drives, and [`quantize_to_i8`] is the `f32 → i8` rounding pass used for
//! both weight quantization and per-row activation quantization.
//!
//! ## Determinism
//!
//! Like the `f32` kernels, the int8 kernels are **exact at every dispatch
//! level**:
//!
//! - [`dot_i8`] accumulates `i32` products of `i8` values. Integer addition
//!   is associative, so reassociating the accumulation across lanes cannot
//!   change a single bit — the AVX2/SSE2 paths are bit-identical to the
//!   scalar loop by construction.
//! - [`quantize_to_i8`] performs the identical IEEE-754 operation sequence
//!   per lane (`(x·inv + C) − C` magic-number rounding, then clamp), so its
//!   lanes are bit-exact across levels for finite inputs.
//!
//! Both contracts are enforced by `tests/int8_equivalence.rs` at every
//! reachable dispatch level.
//!
//! ## Overflow bound
//!
//! Each `i8 × i8` product has magnitude ≤ `127² = 16 129`, and the widening
//! multiply–add folds two products into one `i32` lane per step, so an
//! accumulator lane grows by ≤ `32 258` per element pair. An `i32` therefore
//! holds the exact sum for any `k ≤ 2³¹ / 32 258 ≈ 66 000` element *pairs*
//! (≈ 133 000 elements) — far beyond any reduction dimension in the
//! workspace (the largest ResNet-20 im2col `k` is 576). [`dot_i8`] documents
//! this as a caller requirement rather than checking it.

use crate::SimdLevel;

/// The magic constant for branch-free round-to-nearest-even:
/// `(v + C) − C` rounds any `|v| < 2²²` to the nearest integer-valued
/// `f32` (ties to even), because the addition forces the sum into
/// `[2²³, 2²⁴)` where the `f32` grid spacing is exactly 1.
const ROUND_MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³

mod g {
    //! Generic (scalar-shaped) kernel bodies. The scalar wrappers call
    //! these directly; the vector wrappers re-implement the same
    //! operation sequence with intrinsics.

    use super::ROUND_MAGIC;

    #[inline(always)]
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&av, &bv) in a.iter().zip(b) {
            acc += av as i32 * bv as i32;
        }
        acc
    }

    /// One lane of the quantization pass — the exact operation sequence
    /// every ISA reproduces: scale, magic-number round (ties to even),
    /// clamp to the symmetric int8 range `[-127, 127]`.
    #[inline(always)]
    pub fn quantize_lane(x: f32, inv_scale: f32) -> i8 {
        let r = (x * inv_scale + ROUND_MAGIC) - ROUND_MAGIC;
        r.clamp(-127.0, 127.0) as i8
    }

    #[inline(always)]
    pub fn quantize_to_i8(dst: &mut [i8], src: &[f32], inv_scale: f32) {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = quantize_lane(x, inv_scale);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Hand-written SSE2/AVX2 int8 kernels. The `f32` kernels share one
    //! generic body over `SimdF32`, but the int8 widening multiply–add has
    //! no portable shape — sign extension and `madd` differ structurally
    //! between ISAs — so each level is written out against the exactness
    //! contract in the module docs.

    use super::ROUND_MAGIC;
    use std::arch::x86_64::*;

    /// Sums the four `i32` lanes of an SSE register.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (guaranteed on `x86_64`).
    #[inline(always)]
    unsafe fn hsum_epi32_sse2(v: __m128i) -> i32 {
        let hi = _mm_unpackhi_epi64(v, v);
        let s = _mm_add_epi32(v, hi);
        let s2 = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01));
        _mm_cvtsi128_si32(s2)
    }

    /// SSE2 widening dot product: 16 `i8` pairs per iteration, sign-extended
    /// to `i16` via compare-unpack (SSE2 has no `cvtepi8_epi16`), folded by
    /// `madd_epi16` into exact `i32` lane sums.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSE2 is available (the dispatcher does).
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_i8_sse2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len();
        let mut acc = _mm_setzero_si128();
        let zero = _mm_setzero_si128();
        let mut i = 0;
        while i + 16 <= n {
            let av = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let bv = _mm_loadu_si128(b.as_ptr().add(i).cast());
            let asign = _mm_cmpgt_epi8(zero, av);
            let bsign = _mm_cmpgt_epi8(zero, bv);
            let alo = _mm_unpacklo_epi8(av, asign);
            let ahi = _mm_unpackhi_epi8(av, asign);
            let blo = _mm_unpacklo_epi8(bv, bsign);
            let bhi = _mm_unpackhi_epi8(bv, bsign);
            acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, blo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(ahi, bhi));
            i += 16;
        }
        let mut total = hsum_epi32_sse2(acc);
        while i < n {
            total += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
            i += 1;
        }
        total
    }

    /// AVX2 widening dot product: 32 `i8` pairs per iteration via
    /// `cvtepi8_epi16` + `madd_epi16` (the `maddubs` family without its
    /// unsigned-operand signedness trap — both operands are sign-extended).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available (the dispatcher does).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            let a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i + 16).cast()));
            let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i + 16).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a1, b1));
            i += 32;
        }
        if i + 16 <= n {
            let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256(acc, 1);
        let mut total = hsum_epi32_sse2(_mm_add_epi32(lo, hi));
        while i < n {
            total += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
            i += 1;
        }
        total
    }

    /// SSE2 quantization: same `(x·inv + C) − C` / clamp sequence as the
    /// scalar lane, 4 lanes at a time, narrowed through `i32`.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSE2 is available (the dispatcher does).
    #[target_feature(enable = "sse2")]
    pub unsafe fn quantize_to_i8_sse2(dst: &mut [i8], src: &[f32], inv_scale: f32) {
        let n = dst.len();
        let inv = _mm_set1_ps(inv_scale);
        let magic = _mm_set1_ps(ROUND_MAGIC);
        let lo = _mm_set1_ps(-127.0);
        let hi = _mm_set1_ps(127.0);
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm_loadu_ps(src.as_ptr().add(i));
            let r = _mm_sub_ps(_mm_add_ps(_mm_mul_ps(x, inv), magic), magic);
            let c = _mm_min_ps(_mm_max_ps(r, lo), hi);
            // `c` is integral in [-127, 127]; truncation == value.
            let q = _mm_cvttps_epi32(c);
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), q);
            for (j, &l) in lanes.iter().enumerate() {
                *dst.get_unchecked_mut(i + j) = l as i8;
            }
            i += 4;
        }
        while i < n {
            *dst.get_unchecked_mut(i) = super::g::quantize_lane(*src.get_unchecked(i), inv_scale);
            i += 1;
        }
    }

    /// AVX2 quantization: 8 lanes at a time, narrowed through `i32` with
    /// in-lane packs + a permute to restore order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available (the dispatcher does).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_to_i8_avx2(dst: &mut [i8], src: &[f32], inv_scale: f32) {
        let n = dst.len();
        let inv = _mm256_set1_ps(inv_scale);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let r = _mm256_sub_ps(_mm256_add_ps(_mm256_mul_ps(x, inv), magic), magic);
            let c = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
            let q = _mm256_cvttps_epi32(c);
            // i32 → i16 → i8 saturating packs operate within 128-bit lanes;
            // values are already in [-127, 127] so saturation never bites,
            // and packing q with itself keeps the low half in order.
            let q16 = _mm256_packs_epi32(q, q); // [a0..a3, a0..a3 | a4..a7, a4..a7] as i16
            let q8 = _mm256_packs_epi16(q16, q16);
            let lo64 = _mm256_castsi256_si128(q8); // a0..a3 a0..a3 …
            let hi64 = _mm256_extracti128_si256(q8, 1); // a4..a7 …
            let first = _mm_cvtsi128_si32(lo64); // bytes a0..a3
            let second = _mm_cvtsi128_si32(hi64); // bytes a4..a7
            core::ptr::copy_nonoverlapping(
                first.to_le_bytes().as_ptr().cast::<i8>(),
                dst.as_mut_ptr().add(i),
                4,
            );
            core::ptr::copy_nonoverlapping(
                second.to_le_bytes().as_ptr().cast::<i8>(),
                dst.as_mut_ptr().add(i + 4),
                4,
            );
            i += 8;
        }
        while i < n {
            *dst.get_unchecked_mut(i) = super::g::quantize_lane(*src.get_unchecked(i), inv_scale);
            i += 1;
        }
    }
}

/// Widening int8 dot product `Σ a[i]·b[i]` with exact `i32` accumulation.
///
/// Bit-identical at every dispatch level (integer accumulation is
/// associative — see the module docs). The caller must keep the reduction
/// short enough that the exact sum fits an `i32`; `a.len() ≤ 133 000` is
/// always safe (module docs).
///
/// # Panics
///
/// Panics if `a` and `b` differ in length.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    // SAFETY: `SimdLevel::active()` never exceeds the detected CPU
    // features, so each `#[target_feature]` wrapper only runs on hardware
    // that has its ISA.
    match SimdLevel::active() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::dot_i8_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::dot_i8_sse2(a, b) },
        _ => g::dot_i8(a, b),
    }
}

/// Quantizes `src` into `dst`: `dst[i] = clamp(round(src[i] · inv_scale))`
/// with round-to-nearest-even and the symmetric int8 range `[-127, 127]`
/// (`-128` is never produced, so negation stays in range).
///
/// Bit-identical across dispatch levels for finite inputs (every level runs
/// the same IEEE operation sequence per lane). Non-finite `src` values
/// produce unspecified (but in-range) codes — quantization scales come from
/// absmax passes, which surface NaN/∞ upstream.
///
/// # Panics
///
/// Panics if `dst` and `src` differ in length.
pub fn quantize_to_i8(dst: &mut [i8], src: &[f32], inv_scale: f32) {
    assert_eq!(dst.len(), src.len(), "quantize_to_i8: length mismatch");
    // SAFETY: see `dot_i8` — active level never exceeds detected features.
    match SimdLevel::active() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::quantize_to_i8_avx2(dst, src, inv_scale) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::quantize_to_i8_sse2(dst, src, inv_scale) },
        _ => g::quantize_to_i8(dst, src, inv_scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_wide_reference() {
        let a: Vec<i8> = (0..100).map(|i| ((i * 37) % 255) as i8).collect();
        let b: Vec<i8> = (0..100).map(|i| ((i * 91 + 13) % 255) as i8).collect();
        let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        assert_eq!(dot_i8(&a, &b) as i64, expect);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn quantize_rounds_ties_to_even_and_clamps() {
        // inv_scale 1.0: values are the codes themselves.
        let src = [0.5, 1.5, 2.5, -0.5, -1.5, 200.0, -200.0, 126.7];
        let mut dst = [0i8; 8];
        quantize_to_i8(&mut dst, &src, 1.0);
        assert_eq!(dst, [0, 2, 2, 0, -2, 127, -127, 127]);
    }

    #[test]
    fn quantize_zero_scale_maps_to_zero() {
        let src = [1.0f32, -3.5, 0.0];
        let mut dst = [5i8; 3];
        quantize_to_i8(&mut dst, &src, 0.0);
        assert_eq!(dst, [0, 0, 0]);
    }
}
