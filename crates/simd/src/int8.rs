//! The runtime-dispatched int8 quantization kernel — the integer sibling
//! of [`kernels`](crate::add_to).
//!
//! [`quantize_to_i8`] is the `f32 → i8` rounding pass of the quantized
//! inference tier, used for weight quantization and per-row activation
//! quantization; [`quantize_lane`] is its one-element form, which
//! `qn-tensor`'s int8 patch packer applies tile row by tile row. The int8
//! products themselves need no kernel here: `qn-tensor`'s `gemm_i8` widens
//! the codes to `f32` and runs the `f32` GEMM band loop, whose sums of int8
//! products are exact.
//!
//! ## Determinism
//!
//! [`quantize_to_i8`] performs the identical IEEE-754 operation sequence
//! per lane (`(x·inv + C) − C` magic-number rounding, then clamp, then NaN
//! to `0`), so every level returns [`quantize_lane`]'s code for every
//! input, NaN and ±∞ included — `tests/int8_equivalence.rs` enforces it
//! at every reachable dispatch level.

use crate::SimdLevel;

/// The magic constant for branch-free round-to-nearest-even:
/// `(v + C) − C` rounds any `|v| < 2²²` to the nearest integer-valued
/// `f32` (ties to even), because the addition forces the sum into
/// `[2²³, 2²⁴)` where the `f32` grid spacing is exactly 1.
const ROUND_MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³

/// One lane of [`quantize_to_i8`] as an `f32`, the code exactly — the
/// operation sequence every level reproduces: scale, magic-number round
/// (ties to even), clamp to the symmetric int8 range `[-127, 127]`. A NaN
/// (from `x` or from `x · inv_scale`, as in `∞ · 0`) gives `0`; `±∞`
/// saturates to `±127`. A zero code is `+0.0`: `(v + C) − C` is never
/// `−0.0`.
#[inline(always)]
pub fn quantize_lane(x: f32, inv_scale: f32) -> f32 {
    let r = ((x * inv_scale + ROUND_MAGIC) - ROUND_MAGIC).clamp(-127.0, 127.0);
    // NaN passes the clamp
    if r.is_nan() {
        0.0
    } else {
        r
    }
}

mod g {
    //! Generic (scalar-shaped) kernel body. The scalar wrapper calls it
    //! directly; the vector wrappers re-implement the same operation
    //! sequence with intrinsics.

    use super::quantize_lane;

    #[inline(always)]
    pub fn quantize_to_i8(dst: &mut [i8], src: &[f32], inv_scale: f32) {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = quantize_lane(x, inv_scale) as i8;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Hand-written SSE2/AVX2 quantization kernels. The `f32` kernels
    //! share one generic body over `SimdF32`, but narrowing `i32` lanes to
    //! `i8` has no portable shape — the packs differ structurally between
    //! ISAs — so each level is written out against the exactness contract
    //! in the module docs.

    use super::{quantize_lane, ROUND_MAGIC};
    use std::arch::x86_64::*;

    /// SSE2 quantization: same `(x·inv + C) − C` / clamp sequence as the
    /// scalar lane, 4 lanes at a time, narrowed through `i32`. `maxps`
    /// turns a NaN lane into `-127`, so the ordered mask zeroes it, as the
    /// scalar lane does.
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
            let c = _mm_and_ps(c, _mm_cmpord_ps(r, r));
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
            *dst.get_unchecked_mut(i) = quantize_lane(*src.get_unchecked(i), inv_scale) as i8;
            i += 1;
        }
    }

    /// AVX2 quantization: 8 lanes at a time, narrowed through `i32` with
    /// in-lane packs + a permute to restore order; NaN lanes are zeroed
    /// like the SSE2 body's.
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
            let c = _mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(r, r));
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
            *dst.get_unchecked_mut(i) = quantize_lane(*src.get_unchecked(i), inv_scale) as i8;
            i += 1;
        }
    }
}

/// Quantizes `src` into `dst`: `dst[i] = clamp(round(src[i] · inv_scale))`
/// with round-to-nearest-even and the symmetric int8 range `[-127, 127]`
/// (`-128` is never produced, so negation stays in range).
///
/// Every element gets [`quantize_lane`]'s code at every dispatch level
/// and slice position (every level runs the same IEEE operation sequence
/// per lane): NaN gives `0` and `±∞` saturates to `±127`.
///
/// # Panics
///
/// Panics if `dst` and `src` differ in length.
pub fn quantize_to_i8(dst: &mut [i8], src: &[f32], inv_scale: f32) {
    assert_eq!(dst.len(), src.len(), "quantize_to_i8: length mismatch");
    // SAFETY: `SimdLevel::active()` never exceeds the detected CPU
    // features, so each `#[target_feature]` wrapper only runs on hardware
    // that has its ISA.
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
