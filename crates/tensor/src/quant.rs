//! The int8/f16 precision tier: quantized weight storage ([`QTensor`]),
//! the int8 GEMM on the packed `f32` core ([`gemm_i8`]) and its conv form
//! ([`gemm_i8_patches`]), and software `f32 ↔ f16` bit conversion (no
//! half-precision hardware or external crates required).
//!
//! # Quantization scheme
//!
//! Per-channel **symmetric** int8: each row (output channel) of a 2-D
//! weight matrix gets one `f32` scale `s = absmax / 127`, and codes are
//! `q = round(x / s)` clamped to `[-127, 127]` (the code `-128` is never
//! produced, so negation is always representable and `|q·s| ≤ absmax`).
//! Rounding is round-to-nearest-even via `qn_simd::quantize_to_i8`, which
//! is **bit-identical at every dispatch level** — quantizing a model on an
//! AVX2 box and on a scalar box produces the same codes.
//!
//! The per-element reconstruction error is at most `s/2` plus the f32
//! rounding of `x·(1/s)` (≤ a few ULP); the property suite bounds it by
//! `s · 0.5001`.
//!
//! # Determinism of [`gemm_i8`]
//!
//! [`gemm_i8`] widens both int8 operands to `f32` as it packs them and runs
//! the `f32` GEMM band loop. Every product of two codes is an integer of
//! magnitude at most `128² = 2¹⁴`, and every partial sum of at most
//! [`GEMM_I8_MAX_K`] of them is an integer of magnitude at most `2²⁴`, so
//! each is exact in `f32`: the accumulator equals the integer sum
//! (integer-accumulated per-channel inference, Jacob et al.,
//! arXiv:1712.05877), whatever the SIMD level, band split or thread count.
//! The epilogue multiplies it by the two scales in one fixed order, so
//! [`gemm_i8`] is **bit-identical** to its `i32` specification
//! [`gemm_i8_reference`] across dispatch levels and thread counts.
//!
//! [`gemm_i8_patches`] quantizes each image once into its zero-padded
//! planes under a frozen scale, and each tile row as it packs from the
//! padded `f32` planes under per-row scales: every code equals the one
//! `qn_simd::quantize_to_i8` gives the im2col row at the row's scale (the
//! two share [`qn_simd::quantize_lane`]), so its output is, bit for bit,
//! [`gemm_i8`] over the codes of the [`im2col`](crate::im2col) rows, read
//! per image as `[N, OH·OW]` planes.
//!
//! # Accumulator range
//!
//! Every integer of magnitude at most `2²⁴` is an `f32`, and `2²⁴ + 1` is
//! not, so [`gemm_i8`] asserts `k ≤` [`GEMM_I8_MAX_K`] `= 2²⁴ / 2¹⁴ = 1024`.
//! The widest reduction of an int8 layer in the workspace is 576 (a 3×3
//! convolution over 64 channels). A layer wider than the bound has no
//! quantized form, so a model that holds one has no int8 twin and serves
//! in `f32`.

use crate::mat::{gemm_packed, patch_product, MatMut, MatRef};
use crate::{Conv2dSpec, Tensor, TensorError};

/// Largest inner dimension [`gemm_i8`] accepts: up to this every `f32`
/// partial sum of int8 products is exact (see module docs).
pub const GEMM_I8_MAX_K: usize = 1024;

// ---------------------------------------------------------------------------
// f16 bit conversion
// ---------------------------------------------------------------------------

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even.
///
/// Overflow goes to ±∞, underflow denormalizes and then flushes to ±0,
/// NaN stays NaN (quieted, payload truncated but never zeroed).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF {
        if man == 0 {
            return sign | 0x7C00; // ±∞
        }
        // NaN: carry the top payload bits, force at least one set so the
        // value stays a NaN after truncation.
        let payload = (man >> 13) as u16 & 0x3FF;
        return sign | 0x7C00 | if payload == 0 { 0x200 } else { payload };
    }
    let e = exp - 127 + 15; // re-biased binary16 exponent
    if e >= 31 {
        return sign | 0x7C00; // overflow → ±∞
    }
    if e <= 0 {
        if e < -10 {
            return sign; // too small for even a subnormal → ±0
        }
        // Subnormal: restore the implicit bit, shift into the 10-bit
        // field with round-to-nearest-even.
        let man = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let lsb = (man >> shift) & 1;
        let rounded = man + (1 << (shift - 1)) - 1 + lsb;
        return sign | (rounded >> shift) as u16;
    }
    // Normal: round the 23-bit mantissa to 10 bits (nearest-even); a
    // mantissa carry rolls into the exponent via the addition (and can
    // correctly produce ∞ at e == 30).
    let lsb = (man >> 13) & 1;
    let rounded = man + 0x0FFF + lsb;
    sign | (((e as u32) << 10) + (rounded >> 13)) as u16
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`.
///
/// Every finite f16 value is exact in f32, so
/// `f32_to_f16_bits(f16_bits_to_f32(h)) == h` for all `h` (NaN payloads
/// round-trip through the quieting in [`f32_to_f16_bits`]).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let negative = h & 0x8000 != 0;
    let exp = (h >> 10) & 0x1F;
    let man = (h & 0x3FF) as u32;
    let mag = match exp {
        // Subnormal (or zero): value = man · 2⁻²⁴, exact as an f32
        // integer times a power of two.
        0 => man as f32 * f32::from_bits(0x3380_0000),
        31 => {
            if man == 0 {
                f32::INFINITY
            } else {
                // Quiet NaN carrying the payload in the top mantissa bits.
                let sign = ((h as u32) & 0x8000) << 16;
                return f32::from_bits(sign | 0x7FC0_0000 | (man << 13));
            }
        }
        _ => f32::from_bits(((exp as u32 + 112) << 23) | (man << 13)),
    };
    if negative {
        -mag
    } else {
        mag
    }
}

/// Encodes a slice to binary16, round-to-nearest-even per element.
pub fn encode_f16(src: &[f32]) -> Vec<u16> {
    src.iter().map(|&x| f32_to_f16_bits(x)).collect()
}

/// Decodes binary16 bits back to `f32` (exact per element).
pub fn decode_f16(src: &[u16]) -> Vec<f32> {
    src.iter().map(|&h| f16_bits_to_f32(h)).collect()
}

/// An immutable stride-aware view of int8 codes: the [`MatRef`] of the
/// quantized operands. [`transpose`](MatRef::transpose) is a stride swap,
/// zero-copy, so a row-major `[n, k]` weight is a `[k, n]` right operand.
pub type MatRefI8<'a> = MatRef<'a, i8>;

// ---------------------------------------------------------------------------
// QTensor
// ---------------------------------------------------------------------------

/// A 2-D tensor stored as int8 codes with one symmetric `f32` scale per
/// row (per output channel): `value[i, j] ≈ data[i, j] · scales[i]`.
///
/// Weight memory is `rows·cols` bytes plus `4·rows` scale bytes — ~3.9×
/// smaller than f32 at ResNet-20 shapes. Codes lie in `[-127, 127]`.
///
/// # Example
///
/// ```
/// use qn_tensor::{QTensor, Tensor};
///
/// let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 4.0], &[2, 2]).unwrap();
/// let q = QTensor::quantize(&w);
/// let back = q.dequantize();
/// for (a, b) in w.data().iter().zip(back.data()) {
///     assert!((a - b).abs() <= q.scales().iter().cloned().fold(0.0, f32::max) * 0.5001);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct QTensor {
    data: Vec<i8>,
    scales: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl QTensor {
    /// Quantizes a 2-D tensor with per-row absmax calibration:
    /// `scale[i] = absmax(row i) / 127`. An all-zero row gets scale `0`
    /// and all-zero codes (dequantizing to exact zeros).
    ///
    /// Codes are produced by `qn_simd::quantize_to_i8`, bit-identical at
    /// every dispatch level.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not 2-D or holds non-finite values.
    pub fn quantize(t: &Tensor) -> QTensor {
        assert_eq!(t.ndim(), 2, "QTensor::quantize requires a 2-D tensor");
        let (rows, cols) = t.dims2();
        Self::quantize_rows(t.data(), rows, cols)
    }

    /// Quantizes a flat row-major `[rows, cols]` slice (the shape-free
    /// core of [`QTensor::quantize`], used by module quantizers that view
    /// conv weights as `[out_channels, patch]`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or any value is non-finite.
    pub fn quantize_rows(data: &[f32], rows: usize, cols: usize) -> QTensor {
        assert_eq!(
            data.len(),
            rows * cols,
            "QTensor: {} elements cannot hold {rows}x{cols}",
            data.len()
        );
        let mut codes = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        for i in 0..rows {
            let row = &data[i * cols..(i + 1) * cols];
            let mut absmax = 0.0f32;
            for &x in row {
                assert!(x.is_finite(), "QTensor: non-finite weight {x}");
                let a = x.abs();
                if a > absmax {
                    absmax = a;
                }
            }
            if absmax > 0.0 {
                scales[i] = absmax / 127.0;
                qn_simd::quantize_to_i8(&mut codes[i * cols..(i + 1) * cols], row, 127.0 / absmax);
            }
            // absmax == 0: scale stays 0, codes stay 0.
        }
        QTensor {
            data: codes,
            scales,
            rows,
            cols,
        }
    }

    /// Rebuilds a `QTensor` from stored parts (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidCheckpoint`] if the lengths don't
    /// match the shape.
    pub fn from_parts(
        data: Vec<i8>,
        scales: Vec<f32>,
        rows: usize,
        cols: usize,
    ) -> Result<QTensor, TensorError> {
        if data.len() != rows * cols || scales.len() != rows {
            return Err(TensorError::InvalidCheckpoint {
                offset: 0,
                detail: format!(
                    "QTensor parts mismatch: {} codes + {} scales for {rows}x{cols}",
                    data.len(),
                    scales.len()
                ),
            });
        }
        Ok(QTensor {
            data,
            scales,
            rows,
            cols,
        })
    }

    /// Reconstructs the f32 tensor `codes[i, j] · scales[i]`.
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for i in 0..self.rows {
            let s = self.scales[i];
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &q) in out[i * self.cols..(i + 1) * self.cols].iter_mut().zip(row) {
                *o = q as f32 * s;
            }
        }
        Tensor::from_vec(out, &[self.rows, self.cols]).expect("shape consistent")
    }

    /// Zero-copy int8 view of the codes.
    pub fn mat(&self) -> MatRefI8<'_> {
        MatRefI8::new(&self.data, self.rows, self.cols)
    }

    /// The raw codes, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row scales (`rows` entries).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored bytes: one per code plus four per row scale.
    pub fn weight_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// Bytes the same matrix occupies in f32.
    pub fn f32_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }
}

// ---------------------------------------------------------------------------
// gemm_i8
// ---------------------------------------------------------------------------

/// Int8 matrix product with f32 requantize epilogue:
/// `C[i, j] = (Σₚ A[i, p]·B[p, j]) · sa[i] · sb[j]`, `C` fully
/// overwritten.
///
/// `sa` holds A's per-row scales (length `m`), `sb` holds B's per-column
/// scales (length `n`); for the canonical `x · Wᵀ` layer product, pass
/// the activation row scales as `sa` and the weight per-channel scales
/// as `sb` (B being the transposed weight view, its columns are weight
/// rows). The sums run through the packed `f32` band loop of
/// [`gemm`](crate::gemm),
/// exact for int8 codes (see module docs); one pass then scales each in
/// the fixed order `(acc · sa[i]) · sb[j]`.
///
/// **Bit-identical** to [`gemm_i8_reference`] across dispatch levels and
/// thread counts.
///
/// # Panics
///
/// Panics on dimension mismatch, scale-length mismatch, or
/// `k > GEMM_I8_MAX_K` (the exactness bound).
pub fn gemm_i8(c: MatMut<'_>, a: MatRefI8<'_>, b: MatRefI8<'_>, sa: &[f32], sb: &[f32]) {
    let k = a.cols();
    let (cdata, m, n, row_stride) = c.into_raw();
    assert_eq!(a.rows(), m, "gemm_i8: a has {} rows, c has {m}", a.rows());
    assert_eq!(
        b.rows(),
        k,
        "gemm_i8: a is {m}x{k} but b has {} rows",
        b.rows()
    );
    assert_eq!(b.cols(), n, "gemm_i8: b has {} cols, c has {n}", b.cols());
    assert_eq!(
        sa.len(),
        m,
        "gemm_i8: sa has {} scales for {m} rows",
        sa.len()
    );
    assert_eq!(
        sb.len(),
        n,
        "gemm_i8: sb has {} scales for {n} cols",
        sb.len()
    );
    assert!(
        k <= GEMM_I8_MAX_K,
        "gemm_i8: k = {k} exceeds the exactness bound {GEMM_I8_MAX_K}"
    );
    if m == 0 || n == 0 {
        return;
    }
    gemm_packed(MatMut::with_row_stride(cdata, m, n, row_stride), a, b);
    for (crow, &si) in cdata.chunks_mut(row_stride).zip(sa) {
        for (o, &sj) in crow[..n].iter_mut().zip(sb) {
            *o = *o * si * sj;
        }
    }
}

/// How an int8 product quantizes its activation rows: the per-row
/// symmetric scheme of `qn-nn`'s quantized layers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ActScale {
    /// Every row shares one calibrated scale `s > 0`: codes
    /// `round(x · (1/s))`, saturating at ±127, sums scaled by `s`.
    Frozen(f32),
    /// Each row by its own absmax `a` (NaN skipped): codes
    /// `round(x · (127/a))`, sums scaled by `a/127`. A row whose absmax is
    /// `0` or not finite gets all-zero codes and scale `0`.
    PerRow,
}

/// Int8 convolution on a patch operand: `out[i] ← (q(patches(x[i])) · b)ᵀ`
/// with each sum scaled as `(acc · sa[r]) · sb[j]`, for every image of the
/// NCHW `f32` input `x`. `b` is `[C·K·K, N]` int8 (the transposed
/// `[N, C·K·K]` weight view), `sb` its per-column scales, `out`
/// `[B, N, OH·OW]` (fully overwritten).
///
/// The patches are never materialized: every tile packs from the image's
/// zero-padded planes through [`gemm_patches`](crate::gemm_patches)' band
/// loop, each row quantized by its `act` scale (`sa[r]`). Under one frozen
/// scale each image is quantized once, as it is copied into the planes;
/// per-row scales come from each pixel's absmax over the channels and
/// then each row's largest over its window, and quantize the tile rows as
/// they pack. The transposed store applies the scales. The output equals
/// [`gemm_i8`] over the `quantize_to_i8` codes of the
/// [`im2col`](crate::im2col) rows in every bit, at every SIMD level and
/// thread count.
///
/// Returns the largest patch-row absmax under [`ActScale::PerRow`] (`∞`
/// if a row holds one), else `0.0`: what a dynamic layer folds into its
/// observed range.
///
/// # Panics
///
/// Panics if `x` is not 4-D, `b` does not have `C·K·K` rows, `sb` does
/// not hold `N` scales, `out` does not hold `B·N·OH·OW` floats, or
/// `C·K·K > GEMM_I8_MAX_K`.
pub fn gemm_i8_patches(
    out: &mut [f32],
    x: &Tensor,
    spec: Conv2dSpec,
    b: MatRefI8<'_>,
    sb: &[f32],
    act: ActScale,
) -> f32 {
    assert_eq!(
        sb.len(),
        b.cols(),
        "gemm_i8_patches: sb has {} scales for {} cols",
        sb.len(),
        b.cols()
    );
    assert!(
        b.rows() <= GEMM_I8_MAX_K,
        "gemm_i8_patches: k = {} exceeds the exactness bound {GEMM_I8_MAX_K}",
        b.rows()
    );
    patch_product("gemm_i8_patches", out, x, spec, b, Some((sb, act)))
}

/// The executable specification of [`gemm_i8`]: a plain sequential
/// triple loop with scalar i32 accumulation and the identical epilogue
/// order. Test-only reference, mirroring [`crate::mat::reference`].
pub fn gemm_i8_reference(
    out: &mut [f32],
    a: MatRefI8<'_>,
    b: MatRefI8<'_>,
    sa: &[f32],
    sb: &[f32],
) {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    assert_eq!(out.len(), m * n, "gemm_i8_reference: output length");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += a.at(i, p) as i32 * b.at(p, j) as i32;
            }
            out[i * n + j] = acc as f32 * sa[i] * sb[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // f16 max
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00); // rounds to ∞
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert_eq!(f32_to_f16_bits(5.960_464_5e-8), 0x0001); // min subnormal
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000); // flushes
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and the next f16
        // (1 + 2⁻¹⁰); the tie goes to the even mantissa (1.0).
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_281_25), 0x3C00);
        // 1 + 3·2⁻¹¹ is halfway between odd and even; goes up to even.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 0.000_488_281_25), 0x3C02);
    }

    #[test]
    fn f16_roundtrip_is_identity_on_all_finite_f16() {
        for h in 0u16..=0xFFFF {
            let exp = (h >> 10) & 0x1F;
            if exp == 31 {
                continue; // ∞/NaN handled separately
            }
            let x = f16_bits_to_f32(h);
            assert_eq!(f32_to_f16_bits(x), h, "h = {h:#06x} → {x}");
        }
    }

    #[test]
    fn f16_decode_encode_slices() {
        let xs = vec![0.5, -1.25, 3.0e4, 1.0e-5];
        let back = decode_f16(&encode_f16(&xs));
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_error_is_bounded_by_half_scale() {
        let mut rng = Rng::seed_from(5);
        let t = Tensor::randn(&[7, 33], &mut rng);
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        for i in 0..7 {
            let bound = q.scales()[i] * 0.5001;
            for j in 0..33 {
                let d = (t.get(&[i, j]) - back.get(&[i, j])).abs();
                assert!(d <= bound, "row {i}: err {d} > {bound}");
            }
        }
    }

    #[test]
    fn zero_row_gets_zero_scale_and_exact_zeros() {
        let t = Tensor::from_vec(vec![0.0, 0.0, 1.0, -3.0], &[2, 2]).unwrap();
        let q = QTensor::quantize(&t);
        assert_eq!(q.scales()[0], 0.0);
        assert_eq!(&q.data()[..2], &[0, 0]);
        assert_eq!(q.dequantize().get(&[0, 0]), 0.0);
        // absmax hits the ±127 codes exactly
        assert_eq!(q.data()[3], -127);
    }

    #[test]
    fn weight_bytes_report_compression() {
        let q = QTensor::quantize(&Tensor::ones(&[16, 144]));
        assert_eq!(q.weight_bytes(), 16 * 144 + 16 * 4);
        assert_eq!(q.f32_bytes(), 16 * 144 * 4);
        assert!(q.f32_bytes() as f64 / q.weight_bytes() as f64 > 3.5);
    }

    #[test]
    fn gemm_i8_matches_reference_all_layouts() {
        let mut rng = Rng::seed_from(17);
        let (m, k, n) = (13, 29, 11);
        let a: Vec<i8> = (0..m * k)
            .map(|_| rng.uniform(-127.0, 127.0) as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|_| rng.uniform(-127.0, 127.0) as i8)
            .collect();
        let sa: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 1e-3).collect();
        let sb: Vec<f32> = (0..n).map(|j| 0.02 + j as f32 * 1e-3).collect();
        let av = MatRefI8::new(&a, m, k);
        // b stored as [n, k] row-major, viewed transposed (weight layout)
        let bt = MatRefI8::new(&b, n, k).transpose();
        let mut want = vec![0.0f32; m * n];
        gemm_i8_reference(&mut want, av, bt, &sa, &sb);
        let mut got = vec![0.0f32; m * n];
        gemm_i8(MatMut::new(&mut got, m, n), av, bt, &sa, &sb);
        assert_eq!(got, want, "transposed-B (weight view)");
        // b stored row-major [k, n]
        let bk: Vec<i8> = (0..k * n)
            .map(|_| rng.uniform(-127.0, 127.0) as i8)
            .collect();
        let bv = MatRefI8::new(&bk, k, n);
        gemm_i8_reference(&mut want, av, bv, &sa, &sb);
        gemm_i8(MatMut::new(&mut got, m, n), av, bv, &sa, &sb);
        assert_eq!(got, want, "row-major B");
    }

    #[test]
    fn gemm_i8_k_zero_zero_fills() {
        let mut out = vec![7.0f32; 6];
        gemm_i8(
            MatMut::new(&mut out, 2, 3),
            MatRefI8::new(&[], 2, 0),
            MatRefI8::new(&[], 0, 3),
            &[1.0, 1.0],
            &[1.0, 1.0, 1.0],
        );
        assert_eq!(out, [0.0; 6]);
    }

    #[test]
    fn gemm_i8_strided_destination_leaves_gap() {
        let a = [1i8, 0, 0, 1];
        let b = [5i8, 6, 7, 8];
        let mut out = vec![-1.0f32; 8];
        gemm_i8(
            MatMut::with_row_stride(&mut out, 2, 2, 4),
            MatRefI8::new(&a, 2, 2),
            MatRefI8::new(&b, 2, 2).transpose().transpose(),
            &[1.0, 1.0],
            &[1.0, 1.0],
        );
        assert_eq!(out, [5.0, 6.0, -1.0, -1.0, 7.0, 8.0, -1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "gemm_i8: a is")]
    fn gemm_i8_dim_mismatch_panics() {
        let mut out = vec![0.0f32; 4];
        gemm_i8(
            MatMut::new(&mut out, 2, 2),
            MatRefI8::new(&[0; 6], 2, 3),
            MatRefI8::new(&[0; 8], 4, 2),
            &[1.0; 2],
            &[1.0; 2],
        );
    }
}
