//! Property suites for the int8 quantization tier:
//!
//! - quantize→dequantize error is bounded by half a quantization step per
//!   element (per-channel symmetric absmax: step = channel absmax / 127),
//! - `gemm_i8` is **bit-identical** to its sequential scalar reference at
//!   every dispatch level reachable on this host, for plain row-major and
//!   transposed-weight B, from the empty sum (`k = 0`) to the exactness
//!   bound (`k = GEMM_I8_MAX_K`) and across the multi-band parallel split,
//! - f16 round-trips keep half-precision accuracy and survive a second
//!   encode bit-exactly.
//!
//! `force_level` is process-global, so level-sweeping cases serialize on
//! one mutex (the test harness runs cases on threads).

use proptest::prelude::*;
use qn_tensor::{
    decode_f16, encode_f16, f16_bits_to_f32, f32_to_f16_bits, gemm_i8, gemm_i8_reference, MatMut,
    MatRefI8, QTensor, Tensor, GEMM_I8_MAX_K,
};
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn for_each_level(
    mut f: impl FnMut(qn_simd::SimdLevel) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev = qn_simd::SimdLevel::active();
    let mut result = Ok(());
    for level in qn_simd::available_levels() {
        qn_simd::force_level(level);
        result = f(level);
        if result.is_err() {
            break;
        }
    }
    qn_simd::force_level(prev);
    result
}

/// `gemm_i8` on `[m, k] × [k, n]` codes against `gemm_i8_reference`, bit
/// for bit, at every level, at the pool's thread count and at one thread.
fn check_gemm_i8(
    (m, k, n): (usize, usize, usize),
    a: &[i8],
    b: &[i8],
    sa: &[f32],
    sb: &[f32],
) -> Result<(), TestCaseError> {
    let (av, bv) = (MatRefI8::new(a, m, k), MatRefI8::new(b, k, n));
    let mut expect = vec![0.0f32; m * n];
    gemm_i8_reference(&mut expect, av, bv, sa, sb);
    for_each_level(|level| {
        for threads in [qn_parallel::num_threads(), 1] {
            let mut got = vec![f32::NAN; m * n];
            qn_parallel::with_max_threads(threads, || {
                gemm_i8(MatMut::new(&mut got, m, n), av, bv, sa, sb)
            });
            for (g, e) in got.iter().zip(&expect) {
                prop_assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "gemm_i8 {}x{}x{} @ {:?}, {} threads",
                    m,
                    k,
                    n,
                    level,
                    threads
                );
            }
        }
        Ok(())
    })
}

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-4.0f32..4.0, n)
}

fn codes(n: usize) -> impl Strategy<Value = Vec<i8>> {
    prop::collection::vec(-128i8..127, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-channel absmax quantization keeps every element within half a
    /// step of the original: `|deq − orig| ≤ scale/2`, `scale = absmax/127`
    /// per row. Also pins the invariants the bound rests on: codes stay in
    /// `[−127, 127]` and each row's scale is its absmax over 127.
    #[test]
    fn quantize_dequantize_error_is_half_step(
        rows in 1usize..8, cols in 1usize..33, data in vals(8 * 32)
    ) {
        let data = &data[..rows * cols];
        let q = QTensor::quantize_rows(data, rows, cols);
        prop_assert_eq!(q.rows(), rows);
        prop_assert_eq!(q.cols(), cols);
        prop_assert!(q.data().iter().all(|&c| (-127..=127).contains(&(c as i32))));
        let deq = q.dequantize();
        for i in 0..rows {
            let row = &data[i * cols..(i + 1) * cols];
            let absmax = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = q.scales()[i];
            if absmax == 0.0 {
                prop_assert_eq!(scale, 0.0, "all-zero row must get scale 0");
            } else {
                prop_assert!((scale - absmax / 127.0).abs() <= absmax * 1e-6);
            }
            // half-step bound, with a sliver of slack for the two float
            // roundings (×inv_scale then ×scale)
            let bound = scale * 0.5 + absmax * 1e-5;
            for (j, &x) in row.iter().enumerate() {
                let err = (deq.data()[i * cols + j] - x).abs();
                prop_assert!(
                    err <= bound,
                    "row {i} col {j}: |{} - {x}| = {err} > {bound}",
                    deq.data()[i * cols + j]
                );
            }
        }
    }

    /// Storage accounting behind the ≥3.5× memory claim: int8 codes + one
    /// f32 scale per row, vs 4 bytes per element.
    #[test]
    fn weight_bytes_count_codes_plus_scales(rows in 1usize..8, cols in 1usize..33) {
        let data = vec![1.0f32; rows * cols];
        let q = QTensor::quantize_rows(&data, rows, cols);
        prop_assert_eq!(q.weight_bytes(), rows * cols + rows * 4);
        prop_assert_eq!(q.f32_bytes(), rows * cols * 4);
    }

    /// `gemm_i8` against the sequential scalar reference, bit-exact at
    /// every dispatch level, on the **packed** path (plain row-major B is
    /// not column-contiguous, so the kernel packs Bᵀ first).
    #[test]
    fn gemm_i8_matches_reference_at_every_level(
        m in 0usize..6, k in 0usize..24, n in 0usize..6,
        a in codes(6 * 24), b in codes(24 * 6),
        sa in vals(6), sb in vals(6)
    ) {
        let av = MatRefI8::new(&a[..m * k], m, k);
        let bv = MatRefI8::new(&b[..k * n], k, n);
        let mut expect = vec![0.0f32; m * n];
        gemm_i8_reference(&mut expect, av, bv, &sa[..m], &sb[..n]);
        for_each_level(|level| {
            let mut got = vec![f32::NAN; m * n];
            gemm_i8(MatMut::new(&mut got, m, n), av, bv, &sa[..m], &sb[..n]);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert_eq!(g.to_bits(), e.to_bits(), "gemm_i8 @ {:?}", level);
            }
            Ok(())
        })?;
    }

    /// The pack-free weight path — `B = Wᵀ` as a stride-swapped view of a
    /// row-major `[n, k]` weight — gives the same bits as the packed path
    /// and the reference, at every level.
    #[test]
    fn gemm_i8_transposed_weight_view_is_bit_exact(
        m in 1usize..6, k in 1usize..24, n in 1usize..6,
        a in codes(6 * 24), w in codes(6 * 24),
        sa in vals(6), sb in vals(6)
    ) {
        let av = MatRefI8::new(&a[..m * k], m, k);
        let bt = MatRefI8::new(&w[..n * k], n, k).transpose(); // [k, n], col-contiguous
        let mut expect = vec![0.0f32; m * n];
        gemm_i8_reference(&mut expect, av, bt, &sa[..m], &sb[..n]);
        for_each_level(|level| {
            let mut got = vec![f32::NAN; m * n];
            gemm_i8(MatMut::new(&mut got, m, n), av, bt, &sa[..m], &sb[..n]);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert_eq!(g.to_bits(), e.to_bits(), "gemm_i8ᵀ @ {:?}", level);
            }
            Ok(())
        })?;
    }

    /// Products of at least `PAR_MIN_MACS = 32768` MACs split into one
    /// band of rows per pool thread; every split gives the reference bits.
    #[test]
    fn gemm_i8_band_split_matches_reference(
        m in 48usize..80, k in 48usize..96, n in 16usize..33,
        a in codes(80 * 96), b in codes(96 * 33),
        sa in vals(80), sb in vals(33)
    ) {
        prop_assert!(m * n * k >= 32 * 1024);
        check_gemm_i8((m, k, n), &a[..m * k], &b[..k * n], &sa[..m], &sb[..n])?;
    }

    /// A strided output (row_stride > n) only writes inside each row's
    /// first `n` lanes — the gutter survives untouched.
    #[test]
    fn gemm_i8_respects_output_row_stride(
        m in 1usize..5, k in 1usize..16, n in 1usize..5, pad in 1usize..4,
        a in codes(5 * 16), b in codes(16 * 5), sa in vals(5), sb in vals(5)
    ) {
        let av = MatRefI8::new(&a[..m * k], m, k);
        let bv = MatRefI8::new(&b[..k * n], k, n);
        let stride = n + pad;
        let mut out = vec![7.5f32; (m - 1) * stride + n + pad];
        gemm_i8(
            MatMut::with_row_stride(&mut out, m, n, stride),
            av, bv, &sa[..m], &sb[..n],
        );
        let mut expect = vec![0.0f32; m * n];
        gemm_i8_reference(&mut expect, av, bv, &sa[..m], &sb[..n]);
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(out[i * stride + j].to_bits(), expect[i * n + j].to_bits());
            }
            for g in n..(n + pad).min(out.len() - i * stride) {
                prop_assert_eq!(out[i * stride + g], 7.5, "gutter clobbered at ({i}, {g})");
            }
        }
    }

    /// f16 round-trip: half-precision accuracy for the normal range and
    /// **idempotence** — re-encoding the decoded value is bit-exact, so a
    /// checkpoint save→load→save cycle cannot drift.
    #[test]
    fn f16_roundtrip_is_accurate_and_idempotent(x in -4.0f32..4.0) {
        let bits = f32_to_f16_bits(x);
        let back = f16_bits_to_f32(bits);
        // half-ulp of f16 in [2, 4) is 2⁻¹⁰·2 ≈ 1.96e-3 relative; smaller
        // magnitudes only get finer. 6.1e-5 covers the subnormal floor.
        prop_assert!(
            (back - x).abs() <= x.abs() * 9.8e-4 + 6.1e-5,
            "f16 roundtrip {x} -> {back}"
        );
        prop_assert_eq!(f32_to_f16_bits(back), bits, "re-encode must be stable");
    }

    /// The slice encoders agree with the scalar converters elementwise.
    #[test]
    fn f16_slice_codec_matches_scalar(src in vals(37)) {
        let enc = encode_f16(&src);
        for (e, &x) in enc.iter().zip(&src) {
            prop_assert_eq!(*e, f32_to_f16_bits(x));
        }
        let dec = decode_f16(&enc);
        for (d, e) in dec.iter().zip(&enc) {
            prop_assert_eq!(d.to_bits(), f16_bits_to_f32(*e).to_bits());
        }
    }

    /// Quantizing via the `Tensor` entry point agrees with the raw-slice
    /// one (same codes, same scales) for any 2-D shape.
    #[test]
    fn qtensor_tensor_and_slice_entry_points_agree(
        rows in 1usize..6, cols in 1usize..17, data in vals(6 * 16)
    ) {
        let data = &data[..rows * cols];
        let t = Tensor::from_vec(data.to_vec(), &[rows, cols]).expect("shape");
        let qa = QTensor::quantize(&t);
        let qb = QTensor::quantize_rows(data, rows, cols);
        prop_assert_eq!(qa.data(), qb.data());
        prop_assert_eq!(qa.scales(), qb.scales());
    }
}

/// The widest exact reduction: `k = 1024` products of two `−128` codes sum
/// to exactly `2²⁴` in every output, and alternating `±127` codes whose
/// signs agree reach `1024 · 127²` through partial sums that all stay exact.
#[test]
fn gemm_i8_is_exact_at_k_max() {
    let (m, k, n) = (5, GEMM_I8_MAX_K, 9);
    let (sa, sb) = ([0.5, -0.25, 1.0, 3.0, -1.5], [1.0f32; 9]);
    let lowest = vec![-128i8; m.max(n) * k];
    let got = check_gemm_i8((m, k, n), &lowest[..m * k], &lowest[..k * n], &sa, &sb);
    got.expect("k = 1024 of −128 · −128");
    let sign = |p: usize| if p.is_multiple_of(2) { 127i8 } else { -127 };
    let a: Vec<i8> = (0..m * k).map(|i| sign(i % k)).collect();
    let b: Vec<i8> = (0..k * n).map(|i| sign(i / n)).collect();
    check_gemm_i8((m, k, n), &a, &b, &sa, &sb).expect("k = 1024 of ±127 · ±127");
    let mut out = [0.0f32; 45];
    let (av, bv) = (MatRefI8::new(&a, m, k), MatRefI8::new(&b, k, n));
    gemm_i8(MatMut::new(&mut out, m, n), av, bv, &sa, &sb);
    assert_eq!(out[0], (1024 * 127 * 127) as f32 * 0.5);
}

/// The empty sum is `0 · sa[i] · sb[j]`: `−0.0` where the two scales'
/// signs differ, as in the reference.
#[test]
fn gemm_i8_k_zero_scales_a_signed_zero() {
    let (sa, sb) = ([-0.5, 1.0], [2.0, -3.0, 0.0]);
    check_gemm_i8((2, 0, 3), &[], &[], &sa, &sb).expect("k = 0");
    let mut out = [7.0f32; 6];
    gemm_i8(
        MatMut::new(&mut out, 2, 3),
        MatRefI8::new(&[], 2, 0),
        MatRefI8::new(&[], 0, 3),
        &sa,
        &sb,
    );
    let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, [0x8000_0000, 0, 0x8000_0000, 0, 0x8000_0000, 0]);
}

#[test]
#[should_panic(expected = "exceeds the exactness bound")]
fn gemm_i8_rejects_k_past_the_bound() {
    let k = GEMM_I8_MAX_K + 1;
    let codes = vec![1i8; k];
    let mut out = [0.0f32; 1];
    gemm_i8(
        MatMut::new(&mut out, 1, 1),
        MatRefI8::new(&codes, 1, k),
        MatRefI8::new(&codes, k, 1),
        &[1.0],
        &[1.0],
    );
}
