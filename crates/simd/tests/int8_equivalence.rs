//! The int8 quantization kernel and the optimizer-update kernels against
//! their scalar references, at **every** dispatch level reachable on this
//! host.
//!
//! Like the f32 arithmetic kernels, everything in this file is
//! **bit-exact** at every level:
//!
//! - `quantize_to_i8` uses the magic-number round (identical IEEE op
//!   sequence per lane at every level), and gives every element the
//!   scalar lane's code, NaN (`0`) and ±∞ (`±127`) included, wherever it
//!   sits in the slice — in a vector body or in the scalar tail;
//! - `sgd_update`/`adam_update` are element-local with no FMA and
//!   correctly-rounded `divps`/`sqrtps`, so each lane reproduces the
//!   seed scalar loop exactly.
//!
//! `force_level` is process-global, so every test case serializes on one
//! mutex (the `cargo test` harness runs tests on threads).

use proptest::prelude::*;
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per reachable dispatch level with that level forced,
/// restoring the previous level afterwards.
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

/// Reference quantizer: the same magic-number round-to-nearest-even the
/// kernel documents, written as the plain scalar expression.
fn quantize_ref(src: &[f32], inv_scale: f32) -> Vec<i8> {
    const ROUND_MAGIC: f32 = 12_582_912.0;
    src.iter()
        .map(|&x| ((x * inv_scale + ROUND_MAGIC) - ROUND_MAGIC).clamp(-127.0, 127.0) as i8)
        .collect()
}

/// NaN gives code 0 and ±∞ saturates at every level, whether the value
/// sits in a vector body or in the tail after it.
#[test]
fn quantize_to_i8_agrees_on_non_finite_values_at_every_level() {
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let probe = [nan, inf, -inf, 1.0, 2.0, 3.0, 4.0, 5.0, nan];
    let ones = [1.0f32; 19];
    for_each_level(|level| {
        let mut dst = [9i8; 9];
        qn_simd::quantize_to_i8(&mut dst, &probe, 1.0);
        prop_assert_eq!(dst, [0, 127, -127, 1, 2, 3, 4, 5, 0], "probe @ {:?}", level);
        // each non-finite value at every position of a 19-element slice:
        // two AVX2 bodies, four SSE2 bodies and a 3-element tail
        for pos in 0..ones.len() {
            for (v, inv, code) in [
                (nan, 1.0, 0),
                (inf, 1.0, 127),
                (-inf, 1.0, -127),
                (inf, 0.0, 0),
                (2.0, f32::NAN, 0),
            ] {
                let mut src = ones;
                src[pos] = v;
                let mut dst = [9i8; 19];
                qn_simd::quantize_to_i8(&mut dst, &src, inv);
                prop_assert_eq!(
                    &dst[..],
                    &quantize_ref(&src, inv)[..],
                    "{} @ {:?}",
                    v,
                    level
                );
                prop_assert_eq!(dst[pos], code, "{} x {} at {} @ {:?}", v, inv, pos, level);
                prop_assert_eq!(dst[pos] as f32, qn_simd::quantize_lane(v, inv));
            }
        }
        Ok(())
    })
    .unwrap();
}

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `quantize_to_i8` produces identical codes at every level, matching
    /// the scalar magic-number reference (ties-to-even, clamped to ±127).
    #[test]
    fn quantize_to_i8_is_bit_exact_at_every_level(
        src in vals(133), inv_scale in 0.0f32..64.0
    ) {
        let expect = quantize_ref(&src, inv_scale);
        for_each_level(|level| {
            let mut dst = vec![0i8; src.len()];
            qn_simd::quantize_to_i8(&mut dst, &src, inv_scale);
            prop_assert_eq!(&dst, &expect, "quantize @ {:?}", level);
            Ok(())
        })?;
    }

    /// `sgd_update` reproduces the seed scalar momentum loop bit-for-bit
    /// at every level.
    #[test]
    fn sgd_update_is_bit_exact_at_every_level(
        value0 in vals(67), vel0 in vals(67), grad in vals(67),
        lr in 0.001f32..0.5, momentum in 0.0f32..0.99, wd in 0.0f32..0.1
    ) {
        let n = value0.len();
        // Seed scalar reference (the update loop in qn-nn).
        let mut value_ref = value0.clone();
        let mut vel_ref = vel0.clone();
        for i in 0..n {
            let g = grad[i] + wd * value_ref[i];
            let v = momentum * vel_ref[i] + g;
            vel_ref[i] = v;
            value_ref[i] -= lr * v;
        }
        for_each_level(|level| {
            let mut value = value0.clone();
            let mut vel = vel0.clone();
            qn_simd::sgd_update(&mut value, &mut vel, &grad, lr, momentum, wd);
            for i in 0..n {
                prop_assert!(value[i].to_bits() == value_ref[i].to_bits(),
                    "sgd value[{}] @ {:?}", i, level);
                prop_assert!(vel[i].to_bits() == vel_ref[i].to_bits(),
                    "sgd vel[{}] @ {:?}", i, level);
            }
            Ok(())
        })?;
    }

    /// `adam_update` reproduces the seed scalar Adam loop bit-for-bit at
    /// every level (correctly-rounded div/sqrt, no FMA).
    #[test]
    fn adam_update_is_bit_exact_at_every_level(
        value0 in vals(67), m0 in vals(67), v0a in vals(67), grad in vals(67),
        lr in 0.0001f32..0.01, t in 1u32..200
    ) {
        let n = value0.len();
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        // Second moments must be non-negative, as in a real run.
        let v0: Vec<f32> = v0a.iter().map(|x| x.abs()).collect();
        let mut value_ref = value0.clone();
        let mut m_ref = m0.clone();
        let mut v_ref = v0.clone();
        for i in 0..n {
            let g = grad[i];
            let mi = b1 * m_ref[i] + (1.0 - b1) * g;
            let vi = b2 * v_ref[i] + (1.0 - b2) * g * g;
            m_ref[i] = mi;
            v_ref[i] = vi;
            let mhat = mi / bias1;
            let vhat = vi / bias2;
            value_ref[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
        for_each_level(|level| {
            let mut value = value0.clone();
            let mut m = m0.clone();
            let mut v = v0.clone();
            qn_simd::adam_update(&mut value, &mut m, &mut v, &grad, lr, b1, b2, eps, bias1, bias2);
            for i in 0..n {
                prop_assert!(value[i].to_bits() == value_ref[i].to_bits(),
                    "adam value[{}] @ {:?}", i, level);
                prop_assert!(m[i].to_bits() == m_ref[i].to_bits(),
                    "adam m[{}] @ {:?}", i, level);
                prop_assert!(v[i].to_bits() == v_ref[i].to_bits(),
                    "adam v[{}] @ {:?}", i, level);
            }
            Ok(())
        })?;
    }
}
