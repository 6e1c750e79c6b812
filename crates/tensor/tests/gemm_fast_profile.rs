//! The GEMM's profile contract, exercised at every reachable dispatch
//! level (own integration binary: `force_profile`/`force_level` are
//! process-global, so these tests serialize on one mutex and restore state
//! before releasing it). Both profiles run the same vector micro-kernel.
//!
//! - `Exact` (the default) runs vector code only where every lane computes
//!   the seed's scalar expression — here an unfused multiply then add per
//!   step of a sequential k-chain — so it must stay bit-identical to the
//!   seed kernels at **any** forced SIMD level, zero-heavy and non-finite
//!   operands included (NaN compared by NaN-ness).
//! - `Fast` adds FMA fusing (and, in other kernels, reassociated
//!   reductions and polynomial `exp`); the GEMM's per-lane k-chains stay
//!   strictly sequential, so outputs stay within a tight relative
//!   tolerance of the reference at every level.
//! - Small/skinny products ride the strided fallback under both profiles
//!   and must remain bit-exact even under `Fast`.
//! - Row-band parallelism never changes bits within a profile.

use qn_tensor::{reference, Rng, Tensor};
use std::sync::Mutex;

static STATE_LOCK: Mutex<()> = Mutex::new(());

fn with_profile_level<R>(
    profile: qn_simd::KernelProfile,
    level: qn_simd::SimdLevel,
    f: impl FnOnce() -> R,
) -> R {
    let prev_p = qn_simd::force_profile(profile);
    let prev_l = qn_simd::force_level(level);
    let r = f();
    qn_simd::force_level(prev_l);
    qn_simd::force_profile(prev_p);
    r
}

/// Causal attention probabilities `[t, t]`: row `i` attends to keys
/// `0..=i`, so the upper triangle is zero.
fn causal_probs(t: usize, rng: &mut Rng) -> Tensor {
    let mut p = Tensor::rand_uniform(&[t, t], 0.0, 1.0, rng);
    for (i, row) in p.data_mut().chunks_mut(t).enumerate() {
        row[i + 1..].fill(0.0);
    }
    p
}

/// ResNet-20 im2col-shaped product (`matmul_transb`), a plain square
/// matmul, a causal attention-probability product (`0 × finite` terms)
/// and one whose B has a NaN row and an ∞ row (`0 × NaN`, `0 × ∞`).
fn products(rng: &mut Rng) -> Vec<(Tensor, Tensor, bool)> {
    vec![
        // stage-2 im2col shape (crosses packing + parallel thresholds)
        (
            Tensor::randn(&[256, 288], rng),
            Tensor::randn(&[32, 288], rng),
            true,
        ),
        // square attention-like product
        (
            Tensor::randn(&[64, 64], rng),
            Tensor::randn(&[64, 64], rng),
            false,
        ),
        // probabilities · values
        (causal_probs(64, rng), Tensor::randn(&[64, 32], rng), false),
        (
            causal_probs(64, rng),
            {
                let mut b = Tensor::randn(&[64, 32], rng);
                b.data_mut()[5 * 32..6 * 32].fill(f32::NAN);
                b.data_mut()[40 * 32..41 * 32].fill(f32::INFINITY);
                b
            },
            false,
        ),
    ]
}

/// Bit-identical for every non-NaN value, positional NaN-for-NaN otherwise
/// (NaN payloads and signs are outside the determinism contract).
fn bit_identical_nan_aware(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn run(a: &Tensor, b: &Tensor, transb: bool) -> Tensor {
    if transb {
        a.matmul_transb(b)
    } else {
        a.matmul(b)
    }
}

fn seed(a: &Tensor, b: &Tensor, transb: bool) -> Tensor {
    if transb {
        reference::matmul_transb(a, b)
    } else {
        reference::matmul(a, b)
    }
}

#[test]
fn exact_profile_is_bit_identical_at_every_level() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(41);
    for (a, b, transb) in products(&mut rng) {
        let expect = seed(&a, &b, transb);
        for level in qn_simd::available_levels() {
            let got =
                with_profile_level(qn_simd::KernelProfile::Exact, level, || run(&a, &b, transb));
            assert!(
                bit_identical_nan_aware(&got, &expect),
                "Exact profile must not depend on the SIMD level ({level:?})"
            );
        }
    }
}

#[test]
fn fast_profile_stays_within_tolerance_at_every_level() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(42);
    for (a, b, transb) in products(&mut rng) {
        let expect = seed(&a, &b, transb);
        for level in qn_simd::available_levels() {
            let got =
                with_profile_level(qn_simd::KernelProfile::Fast, level, || run(&a, &b, transb));
            for (g, e) in got.data().iter().zip(expect.data()) {
                let close = g == e || (g - e).abs() <= 1e-4 * (1.0 + e.abs());
                assert!(
                    close || (g.is_nan() && e.is_nan()),
                    "Fast({level:?}) drifted beyond the tolerance tier: {g} vs {e}"
                );
            }
        }
    }
}

#[test]
fn fast_profile_fallback_products_stay_bit_exact() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(43);
    // below the packing threshold: both profiles take the strided fallback
    let a = Tensor::randn(&[3, 9], &mut rng);
    let b = Tensor::randn(&[9, 5], &mut rng);
    let expect = reference::matmul(&a, &b);
    for level in qn_simd::available_levels() {
        let got = with_profile_level(qn_simd::KernelProfile::Fast, level, || a.matmul(&b));
        assert!(
            got.bit_identical(&expect),
            "small products must be identical across profiles ({level:?})"
        );
    }
}

#[test]
fn fast_profile_is_thread_count_invariant() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(44);
    let a = Tensor::randn(&[192, 160], &mut rng);
    let b = Tensor::randn(&[160, 96], &mut rng);
    let level = qn_simd::SimdLevel::active();
    let (free, capped) = with_profile_level(qn_simd::KernelProfile::Fast, level, || {
        (
            a.matmul(&b),
            qn_parallel::with_max_threads(1, || a.matmul(&b)),
        )
    });
    assert!(
        free.bit_identical(&capped),
        "row-band split must not change bits under Fast"
    );
}
