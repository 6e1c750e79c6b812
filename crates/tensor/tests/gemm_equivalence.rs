//! Bit-equality of the packed GEMM core against the retained seed kernels
//! (`qn_tensor::reference`) — the executable contract of the PR that
//! collapsed the six matmul kernels into one core:
//!
//! - random shapes, including degenerate dims (`m`/`k`/`n` of zero),
//! - every transpose-flag combination (stride-swapped views, incl. Aᵀ·Bᵀ,
//!   which no seed kernel even offered),
//! - zero-heavy A (`±0` products must leave every bit unchanged) and
//!   non-finite B rows (`0 × NaN` must propagate),
//! - sizes below and above both the packing and the parallel thresholds,
//! - capped-to-one-thread vs. free thread count,
//! - every SIMD level reachable on this host, at the ResNet-20 im2col and
//!   transformer attention shapes.

use proptest::prelude::*;
use qn_tensor::{gemm, reference, MatMut, MatRef, Rng, Tensor};

/// Bit-identical for every non-NaN value, positional NaN-for-NaN otherwise.
///
/// NaN *payloads/signs* are outside the determinism contract: `f32`
/// addition is commutative, so the compiler may emit either operand order,
/// and when both operands are NaN the hardware keeps whichever comes first.
/// The seed kernels never pinned payloads either — PR 3's contract is that
/// NaN-ness propagates, which this still checks per element.
fn bit_identical_nan_aware(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn vals(numel: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, numel)
}

/// Builds a `rows × cols` tensor from the prefix of `data`, zeroing roughly
/// `zero_pct`% of the entries (deterministically, via a multiplicative
/// hash) so `±0` products get exercised.
fn build(data: &[f32], rows: usize, cols: usize, zero_pct: u32) -> Tensor {
    let v: Vec<f32> = data[..rows * cols]
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            if (i as u32).wrapping_mul(2654435761) % 100 < zero_pct {
                0.0
            } else {
                x
            }
        })
        .collect();
    Tensor::from_vec(v, &[rows, cols]).expect("test tensor")
}

/// Checks all three public entry points against the seed kernels, plus the
/// double-transpose view combination straight through `gemm`.
fn assert_all_variants(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    // a: [m, k], b: [k, n]. On finite data `bit_identical_nan_aware` is
    // exactly bit equality (no NaN can arise); with injected non-finites it
    // additionally accepts positional NaN-for-NaN (payloads are unpinned).
    let m = a.dims2().0;
    let n = b.dims2().1;
    prop_assert!(bit_identical_nan_aware(
        &a.matmul(b),
        &reference::matmul(a, b)
    ));

    // transa: store aᵀ as [k, m], multiply back
    let at = a.transpose2();
    prop_assert!(bit_identical_nan_aware(
        &at.matmul_transa(b),
        &reference::matmul_transa(&at, b)
    ));

    // transb: store bᵀ as [n, k], multiply back
    let bt = b.transpose2();
    prop_assert!(bit_identical_nan_aware(
        &a.matmul_transb(&bt),
        &reference::matmul_transb(a, &bt)
    ));

    // both transposed: gemm(aᵀ-view of at, bᵀ-view of bt) == a @ b
    let mut out = vec![0.0f32; m * n];
    gemm(
        MatMut::new(&mut out, m, n),
        at.mat().transpose(),
        bt.mat().transpose(),
    );
    let direct = Tensor::from_vec(out, &[m, n]).expect("gemm output");
    prop_assert!(bit_identical_nan_aware(&direct, &reference::matmul(a, b)));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small and degenerate shapes (incl. m/k/n = 0) stay on the strided
    /// fallback; k = 0 must zero-fill like the seed's empty accumulation.
    #[test]
    fn small_and_degenerate_shapes_match_seed(
        m in 0usize..7, k in 0usize..7, n in 0usize..7,
        a in vals(6 * 6), b in vals(6 * 6), zpct in 0u32..80
    ) {
        let ta = build(&a, m, k, zpct);
        let tb = build(&b, k, n, 0);
        assert_all_variants(&ta, &tb)?;
    }

    /// Shapes crossing the packing threshold (register-tiled path), with
    /// zero-heavy A so the block skip engages.
    #[test]
    fn packed_path_matches_seed(
        m in 4usize..33, k in 8usize..33, n in 8usize..33,
        a in vals(32 * 32), b in vals(32 * 32), zpct in 0u32..90
    ) {
        let ta = build(&a, m, k, zpct);
        let tb = build(&b, k, n, zpct / 2);
        assert_all_variants(&ta, &tb)?;
    }

    /// Non-finite rows of B must disable the skip in both implementations:
    /// 0 × NaN = NaN propagates identically.
    #[test]
    fn non_finite_rows_match_seed(
        m in 4usize..17, k in 4usize..17, n in 8usize..17,
        a in vals(16 * 16), b in vals(16 * 16),
        zpct in 20u32..90, nan_at in 0usize..256, inf_at in 0usize..256
    ) {
        let ta = build(&a, m, k, zpct);
        let mut bv = b[..k * n].to_vec();
        let len = bv.len();
        bv[nan_at % len] = f32::NAN;
        bv[inf_at % len] = f32::INFINITY;
        let tb = Tensor::from_vec(bv, &[k, n]).expect("test tensor");
        assert_all_variants(&ta, &tb)?;
    }

    /// Above the parallel threshold the row-band split must not change a
    /// bit: capped to one thread vs. free thread count vs. the sequential
    /// seed kernel all agree.
    #[test]
    fn thread_count_never_changes_bits(
        a in vals(48 * 40), b in vals(40 * 44), zpct in 0u32..60
    ) {
        let ta = build(&a, 48, 40, zpct);
        let tb = build(&b, 40, 44, 0);
        let free = ta.matmul(&tb);
        let capped = qn_parallel::with_max_threads(1, || ta.matmul(&tb));
        prop_assert!(free.bit_identical(&capped));
        prop_assert!(free.bit_identical(&reference::matmul(&ta, &tb)));
        let free_tb = ta.matmul_transb(&tb.transpose2());
        let capped_tb =
            qn_parallel::with_max_threads(1, || ta.matmul_transb(&tb.transpose2()));
        prop_assert!(free_tb.bit_identical(&capped_tb));
    }

    /// `dot` is the 1 × k · k × 1 case of the core and must equal the
    /// sequential fold it replaced.
    #[test]
    fn dot_matches_sequential_fold(a in vals(257), b in vals(257)) {
        let ta = Tensor::from_vec(a.clone(), &[257]).expect("test tensor");
        let tb = Tensor::from_vec(b.clone(), &[257]).expect("test tensor");
        let fold: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        prop_assert!(ta.dot(&tb).to_bits() == fold.to_bits());
    }
}

/// One non-property pin: a `MatRef` batch subslice + stride-swap transpose
/// (the exact pattern `bmm` and the fused conv2d use) equals the seed
/// kernel on the materialized slice.
#[test]
fn batch_subslice_views_match_seed() {
    let mut rng = qn_tensor::Rng::seed_from(7);
    let a = Tensor::randn(&[3, 12, 10], &mut rng); // [N, M, K]
    let b = Tensor::randn(&[3, 10, 14], &mut rng); // [N, K, P]
    for ni in 0..3 {
        let av = MatRef::new(&a.data()[ni * 120..(ni + 1) * 120], 12, 10);
        let bv = MatRef::new(&b.data()[ni * 140..(ni + 1) * 140], 10, 14);
        let mut out = vec![0.0f32; 12 * 14];
        gemm(
            MatMut::new(&mut out, 12, 14),
            av,
            bv.transpose().transpose(),
        );
        let ai = a.slice_axis(0, ni, ni + 1).reshape(&[12, 10]).unwrap();
        let bi = b.slice_axis(0, ni, ni + 1).reshape(&[10, 14]).unwrap();
        let expect = reference::matmul(&ai, &bi);
        assert_eq!(out.as_slice(), expect.data());
    }
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

/// The ResNet-20 im2col products (`matmul_transb`) and the transformer
/// attention products the models run, a plain square matmul, a causal
/// attention-probability product (`0 × finite` terms) and one whose B has
/// a NaN row and an ∞ row (`0 × NaN`, `0 × ∞`).
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
        // stage-1 and stage-3 im2col shapes
        (
            Tensor::randn(&[1024, 144], rng),
            Tensor::randn(&[16, 144], rng),
            true,
        ),
        (
            Tensor::randn(&[64, 576], rng),
            Tensor::randn(&[64, 576], rng),
            true,
        ),
        // attention scores and context at T = 64 (d_head 32), scores at
        // T = 128 (d_head 64)
        (
            Tensor::randn(&[64, 32], rng),
            Tensor::randn(&[32, 64], rng),
            false,
        ),
        (
            Tensor::randn(&[64, 64], rng),
            Tensor::randn(&[64, 32], rng),
            false,
        ),
        (
            Tensor::randn(&[128, 64], rng),
            Tensor::randn(&[64, 128], rng),
            false,
        ),
    ]
}

/// The model-shaped products equal the seed kernels at every reachable
/// SIMD level. `force_level` is process-global; the other tests in this
/// binary read whichever level is active, which every level keeps
/// correct, so none of them needs to serialize against this one.
#[test]
fn exact_profile_is_bit_identical_at_every_level() {
    let mut rng = Rng::seed_from(41);
    let prev = qn_simd::SimdLevel::active();
    for (a, b, transb) in products(&mut rng) {
        let expect = if transb {
            reference::matmul_transb(&a, &b)
        } else {
            reference::matmul(&a, &b)
        };
        for level in qn_simd::available_levels() {
            qn_simd::force_level(level);
            let got = if transb {
                a.matmul_transb(&b)
            } else {
                a.matmul(&b)
            };
            assert!(
                bit_identical_nan_aware(&got, &expect),
                "products must not depend on the SIMD level ({level:?})"
            );
        }
    }
    qn_simd::force_level(prev);
}
