//! Every dispatched kernel against its scalar reference, at **every**
//! dispatch level reachable on this host (`available_levels()`; cap with
//! `QN_SIMD=scalar|sse2` to exercise the lower tiers on wide machines).
//!
//! The contract under test is the per-kernel table in `qn_simd::kernels`:
//!
//! - lane-wise arithmetic (`add/sub/mul/scale/add_scalar/square/relu`,
//!   `affine_channel_to`) is **bit-exact** at every level — the vector ops
//!   are plain IEEE add/sub/mul/max with no fusing or reassociation — on
//!   random inputs and on every pair of edge values (±0, ±NaN, ±∞,
//!   ±subnormal, ±`f32::MAX`; NaN compared by NaN-ness);
//! - `exp_to` ≤ 8 ULP, `sigmoid_to` ≤ 16 ULP, softmax ≤ 32 ULP per
//!   probability (polynomial `exp`, documented in `qn_simd::math`);
//! - reductions (`dot`, `reduce_sum`, layer-norm moments, the `k ≥ LANES`
//!   quadratic-neuron rows) reassociate and get a relative tolerance,
//!   while the `k < LANES` quadratic-neuron branch is bit-exact by
//!   construction (reference-order segment sums);
//! - `reduce_max` is order-insensitive on finite data and must match
//!   exactly.
//!
//! `force_level` is process-global, so every test case serializes on one
//! mutex (the `cargo test` harness runs tests on threads).

use proptest::prelude::*;
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per reachable dispatch level with that level forced,
/// restoring the previous level afterwards. Holds the global lock for the
/// whole sweep so concurrent tests never observe a foreign forced level.
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

/// ULP distance between two finite same-sign-or-zero floats.
fn ulp_diff(a: f32, b: f32) -> u32 {
    // map the bit pattern onto a monotone integer line (sign-magnitude to
    // offset binary) so adjacent floats differ by 1 across the zero
    let key = |x: f32| {
        let i = x.to_bits() as i32;
        if i < 0 {
            i32::MIN.wrapping_sub(i) as u32
        } else {
            (i as u32).wrapping_add(0x8000_0000)
        }
    };
    key(a).abs_diff(key(b))
}

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

/// ±0, ±NaN, ±∞, ±subnormal and ±`f32::MAX`: the inputs whose signed-zero
/// and non-finite behaviour the `Exact` profile promises to keep.
const EDGES: [f32; 10] = [
    0.0,
    -0.0,
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE / 2.0,
    -f32::MIN_POSITIVE / 2.0,
    f32::MAX,
    f32::MIN,
];

/// Every ordered pair of [`EDGES`] as `(a[i], b[i])`, followed by seven
/// repeats: 107 = 13·8 + 3 elements, so every pair lands in a full vector
/// at each level and the scalar tail still runs.
fn edge_pairs() -> (Vec<f32>, Vec<f32>) {
    let (mut a, mut b): (Vec<f32>, Vec<f32>) = EDGES
        .iter()
        .flat_map(|&x| EDGES.iter().map(move |&y| (x, y)))
        .unzip();
    a.extend_from_within(..7);
    b.extend_from_within(..7);
    (a, b)
}

/// Bit equality, except that any NaN matches any NaN (NaN payloads and
/// signs are unpinned).
fn same(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Every lane-wise arithmetic kernel against its scalar expression at the
/// forced `level`; `scalars` feed the kernels that take one.
fn arithmetic_matches_scalar(
    level: qn_simd::SimdLevel,
    a: &[f32],
    b: &[f32],
    scalars: &[f32],
) -> Result<(), TestCaseError> {
    let n = a.len();
    let mut dst = vec![0.0f32; n];
    qn_simd::add_to(&mut dst, a, b);
    for (i, d) in dst.iter().enumerate() {
        prop_assert!(same(*d, a[i] + b[i]), "add @ {level:?}");
    }
    qn_simd::sub_to(&mut dst, a, b);
    for (i, d) in dst.iter().enumerate() {
        prop_assert!(same(*d, a[i] - b[i]), "sub @ {level:?}");
    }
    qn_simd::mul_to(&mut dst, a, b);
    for (i, d) in dst.iter().enumerate() {
        prop_assert!(same(*d, a[i] * b[i]), "mul @ {level:?}");
    }
    for &s in scalars {
        qn_simd::scale_to(&mut dst, a, s);
        for (i, d) in dst.iter().enumerate() {
            prop_assert!(same(*d, a[i] * s), "scale @ {level:?}");
        }
        let mut buf = a.to_vec();
        qn_simd::scale_inplace(&mut buf, s);
        for (i, d) in buf.iter().enumerate() {
            prop_assert!(same(*d, a[i] * s), "scale_inplace @ {level:?}");
        }
        qn_simd::add_scalar_to(&mut dst, a, s);
        for (i, d) in dst.iter().enumerate() {
            prop_assert!(same(*d, a[i] + s), "add_scalar @ {level:?}");
        }
    }
    qn_simd::square_to(&mut dst, a);
    for (i, d) in dst.iter().enumerate() {
        prop_assert!(same(*d, a[i] * a[i]), "square @ {level:?}");
    }
    qn_simd::relu_to(&mut dst, a);
    for (i, d) in dst.iter().enumerate() {
        prop_assert!(same(*d, a[i].max(0.0)), "relu({}) @ {level:?}: {d}", a[i]);
    }
    Ok(())
}

/// The per-channel affine against `(x − μ)·σ⁻¹·γ + β` at the forced `level`.
fn affine_matches_scalar(
    level: qn_simd::SimdLevel,
    src: &[f32],
    [mean, inv, gamma, beta]: [f32; 4],
) -> Result<(), TestCaseError> {
    let mut dst = vec![0.0f32; src.len()];
    qn_simd::affine_channel_to(&mut dst, src, mean, inv, gamma, beta);
    for (i, d) in dst.iter().enumerate() {
        let r = (src[i] - mean) * inv * gamma + beta;
        prop_assert!(same(*d, r), "affine @ {level:?}: {d} vs {r}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lane-wise arithmetic is bit-exact at every level: the vector kernels
    /// perform the identical IEEE operation per lane.
    #[test]
    fn arithmetic_kernels_are_bit_exact(
        a in vals(67), b in vals(67), s in -4.0f32..4.0
    ) {
        for_each_level(|level| arithmetic_matches_scalar(level, &a, &b, &[s]))?;
    }

    /// The per-channel affine `(x − μ)·σ⁻¹·γ + β` applies the same
    /// operation order lane-wise → bit-exact at every level.
    #[test]
    fn affine_channel_is_bit_exact(
        src in vals(61), mean in -2.0f32..2.0, inv in 0.1f32..4.0,
        gamma in -2.0f32..2.0, beta in -2.0f32..2.0
    ) {
        for_each_level(|level| affine_matches_scalar(level, &src, [mean, inv, gamma, beta]))?;
    }

    /// `exp_to` stays within its documented 8 ULP of `f32::exp` over the
    /// non-clamped domain, at every level (scalar tails use the same
    /// polynomial, so the bound is uniform across the slice).
    #[test]
    fn exp_within_8_ulp(a in prop::collection::vec(-60.0f32..60.0, 53)) {
        let n = a.len();
        for_each_level(|level| {
            let mut dst = vec![0.0f32; n];
            qn_simd::exp_to(&mut dst, &a);
            for (i, d) in dst.iter().enumerate() {
                let r = a[i].exp();
                prop_assert!(
                    ulp_diff(*d, r) <= 8,
                    "exp({}) @ {level:?}: {d} vs {r} ({} ULP)", a[i], ulp_diff(*d, r)
                );
            }
            Ok(())
        })?;
    }

    /// `sigmoid_to` stays within its documented 16 ULP of
    /// `1/(1 + exp(−x))` at every level.
    #[test]
    fn sigmoid_within_16_ulp(a in prop::collection::vec(-25.0f32..25.0, 53)) {
        let n = a.len();
        for_each_level(|level| {
            let mut dst = vec![0.0f32; n];
            qn_simd::sigmoid_to(&mut dst, &a);
            for (i, d) in dst.iter().enumerate() {
                let r = 1.0 / (1.0 + (-a[i]).exp());
                prop_assert!(
                    ulp_diff(*d, r) <= 16,
                    "sigmoid({}) @ {level:?}: {d} vs {r} ({} ULP)", a[i], ulp_diff(*d, r)
                );
            }
            Ok(())
        })?;
    }

    /// Reductions: `reduce_max` is exact on finite data; `reduce_sum` and
    /// `dot` reassociate and must stay within a tolerance scaled by the
    /// magnitude sum.
    #[test]
    fn reductions_match_sequential_folds(a in vals(131), b in vals(131)) {
        let ref_sum: f32 = a.iter().sum();
        let ref_max = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let ref_dot: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        let mag_sum: f32 = a.iter().map(|x| x.abs()).sum();
        let mag_dot: f32 = a.iter().zip(&b).map(|(&x, &y)| (x * y).abs()).sum();
        for_each_level(|level| {
            prop_assert!(qn_simd::reduce_max(&a) == ref_max, "max @ {level:?}");
            let s = qn_simd::reduce_sum(&a);
            prop_assert!(
                (s - ref_sum).abs() <= 1e-6 * (1.0 + mag_sum),
                "sum @ {level:?}: {s} vs {ref_sum}"
            );
            let d = qn_simd::dot(&a, &b);
            prop_assert!(
                (d - ref_dot).abs() <= 1e-6 * (1.0 + mag_dot),
                "dot @ {level:?}: {d} vs {ref_dot}"
            );
            Ok(())
        })?;
    }

    /// Softmax rows stay within 32 ULP per probability of the stable scalar
    /// sweep, sum to ~1, and hold the bound at every level.
    #[test]
    fn softmax_row_within_32_ulp(
        full in prop::collection::vec(-12.0f32..12.0, 80), len in 1usize..80
    ) {
        let row = full[..len].to_vec();
        let mut reference = row.clone();
        let m = reference.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in reference.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in reference.iter_mut() {
            *v /= sum;
        }
        for_each_level(|level| {
            let mut r = row.clone();
            qn_simd::softmax_row_inplace(&mut r);
            let total: f32 = r.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-5, "sum @ {level:?}: {total}");
            for (i, p) in r.iter().enumerate() {
                prop_assert!(
                    ulp_diff(*p, reference[i]) <= 32,
                    "softmax[{i}] @ {level:?}: {p} vs {} ({} ULP)",
                    reference[i], ulp_diff(*p, reference[i])
                );
            }
            Ok(())
        })?;
    }

    /// Layer-norm rows: reassociated moments ⇒ tolerance-bounded against
    /// the sequential sweep.
    #[test]
    fn layer_norm_row_within_tolerance(
        src in vals(77), gamma in vals(77), beta in vals(77)
    ) {
        let n = src.len();
        let eps = 1e-5f32;
        let mean = src.iter().sum::<f32>() / n as f32;
        let var = src.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let istd = 1.0 / (var + eps).sqrt();
        for_each_level(|level| {
            let mut dst = vec![0.0f32; n];
            qn_simd::layer_norm_row(&mut dst, &src, &gamma, &beta, eps);
            for (i, d) in dst.iter().enumerate() {
                let r = (src[i] - mean) * istd * gamma[i] + beta[i];
                prop_assert!(
                    (d - r).abs() <= 1e-5 * (1.0 + r.abs()),
                    "layer_norm[{i}] @ {level:?}: {d} vs {r}"
                );
            }
            Ok(())
        })?;
    }

    /// Quadratic-neuron rows. `k < LANES` takes the bit-exact branch
    /// (elementwise pass + reference-order segment sums); `k ≥ LANES`
    /// reassociates per neuron and gets the tolerance.
    #[test]
    fn weighted_square_row_matches_reference(
        f in vals(24 * 24), lam in prop::collection::vec(0.0f32..2.0, 24 * 24),
        m in 1usize..24, k in 1usize..24
    ) {
        let f = &f[..m * k];
        let lam = &lam[..m * k];
        let mut reference = vec![0.0f32; m];
        for (j, o) in reference.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for i in 0..k {
                let x = f[j * k + i];
                acc += x * x * lam[j * k + i];
            }
            *o = acc;
        }
        for_each_level(|level| {
            let mut out = vec![0.0f32; m];
            qn_simd::weighted_square_row(&mut out, f, lam, k);
            let exact = k < level.lanes();
            for (j, o) in out.iter().enumerate() {
                if exact {
                    prop_assert!(
                        o.to_bits() == reference[j].to_bits(),
                        "wsq[{j}] (k={k} < lanes) @ {level:?}: {o} vs {}", reference[j]
                    );
                } else {
                    prop_assert!(
                        (o - reference[j]).abs() <= 1e-5 * (1.0 + reference[j].abs()),
                        "wsq[{j}] (k={k}) @ {level:?}: {o} vs {}", reference[j]
                    );
                }
            }
            Ok(())
        })?;
    }
}

/// The fixed edge input of [`arithmetic_kernels_are_bit_exact`]: every
/// pair of [`EDGES`], with every edge value as the scalar operand — pins
/// signed zeros, subnormals and non-finite propagation, including
/// `relu_to` on `-0.0` and NaN.
#[test]
fn arithmetic_kernels_are_bit_exact_on_edge_values() {
    let (a, b) = edge_pairs();
    if let Err(e) = for_each_level(|level| arithmetic_matches_scalar(level, &a, &b, &EDGES)) {
        panic!("{e}");
    }
}

/// The fixed edge input of [`affine_channel_is_bit_exact`]: every value of
/// [`EDGES`] as the source, under every combination of edge values for
/// `(μ, σ⁻¹, γ, β)`.
#[test]
fn affine_channel_is_bit_exact_on_edge_values() {
    let (src, _) = edge_pairs();
    let n = EDGES.len();
    let result = for_each_level(|level| {
        for i in 0..n.pow(4) {
            let params = [0, 1, 2, 3].map(|d| EDGES[i / n.pow(d) % n]);
            affine_matches_scalar(level, &src, params)?;
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// Forced levels clamp to the detected ceiling and always restore — the
/// invariant the whole suite leans on.
#[test]
fn force_level_round_trips() {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let before = qn_simd::SimdLevel::active();
    for level in qn_simd::available_levels() {
        let prev = qn_simd::force_level(level);
        assert!(qn_simd::SimdLevel::active() <= qn_simd::SimdLevel::detected());
        assert_eq!(
            qn_simd::SimdLevel::active(),
            level.min(qn_simd::SimdLevel::detected())
        );
        qn_simd::force_level(prev);
    }
    assert_eq!(qn_simd::SimdLevel::active(), before);
}
