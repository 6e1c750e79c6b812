//! Every dispatched kernel against its scalar reference, at **every**
//! dispatch level reachable on this host (`available_levels()`; cap with
//! `QN_SIMD=scalar|sse2` to exercise the lower tiers on wide machines).
//!
//! The contract under test is the per-kernel table in `qn_simd::kernels`:
//! lane-wise arithmetic (`add/sub/mul/scale/add_scalar/square/relu`) is
//! **bit-exact** at every level — the vector ops are plain IEEE
//! add/sub/mul/max with no fusing or reassociation — on
//! random inputs and on every pair of edge values (±0, ±NaN, ±∞,
//! ±subnormal, ±`f32::MAX`; NaN compared by NaN-ness).
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

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

/// ±0, ±NaN, ±∞, ±subnormal and ±`f32::MAX`: the inputs whose signed-zero
/// and non-finite behaviour the kernels promise to keep.
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
