//! Parallel-banded elementwise slice kernels.
//!
//! The single home of the workspace's elementwise execution strategy: every
//! map/zip — allocating ([`Tensor::map`](crate::Tensor::map)/
//! [`zip`](crate::Tensor::zip)), in-place
//! ([`map_inplace`](crate::Tensor::map_inplace)/
//! [`zip_inplace`](crate::Tensor::zip_inplace)) or into a recycled
//! destination buffer (the `EagerExec` arena in `qn-autograd`) — funnels
//! through these slice kernels, so all of them share one banding rule and
//! therefore produce **bit-identical** results: each output element depends
//! only on its own inputs, bands are disjoint, and the per-element
//! arithmetic is independent of the band split.
//!
//! Inputs shorter than [`PAR_MIN_ELEMS`] stay on
//! the calling thread.
//!
//! # Named ops
//!
//! The **named** ops ([`relu_to`], [`add_to`], [`sigmoid_to`], …) hand
//! each band to the dispatched `qn-simd` vector kernel wherever every lane
//! computes the closure's scalar expression: the arithmetic ops (add/sub/
//! mul/scale/add-scalar/square/relu) are plain lane-wise IEEE operations —
//! no reassociation, no fusing — so they run vector code and stay
//! bit-identical to the closure loop. `sigmoid_to` keeps the libm closure.

use qn_parallel::PAR_MIN_ELEMS;

/// Calls `band(start, chunk)` for consecutive chunks of `dst`, `start` the
/// chunk's offset: one chunk per pool thread once `dst` holds
/// [`PAR_MIN_ELEMS`] elements, else all of `dst` on the calling thread.
/// Every kernel here bands through it, so each gets the same bands.
fn banded(dst: &mut [f32], band: impl Fn(usize, &mut [f32]) + Sync) {
    let n = dst.len();
    if n < PAR_MIN_ELEMS {
        band(0, dst);
    } else {
        let len = n.div_ceil(qn_parallel::num_threads());
        qn_parallel::par_chunks_mut(dst, len, |bi, chunk| band(bi * len, chunk));
    }
}

/// `dst[i] = f(src[i])`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn map_to(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32 + Sync) {
    assert_eq!(dst.len(), src.len(), "map_to length mismatch");
    banded(dst, |at, d| {
        for (o, &v) in d.iter_mut().zip(&src[at..]) {
            *o = f(v);
        }
    });
}

/// `dst[i] = f(a[i], b[i])`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn zip_to(dst: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    assert_eq!(dst.len(), a.len(), "zip_to length mismatch");
    assert_eq!(dst.len(), b.len(), "zip_to length mismatch");
    banded(dst, |at, d| {
        for ((o, &x), &y) in d.iter_mut().zip(&a[at..]).zip(&b[at..]) {
            *o = f(x, y);
        }
    });
}

/// `dst[i] = f(dst[i])` in place.
pub fn map_assign(dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    banded(dst, |_, d| {
        for v in d.iter_mut() {
            *v = f(*v);
        }
    });
}

/// `dst[i] = f(dst[i], src[i])` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn zip_assign(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    assert_eq!(dst.len(), src.len(), "zip_assign length mismatch");
    banded(dst, |at, d| {
        for (o, &v) in d.iter_mut().zip(&src[at..]) {
            *o = f(*o, v);
        }
    });
}

/// Runs a `qn-simd` slice kernel over the bands of [`banded`].
fn banded_unary(dst: &mut [f32], src: &[f32], kernel: impl Fn(&mut [f32], &[f32]) + Sync) {
    banded(dst, |at, d| kernel(d, &src[at..at + d.len()]));
}

/// The two-input twin of [`banded_unary`].
fn banded_binary(dst: &mut [f32], a: &[f32], b: &[f32], kernel: fn(&mut [f32], &[f32], &[f32])) {
    banded(dst, |at, d| {
        let end = at + d.len();
        kernel(d, &a[at..end], &b[at..end]);
    });
}

/// `dst[i] = a[i] + b[i]` — bit-identical to the closure loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "add_to length mismatch");
    assert_eq!(dst.len(), b.len(), "add_to length mismatch");
    banded_binary(dst, a, b, qn_simd::add_to);
}

/// `dst[i] = a[i] - b[i]` — bit-identical to the closure loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "sub_to length mismatch");
    assert_eq!(dst.len(), b.len(), "sub_to length mismatch");
    banded_binary(dst, a, b, qn_simd::sub_to);
}

/// `dst[i] = a[i] * b[i]` — bit-identical to the closure loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "mul_to length mismatch");
    assert_eq!(dst.len(), b.len(), "mul_to length mismatch");
    banded_binary(dst, a, b, qn_simd::mul_to);
}

/// `dst[i] = src[i] * s` — bit-identical to the closure loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn scale_to(dst: &mut [f32], src: &[f32], s: f32) {
    assert_eq!(dst.len(), src.len(), "scale_to length mismatch");
    banded_unary(dst, src, |d, x| qn_simd::scale_to(d, x, s));
}

/// `dst[i] = src[i] + s` — bit-identical to the closure loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_scalar_to(dst: &mut [f32], src: &[f32], s: f32) {
    assert_eq!(dst.len(), src.len(), "add_scalar_to length mismatch");
    banded_unary(dst, src, |d, x| qn_simd::add_scalar_to(d, x, s));
}

/// `dst[i] = src[i]²` — bit-identical to the closure loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn square_to(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "square_to length mismatch");
    banded_unary(dst, src, qn_simd::square_to);
}

/// `dst[i] = max(src[i], 0)` — bit-identical to the closure loop (the
/// vector `max` matches `f32::max`'s NaN → 0 behavior for this pattern).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_to(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "relu_to length mismatch");
    banded_unary(dst, src, qn_simd::relu_to);
}

/// `dst[i] = 1 / (1 + e^(−src[i]))`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sigmoid_to(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "sigmoid_to length mismatch");
    map_to(dst, src, |v| 1.0 / (1.0 + (-v).exp()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_ops_match_closures_in_exact_profile() {
        let a: Vec<f32> = (0..300).map(|i| (i as f32 - 150.0) * 0.1).collect();
        let b: Vec<f32> = (0..300).map(|i| (i as f32).cos()).collect();
        let mut named = vec![0.0f32; 300];
        let mut closure = vec![0.0f32; 300];
        add_to(&mut named, &a, &b);
        zip_to(&mut closure, &a, &b, |x, y| x + y);
        assert_eq!(named, closure);
        relu_to(&mut named, &a);
        map_to(&mut closure, &a, |v| v.max(0.0));
        assert_eq!(named, closure);
        sigmoid_to(&mut named, &a);
        map_to(&mut closure, &a, |v| 1.0 / (1.0 + (-v).exp()));
        assert_eq!(named, closure);
    }

    #[test]
    fn map_and_zip_match_sequential() {
        let src: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 100];
        map_to(&mut dst, &src, |v| v * 2.0);
        assert!(dst.iter().zip(&src).all(|(&d, &s)| d == s * 2.0));
        let mut z = vec![0.0f32; 100];
        zip_to(&mut z, &src, &dst, |a, b| a + b);
        assert!(z.iter().zip(&src).all(|(&zv, &s)| zv == s * 3.0));
    }

    #[test]
    fn inplace_variants_match_out_of_place() {
        let src: Vec<f32> = (0..50).map(|i| i as f32 - 25.0).collect();
        let mut a = src.clone();
        map_assign(&mut a, |v| v.max(0.0));
        let mut b = vec![0.0f32; 50];
        map_to(&mut b, &src, |v| v.max(0.0));
        assert_eq!(a, b);
        let mut c = src.clone();
        zip_assign(&mut c, &b, |x, y| x + y);
        let mut d = vec![0.0f32; 50];
        zip_to(&mut d, &src, &b, |x, y| x + y);
        assert_eq!(c, d);
    }

    #[test]
    fn large_parallel_matches_sequential() {
        let n = PAR_MIN_ELEMS + 37;
        let src: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let mut par = vec![0.0f32; n];
        map_to(&mut par, &src, |v| v * v + 1.0);
        let mut seq = vec![0.0f32; n];
        qn_parallel::with_max_threads(1, || map_to(&mut seq, &src, |v| v * v + 1.0));
        assert_eq!(par, seq, "banding must be bit-neutral");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut dst = vec![0.0f32; 3];
        map_to(&mut dst, &[1.0, 2.0], |v| v);
    }
}
