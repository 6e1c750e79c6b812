//! Safe, runtime-dispatched slice kernels.
//!
//! Each kernel is written once, generic over [`SimdF32`], then wrapped in
//! one `#[target_feature]` function per ISA; the public entry points pick
//! the wrapper for [`SimdLevel::active()`].
//!
//! The `Exact` kernel profile calls a kernel here only where every lane
//! computes the seed's scalar expression: the lane-wise "0 ULP" rows below
//! (the arithmetic kernels, `affine_channel_to` and the optimizer
//! updates), which run under both profiles. The rest are `Fast`-only,
//! because they add FMA fusing, reassociated reductions or the polynomial
//! `exp`; under `Exact` their callers keep the seed scalar loop.
//!
//! Determinism contract per kernel (verified by
//! `tests/kernel_equivalence.rs`; "0 ULP" = bit-identical to the plain
//! scalar loop at every dispatch level):
//!
//! | kernel                         | bound vs scalar reference          |
//! |--------------------------------|------------------------------------|
//! | `add_to`/`sub_to`/`mul_to`     | 0 ULP (lane-wise, no reassociation)|
//! | `scale_to`/`add_scalar_to`     | 0 ULP                              |
//! | `square_to`/`relu_to`          | 0 ULP                              |
//! | `affine_channel_to`            | 0 ULP (same op order as scalar)    |
//! | `exp_to`/`sigmoid_to`          | ≤ 8 / ≤ 16 ULP (see [`crate::math`]) |
//! | `reduce_sum`/`dot`             | ULP-bounded (pairwise reassociation; ≤ 4·n·ε·Σ|terms|) |
//! | `reduce_max`                   | exact for non-NaN inputs           |
//! | `softmax_row_inplace`          | ≤ 32 ULP per probability           |
//! | `layer_norm_row`               | |Δ| ≤ 1e-5·(1+|ref|) per element   |
//! | `weighted_square_row`          | k < LANES: 0 ULP; k ≥ LANES: ULP-bounded partial sums |
//! | `sgd_update`/`adam_update`     | 0 ULP (no FMA, element-local; `divps`/`sqrtps` are correctly rounded) |
//!
//! NaN handling: the lane-wise 0 ULP kernels match the scalar loop on
//! every input — signed zeros, subnormals, infinities and NaN included
//! (NaN compared by NaN-ness; payloads are unpinned) — and the vector
//! `max` matches `x.max(0.0)` for ReLU (NaN and `-0.0` → `+0.0`).
//! Reductions and the transcendental kernels assume finite inputs:
//! feeding NaN/Inf through them yields unspecified (not undefined) lane
//! values.

use crate::arch::ScalarF32;
use crate::arch::SimdF32;
#[cfg(target_arch = "x86_64")]
use crate::arch::{Avx2F32, Sse2F32};
use crate::math;
use crate::SimdLevel;

/// Stack scratch (in elements) for the small-`k` segmented branch of
/// [`weighted_square_row`].
const WSQ_BLOCK: usize = 256;

mod g {
    //! Generic kernel bodies. Everything `#[inline(always)]` so the
    //! per-ISA `#[target_feature]` wrappers fully absorb them.
    use super::*;

    #[inline(always)]
    pub unsafe fn add_to<S: SimdF32>(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&a[i..]).add(S::load(&b[i..])).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i] + b[i];
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn sub_to<S: SimdF32>(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&a[i..]).sub(S::load(&b[i..])).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i] - b[i];
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn mul_to<S: SimdF32>(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&a[i..]).mul(S::load(&b[i..])).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i] * b[i];
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn scale_to<S: SimdF32>(dst: &mut [f32], a: &[f32], s: f32) {
        let n = dst.len();
        let sv = S::splat(s);
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&a[i..]).mul(sv).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i] * s;
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn scale_inplace<S: SimdF32>(buf: &mut [f32], s: f32) {
        let n = buf.len();
        let sv = S::splat(s);
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&buf[i..]).mul(sv).store(&mut buf[i..]);
            i += S::LANES;
        }
        while i < n {
            buf[i] *= s;
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn add_scalar_to<S: SimdF32>(dst: &mut [f32], a: &[f32], s: f32) {
        let n = dst.len();
        let sv = S::splat(s);
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&a[i..]).add(sv).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i] + s;
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn square_to<S: SimdF32>(dst: &mut [f32], a: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + S::LANES <= n {
            let v = S::load(&a[i..]);
            v.mul(v).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i] * a[i];
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn relu_to<S: SimdF32>(dst: &mut [f32], a: &[f32]) {
        let n = dst.len();
        let z = S::zero();
        let mut i = 0;
        while i + S::LANES <= n {
            S::load(&a[i..]).max(z).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = a[i].max(0.0);
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn exp_to<S: SimdF32>(dst: &mut [f32], a: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + S::LANES <= n {
            math::exp(S::load(&a[i..])).store(&mut dst[i..]);
            i += S::LANES;
        }
        // Tail lanes run the *same approximation* one lane at a time so a
        // row's values never mix approximated and libm exponentials.
        while i < n {
            dst[i] = math::exp(ScalarF32(a[i])).0;
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn sigmoid_to<S: SimdF32>(dst: &mut [f32], a: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + S::LANES <= n {
            math::sigmoid(S::load(&a[i..])).store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = math::sigmoid(ScalarF32(a[i])).0;
            i += 1;
        }
    }

    /// `dst = (src − mean) · inv · gamma + beta` with four per-call
    /// scalars — one batch-norm channel plane. Same operation order as
    /// the scalar loop, so lane results are bit-identical to it.
    #[inline(always)]
    pub unsafe fn affine_channel_to<S: SimdF32>(
        dst: &mut [f32],
        src: &[f32],
        mean: f32,
        inv: f32,
        gamma: f32,
        beta: f32,
    ) {
        let n = dst.len();
        let (mv, iv, gv, bv) = (
            S::splat(mean),
            S::splat(inv),
            S::splat(gamma),
            S::splat(beta),
        );
        let mut i = 0;
        while i + S::LANES <= n {
            let v = S::load(&src[i..]).sub(mv).mul(iv).mul(gv).add(bv);
            v.store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = (src[i] - mean) * inv * gamma + beta;
            i += 1;
        }
    }

    #[inline(always)]
    pub unsafe fn reduce_sum<S: SimdF32>(a: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = S::zero();
        let mut i = 0;
        while i + S::LANES <= n {
            acc = acc.add(S::load(&a[i..]));
            i += S::LANES;
        }
        let mut total = acc.reduce_add();
        while i < n {
            total += a[i];
            i += 1;
        }
        total
    }

    #[inline(always)]
    pub unsafe fn reduce_max<S: SimdF32>(a: &[f32]) -> f32 {
        let n = a.len();
        let mut m = f32::NEG_INFINITY;
        let mut i = 0;
        if S::LANES <= n {
            let mut acc = S::load(a);
            i = S::LANES;
            while i + S::LANES <= n {
                acc = acc.max(S::load(&a[i..]));
                i += S::LANES;
            }
            m = acc.reduce_max();
        }
        while i < n {
            m = if a[i] > m { a[i] } else { m };
            i += 1;
        }
        m
    }

    #[inline(always)]
    pub unsafe fn dot<S: SimdF32>(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = S::zero();
        let mut i = 0;
        while i + S::LANES <= n {
            acc = S::load(&a[i..]).mul_add(S::load(&b[i..]), acc);
            i += S::LANES;
        }
        let mut total = acc.reduce_add();
        while i < n {
            total = a[i].mul_add(b[i], total);
            i += 1;
        }
        total
    }

    #[inline(always)]
    pub unsafe fn softmax_row_inplace<S: SimdF32>(row: &mut [f32]) {
        if row.is_empty() {
            return;
        }
        let n = row.len();
        let m = reduce_max::<S>(row);
        let mv = S::splat(m);
        let mut acc = S::zero();
        let mut i = 0;
        while i + S::LANES <= n {
            let e = math::exp(S::load(&row[i..]).sub(mv));
            e.store(&mut row[i..]);
            acc = acc.add(e);
            i += S::LANES;
        }
        let mut sum = acc.reduce_add();
        while i < n {
            let e = math::exp(ScalarF32(row[i] - m)).0;
            row[i] = e;
            sum += e;
            i += 1;
        }
        // Exact scalar divide once per row, then an exact lane-wise scale.
        scale_inplace::<S>(row, 1.0 / sum);
    }

    /// One layer-norm row: `dst = (src − mean(src)) / √(var(src)+eps) · gamma + beta`.
    /// Mean/variance accumulate in vector partial sums (reassociated),
    /// the per-element apply matches the scalar operation order.
    #[inline(always)]
    pub unsafe fn layer_norm_row<S: SimdF32>(
        dst: &mut [f32],
        src: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) {
        let n = src.len();
        if n == 0 {
            return;
        }
        let mean = reduce_sum::<S>(src) / n as f32;
        let mv = S::splat(mean);
        let mut acc = S::zero();
        let mut i = 0;
        while i + S::LANES <= n {
            let d = S::load(&src[i..]).sub(mv);
            acc = d.mul_add(d, acc);
            i += S::LANES;
        }
        let mut var = acc.reduce_add();
        while i < n {
            let d = src[i] - mean;
            var = d.mul_add(d, var);
            i += 1;
        }
        var /= n as f32;
        let istd = 1.0 / (var + eps).sqrt();
        let sv = S::splat(istd);
        i = 0;
        while i + S::LANES <= n {
            let v = S::load(&src[i..])
                .sub(mv)
                .mul(sv)
                .mul(S::load(&gamma[i..]))
                .add(S::load(&beta[i..]));
            v.store(&mut dst[i..]);
            i += S::LANES;
        }
        while i < n {
            dst[i] = (src[i] - mean) * istd * gamma[i] + beta[i];
            i += 1;
        }
    }

    /// Quadratic-neuron row: `out[j] = Σ_i f[j·k+i]² · lam[j·k+i]` for
    /// `j < out.len()`.
    ///
    /// `k ≥ LANES`: per-neuron vector partial sums (reassociated,
    /// ULP-bounded). `k < LANES`: a vectorized elementwise `f²·λ` pass
    /// into a stack block followed by scalar segment sums in the
    /// reference order — bit-identical to the scalar loop.
    #[inline(always)]
    pub unsafe fn weighted_square_row<S: SimdF32>(
        out: &mut [f32],
        f: &[f32],
        lam: &[f32],
        k: usize,
    ) {
        let m = out.len();
        if k == 0 {
            out.fill(0.0);
            return;
        }
        if k >= S::LANES {
            for j in 0..m {
                let fj = &f[j * k..j * k + k];
                let lj = &lam[j * k..j * k + k];
                let mut acc = S::zero();
                let mut i = 0;
                while i + S::LANES <= k {
                    let x = S::load(&fj[i..]);
                    acc = x.mul(x).mul_add(S::load(&lj[i..]), acc);
                    i += S::LANES;
                }
                let mut s = acc.reduce_add();
                while i < k {
                    s = (fj[i] * fj[i]).mul_add(lj[i], s);
                    i += 1;
                }
                out[j] = s;
            }
        } else {
            let mut tmp = [0.0f32; WSQ_BLOCK];
            let groups_per_blk = WSQ_BLOCK / k;
            let mut j = 0;
            while j < m {
                let gcount = (m - j).min(groups_per_blk);
                let nelems = gcount * k;
                let base = j * k;
                let mut i = 0;
                while i + S::LANES <= nelems {
                    let x = S::load(&f[base + i..]);
                    x.mul(x).mul(S::load(&lam[base + i..])).store(&mut tmp[i..]);
                    i += S::LANES;
                }
                while i < nelems {
                    tmp[i] = f[base + i] * f[base + i] * lam[base + i];
                    i += 1;
                }
                for gi in 0..gcount {
                    let mut s = 0.0f32;
                    for e in 0..k {
                        s += tmp[gi * k + e];
                    }
                    out[j + gi] = s;
                }
                j += gcount;
            }
        }
    }

    /// One SGD-with-momentum step over a parameter slice:
    /// `g = grad[i] + wd·value[i]; vel[i] = momentum·vel[i] + g;
    /// value[i] -= lr·vel[i]`.
    ///
    /// Element-local, no fused multiply-add — the lane results are
    /// bit-identical to the seed scalar loop at every dispatch level.
    #[inline(always)]
    pub unsafe fn sgd_update<S: SimdF32>(
        value: &mut [f32],
        vel: &mut [f32],
        grad: &[f32],
        lr: f32,
        momentum: f32,
        wd: f32,
    ) {
        let n = value.len();
        let (wdv, mv, lrv) = (S::splat(wd), S::splat(momentum), S::splat(lr));
        let mut i = 0;
        while i + S::LANES <= n {
            let g = wdv.mul(S::load(&value[i..])).add(S::load(&grad[i..]));
            let v = mv.mul(S::load(&vel[i..])).add(g);
            v.store(&mut vel[i..]);
            S::load(&value[i..]).sub(lrv.mul(v)).store(&mut value[i..]);
            i += S::LANES;
        }
        while i < n {
            let g = grad[i] + wd * value[i];
            let v = momentum * vel[i] + g;
            vel[i] = v;
            value[i] -= lr * v;
            i += 1;
        }
    }

    /// One Adam step over a parameter slice:
    /// `m[i] = b1·m[i] + (1−b1)·g; v[i] = b2·v[i] + (1−b2)·g²;
    /// value[i] -= lr·(m[i]/bias1) / (√(v[i]/bias2) + eps)`.
    ///
    /// `bias1`/`bias2` are the step-count bias corrections
    /// `1 − βᵗ` computed once by the caller. Element-local with
    /// correctly-rounded `divps`/`sqrtps` and no fused multiply-add —
    /// bit-identical to the seed scalar loop at every dispatch level.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn adam_update<S: SimdF32>(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: &[f32],
        lr: f32,
        b1: f32,
        b2: f32,
        eps: f32,
        bias1: f32,
        bias2: f32,
    ) {
        let n = value.len();
        let (b1v, c1v) = (S::splat(b1), S::splat(1.0 - b1));
        let (b2v, c2v) = (S::splat(b2), S::splat(1.0 - b2));
        let (lrv, epsv) = (S::splat(lr), S::splat(eps));
        let (bias1v, bias2v) = (S::splat(bias1), S::splat(bias2));
        let mut i = 0;
        while i + S::LANES <= n {
            let g = S::load(&grad[i..]);
            let mi = b1v.mul(S::load(&m[i..])).add(c1v.mul(g));
            let vi = b2v.mul(S::load(&v[i..])).add(c2v.mul(g).mul(g));
            mi.store(&mut m[i..]);
            vi.store(&mut v[i..]);
            let mhat = mi.div(bias1v);
            let vhat = vi.div(bias2v);
            let upd = lrv.mul(mhat).div(vhat.sqrt().add(epsv));
            S::load(&value[i..]).sub(upd).store(&mut value[i..]);
            i += S::LANES;
        }
        while i < n {
            let g = grad[i];
            let mi = b1 * m[i] + (1.0 - b1) * g;
            let vi = b2 * v[i] + (1.0 - b2) * g * g;
            m[i] = mi;
            v[i] = vi;
            let mhat = mi / bias1;
            let vhat = vi / bias2;
            value[i] -= lr * mhat / (vhat.sqrt() + eps);
            i += 1;
        }
    }
}

/// Generates one wrapper module per ISA: identical signatures, each
/// function a `#[target_feature]` shell around the generic body so LLVM
/// vectorizes it for that ISA.
macro_rules! isa_kernels {
    ($modname:ident, $simd:ty, $(#[$attr:meta])*) => {
        mod $modname {
            use super::*;
            $(#[$attr])*
            pub unsafe fn add_to(d: &mut [f32], a: &[f32], b: &[f32]) { g::add_to::<$simd>(d, a, b) }
            $(#[$attr])*
            pub unsafe fn sub_to(d: &mut [f32], a: &[f32], b: &[f32]) { g::sub_to::<$simd>(d, a, b) }
            $(#[$attr])*
            pub unsafe fn mul_to(d: &mut [f32], a: &[f32], b: &[f32]) { g::mul_to::<$simd>(d, a, b) }
            $(#[$attr])*
            pub unsafe fn scale_to(d: &mut [f32], a: &[f32], s: f32) { g::scale_to::<$simd>(d, a, s) }
            $(#[$attr])*
            pub unsafe fn scale_inplace(d: &mut [f32], s: f32) { g::scale_inplace::<$simd>(d, s) }
            $(#[$attr])*
            pub unsafe fn add_scalar_to(d: &mut [f32], a: &[f32], s: f32) { g::add_scalar_to::<$simd>(d, a, s) }
            $(#[$attr])*
            pub unsafe fn square_to(d: &mut [f32], a: &[f32]) { g::square_to::<$simd>(d, a) }
            $(#[$attr])*
            pub unsafe fn relu_to(d: &mut [f32], a: &[f32]) { g::relu_to::<$simd>(d, a) }
            $(#[$attr])*
            pub unsafe fn exp_to(d: &mut [f32], a: &[f32]) { g::exp_to::<$simd>(d, a) }
            $(#[$attr])*
            pub unsafe fn sigmoid_to(d: &mut [f32], a: &[f32]) { g::sigmoid_to::<$simd>(d, a) }
            $(#[$attr])*
            pub unsafe fn affine_channel_to(d: &mut [f32], s: &[f32], mean: f32, inv: f32, ga: f32, be: f32) { g::affine_channel_to::<$simd>(d, s, mean, inv, ga, be) }
            $(#[$attr])*
            pub unsafe fn reduce_sum(a: &[f32]) -> f32 { g::reduce_sum::<$simd>(a) }
            $(#[$attr])*
            pub unsafe fn reduce_max(a: &[f32]) -> f32 { g::reduce_max::<$simd>(a) }
            $(#[$attr])*
            pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 { g::dot::<$simd>(a, b) }
            $(#[$attr])*
            pub unsafe fn softmax_row_inplace(r: &mut [f32]) { g::softmax_row_inplace::<$simd>(r) }
            $(#[$attr])*
            pub unsafe fn layer_norm_row(d: &mut [f32], s: &[f32], ga: &[f32], be: &[f32], eps: f32) { g::layer_norm_row::<$simd>(d, s, ga, be, eps) }
            $(#[$attr])*
            pub unsafe fn weighted_square_row(o: &mut [f32], f: &[f32], l: &[f32], k: usize) { g::weighted_square_row::<$simd>(o, f, l, k) }
            $(#[$attr])*
            pub unsafe fn sgd_update(va: &mut [f32], ve: &mut [f32], gr: &[f32], lr: f32, mo: f32, wd: f32) { g::sgd_update::<$simd>(va, ve, gr, lr, mo, wd) }
            $(#[$attr])*
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn adam_update(va: &mut [f32], m: &mut [f32], v: &mut [f32], gr: &[f32], lr: f32, b1: f32, b2: f32, eps: f32, c1: f32, c2: f32) { g::adam_update::<$simd>(va, m, v, gr, lr, b1, b2, eps, c1, c2) }
        }
    };
}

#[cfg(target_arch = "x86_64")]
isa_kernels!(avx2, Avx2F32, #[target_feature(enable = "avx2", enable = "fma")]);
#[cfg(target_arch = "x86_64")]
isa_kernels!(sse2, Sse2F32, #[target_feature(enable = "sse2")]);
isa_kernels!(scalar, ScalarF32, #[inline]);

/// Picks the wrapper for the active dispatch level.
///
/// SAFETY: `SimdLevel::active()` never exceeds `SimdLevel::detected()`,
/// so the `#[target_feature]` wrapper selected here only runs on a CPU
/// that reports the matching ISA.
macro_rules! dispatch {
    ($kernel:ident ( $($arg:expr),* )) => {{
        match SimdLevel::active() {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { avx2::$kernel($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => unsafe { sse2::$kernel($($arg),*) },
            _ => unsafe { scalar::$kernel($($arg),*) },
        }
    }};
}

/// `dst[i] = a[i] + b[i]`. Bit-identical to the scalar loop at every level.
///
/// # Panics
/// Panics if `dst`, `a`, and `b` lengths differ.
pub fn add_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "add_to: dst/a length mismatch");
    assert_eq!(dst.len(), b.len(), "add_to: dst/b length mismatch");
    dispatch!(add_to(dst, a, b))
}

/// `dst[i] = a[i] - b[i]`. Bit-identical to the scalar loop at every level.
///
/// # Panics
/// Panics if `dst`, `a`, and `b` lengths differ.
pub fn sub_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "sub_to: dst/a length mismatch");
    assert_eq!(dst.len(), b.len(), "sub_to: dst/b length mismatch");
    dispatch!(sub_to(dst, a, b))
}

/// `dst[i] = a[i] * b[i]`. Bit-identical to the scalar loop at every level.
///
/// # Panics
/// Panics if `dst`, `a`, and `b` lengths differ.
pub fn mul_to(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "mul_to: dst/a length mismatch");
    assert_eq!(dst.len(), b.len(), "mul_to: dst/b length mismatch");
    dispatch!(mul_to(dst, a, b))
}

/// `dst[i] = a[i] * s`. Bit-identical to the scalar loop at every level.
///
/// # Panics
/// Panics if `dst` and `a` lengths differ.
pub fn scale_to(dst: &mut [f32], a: &[f32], s: f32) {
    assert_eq!(dst.len(), a.len(), "scale_to: dst/a length mismatch");
    dispatch!(scale_to(dst, a, s))
}

/// `buf[i] *= s` in place. Bit-identical to the scalar loop at every level.
pub fn scale_inplace(buf: &mut [f32], s: f32) {
    dispatch!(scale_inplace(buf, s))
}

/// `dst[i] = a[i] + s`. Bit-identical to the scalar loop at every level.
///
/// # Panics
/// Panics if `dst` and `a` lengths differ.
pub fn add_scalar_to(dst: &mut [f32], a: &[f32], s: f32) {
    assert_eq!(dst.len(), a.len(), "add_scalar_to: dst/a length mismatch");
    dispatch!(add_scalar_to(dst, a, s))
}

/// `dst[i] = a[i]²`. Bit-identical to the scalar loop at every level.
///
/// # Panics
/// Panics if `dst` and `a` lengths differ.
pub fn square_to(dst: &mut [f32], a: &[f32]) {
    assert_eq!(dst.len(), a.len(), "square_to: dst/a length mismatch");
    dispatch!(square_to(dst, a))
}

/// `dst[i] = max(a[i], 0)`. Bit-identical to `a[i].max(0.0)` at every
/// level (NaN lanes become 0, matching `f32::max`).
///
/// # Panics
/// Panics if `dst` and `a` lengths differ.
pub fn relu_to(dst: &mut [f32], a: &[f32]) {
    assert_eq!(dst.len(), a.len(), "relu_to: dst/a length mismatch");
    dispatch!(relu_to(dst, a))
}

/// `dst[i] = e^a[i]` via the [`crate::math::exp`] approximation (≤ 8 ULP).
///
/// # Panics
/// Panics if `dst` and `a` lengths differ.
pub fn exp_to(dst: &mut [f32], a: &[f32]) {
    assert_eq!(dst.len(), a.len(), "exp_to: dst/a length mismatch");
    dispatch!(exp_to(dst, a))
}

/// `dst[i] = σ(a[i])` via [`crate::math::sigmoid`] (≤ 16 ULP).
///
/// # Panics
/// Panics if `dst` and `a` lengths differ.
pub fn sigmoid_to(dst: &mut [f32], a: &[f32]) {
    assert_eq!(dst.len(), a.len(), "sigmoid_to: dst/a length mismatch");
    dispatch!(sigmoid_to(dst, a))
}

/// One batch-norm channel plane: `dst[i] = (src[i] − mean)·inv·gamma + beta`.
/// Bit-identical to the scalar loop (same operation order).
///
/// # Panics
/// Panics if `dst` and `src` lengths differ.
pub fn affine_channel_to(dst: &mut [f32], src: &[f32], mean: f32, inv: f32, gamma: f32, beta: f32) {
    assert_eq!(dst.len(), src.len(), "affine_channel_to: length mismatch");
    dispatch!(affine_channel_to(dst, src, mean, inv, gamma, beta))
}

/// Sum of `a` (vector partial sums + fixed pairwise reduction; the
/// accumulation order differs from a sequential scalar sum, so results
/// are ULP-bounded, not bit-identical, across levels).
pub fn reduce_sum(a: &[f32]) -> f32 {
    dispatch!(reduce_sum(a))
}

/// Maximum of `a` (`f32::NEG_INFINITY` for an empty slice). Exact for
/// non-NaN inputs at every level.
pub fn reduce_max(a: &[f32]) -> f32 {
    dispatch!(reduce_max(a))
}

/// Dot product with FMA accumulation where the ISA has it (ULP-bounded
/// across levels, like [`reduce_sum`]).
///
/// # Panics
/// Panics if `a` and `b` lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    dispatch!(dot(a, b))
}

/// In-place softmax over one row: `row = exp(row − max) / Σ exp(row − max)`.
/// ≤ 32 ULP per probability vs the scalar libm reference.
pub fn softmax_row_inplace(row: &mut [f32]) {
    dispatch!(softmax_row_inplace(row))
}

/// One layer-norm row (see table in the module docs for the bound).
///
/// # Panics
/// Panics if `dst`, `src`, `gamma`, and `beta` lengths differ.
pub fn layer_norm_row(dst: &mut [f32], src: &[f32], gamma: &[f32], beta: &[f32], eps: f32) {
    assert_eq!(
        dst.len(),
        src.len(),
        "layer_norm_row: dst/src length mismatch"
    );
    assert_eq!(
        src.len(),
        gamma.len(),
        "layer_norm_row: gamma length mismatch"
    );
    assert_eq!(
        src.len(),
        beta.len(),
        "layer_norm_row: beta length mismatch"
    );
    dispatch!(layer_norm_row(dst, src, gamma, beta, eps))
}

/// One SGD-with-momentum step:
/// `g = grad[i] + wd·value[i]; vel[i] = momentum·vel[i] + g;
/// value[i] -= lr·vel[i]`. Bit-identical to the scalar loop at every
/// level (element-local, no FMA).
///
/// # Panics
/// Panics if `value`, `vel`, and `grad` lengths differ.
pub fn sgd_update(
    value: &mut [f32],
    vel: &mut [f32],
    grad: &[f32],
    lr: f32,
    momentum: f32,
    wd: f32,
) {
    assert_eq!(value.len(), vel.len(), "sgd_update: vel length mismatch");
    assert_eq!(value.len(), grad.len(), "sgd_update: grad length mismatch");
    dispatch!(sgd_update(value, vel, grad, lr, momentum, wd))
}

/// One Adam step with caller-supplied bias corrections
/// `bias1 = 1 − β₁ᵗ`, `bias2 = 1 − β₂ᵗ`:
/// `m[i] = b1·m[i] + (1−b1)·g; v[i] = b2·v[i] + (1−b2)·g²;
/// value[i] -= lr·(m[i]/bias1) / (√(v[i]/bias2) + eps)`.
/// Bit-identical to the scalar loop at every level (element-local,
/// correctly-rounded div/sqrt, no FMA).
///
/// # Panics
/// Panics if `value`, `m`, `v`, and `grad` lengths differ.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    assert_eq!(value.len(), m.len(), "adam_update: m length mismatch");
    assert_eq!(value.len(), v.len(), "adam_update: v length mismatch");
    assert_eq!(value.len(), grad.len(), "adam_update: grad length mismatch");
    dispatch!(adam_update(
        value, m, v, grad, lr, b1, b2, eps, bias1, bias2
    ))
}

/// Quadratic-neuron weighted square sum for one sample row:
/// `out[j] = Σ_{i<k} f[j·k+i]² · lam[j·k+i]`.
///
/// # Panics
/// Panics if `f` or `lam` length is not `out.len() * k`.
pub fn weighted_square_row(out: &mut [f32], f: &[f32], lam: &[f32], k: usize) {
    assert_eq!(
        f.len(),
        out.len() * k,
        "weighted_square_row: f length mismatch"
    );
    assert_eq!(
        lam.len(),
        out.len() * k,
        "weighted_square_row: lam length mismatch"
    );
    dispatch!(weighted_square_row(out, f, lam, k))
}
