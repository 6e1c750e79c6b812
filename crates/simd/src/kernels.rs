//! Safe, runtime-dispatched slice kernels.
//!
//! Each kernel is written once, generic over [`SimdF32`], then wrapped in
//! one `#[target_feature]` function per ISA; the public entry points pick
//! the wrapper for [`SimdLevel::active()`].
//!
//! Every kernel here is lane-wise: each lane computes the seed's scalar
//! expression with the same IEEE operations in the same order, with no
//! fused multiply-add and no reassociation. So every kernel is
//! bit-identical to the plain scalar loop at every dispatch level
//! (verified by `tests/kernel_equivalence.rs`, and by
//! `tests/int8_equivalence.rs` for the optimizer updates):
//!
//! | kernel                         | operation per element              |
//! |--------------------------------|------------------------------------|
//! | `add_to`/`sub_to`/`mul_to`     | `a ± b`, `a · b`                   |
//! | `scale_to`/`add_scalar_to`     | `a · s`, `a + s`                   |
//! | `square_to`/`relu_to`          | `a · a`, `a.max(0.0)`              |
//! | `sgd_update`/`adam_update`     | the optimizer step (`divps`/`sqrtps` are correctly rounded) |
//!
//! NaN handling: the kernels match the scalar loop on every input —
//! signed zeros, subnormals, infinities and NaN included (NaN compared by
//! NaN-ness; payloads are unpinned) — and the vector `max` matches
//! `x.max(0.0)` for ReLU (NaN and `-0.0` → `+0.0`).

use crate::arch::ScalarF32;
use crate::arch::SimdF32;
#[cfg(target_arch = "x86_64")]
use crate::arch::{Avx2F32, Sse2F32};
use crate::SimdLevel;

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
            pub unsafe fn add_scalar_to(d: &mut [f32], a: &[f32], s: f32) { g::add_scalar_to::<$simd>(d, a, s) }
            $(#[$attr])*
            pub unsafe fn square_to(d: &mut [f32], a: &[f32]) { g::square_to::<$simd>(d, a) }
            $(#[$attr])*
            pub unsafe fn relu_to(d: &mut [f32], a: &[f32]) { g::relu_to::<$simd>(d, a) }
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
