//! # qn-simd
//!
//! One vectorized kernel layer for the whole workspace: a small portable
//! `f32` SIMD abstraction ([`arch::SimdF32`] over AVX2+FMA / SSE2 /
//! scalar) and runtime-dispatched slice kernels (re-exported at the crate
//! root). `qn-tensor`'s GEMM micro-kernel and `qn-autograd`'s fused chains
//! build their own `#[target_feature]` kernels directly on
//! [`arch::SimdF32`]; everything else calls the safe kernels here.
//!
//! ## Dispatch: [`SimdLevel`]
//!
//! The instruction set is picked **once**, at first use, by runtime
//! feature detection (`is_x86_feature_detected!`), capped by the
//! `QN_SIMD` environment variable:
//!
//! | `QN_SIMD` | effect                                             |
//! |-----------|----------------------------------------------------|
//! | `auto` (default, also any unrecognized value) | highest detected level |
//! | `avx2`    | AVX2+FMA, clamped down if the CPU lacks it         |
//! | `sse2`    | SSE2 (the `x86_64` baseline)                       |
//! | `scalar`  | plain scalar loops                                 |
//!
//! A level is never raised above what the CPU reports, so forcing
//! `avx2` on a non-AVX2 part safely degrades instead of faulting.
//! Unrecognized values fall back to `auto`; the resolved level is
//! observable (and surfaced by `qn-serve`'s `/healthz` and `/metrics`),
//! so a typo is visible rather than silently wrong.
//!
//! ## Determinism: [`KernelProfile`]
//!
//! Vector code runs only where every lane computes the seed's scalar
//! expression: lane-wise add/sub/mul/max/div/sqrt, and the GEMM's
//! multiply-then-add, which rounds the product and then the sum.
//! Everything else keeps the seed scalar loop. Results are therefore
//! bit-identical to the seed kernels at any thread count **and any
//! `QN_SIMD` level** — the contract training resume, checkpoint
//! equivalence and batched-serving bit-identity are built on.
//! [`KernelProfile`] names that contract, so a run record or `/healthz`
//! can state it.
//!
//! ## Forcing (tests & benches)
//!
//! [`force_level`] overrides the resolved level process-wide and returns
//! the previous value, so equivalence suites and benches can pin a code
//! path; concurrent tests that force the level must serialize themselves
//! (the property suites guard with a mutex).

pub mod arch;
mod int8;
mod kernels;

pub use int8::{dot_i8, quantize_to_i8};
pub use kernels::{
    adam_update, add_scalar_to, add_to, affine_channel_to, mul_to, relu_to, scale_to, sgd_update,
    square_to, sub_to,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction set the dispatched kernels run on.
///
/// Ordered: a numerically higher level strictly extends the lower ones,
/// so "cap at X" is `min(detected, X)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Plain scalar loops — every CPU.
    Scalar = 1,
    /// SSE2, 4 lanes — the `x86_64` baseline.
    Sse2 = 2,
    /// AVX2 + FMA, 8 lanes.
    Avx2 = 3,
}

/// The determinism contract of the workspace's compute kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelProfile {
    /// Vector code only where every lane computes the seed's scalar
    /// expression — bit-identical at any thread count and any
    /// [`SimdLevel`].
    Exact,
}

// Packed dispatch state. 0 = uninitialized; otherwise the enum's repr.
static ACTIVE_LEVEL: AtomicU8 = AtomicU8::new(0);
static DETECTED_LEVEL: AtomicU8 = AtomicU8::new(0);
/// The env-capped level resolved at first use, unaffected by
/// [`force_level`] — the ceiling [`available_levels`] reports.
static CAP_LEVEL: AtomicU8 = AtomicU8::new(0);

impl SimdLevel {
    fn from_repr(v: u8) -> Option<SimdLevel> {
        match v {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Sse2),
            3 => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Lowercase name, matching the accepted `QN_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// The highest level the executing CPU supports (cached after the
    /// first call).
    pub fn detected() -> SimdLevel {
        if let Some(l) = SimdLevel::from_repr(DETECTED_LEVEL.load(Ordering::Relaxed)) {
            return l;
        }
        let l = detect();
        DETECTED_LEVEL.store(l as u8, Ordering::Relaxed);
        l
    }

    /// The level the dispatched kernels currently use:
    /// `min(detected, QN_SIMD)` resolved once at first use, unless
    /// overridden by [`force_level`].
    pub fn active() -> SimdLevel {
        if let Some(l) = SimdLevel::from_repr(ACTIVE_LEVEL.load(Ordering::Relaxed)) {
            return l;
        }
        let l = env_cap().min(SimdLevel::detected());
        CAP_LEVEL.store(l as u8, Ordering::Relaxed);
        ACTIVE_LEVEL.store(l as u8, Ordering::Relaxed);
        l
    }
}

impl KernelProfile {
    /// Lowercase name, as run records and `/healthz` report it.
    pub fn name(self) -> &'static str {
        match self {
            KernelProfile::Exact => "exact",
        }
    }

    /// The profile in effect: always [`KernelProfile::Exact`].
    pub fn active() -> KernelProfile {
        KernelProfile::Exact
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

fn env_cap() -> SimdLevel {
    match std::env::var("QN_SIMD").ok().as_deref() {
        Some(s) if s.eq_ignore_ascii_case("scalar") => SimdLevel::Scalar,
        Some(s) if s.eq_ignore_ascii_case("sse2") => SimdLevel::Sse2,
        Some(s) if s.eq_ignore_ascii_case("avx2") => SimdLevel::Avx2,
        // "auto", unset, or unrecognized: no cap. The resolved level is
        // observable via /healthz, so typos surface there.
        _ => SimdLevel::Avx2,
    }
}

/// Overrides the active dispatch level process-wide (clamped to
/// [`SimdLevel::detected`] so an unsupported request can never select
/// unavailable instructions) and returns the previous level.
///
/// Intended for equivalence tests and benches; concurrent callers must
/// serialize themselves.
pub fn force_level(level: SimdLevel) -> SimdLevel {
    let prev = SimdLevel::active();
    let clamped = level.min(SimdLevel::detected());
    ACTIVE_LEVEL.store(clamped as u8, Ordering::Relaxed);
    prev
}

/// Every dispatch level reachable in this process: all levels up to the
/// `QN_SIMD`-capped detected level (unaffected by [`force_level`], so a
/// test suite can enumerate targets before forcing each one).
pub fn available_levels() -> Vec<SimdLevel> {
    let cap = match SimdLevel::from_repr(CAP_LEVEL.load(Ordering::Relaxed)) {
        Some(l) => l,
        None => {
            let _ = SimdLevel::active();
            SimdLevel::from_repr(CAP_LEVEL.load(Ordering::Relaxed)).unwrap_or(SimdLevel::Scalar)
        }
    };
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= cap)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_supports_min_clamp() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Avx2.min(SimdLevel::Sse2), SimdLevel::Sse2);
    }

    #[test]
    fn names_round_trip() {
        for l in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            assert_eq!(SimdLevel::from_repr(l as u8), Some(l));
        }
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(KernelProfile::active().name(), "exact");
    }

    #[test]
    fn detected_is_at_least_the_baseline() {
        #[cfg(target_arch = "x86_64")]
        assert!(SimdLevel::detected() >= SimdLevel::Sse2);
        assert!(SimdLevel::detected() >= SimdLevel::Scalar);
    }

    #[test]
    fn available_levels_start_at_scalar_and_are_ordered() {
        let levels = available_levels();
        assert!(!levels.is_empty());
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert!(levels.iter().all(|&l| l <= SimdLevel::detected()));
    }
}
