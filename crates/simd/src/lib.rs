//! # qn-simd
//!
//! One vectorized kernel layer for the whole workspace: a small portable
//! `f32` SIMD abstraction ([`arch::SimdF32`] over AVX2+FMA / SSE2 /
//! scalar), vectorized transcendental approximations ([`math`]), and
//! runtime-dispatched slice kernels (re-exported at the crate root).
//! `qn-tensor`'s GEMM micro-kernel and `qn-autograd`'s fused chains
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
//! ## Determinism tiers: [`KernelProfile`]
//!
//! | profile | selected by | contract |
//! |---------|-------------|----------|
//! | [`KernelProfile::Exact`] (default) | `QN_KERNEL_PROFILE=exact` | Vector code runs only where every lane computes the seed's scalar expression (lane-wise add/sub/mul/max/div/sqrt, the GEMM's unfused multiply-then-add); everything else keeps the seed scalar loop — bit-identical results at any thread count **and any `QN_SIMD` level**. |
//! | [`KernelProfile::Fast`] | `QN_KERNEL_PROFILE=fast` | Adds FMA fusing, reassociated reductions and the polynomial `exp`; every such kernel is validated against the scalar reference under the documented ULP bound (see the `kernels` module docs, e.g. [`exp_to`]). |
//!
//! `Exact` is the default because the workspace's reproducibility
//! contract (training resume, checkpoint equivalence, batched-serving
//! bit-identity) is built on it. `Fast` is the opt-in throughput tier.
//!
//! ## Forcing (tests & benches)
//!
//! [`force_level`]/[`force_profile`] override the resolved state
//! process-wide and return the previous value. They exist so equivalence
//! suites and benches can pin a code path; concurrent tests that force
//! state must serialize themselves (the property suites guard with a
//! mutex).

pub mod arch;
mod int8;
mod kernels;
pub mod math;

pub use int8::{dot_i8, quantize_to_i8};
pub use kernels::{
    adam_update, add_scalar_to, add_to, affine_channel_to, dot, exp_to, layer_norm_row, mul_to,
    reduce_max, reduce_sum, relu_to, scale_inplace, scale_to, sgd_update, sigmoid_to,
    softmax_row_inplace, square_to, sub_to, weighted_square_row,
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

/// Determinism tier for the workspace's compute kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelProfile {
    /// Vector code only where every lane computes the seed's scalar
    /// expression — bit-identical at any thread count and any
    /// [`SimdLevel`]. Default.
    Exact = 1,
    /// Adds FMA fusing, reassociated reductions and polynomial `exp` —
    /// ULP-bounded against the scalar reference.
    Fast = 2,
}

// Packed dispatch state. 0 = uninitialized; otherwise the enum's repr.
static ACTIVE_LEVEL: AtomicU8 = AtomicU8::new(0);
static DETECTED_LEVEL: AtomicU8 = AtomicU8::new(0);
/// The env-capped level resolved at first use, unaffected by
/// [`force_level`] — the ceiling [`available_levels`] reports.
static CAP_LEVEL: AtomicU8 = AtomicU8::new(0);
static ACTIVE_PROFILE: AtomicU8 = AtomicU8::new(0);

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

    /// `f32` lanes per vector at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 4,
            SimdLevel::Avx2 => 8,
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
    fn from_repr(v: u8) -> Option<KernelProfile> {
        match v {
            1 => Some(KernelProfile::Exact),
            2 => Some(KernelProfile::Fast),
            _ => None,
        }
    }

    /// Lowercase name, matching the accepted `QN_KERNEL_PROFILE` values.
    pub fn name(self) -> &'static str {
        match self {
            KernelProfile::Exact => "exact",
            KernelProfile::Fast => "fast",
        }
    }

    /// The profile in effect: `QN_KERNEL_PROFILE` resolved once at first
    /// use (default [`KernelProfile::Exact`]), unless overridden by
    /// [`force_profile`].
    pub fn active() -> KernelProfile {
        if let Some(p) = KernelProfile::from_repr(ACTIVE_PROFILE.load(Ordering::Relaxed)) {
            return p;
        }
        let p = match std::env::var("QN_KERNEL_PROFILE").ok().as_deref() {
            Some(s) if s.eq_ignore_ascii_case("fast") => KernelProfile::Fast,
            _ => KernelProfile::Exact,
        };
        ACTIVE_PROFILE.store(p as u8, Ordering::Relaxed);
        p
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

/// Overrides the active kernel profile process-wide and returns the
/// previous profile. Same caveats as [`force_level`].
pub fn force_profile(profile: KernelProfile) -> KernelProfile {
    let prev = KernelProfile::active();
    ACTIVE_PROFILE.store(profile as u8, Ordering::Relaxed);
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
        assert_eq!(KernelProfile::Exact.name(), "exact");
        assert_eq!(KernelProfile::Fast.name(), "fast");
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

    #[test]
    fn lanes_match_levels() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Sse2.lanes(), 4);
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
    }
}
