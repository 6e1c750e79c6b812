//! The patch-operand GEMM against `gemm` over an explicit im2col matrix,
//! bit for bit.
//!
//! `gemm_patches` packs each `MR`-row tile from the image's zero-padded
//! planes and stores every block transposed into the image's output
//! planes. It must equal `gemm(im2col(x), b)`, read per image as
//! `[N, OH·OW]`, in every bit over kernels 1/3/5, strides 1–3, padding 0–2
//! (padding at or above the kernel size included), batches 1–3, image
//! widths that are and are not a multiple of `MR`, output widths
//! 1/3/8/10/30, products with fewer than `MR` rows or `NR` columns,
//! ResNet-20's served geometries, and images holding NaN, ±∞ and −0.0 — at
//! every SIMD level, at the pool's width and on one thread — and after
//! recycled scratch that held NaN. Own integration binary because
//! `force_level` is process-global.

use qn_tensor::{gemm, gemm_patches, im2col, Conv2dSpec, MatMut, MatRef, Rng, Tensor};
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// NaN matches any NaN (payloads are outside the determinism contract);
/// every other value, signed zeros and infinities included, must match
/// bit for bit.
fn same_bits(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Normal draws with −0.0 at every fifth element and one NaN, +∞ and −∞
/// each, so most outputs stay finite.
fn edge_image(dims: &[usize], rng: &mut Rng) -> Tensor {
    let mut x = Tensor::randn(dims, rng);
    let d = x.data_mut();
    let len = d.len();
    for i in (0..len).step_by(5) {
        d[i] = -0.0;
    }
    for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        d[(7919 * i + 13) % len] = v;
    }
    x
}

/// `[B, N, OH·OW]` from `gemm` over the im2col matrix, transposed per image.
fn via_im2col(x: &Tensor, spec: Conv2dSpec, b: MatRef<'_>) -> Vec<f32> {
    let (batches, _, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let (m, n) = (oh * ow, b.cols());
    let cols = im2col(x, spec);
    let mut rows = vec![0.0f32; batches * m * n];
    gemm(MatMut::new(&mut rows, batches * m, n), cols.mat(), b);
    let mut out = vec![0.0f32; rows.len()];
    for i in 0..batches {
        for pos in 0..m {
            for j in 0..n {
                out[(i * n + j) * m + pos] = rows[(i * m + pos) * n + j];
            }
        }
    }
    out
}

/// Image side that gives `out` output positions along one axis.
fn input_side(out: usize, spec: Conv2dSpec) -> usize {
    ((out - 1) * spec.stride + spec.kernel).saturating_sub(2 * spec.padding)
}

/// Asserts that `gemm_patches` equals the im2col route bit for bit at
/// every SIMD level, at the pool's width and on one thread.
fn assert_matches_im2col(x: &Tensor, spec: Conv2dSpec, b: MatRef<'_>) {
    let (batches, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let (kernel, stride, padding, n) = (spec.kernel, spec.stride, spec.padding, b.cols());
    let what = format!(
        "x [{batches}, {c}, {h}, {w}], kernel {kernel} stride {stride} pad {padding} \
         -> {oh}x{ow}, n {n}"
    );
    for level in qn_simd::available_levels() {
        qn_simd::force_level(level);
        let want = via_im2col(x, spec, b);
        let run = || {
            let mut out = vec![f32::NAN; want.len()];
            gemm_patches(&mut out, x, spec, b);
            out
        };
        let pooled = run();
        let one = qn_parallel::with_max_threads(1, run);
        for (got, threads) in [(pooled, "pool"), (one, "one thread")] {
            for (e, (&g, &v)) in got.iter().zip(&want).enumerate() {
                assert!(
                    same_bits(g, v),
                    "{what} at {level:?}, {threads}: element {e} is {g:e} \
                     patch vs {v:e} im2col"
                );
            }
        }
    }
}

#[test]
fn patch_gemm_is_bit_identical_to_im2col_gemm() {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev_level = qn_simd::SimdLevel::active();
    let mut rng = Rng::seed_from(18);
    let (mut case, mut ran, mut unaligned_widths, mut banded) = (0usize, 0usize, 0usize, 0usize);
    for kernel in [1usize, 3, 5] {
        for stride in 1..=3usize {
            for padding in 0..=2usize {
                let spec = Conv2dSpec::new(kernel, stride, padding);
                for ow in [1usize, 3, 8, 10, 30] {
                    case += 1;
                    let oh = 1 + case % 3;
                    // one extra column where the stride leaves room keeps
                    // OW but changes the image width
                    let w = input_side(ow, spec).max(1) + (case % stride);
                    let h = input_side(oh, spec).max(1);
                    if spec.output_hw(h, w).1 != ow || w + 2 * padding < kernel {
                        continue;
                    }
                    let batches = 1 + case % 3;
                    let c = [1usize, 3, 2][case % 3];
                    let n = [3usize, 8, 10, 17][case % 4];
                    let k = spec.patch_len(c);
                    // a batch splits across images from 32768 MACs
                    let macs = batches * spec.output_hw(h, w).0 * ow * n * k;
                    ran += 1;
                    unaligned_widths += usize::from(!w.is_multiple_of(4));
                    banded += usize::from(batches >= 2 && macs >= 32768);
                    let x = edge_image(&[batches, c, h, w], &mut rng);
                    let wt = Tensor::randn(&[n, k], &mut rng);
                    assert_matches_im2col(&x, spec, MatRef::new(wt.data(), n, k).transpose());
                }
            }
        }
    }
    // ResNet-20's served geometries (width 8): C = 8–32 at 32, 16 and 8 px,
    // 3×3 stride 1 and 2 with padding 1 and the 1×1 stride-2 shortcut, at
    // batch 2
    let (s1, s2, shortcut) = (
        Conv2dSpec::new(3, 1, 1),
        Conv2dSpec::new(3, 2, 1),
        Conv2dSpec::new(1, 2, 0),
    );
    for (c, side, spec, n) in [
        (8usize, 32usize, s1, 8usize),
        (8, 32, s2, 16),
        (8, 32, shortcut, 16),
        (16, 16, s1, 16),
        (16, 16, s2, 32),
        (16, 16, shortcut, 32),
        (32, 8, s1, 32),
    ] {
        let k = spec.patch_len(c);
        let (oh, ow) = spec.output_hw(side, side);
        assert!(
            2 * oh * ow * n * k >= 32768,
            "{c}x{side}: too small to split across images"
        );
        let x = edge_image(&[2, c, side, side], &mut rng);
        let wt = Tensor::randn(&[n, k], &mut rng);
        assert_matches_im2col(&x, spec, MatRef::new(wt.data(), n, k).transpose());
    }
    qn_simd::force_level(prev_level);
    assert!(
        ran > 100 && unaligned_widths > 50 && banded > 0,
        "the grid lost its cases"
    );
}

#[test]
fn recycled_scratch_leaves_no_stale_values() {
    // On one thread every product reuses the same thread-local scratch.
    // An all-NaN padded image leaves NaN wherever a later, smaller image's
    // pad border falls, so a border that is not rewritten shows as NaN.
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(22);
    let images = [
        ([1usize, 4, 20, 20], Conv2dSpec::new(3, 1, 1)),
        ([1, 4, 17, 13], Conv2dSpec::new(3, 1, 2)),
        ([2, 3, 11, 9], Conv2dSpec::new(3, 2, 1)),
        ([1, 4, 12, 10], Conv2dSpec::new(3, 1, 0)),
        ([1, 4, 12, 10], Conv2dSpec::new(1, 2, 0)),
    ];
    qn_parallel::with_max_threads(1, || {
        for (i, (dims, spec)) in images.into_iter().enumerate() {
            let mut x = Tensor::randn(&dims, &mut rng);
            if i == 0 {
                x.data_mut().fill(f32::NAN);
            }
            let (n, k) = (8, spec.patch_len(dims[1]));
            let wt = Tensor::randn(&[n, k], &mut rng);
            let b = MatRef::new(wt.data(), n, k).transpose();
            let want = via_im2col(&x, spec, b);
            let mut got = vec![0.0f32; want.len()];
            gemm_patches(&mut got, &x, spec, b);
            for (e, (&g, &v)) in got.iter().zip(&want).enumerate() {
                assert!(same_bits(g, v), "image {i}: element {e} is {g:e} vs {v:e}");
            }
        }
    });
}

#[test]
fn fully_padded_taps_read_zero() {
    // a 1×1 kernel with padding 2 on a 1×1 image: every output but the
    // centre reads only padding and must be +0.0, and every element is
    // written (the buffer starts as NaN)
    let x = Tensor::from_vec(vec![2.0], &[1, 1, 1, 1]).unwrap();
    let spec = Conv2dSpec::new(1, 1, 2);
    let w = [3.0f32];
    let mut out = vec![f32::NAN; 25];
    gemm_patches(&mut out, &x, spec, MatRef::new(&w, 1, 1));
    for (i, &v) in out.iter().enumerate() {
        let want: f32 = if i == 12 { 6.0 } else { 0.0 };
        assert_eq!(v.to_bits(), want.to_bits(), "position {i}");
    }
}

#[test]
#[should_panic(expected = "gemm_patches: b must have 18 rows")]
fn wrong_patch_length_panics() {
    let x = Tensor::zeros(&[1, 2, 4, 4]);
    let w = vec![0.0f32; 8 * 17];
    let mut out = vec![0.0f32; 8 * 16];
    gemm_patches(
        &mut out,
        &x,
        Conv2dSpec::new(3, 1, 1),
        MatRef::new(&w, 17, 8),
    );
}
