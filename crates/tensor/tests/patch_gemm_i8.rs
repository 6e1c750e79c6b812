//! The int8 patch product against `gemm_i8` over the quantized im2col
//! rows, bit for bit.
//!
//! `gemm_i8_patches` quantizes each patch row as the GEMM packs it from the
//! image's zero-padded planes (under a frozen scale, quantized once as they
//! are padded) and scales each sum as it stores it into the planes. It must
//! equal the im2col route — `quantize_to_i8` on every im2col row at that
//! row's scale, `gemm_i8` over the codes, read per image as `[N, OH·OW]` —
//! in every bit, with the frozen scale and with per-row dynamic scales, and
//! return the im2col rows' largest absmax in the dynamic mode. The grid
//! covers 3×3 stride 1 and 2 with padding 1 and 1×1 stride 2 without, 3
//! input channels and ResNet-20's served planes (8–32 channels at 32, 16
//! and 8 px), a batch of 2, planes whose `MR`-row tiles straddle row ends
//! and padding, batches that split across images, and images
//! holding NaN, ±∞ and −0.0 — at every SIMD level, at the pool's width and
//! on one thread — and products after recycled scratch that held large
//! values. Own integration binary because `force_level` is process-global.

use qn_tensor::{
    gemm_i8, gemm_i8_patches, im2col, ActScale, Conv2dSpec, MatMut, MatRefI8, QTensor, Rng, Tensor,
};
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// The im2col route: every im2col row quantized as the dense int8 layers
/// quantize their input rows, then `gemm_i8`, transposed per image. Also
/// returns the rows' largest absmax under `ActScale::PerRow`.
fn via_im2col(x: &Tensor, spec: Conv2dSpec, w: &QTensor, act: ActScale) -> (Vec<f32>, f32) {
    let (batches, _, h, wd) = x.dims4();
    let (oh, ow) = spec.output_hw(h, wd);
    let (m, n) = (oh * ow, w.rows());
    let cols = im2col(x, spec);
    let (rows, k) = cols.dims2();
    let (mut codes, mut sa, mut seen) = (vec![0i8; rows * k], vec![0.0f32; rows], 0.0f32);
    for (r, (row, dst)) in cols
        .data()
        .chunks_exact(k)
        .zip(codes.chunks_exact_mut(k))
        .enumerate()
    {
        match act {
            ActScale::Frozen(s) => {
                sa[r] = s;
                qn_simd::quantize_to_i8(dst, row, 1.0 / s);
            }
            ActScale::PerRow => {
                let mut absmax = 0.0f32;
                for &v in row {
                    if v.abs() > absmax {
                        absmax = v.abs();
                    }
                }
                if absmax > seen {
                    seen = absmax;
                }
                if absmax > 0.0 && absmax.is_finite() {
                    sa[r] = absmax / 127.0;
                    qn_simd::quantize_to_i8(dst, row, 127.0 / absmax);
                }
            }
        }
    }
    let mut y = vec![0.0f32; rows * n];
    gemm_i8(
        MatMut::new(&mut y, rows, n),
        MatRefI8::new(&codes, rows, k),
        w.mat().transpose(),
        &sa,
        w.scales(),
    );
    let mut out = vec![0.0f32; y.len()];
    for i in 0..batches {
        for pos in 0..m {
            for j in 0..n {
                out[(i * n + j) * m + pos] = y[(i * m + pos) * n + j];
            }
        }
    }
    (out, seen)
}

/// Normal draws at `scale`, with −0.0 at every seventh element and, when
/// `edges`, one NaN, +∞ and −∞ each.
fn image(dims: &[usize], scale: f32, edges: bool, rng: &mut Rng) -> Tensor {
    let mut x = Tensor::randn(dims, rng).map(|v| v * scale);
    let d = x.data_mut();
    let len = d.len();
    for i in (0..len).step_by(7) {
        d[i] = -0.0;
    }
    if edges {
        for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            d[(101 * i + 17) % len] = v;
        }
    }
    x
}

#[test]
fn int8_patch_product_is_bit_identical_to_the_im2col_route() {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev_level = qn_simd::SimdLevel::active();
    let mut rng = Rng::seed_from(21);
    let (mut ran, mut banded) = (0usize, 0usize);
    for (kernel, stride, padding) in [(3usize, 1usize, 1usize), (3, 2, 1), (1, 2, 0)] {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        // widths that are not a multiple of `MR` make tiles wrap across
        // row ends; the 16×16 images split across images at n = 40 (3×3);
        // the last three are ResNet-20's served planes (width 8)
        for (c, h, w, n, edges) in [
            (3usize, 5usize, 7usize, 6usize, false),
            (3, 9, 6, 13, true),
            (3, 16, 16, 40, false),
            (8, 32, 32, 16, false),
            (16, 16, 16, 32, true),
            (32, 8, 8, 32, false),
        ] {
            let k = spec.patch_len(c);
            let x = image(&[2, c, h, w], 1.5, edges, &mut rng);
            let wq = QTensor::quantize(&Tensor::randn(&[n, k], &mut rng));
            let (oh, ow) = spec.output_hw(h, w);
            // a batch splits across images from 32768 MACs
            banded += usize::from(2 * oh * ow * n * k >= 32768);
            for act in [ActScale::Frozen(0.02), ActScale::PerRow] {
                ran += 1;
                let what = format!(
                    "x [2, {c}, {h}, {w}], kernel {kernel} stride {stride} pad {padding} \
                     -> {oh}x{ow}, n {n}, {act:?}"
                );
                for level in qn_simd::available_levels() {
                    qn_simd::force_level(level);
                    let (want, want_seen) = via_im2col(&x, spec, &wq, act);
                    let run = || {
                        let mut out = vec![f32::NAN; want.len()];
                        let seen = gemm_i8_patches(
                            &mut out,
                            &x,
                            spec,
                            wq.mat().transpose(),
                            wq.scales(),
                            act,
                        );
                        (out, seen)
                    };
                    let pooled = run();
                    let one = qn_parallel::with_max_threads(1, run);
                    for ((got, seen), threads) in [(pooled, "pool"), (one, "one thread")] {
                        assert_eq!(
                            seen.to_bits(),
                            want_seen.to_bits(),
                            "{what} at {level:?}, {threads}: observed absmax"
                        );
                        for (e, (&g, &v)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                v.to_bits(),
                                "{what} at {level:?}, {threads}: element {e} is {g:e} \
                                 patch vs {v:e} im2col"
                            );
                        }
                    }
                }
            }
        }
    }
    qn_simd::force_level(prev_level);
    assert!(ran == 36 && banded > 0, "the grid lost its cases");
}

#[test]
fn recycled_scratch_leaves_no_stale_values() {
    // On one thread every product reuses the same thread-local scratch. A
    // first image of large values leaves them wherever a later, smaller
    // image's pad border or pixel absmax falls, where they would change
    // codes, scales and sums.
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(23);
    let images = [
        ([1usize, 4, 20, 20], Conv2dSpec::new(3, 1, 1)),
        ([1, 4, 17, 13], Conv2dSpec::new(3, 1, 2)),
        ([2, 3, 11, 9], Conv2dSpec::new(3, 2, 1)),
        ([1, 4, 12, 10], Conv2dSpec::new(3, 1, 0)),
        ([1, 4, 12, 10], Conv2dSpec::new(1, 2, 0)),
    ];
    qn_parallel::with_max_threads(1, || {
        for act in [ActScale::Frozen(0.02), ActScale::PerRow] {
            for (i, (dims, spec)) in images.into_iter().enumerate() {
                let x = image(&dims, if i == 0 { 1e4 } else { 1.0 }, false, &mut rng);
                let k = spec.patch_len(dims[1]);
                let wq = QTensor::quantize(&Tensor::randn(&[8, k], &mut rng));
                let (want, want_seen) = via_im2col(&x, spec, &wq, act);
                let mut got = vec![0.0f32; want.len()];
                let b = wq.mat().transpose();
                let seen = gemm_i8_patches(&mut got, &x, spec, b, wq.scales(), act);
                assert_eq!(seen.to_bits(), want_seen.to_bits(), "{act:?}, image {i}");
                for (e, (&g, &v)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), v.to_bits(), "{act:?}, image {i}: element {e}");
                }
            }
        }
    });
}

#[test]
fn frozen_scale_saturates_and_zero_rows_stay_zero() {
    // a 1×1 conv over one channel: 100 saturates to code 127 at scale 0.5,
    // −0.25 rounds to code 0 (ties to even), and a dynamic all-zero patch
    // gets scale 0, so its output is +0.0
    let x = Tensor::from_vec(vec![100.0, -0.25, 0.0, 1.0], &[1, 1, 2, 2]).unwrap();
    let spec = Conv2dSpec::new(1, 1, 0);
    let codes = [2i8];
    let b = MatRefI8::new(&codes, 1, 1);
    let mut out = [f32::NAN; 4];
    let seen = gemm_i8_patches(&mut out, &x, spec, b, &[0.25], ActScale::Frozen(0.5));
    assert_eq!(seen, 0.0);
    // (127·2)·0.5·0.25, (0·2)…, 0, (2·2)·0.5·0.25
    assert_eq!(out, [31.75, 0.0, 0.0, 0.5]);
    // each row at its own absmax: codes 127, −127, 0 (zero row), 127
    let seen = gemm_i8_patches(&mut out, &x, spec, b, &[0.25], ActScale::PerRow);
    assert_eq!(seen, 100.0);
    let want = [
        254.0 * (100.0f32 / 127.0) * 0.25,
        -254.0 * (0.25f32 / 127.0) * 0.25,
        0.0,
        254.0 * (1.0f32 / 127.0) * 0.25,
    ];
    assert_eq!(out.map(f32::to_bits), want.map(f32::to_bits));
}

#[test]
#[should_panic(expected = "gemm_i8_patches: k = 1089 exceeds the exactness bound 1024")]
fn patches_past_the_exactness_bound_panic() {
    let x = Tensor::zeros(&[1, 121, 3, 3]);
    let codes = vec![0i8; 1089];
    let mut out = [0.0f32; 1];
    gemm_i8_patches(
        &mut out,
        &x,
        Conv2dSpec::new(3, 1, 0),
        MatRefI8::new(&codes, 1089, 1),
        &[1.0],
        ActScale::PerRow,
    );
}
