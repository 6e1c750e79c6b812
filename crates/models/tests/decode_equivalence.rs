//! Incremental greedy decoding against full recompute:
//! `Transformer::greedy_decode` — which encodes once and steps the decoder
//! one token at a time against cached attention K/V — must emit the tokens
//! of rerunning `Transformer::forward` on the whole prefix at every step,
//! at every SIMD level, for random linear and quadratic models whose
//! sources and decoded prefixes contain PAD. Own integration binary
//! because `force_level` is process-global.

use qn_autograd::{EagerExec, Exec};
use qn_data::{BOS, EOS, PAD};
use qn_models::{Transformer, TransformerConfig};
use qn_tensor::Rng;
use std::sync::Mutex;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

const SRC_VOCAB: usize = 11;
const TGT_VOCAB: usize = 13;
const MAX_LEN: usize = 14;

/// The full-recompute decoder: encoder and decoder rerun on the whole
/// prefix at every step, the last logits row picks the next token.
fn full_recompute(model: &Transformer, src: &[usize], max_len: usize) -> Vec<usize> {
    let mut cx = EagerExec::new();
    let mut out = Vec::new();
    for _ in 0..max_len {
        cx.reset();
        let mut tgt_in = vec![BOS];
        tgt_in.extend_from_slice(&out);
        let logits = model.forward(&mut cx, &[src.to_vec()], &[tgt_in.clone()]);
        let t = tgt_in.len();
        let last = cx.value(logits).slice_axis(1, t - 1, t);
        let row = last.reshape(&[1, TGT_VOCAB]).expect("logit row");
        let next = row.argmax_rows()[0];
        if next == EOS {
            break;
        }
        out.push(next);
    }
    out
}

/// A random model and source. Case 0 mod 3 keeps the initial output bias;
/// 1 mod 3 rules out EOS, so decoding runs to `max_len`; 2 mod 3 also
/// favours PAD, so decoded prefixes carry PAD keys.
fn random_case(case: usize, rng: &mut Rng) -> (Transformer, Vec<usize>) {
    let d_model = [12, 24][rng.below(2)];
    let model = Transformer::new(TransformerConfig {
        src_vocab: SRC_VOCAB,
        tgt_vocab: TGT_VOCAB,
        d_model,
        heads: 1 + rng.below(4),
        enc_layers: 1 + rng.below(2),
        dec_layers: 1 + rng.below(2),
        d_ff: 16,
        quadratic_rank: (case % 2 == 1).then(|| [1, 2, 3, 5][rng.below(4)]),
        max_len: MAX_LEN,
        dropout: 0.1,
        seed: rng.below(1 << 30) as u64,
    });
    if case % 3 >= 1 {
        // `visit_params` order ends with `out_proj.bias`
        let bias = model.params().pop().expect("out_proj.bias");
        let mut b = bias.value();
        assert_eq!(b.numel(), TGT_VOCAB);
        b.data_mut()[EOS] = -1e4;
        if case % 3 == 2 {
            b.data_mut()[PAD] += 2.0;
        }
        bias.set_value(b);
    }
    let len = 1 + rng.below(MAX_LEN);
    let mut src: Vec<usize> = (0..len).map(|_| rng.below(SRC_VOCAB)).collect();
    src[rng.below(len)] = PAD;
    (model, src)
}

#[test]
fn greedy_decode_matches_full_recompute_at_every_level() {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev_level = qn_simd::SimdLevel::active();
    let mut rng = Rng::seed_from(0xD3C0DE);
    let (mut full_length, mut pad_tokens) = (0, 0);
    for case in 0..12 {
        let (model, src) = random_case(case, &mut rng);
        let mut first: Option<Vec<usize>> = None;
        for level in qn_simd::available_levels() {
            qn_simd::force_level(level);
            let want = full_recompute(&model, &src, MAX_LEN);
            let got = model.greedy_decode(&src, MAX_LEN);
            assert_eq!(
                got, want,
                "case {case} at {level:?}: incremental decode diverges from full recompute"
            );
            let first = first.get_or_insert(got.clone());
            assert_eq!(&got, first, "case {case}: tokens differ across levels");
        }
        let tokens = first.expect("at least the scalar level");
        full_length += usize::from(tokens.len() == MAX_LEN);
        pad_tokens += tokens.iter().filter(|&&t| t == PAD).count();
    }
    qn_simd::force_level(prev_level);
    // the cases must reach the cache's full depth and decode PAD keys
    assert!(full_length > 0, "no decode ran to max_len");
    assert!(pad_tokens > 0, "no decode emitted PAD");
}
