//! `seq2seq-decode`: `Transformer::greedy_decode` with table2's quadratic
//! configuration (d_model 32, k=7, 2+2 layers, `max_len` 40) on untrained
//! weights of a fixed seed. Sources come from a `TranslationDataset` of the
//! workload seed;
//! output is capped at 32 tokens. Offline job over the source set.

use crate::stats::{cpu_ms, median, quantile, Clock, Digest, Timings};
use crate::trace::{OpStat, Traced};
use crate::{report_value, timed_setup, Outcome, SETUP_REPS};
use qn_autograd::{EagerExec, Exec};
use qn_data::{TranslationConfig, TranslationDataset, BOS, EOS};
use qn_models::{Transformer, TransformerConfig};
use qn_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SOURCES: usize = 48;
const CAP: usize = 32;
const TRACED_SOURCES: usize = 4;
/// Seed of the untrained weights, the same for every workload seed (which
/// picks the sources). Output length follows the weights far more than the
/// sources: some weight draws stop most sentences at the first step, which
/// halves the work of a run and moves the per-sentence median 30-fold.
/// These weights run every sentence of ten source sets to the cap or close.
const MODEL_SEED: u64 = 403;
const OPS: [&str; 6] = [
    "bmm",
    "softmax_last",
    "layer_norm",
    "matmul_transb",
    "weighted_square_sum",
    "embedding",
];

struct Bench {
    model: Transformer,
    sources: Vec<Vec<usize>>,
}

fn build(seed: u64) -> Bench {
    let data = TranslationDataset::generate(TranslationConfig {
        train_pairs: 1,
        test_pairs: SOURCES,
        min_clauses: 1,
        max_clauses: 2,
        seed,
    });
    let model = Transformer::new(TransformerConfig {
        src_vocab: data.src_vocab_len(),
        tgt_vocab: data.tgt_vocab_len(),
        d_model: 32,
        heads: 4,
        enc_layers: 2,
        dec_layers: 2,
        d_ff: 64,
        quadratic_rank: Some(7),
        max_len: 40,
        dropout: 0.1,
        seed: MODEL_SEED,
    });
    let sources: Vec<Vec<usize>> = data.test.into_iter().map(|p| p.source).collect();
    // warm-up: one forward at the longest decoder prefix fills the global
    // buffer pool every `greedy_decode` arena draws from (a fixed amount
    // of work, unlike decoding a seed-dependent number of tokens)
    let mut cx = EagerExec::new();
    model.forward(&mut cx, &sources[..1], &[vec![BOS; CAP]]);
    Bench { model, sources }
}

/// Next token after `prefix` from logits on `cx` (reset by the caller).
fn next_token(model: &Transformer, cx: &mut dyn Exec, src: &[usize], prefix: &[usize]) -> usize {
    let logits = model.forward(cx, &[src.to_vec()], &[prefix.to_vec()]);
    let t = prefix.len();
    let v = model.config().tgt_vocab;
    let row = cx.value(logits).data()[(t - 1) * v..t * v].to_vec();
    // `argmax_rows`, as `greedy_decode` picks the token
    Tensor::from_vec(row, &[1, v])
        .expect("one logit row")
        .argmax_rows()[0]
}

/// The reference decoder: full recompute of `Transformer::forward` on a
/// fresh `EagerExec` at every step. A faster decoder must emit the same
/// tokens.
fn reference(model: &Transformer, src: &[usize]) -> Vec<usize> {
    let mut prefix = vec![BOS];
    while prefix.len() <= CAP {
        let next = next_token(model, &mut EagerExec::new(), src, &prefix);
        if next == EOS {
            break;
        }
        prefix.push(next);
    }
    prefix.split_off(1)
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    println!("seq2seq-decode: greedy_decode, quadratic transformer d_model 32 k=7 2+2 layers, {SOURCES} sources, cap {CAP} tokens");
    let (setup_s, b) = timed_setup(SETUP_REPS, || build(seed));
    let refs: Vec<Vec<usize>> = b.sources.iter().map(|s| reference(&b.model, s)).collect();
    let mut digest = Digest::default();
    for r in &refs {
        digest.usizes(r);
    }
    let mut o = Outcome::default();
    let mut t = Timings::default();
    let mut tokens = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget {
        for (src, want) in b.sources.iter().zip(&refs) {
            let c = Clock::start();
            let out = b.model.greedy_decode(src, CAP);
            t.stop(&c);
            tokens += out.len();
            o.check(&out == want);
        }
    }
    let per_pass: usize = refs.iter().map(Vec::len).sum();
    println!(
        "  {per_pass} tokens per pass over {SOURCES} sources; {} stop at EOS before the cap",
        refs.iter().filter(|r| r.len() < CAP).count()
    );
    t.report("decode_sentence");
    let tok_s = tokens as f64 * 1e3 / t.wall.iter().sum::<f64>();
    let tok_cpu_s = tokens as f64 * 1e3 / t.cpu.iter().sum::<f64>();
    report_value("decode_tok_s", "tokens/s", tok_s);
    report_value("decode_tok_per_cpu_s", "tokens/cpu_s", tok_cpu_s);
    println!(
        "  ops {} failed {} digest {}",
        o.attempted,
        o.failed,
        digest.hex()
    );
    o.metric("setup_s", "s", setup_s);
    o.metric("cpu_p50_ms", "ms", median(&t.cpu));
    o.metric("cpu_p90_ms", "ms", quantile(&t.cpu, 0.9));
    o.metric("per_cpu_s", "1/cpu_s", tok_cpu_s);
    o
}

/// Traces greedy decoding step by step on one reused wrapped arena (as
/// `greedy_decode` reuses its `EagerExec`).
pub fn trace(seed: u64) -> Outcome {
    println!("trace seq2seq-decode: {TRACED_SOURCES} sources decoded step by step on a wrapped EagerExec");
    let b = build(seed);
    let mut o = Outcome::default();
    let mut t = Traced::new(EagerExec::new());
    let mut ops: BTreeMap<&'static str, OpStat> = BTreeMap::new();
    let (mut tokens, mut positions) = (0usize, 0usize);
    let (mut first_ms, mut last_ms) = (Vec::new(), Vec::new());
    for src in b.sources.iter().take(TRACED_SOURCES) {
        let mut prefix = vec![BOS];
        let mut step_ms = Vec::new();
        while prefix.len() <= CAP {
            t.inner.reset();
            t.clear();
            let t0 = cpu_ms();
            let next = next_token(&b.model, &mut t, src, &prefix);
            step_ms.push(cpu_ms() - t0);
            positions += prefix.len();
            t.add_into(&mut ops);
            if next == EOS {
                break;
            }
            prefix.push(next);
        }
        tokens += prefix.len() - 1;
        first_ms.push(step_ms[0]);
        last_ms.push(*step_ms.last().expect("at least one step"));
        o.check(prefix[1..] == reference(&b.model, src)[..]);
    }
    let useful = tokens as f64 / positions.max(1) as f64;
    println!(
        "  {tokens} tokens over {positions} decoder positions (useful {useful:.3}); first step {:.3} ms, last step {:.3} ms",
        median(&first_ms),
        median(&last_ms)
    );
    o.metric("decode.tokens", "count", tokens as f64);
    o.metric("decode.positions", "count", positions as f64);
    o.metric("decode.useful_frac", "ratio", useful);
    o.metric("decode.step_first_ms", "ms", median(&first_ms));
    o.metric("decode.step_last_ms", "ms", median(&last_ms));
    let mut other = 0.0;
    let mut split = BTreeMap::new();
    for (k, s) in &ops {
        let ms = s.ms / TRACED_SOURCES as f64;
        if OPS.contains(k) {
            split.insert(*k, ms);
        } else {
            other += ms;
        }
    }
    for op in OPS {
        o.metric(
            format!("decode.autograd.{op}.ms"),
            "ms",
            split.get(op).copied().unwrap_or(0.0),
        );
    }
    o.metric("decode.autograd.other.ms", "ms", other);
    o
}
