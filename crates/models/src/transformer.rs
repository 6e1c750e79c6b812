use qn_autograd::{EagerExec, Exec, Graph, Parameter, Var};
use qn_core::neurons::EfficientQuadraticLinear;
use qn_data::{BOS, EOS, PAD};
use qn_nn::{visit_scoped, Embedding, LayerNorm, Linear, Module, ParamVisitor};
use qn_tensor::{Rng, Tensor, TensorError};

/// Configuration for [`Transformer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerConfig {
    /// Source vocabulary size.
    pub src_vocab: usize,
    /// Target vocabulary size.
    pub tgt_vocab: usize,
    /// Model width; must be divisible by `heads` and, when quadratic
    /// projections are enabled, by `rank + 1`.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub enc_layers: usize,
    /// Decoder layers.
    pub dec_layers: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// `Some(k)`: replace the Q/K/V/O projections of every attention block
    /// with efficient quadratic neurons of rank `k` (the paper's Table II
    /// deployment). `None`: linear baseline.
    pub quadratic_rank: Option<usize>,
    /// Maximum sequence length (positional-encoding table size).
    pub max_len: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl TransformerConfig {
    fn validate(&self) {
        assert!(
            self.d_model.is_multiple_of(self.heads),
            "d_model must divide by heads"
        );
        if let Some(k) = self.quadratic_rank {
            assert!(
                self.d_model.is_multiple_of(k + 1),
                "d_model {} must divide by rank+1 = {}",
                self.d_model,
                k + 1
            );
        }
    }
}

/// Builds an attention projection: linear, or the paper's quadratic neuron.
fn projection(cfg: &TransformerConfig, rng: &mut Rng) -> Box<dyn Module> {
    match cfg.quadratic_rank {
        None => Box::new(Linear::new(cfg.d_model, cfg.d_model, false, rng)),
        Some(k) => {
            let neurons = cfg.d_model / (k + 1);
            Box::new(EfficientQuadraticLinear::new(cfg.d_model, neurons, k, rng))
        }
    }
}

/// Multi-head attention with pluggable projections.
struct Mha {
    q: Box<dyn Module>,
    k: Box<dyn Module>,
    v: Box<dyn Module>,
    o: Box<dyn Module>,
    heads: usize,
    d_model: usize,
}

impl Mha {
    fn new(cfg: &TransformerConfig, rng: &mut Rng) -> Self {
        Mha {
            q: projection(cfg, rng),
            k: projection(cfg, rng),
            v: projection(cfg, rng),
            o: projection(cfg, rng),
            heads: cfg.heads,
            d_model: cfg.d_model,
        }
    }

    /// `[B, T, D]` → per-head `[B·H, T, dh]`.
    fn split_heads(&self, g: &mut dyn Exec, x: Var) -> Var {
        let (b, t) = {
            let s = g.value(x).shape();
            (s.dim(0), s.dim(1))
        };
        let (h, dh) = (self.heads, self.d_model / self.heads);
        let x4 = g.reshape(x, &[b, t, h, dh]);
        let x4 = g.permute(x4, &[0, 2, 1, 3]); // [B, H, T, dh]
        g.reshape(x4, &[b * h, t, dh])
    }

    /// Queries of `x_q: [B, Tq, D]`, split per head into `[B·H, Tq, dh]`.
    /// Self-attention calls this before [`Mha::project_kv`] on the same
    /// input: the tape sums that input's gradients in reverse creation
    /// order, so the call order fixes the bits of every training step.
    fn project_q(&self, g: &mut dyn Exec, x_q: Var) -> Var {
        let q = self.q.forward(g, x_q);
        self.split_heads(g, q)
    }

    /// Keys and values of `x_kv: [B, Tk, D]`, each split per head into
    /// `[B·H, Tk, dh]`.
    fn project_kv(&self, g: &mut dyn Exec, x_kv: Var) -> (Var, Var) {
        let k = self.k.forward(g, x_kv);
        let v = self.v.forward(g, x_kv);
        (self.split_heads(g, k), self.split_heads(g, v))
    }

    /// Attends per-head queries `q3` to per-head keys and values under the
    /// additive `mask: [B·H, Tq, Tk]`, then applies the output projection.
    fn attend(&self, g: &mut dyn Exec, q3: Var, (k3, v3): (Var, Var), mask: Var) -> Var {
        let (h, dh) = (self.heads, self.d_model / self.heads);
        let (b, tq) = {
            let s = g.value(q3).shape();
            (s.dim(0) / h, s.dim(1))
        };
        let kt = g.permute(k3, &[0, 2, 1]); // [B·H, dh, Tk]
        let scores = g.bmm(q3, kt);
        let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let scores = g.add(scores, mask);
        let attn = g.softmax_last(scores);
        let ctx = g.bmm(attn, v3); // [B·H, Tq, dh]
        let ctx = g.reshape(ctx, &[b, h, tq, dh]);
        let ctx = g.permute(ctx, &[0, 2, 1, 3]); // [B, Tq, H, dh]
        let ctx = g.reshape(ctx, &[b, tq, self.d_model]);
        self.o.forward(g, ctx)
    }

    fn visit_params(&self, vis: &mut dyn ParamVisitor) {
        visit_scoped(vis, "q", |vis| self.q.visit_params(vis));
        visit_scoped(vis, "k", |vis| self.k.visit_params(vis));
        visit_scoped(vis, "v", |vis| self.v.visit_params(vis));
        visit_scoped(vis, "o", |vis| self.o.visit_params(vis));
    }
}

struct FeedForward {
    lin1: Linear,
    lin2: Linear,
}

impl FeedForward {
    fn new(cfg: &TransformerConfig, rng: &mut Rng) -> Self {
        FeedForward {
            lin1: Linear::new(cfg.d_model, cfg.d_ff, true, rng),
            lin2: Linear::new(cfg.d_ff, cfg.d_model, true, rng),
        }
    }

    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let h = self.lin1.forward(g, x);
        let h = g.relu(h);
        self.lin2.forward(g, h)
    }

    fn visit_params(&self, vis: &mut dyn ParamVisitor) {
        visit_scoped(vis, "lin1", |vis| self.lin1.visit_params(vis));
        visit_scoped(vis, "lin2", |vis| self.lin2.visit_params(vis));
    }
}

struct EncoderLayer {
    ln1: LayerNorm,
    attn: Mha,
    ln2: LayerNorm,
    ffn: FeedForward,
    dropout: f32,
}

impl EncoderLayer {
    fn new(cfg: &TransformerConfig, rng: &mut Rng) -> Self {
        EncoderLayer {
            ln1: LayerNorm::new(cfg.d_model),
            attn: Mha::new(cfg, rng),
            ln2: LayerNorm::new(cfg.d_model),
            ffn: FeedForward::new(cfg, rng),
            dropout: cfg.dropout,
        }
    }

    fn forward(&self, g: &mut dyn Exec, x: Var, mask: Var) -> Var {
        let n = self.ln1.forward(g, x);
        let q = self.attn.project_q(g, n);
        let kv = self.attn.project_kv(g, n);
        let a = self.attn.attend(g, q, kv, mask);
        let a = g.dropout(a, self.dropout);
        let x = g.add(x, a);
        let n = self.ln2.forward(g, x);
        let f = self.ffn.forward(g, n);
        let f = g.dropout(f, self.dropout);
        g.add(x, f)
    }

    fn visit_params(&self, vis: &mut dyn ParamVisitor) {
        visit_scoped(vis, "ln1", |vis| self.ln1.visit_params(vis));
        visit_scoped(vis, "attn", |vis| self.attn.visit_params(vis));
        visit_scoped(vis, "ln2", |vis| self.ln2.visit_params(vis));
        visit_scoped(vis, "ffn", |vis| self.ffn.visit_params(vis));
    }
}

struct DecoderLayer {
    ln1: LayerNorm,
    self_attn: Mha,
    ln2: LayerNorm,
    cross_attn: Mha,
    ln3: LayerNorm,
    ffn: FeedForward,
    dropout: f32,
}

impl DecoderLayer {
    fn new(cfg: &TransformerConfig, rng: &mut Rng) -> Self {
        DecoderLayer {
            ln1: LayerNorm::new(cfg.d_model),
            self_attn: Mha::new(cfg, rng),
            ln2: LayerNorm::new(cfg.d_model),
            cross_attn: Mha::new(cfg, rng),
            ln3: LayerNorm::new(cfg.d_model),
            ffn: FeedForward::new(cfg, rng),
            dropout: cfg.dropout,
        }
    }

    /// The layer over decoder rows `x: [B, T, D]`, which hold the newest
    /// `T` positions. `past` is the self-attention K/V of the positions
    /// before them (`None` when `x` starts at position 0) and `cross` the
    /// cross-attention K/V of the encoder memory, both as
    /// [`Mha::project_kv`] returns them. Returns the output rows and the
    /// self-attention K/V of every position so far.
    fn forward(
        &self,
        g: &mut dyn Exec,
        x: Var,
        past: Option<(Var, Var)>,
        cross: (Var, Var),
        self_mask: Var,
        cross_mask: Var,
    ) -> (Var, (Var, Var)) {
        let n = self.ln1.forward(g, x);
        let q = self.self_attn.project_q(g, n);
        let (k, v) = self.self_attn.project_kv(g, n);
        let kv = match past {
            Some((pk, pv)) => (g.concat(&[pk, k], 1), g.concat(&[pv, v], 1)),
            None => (k, v),
        };
        let a = self.self_attn.attend(g, q, kv, self_mask);
        let a = g.dropout(a, self.dropout);
        let x = g.add(x, a);
        let n = self.ln2.forward(g, x);
        let q = self.cross_attn.project_q(g, n);
        let c = self.cross_attn.attend(g, q, cross, cross_mask);
        let c = g.dropout(c, self.dropout);
        let x = g.add(x, c);
        let n = self.ln3.forward(g, x);
        let f = self.ffn.forward(g, n);
        let f = g.dropout(f, self.dropout);
        (g.add(x, f), kv)
    }

    fn visit_params(&self, vis: &mut dyn ParamVisitor) {
        visit_scoped(vis, "ln1", |vis| self.ln1.visit_params(vis));
        visit_scoped(vis, "self_attn", |vis| self.self_attn.visit_params(vis));
        visit_scoped(vis, "ln2", |vis| self.ln2.visit_params(vis));
        visit_scoped(vis, "cross_attn", |vis| self.cross_attn.visit_params(vis));
        visit_scoped(vis, "ln3", |vis| self.ln3.visit_params(vis));
        visit_scoped(vis, "ffn", |vis| self.ffn.visit_params(vis));
    }
}

/// Pre-LN Transformer encoder–decoder with pluggable attention projections,
/// reproducing the paper's Table II deployment of quadratic neurons inside
/// multi-head attention.
pub struct Transformer {
    src_emb: Embedding,
    tgt_emb: Embedding,
    pe: Tensor,
    encoder: Vec<EncoderLayer>,
    decoder: Vec<DecoderLayer>,
    final_ln: LayerNorm,
    out_proj: Linear,
    config: TransformerConfig,
}

impl Transformer {
    /// Builds a transformer from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `heads` (or by `rank + 1`
    /// when quadratic projections are enabled).
    pub fn new(config: TransformerConfig) -> Self {
        config.validate();
        let mut rng = Rng::seed_from(config.seed);
        let pe = sinusoidal_pe(config.max_len, config.d_model);
        let encoder = (0..config.enc_layers)
            .map(|_| EncoderLayer::new(&config, &mut rng))
            .collect();
        let decoder = (0..config.dec_layers)
            .map(|_| DecoderLayer::new(&config, &mut rng))
            .collect();
        Transformer {
            src_emb: Embedding::new(config.src_vocab, config.d_model, &mut rng),
            tgt_emb: Embedding::new(config.tgt_vocab, config.d_model, &mut rng),
            pe,
            encoder,
            decoder,
            final_ln: LayerNorm::new(config.d_model),
            out_proj: Linear::new(config.d_model, config.tgt_vocab, true, &mut rng),
            config,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Walks every parameter with its stable dotted path (the persistence
    /// contract used by checkpoints): `src_emb.weight`, `encoder{i}.…`,
    /// `decoder{i}.…`, `final_ln.…`, `out_proj.…`.
    pub fn visit_params(&self, vis: &mut dyn ParamVisitor) {
        visit_scoped(vis, "src_emb", |vis| self.src_emb.visit_params(vis));
        visit_scoped(vis, "tgt_emb", |vis| self.tgt_emb.visit_params(vis));
        for (i, l) in self.encoder.iter().enumerate() {
            visit_scoped(vis, &format!("encoder{i}"), |vis| l.visit_params(vis));
        }
        for (i, l) in self.decoder.iter().enumerate() {
            visit_scoped(vis, &format!("decoder{i}"), |vis| l.visit_params(vis));
        }
        visit_scoped(vis, "final_ln", |vis| self.final_ln.visit_params(vis));
        visit_scoped(vis, "out_proj", |vis| self.out_proj.visit_params(vis));
    }

    /// All trainable parameters, in [`Transformer::visit_params`] order.
    pub fn params(&self) -> Vec<Parameter> {
        struct Collect(Vec<Parameter>);
        impl ParamVisitor for Collect {
            fn param(&mut self, _name: &str, p: &Parameter) {
                self.0.push(p.clone());
            }
        }
        let mut c = Collect(Vec::new());
        self.visit_params(&mut c);
        c.0
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Parameters split into (quadratic `Λᵏ`, all others).
    pub fn param_groups(&self) -> (Vec<Parameter>, Vec<Parameter>) {
        qn_core::split_lambda_params(self.params())
    }

    /// Embeds positions `start..start + len` of every sequence in `batch`
    /// (PAD past its end): scaled token embeddings plus the positional rows.
    fn embed(
        &self,
        g: &mut dyn Exec,
        emb: &Embedding,
        batch: &[Vec<usize>],
        start: usize,
        len: usize,
    ) -> Var {
        let b = batch.len();
        let mut flat = Vec::with_capacity(b * len);
        for seq in batch {
            for t in start..start + len {
                flat.push(seq.get(t).copied().unwrap_or(PAD));
            }
        }
        let e = emb.forward(g, &flat); // [B·T, D]
        let e = g.scale(e, (self.config.d_model as f32).sqrt());
        let e = g.reshape(e, &[b, len, self.config.d_model]);
        // add positional encoding (suffix broadcast over batch)
        let pe = self.pe.slice_axis(0, start, start + len);
        let pv = g.leaf(pe);
        g.add_bcast(e, pv)
    }

    /// Additive key-padding mask `[B·H, Tq, Tk]`: -1e9 where the key is PAD.
    fn padding_mask(&self, batch: &[Vec<usize>], tq: usize, tk: usize) -> Tensor {
        let b = batch.len();
        let h = self.config.heads;
        let mut m = Tensor::zeros(&[b * h, tq, tk]);
        for (bi, seq) in batch.iter().enumerate() {
            for kpos in 0..tk {
                let is_pad = seq.get(kpos).copied().unwrap_or(PAD) == PAD;
                if is_pad {
                    for hi in 0..h {
                        for qpos in 0..tq {
                            m.set(&[bi * h + hi, qpos, kpos], -1e9);
                        }
                    }
                }
            }
        }
        m
    }

    /// Causal + key-padding mask for decoder self-attention.
    fn causal_mask(&self, batch: &[Vec<usize>], t: usize) -> Tensor {
        let mut m = self.padding_mask(batch, t, t);
        let bh = batch.len() * self.config.heads;
        for i in 0..bh {
            for q in 0..t {
                for k in (q + 1)..t {
                    m.set(&[i, q, k], -1e9);
                }
            }
        }
        m
    }

    /// Encoder memory `[B, Ts, D]` of `src` padded to `ts` positions.
    fn encode(&self, g: &mut dyn Exec, src: &[Vec<usize>], ts: usize) -> Var {
        let mask = g.leaf(self.padding_mask(src, ts, ts));
        let mut x = self.embed(g, &self.src_emb, src, 0, ts);
        for l in &self.encoder {
            x = l.forward(g, x, mask);
        }
        x
    }

    /// Runs encoder + decoder, returning logits `[B, T_tgt, V]` for decoder
    /// inputs `tgt_in` (already BOS-prefixed and padded by the caller to a
    /// common length).
    pub fn forward(&self, g: &mut dyn Exec, src: &[Vec<usize>], tgt_in: &[Vec<usize>]) -> Var {
        let ts = src.iter().map(Vec::len).max().unwrap_or(1);
        let tt = tgt_in.iter().map(Vec::len).max().unwrap_or(1);
        let memory = self.encode(g, src, ts);
        let self_mask = g.leaf(self.causal_mask(tgt_in, tt));
        let cross_mask = g.leaf(self.padding_mask(src, tt, ts));
        let mut y = self.embed(g, &self.tgt_emb, tgt_in, 0, tt);
        for l in &self.decoder {
            let cross = l.cross_attn.project_kv(g, memory);
            y = l.forward(g, y, None, cross, self_mask, cross_mask).0;
        }
        let y = self.final_ln.forward(g, y);
        self.out_proj.forward(g, y) // [B, T, V]
    }

    /// Teacher-forced training loss over a batch of (source, target) pairs
    /// with label smoothing. Decoder input is `BOS ⧺ target`, the prediction
    /// target `target ⧺ EOS`; PAD positions carry zero weight.
    pub fn loss(&self, g: &mut Graph, pairs: &[(&[usize], &[usize])], label_smoothing: f32) -> Var {
        let src: Vec<Vec<usize>> = pairs.iter().map(|(s, _)| s.to_vec()).collect();
        let tt = pairs.iter().map(|(_, t)| t.len() + 1).max().unwrap_or(1);
        let mut tgt_in = Vec::with_capacity(pairs.len());
        let mut targets = Vec::with_capacity(pairs.len() * tt);
        let mut weights = Vec::with_capacity(pairs.len() * tt);
        for (_, t) in pairs {
            let mut inp = vec![BOS];
            inp.extend_from_slice(t);
            inp.resize(tt, PAD);
            tgt_in.push(inp);
            for pos in 0..tt {
                if pos < t.len() {
                    targets.push(t[pos]);
                    weights.push(1.0);
                } else if pos == t.len() {
                    targets.push(EOS);
                    weights.push(1.0);
                } else {
                    targets.push(PAD);
                    weights.push(0.0);
                }
            }
        }
        let logits = self.forward(g, &src, &tgt_in);
        let b = pairs.len();
        let flat = g.reshape(logits, &[b * tt, self.config.tgt_vocab]);
        g.softmax_cross_entropy_weighted(flat, &targets, &weights, label_smoothing)
    }

    /// Greedy decoding of one source sentence (no BOS/EOS framing in the
    /// input); stops at EOS or `max_len` tokens.
    ///
    /// Decodes incrementally on one reused [`EagerExec`] arena: the source
    /// is encoded once, each decoder layer's cross-attention K/V are
    /// projected from the encoder memory once, and each step runs the
    /// decoder on the newest token alone against a cache of the earlier
    /// positions' self-attention K/V. The tokens are bit-identical to
    /// rerunning [`Transformer::forward`] on the whole prefix at every
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty, if it is longer than `config().max_len`
    /// or has a token id outside the source vocabulary, or if `max_len`
    /// exceeds `config().max_len`; [`Transformer::try_greedy_decode`]
    /// returns these as errors for input from untrusted requests.
    pub fn greedy_decode(&self, src: &[usize], max_len: usize) -> Vec<usize> {
        self.try_greedy_decode(src, max_len)
            .unwrap_or_else(|e| panic!("greedy_decode: {e}"))
    }

    /// Validating variant of [`Transformer::greedy_decode`] for serving:
    /// rejects input it cannot decode instead of panicking.
    ///
    /// # Errors
    ///
    /// - [`TensorError::EmptyInput`] if `src` is empty;
    /// - [`TensorError::IndexOutOfRange`] with bound `config().max_len`
    ///   if `src` or `max_len` would need a position past the positional
    ///   table (the index is the last position needed);
    /// - [`TensorError::IndexOutOfRange`] with bound `src_vocab` for the
    ///   first source id at or beyond it.
    pub fn try_greedy_decode(
        &self,
        src: &[usize],
        max_len: usize,
    ) -> Result<Vec<usize>, TensorError> {
        if src.is_empty() {
            return Err(TensorError::EmptyInput { what: "source" });
        }
        let bound = self.config.max_len;
        for len in [src.len(), max_len] {
            if len > bound {
                return Err(TensorError::IndexOutOfRange {
                    index: len - 1,
                    bound,
                });
            }
        }
        if let Some(&t) = src.iter().find(|&&t| t >= self.config.src_vocab) {
            return Err(TensorError::IndexOutOfRange {
                index: t,
                bound: self.config.src_vocab,
            });
        }
        let mut cx = EagerExec::new();
        let mut st = self.start_decode(&mut cx, src);
        while st.prefix.len() <= max_len {
            let logits = self.decode_step(&mut cx, &mut st);
            let next = cx.value(logits).argmax_rows()[0];
            if next == EOS {
                break;
            }
            st.prefix.push(next);
        }
        Ok(st.prefix.split_off(1))
    }

    /// Encodes `src` and projects every decoder layer's cross-attention K/V
    /// from the memory, once per sentence.
    fn start_decode(&self, cx: &mut EagerExec, src: &[usize]) -> DecodeState {
        cx.reset();
        let src = [src.to_vec()];
        let ts = src[0].len();
        let memory = self.encode(cx, &src, ts);
        let cross = self
            .decoder
            .iter()
            .map(|l| {
                let (k, v) = l.cross_attn.project_kv(cx, memory);
                (cx.take(k), cx.take(v))
            })
            .collect();
        DecodeState {
            prefix: vec![BOS],
            cross_mask: self.padding_mask(&src, 1, ts),
            cross,
            past: vec![None; self.decoder.len()],
        }
    }

    /// Runs the decoder on the newest token of `st.prefix` alone, at
    /// position `prefix.len() - 1`, appends its self-attention K/V to
    /// `st.past`, and returns its logits `[1, V]`.
    fn decode_step(&self, cx: &mut EagerExec, st: &mut DecodeState) -> Var {
        cx.reset();
        let t = st.prefix.len();
        let prefix = std::slice::from_ref(&st.prefix);
        // the last row of `causal_mask(prefix, t)`: -1e9 at PAD keys only
        let self_mask = cx.leaf(self.padding_mask(prefix, 1, t));
        let cross_mask = cx.leaf_view(&st.cross_mask);
        let mut y = self.embed(cx, &self.tgt_emb, prefix, t - 1, 1);
        for ((l, (ck, cv)), past) in self.decoder.iter().zip(&st.cross).zip(&mut st.past) {
            let cross = (cx.leaf_view(ck), cx.leaf_view(cv));
            let prev = past.take().map(|(k, v)| (cx.leaf(k), cx.leaf(v)));
            let (out, (k, v)) = l.forward(cx, y, prev, cross, self_mask, cross_mask);
            *past = Some((cx.take(k), cx.take(v)));
            y = out;
        }
        let y = self.final_ln.forward(cx, y);
        let logits = self.out_proj.forward(cx, y);
        cx.reshape(logits, &[1, self.config.tgt_vocab])
    }
}

/// Per-sentence state of incremental greedy decoding.
struct DecodeState {
    /// `BOS` followed by the tokens decoded so far.
    prefix: Vec<usize>,
    /// Cross-attention key-padding row `[H, 1, Ts]`, the same every step.
    cross_mask: Tensor,
    /// Per decoder layer: cross-attention K/V of the encoder memory.
    cross: Vec<(Tensor, Tensor)>,
    /// Per decoder layer: self-attention K/V of every stepped position
    /// (`None` before the first step).
    past: Vec<Option<(Tensor, Tensor)>>,
}

/// Sinusoidal positional-encoding table `[max_len, d]`.
fn sinusoidal_pe(max_len: usize, d: usize) -> Tensor {
    let mut pe = Tensor::zeros(&[max_len, d]);
    for pos in 0..max_len {
        for i in 0..d {
            let angle = pos as f32 / 10000f32.powf((2 * (i / 2)) as f32 / d as f32);
            pe.set(
                &[pos, i],
                if i % 2 == 0 { angle.sin() } else { angle.cos() },
            );
        }
    }
    pe
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(quadratic_rank: Option<usize>) -> TransformerConfig {
        TransformerConfig {
            src_vocab: 30,
            tgt_vocab: 32,
            d_model: 16,
            heads: 2,
            enc_layers: 1,
            dec_layers: 1,
            d_ff: 32,
            quadratic_rank,
            max_len: 16,
            dropout: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn forward_shapes_linear_and_quadratic() {
        for rank in [None, Some(3)] {
            let t = Transformer::new(tiny_config(rank));
            let mut g = Graph::new();
            let src = vec![vec![3, 4, 5], vec![6, 7, 8]];
            let tgt = vec![vec![1, 9, 10], vec![1, 11, 12]];
            let y = t.forward(&mut g, &src, &tgt);
            assert_eq!(g.value(y).shape().dims(), &[2, 3, 32], "{rank:?}");
        }
    }

    #[test]
    fn loss_is_finite_and_backpropagates() {
        let t = Transformer::new(tiny_config(Some(3)));
        let mut g = Graph::training(0);
        let src: Vec<usize> = vec![3, 4, 5];
        let tgt: Vec<usize> = vec![9, 10];
        let loss = t.loss(&mut g, &[(&src, &tgt)], 0.1);
        assert!(g.value(loss).data()[0].is_finite());
        g.backward(loss);
        let (lambda, _) = t.param_groups();
        assert!(!lambda.is_empty());
        // every lambda received gradient signal storage (possibly zero but allocated)
        for p in &lambda {
            assert_eq!(p.grad().numel(), p.numel());
        }
    }

    #[test]
    fn quadratic_projection_param_parity() {
        // at equal d_model, quadratic projections cost ≈ the same as linear
        // (n + k/(k+1) per output); the paper's savings come from shrinking
        // d_model/d_ff at equal BLEU
        let lin = Transformer::new(tiny_config(None));
        let quad = Transformer::new(tiny_config(Some(3)));
        let ratio = quad.param_count() as f64 / lin.param_count() as f64;
        assert!(ratio < 1.05 && ratio > 0.95, "ratio {ratio}");
    }

    #[test]
    fn causal_mask_blocks_future() {
        let t = Transformer::new(tiny_config(None));
        let m = t.causal_mask(&[vec![5, 6, 7]], 3);
        assert_eq!(m.get(&[0, 0, 1]), -1e9);
        assert_eq!(m.get(&[0, 1, 0]), 0.0);
        assert_eq!(m.get(&[0, 2, 2]), 0.0);
    }

    #[test]
    fn padding_mask_blocks_pad_keys() {
        let t = Transformer::new(tiny_config(None));
        let m = t.padding_mask(&[vec![5, PAD]], 2, 2);
        assert_eq!(m.get(&[0, 0, 1]), -1e9);
        assert_eq!(m.get(&[0, 1, 0]), 0.0);
    }

    #[test]
    fn greedy_decode_terminates() {
        let t = Transformer::new(tiny_config(Some(3)));
        let out = t.greedy_decode(&[3, 4, 5], 6);
        assert!(out.len() <= 6);
        assert!(out.iter().all(|&tok| tok < 32));
    }

    #[test]
    fn try_greedy_decode_rejects_empty_source() {
        let t = Transformer::new(tiny_config(Some(3)));
        assert_eq!(
            t.try_greedy_decode(&[], 4),
            Err(TensorError::EmptyInput { what: "source" })
        );
    }

    #[test]
    fn try_greedy_decode_rejects_source_past_positional_table() {
        let t = Transformer::new(tiny_config(Some(3)));
        let src = vec![3; 17]; // max_len 16
        assert_eq!(
            t.try_greedy_decode(&src, 4),
            Err(TensorError::IndexOutOfRange {
                index: 16,
                bound: 16
            })
        );
        assert!(t.try_greedy_decode(&src[..16], 4).is_ok());
    }

    #[test]
    fn try_greedy_decode_rejects_max_len_past_positional_table() {
        let t = Transformer::new(tiny_config(Some(3)));
        assert_eq!(
            t.try_greedy_decode(&[3, 4, 5], 17),
            Err(TensorError::IndexOutOfRange {
                index: 16,
                bound: 16
            })
        );
        assert!(t.try_greedy_decode(&[3, 4, 5], 16).is_ok());
    }

    /// Random ids below `vocab`, `from + 1..=max_len` of them, with a PAD
    /// at a random position at or after `from`.
    fn ids_with_pad(rng: &mut Rng, max_len: usize, vocab: usize, from: usize) -> Vec<usize> {
        let len = from + 1 + rng.below(max_len - from);
        let mut ids: Vec<usize> = (0..len).map(|_| rng.below(vocab)).collect();
        ids[from + rng.below(len - from)] = PAD;
        ids
    }

    /// Every incremental decoder step, teacher-forced over a target with
    /// PAD ids and a source with PAD ids, yields bit for bit the logits
    /// row that `forward` computes for that position on the whole prefix
    /// (the full recompute `greedy_decode` replaced), at 1 and N threads.
    #[test]
    fn decode_steps_match_forward_rows_bit_for_bit() {
        let mut rng = Rng::seed_from(0xDEC0);
        for case in 0..12 {
            let d_model = [12, 24][rng.below(2)];
            let config = TransformerConfig {
                src_vocab: 11,
                tgt_vocab: 13,
                d_model,
                heads: 1 + rng.below(4),
                enc_layers: 1 + rng.below(2),
                dec_layers: 1 + rng.below(2),
                d_ff: 16,
                quadratic_rank: (case % 2 == 1).then(|| [1, 2, 3, 5][rng.below(4)]),
                max_len: 12,
                dropout: 0.1,
                seed: rng.below(1 << 30) as u64,
            };
            let model = Transformer::new(config);
            let src = ids_with_pad(&mut rng, 12, 11, 0);
            let mut tgt_in = ids_with_pad(&mut rng, 12, 13, 1);
            tgt_in[0] = BOS;
            let steps = || {
                let mut cx = EagerExec::new();
                let mut st = model.start_decode(&mut cx, &src);
                let mut rows = Vec::new();
                for &tok in &tgt_in[1..] {
                    let logits = model.decode_step(&mut cx, &mut st);
                    rows.push(cx.value(logits).clone());
                    st.prefix.push(tok);
                }
                let logits = model.decode_step(&mut cx, &mut st);
                rows.push(cx.value(logits).clone());
                rows
            };
            let parallel = steps();
            let sequential = qn_parallel::with_max_threads(1, steps);
            for p in 0..tgt_in.len() {
                let mut cx = EagerExec::new();
                let y = model.forward(
                    &mut cx,
                    std::slice::from_ref(&src),
                    &[tgt_in[..=p].to_vec()],
                );
                let want = cx.value(y).slice_axis(1, p, p + 1);
                let want = want.reshape(&[1, config.tgt_vocab]).expect("logit row");
                for (threads, got) in [("N", &parallel[p]), ("1", &sequential[p])] {
                    assert!(
                        got.bit_identical(&want),
                        "case {case} ({config:?}) step {p} at {threads} threads: \
                         {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pe_table_is_bounded() {
        let pe = sinusoidal_pe(20, 16);
        assert!(pe.max() <= 1.0 && pe.min() >= -1.0);
        // distinct positions get distinct encodings
        let p0 = pe.slice_axis(0, 0, 1);
        let p1 = pe.slice_axis(0, 1, 2);
        assert!(!p0.allclose(&p1, 1e-3));
    }

    #[test]
    #[should_panic(expected = "divide by rank")]
    fn invalid_rank_divisibility_panics() {
        let mut cfg = tiny_config(Some(4)); // d=16 not divisible by 5
        cfg.quadratic_rank = Some(4);
        Transformer::new(cfg);
    }
}
