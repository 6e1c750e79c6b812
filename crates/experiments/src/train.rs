use qn_autograd::Graph;
use qn_data::{augment_batch, DataLoader, ImageDataset, TranslationDataset};
use qn_metrics::accuracy;
use qn_models::{InferenceSession, ResNet, Transformer};
use qn_nn::{
    checkpoint as nn_checkpoint, clip_grad_norm, Adam, AdamConfig, LoadMode, Module, NoamSchedule,
    Sgd, SgdConfig, StepDecay,
};
use qn_tensor::{BufferPool, Checkpoint, CheckpointWriter, Rng, Tensor, TensorError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Periodic checkpointing and resume policy for the training loops.
///
/// With everything default, training neither saves nor resumes. When
/// `path`/`every_batches` are set, the full run state — model parameters,
/// batch-norm statistics, optimizer buffers, RNG stream positions and the
/// partial loss curve — is written atomically every `every_batches`
/// optimizer steps, and a run restarted with `resume` pointing at such a
/// file reproduces the uninterrupted run's loss curve **bit for bit**.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointSpec {
    /// Where periodic checkpoints go; `None` disables saving.
    pub path: Option<PathBuf>,
    /// Save every N optimizer steps; `0` disables saving.
    pub every_batches: usize,
    /// Checkpoint to restore before training; `None` starts fresh.
    pub resume: Option<PathBuf>,
    /// Stop after N optimizer steps, counted across epochs and **including
    /// steps replayed before a resume point** (test hook for simulating an
    /// interrupted run; `None` trains to completion).
    pub halt_after_batches: Option<usize>,
}

impl CheckpointSpec {
    /// Builds a spec from command-line style arguments, recognising
    /// `--checkpoint <path>` (periodic save target), `--every <n>` (save
    /// interval in optimizer steps, default 50 when a checkpoint path is
    /// given) and `--resume <path>`. Unrecognised arguments are returned
    /// untouched so callers can layer their own flags.
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is missing its value or `--every`
    /// is not a positive integer.
    pub fn parse_args<I>(args: I) -> Result<(CheckpointSpec, Vec<String>), String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut spec = CheckpointSpec::default();
        let mut every: Option<usize> = None;
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--checkpoint" => spec.path = Some(PathBuf::from(value("--checkpoint")?)),
                "--resume" => spec.resume = Some(PathBuf::from(value("--resume")?)),
                "--every" => {
                    every = Some(
                        value("--every")?
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or("--every requires a positive integer")?,
                    );
                }
                _ => rest.push(arg),
            }
        }
        if spec.path.is_some() {
            spec.every_batches = every.unwrap_or(50);
        } else if every.is_some() {
            return Err("--every is only meaningful with --checkpoint <path>".into());
        }
        Ok((spec, rest))
    }

    fn should_save(&self, global_batches: usize) -> Option<&Path> {
        match (&self.path, self.every_batches) {
            (Some(p), every) if every > 0 && global_batches.is_multiple_of(every) => {
                Some(p.as_path())
            }
            _ => None,
        }
    }

    fn should_halt(&self, global_batches: usize) -> bool {
        self.halt_after_batches
            .is_some_and(|halt| global_batches >= halt)
    }
}

fn meta_err(detail: String) -> TensorError {
    TensorError::InvalidCheckpoint { offset: 0, detail }
}

fn require_meta<'c>(ckpt: &'c Checkpoint, key: &str) -> Result<&'c str, TensorError> {
    ckpt.meta(key)
        .ok_or_else(|| meta_err(format!("resume checkpoint is missing meta key \"{key}\"")))
}

fn parse_usize(ckpt: &Checkpoint, key: &str) -> Result<usize, TensorError> {
    require_meta(ckpt, key)?
        .parse()
        .map_err(|_| meta_err(format!("meta key \"{key}\" is not an integer")))
}

fn parse_u64(ckpt: &Checkpoint, key: &str) -> Result<u64, TensorError> {
    require_meta(ckpt, key)?
        .parse()
        .map_err(|_| meta_err(format!("meta key \"{key}\" is not an integer")))
}

/// f32s cross the meta section as bit patterns so accumulators restore
/// exactly (decimal round-trips would break bit-for-bit resume).
fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn parse_f32_bits(ckpt: &Checkpoint, key: &str) -> Result<f32, TensorError> {
    let hex = require_meta(ckpt, key)?;
    u32::from_str_radix(hex, 16)
        .map(f32::from_bits)
        .map_err(|_| meta_err(format!("meta key \"{key}\" is not an f32 bit pattern")))
}

fn rng_hex(state: [u64; 4]) -> String {
    state.iter().map(|w| format!("{w:016x}")).collect()
}

fn parse_rng(ckpt: &Checkpoint, key: &str) -> Result<[u64; 4], TensorError> {
    let hex = require_meta(ckpt, key)?;
    if hex.len() != 64 {
        return Err(meta_err(format!(
            "meta key \"{key}\" is not a 4-word RNG state"
        )));
    }
    let mut state = [0u64; 4];
    for (i, slot) in state.iter_mut().enumerate() {
        *slot = u64::from_str_radix(&hex[i * 16..(i + 1) * 16], 16)
            .map_err(|_| meta_err(format!("meta key \"{key}\" is not hex")))?;
    }
    Ok(state)
}

fn curve_hex(curve: &[EpochStats]) -> String {
    curve
        .iter()
        .map(|e| format!("{}:{}", f32_hex(e.loss), f32_hex(e.accuracy)))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_curve(ckpt: &Checkpoint, key: &str) -> Result<Vec<EpochStats>, TensorError> {
    let text = require_meta(ckpt, key)?;
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(';')
        .map(|pair| {
            let (l, a) = pair
                .split_once(':')
                .ok_or_else(|| meta_err(format!("malformed curve entry \"{pair}\"")))?;
            let bits = |s: &str| {
                u32::from_str_radix(s, 16)
                    .map(f32::from_bits)
                    .map_err(|_| meta_err(format!("malformed curve entry \"{pair}\"")))
            };
            Ok(EpochStats {
                loss: bits(l)?,
                accuracy: bits(a)?,
            })
        })
        .collect()
}

fn parse_f32_list(ckpt: &Checkpoint, key: &str) -> Result<Vec<f32>, TensorError> {
    let text = require_meta(ckpt, key)?;
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(';')
        .map(|hex| {
            u32::from_str_radix(hex, 16)
                .map(f32::from_bits)
                .map_err(|_| meta_err(format!("malformed loss entry \"{hex}\"")))
        })
        .collect()
}

/// One epoch's training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training loss.
    pub loss: f32,
    /// Mean training accuracy.
    pub accuracy: f32,
}

/// Outcome of a classifier training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Per-epoch training statistics.
    pub curve: Vec<EpochStats>,
    /// Final test accuracy.
    pub test_accuracy: f32,
    /// `true` if the loss became non-finite (the Fig. 6 failure mode).
    pub diverged: bool,
}

/// The paper's CIFAR recipe scaled to CPU: SGD with momentum and weight
/// decay, step decay at 50%/75% of the epochs, pad-crop-flip augmentation,
/// and a dedicated low learning rate for the quadratic `Λᵏ` parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (paper: 0.1).
    pub lr: f32,
    /// Learning rate for `Λᵏ` parameters (paper: 1e-4).
    pub lambda_lr: f32,
    /// Momentum (paper: 0.9).
    pub momentum: f32,
    /// Weight decay (paper: 1e-4).
    pub weight_decay: f32,
    /// Apply pad-crop-flip augmentation.
    pub augment: bool,
    /// Global gradient-norm clip; `None` disables (the paper's recipe has no
    /// clipping — the Fig. 6 instability study needs it off).
    pub clip: Option<f32>,
    /// Shuffle / dropout seed.
    pub seed: u64,
    /// Data-parallel gradient-accumulation shards per step: each mini-batch
    /// is split into this many contiguous sub-batches whose forward/backward
    /// passes run concurrently on the `qn-parallel` pool, and whose
    /// gradients are then accumulated **in shard order**, so for a given
    /// shard count the loss curve and every gradient are bit-deterministic
    /// at any thread count. `0` means "one shard per pool thread"; `1` (the
    /// default) reproduces the single-graph step bit-for-bit.
    ///
    /// Shard counts > 1 follow standard unsynchronized data-parallel
    /// semantics: batch norm normalizes with **per-shard** batch statistics
    /// (there is no cross-shard stat sync), so the optimization trajectory
    /// differs slightly from the single-graph baseline, and the
    /// running-statistics updates — which only feed later inference, never
    /// the training gradients — are folded in pool-completion order.
    pub grad_shards: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            batch_size: 32,
            lr: 0.05,
            lambda_lr: 1e-4,
            momentum: 0.9,
            weight_decay: 1e-4,
            augment: true,
            clip: Some(5.0),
            seed: 0,
            grad_shards: 1,
        }
    }
}

/// One shard's contribution to a data-parallel training step.
struct ShardStep {
    /// Shard loss, already weighted by `shard_len / batch_len`.
    weighted_loss: f32,
    /// Shard accuracy, weighted by `shard_len`.
    weighted_hits: f32,
    /// `(parameter, gradient)` pairs from [`qn_autograd::Graph::backward_collect`].
    grads: Vec<(qn_autograd::Parameter, Tensor)>,
}

/// Forward/backward over `batch[lo..hi]`, returning weighted loss, weighted
/// accuracy and the collected (not yet accumulated) gradients.
fn shard_step(
    net: &ResNet,
    images: &Tensor,
    labels: &[usize],
    lo: usize,
    hi: usize,
    seed: u64,
    pool: &Arc<BufferPool>,
) -> ShardStep {
    let batch_len = labels.len() as f32;
    let shard_len = (hi - lo) as f32;
    // Pooled tape: the backward sweep reclaims intermediate activations and
    // spent gradients into the step-shared pool, and `recycle_into` below
    // returns the rest, so the next step's graph (and the GEMM packing
    // scratch) reuses this step's buffers instead of reallocating.
    let mut g = Graph::training_pooled(seed, Arc::clone(pool));
    let x = g.leaf(images.slice_axis(0, lo, hi));
    let logits = net.forward(&mut g, x);
    let shard_labels = &labels[lo..hi];
    // accuracy is read *before* backward: the pooled sweep reclaims the
    // logits buffer
    let shard_acc = accuracy(g.value(logits), shard_labels);
    let loss = g.softmax_cross_entropy(logits, shard_labels, 0.0);
    // Weight the shard's mean loss by its share of the batch so the summed
    // gradient equals the full-batch mean-loss gradient.
    let weighted = g.scale(loss, shard_len / batch_len);
    let weighted_loss = g.value(weighted).data()[0];
    if !weighted_loss.is_finite() {
        return ShardStep {
            weighted_loss,
            weighted_hits: 0.0,
            grads: Vec::new(),
        };
    }
    let grads = g.backward_collect(weighted);
    g.recycle_into(pool);
    ShardStep {
        weighted_loss,
        weighted_hits: shard_acc * shard_len,
        grads,
    }
}

/// Trains a ResNet classifier on an image dataset, returning the loss/acc
/// curve, final test accuracy and a divergence flag.
///
/// Convenience wrapper over [`try_train_classifier`] with checkpointing
/// disabled.
///
/// # Panics
///
/// Never panics from checkpoint handling (none is configured); the usual
/// shape contracts of the model and dataset apply.
pub fn train_classifier(net: &ResNet, data: &ImageDataset, cfg: TrainConfig) -> TrainResult {
    try_train_classifier(net, data, cfg, &CheckpointSpec::default())
        .expect("checkpointing disabled: no I/O to fail")
}

/// Writes the classifier run state (model + optimizer + loop counters) to
/// `path` atomically.
#[allow(clippy::too_many_arguments)]
fn save_classifier_checkpoint(
    net: &ResNet,
    opt: &Sgd,
    path: &Path,
    epoch: usize,
    batch_in_epoch: usize,
    global_batches: usize,
    step_seed: u64,
    rng: &Rng,
    epoch_start: [u64; 4],
    curve: &[EpochStats],
    loss_sum: f32,
    acc_sum: f32,
) -> Result<(), TensorError> {
    let mut w = CheckpointWriter::new();
    w.add_meta("kind", "classifier");
    w.add_meta("epoch", epoch.to_string());
    w.add_meta("batch_in_epoch", batch_in_epoch.to_string());
    w.add_meta("global_batches", global_batches.to_string());
    w.add_meta("step_seed", step_seed.to_string());
    w.add_meta("rng", rng_hex(rng.state()));
    w.add_meta("rng_epoch_start", rng_hex(epoch_start));
    w.add_meta("curve", curve_hex(curve));
    w.add_meta("loss_sum", f32_hex(loss_sum));
    w.add_meta("acc_sum", f32_hex(acc_sum));
    nn_checkpoint::append_visited(&mut w, "model", |v| net.visit_params(v));
    opt.save_state(&mut w, "opt");
    w.write_to(path)
}

/// Mid-run loop state restored from a classifier checkpoint.
struct ClassifierResume {
    epoch: usize,
    batch_in_epoch: usize,
    global_batches: usize,
    step_seed: u64,
    rng: Rng,
    epoch_start: [u64; 4],
    curve: Vec<EpochStats>,
    loss_sum: f32,
    acc_sum: f32,
}

fn load_classifier_checkpoint(
    net: &ResNet,
    opt: &mut Sgd,
    path: &Path,
) -> Result<ClassifierResume, TensorError> {
    let ckpt = Checkpoint::open(path)?;
    match ckpt.meta("kind") {
        Some("classifier") => {}
        other => {
            return Err(meta_err(format!(
                "resume checkpoint kind {other:?} is not \"classifier\""
            )))
        }
    }
    nn_checkpoint::apply_checkpoint(&ckpt, "model", LoadMode::Copy, |v| net.visit_params(v))?;
    opt.load_state(&ckpt, "opt")?;
    Ok(ClassifierResume {
        epoch: parse_usize(&ckpt, "epoch")?,
        batch_in_epoch: parse_usize(&ckpt, "batch_in_epoch")?,
        global_batches: parse_usize(&ckpt, "global_batches")?,
        step_seed: parse_u64(&ckpt, "step_seed")?,
        rng: Rng::from_state(parse_rng(&ckpt, "rng")?),
        epoch_start: parse_rng(&ckpt, "rng_epoch_start")?,
        curve: parse_curve(&ckpt, "curve")?,
        loss_sum: parse_f32_bits(&ckpt, "loss_sum")?,
        acc_sum: parse_f32_bits(&ckpt, "acc_sum")?,
    })
}

/// [`train_classifier`] with periodic checkpointing and resume.
///
/// Resuming restores model parameters, batch-norm statistics, momentum
/// buffers, both RNG stream positions (current, and epoch-start for
/// replaying the epoch's shuffle order) and the loss-curve accumulators,
/// then skips the batches the interrupted run already trained on — so the
/// resumed run's curve is bit-identical to the uninterrupted one.
///
/// # Errors
///
/// Returns [`TensorError::InvalidCheckpoint`] /
/// [`TensorError::VersionMismatch`] when the resume file is unreadable,
/// malformed, from a different model/optimizer layout, or when a periodic
/// save fails. A failed save aborts training (the run state on disk stays
/// whole — saves are atomic).
pub fn try_train_classifier(
    net: &ResNet,
    data: &ImageDataset,
    cfg: TrainConfig,
    spec: &CheckpointSpec,
) -> Result<TrainResult, TensorError> {
    let (lambda, other) = net.param_groups();
    let mut opt = Sgd::new(SgdConfig {
        lr: cfg.lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
    });
    opt.add_group(other, None, None);
    if !lambda.is_empty() {
        opt.add_group(lambda, Some(cfg.lambda_lr), Some(0.0));
    }
    let schedule = StepDecay::new(vec![cfg.epochs / 2, cfg.epochs * 3 / 4], 0.1);
    let resume = match &spec.resume {
        Some(path) => Some(load_classifier_checkpoint(net, &mut opt, path)?),
        None => None,
    };
    let loader = DataLoader::new(&data.train_images, &data.train_labels, cfg.batch_size);
    let mut diverged = false;
    let mut halted = false;

    let (mut rng, start_epoch, mut step_seed, mut global_batches, mut curve) = match &resume {
        Some(r) => (
            Rng::from_state(r.rng.state()),
            r.epoch,
            r.step_seed,
            r.global_batches,
            r.curve.clone(),
        ),
        None => (
            Rng::seed_from(cfg.seed),
            0,
            cfg.seed,
            0,
            Vec::with_capacity(cfg.epochs),
        ),
    };
    // Mid-epoch restore: the resumed epoch replays its shuffle from the
    // epoch-start RNG snapshot (the live `rng` is already past it), skips
    // the batches the interrupted run completed, and continues the
    // partial-epoch accumulators.
    let mut resume_epoch = resume
        .as_ref()
        .map(|r| (r.epoch_start, r.batch_in_epoch, r.loss_sum, r.acc_sum));

    let shards_cfg = if cfg.grad_shards == 0 {
        qn_parallel::num_threads()
    } else {
        cfg.grad_shards
    };
    // One pool for the whole run: step N+1's tapes draw from step N's
    // reclaimed buffers (values are unaffected — `pool_equivalence.rs`
    // asserts pooled and unpooled gradients are bit-identical).
    let pool = Arc::new(BufferPool::new());

    'epochs: for epoch in start_epoch..cfg.epochs {
        let factor = schedule.factor(epoch);
        let (epoch_start, order, skip, mut loss_sum, mut acc_sum) = match resume_epoch.take() {
            Some((start, done, loss_sum, acc_sum)) => {
                let mut replay = Rng::from_state(start);
                (
                    start,
                    loader.shuffle_order(&mut replay),
                    done,
                    loss_sum,
                    acc_sum,
                )
            }
            None => {
                let start = rng.state();
                (start, loader.shuffle_order(&mut rng), 0, 0.0f32, 0.0f32)
            }
        };
        let mut batches = skip;
        for (bi, (images, labels)) in loader.epoch_with_order(order).enumerate() {
            if bi < skip {
                continue;
            }
            let images = if cfg.augment {
                augment_batch(&images, 2, &mut rng)
            } else {
                images
            };
            step_seed = step_seed.wrapping_add(1);
            let batch_len = labels.len();
            let shards = shards_cfg.min(batch_len).max(1);
            let (loss_val, batch_acc) = if shards <= 1 {
                // Single-graph step: bit-for-bit the pre-sharding behaviour
                // (the pooled tape only changes where buffers come from).
                let mut g = Graph::training_pooled(step_seed, Arc::clone(&pool));
                let x = g.leaf(images);
                let logits = net.forward(&mut g, x);
                let loss = g.softmax_cross_entropy(logits, &labels, 0.0);
                let loss_val = g.value(loss).data()[0];
                // read before backward: the pooled sweep reclaims the logits
                let batch_acc = accuracy(g.value(logits), &labels);
                if loss_val.is_finite() {
                    g.backward(loss);
                }
                g.recycle_into(&pool);
                (loss_val, batch_acc)
            } else {
                // Data-parallel step: shard forward/backward passes run
                // concurrently, gradients accumulate in shard order below so
                // the reduction is deterministic at any thread count.
                let ranges = qn_parallel::split_evenly(batch_len, shards);
                let images_ref = &images;
                let labels_ref = labels.as_slice();
                let pool_ref = &pool;
                let steps = qn_parallel::par_map(ranges, |s, (lo, hi)| {
                    shard_step(
                        net,
                        images_ref,
                        labels_ref,
                        lo,
                        hi,
                        step_seed.wrapping_add(s as u64),
                        pool_ref,
                    )
                });
                let loss_val: f32 = steps.iter().map(|s| s.weighted_loss).sum();
                let hits: f32 = steps.iter().map(|s| s.weighted_hits).sum();
                if loss_val.is_finite() {
                    for step in &steps {
                        for (p, grad) in &step.grads {
                            p.accumulate_grad(grad);
                        }
                    }
                }
                (loss_val, hits / batch_len as f32)
            };
            if !loss_val.is_finite() {
                diverged = true;
                curve.push(EpochStats {
                    loss: f32::INFINITY,
                    accuracy: 0.0,
                });
                break 'epochs;
            }
            if let Some(max_norm) = cfg.clip {
                clip_grad_norm(&opt.params(), max_norm);
            }
            opt.step(factor);
            opt.zero_grad();
            loss_sum += loss_val;
            acc_sum += batch_acc;
            batches += 1;
            global_batches += 1;
            if let Some(path) = spec.should_save(global_batches) {
                save_classifier_checkpoint(
                    net,
                    &opt,
                    path,
                    epoch,
                    bi + 1,
                    global_batches,
                    step_seed,
                    &rng,
                    epoch_start,
                    &curve,
                    loss_sum,
                    acc_sum,
                )?;
            }
            if spec.should_halt(global_batches) {
                halted = true;
                break 'epochs;
            }
        }
        curve.push(EpochStats {
            loss: loss_sum / batches.max(1) as f32,
            accuracy: acc_sum / batches.max(1) as f32,
        });
    }
    // A halted run simulates an interrupted process: return the partial
    // curve without paying for an evaluation nobody will read.
    let test_accuracy = if diverged || halted {
        0.0
    } else {
        evaluate_classifier(net, &data.test_images, &data.test_labels, cfg.batch_size)
    };
    Ok(TrainResult {
        curve,
        test_accuracy,
        diverged,
    })
}

/// Inference-mode accuracy of a classifier over a labelled set.
///
/// Runs on the tape-free path: one [`InferenceSession`] is reused across
/// all batches, so evaluation measures inference cost rather than autograd
/// bookkeeping.
pub fn evaluate_classifier(
    net: &ResNet,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> f32 {
    evaluate_classifier_session(&mut InferenceSession::new(net), images, labels, batch_size)
}

/// [`evaluate_classifier`] over a caller-built session — this is how the
/// int8 tier is scored: build the session with
/// [`InferenceSession::quantized`] and compare against the f32 number.
pub fn evaluate_classifier_session(
    session: &mut InferenceSession<'_>,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> f32 {
    let loader = DataLoader::new(images, labels, batch_size);
    let mut correct_weighted = 0.0f32;
    let mut total = 0usize;
    for (batch, labs) in loader.batches() {
        let logits = session.predict_batch(&batch);
        correct_weighted += accuracy(&logits, &labs) * labs.len() as f32;
        total += labs.len();
    }
    correct_weighted / total.max(1) as f32
}

/// Configuration for transformer training (Table II recipe at CPU scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerTrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Sentence pairs per batch.
    pub batch_size: usize,
    /// Label smoothing (paper: 0.1).
    pub label_smoothing: f32,
    /// Noam warmup steps.
    pub warmup: usize,
    /// Learning rate for `Λᵏ` parameters.
    pub lambda_lr: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TransformerTrainConfig {
    fn default() -> Self {
        TransformerTrainConfig {
            epochs: 8,
            batch_size: 16,
            label_smoothing: 0.1,
            warmup: 60,
            lambda_lr: 1e-4,
            seed: 0,
        }
    }
}

/// Outcome of a transformer training run.
#[derive(Debug, Clone)]
pub struct TransformerTrainResult {
    /// Per-epoch mean training loss.
    pub losses: Vec<f32>,
    /// Greedy-decoded hypotheses for the test set (detokenized).
    pub hypotheses: Vec<String>,
    /// Detokenized test references.
    pub references: Vec<String>,
}

/// Trains a transformer on the synthetic corpus with Adam + Noam warmup and
/// greedy-decodes the test set.
///
/// Convenience wrapper over [`try_train_transformer`] with checkpointing
/// disabled.
///
/// # Panics
///
/// Never panics from checkpoint handling (none is configured); the usual
/// shape contracts of the model and dataset apply.
pub fn train_transformer(
    model: &Transformer,
    data: &TranslationDataset,
    cfg: TransformerTrainConfig,
) -> TransformerTrainResult {
    try_train_transformer(model, data, cfg, &CheckpointSpec::default())
        .expect("checkpointing disabled: no I/O to fail")
}

/// Writes the transformer run state (model + Adam + loop counters) to
/// `path` atomically.
#[allow(clippy::too_many_arguments)]
fn save_transformer_checkpoint(
    model: &Transformer,
    opt: &Adam,
    path: &Path,
    epoch: usize,
    batch_in_epoch: usize,
    step: usize,
    rng: &Rng,
    epoch_start: [u64; 4],
    losses: &[f32],
    loss_sum: f32,
) -> Result<(), TensorError> {
    let mut w = CheckpointWriter::new();
    w.add_meta("kind", "transformer");
    w.add_meta("epoch", epoch.to_string());
    w.add_meta("batch_in_epoch", batch_in_epoch.to_string());
    w.add_meta("step", step.to_string());
    w.add_meta("adam_t", opt.steps().to_string());
    w.add_meta("rng", rng_hex(rng.state()));
    w.add_meta("rng_epoch_start", rng_hex(epoch_start));
    w.add_meta(
        "losses",
        losses
            .iter()
            .map(|&l| f32_hex(l))
            .collect::<Vec<_>>()
            .join(";"),
    );
    w.add_meta("loss_sum", f32_hex(loss_sum));
    nn_checkpoint::append_visited(&mut w, "model", |v| model.visit_params(v));
    opt.save_state(&mut w, "opt");
    w.write_to(path)
}

/// Mid-run loop state restored from a transformer checkpoint.
struct TransformerResume {
    epoch: usize,
    batch_in_epoch: usize,
    step: usize,
    rng: Rng,
    epoch_start: [u64; 4],
    losses: Vec<f32>,
    loss_sum: f32,
}

fn load_transformer_checkpoint(
    model: &Transformer,
    opt: &mut Adam,
    path: &Path,
) -> Result<TransformerResume, TensorError> {
    let ckpt = Checkpoint::open(path)?;
    match ckpt.meta("kind") {
        Some("transformer") => {}
        other => {
            return Err(meta_err(format!(
                "resume checkpoint kind {other:?} is not \"transformer\""
            )))
        }
    }
    nn_checkpoint::apply_checkpoint(&ckpt, "model", LoadMode::Copy, |v| model.visit_params(v))?;
    opt.load_state(&ckpt, "opt")?;
    opt.set_steps(parse_u64(&ckpt, "adam_t")?);
    Ok(TransformerResume {
        epoch: parse_usize(&ckpt, "epoch")?,
        batch_in_epoch: parse_usize(&ckpt, "batch_in_epoch")?,
        step: parse_usize(&ckpt, "step")?,
        rng: Rng::from_state(parse_rng(&ckpt, "rng")?),
        epoch_start: parse_rng(&ckpt, "rng_epoch_start")?,
        losses: parse_f32_list(&ckpt, "losses")?,
        loss_sum: parse_f32_bits(&ckpt, "loss_sum")?,
    })
}

/// [`train_transformer`] with periodic checkpointing and resume; the same
/// bit-for-bit resume contract as [`try_train_classifier`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidCheckpoint`] /
/// [`TensorError::VersionMismatch`] when the resume file is unreadable,
/// malformed, from a different model/optimizer layout, or when a periodic
/// save fails.
pub fn try_train_transformer(
    model: &Transformer,
    data: &TranslationDataset,
    cfg: TransformerTrainConfig,
    spec: &CheckpointSpec,
) -> Result<TransformerTrainResult, TensorError> {
    let (lambda, other) = model.param_groups();
    let mut opt = Adam::new(AdamConfig::default());
    opt.add_group(other, None);
    if !lambda.is_empty() {
        opt.add_group(lambda, Some(cfg.lambda_lr));
    }
    let resume = match &spec.resume {
        Some(path) => Some(load_transformer_checkpoint(model, &mut opt, path)?),
        None => None,
    };
    let sched = NoamSchedule::new(model.config().d_model, cfg.warmup);
    let (mut rng, start_epoch, mut step, mut losses) = match &resume {
        Some(r) => (
            Rng::from_state(r.rng.state()),
            r.epoch,
            r.step,
            r.losses.clone(),
        ),
        None => (
            Rng::seed_from(cfg.seed),
            0,
            0,
            Vec::with_capacity(cfg.epochs),
        ),
    };
    let mut resume_epoch = resume
        .as_ref()
        .map(|r| (r.epoch_start, r.batch_in_epoch, r.loss_sum));
    let mut halted = false;
    let pool = Arc::new(BufferPool::new());
    'epochs: for epoch in start_epoch..cfg.epochs {
        let shuffled = |r: &mut Rng| {
            let mut order: Vec<usize> = (0..data.train.len()).collect();
            r.shuffle(&mut order);
            order
        };
        let (epoch_start, order, skip, mut loss_sum) = match resume_epoch.take() {
            Some((start, done, loss_sum)) => {
                let mut replay = Rng::from_state(start);
                (start, shuffled(&mut replay), done, loss_sum)
            }
            None => {
                let start = rng.state();
                (start, shuffled(&mut rng), 0, 0.0f32)
            }
        };
        let mut batches = skip;
        for (bi, chunk) in order.chunks(cfg.batch_size).enumerate() {
            if bi < skip {
                continue;
            }
            step += 1;
            let pairs: Vec<(&[usize], &[usize])> = chunk
                .iter()
                .map(|&i| {
                    let p = &data.train[i];
                    (p.source.as_slice(), p.target.as_slice())
                })
                .collect();
            let mut g =
                Graph::training_pooled(cfg.seed.wrapping_add(step as u64), Arc::clone(&pool));
            let loss = model.loss(&mut g, &pairs, cfg.label_smoothing);
            let lv = g.value(loss).data()[0];
            g.backward(loss);
            g.recycle_into(&pool);
            // Noam gives the absolute LR; Adam's base lr is folded out by
            // passing the schedule as a multiplier of lr=1e-3 default —
            // instead we normalize so the schedule IS the lr.
            let factor = sched.lr(step) / 1e-3;
            clip_grad_norm(&model.params(), 2.0);
            opt.step(factor);
            opt.zero_grad();
            loss_sum += lv;
            batches += 1;
            if let Some(path) = spec.should_save(step) {
                save_transformer_checkpoint(
                    model,
                    &opt,
                    path,
                    epoch,
                    bi + 1,
                    step,
                    &rng,
                    epoch_start,
                    &losses,
                    loss_sum,
                )?;
            }
            if spec.should_halt(step) {
                halted = true;
                break 'epochs;
            }
        }
        losses.push(loss_sum / batches.max(1) as f32);
    }
    let (hypotheses, references) = if halted {
        // simulated interruption: no decode pass
        (Vec::new(), Vec::new())
    } else {
        let max_len = data.max_len() + 4;
        let mut hypotheses = Vec::with_capacity(data.test.len());
        let mut references = Vec::with_capacity(data.test.len());
        for pair in &data.test {
            let out = model.greedy_decode(&pair.source, max_len);
            hypotheses.push(data.detokenize_target(&out));
            references.push(data.detokenize_target(&pair.target));
        }
        (hypotheses, references)
    };
    Ok(TransformerTrainResult {
        losses,
        hypotheses,
        references,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_core::NeuronSpec;
    use qn_data::{synthetic_cifar10, TranslationConfig};
    use qn_models::{NeuronPlacement, ResNetConfig, TransformerConfig};

    #[test]
    fn checkpoint_spec_parses_cli_flags() {
        let owned = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (spec, rest) = CheckpointSpec::parse_args(owned(&[
            "--full",
            "--checkpoint",
            "ck.qnckpt",
            "--every",
            "7",
            "--resume",
            "old.qnckpt",
        ]))
        .expect("valid flags");
        assert_eq!(spec.path.as_deref(), Some(Path::new("ck.qnckpt")));
        assert_eq!(spec.every_batches, 7);
        assert_eq!(spec.resume.as_deref(), Some(Path::new("old.qnckpt")));
        assert_eq!(rest, owned(&["--full"]));

        // default interval when --every is omitted
        let (spec, _) = CheckpointSpec::parse_args(owned(&["--checkpoint", "ck"])).unwrap();
        assert_eq!(spec.every_batches, 50);
        // no flags at all -> inert spec
        let (spec, _) = CheckpointSpec::parse_args(Vec::new()).unwrap();
        assert_eq!(spec, CheckpointSpec::default());
        // error cases must not panic
        assert!(CheckpointSpec::parse_args(owned(&["--checkpoint"])).is_err());
        assert!(CheckpointSpec::parse_args(owned(&["--every", "0"])).is_err());
        assert!(CheckpointSpec::parse_args(owned(&["--every", "3"])).is_err());
    }

    #[test]
    fn classifier_training_reduces_loss() {
        let data = synthetic_cifar10(8, 6, 3, 1);
        let net = ResNet::cifar(ResNetConfig {
            depth: 8,
            base_width: 4,
            num_classes: 10,
            neuron: NeuronSpec::EfficientQuadratic { rank: 3 },
            placement: NeuronPlacement::All,
            seed: 2,
        });
        let result = train_classifier(
            &net,
            &data,
            TrainConfig {
                epochs: 2,
                batch_size: 16,
                augment: false,
                ..TrainConfig::default()
            },
        );
        assert!(!result.diverged);
        assert_eq!(result.curve.len(), 2);
        assert!(result.curve[1].loss < result.curve[0].loss + 0.1);
        assert!(result.test_accuracy >= 0.0 && result.test_accuracy <= 1.0);
    }

    #[test]
    fn data_parallel_training_is_deterministic_and_tracks_single_shard() {
        let data = synthetic_cifar10(8, 6, 3, 1);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            augment: false,
            ..TrainConfig::default()
        };
        let run = |shards: usize| {
            let net = ResNet::cifar(ResNetConfig {
                depth: 8,
                base_width: 4,
                num_classes: 10,
                neuron: NeuronSpec::EfficientQuadratic { rank: 3 },
                placement: NeuronPlacement::All,
                seed: 2,
            });
            train_classifier(
                &net,
                &data,
                TrainConfig {
                    grad_shards: shards,
                    ..cfg
                },
            )
        };
        // For a given shard count the loss curve is bit-deterministic:
        // gradients accumulate in shard order, never in pool-completion
        // order, and training-mode batch norm never reads the (completion-
        // ordered) running statistics.
        let a = run(4);
        let b = run(4);
        assert!(!a.diverged && !b.diverged);
        assert_eq!(a.curve[0].loss.to_bits(), b.curve[0].loss.to_bits());
        // Sharded training uses per-shard batch-norm statistics
        // (unsynchronized data parallelism), so it tracks the single-graph
        // baseline closely but not exactly.
        let single = run(1);
        assert!(
            (a.curve[0].loss - single.curve[0].loss).abs() < 0.2,
            "sharded loss {} vs single-shard {}",
            a.curve[0].loss,
            single.curve[0].loss
        );
    }

    fn resume_net(seed: u64) -> ResNet {
        ResNet::cifar(ResNetConfig {
            depth: 8,
            base_width: 4,
            num_classes: 10,
            neuron: NeuronSpec::EfficientQuadratic { rank: 3 },
            placement: NeuronPlacement::All,
            seed,
        })
    }

    #[test]
    fn classifier_resume_reproduces_uninterrupted_curve() {
        let data = synthetic_cifar10(8, 6, 3, 1);
        // augmentation ON so the resume has to restore the RNG stream
        // position exactly, not just the model
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            augment: true,
            ..TrainConfig::default()
        };
        let full = train_classifier(&resume_net(2), &data, cfg);
        assert!(!full.diverged);

        // halt mid-epoch-0 (3 of 4 batches) and mid-epoch-1 (batch 5)
        for halt in [3usize, 5] {
            let path = std::env::temp_dir().join(format!("qn_resume_cls_{halt}.qnckpt"));
            let interrupted = try_train_classifier(
                &resume_net(2),
                &data,
                cfg,
                &CheckpointSpec {
                    path: Some(path.clone()),
                    every_batches: 1,
                    resume: None,
                    halt_after_batches: Some(halt),
                },
            )
            .expect("interrupted run");
            assert!(interrupted.curve.len() < full.curve.len() || halt > 4);

            let resumed = try_train_classifier(
                &resume_net(7), // different init: weights must come from the file
                &data,
                cfg,
                &CheckpointSpec {
                    resume: Some(path.clone()),
                    ..CheckpointSpec::default()
                },
            )
            .expect("resumed run");
            assert_eq!(full.curve.len(), resumed.curve.len(), "halt {halt}");
            for (a, b) in full.curve.iter().zip(&resumed.curve) {
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "halt {halt}");
                assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "halt {halt}");
            }
            assert_eq!(
                full.test_accuracy.to_bits(),
                resumed.test_accuracy.to_bits(),
                "halt {halt}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn data_parallel_resume_reproduces_uninterrupted_curve() {
        let data = synthetic_cifar10(8, 6, 3, 1);
        // fixed shard count so the run is reproducible on any host; the
        // sharded loop shares the classifier checkpoint logic, but the
        // gradient reduction and per-shard RNG streams are its own
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            augment: true,
            grad_shards: 2,
            ..TrainConfig::default()
        };
        let full = train_classifier(&resume_net(3), &data, cfg);
        assert!(!full.diverged);

        let path = std::env::temp_dir().join("qn_resume_shards.qnckpt");
        try_train_classifier(
            &resume_net(3),
            &data,
            cfg,
            &CheckpointSpec {
                path: Some(path.clone()),
                every_batches: 1,
                resume: None,
                halt_after_batches: Some(3),
            },
        )
        .expect("interrupted run");
        let resumed = try_train_classifier(
            &resume_net(11),
            &data,
            cfg,
            &CheckpointSpec {
                resume: Some(path.clone()),
                ..CheckpointSpec::default()
            },
        )
        .expect("resumed run");
        assert_eq!(full.curve.len(), resumed.curve.len());
        for (a, b) in full.curve.iter().zip(&resumed.curve) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
        assert_eq!(
            full.test_accuracy.to_bits(),
            resumed.test_accuracy.to_bits()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_wrong_kind_and_missing_file() {
        let data = synthetic_cifar10(8, 2, 1, 1);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            augment: false,
            ..TrainConfig::default()
        };
        let missing = CheckpointSpec {
            resume: Some(std::env::temp_dir().join("qn_resume_does_not_exist.qnckpt")),
            ..CheckpointSpec::default()
        };
        assert!(try_train_classifier(&resume_net(2), &data, cfg, &missing).is_err());

        // a transformer checkpoint is not a classifier checkpoint
        let path = std::env::temp_dir().join("qn_resume_wrong_kind.qnckpt");
        let tdata = TranslationDataset::generate(TranslationConfig {
            train_pairs: 8,
            test_pairs: 1,
            min_clauses: 1,
            max_clauses: 1,
            seed: 1,
        });
        let model = Transformer::new(TransformerConfig {
            src_vocab: tdata.src_vocab_len(),
            tgt_vocab: tdata.tgt_vocab_len(),
            d_model: 16,
            heads: 2,
            enc_layers: 1,
            dec_layers: 1,
            d_ff: 32,
            quadratic_rank: Some(3),
            max_len: 32,
            dropout: 0.0,
            seed: 3,
        });
        try_train_transformer(
            &model,
            &tdata,
            TransformerTrainConfig {
                epochs: 1,
                batch_size: 8,
                ..TransformerTrainConfig::default()
            },
            &CheckpointSpec {
                path: Some(path.clone()),
                every_batches: 1,
                ..CheckpointSpec::default()
            },
        )
        .expect("train transformer");
        let err = try_train_classifier(
            &resume_net(2),
            &data,
            cfg,
            &CheckpointSpec {
                resume: Some(path.clone()),
                ..CheckpointSpec::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("classifier"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transformer_resume_reproduces_uninterrupted_losses() {
        let data = TranslationDataset::generate(TranslationConfig {
            train_pairs: 24,
            test_pairs: 3,
            min_clauses: 1,
            max_clauses: 1,
            seed: 1,
        });
        let make = || {
            Transformer::new(TransformerConfig {
                src_vocab: data.src_vocab_len(),
                tgt_vocab: data.tgt_vocab_len(),
                d_model: 16,
                heads: 2,
                enc_layers: 1,
                dec_layers: 1,
                d_ff: 32,
                quadratic_rank: Some(3),
                max_len: 32,
                dropout: 0.0,
                seed: 3,
            })
        };
        let cfg = TransformerTrainConfig {
            epochs: 2,
            batch_size: 8,
            ..TransformerTrainConfig::default()
        };
        let full = train_transformer(&make(), &data, cfg);

        let path = std::env::temp_dir().join("qn_resume_tfm.qnckpt");
        // 24 pairs, batch 8 -> 3 steps/epoch; halt mid-epoch-1
        try_train_transformer(
            &make(),
            &data,
            cfg,
            &CheckpointSpec {
                path: Some(path.clone()),
                every_batches: 1,
                resume: None,
                halt_after_batches: Some(4),
            },
        )
        .expect("interrupted run");
        let resumed = try_train_transformer(
            &make(),
            &data,
            cfg,
            &CheckpointSpec {
                resume: Some(path.clone()),
                ..CheckpointSpec::default()
            },
        )
        .expect("resumed run");
        assert_eq!(full.losses.len(), resumed.losses.len());
        for (a, b) in full.losses.iter().zip(&resumed.losses) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(full.hypotheses, resumed.hypotheses);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transformer_training_reduces_loss() {
        let data = TranslationDataset::generate(TranslationConfig {
            train_pairs: 24,
            test_pairs: 3,
            min_clauses: 1,
            max_clauses: 1,
            seed: 1,
        });
        let model = Transformer::new(TransformerConfig {
            src_vocab: data.src_vocab_len(),
            tgt_vocab: data.tgt_vocab_len(),
            d_model: 16,
            heads: 2,
            enc_layers: 1,
            dec_layers: 1,
            d_ff: 32,
            quadratic_rank: Some(3),
            max_len: 32,
            dropout: 0.0,
            seed: 3,
        });
        let result = train_transformer(
            &model,
            &data,
            TransformerTrainConfig {
                epochs: 2,
                batch_size: 8,
                ..TransformerTrainConfig::default()
            },
        );
        assert_eq!(result.losses.len(), 2);
        assert!(result.losses[1] < result.losses[0]);
        assert_eq!(result.hypotheses.len(), 3);
    }
}
