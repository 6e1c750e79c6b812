//! The allocation contracts, measured with the counting global allocator:
//!
//! 1. after warm-up, `InferenceSession::predict` on the paper's quadratic
//!    ResNet-20, on its linear baseline and on the quadratic one's
//!    calibrated int8 twin, at 16 and then 32 px, makes **zero**
//!    allocations and zero frees, and still returns the cold output bit
//!    for bit — on one worker thread, and then again at the pool's full
//!    size, where its parallel regions must not allocate either. The six
//!    sessions of each pass run one after another, so each one also
//!    checks that scratch left by the products of the earlier ones does
//!    not make it allocate;
//! 2. so does `predict_batch` of 4 images on the quadratic ResNet-20 at
//!    the pool's full size, which shards the batch across the pool;
//! 3. a `LoadMode::Mapped` checkpoint load leaves every parameter mapped,
//!    predicts bit-identically to the saved model, and allocates at least
//!    the parameter bytes less than a `LoadMode::Copy` load — it copies no
//!    parameter byte.
//!
//! Declared with `harness = false`: the counters are process-global, so no
//! libtest thread may run beside a measured region.

#[global_allocator]
static ALLOC: qn_bench::counting_alloc::CountingAlloc = qn_bench::counting_alloc::CountingAlloc;

use qn_autograd::Parameter;
use qn_bench::counting_alloc::snapshot;
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::{checkpoint, LoadMode, Module, ParamVisitor};
use qn_tensor::{Rng, Tensor};

/// ResNet-20 at width 8.
fn resnet20(neuron: NeuronSpec, seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 20,
        base_width: 8,
        num_classes: 10,
        neuron,
        placement: NeuronPlacement::All,
        seed,
    })
}

const QUADRATIC: NeuronSpec = NeuronSpec::EfficientQuadratic { rank: 9 };

/// The tiers a contract session serves in.
#[derive(Clone, Copy, Debug)]
enum Tier {
    F32,
    /// The int8 twin, calibrated on two batches (frozen scales).
    Int8,
}

/// Runs `run` cold, 3 times to warm up and 10 times measured on `x`,
/// recycling each output, and asserts that the measured calls make no
/// allocation and no free and that the last output is the cold one, bit
/// for bit.
fn steady_state_is_allocation_free<'m>(
    what: &str,
    session: &mut InferenceSession<'m>,
    run: fn(&mut InferenceSession<'m>, &Tensor) -> Tensor,
    x: &Tensor,
) {
    let cold = run(session, x);
    // a few rounds so every pool bucket reaches steady state
    for _ in 0..3 {
        let y = run(session, x);
        session.recycle(y);
    }
    let before = snapshot();
    for _ in 0..9 {
        let y = run(session, x);
        session.recycle(y);
    }
    let last = run(session, x);
    let steady = snapshot().since(&before);
    let threads = qn_parallel::num_threads();
    assert_eq!(
        (steady.allocations, steady.frees),
        (0, 0),
        "{what} at {threads} threads: 10 steady-state calls made {} allocations and {} frees",
        steady.allocations,
        steady.frees
    );
    assert!(
        last.bit_identical(&cold),
        "{what} at {threads} threads: the steady state must reproduce the cold output bit for bit"
    );
    println!("contracts: steady-state {what} is allocation-free at {threads} threads");
}

fn predict_is_allocation_free(neuron: NeuronSpec, tier: Tier, px: usize) {
    let net = resnet20(neuron, 47);
    let x = Tensor::randn(&[3, px, px], &mut Rng::seed_from(48));
    let mut session = match tier {
        Tier::F32 => InferenceSession::new(&net),
        Tier::Int8 => {
            let mut rng = Rng::seed_from(49);
            let calib = (0..2).map(|_| Tensor::randn(&[2, 3, px, px], &mut rng));
            InferenceSession::quantized_calibrated(&net, calib.collect::<Vec<_>>())
                .expect("ResNet-20 has an int8 twin")
        }
    };
    let what = format!("predict on {tier:?} {neuron:?} ResNet-20 at {px} px");
    steady_state_is_allocation_free(&what, &mut session, InferenceSession::predict, &x);
}

/// Counts parameters whose storage is / is not a mapped file window.
#[derive(Default)]
struct MapCensus {
    mapped: usize,
    owned: usize,
}

impl ParamVisitor for MapCensus {
    fn param(&mut self, _name: &str, p: &Parameter) {
        if p.is_mapped() {
            self.mapped += 1;
        } else {
            self.owned += 1;
        }
    }
}

fn mapped_load_copies_no_parameter_bytes() {
    let net = resnet20(QUADRATIC, 47);
    let param_bytes = 4 * net.param_count() as u64;
    let path =
        std::env::temp_dir().join(format!("qn_bench_contracts_{}.qnckpt", std::process::id()));
    checkpoint::save_module(&net, &[], &path).expect("save");

    // bytes allocated by the second of two loads (the first warms up)
    let load_bytes = |model: &ResNet, mode: LoadMode| {
        checkpoint::load_module(model, &path, mode).expect("load");
        let before = snapshot();
        checkpoint::load_module(model, &path, mode).expect("load");
        snapshot().since(&before).bytes
    };
    let copied = resnet20(QUADRATIC, 48);
    let mapped = resnet20(QUADRATIC, 49);
    let (copy_bytes, mapped_bytes) = qn_parallel::with_max_threads(1, || {
        (
            load_bytes(&copied, LoadMode::Copy),
            load_bytes(&mapped, LoadMode::Mapped),
        )
    });
    let _ = std::fs::remove_file(&path);

    let mut census = MapCensus::default();
    mapped.visit_params(&mut census);
    assert!(census.mapped > 0, "the census walked no parameters");
    assert_eq!(
        census.owned, 0,
        "a mapped load left {} parameters owned",
        census.owned
    );
    let x = Tensor::randn(&[2, 3, 16, 16], &mut Rng::seed_from(51));
    let want = InferenceSession::new(&net).predict_batch(&x);
    let got = InferenceSession::new(&mapped).predict_batch(&x);
    assert!(
        got.bit_identical(&want),
        "the mapped model must predict bit-identically to the saved one"
    );
    assert!(
        copy_bytes >= mapped_bytes + param_bytes,
        "a mapped load must allocate at least the {param_bytes} parameter bytes less than a \
         copying load (copy {copy_bytes} B, mapped {mapped_bytes} B)"
    );
    println!(
        "contracts: a mapped load copies no parameter byte (copy {copy_bytes} B, mapped \
         {mapped_bytes} B, {param_bytes} parameter bytes)"
    );
}

fn main() {
    // spawn the worker pool first: thread startup allocates
    let pool = qn_parallel::pool_threads();
    for threads in [1, pool] {
        qn_parallel::with_max_threads(threads, || {
            for px in [16, 32] {
                predict_is_allocation_free(QUADRATIC, Tier::F32, px);
                predict_is_allocation_free(NeuronSpec::Linear, Tier::F32, px);
                predict_is_allocation_free(QUADRATIC, Tier::Int8, px);
            }
        });
    }
    let net = resnet20(QUADRATIC, 47);
    let x = Tensor::randn(&[4, 3, 32, 32], &mut Rng::seed_from(50));
    steady_state_is_allocation_free(
        &format!("predict_batch of 4 images on F32 {QUADRATIC:?} ResNet-20 at 32 px"),
        &mut InferenceSession::new(&net),
        InferenceSession::predict_batch,
        &x,
    );
    mapped_load_copies_no_parameter_bytes();
}
