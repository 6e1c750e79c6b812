//! The allocation contracts, measured with the counting global allocator:
//!
//! 1. after warm-up, `InferenceSession::predict` on the paper's quadratic
//!    ResNet-20 and on its linear baseline, at 16 and then 32 px, makes
//!    **zero** allocations and zero frees, and still returns the cold
//!    output bit for bit. The four sessions run one after another on one
//!    thread, so each one also checks that scratch left by the products
//!    of the earlier ones does not make it allocate;
//! 2. a `LoadMode::Mapped` checkpoint load leaves every parameter mapped,
//!    predicts bit-identically to the saved model, and allocates at least
//!    the parameter bytes less than a `LoadMode::Copy` load — it copies no
//!    parameter byte.
//!
//! Declared with `harness = false`: the counters are process-global, so no
//! libtest thread may run beside a measured region, and every measured
//! region pins the worker pool to one thread.

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

fn predict_is_allocation_free(neuron: NeuronSpec, px: usize) {
    let net = resnet20(neuron, 47);
    let x = Tensor::randn(&[3, px, px], &mut Rng::seed_from(48));
    qn_parallel::with_max_threads(1, || {
        let mut session = InferenceSession::new(&net);
        let cold = session.predict(&x);
        // a few rounds so every pool bucket reaches steady state
        for _ in 0..3 {
            let y = session.predict(&x);
            session.recycle(y);
        }
        let before = snapshot();
        for _ in 0..9 {
            let y = session.predict(&x);
            session.recycle(y);
        }
        let last = session.predict(&x);
        let steady = snapshot().since(&before);
        assert_eq!(
            (steady.allocations, steady.frees),
            (0, 0),
            "{neuron:?} at {px} px: 10 steady-state predicts made {} allocations and {} frees",
            steady.allocations,
            steady.frees
        );
        assert!(
            last.bit_identical(&cold),
            "{neuron:?} at {px} px: the steady state must reproduce the cold output bit for bit"
        );
    });
    println!(
        "contracts: steady-state predict on {neuron:?} ResNet-20 at {px} px is allocation-free"
    );
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
    let _ = qn_parallel::pool_threads();
    for px in [16, 32] {
        predict_is_allocation_free(QUADRATIC, px);
        predict_is_allocation_free(NeuronSpec::Linear, px);
    }
    mapped_load_copies_no_parameter_bytes();
}
