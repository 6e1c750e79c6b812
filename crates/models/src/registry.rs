//! Named model slots with atomic hot-swap for serving.
//!
//! A [`ModelRegistry`] maps names to shared-ownership models. Publishing a
//! new model into an existing slot is an **atomic hot-swap**: readers that
//! grabbed the old [`Arc`] keep serving it untouched, new sessions see the
//! new weights, and the old model is dropped when its last session drops.
//! Each publish bumps the slot's generation counter, which
//! [`RegistrySession`] polls to lazily rebuild its serving session after a
//! swap — the serving loop never blocks on a weight reload.
//!
//! Combined with [`qn_nn::checkpoint`] this gives zero-downtime weight
//! updates: load a checkpoint into a fresh model (zero-copy via
//! [`LoadMode::Mapped`](qn_nn::LoadMode)), then [`publish`] it over the
//! running slot.
//!
//! # Concurrency contract
//!
//! The registry is a single `RwLock` over the name → slot map, and **the
//! lock is only ever held for map access** — never while running a model,
//! walking its parameters, or loading weights. The rules callers can rely
//! on:
//!
//! - **`publish` is atomic.** Readers observe either the old or the new
//!   `Arc` for a slot, never a torn state; the generation counter bumps in
//!   the same critical section, so `generation() == g` implies a subsequent
//!   `get()` returns the model of generation ≥ `g`.
//! - **`retire` never stops in-flight work.** It drops the slot's model;
//!   sessions (and any caller of `get`) that already hold the `Arc` keep
//!   serving it, and the model is dropped when its last handle drops. A
//!   retired name simply stops resolving for *new* sessions.
//! - **A generation is never reused for a name.** A retired slot keeps its
//!   counter, so publishing under the name again continues from it, and a
//!   session on the retired model still sees a newer generation.
//! - **Publishing must not block serving.** Build and load the new model
//!   *before* calling `publish` (the write lock is then held only for a
//!   pointer swap). Never construct models inside a closure that holds
//!   registry state.
//! - **Read-side introspection is lock-light.** [`names`],
//!   [`generation`](ModelRegistry::generation), [`info`] and [`snapshot`]
//!   clone the `Arc`s under the read lock and do any expensive work
//!   (parameter walks) *after* releasing it, so a `/metrics` scrape can
//!   never stall a concurrent publish for longer than a map read.
//!
//! [`publish`]: ModelRegistry::publish
//! [`names`]: ModelRegistry::names
//! [`info`]: ModelRegistry::info
//! [`snapshot`]: ModelRegistry::snapshot
//!
//! # Example
//!
//! ```
//! use qn_models::{ModelRegistry, RegistrySession};
//! use qn_nn::{Linear, Module};
//! use qn_tensor::{Rng, Tensor};
//! use std::sync::Arc;
//!
//! let registry = ModelRegistry::new();
//! let mut rng = Rng::seed_from(0);
//! registry.publish("clf", Arc::new(Linear::new(4, 2, true, &mut rng)));
//!
//! let mut session = registry.session("clf").unwrap();
//! let before = session.predict(&Tensor::ones(&[4]));
//!
//! // hot-swap: publish retrained weights; the session picks them up
//! registry.publish("clf", Arc::new(Linear::new(4, 2, true, &mut rng)));
//! let after = session.predict(&Tensor::ones(&[4]));
//! assert!(!before.bit_identical(&after));
//! ```

use crate::InferenceSession;
use qn_nn::Module;
use qn_tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A published model plus its generation. A retired slot keeps its
/// generation and drops only its model.
struct Slot {
    model: Option<Arc<dyn Module>>,
    generation: u64,
}

/// Thread-safe name → model map with atomically hot-swappable slots.
#[derive(Default)]
pub struct ModelRegistry {
    slots: RwLock<HashMap<String, Slot>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            slots: RwLock::new(HashMap::new()),
        }
    }

    /// Publishes `model` under `name`, replacing any previous model in one
    /// atomic swap, and returns the slot's new generation (1 for a name
    /// never published before; a retired name continues from its last
    /// generation). In-flight sessions keep serving the model they hold;
    /// new and refreshed sessions see this one.
    pub fn publish(&self, name: &str, model: Arc<dyn Module>) -> u64 {
        let mut slots = self.slots.write().expect("registry lock poisoned");
        let slot = slots.entry(name.to_string()).or_insert(Slot {
            model: None,
            generation: 0,
        });
        slot.generation += 1;
        slot.model = Some(model);
        slot.generation
    }

    /// Retires a slot, returning its model if one was published. Sessions
    /// already holding the model keep working.
    pub fn retire(&self, name: &str) -> Option<Arc<dyn Module>> {
        let mut slots = self.slots.write().expect("registry lock poisoned");
        slots.get_mut(name)?.model.take()
    }

    /// The current model under `name` and its generation, read under one
    /// lock; `None` for an unknown or retired name.
    fn current(&self, name: &str) -> Option<(Arc<dyn Module>, u64)> {
        let slots = self.slots.read().expect("registry lock poisoned");
        let slot = slots.get(name)?;
        Some((Arc::clone(slot.model.as_ref()?), slot.generation))
    }

    /// A shared handle to the current model under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Module>> {
        self.current(name).map(|(model, _)| model)
    }

    /// The slot's current generation (bumped on every publish).
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.current(name).map(|(_, generation)| generation)
    }

    /// All published slot names, sorted.
    pub fn names(&self) -> Vec<String> {
        let slots = self.slots.read().expect("registry lock poisoned");
        let mut names: Vec<String> = slots
            .iter()
            .filter(|(_, s)| s.model.is_some())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Read-side introspection for one slot: generation, live handle count
    /// and parameter statistics. The registry lock is held only to clone
    /// the `Arc`; the parameter walk happens after it is released (see the
    /// module-level concurrency contract). Returns `None` for an unknown
    /// or retired name.
    pub fn info(&self, name: &str) -> Option<SlotInfo> {
        let (model, generation) = self.current(name)?;
        Some(SlotInfo::collect(name, generation, &model))
    }

    /// [`info`](ModelRegistry::info) for every slot, sorted by name. One
    /// read-lock acquisition for the whole map; parameter walks run
    /// lock-free afterwards — this is what a `/metrics` endpoint should
    /// call.
    pub fn snapshot(&self) -> Vec<SlotInfo> {
        let handles: Vec<(String, u64, Arc<dyn Module>)> = {
            let slots = self.slots.read().expect("registry lock poisoned");
            let mut hs: Vec<_> = slots
                .iter()
                .filter_map(|(name, slot)| {
                    let model = Arc::clone(slot.model.as_ref()?);
                    Some((name.clone(), slot.generation, model))
                })
                .collect();
            hs.sort_by(|a, b| a.0.cmp(&b.0));
            hs
        };
        handles
            .into_iter()
            .map(|(name, generation, model)| SlotInfo::collect(&name, generation, &model))
            .collect()
    }

    /// Opens a generation-tracking serving session on a slot. Returns
    /// `None` for an unknown or retired name.
    pub fn session<'r>(&'r self, name: &str) -> Option<RegistrySession<'r>> {
        let (model, generation) = self.current(name)?;
        Some(RegistrySession {
            registry: self,
            name: name.to_string(),
            generation,
            session: InferenceSession::owned(model),
        })
    }
}

/// Read-side snapshot of one registry slot (see [`ModelRegistry::info`] /
/// [`ModelRegistry::snapshot`]): everything a metrics endpoint or router
/// wants to report about a published model, collected without holding the
/// registry lock during the parameter walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// Slot name.
    pub name: String,
    /// Generation at snapshot time (bumped on every publish).
    pub generation: u64,
    /// Handles to this model generation held **outside** the registry
    /// (sessions, routers, …) at snapshot time. Racy by nature — a handle
    /// may be cloned or dropped the instant after — so treat it as a gauge,
    /// not an invariant.
    pub live_handles: usize,
    /// Number of trainable parameter tensors.
    pub params: usize,
    /// Total trainable parameter elements (f32 count).
    pub param_elems: usize,
    /// Parameters whose storage is a mapped checkpoint window
    /// (zero-copy loaded via `LoadMode::Mapped`).
    pub mapped_params: usize,
    /// Weight storage dtype reported by the model (`"f32"`, or `"int8"`
    /// when any quantized layer is present — see
    /// [`Module::weight_dtype`](qn_nn::Module::weight_dtype)).
    pub weight_dtype: &'static str,
}

impl SlotInfo {
    fn collect(name: &str, generation: u64, model: &Arc<dyn Module>) -> SlotInfo {
        struct Census {
            params: usize,
            param_elems: usize,
            mapped_params: usize,
        }
        impl qn_nn::ParamVisitor for Census {
            fn param(&mut self, _name: &str, p: &qn_autograd::Parameter) {
                self.params += 1;
                self.param_elems += p.numel();
                if p.is_mapped() {
                    self.mapped_params += 1;
                }
            }
        }
        let mut census = Census {
            params: 0,
            param_elems: 0,
            mapped_params: 0,
        };
        model.visit_params(&mut census);
        // strong_count sees the registry's own Arc plus the clone this
        // snapshot holds; everything beyond those two is an outside handle.
        let live_handles = Arc::strong_count(model).saturating_sub(2);
        SlotInfo {
            name: name.to_string(),
            generation,
            live_handles,
            params: census.params,
            param_elems: census.param_elems,
            mapped_params: census.mapped_params,
            weight_dtype: model.weight_dtype(),
        }
    }
}

/// An [`InferenceSession`] bound to a registry slot: before every request
/// it compares its generation against the slot's and rebuilds the session
/// when a newer model was published (cheap check, no lock while serving).
pub struct RegistrySession<'r> {
    registry: &'r ModelRegistry,
    name: String,
    generation: u64,
    session: InferenceSession<'static>,
}

impl RegistrySession<'_> {
    /// The generation of the model this session currently serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Picks up a newer published model if there is one. Returns `true`
    /// when the session was rebuilt. Called implicitly by
    /// [`RegistrySession::predict`] / [`predict_batch`]; call it directly
    /// to control when the swap cost (a fresh arena) is paid.
    ///
    /// If the slot was retired, the session keeps serving the model it
    /// already holds.
    ///
    /// [`predict_batch`]: RegistrySession::predict_batch
    pub fn refresh(&mut self) -> bool {
        match self.registry.current(&self.name) {
            Some((model, generation)) if generation != self.generation => {
                self.session = InferenceSession::owned(model);
                self.generation = generation;
                true
            }
            _ => false,
        }
    }

    /// [`InferenceSession::predict`] against the latest published model.
    ///
    /// # Panics
    ///
    /// Panics if the sample's shape does not fit the model.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        self.refresh();
        self.session.predict(x)
    }

    /// [`InferenceSession::predict_batch`] against the latest published
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the batch's shape does not fit the model.
    pub fn predict_batch(&mut self, x: &Tensor) -> Tensor {
        self.refresh();
        self.session.predict_batch(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeuronPlacement, ResNet, ResNetConfig};
    use qn_core::NeuronSpec;
    use qn_nn::{checkpoint, Linear, LoadMode};
    use qn_tensor::Rng;

    fn tiny_net(seed: u64) -> ResNet {
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
    fn publish_and_get_roundtrip() {
        let reg = ModelRegistry::new();
        assert!(reg.get("missing").is_none());
        let mut rng = Rng::seed_from(0);
        assert_eq!(
            reg.publish("a", Arc::new(Linear::new(2, 2, false, &mut rng))),
            1
        );
        assert_eq!(
            reg.publish("a", Arc::new(Linear::new(2, 2, false, &mut rng))),
            2
        );
        assert_eq!(reg.generation("a"), Some(2));
        assert_eq!(reg.names(), vec!["a".to_string()]);
        assert!(reg.get("a").is_some());
        assert!(reg.retire("a").is_some());
        assert!(reg.get("a").is_none());
    }

    #[test]
    fn info_and_snapshot_report_without_blocking() {
        let reg = ModelRegistry::new();
        assert!(reg.info("missing").is_none());
        assert!(reg.snapshot().is_empty());
        let mut rng = Rng::seed_from(3);
        reg.publish("lin", Arc::new(Linear::new(4, 2, true, &mut rng)));
        reg.publish("net", Arc::new(tiny_net(1)));

        let info = reg.info("lin").expect("published");
        assert_eq!(info.name, "lin");
        assert_eq!(info.generation, 1);
        assert_eq!(info.params, 2); // weight + bias
        assert_eq!(info.param_elems, 4 * 2 + 2);
        assert_eq!(info.mapped_params, 0);
        assert_eq!(info.live_handles, 0);

        // an outstanding session holds a handle; the gauge sees it
        let session = reg.session("lin").expect("slot exists");
        assert_eq!(reg.info("lin").expect("published").live_handles, 1);
        drop(session);
        assert_eq!(reg.info("lin").expect("published").live_handles, 0);

        let snap = reg.snapshot();
        assert_eq!(
            snap.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["lin", "net"],
            "snapshot is name-sorted"
        );
        assert!(snap[1].param_elems > snap[0].param_elems);

        // a mmap-loaded model reports its mapped parameter census
        let path = std::env::temp_dir().join("qn_registry_info.qnckpt");
        checkpoint::save_module(&tiny_net(1), &[], &path).expect("save");
        let reloaded = tiny_net(2);
        checkpoint::load_module(&reloaded, &path, LoadMode::Mapped).expect("load");
        reg.publish("net", Arc::new(reloaded));
        let info = reg.info("net").expect("published");
        assert_eq!(info.generation, 2);
        assert!(info.mapped_params > 0, "mapped census must see mmap params");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn info_reports_weight_dtype_for_quantized_slots() {
        let reg = ModelRegistry::new();
        let net = tiny_net(6);
        reg.publish("f32", Arc::new(tiny_net(6)));
        assert_eq!(reg.info("f32").expect("published").weight_dtype, "f32");

        // publish the int8 twin into its own slot and serve from it
        let twin: Arc<dyn Module> = Arc::from(net.quantized().expect("ResNet quantizes"));
        reg.publish("int8", twin);
        assert_eq!(reg.info("int8").expect("published").weight_dtype, "int8");

        let mut f32_session = reg.session("f32").expect("slot exists");
        let mut q_session = reg.session("int8").expect("slot exists");
        let mut rng = Rng::seed_from(13);
        let x = Tensor::randn(&[3, 16, 16], &mut rng);
        let exact = f32_session.predict(&x);
        let quant = q_session.predict(&x);
        assert_eq!(exact.shape().dims(), quant.shape().dims());
        let drift = exact
            .data()
            .iter()
            .zip(quant.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(drift < 0.5, "registry-served int8 drift {drift}");
    }

    #[test]
    fn hot_swap_changes_session_outputs() {
        let reg = ModelRegistry::new();
        reg.publish("net", Arc::new(tiny_net(1)));
        let mut session = reg.session("net").unwrap();
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[3, 16, 16], &mut rng);
        let before = session.predict(&x);
        assert_eq!(session.generation(), 1);

        reg.publish("net", Arc::new(tiny_net(2)));
        let after = session.predict(&x);
        assert_eq!(session.generation(), 2);
        assert!(!before.bit_identical(&after), "new weights must serve");

        // republishing identical weights keeps outputs bit-identical
        reg.publish("net", Arc::new(tiny_net(2)));
        let again = session.predict(&x);
        assert_eq!(session.generation(), 3);
        assert!(after.bit_identical(&again));
    }

    #[test]
    fn retired_slot_keeps_serving_old_model() {
        let reg = ModelRegistry::new();
        reg.publish("net", Arc::new(tiny_net(1)));
        let mut session = reg.session("net").unwrap();
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[3, 16, 16], &mut rng);
        let before = session.predict(&x);
        reg.retire("net");
        let after = session.predict(&x);
        assert!(before.bit_identical(&after));
        assert!(reg.session("net").is_none());
    }

    #[test]
    fn republish_after_retire_reaches_open_sessions() {
        let reg = ModelRegistry::new();
        reg.publish("net", Arc::new(tiny_net(1)));
        let mut session = reg.session("net").unwrap();
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[3, 16, 16], &mut rng);
        let before = session.predict(&x);
        reg.retire("net");
        let generation = reg.publish("net", Arc::new(tiny_net(2)));
        assert!(
            generation > 1,
            "a republished name reused generation {generation}"
        );
        let after = session.predict(&x);
        assert_eq!(session.generation(), generation);
        let want = InferenceSession::new(&tiny_net(2)).predict(&x);
        assert!(
            after.bit_identical(&want),
            "the republished model must serve"
        );
        assert!(!after.bit_identical(&before));
    }

    #[test]
    fn checkpoint_reload_publishes_identical_model() {
        let src = tiny_net(3);
        let path = std::env::temp_dir().join("qn_registry_swap.qnckpt");
        checkpoint::save_module(&src, &[], &path).expect("save");

        let reg = ModelRegistry::new();
        reg.publish("net", Arc::new(src));
        let mut session = reg.session("net").unwrap();
        let mut rng = Rng::seed_from(11);
        let x = Tensor::randn(&[3, 16, 16], &mut rng);
        let before = session.predict(&x);

        // reload the same weights into a differently-seeded skeleton and swap
        let reloaded = tiny_net(4);
        checkpoint::load_module(&reloaded, &path, LoadMode::Mapped).expect("load");
        reg.publish("net", Arc::new(reloaded));
        let after = session.predict(&x);
        assert!(before.bit_identical(&after));
        let _ = std::fs::remove_file(&path);
    }
}
