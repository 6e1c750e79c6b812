//! The serving front-end: TCP accept loop, connection handlers, batch
//! workers, routing, admin hot-swap, and `/metrics`.
//!
//! ## Architecture
//!
//! ```text
//!  accept loop ──► connection handler threads (1/conn, capped)
//!                        │  parse HTTP, decode sample
//!                        ▼
//!                  BatchQueue (bounded)  ◄── 429/503 shed at admission
//!                        │  size-or-deadline flush
//!                        ▼
//!                  batch workers (per route) ── InferenceSession
//!                        │                        └─ predict_batch shards
//!                        ▼                           across qn-parallel
//!                  ResponseSlot → handler writes the HTTP response
//! ```
//!
//! Each route's batch workers own long-lived [`InferenceSession`]s (arena
//! and buffer pool reused across batches — the PR 5 zero-alloc steady
//! state) and poll their slot's registry generation between batches, so an
//! admin checkpoint load + publish goes live without pausing serving.
//!
//! ## Routes
//!
//! | method | path | purpose |
//! |---|---|---|
//! | `POST` | `/v1/models/{name}/predict` | run one sample (binary f32 LE or text floats) |
//! | `GET`  | `/v1/models` | registry snapshot (name, generation, params) |
//! | `GET`  | `/metrics` | latency percentiles, queue depth, batch sizes, pool stats |
//! | `GET`  | `/healthz` | liveness + active SIMD level and kernel profile |
//! | `POST` | `/admin/models/{name}/load` | body = checkpoint path; mmap-load + hot-swap |

use crate::http::{HttpConn, Limits, Request, Response};
use crate::metrics::{batch_dist_json, latency_json, pool_stats_json, RouteMetrics, ServerMetrics};
use crate::queue::{AdmitError, BatchConfig, BatchError, BatchQueue};
use qn_models::{InferenceSession, ModelRegistry, Precision, MAX_BATCH};
use qn_nn::{checkpoint, LoadMode, Module};
use qn_tensor::{BufferPool, PoolStats, Tensor};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds a fresh model skeleton for a route — what the admin load route
/// pours a checkpoint into before publishing it over the running slot.
pub type ModelFactory = Box<dyn Fn() -> Arc<dyn Module> + Send + Sync>;

/// Server-wide knobs. `Default` is sized for loopback serving and tests.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (see [`Server::addr`]).
    pub addr: String,
    /// Concurrent connection cap; beyond it new connections are answered
    /// `503` and closed immediately.
    pub max_connections: usize,
    /// HTTP parser caps.
    pub limits: Limits,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// How long a handler waits for its batch result before answering
    /// `504` (a worker wedged on a huge batch should not pin connections
    /// forever).
    pub request_timeout: Duration,
    /// Value of the `Retry-After` header on 429/503 sheds, seconds.
    pub retry_after_secs: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
        }
    }
}

/// Granularity at which blocked socket reads re-check the shutdown flag
/// and idle deadline.
const READ_POLL: Duration = Duration::from_millis(50);

struct Route {
    name: String,
    sample_shape: Vec<usize>,
    sample_elems: usize,
    batch: BatchConfig,
    queue: BatchQueue,
    metrics: RouteMetrics,
    factory: Option<ModelFactory>,
    /// Requested numeric tier. `Int8` makes each batch worker serve the
    /// model's quantized twin (rebuilt on every hot-swap); when the model
    /// has no quantized form the worker falls back to f32 and
    /// `weight_dtype` in `/metrics` shows what is actually serving.
    precision: Precision,
    /// Weight dtype of the sessions the workers actually built (set on
    /// every session rebuild; `/metrics` reports it next to `precision`).
    served_dtype: Mutex<&'static str>,
    /// Worker `w`'s current session pool (replaced on hot-swap rebuild);
    /// `/metrics` sums their stats.
    pools: Mutex<Vec<Option<Arc<BufferPool>>>>,
}

impl Route {
    fn summed_pool_stats(&self) -> PoolStats {
        let pools = self.pools.lock().expect("route pools poisoned");
        let mut sum = PoolStats {
            hits: 0,
            misses: 0,
            returns: 0,
            discarded: 0,
            buffers_held: 0,
            bytes_held: 0,
        };
        for pool in pools.iter().flatten() {
            let s = pool.stats();
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.returns += s.returns;
            sum.discarded += s.discarded;
            sum.buffers_held += s.buffers_held;
            sum.bytes_held += s.bytes_held;
        }
        sum
    }
}

struct Shared {
    config: ServeConfig,
    registry: Arc<ModelRegistry>,
    routes: HashMap<String, Arc<Route>>,
    metrics: ServerMetrics,
    running: AtomicBool,
}

/// A pending route registration: name, per-sample shape, batch config,
/// optional checkpoint-load skeleton factory, and serving precision.
type RouteSpec = (
    String,
    Vec<usize>,
    BatchConfig,
    Option<ModelFactory>,
    Precision,
);

/// Builder for a [`Server`]: registry + routes, then [`ServerBuilder::start`].
pub struct ServerBuilder {
    config: ServeConfig,
    registry: Arc<ModelRegistry>,
    routes: Vec<RouteSpec>,
}

impl ServerBuilder {
    /// A builder with a fresh, empty [`ModelRegistry`].
    pub fn new(config: ServeConfig) -> Self {
        ServerBuilder {
            config,
            registry: Arc::new(ModelRegistry::new()),
            routes: Vec::new(),
        }
    }

    /// Uses an existing registry (models already published elsewhere).
    pub fn with_registry(mut self, registry: Arc<ModelRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Adds a route serving `model` under `name` for samples of
    /// `sample_shape` (no batch dimension). Publishes the model into the
    /// registry immediately.
    pub fn route(
        self,
        name: &str,
        sample_shape: &[usize],
        model: Arc<dyn Module>,
        batch: BatchConfig,
    ) -> Self {
        self.registry.publish(name, model);
        self.route_spec(name, sample_shape, batch, None, Precision::F32)
    }

    /// Like [`ServerBuilder::route`], but the batch workers serve the
    /// model's **int8 quantized twin** (see `Module::quantized` in
    /// `qn-nn`): each worker snapshots the published f32 weights into
    /// per-channel int8 at session build time and re-quantizes on every
    /// hot-swap. If the model has no quantized form the workers fall back
    /// to f32 — `/metrics` reports the served `weight_dtype` either way.
    pub fn route_quantized(
        self,
        name: &str,
        sample_shape: &[usize],
        model: Arc<dyn Module>,
        batch: BatchConfig,
    ) -> Self {
        self.registry.publish(name, model);
        self.route_spec(name, sample_shape, batch, None, Precision::Int8)
    }

    /// Like [`ServerBuilder::route`], additionally installing a skeleton
    /// `factory` so `POST /admin/models/{name}/load` can pour a checkpoint
    /// into a fresh skeleton and hot-swap it in.
    pub fn route_with_factory(
        self,
        name: &str,
        sample_shape: &[usize],
        model: Arc<dyn Module>,
        batch: BatchConfig,
        factory: ModelFactory,
    ) -> Self {
        self.registry.publish(name, model);
        self.route_spec(name, sample_shape, batch, Some(factory), Precision::F32)
    }

    /// Adds a route without publishing (the registry must already hold —
    /// or later gain — a model under `name`; requests meanwhile answer
    /// 503).
    pub fn route_spec(
        mut self,
        name: &str,
        sample_shape: &[usize],
        batch: BatchConfig,
        factory: Option<ModelFactory>,
        precision: Precision,
    ) -> Self {
        self.routes.push((
            name.to_string(),
            sample_shape.to_vec(),
            batch,
            factory,
            precision,
        ));
        self
    }

    /// Binds, spawns the batch workers and the accept loop, and returns
    /// the running server.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a malformed route (empty name, `/` in the name,
    /// zero-sized sample shape, zero workers) and any bind error.
    pub fn start(self) -> io::Result<Server> {
        let mut routes = HashMap::new();
        let mut workers: Vec<(Arc<Route>, usize)> = Vec::new();
        for (name, sample_shape, mut batch, factory, precision) in self.routes {
            if name.is_empty() || name.contains('/') {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("invalid route name {name:?}"),
                ));
            }
            let sample_elems: usize = sample_shape.iter().product();
            if sample_shape.is_empty() || sample_elems == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("route {name:?} has an empty sample shape"),
                ));
            }
            if batch.workers == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("route {name:?} needs at least one worker"),
                ));
            }
            // the admission-path guard: a flush can never exceed what the
            // validating predict path accepts
            batch.max_batch = batch.max_batch.clamp(1, MAX_BATCH);
            let worker_count = batch.workers;
            let route = Arc::new(Route {
                name: name.clone(),
                sample_elems,
                sample_shape,
                queue: BatchQueue::new(&batch),
                metrics: RouteMetrics::new(batch.max_batch),
                batch,
                factory,
                precision,
                served_dtype: Mutex::new(precision.as_str()),
                pools: Mutex::new(vec![None; worker_count]),
            });
            for w in 0..worker_count {
                workers.push((Arc::clone(&route), w));
            }
            if routes.insert(name.clone(), route).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate route {name:?}"),
                ));
            }
        }

        let listener = TcpListener::bind(&self.config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config: self.config,
            registry: self.registry,
            routes,
            metrics: ServerMetrics::default(),
            running: AtomicBool::new(true),
        });

        let worker_handles: Vec<JoinHandle<()>> = workers
            .into_iter()
            .map(|(route, w)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qn-serve-{}-{w}", route.name))
                    .spawn(move || batch_worker(&shared, &route, w))
                    .expect("spawn batch worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("qn-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, listener, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
            conns,
        })
    }
}

/// A running serving front-end. Dropping (or calling
/// [`Server::shutdown`]) stops accepting, sheds queued work with 503,
/// and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry backing the routes — publish to it directly to
    /// hot-swap models from the owning process.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The `/metrics` payload, for in-process consumers.
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.shared)
    }

    /// Graceful shutdown: stop admissions (queued samples answer 503),
    /// join workers, unblock the accept loop, join connection handlers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if !self.shared.running.swap(false, Ordering::SeqCst) {
            return;
        }
        for route in self.shared.routes.values() {
            route.queue.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // unblock the blocking accept with a dummy connection
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut conns = self.conns.lock().expect("conn list poisoned");
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared
            .metrics
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
        let active = shared.metrics.connections_active.load(Ordering::SeqCst);
        if active >= shared.config.max_connections {
            shared
                .metrics
                .connections_shed
                .fetch_add(1, Ordering::Relaxed);
            shared.metrics.rejected_503.fetch_add(1, Ordering::Relaxed);
            shared.metrics.count_response(503);
            let resp = Response::error(503, "connection limit reached")
                .with_header("Retry-After", shared.config.retry_after_secs.to_string());
            let _ = resp.write_to(&mut stream, false);
            continue;
        }
        shared
            .metrics
            .connections_active
            .fetch_add(1, Ordering::SeqCst);
        let handler = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("qn-serve-conn".to_string())
                .spawn(move || {
                    handle_connection(&shared, stream);
                    shared
                        .metrics
                        .connections_active
                        .fetch_sub(1, Ordering::SeqCst);
                })
        };
        let mut guard = conns.lock().expect("conn list poisoned");
        if let Ok(h) = handler {
            guard.push(h);
        } else {
            shared
                .metrics
                .connections_active
                .fetch_sub(1, Ordering::SeqCst);
        }
        // reap finished handlers so the list doesn't grow unboundedly
        let mut i = 0;
        while i < guard.len() {
            if guard[i].is_finished() {
                let h = guard.swap_remove(i);
                let _ = h.join();
            } else {
                i += 1;
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(stream);
    loop {
        let idle_deadline = Instant::now() + shared.config.idle_timeout;
        let result = conn.read_request(&shared.config.limits, || {
            shared.running.load(Ordering::SeqCst) && Instant::now() < idle_deadline
        });
        match result {
            Ok(None) => break, // peer closed cleanly
            Ok(Some(req)) => {
                shared
                    .metrics
                    .requests_total
                    .fetch_add(1, Ordering::Relaxed);
                let keep = req.keep_alive && shared.running.load(Ordering::SeqCst);
                let resp = dispatch(shared, &req);
                shared.metrics.count_response(resp.status);
                if resp.write_to(conn.stream(), keep).is_err() || !keep {
                    break;
                }
            }
            Err(e) => {
                if let Some((status, msg)) = e.status() {
                    shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.count_response(status);
                    let _ = Response::error(status, msg).write_to(conn.stream(), false);
                }
                break;
            }
        }
    }
}

fn dispatch(shared: &Arc<Shared>, req: &Request) -> Response {
    let method = req.method.as_str();
    let path = req.path.as_str();
    match (method, path) {
        // Liveness plus the resolved kernel dispatch state, so an operator
        // can confirm what `QN_SIMD` actually took effect on this host
        // (unrecognized values fall back silently).
        ("GET", "/healthz") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"simd\":\"{}\",\"kernel_profile\":\"{}\"}}\n",
                qn_simd::SimdLevel::active().name(),
                qn_simd::KernelProfile::active().name(),
            ),
        ),
        ("GET", "/metrics") => Response::json(200, metrics_json(shared)).chunked(),
        ("GET", "/v1/models") => Response::json(200, models_json(shared)),
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/models/") {
                if let Some((name, "predict")) = rest.split_once('/') {
                    return if method == "POST" {
                        predict(shared, name, req)
                    } else {
                        Response::error(405, "predict requires POST")
                    };
                }
            }
            if let Some(rest) = path.strip_prefix("/admin/models/") {
                if let Some((name, "load")) = rest.split_once('/') {
                    return if method == "POST" {
                        admin_load(shared, name, req)
                    } else {
                        Response::error(405, "load requires POST")
                    };
                }
            }
            Response::error(404, "no such route")
        }
    }
}

/// Decodes a request body into sample values: raw little-endian `f32` for
/// `application/octet-stream`, otherwise ASCII floats split on
/// whitespace/commas. `None` = malformed.
fn decode_sample(req: &Request, expect_elems: usize) -> Result<Vec<f32>, &'static str> {
    let binary = req
        .header("content-type")
        .map(|v| v.starts_with("application/octet-stream"))
        .unwrap_or(false);
    if binary {
        if req.body.len() != expect_elems * 4 {
            return Err("body length must be 4 * sample element count");
        }
        Ok(req
            .body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    } else {
        let text = std::str::from_utf8(&req.body).map_err(|_| "body is not valid UTF-8")?;
        let mut vals = Vec::with_capacity(expect_elems);
        for tok in text.split(|c: char| c.is_whitespace() || c == ',') {
            if tok.is_empty() {
                continue;
            }
            vals.push(tok.parse::<f32>().map_err(|_| "unparseable float")?);
            if vals.len() > expect_elems {
                return Err("too many values for the sample shape");
            }
        }
        if vals.len() != expect_elems {
            return Err("wrong value count for the sample shape");
        }
        Ok(vals)
    }
}

/// Encodes an output tensor in the caller's format.
fn encode_output(req: &Request, y: &Tensor) -> Response {
    let binary = req
        .header("accept")
        .or_else(|| req.header("content-type"))
        .map(|v| v.starts_with("application/octet-stream"))
        .unwrap_or(false);
    if binary {
        let mut bytes = Vec::with_capacity(y.numel() * 4);
        for v in y.data() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Response::octet(200, bytes)
    } else {
        let vals: Vec<String> = y.data().iter().map(|v| format!("{v}")).collect();
        Response::text(200, format!("{}\n", vals.join(",")))
    }
}

fn predict(shared: &Arc<Shared>, name: &str, req: &Request) -> Response {
    let Some(route) = shared.routes.get(name) else {
        return Response::error(404, "unknown model");
    };
    let values = match decode_sample(req, route.sample_elems) {
        Ok(v) => v,
        Err(msg) => return Response::error(400, msg),
    };
    let sample = match Tensor::from_vec(values, &route.sample_shape) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "sample does not fit the route shape"),
    };
    let slot = match route.queue.try_admit(sample) {
        Ok(slot) => slot,
        Err(AdmitError::Full) => {
            shared.metrics.rejected_429.fetch_add(1, Ordering::Relaxed);
            return Response::error(429, "admission queue is full")
                .with_header("Retry-After", shared.config.retry_after_secs.to_string());
        }
        Err(AdmitError::Closed) => {
            shared.metrics.rejected_503.fetch_add(1, Ordering::Relaxed);
            return Response::error(503, "server is shutting down")
                .with_header("Retry-After", shared.config.retry_after_secs.to_string());
        }
    };
    route.metrics.admitted.fetch_add(1, Ordering::Relaxed);
    route.metrics.observe_depth(route.queue.depth());
    match slot.wait(shared.config.request_timeout) {
        None => Response::error(504, "batch worker did not answer in time"),
        Some(Ok(y)) => encode_output(req, &y),
        Some(Err(BatchError::ModelUnavailable)) => Response::error(503, "model was retired"),
        Some(Err(BatchError::ShuttingDown)) => Response::error(503, "server is shutting down")
            .with_header("Retry-After", shared.config.retry_after_secs.to_string()),
        Some(Err(BatchError::Inference(msg))) => Response::error(500, &msg),
    }
}

fn admin_load(shared: &Arc<Shared>, name: &str, req: &Request) -> Response {
    let Some(route) = shared.routes.get(name) else {
        return Response::error(404, "unknown model");
    };
    let Some(factory) = route.factory.as_ref() else {
        return Response::error(409, "route has no model factory; publish via the registry");
    };
    let path = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s.trim().to_string(),
        _ => return Response::error(400, "body must be a checkpoint path"),
    };
    let model = factory();
    if let Err(e) = checkpoint::load_module(&*model, Path::new(&path), LoadMode::Mapped) {
        return Response::error(400, &format!("checkpoint load failed: {e}"));
    }
    let generation = shared.registry.publish(&route.name, model);
    Response::json(
        200,
        format!(
            "{{\"model\":\"{}\",\"generation\":{generation}}}",
            route.name
        ),
    )
}

fn models_json(shared: &Arc<Shared>) -> String {
    let entries: Vec<String> = shared
        .registry
        .snapshot()
        .into_iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"generation\":{},\"params\":{},\"param_elems\":{},\
                 \"mapped_params\":{},\"live_handles\":{},\"weight_dtype\":\"{}\",\
                 \"routed\":{}}}",
                s.name,
                s.generation,
                s.params,
                s.param_elems,
                s.mapped_params,
                s.live_handles,
                s.weight_dtype,
                shared.routes.contains_key(&s.name),
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn metrics_json(shared: &Arc<Shared>) -> String {
    let m = &shared.metrics;
    let server = format!(
        "{{\"connections_opened\":{},\"connections_active\":{},\"connections_shed\":{},\
         \"requests_total\":{},\"responses_2xx\":{},\"responses_4xx\":{},\
         \"responses_5xx\":{},\"rejected_429\":{},\"rejected_503\":{},\"parse_errors\":{}}}",
        m.connections_opened.load(Ordering::Relaxed),
        m.connections_active.load(Ordering::Relaxed),
        m.connections_shed.load(Ordering::Relaxed),
        m.requests_total.load(Ordering::Relaxed),
        m.responses_2xx.load(Ordering::Relaxed),
        m.responses_4xx.load(Ordering::Relaxed),
        m.responses_5xx.load(Ordering::Relaxed),
        m.rejected_429.load(Ordering::Relaxed),
        m.rejected_503.load(Ordering::Relaxed),
        m.parse_errors.load(Ordering::Relaxed),
    );
    let mut names: Vec<&String> = shared.routes.keys().collect();
    names.sort();
    let routes: Vec<String> = names
        .into_iter()
        .map(|name| {
            let r = &shared.routes[name];
            let rm = &r.metrics;
            let model = shared
                .registry
                .info(name)
                .map(|i| {
                    format!(
                        "{{\"generation\":{},\"params\":{},\"param_elems\":{},\
                         \"mapped_params\":{},\"live_handles\":{}}}",
                        i.generation, i.params, i.param_elems, i.mapped_params, i.live_handles
                    )
                })
                .unwrap_or_else(|| "null".to_string());
            format!(
                "\"{name}\":{{\"queue\":{{\"depth\":{},\"capacity\":{},\"depth_hwm\":{}}},\
                 \"batch\":{{\"max_batch\":{},\"max_delay_us\":{},\"flush_size\":{},\
                 \"flush_deadline\":{},\"size_dist\":{}}},\
                 \"latency\":{},\"admitted\":{},\"served\":{},\"failed\":{},\
                 \"precision\":\"{}\",\"weight_dtype\":\"{}\",\
                 \"pool\":{},\"model\":{model}}}",
                r.queue.depth(),
                r.queue.capacity(),
                rm.depth_hwm.load(Ordering::Relaxed),
                r.batch.max_batch,
                r.batch.max_delay.as_micros(),
                rm.flush_size.load(Ordering::Relaxed),
                rm.flush_deadline.load(Ordering::Relaxed),
                batch_dist_json(&rm.batch_size_dist()),
                latency_json(&rm.latency.snapshot()),
                rm.admitted.load(Ordering::Relaxed),
                rm.served.load(Ordering::Relaxed),
                rm.failed.load(Ordering::Relaxed),
                r.precision,
                *r.served_dtype.lock().expect("dtype lock poisoned"),
                pool_stats_json(&r.summed_pool_stats()),
            )
        })
        .collect();
    let runtime = format!(
        "{{\"simd\":\"{}\",\"kernel_profile\":\"{}\"}}",
        qn_simd::SimdLevel::active().name(),
        qn_simd::KernelProfile::active().name(),
    );
    format!(
        "{{\"server\":{server},\"runtime\":{runtime},\"routes\":{{{}}}}}\n",
        routes.join(",")
    )
}

/// One batch worker: drains the route's queue batch by batch, keeps a
/// long-lived [`InferenceSession`] (rebuilt only on registry hot-swap or
/// after a panic), and fulfills every admitted slot exactly once.
fn batch_worker(shared: &Arc<Shared>, route: &Arc<Route>, w: usize) {
    let mut generation: u64 = 0;
    let mut session: Option<InferenceSession<'static>> = None;
    while let Some((batch, by_size)) = route.queue.next_batch() {
        if batch.is_empty() {
            continue;
        }
        route.metrics.record_batch(batch.len(), by_size);

        // pick up hot-swapped weights between batches (generation poll —
        // no registry lock held while serving)
        match shared.registry.generation(&route.name) {
            Some(g) => {
                if session.is_none() || g != generation {
                    match shared.registry.get(&route.name) {
                        Some(model) => {
                            // int8 routes snapshot the published weights
                            // into the quantized twin; models without one
                            // fall back to f32 (visible in /metrics)
                            let s = match route.precision {
                                Precision::Int8 => InferenceSession::quantized(model.as_ref())
                                    .unwrap_or_else(|| InferenceSession::owned(model)),
                                Precision::F32 => InferenceSession::owned(model),
                            };
                            *route.served_dtype.lock().expect("dtype lock poisoned") =
                                s.weight_dtype();
                            route.pools.lock().expect("route pools poisoned")[w] =
                                Some(Arc::clone(s.pool()));
                            session = Some(s);
                            generation = g;
                        }
                        None => {
                            fail_batch(route, batch, BatchError::ModelUnavailable);
                            continue;
                        }
                    }
                }
            }
            None => {
                session = None;
                fail_batch(route, batch, BatchError::ModelUnavailable);
                continue;
            }
        }
        let s = session.as_mut().expect("session built above");

        // stack the samples into one pooled [B, sample...] tensor
        let b = batch.len();
        let mut dims = Vec::with_capacity(1 + route.sample_shape.len());
        dims.push(b);
        dims.extend_from_slice(&route.sample_shape);
        let mut input = Tensor::from_pooled_uninit(s.pool(), &dims);
        {
            let data = input.data_mut();
            for (i, p) in batch.iter().enumerate() {
                data[i * route.sample_elems..(i + 1) * route.sample_elems]
                    .copy_from_slice(p.sample.data());
            }
        }

        // a panicking model must not kill the worker: catch, fail the
        // batch, and rebuild the session (its arena may be mid-pass)
        let outcome = catch_unwind(AssertUnwindSafe(|| s.try_predict_batch(&input)));
        match outcome {
            Ok(Ok(y)) => {
                let out_dims = y.shape().dims().to_vec();
                let inner: usize = out_dims[1..].iter().product();
                let data = y.data();
                for (i, p) in batch.iter().enumerate() {
                    let row = data[i * inner..(i + 1) * inner].to_vec();
                    let t = Tensor::from_vec(row, &out_dims[1..])
                        .expect("row length matches output dims");
                    route
                        .metrics
                        .latency
                        .record(p.enqueued.elapsed().as_nanos() as u64);
                    route.metrics.served.fetch_add(1, Ordering::Relaxed);
                    p.slot.fulfill(Ok(t));
                }
                let pool = Arc::clone(s.pool());
                s.recycle(y);
                input.into_pool(&pool);
            }
            Ok(Err(e)) => {
                input.into_pool(s.pool());
                fail_batch(route, batch, BatchError::Inference(e.to_string()));
            }
            Err(_) => {
                // arena state unknown after a panic: drop the session
                session = None;
                fail_batch(
                    route,
                    batch,
                    BatchError::Inference("inference worker panicked".to_string()),
                );
            }
        }
    }
}

fn fail_batch(route: &Route, batch: Vec<crate::queue::Pending>, err: BatchError) {
    route
        .metrics
        .failed
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    for p in batch {
        p.slot.fulfill(Err(err.clone()));
    }
}
