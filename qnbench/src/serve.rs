//! `resnet-serve`: `qn-serve` on loopback with one route — the quadratic
//! ResNet-8 (width 4, k=2, 3×32×32) that `qn-serve-bench` serves, with
//! `max_batch` 32 and `max_delay` 2 ms. Two open-loop phases at fixed
//! offered rates (`low` 25 req/s, `busy` 150 req/s), then a `sat` phase in
//! which every connection sends back to back. Load comes from one process
//! over at most `nproc` keep-alive connections, one thread each.
//!
//! Each phase gets a fresh server, so the server's cumulative `/metrics`
//! counters describe that phase alone (plus a short warm-up).
//!
//! The bounded metrics are the server's CPU cost: process CPU time minus
//! the client threads' own CPU time (each reads `CLOCK_THREAD_CPUTIME_ID`),
//! so the load generator's writes, parsing and body checks are left out.
//! CPU time cannot see a request waiting — for the `max_delay` deadline
//! above all — so the due-time latencies and the goodput are printed
//! beside them, unbounded: on the 2-vCPU guest the benchmark was tuned on
//! their spread across seeds is wider than any bound the benchmark may set.

use crate::stats::{cpu_ms, median, ms_since, quantile, thread_cpu_ms, Digest};
use crate::{host_cpus, report_samples, report_value, timed_setup, Outcome, SETUP_REPS};
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::Module;
use qn_serve::{BatchConfig, ServeConfig, Server, ServerBuilder};
use qn_tensor::{Rng, Tensor};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUTE: &str = "resnet8-eq2";
const SAMPLE_SHAPE: [usize; 3] = [3, 32, 32];
const SAMPLES: usize = 64;
/// Latency limit of the goodput metric.
const LIMIT_MS: f64 = 25.0;
const WARMUP_REQUESTS: usize = 8;

struct Bench {
    model: Arc<ResNet>,
    /// Full HTTP request bytes per sample.
    requests: Vec<Vec<u8>>,
    samples: Vec<Tensor>,
}

fn build(seed: u64) -> Bench {
    let model = Arc::new(ResNet::cifar(ResNetConfig {
        depth: 8,
        base_width: 4,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank: 2 },
        placement: NeuronPlacement::All,
        seed,
    }));
    let mut rng = Rng::seed_from(seed ^ 0x5e7e);
    let samples: Vec<Tensor> = (0..SAMPLES)
        .map(|_| Tensor::randn(&SAMPLE_SHAPE, &mut rng))
        .collect();
    let requests = samples
        .iter()
        .map(|s| {
            let mut r = format!(
                "POST /v1/models/{ROUTE}/predict HTTP/1.1\r\nHost: bench\r\n\
                 Content-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
                s.numel() * 4
            )
            .into_bytes();
            for v in s.data() {
                r.extend_from_slice(&v.to_le_bytes());
            }
            r
        })
        .collect();
    Bench {
        model,
        requests,
        samples,
    }
}

fn start_server(model: &Arc<ResNet>) -> Server {
    let model: Arc<dyn Module> = model.clone();
    ServerBuilder::new(ServeConfig {
        max_connections: 8,
        ..ServeConfig::default()
    })
    .route(
        ROUTE,
        &SAMPLE_SHAPE,
        model,
        BatchConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_capacity: 128,
            workers: 1,
        },
    )
    .start()
    .expect("bind a loopback server")
}

/// A keep-alive client connection.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Sends one request and returns `(status, body)`; `None` on a
    /// transport error (the connection is dropped and reopened next time).
    fn request(&mut self, req: &[u8]) -> Option<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).ok()?;
            s.set_nodelay(true).ok()?;
            s.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
            self.stream = Some(s);
        }
        let out = self.exchange(req);
        if out.is_none() {
            self.stream = None;
        }
        out
    }

    fn exchange(&mut self, req: &[u8]) -> Option<(u16, Vec<u8>)> {
        let s = self.stream.as_mut()?;
        s.write_all(req).ok()?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let mut len = 0usize;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().ok()?;
                }
            }
        }
        let mut body = self.buf[head_end..].to_vec();
        while body.len() < len {
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => body.extend_from_slice(&chunk[..n]),
            }
        }
        Some((status, body))
    }
}

/// What one connection thread saw.
#[derive(Default)]
struct ConnLog {
    /// Client latency in ms: from due time (open loop) or send time (sat).
    latency: Vec<f64>,
    /// How late the request was sent against its due time, ms.
    late: Vec<f64>,
    /// Server CPU ms while the request was in flight: process CPU minus
    /// this client thread's CPU over the same interval. It is the
    /// request's own cost when it is the only one in flight (the
    /// one-connection `low` phase).
    server_cpu: Vec<f64>,
    /// CPU ms the client thread used over the phase.
    client_cpu_ms: f64,
    /// Correct 200 responses within the latency limit.
    good: u64,
    sent: u64,
    ok: u64,
    rejected: u64,
    failed: u64,
}

struct Phase {
    name: &'static str,
    /// Offered rate in req/s; `None` = back to back (saturation).
    rate: Option<f64>,
    secs: f64,
    conns: usize,
    log: ConnLog,
    /// `/metrics` of the phase's server, read before shutdown.
    metrics: String,
    /// Measured phase length, s.
    elapsed: f64,
    /// Process CPU ms over the phase.
    cpu_ms: f64,
}

impl Phase {
    /// Server CPU ms over the phase: process CPU minus the client threads'.
    fn server_cpu_ms(&self) -> f64 {
        self.cpu_ms - self.log.client_cpu_ms
    }
}

/// Sends one request, checks it, and books it in `log`.
fn one(conn: &mut Conn, b: &Bench, expected: &[Vec<u8>], i: usize, log: &mut ConnLog) -> bool {
    log.sent += 1;
    match conn.request(&b.requests[i % SAMPLES]) {
        Some((200, body)) if body == expected[i % SAMPLES] => {
            log.ok += 1;
            true
        }
        Some((429 | 503, _)) => {
            log.rejected += 1;
            log.failed += 1;
            false
        }
        _ => {
            log.failed += 1;
            false
        }
    }
}

fn run_phase(b: &Bench, expected: &[Vec<u8>], mut phase: Phase) -> Phase {
    // one process, one thread and one connection per client, and no more
    // of them than CPUs
    assert!(
        phase.conns <= host_cpus(),
        "more client connections than CPUs"
    );
    let server = start_server(&b.model);
    let addr = server.addr();
    let mut log = ConnLog::default();
    let mut c = Conn::new(addr);
    for i in 0..WARMUP_REQUESTS {
        one(&mut c, b, expected, i, &mut log);
    }
    drop(c);
    let ticket = AtomicU64::new(0);
    let total = phase
        .rate
        .map_or(u64::MAX, |r| (r * phase.secs).round() as u64);
    let start = Instant::now();
    let cpu0 = cpu_ms();
    let end = start + Duration::from_secs_f64(phase.secs);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..phase.conns)
            .map(|_| {
                let ticket = &ticket;
                let rate = phase.rate;
                scope.spawn(move || {
                    let thread_cpu0 = thread_cpu_ms();
                    let mut conn = Conn::new(addr);
                    let mut log = ConnLog::default();
                    loop {
                        let i = ticket.fetch_add(1, Ordering::Relaxed);
                        let due = match rate {
                            Some(r) => {
                                if i >= total {
                                    break;
                                }
                                let due = start + Duration::from_secs_f64(i as f64 / r);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                due
                            }
                            None => {
                                if Instant::now() >= end {
                                    break;
                                }
                                Instant::now()
                            }
                        };
                        let late = ms_since(due);
                        let (process0, own0) = (cpu_ms(), thread_cpu_ms());
                        let good = one(&mut conn, b, expected, i as usize, &mut log);
                        let lat = ms_since(due);
                        let own = thread_cpu_ms() - own0;
                        log.server_cpu.push(cpu_ms() - process0 - own);
                        log.late.push(late);
                        log.latency.push(lat);
                        if good && lat <= LIMIT_MS {
                            log.good += 1;
                        }
                    }
                    log.client_cpu_ms = thread_cpu_ms() - thread_cpu0;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    phase.elapsed = start.elapsed().as_secs_f64();
    phase.cpu_ms = cpu_ms() - cpu0;
    phase.metrics = server.metrics_json();
    server.shutdown();
    // the warm-up counts towards ops and failures, not towards timings
    for l in logs {
        log.latency.extend(l.latency);
        log.late.extend(l.late);
        log.server_cpu.extend(l.server_cpu);
        log.client_cpu_ms += l.client_cpu_ms;
        log.good += l.good;
        log.sent += l.sent;
        log.ok += l.ok;
        log.rejected += l.rejected;
        log.failed += l.failed;
    }
    phase.log = log;
    phase
}

/// The number after `"key":` in a metrics payload (first occurrence).
fn json_num(s: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    s.find(&pat)
        .map(|p| {
            let rest = &s[p + pat.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap_or(0.0)
        })
        .unwrap_or(0.0)
}

/// Mean flushed batch size from the `"size_dist":{"1":n,...}` object.
fn batch_mean(s: &str) -> f64 {
    let Some(p) = s.find("\"size_dist\":{") else {
        return 0.0;
    };
    let rest = &s[p + "\"size_dist\":{".len()..];
    let body = &rest[..rest.find('}').unwrap_or(0)];
    let (mut n, mut sum) = (0.0, 0.0);
    for pair in body.split(',').filter(|p| !p.is_empty()) {
        if let Some((k, v)) = pair.split_once(':') {
            let size: f64 = k.trim_matches('"').parse().unwrap_or(0.0);
            let count: f64 = v.parse().unwrap_or(0.0);
            n += count;
            sum += size * count;
        }
    }
    if n > 0.0 {
        sum / n
    } else {
        0.0
    }
}

/// Flags an open-loop phase whose p90 send lateness exceeds half the
/// inter-arrival gap: there the generator, not the server, set the pace.
fn flag_generator(p: &Phase) {
    let late_p90 = quantile(&p.log.late, 0.9);
    if let Some(rate) = p.rate {
        if late_p90 > 500.0 / rate {
            println!(
                "  WARNING phase {}: generator-bound (sent p90 {late_p90:.3} ms late)",
                p.name
            );
        }
    }
}

struct Serve {
    setup_s: f64,
    /// The phases `low`, `busy`, `sat`, in order.
    phases: Vec<Phase>,
    floor_ms: [f64; 2],
    outcome: Outcome,
}

fn serve(seed: u64, budget: Duration) -> Serve {
    let conns = host_cpus().min(2);
    println!("resnet-serve: ResNet-8 w4 k=2 on loopback; max_batch 32, max_delay 2 ms; up to {conns} client connection(s), one thread each");
    let (setup_s, b) = timed_setup(SETUP_REPS, || {
        let b = build(seed);
        let server = start_server(&b.model);
        let mut c = Conn::new(server.addr());
        for i in 0..WARMUP_REQUESTS {
            c.request(&b.requests[i % SAMPLES]);
        }
        drop(c);
        server.shutdown();
        b
    });
    // expected bodies: a direct predict of the same sample on the same model
    let mut session = InferenceSession::new(b.model.as_ref());
    let mut digest = Digest::default();
    let expected: Vec<Vec<u8>> = b
        .samples
        .iter()
        .map(|x| {
            let y = session.predict(x);
            digest.f32s(y.data());
            y.data().iter().flat_map(|v| v.to_le_bytes()).collect()
        })
        .collect();
    // the compute floor: direct predict_batch of 1 and 2 samples
    let mut floor_ms = [0.0; 2];
    for (k, f) in floor_ms.iter_mut().enumerate() {
        let mut data = Vec::new();
        for s in &b.samples[..k + 1] {
            data.extend_from_slice(s.data());
        }
        let x = Tensor::from_vec(data, &[k + 1, 3, 32, 32]).expect("stacked samples");
        *f = crate::stats::median_cpu_ms(40, || {
            let y = session.predict_batch(&x);
            session.recycle(y);
        });
    }
    // `low` needs one connection at 25 req/s, which also makes each
    // request's server CPU its own; `busy` and `sat` use all of them.
    // `low` and `sat` feed the bounded metrics, so they get most of the time
    let s = budget.as_secs_f64();
    let plan = [
        ("low", Some(25.0), 0.4 * s, 1),
        ("busy", Some(150.0), 0.15 * s, conns),
        ("sat", None, 0.45 * s, conns),
    ];
    let mut o = Outcome::default();
    let mut phases = Vec::new();
    for (name, rate, secs, conns) in plan {
        let p = run_phase(
            &b,
            &expected,
            Phase {
                name,
                rate,
                secs,
                conns,
                log: ConnLog::default(),
                metrics: String::new(),
                elapsed: 0.0,
                cpu_ms: 0.0,
            },
        );
        o.attempted += p.log.sent;
        o.failed += p.log.failed;
        phases.push(p);
    }
    println!("  digest {}", digest.hex());
    Serve {
        setup_s,
        phases,
        floor_ms,
        outcome: o,
    }
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let s = serve(seed, budget);
    let mut o = s.outcome;
    for p in &s.phases {
        let l = &p.log;
        report_samples(&format!("serve_{}_ms", p.name), "ms", &l.latency);
        report_samples(&format!("serve_{}_gen_late_ms", p.name), "ms", &l.late);
        println!(
            "  {:<28} {} conn(s): sent {} rejected {} failed {} (warm-up included); {:.4} server CPU ms per request",
            p.name,
            p.conns,
            l.sent,
            l.rejected,
            l.failed,
            p.server_cpu_ms() / l.latency.len().max(1) as f64
        );
        flag_generator(p);
    }
    let low = &s.phases[0].log;
    report_samples("serve_low_server_cpu_ms", "ms", &low.server_cpu);
    let sat = &s.phases[2];
    let goodput = sat.log.good as f64 / sat.elapsed;
    let per_cpu_s = sat.log.latency.len() as f64 * 1e3 / sat.server_cpu_ms();
    report_value("serve_goodput_qps", "req/s", goodput);
    report_value("serve_sat_per_server_cpu_s", "req/cpu_s", per_cpu_s);
    println!("  ops {} failed {}", o.attempted, o.failed);
    o.metric("setup_s", "s", s.setup_s);
    o.metric("cpu_p50_ms", "ms", median(&low.server_cpu));
    o.metric("cpu_p90_ms", "ms", quantile(&low.server_cpu, 0.9));
    o.metric("per_cpu_s", "1/cpu_s", per_cpu_s);
    o
}

pub fn trace(seed: u64, budget: Duration) -> Outcome {
    println!("trace resnet-serve: per-phase server counters from /metrics");
    let s = serve(seed, budget);
    let mut o = s.outcome;
    for p in &s.phases {
        let (m, l) = (&p.metrics, &p.log);
        let flush_size = json_num(m, "flush_size");
        let flush_deadline = json_num(m, "flush_deadline");
        let server_p50 = json_num(m, "p50_ns") / 1e6;
        let client_p50 = median(&l.latency);
        let late_p90 = quantile(&l.late, 0.9);
        let rejected = json_num(m, "rejected_429") + json_num(m, "rejected_503");
        flag_generator(p);
        let name = p.name;
        o.metric(format!("serve.{name}.batch_mean"), "count", batch_mean(m));
        o.metric(
            format!("serve.{name}.flush_deadline_frac"),
            "ratio",
            flush_deadline / (flush_size + flush_deadline).max(1.0),
        );
        o.metric(
            format!("serve.{name}.queue_hwm"),
            "count",
            json_num(m, "depth_hwm"),
        );
        o.metric(format!("serve.{name}.server_p50_ms"), "ms", server_p50);
        o.metric(
            format!("serve.{name}.http_p50_ms"),
            "ms",
            client_p50 - server_p50,
        );
        o.metric(format!("serve.{name}.gen_late_p90_ms"), "ms", late_p90);
        o.metric(format!("serve.{name}.rejected"), "count", rejected);
        println!(
            "  {name}: client p50 {client_p50:.3} ms, server p50 {server_p50:.3} ms, batch mean {:.3}, deadline flushes {flush_deadline} of {}",
            batch_mean(m),
            flush_size + flush_deadline
        );
    }
    println!(
        "  compute floor: predict_batch b1 {:.4} ms, b2 {:.4} ms",
        s.floor_ms[0], s.floor_ms[1]
    );
    o.metric("serve.predict_b1_ms", "ms", s.floor_ms[0]);
    o.metric("serve.predict_b2_ms", "ms", s.floor_ms[1]);
    o
}
