//! Loopback integration tests: real TCP round-trips against a running
//! server — keep-alive reuse, every endpoint, malformed-request fuzz (the
//! parser must never panic a worker), backpressure under a full queue, and
//! checkpoint hot-swap through the admin route.

mod common;

use common::*;
use qn_models::InferenceSession;
use qn_serve::BatchConfig;
use qn_tensor::{Rng, Tensor};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn sample(seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from(seed);
    (0..IN_DIM).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

#[test]
fn predict_roundtrips_match_direct_inference_over_keepalive() {
    let model = tiny_model(1);
    let server = start(Arc::clone(&model), BatchConfig::default());
    let addr = server.addr();
    let vals = sample(11);
    let expect = InferenceSession::owned(model)
        .predict(&Tensor::from_vec(vals.clone(), &[IN_DIM]).expect("sample"));

    // three requests over ONE connection: keep-alive must hold
    let mut conn = connect(addr);
    let health = roundtrip(&mut conn, "GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    assert_eq!(health.header("connection"), Some("keep-alive"));
    // the body reports the resolved kernel dispatch state
    let hbody = String::from_utf8_lossy(&health.body).into_owned();
    assert!(hbody.contains("\"status\":\"ok\""), "{hbody}");
    let simd = format!("\"simd\":\"{}\"", qn_simd::SimdLevel::active().name());
    let prof = format!(
        "\"kernel_profile\":\"{}\"",
        qn_simd::KernelProfile::active().name()
    );
    assert!(hbody.contains(&simd), "{hbody}");
    assert!(hbody.contains(&prof), "{hbody}");

    let binary = roundtrip(
        &mut conn,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&vals),
    );
    assert_eq!(
        binary.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&binary.body)
    );
    let got = from_bytes(&binary.body);
    assert_eq!(got.len(), OUT_DIM);
    for (g, e) in got.iter().zip(expect.data()) {
        assert_eq!(g.to_bits(), e.to_bits(), "binary path must be bit-exact");
    }

    let text_body = vals
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let text = roundtrip(
        &mut conn,
        "POST",
        "/v1/models/m/predict",
        &[
            ("Content-Type", "text/plain"),
            ("Accept", "application/octet-stream"),
        ],
        text_body.as_bytes(),
    );
    assert_eq!(text.status, 200);
    // text parse of "{v}" display output round-trips f32 exactly
    assert_eq!(from_bytes(&text.body), got);

    server.shutdown();
}

#[test]
fn routing_errors_are_4xx_not_panics() {
    let server = start(tiny_model(2), BatchConfig::default());
    let addr = server.addr();

    assert_eq!(request(addr, "GET", "/nope", &[], b"").status, 404);
    assert_eq!(
        request(
            addr,
            "POST",
            "/v1/models/ghost/predict",
            &[],
            &to_bytes(&sample(1))
        )
        .status,
        404
    );
    assert_eq!(
        request(addr, "GET", "/v1/models/m/predict", &[], b"").status,
        405
    );
    // wrong element count
    let short = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&[1.0, 2.0]),
    );
    assert_eq!(short.status, 400);
    // unparseable text
    let garbage = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[],
        b"not,numbers,at,all",
    );
    assert_eq!(garbage.status, 400);
    // admin load without a factory on the route
    let admin = request(addr, "POST", "/admin/models/m/load", &[], b"/tmp/x.qnckpt");
    assert_eq!(admin.status, 409);

    // the server still serves after all of the above
    let ok = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&sample(2)),
    );
    assert_eq!(ok.status, 200);
    server.shutdown();
}

#[test]
fn malformed_request_fuzz_never_kills_the_server() {
    let server = start(tiny_model(3), BatchConfig::default());
    let addr = server.addr();

    let fixed: &[&[u8]] = &[
        b"",
        b"\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /healthz\r\n\r\n",
        b"GET /healthz HTTP/2.0\r\n\r\n",
        b"get /healthz HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1 extra\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno-colon-header\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n: empty-name\r\n\r\n",
        b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n",
        b"POST /v1/models/m/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        b"POST /v1/models/m/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfffffffff\r\n",
        b"POST /v1/models/m/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcdXX",
        b"\xff\xfe\x00\x01 binary trash \x80\x81\r\n\r\n",
    ];
    for (i, case) in fixed.iter().enumerate() {
        let mut s = connect(addr);
        let _ = s.write_all(case);
        // response or clean close are both acceptable; a hang or panic is not
        let resp = read_response(&mut s);
        if let Some(r) = resp {
            assert!(r.status >= 400, "case {i}: got {}", r.status);
        }
    }

    // oversized head (> 16 KiB of headers) must be shed with 431
    let mut big = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        big.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    big.extend_from_slice(b"\r\n");
    let mut s = connect(addr);
    let _ = s.write_all(&big);
    if let Some(r) = read_response(&mut s) {
        assert!(r.status == 431 || r.status == 400, "got {}", r.status);
    }

    // deterministic pseudo-random garbage
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..50 {
        let len = (state % 300) as usize + 1;
        let mut case = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            case.push((state >> 32) as u8);
        }
        let mut s = connect(addr);
        let _ = s.write_all(&case);
        let _ = s.write_all(b"\r\n\r\n");
        let _ = read_response(&mut s);
    }

    // after the entire barrage: still healthy, still predicting
    assert_eq!(request(addr, "GET", "/healthz", &[], b"").status, 200);
    let ok = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&sample(3)),
    );
    assert_eq!(ok.status, 200);
    server.shutdown();
}

#[test]
fn full_queue_sheds_429_with_retry_after_then_recovers() {
    // tiny queue + long deadline: admitted samples sit in the queue, so a
    // third concurrent request deterministically finds it full
    let server = start(
        tiny_model(4),
        BatchConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(400),
            queue_capacity: 2,
            workers: 1,
        },
    );
    let addr = server.addr();
    let body = to_bytes(&sample(4));

    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                request(
                    addr,
                    "POST",
                    "/v1/models/m/predict",
                    &[("Content-Type", "application/octet-stream")],
                    &body,
                )
                .status
            })
        })
        .collect();
    // let both admissions land in the queue (deadline is 400ms away)
    std::thread::sleep(Duration::from_millis(150));

    let shed = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &body,
    );
    assert_eq!(shed.status, 429, "third request must be shed");
    assert_eq!(shed.header("retry-after"), Some("1"));

    for w in waiters {
        assert_eq!(
            w.join().expect("waiter"),
            200,
            "queued requests still served"
        );
    }
    // queue drained: admissions work again
    let again = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &body,
    );
    assert_eq!(again.status, 200);

    let metrics = request(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).expect("metrics is utf-8");
    assert!(text.contains("\"rejected_429\":1"), "{text}");
    server.shutdown();
}

#[test]
fn models_and_metrics_endpoints_expose_registry_and_histograms() {
    let server = start(tiny_model(5), BatchConfig::default());
    let addr = server.addr();
    let ok = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&sample(5)),
    );
    assert_eq!(ok.status, 200);

    let models = request(addr, "GET", "/v1/models", &[], b"");
    assert_eq!(models.status, 200);
    let list = String::from_utf8(models.body).expect("utf-8");
    assert!(list.contains("\"name\":\"m\""), "{list}");
    assert!(list.contains("\"generation\":1"), "{list}");
    assert!(list.contains("\"routed\":true"), "{list}");

    let metrics = request(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).expect("utf-8");
    for key in [
        "\"requests_total\"",
        "\"p99_ns\"",
        "\"size_dist\"",
        "\"depth_hwm\"",
        "\"pool\"",
        "\"hits\"",
        "\"flush_deadline\"",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    server.shutdown();
}

#[test]
fn admin_load_hot_swaps_checkpoint_without_restart() {
    let dir = std::env::temp_dir().join(format!("qn_serve_admin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("swap.qnckpt");

    // serve seed-6 weights; checkpoint holds seed-7 weights
    let replacement = tiny_model(7);
    qn_nn::save_module(replacement.as_ref(), &[("test", "hot-swap")], &ckpt)
        .expect("save checkpoint");

    let server = qn_serve::ServerBuilder::new(qn_serve::ServeConfig::default())
        .route_with_factory(
            "m",
            &[IN_DIM],
            tiny_model(6),
            BatchConfig::default(),
            Box::new(|| tiny_model(0)), // skeleton; weights come from the checkpoint
        )
        .start()
        .expect("bind");
    let addr = server.addr();

    let vals = sample(6);
    let before = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&vals),
    );
    assert_eq!(before.status, 200);

    let load = request(
        addr,
        "POST",
        "/admin/models/m/load",
        &[],
        ckpt.to_str().expect("utf-8 path").as_bytes(),
    );
    assert_eq!(
        load.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&load.body)
    );
    let body = String::from_utf8(load.body).expect("utf-8");
    assert!(body.contains("\"generation\":2"), "{body}");

    // a bogus path must fail cleanly and NOT disturb the published model
    let bad = request(
        addr,
        "POST",
        "/admin/models/m/load",
        &[],
        b"/definitely/not/here",
    );
    assert_eq!(bad.status, 400);

    let after = request(
        addr,
        "POST",
        "/v1/models/m/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&vals),
    );
    assert_eq!(after.status, 200);
    let expect = InferenceSession::owned(replacement)
        .predict(&Tensor::from_vec(vals, &[IN_DIM]).expect("sample"));
    let got = from_bytes(&after.body);
    for (g, e) in got.iter().zip(expect.data()) {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "swapped weights must serve bit-exactly"
        );
    }
    assert_ne!(from_bytes(&before.body), got, "weights actually changed");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantized_route_serves_int8_twin_with_bounded_drift() {
    // two routes over the SAME weights: one f32, one int8
    let server = qn_serve::ServerBuilder::new(qn_serve::ServeConfig::default())
        .route("f32", &[IN_DIM], tiny_model(8), BatchConfig::default())
        .route_quantized("int8", &[IN_DIM], tiny_model(8), BatchConfig::default())
        .start()
        .expect("bind");
    let addr = server.addr();

    let vals = sample(8);
    let exact = request(
        addr,
        "POST",
        "/v1/models/f32/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&vals),
    );
    assert_eq!(exact.status, 200);
    let quant = request(
        addr,
        "POST",
        "/v1/models/int8/predict",
        &[("Content-Type", "application/octet-stream")],
        &to_bytes(&vals),
    );
    assert_eq!(quant.status, 200);

    let exact = from_bytes(&exact.body);
    let quant = from_bytes(&quant.body);
    assert_eq!(exact.len(), quant.len());
    let drift = exact
        .iter()
        .zip(&quant)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        drift < 0.1,
        "int8 route drift {drift}: {exact:?} vs {quant:?}"
    );
    assert!(
        exact
            .iter()
            .zip(&quant)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "int8 route must actually quantize, not serve f32"
    );

    // both surfaces report the served dtype
    let metrics = request(addr, "GET", "/metrics", &[], b"");
    let text = String::from_utf8(metrics.body).expect("utf-8");
    assert!(
        text.contains("\"precision\":\"int8\",\"weight_dtype\":\"int8\""),
        "{text}"
    );
    assert!(
        text.contains("\"precision\":\"f32\",\"weight_dtype\":\"f32\""),
        "{text}"
    );
    let models = request(addr, "GET", "/v1/models", &[], b"");
    let list = String::from_utf8(models.body).expect("utf-8");
    // the registry holds the f32 master for both slots; workers quantize
    assert!(list.contains("\"weight_dtype\":\"f32\""), "{list}");

    server.shutdown();
}

#[test]
fn quantized_route_requantizes_on_hot_swap() {
    let server = qn_serve::ServerBuilder::new(qn_serve::ServeConfig::default())
        .route_quantized("m", &[IN_DIM], tiny_model(9), BatchConfig::default())
        .start()
        .expect("bind");
    let addr = server.addr();
    let vals = sample(9);
    let body = to_bytes(&vals);
    let hdr = [("Content-Type", "application/octet-stream")];

    let before = request(addr, "POST", "/v1/models/m/predict", &hdr, &body);
    assert_eq!(before.status, 200);

    // publish new weights; the worker must rebuild its int8 twin
    server.registry().publish("m", tiny_model(10));
    let after = request(addr, "POST", "/v1/models/m/predict", &hdr, &body);
    assert_eq!(after.status, 200);
    assert_ne!(
        from_bytes(&before.body),
        from_bytes(&after.body),
        "hot-swapped weights must serve"
    );

    // the new session still tracks the new f32 weights closely
    let expect = InferenceSession::owned(tiny_model(10))
        .predict(&Tensor::from_vec(vals, &[IN_DIM]).expect("sample"));
    let got = from_bytes(&after.body);
    let drift = got
        .iter()
        .zip(expect.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(drift < 0.1, "post-swap drift {drift}");

    server.shutdown();
}

#[test]
fn republish_after_retire_serves_the_new_model() {
    let server = start(tiny_model(11), BatchConfig::default());
    let addr = server.addr();
    let vals = sample(11);
    let body = to_bytes(&vals);
    let hdr = [("Content-Type", "application/octet-stream")];

    let before = request(addr, "POST", "/v1/models/m/predict", &hdr, &body);
    assert_eq!(before.status, 200);

    // retire and republish between two batches: the worker must not
    // mistake the new model for the retired one
    server.registry().retire("m");
    let generation = server.registry().publish("m", tiny_model(12));
    assert!(
        generation > 1,
        "a republished name reused generation {generation}"
    );
    let after = request(addr, "POST", "/v1/models/m/predict", &hdr, &body);
    assert_eq!(after.status, 200);
    let expect = InferenceSession::owned(tiny_model(12))
        .predict(&Tensor::from_vec(vals, &[IN_DIM]).expect("sample"));
    let got = from_bytes(&after.body);
    assert_eq!(got.len(), OUT_DIM);
    for (g, e) in got.iter().zip(expect.data()) {
        assert_eq!(g.to_bits(), e.to_bits(), "the republished model must serve");
    }

    server.shutdown();
}
