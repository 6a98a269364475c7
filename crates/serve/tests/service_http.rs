//! HTTP behaviour of the service: status codes, backpressure, deadlines,
//! keep-alive, metrics and graceful shutdown — all over real TCP.

use gather_serve::{Client, ScenarioSpec, ServeConfig, Server};
use std::time::Duration;

/// Round cap of a job that holds the dispatcher: on a 2-vCPU Xeon it
/// runs 0.55–0.85 s in a release build and 3.3–4.1 s in a debug build,
/// several times the 100–200 ms a test needs it to hold.
const HOLD_ROUNDS: u64 = 3_000;

/// A deterministic slow job: a 64-robot scatter under the δ-motion
/// adversary with a tiny δ needs ~13k rounds to gather, so any smaller
/// round cap burns its whole budget. Each slow job of a test takes its
/// own `seed`: a repeated spec would be answered from the result cache
/// at admission, without ever reaching the queue.
fn slow_spec(rounds: u64, seed: u64) -> String {
    ScenarioSpec {
        workload: "scatter".to_string(),
        class: None,
        n: 64,
        delta: 0.001,
        motion: "delta",
        max_rounds: rounds,
        seed,
        ..ScenarioSpec::default()
    }
    .to_json()
}

/// Posts `spec` from its own client thread; the thread returns the status.
fn post_in_background(addr: &str, spec: String) -> std::thread::JoinHandle<u16> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        Client::connect(&addr)
            .unwrap()
            .post_run(&spec)
            .unwrap()
            .status
    })
}

fn quick_spec() -> String {
    ScenarioSpec {
        max_rounds: 500,
        ..ScenarioSpec::default()
    }
    .to_json()
}

#[test]
fn health_metrics_and_errors() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/v1/nope").unwrap().status, 404);
    assert_eq!(client.request("PUT", "/v1/run", b"{}").unwrap().status, 405);
    let bad_json = client.request("POST", "/v1/run", b"not json").unwrap();
    assert_eq!(bad_json.status, 400);
    let text = bad_json.text();
    assert!(
        text.contains("\"code\":\"bad_spec\"")
            && text.contains("\"message\":")
            && text.contains("\"retryable\":false"),
        "errors must be structured JSON: {text}"
    );
    assert_eq!(
        client.post_run("{\"n\":3}").unwrap().status,
        400,
        "out-of-range spec"
    );
    assert_eq!(
        client.post_run("{\"class\":\"B\",\"n\":9}").unwrap().status,
        400,
        "class B needs even n — a client error, not a worker panic"
    );

    // Two scenarios in one request: single-scenario jobs run inline on
    // their dispatcher lane, so only a multi-scenario job exercises the
    // worker pool (whose histograms are asserted below).
    let two = format!(
        "{{\"scenarios\":[{},{}]}}",
        quick_spec(),
        ScenarioSpec {
            seed: 7,
            max_rounds: 500,
            ..ScenarioSpec::default()
        }
        .to_json()
    );
    let ok = client.post_run(&two).unwrap();
    assert_eq!(ok.status, 200);

    let metrics = client.get("/v1/metrics").unwrap().text();
    assert!(
        metrics.contains("gather_requests_completed_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("gather_requests_rejected_malformed_total 3\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("gather_request_latency_ms{quantile=\"0.5\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("gather_request_phase_parse_ns_count")
            && metrics.contains("gather_request_phase_queue_wait_ns_count")
            && metrics.contains("gather_request_phase_execute_ns_count")
            && metrics.contains("gather_pool_job_run_time_ns_count"),
        "request-phase and pool histograms must be exposed: {metrics}"
    );
    server.shutdown();
}

/// Reads one `name value` counter line out of a Prometheus scrape.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metrics missing {name}:\n{metrics}"))
}

#[test]
fn only_v1_paths_route_and_traces_are_post_only() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let spec = quick_spec();
    let mut responses = Vec::new();

    // The un-prefixed paths are unknown paths, whatever the method.
    for path in ["/run", "/metrics", "/healthz"] {
        for method in ["GET", "POST"] {
            let response = client.request(method, path, spec.as_bytes()).unwrap();
            assert_eq!(response.status, 404, "{method} {path}");
            assert!(
                response.text().contains("\"code\":\"not_found\""),
                "{method} {path}: {}",
                response.text()
            );
            responses.push(response);
        }
    }
    // A `/v1` path under the wrong method is a 405 naming the method and
    // path it takes; `/v1/trace` takes its spec as a POST body only.
    for (method, target, allowed) in [
        ("GET", "/v1/run", "POST /v1/run"),
        ("GET", "/v1/batch", "POST /v1/batch"),
        ("GET", "/v1/trace", "POST /v1/trace"),
        ("GET", "/v1/trace?n=8", "POST /v1/trace"),
        ("POST", "/v1/metrics", "GET /v1/metrics"),
        ("POST", "/v1/healthz", "GET /v1/healthz"),
    ] {
        let response = client.request(method, target, spec.as_bytes()).unwrap();
        assert_eq!(response.status, 405, "{method} {target}");
        let message = format!("\"message\":\"method not allowed (use {allowed})\"");
        assert!(
            response.text().contains(&message),
            "{method} {target}: {}",
            response.text()
        );
        responses.push(response);
    }
    let run = client.post_run(&spec).unwrap();
    assert_eq!(run.status, 200);
    responses.push(run);
    // Every header is one the server documents; nothing marks a response
    // as answering on a retired route.
    for response in &responses {
        for (name, _) in &response.headers {
            assert!(
                ["content-type", "content-length", "x-gather-cache"].contains(&name.as_str()),
                "unexpected header {name:?} on a {} response",
                response.status
            );
        }
    }

    // Unrouted requests never reach admission: every admitted request
    // finished, and none of the above counted as a malformed spec.
    let metrics = client.get("/v1/metrics").unwrap().text();
    assert_eq!(
        counter(&metrics, "gather_requests_accepted_total"),
        counter(&metrics, "gather_requests_completed_total")
            + counter(&metrics, "gather_requests_expired_total")
            + counter(&metrics, "gather_requests_failed_total"),
        "{metrics}"
    );
    assert_eq!(counter(&metrics, "gather_requests_accepted_total"), 1);
    assert_eq!(
        counter(&metrics, "gather_requests_rejected_malformed_total"),
        0
    );
    server.shutdown();
}

#[test]
fn oversized_bodies_get_413() {
    let server = Server::start(ServeConfig {
        max_body_bytes: 256,
        ..ServeConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let big = format!("{{\"pad\":\"{}\"}}", "x".repeat(1024));
    let response = client.request("POST", "/v1/run", big.as_bytes()).unwrap();
    assert_eq!(response.status, 413);
    server.shutdown();
}

#[test]
fn oversized_request_heads_get_431() {
    use std::io::{Read, Write};
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    // Each header line stays under the per-line cap; the total crosses
    // the 16 KiB head budget.
    let pad = "x".repeat(7000);
    write!(stream, "GET /v1/healthz HTTP/1.1\r\n").unwrap();
    for i in 0..3 {
        write!(stream, "h{i}: {pad}\r\n").unwrap();
    }
    write!(stream, "\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 431 "),
        "oversized heads must get 431, got: {}",
        raw.lines().next().unwrap_or("")
    );
    assert!(raw.contains("\"code\":\"headers_too_large\""), "{raw}");
    server.shutdown();
}

#[test]
fn stalled_request_reads_get_408() {
    use std::io::{Read, Write};
    let server = Server::start(ServeConfig {
        read_timeout_ms: 300,
        ..ServeConfig::default()
    })
    .expect("start");
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    // Head promises a body that never arrives: the per-request read
    // deadline must answer 408 and close, not hold the slot forever.
    write!(
        stream,
        "POST /v1/run HTTP/1.1\r\ncontent-length: 100\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 408 "),
        "stalled reads must get 408, got: {}",
        raw.lines().next().unwrap_or("")
    );
    assert!(raw.contains("\"code\":\"read_timeout\""), "{raw}");
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_bounded() {
    let server = Server::start(ServeConfig {
        idle_timeout_ms: 300,
        ..ServeConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(800));
    assert!(
        client.get("/v1/healthz").is_err(),
        "the server must have closed the idle connection"
    );
    server.shutdown();
}

#[test]
fn threaded_engine_serves_identical_bytes() {
    let threaded = Server::start(ServeConfig {
        event_loop: false,
        ..ServeConfig::default()
    })
    .expect("start threaded");
    assert_eq!(threaded.engine(), "threaded");
    let default_engine = Server::start(ServeConfig::default()).expect("start default");

    let mut a = Client::connect(&threaded.addr()).expect("connect");
    let mut b = Client::connect(&default_engine.addr()).expect("connect");
    let ra = a.post_run(&quick_spec()).unwrap();
    let rb = b.post_run(&quick_spec()).unwrap();
    assert_eq!(ra.status, 200);
    assert_eq!(rb.status, 200);
    assert_eq!(
        ra.body, rb.body,
        "both engines must serve bit-identical payloads"
    );
    threaded.shutdown();
    default_engine.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let mut bodies = Vec::new();
    for _ in 0..3 {
        let response = client.post_run(&quick_spec()).unwrap();
        assert_eq!(response.status, 200);
        bodies.push(response.body);
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[1], bodies[2]);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429_and_retry_after() {
    // One worker, capacity-1 queue: one slow job executing, one queued —
    // the third must bounce with 429 immediately.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // Stagger the slow jobs so the first is executing and the second is
    // the queue's sole slot before the probe fires.
    let hold = post_in_background(&addr, slow_spec(HOLD_ROUNDS, 1));
    std::thread::sleep(Duration::from_millis(100));
    let queued = post_in_background(&addr, slow_spec(300, 2));
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !hold.is_finished(),
        "precondition: the first slow job must still hold the dispatcher"
    );

    let mut probe = Client::connect(&addr).expect("connect");
    let rejected = probe.post_run(&quick_spec()).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.text());
    assert_eq!(
        rejected.header("retry-after"),
        Some("1"),
        "backpressure must carry a retry hint"
    );
    assert!(
        rejected.text().contains("\"code\":\"queue_full\"")
            && rejected.text().contains("\"retryable\":true"),
        "a 429 is retryable by definition: {}",
        rejected.text()
    );

    for handle in [hold, queued] {
        assert_eq!(handle.join().unwrap(), 200, "admitted slow jobs complete");
    }
    let metrics = probe.get("/v1/metrics").unwrap().text();
    assert!(
        metrics.contains("gather_requests_rejected_full_total"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn expired_deadline_gets_504_without_running() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // Hold the dispatcher with a slow job...
    let busy = post_in_background(&addr, slow_spec(HOLD_ROUNDS, 3));
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !busy.is_finished(),
        "precondition: the slow job must still hold the dispatcher"
    );

    // ...then queue a request whose deadline expires while it waits.
    let impatient = format!("{{\"scenarios\":[{}],\"deadline_ms\":1}}", quick_spec());
    let response = Client::connect(&addr)
        .unwrap()
        .post_run(&impatient)
        .unwrap();
    assert_eq!(response.status, 504, "{}", response.text());

    assert_eq!(busy.join().unwrap(), 200);
    let metrics = Client::connect(&addr)
        .unwrap()
        .get("/v1/metrics")
        .unwrap()
        .text();
    assert!(
        metrics.contains("gather_requests_expired_total 1\n"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_admitted_work_and_stops_answering() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // Admit a job slow enough that shutdown provably overlaps it.
    let slow = slow_spec(HOLD_ROUNDS, 4);
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || Client::connect(&addr).unwrap().post_run(&slow).unwrap())
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !in_flight.is_finished(),
        "precondition: the slow job must still run when shutdown starts"
    );

    server.shutdown();

    // The admitted request was drained, not dropped.
    let response = in_flight.join().unwrap();
    assert_eq!(response.status, 200, "admitted work survives shutdown");
    assert!(!response.body.is_empty());

    // And the listener is gone.
    assert!(
        Client::connect(&addr)
            .and_then(|mut c| c.get("/v1/healthz"))
            .is_err(),
        "port must stop answering after shutdown"
    );
}

#[test]
fn shutdown_with_idle_keep_alive_connections_does_not_hang() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let addr = server.addr();
    // Three idle keep-alive connections (one did a request first).
    let mut first = Client::connect(&addr).unwrap();
    assert_eq!(first.get("/v1/healthz").unwrap().status, 200);
    let _second = Client::connect(&addr).unwrap();
    let _third = Client::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait on idle connections ({}ms)",
        started.elapsed().as_millis()
    );
}
