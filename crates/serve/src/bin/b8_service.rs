//! B8 — scenario-service load generation.
//!
//! Starts an in-process [`Server`] and drives it over real TCP:
//!
//! 1. **Bit-identity gate** (always on, also the point of the exercise):
//!    for every configuration class B/M/L1W/L2W/QR/A, the bytes served by
//!    `POST /v1/run` must equal the bytes of the same spec run in-process
//!    and serialised with `RunMetrics::to_jsonl` — the service adds
//!    transport, not behaviour.
//! 2. **Cold capacity probe**: sequential unique-seed requests (every one
//!    a cache miss) measure the compute-bound service rate μ, warm-up
//!    excluded.
//! 3. **Open-loop sweep**: offered rates 0.5×/1×/2×/4× μ with unique
//!    seeds, one client thread per request fired at its scheduled arrival
//!    time regardless of completions (open loop — arrivals never slow
//!    down because the server is struggling). A warm-up phase runs before
//!    the sweep and is excluded from every statistic. Records throughput,
//!    p50/p99 latency and the 429 rejection rate per offered rate: the
//!    backpressure curve.
//! 4. **Cache-hit sweep**: closed-loop clients hammering one warmed spec
//!    over keep-alive connections — the readiness event loop plus the
//!    deterministic result cache serving at transport speed.
//! 5. **`/v1/batch` amortisation curve**: scenarios/second for batch
//!    sizes 1..256, cold (`BatchEngine` lanes) and hot (cached).
//!
//! The server runs with a deliberately small admission queue so the sweep
//! exercises the 429 path at super-capacity rates instead of buffering
//! its way through.
//!
//! Writes `BENCH_b8_service.json` (committed record) in full mode; with
//! `--quick` or `--baseline` the fresh JSON goes to `--out` and the
//! committed record is left untouched. `--smoke` runs the check.sh
//! service gate (run + trace + batch + 400 + metrics + shutdown);
//! `--cache-smoke` runs the cache/event-loop gate (hit byte-identity,
//! headers, hit-rate floor) and auto-skips with a reason where the epoll
//! engine is unavailable.

use gather_bench::report;
use gather_bench::runner::percentile;
use gather_bench::Args;
use gather_config::Class;
use gather_serve::{Client, ScenarioSpec, ServeConfig, Server};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sweep's unit of work: a 16-robot scatter under the δ-motion
/// adversary with a tiny δ cannot gather within 50 rounds, so every
/// request burns exactly its round budget — a deterministic service time
/// that does not depend on how the sweep interleaves. `seed` varies per
/// request wherever the *compute* path is the thing being measured, so
/// the result cache cannot short-circuit it.
fn load_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        workload: "scatter".to_string(),
        class: None,
        n: 16,
        seed,
        delta: 0.001,
        motion: "delta",
        max_rounds: 50,
        ..ScenarioSpec::default()
    }
}

fn bench_server(queue_capacity: usize) -> Server {
    Server::start(ServeConfig {
        queue_capacity,
        ..ServeConfig::default()
    })
    .expect("start in-process server")
}

/// Gate 1: served bytes == in-process bytes, for all six classes.
fn bit_identity(addr: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut client = Client::connect(addr).expect("connect");
    for class in Class::all() {
        let spec = ScenarioSpec {
            class: Some(class),
            seed: 7,
            faults: 1,
            max_rounds: 3_000,
            ..ScenarioSpec::default()
        };
        let local = format!(
            "{}\n",
            spec.to_scenario().expect("spec maps").run().to_jsonl()
        );
        let served = client.post_run(&spec.to_json()).expect("POST /v1/run");
        if served.status != 200 {
            failures.push(format!(
                "class {}: status {} ({})",
                class.short_name(),
                served.status,
                served.text().trim()
            ));
            continue;
        }
        if served.body != local.as_bytes() {
            failures.push(format!(
                "class {}: served bytes differ from in-process run\n  served: {}\n  local:  {}",
                class.short_name(),
                served.text().trim(),
                local.trim()
            ));
        } else {
            println!(
                "  class {:<3} bit-identical ({} bytes)",
                class.short_name(),
                served.body.len()
            );
        }
    }
    failures
}

/// Gate 2: sequential unique-seed requests → compute service rate μ in
/// requests/second. Warm-up requests are excluded from the measurement.
fn measure_capacity(addr: &str, probes: usize) -> f64 {
    let mut client = Client::connect(addr).expect("connect");
    // Warm-up: the first requests pay thread-local engine construction
    // on each dispatcher lane and pool worker.
    for seed in 0..4 {
        assert_eq!(
            client
                .post_run(&load_spec(90_000 + seed).to_json())
                .expect("warm-up")
                .status,
            200
        );
    }
    let started = Instant::now();
    for seed in 0..probes as u64 {
        let body = load_spec(91_000 + seed).to_json();
        assert_eq!(client.post_run(&body).expect("probe").status, 200);
    }
    probes as f64 / started.elapsed().as_secs_f64()
}

struct SweepRow {
    offered_rps: f64,
    achieved_rps: f64,
    requests: usize,
    completed: usize,
    rejected: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// One open-loop run: `requests` arrivals at `offered_rps`, one thread
/// per arrival so a slow server cannot slow the arrival process down.
/// Seeds are unique per arrival (offset by `seed_base`), so every
/// accepted request is a genuine compute job.
fn open_loop(addr: &str, offered_rps: f64, requests: usize, seed_base: u64) -> SweepRow {
    let start = Instant::now() + Duration::from_millis(50);
    let completed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let errored = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            let addr = addr.to_string();
            let body = load_spec(seed_base + i as u64).to_json();
            let completed = Arc::clone(&completed);
            let rejected = Arc::clone(&rejected);
            let errored = Arc::clone(&errored);
            std::thread::spawn(move || -> Option<f64> {
                let due = start + Duration::from_secs_f64(i as f64 / offered_rps);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let response = Client::connect(&addr).and_then(|mut c| c.post_run(&body));
                match response {
                    Ok(r) if r.status == 200 => {
                        completed.fetch_add(1, Ordering::Relaxed);
                        Some(sent.elapsed().as_secs_f64() * 1000.0)
                    }
                    Ok(r) if r.status == 429 => {
                        assert_eq!(
                            r.header("retry-after"),
                            Some("1"),
                            "429 must carry Retry-After"
                        );
                        rejected.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                    Ok(r) => {
                        eprintln!("unexpected status {} ({})", r.status, r.text().trim());
                        errored.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                    Err(e) => {
                        eprintln!("transport error: {e}");
                        errored.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .filter_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = (Instant::now() - start).as_secs_f64();
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    assert_eq!(
        errored.load(Ordering::Relaxed),
        0,
        "open-loop clients saw non-200/429 responses"
    );
    let completed = completed.load(Ordering::Relaxed) as usize;
    SweepRow {
        offered_rps,
        achieved_rps: completed as f64 / elapsed,
        requests,
        completed,
        rejected: rejected.load(Ordering::Relaxed) as usize,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

struct HitRow {
    clients: usize,
    requests: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Closed-loop cache-hit serving: `clients` keep-alive connections each
/// issuing `per_client` requests for one already-warmed spec. Every
/// response is asserted bit-identical to the expected payload — the rate
/// is only meaningful if the bytes are right.
fn cache_hit_sweep(addr: &str, clients: usize, per_client: usize, expected: &[u8]) -> HitRow {
    let body = Arc::new(load_spec(70_000).to_json());
    let expected = Arc::new(expected.to_vec());
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let body = Arc::clone(&body);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || -> Vec<f64> {
                let mut client = Client::connect(&addr).expect("connect");
                let mut latencies = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let sent = Instant::now();
                    let response = client.post_run(&body).expect("cache-hit request");
                    assert_eq!(response.status, 200, "{}", response.text());
                    assert_eq!(
                        response.body, *expected,
                        "cache-hit payload must stay bit-identical under load"
                    );
                    latencies.push(sent.elapsed().as_secs_f64() * 1000.0);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = clients * per_client;
    HitRow {
        clients,
        requests,
        rps: requests as f64 / elapsed,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

struct BatchRow {
    size: usize,
    cold_scen_per_sec: f64,
    hot_rps: f64,
}

/// `/v1/batch` amortisation: one mega-batch of `size` unique scenarios,
/// timed cold (batch lanes) and hot (all-hit, answered at admission).
fn batch_curve(addr: &str, size: usize, seed_base: u64) -> BatchRow {
    let mut client = Client::connect(addr).expect("connect");
    let body = format!(
        "{{\"scenarios\":[{}]}}",
        (0..size as u64)
            .map(|i| load_spec(seed_base + i).to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = Instant::now();
    let cold = client.post_batch(&body).expect("cold batch");
    let cold_secs = started.elapsed().as_secs_f64();
    assert_eq!(cold.status, 200, "{}", cold.text());

    // Hot: the whole batch is in the cache now; measure repeated
    // all-hit requests (at least 20) for a stable rate.
    let reps = 20.max(2_000 / size);
    let started = Instant::now();
    for _ in 0..reps {
        let hot = client.post_batch(&body).expect("hot batch");
        assert_eq!(hot.status, 200);
        assert_eq!(hot.body, cold.body, "hot batch must be bit-identical");
    }
    let hot_secs = started.elapsed().as_secs_f64();
    BatchRow {
        size,
        cold_scen_per_sec: size as f64 / cold_secs,
        hot_rps: reps as f64 / hot_secs,
    }
}

fn smoke() {
    let server = Server::start(ServeConfig {
        queue_capacity: 4,
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let mut client = Client::connect(&addr).expect("connect");

    let health = client.get("/v1/healthz").expect("GET /v1/healthz");
    assert_eq!(health.status, 200, "healthz: {}", health.text());

    // One real scenario request, checked against the in-process run.
    let spec = ScenarioSpec {
        seed: 3,
        max_rounds: 2_000,
        ..ScenarioSpec::default()
    };
    let expected = format!("{}\n", spec.to_scenario().expect("spec").run().to_jsonl());
    let run = client.post_run(&spec.to_json()).expect("POST /v1/run");
    assert_eq!(run.status, 200, "run: {}", run.text());
    assert_eq!(
        run.body,
        expected.as_bytes(),
        "served bytes must match the in-process run"
    );

    // The streamed document must be the spec's trace/v2 header plus the
    // in-process trace, byte for byte.
    let traced = format!(
        "{}{}",
        spec.trace_header(),
        spec.to_scenario().expect("spec").run_traced().1
    );
    let trace = client.post_trace(&spec.to_json()).expect("POST /v1/trace");
    assert_eq!(trace.status, 200, "trace: {}", trace.text());
    assert_eq!(
        trace.body,
        traced.as_bytes(),
        "streamed trace must match the in-process trace"
    );

    // A two-scenario mega-batch exercises the worker pool and the
    // batch lanes (single-scenario jobs run inline on a dispatcher).
    let spec_b = ScenarioSpec {
        seed: 4,
        max_rounds: 2_000,
        ..ScenarioSpec::default()
    };
    let batch_body = format!(
        "{{\"scenarios\":[{},{}]}}",
        spec.to_json(),
        spec_b.to_json()
    );
    let expected_batch = format!(
        "{}{}\n",
        expected,
        spec_b.to_scenario().expect("spec").run().to_jsonl()
    );
    let batch = client.post_batch(&batch_body).expect("POST /v1/batch");
    assert_eq!(batch.status, 200, "batch: {}", batch.text());
    assert_eq!(
        batch.body,
        expected_batch.as_bytes(),
        "batched bytes must match the in-process runs in order"
    );

    // One malformed request must be a 400, not a hang or a 500.
    let bad = client.post_run("{\"classs\":\"QR\"}").expect("POST bad");
    assert_eq!(bad.status, 400, "malformed spec: {}", bad.text());
    assert!(bad.text().contains("unknown spec field"), "{}", bad.text());
    assert!(
        bad.text().contains("\"code\":\"bad_spec\""),
        "errors are structured JSON: {}",
        bad.text()
    );

    // The scrape must reflect the requests on the same keep-alive
    // connection: run + trace + batch admitted and completed (the
    // batch's seed-3 scenario is served from cache inside the batch,
    // which still admits because seed 4 is a miss), 3 scenarios
    // executed in total (run + trace + the batch's one miss).
    let metrics = client.get("/v1/metrics").expect("GET /v1/metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for needle in [
        "gather_requests_accepted_total 3\n",
        "gather_requests_completed_total 3\n",
        "gather_requests_rejected_malformed_total 1\n",
        "gather_scenarios_run_total 3\n",
        "gather_queue_capacity 4\n",
        "gather_request_phase_execute_ns_count 3\n",
        "gather_pool_job_run_time_ns_count",
        "gather_cache_misses_total",
    ] {
        assert!(text.contains(needle), "metrics missing {needle:?}:\n{text}");
    }

    // Graceful shutdown: drains, joins, and the port stops answering.
    let engine = server.engine();
    server.shutdown();
    assert!(
        Client::connect(&addr)
            .and_then(|mut c| c.get("/v1/healthz"))
            .is_err(),
        "server still answering after shutdown"
    );
    println!("b8 smoke: OK (run + trace + batch + 400 + metrics + shutdown; engine={engine})");
}

/// The `serve-cache-smoke` check.sh gate: cache-hit bit-identity, cache
/// headers, and a minimum hit-rate on a repeated-probe run — asserted on
/// the epoll engine, auto-skipped (with the reason) where that engine is
/// unavailable so the gate stays green on non-Linux hosts.
fn cache_smoke() {
    let server = Server::start(ServeConfig::default()).expect("start server");
    if server.engine() != "epoll" {
        println!(
            "b8 cache-smoke: SKIP (engine is {:?} — epoll event loop unavailable on this host \
             or disabled via GATHER_NO_EPOLL)",
            server.engine()
        );
        server.shutdown();
        return;
    }
    let addr = server.addr();
    let mut client = Client::connect(&addr).expect("connect");

    // Cold → hot byte-identity with disposition headers.
    let spec = load_spec(60_000);
    let expected = format!("{}\n", spec.to_scenario().expect("spec").run().to_jsonl());
    let cold = client.post_run(&spec.to_json()).expect("cold run");
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-gather-cache"), Some("miss"), "cold miss");
    assert_eq!(cold.body, expected.as_bytes(), "cold bytes");
    let hot = client.post_run(&spec.to_json()).expect("hot run");
    assert_eq!(hot.status, 200);
    assert_eq!(hot.header("x-gather-cache"), Some("hit"), "hot hit");
    assert!(hot.header("age").is_some(), "hits carry Age");
    assert_eq!(hot.body, expected.as_bytes(), "hot bytes == cold bytes");

    // A ~200-request probe over 8 specs: after the 8 cold misses,
    // everything must be served from cache.
    let specs: Vec<String> = (0..8).map(|i| load_spec(61_000 + i).to_json()).collect();
    for round in 0..25 {
        for body in &specs {
            let r = client.post_run(body).expect("probe");
            assert_eq!(r.status, 200);
            if round > 0 {
                assert_eq!(r.header("x-gather-cache"), Some("hit"));
            }
        }
    }
    let counters = server.cache_counters();
    let hit_rate = counters.hit_ratio();
    assert!(
        hit_rate >= 0.9,
        "cache hit-rate floor: got {hit_rate:.3} ({counters:?})"
    );

    // /v1/batch identity through the same cache.
    let batch_body = format!("{{\"scenarios\":[{}]}}", specs.join(","));
    let batched = client.post_batch(&batch_body).expect("batch");
    assert_eq!(batched.status, 200, "{}", batched.text());
    assert_eq!(
        batched.header("x-gather-cache"),
        Some("hit"),
        "a fully warmed batch is answered at admission"
    );
    let in_process: String = (0..8)
        .map(|i| {
            format!(
                "{}\n",
                load_spec(61_000 + i)
                    .to_scenario()
                    .expect("spec")
                    .run()
                    .to_jsonl()
            )
        })
        .collect();
    assert_eq!(
        batched.body,
        in_process.as_bytes(),
        "batched cache hits must be the in-process bytes"
    );

    server.shutdown();
    println!(
        "b8 cache-smoke: OK (cold/hot bit-identity, headers, hit-rate {hit_rate:.3}, \
         /v1/batch identity; engine=epoll)"
    );
}

fn f(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if std::env::args().any(|a| a == "--cache-smoke") {
        cache_smoke();
        return;
    }
    let args = Args::parse();
    let mut failures: Vec<String> = Vec::new();

    // Small queue on purpose: the sweep should hit the 429 path well
    // before memory does.
    let server = bench_server(8);
    let addr = server.addr();
    let engine = server.engine();

    println!("B8 — scenario service over TCP ({addr}, engine={engine})\n");
    println!("bit-identity across configuration classes:");
    let identity_failures = bit_identity(&addr);
    let bit_identical = identity_failures.is_empty();
    failures.extend(identity_failures);

    let probes = if args.quick { 8 } else { 32 };
    let capacity = measure_capacity(&addr, probes);
    println!(
        "\ncold capacity: {capacity:.1} req/s (closed-loop sequential, {probes} unique-seed \
         probes, warm-up excluded)"
    );

    let per_rate = if args.quick { 40 } else { 200 };
    let mut rows = Vec::new();
    for (i, factor) in [0.5, 1.0, 2.0, 4.0].into_iter().enumerate() {
        rows.push(open_loop(
            &addr,
            factor * capacity,
            per_rate,
            10_000 * (i as u64 + 1),
        ));
    }

    println!("\nopen-loop sweep ({per_rate} unique-seed requests per rate, queue capacity 8):\n");
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "offered r/s", "achieved r/s", "completed", "rejected", "reject %", "p50 ms", "p99 ms"
    );
    for row in &rows {
        println!(
            "{:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
            f(row.offered_rps, 1),
            f(row.achieved_rps, 1),
            row.completed,
            row.rejected,
            f(100.0 * row.rejected as f64 / row.requests as f64, 1),
            f(row.p50_ms, 1),
            f(row.p99_ms, 1),
        );
        if row.completed + row.rejected != row.requests {
            failures.push(format!(
                "open loop at {:.1} r/s: {} + {} != {} (lost requests)",
                row.offered_rps, row.completed, row.rejected, row.requests
            ));
        }
    }

    // Cache-hit serving: warm one spec, then closed-loop clients.
    let warm_body = load_spec(70_000).to_json();
    let warm = Client::connect(&addr)
        .and_then(|mut c| c.post_run(&warm_body))
        .expect("warm the cache");
    assert_eq!(warm.status, 200, "{}", warm.text());
    let per_client = if args.quick { 200 } else { 500 };
    let client_counts: &[usize] = if args.quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let hit_rows: Vec<HitRow> = client_counts
        .iter()
        .map(|&clients| cache_hit_sweep(&addr, clients, per_client, &warm.body))
        .collect();
    println!("\ncache-hit closed-loop sweep ({per_client} requests per client, keep-alive):\n");
    println!(
        "{:>8} {:>10} {:>12} {:>9} {:>9}",
        "clients", "requests", "achieved r/s", "p50 ms", "p99 ms"
    );
    for row in &hit_rows {
        println!(
            "{:>8} {:>10} {:>12} {:>9} {:>9}",
            row.clients,
            row.requests,
            f(row.rps, 1),
            f(row.p50_ms, 2),
            f(row.p99_ms, 2),
        );
    }
    let peak_hit_rps = hit_rows.iter().map(|r| r.rps).fold(0.0, f64::max);
    if peak_hit_rps < 2_870.0 {
        failures.push(format!(
            "cache-hit serving peaked at {peak_hit_rps:.0} req/s — below the 2870 req/s floor \
             (10x the pre-event-loop record)"
        ));
    }

    // /v1/batch amortisation curve.
    let batch_sizes: &[usize] = if args.quick {
        &[1, 8, 32]
    } else {
        &[1, 8, 64, 256]
    };
    let batch_rows: Vec<BatchRow> = batch_sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| batch_curve(&addr, size, 80_000 + 1_000 * i as u64))
        .collect();
    println!("\n/v1/batch amortisation (cold = batch lanes, hot = all-hit):\n");
    println!("{:>6} {:>16} {:>14}", "size", "cold scen/s", "hot req/s");
    for row in &batch_rows {
        println!(
            "{:>6} {:>16} {:>14}",
            row.size,
            f(row.cold_scen_per_sec, 1),
            f(row.hot_rps, 1),
        );
    }

    let scrape = Client::connect(&addr)
        .and_then(|mut c| c.get("/v1/metrics"))
        .expect("final scrape");
    assert_eq!(scrape.status, 200);
    let cache_counters = server.cache_counters();
    server.shutdown();

    let mut json = format!(
        "{{\n  \"bench\": \"b8_service\",\n  \"engine\": \"{engine}\",\n  \
         \"bit_identical_across_classes\": {bit_identical},\n  \
         \"capacity_req_per_sec\": {capacity:.1},\n  \"queue_capacity\": 8,\n  \
         \"requests_per_rate\": {per_rate},\n  \"warmup_excluded\": true,\n  \
         \"open_loop\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"completed\": {}, \"rejected\": {}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}}{}\n",
            row.offered_rps,
            row.achieved_rps,
            row.completed,
            row.rejected,
            row.p50_ms,
            row.p99_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"cache_hit_sweep\": [\n");
    for (i, row) in hit_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"achieved_rps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            row.clients,
            row.requests,
            row.rps,
            row.p50_ms,
            row.p99_ms,
            if i + 1 < hit_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"cache_hit_peak_rps\": {peak_hit_rps:.1},\n  \"batch_curve\": [\n"
    ));
    for (i, row) in batch_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"size\": {}, \"cold_scenarios_per_sec\": {:.1}, \"hot_requests_per_sec\": {:.1}}}{}\n",
            row.size,
            row.cold_scen_per_sec,
            row.hot_rps,
            if i + 1 < batch_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_ratio\": {:.4}}}\n}}\n",
        cache_counters.hits,
        cache_counters.misses,
        cache_counters.evictions,
        cache_counters.hit_ratio()
    ));

    println!();
    report::emit_record(
        "b8_service",
        &json,
        &args.out_dir,
        args.quick,
        args.baseline.is_some(),
    );
    report::fail_if_any("B8", &failures);
}
