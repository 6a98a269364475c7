//! `service-mix`: an in-process `Server` driven over loopback by an
//! open-loop generator at a fixed 200 requests per second.
//!
//! The server is built with `ServeConfig::default()` (epoll engine,
//! default cache). Two client threads each hold one keep-alive `Client`;
//! arrivals alternate between them, and every request is timed from its
//! due time, so a request queued on its connection behind a slow one pays
//! for the wait. The mix, shuffled from the seed:
//!
//! * 50 % `/v1/run` cache hits on a hot set of 32 specs (six classes,
//!   n=12, f=1), warmed during set-up;
//! * 30 % cold `/v1/run` with unique seeds (n=16 scatter, δ-motion,
//!   δ=0.001, 50 rounds — the b8 bench's fixed-cost spec);
//! * 10 % cold `/v1/batch` of 8 such specs;
//! * 10 % cold `POST /v1/trace` of n=8 class specs.
//!
//! After the window every 200 body is byte-compared with the in-process
//! reference (`ScenarioSpec::to_scenario().run().to_jsonl()` and the batch
//! and trace equivalents) and every trace body is audited with
//! `gather_trace::analytics`. 429s, 5xx and other statuses, transport
//! errors, byte mismatches and audit findings each count as a failure.

use crate::spans::SpanLog;
use crate::stats::{median, percentile, ratio, time_us};
use crate::{metric, Report, RunConfig};
use gather_config::{classify, Class, Configuration};
use gather_geom::{weiszfeld_nanos, Tol};
use gather_prng::{mix64, Rng};
use gather_serve::http::try_parse;
use gather_serve::{Client, RunRequest, ScenarioSpec, ServeConfig, Server};
use gather_sim::prelude::RunMetrics;
use gather_trace::{analyze_corpus, Corpus};
use std::time::{Duration, Instant};

/// Offered load, requests per second (a constant, not a capacity probe).
const RATE: f64 = 200.0;
const CLIENTS: usize = 2;
const HOT_SET: u64 = 32;
const BATCH: usize = 8;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;
/// Equal slices of the window by due time. `p99_ms` is the median over
/// slices of each slice's 99th percentile, so a stall of the whole machine
/// in one slice (another tenant's burst) does not decide it.
const SLICES: usize = 20;
/// Body limit handed to the client-side parse timing (the server default).
const MAX_BODY: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Run,
    Batch,
    Trace,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Hit => "mix.request.hit",
            Kind::Run => "mix.request.run",
            Kind::Batch => "mix.request.batch",
            Kind::Trace => "mix.request.trace",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Hit | Kind::Run => "/v1/run",
            Kind::Batch => "/v1/batch",
            Kind::Trace => "/v1/trace",
        }
    }
}

/// One scheduled request.
struct Req {
    id: u64,
    kind: Kind,
    due: Duration,
    specs: Vec<ScenarioSpec>,
    body: String,
}

/// What came back, as the client saw it.
#[derive(Debug, Clone)]
struct Resp {
    /// `None` on a transport error.
    status: Option<u16>,
    body: Vec<u8>,
    /// From due time to the last response byte.
    latency_ms: f64,
    /// From due time to the send.
    late_ms: f64,
}

/// The hot set is a fixed catalogue, the same for every workload seed,
/// so set-up (which warms it) and cache-hit bodies do not follow the seed;
/// the seed picks which hot spec each request asks for.
fn hot_spec(i: u64) -> ScenarioSpec {
    ScenarioSpec {
        class: Some(Class::all()[i as usize % 6]),
        n: 12,
        faults: 1,
        seed: i,
        ..ScenarioSpec::default()
    }
}

/// The b8 bench's fixed-cost spec: an n=16 scatter under the δ-motion
/// adversary with a tiny δ never gathers within 50 rounds, so every such
/// request costs exactly its round budget.
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

fn trace_spec(seed: u64, i: u64) -> ScenarioSpec {
    ScenarioSpec {
        class: Some(Class::all()[i as usize % 6]),
        n: 8,
        seed,
        ..ScenarioSpec::default()
    }
}

fn requests_per_window(config: &RunConfig) -> u64 {
    if config.tiny {
        20
    } else {
        (RATE * config.seconds).round().max(10.0) as u64
    }
}

/// The request schedule of window `window`: exact class proportions in a
/// seeded order, cold seeds unique within the process.
fn schedule(config: &RunConfig, window: u64) -> Vec<Req> {
    let total = requests_per_window(config);
    let counts = [
        (Kind::Hit, total * 5 / 10),
        (Kind::Run, total * 3 / 10),
        (Kind::Batch, total / 10),
    ];
    let mut kinds: Vec<Kind> = counts
        .iter()
        .flat_map(|&(k, c)| std::iter::repeat_n(k, c as usize))
        .collect();
    kinds.resize(total as usize, Kind::Trace);
    let mut rng = Rng::seed_from_u64(config.seed ^ mix64(window + 1));
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.random_range(0..i + 1));
    }
    // Cold seeds count up from a per-(seed, window) base, far from the
    // hot set's seeds, so no cold spec is ever cached.
    let mut next_seed = 1_000_000 + (mix64(config.seed) % 1_000_000) * 1_000_000 + window * 100_000;
    let mut fresh = || {
        next_seed += 1;
        next_seed
    };
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let i = i as u64;
            let specs: Vec<ScenarioSpec> = match kind {
                Kind::Hit => vec![hot_spec(rng.random_range(0..HOT_SET))],
                Kind::Run => vec![load_spec(fresh())],
                Kind::Batch => (0..BATCH).map(|_| load_spec(fresh())).collect(),
                Kind::Trace => vec![trace_spec(fresh(), i)],
            };
            let body = if kind == Kind::Batch {
                let list: Vec<String> = specs.iter().map(ScenarioSpec::to_json).collect();
                format!("{{\"scenarios\":[{}]}}", list.join(","))
            } else {
                specs[0].to_json()
            };
            Req {
                id: (window << 32) | i,
                kind,
                due: Duration::from_secs_f64(i as f64 / RATE),
                specs,
                body,
            }
        })
        .collect()
}

/// How long before a due time the generator stops sleeping and spins, so
/// timer slack and wake-up delay do not make every request late.
const SPIN: Duration = Duration::from_micros(300);

fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Sends every request at its due time from `CLIENTS` threads (request
/// `i` goes out on client `i % CLIENTS`) and returns the responses in
/// schedule order. With a log, each request is a span under `parent`.
fn drive(
    addr: &str,
    clients: &mut [Client],
    reqs: &[Req],
    log: Option<&SpanLog>,
    parent: Option<u64>,
) -> Vec<Resp> {
    let start = Instant::now() + Duration::from_millis(20);
    let mut out: Vec<Option<Resp>> = vec![None; reqs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for (i, r) in reqs.iter().enumerate().skip(k).step_by(CLIENTS) {
                        let due = start + r.due;
                        wait_until(due);
                        let sent = Instant::now();
                        let response = client.request("POST", r.kind.path(), r.body.as_bytes());
                        let done = Instant::now();
                        if let Some(log) = log {
                            log.record(log.new_id(), r.kind.span(), parent, r.id, sent, done);
                        }
                        let ms = |t: Instant| (t - due).as_secs_f64() * 1e3;
                        let resp = match response {
                            Ok(resp) => Resp {
                                status: Some(resp.status),
                                body: resp.body,
                                latency_ms: ms(done),
                                late_ms: ms(sent),
                            },
                            Err(_) => {
                                // The connection is gone; later requests
                                // on this client need a fresh one.
                                if let Ok(c) = Client::connect(addr) {
                                    *client = c;
                                }
                                Resp {
                                    status: None,
                                    body: Vec::new(),
                                    latency_ms: ms(done),
                                    late_ms: ms(sent),
                                }
                            }
                        };
                        got.push((i, resp));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (i, resp) in h.join().expect("client thread") {
                out[i] = Some(resp);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every request was sent"))
        .collect()
}

/// The in-process reference body for a request, with the metrics it was
/// built from (for the serialisation timing).
fn reference(req: &Req) -> (Vec<u8>, Vec<RunMetrics>) {
    let run = |spec: &ScenarioSpec| spec.to_scenario().expect("benchmark specs are valid").run();
    match req.kind {
        Kind::Trace => {
            let spec = &req.specs[0];
            let scenario = spec.to_scenario().expect("benchmark specs are valid");
            let (m, trace) = scenario.run_traced();
            (
                format!("{}{trace}", spec.trace_header()).into_bytes(),
                vec![m],
            )
        }
        _ => {
            let metrics: Vec<RunMetrics> = req.specs.iter().map(run).collect();
            let body: String = metrics.iter().map(|m| m.to_jsonl() + "\n").collect();
            (body.into_bytes(), metrics)
        }
    }
}

/// Checks one response against its reference body; trace bodies are also
/// audited against the lemma DAG.
fn check(req: &Req, resp: &Resp, expected: &[u8]) -> Result<(), String> {
    match resp.status {
        None => return Err("transport error".to_string()),
        Some(200) => {}
        Some(429) => return Err("429 rejected (admission queue full)".to_string()),
        Some(status) => {
            return Err(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&resp.body).trim()
            ))
        }
    }
    if resp.body != expected {
        return Err(format!(
            "body differs from the in-process reference ({} vs {} bytes)",
            resp.body.len(),
            expected.len()
        ));
    }
    if req.kind != Kind::Trace {
        return Ok(());
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "trace body is not UTF-8")?;
    let corpus = Corpus::parse(text).map_err(|e| format!("trace does not parse: {e}"))?;
    let audit = analyze_corpus(&corpus);
    let findings = audit.total_violations() + audit.total_illegal_transitions();
    if findings > 0 {
        return Err(format!("trace audit found {findings} lemma-DAG violations"));
    }
    Ok(())
}

/// One measured window: schedule, responses and their verification.
#[derive(Default)]
struct Window {
    latencies: [Vec<f64>; 4],
    all_ms: Vec<f64>,
    /// `all_ms` split by due time into `SLICES` equal slices.
    slices: Vec<Vec<f64>>,
    ok: u64,
    span_s: f64,
    late_ms_max: f64,
    late_ms: Vec<f64>,
    sent: u64,
    to_jsonl_us: Vec<f64>,
    weiszfeld_ns: u64,
    corpus_parse_us_per_round: Vec<f64>,
    try_parse_us: Vec<f64>,
    spec_parse_us: Vec<f64>,
    audit_violations: u64,
    cold_scenarios: Vec<gather_bench::runner::Scenario>,
}

impl Window {
    /// Median over slices of each slice's 99th-percentile latency.
    fn sliced_p99(&self) -> f64 {
        let per: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(s, 99.0))
            .collect();
        median(&per)
    }
}

fn kind_index(kind: Kind) -> usize {
    match kind {
        Kind::Hit => 0,
        Kind::Run => 1,
        Kind::Batch => 2,
        Kind::Trace => 3,
    }
}

fn window(
    config: &RunConfig,
    index: u64,
    addr: &str,
    clients: &mut [Client],
    log: Option<&SpanLog>,
    report: &mut Report,
) -> Window {
    let reqs = schedule(config, index);
    let parent = log.map(SpanLog::new_id);
    let started = Instant::now();
    let resps = drive(addr, clients, &reqs, log, parent);
    let finished = Instant::now();
    if let (Some(log), Some(id)) = (log, parent) {
        log.record(id, "mix.window", None, index, started, finished);
    }
    let mut w = Window {
        sent: reqs.len() as u64,
        slices: (0..SLICES).map(|_| Default::default()).collect(),
        ..Window::default()
    };

    // References, computed outside the timed window on two threads; the
    // hot set repeats, so its references are computed once per spec.
    let refs: Vec<(Vec<u8>, Vec<RunMetrics>, u64)> = std::thread::scope(|scope| {
        let halves: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let reqs = &reqs;
                scope.spawn(move || {
                    let mut hot: std::collections::HashMap<u64, (Vec<u8>, Vec<RunMetrics>)> =
                        Default::default();
                    reqs.iter()
                        .enumerate()
                        .skip(k)
                        .step_by(CLIENTS)
                        .map(|(i, r)| {
                            let wf0 = weiszfeld_nanos();
                            let (body, metrics) = if r.kind == Kind::Hit {
                                hot.entry(r.specs[0].seed)
                                    .or_insert_with(|| reference(r))
                                    .clone()
                            } else {
                                reference(r)
                            };
                            (i, (body, metrics, weiszfeld_nanos() - wf0))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut refs = vec![None; reqs.len()];
        for h in halves {
            for (i, r) in h.join().expect("reference thread") {
                refs[i] = Some(r);
            }
        }
        refs.into_iter()
            .map(|r| r.expect("reference computed"))
            .collect()
    });

    let window_end_ms = (finished - started).as_secs_f64() * 1e3;
    for (i, ((req, resp), (expected, metrics, wf_ns))) in
        reqs.iter().zip(&resps).zip(&refs).enumerate()
    {
        let slice = i * SLICES / reqs.len();
        report.attempted += 1;
        w.late_ms_max = w.late_ms_max.max(resp.late_ms);
        w.late_ms.push(resp.late_ms);
        w.weiszfeld_ns += wf_ns;
        match check(req, resp, expected) {
            Ok(_) => {
                w.ok += 1;
                w.latencies[kind_index(req.kind)].push(resp.latency_ms);
                w.all_ms.push(resp.latency_ms);
                w.slices[slice].push(resp.latency_ms);
            }
            Err(why) => {
                let what = format!("request {} ({:?}): {why}", req.id, req.kind);
                if why.contains("audit") {
                    w.audit_violations += 1;
                }
                if why.contains("differs") {
                    report.mismatch(what);
                } else {
                    report.fail(what);
                }
                // A failed request counts as missing every latency limit.
                let missed = window_end_ms.max(resp.latency_ms);
                w.all_ms.push(missed);
                w.slices[slice].push(missed);
            }
        }
        if log.is_none() {
            continue;
        }
        // Traced window only: client-side layer timings on this request.
        let raw = format!(
            "POST {} HTTP/1.1\r\nhost: gather-serve\r\ncontent-length: {}\r\n\r\n{}",
            req.kind.path(),
            req.body.len(),
            req.body
        );
        w.try_parse_us.push(time_us(3, || {
            try_parse(raw.as_bytes(), MAX_BODY).map(|p| p.is_some())
        }));
        w.spec_parse_us.push(time_us(3, || {
            RunRequest::parse(&req.body, 1024).map(|r| r.scenarios.len())
        }));
        for m in metrics {
            w.to_jsonl_us.push(time_us(3, || m.to_jsonl()));
        }
        if req.kind == Kind::Trace && resp.status == Some(200) {
            if let Ok(text) = std::str::from_utf8(&resp.body) {
                let t = Instant::now();
                if let Ok(corpus) = Corpus::parse(text) {
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    w.corpus_parse_us_per_round
                        .push(ratio(us, corpus.total_rounds() as f64));
                }
            }
        }
        if req.kind == Kind::Run && w.cold_scenarios.len() < 16 {
            w.cold_scenarios.push(
                req.specs[0]
                    .to_scenario()
                    .expect("benchmark specs are valid"),
            );
        }
    }
    w.span_s = resps
        .iter()
        .zip(&reqs)
        .map(|(r, q)| q.due.as_secs_f64() + r.latency_ms / 1e3)
        .fold(0.0, f64::max);
    w
}

/// Tracing overhead: the mean over request classes of how much the traced
/// window's median exceeds the untraced one's. (The mix is bimodal, so a
/// single median over all classes would be meaningless.)
fn overhead_pct(untraced: &Window, traced: &Window) -> f64 {
    let gaps: Vec<f64> = untraced
        .latencies
        .iter()
        .zip(&traced.latencies)
        .filter(|(u, t)| !u.is_empty() && !t.is_empty())
        .map(|(u, t)| median(t) / median(u) - 1.0)
        .collect();
    100.0 * gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}

/// Reads one sample from the `/v1/metrics` text exposition.
fn scrape(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

struct Service {
    server: Server,
    clients: Vec<Client>,
}

/// Boots the server, connects the clients and warms the hot set (the warm
/// responses must be 200). Returns the set-up seconds with the service:
/// server start plus warm-up. Waiting for the connections to be accepted
/// is left out: the acceptor polls its listener every 10 ms, and the phase
/// of that poll, not the program, would decide the time.
fn boot() -> Result<(f64, Service), String> {
    let started = Instant::now();
    let server = Server::start(ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let mut setup_s = started.elapsed().as_secs_f64();
    let addr = server.addr();
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(&addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    for c in &mut clients {
        let r = c.get("/v1/healthz").map_err(|e| format!("healthz: {e}"))?;
        if r.status != 200 {
            return Err(format!("healthz status {}", r.status));
        }
    }
    // One `/v1/batch` of the whole hot set: a batch stores every spec's
    // line under the same key a `/v1/run` of that spec looks up.
    let list: Vec<String> = (0..HOT_SET).map(|i| hot_spec(i).to_json()).collect();
    let body = format!("{{\"scenarios\":[{}]}}", list.join(","));
    let started = Instant::now();
    let r = clients[0]
        .request("POST", "/v1/batch", body.as_bytes())
        .map_err(|e| format!("warm-up: {e}"))?;
    setup_s += started.elapsed().as_secs_f64();
    if r.status != 200 {
        return Err(format!("warm-up status {}: {}", r.status, r.text().trim()));
    }
    let cached = server.cache_counters().entries;
    if cached < HOT_SET {
        return Err(format!("warm-up cached {cached} of {HOT_SET} hot specs"));
    }
    Ok((setup_s, Service { server, clients }))
}

/// Nanoseconds the server has spent parsing and executing requests, from
/// its own phase histograms (queue wait is not work, so it is left out).
fn busy_ns(server: &Server) -> u64 {
    let phases = &server.metrics().phases;
    phases.parse.sum() + phases.execute.sum()
}

pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    let _awake = crate::awake::KeepAwake::start();
    // Set-up, done `SETUPS` times and reported as the median; each earlier
    // service shuts down when the next one replaces it.
    let mut setup_times = Vec::new();
    let mut service = None;
    for _ in 0..SETUPS {
        drop(service.take());
        match boot() {
            Ok((secs, s)) => {
                setup_times.push(secs);
                service = Some(s);
            }
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                report.attempted += 1;
                return report;
            }
        }
    }
    let setup_s = median(&setup_times);
    let mut service = service.expect("set-up ran");
    let addr = service.server.addr();
    crate::stats::reset_peak_rss();
    let busy0 = busy_ns(&service.server);
    let w = window(config, 0, &addr, &mut service.clients, None, &mut report);
    let rss_mb = crate::stats::peak_rss_mb();
    // The offered rate is fixed, so completed requests per second of wall
    // would only move when requests fail; per second of the server's own
    // busy time it measures how much work a request costs the server.
    let busy_s = (busy_ns(&service.server) - busy0) as f64 / 1e9;
    let [hit, run, batch, trace] = &w.latencies;
    report.e2e.extend([
        metric("setup_s", setup_s, "s"),
        metric("throughput_per_s", ratio(w.ok as f64, busy_s), "1/s"),
        metric("requests_per_busy_s", ratio(w.ok as f64, busy_s), "1/s"),
        metric("completed_per_s", w.ok as f64 / w.span_s, "1/s"),
        metric("p50_ms", median(run), "ms"),
        // Cache-hit latencies (tens of microseconds) follow the host's
        // load rather than the program, so the gated second median is the
        // batch's; `hit_p50_ms` is printed.
        metric("alt_p50_ms", median(batch), "ms"),
        metric("p99_ms", w.sliced_p99(), "ms"),
        metric("pooled_p99_ms", percentile(&w.all_ms, 99.0), "ms"),
        metric("hit_p50_ms", median(hit), "ms"),
        metric("run_p50_ms", median(run), "ms"),
        metric("batch_p50_ms", median(batch), "ms"),
        metric("trace_p50_ms", median(trace), "ms"),
        metric("requests", w.sent as f64, "count"),
    ]);

    if config.traced {
        let log = SpanLog::default();
        let t = window(
            config,
            1,
            &addr,
            &mut service.clients,
            Some(&log),
            &mut report,
        );
        let text = service.clients[0]
            .get("/v1/metrics")
            .map(|r| r.text())
            .unwrap_or_default();
        let q = |name: &str, quantile: &str| {
            scrape(&text, &format!("{name}{{quantile=\"{quantile}\"}}"))
        };
        let rounds = scrape(&text, "gather_sim_rounds_total");
        let sim_hits = scrape(&text, "gather_sim_cache_hits_total");
        let sim_computed = scrape(&text, "gather_sim_cache_computed_total");
        let classify_us: Vec<f64> = (0..HOT_SET)
            .map(|i| {
                let s = hot_spec(i).to_scenario().expect("valid spec");
                let c = Configuration::new(s.initial);
                time_us(5, || classify(&c, Tol::default()))
            })
            .collect();
        report.layers.extend([
            metric("serve.http.try_parse_us", median(&t.try_parse_us), "us"),
            metric("serve.spec.parse_us", median(&t.spec_parse_us), "us"),
            metric("sim.metrics.to_jsonl_us", median(&t.to_jsonl_us), "us"),
            metric(
                "serve.server.parse_us_p50",
                q("gather_request_phase_parse_ns", "0.5") / 1e3,
                "us",
            ),
            metric(
                "serve.queue.wait_us_p50",
                q("gather_request_phase_queue_wait_ns", "0.5") / 1e3,
                "us",
            ),
            metric(
                "serve.queue.wait_us_p99",
                q("gather_request_phase_queue_wait_ns", "0.99") / 1e3,
                "us",
            ),
            metric(
                "serve.server.execute_us_p50",
                q("gather_request_phase_execute_ns", "0.5") / 1e3,
                "us",
            ),
            metric(
                "bench.pool.run_time_us_p50",
                q("gather_pool_job_run_time_ns", "0.5") / 1e3,
                "us",
            ),
            metric(
                "bench.pool.queue_wait_us_p50",
                q("gather_pool_job_queue_wait_ns", "0.5") / 1e3,
                "us",
            ),
            metric(
                "serve.cache.hit_ratio",
                scrape(&text, "gather_cache_hit_ratio"),
                "ratio",
            ),
            metric(
                "serve.cache.evictions",
                scrape(&text, "gather_cache_evictions_total"),
                "count",
            ),
            metric(
                "serve.queue.rejected_full",
                scrape(&text, "gather_requests_rejected_full_total"),
                "count",
            ),
            metric("sim.rounds_total", rounds, "count"),
            metric(
                "config.classifications_per_round",
                ratio(scrape(&text, "gather_sim_classifications_total"), rounds),
                "count",
            ),
            metric(
                "config.analysis_hit_ratio",
                ratio(sim_hits, sim_hits + sim_computed),
                "ratio",
            ),
            metric(
                "geom.weiszfeld_iters_per_round",
                ratio(scrape(&text, "gather_sim_weiszfeld_iters_total"), rounds),
                "count",
            ),
            metric("geom.weiszfeld_ms", t.weiszfeld_ns as f64 / 1e6, "ms"),
            metric("config.classify_us", median(&classify_us), "us"),
            metric(
                "trace.corpus.parse_us_per_round",
                median(&t.corpus_parse_us_per_round),
                "us",
            ),
            metric(
                "trace.analytics.violations",
                t.audit_violations as f64,
                "count",
            ),
            metric("loadgen.late_ms_max", t.late_ms_max, "ms"),
            metric("loadgen.sent", t.sent as f64, "count"),
            metric("obs.trace_overhead_pct", overhead_pct(&w, &t), "%"),
        ]);
        log.span("sim.engine.sample", None, 0, |_| {
            crate::sweep::engine_sample(&t.cold_scenarios, &mut report)
        });
        report.spans_jsonl = log.to_jsonl();
    }
    report.e2e.extend([
        metric("loadgen_late_ms_max", w.late_ms_max, "ms"),
        metric("loadgen_late_ms_p50", median(&w.late_ms), "ms"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]);
    service.server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            seed: 4,
            seconds: 0.1,
            traced: true,
            tiny: true,
        }
    }

    #[test]
    fn schedule_has_exact_proportions_and_unique_cold_seeds() {
        let config = RunConfig {
            tiny: false,
            seconds: 1.0,
            ..tiny()
        };
        let reqs = schedule(&config, 0);
        assert_eq!(reqs.len(), 200);
        let count = |k| reqs.iter().filter(|r| r.kind == k).count();
        assert_eq!(
            [
                count(Kind::Hit),
                count(Kind::Run),
                count(Kind::Batch),
                count(Kind::Trace)
            ],
            [100, 60, 20, 20]
        );
        let mut cold: Vec<u64> = reqs
            .iter()
            .filter(|r| r.kind != Kind::Hit)
            .flat_map(|r| r.specs.iter().map(|s| s.seed))
            .collect();
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n, "cold seeds repeat");
        let again = schedule(&config, 0);
        assert!(reqs.iter().zip(&again).all(|(a, b)| a.body == b.body));
        let next = schedule(&config, 1);
        assert!(reqs.iter().zip(&next).any(|(a, b)| a.body != b.body));
    }

    #[test]
    fn corrupted_bodies_and_429s_count_as_failures() {
        let reqs = schedule(&tiny(), 0);
        let req = reqs
            .iter()
            .find(|r| r.kind == Kind::Trace)
            .expect("a trace request");
        let (expected, _) = reference(req);
        let good = Resp {
            status: Some(200),
            body: expected.clone(),
            latency_ms: 1.0,
            late_ms: 0.0,
        };
        assert_eq!(check(req, &good, &expected), Ok(()));
        let mut corrupted = good.clone();
        corrupted.body[10] ^= 1;
        assert!(check(req, &corrupted, &expected)
            .unwrap_err()
            .contains("differs"));
        let rejected = Resp {
            status: Some(429),
            ..good.clone()
        };
        assert!(check(req, &rejected, &expected)
            .unwrap_err()
            .contains("429"));
        let failed = Resp {
            status: Some(500),
            ..good.clone()
        };
        assert!(check(req, &failed, &expected).unwrap_err().contains("500"));
        let lost = Resp {
            status: None,
            ..good
        };
        assert!(check(req, &lost, &expected)
            .unwrap_err()
            .contains("transport"));
    }

    #[test]
    fn tiny_run_reports_every_metric() {
        let report = run(&tiny());
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert_eq!(report.attempted, 40);
        for key in crate::E2E_KEYS {
            assert!(report.e2e.iter().any(|m| m.name == key), "{key}");
        }
        for key in crate::LAYER_KEYS {
            assert!(report.layers.iter().any(|m| m.name == key), "{key}");
        }
        assert!(report.spans_jsonl.contains("\"span\":\"mix.request.hit\""));
    }
}
