//! The batch scenario server: acceptor, serving engines, sharded
//! dispatch, deterministic result cache.
//!
//! Thread architecture (all pure std):
//!
//! * **acceptor** — one thread on a non-blocking listener. Under the
//!   default *epoll engine* (Linux) it hands accepted sockets round-robin
//!   to the event-loop shards ([`crate::event_loop`]); under the
//!   *threaded engine* (non-Linux, `GATHER_NO_EPOLL=1`, or
//!   [`ServeConfig::event_loop`] `false`) it spawns a handler thread per
//!   connection. Both enforce [`ServeConfig::max_connections`] with an
//!   immediate 503 beyond the cap;
//! * **event-loop shards / handlers** — parse HTTP/1.1 requests
//!   (keep-alive and pipelining supported), enforce the read deadline
//!   (408) and the idle bound, consult the result cache, and *admit or
//!   reject immediately*: a full queue answers 429 + `Retry-After` now,
//!   mirroring the paper's wait-free design point at the serving layer —
//!   no request ever waits on an unbounded buffer;
//! * **dispatcher lanes** — [`ServeConfig::dispatchers`] threads, each
//!   draining its own lane of the [`Sharded`] admission queue (producers
//!   rotate lanes with an atomic cursor, the `WorkerPool` claim idiom).
//!   A single-scenario job runs *inline* on its long-lived dispatcher
//!   thread (recycling [`EngineParts`] via the runner's thread-local
//!   scratch); multi-scenario jobs fan out over the shared
//!   [`WorkerPool`]; `/v1/batch` jobs go through the columnar
//!   `BatchEngine` lanes (`run_batched_on`);
//! * **result cache** — completed payloads are stored byte-exact under
//!   the canonical spec key ([`crate::cache`]); an all-hit request is
//!   answered at admission time without touching queue or pool,
//!   `x-gather-cache`/`Age` headers report the disposition;
//! * **shutdown** — [`Server::shutdown`] stops the acceptor, closes the
//!   queue (pushes refused, queued jobs drained), joins the dispatchers,
//!   shuts the pool down, then joins shards/handlers. Admitted work
//!   always completes; idle connections close within the poll interval.
//!
//! Determinism contract (DESIGN.md §11, §16): a `200` response body is
//! the concatenated [`RunMetrics::to_jsonl`] lines of the batch, in
//! request order. Scenario execution is a pure function of the spec, so
//! cached payloads are bit-identical to freshly computed ones, and the
//! response for a given body is bit-identical to serialising the same
//! scenarios run in-process — regardless of worker count, engine,
//! caching, or server uptime.
//!
//! [`EngineParts`]: gather_sim::prelude::EngineParts
//! [`RunMetrics::to_jsonl`]: gather_sim::metrics::RunMetrics::to_jsonl

use crate::cache::{self, KeyKind, ResultCache};
use crate::http::{self, Body, HttpError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::queue::{Rejected, Sharded};
use crate::spec::{RunRequest, ScenarioSpec};
use gather_bench::pool::{self, PoolObs, WorkerPool};
use gather_bench::runner::Scenario;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle threaded handler (or an event-loop shard) wakes to
/// check for shutdown and scan timeouts.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(100);
/// Pause between accept attempts on the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Round-budget ceiling for `/v1/trace` (both wire forms) — every round
/// becomes one response line, so traced runs get a tighter cap than
/// `/v1/run`'s [`crate::spec::MAX_ROUNDS`].
pub const TRACE_MAX_ROUNDS: u64 = 100_000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker-pool threads (0 = `GATHER_THREADS` / available cores).
    pub workers: usize,
    /// Dispatcher lanes draining the admission queue (0 = one per
    /// resolved worker).
    pub dispatchers: usize,
    /// Admission-queue capacity — the only buffering between admission
    /// and execution; beyond it requests are rejected with 429. Split
    /// evenly across dispatcher lanes.
    pub queue_capacity: usize,
    /// Scenarios allowed per `POST /v1/run` request.
    pub max_batch: usize,
    /// Scenarios allowed per `POST /v1/batch` request (the amortized
    /// mega-batch endpoint).
    pub max_mega_batch: usize,
    /// Request-body size limit in bytes.
    pub max_body_bytes: usize,
    /// Queue-wait deadline applied when a request carries none.
    pub default_deadline_ms: u64,
    /// Concurrent connections before new ones get an immediate 503.
    pub max_connections: usize,
    /// Result-cache capacity in entries (`None` = `GATHER_CACHE_ENTRIES`
    /// or 4096; `Some(0)` disables caching).
    pub cache_entries: Option<usize>,
    /// Use the epoll event loop on Linux (`false` forces the
    /// thread-per-connection engine; `GATHER_NO_EPOLL=1` does the same
    /// without a config change).
    pub event_loop: bool,
    /// Event-loop shards (0 = `min(available cores, 4)`).
    pub loop_shards: usize,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout_ms: u64,
    /// A request whose bytes stall longer than this mid-read is answered
    /// 408 and the connection closed.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            dispatchers: 0,
            queue_capacity: 32,
            max_batch: 64,
            max_mega_batch: 1024,
            max_body_bytes: 1 << 20,
            default_deadline_ms: 30_000,
            max_connections: 128,
            cache_entries: None,
            event_loop: true,
            loop_shards: 0,
            idle_timeout_ms: 30_000,
            read_timeout_ms: 5_000,
        }
    }
}

/// The dispatcher's answer to one admitted request.
pub(crate) enum Reply {
    /// 200: the response payload (cache-shared when a single stored
    /// entry covers the whole body).
    Done(Body),
    /// 504: the queue-wait deadline passed before execution started.
    Expired,
    /// 500: a scenario panicked (message included).
    Failed(String),
}

/// One `POST /v1/run` (or `/v1/batch`) slot, resolved against the result
/// cache at admission time.
pub(crate) enum RunSlot {
    /// Served from the cache: the stored JSONL line (newline included).
    Hit(Arc<Vec<u8>>),
    /// Must execute; the rendered line is inserted under `key` after.
    Miss { key: u64, scenario: Scenario },
}

/// What the dispatcher executes for one admitted request.
pub(crate) enum Work {
    /// A scenario batch, answered with summary JSONL stitched from
    /// cache hits and fresh runs in request order. `batch` routes the
    /// misses through the columnar `BatchEngine` lanes (`/v1/batch`).
    Run { slots: Vec<RunSlot>, batch: bool },
    /// `POST /v1/trace`: one scenario, answered with a trace/v2 document
    /// — the spec's header line followed by its full per-round NDJSON
    /// trace — cached whole under `key`.
    Trace {
        key: u64,
        scenario: Box<Scenario>,
        /// The pre-rendered trace/v2 header line (newline included).
        header: String,
    },
}

/// One admitted request.
pub(crate) struct Job {
    work: Work,
    /// Queue-wait deadline: checked when the dispatcher *pops* the job; a
    /// job that starts executing is never aborted mid-run.
    deadline: Instant,
    /// Admission time, feeding the queue-wait phase histogram.
    admitted: Instant,
    reply: Replier,
}

/// Where a dispatcher delivers its [`Reply`]: a blocking channel (the
/// threaded engine parks its handler on `recv`) or an event-loop shard's
/// inbox (slot + generation guard against connection reuse).
pub(crate) enum Replier {
    Sync(mpsc::SyncSender<Reply>),
    #[cfg(target_os = "linux")]
    Event {
        shard: Arc<crate::event_loop::ShardHandle>,
        slot: usize,
        generation: u64,
    },
}

impl Replier {
    fn send(self, reply: Reply) {
        match self {
            // A handler that gave up is gone with its receiver; ignore.
            Replier::Sync(tx) => drop(tx.send(reply)),
            #[cfg(target_os = "linux")]
            Replier::Event {
                shard,
                slot,
                generation,
            } => shard.push_reply(slot, generation, reply),
        }
    }
}

/// Response context carried from admission to reply delivery.
pub(crate) struct Pending {
    pub(crate) chunked: bool,
    /// `x-gather-cache` value for the completed response (`None` when
    /// the cache is disabled).
    pub(crate) cache_tag: Option<&'static str>,
    pub(crate) started: Instant,
}

/// What routing produced: an immediate response (errors, metrics, cache
/// hits) or an admitted job whose response arrives via the [`Replier`].
pub(crate) enum Routed {
    Now(Response),
    Queued(Pending),
}

pub(crate) struct Inner {
    pub(crate) config: ServeConfig,
    queue: Sharded<Job>,
    pool: WorkerPool,
    /// Per-job pool histograms (the pool is built instrumented; recording
    /// is a few relaxed atomic increments per job).
    pool_obs: Arc<PoolObs>,
    cache: ResultCache,
    metrics: ServerMetrics,
    pub(crate) shutting_down: AtomicBool,
}

impl Inner {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// How the acceptor disposes of new connections.
enum AcceptMode {
    /// Spawn one handler thread per connection.
    Threaded,
    /// Distribute round-robin to the event-loop shards.
    #[cfg(target_os = "linux")]
    Epoll(Vec<Arc<crate::event_loop::ShardHandle>>),
}

/// A running scenario service. Dropping (or calling
/// [`shutdown`](Server::shutdown)) performs the full graceful-drain
/// sequence.
pub struct Server {
    inner: Arc<Inner>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    acceptor: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    shards: Vec<(Arc<crate::event_loop::ShardHandle>, JoinHandle<()>)>,
    engine: &'static str,
    port: u16,
}

impl Server {
    /// Binds and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let port = listener.local_addr()?.port();
        let workers = if config.workers == 0 {
            pool::default_threads()
        } else {
            config.workers
        };
        let dispatchers = if config.dispatchers == 0 {
            workers
        } else {
            config.dispatchers
        };
        let cache_entries = config.cache_entries.unwrap_or_else(cache::default_entries);
        let pool_obs = Arc::new(PoolObs::default());
        let inner = Arc::new(Inner {
            queue: Sharded::new(dispatchers, config.queue_capacity),
            pool: WorkerPool::new_instrumented(workers, Arc::clone(&pool_obs)),
            pool_obs,
            cache: ResultCache::new(cache_entries),
            metrics: ServerMetrics::default(),
            shutting_down: AtomicBool::new(false),
            config,
        });
        let dispatcher_handles = (0..dispatchers)
            .map(|lane| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("gather-serve-dispatch-{lane}"))
                    .spawn(move || dispatcher_loop(&inner, lane))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));

        // Engine selection: epoll where available unless opted out; any
        // failure to stand the shards up (exotic kernels, fd limits)
        // falls back to the threaded engine instead of failing startup.
        let mut engine = "threaded";
        let mut mode = AcceptMode::Threaded;
        #[cfg(target_os = "linux")]
        let mut shards = Vec::new();
        #[cfg(target_os = "linux")]
        if inner.config.event_loop && std::env::var_os("GATHER_NO_EPOLL").is_none() {
            let shard_count = if inner.config.loop_shards == 0 {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(4)
            } else {
                inner.config.loop_shards
            };
            if let Ok(spawned) = crate::event_loop::spawn_shards(&inner, shard_count, &active) {
                mode = AcceptMode::Epoll(spawned.iter().map(|(h, _)| Arc::clone(h)).collect());
                shards = spawned;
                engine = "epoll";
            }
        }

        let acceptor = {
            let inner = Arc::clone(&inner);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("gather-serve-accept".to_string())
                .spawn(move || acceptor_loop(&inner, &listener, &conns, &active, &mode))?
        };
        Ok(Server {
            inner,
            conns,
            acceptor: Some(acceptor),
            dispatchers: dispatcher_handles,
            #[cfg(target_os = "linux")]
            shards,
            engine,
            port,
        })
    }

    /// The bound port (useful with an ephemeral bind).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// `host:port` of the listening socket.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// The server's counters (also served at `GET /metrics`).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.inner.metrics
    }

    /// Result-cache counter snapshot.
    pub fn cache_counters(&self) -> cache::CacheCounters {
        self.inner.cache.counters()
    }

    /// The serving engine in use: `"epoll"` (readiness event loop) or
    /// `"threaded"` (thread per connection). Lets smoke gates skip
    /// epoll-specific assertions where the event loop is unavailable.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// Gracefully shuts down: refuse new work, drain admitted work, join
    /// every thread. Blocks until the drain completes.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Ordering matters: flag first (new POSTs answer 503 and idle
        // connections begin closing), then stop accepting, then close the
        // queue so the dispatchers drain admitted jobs and exit, then the
        // pool (nothing submits to it once the dispatchers are gone), and
        // only then join shards/handlers — they unblock once the drained
        // replies are written out.
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.inner.queue.close();
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
        self.inner.pool.shutdown();
        #[cfg(target_os = "linux")]
        {
            for (handle, _) in &self.shards {
                handle.wake_now();
            }
            for (_, join) in self.shards.drain(..) {
                let _ = join.join();
            }
        }
        let handlers = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Nanoseconds since `since`, saturated into a histogram-friendly `u64`.
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

fn dispatcher_loop(inner: &Inner, lane: usize) {
    while let Some(job) = inner.queue.pop(lane) {
        inner
            .metrics
            .phases
            .queue_wait
            .record(elapsed_ns(job.admitted));
        if Instant::now() >= job.deadline {
            inner.metrics.expired.fetch_add(1, Ordering::Relaxed);
            job.reply.send(Reply::Expired);
            continue;
        }
        // A panicking scenario (an invariant violation, which validated
        // specs should never trigger) must cost that request a 500, not
        // the whole service — the pool drains and stays usable for the
        // next job, and dispatcher-inline runs recover their thread-local
        // engine scratch on the next use.
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(inner, job.work)));
        inner.metrics.phases.execute.record(elapsed_ns(started));
        let reply = match outcome {
            Ok(body) => {
                inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
                Reply::Done(body)
            }
            Err(payload) => {
                inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Reply::Failed(panic_message(payload))
            }
        };
        job.reply.send(reply);
    }
}

/// Runs one job's cache misses and renders the 200 body, stitching hits
/// and fresh lines in request order.
fn execute(inner: &Inner, work: Work) -> Body {
    match work {
        Work::Run { slots, batch } => {
            let mut parts: Vec<Option<Arc<Vec<u8>>>> = Vec::with_capacity(slots.len());
            let mut positions = Vec::new();
            let mut keys = Vec::new();
            let mut misses = Vec::new();
            for slot in slots {
                match slot {
                    RunSlot::Hit(line) => parts.push(Some(line)),
                    RunSlot::Miss { key, scenario } => {
                        positions.push(parts.len());
                        parts.push(None);
                        keys.push(key);
                        misses.push(scenario);
                    }
                }
            }
            let runs = if batch {
                // `/v1/batch`: lockstep columnar lanes, bit-identical to
                // sequential runs by the BatchEngine contract.
                crate::batch_api::run_batch_lanes(&inner.pool, &misses)
            } else if misses.len() == 1 {
                // Inline on this long-lived dispatcher thread: the
                // runner's thread-local EngineParts recycling applies
                // here exactly as on a pool worker, and the single-job
                // hot path skips the pool handoff entirely.
                vec![misses[0].run()]
            } else {
                inner.pool.map(&misses, |s| s.run())
            };
            for (i, metrics) in runs.iter().enumerate() {
                inner.metrics.record_run(metrics);
                let mut line = metrics.to_jsonl();
                line.push('\n');
                let line = Arc::new(line.into_bytes());
                inner.cache.insert(keys[i], Arc::clone(&line));
                parts[positions[i]] = Some(line);
            }
            stitch(parts)
        }
        Work::Trace {
            key,
            scenario,
            header,
        } => {
            // Inline like single-scenario runs; the round lines are
            // `Trace::to_jsonl` verbatim after the spec's trace/v2 header
            // — the bit-identity contract extends to streamed traces
            // (DESIGN.md §11) and therefore to their cached copies, and
            // both wire forms share this one execution path so their
            // documents cannot diverge.
            let (metrics, jsonl) = scenario.run_traced();
            inner.metrics.record_run(&metrics);
            let mut document = header;
            document.push_str(&jsonl);
            let body = Arc::new(document.into_bytes());
            inner.cache.insert(key, Arc::clone(&body));
            Body::Shared(body)
        }
    }
}

/// Concatenates resolved slots into a body; a single slot is served
/// zero-copy straight from its (cache-shared) line.
fn stitch(mut parts: Vec<Option<Arc<Vec<u8>>>>) -> Body {
    if parts.len() == 1 {
        return Body::Shared(parts.pop().flatten().expect("slot resolved"));
    }
    let total = parts
        .iter()
        .map(|p| p.as_ref().map_or(0, |line| line.len()))
        .sum();
    let mut body = Vec::with_capacity(total);
    for part in parts {
        body.extend_from_slice(&part.expect("slot resolved"));
    }
    Body::Owned(body)
}

fn acceptor_loop(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    active: &Arc<AtomicUsize>,
    mode: &AcceptMode,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    #[cfg(target_os = "linux")]
    let mut next_shard = 0usize;
    while !inner.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::Relaxed) >= inner.config.max_connections {
                    // Best-effort refusal: a fresh socket's send buffer
                    // always has room for ~100 bytes.
                    let mut refused =
                        Response::error(503, "connection_limit", "connection limit reached");
                    refused.close = true;
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(false);
                    let _ = refused.write_to(&mut stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                match mode {
                    AcceptMode::Threaded => {
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        active.fetch_add(1, Ordering::Relaxed);
                        let handler = {
                            let inner = Arc::clone(inner);
                            let active = Arc::clone(active);
                            std::thread::Builder::new()
                                .name("gather-serve-conn".to_string())
                                .spawn(move || {
                                    let _ = connection_loop(&inner, stream);
                                    active.fetch_sub(1, Ordering::Relaxed);
                                })
                        };
                        match handler {
                            Ok(handle) => {
                                let mut guard = conns.lock().unwrap_or_else(|e| e.into_inner());
                                guard.retain(|h| !h.is_finished());
                                guard.push(handle);
                            }
                            Err(_) => {
                                active.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                    }
                    #[cfg(target_os = "linux")]
                    AcceptMode::Epoll(handles) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        active.fetch_add(1, Ordering::Relaxed);
                        handles[next_shard % handles.len()].push_conn(stream);
                        next_shard = next_shard.wrapping_add(1);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Maps a request-parse failure onto its error response, counting it.
/// `None` for non-timeout transport errors (close without a response).
pub(crate) fn http_error_response(inner: &Inner, err: &HttpError) -> Option<Response> {
    let malformed = || {
        inner
            .metrics
            .rejected_malformed
            .fetch_add(1, Ordering::Relaxed);
    };
    match err {
        HttpError::Malformed(msg) => {
            malformed();
            Some(Response::error(400, "malformed_request", msg))
        }
        HttpError::TooLarge(what) => {
            malformed();
            Some(Response::error(413, "too_large", what))
        }
        HttpError::HeadersTooLarge => {
            malformed();
            Some(Response::error(
                431,
                "headers_too_large",
                "request head exceeds the total header-byte limit",
            ))
        }
        HttpError::Io(e) if is_timeout(e) => Some(Response::error(
            408,
            "read_timeout",
            "request read deadline exceeded",
        )),
        HttpError::Io(_) => None,
    }
}

/// The thread-per-connection engine's handler loop (also the portable
/// fallback when epoll is unavailable or disabled).
fn connection_loop(inner: &Inner, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let idle_timeout = Duration::from_millis(inner.config.idle_timeout_ms);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    loop {
        // Idle-poll between requests: wait for the first byte with a short
        // timeout so shutdown closes idle keep-alive connections promptly
        // and the idle bound is enforced. `fill_buf` consumes nothing, so
        // a timeout here loses no data.
        let idle_since = Instant::now();
        loop {
            if inner.is_shutting_down() {
                return Ok(());
            }
            if idle_since.elapsed() >= idle_timeout {
                return Ok(()); // idle bound: close silently
            }
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // clean EOF
                Ok(_) => break,
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        // A request has begun: switch to the slow-client budget for the
        // rest of its bytes.
        stream.set_read_timeout(Some(Duration::from_millis(inner.config.read_timeout_ms)))?;
        let outcome = http::read_request(&mut reader, inner.config.max_body_bytes);
        stream.set_read_timeout(Some(IDLE_POLL))?;
        let (mut response, keep_alive) = match outcome {
            Ok(None) => return Ok(()),
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive;
                let (tx, rx) = mpsc::sync_channel(1);
                let response = match route(inner, &request, Replier::Sync(tx)) {
                    Routed::Now(response) => response,
                    // The dispatcher replies to every admitted job (drain
                    // semantics), so a plain recv is safe; a dead
                    // dispatcher surfaces as a channel disconnect.
                    Routed::Queued(pending) => match rx.recv() {
                        Ok(reply) => reply_to_response(inner, &pending, reply),
                        Err(_) => {
                            Response::error(500, "dispatcher_unavailable", "dispatcher unavailable")
                        }
                    },
                };
                (response, keep_alive)
            }
            Err(err) => match http_error_response(inner, &err) {
                Some(response) => (response, false),
                None => {
                    let HttpError::Io(e) = err else {
                        unreachable!()
                    };
                    return Err(e);
                }
            },
        };
        if !keep_alive {
            response.close = true;
        }
        response.write_to(&mut writer)?;
        if response.close {
            return Ok(());
        }
    }
}

/// Builds the final response for a delivered [`Reply`] (shared by both
/// engines so they frame identically).
pub(crate) fn reply_to_response(inner: &Inner, pending: &Pending, reply: Reply) -> Response {
    match reply {
        Reply::Done(body) => {
            inner.metrics.record_latency(pending.started.elapsed());
            let mut response = Response::new(200, "application/x-ndjson", body);
            response.chunked = pending.chunked;
            response.cache = pending.cache_tag;
            response
        }
        Reply::Expired => Response::error(
            504,
            "deadline_exceeded",
            "queue-wait deadline exceeded before execution started",
        ),
        Reply::Failed(msg) => Response::error(
            500,
            "execution_panicked",
            &format!("scenario execution panicked: {msg}"),
        ),
    }
}

pub(crate) fn route(inner: &Inner, request: &Request, replier: Replier) -> Routed {
    // Every endpoint lives under `/v1`; anything else is a 404.
    let path = request.path.strip_prefix("/v1").unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Routed::Now(Response::new(200, "text/plain", "ok\n")),
        ("GET", "/metrics") => {
            let counters = inner.cache.counters();
            let cache_view = (!inner.cache.disabled()).then_some(&counters);
            Routed::Now(Response::new(
                200,
                "text/plain; version=0.0.4",
                inner.metrics.render(
                    inner.queue.len(),
                    inner.queue.capacity(),
                    Some(&inner.pool_obs),
                    cache_view,
                ),
            ))
        }
        ("POST", "/run") => run_route(inner, request, replier, false),
        ("POST", "/batch") => crate::batch_api::batch_route(inner, request, replier),
        ("POST", "/trace") => trace_route(inner, request, replier),
        (_, "/trace") => Routed::Now(Response::error(
            405,
            "method_not_allowed",
            "method not allowed (traces come from POST /v1/trace)",
        )),
        (_, "/batch") => Routed::Now(Response::error(
            405,
            "method_not_allowed",
            "method not allowed (scenario batches go to POST /v1/batch)",
        )),
        (_, "/run") | (_, "/metrics") | (_, "/healthz") => Routed::Now(Response::error(
            405,
            "method_not_allowed",
            "method not allowed (scenarios go to POST /v1/run)",
        )),
        _ => Routed::Now(Response::error(
            404,
            "not_found",
            "unknown path; try POST /v1/run, POST /v1/batch, POST /v1/trace, \
             GET /v1/metrics, GET /v1/healthz",
        )),
    }
}

/// Shared `POST /v1/run` / `POST /v1/batch` admission: parse, validate,
/// resolve each spec against the result cache, answer all-hit requests
/// immediately, queue the rest.
pub(crate) fn run_route(inner: &Inner, request: &Request, replier: Replier, batch: bool) -> Routed {
    let started = Instant::now();
    if inner.is_shutting_down() {
        inner
            .metrics
            .rejected_shutdown
            .fetch_add(1, Ordering::Relaxed);
        return Routed::Now(Response::error(
            503,
            "shutting_down",
            "server is shutting down",
        ));
    }
    let reject = |msg: &str| {
        inner
            .metrics
            .rejected_malformed
            .fetch_add(1, Ordering::Relaxed);
        Routed::Now(Response::error(400, "bad_spec", msg))
    };
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return reject("body is not UTF-8"),
    };
    let max_batch = if batch {
        inner.config.max_mega_batch
    } else {
        inner.config.max_batch
    };
    let parsed = match RunRequest::parse(body, max_batch) {
        Ok(parsed) => parsed,
        Err(e) => return reject(&e),
    };
    let mut slots = Vec::with_capacity(parsed.scenarios.len());
    let mut misses = 0usize;
    let mut min_age = u64::MAX;
    for (i, spec) in parsed.scenarios.iter().enumerate() {
        let key = cache::spec_key(spec, KeyKind::Run);
        match inner.cache.lookup(key) {
            Some(hit) => {
                min_age = min_age.min(hit.age_secs);
                slots.push(RunSlot::Hit(hit.payload));
            }
            // A payload only enters the cache after a successful run, so
            // every hit's spec already passed `to_scenario` — validation
            // is only needed (and only possible to fail) on misses.
            None => match spec.to_scenario() {
                Ok(scenario) => {
                    misses += 1;
                    slots.push(RunSlot::Miss { key, scenario });
                }
                Err(e) => return reject(&format!("scenario[{i}]: {e}")),
            },
        }
    }
    inner.metrics.phases.parse.record(elapsed_ns(started));
    if misses == 0 {
        // Every slot was cached: answer at admission time — no queue slot,
        // no dispatcher, no pool. Completion counters and the latency ring
        // still see the request; the admission counter does not (nothing
        // was admitted to the queue).
        inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
        inner.metrics.record_latency(started.elapsed());
        let mut response = Response::new(200, "application/x-ndjson", stitch_hits(slots));
        response.cache = Some("hit");
        response.age = Some(min_age);
        return Routed::Now(response);
    }
    let deadline_ms = parsed
        .deadline_ms
        .unwrap_or(inner.config.default_deadline_ms);
    admit(
        inner,
        Work::Run { slots, batch },
        deadline_ms,
        Pending {
            chunked: false,
            cache_tag: (!inner.cache.disabled()).then_some("miss"),
            started,
        },
        replier,
    )
}

/// Concatenates all-hit slots (zero-copy for a single spec).
fn stitch_hits(mut slots: Vec<RunSlot>) -> Body {
    let line_of = |slot: RunSlot| match slot {
        RunSlot::Hit(line) => line,
        RunSlot::Miss { .. } => unreachable!("all-hit stitching"),
    };
    if slots.len() == 1 {
        return Body::Shared(line_of(slots.pop().expect("one slot")));
    }
    let mut body = Vec::new();
    for slot in slots {
        body.extend_from_slice(&line_of(slot));
    }
    Body::Owned(body)
}

/// `POST /v1/trace` admission: the body is the same JSON `ScenarioSpec`
/// as `/v1/run`'s (one `from_json` validator).
fn trace_route(inner: &Inner, request: &Request, replier: Replier) -> Routed {
    let started = Instant::now();
    if inner.is_shutting_down() {
        inner
            .metrics
            .rejected_shutdown
            .fetch_add(1, Ordering::Relaxed);
        return Routed::Now(Response::error(
            503,
            "shutting_down",
            "server is shutting down",
        ));
    }
    let reject = |msg: &str| {
        inner
            .metrics
            .rejected_malformed
            .fetch_add(1, Ordering::Relaxed);
        Routed::Now(Response::error(400, "bad_spec", msg))
    };
    let parsed = match std::str::from_utf8(&request.body) {
        Ok(body) => crate::json::Json::parse(body)
            .map_err(|e| format!("invalid JSON: {e}"))
            .and_then(|v| ScenarioSpec::from_json(&v)),
        Err(_) => Err("body is not UTF-8".to_string()),
    };
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => return reject(&e),
    };
    if spec.max_rounds > TRACE_MAX_ROUNDS {
        return reject(&format!(
            "\"max_rounds\" must be <= {TRACE_MAX_ROUNDS} for a traced run \
             (every round becomes a response line), got {}",
            spec.max_rounds
        ));
    }
    let key = cache::spec_key(&spec, KeyKind::Trace);
    if let Some(hit) = inner.cache.lookup(key) {
        inner.metrics.phases.parse.record(elapsed_ns(started));
        inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
        inner.metrics.record_latency(started.elapsed());
        let mut response = Response::new(200, "application/x-ndjson", Body::Shared(hit.payload));
        response.chunked = true;
        response.cache = Some("hit");
        response.age = Some(hit.age_secs);
        return Routed::Now(response);
    }
    let scenario = match spec.to_scenario() {
        Ok(scenario) => Box::new(scenario),
        Err(e) => return reject(&e),
    };
    let header = spec.trace_header();
    inner.metrics.phases.parse.record(elapsed_ns(started));
    admit(
        inner,
        Work::Trace {
            key,
            scenario,
            header,
        },
        inner.config.default_deadline_ms,
        Pending {
            chunked: true,
            cache_tag: (!inner.cache.disabled()).then_some("miss"),
            started,
        },
        replier,
    )
}

/// Shared admission tail: push the job (wait-free — a full queue answers
/// 429 *now* instead of buffering unboundedly) and hand back the pending
/// context; the dispatcher's reply arrives through `replier`.
fn admit(
    inner: &Inner,
    work: Work,
    deadline_ms: u64,
    pending: Pending,
    replier: Replier,
) -> Routed {
    let job = Job {
        work,
        deadline: pending.started + Duration::from_millis(deadline_ms),
        admitted: Instant::now(),
        reply: replier,
    };
    match inner.queue.try_push(job) {
        Err(Rejected::Full(_)) => {
            inner.metrics.rejected_full.fetch_add(1, Ordering::Relaxed);
            let mut response = Response::error(429, "queue_full", "admission queue is full");
            response.retry_after = Some(1);
            Routed::Now(response)
        }
        Err(Rejected::Closed(_)) => {
            inner
                .metrics
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            Routed::Now(Response::error(
                503,
                "shutting_down",
                "server is shutting down",
            ))
        }
        Ok(()) => {
            inner.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            Routed::Queued(pending)
        }
    }
}
