//! gather-serve: a pure-std batch scenario service over the simulator.
//!
//! Exposes the crash-fault gathering simulator (`gather-sim` +
//! `gather-workloads`, fanned out over `gather-bench`'s persistent
//! [`WorkerPool`]) as a multi-threaded TCP service speaking minimal
//! HTTP/1.1. The design mirrors the paper's wait-free stance at the
//! serving layer: admission is immediate-or-rejected (bounded queue,
//! 429 + `Retry-After` backpressure), never unbounded buffering, and
//! graceful shutdown drains every admitted job before the last thread
//! exits.
//!
//! Two serving engines share one routing/admission core: a
//! readiness-driven sharded epoll event loop (Linux, the default) and a
//! portable thread-per-connection engine (everywhere else, or with
//! `GATHER_NO_EPOLL=1`). Scenario execution is deterministic, so
//! completed payloads are cached byte-exact under canonical spec keys
//! and repeated requests are answered at admission time.
//!
//! Module map:
//!
//! * [`json`] — dependency-free JSON value parser used by the request path;
//! * [`http`] — HTTP/1.1 request framing (blocking and incremental) and
//!   response writing with limits;
//! * [`spec`] — the scenario-spec request model, strictly validated and
//!   mapped onto `gather-workloads` / `gather-bench::factory` names;
//! * [`queue`] — the bounded wait-free-admission queue and its sharded
//!   multi-lane variant;
//! * [`cache`] — the deterministic result cache (canonical FNV spec keys,
//!   lock-striped LRU shards);
//! * [`metrics`] — server counters, run aggregates and the `/metrics`
//!   text exposition;
//! * [`server`] — acceptor / engines / dispatcher lanes and shutdown
//!   sequencing;
//! * [`batch_api`] — `POST /v1/batch`, the amortised mega-batch endpoint
//!   over lockstep `BatchEngine` lanes;
//! * [`event_loop`] — the epoll engine (Linux only);
//! * [`client`] — a tiny blocking client shared by the bench, the smoke
//!   gate and the tests.
//!
//! Determinism contract: `POST /v1/run` (and `/v1/batch`) responses are
//! byte-identical to serialising the same scenario specs run in-process,
//! whether computed or served from the cache (see
//! `crates/serve/tests/service_roundtrip.rs`,
//! `crates/serve/tests/service_cache.rs` and the `b8_service` bench,
//! which all assert it).
//!
//! [`WorkerPool`]: gather_bench::pool::WorkerPool

pub mod batch_api;
pub mod cache;
pub mod client;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod spec;

pub use client::{Client, ClientResponse};
pub use server::{ServeConfig, Server, TRACE_MAX_ROUNDS};
pub use spec::{RunRequest, ScenarioSpec};
