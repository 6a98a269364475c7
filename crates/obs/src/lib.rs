//! gather-obs: pure-std observability for the gathering workspace.
//!
//! Three primitives, shared by the simulator (`gather-sim`), the batch
//! engine (`gather-bench`) and the scenario service (`gather-serve`):
//!
//! * [`Histogram`] — a log-bucketed (HDR-style) concurrent histogram of
//!   `u64` samples. Recording is a handful of relaxed atomic increments
//!   (lock-free, allocation-free, safe from any thread); quantiles are
//!   read back with a bounded relative error of 1/16 (6.25%).
//! * [`PhaseTimer`] — a monotonic lap timer that attributes wall-clock
//!   time to the phases of one engine round ([`Phase`]); laps accumulate
//!   into a [`PhaseNanos`] array. A disabled timer never reads the clock.
//! * [`SpanSink`] — a fixed-capacity ring of per-round [`RoundSpans`]
//!   records. Pushing never allocates after construction (the ring
//!   overwrites its oldest entry and counts the drop); the JSONL export
//!   formats *at export time only*, keeping the hot path free of
//!   formatting and heap traffic.
//!
//! [`EngineObs`] bundles a sink plus running phase totals into the
//! handle `gather_sim::engine::EngineBuilder::observe` accepts. The `enabled`
//! flag is runtime data, not a cargo feature, so a single binary can
//! measure all three states — instrumentation absent, attached-but-
//! disabled, and enabled — which is exactly what the `b9_obs` bench's
//! ≤2% disabled-overhead gate needs.
//!
//! Everything here is dependency-free `std` (hermetic-build policy,
//! DESIGN.md §8).

pub mod hist;
pub mod span;

pub use hist::Histogram;
pub use span::{EngineObs, Phase, PhaseNanos, PhaseTimer, RoundSpans, SpanSink, NUM_PHASES};
