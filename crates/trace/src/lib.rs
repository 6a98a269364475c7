//! Trace corpus subsystem: parsing, analytics, diffing and replay of
//! the engine's NDJSON round traces.
//!
//! The pipeline (each stage is one module, the `trace-tool` binary
//! drives them):
//!
//! * [`capture`] — stream trace/v2 documents from the real service
//!   (`POST /v1/trace` against an in-process server) into a corpus file;
//! * [`corpus`] — parse v1/v2 NDJSON into a columnar in-memory
//!   [`Corpus`] via a pinned-schema fast scanner;
//! * [`analytics`] — per-execution class-transition graphs, the
//!   potential-monotonicity audit (Lemmas 5.3–5.9), phase durations and
//!   convergence slopes;
//! * [`diff`] — baseline-vs-candidate regression detection with
//!   configurable tolerances;
//! * [`replay`] — re-simulate a captured spec + seed, cross-check the
//!   regenerated trace byte-for-byte, and render terminal frames
//!   (`gather_viz::render_replay`) or SVG trajectories.
//!
//! Everything is deterministic end to end: same corpus in, same report
//! bytes out — which is what lets `scripts/check.sh` gate analyzer
//! output against the committed `results/trace_analytics.json` baseline.

pub mod analytics;
pub mod capture;
pub mod corpus;
pub mod diff;
pub mod replay;

pub use analytics::{
    analyze_corpus, analyze_execution, audit_monotonicity, class_rank, legal_transition, potential,
    CorpusReport, ExecutionReport, TransitionEdge, Violation,
};
pub use capture::{capture_corpus, six_class_specs, SIX_CLASS_MATRIX};
pub use corpus::{Corpus, Execution, TraceHeader};
pub use diff::{diff_reports, DiffReport, DiffTolerance, ExecutionDelta};
pub use replay::{replay_execution, replay_svg, Replay};
