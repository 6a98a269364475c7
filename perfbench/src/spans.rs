//! In-memory span log for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer's public functions: name, start, end, parent span and the
//! scenario or request the call worked on. Spans stay in memory until the
//! run ends and are then written out as JSON lines. The untraced run
//! carries no log at all (`Option<&SpanLog>` is `None`), so end-to-end
//! numbers never pay for tracing.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Scenario, chunk, run or request id the span worked on.
    pub subject: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A thread-safe, append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and records it. `f` receives the new span's
    /// id so it can parent spans of its own.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        subject: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.new_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics while holding the span log")
            .push(Span {
                id,
                parent,
                name,
                subject,
                start_ns,
                end_ns,
            });
        out
    }

    /// A fresh span id, for a span recorded later with [`SpanLog::record`].
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id` with bounds the caller measured itself.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        subject: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("no thread panics while holding the span log")
            .push(Span {
                id,
                parent,
                name,
                subject,
                start_ns: at(start),
                end_ns: at(end),
            });
    }

    /// Every span as one JSON object per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span log")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 96);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{parent},\"subject\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.subject, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out
    }
}

/// Runs `f` inside a span when a log is present, and plainly otherwise.
/// `f` receives the span id (`None` when untraced) for its children.
pub fn span<R>(
    log: Option<&SpanLog>,
    name: &'static str,
    parent: Option<u64>,
    subject: u64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match log {
        Some(log) => log.span(name, parent, subject, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let log = SpanLog::default();
        let inner = log.span("outer", None, 7, |outer| {
            log.span("inner", Some(outer), 8, |_| 42)
        });
        assert_eq!(inner, 42);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"span\":\"outer\",\"id\":1,\"parent\":null,\"subject\":7"));
        assert!(lines[1].starts_with("{\"span\":\"inner\",\"id\":2,\"parent\":1,\"subject\":8"));
    }

    #[test]
    fn untraced_calls_record_nothing() {
        assert_eq!(span(None, "x", None, 0, |id| id), None);
    }
}
