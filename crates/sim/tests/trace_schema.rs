//! Golden pin of the per-round NDJSON trace schema.
//!
//! The trace line format is an external contract: it is what
//! `POST /v1/trace` streams to clients and what `b9_obs` audits, so its
//! key set, key order and encoding must not drift silently. A change
//! here is an API change — update the consumers (service docs, b9_obs'
//! `TRACE_SCHEMA`) in the same commit, never casually.

use gather_config::Class;
use gather_sim::prelude::*;
use gather_sim::trace::{v2_header, RoundRecord, TRACE_SCHEMA_V2};

/// The pinned depth-1 key sequence of one trace line.
const TRACE_SCHEMA: [&str; 10] = [
    "round",
    "class",
    "distinct",
    "max_mult",
    "activated",
    "crashed",
    "travel",
    "classifications",
    "cache_hits",
    "weiszfeld_iters",
];

/// Depth-1 object keys of a JSON line, in order (string-aware scanner —
/// keys inside nested arrays/objects are skipped).
fn json_keys(line: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut chars = line.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.saturating_sub(1),
            '"' => {
                let start = at + 1;
                let mut end = start;
                for (j, cj) in chars.by_ref() {
                    if cj == '"' {
                        end = j;
                        break;
                    }
                }
                if depth == 1 && matches!(chars.peek(), Some((_, ':'))) {
                    keys.push(line[start..end].to_string());
                }
            }
            _ => {}
        }
    }
    keys
}

#[test]
fn golden_line_is_byte_exact() {
    let record = RoundRecord {
        round: 3,
        class: Class::QuasiRegular,
        distinct: 5,
        max_mult: 2,
        activated: vec![0, 2, 4],
        crashed: vec![1],
        travel: 0.25,
        classifications: 7,
        cache_hits: 4,
        weiszfeld_iters: 11,
    };
    assert_eq!(
        record.to_jsonl(),
        "{\"round\":3,\"class\":\"QR\",\"distinct\":5,\"max_mult\":2,\
         \"activated\":[0,2,4],\"crashed\":[1],\"travel\":0.25,\
         \"classifications\":7,\"cache_hits\":4,\"weiszfeld_iters\":11}"
    );
}

/// The pinned depth-1 key sequence of the trace/v2 header line.
const HEADER_SCHEMA: [&str; 4] = ["schema", "spec", "seed", "engine"];

/// Golden pin of the trace/v2 document header. A v2 document is this
/// header followed by unchanged v1 round lines, so only the header is
/// new surface — its key set, key order and encoding are an external
/// contract exactly like the round lines above (`POST /v1/trace` and the
/// `gather-trace` corpus parser both rely on these bytes).
#[test]
fn golden_v2_header_is_byte_exact() {
    assert_eq!(TRACE_SCHEMA_V2, "trace/v2");
    let header = v2_header("{\"workload\":\"class\",\"n\":8}", 7, "sync");
    assert_eq!(
        header,
        "{\"schema\":\"trace/v2\",\"spec\":{\"workload\":\"class\",\"n\":8},\
         \"seed\":7,\"engine\":\"sync\"}"
    );
    assert_eq!(json_keys(&header), HEADER_SCHEMA.to_vec());
    // Nested spec keys stay invisible at depth 1 — a v2-aware consumer
    // can dispatch on the first key alone.
    assert!(header.starts_with("{\"schema\":\"trace/v2\""));
    let async_header = v2_header("{}", 0, "async");
    assert!(async_header.ends_with("\"engine\":\"async\"}"));
    assert_eq!(json_keys(&async_header), HEADER_SCHEMA.to_vec());
}

struct GoToCentroid;
impl Algorithm for GoToCentroid {
    fn name(&self) -> &'static str {
        "centroid"
    }
    fn destination(&self, snap: &Snapshot) -> gather_geom::Point {
        gather_geom::centroid(snap.config().points())
    }
}

#[test]
fn every_streamed_line_matches_the_pinned_schema() {
    let initial = gather_workloads::of_class(Class::Asymmetric, 8, 5);
    let mut engine = Engine::builder(initial)
        .algorithm(GoToCentroid)
        .scheduler(RandomSubsets::new(0.5, 20, 5))
        .crash_plan(RandomCrashes::new(1, 0.05, 7))
        .check_invariants(false)
        .build();
    let outcome = engine.run(500);
    assert!(outcome.rounds() > 0);
    let jsonl = engine.trace().to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert_eq!(
            json_keys(line),
            TRACE_SCHEMA.to_vec(),
            "trace schema drift in {line:?}"
        );
    }
}
