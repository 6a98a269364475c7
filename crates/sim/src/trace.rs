//! Execution traces: per-round records for analysis and experiments.

use gather_config::Class;
use std::collections::BTreeMap;

/// The versioned trace-document schema identifier carried by the header
/// line ([`v2_header`]). A *v2 trace document* is this header followed by
/// the unchanged v1 round lines ([`RoundRecord::write_jsonl`]) — the
/// header adds provenance (spec, seed, producing engine) without touching
/// the round-line encoding, so v1 consumers that skip unknown lines keep
/// working and the round lines stay byte-identical to a bare
/// [`Trace::to_jsonl`]. Pinned by `crates/sim/tests/trace_schema.rs`.
pub const TRACE_SCHEMA_V2: &str = "trace/v2";

/// Serialises the trace/v2 header line (newline excluded) in the fixed
/// field order `schema, spec, seed, engine`.
///
/// `spec_json` is inserted verbatim as the `spec` member and must already
/// be a canonical JSON object (the service uses `ScenarioSpec::to_json`);
/// `engine` names the producer, `"sync"` (round-based) or `"async"`
/// (event-heap). Deterministic and byte-exact like the round lines, so
/// the service's trace responses stay cacheable and bit-comparable.
pub fn write_v2_header(out: &mut String, spec_json: &str, seed: u64, engine: &str) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"schema\":\"{TRACE_SCHEMA_V2}\",\"spec\":{spec_json},\"seed\":{seed},\"engine\":\"{engine}\"}}"
    );
}

/// [`write_v2_header`] into a fresh `String`.
pub fn v2_header(spec_json: &str, seed: u64, engine: &str) -> String {
    let mut out = String::with_capacity(spec_json.len() + 64);
    write_v2_header(&mut out, spec_json, seed, engine);
    out
}

/// What happened in one simulated round.
#[derive(Debug, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u64,
    /// The configuration's class at the *start* of the round.
    pub class: Class,
    /// Number of distinct occupied locations at the start of the round.
    pub distinct: usize,
    /// Maximum multiplicity at the start of the round.
    pub max_mult: usize,
    /// Robots activated by the scheduler this round.
    pub activated: Vec<usize>,
    /// Robots newly crashed this round.
    pub crashed: Vec<usize>,
    /// Total distance travelled by robots this round.
    pub travel: f64,
    /// `classify()` invocations performed during this round (shared
    /// analysis, algorithm fallbacks, audits — everything on this thread).
    pub classifications: u64,
    /// Analysis-cache hits during this round (configuration unchanged since
    /// the previous analysis, so the memoized result was reused).
    pub cache_hits: u64,
    /// Weiszfeld solver iterations spent during this round.
    pub weiszfeld_iters: u64,
}

impl RoundRecord {
    /// Serialises the record as one NDJSON line (newline excluded), in the
    /// fixed field order
    /// `round, class, distinct, max_mult, activated, crashed, travel,
    /// classifications, cache_hits, weiszfeld_iters`.
    ///
    /// Like `RunMetrics::to_jsonl` the encoding is deterministic and
    /// byte-exact (floats use shortest round-trip formatting), which is
    /// what lets the service's streaming `POST /v1/trace` endpoint promise
    /// byte-identity with the in-process trace. The schema is pinned by
    /// `crates/sim/tests/trace_schema.rs` — changing field names or order
    /// is a breaking API change.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"round\":{},\"class\":\"{}\",\"distinct\":{},\"max_mult\":{}",
            self.round,
            self.class.short_name(),
            self.distinct,
            self.max_mult
        );
        out.push_str(",\"activated\":[");
        for (i, robot) in self.activated.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{robot}");
        }
        out.push_str("],\"crashed\":[");
        for (i, robot) in self.crashed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{robot}");
        }
        let _ = write!(
            out,
            "],\"travel\":{:?},\"classifications\":{},\"cache_hits\":{},\"weiszfeld_iters\":{}}}",
            self.travel, self.classifications, self.cache_hits, self.weiszfeld_iters
        );
    }

    /// [`RoundRecord::write_jsonl`] into a fresh `String`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_jsonl(&mut out);
        out
    }
}

impl Default for RoundRecord {
    fn default() -> Self {
        RoundRecord {
            round: 0,
            class: Class::Multiple,
            distinct: 0,
            max_mult: 0,
            activated: Vec::new(),
            crashed: Vec::new(),
            travel: 0.0,
            classifications: 0,
            cache_hits: 0,
            weiszfeld_iters: 0,
        }
    }
}

impl Clone for RoundRecord {
    fn clone(&self) -> Self {
        let mut out = RoundRecord::default();
        out.clone_from(self);
        out
    }

    /// Field-wise copy that reuses the destination's vector capacity — the
    /// engine's bounded trace recycles evicted records through this, so
    /// steady-state rounds record without heap allocation.
    fn clone_from(&mut self, source: &Self) {
        self.round = source.round;
        self.class = source.class;
        self.distinct = source.distinct;
        self.max_mult = source.max_mult;
        self.activated.clone_from(&source.activated);
        self.crashed.clone_from(&source.crashed);
        self.travel = source.travel;
        self.classifications = source.classifications;
        self.cache_hits = source.cache_hits;
        self.weiszfeld_iters = source.weiszfeld_iters;
    }
}

/// A complete execution trace.
///
/// Aggregates (class histogram, transition counts, totals) are maintained
/// incrementally on push, so they stay exact even when the trace is
/// *bounded*: with [`Trace::set_capacity`] only the most recent records are
/// retained (a ring over a `Vec`, keeping [`Trace::records`] a plain
/// ordered slice) while every aggregate still covers the full execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<RoundRecord>,
    capacity: Option<usize>,
    dropped: u64,
    total_travel: f64,
    total_classifications: u64,
    total_cache_hits: u64,
    total_weiszfeld_iters: u64,
    histogram: BTreeMap<Class, u64>,
    transitions: BTreeMap<(Class, Class), u64>,
    sequence: Vec<Class>,
    rounds_seen: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Bounds the number of *retained* records: once more than `capacity`
    /// rounds are pushed, the oldest records are evicted (their memory is
    /// recycled, see [`RoundRecord::clone_from`]). Aggregates keep covering
    /// every round ever pushed. `None` (the default) retains everything.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)` — a trace that can hold nothing
    /// cannot satisfy `records()` callers.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        if let Some(cap) = capacity {
            assert!(cap > 0, "trace capacity must be positive");
            if self.records.len() > cap {
                self.dropped += (self.records.len() - cap) as u64;
                self.records.drain(..self.records.len() - cap);
            }
        }
        self.capacity = capacity;
    }

    /// Folds one record into the running aggregates.
    fn absorb(&mut self, record: &RoundRecord) {
        self.total_travel += record.travel;
        self.total_classifications += record.classifications;
        self.total_cache_hits += record.cache_hits;
        self.total_weiszfeld_iters += record.weiszfeld_iters;
        *self.histogram.entry(record.class).or_insert(0) += 1;
        match self.sequence.last() {
            Some(&last) if last == record.class => {}
            Some(&last) => {
                *self.transitions.entry((last, record.class)).or_insert(0) += 1;
                self.sequence.push(record.class);
            }
            None => self.sequence.push(record.class),
        }
        self.rounds_seen += 1;
    }

    /// Appends one round's record.
    pub fn push(&mut self, record: RoundRecord) {
        self.absorb(&record);
        match self.capacity {
            Some(cap) if self.records.len() >= cap => {
                self.records.rotate_left(1);
                *self.records.last_mut().expect("capacity > 0") = record;
                self.dropped += 1;
            }
            _ => self.records.push(record),
        }
    }

    /// Appends a round's record by reference; with a bounded trace the
    /// evicted record's buffers are reused, so no allocation happens once
    /// the ring is warm.
    pub fn push_cloned(&mut self, record: &RoundRecord) {
        self.absorb(record);
        match self.capacity {
            Some(cap) if self.records.len() >= cap => {
                self.records.rotate_left(1);
                self.records
                    .last_mut()
                    .expect("capacity > 0")
                    .clone_from(record);
                self.dropped += 1;
            }
            _ => self.records.push(record.clone()),
        }
    }

    /// Returns the trace to the empty state while keeping its capacity
    /// bound and the retained records' buffers for reuse — the recycling
    /// contract batch execution relies on: a lane slot that finished one
    /// scenario hands its trace to the next scenario, which must observe
    /// exactly what a fresh `Trace` (with the same capacity) would.
    pub fn reset(&mut self) {
        self.records.clear();
        self.dropped = 0;
        self.total_travel = 0.0;
        self.total_classifications = 0;
        self.total_cache_hits = 0;
        self.total_weiszfeld_iters = 0;
        self.histogram.clear();
        self.transitions.clear();
        self.sequence.clear();
        self.rounds_seen = 0;
    }

    /// The retained records, oldest first. The full execution unless a
    /// capacity bound evicted early rounds (see [`Trace::dropped`]).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of rounds ever pushed (evicted rounds included).
    pub fn len(&self) -> usize {
        self.rounds_seen as usize
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.rounds_seen == 0
    }

    /// Number of records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Rounds spent in each configuration class.
    pub fn class_histogram(&self) -> BTreeMap<Class, u64> {
        self.histogram.clone()
    }

    /// The observed class transitions `(from, to) → count`, counting only
    /// rounds where the class changed.
    ///
    /// Experiment F3 compares this against the transition edges allowed by
    /// Lemmas 5.3–5.9 (e.g. `M` never leaves `M`; nothing enters `B`).
    pub fn class_transitions(&self) -> BTreeMap<(Class, Class), u64> {
        self.transitions.clone()
    }

    /// Total distance travelled by all robots over the execution.
    pub fn total_travel(&self) -> f64 {
        self.total_travel
    }

    /// Total `classify()` invocations over the execution.
    pub fn total_classifications(&self) -> u64 {
        self.total_classifications
    }

    /// Total analysis-cache hits over the execution.
    pub fn total_cache_hits(&self) -> u64 {
        self.total_cache_hits
    }

    /// Total Weiszfeld iterations over the execution.
    pub fn total_weiszfeld_iters(&self) -> u64 {
        self.total_weiszfeld_iters
    }

    /// The sequence of classes visited (consecutive duplicates collapsed).
    pub fn class_sequence(&self) -> Vec<Class> {
        self.sequence.clone()
    }

    /// Serialises every *retained* record as NDJSON — one
    /// [`RoundRecord::write_jsonl`] line per round, each terminated by
    /// `\n`. With an unbounded trace this is the full execution, and it is
    /// the exact byte stream `POST /v1/trace` serves.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 128);
        for record in &self.records {
            record.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u64, class: Class) -> RoundRecord {
        RoundRecord {
            round,
            class,
            distinct: 3,
            max_mult: 1,
            activated: vec![0],
            crashed: vec![],
            travel: 1.0,
            classifications: 2,
            cache_hits: 1,
            weiszfeld_iters: 10,
        }
    }

    #[test]
    fn histogram_counts_rounds_per_class() {
        let mut t = Trace::new();
        t.push(rec(0, Class::Asymmetric));
        t.push(rec(1, Class::Asymmetric));
        t.push(rec(2, Class::Multiple));
        let h = t.class_histogram();
        assert_eq!(h[&Class::Asymmetric], 2);
        assert_eq!(h[&Class::Multiple], 1);
    }

    #[test]
    fn transitions_ignore_self_loops() {
        let mut t = Trace::new();
        t.push(rec(0, Class::Asymmetric));
        t.push(rec(1, Class::Asymmetric));
        t.push(rec(2, Class::Multiple));
        t.push(rec(3, Class::Multiple));
        let tr = t.class_transitions();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[&(Class::Asymmetric, Class::Multiple)], 1);
    }

    #[test]
    fn class_sequence_collapses_runs() {
        let mut t = Trace::new();
        for (i, c) in [
            Class::QuasiRegular,
            Class::QuasiRegular,
            Class::Multiple,
            Class::Multiple,
        ]
        .iter()
        .enumerate()
        {
            t.push(rec(i as u64, *c));
        }
        assert_eq!(
            t.class_sequence(),
            vec![Class::QuasiRegular, Class::Multiple]
        );
    }

    #[test]
    fn totals() {
        let mut t = Trace::new();
        t.push(rec(0, Class::Multiple));
        t.push(rec(1, Class::Multiple));
        assert_eq!(t.total_travel(), 2.0);
        assert_eq!(t.total_classifications(), 4);
        assert_eq!(t.total_cache_hits(), 2);
        assert_eq!(t.total_weiszfeld_iters(), 20);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn bounded_trace_keeps_recent_records_and_full_aggregates() {
        let mut t = Trace::new();
        t.set_capacity(Some(3));
        for i in 0..10 {
            let class = if i < 5 {
                Class::Asymmetric
            } else {
                Class::Multiple
            };
            t.push_cloned(&rec(i, class));
        }
        // Only the 3 most recent records survive, in order.
        let rounds: Vec<u64> = t.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![7, 8, 9]);
        assert_eq!(t.dropped(), 7);
        // Aggregates still cover all 10 rounds.
        assert_eq!(t.len(), 10);
        assert_eq!(t.total_travel(), 10.0);
        assert_eq!(t.class_histogram()[&Class::Asymmetric], 5);
        assert_eq!(t.class_histogram()[&Class::Multiple], 5);
        assert_eq!(
            t.class_transitions()[&(Class::Asymmetric, Class::Multiple)],
            1
        );
        assert_eq!(t.class_sequence(), vec![Class::Asymmetric, Class::Multiple]);
    }

    #[test]
    fn set_capacity_trims_existing_records() {
        let mut t = Trace::new();
        for i in 0..5 {
            t.push(rec(i, Class::Multiple));
        }
        t.set_capacity(Some(2));
        let rounds: Vec<u64> = t.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![3, 4]);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn reset_restores_fresh_trace_behaviour() {
        let mut recycled = Trace::new();
        recycled.set_capacity(Some(2));
        for i in 0..6 {
            recycled.push_cloned(&rec(i, Class::Asymmetric));
        }
        recycled.reset();
        assert!(recycled.is_empty());
        assert_eq!(recycled.dropped(), 0);

        let mut fresh = Trace::new();
        fresh.set_capacity(Some(2));
        for i in 0..4 {
            recycled.push_cloned(&rec(i, Class::Multiple));
            fresh.push_cloned(&rec(i, Class::Multiple));
        }
        assert_eq!(recycled.records(), fresh.records());
        assert_eq!(recycled.dropped(), fresh.dropped());
        assert_eq!(recycled.len(), fresh.len());
        assert_eq!(recycled.total_travel(), fresh.total_travel());
        assert_eq!(recycled.class_histogram(), fresh.class_histogram());
        assert_eq!(recycled.class_transitions(), fresh.class_transitions());
        assert_eq!(recycled.class_sequence(), fresh.class_sequence());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let mut t = Trace::new();
        t.set_capacity(Some(0));
    }

    #[test]
    fn round_record_jsonl_is_deterministic() {
        let r = rec(3, Class::QuasiRegular);
        assert_eq!(
            r.to_jsonl(),
            "{\"round\":3,\"class\":\"QR\",\"distinct\":3,\"max_mult\":1,\
             \"activated\":[0],\"crashed\":[],\"travel\":1.0,\
             \"classifications\":2,\"cache_hits\":1,\"weiszfeld_iters\":10}"
        );
        let mut t = Trace::new();
        t.push(rec(0, Class::Multiple));
        t.push(rec(1, Class::Multiple));
        let ndjson = t.to_jsonl();
        assert_eq!(ndjson.lines().count(), 2);
        assert!(ndjson.ends_with("}\n"));
        assert_eq!(
            ndjson,
            t.records()
                .iter()
                .map(|r| format!("{}\n", r.to_jsonl()))
                .collect::<String>()
        );
    }

    #[test]
    fn v2_header_is_deterministic_and_wraps_the_spec_verbatim() {
        let header = v2_header("{\"n\":8}", 7, "sync");
        assert_eq!(
            header,
            "{\"schema\":\"trace/v2\",\"spec\":{\"n\":8},\"seed\":7,\"engine\":\"sync\"}"
        );
        let mut streamed = String::new();
        write_v2_header(&mut streamed, "{\"n\":8}", 7, "sync");
        assert_eq!(streamed, header);
    }

    #[test]
    fn clone_from_reuses_buffers_and_copies_fields() {
        let source = rec(42, Class::QuasiRegular);
        let mut dest = RoundRecord {
            activated: Vec::with_capacity(8),
            ..RoundRecord::default()
        };
        let ptr = dest.activated.as_ptr();
        dest.clone_from(&source);
        assert_eq!(dest, source);
        assert_eq!(dest.activated.as_ptr(), ptr, "buffer was reallocated");
    }
}
