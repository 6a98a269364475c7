//! Phase attribution for engine rounds: monotonic lap timers, per-round
//! span records and the fixed-capacity sink the engine streams them into.

use std::time::Instant;

/// Number of engine phases tracked per round.
pub const NUM_PHASES: usize = 5;

/// The phases of one simulated round, in execution order.
///
/// `Weiszfeld` is a *sub-span* of `Classify`: the Weber-point solver runs
/// inside classification, and its nanoseconds are carved out of the
/// classify lap (see `PhaseTimer::transfer`), so the five phases stay
/// additive — they sum to the round's instrumented wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Copying positions into scratch, distinct-point extraction, history.
    Snapshot,
    /// Shared round analysis (class, target, election) minus Weiszfeld,
    /// including the audits' analysis of the post-move configuration,
    /// which the next round serves from the memo.
    Classify,
    /// Weber-point iterations inside classification.
    Weiszfeld,
    /// Look–Compute–Move over activated robots plus canonicalisation.
    Move,
    /// Wait-freeness / never-bivalent invariant audits, less the
    /// post-move analysis charged to `Classify`.
    Invariants,
}

impl Phase {
    /// All phases, in execution (and serialization) order.
    pub const fn all() -> [Phase; NUM_PHASES] {
        [
            Phase::Snapshot,
            Phase::Classify,
            Phase::Weiszfeld,
            Phase::Move,
            Phase::Invariants,
        ]
    }

    /// Stable lowercase name used in every JSON export.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Snapshot => "snapshot",
            Phase::Classify => "classify",
            Phase::Weiszfeld => "weiszfeld",
            Phase::Move => "move",
            Phase::Invariants => "invariants",
        }
    }

    #[inline]
    const fn index(self) -> usize {
        match self {
            Phase::Snapshot => 0,
            Phase::Classify => 1,
            Phase::Weiszfeld => 2,
            Phase::Move => 3,
            Phase::Invariants => 4,
        }
    }
}

/// Nanoseconds attributed to each [`Phase`] — per round, or accumulated
/// over a run. Plain `Copy` data; safe to store in metrics rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos(pub [u64; NUM_PHASES]);

impl PhaseNanos {
    /// Nanoseconds attributed to `phase`.
    #[inline]
    pub fn get(&self, phase: Phase) -> u64 {
        self.0[phase.index()]
    }

    /// Adds `nanos` to `phase` (saturating).
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        let slot = &mut self.0[phase.index()];
        *slot = slot.saturating_add(nanos);
    }

    /// Folds another record into this one, phase-wise.
    #[inline]
    pub fn accumulate(&mut self, other: PhaseNanos) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine = mine.saturating_add(theirs);
        }
    }

    /// Total nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }

    /// Appends the stable JSON object form —
    /// `{"snapshot":N,"classify":N,"weiszfeld":N,"move":N,"invariants":N}`
    /// — to `out`. Shared by `RunMetrics::to_jsonl` and the sink export
    /// so the schema cannot drift between them.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push('{');
        for (i, phase) in Phase::all().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", phase.name(), self.get(*phase));
        }
        out.push('}');
    }
}

/// A monotonic lap timer attributing wall time to phases.
///
/// Construct once per round with [`PhaseTimer::start`]; each
/// [`lap`](PhaseTimer::lap) charges the time since the previous lap (or
/// start) to a phase. A timer started with `enabled = false` never calls
/// [`Instant::now`] — the disabled hot path costs one branch per lap.
#[derive(Debug)]
pub struct PhaseTimer {
    last: Option<Instant>,
    nanos: PhaseNanos,
}

impl PhaseTimer {
    /// Starts the timer; reads the clock only when `enabled`.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        PhaseTimer {
            last: enabled.then(Instant::now),
            nanos: PhaseNanos::default(),
        }
    }

    /// Is this timer live (i.e. was it started enabled)?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.last.is_some()
    }

    /// Charges the time since the last lap to `phase` and restarts the
    /// lap clock. No-op when disabled.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if let Some(last) = self.last.as_mut() {
            let now = Instant::now();
            self.nanos
                .add(phase, now.duration_since(*last).as_nanos() as u64);
            *last = now;
        }
    }

    /// Moves up to `nanos` already charged to `from` over to `to` —
    /// used to carve an externally measured sub-span (Weiszfeld's
    /// thread-local counter) out of its enclosing lap while keeping the
    /// phase totals additive.
    #[inline]
    pub fn transfer(&mut self, from: Phase, to: Phase, nanos: u64) {
        if self.last.is_none() {
            return;
        }
        let moved = nanos.min(self.nanos.get(from));
        self.nanos.0[from.index()] -= moved;
        self.nanos.add(to, moved);
    }

    /// Consumes the timer, returning the accumulated attribution.
    #[inline]
    pub fn finish(self) -> PhaseNanos {
        self.nanos
    }
}

/// One round's phase attribution, as stored in a [`SpanSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundSpans {
    /// Round index (0-based, as in `RoundRecord`).
    pub round: u64,
    /// Per-phase nanoseconds for this round.
    pub nanos: PhaseNanos,
}

/// A fixed-capacity ring of [`RoundSpans`].
///
/// All storage is allocated at construction; [`push`](SpanSink::push)
/// overwrites the oldest record once full (counting the overwrite in
/// [`dropped`](SpanSink::dropped)) and never touches the heap, so a sink
/// can ride the zero-allocation round loop. Export to JSONL happens off
/// the hot path, formatting on demand.
#[derive(Debug, Default)]
pub struct SpanSink {
    records: Vec<RoundSpans>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl SpanSink {
    /// A sink holding at most `capacity` records (0 = keep nothing,
    /// count everything as dropped).
    pub fn new(capacity: usize) -> Self {
        SpanSink {
            records: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full. Never
    /// (re)allocates.
    #[inline]
    pub fn push(&mut self, record: RoundSpans) {
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the sink empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted (or refused, for a zero-capacity sink) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Held records in chronological order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &RoundSpans> {
        let (tail, holder) = self.records.split_at(self.head);
        holder.iter().chain(tail.iter())
    }

    /// Exports the held records as JSONL, one
    /// `{"round":N,"snapshot":...,"invariants":N}` object per line.
    /// Allocates (it formats) — call it after the run, not during.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for record in self.iter() {
            let _ = write!(out, "{{\"round\":{}", record.round);
            for phase in Phase::all() {
                let _ = write!(out, ",\"{}\":{}", phase.name(), record.nanos.get(phase));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// The observability handle an engine carries: a per-engine (and hence
/// per-thread — engines are single-threaded) span sink plus running
/// phase totals.
///
/// `enabled` is runtime data so one binary can compare the *absent*,
/// *disabled* and *enabled* states. A disabled handle costs the engine
/// one branch per round and zero clock reads.
#[derive(Debug)]
pub struct EngineObs {
    enabled: bool,
    totals: PhaseNanos,
    rounds: SpanSink,
}

impl EngineObs {
    /// An enabled handle keeping the most recent `capacity` rounds.
    pub fn new(capacity: usize) -> Self {
        EngineObs {
            enabled: true,
            totals: PhaseNanos::default(),
            rounds: SpanSink::new(capacity),
        }
    }

    /// An attached-but-disabled handle: the engine carries it, checks
    /// its flag, and does no timing work. This is the state the ≤2%
    /// overhead budget is measured against.
    pub fn disabled() -> Self {
        EngineObs {
            enabled: false,
            totals: PhaseNanos::default(),
            rounds: SpanSink::new(0),
        }
    }

    /// Does this handle want timing?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Absorbs one round's attribution into the totals and the sink.
    #[inline]
    pub fn record_round(&mut self, round: u64, nanos: PhaseNanos) {
        self.totals.accumulate(nanos);
        self.rounds.push(RoundSpans { round, nanos });
    }

    /// Phase totals accumulated across every recorded round.
    pub fn totals(&self) -> PhaseNanos {
        self.totals
    }

    /// The per-round span ring.
    pub fn rounds(&self) -> &SpanSink {
        &self.rounds
    }

    /// JSONL export of the held per-round spans (see
    /// [`SpanSink::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        self.rounds.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_attributes_nothing() {
        let mut t = PhaseTimer::start(false);
        assert!(!t.enabled());
        t.lap(Phase::Snapshot);
        t.transfer(Phase::Classify, Phase::Weiszfeld, 100);
        assert_eq!(t.finish(), PhaseNanos::default());
    }

    #[test]
    fn laps_accumulate_into_phases() {
        let mut t = PhaseTimer::start(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.lap(Phase::Classify);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.lap(Phase::Move);
        let nanos = t.finish();
        assert!(nanos.get(Phase::Classify) >= 1_000_000);
        assert!(nanos.get(Phase::Move) >= 500_000);
        assert_eq!(nanos.get(Phase::Snapshot), 0);
        assert_eq!(nanos.total(), nanos.0.iter().sum::<u64>());
    }

    #[test]
    fn transfer_carves_a_sub_span_and_stays_additive() {
        let mut t = PhaseTimer::start(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.lap(Phase::Classify);
        let before = t.nanos.total();
        t.transfer(Phase::Classify, Phase::Weiszfeld, 200_000);
        let after = t.nanos;
        assert_eq!(after.total(), before, "transfer must conserve total");
        assert!(after.get(Phase::Weiszfeld) > 0);
        // Transfers larger than the source lap are clamped, never wrap.
        t.transfer(Phase::Classify, Phase::Weiszfeld, u64::MAX);
        assert_eq!(t.nanos.get(Phase::Classify), 0);
        assert_eq!(t.nanos.total(), before);
    }

    #[test]
    fn sink_ring_overwrites_oldest_and_counts_drops() {
        let mut sink = SpanSink::new(3);
        for round in 0..5u64 {
            let mut nanos = PhaseNanos::default();
            nanos.add(Phase::Move, round);
            sink.push(RoundSpans { round, nanos });
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let rounds: Vec<u64> = sink.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![2, 3, 4], "oldest first");
    }

    #[test]
    fn zero_capacity_sink_never_holds_records() {
        let mut sink = SpanSink::new(0);
        sink.push(RoundSpans::default());
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn jsonl_export_is_schema_stable() {
        let mut sink = SpanSink::new(4);
        let mut nanos = PhaseNanos::default();
        nanos.add(Phase::Snapshot, 1);
        nanos.add(Phase::Classify, 2);
        nanos.add(Phase::Weiszfeld, 3);
        nanos.add(Phase::Move, 4);
        nanos.add(Phase::Invariants, 5);
        sink.push(RoundSpans { round: 7, nanos });
        assert_eq!(
            sink.to_jsonl(),
            "{\"round\":7,\"snapshot\":1,\"classify\":2,\"weiszfeld\":3,\
             \"move\":4,\"invariants\":5}\n"
        );
        let mut obj = String::new();
        nanos.write_json(&mut obj);
        assert_eq!(
            obj,
            "{\"snapshot\":1,\"classify\":2,\"weiszfeld\":3,\"move\":4,\"invariants\":5}"
        );
    }

    #[test]
    fn engine_obs_accumulates_totals() {
        let mut obs = EngineObs::new(2);
        assert!(obs.is_enabled());
        for round in 0..4u64 {
            let mut nanos = PhaseNanos::default();
            nanos.add(Phase::Move, 10);
            obs.record_round(round, nanos);
        }
        assert_eq!(obs.totals().get(Phase::Move), 40);
        assert_eq!(obs.rounds().len(), 2);
        assert!(!EngineObs::disabled().is_enabled());
    }
}
