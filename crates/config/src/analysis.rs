//! The shared per-round analysis layer.
//!
//! In the ATOM/SSYNC model every robot activated in a round LOOKs at the
//! *same* start-of-round configuration, and the classification of Section IV
//! (class and movement target) is a pure function of that configuration.
//! Running [`classify`](crate::classify::classify) once per robot — as a naive reading of the per-robot
//! COMPUTE phase suggests — therefore recomputes an identical result `n`
//! times per round, with the Weiszfeld iteration inside quasi-regularity
//! detection dominating the bill.
//!
//! [`RoundAnalysis`] packages the per-round result computed **once**;
//! [`AnalysisCache`] memoizes it across consecutive rounds in which the
//! canonical configuration did not change (common under partial activation,
//! stingy motion adversaries, and the audit-then-step pattern of the
//! engine). The memo key is a 64-bit fingerprint of the exact point
//! multiset used as a fast filter, always confirmed by an exact point
//! comparison, so a fingerprint collision can never smuggle in a stale
//! analysis.
//!
//! The engine threads a `RoundAnalysis` through each robot's snapshot after
//! transforming the target into the robot's local frame; class, `n` and
//! `qreg` are invariant under the orientation-preserving
//! similarities that relate robot frames, so they are shared verbatim. The
//! equivalence of this shared path with a per-robot fresh classification is
//! checked by the equivariance tests in the umbrella crate and by the
//! per-robot oracle that `gather-bench`'s `shared_analysis_oracle` test
//! runs through every engine driver.

use crate::classify::{classify_hinted, classify_hinted_with_distinct, Analysis, Class};
use crate::configuration::Configuration;
use gather_geom::{Point, Tol};
use gather_prng::mix64;

/// Everything the round needs to know about one configuration, computed
/// once: the Section-IV classification with its movement target.
///
/// It carries no rotational symmetry `sym(C)`: no movement rule reads it,
/// and its view-based computation (one view per occupied location, each
/// over all `n` robots) costs many times the classification. Callers that
/// want it call [`rotational_symmetry`](crate::rotational_symmetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundAnalysis {
    /// The classification (class, `n`, target, `qreg`).
    pub analysis: Analysis,
    /// Fingerprint of the analysed point multiset (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The numeric Weber point this analysis computed (or pinned, for
    /// class `QR`), carried as the warm-start iterate for the next round's
    /// Weiszfeld run (Lemma 3.2). `None` when the class never reached the
    /// numeric Weber computation.
    pub weber_hint: Option<Point>,
}

impl RoundAnalysis {
    /// Analyses `config` from scratch: one
    /// [`classify`](crate::classify::classify) call.
    pub fn compute(config: &Configuration, tol: Tol) -> Self {
        Self::compute_hinted(config, tol, None)
    }

    /// [`RoundAnalysis::compute`] with an optional warm-start iterate for
    /// the numeric Weber computation inside quasi-regularity detection —
    /// the previous round's Weber point, which Lemma 3.2 keeps exact while
    /// robots move toward it. The hint only seeds Weiszfeld's iteration;
    /// classes that never compute a numeric Weber point ignore it.
    pub fn compute_hinted(config: &Configuration, tol: Tol, hint: Option<Point>) -> Self {
        let (analysis, weber_seen) = classify_hinted(config, tol, hint);
        RoundAnalysis::from_classification(config, analysis, weber_seen)
    }

    /// The warm-start policy shared by the full and incremental analysis
    /// paths: applied to a classification however it was obtained, so both
    /// paths derive the Weber hint and the fingerprint through identical
    /// code.
    fn from_classification(
        config: &Configuration,
        analysis: Analysis,
        weber_seen: Option<Point>,
    ) -> Self {
        // For QR the centre of quasi-regularity *is* the Weber point
        // (Lemma 3.3), so it doubles as a hint even when the occupied-centre
        // test decided without running Weiszfeld.
        let weber_hint = weber_seen.or(match analysis.class {
            Class::QuasiRegular => analysis.target,
            _ => None,
        });
        RoundAnalysis {
            analysis,
            fingerprint: fingerprint(config.points()),
            weber_hint,
        }
    }

    /// The analysis with its target mapped through `f` — the orientation-
    /// preserving frame transform into a robot's local coordinates. Class,
    /// `n` and `qreg` are similarity-invariant and carried verbatim.
    pub fn map_target(self, f: impl Fn(Point) -> Point) -> Self {
        RoundAnalysis {
            analysis: Analysis {
                target: self.analysis.target.map(f),
                ..self.analysis
            },
            ..self
        }
    }
}

/// Order-sensitive 64-bit fingerprint of a point sequence (configurations
/// are canonical, so equal multisets have equal orderings). Built by mixing
/// each coordinate's bit pattern with SplitMix64's finalizer; used only as
/// a fast *filter* — the cache always confirms with an exact comparison.
pub fn fingerprint(points: &[Point]) -> u64 {
    let mut h = mix64(points.len() as u64);
    for p in points {
        h = mix64(h ^ p.x.to_bits());
        h = mix64(h ^ p.y.to_bits());
    }
    h
}

/// Memoizes the [`RoundAnalysis`] of the most recent configuration.
///
/// One entry suffices: the engine analyses the current configuration at the
/// start of each round and (with audits on) the post-move configuration at
/// the end, which is exactly the next round's start-of-round configuration —
/// so in steady state each distinct configuration is analysed once.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    entry: Option<Entry>,
    computed: u64,
    hits: u64,
    /// Memo hits served by [`AnalysisCache::analyse_dirty`] purely from
    /// the empty dirty set, i.e. without hashing or comparing any point.
    dirty_skips: u64,
    /// The most recent Weber point any analysis computed, surviving rounds
    /// whose class skips the numeric computation (e.g. `A → M → A`
    /// sequences keep their warmth through the `M` rounds).
    last_weber: Option<Point>,
    /// Sorting scratch for rebuilding the entry's distinct multiset.
    sort_buf: Vec<Point>,
    /// Scratch of [`AnalysisCache::analyse_dirty`]: the positions the
    /// dirty robots left and arrived at, and the merged multiset.
    left: Vec<Point>,
    arrived: Vec<Point>,
    merged: Vec<(Point, usize)>,
}

#[derive(Debug)]
struct Entry {
    fingerprint: u64,
    points: Vec<Point>,
    analysis: RoundAnalysis,
    /// The distinct-location multiset of `points` in
    /// [`Configuration::distinct_into`] order, maintained incrementally by
    /// [`AnalysisCache::analyse_dirty`]. Only meaningful when
    /// `distinct_valid` holds; the plain [`AnalysisCache::analyse`] miss
    /// path just invalidates it (lazy rebuild on the next dirty patch).
    distinct: Vec<(Point, usize)>,
    distinct_valid: bool,
}

impl Entry {
    /// Rebuilds `distinct` from `points` exactly as
    /// [`Configuration::distinct_into`] would: lexicographic sort, then
    /// run-length grouping of equal values.
    fn rebuild_distinct(&mut self, sort_buf: &mut Vec<Point>) {
        sort_buf.clear();
        sort_buf.extend_from_slice(&self.points);
        sort_buf.sort_by(|a, b| a.lex_cmp(*b));
        self.distinct.clear();
        for &p in sort_buf.iter() {
            match self.distinct.last_mut() {
                Some((q, m)) if *q == p => *m += 1,
                _ => self.distinct.push((p, 1)),
            }
        }
        self.distinct_valid = true;
    }
}

/// Applies a batch of moves to a distinct multiset in
/// [`Configuration::distinct_into`] order: one robot left each position in
/// `left` and one arrived at each position in `arrived`. Both lists are
/// sorted and merged with the multiset in one pass, O(|U| + d log d) for
/// d moves, where patching entry by entry with `Vec::remove` and
/// `Vec::insert` cost O(d·|U|). The result is the patched multiset: an
/// entry whose count falls to zero leaves, an arrival at a held position
/// raises its count, and an arrival elsewhere becomes an entry of its own.
/// Positions compare with `Point::lex_cmp`, as the multiset is sorted;
/// canonical configurations hold no NaN and no −0.0, on which `==` and
/// `lex_cmp` agree.
///
/// # Panics
///
/// Panics if a position in `left` is not held often enough: the dirty set
/// lied about the previous configuration.
fn merge_moves(
    distinct: &mut Vec<(Point, usize)>,
    left: &mut [Point],
    arrived: &mut [Point],
    merged: &mut Vec<(Point, usize)>,
) {
    left.sort_unstable_by(|a, b| a.lex_cmp(*b));
    arrived.sort_unstable_by(|a, b| a.lex_cmp(*b));
    // Appends an arrival, joining the previous arrival at the same spot.
    let put = |merged: &mut Vec<(Point, usize)>, p: Point| match merged.last_mut() {
        Some((q, m)) if q.lex_cmp(p).is_eq() => *m += 1,
        _ => merged.push((p, 1)),
    };
    merged.clear();
    let (mut l, mut a) = (0, 0);
    for &(p, held) in distinct.iter() {
        while a < arrived.len() && arrived[a].lex_cmp(p).is_lt() {
            put(merged, arrived[a]);
            a += 1;
        }
        let mut m = held;
        while l < left.len() && left[l].lex_cmp(p).is_eq() {
            m = m
                .checked_sub(1)
                .expect("stale dirty set: more robots left a position than it held");
            l += 1;
        }
        assert!(
            l == left.len() || left[l].lex_cmp(p).is_gt(),
            "stale dirty set: an old position is not memoized"
        );
        while a < arrived.len() && arrived[a].lex_cmp(p).is_eq() {
            m += 1;
            a += 1;
        }
        if m > 0 {
            merged.push((p, m));
        }
    }
    assert!(
        l == left.len(),
        "stale dirty set: an old position is not memoized"
    );
    for &p in &arrived[a..] {
        put(merged, p);
    }
    std::mem::swap(distinct, merged);
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// The analysis of `config`: served from the memo when the point
    /// sequence is identical to the previous call's, recomputed (and
    /// memoized) otherwise. Recomputation warm-starts the numeric Weber
    /// iteration from the last known Weber point (Lemma 3.2).
    pub fn analyse(&mut self, config: &Configuration, tol: Tol) -> RoundAnalysis {
        let fp = fingerprint(config.points());
        if let Some(e) = &self.entry {
            // The fingerprint is a filter; equality of the actual points is
            // what authorises reuse (a collision must not corrupt a run).
            if e.fingerprint == fp && e.points == config.points() {
                self.hits += 1;
                return e.analysis;
            }
        }
        let analysis = RoundAnalysis::compute_hinted(config, tol, self.last_weber);
        self.computed += 1;
        if analysis.weber_hint.is_some() {
            self.last_weber = analysis.weber_hint;
        }
        match &mut self.entry {
            // Recycle the previous entry's point buffer: steady-state
            // rounds then memoize without heap allocation.
            Some(e) => {
                e.fingerprint = fp;
                e.points.clear();
                e.points.extend_from_slice(config.points());
                e.analysis = analysis;
                e.distinct_valid = false;
            }
            entry @ None => {
                *entry = Some(Entry {
                    fingerprint: fp,
                    points: config.points().to_vec(),
                    analysis,
                    distinct: Vec::new(),
                    distinct_valid: false,
                });
            }
        }
        analysis
    }

    /// [`AnalysisCache::analyse`] for the incremental engine path: `dirty`
    /// lists the indices at which `config` differs (bitwise) from the
    /// configuration of the previous call on this cache.
    ///
    /// * Empty dirty set — the previous analysis is returned without
    ///   hashing or comparing a single point (counted as a hit, like the
    ///   fingerprint-checked memo hit the reference path records, plus a
    ///   `dirty_skips` tick).
    /// * Non-empty — the memoized distinct-location multiset is patched at
    ///   the dirty indices (one merge, O(|U| + d log d) for d moved robots,
    ///   instead of an O(n log n) re-sort; built for `config` outright when
    ///   the entry holds none yet, after a plain miss or a seed) and
    ///   classification resumes
    ///   from it via
    ///   [`classify_hinted_with_distinct`], with the same warm-start hint
    ///   policy as a plain miss; `computed`/`hits` and the classify and
    ///   Weiszfeld invocation counters advance exactly as the reference
    ///   path's miss would, so traces stay bit-identical.
    /// * No entry, or an entry of a different length — falls back to the
    ///   plain path and builds the distinct multiset for later patching.
    ///
    /// # Panics
    ///
    /// Panics if a dirty index is out of bounds, or if the dirty set lies
    /// about the previous configuration (a listed index whose old value is
    /// missing from the memoized multiset).
    pub fn analyse_dirty(
        &mut self,
        config: &Configuration,
        tol: Tol,
        dirty: &[usize],
    ) -> RoundAnalysis {
        let usable = self
            .entry
            .as_ref()
            .is_some_and(|e| !e.points.is_empty() && e.points.len() == config.len());
        if !usable {
            let analysis = self.analyse(config, tol);
            if let Some(e) = &mut self.entry {
                e.rebuild_distinct(&mut self.sort_buf);
            }
            return analysis;
        }
        if dirty.is_empty() {
            let e = self.entry.as_ref().expect("usable entry");
            debug_assert_eq!(
                e.points,
                config.points(),
                "empty dirty set but the configuration changed"
            );
            self.hits += 1;
            self.dirty_skips += 1;
            return e.analysis;
        }

        {
            let e = self.entry.as_mut().expect("usable entry");
            if !e.distinct_valid {
                // No multiset to patch: build the new configuration's
                // directly, which leaves the loop below nothing to do.
                for &i in dirty {
                    e.points[i] = config.points()[i];
                }
                e.rebuild_distinct(&mut self.sort_buf);
            }
            let (left, arrived) = (&mut self.left, &mut self.arrived);
            left.clear();
            arrived.clear();
            for &i in dirty {
                let old = e.points[i];
                let new = config.points()[i];
                if old.x.to_bits() == new.x.to_bits() && old.y.to_bits() == new.y.to_bits() {
                    continue;
                }
                left.push(old);
                arrived.push(new);
                e.points[i] = new;
            }
            if !left.is_empty() {
                merge_moves(&mut e.distinct, left, arrived, &mut self.merged);
            }
        }
        let e = self.entry.as_ref().expect("usable entry");
        let (analysis, weber_seen) =
            classify_hinted_with_distinct(config, tol, self.last_weber, &e.distinct);
        let analysis = RoundAnalysis::from_classification(config, analysis, weber_seen);
        self.computed += 1;
        if analysis.weber_hint.is_some() {
            self.last_weber = analysis.weber_hint;
        }
        let e = self.entry.as_mut().expect("usable entry");
        e.fingerprint = analysis.fingerprint;
        e.analysis = analysis;
        analysis
    }

    /// The memoized distinct-location multiset (in
    /// [`Configuration::distinct_into`] order), when it is valid — i.e.
    /// immediately after an [`AnalysisCache::analyse_dirty`] call synced
    /// the entry to the caller's configuration. The caller must only
    /// consume it for that same configuration.
    pub fn distinct_cached(&self) -> Option<&[(Point, usize)]> {
        match &self.entry {
            Some(e) if e.distinct_valid => Some(&e.distinct),
            _ => None,
        }
    }

    /// Installs an externally computed analysis as the memo entry, exactly
    /// as a miss of [`AnalysisCache::analyse`] on `points` would have —
    /// entry updated (reusing its point buffer), warm-start iterate carried
    /// forward, `computed` incremented. `analysis` must be the analysis of
    /// `points` at the tolerance this cache is used with; a batch admission
    /// layer that classifies many identical initial configurations can then
    /// share one computation across caches without perturbing any later
    /// hit/miss or Weiszfeld-iteration sequence.
    pub fn seed(&mut self, points: &[Point], analysis: RoundAnalysis) {
        self.computed += 1;
        if analysis.weber_hint.is_some() {
            self.last_weber = analysis.weber_hint;
        }
        match &mut self.entry {
            Some(e) => {
                e.fingerprint = analysis.fingerprint;
                e.points.clear();
                e.points.extend_from_slice(points);
                e.analysis = analysis;
                e.distinct_valid = false;
            }
            entry @ None => {
                *entry = Some(Entry {
                    fingerprint: analysis.fingerprint,
                    points: points.to_vec(),
                    analysis,
                    distinct: Vec::new(),
                    distinct_valid: false,
                });
            }
        }
    }

    /// Returns the cache to its initial state — no memo entry, no warm-start
    /// iterate, zeroed counters — while keeping the entry's point buffer
    /// allocated for reuse.
    ///
    /// This is the determinism contract of engine recycling: a worker that
    /// reuses one cache across sweep items must observe, on every item, the
    /// same per-round hit/miss and Weiszfeld-iteration sequence as a fresh
    /// cache would, regardless of what the worker processed before. A stale
    /// memo (or a stale warm-start hint) would alter those per-round trace
    /// counters and break bit-identical results across thread counts.
    pub fn reset(&mut self) {
        if let Some(e) = &mut self.entry {
            // An empty point list can never equal a non-empty configuration,
            // so the stale analysis is unreachable; the buffer's capacity
            // survives for the next item.
            e.fingerprint = 0;
            e.points.clear();
            e.distinct.clear();
            e.distinct_valid = false;
        }
        self.computed = 0;
        self.hits = 0;
        self.dirty_skips = 0;
        self.last_weber = None;
    }

    /// Number of full analyses computed (cache misses).
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Number of calls served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of [`AnalysisCache::analyse_dirty`] hits served purely from
    /// an empty dirty set (a subset of [`AnalysisCache::hits`]).
    pub fn dirty_skips(&self) -> u64 {
        self.dirty_skips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Class};

    fn t() -> Tol {
        Tol::default()
    }

    fn square() -> Configuration {
        Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ])
    }

    #[test]
    fn compute_matches_fresh_classify() {
        let c = square();
        let ra = RoundAnalysis::compute(&c, t());
        assert_eq!(ra.analysis, classify(&c, t()));
    }

    #[test]
    fn repeated_configuration_hits_the_memo() {
        let c = square();
        let mut cache = AnalysisCache::new();
        let a1 = cache.analyse(&c, t());
        let a2 = cache.analyse(&c, t());
        assert_eq!(a1, a2);
        assert_eq!(cache.computed(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn changed_configuration_recomputes() {
        let mut cache = AnalysisCache::new();
        let a = cache.analyse(&square(), t());
        let moved = square().map(|p| Point::new(p.x + 1.0, p.y));
        let b = cache.analyse(&moved, t());
        assert_eq!(cache.computed(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(a.analysis.class, b.analysis.class);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn reset_restores_fresh_cache_behaviour() {
        let c = square();
        let mut fresh = AnalysisCache::new();
        let expect = fresh.analyse(&c, t());

        let mut recycled = AnalysisCache::new();
        let _ = recycled.analyse(&c, t());
        let _ = recycled.analyse(&square().map(|p| Point::new(p.x + 1.0, p.y)), t());
        recycled.reset();
        assert_eq!(recycled.computed(), 0);
        assert_eq!(recycled.hits(), 0);
        // Same analysis, and a *miss* (not a hit on the stale memo), exactly
        // as a fresh cache behaves.
        let again = recycled.analyse(&c, t());
        assert_eq!(again, expect);
        assert_eq!(recycled.computed(), 1);
        assert_eq!(recycled.hits(), 0);
    }

    #[test]
    fn seeded_cache_behaves_like_a_cache_that_analysed() {
        let c = square();
        let mut analysed = AnalysisCache::new();
        let expect = analysed.analyse(&c, t());

        let mut seeded = AnalysisCache::new();
        seeded.seed(c.points(), RoundAnalysis::compute(&c, t()));
        assert_eq!(seeded.computed(), analysed.computed());
        assert_eq!(seeded.hits(), 0);
        // The seeded entry serves the next identical configuration as a hit,
        // exactly like the cache that ran analyse() itself.
        let again = seeded.analyse(&c, t());
        assert_eq!(again, expect);
        assert_eq!(seeded.hits(), 1);
        assert_eq!(seeded.computed(), 1);

        // And a different configuration misses on both, with the same
        // warm-start state carried from the seeded analysis.
        let moved = square().map(|p| Point::new(p.x + 1.0, p.y));
        assert_eq!(seeded.analyse(&moved, t()), analysed.analyse(&moved, t()));
    }

    /// Drives a reference cache (plain `analyse`) and an incremental cache
    /// (`analyse_dirty` with exact bitwise diffs) through the same
    /// configuration sequence and asserts identical analyses and identical
    /// `computed`/`hits` trajectories.
    fn assert_dirty_tracks_reference(sequence: &[Configuration]) {
        let mut reference = AnalysisCache::new();
        let mut dirty_cache = AnalysisCache::new();
        let mut prev: Option<Configuration> = None;
        for (step, c) in sequence.iter().enumerate() {
            let dirty: Vec<usize> = match &prev {
                Some(p) if p.len() == c.len() => (0..c.len())
                    .filter(|&i| {
                        let (a, b) = (p.points()[i], c.points()[i]);
                        a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits()
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let expect = reference.analyse(c, t());
            let got = dirty_cache.analyse_dirty(c, t(), &dirty);
            assert_eq!(got, expect, "analyses diverged at step {step}");
            assert_eq!(
                dirty_cache.computed(),
                reference.computed(),
                "computed diverged at step {step}"
            );
            assert_eq!(
                dirty_cache.hits(),
                reference.hits(),
                "hits diverged at step {step}"
            );
            // The patched multiset must equal a fresh distinct computation.
            assert_eq!(
                dirty_cache
                    .distinct_cached()
                    .expect("valid after analyse_dirty"),
                c.distinct().as_slice(),
                "distinct multiset diverged at step {step}"
            );
            prev = Some(c.clone());
        }
    }

    #[test]
    fn dirty_analysis_tracks_the_reference_cache() {
        let mut seq = Vec::new();
        // Start from a square (QR), repeat it (static round), move one
        // corner (A or QR), collapse two robots onto one point (M), then
        // everything onto one point (gathered M).
        let c0 = square();
        seq.push(c0.clone());
        seq.push(c0.clone());
        let mut c1 = c0.clone();
        c1.set_point(2, Point::new(2.7, 1.3));
        seq.push(c1.clone());
        let mut c2 = c1.clone();
        c2.set_point(2, Point::new(0.0, 0.0));
        seq.push(c2.clone());
        seq.push(c2.clone());
        let gathered = Configuration::new(vec![Point::new(0.0, 0.0); 4]);
        seq.push(gathered);
        assert_dirty_tracks_reference(&seq);

        // Nearly every robot dirty at once, as under phased ASYNC timing:
        // each step moves all robots but one, onto each other's old spots
        // (stacks form, split and swap), part way toward the centre, or off
        // into the open, so every kind of merge step occurs in one batch.
        let mut rng = gather_prng::Rng::seed_from_u64(0xD127);
        for n in [6usize, 17, 40] {
            let mut c = Configuration::canonical(scatter(&mut rng, n), t());
            let mut seq = vec![c.clone()];
            for step in 0..12 {
                let keep = rng.random_range(0..n);
                let prev = c.clone();
                for i in (0..n).filter(|&i| i != keep) {
                    let j = rng.random_range(0..n);
                    let p = prev.points()[i];
                    let q = match rng.random_range(0u32..4) {
                        0 => prev.points()[j],
                        1 => p.lerp(Point::ORIGIN, 0.5),
                        2 if step % 3 == 0 => Point::ORIGIN,
                        _ => Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)),
                    };
                    c.set_point(i, q);
                }
                seq.push(c.clone());
            }
            assert_dirty_tracks_reference(&seq);
        }
    }

    fn scatter(rng: &mut gather_prng::Rng, n: usize) -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)))
            .collect()
    }

    #[test]
    #[should_panic(expected = "stale dirty set")]
    fn a_stale_memo_panics_instead_of_patching() {
        let mut cache = AnalysisCache::new();
        let a = square();
        cache.analyse_dirty(&a, t(), &[]);
        // Corrupt the memo: the multiset no longer holds robot 0's spot.
        cache.entry.as_mut().expect("an entry").distinct[0].0 = Point::new(-9.0, -9.0);
        let mut b = a.clone();
        b.set_point(0, Point::new(1.0, 1.0));
        cache.analyse_dirty(&b, t(), &[0]);
    }

    #[test]
    fn dirty_analysis_handles_linear_and_bivalent_transitions() {
        let line = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(9.0, 0.0),
        ]);
        let mut off_line = line.clone();
        off_line.set_point(3, Point::new(9.0, 4.0));
        let mut bivalent = line.clone();
        bivalent.set_point(1, Point::new(0.0, 0.0));
        bivalent.set_point(3, Point::new(5.0, 0.0));
        assert_dirty_tracks_reference(&[line.clone(), off_line, line, bivalent]);
    }

    #[test]
    fn dirty_skip_counts_static_rounds_only() {
        let c = square();
        let mut cache = AnalysisCache::new();
        let first = cache.analyse_dirty(&c, t(), &[]); // no entry: fallback
        assert_eq!(cache.computed(), 1);
        assert_eq!(cache.dirty_skips(), 0);
        let again = cache.analyse_dirty(&c, t(), &[]);
        assert_eq!(again, first);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.dirty_skips(), 1);
        cache.reset();
        assert_eq!(cache.dirty_skips(), 0);
        assert_eq!(cache.distinct_cached(), None);
    }

    #[test]
    fn length_change_falls_back_to_the_plain_path() {
        let mut cache = AnalysisCache::new();
        let _ = cache.analyse_dirty(&square(), t(), &[]);
        let grown = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(1.0, 1.0),
        ]);
        let got = cache.analyse_dirty(&grown, t(), &[]);
        assert_eq!(got, RoundAnalysis::compute(&grown, t()));
        assert_eq!(cache.computed(), 2);
        assert_eq!(
            cache.distinct_cached().unwrap(),
            grown.distinct().as_slice()
        );
    }

    #[test]
    fn duplicate_and_noop_dirty_indices_are_harmless() {
        // A conservative dirty superset (indices that did not actually
        // move, or listed twice) must not perturb the result.
        let mut reference = AnalysisCache::new();
        let mut cache = AnalysisCache::new();
        let a = square();
        assert_eq!(
            cache.analyse_dirty(&a, t(), &[]),
            reference.analyse(&a, t())
        );
        let mut b = a.clone();
        b.set_point(2, Point::new(3.0, 1.0));
        assert_eq!(
            cache.analyse_dirty(&b, t(), &[0, 2, 2, 3]),
            reference.analyse(&b, t())
        );
        assert_eq!(cache.distinct_cached().unwrap(), b.distinct().as_slice());
        assert_eq!(cache.computed(), reference.computed());
    }

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        let a = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let b = [Point::new(1.0, 0.0), Point::new(0.0, 0.0)];
        let c = [Point::new(0.0, 0.0), Point::new(1.0, 1e-12)];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(a.as_ref()));
    }

    #[test]
    fn map_target_transforms_only_the_target() {
        let c = square();
        let ra = RoundAnalysis::compute(&c, t());
        assert_eq!(ra.analysis.class, Class::QuasiRegular);
        let shifted = ra.map_target(|p| Point::new(p.x + 5.0, p.y));
        assert_eq!(shifted.analysis.class, ra.analysis.class);
        let t0 = ra.analysis.target.unwrap();
        assert_eq!(shifted.analysis.target, Some(Point::new(t0.x + 5.0, t0.y)));
    }

    #[test]
    fn counter_is_monotone_across_classify_calls() {
        let before = crate::classify::classify_invocations();
        let _ = classify(&square(), t());
        let _ = classify(&square(), t());
        assert_eq!(crate::classify::classify_invocations(), before + 2);
    }
}
