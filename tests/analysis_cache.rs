//! Properties of the shared round-analysis pipeline (seeded loops, no
//! external property-testing framework — see DESIGN.md §8):
//!
//! * a [`RoundAnalysis`] carries exactly the result of a fresh
//!   [`classify`], across all five classes and across configurations whose
//!   multiplicities only merge after canonicalisation;
//! * a class-`QR` analysis builds no view: the rotational symmetry its
//!   views would give is read by no movement rule;
//! * the [`AnalysisCache`] is transparent: serving from the memo never
//!   changes the answer, and a perturbed configuration is never served a
//!   stale analysis;
//! * equivariance: handing a robot the *shared* analysis with the target
//!   mapped into its frame produces the same destination as letting the
//!   robot classify its own view from scratch — the soundness condition
//!   for sharing one analysis per round in the ATOM model.

use gather_config::{classify, AnalysisCache, Class, Configuration, RoundAnalysis};
use gather_geom::{Point, Similarity, Tol};
use gather_prng::Rng;
use gather_sim::prelude::{Algorithm, Snapshot};
use gather_workloads as workloads;
use gathering::WaitFreeGather;

fn tol() -> Tol {
    Tol::default()
}

/// A pool of configurations covering every class plus unstructured inputs.
fn gallery(seed: u64) -> Vec<Configuration> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for class in Class::all() {
        for n in [4, 6, 9] {
            out.push(Configuration::new(workloads::of_class(class, n, seed)));
        }
    }
    for n in [3, 5, 8, 13] {
        out.push(Configuration::new(workloads::random_scatter(
            n,
            10.0,
            rng.next_u64(),
        )));
        out.push(Configuration::new(workloads::asymmetric(
            n + 1,
            rng.next_u64(),
        )));
    }
    // Post-canonicalisation multiplicity merges: noisy near-coincident
    // clusters that only become true multiplicities once snapped.
    for n in [6, 10] {
        let mut pts = workloads::random_scatter(n, 8.0, rng.next_u64());
        for i in 0..n / 2 {
            let base = pts[i];
            pts.push(Point::new(base.x + 1e-9, base.y - 1e-9));
        }
        out.push(Configuration::canonical(pts, tol()));
    }
    out
}

#[test]
fn round_analysis_equals_fresh_classify_across_all_classes() {
    for seed in 0..8u64 {
        for config in gallery(seed) {
            let ra = RoundAnalysis::compute(&config, tol());
            let fresh = classify(&config, tol());
            assert_eq!(
                ra.analysis, fresh,
                "shared analysis diverged from fresh classify on {config}"
            );
        }
    }
}

#[test]
fn class_qr_round_analysis_does_no_view_work() {
    // One symmetry computation would build a view per location, 1024 here.
    let config = Configuration::new(workloads::of_class(Class::QuasiRegular, 1024, 1));
    let before = gather_config::view_scans();
    let ra = RoundAnalysis::compute(&config, tol());
    assert_eq!(ra.analysis.class, Class::QuasiRegular);
    assert_eq!(gather_config::view_scans() - before, 0, "views built");
}

#[test]
fn cache_is_transparent_over_a_perturbation_walk() {
    let mut cache = AnalysisCache::new();
    let mut rng = Rng::seed_from_u64(0xA11A);
    let mut pts = workloads::random_scatter(9, 10.0, 7);
    for step in 0..60 {
        let config = Configuration::canonical(pts.clone(), tol());
        // Ask twice: the second answer must come from the memo and both
        // must equal a from-scratch computation.
        let first = cache.analyse(&config, tol());
        let hits_before = cache.hits();
        let second = cache.analyse(&config, tol());
        assert_eq!(cache.hits(), hits_before + 1, "step {step}: no memo hit");
        let fresh = RoundAnalysis::compute(&config, tol());
        for (label, got) in [("cached", first), ("memo", second)] {
            // The semantic payload must match a cold computation exactly.
            assert_eq!(
                got.analysis, fresh.analysis,
                "step {step}: {label} analysis != fresh"
            );
            assert_eq!(
                got.fingerprint, fresh.fingerprint,
                "step {step}: {label} fingerprint != fresh"
            );
            // `weber_hint` is the raw Weiszfeld iterate: the cache warm-
            // starts it from the previous round's Weber point (Lemma 3.2)
            // while the fresh computation runs cold, so the two solves may
            // land on different iterates of the same minimum. They must
            // still agree to solver tolerance — the warm-vs-cold
            // equivalence the warm start relies on.
            match (got.weber_hint, fresh.weber_hint) {
                (Some(w), Some(c)) => assert!(
                    w.dist(c) <= 1e-6,
                    "step {step}: {label} warm Weber {w} strayed from cold {c}"
                ),
                (w, c) => assert_eq!(
                    w.is_some(),
                    c.is_some(),
                    "step {step}: {label} and fresh disagree on hint presence"
                ),
            }
        }
        // Perturb one robot; the cache must notice and recompute.
        let i = rng.random_range(0..pts.len());
        pts[i] = Point::new(
            pts[i].x + rng.next_f64() - 0.5,
            pts[i].y + rng.next_f64() - 0.5,
        );
    }
    assert_eq!(cache.hits(), 60);
    assert_eq!(cache.computed(), 60);
}

#[test]
fn shared_analysis_is_equivariant_under_frame_changes() {
    // The engine hands robot frames the global analysis with only the
    // target transformed. Soundness: for every robot and every
    // orientation-preserving similarity, that must agree with the robot
    // classifying its transformed view from scratch.
    let wfg = WaitFreeGather::default();
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(seed);
        for config in gallery(seed) {
            if config.distinct().len() < 2 {
                continue; // gathered: nothing to compare
            }
            let shared = RoundAnalysis::compute(&config, tol());
            let sim = Similarity::new(
                0.5 + rng.next_f64() * 2.0,
                rng.next_f64() * std::f64::consts::TAU,
                Point::new(rng.next_f64() * 8.0 - 4.0, rng.next_f64() * 8.0 - 4.0),
            );
            let moved = Configuration::new(config.points().iter().map(|p| sim.apply(*p)).collect());
            for me in config.distinct_points() {
                let local_me = sim.apply(me);
                let with_shared = wfg.destination(&Snapshot::with_analysis(
                    moved.clone(),
                    local_me,
                    shared.map_target(|t| sim.apply(t)).analysis,
                ));
                let from_scratch = wfg.destination(&Snapshot::new(moved.clone(), local_me));
                assert!(
                    with_shared.dist(from_scratch) < 1e-5,
                    "seed {seed}, robot {me}: shared-analysis destination \
                     {with_shared} != per-frame destination {from_scratch} \
                     on {moved}"
                );
            }
        }
    }
}
