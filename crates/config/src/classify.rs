//! Classification of configurations (Section IV of the paper).
//!
//! Every configuration of `n ≥ 1` robots belongs to exactly one of five
//! classes, and WAIT-FREE-GATHER dispatches on the class:
//!
//! | Class | Definition | Algorithm behaviour |
//! |---|---|---|
//! | `B`   | robots split `n/2 + n/2` over two points | *(gathering impossible — Lemma 5.2)* |
//! | `M`   | unique point of maximum multiplicity | converge on it with side-steps |
//! | `L1W` | collinear, unique Weber point (median) | move to the median |
//! | `L2W` | collinear, non-unique Weber point | endpoints leave the line, others go to the line centre |
//! | `QR`  | quasi-regular, not above | move to the centre of quasi-regularity (= Weber point) |
//! | `A`   | asymmetric remainder | elect a safe point, move to it |
//!
//! `classify` follows the same priority order the definitions use, so the
//! classes are disjoint by construction; the partition property
//! (`B ∪ M ∪ L ∪ QR ∪ A = P`) is validated empirically by experiment T6.

use crate::configuration::Configuration;
use crate::locate::Tail;
use crate::quasi::detect_in;
use crate::safe::elect_in;
use gather_geom::{are_collinear, weber::median_interval_on_line, Point, Tol};

/// The five configuration classes of the paper (`L` split into `L1W` and
/// `L2W` as in Section IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `B`: robots equally distributed over exactly two points.
    /// Deterministic gathering is impossible from this class.
    Bivalent,
    /// `M`: a unique point of maximum multiplicity exists.
    Multiple,
    /// `L1W`: collinear with a unique Weber point (unique median).
    Collinear1W,
    /// `L2W`: collinear with infinitely many Weber points.
    Collinear2W,
    /// `QR`: quasi-regular (includes regular, biangular, and rotationally
    /// symmetric configurations), not in the previous classes.
    QuasiRegular,
    /// `A`: asymmetric (`sym(C) = 1`) remainder.
    Asymmetric,
}

impl Class {
    /// Short name as used in the paper (`B`, `M`, `L1W`, `L2W`, `QR`, `A`).
    pub fn short_name(self) -> &'static str {
        match self {
            Class::Bivalent => "B",
            Class::Multiple => "M",
            Class::Collinear1W => "L1W",
            Class::Collinear2W => "L2W",
            Class::QuasiRegular => "QR",
            Class::Asymmetric => "A",
        }
    }

    /// The class whose [`short_name`](Class::short_name) is `name`
    /// (`None` for anything else). Inverse of `short_name`; used by the
    /// serialization layers (`RunMetrics` JSONL, the serving API) to parse
    /// classes back out of their wire form.
    pub fn from_short_name(name: &str) -> Option<Class> {
        Class::all().into_iter().find(|c| c.short_name() == name)
    }

    /// All classes, in the paper's priority order.
    pub fn all() -> [Class; 6] {
        [
            Class::Bivalent,
            Class::Multiple,
            Class::Collinear1W,
            Class::Collinear2W,
            Class::QuasiRegular,
            Class::Asymmetric,
        ]
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The result of classifying a configuration, with the artefacts the
/// gathering algorithm needs for the class.
///
/// `Copy` so a shared per-round analysis can be handed to every robot's
/// snapshot without allocation (see [`crate::analysis`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Analysis {
    /// The configuration's class.
    pub class: Class,
    /// Number of robots.
    pub n: usize,
    /// The unique movement target, when the class defines one:
    /// the max-multiplicity point for `M`, the Weber point for `L1W`,
    /// the centre of quasi-regularity for `QR`, the elected safe point
    /// for `A`. `None` for `B` and `L2W`, whose rules are per-robot.
    pub target: Option<Point>,
    /// For `QR`: the quasi-regularity `qreg(C)`.
    pub qreg: Option<usize>,
}

thread_local! {
    /// Number of [`classify`] invocations on this thread.
    static CLASSIFY_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total number of [`classify`] invocations on the current thread since it
/// started. Monotone; callers diff two readings to count the classifications
/// a code region performed. Feeds the engine's per-round metrics and the
/// "classify at most twice per round" acceptance test of the shared-analysis
/// pipeline.
pub fn classify_invocations() -> u64 {
    CLASSIFY_CALLS.with(|c| c.get())
}

/// Classifies `config` into the paper's partition (Section IV.A) and
/// returns the class together with the class's movement target when one is
/// intrinsic to the class.
///
/// # Panics
///
/// Panics if the configuration is empty: the paper's model has `n ≥ 1`
/// robots and an empty configuration has no meaningful class.
///
/// # Example
///
/// ```
/// use gather_config::{classify, Class, Configuration};
/// use gather_geom::{Point, Tol};
///
/// let bivalent = Configuration::new(vec![
///     Point::new(0.0, 0.0), Point::new(0.0, 0.0),
///     Point::new(3.0, 0.0), Point::new(3.0, 0.0),
/// ]);
/// assert_eq!(classify(&bivalent, Tol::default()).class, Class::Bivalent);
/// ```
pub fn classify(config: &Configuration, tol: Tol) -> Analysis {
    classify_hinted(config, tol, None).0
}

/// Scratch pair for [`classify`]: (multiplicity-grouped points, raw points).
type ClassifyScratch = (Vec<(Point, usize)>, Vec<Point>);

thread_local! {
    /// Reusable buffers for the early (multiplicity/linearity) phase of
    /// [`classify`], so steady-state class-M rounds classify without any
    /// heap allocation. [`classify_hinted`] takes them out for the call
    /// and puts them back, so no borrow is held while the tail runs.
    static CLASSIFY_SCRATCH: std::cell::RefCell<ClassifyScratch> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Outcome of the allocation-free early phase of classification.
enum Prefix {
    Done(Analysis),
    Linear,
    Open,
}

/// [`classify`] with an optional warm-start iterate for the numeric Weber
/// computation inside quasi-regularity detection (the previous round's
/// Weber point — exact while robots move toward it, Lemma 3.2). Returns
/// the analysis together with the Weber point the detector computed, if it
/// ran, so callers (the [`crate::analysis::AnalysisCache`]) can carry it
/// forward as the next round's hint. The hint only seeds the iteration,
/// and centres the probes of the lower bound that decides where the
/// class-`QR`/`A` searches evaluate exactly, which changes their cost but
/// no result; classes that never reach the numeric Weber computation
/// (`B`, `M`, `L1W`, `L2W`, occupied-centre `QR`) ignore it for the
/// result, which is what makes the warm start safe across class changes.
pub fn classify_hinted(
    config: &Configuration,
    tol: Tol,
    weber_hint: Option<Point>,
) -> (Analysis, Option<Point>) {
    CLASSIFY_CALLS.with(|c| c.set(c.get() + 1));
    assert!(!config.is_empty(), "cannot classify an empty configuration");
    let n = config.len();

    // Taken out of the thread-local for the call and put back after, so
    // the tail reads the multiset while no borrow is held.
    let (mut distinct, mut pts) =
        CLASSIFY_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    config.distinct_into(&mut distinct, &mut pts);
    let prefix = classify_prefix(&distinct, &mut pts, n, tol);
    let out = classify_tail(prefix, config, tol, weber_hint, &distinct);
    CLASSIFY_SCRATCH.with(|cell| *cell.borrow_mut() = (distinct, pts));
    out
}

/// [`classify_hinted`] with the distinct-location multiset already in hand
/// (in [`Configuration::distinct_into`]'s lexicographic order) — the entry
/// point of the incremental analysis path, which maintains the multiset by
/// patching instead of re-sorting the whole configuration each round.
/// Identical in every observable way to [`classify_hinted`], including the
/// invocation counter, when `distinct` equals what `distinct_into` would
/// produce for `config`.
///
/// # Panics
///
/// Panics if the configuration is empty.
pub fn classify_hinted_with_distinct(
    config: &Configuration,
    tol: Tol,
    weber_hint: Option<Point>,
    distinct: &[(Point, usize)],
) -> (Analysis, Option<Point>) {
    CLASSIFY_CALLS.with(|c| c.set(c.get() + 1));
    assert!(!config.is_empty(), "cannot classify an empty configuration");
    let n = config.len();
    debug_assert_eq!(
        distinct.iter().map(|&(_, m)| m).sum::<usize>(),
        n,
        "distinct multiset does not cover the configuration"
    );

    let prefix = CLASSIFY_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        classify_prefix(distinct, &mut scratch.1, n, tol)
    });

    classify_tail(prefix, config, tol, weber_hint, distinct)
}

/// The allocation-free early phase shared by [`classify_hinted`] and
/// [`classify_hinted_with_distinct`]: multiplicity-driven classes (`M`,
/// `B`) and the linearity split, decided purely from the distinct-location
/// multiset. `pts` is sorting-free scratch for the collinearity test.
fn classify_prefix(
    distinct: &[(Point, usize)],
    pts: &mut Vec<Point>,
    n: usize,
    tol: Tol,
) -> Prefix {
    // Gathered configurations are class M with the gathering point as
    // target (the M rule keeps them gathered: the robot at the unique
    // maximum does not move).
    if distinct.len() == 1 {
        return Prefix::Done(Analysis {
            class: Class::Multiple,
            n,
            target: Some(distinct[0].0),
            qreg: None,
        });
    }

    // B: exactly two locations, each with n/2 robots.
    if distinct.len() == 2 && distinct[0].1 == distinct[1].1 {
        return Prefix::Done(Analysis {
            class: Class::Bivalent,
            n,
            target: None,
            qreg: None,
        });
    }

    // M: unique point of maximum multiplicity.
    let max = distinct.iter().map(|&(_, m)| m).max().expect("non-empty");
    let mut attaining = distinct.iter().filter(|&&(_, m)| m == max);
    let first = attaining.next().expect("max is attained");
    if attaining.next().is_none() {
        return Prefix::Done(Analysis {
            class: Class::Multiple,
            n,
            target: Some(first.0),
            qreg: None,
        });
    }

    // L: linearity of the distinct positions.
    pts.clear();
    pts.extend(distinct.iter().map(|&(p, _)| p));
    if are_collinear(pts, tol) {
        Prefix::Linear
    } else {
        Prefix::Open
    }
}

/// The class-specific completion shared by both classification entry
/// points: linear median split, quasi-regularity detection, safe-point
/// election. The last two share one [`Tail`] — the distinct multiset the
/// prefix read, the SEC and the lower bound on the Weber objective — built
/// once (DESIGN.md §13 item 8).
fn classify_tail(
    prefix: Prefix,
    config: &Configuration,
    tol: Tol,
    weber_hint: Option<Point>,
    distinct: &[(Point, usize)],
) -> (Analysis, Option<Point>) {
    let n = config.len();
    match prefix {
        Prefix::Done(analysis) => (analysis, None),
        // Linear configurations, split by Weber-point uniqueness. Linearity
        // was established on the distinct positions above; the median
        // interval is computed by projection (no second collinearity test,
        // which could disagree on near-coincident clusters).
        Prefix::Linear => {
            let (lo, hi) = median_interval_on_line(config.points(), tol);
            if lo.dist(hi) <= tol.snap {
                return (
                    Analysis {
                        class: Class::Collinear1W,
                        n,
                        target: Some(lo.midpoint(hi)),
                        qreg: None,
                    },
                    None,
                );
            }
            (
                Analysis {
                    class: Class::Collinear2W,
                    n,
                    target: None,
                    qreg: None,
                },
                None,
            )
        }
        Prefix::Open => {
            // QR: quasi-regular configurations.
            let tail = Tail::new(config, distinct, tol, weber_hint);
            let (qr, weber_seen) = detect_in(&tail);
            if let Some(qr) = qr {
                return (
                    Analysis {
                        class: Class::QuasiRegular,
                        n,
                        target: Some(qr.center),
                        qreg: Some(qr.m),
                    },
                    weber_seen,
                );
            }

            // A: everything else. By the partition argument of Section IV.A
            // any remaining configuration has sym(C) = 1 (a symmetric one
            // would have been caught by the QR detector via its SEC centre).
            // The class-A movement target — the elected safe point of
            // Figure 2 line 17 — is a pure function of the configuration
            // (every robot elects the same point), so it is part of the
            // analysis; non-linear configurations always yield one
            // (Lemma 4.2).
            (
                Analysis {
                    class: Class::Asymmetric,
                    n,
                    target: elect_in(&tail),
                    qreg: None,
                },
                weber_seen,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetry::rotational_symmetry;
    use std::f64::consts::TAU;

    fn t() -> Tol {
        Tol::default()
    }

    fn ngon(n: usize, r: f64) -> Vec<Point> {
        (0..n)
            .map(|k| {
                let th = TAU * k as f64 / n as f64;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_configuration_panics() {
        let _ = classify(&Configuration::default(), t());
    }

    #[test]
    fn gathered_is_multiple() {
        let c = Configuration::new(vec![Point::new(1.0, 2.0); 7]);
        let a = classify(&c, t());
        assert_eq!(a.class, Class::Multiple);
        assert_eq!(a.target, Some(Point::new(1.0, 2.0)));
    }

    #[test]
    fn bivalent_detection() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(5.0, 0.0);
        let c = Configuration::new(vec![p, p, p, q, q, q]);
        assert_eq!(classify(&c, t()).class, Class::Bivalent);
        // Unequal split over two points is NOT bivalent — it's M.
        let c2 = Configuration::new(vec![p, p, p, q, q]);
        let a2 = classify(&c2, t());
        assert_eq!(a2.class, Class::Multiple);
        assert_eq!(a2.target, Some(p));
    }

    #[test]
    fn two_robots_at_distinct_points_are_bivalent() {
        let c = Configuration::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        assert_eq!(classify(&c, t()).class, Class::Bivalent);
    }

    #[test]
    fn multiple_beats_linearity() {
        // A linear configuration with a unique max multiplicity is M.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ]);
        let a = classify(&c, t());
        assert_eq!(a.class, Class::Multiple);
        assert_eq!(a.target, Some(Point::new(1.0, 0.0)));
    }

    #[test]
    fn collinear_odd_is_l1w() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(4.0, 4.0),
        ]);
        let a = classify(&c, t());
        assert_eq!(a.class, Class::Collinear1W);
        assert!(a.target.unwrap().dist(Point::new(1.0, 1.0)) < 1e-9);
    }

    #[test]
    fn collinear_even_distinct_medians_is_l2w() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(7.0, 0.0),
        ]);
        let a = classify(&c, t());
        assert_eq!(a.class, Class::Collinear2W);
        assert!(a.target.is_none());
    }

    #[test]
    fn collinear_even_with_coincident_medians_is_l1w() {
        // Middle two robots at the same point, but max multiplicity tied:
        // 2 robots at x=3 and 2 robots at x=0 → no unique max → linear →
        // median = 3 (positions 0,0,3,3,8 sorted: n=5 odd). Build n=6:
        // 0,0,3,3,3? that's unique max. Use 0,0,3,3,8,9: medians both 3.
        let xs = [0.0, 0.0, 3.0, 3.0, 8.0, 9.0];
        let c = Configuration::new(xs.map(|x| Point::new(x, 0.0)).to_vec());
        let a = classify(&c, t());
        assert_eq!(a.class, Class::Collinear1W);
        assert!(a.target.unwrap().dist(Point::new(3.0, 0.0)) < 1e-9);
    }

    #[test]
    fn square_is_quasi_regular() {
        let c = Configuration::new(ngon(4, 2.0));
        let a = classify(&c, t());
        assert_eq!(a.class, Class::QuasiRegular);
        assert_eq!(a.qreg, Some(4));
        assert!(a.target.unwrap().dist(Point::ORIGIN) < 1e-6);
    }

    /// Robustly asymmetric: Weber point at the occupied origin, directions
    /// 0°/100°/200° not periodic (see the quasi module for why generic
    /// small configurations end up quasi-regular instead).
    fn asymmetric4() -> Configuration {
        let deg = |d: f64| d.to_radians();
        Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(2.0 * deg(100.0).cos(), 2.0 * deg(100.0).sin()),
            Point::new(2.5 * deg(200.0).cos(), 2.5 * deg(200.0).sin()),
        ])
    }

    #[test]
    fn vertex_weber_quadrilateral_is_asymmetric() {
        let c = asymmetric4();
        let a = classify(&c, t());
        assert_eq!(a.class, Class::Asymmetric);
        assert_eq!(rotational_symmetry(&c, t()), 1);
    }

    #[test]
    fn scalene_triangle_is_quasi_regular() {
        // Any triangle with all angles < 120° is regular around its Fermat
        // point (string of angles (2π/3)³), hence in QR, not A.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        let a = classify(&c, t());
        assert_eq!(a.class, Class::QuasiRegular);
        assert_eq!(a.qreg, Some(3));
    }

    #[test]
    fn classes_are_disjoint_over_a_gallery() {
        // classify returns exactly one class per configuration by
        // construction; verify the expected class on one representative of
        // each.
        let reps: Vec<(Configuration, Class)> = vec![
            (
                Configuration::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
                Class::Bivalent,
            ),
            (
                Configuration::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(0.0, 0.0),
                    Point::new(1.0, 0.0),
                ]),
                Class::Multiple,
            ),
            (
                Configuration::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(1.0, 0.0),
                    Point::new(5.0, 0.0),
                ]),
                Class::Collinear1W,
            ),
            (
                Configuration::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(1.0, 0.0),
                    Point::new(2.0, 0.0),
                    Point::new(5.0, 0.0),
                ]),
                Class::Collinear2W,
            ),
            (Configuration::new(ngon(6, 1.0)), Class::QuasiRegular),
            (asymmetric4(), Class::Asymmetric),
        ];
        for (c, expected) in &reps {
            assert_eq!(classify(c, t()).class, *expected, "config {c}");
        }
    }

    #[test]
    fn symmetric_triangle_with_center_robot() {
        // Equilateral triangle + robot at the centre: all multiplicities
        // are 1 with 4 points, non-linear, quasi-regular with occupied
        // centre.
        let mut pts = ngon(3, 2.0);
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        let a = classify(&c, t());
        assert_eq!(a.class, Class::QuasiRegular);
        assert!(a.target.unwrap().dist(Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn classify_with_distinct_matches_classify_hinted() {
        let configs = vec![
            Configuration::new(vec![Point::new(1.0, 2.0); 7]),
            Configuration::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Configuration::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
            ]),
            Configuration::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(4.0, 4.0),
            ]),
            Configuration::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(7.0, 0.0),
            ]),
            Configuration::new(ngon(5, 2.0)),
            asymmetric4(),
        ];
        for c in &configs {
            let distinct = c.distinct();
            let before = classify_invocations();
            let plain = classify_hinted(c, t(), None);
            let mid = classify_invocations();
            let with = classify_hinted_with_distinct(c, t(), None, &distinct);
            let after = classify_invocations();
            assert_eq!(plain, with, "config {c}");
            // Both entry points bump the invocation counter exactly once.
            assert_eq!(mid - before, 1);
            assert_eq!(after - mid, 1);
        }
    }

    /// The classification with the class-`A` tail the locate-then-verify
    /// pass replaced: the full occupied scan and candidate list of
    /// `detect_quasi_regularity_oracle`, and the ranked election that
    /// evaluated every distinct position.
    fn classify_oracle(config: &Configuration, hint: Option<Point>) -> (Analysis, Option<Point>) {
        let n = config.len();
        let distinct = config.distinct();
        let prefix = classify_prefix(&distinct, &mut Vec::new(), n, t());
        if !matches!(prefix, Prefix::Open) {
            return classify_tail(prefix, config, t(), hint, &distinct);
        }
        let (qr, weber_seen) = crate::quasi::detect_quasi_regularity_oracle(config, t(), hint);
        let analysis = match qr {
            Some(qr) => Analysis {
                class: Class::QuasiRegular,
                n,
                target: Some(qr.center),
                qreg: Some(qr.m),
            },
            None => Analysis {
                class: Class::Asymmetric,
                n,
                target: crate::safe::elected_point_ranked_oracle(config, t()),
                qreg: None,
            },
        };
        (analysis, weber_seen)
    }

    /// A result's `Debug` text: `f64`'s `Debug` prints the shortest digits
    /// that read back to the same bits, so equal text is equal bits for
    /// every finite coordinate and ±0.
    fn bits(out: impl std::fmt::Debug) -> String {
        format!("{out:?}")
    }

    /// Holds classification, quasi-regularity detection and the election
    /// to their full-scan oracles, cold and warm-started from the Weber
    /// point, bit for bit. Returns the class.
    fn assert_matches_the_oracles(c: &Configuration) -> Class {
        let weber = gather_geom::weber_point_weiszfeld(c.points(), t()).point;
        let mut class = Class::Multiple;
        for hint in [None, Some(weber)] {
            let got = classify_hinted(c, t(), hint);
            class = got.0.class;
            assert_eq!(
                bits(got),
                bits(classify_oracle(c, hint)),
                "hint {hint:?}: {c}"
            );
            assert_eq!(
                bits(crate::detect_quasi_regularity_hinted(c, t(), hint)),
                bits(crate::quasi::detect_quasi_regularity_oracle(c, t(), hint)),
                "quasi-regularity, hint {hint:?}: {c}"
            );
        }
        // The election by its definition costs a safety test per position:
        // past a few hundred robots, the ranked oracle (held to it in the
        // election's own tests) stands in.
        let election = if c.len() <= 256 {
            crate::safe::elected_point_oracle
        } else {
            crate::safe::elected_point_ranked_oracle
        };
        assert_eq!(
            bits(crate::elected_point(c, t())),
            bits(election(c, t())),
            "election: {c}"
        );
        class
    }

    #[test]
    fn locate_then_verify_matches_the_full_scans_on_the_t4_t6_galleries() {
        let mut seen = std::collections::BTreeSet::new();
        for n in [4usize, 6, 8, 12, 16, 24, 32] {
            for seed in 0..3u64 {
                let k = (n / 2).max(2);
                let families = [
                    gather_workloads::regular_polygon(n, 3.0, seed as f64 * 0.21),
                    gather_workloads::biangular(k, TAU / (2.3 * k as f64), 2.0, 4.5),
                    gather_workloads::quasi_regular(k, 2, seed),
                    gather_workloads::ring_with_center(n.saturating_sub(1).max(3), 1, 3.0),
                    gather_workloads::asymmetric(n.max(4), seed),
                ];
                for pts in families {
                    seen.insert(assert_matches_the_oracles(&Configuration::canonical(
                        pts,
                        t(),
                    )));
                }
            }
        }
        for n in [4usize, 6, 9, 12] {
            for (_, _, pts) in gather_workloads::class_sweep(n, 5) {
                seen.insert(assert_matches_the_oracles(&Configuration::canonical(
                    pts,
                    t(),
                )));
            }
        }
        for n in [3usize, 4, 5, 6, 8, 12] {
            for seed in 0..50u64 {
                let seed = seed.wrapping_mul(31).wrapping_add(n as u64);
                let pts = gather_workloads::random_scatter(n, 8.0, seed);
                seen.insert(assert_matches_the_oracles(&Configuration::canonical(
                    pts,
                    t(),
                )));
            }
        }
        assert_eq!(seen.len(), 6, "the galleries reach every class: {seen:?}");
    }

    #[test]
    fn locate_then_verify_matches_the_full_scans_on_near_regular_polygons() {
        // Holes, doubled corners and jitter straddling ANGLE_EPS around a
        // centre stack, so the occupied centre passes the prefilter or just
        // fails it, and Lemma 3.4 lands on both sides of its budget.
        let eps = crate::angles::ANGLE_EPS;
        let mut rng = gather_prng::Rng::seed_from_u64(0x9E60);
        let mut centred = 0;
        for _ in 0..200 {
            let ring = rng.random_range(3usize..25);
            let jitter = [0.0, 0.5 * eps, 2.0 * eps, 0.05][rng.random_range(0usize..4)];
            let mut pts = Vec::new();
            let mut holes = 0;
            for k in 0..ring {
                if rng.random_bool(0.2) {
                    holes += 1;
                    continue;
                }
                let th = TAU * k as f64 / ring as f64 + jitter * rng.random_range(-1.0..1.0);
                let r = rng.random_range(1.0..4.0);
                let copies = if rng.random_bool(0.15) { 2 } else { 1 };
                pts.extend(std::iter::repeat_n(
                    Point::new(r * th.cos(), r * th.sin()),
                    copies,
                ));
            }
            let stack = (holes + rng.random_range(0usize..3))
                .saturating_sub(1)
                .max(1);
            pts.extend(std::iter::repeat_n(Point::ORIGIN, stack));
            let c = Configuration::new(pts);
            let class = assert_matches_the_oracles(&c);
            let a = classify(&c, t());
            centred += usize::from(class == Class::QuasiRegular && a.target == Some(Point::ORIGIN));
        }
        assert!(centred >= 8, "only {centred} occupied centres were found");
    }

    #[test]
    fn locate_then_verify_matches_the_full_scans_when_views_and_snap_decide() {
        let mut rng = gather_prng::Rng::seed_from_u64(0x71E6);
        for _ in 0..300 {
            let pts = crate::safe::tests::integer_distance_ties(&mut rng);
            if pts.len() >= 3 {
                assert_matches_the_oracles(&Configuration::new(pts));
            }
        }
        // Distinct positions closer than the snap radius: `mult` counts
        // both, so the election's multiplicity levels differ from the
        // distinct multiset's counts.
        let snap = t().snap;
        let mut twinned = 0;
        for seed in 0..150u64 {
            let n = 6 + (seed % 20) as usize;
            let mut pts = gather_workloads::random_scatter(n, 8.0, 977 * seed + 3);
            for i in 0..rng.random_range(1usize..4) {
                let p = pts[i];
                let d = rng.random_range(0.1..0.9) * snap;
                pts.push(Point::new(p.x + d, p.y));
                if rng.random_bool(0.3) {
                    pts.push(Point::new(p.x, p.y - d));
                }
            }
            let c = Configuration::new(pts);
            twinned += usize::from(assert_matches_the_oracles(&c) == Class::Asymmetric);
        }
        assert!(
            twinned >= 50,
            "only {twinned} twinned scatters were class A"
        );
    }

    /// `random_scatter(n, 10, seed)` as given, and with its last robot
    /// moved onto the Weber point of the others.
    fn scatter_pair(n: usize, seed: u64) -> [Configuration; 2] {
        let pts = gather_workloads::random_scatter(n, 10.0, seed);
        let mut centred = pts[..n - 1].to_vec();
        centred.push(gather_geom::weber_point_weiszfeld(&centred, t()).point);
        [Configuration::new(pts), Configuration::new(centred)]
    }

    #[test]
    fn locate_then_verify_matches_the_full_scans_on_large_scatters() {
        for (n, seeds) in [(64usize, 4u64), (256, 2), (1024, 1), (4096, 1)] {
            for seed in 0..seeds {
                for c in scatter_pair(n, 1_000_003 * seed + n as u64) {
                    assert_eq!(assert_matches_the_oracles(&c), Class::Asymmetric, "n={n}");
                }
            }
        }
    }

    #[test]
    fn class_a_classification_makes_a_bounded_number_of_point_scans() {
        // The exact O(n) kernels run only at the few positions near the
        // Weber point the bound cannot exclude: the count does not grow
        // with n. The full scans made about 3n of them.
        for n in [256usize, 1024, 4096] {
            for seed in [1u64, 80_896_415] {
                for c in scatter_pair(n, seed) {
                    let before = gather_geom::soa::point_scans();
                    let a = classify(&c, t());
                    let scans = gather_geom::soa::point_scans() - before;
                    assert_eq!(a.class, Class::Asymmetric);
                    assert!(scans <= 64, "n={n} seed={seed}: {scans} point scans");
                }
            }
        }
    }

    #[test]
    fn short_names_cover_all_classes() {
        let names: Vec<&str> = Class::all().iter().map(|c| c.short_name()).collect();
        assert_eq!(names, vec!["B", "M", "L1W", "L2W", "QR", "A"]);
        assert_eq!(format!("{}", Class::QuasiRegular), "QR");
    }

    #[test]
    fn short_names_round_trip() {
        for class in Class::all() {
            assert_eq!(Class::from_short_name(class.short_name()), Some(class));
        }
        assert_eq!(Class::from_short_name("X"), None);
        assert_eq!(Class::from_short_name(""), None);
    }
}
