//! Quasi-regular configurations and their detection (Definitions 6–7,
//! Lemma 3.4, Theorem 3.1 of the paper).
//!
//! A configuration `C` is *quasi-regular* with centre `c` when a regular
//! configuration with centre of regularity `c` can be obtained from `C` by
//! moving only robots located at `c`. Quasi-regularity matters because:
//!
//! * it is preserved when robots move straight toward the centre (even if
//!   the adversary interrupts them), and
//! * the centre of quasi-regularity of a non-linear configuration **is its
//!   Weber point** (Lemma 3.3), the ideal crash-tolerant gathering target.
//!
//! Detection has two cases:
//!
//! * **Occupied centre** (`c ∈ C`): the paper's combinatorial criterion
//!   (Lemma 3.4) — for some `m > 1`, the robots at `c` suffice to fill every
//!   angular slot of the `2π/m`-rotation orbits of the occupied directions
//!   around `c` up to the orbit's maximum. Implemented exactly in
//!   [`quasi_regular_with_center`].
//! * **Unoccupied centre**: then no point may be moved, so `C` itself must
//!   be regular around `c`; such a centre satisfies the Weber first-order
//!   condition and is found among the regularity candidate centres (SEC
//!   centre, numeric Weber point).

use crate::angles::{center_zone_radius, direction_buckets, ANGLE_EPS, CENTER_ZONE_REL};
use crate::configuration::Configuration;
use crate::locate::Tail;
use crate::regularity::regularity_around;
use gather_geom::{are_collinear, weber_point_weiszfeld, weber_point_weiszfeld_from, Point, Tol};
use std::f64::consts::TAU;

/// Evidence that a configuration is quasi-regular (Definition 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuasiRegularity {
    /// The centre of quasi-regularity `CQR(C)`; for non-linear
    /// configurations this is the Weber point (Lemma 3.3).
    pub center: Point,
    /// The quasi-regularity `qreg(C) > 1`.
    pub m: usize,
    /// Whether the centre is an occupied position.
    pub center_occupied: bool,
}

/// Absolute circular distance between two angles, in `[0, π]`.
fn circ_diff(a: f64, b: f64) -> f64 {
    let mut d = (a - b).abs() % TAU;
    if d > TAU / 2.0 {
        d = TAU - d;
    }
    d
}

/// Lemma 3.4: is `config` quasi-regular with **occupied** centre `p`?
///
/// Returns the largest `m > 1` for which the criterion
/// `mult(p) ≥ Σ_x (OBJ(C, x) − LOC(C, x))` holds — i.e. the robots stacked
/// at `p` can be redistributed to the empty angular slots so that the
/// directions around `p` become `m`-periodic — or `None` if no `m` works.
///
/// `p` must carry at least one robot, and at least one robot must lie
/// elsewhere (otherwise the notion is degenerate and `None` is returned).
///
/// # Example
///
/// ```
/// use gather_config::{quasi_regular_with_center, Configuration};
/// use gather_geom::{Point, Tol};
///
/// // Three of four corners of a square plus 1 spare robot at the centre:
/// // the spare can complete the square, so the configuration is
/// // quasi-regular with the centre as its Weber point.
/// let c = Configuration::new(vec![
///     Point::new(1.0, 0.0), Point::new(0.0, 1.0), Point::new(-1.0, 0.0),
///     Point::new(0.0, 0.0),
/// ]);
/// let m = quasi_regular_with_center(&c, Point::new(0.0, 0.0), Tol::default());
/// assert_eq!(m, Some(4));
/// ```
pub fn quasi_regular_with_center(config: &Configuration, p: Point, tol: Tol) -> Option<usize> {
    if config.mult(p, tol) == 0 {
        return None;
    }
    // Robots within the centre zone count as located at p: they are the
    // robots the quasi-regular rule may move (or has just gathered), and
    // their directions from p are numerically meaningless.
    let zone = center_zone_radius(config, p, tol);
    let mult_p = gather_geom::soa::radial_pull(config.soa(), p, zone).1;
    occupied_quasi_regularity(config, p, tol, mult_p)
}

/// The Lemma 3.4 test at a point `p` known to be occupied, given the
/// number `mult_p` of robots in its centre zone.
///
/// Every search stops as soon as its answer is fixed, so the result is
/// the one the exhaustive test gives (`quasi_regular_with_center_oracle`
/// below keeps that test for the differential tests):
///
/// * `m` runs downwards and the first `m` that passes wins — the largest;
/// * an `m` is left once its deficiency exceeds `mult_p`: it only grows.
///   Within an orbit, every empty slot found so far adds at least 1 to
///   it (slot 0 always finds a bucket, so the orbit's maximum is at
///   least 1), and an orbit stops once those slots alone exceed `mult_p`;
/// * an `m` with `m·⌈B/m⌉ − B > mult_p`, for `B` direction buckets, is
///   skipped. In a passing `m` every orbit claims its own base at slot 0
///   (otherwise the lowest orbit that does not claims a visited bucket
///   and fails), and no bucket is claimed twice. So the `B` buckets fill
///   exactly `B` slots of at least `⌈B/m⌉` orbits of `m` slots, at least
///   `m·⌈B/m⌉ − B` slots stay empty, and each adds at least 1 to the
///   deficiency. A later slot of an orbit may claim the orbit's own base
///   again only if `2π/m ≤ ANGLE_EPS`, so the skip applies only while
///   `2π/m > 2·ANGLE_EPS`; larger `m` are tested in full.
fn occupied_quasi_regularity(
    config: &Configuration,
    p: Point,
    tol: Tol,
    mult_p: usize,
) -> Option<usize> {
    let buckets = direction_buckets(config, p, tol);
    if buckets.is_empty() {
        return None; // all robots at p: gathered, not quasi-regular
    }
    let b = buckets.len();
    (2..=config.len()).rev().find(|&m| {
        let cannot_fill = TAU / m as f64 > 2.0 * ANGLE_EPS && m * b.div_ceil(m) - b > mult_p;
        !cannot_fill && orbits_complete(&buckets, m, mult_p)
    })
}

/// Can `mult_p` robots fill the empty slots of the `2π/m`-rotation orbits
/// of the direction buckets up to each orbit's maximum (the Lemma 3.4
/// criterion for one `m`)?
fn orbits_complete(buckets: &[(f64, usize)], m: usize, mult_p: usize) -> bool {
    let step = TAU / m as f64;
    let mut visited = vec![false; buckets.len()];
    let mut deficiency: usize = 0;
    for i in 0..buckets.len() {
        if visited[i] {
            continue;
        }
        // The orbit of direction i under rotation by 2π/m: m slots.
        let base = buckets[i].0;
        let (mut filled, mut obj, mut empty) = (0usize, 0usize, 0usize);
        for j in 0..m {
            let target = base + step * j as f64;
            if let Some(k) = slot_bucket(buckets, target) {
                if visited[k] && k != i {
                    // Slot already claimed by another orbit: the orbits
                    // overlap inconsistently under this m.
                    return false;
                }
                visited[k] = true;
                filled += buckets[k].1;
                obj = obj.max(buckets[k].1);
            } else {
                // Slot 0 always finds a bucket (at least the base's own),
                // so the orbit's maximum is at least 1 and each empty
                // slot adds at least 1 to the deficiency.
                empty += 1;
                if deficiency + empty > mult_p {
                    return false;
                }
            }
        }
        deficiency += m * obj - filled;
        if deficiency > mult_p {
            return false;
        }
    }
    true
}

/// The lowest-index bucket within [`ANGLE_EPS`] of `target` (circularly),
/// the one a linear scan in index order finds. The buckets are sorted by
/// angle in `[0, 2π)`, so only those within `2·ANGLE_EPS` of the target,
/// reduced to `[0, 2π)`, can qualify: just past the 0 seam, around the
/// target, and just before the 2π seam, in that index order. Binary
/// search finds each run; the exact predicate decides within them.
fn slot_bucket(buckets: &[(f64, usize)], target: f64) -> Option<usize> {
    let t = target.rem_euclid(TAU);
    let slack = 2.0 * ANGLE_EPS;
    let run = |lo: f64, hi: f64| {
        buckets.partition_point(|b| b.0 < lo)..buckets.partition_point(|b| b.0 <= hi)
    };
    run(f64::NEG_INFINITY, t + slack - TAU)
        .chain(run(t - slack, t + slack))
        .chain(run(t - slack + TAU, f64::INFINITY))
        .find(|&k| circ_diff(buckets[k].0, target) <= ANGLE_EPS)
}

/// [`orbits_complete`] without the empty-slot exit: every slot of an
/// orbit is scanned before the deficiency is checked. The differential
/// tests hold the fast version to it.
#[cfg(test)]
fn orbits_complete_oracle(buckets: &[(f64, usize)], m: usize, mult_p: usize) -> bool {
    let step = TAU / m as f64;
    let mut visited = vec![false; buckets.len()];
    let mut deficiency: usize = 0;
    for i in 0..buckets.len() {
        if visited[i] {
            continue;
        }
        // The orbit of direction i under rotation by 2π/m: m slots.
        let base = buckets[i].0;
        let (mut filled, mut obj) = (0usize, 0usize);
        for j in 0..m {
            let target = base + step * j as f64;
            if let Some(k) = slot_bucket(buckets, target) {
                if visited[k] && k != i {
                    // Slot already claimed by another orbit: the orbits
                    // overlap inconsistently under this m.
                    return false;
                }
                visited[k] = true;
                filled += buckets[k].1;
                obj = obj.max(buckets[k].1);
            }
        }
        deficiency += m * obj - filled;
        if deficiency > mult_p {
            return false;
        }
    }
    true
}

/// The exhaustive Lemma 3.4 test: every `m`, every orbit, every slot by
/// a linear scan. The differential tests hold
/// [`quasi_regular_with_center`] to it.
#[cfg(test)]
fn quasi_regular_with_center_oracle(config: &Configuration, p: Point, tol: Tol) -> Option<usize> {
    if config.mult(p, tol) == 0 {
        return None;
    }
    let zone = center_zone_radius(config, p, tol);
    let mult_p = gather_geom::soa::radial_pull(config.soa(), p, zone).1;
    let buckets = direction_buckets(config, p, tol);
    if buckets.is_empty() {
        return None;
    }
    let n = config.len();
    let eps = ANGLE_EPS;

    let mut best: Option<usize> = None;
    for m in 2..=n {
        let step = TAU / m as f64;
        let mut visited = vec![false; buckets.len()];
        let mut deficiency: usize = 0;
        let mut feasible = true;
        for i in 0..buckets.len() {
            if visited[i] {
                continue;
            }
            let base = buckets[i].0;
            let mut counts: Vec<usize> = Vec::with_capacity(m);
            for j in 0..m {
                let target = base + step * j as f64;
                let mut found = 0usize;
                for (k, (angle, count)) in buckets.iter().enumerate() {
                    if circ_diff(*angle, target) <= eps {
                        found = *count;
                        if visited[k] && k != i {
                            feasible = false;
                        }
                        visited[k] = true;
                        break;
                    }
                }
                counts.push(found);
            }
            if !feasible {
                break;
            }
            let obj = *counts.iter().max().expect("m >= 2 slots");
            deficiency += counts.iter().map(|c| obj - c).sum::<usize>();
        }
        if feasible && deficiency <= mult_p {
            best = Some(m);
        }
    }
    best
}

/// The detection the locate-then-verify pass replaced, kept whole: the
/// Weber prefilter evaluated at every distinct position, then every
/// distinct position, the SEC centre and the numeric Weber point as
/// unoccupied candidates behind an O(n) `mult` check each. The
/// differential tests hold [`detect_quasi_regularity_hinted`] and the
/// classification to it.
#[cfg(test)]
pub(crate) fn detect_quasi_regularity_oracle(
    config: &Configuration,
    tol: Tol,
    hint: Option<Point>,
) -> (Option<QuasiRegularity>, Option<Point>) {
    if config.len() < 2 || config.is_gathered() || config.is_linear(tol) {
        return (None, None);
    }
    let mut best: Option<QuasiRegularity> = None;
    for (p, _mult) in config.distinct() {
        let Some(zone_mult) = weber_prefilter(config, p, tol) else {
            continue;
        };
        if let Some(m) = occupied_quasi_regularity(config, p, tol, zone_mult) {
            if best.is_none_or(|b| m > b.m) {
                best = Some(QuasiRegularity {
                    center: p,
                    m,
                    center_occupied: true,
                });
            }
        }
    }
    if best.is_some() {
        return (best, None);
    }
    let weber = match hint {
        Some(h) => weber_point_weiszfeld_from(h, config.points(), tol).point,
        None => weber_point_weiszfeld(config.points(), tol).point,
    };
    let mut candidates = config.distinct_points();
    candidates.push(config.sec().center);
    candidates.push(weber);
    for c in candidates {
        if config.mult(c, tol) > 0 {
            continue;
        }
        let m = regularity_around(config, c, tol);
        if m > 1 && best.is_none_or(|b| m > b.m) {
            best = Some(QuasiRegularity {
                center: c,
                m,
                center_occupied: false,
            });
        }
    }
    (best, Some(weber))
}

/// Theorem 3.1: detects whether `config` is quasi-regular and, if so,
/// returns its centre (= Weber point for non-linear configurations) and
/// quasi-regularity.
///
/// Linear configurations are excluded by convention (`None`): the paper's
/// class `QR` is disjoint from the linear classes, and the Weber machinery
/// for lines lives in `gather_geom::weber`.
///
/// Occupied-centre candidates are tested with the exact combinatorial
/// criterion of Lemma 3.4; unoccupied candidates (SEC centre, numeric Weber
/// point) with the string-of-angles periodicity. Occupied centres win ties
/// because their test is exact. A lower bound on the Weber objective
/// excludes most occupied positions before the exact prefilter runs at
/// them (DESIGN.md §13 item 8).
pub fn detect_quasi_regularity(config: &Configuration, tol: Tol) -> Option<QuasiRegularity> {
    detect_quasi_regularity_hinted(config, tol, None).0
}

/// [`detect_quasi_regularity`] with an optional warm-start iterate for the
/// numeric Weber candidate. Returns the detection result together with the
/// Weber point the unoccupied-centre search computed (if it ran), so the
/// caller can carry it forward as the next round's warm-start hint
/// (Lemma 3.2 makes the previous round's Weber point an excellent iterate
/// while robots move toward it).
pub fn detect_quasi_regularity_hinted(
    config: &Configuration,
    tol: Tol,
    hint: Option<Point>,
) -> (Option<QuasiRegularity>, Option<Point>) {
    let distinct = config.distinct();
    let points: Vec<Point> = distinct.iter().map(|&(p, _)| p).collect();
    if distinct.len() < 2 || are_collinear(&points, tol) {
        return (None, None); // gathered, or linear
    }
    detect_in(&Tail::new(config, &distinct, tol, hint))
}

/// The Weber prefilter of the occupied-centre search at `p`: by Lemma 3.3
/// the centre of quasi-regularity must be the Weber point, and an occupied
/// point is the Weber point only if the residual pull of the robots outside
/// its centre zone satisfies `|Σ unit(p→q)| ≤ |zone|`. Returns the zone
/// count, the Lemma 3.4 spare-robot budget, when `p` passes. The slack
/// `0.1 + ANGLE_EPS·n` is generous: direction noise contributes at most
/// `ANGLE_EPS` per robot to the residual, and a false pass only costs time.
fn weber_prefilter(config: &Configuration, p: Point, tol: Tol) -> Option<usize> {
    let zone = center_zone_radius(config, p, tol);
    let (pull, zone_mult) = gather_geom::soa::radial_pull(config.soa(), p, zone);
    // Fails only on a strict excess, so a NaN pull passes.
    let fails = pull.norm() > zone_mult as f64 + 0.1 + ANGLE_EPS * config.len() as f64;
    (!fails).then_some(zone_mult)
}

/// Quasi-regularity detection on the class-`A` tail's shared state, for a
/// configuration already known to be neither gathered nor linear.
///
/// *Occupied centres.* Every distinct position that passes the Weber
/// prefilter ([`weber_prefilter`]) gets the exact Lemma 3.4 test, in
/// `distinct` order, so that the tie-break `m > b.m` keeps the first
/// position with the largest `m`. [`OccupiedScreen`] first proves most
/// positions fail the prefilter from the shared Weber bound, at O(1) each;
/// only the others are evaluated exactly.
///
/// *Unoccupied centres.* Then `C` itself must be regular around the centre,
/// and the candidates are the SEC centre and the numeric Weber point (a
/// distinct position holds a robot, so it is an occupied candidate, unless
/// `within` fails on it — a non-finite position — which keeps it here).
pub(crate) fn detect_in(tail: &Tail<'_>) -> (Option<QuasiRegularity>, Option<Point>) {
    let Tail {
        config,
        distinct,
        tol,
        hint,
        ..
    } = *tail;
    let screen = OccupiedScreen::new(tail);
    let mut best: Option<QuasiRegularity> = None;
    for &(p, _) in distinct {
        if screen.fails_prefilter(p) {
            continue;
        }
        let Some(zone_mult) = weber_prefilter(config, p, tol) else {
            continue;
        };
        // p is occupied by construction; its zone count is the Lemma 3.4
        // spare-robot budget.
        if let Some(m) = occupied_quasi_regularity(config, p, tol, zone_mult) {
            if best.is_none_or(|b| m > b.m) {
                best = Some(QuasiRegularity {
                    center: p,
                    m,
                    center_occupied: true,
                });
            }
        }
    }
    if best.is_some() {
        return (best, None);
    }
    let weber = match hint {
        Some(h) => weber_point_weiszfeld_from(h, config.points(), tol).point,
        None => weber_point_weiszfeld(config.points(), tol).point,
    };
    let unheld = distinct
        .iter()
        .zip(&tail.mults)
        .filter(|&(_, &m)| m == 0)
        .map(|(&(p, _), _)| p);
    for c in unheld.chain([tail.sec.center, weber]) {
        if config.mult(c, tol) > 0 {
            continue; // occupied candidates are handled exactly above
        }
        let m = regularity_around(config, c, tol);
        if m > 1 && best.is_none_or(|b| m > b.m) {
            best = Some(QuasiRegularity {
                center: c,
                m,
                center_occupied: false,
            });
        }
    }
    (best, Some(weber))
}

/// Proves occupied positions out of the Weber prefilter without evaluating
/// it.
///
/// If `p` passes, with `Z` its centre zone and `s = 0.1 + ANGLE_EPS·n`,
/// then `|pull| ≤ |Z| + s`, and for every point `x`:
/// `f(x) ≥ f(p) − s·|x − p| − 2·Σ_{q∈Z}|p − q|`. (For `q ∉ Z`,
/// `|x − q| ≥ |p − q| − ⟨unit(q − p), x − p⟩`, the first-order inequality
/// of the convex `|· − q|` at `p`; for `q ∈ Z`, `|x − q| ≥ |x − p| − |p − q|`.
/// Summed: `f(x) ≥ f(p) − 2·Σ_Z|p − q| + (|Z| − |pull|)·|x − p|`.) So `p`
/// fails when the bound's `lower(p)` exceeds `f(x) + s·|x − p| +
/// 2·|Z|_ub·zone_ub(p)`, for `x` the best probe, `zone_ub(p)` an upper bound
/// on `p`'s zone radius from the bound's extent, and `|Z|_ub` the robots in
/// the x-strip of that half-width, counted on the sorted multiset. The
/// bound's slack is added once more for the rounding of `f(x)` and of the
/// pull (DESIGN.md §13 item 8).
struct OccupiedScreen<'a> {
    tail: &'a Tail<'a>,
    /// `before[i]`: the robots at the first `i` distinct positions.
    before: Vec<usize>,
    /// The best probe and its objective.
    probe: (Point, f64),
    /// The prefilter slack `s`.
    s: f64,
}

impl<'a> OccupiedScreen<'a> {
    fn new(tail: &'a Tail<'a>) -> Self {
        let mut before = Vec::with_capacity(tail.distinct.len() + 1);
        before.push(0);
        for &(_, m) in tail.distinct {
            before.push(before.last().copied().unwrap_or(0) + m);
        }
        OccupiedScreen {
            tail,
            before,
            probe: tail.bound.best(),
            s: 0.1 + ANGLE_EPS * tail.config.len() as f64,
        }
    }

    /// Is `p` proved to fail [`weber_prefilter`]? `false` only costs time.
    fn fails_prefilter(&self, p: Point) -> bool {
        let bound = &self.tail.bound;
        let (x, f_x) = self.probe;
        let gap = bound.lower(p) - (f_x + self.s * x.dist(p) + bound.slack(p));
        if !bound.is_usable() || gap <= 0.0 {
            return false;
        }
        let reach = bound.extent() + p.dist(bound.centre());
        // Inflated by 1e-6, far above the few ulps by which the kernels'
        // zone radius and zone test can round past the exact ones.
        let zone = (2.0 * self.tail.tol.snap).max(CENTER_ZONE_REL * reach) * (1.0 + 1e-6);
        let distinct = self.tail.distinct;
        let lo = distinct.partition_point(|(q, _)| q.x - p.x < -zone);
        let hi = distinct.partition_point(|(q, _)| q.x - p.x <= zone);
        let zone_count = self.before[hi] - self.before[lo];
        gap > 2.0 * zone_count as f64 * zone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_geom::weber_objective;
    use gather_prng::Rng;

    fn t() -> Tol {
        Tol::default()
    }

    fn ngon(n: usize, r: f64, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|k| {
                let th = TAU * k as f64 / n as f64 + phase;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect()
    }

    #[test]
    fn regular_polygon_is_quasi_regular_with_unoccupied_center() {
        let c = Configuration::new(ngon(5, 2.0, 0.3));
        let qr = detect_quasi_regularity(&c, t()).expect("5-gon is quasi-regular");
        assert_eq!(qr.m, 5);
        assert!(!qr.center_occupied);
        assert!(qr.center.dist(Point::ORIGIN) < 1e-6);
    }

    #[test]
    fn occupied_center_completion() {
        // 4 of 6 hexagon corners + 2 robots at the centre: the centre
        // robots can fill the 2 missing corners.
        let corners = ngon(6, 2.0, 0.0);
        let mut pts = corners[..4].to_vec();
        pts.push(Point::ORIGIN);
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        let m = quasi_regular_with_center(&c, Point::ORIGIN, t());
        assert_eq!(m, Some(6));
        let qr = detect_quasi_regularity(&c, t()).expect("quasi-regular");
        assert!(qr.center_occupied);
        assert!(qr.center.dist(Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn insufficient_center_multiplicity_fails() {
        // 4 of 6 hexagon corners + only 1 robot at the centre: cannot fill
        // 2 missing corners with one robot — m = 6 infeasible. But m = 2 is
        // feasible: opposite corners pair up (2 orbits complete) and the 2
        // unpaired corners need... check exact combinatorics instead of
        // guessing: the test asserts only that m = 6 is not claimed.
        let corners = ngon(6, 2.0, 0.0);
        let mut pts = corners[..4].to_vec();
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        let m = quasi_regular_with_center(&c, Point::ORIGIN, t());
        assert_ne!(m, Some(6));
    }

    /// A robustly asymmetric configuration: the Weber point coincides with
    /// the occupied point at the origin (the pull of the other three robots
    /// has norm ≈ 0.65 < 1), and the directions from it (0°, 100°, 200°)
    /// are not periodic. Note that a *generic* 4-point configuration with
    /// an unoccupied Weber point is quasi-regular with m = 2: four unit
    /// vectors summing to zero are always invariant under rotation by π.
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
    fn asymmetric_is_not_quasi_regular() {
        assert!(detect_quasi_regularity(&asymmetric4(), t()).is_none());
    }

    #[test]
    fn every_triangle_is_quasi_regular_via_its_fermat_point() {
        // The string of angles around the Fermat point of any triangle with
        // all angles < 120° is (2π/3)³, so scalene triangles are regular —
        // the paper's QR class subsumes the classic 3-robot algorithm of
        // moving to the Weber point.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        let qr = detect_quasi_regularity(&c, t()).expect("triangle is quasi-regular");
        assert_eq!(qr.m, 3);
        assert!(!qr.center_occupied);
    }

    #[test]
    fn generic_four_points_are_quasi_regular_with_period_two() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
            Point::new(3.4, 2.9),
        ]);
        let qr = detect_quasi_regularity(&c, t()).expect("4 points, interior Weber point");
        assert_eq!(qr.m, 2);
    }

    #[test]
    fn linear_configurations_are_excluded() {
        let c = Configuration::new(vec![
            Point::new(-1.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(detect_quasi_regularity(&c, t()).is_none());
    }

    #[test]
    fn quasi_regular_center_is_weber_point() {
        // Lemma 3.3: CQR(C) = WP(C) for non-linear quasi-regular C.
        let mut pts = ngon(4, 3.0, 0.0);
        pts.push(Point::ORIGIN); // occupied centre
        let c = Configuration::new(pts);
        let qr = detect_quasi_regularity(&c, t()).expect("quasi-regular");
        // The centre minimises the Weber objective against perturbations.
        let obj = weber_objective(qr.center, c.points());
        for dir in 0..8 {
            let th = TAU * dir as f64 / 8.0;
            let probe = Point::new(qr.center.x + 0.05 * th.cos(), qr.center.y + 0.05 * th.sin());
            assert!(weber_objective(probe, c.points()) >= obj - 1e-12);
        }
    }

    #[test]
    fn biangular_with_unequal_radii_is_quasi_regular() {
        let k = 3usize;
        let alpha = 0.5;
        let beta = TAU / k as f64 - alpha;
        let mut pts = Vec::new();
        let mut theta: f64 = 0.2;
        for i in 0..(2 * k) {
            let r = if i % 2 == 0 { 1.0 } else { 2.0 };
            pts.push(Point::new(r * theta.cos(), r * theta.sin()));
            theta += if i % 2 == 0 { alpha } else { beta };
        }
        let c = Configuration::new(pts);
        let qr = detect_quasi_regularity(&c, t()).expect("biangular is quasi-regular");
        assert!(qr.m >= k, "m = {}", qr.m);
        assert!(qr.center.dist(Point::ORIGIN) < 1e-5);
    }

    #[test]
    fn moving_points_toward_center_preserves_quasi_regularity() {
        let c = Configuration::new(ngon(4, 2.0, 0.0));
        let qr = detect_quasi_regularity(&c, t()).expect("square");
        // Move two robots partway toward the centre (adversarial stops).
        let moved = Configuration::new(
            c.points()
                .iter()
                .enumerate()
                .map(|(i, p)| match i {
                    0 => p.lerp(qr.center, 0.5),
                    1 => p.lerp(qr.center, 0.8),
                    _ => *p,
                })
                .collect(),
        );
        let qr2 = detect_quasi_regularity(&moved, t()).expect("still quasi-regular");
        assert!(qr2.center.dist(qr.center) < 1e-6);
    }

    #[test]
    fn robots_reaching_the_center_keep_it_quasi_regular() {
        // One robot of a square reaches the centre: now an occupied-centre
        // quasi-regular configuration (the centre robot could rebuild the
        // square).
        let mut pts = ngon(4, 2.0, 0.0);
        pts[0] = Point::ORIGIN;
        let c = Configuration::new(pts);
        let qr = detect_quasi_regularity(&c, t()).expect("quasi-regular");
        assert!(qr.center.dist(Point::ORIGIN) < 1e-9);
        assert!(qr.center_occupied);
        assert_eq!(qr.m, 4);
    }

    #[test]
    fn gathered_and_tiny_configurations() {
        assert!(detect_quasi_regularity(&Configuration::default(), t()).is_none());
        let single = Configuration::new(vec![Point::ORIGIN; 5]);
        assert!(detect_quasi_regularity(&single, t()).is_none());
        let pair = Configuration::new(vec![Point::ORIGIN, Point::new(1.0, 0.0)]);
        assert!(detect_quasi_regularity(&pair, t()).is_none()); // linear
    }

    #[test]
    fn occupied_test_rejects_unoccupied_point() {
        let c = Configuration::new(ngon(4, 2.0, 0.0));
        assert_eq!(quasi_regular_with_center(&c, Point::ORIGIN, t()), None);
    }

    #[test]
    fn doubled_square_is_quasi_regular_around_unoccupied_center() {
        // Two robots on each square corner: the string of angles around the
        // centre is (0, π/2)⁴, so per(SA) = 4 and the centre is unoccupied.
        let mut pts = Vec::new();
        for p in ngon(4, 2.0, 0.0) {
            pts.push(p);
            pts.push(p);
        }
        let c = Configuration::new(pts);
        let qr = detect_quasi_regularity(&c, t()).expect("doubled square");
        assert_eq!(qr.m, 4);
        assert!(!qr.center_occupied);
        assert!(qr.center.dist(Point::ORIGIN) < 1e-6);
    }

    /// Lemma 3.4 at every occupied point agrees with the exhaustive test.
    fn assert_same_lemma_3_4(c: &Configuration) {
        for p in c.distinct_points() {
            assert_eq!(
                quasi_regular_with_center(c, p, t()),
                quasi_regular_with_center_oracle(c, p, t()),
                "Lemma 3.4 differs from the oracle at {p:?} in {c}"
            );
        }
    }

    #[test]
    fn slot_search_finds_the_bucket_the_linear_scan_finds() {
        // Directions crowding both sides of the 0/2π seam and pairs just
        // over ANGLE_EPS apart, so a slot's window can hold two buckets.
        let mut rng = Rng::seed_from_u64(0x5107);
        for _ in 0..200 {
            let mut pts = Vec::new();
            for _ in 0..rng.random_range(1usize..40) {
                let th = match rng.random_range(0u32..3) {
                    0 => rng.random_range(-4.0 * ANGLE_EPS..4.0 * ANGLE_EPS),
                    1 => {
                        TAU * rng.random_range(0i32..12) as f64 / 12.0
                            + rng.random_range(-2e-3..2e-3)
                    }
                    _ => rng.random_range(0.0..TAU),
                };
                let r = rng.random_range(1.0..5.0);
                pts.push(Point::new(r * th.cos(), r * th.sin()));
            }
            pts.push(Point::ORIGIN);
            let buckets = direction_buckets(&Configuration::new(pts), Point::ORIGIN, t());
            let linear = |target: f64| {
                (0..buckets.len()).find(|&k| circ_diff(buckets[k].0, target) <= ANGLE_EPS)
            };
            for m in 2..=24usize {
                let step = TAU / m as f64;
                for &(base, _) in &buckets {
                    for j in 0..m {
                        let target = base + step * j as f64;
                        assert_eq!(slot_bucket(&buckets, target), linear(target), "{target}");
                    }
                }
            }
            for _ in 0..200 {
                let target = rng.random_range(-0.01..2.0 * TAU);
                assert_eq!(slot_bucket(&buckets, target), linear(target), "{target}");
            }
        }
    }

    #[test]
    fn lemma_3_4_matches_the_oracle_on_the_qr_gallery() {
        // The T4 families: regular polygons, biangular, radially
        // converged, occupied centre, and the asymmetric control.
        for n in [4usize, 6, 8, 12, 16, 24, 32] {
            for seed in 0..2u64 {
                let k = (n / 2).max(2);
                let families = [
                    gather_workloads::regular_polygon(n, 3.0, seed as f64 * 0.21),
                    gather_workloads::biangular(k, TAU / (2.3 * k as f64), 2.0, 4.5),
                    gather_workloads::quasi_regular(k, 2, seed),
                    gather_workloads::ring_with_center(n.saturating_sub(1).max(3), 1, 3.0),
                    gather_workloads::asymmetric(n, seed),
                ];
                for pts in families {
                    assert_same_lemma_3_4(&Configuration::canonical(pts, t()));
                }
            }
        }
    }

    #[test]
    fn lemma_3_4_matches_the_oracle_on_near_regular_polygons_with_centre_stacks() {
        // Holes, doubled corners and angular jitter straddling ANGLE_EPS,
        // with just about enough centre robots to fill the holes: the
        // deficiency lands on both sides of the spare-robot budget.
        let mut rng = Rng::seed_from_u64(0xC3A7);
        let mut detected = 0;
        for _ in 0..300 {
            let ring = rng.random_range(3usize..25);
            let phase = match rng.random_range(0u32..3) {
                0 => 0.0,
                1 => rng.random_range(-2.0 * ANGLE_EPS..2.0 * ANGLE_EPS),
                _ => rng.random_range(0.0..TAU),
            };
            let jitter = [0.0, 0.5 * ANGLE_EPS, 2.0 * ANGLE_EPS][rng.random_range(0usize..3)];
            let mut pts = Vec::new();
            let mut holes = 0;
            for k in 0..ring {
                if rng.random_bool(0.2) {
                    holes += 1;
                    continue;
                }
                let th =
                    TAU * k as f64 / ring as f64 + phase + jitter * rng.random_range(-1.0..1.0);
                let r = rng.random_range(1.0..4.0);
                let copies = if rng.random_bool(0.15) { 2 } else { 1 };
                pts.extend(std::iter::repeat_n(
                    Point::new(r * th.cos(), r * th.sin()),
                    copies,
                ));
            }
            let stack = (holes + rng.random_range(0usize..3)).saturating_sub(1);
            pts.extend(std::iter::repeat_n(Point::ORIGIN, stack.max(1)));
            let c = Configuration::new(pts);
            assert_same_lemma_3_4(&c);
            detected += usize::from(quasi_regular_with_center(&c, Point::ORIGIN, t()).is_some());
        }
        assert!(detected >= 30, "only {detected} centres were quasi-regular");
    }

    /// [`orbits_complete`] against its full scan at `p`, for every `m` in
    /// `ms` and spare-robot budgets around the real one (the centre zone's
    /// count), so both outcomes occur.
    fn assert_same_orbits(c: &Configuration, p: Point, ms: impl Iterator<Item = usize>) {
        let buckets = direction_buckets(c, p, t());
        if buckets.is_empty() {
            return;
        }
        let zone = center_zone_radius(c, p, t());
        let spare = gather_geom::soa::radial_pull(c.soa(), p, zone).1;
        for m in ms {
            for mult_p in [0, 1, 2, spare, spare + 3, m] {
                assert_eq!(
                    orbits_complete(&buckets, m, mult_p),
                    orbits_complete_oracle(&buckets, m, mult_p),
                    "m={m}, budget {mult_p} at {p:?} in {c}"
                );
            }
        }
    }

    #[test]
    fn orbit_exit_matches_the_full_scan_on_the_t4_and_t6_galleries() {
        for n in [4usize, 6, 8, 12, 16, 24, 32] {
            for seed in 0..2u64 {
                let k = (n / 2).max(2);
                let mut gallery = vec![
                    gather_workloads::regular_polygon(n, 3.0, seed as f64 * 0.21),
                    gather_workloads::biangular(k, TAU / (2.3 * k as f64), 2.0, 4.5),
                    gather_workloads::quasi_regular(k, 2, seed),
                    gather_workloads::ring_with_center(n.saturating_sub(1).max(3), 1, 3.0),
                    gather_workloads::asymmetric(n.max(4), seed),
                    gather_workloads::random_scatter(n, 8.0, seed * 31 + n as u64),
                    gather_workloads::axially_symmetric(n / 2, 1, seed),
                ];
                gallery.extend(
                    gather_workloads::class_sweep(n, 1)
                        .into_iter()
                        .map(|(_, _, pts)| pts),
                );
                for pts in gallery {
                    let c = Configuration::canonical(pts, t());
                    for p in c.distinct_points() {
                        assert_same_orbits(&c, p, 2..=c.len());
                    }
                }
            }
        }
    }

    #[test]
    fn orbit_exit_matches_the_full_scan_at_a_robot_on_the_weber_point() {
        // The case the exit is for: at n = 4096, every m ≥ 3142 has
        // 2π/m ≤ 2·ANGLE_EPS, so the bucket-count skip does not apply and
        // each such m is decided by the empty slots of its first orbits.
        let n = 4096;
        let mut pts = gather_workloads::random_scatter(n, 10.0, n as u64);
        pts.pop();
        let w = weber_point_weiszfeld(&pts, t()).point;
        pts.push(w);
        let unskipped = (2..=n).filter(|&m| TAU / m as f64 <= 2.0 * ANGLE_EPS);
        assert_same_orbits(&Configuration::new(pts), w, unskipped);
    }

    #[test]
    fn lemma_3_4_matches_the_oracle_on_scatters() {
        for n in 3..=24usize {
            for seed in 0..4u64 {
                let mut pts = gather_workloads::random_scatter(n, 10.0, 104_729 * seed + n as u64);
                // Half of them with a stack on the first robot, so some
                // points have a spare-robot budget above 1.
                if seed % 2 == 1 {
                    pts.extend(std::iter::repeat_n(pts[0], n / 3));
                }
                assert_same_lemma_3_4(&Configuration::new(pts));
            }
        }
    }
}
