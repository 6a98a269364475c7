//! Weber points (Definition 1 of the paper).
//!
//! The Weber point of a configuration `C` minimises `Σ_{p ∈ C} |x, p|`.
//! Facts used by the paper and exposed here:
//!
//! * non-linear configurations have a **unique** Weber point;
//! * linear configurations have the interval of **medians** as their Weber
//!   point set ([`collinear_weber_interval`]), which is a single point iff
//!   the median is unique — this distinguishes classes `L1W` and `L2W`;
//! * the Weber point is **invariant under straight moves toward it**
//!   (Lemma 3.2), which is why it is a crash-tolerant gathering target;
//! * no finite algorithm computes it for arbitrary configurations, but the
//!   damped Weiszfeld iteration ([`weber_point_weiszfeld`]) converges to it
//!   numerically; the paper's contribution is an *exact* computation for
//!   quasi-regular configurations (implemented in `gather-config`), for
//!   which the numeric solver doubles as a cross-check.

use crate::line::Line;
use crate::point::{Point, Vec2};
use crate::predicates::are_collinear;
use crate::soa::{self, PointBuffer};
use crate::tol::Tol;

/// Sum of Euclidean distances from `x` to every point of `points`
/// (the Weber objective).
///
/// # Example
///
/// ```
/// use gather_geom::{weber_objective, Point};
/// let pts = [Point::new(-1.0, 0.0), Point::new(1.0, 0.0)];
/// assert_eq!(weber_objective(Point::ORIGIN, &pts), 2.0);
/// assert!(weber_objective(Point::new(0.0, 1.0), &pts) > 2.0);
/// ```
pub fn weber_objective(x: Point, points: &[Point]) -> f64 {
    points.iter().map(|p| x.dist(*p)).sum()
}

/// Number of probe points of a [`WeberBound`].
pub const PROBES: usize = 8;

/// Radius of a [`WeberBound`]'s probe ring, as a fraction of the scale
/// its caller passes (the SEC radius for the classification, the extent
/// around the centroid for the cold Weiszfeld start).
pub const PROBE_RING: f64 = 0.05;

/// A lower bound on the Weber objective `f(x) = Σ|x − q|` of a point set,
/// built from its exact value and a subgradient at a few probe points.
///
/// `f` is convex, so each probe `y` gives the supporting line
/// `f(y) + ⟨g, x − y⟩ ≤ f(x)` for a subgradient `g` at `y`; the bound is
/// their maximum. [`PROBES`] probes sit on a ring of the given radius
/// around a centre, ideally near the Weber point: a point far from the
/// probes then has a bound close to its objective, so a scan that needs
/// the objective only where it is small can skip every point whose bound
/// already rules it out. The probes cost `PROBES` O(n) kernel calls; each
/// bound then costs O(`PROBES`).
///
/// [`WeberBound::lower`] is certified against rounding: it never exceeds
/// the exact objective nor the value [`soa::sum_distances`] computes.
/// DESIGN.md §13 item 8 derives [`WeberBound::slack`], the rounding
/// margin that makes it so. A bound built on a non-finite input (or from a
/// non-finite centre or radius) is unusable, and `lower` then returns
/// `−∞`, which excludes nothing.
#[derive(Debug, Clone, Copy)]
pub struct WeberBound {
    /// Probe points with their objective and subgradient.
    probes: [(Point, f64, Vec2); PROBES],
    centre: Point,
    radius: f64,
    /// `max |q − centre|` over the point set.
    extent: f64,
    /// `4·n·(n + 12)·ε`: the relative error budget of the kernels' sums.
    rel: f64,
    /// Index of the probe with the smallest objective.
    best: usize,
    usable: bool,
}

impl WeberBound {
    /// Probes `buf` on a ring of radius `radius` around `centre`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is empty.
    pub fn new(buf: &PointBuffer, centre: Point, radius: f64) -> Self {
        let extent = soa::max_dist2(buf, centre).1.sqrt();
        let mut probes = [(centre, 0.0, Vec2::ZERO); PROBES];
        let mut usable = extent.is_finite() && radius.is_finite() && radius >= 0.0;
        for (k, probe) in probes.iter_mut().enumerate() {
            let theta = std::f64::consts::TAU * k as f64 / PROBES as f64;
            let at = Point::new(
                centre.x + radius * theta.cos(),
                centre.y + radius * theta.sin(),
            );
            let (f, pull) = soa::weber_probe(buf, at);
            usable &= f.is_finite() && pull.x.is_finite() && pull.y.is_finite();
            *probe = (at, f, -pull);
        }
        let best = (0..PROBES)
            .min_by(|&a, &b| probes[a].1.total_cmp(&probes[b].1))
            .expect("PROBES > 0");
        let n = buf.len() as f64;
        WeberBound {
            probes,
            centre,
            radius,
            extent,
            rel: 4.0 * n * (n + 12.0) * f64::EPSILON,
            best,
            usable,
        }
    }

    /// A value no larger than the exact objective at `p` and no larger
    /// than `soa::sum_distances(buf, p)`: the largest supporting line at
    /// `p`, less [`WeberBound::slack`]. `−∞` when the bound is unusable.
    pub fn lower(&self, p: Point) -> f64 {
        if !self.usable {
            return f64::NEG_INFINITY;
        }
        let line = self
            .probes
            .iter()
            .map(|&(y, f, g)| f + g.dot(p - y))
            .fold(f64::NEG_INFINITY, f64::max);
        line - self.slack(p)
    }

    /// The rounding margin at `p`: `4·n·(n + 12)·ε·(E + 2r + |p − c|)` for
    /// `n` points, extent `E` around the centre `c` and ring radius `r`.
    /// It dominates the error of a kernel sum of the objective or of the
    /// pull at any point within `|p − c| + r` of a probe, together with the
    /// error of evaluating a supporting line at `p`.
    pub fn slack(&self, p: Point) -> f64 {
        self.rel * (self.extent + 2.0 * self.radius + p.dist(self.centre))
    }

    /// The probe with the smallest objective, and that objective as the
    /// kernel computed it.
    pub fn best(&self) -> (Point, f64) {
        let (at, f, _) = self.probes[self.best];
        (at, f)
    }

    /// `max |q − centre|` over the point set, as computed.
    pub fn extent(&self) -> f64 {
        self.extent
    }

    /// The centre of the probe ring.
    pub fn centre(&self) -> Point {
        self.centre
    }

    /// Whether every probe came out finite; an unusable bound excludes
    /// nothing.
    pub fn is_usable(&self) -> bool {
        self.usable
    }
}

/// Outcome of the Weiszfeld iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeberResult {
    /// The computed (approximate) Weber point.
    pub point: Point,
    /// The Weber objective at `point`.
    pub objective: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the iteration met its convergence threshold.
    pub converged: bool,
}

/// Maximum Weiszfeld iterations before giving up.
const MAX_ITERS: usize = 10_000;

thread_local! {
    /// Total Weiszfeld iterations performed on this thread.
    static WEISZFELD_ITERS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reusable per-thread solver state: the SoA transpose of the input. Taken
/// at the top of [`weiszfeld_solve`] and put back on exit, so repeated
/// solves on one thread (every round of a simulation run, every sweep item
/// on a pool worker) allocate nothing once the buffer has grown to the
/// configuration size.
#[derive(Default)]
struct SolverScratch {
    buf: PointBuffer,
}

thread_local! {
    static SOLVER_SCRATCH: std::cell::RefCell<SolverScratch> = Default::default();
}

/// Total Weiszfeld iterations performed on the current thread since it
/// started. Monotone; callers diff two readings to attribute solver work to
/// a code region (the simulation engine reports the per-round delta in its
/// trace, making the shared-analysis cache's savings observable).
pub fn weiszfeld_iterations() -> u64 {
    WEISZFELD_ITERS.with(|c| c.get())
}

thread_local! {
    /// Total nanoseconds this thread has spent inside the Weiszfeld solver.
    static WEISZFELD_NANOS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total wall-clock nanoseconds the current thread has spent inside the
/// Weiszfeld solver since it started. Monotone, like
/// [`weiszfeld_iterations`]; callers diff two readings to attribute solver
/// time to a code region — the engine's phase spans carve the per-round
/// delta out of the classification phase. The counter is always on (the
/// solver runs at most a few times per round, so the two clock reads per
/// solve are noise next to the iteration itself).
pub fn weiszfeld_nanos() -> u64 {
    WEISZFELD_NANOS.with(|c| c.get())
}

/// Numerically computes the Weber point of `points` with the Weiszfeld
/// iteration, using the Vardi–Zhang rule to step off input points (plain
/// Weiszfeld is undefined when an iterate lands exactly on an input point,
/// which happens routinely for symmetric robot configurations whose Weber
/// point is an occupied centre).
///
/// `eps` is the convergence threshold on the step length, typically
/// `tol.abs`. For collinear inputs the Weber point may not be unique; this
/// function then returns the midpoint of the median interval (the canonical
/// choice used throughout the suite).
///
/// # Panics
///
/// Panics if `points` is empty.
///
/// # Example
///
/// ```
/// use gather_geom::{weber_point_weiszfeld, Point, Tol};
/// // Weber point of 3 vertices of an equilateral triangle = its centre.
/// let pts: Vec<Point> = (0..3).map(|k| {
///     let th = std::f64::consts::TAU * k as f64 / 3.0;
///     Point::new(th.cos(), th.sin())
/// }).collect();
/// let w = weber_point_weiszfeld(&pts, Tol::default());
/// assert!(w.point.dist(Point::ORIGIN) < 1e-7);
/// assert!(w.converged);
/// ```
pub fn weber_point_weiszfeld(points: &[Point], tol: Tol) -> WeberResult {
    weiszfeld_solve(points, tol, None)
}

/// [`weber_point_weiszfeld`] warm-started from `initial` instead of the
/// cold-start scan over all input points and the centroid.
///
/// The intended caller holds the Weber point of the *previous* round's
/// configuration: by Lemma 3.2 the Weber point is invariant while robots
/// move straight toward it, so the previous iterate is a near-perfect (often
/// exact) initial guess and the iteration converges in a handful of steps.
/// Correctness does not depend on the quality of `initial` — the Weber
/// objective is convex, so the damped iteration converges to the same
/// optimum from any finite starting point; a non-finite `initial` falls
/// back to the cold start. Degenerate inputs (single point, collinear) take
/// the same exact short-circuits as the cold entry point.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn weber_point_weiszfeld_from(initial: Point, points: &[Point], tol: Tol) -> WeberResult {
    weiszfeld_solve(points, tol, Some(initial))
}

/// Timing shim over [`weiszfeld_solve_inner`]: charges the solve's wall
/// time to this thread's [`weiszfeld_nanos`] counter.
fn weiszfeld_solve(points: &[Point], tol: Tol, warm: Option<Point>) -> WeberResult {
    let started = std::time::Instant::now();
    let result = weiszfeld_solve_inner(points, tol, warm);
    WEISZFELD_NANOS.with(|c| c.set(c.get().saturating_add(started.elapsed().as_nanos() as u64)));
    result
}

fn weiszfeld_solve_inner(points: &[Point], tol: Tol, warm: Option<Point>) -> WeberResult {
    assert!(!points.is_empty(), "Weber point of an empty configuration");
    let eps = tol.abs.max(1e-12);

    if points.len() == 1 {
        return WeberResult {
            point: points[0],
            objective: 0.0,
            iterations: 0,
            converged: true,
        };
    }

    if are_collinear(points, tol) {
        let (lo, hi) = collinear_weber_interval(points, tol)
            .expect("collinear set must have a median interval");
        let point = lo.midpoint(hi);
        return WeberResult {
            point,
            objective: weber_objective(point, points),
            iterations: 0,
            converged: true,
        };
    }

    // All remaining work runs over the per-thread SoA scratch: transpose
    // once, then every distance scan below is a batch kernel.
    let mut scratch = SOLVER_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    scratch.buf.copy_from_points(points);
    let buf = &scratch.buf;

    let centroid = soa::centroid(buf);
    let extent = soa::max_dist2(buf, centroid).1.sqrt().max(1e-12);
    // Warm path: trust the caller's iterate (Lemma 3.2 makes the previous
    // round's Weber point exact while robots move toward it). Cold path:
    // start from the best input point or the centroid, whichever is better.
    let mut x = match warm {
        Some(p) if p.x.is_finite() && p.y.is_finite() => p,
        _ => {
            let best = cold_start_point(buf, centroid, extent);
            let centroid_obj = soa::sum_distances(buf, centroid);
            if centroid_obj < best.1 {
                centroid
            } else {
                best.0
            }
        }
    };

    // If the iterate hovers near an input point, test that point's exact
    // optimality (the subgradient condition |Σ unit vectors| ≤ mult) and
    // snap to it — Weiszfeld converges sublinearly exactly in this regime,
    // and the snap also removes the residual numeric offset.
    let capture = |x: Point| -> Option<Point> {
        let (p, m) = nearest_input(points, x);
        if x.dist(p) > 1e-3 * extent {
            return None;
        }
        // With threshold 0 the kernel's "far" set is exactly the points not
        // bitwise-equal to `p`, so its pull is the subgradient at `p`.
        let pull = soa::weiszfeld_sums(buf, p, 0.0).pull();
        (pull.norm() <= m as f64 + 1e-9).then_some(p)
    };

    let mut iterations = 0;
    let mut converged = false;
    while iterations < MAX_ITERS {
        iterations += 1;
        // The first-iteration check lets a warm start that lands next to an
        // optimal occupied point snap immediately instead of grinding
        // through Weiszfeld's sublinear vertex regime until iteration 16.
        if iterations == 1 || iterations % 16 == 0 {
            if let Some(p) = capture(x) {
                x = p;
                converged = true;
                break;
            }
        }
        // T(x) = Σ p_i / d_i / Σ 1/d_i over points not coincident with x;
        // Vardi–Zhang correction accounts for coincident points' weight.
        let sums = soa::weiszfeld_sums(buf, x, eps);
        if sums.denom == 0.0 {
            // All points coincide with x: x is the Weber point.
            converged = true;
            break;
        }
        let t = sums.target();
        let next = if sums.coincident == 0 {
            t
        } else {
            // Vardi–Zhang: if the pull of the far points does not exceed the
            // weight of the coincident ones, x is optimal; otherwise step
            // toward T with damping 1 - m/|R|.
            let r = sums.pull().norm();
            let m = sums.coincident as f64;
            if r <= m {
                converged = true;
                break;
            }
            let lambda = (1.0 - m / r).min(1.0);
            Point::new(x.x + (t.x - x.x) * lambda, x.y + (t.y - x.y) * lambda)
        };
        let step = x.dist(next);
        x = next;
        if step <= eps {
            // Final polish: if we stopped next to an input point that is
            // itself optimal, land on it exactly.
            if let Some(p) = capture(x) {
                x = p;
            }
            converged = true;
            break;
        }
    }

    let objective = soa::sum_distances(buf, x);
    SOLVER_SCRATCH.with(|c| *c.borrow_mut() = scratch);
    WEISZFELD_ITERS.with(|c| c.set(c.get() + iterations as u64));
    WeberResult {
        point: x,
        objective,
        iterations,
        converged,
    }
}

/// The input point with the smallest objective, with that objective: the
/// first one in index order among equals, as a scan that keeps its best on
/// a strict `<` finds it. The objective is evaluated only at the points a
/// [`WeberBound`] around the centroid cannot exclude. The point the bound
/// ranks lowest is evaluated first, and its objective caps the minimum; a
/// point whose certified bound exceeds the cap (or the best value found so
/// far) cannot attain the minimum, and every point that does is evaluated,
/// in index order. So the result is the full scan's
/// (`cold_start_point_oracle` below), at O(n) kernel calls only for the few
/// points near the Weber point.
fn cold_start_point(buf: &PointBuffer, centroid: Point, extent: f64) -> (Point, f64) {
    let bound = WeberBound::new(buf, centroid, PROBE_RING * extent);
    let mut lowest = (0, f64::INFINITY);
    for i in 0..buf.len() {
        let lower = bound.lower(buf.get(i));
        if lower < lowest.1 {
            lowest = (i, lower);
        }
    }
    let cap = soa::sum_distances(buf, buf.get(lowest.0));
    let mut best: Option<(Point, f64)> = None;
    for i in 0..buf.len() {
        let p = buf.get(i);
        let limit = best.map_or(cap, |(_, obj)| obj.min(cap));
        if bound.lower(p) > limit {
            continue;
        }
        let obj = if i == lowest.0 {
            cap
        } else {
            soa::sum_distances(buf, p)
        };
        if best.is_none_or(|(_, b)| obj < b) {
            best = Some((p, obj));
        }
    }
    best.expect("the point that attains the minimum is never excluded")
}

/// The capture candidate near the iterate `x`: the input point nearest
/// `x`, the first in index order among equals, with the number of inputs
/// `==` to it. This is the entry `min_by` picks from a first-occurrence
/// table of the `==`-distinct inputs (equal values lie at equal distances,
/// and a class's first member precedes the rest), found without building
/// the table, which cost a scan of it per input (`nearest_input_oracle`
/// below keeps that construction for the differential tests).
///
/// # Panics
///
/// Panics if `points` is empty.
fn nearest_input(points: &[Point], x: Point) -> (Point, usize) {
    let p = points
        .iter()
        .copied()
        .min_by(|a, b| x.dist2(*a).total_cmp(&x.dist2(*b)))
        .expect("a non-empty input");
    (p, points.iter().filter(|q| **q == p).count())
}

/// The capture candidate as the solver used to find it: a table of the
/// `==`-distinct inputs in first-occurrence order, then `min_by` distance.
#[cfg(test)]
fn nearest_input_oracle(points: &[Point], x: Point) -> (Point, usize) {
    let mut distinct: Vec<(Point, usize)> = Vec::new();
    for p in points {
        match distinct.iter_mut().find(|(q, _)| q == p) {
            Some((_, m)) => *m += 1,
            None => distinct.push((*p, 1)),
        }
    }
    distinct
        .into_iter()
        .min_by(|(a, _), (b, _)| x.dist2(*a).total_cmp(&x.dist2(*b)))
        .expect("a non-empty input")
}

/// The cold start's scan by its definition: the objective at every input
/// point, the first strict minimum kept. The differential tests hold
/// [`cold_start_point`] to it.
#[cfg(test)]
fn cold_start_point_oracle(buf: &PointBuffer) -> (Point, f64) {
    let mut best = buf.get(0);
    let mut best_obj = soa::sum_distances(buf, best);
    for i in 1..buf.len() {
        let p = buf.get(i);
        let obj = soa::sum_distances(buf, p);
        if obj < best_obj {
            best = p;
            best_obj = obj;
        }
    }
    (best, best_obj)
}

/// The Weber point set of a **collinear** configuration: the closed interval
/// `[min Med(C), max Med(C)]` of its medians along the line (with
/// multiplicity).
///
/// Returns `None` if the points are not collinear (within tolerance).
/// For an odd number of points the interval is degenerate (a single point);
/// for an even number it is degenerate iff the two middle points coincide.
///
/// # Example
///
/// ```
/// use gather_geom::{weber::collinear_weber_interval, Point, Tol};
/// let pts = [0.0, 1.0, 5.0, 9.0].map(|x| Point::new(x, 0.0));
/// let (lo, hi) = collinear_weber_interval(&pts, Tol::default()).unwrap();
/// assert_eq!((lo.x, hi.x), (1.0, 5.0)); // even count: middle two points
/// ```
pub fn collinear_weber_interval(points: &[Point], tol: Tol) -> Option<(Point, Point)> {
    if points.is_empty() || !are_collinear(points, tol) {
        return None;
    }
    Some(median_interval_on_line(points, tol))
}

/// The median interval of `points` projected onto their principal line
/// (the line through the two mutually farthest points), without checking
/// collinearity.
///
/// For genuinely collinear inputs this equals the Weber interval of
/// [`collinear_weber_interval`]. Callers that have already established
/// linearity with their own tolerance policy (e.g. on de-duplicated
/// positions) use this to avoid a second, subtly different collinearity
/// test on the raw multiset.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn median_interval_on_line(points: &[Point], tol: Tol) -> (Point, Point) {
    assert!(!points.is_empty(), "median of an empty configuration");
    let first = points[0];
    let far = points
        .iter()
        .copied()
        .max_by(|a, b| first.dist2(*a).total_cmp(&first.dist2(*b)))
        .expect("non-empty");
    if first.dist(far) <= tol.abs {
        return (first, first); // all points coincide (within tolerance)
    }
    let line = Line::through(first, far);
    let mut ts: Vec<f64> = points.iter().map(|p| line.project(*p)).collect();
    ts.sort_by(f64::total_cmp);
    let n = ts.len();
    let (lo, hi) = if n % 2 == 1 {
        let m = ts[n / 2];
        (m, m)
    } else {
        (ts[n / 2 - 1], ts[n / 2])
    };
    (line.at(lo), line.at(hi))
}

/// Does a collinear configuration have a **unique** Weber point?
///
/// This is the `L1W` vs `L2W` distinction of the paper. Returns `None` if
/// the points are not collinear; otherwise `Some(point)` when the median is
/// unique and `Some` is collapsed accordingly — see
/// [`collinear_weber_interval`] for the general interval.
pub fn unique_collinear_weber_point(points: &[Point], tol: Tol) -> Option<Point> {
    let (lo, hi) = collinear_weber_interval(points, tol)?;
    if lo.dist(hi) <= tol.snap {
        Some(lo.midpoint(hi))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn objective_of_two_points_is_their_distance_between_them() {
        let pts = [Point::new(-3.0, 0.0), Point::new(3.0, 0.0)];
        // Anywhere on the segment achieves the minimum = 6.
        assert_eq!(weber_objective(Point::ORIGIN, &pts), 6.0);
        assert_eq!(weber_objective(Point::new(1.0, 0.0), &pts), 6.0);
        assert!(weber_objective(Point::new(0.0, 2.0), &pts) > 6.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn weiszfeld_empty_panics() {
        let _ = weber_point_weiszfeld(&[], t());
    }

    #[test]
    fn weiszfeld_single_and_coincident_points() {
        let p = Point::new(2.0, 3.0);
        let r = weber_point_weiszfeld(&[p], t());
        assert_eq!(r.point, p);
        let r2 = weber_point_weiszfeld(&[p, p, p], t());
        assert!(r2.point.dist(p) < 1e-9);
        assert!(r2.converged);
    }

    #[test]
    fn weiszfeld_equilateral_triangle() {
        let pts: Vec<Point> = (0..3)
            .map(|k| {
                let th = TAU * k as f64 / 3.0 + 0.1;
                Point::new(5.0 + 2.0 * th.cos(), -3.0 + 2.0 * th.sin())
            })
            .collect();
        let r = weber_point_weiszfeld(&pts, t());
        assert!(r.point.dist(Point::new(5.0, -3.0)) < 1e-6);
        assert!(r.converged);
    }

    #[test]
    fn weiszfeld_square_center() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ];
        let r = weber_point_weiszfeld(&pts, t());
        assert!(r.point.dist(Point::new(2.0, 2.0)) < 1e-6);
    }

    #[test]
    fn weiszfeld_handles_weber_point_on_an_input_point() {
        // A point of multiplicity 3 at the centre of a triangle dominates:
        // the Weber point is that occupied centre (Vardi–Zhang case).
        let mut pts: Vec<Point> = (0..3)
            .map(|k| {
                let th = TAU * k as f64 / 3.0;
                Point::new(th.cos(), th.sin())
            })
            .collect();
        for _ in 0..3 {
            pts.push(Point::ORIGIN);
        }
        let r = weber_point_weiszfeld(&pts, t());
        assert!(r.point.dist(Point::ORIGIN) < 1e-7, "got {}", r.point);
        assert!(r.converged);
    }

    #[test]
    fn weiszfeld_is_no_worse_than_any_input_point() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(7.0, 1.0),
            Point::new(3.0, 9.0),
            Point::new(-2.0, 4.0),
            Point::new(5.0, 5.0),
        ];
        let r = weber_point_weiszfeld(&pts, t());
        for p in &pts {
            assert!(r.objective <= weber_objective(*p, &pts) + 1e-9);
        }
    }

    #[test]
    fn weiszfeld_first_order_condition() {
        // At the optimum, the unit-vector pull sums to ~0 (unoccupied case).
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(8.0, 1.0),
            Point::new(4.0, 7.0),
            Point::new(1.0, 5.0),
        ];
        let r = weber_point_weiszfeld(&pts, t());
        let mut pull = Vec2::ZERO;
        for p in &pts {
            pull += (*p - r.point).normalized();
        }
        assert!(pull.norm() < 1e-5, "residual pull {}", pull.norm());
    }

    #[test]
    fn collinear_interval_odd_is_median_point() {
        let pts = [0.0, 2.0, 10.0].map(|x| Point::new(x, x)); // along y=x
        let (lo, hi) = collinear_weber_interval(&pts, t()).unwrap();
        assert!(lo.dist(hi) < 1e-12);
        assert!(lo.dist(Point::new(2.0, 2.0)) < 1e-12);
    }

    #[test]
    fn collinear_interval_even_distinct_medians() {
        let pts = [0.0, 2.0, 6.0, 11.0].map(|x| Point::new(x, 0.0));
        let (lo, hi) = collinear_weber_interval(&pts, t()).unwrap();
        assert_eq!((lo.x, hi.x), (2.0, 6.0));
        assert!(unique_collinear_weber_point(&pts, t()).is_none());
    }

    #[test]
    fn collinear_interval_even_with_multiplicity_collapses() {
        // Middle two positions coincide => unique Weber point (class L1W).
        let pts = [0.0, 3.0, 3.0, 11.0].map(|x| Point::new(x, 0.0));
        let w = unique_collinear_weber_point(&pts, t()).unwrap();
        assert!(w.dist(Point::new(3.0, 0.0)) < 1e-12);
    }

    #[test]
    fn collinear_interval_respects_multiplicity() {
        // Multiplicity shifts the median: {0 (x4), 10} has median 0.
        let pts = [0.0, 0.0, 0.0, 0.0, 10.0].map(|x| Point::new(x, 0.0));
        let (lo, hi) = collinear_weber_interval(&pts, t()).unwrap();
        assert!(lo.dist(hi) < 1e-12);
        assert!(lo.dist(Point::ORIGIN) < 1e-12);
    }

    #[test]
    fn non_collinear_has_no_interval() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        assert!(collinear_weber_interval(&pts, t()).is_none());
        assert!(unique_collinear_weber_point(&pts, t()).is_none());
    }

    #[test]
    fn weiszfeld_on_collinear_input_returns_median() {
        let pts = [0.0, 1.0, 2.0, 3.0, 50.0].map(|x| Point::new(x, 0.0));
        let r = weber_point_weiszfeld(&pts, t());
        assert!(r.point.dist(Point::new(2.0, 0.0)) < 1e-9);
    }

    #[test]
    fn warm_start_agrees_with_cold_start() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(7.0, 1.0),
            Point::new(3.0, 9.0),
            Point::new(-2.0, 4.0),
            Point::new(5.0, 5.0),
        ];
        let cold = weber_point_weiszfeld(&pts, t());
        for start in [
            cold.point,
            Point::new(100.0, -50.0),
            Point::ORIGIN,
            Point::new(3.0, 9.0), // an input point
        ] {
            let warm = weber_point_weiszfeld_from(start, &pts, t());
            assert!(
                warm.point.dist(cold.point) < 1e-6,
                "warm start from {start} landed at {} vs cold {}",
                warm.point,
                cold.point
            );
            assert!(warm.converged);
        }
    }

    #[test]
    fn warm_start_from_previous_weber_point_is_cheap() {
        // Lemma 3.2 in action: after moving robots toward the Weber point,
        // restarting the solver from the old iterate converges in far fewer
        // iterations than a cold start does.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(8.0, 1.0),
            Point::new(4.0, 7.0),
            Point::new(1.0, 5.0),
            Point::new(6.0, 6.0),
        ];
        let w = weber_point_weiszfeld(&pts, t());
        let moved: Vec<Point> = pts.iter().map(|p| p.lerp(w.point, 0.4)).collect();
        let cold = weber_point_weiszfeld(&moved, t());
        let warm = weber_point_weiszfeld_from(w.point, &moved, t());
        assert!(warm.point.dist(cold.point) < 1e-6);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} > cold {} iterations",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn warm_start_with_non_finite_initial_falls_back_to_cold() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ];
        let r = weber_point_weiszfeld_from(Point::new(f64::NAN, 0.0), &pts, t());
        assert!(r.point.dist(Point::new(2.0, 2.0)) < 1e-6);
    }

    #[test]
    fn warm_start_degenerate_inputs_match_cold_shortcuts() {
        let p = Point::new(2.0, 3.0);
        let far = Point::new(50.0, 50.0);
        assert_eq!(weber_point_weiszfeld_from(far, &[p], t()).point, p);
        let line = [0.0, 1.0, 2.0, 3.0, 50.0].map(|x| Point::new(x, 0.0));
        let r = weber_point_weiszfeld_from(far, &line, t());
        assert!(r.point.dist(Point::new(2.0, 0.0)) < 1e-9);
    }

    /// Point sets on which the bound, the cold start and the capture
    /// candidate are held to their oracles: scatters from 3 to 4096
    /// points, stacks, a point at the Weber point of the others, a
    /// regular polygon with its centre (every input ties), integer grids
    /// (exact distance ties), ±0 coordinates and far-off clusters.
    fn bound_gallery() -> Vec<Vec<Point>> {
        let mut rng = gather_prng::Rng::seed_from_u64(0xB0_0D);
        let mut out = Vec::new();
        let scatter = |rng: &mut gather_prng::Rng, n: usize, w: f64| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.random_range(-w..w), rng.random_range(-w..w)))
                .collect()
        };
        for n in (3..40).chain([64, 100, 256, 1000, 1024, 4096]) {
            out.push(scatter(&mut rng, n, 10.0));
        }
        for _ in 0..40 {
            let k = rng.random_range(2usize..20);
            let mut pts = scatter(&mut rng, k, 5.0);
            for _ in 0..rng.random_range(1usize..30) {
                pts.push(pts[rng.random_range(0..k)]);
            }
            out.push(pts.clone());
            let w = weber_point_weiszfeld(&pts, t()).point;
            pts.push(w);
            out.push(pts);
        }
        for n in [5usize, 8, 12, 64] {
            let mut ring: Vec<Point> = (0..n)
                .map(|k| {
                    let th = TAU * k as f64 / n as f64;
                    Point::new(3.0 * th.cos(), 3.0 * th.sin())
                })
                .collect();
            out.push(ring.clone());
            ring.push(Point::ORIGIN);
            out.push(ring);
        }
        for side in [3i32, 4, 7] {
            let grid: Vec<Point> = (0..side * side)
                .map(|k| Point::new(f64::from(k % side), f64::from(k / side)))
                .collect();
            out.push(grid);
        }
        out.push(vec![
            Point::new(0.0, 0.0),
            Point::new(-0.0, 0.0),
            Point::new(0.0, -0.0),
            Point::new(1.0, 0.0),
            Point::new(-0.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        let mut far = scatter(&mut rng, 50, 1.0);
        far.extend(
            scatter(&mut rng, 50, 1.0)
                .iter()
                .map(|p| Point::new(p.x + 1e6, p.y)),
        );
        out.push(far);
        out
    }

    #[test]
    fn bound_never_exceeds_the_kernel_objective() {
        let mut rng = gather_prng::Rng::seed_from_u64(0x10_3E);
        for pts in bound_gallery() {
            let buf = PointBuffer::from_points(&pts);
            let c = soa::centroid(&buf);
            let extent = soa::max_dist2(&buf, c).1.sqrt();
            for radius in [0.0, PROBE_RING * extent, extent] {
                let bound = WeberBound::new(&buf, c, radius);
                assert!(bound.is_usable());
                let mut at: Vec<Point> = pts.clone();
                at.extend((0..PROBES).map(|k| bound.probes[k].0));
                at.extend((0..20).map(|_| {
                    let s = 2.0 * extent + 1.0;
                    Point::new(c.x + rng.random_range(-s..s), c.y + rng.random_range(-s..s))
                }));
                for p in at {
                    let lower = bound.lower(p);
                    assert!(lower <= soa::sum_distances(&buf, p), "{p:?}");
                    assert!(lower <= weber_objective(p, &pts), "{p:?}");
                }
            }
        }
        // A non-finite input makes the bound unusable: it excludes nothing.
        let buf = PointBuffer::from_points(&[Point::ORIGIN, Point::new(f64::NAN, 1.0)]);
        let bound = WeberBound::new(&buf, Point::ORIGIN, 0.1);
        assert!(!bound.is_usable());
        assert_eq!(bound.lower(Point::new(5.0, 5.0)), f64::NEG_INFINITY);
    }

    #[test]
    fn probe_kernel_matches_the_objective_and_the_pull() {
        for pts in bound_gallery().into_iter().take(60) {
            let buf = PointBuffer::from_points(&pts);
            for at in [pts[0], soa::centroid(&buf), Point::new(0.3, -0.7)] {
                let (f, pull) = soa::weber_probe(&buf, at);
                let f_ref = soa::sum_distances(&buf, at);
                let pull_ref = soa::radial_pull(&buf, at, 0.0).0;
                assert!((f - f_ref).abs() <= 1e-12 * (1.0 + f_ref));
                assert!((pull - pull_ref).norm() <= 1e-12 * (1.0 + pts.len() as f64));
            }
        }
    }

    #[test]
    fn cold_start_and_capture_are_their_oracles() {
        for pts in bound_gallery() {
            let buf = PointBuffer::from_points(&pts);
            let c = soa::centroid(&buf);
            let extent = soa::max_dist2(&buf, c).1.sqrt().max(1e-12);
            let got = cold_start_point(&buf, c, extent);
            let want = cold_start_point_oracle(&buf);
            assert_eq!(
                got.0.x.to_bits(),
                want.0.x.to_bits(),
                "{} points",
                pts.len()
            );
            assert_eq!(
                got.0.y.to_bits(),
                want.0.y.to_bits(),
                "{} points",
                pts.len()
            );
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{} points", pts.len());
            let mut probes: Vec<Point> = pts.iter().take(30).copied().collect();
            probes.extend([c, Point::new(0.5, 0.5), Point::new(1.0, 1.0)]);
            for x in probes {
                let (p, m) = nearest_input(&pts, x);
                let (q, k) = nearest_input_oracle(&pts, x);
                assert_eq!(
                    (p.x.to_bits(), p.y.to_bits(), m),
                    (q.x.to_bits(), q.y.to_bits(), k)
                );
            }
        }
    }

    #[test]
    fn cold_start_evaluates_a_bounded_number_of_points() {
        for n in [256usize, 1024, 4096] {
            for seed in 0..2u64 {
                let mut rng = gather_prng::Rng::seed_from_u64(seed * 7919 + n as u64);
                let pts: Vec<Point> = (0..n)
                    .map(|_| {
                        Point::new(rng.random_range(-10.0..10.0), rng.random_range(-10.0..10.0))
                    })
                    .collect();
                let buf = PointBuffer::from_points(&pts);
                let c = soa::centroid(&buf);
                let extent = soa::max_dist2(&buf, c).1.sqrt();
                let before = soa::point_scans();
                cold_start_point(&buf, c, extent);
                let scans = soa::point_scans() - before;
                // 8 probes and the cap, then only the points near the
                // minimum: the old scan made n.
                assert!(scans <= 48, "n={n} seed={seed}: {scans} kernel scans");
            }
        }
    }

    #[test]
    fn weber_point_invariance_under_movement_toward_it() {
        // Lemma 3.2, checked numerically: move each point halfway toward
        // the Weber point; the Weber point stays put.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(8.0, 1.0),
            Point::new(4.0, 7.0),
            Point::new(1.0, 5.0),
            Point::new(6.0, 6.0),
        ];
        let w = weber_point_weiszfeld(&pts, t()).point;
        let moved: Vec<Point> = pts.iter().map(|p| p.lerp(w, 0.5)).collect();
        let w2 = weber_point_weiszfeld(&moved, t()).point;
        assert!(w.dist(w2) < 1e-5, "Weber point drifted {} -> {}", w, w2);
    }
}
