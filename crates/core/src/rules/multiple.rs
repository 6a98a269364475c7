//! Class `M`: a unique point of maximum multiplicity exists.
//!
//! All robots head for the unique max-multiplicity point `c`. A robot whose
//! straight path is blocked (another occupied location strictly between it
//! and `c`) *side-steps*: it rotates clockwise around `c`, keeping its
//! radius, by one third of the clockwise angular gap to the nearest other
//! occupied ray. The paper's Claims C1/C2 (Lemma 5.3) show this never
//! merges robots anywhere except at `c` — so `c` remains the unique
//! maximum — while guaranteeing progress under any fair scheduler and any
//! crash pattern.
//!
//! Two evaluations of the one rule live here. [`destination_with_fraction`]
//! is the per-robot form: each robot runs it in its own frame, scanning all
//! `n` positions. A ray index serves every occupied location of one
//! configuration at once, as the wait-freeness audit asks: it sorts the
//! occupied rays around `c` once and answers each location's blocked test
//! and gap from a few binary searches, re-running the per-robot rule's
//! exact predicates on the candidates they find, so both forms return the
//! same bits (DESIGN.md §8).

use gather_config::Configuration;
use gather_geom::angle::{normalize_tau, rotate_cw_around};
use gather_geom::predicates::is_strictly_between;
use gather_geom::{Point, Tol};
use std::cell::{Cell, RefCell};
use std::f64::consts::{PI, TAU};

/// A ray whose clockwise gap from the robot's own ray is at most this many
/// radians counts as the robot's own ray, not as the nearest other one.
const SAME_RAY: f64 = 1e-9;

thread_local! {
    /// Kernel evaluations of this module on this thread.
    static RAY_KERNEL_CALLS: Cell<u64> = const { Cell::new(0) };
    /// The ray index [`destinations_with_fraction`] rebuilds per call, kept
    /// so that steady-state calls allocate nothing.
    static RAY_INDEX: RefCell<RayIndex> = RefCell::new(RayIndex::default());
}

/// Total kernel evaluations of the class-`M` rule on the current thread
/// since it started: calls of `is_strictly_between` plus evaluations of a
/// ray angle or of a clockwise gap, by either evaluation of the rule.
/// Monotone; callers diff two readings. The per-robot rule makes about `n`
/// of each per robot, so serving `|U|` locations one by one costs
/// `|U|·n`; the cost test of [`destinations_with_fraction`] holds it to
/// `O(|U| log |U|)`.
/// Counting reads no point and changes no result.
pub fn ray_kernel_calls() -> u64 {
    RAY_KERNEL_CALLS.with(|c| c.get())
}

fn count_kernel_calls(k: usize) {
    RAY_KERNEL_CALLS.with(|c| c.set(c.get() + k as u64));
}

/// The rule's clockwise gap from the ray at angle `mine` to the ray at
/// angle `theta`, in `[0, 2π)`.
#[inline]
fn cw_gap(mine: f64, theta: f64) -> f64 {
    normalize_tau(mine - theta)
}

/// Does a ray at clockwise gap `a` count as another ray, nearer than
/// `gap`?
#[inline]
fn nearer_ray(a: f64, gap: f64) -> bool {
    a > SAME_RAY && a < gap
}

/// The side-step of a blocked robot at `me`: clockwise around `target` at
/// constant radius, by `fraction` (clamped to `(0, 1)`) of the gap, itself
/// capped at `π`.
#[inline]
fn side_step(me: Point, target: Point, gap: f64, fraction: f64) -> Point {
    let fraction = fraction.clamp(1e-3, 1.0 - 1e-3);
    rotate_cw_around(me, target, gap.min(PI) * fraction)
}

/// Destination for a robot at `me` when the configuration has the unique
/// max-multiplicity point `target`.
///
/// * at `target` → stay;
/// * free path → straight to `target`;
/// * blocked → clockwise side-step at constant radius (angle =
///   `min(gap, π)/3` where `gap` is the clockwise angle to the nearest
///   other occupied ray around `target`).
pub fn destination(config: &Configuration, me: Point, target: Point, tol: Tol) -> Point {
    destination_with_fraction(config, me, target, tol, 1.0 / 3.0)
}

/// [`destination`] with an explicit side-step fraction of the angular gap
/// (the paper uses `1/3`; experiment A1 ablates the choice). The fraction
/// is clamped to `(0, 1)`; values close to `1` step almost onto the next
/// occupied ray, which is exactly the collision hazard the paper's
/// constant avoids.
pub fn destination_with_fraction(
    config: &Configuration,
    me: Point,
    target: Point,
    tol: Tol,
    fraction: f64,
) -> Point {
    if me.within(target, tol.snap) {
        return target;
    }

    // Raw points, not `distinct_points()`: duplicates change neither the
    // blocked test nor the minimum gap, and the raw slice needs no
    // allocation (this runs once per robot per round in class M).
    let points = config.points();
    let tested = points
        .iter()
        .position(|p| is_strictly_between(me, target, *p, tol));
    count_kernel_calls(tested.map_or(points.len(), |i| i + 1));
    if tested.is_none() {
        return target;
    }

    // Clockwise angular gap from my ray to the nearest other occupied ray
    // around the target.
    let my_angle = (me - target).angle();
    let mut gap = TAU;
    for &p in points {
        if p.within(target, tol.snap) {
            continue;
        }
        let a = cw_gap(my_angle, (p - target).angle());
        if nearer_ray(a, gap) {
            gap = a;
        }
    }
    count_kernel_calls(1 + points.len());
    side_step(me, target, gap, fraction)
}

/// [`destination_with_fraction`] for every location in `locations` at
/// once, into `out` (cleared first; one destination per location, in
/// order), through this thread's ray index (see `RayIndex`).
///
/// `locations` must be the distinct occupied locations `U(C)` of the
/// configuration the rule would scan, each once: then every destination
/// is bitwise the per-robot rule's for a robot at that location.
pub fn destinations_with_fraction(
    locations: &[(Point, usize)],
    target: Point,
    tol: Tol,
    fraction: f64,
    out: &mut Vec<Point>,
) {
    RAY_INDEX.with(|index| {
        let mut index = index.borrow_mut();
        index.build(locations, target, tol);
        out.clear();
        out.extend(
            locations
                .iter()
                .enumerate()
                .map(|(i, (me, _))| index.destination(i, *me, fraction)),
        );
    });
}

/// The occupied rays around the max-multiplicity point `c`, sorted by
/// angle: the class-`M` rule for every occupied location in
/// `O(|U| log |U|)` kernel evaluations instead of the `|U|·n` of
/// evaluating [`destination_with_fraction`] once per location.
///
/// Every angle is computed once, with the rule's own expression
/// `(p − c).angle()`, so the index holds the very values the per-robot
/// rule compares. Each lookup re-runs the rule's exact predicates on the
/// candidates the sorted order yields:
///
/// * **Gap.** Rounded subtraction is monotone, so among the rays at or
///   below mine, `θ_me − θ` shrinks as `θ` grows, and among the rays
///   above mine so does `(θ_me − θ) + 2π`. Those are exactly the values
///   `normalize_tau(θ_me − θ)` takes whenever it exceeds the same-ray cut,
///   so one binary search per side finds the side's nearest ray past the
///   cut, and the smaller of the two (after the rule's exact comparison)
///   is the rule's minimum.
/// * **Blocked.** A blocker `p` lies within `tol.abs·|p − me|` of the line
///   through `me` and `c`, and further than `tol.snap` from `c`, so its
///   ray is within `asin(tol.abs·(1 + |me − c|/tol.snap))` of my ray or
///   of the opposite one. The lookup scans those two arcs, widened for
///   rounding, with the exact `is_strictly_between`; when the bound
///   reaches 1/2 it scans every ray.
#[derive(Debug, Default)]
struct RayIndex {
    target: Point,
    tol: Tol,
    /// Each location's ray angle, in location order (unused for the
    /// locations within `tol.snap` of the target).
    angles: Vec<f64>,
    /// `(angle, location)` of every location beyond `tol.snap` of the
    /// target, ascending by angle.
    rays: Vec<(f64, Point)>,
}

impl RayIndex {
    /// Indexes the rays of `locations` around `target`, reusing the
    /// index's buffers.
    fn build(&mut self, locations: &[(Point, usize)], target: Point, tol: Tol) {
        self.target = target;
        self.tol = tol;
        self.angles.clear();
        self.rays.clear();
        for &(p, _) in locations {
            if p.within(target, tol.snap) {
                self.angles.push(0.0);
                continue;
            }
            let theta = (p - target).angle();
            self.angles.push(theta);
            self.rays.push((theta, p));
        }
        count_kernel_calls(self.rays.len());
        self.rays.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// The rule's destination for the robots at `me`, the `i`-th location
    /// the index was built from.
    fn destination(&self, i: usize, me: Point, fraction: f64) -> Point {
        let target = self.target;
        if me.within(target, self.tol.snap) {
            return target;
        }
        let mine = self.angles[i];
        if !self.blocked(me, mine) {
            return target;
        }
        side_step(me, target, self.gap(mine), fraction)
    }

    /// The rule's blocked test for a robot at `me` on the ray at `mine`.
    fn blocked(&self, me: Point, mine: f64) -> bool {
        let (target, tol) = (self.target, self.tol);
        let sine = (tol.abs + 1e-14) * (1.0 + me.dist(target) / tol.snap) * (1.0 + 1e-9);
        if sine.is_nan() || sine > 0.5 {
            let tested = self
                .rays
                .iter()
                .position(|(_, p)| is_strictly_between(me, target, *p, tol));
            count_kernel_calls(tested.map_or(self.rays.len(), |k| k + 1));
            return tested.is_some();
        }
        let half = sine.asin() * (1.0 + 1e-9) + 1e-13;
        let opposite = if mine > 0.0 { mine - PI } else { mine + PI };
        let mut tested = 0;
        let mut hit = false;
        'arcs: for centre in [mine, opposite] {
            for shift in [-TAU, 0.0, TAU] {
                let lo = centre - half + shift;
                let hi = centre + half + shift;
                let start = self.rays.partition_point(|r| r.0 < lo);
                let end = self.rays.partition_point(|r| r.0 <= hi);
                for (_, p) in &self.rays[start..end] {
                    tested += 1;
                    if is_strictly_between(me, target, *p, tol) {
                        hit = true;
                        break 'arcs;
                    }
                }
            }
        }
        count_kernel_calls(tested);
        hit
    }

    /// The rule's clockwise gap from the ray at `mine` to the nearest
    /// other occupied ray (`2π` when there is none).
    fn gap(&self, mine: f64) -> f64 {
        let rays = &self.rays;
        let k = rays.partition_point(|r| r.0 <= mine);
        // Candidates: the last ray on each side whose gap clears the
        // same-ray cut. The predicates are monotone in the sorted angle.
        let below = rays[..k].partition_point(|r| mine - r.0 > SAME_RAY);
        let above = k + rays[k..].partition_point(|r| (mine - r.0) + TAU > SAME_RAY);
        let mut gap = TAU;
        let mut tested = 0;
        for j in [
            below.checked_sub(1),
            above.checked_sub(1).filter(|&j| j >= k),
        ]
        .into_iter()
        .flatten()
        {
            tested += 1;
            let a = cw_gap(mine, rays[j].0);
            if nearer_ray(a, gap) {
                gap = a;
            }
        }
        count_kernel_calls(tested);
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_3;

    fn t() -> Tol {
        Tol::default()
    }

    fn m_config() -> (Configuration, Point) {
        // Heavy point at the origin, satellites elsewhere.
        let c = Point::new(0.0, 0.0);
        let cfg = Configuration::new(vec![
            c,
            c,
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
            Point::new(-2.0, -2.0),
        ]);
        (cfg, c)
    }

    #[test]
    fn robot_at_target_stays() {
        let (cfg, c) = m_config();
        assert_eq!(destination(&cfg, c, c, t()), c);
    }

    #[test]
    fn free_robot_moves_straight_to_target() {
        let (cfg, c) = m_config();
        let me = Point::new(4.0, 0.0);
        assert_eq!(destination(&cfg, me, c, t()), c);
    }

    #[test]
    fn blocked_robot_side_steps_at_constant_radius() {
        // Robot at (8,0) blocked by the robot at (4,0).
        let c = Point::new(0.0, 0.0);
        let cfg = Configuration::new(vec![
            c,
            c,
            Point::new(4.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(0.0, 3.0),
        ]);
        let me = Point::new(8.0, 0.0);
        let d = destination(&cfg, me, c, t());
        assert_ne!(d, c);
        assert_ne!(d, me);
        assert!((c.dist(d) - 8.0).abs() < 1e-9, "radius changed: {d}");
    }

    #[test]
    fn side_step_rotates_clockwise() {
        let c = Point::new(0.0, 0.0);
        let cfg = Configuration::new(vec![
            c,
            c,
            Point::new(4.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(0.0, 3.0), // 90° CCW from my ray — CW gap is 270°
        ]);
        let me = Point::new(8.0, 0.0);
        let d = destination(&cfg, me, c, t());
        // Clockwise from +x means negative y.
        assert!(d.y < 0.0, "side-step went counter-clockwise: {d}");
    }

    #[test]
    fn side_step_stays_within_one_third_of_gap() {
        let c = Point::new(0.0, 0.0);
        // Nearest CW ray at 30° below mine.
        let below = Point::new(
            5.0 * (-30.0_f64).to_radians().cos(),
            5.0 * (-30.0_f64).to_radians().sin(),
        );
        let cfg = Configuration::new(vec![
            c,
            c,
            Point::new(4.0, 0.0),
            Point::new(8.0, 0.0),
            below,
        ]);
        let me = Point::new(8.0, 0.0);
        let d = destination(&cfg, me, c, t());
        let turned = normalize_tau((me - c).angle() - (d - c).angle());
        assert!(turned > 0.0);
        assert!(
            turned <= 30.0_f64.to_radians() / 3.0 + 1e-9,
            "turned {turned} rad, gap was 30°"
        );
    }

    #[test]
    fn all_rays_shared_still_side_steps() {
        // Everything on one ray: blocked robot side-steps by π/3 at most.
        let c = Point::new(0.0, 0.0);
        let cfg = Configuration::new(vec![c, c, Point::new(2.0, 0.0), Point::new(5.0, 0.0)]);
        let me = Point::new(5.0, 0.0);
        let d = destination(&cfg, me, c, t());
        assert_ne!(d, me);
        let turned = normalize_tau((me - c).angle() - (d - c).angle());
        assert!(turned > 0.0 && turned <= FRAC_PI_3 + 1e-9);
    }

    #[test]
    fn side_steps_of_distinct_radii_do_not_collide() {
        // Two blocked robots on one ray side-step together: same new ray,
        // still distinct radii.
        let c = Point::new(0.0, 0.0);
        let cfg = Configuration::new(vec![
            c,
            c,
            Point::new(2.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(8.0, 0.0),
        ]);
        let d5 = destination(&cfg, Point::new(5.0, 0.0), c, t());
        let d8 = destination(&cfg, Point::new(8.0, 0.0), c, t());
        assert!((c.dist(d5) - 5.0).abs() < 1e-9);
        assert!((c.dist(d8) - 8.0).abs() < 1e-9);
        // Same rotation angle → same ray → paths stay parallel, no merge.
        let a5 = (d5 - c).angle();
        let a8 = (d8 - c).angle();
        assert!((a5 - a8).abs() < 1e-9);
    }
}
