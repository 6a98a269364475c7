//! Views of robot positions (Definition 2 of the paper).
//!
//! The *view* of an occupied position `p` is the multiset of all robot
//! positions expressed in a polar coordinate system intrinsic to the
//! configuration: origin `p`, zero direction toward the centre `c` of the
//! smallest enclosing circle of `U(C)` (or toward a maximising reference
//! point when `p = c`), angles measured **clockwise** (chirality), and
//! distances normalised by `|p, c|` (the definition places `c` at `(1, 0)`).
//!
//! Views are therefore invariant under the orientation-preserving
//! similarity transforms that relate robot frames: two robots always agree
//! on the view of every position, and on the total (lexicographic) order
//! among views. The algorithm uses this order to elect points in
//! asymmetric configurations, and the equivalence classes of
//! equal-view positions define rotational symmetry (Definition 3).
//!
//! # Quantisation
//!
//! To obtain an exact, hashable total order in floating point, view entries
//! are quantised to a grid of `1e-7` (normalised distance units / radians).
//! Geometrically equal features computed through different arithmetic paths
//! differ by ~1e-12, so they land in the same cell with overwhelming
//! probability; genuinely distinct features in the generated workloads are
//! separated by far more than the grid step.

use crate::configuration::Configuration;
use gather_geom::{angle::normalize_tau, Point, Tol};
use std::f64::consts::TAU;

/// Quantisation step for view entries (normalised distances and radians).
pub const VIEW_QUANT: f64 = 1e-7;

/// Number of quantised angle buckets in a full turn.
fn angle_buckets() -> i64 {
    (TAU / VIEW_QUANT).round() as i64
}

/// Quantises a clockwise angle in `[0, 2π)` onto the circular grid.
fn quant_angle(theta: f64) -> i64 {
    let b = angle_buckets();
    ((theta / VIEW_QUANT).round() as i64).rem_euclid(b)
}

/// Quantises a normalised distance onto the grid.
fn quant_dist(d: f64) -> i64 {
    (d / VIEW_QUANT).round() as i64
}

/// The similarity-invariant view of a position (Definition 2), with a total
/// order.
///
/// Entries are quantised `(distance, clockwise angle)` pairs, one per robot
/// (so multiplicities are represented by repeated entries; robots located at
/// the observed position contribute `(0, 0)` entries), sorted ascending.
///
/// # Example
///
/// ```
/// use gather_config::{view_of, Configuration};
/// use gather_geom::{Point, Tol};
///
/// // In a 3-4-5-ish asymmetric triangle every position has a distinct view.
/// let c = Configuration::new(vec![
///     Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(0.0, 3.0),
/// ]);
/// let tol = Tol::default();
/// let v0 = view_of(&c, Point::new(0.0, 0.0), tol);
/// let v1 = view_of(&c, Point::new(4.0, 0.0), tol);
/// assert_ne!(v0, v1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View {
    entries: Vec<(i64, i64)>,
}

impl View {
    /// The quantised `(distance, clockwise-angle)` entries, sorted
    /// ascending; one entry per robot.
    pub fn entries(&self) -> &[(i64, i64)] {
        &self.entries
    }

    /// Number of robots represented (always `n`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the view empty (empty configuration)?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Display for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "View[")?;
        for (i, (d, a)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({d},{a})")?;
        }
        write!(f, "]")
    }
}

thread_local! {
    /// Views built on this thread.
    static VIEW_SCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total views built on the current thread since it started: calls of the
/// one view kernel, each an O(n log n) pass over every robot. Monotone;
/// callers diff two readings. Every view-based computation goes through
/// this kernel ([`view_of`], the symmetry classes, the class-`A` election
/// tie-breaks), so a zero difference proves a code region did no view
/// work. Counting reads no point and changes no result.
pub fn view_scans() -> u64 {
    VIEW_SCANS.with(|c| c.get())
}

/// Builds the view of position `p` using `reference` as the zero direction
/// and `unit` as the distance unit.
fn view_with_reference(
    config: &Configuration,
    p: Point,
    reference: Point,
    unit: f64,
    tol: Tol,
) -> View {
    VIEW_SCANS.with(|c| c.set(c.get() + 1));
    let ref_dir = reference - p;
    let ref_angle = ref_dir.angle();
    let mut entries: Vec<(i64, i64)> = config
        .points()
        .iter()
        .map(|q| {
            if q.within(p, tol.snap) {
                (0, 0)
            } else {
                let v = *q - p;
                // Clockwise angle from the reference direction.
                let cw = normalize_tau(ref_angle - v.angle());
                (quant_dist(v.norm() / unit), quant_angle(cw))
            }
        })
        .collect();
    entries.sort_unstable();
    View { entries }
}

/// Computes the view of position `p` in configuration `config`
/// (Definition 2).
///
/// `p` should be an occupied position (the definition only assigns views to
/// points of `U(C)`), but any point may be observed; the reference
/// conventions are:
///
/// * if `p` differs from the centre `c` of `sec(U(C))`, the zero direction
///   points toward `c` and the unit distance is `|p, c|`;
/// * if `p` coincides with `c`, the reference is the occupied position
///   `x ≠ p` whose own view is maximal, and among maximising candidates the
///   one producing the greatest view of `p` (the definition allows "any"
///   maximising `x`; taking the max makes the choice deterministic and
///   agrees whenever the definition's choices agree);
/// * if the configuration occupies a single location, the view is all-zero.
pub fn view_of(config: &Configuration, p: Point, tol: Tol) -> View {
    let distinct = config.distinct_points();
    if distinct.len() <= 1 {
        return View {
            entries: vec![(0, 0); config.len()],
        };
    }
    let c = config.sec().center;
    if !p.within(c, tol.snap) {
        return view_with_reference(config, p, c, p.dist(c), tol);
    }
    // p is the SEC centre: pick the reference among other occupied points.
    let candidates: Vec<Point> = distinct
        .iter()
        .copied()
        .filter(|x| !x.within(p, tol.snap))
        .collect();
    let max_view = candidates
        .iter()
        .map(|x| view_of_noncenter(config, *x, c, tol))
        .max()
        .expect("non-gathered configuration has another occupied point");
    candidates
        .iter()
        .filter(|x| view_of_noncenter(config, **x, c, tol) == max_view)
        .map(|x| view_with_reference(config, p, *x, p.dist(*x), tol))
        .max()
        .expect("at least one maximising reference")
}

/// View of a position known not to be the SEC centre `c`.
fn view_of_noncenter(config: &Configuration, p: Point, c: Point, tol: Tol) -> View {
    view_with_reference(config, p, c, p.dist(c), tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_geom::Similarity;
    use std::f64::consts::FRAC_PI_3;

    fn t() -> Tol {
        Tol::default()
    }

    fn square_config() -> Configuration {
        Configuration::new(vec![
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(-1.0, 0.0),
            Point::new(0.0, -1.0),
        ])
    }

    #[test]
    fn square_corners_share_one_view() {
        let c = square_config();
        let views: Vec<View> = c
            .distinct_points()
            .into_iter()
            .map(|p| view_of(&c, p, t()))
            .collect();
        for v in &views[1..] {
            assert_eq!(views[0], *v);
        }
    }

    #[test]
    fn asymmetric_positions_have_distinct_views() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
            Point::new(3.0, 1.0),
        ]);
        let views: Vec<View> = c
            .distinct_points()
            .into_iter()
            .map(|p| view_of(&c, p, t()))
            .collect();
        for i in 0..views.len() {
            for j in (i + 1)..views.len() {
                assert_ne!(views[i], views[j], "positions {i} and {j}");
            }
        }
    }

    #[test]
    fn views_are_similarity_invariant() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
            Point::new(3.0, 1.0),
        ]);
        let sim = Similarity::new(FRAC_PI_3, 2.7, Point::new(-3.0, 11.0));
        let tc = c.map(|p| sim.apply(p));
        let mut orig: Vec<View> = c
            .distinct_points()
            .into_iter()
            .map(|p| view_of(&c, p, t()))
            .collect();
        let mut moved: Vec<View> = tc
            .distinct_points()
            .into_iter()
            .map(|p| view_of(&tc, p, t()))
            .collect();
        orig.sort();
        moved.sort();
        assert_eq!(orig, moved);
    }

    #[test]
    fn view_encodes_multiplicity() {
        let single = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
        ]);
        let stacked = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
        ]);
        let p = Point::new(2.0, 0.0);
        assert_ne!(view_of(&single, p, t()), view_of(&stacked, p, t()));
    }

    #[test]
    fn observer_position_contributes_zero_entries() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
        ]);
        let v = view_of(&c, Point::new(0.0, 0.0), t());
        let zeros = v.entries().iter().filter(|e| **e == (0, 0)).count();
        assert_eq!(zeros, 2);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn gathered_configuration_has_trivial_view() {
        let c = Configuration::new(vec![Point::new(5.0, 5.0); 4]);
        let v = view_of(&c, Point::new(5.0, 5.0), t());
        assert_eq!(v.entries(), &[(0, 0); 4]);
    }

    #[test]
    fn center_position_view_is_well_defined() {
        // Square plus a robot at the SEC centre.
        let mut pts = square_config().points().to_vec();
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        let v = view_of(&c, Point::ORIGIN, t());
        assert_eq!(v.len(), 5);
        // The centre sees 4 robots at normalised distance 1.
        let ones = v
            .entries()
            .iter()
            .filter(|(d, _)| *d == quant_dist(1.0))
            .count();
        assert_eq!(ones, 4);
    }

    #[test]
    fn center_view_invariant_under_rotation() {
        let mut pts = square_config().points().to_vec();
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        let sim = Similarity::new(0.77, 1.3, Point::new(2.0, -1.0));
        let tc = c.map(|p| sim.apply(p));
        let v1 = view_of(&c, Point::ORIGIN, t());
        let v2 = view_of(&tc, sim.apply(Point::ORIGIN), t());
        assert_eq!(v1, v2);
    }

    #[test]
    fn views_have_total_order() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        let mut views: Vec<View> = c
            .distinct_points()
            .into_iter()
            .map(|p| view_of(&c, p, t()))
            .collect();
        views.sort();
        assert!(views[0] <= views[1] && views[1] <= views[2]);
    }

    #[test]
    fn chirality_distinguishes_mirror_configurations() {
        // A configuration and its mirror image: with chirality (clockwise
        // angles), a position's view differs from the view of its mirror
        // position unless the configuration is itself symmetric.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        let mirrored = c.map(|p| Point::new(p.x, -p.y));
        let v = view_of(&c, Point::new(0.0, 0.0), t());
        let vm = view_of(&mirrored, Point::new(0.0, 0.0), t());
        assert_ne!(v, vm);
    }
}
