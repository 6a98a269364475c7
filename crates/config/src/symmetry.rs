//! Rotational symmetry of configurations (Definition 3 of the paper).
//!
//! Positions with equal views (Definition 2) are equivalent under the
//! relation `∼ᵣ`; the *rotational symmetry* `sym(C)` is the cardinality of
//! the largest equivalence class. A configuration with `sym(C) = 1` is
//! *asymmetric*: every occupied position has a unique view, which the
//! algorithm exploits to elect a unique gathering point (class `A`).
//!
//! Lemma 3.1: if `sym(C) = k > 1`, every equivalence class not at the SEC
//! centre is a regular `k`-gon centred on the SEC centre whose corners carry
//! equal multiplicity.

use crate::configuration::Configuration;
use crate::view::{view_of, View};
use gather_geom::{Point, Tol};
use std::collections::BTreeMap;

/// Groups the occupied positions of `config` into equivalence classes of
/// equal views, returned with each class's shared view, ordered by view
/// (ascending).
///
/// # Example
///
/// ```
/// use gather_config::symmetry_classes;
/// use gather_config::Configuration;
/// use gather_geom::{Point, Tol};
///
/// let square = Configuration::new(vec![
///     Point::new(1.0, 0.0), Point::new(0.0, 1.0),
///     Point::new(-1.0, 0.0), Point::new(0.0, -1.0),
/// ]);
/// let classes = symmetry_classes(&square, Tol::default());
/// assert_eq!(classes.len(), 1);          // all corners equivalent
/// assert_eq!(classes[0].1.len(), 4);
/// ```
pub fn symmetry_classes(config: &Configuration, tol: Tol) -> Vec<(View, Vec<Point>)> {
    let mut classes: BTreeMap<View, Vec<Point>> = BTreeMap::new();
    for p in config.distinct_points() {
        classes.entry(view_of(config, p, tol)).or_default().push(p);
    }
    classes.into_iter().collect()
}

/// The rotational symmetry `sym(C)`: the size of the largest class of
/// positions with equal views (Definition 3).
///
/// Returns `0` for an empty configuration; a gathered configuration has
/// symmetry `1`.
///
/// # Example
///
/// ```
/// use gather_config::{rotational_symmetry, Configuration};
/// use gather_geom::{Point, Tol};
///
/// let line = Configuration::new(vec![
///     Point::new(-1.0, 0.0), Point::new(0.0, 0.0), Point::new(1.0, 0.0),
/// ]);
/// // The two endpoints are equivalent; the middle point is alone.
/// assert_eq!(rotational_symmetry(&line, Tol::default()), 2);
/// ```
pub fn rotational_symmetry(config: &Configuration, tol: Tol) -> usize {
    symmetry_classes(config, tol)
        .iter()
        .map(|(_, pts)| pts.len())
        .max()
        .unwrap_or(0)
}

/// Is the configuration asymmetric (`sym(C) = 1`)?
pub fn is_asymmetric(config: &Configuration, tol: Tol) -> bool {
    rotational_symmetry(config, tol) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn t() -> Tol {
        Tol::default()
    }

    fn regular_ngon(n: usize, r: f64, phase: f64) -> Configuration {
        (0..n)
            .map(|k| {
                let th = TAU * k as f64 / n as f64 + phase;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect()
    }

    #[test]
    fn regular_polygons_have_full_symmetry() {
        for n in [3usize, 4, 5, 6, 8] {
            let c = regular_ngon(n, 3.0, 0.21);
            assert_eq!(rotational_symmetry(&c, t()), n, "n-gon with n={n}");
        }
    }

    #[test]
    fn scalene_triangle_is_asymmetric() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        assert!(is_asymmetric(&c, t()));
        assert_eq!(symmetry_classes(&c, t()).len(), 3);
    }

    #[test]
    fn two_nested_squares_have_symmetry_four() {
        let mut pts = regular_ngon(4, 3.0, 0.0).points().to_vec();
        pts.extend_from_slice(regular_ngon(4, 1.0, 0.4).points());
        let c = Configuration::new(pts);
        assert_eq!(rotational_symmetry(&c, t()), 4);
        assert_eq!(symmetry_classes(&c, t()).len(), 2);
    }

    #[test]
    fn multiplicity_breaks_symmetry() {
        // A square with one doubled corner: that corner's view differs.
        let mut pts = regular_ngon(4, 2.0, 0.0).points().to_vec();
        pts.push(pts[0]);
        let c = Configuration::new(pts);
        let sym = rotational_symmetry(&c, t());
        assert!(sym < 4, "sym={sym}");
    }

    #[test]
    fn center_point_does_not_hide_ring_symmetry() {
        let mut pts = regular_ngon(5, 2.0, 0.0).points().to_vec();
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        assert_eq!(rotational_symmetry(&c, t()), 5);
    }

    #[test]
    fn line_endpoints_are_equivalent() {
        let c = Configuration::new(vec![
            Point::new(-2.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let classes = symmetry_classes(&c, t());
        assert_eq!(classes.len(), 2);
        let sizes: Vec<usize> = classes.iter().map(|(_, p)| p.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn asymmetric_line_is_asymmetric() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        ]);
        assert!(is_asymmetric(&c, t()));
    }

    #[test]
    fn empty_and_gathered() {
        assert_eq!(rotational_symmetry(&Configuration::default(), t()), 0);
        let g = Configuration::new(vec![Point::new(1.0, 1.0); 6]);
        assert_eq!(rotational_symmetry(&g, t()), 1);
    }

    #[test]
    fn bivalent_configuration_has_symmetry_two() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 0.0),
        ]);
        assert_eq!(rotational_symmetry(&c, t()), 2);
    }
}
