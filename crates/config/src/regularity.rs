//! Regular configurations (Definition 5 of the paper).
//!
//! A configuration is *regular* when the string of angles around some point
//! `c` — the *centre of regularity* — is periodic with period `m > 1`.
//! Regularity generalises rotational symmetry (every symmetric configuration
//! is regular with `m = sym(C)`) and is preserved when robots move radially
//! toward the centre, which is what makes it useful for gathering:
//! biangular and partially-converged symmetric configurations stay regular.

use crate::angles::string_of_angles;
use crate::configuration::Configuration;
use gather_geom::{Point, Tol};

/// Evidence that a configuration is regular: the centre and the period.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
struct RegularityWitness {
    /// The centre of regularity `CR(C)`.
    pub center: Point,
    /// The regularity `reg(C) = per(SA(center)) > 1`.
    pub m: usize,
}

/// The periodicity of the string of angles of `config` around `center`
/// (`per(SA(center))`); `1` means "not regular around this point".
///
/// # Example
///
/// ```
/// use gather_config::{regularity_around, Configuration};
/// use gather_geom::{Point, Tol};
///
/// let square = Configuration::new(vec![
///     Point::new(1.0, 0.0), Point::new(0.0, 1.0),
///     Point::new(-1.0, 0.0), Point::new(0.0, -1.0),
/// ]);
/// assert_eq!(regularity_around(&square, Point::ORIGIN, Tol::default()), 4);
/// assert_eq!(
///     regularity_around(&square, Point::new(0.3, 0.0), Tol::default()),
///     1,
/// );
/// ```
pub fn regularity_around(config: &Configuration, center: Point, tol: Tol) -> usize {
    string_of_angles(config, center, tol).periodicity()
}

/// The candidate centres [`detect_regularity`] tries, in this order: every
/// distinct position, the centre of the smallest enclosing circle, and the
/// numerically computed (cold-started) Weber point.
///
/// The centre of regularity of a non-linear configuration is its Weber
/// point (Lemma 3.3 via quasi-regularity), and the three families target
/// that point where it is a robot position, where the configuration is
/// symmetric (its Weber point is the SEC centre), and where it is regular
/// but not symmetric, as biangular configurations are (their centre
/// satisfies the Weber first-order condition `Σ unit-vectors = 0`).
/// Quasi-regularity detection does not use this list: it tests occupied
/// positions with Lemma 3.4 and tries only the SEC centre and the Weber
/// point as unoccupied centres.
#[cfg(test)]
fn candidate_centers(config: &Configuration, tol: Tol) -> Vec<Point> {
    let mut candidates = config.distinct_points();
    candidates.push(config.sec().center);
    candidates.push(gather_geom::weber_point_weiszfeld(config.points(), tol).point);
    candidates
}

/// Searches for a centre of regularity among the candidate centres
/// (every occupied position, the SEC centre, and the numeric Weber point).
/// Returns the witness with the largest period, or `None` when no
/// candidate yields `per(SA) > 1`.
///
/// The search is complete for the configurations arising in the gathering
/// algorithm: the centre of regularity of a non-linear configuration is
/// its Weber point (Lemma 3.3), and all three candidate families target
/// exactly that point; DESIGN.md §2 documents this substitution for the
/// paper's abstract "there exists a point `c`". Only the tests call it:
/// the classification reaches regularity through quasi-regularity
/// detection.
#[cfg(test)]
fn detect_regularity(config: &Configuration, tol: Tol) -> Option<RegularityWitness> {
    let mut best: Option<RegularityWitness> = None;
    for c in candidate_centers(config, tol) {
        let m = regularity_around(config, c, tol);
        if m > 1 && best.is_none_or(|b| m > b.m) {
            best = Some(RegularityWitness { center: c, m });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

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
    fn symmetric_configurations_are_regular() {
        for n in [3usize, 4, 6] {
            let c = Configuration::new(ngon(n, 2.0, 0.5));
            let w = detect_regularity(&c, t()).expect("regular");
            assert_eq!(w.m, n);
            assert!(w.center.dist(Point::ORIGIN) < 1e-6);
        }
    }

    #[test]
    fn radially_perturbed_ngon_stays_regular() {
        // Shrink alternate radii: directions unchanged, still m-periodic.
        let pts: Vec<Point> = ngon(6, 2.0, 0.0)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 2 == 0 {
                    Point::new(p.x * 0.4, p.y * 0.4)
                } else {
                    p
                }
            })
            .collect();
        let c = Configuration::new(pts);
        // Note: this configuration is still 3-fold symmetric; the string of
        // angles around the origin is 6-periodic because directions are.
        assert_eq!(regularity_around(&c, Point::ORIGIN, t()), 6);
        let w = detect_regularity(&c, t()).expect("regular");
        assert!(w.m >= 3);
    }

    #[test]
    fn biangular_is_regular_with_half_period() {
        let k = 4usize;
        let alpha = 0.3;
        let beta = TAU / k as f64 - alpha;
        let mut pts = Vec::new();
        let mut theta: f64 = 0.0;
        for i in 0..(2 * k) {
            let r = if i % 2 == 0 { 1.0 } else { 3.0 };
            pts.push(Point::new(r * theta.cos(), r * theta.sin()));
            theta += if i % 2 == 0 { alpha } else { beta };
        }
        let c = Configuration::new(pts);
        assert_eq!(regularity_around(&c, Point::ORIGIN, t()), k);
        let w = detect_regularity(&c, t()).expect("biangular is regular");
        assert_eq!(w.m, k);
        assert!(w.center.dist(Point::ORIGIN) < 1e-5, "center {}", w.center);
    }

    #[test]
    fn asymmetric_configuration_is_not_regular() {
        // Weber point at the occupied origin (pull of others ≈ 0.65 < 1)
        // with non-periodic directions 0°, 100°, 200°: no candidate centre
        // is regular. (Generic configurations with an *unoccupied* Weber
        // point are regular around it for n = 3, 4 — see the quasi module.)
        let deg = |d: f64| d.to_radians();
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(2.0 * deg(100.0).cos(), 2.0 * deg(100.0).sin()),
            Point::new(2.5 * deg(200.0).cos(), 2.5 * deg(200.0).sin()),
        ]);
        assert!(detect_regularity(&c, t()).is_none());
    }

    #[test]
    fn every_triangle_is_regular_around_its_fermat_point() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        let w = detect_regularity(&c, t()).expect("Fermat point regularity");
        assert_eq!(w.m, 3);
    }

    #[test]
    fn occupied_center_is_found() {
        let mut pts = ngon(5, 2.0, 0.0);
        pts.push(Point::ORIGIN);
        let c = Configuration::new(pts);
        let w = detect_regularity(&c, t()).expect("regular around occupied centre");
        assert_eq!(w.m, 5);
        assert!(w.center.dist(Point::ORIGIN) < 1e-6);
    }

    #[test]
    fn regularity_larger_than_symmetry_is_possible() {
        // Square with two opposite points pulled inward by different
        // factors: only 2-fold symmetric (congruence) at best, but the
        // angle string around the centre is still 4-periodic.
        let pts = vec![
            Point::new(2.0, 0.0),
            Point::new(0.0, 0.7),
            Point::new(-1.2, 0.0),
            Point::new(0.0, -2.0),
        ];
        let c = Configuration::new(pts);
        assert_eq!(regularity_around(&c, Point::ORIGIN, t()), 4);
    }
}
