//! The WAIT-FREE-GATHER dispatcher (Figure 2 of the paper).

use crate::rules;
use gather_config::{classify, Analysis, Class, Configuration};
use gather_geom::{Point, Tol};
use gather_sim::algorithm::per_location_destinations;
use gather_sim::prelude::{Algorithm, Snapshot};

/// The paper's algorithm: crash-tolerant deterministic gathering in the
/// ATOM model with strong multiplicity detection and chirality.
///
/// On each activation the robot classifies the observed configuration and
/// applies the matching rule — see the [crate documentation](crate) for the
/// per-class behaviour and [`rules`] for the implementations. The algorithm
/// is oblivious (no state), anonymous (no identities), and equivariant
/// under the orientation-preserving similarities that relate robot frames.
///
/// # Example
///
/// ```
/// use gathering::WaitFreeGather;
/// use gather_sim::prelude::*;
/// use gather_geom::Point;
///
/// let mut engine = Engine::builder(vec![
///         Point::new(0.0, 0.0), Point::new(6.0, 0.0), Point::new(2.0, 5.0),
///     ])
///     .algorithm(WaitFreeGather::default())
///     .build();
/// assert!(engine.run(10_000).gathered());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WaitFreeGather {
    tol: Tol,
    sidestep_fraction: f64,
}

impl Default for WaitFreeGather {
    fn default() -> Self {
        WaitFreeGather {
            tol: Tol::default(),
            sidestep_fraction: 1.0 / 3.0,
        }
    }
}

impl WaitFreeGather {
    /// The algorithm with an explicit tolerance policy.
    pub fn new(tol: Tol) -> Self {
        WaitFreeGather {
            tol,
            ..Default::default()
        }
    }

    /// Overrides the class-`M` side-step fraction of the angular gap
    /// (paper: `1/3`). Exposed for the A1 ablation; fractions near `1`
    /// court the collision hazard the paper's constant rules out.
    pub fn with_sidestep_fraction(mut self, fraction: f64) -> Self {
        self.sidestep_fraction = fraction;
        self
    }

    /// The tolerance policy in use.
    pub fn tol(&self) -> Tol {
        self.tol
    }
}

impl Algorithm for WaitFreeGather {
    fn name(&self) -> &'static str {
        "wait-free-gather"
    }

    fn destination(&self, snap: &Snapshot) -> Point {
        let config = snap.config();
        let me = snap.me();
        let tol = self.tol;
        // Prefer the snapshot's precomputed analysis (the engine's shared
        // per-round classification, target already in this frame); classify
        // from scratch for hand-built snapshots. Identical by construction:
        // the analysis is a pure function of the observed configuration.
        let analysis = match snap.analysis() {
            Some(a) => *a,
            None => classify(config, tol),
        };
        match analysis.class {
            Class::Multiple => {
                let target = analysis.target.expect("class M has a target");
                rules::multiple::destination_with_fraction(
                    config,
                    me,
                    target,
                    tol,
                    self.sidestep_fraction,
                )
            }
            Class::QuasiRegular | Class::Collinear1W => {
                let target = analysis.target.expect("QR/L1W have a Weber target");
                rules::weberward::destination(target)
            }
            // The elected safe point is part of the analysis (classify runs
            // the Figure-2 line-17 election), so the shared pipeline pays
            // for it once per round; the per-robot rule is the fallback for
            // analyses predating the election (none today) and keeps the
            // explicit no-safe-point panic.
            Class::Asymmetric => match analysis.target {
                Some(t) => t,
                None => rules::asymmetric::destination(config, me, tol),
            },
            Class::Collinear2W => rules::collinear2w::destination(config, me, tol),
            Class::Bivalent => rules::bivalent::destination(config, me, tol),
        }
    }

    /// Class `M` serves every location from one sorted index of the
    /// occupied rays around the heavy point
    /// ([`rules::multiple::destinations_with_fraction`]), bitwise equal to
    /// the per-robot rule; every other class loops over
    /// [`Algorithm::destination`].
    fn destinations(
        &self,
        config: &Configuration,
        analysis: &Analysis,
        locations: &[(Point, usize)],
        out: &mut Vec<Point>,
    ) {
        match (analysis.class, analysis.target) {
            (Class::Multiple, Some(target)) => rules::multiple::destinations_with_fraction(
                locations,
                target,
                self.tol,
                self.sidestep_fraction,
                out,
            ),
            _ => per_location_destinations(self, config, analysis, locations, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_config::Configuration;
    use gather_geom::Similarity;
    use std::f64::consts::TAU;

    fn snap_at(points: Vec<Point>, me: Point) -> Snapshot<'static> {
        Snapshot::new(Configuration::new(points), me)
    }

    fn wfg() -> WaitFreeGather {
        WaitFreeGather::default()
    }

    #[test]
    fn class_m_moves_toward_heavy_point() {
        let c = Point::new(1.0, 1.0);
        let snap = snap_at(
            vec![c, c, Point::new(5.0, 1.0), Point::new(1.0, 6.0)],
            Point::new(5.0, 1.0),
        );
        assert_eq!(wfg().destination(&snap), c);
    }

    #[test]
    fn class_m_robot_at_target_stays() {
        let c = Point::new(1.0, 1.0);
        let snap = snap_at(vec![c, c, Point::new(5.0, 1.0)], c);
        assert_eq!(wfg().destination(&snap), c);
    }

    #[test]
    fn class_qr_moves_to_weber_point() {
        let pts: Vec<Point> = (0..4)
            .map(|k| {
                let th = TAU * k as f64 / 4.0;
                Point::new(3.0 * th.cos(), 3.0 * th.sin())
            })
            .collect();
        let me = pts[0];
        let snap = snap_at(pts, me);
        let d = wfg().destination(&snap);
        assert!(d.dist(Point::ORIGIN) < 1e-6, "destination {d}");
    }

    #[test]
    fn class_l1w_moves_to_median() {
        let snap = snap_at(
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(9.0, 0.0),
            ],
            Point::new(9.0, 0.0),
        );
        let d = wfg().destination(&snap);
        assert!(d.dist(Point::new(2.0, 0.0)) < 1e-9);
    }

    #[test]
    fn class_l2w_interior_robot_heads_to_center() {
        let snap = snap_at(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(8.0, 0.0),
            ],
            Point::new(1.0, 0.0),
        );
        assert_eq!(wfg().destination(&snap), Point::new(4.0, 0.0));
    }

    #[test]
    fn class_l2w_endpoint_leaves_line() {
        let snap = snap_at(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(8.0, 0.0),
            ],
            Point::new(0.0, 0.0),
        );
        let d = wfg().destination(&snap);
        assert!(d.y.abs() > 0.1, "endpoint stayed on the line: {d}");
    }

    #[test]
    fn class_a_all_robots_share_a_destination() {
        let deg = |x: f64| x.to_radians();
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(2.0 * deg(100.0).cos(), 2.0 * deg(100.0).sin()),
            Point::new(2.5 * deg(200.0).cos(), 2.5 * deg(200.0).sin()),
        ];
        let dests: Vec<Point> = pts
            .iter()
            .map(|p| wfg().destination(&snap_at(pts.clone(), *p)))
            .collect();
        for d in &dests[1..] {
            assert_eq!(dests[0], *d);
        }
    }

    #[test]
    fn bivalent_is_total() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(2.0, 0.0);
        let snap = snap_at(vec![p, p, q, q], p);
        assert_eq!(wfg().destination(&snap), Point::new(1.0, 0.0));
    }

    #[test]
    fn gathered_configuration_is_a_fixed_point() {
        let p = Point::new(3.0, -2.0);
        let snap = snap_at(vec![p; 5], p);
        assert_eq!(wfg().destination(&snap), p);
    }

    #[test]
    fn destination_is_equivariant_under_similarity() {
        // The honest model check: transform the snapshot, the destination
        // transforms along.
        let deg = |x: f64| x.to_radians();
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(2.0 * deg(100.0).cos(), 2.0 * deg(100.0).sin()),
            Point::new(2.5 * deg(200.0).cos(), 2.5 * deg(200.0).sin()),
            Point::new(1.0, 0.7),
        ];
        let sim = Similarity::new(0.83, 1.7, Point::new(-4.0, 2.0));
        for me in &pts {
            let d_orig = wfg().destination(&snap_at(pts.clone(), *me));
            let moved: Vec<Point> = pts.iter().map(|p| sim.apply(*p)).collect();
            let d_moved = wfg().destination(&snap_at(moved, sim.apply(*me)));
            assert!(
                sim.apply(d_orig).dist(d_moved) < 1e-5,
                "equivariance broken at {me}: {} vs {}",
                sim.apply(d_orig),
                d_moved
            );
        }
    }

    #[test]
    fn wait_freeness_at_most_one_staying_location() {
        // Lemma 5.1 spot-check across one configuration of each class.
        let deg = |x: f64| x.to_radians();
        let configs: Vec<Vec<Point>> = vec![
            // M
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(0.0, 4.0),
            ],
            // QR (square)
            (0..4)
                .map(|k| {
                    let th = TAU * k as f64 / 4.0;
                    Point::new(3.0 * th.cos(), 3.0 * th.sin())
                })
                .collect(),
            // L1W
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(9.0, 0.0),
            ],
            // L2W
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(8.0, 0.0),
            ],
            // A
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(2.0 * deg(100.0).cos(), 2.0 * deg(100.0).sin()),
                Point::new(2.5 * deg(200.0).cos(), 2.5 * deg(200.0).sin()),
            ],
        ];
        for pts in configs {
            let cfg = Configuration::new(pts.clone());
            let mut staying = 0;
            for p in cfg.distinct_points() {
                let d = wfg().destination(&snap_at(pts.clone(), p));
                if d.within(p, 1e-9) {
                    staying += 1;
                }
            }
            assert!(staying <= 1, "{staying} staying locations in {cfg}");
        }
    }
}
