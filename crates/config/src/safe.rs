//! Safe points (Definition 8 of the paper).
//!
//! A robot position `p` is *safe* when every half-line starting at `p`
//! contains at most `⌈n/2⌉ − 1` robots. Moving all robots straight toward a
//! safe point can never produce the forbidden bivalent configuration `B`
//! (two points each holding `n/2` robots): any such split would need one
//! ray from `p` to carry `n/2 ≥ ⌈n/2⌉` robots.
//!
//! * Lemma 4.2 — every non-linear configuration contains a safe point;
//! * Lemma 4.3 — bivalent (`B`) and `L2W` configurations have none.
//!
//! The asymmetric branch (class `A`) of WAIT-FREE-GATHER elects its
//! gathering point among the safe points of the configuration.

use crate::angles::direction_buckets;
use crate::configuration::{total_key, Configuration};
use crate::locate::Tail;
use crate::view::view_of;
use gather_geom::{Point, Tol};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Is `p` a safe point of `config` (Definition 8)?
///
/// `p` is safe iff no half-line starting at `p` (excluding `p` itself)
/// carries `⌈n/2⌉` or more robots, counted with multiplicity.
///
/// # Example
///
/// ```
/// use gather_config::{is_safe_point, Configuration};
/// use gather_geom::{Point, Tol};
///
/// let c = Configuration::new(vec![
///     Point::new(0.0, 0.0), Point::new(2.0, 0.0),
///     Point::new(4.0, 0.0), Point::new(6.0, 0.0),
/// ]);
/// let tol = Tol::default();
/// // From an endpoint, one ray carries all 3 other robots >= ceil(4/2)=2.
/// assert!(!is_safe_point(&c, Point::new(0.0, 0.0), tol));
/// // From an interior point, each ray carries at most 2 robots… which is
/// // still >= 2, so no point of this L2W line is safe (Lemma 4.3).
/// assert!(!is_safe_point(&c, Point::new(2.0, 0.0), tol));
/// ```
pub fn is_safe_point(config: &Configuration, p: Point, tol: Tol) -> bool {
    let n = config.len();
    let threshold = n.div_ceil(2); // ⌈n/2⌉; a ray with this many is unsafe
    let buckets = direction_buckets(config, p, tol);
    buckets.iter().all(|(_, count)| *count < threshold)
}

/// The safe points among the occupied positions `U(C)` of the
/// configuration, in deterministic (lexicographic) order.
///
/// # Example
///
/// ```
/// use gather_config::{safe_points, Configuration};
/// use gather_geom::{Point, Tol};
///
/// // Non-linear configurations always have a safe point (Lemma 4.2).
/// let c = Configuration::new(vec![
///     Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(1.0, 2.5),
/// ]);
/// assert!(!safe_points(&c, Tol::default()).is_empty());
/// ```
pub fn safe_points(config: &Configuration, tol: Tol) -> Vec<Point> {
    config
        .distinct_points()
        .into_iter()
        .filter(|p| is_safe_point(config, *p, tol))
        .collect()
}

/// The elected gathering point of the configuration (line 17 of the
/// paper's Figure 2): the best safe point by `(multiplicity ↑,
/// Σ distances ↓, view ↑)`, or `None` when the configuration has no safe
/// point (impossible for class `A` — non-linear configurations always
/// have one by Lemma 4.2).
///
/// The election is a pure function of the configuration — every robot
/// computes the same point — and each criterion is invariant under the
/// orientation-preserving similarities relating robot frames
/// (multiplicities and views verbatim; distance sums scale by a common
/// positive ratio, preserving the order), so the result is equivariant:
/// electing in a transformed frame yields the transformed point. This is
/// what lets the shared round analysis carry it as the class-`A` target.
///
/// The order is lexicographic, so the winner lies in the best
/// `(multiplicity, Σ distances)` group that holds a safe point at all, and
/// the safety test (one direction-bucket sort per point) runs group by
/// group, best first, until a group answers. Within a group the view
/// tie-break returns the last maximum in `distinct_points` order, as
/// `Iterator::max_by` over all safe points does. The groups come from
/// the class-`A` tail's shared pass (see `elect_in`), which evaluates the
/// distance sum only where a lower bound on it cannot rule a group out.
pub fn elected_point(config: &Configuration, tol: Tol) -> Option<Point> {
    let distinct = config.distinct();
    if distinct.is_empty() {
        return None;
    }
    elect_in(&Tail::new(config, &distinct, tol, None))
}

/// [`elected_point`] on the class-`A` tail's shared state.
///
/// Multiplicities come from the tail's sweep. Within a multiplicity level,
/// best first, the positions are visited in the order of the shared
/// bound's certified lower bound on their distance sum, and the exact sum
/// ([`Configuration::sum_of_distances`]) is evaluated lazily. The smallest
/// evaluated sum `s` not yet emitted is final once the next position's
/// bound exceeds it: that position's sum, and every later one's, is then
/// larger than `s`. Its group — every evaluated position with a sum
/// bitwise equal to `s` — leaves the heap in `distinct` order, the order
/// the stable ranking sort of the full scan kept.
pub(crate) fn elect_in(tail: &Tail<'_>) -> Option<Point> {
    let Tail {
        config,
        distinct,
        tol,
        ..
    } = *tail;
    // Best first: larger multiplicity, then smaller bound.
    let mut order: Vec<(usize, f64, usize)> = (0..distinct.len())
        .map(|i| (tail.mults[i], tail.bound.lower(distinct[i].0), i))
        .collect();
    order.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.total_cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    // Evaluated sums not yet emitted: (`total_cmp` key, position, bits).
    let mut pending = BinaryHeap::new();
    for level in order.chunk_by(|a, b| a.0 == b.0) {
        pending.clear();
        let mut next = 0;
        loop {
            let settled = next == level.len()
                || pending.peek().is_some_and(
                    |&Reverse((_, _, bits)): &Reverse<(i64, usize, u64)>| {
                        level[next].1 > f64::from_bits(bits)
                    },
                );
            if !settled {
                let (_, _, i) = level[next];
                let sum = config.sum_of_distances(distinct[i].0);
                pending.push(Reverse((total_key(sum), i, sum.to_bits())));
                next += 1;
                continue;
            }
            let Some(Reverse((key, first, _))) = pending.pop() else {
                break; // level exhausted
            };
            let mut group = vec![first];
            while let Some(&Reverse((k, i, _))) = pending.peek() {
                if k != key {
                    break;
                }
                group.push(i);
                pending.pop();
            }
            let winner = group
                .into_iter()
                .map(|i| distinct[i].0)
                .filter(|p| is_safe_point(config, *p, tol))
                .max_by(|p, q| view_of(config, *p, tol).cmp(&view_of(config, *q, tol)));
            if winner.is_some() {
                return winner;
            }
        }
    }
    None
}

/// The election by its definition: the `max_by` of the comparator over
/// every safe point. The differential tests hold [`elected_point`] to it.
#[cfg(test)]
pub(crate) fn elected_point_oracle(config: &Configuration, tol: Tol) -> Option<Point> {
    safe_points(config, tol).into_iter().max_by(|p, q| {
        config
            .mult(*p, tol)
            .cmp(&config.mult(*q, tol))
            // smaller sum of distances is better → reversed comparison
            .then_with(|| {
                config
                    .sum_of_distances(*q)
                    .total_cmp(&config.sum_of_distances(*p))
            })
            .then_with(|| view_of(config, *p, tol).cmp(&view_of(config, *q, tol)))
    })
}

/// The election the locate-then-verify pass replaced, kept whole: `mult`
/// and the distance sum at every distinct position, a stable ranking sort,
/// then the safety test group by group. It is held to
/// [`elected_point_oracle`] above and runs one safety test instead of
/// `|U(C)|`, so the differential tests use it where the definition would
/// be too slow (large scatters).
#[cfg(test)]
pub(crate) fn elected_point_ranked_oracle(config: &Configuration, tol: Tol) -> Option<Point> {
    let mut ranked: Vec<(usize, f64, Point)> = config
        .distinct_points()
        .into_iter()
        .map(|p| (config.mult(p, tol), config.sum_of_distances(p), p))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.total_cmp(&b.1)));
    ranked
        .chunk_by(|a, b| a.0 == b.0 && a.1.total_cmp(&b.1).is_eq())
        .find_map(|group| {
            group
                .iter()
                .map(|&(_, _, p)| p)
                .filter(|p| is_safe_point(config, *p, tol))
                .max_by(|p, q| view_of(config, *p, tol).cmp(&view_of(config, *q, tol)))
        })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gather_prng::Rng;
    use std::f64::consts::TAU;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn triangle_corners_are_safe() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.5),
        ]);
        // n = 3, threshold ⌈3/2⌉ = 2: every ray from a corner carries 1.
        assert_eq!(safe_points(&c, t()).len(), 3);
    }

    #[test]
    fn non_linear_configurations_have_safe_points() {
        // Lemma 4.2 on a gallery of non-linear configurations.
        let gallery: Vec<Configuration> = vec![
            Configuration::new(
                (0..7)
                    .map(|k| {
                        let th = TAU * k as f64 / 7.0;
                        Point::new(th.cos(), th.sin())
                    })
                    .collect(),
            ),
            Configuration::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(0.0, 3.0),
                Point::new(3.0, 3.0),
            ]),
            Configuration::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(1.0, 1.0),
            ]),
        ];
        for c in &gallery {
            assert!(!safe_points(c, t()).is_empty(), "no safe point in {c}");
        }
    }

    #[test]
    fn bivalent_has_no_safe_point() {
        // Lemma 4.3, B case: 2+2 robots on two points.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 0.0),
        ]);
        assert!(safe_points(&c, t()).is_empty());
        // …and even unoccupied points are unsafe.
        assert!(!is_safe_point(&c, Point::new(2.0, 0.0), t()));
        assert!(!is_safe_point(&c, Point::new(2.0, 3.0), t()));
    }

    #[test]
    fn l2w_line_has_no_safe_point() {
        // Lemma 4.3, L2W case: 4 distinct collinear points, median not
        // unique.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(7.0, 0.0),
        ]);
        assert!(safe_points(&c, t()).is_empty());
    }

    #[test]
    fn l1w_median_with_multiplicity_is_safe() {
        // 5 collinear robots with a heavy middle: rays from the median
        // carry 2 < ⌈5/2⌉ = 3 robots each.
        let c = Configuration::new(vec![
            Point::new(-2.0, 0.0),
            Point::new(-1.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let safe = safe_points(&c, t());
        assert_eq!(safe, vec![Point::new(0.0, 0.0)]);
    }

    #[test]
    fn multiplicity_counts_toward_threshold() {
        // n = 6; ray from p to a stack of 3 robots: 3 >= ⌈6/2⌉ = 3 unsafe.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(-2.0, -1.0),
        ]);
        assert!(!is_safe_point(&c, Point::new(0.0, 0.0), t()));
        // The stack itself is safe: rays from it carry at most 2.
        assert!(is_safe_point(&c, Point::new(2.0, 0.0), t()));
    }

    #[test]
    fn aligned_robots_on_one_ray_accumulate() {
        // From p, robots at distance 1, 2, 3 on the same ray share a
        // half-line: 3 >= ⌈5/2⌉ = 3, unsafe.
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(3.0, 3.0),
            Point::new(-1.0, 0.0),
        ]);
        assert!(!is_safe_point(&c, Point::new(0.0, 0.0), t()));
    }

    #[test]
    fn odd_bivalent_like_split_is_safe_on_heavy_side() {
        // 3 + 2 split over two points (n = 5, not bivalent): the heavy
        // point sees 2 < 3 on its one ray → safe; the light point sees
        // 3 >= 3 → unsafe.
        let heavy = Point::new(0.0, 0.0);
        let light = Point::new(5.0, 0.0);
        let c = Configuration::new(vec![heavy, heavy, heavy, light, light]);
        assert!(is_safe_point(&c, heavy, t()));
        assert!(!is_safe_point(&c, light, t()));
        assert_eq!(safe_points(&c, t()), vec![heavy]);
    }

    fn assert_same_election(c: &Configuration) {
        let want = elected_point_oracle(c, t());
        assert_eq!(
            elected_point(c, t()),
            want,
            "election differs from the max_by oracle on {c}"
        );
        assert_eq!(
            elected_point_ranked_oracle(c, t()),
            want,
            "the ranked oracle differs from the max_by oracle on {c}"
        );
    }

    #[test]
    fn election_matches_the_oracle_on_scatters() {
        for n in (3..=40).chain([48, 64, 100, 128, 200, 256]) {
            let seeds = if n <= 64 { 3 } else { 1 };
            for seed in 0..seeds {
                let pts = gather_workloads::random_scatter(n, 10.0, 7919 * seed + n as u64);
                assert_same_election(&Configuration::canonical(pts, t()));
            }
        }
    }

    #[test]
    fn election_matches_the_oracle_on_stacked_multiplicities() {
        let mut rng = Rng::seed_from_u64(0x57AC);
        for trial in 0..300 {
            let k = rng.random_range(2usize..24);
            let mut pts = gather_workloads::random_scatter(k, 10.0, trial);
            // Stack extra robots on random positions: multiplicities tie
            // and differ, and stacks change which rays are safe.
            for _ in 0..rng.random_range(1usize..2 * k) {
                let i = rng.random_range(0..k);
                pts.push(pts[i]);
            }
            assert_same_election(&Configuration::new(pts));
        }
    }

    /// Robots at `(0, ±h)` and on the x axis at `±x` (and 0), possibly
    /// stacked, possibly turned by a quarter, where every `x² + h²` is a
    /// square: for `h = 12`, x in 5, 9, 16, 35; for `h = 120`, the 22
    /// values `3600/a − a` over the divisors `a < 60` of 3600, enough
    /// positions for the ranking sort to leave its small-input path. Every
    /// pairwise distance is an integer, so distance sums are exact.
    /// Mirrored positions then tie on multiplicity and sum bit for bit, and
    /// the view decides — or, when the mirror is also a rotation, nothing
    /// does and the last maximum wins.
    pub(crate) fn integer_distance_ties(rng: &mut Rng) -> Vec<Point> {
        let (h, xs): (f64, Vec<f64>) = if rng.random_bool(0.5) {
            (12.0, vec![5.0, 9.0, 16.0, 35.0])
        } else {
            let xs = (1..60u32)
                .filter(|a| 3600 % a == 0)
                .map(|a| f64::from(3600 / a - a));
            (120.0, xs.collect())
        };
        // Mirrored across the y axis half of the time, so that mirrored
        // pairs tie; one-sided positions break the mirror otherwise.
        let mirrored = rng.random_bool(0.5);
        let mut pts = Vec::new();
        let mut put = |p: Point, copies: usize| pts.extend(std::iter::repeat_n(p, copies));
        for x in xs {
            let copies = rng.random_range(1usize..3);
            match (mirrored, rng.random_range(0u32..3)) {
                (false, 0) => put(Point::new(x, 0.0), copies),
                (false, 1) => put(Point::new(-x, 0.0), copies),
                _ => {
                    put(Point::new(x, 0.0), copies);
                    put(Point::new(-x, 0.0), copies);
                }
            }
        }
        put(Point::ORIGIN, rng.random_range(0usize..2));
        let above = rng.random_range(0usize..3);
        put(Point::new(0.0, h), above);
        let below = if rng.random_bool(0.5) {
            above
        } else {
            rng.random_range(0usize..3)
        };
        put(Point::new(0.0, -h), below);
        if rng.random_bool(0.5) {
            for p in &mut pts {
                *p = Point::new(-p.y, p.x);
            }
        }
        pts
    }

    #[test]
    fn election_matches_the_oracle_when_views_break_ties() {
        let mut rng = Rng::seed_from_u64(0x71E5);
        let mut decided_by_view = 0;
        for _ in 0..1000 {
            let pts = integer_distance_ties(&mut rng);
            if pts.len() < 3 {
                continue;
            }
            let c = Configuration::new(pts);
            assert_same_election(&c);
            if let Some(e) = elected_point_oracle(&c, t()) {
                let key = |p: Point| (c.mult(p, t()), c.sum_of_distances(p).to_bits());
                let rivals = safe_points(&c, t())
                    .into_iter()
                    .filter(|p| *p != e && key(*p) == key(e))
                    .count();
                decided_by_view += usize::from(rivals > 0);
            }
        }
        assert!(
            decided_by_view >= 60,
            "only {decided_by_view} elections reached the view tie-break"
        );
        // A 3-4-5 rectangle: the four corners tie on multiplicity and
        // sum, the view splits them into two opposite pairs, and the last
        // corner of the winning pair wins.
        let rect = [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (3.0, 4.0)].map(|(x, y)| Point::new(x, y));
        assert_same_election(&Configuration::new(rect.to_vec()));
    }

    #[test]
    fn election_matches_the_oracle_on_the_classification_gallery() {
        // The T6 inputs: every class generator, and random scatters of
        // the sizes whose class distribution T6 tabulates.
        for n in [4usize, 6, 9, 12] {
            for (_, _, pts) in gather_workloads::class_sweep(n, 5) {
                assert_same_election(&Configuration::canonical(pts, t()));
            }
        }
        for n in [3usize, 4, 5, 6, 8, 12] {
            for seed in 0..50u64 {
                let pts = gather_workloads::random_scatter(
                    n,
                    8.0,
                    seed.wrapping_mul(31).wrapping_add(n as u64),
                );
                assert_same_election(&Configuration::canonical(pts, t()));
            }
        }
    }
}
