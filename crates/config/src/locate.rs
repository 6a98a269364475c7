//! Locate, then verify: the state the class-`A` tail of the classification
//! builds once and shares between its three searches.
//!
//! The occupied-centre quasi-regularity scan needs the Weber first-order
//! condition, and the safe-point election ranks positions by the Weber
//! objective `f(x) = Σ|x − q|`. Evaluated at every distinct position, each
//! costs O(n) per position. A [`WeberBound`] — the exact `f` and a
//! subgradient at a few probes near the Weber point, combined by convexity
//! into a lower bound valid everywhere — proves most positions out of both
//! searches at O(1) each, and only the positions it cannot exclude are
//! evaluated exactly (DESIGN.md §13 item 8). The bound only decides which
//! positions are evaluated; every result is the one the full scans give.

use crate::configuration::Configuration;
use gather_geom::{weber::PROBE_RING, Circle, Point, Tol, WeberBound};

/// The class-`A` tail's shared state for one configuration.
pub(crate) struct Tail<'a> {
    pub(crate) config: &'a Configuration,
    /// The distinct-location multiset, in
    /// [`Configuration::distinct_into`] order.
    pub(crate) distinct: &'a [(Point, usize)],
    pub(crate) tol: Tol,
    /// The warm-start iterate of the Weiszfeld solve (Lemma 3.2).
    pub(crate) hint: Option<Point>,
    /// The smallest enclosing circle, a candidate centre of regularity.
    pub(crate) sec: Circle,
    /// The lower bound on the Weber objective, probed around the Weber
    /// hint when there is a finite one and around the SEC centre otherwise,
    /// on a ring of [`PROBE_RING`] times the SEC radius.
    pub(crate) bound: WeberBound,
    /// [`Configuration::mult`] of every distinct location, in `distinct`
    /// order.
    pub(crate) mults: Vec<usize>,
}

impl<'a> Tail<'a> {
    /// Builds the shared state. `distinct` must be what
    /// [`Configuration::distinct_into`] produces for `config`, and must not
    /// be empty.
    pub(crate) fn new(
        config: &'a Configuration,
        distinct: &'a [(Point, usize)],
        tol: Tol,
        hint: Option<Point>,
    ) -> Self {
        let sec = config.sec();
        let centre = match hint {
            Some(h) if h.x.is_finite() && h.y.is_finite() => h,
            _ => sec.center,
        };
        Tail {
            config,
            distinct,
            tol,
            hint,
            sec,
            bound: WeberBound::new(config.soa(), centre, PROBE_RING * sec.radius),
            mults: multiplicities(distinct, tol.snap),
        }
    }
}

/// [`Configuration::mult`] of every distinct location — the number of
/// robots `q` with `q.within(p, snap)` — from one sweep over the
/// lexicographically sorted multiset instead of one O(n) scan per
/// location. The robots of one entry are `==`-equal, so they are all
/// within `snap` of `p` or none is, and the entry counts whole. From each
/// entry the sweep walks outwards both ways and stops at the first entry
/// with `dx·dx > snap²`: `within` compares `dx·dx + dy·dy` with `snap²`,
/// and subtraction, squaring and addition round monotonically, so every
/// entry beyond is at least as far in x and not within `snap` either. The
/// stop is exact, as in `canonicalize_sorted_into`; a comparison with a
/// NaN never stops the walk, which then tests every entry.
pub(crate) fn multiplicities(distinct: &[(Point, usize)], snap: f64) -> Vec<usize> {
    // The robots within `snap` of `p` among `entries`, walked until the
    // first one too far in x.
    let near = |p: Point, entries: &mut dyn Iterator<Item = &(Point, usize)>| {
        let mut m = 0;
        for &(q, k) in entries {
            let dx = p.x - q.x;
            if dx * dx > snap * snap {
                break;
            }
            if q.within(p, snap) {
                m += k;
            }
        }
        m
    };
    (0..distinct.len())
        .map(|i| {
            let (p, own) = distinct[i];
            let own = if p.within(p, snap) { own } else { 0 };
            own + near(p, &mut distinct[..i].iter().rev()) + near(p, &mut distinct[i + 1..].iter())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_prng::Rng;

    #[test]
    fn sweep_multiplicities_are_the_per_point_scan() {
        let snap = Tol::default().snap;
        let mut rng = Rng::seed_from_u64(0x3417);
        for trial in 0..300 {
            let k = rng.random_range(1usize..30);
            let mut pts: Vec<Point> = (0..k)
                .map(|_| Point::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)))
                .collect();
            for _ in 0..rng.random_range(0usize..40) {
                let p = pts[rng.random_range(0..pts.len())];
                // Bitwise copies, neighbours inside and just outside the
                // snap radius, and neighbours sharing x.
                let q = match rng.random_range(0u32..4) {
                    0 => p,
                    1 => Point::new(p.x + rng.random_range(-1.0..1.0) * snap, p.y),
                    2 => Point::new(p.x, p.y + rng.random_range(-1.5..1.5) * snap),
                    _ => Point::new(
                        p.x + rng.random_range(-0.8..0.8) * snap,
                        p.y + rng.random_range(-0.8..0.8) * snap,
                    ),
                };
                pts.push(q);
            }
            if trial % 10 == 0 {
                pts.push(Point::new(f64::NAN, 1.0));
                pts.push(Point::new(f64::INFINITY, 0.0));
                pts.push(Point::new(-0.0, 0.0));
                pts.push(Point::new(0.0, 0.0));
            }
            let c = Configuration::new(pts);
            let distinct = c.distinct();
            let got = multiplicities(&distinct, snap);
            let want: Vec<usize> = distinct
                .iter()
                .map(|&(p, _)| c.mult(p, Tol::default()))
                .collect();
            assert_eq!(got, want, "trial {trial}: {c}");
        }
    }
}
