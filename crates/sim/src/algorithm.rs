//! The robot algorithm interface (the COMPUTE phase).

use crate::snapshot::Snapshot;
use gather_config::{Analysis, Configuration};
use gather_geom::Point;

/// A deterministic, oblivious robot algorithm.
///
/// All robots run the *same* algorithm (they are anonymous), and the
/// computed destination may depend only on the current snapshot (they are
/// oblivious): the trait takes `&self` and implementations must not carry
/// interior mutability — the engine may invoke a fresh instance at any
/// activation and behaviour must be identical.
///
/// Returning the observer's own position ([`Snapshot::me`]) means "do not
/// move".
///
/// Because snapshots arrive in an arbitrary per-activation frame (rotation,
/// uniform scale, translation — never reflection), a correct algorithm must
/// be *equivariant*: transforming the snapshot by a similarity `T` must
/// transform the destination by `T` as well. The test suites verify this
/// property for every algorithm in the workspace.
///
/// # Example
///
/// ```
/// use gather_sim::prelude::{Algorithm, Snapshot};
/// use gather_geom::Point;
///
/// /// Always stay put.
/// struct Stay;
/// impl Algorithm for Stay {
///     fn name(&self) -> &'static str { "stay" }
///     fn destination(&self, snap: &Snapshot) -> Point { snap.me() }
/// }
/// ```
pub trait Algorithm {
    /// Short identifier used in traces and experiment tables.
    fn name(&self) -> &'static str;

    /// Computes the destination for the robot observing `snap`, in the
    /// snapshot's own coordinate frame.
    fn destination(&self, snap: &Snapshot) -> Point;

    /// The destination of a robot at each of `locations`, all observing
    /// `config` in its frame, into `out` (cleared first; one entry per
    /// location, in order). `analysis` is the analysis of `config`, and
    /// `locations` its distinct occupied locations `U(C)` with their
    /// multiplicities.
    ///
    /// Each entry must equal [`Algorithm::destination`] on the snapshot of
    /// a robot at that location, bit for bit: this is the batched form the
    /// engine's wait-freeness audit calls once per round. The default runs
    /// [`per_location_destinations`]; an algorithm overrides it where one
    /// shared computation serves every location.
    fn destinations(
        &self,
        config: &Configuration,
        analysis: &Analysis,
        locations: &[(Point, usize)],
        out: &mut Vec<Point>,
    ) {
        per_location_destinations(self, config, analysis, locations, out);
    }
}

/// [`Algorithm::destinations`] by one [`Algorithm::destination`] call per
/// location: the default, and the fallback of overrides for the cases
/// they do not batch.
pub fn per_location_destinations<A: Algorithm + ?Sized>(
    algorithm: &A,
    config: &Configuration,
    analysis: &Analysis,
    locations: &[(Point, usize)],
    out: &mut Vec<Point>,
) {
    out.clear();
    for &(p, _) in locations {
        let snap = Snapshot::with_analysis_borrowed(config, p, *analysis);
        out.push(algorithm.destination(&snap));
    }
}

impl<A: Algorithm + ?Sized> Algorithm for &A {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn destination(&self, snap: &Snapshot) -> Point {
        (**self).destination(snap)
    }
    fn destinations(
        &self,
        config: &Configuration,
        analysis: &Analysis,
        locations: &[(Point, usize)],
        out: &mut Vec<Point>,
    ) {
        (**self).destinations(config, analysis, locations, out)
    }
}

impl<A: Algorithm + ?Sized> Algorithm for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn destination(&self, snap: &Snapshot) -> Point {
        (**self).destination(snap)
    }
    fn destinations(
        &self,
        config: &Configuration,
        analysis: &Analysis,
        locations: &[(Point, usize)],
        out: &mut Vec<Point>,
    ) {
        (**self).destinations(config, analysis, locations, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stay;
    impl Algorithm for Stay {
        fn name(&self) -> &'static str {
            "stay"
        }
        fn destination(&self, snap: &Snapshot) -> Point {
            snap.me()
        }
    }

    #[test]
    fn trait_objects_and_references_delegate() {
        let snap = Snapshot::new(
            Configuration::new(vec![Point::new(1.0, 2.0)]),
            Point::new(1.0, 2.0),
        );
        let by_ref: &dyn Algorithm = &Stay;
        assert_eq!(by_ref.name(), "stay");
        assert_eq!(by_ref.destination(&snap), Point::new(1.0, 2.0));
        let boxed: Box<dyn Algorithm> = Box::new(Stay);
        assert_eq!(boxed.name(), "stay");
        assert_eq!(boxed.destination(&snap), Point::new(1.0, 2.0));
    }
}
