//! Robust-enough 2D computational geometry for mobile-robot gathering.
//!
//! This crate is the geometric substrate of the reproduction of *"Gathering
//! of Mobile Robots Tolerating Multiple Crash Faults"* (Bouzid, Das, Tixeuil;
//! ICDCS 2013). Everything the paper's definitions rely on lives here:
//!
//! * [`Point`] / [`Vec2`] — positions and displacements on the plane;
//! * [`Tol`] — the centralised tolerance policy used to emulate exact real
//!   arithmetic with `f64`;
//! * [`predicates`] — orientation / collinearity / betweenness tests with a
//!   floating-point error filter;
//! * [`exact`] — expansion-arithmetic exact orientation signs, resolving
//!   the filter's uncertain band;
//! * [`angle`] — clockwise angles (the paper assumes *chirality*: all robots
//!   agree on the clockwise direction);
//! * [`mod@line`] — lines, rays (the paper's half-lines `HF(u, v)`), segments;
//! * [`hull`] — convex hulls (`CH(Q)` in the paper);
//! * [`sec`] — smallest enclosing circles (`sec(C)` in the paper);
//! * [`soa`] — structure-of-arrays point storage ([`PointBuffer`]) and the
//!   chunked batch kernels the hot loops compile down to;
//! * [`weber`] — Weber points: the exact medians of collinear configurations
//!   and the Weiszfeld iteration for general position;
//! * [`transform`] — orientation-preserving similarity transforms, used by
//!   the simulator to implement per-robot local coordinate frames.
//!
//! # Example
//!
//! ```
//! use gather_geom::{Point, Tol, sec::smallest_enclosing_circle};
//!
//! let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 1.0)];
//! let circle = smallest_enclosing_circle(&pts);
//! let tol = Tol::default();
//! for p in &pts {
//!     assert!(circle.contains(*p, tol));
//! }
//! ```

pub mod angle;
pub mod exact;
pub mod hull;
pub mod line;
pub mod point;
pub mod predicates;
pub mod sec;
pub mod soa;
pub mod tol;
pub mod transform;
pub mod weber;

pub use angle::{ccw_angle, cw_angle, polar_angle, Angle};
pub use hull::{convex_hull, convex_hull_into, convex_hull_soa, hull_contains};
pub use line::{Line, Ray, Segment};
pub use point::{centroid, Point, Vec2};
pub use predicates::{are_collinear, is_between, orient2d, Orientation};
pub use sec::{smallest_enclosing_circle, smallest_enclosing_circle_soa, Circle};
pub use soa::{PointBuffer, WeiszfeldSums};
pub use tol::Tol;
pub use transform::Similarity;
pub use weber::{
    weber_objective, weber_point_weiszfeld, weber_point_weiszfeld_from, weiszfeld_iterations,
    weiszfeld_nanos, WeberBound, WeberResult,
};
