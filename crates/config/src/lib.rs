//! Robot-configuration analysis for wait-free gathering.
//!
//! This crate implements Sections III and IV of *"Gathering of Mobile Robots
//! Tolerating Multiple Crash Faults"* (Bouzid, Das, Tixeuil; ICDCS 2013):
//!
//! * [`Configuration`] — a multiset of robot positions with strong
//!   multiplicity detection (`mult`, `U(C)`, `sec(C)`, linearity);
//! * [`view`] — Definition 2: the similarity-invariant *view* of a position,
//!   with a total order, and the equivalence classes it induces;
//! * [`symmetry`] — Definition 3: rotational symmetry `sym(C)`;
//! * [`angles`] — Definition 4: clockwise successor ordering and the
//!   *string of angles* `SA(c)` with its periodicity `per(SA)`;
//! * [`regularity`] — Definition 5: regular configurations and their centre
//!   of regularity;
//! * [`quasi`] — Definitions 6–7 and Lemma 3.4: quasi-regular
//!   configurations, their detection, and their Weber point (Theorem 3.1);
//! * [`axial`] — mirror-axis detection (the "only axial symmetry" case of
//!   the paper's taxonomy, broken by chirality);
//! * [`safe`] — Definition 8: safe points (Lemmas 4.2, 4.3);
//! * [`mod@classify`] — Section IV: the partition of all configurations into
//!   the classes `B`, `M`, `L1W`, `L2W`, `QR`, `A`;
//! * [`analysis`] — the shared per-round analysis: classification plus
//!   symmetry computed once per configuration, memoized across unchanged
//!   rounds ([`RoundAnalysis`], [`AnalysisCache`]).
//!
//! # Example
//!
//! ```
//! use gather_config::{Class, classify, Configuration};
//! use gather_geom::{Point, Tol};
//!
//! // Three robots at one point, one elsewhere: a unique point of maximum
//! // multiplicity, so the configuration is of class M.
//! let config = Configuration::new(vec![
//!     Point::new(0.0, 0.0), Point::new(0.0, 0.0), Point::new(0.0, 0.0),
//!     Point::new(5.0, 5.0),
//! ]);
//! let analysis = classify(&config, Tol::default());
//! assert_eq!(analysis.class, Class::Multiple);
//! ```

pub mod analysis;
pub mod angles;
pub mod axial;
pub mod classify;
pub mod configuration;
mod locate;
pub mod quasi;
pub mod regularity;
pub mod safe;
pub mod symmetry;
pub mod view;

pub use analysis::{fingerprint, AnalysisCache, RoundAnalysis};
pub use angles::{patch_sorted_angle_keys, string_of_angles, string_periodicity, StringOfAngles};
pub use axial::{detect_mirror_axis, is_mirror_axis};
pub use classify::{
    classify, classify_hinted, classify_hinted_with_distinct, classify_invocations, Analysis, Class,
};
pub use configuration::{
    canonicalize_into, canonicalize_sorted_into, lex_order_into, lex_order_update, CanonScratch,
    Configuration,
};
pub use quasi::{
    detect_quasi_regularity, detect_quasi_regularity_hinted, quasi_regular_with_center,
    QuasiRegularity,
};
pub use regularity::regularity_around;
pub use safe::{elected_point, is_safe_point, safe_points};
pub use symmetry::{rotational_symmetry, symmetry_classes};
pub use view::{view_of, view_scans, View};
