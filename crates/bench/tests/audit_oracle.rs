//! The per-robot class-`M` rule as the oracle of the wait-freeness
//! audit's batched destinations.
//!
//! The audit asks the algorithm for the destination of every occupied
//! location once per round. `WaitFreeGather` answers class `M` from one
//! sorted index of the occupied rays around the heavy point instead of
//! running the per-robot rule, an O(n) scan, at every location. The index
//! must change no bit, so every case below compares it bit for bit with
//! `rules::multiple::destination_with_fraction` at each location:
//!
//! * generated class-`M` teams up to n = 1024;
//! * trains whose rays differ by 1e-10, 1e-9 and 1e-7 rad, around the
//!   rule's 1e-9 same-ray cut and its collinearity tolerance;
//! * points within `tol.snap` of the heavy point;
//! * rays at and around the ±π wrap-around of `atan2`.
//!
//! Whole runs then compare the audit's violation strings with those of a
//! wrapper that forwards only `Algorithm::destination`, and so audits
//! through the default per-location loop, on the theorem-sweep scenarios
//! whose audits report violations (`perfbench/FAILURES.md`).
//!
//! Two cost tests count the rule's kernel evaluations
//! (`rules::multiple::ray_kernel_calls`): the batched audit of a class-`M`
//! team stays within O(|U| log |U|) of them, where the per-location loop
//! makes about |U|·n.

use gather_config::{classify, Class, Configuration};
use gather_geom::{Point, Tol};
use gather_sim::algorithm::per_location_destinations;
use gather_sim::prelude::*;
use gather_workloads as workloads;
use gathering::rules::multiple;
use gathering::WaitFreeGather;
use std::f64::consts::PI;

/// Side-step fractions: the paper's, and two of the A1 ablation's.
const FRACTIONS: [f64; 3] = [1.0 / 3.0, 0.1, 0.9];

fn tols() -> [Tol; 3] {
    [Tol::default(), Tol::strict(), Tol::loose()]
}

/// Asserts that the batched destinations of every distinct location of
/// `points` around `target` equal the per-robot rule's, bit for bit.
/// Returns how many locations were blocked (side-stepped).
fn assert_rule_matches(points: &[Point], target: Point, tol: Tol, fraction: f64) -> usize {
    let config = Configuration::new(points.to_vec());
    let locations = config.distinct();
    let mut batched = Vec::new();
    multiple::destinations_with_fraction(&locations, target, tol, fraction, &mut batched);
    assert_eq!(batched.len(), locations.len());
    let mut side_steps = 0;
    for (&(me, _), got) in locations.iter().zip(&batched) {
        let want = multiple::destination_with_fraction(&config, me, target, tol, fraction);
        assert!(
            got.x.to_bits() == want.x.to_bits() && got.y.to_bits() == want.y.to_bits(),
            "location {me:?} around {target:?} ({tol}, fraction {fraction}): \
             batched {got:?}, per-robot rule {want:?}"
        );
        if want != target && want != me {
            side_steps += 1;
        }
    }
    side_steps
}

/// `c + r·(cos θ, sin θ)`.
fn polar(c: Point, r: f64, theta: f64) -> Point {
    Point::new(c.x + r * theta.cos(), c.y + r * theta.sin())
}

#[test]
fn batched_destinations_match_the_rule_on_generated_class_m_teams() {
    for (n, seeds) in [(8usize, 0..12u64), (32, 0..8), (256, 0..3), (1024, 0..1)] {
        for seed in seeds {
            let config = Configuration::new(workloads::of_class(Class::Multiple, n, seed));
            let analysis = classify(&config, Tol::default());
            assert_eq!(analysis.class, Class::Multiple);
            let locations = config.distinct();
            for fraction in FRACTIONS {
                let wfg = WaitFreeGather::default().with_sidestep_fraction(fraction);
                let (mut batched, mut looped) = (Vec::new(), Vec::new());
                wfg.destinations(&config, &analysis, &locations, &mut batched);
                per_location_destinations(&wfg, &config, &analysis, &locations, &mut looped);
                let bits = |v: &[Point]| -> Vec<(u64, u64)> {
                    v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
                };
                assert_eq!(bits(&batched), bits(&looped), "n={n} seed={seed}");
            }
        }
    }
}

/// A heavy stack at `c`, trains of robots at growing radii on rays
/// `step` apart starting at each of `starts`, and a few loose satellites.
fn trains(c: Point, starts: &[f64], step: f64, cars: usize) -> Vec<Point> {
    let mut pts = vec![c; 3];
    for &start in starts {
        for k in 0..cars {
            pts.push(polar(c, 1.0 + 0.5 * k as f64, start + step * k as f64));
            // A second car on the same ray, further out, is blocked by the
            // first whatever the spacing of the rays.
            pts.push(polar(c, 1.25 + 0.5 * k as f64, start + step * k as f64));
        }
    }
    for theta in [0.4, 2.0, -1.1, -2.9] {
        pts.push(polar(c, 6.0, theta));
    }
    pts
}

#[test]
fn batched_destinations_match_the_rule_on_near_collinear_trains() {
    let c = Point::new(0.3, -0.7);
    let mut side_steps = 0;
    for step in [1e-10f64, -1e-10, 1e-9, -1e-9, 1e-7, -1e-7, 2e-9, 5e-10] {
        for starts in [
            vec![0.25],
            vec![0.25, 0.25 + PI],
            vec![1.0, 1.0 + 3e-9, -2.0],
            vec![PI - 4.0 * step.abs(), -PI + 1e-12],
        ] {
            let pts = trains(c, &starts, step, 6);
            for tol in tols() {
                for fraction in FRACTIONS {
                    side_steps += assert_rule_matches(&pts, c, tol, fraction);
                }
            }
        }
    }
    assert!(side_steps > 0, "no train exercised the side-step");
}

#[test]
fn batched_destinations_match_the_rule_near_the_heavy_point() {
    let c = Point::new(-1.5, 2.25);
    let tol = Tol::default();
    let near = [
        Point::new(c.x + 5e-7, c.y),
        Point::new(c.x, c.y - 9e-7),
        Point::new(c.x - 7e-7, c.y + 7e-7),
    ];
    let just_out = [
        Point::new(c.x + 1.1e-6, c.y),
        Point::new(c.x, c.y - 1.5e-6),
        Point::new(c.x + 2e-6, c.y + 2e-6),
    ];
    let mut pts = vec![c, c];
    pts.extend(near);
    pts.extend(just_out);
    // Robots behind the points just outside the snap radius, on their
    // rays and slightly off them.
    for p in just_out {
        let theta = (p - c).angle();
        for (r, off) in [(0.5, 0.0), (2.0, 1e-10), (4.0, -1e-9), (7.0, 3e-7)] {
            pts.push(polar(c, r, theta + off));
        }
    }
    let mut side_steps = 0;
    for tol in [tol, Tol::loose()] {
        for fraction in FRACTIONS {
            side_steps += assert_rule_matches(&pts, c, tol, fraction);
        }
    }
    assert!(side_steps > 0, "no robot was blocked near the heavy point");
}

#[test]
fn batched_destinations_match_the_rule_across_the_wrap_around() {
    // With y exactly c.y and x below c.x a ray is at +π exactly; one ulp
    // below c.y it rounds to −π. Trains straddle the cut on both sides,
    // so a robot's nearest clockwise ray is across the wrap-around.
    let c = Point::new(2.0, 0.5);
    let below = f64::from_bits(0.5f64.to_bits() - 1);
    let mut side_steps = 0;
    for eps in [0.0, 1e-12, 1e-10, 1e-9, 1e-7, 1e-3] {
        let mut pts = vec![c; 3];
        for k in 0..5 {
            let r = 1.0 + 0.75 * k as f64;
            pts.push(Point::new(c.x - r, c.y));
            pts.push(Point::new(c.x - r - 0.3, below));
            pts.push(polar(c, r + 0.1, PI - eps * (k + 1) as f64));
            pts.push(polar(c, r + 0.2, -PI + eps * (k + 1) as f64));
        }
        for theta in [0.5, -0.5] {
            pts.push(polar(c, 3.0, theta));
        }
        let angles: Vec<f64> = pts
            .iter()
            .filter(|p| !p.within(c, 1e-6))
            .map(|p| (*p - c).angle())
            .collect();
        assert!(angles.contains(&PI) && angles.contains(&-PI));
        for tol in tols() {
            for fraction in FRACTIONS {
                side_steps += assert_rule_matches(&pts, c, tol, fraction);
            }
        }
    }
    // Sparse teams next to the cut: a blocked robot's nearest clockwise
    // ray may lie across it.
    for theta in [PI, -PI + 1e-9, PI - 2e-9, -PI + 0.5, PI - 0.5] {
        let mut pts = vec![c, c, polar(c, 1.0, theta), polar(c, 2.0, theta)];
        pts.push(Point::new(c.x - 3.0, below));
        pts.push(Point::new(c.x - 4.0, c.y));
        for fraction in FRACTIONS {
            side_steps += assert_rule_matches(&pts, c, Tol::default(), fraction);
        }
    }
    // Two occupied rays: the lower one's nearest clockwise ray is the
    // upper one, across the cut, and the only ray above it.
    for (low, high) in [
        (-PI, PI),
        (-PI, 0.0),
        (-0.5, 0.5),
        (0.5, PI),
        (-PI + 1e-9, PI),
    ] {
        let pts = [
            c,
            c,
            polar(c, 1.0, low),
            polar(c, 2.0, low),
            polar(c, 3.0, high),
        ];
        for fraction in FRACTIONS {
            side_steps += assert_rule_matches(&pts, c, Tol::default(), fraction);
        }
    }
    assert!(
        side_steps > 0,
        "no robot side-stepped across the wrap-around"
    );
}

/// Forwards only `Algorithm::destination`, so the audit evaluates it
/// through the default per-location loop.
struct PerLocation(WaitFreeGather);

impl Algorithm for PerLocation {
    fn name(&self) -> &'static str {
        "per-location"
    }
    fn destination(&self, snap: &Snapshot) -> Point {
        self.0.destination(snap)
    }
}

/// The violations the audit reports on one theorem-sweep scenario: the
/// `single` scheduler, δ-motion, δ = 0.05, no crashes, random frames,
/// wired as the benchmark's `Scenario` wires them.
fn violations(initial: &[Point], seed: u64, algorithm: impl Algorithm + 'static) -> Vec<String> {
    let mut engine = Engine::builder(initial.to_vec())
        .algorithm(algorithm)
        .scheduler(SequentialSingle::new())
        .motion(AlwaysDelta)
        .crash_plan(RandomCrashes::new(0, 0.05, seed.wrapping_add(2)))
        .frames(FramePolicy::RandomPerActivation {
            seed: seed.wrapping_add(3),
        })
        .delta(0.05)
        .check_invariants(true)
        .build();
    engine.run(60_000);
    engine.violations().to_vec()
}

#[test]
fn batched_audit_reports_the_per_location_violations_byte_for_byte() {
    // (class, n, of_class seed, scenario seed): the first failures of
    // each class in perfbench/FAILURES.md at seed 1.
    let cases = [
        (Class::Bivalent, 32, 202_437, 815_084_783u64),
        (Class::Collinear1W, 32, 404_874, 3_891_202),
        (Class::Collinear2W, 32, 623_281, 577_012_888),
    ];
    for (class, n, config_seed, seed) in cases {
        let initial = workloads::of_class(class, n, config_seed);
        let batched = violations(&initial, seed, WaitFreeGather::default());
        let looped = violations(&initial, seed, PerLocation(WaitFreeGather::default()));
        assert_eq!(batched, looped, "{class} n={n} seed={seed}");
    }
}

#[test]
fn batched_class_m_audit_makes_o_u_log_u_kernel_calls() {
    let n = 1024;
    for seed in [1u64, 7] {
        let config = Configuration::new(workloads::of_class(Class::Multiple, n, seed));
        let analysis = classify(&config, Tol::default());
        let locations = config.distinct();
        let u = locations.len() as u64;
        let log_u = u64::from(u.next_power_of_two().trailing_zeros());
        let mut out = Vec::new();
        let before = multiple::ray_kernel_calls();
        WaitFreeGather::default().destinations(&config, &analysis, &locations, &mut out);
        let calls = multiple::ray_kernel_calls() - before;
        assert!(
            calls <= 64 * u * log_u,
            "seed {seed}: {calls} kernel calls for |U| = {u}"
        );
        // The per-location loop pays about |U|·n for the same answers.
        let before = multiple::ray_kernel_calls();
        per_location_destinations(
            &WaitFreeGather::default(),
            &config,
            &analysis,
            &locations,
            &mut out,
        );
        let looped = multiple::ray_kernel_calls() - before;
        assert!(looped > 64 * u * log_u, "seed {seed}: loop made {looped}");
    }
}
