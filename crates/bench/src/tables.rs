//! The result tables: T1–T7, F1–F6 and A1, one function each.
//!
//! The paper is a theory paper with no empirical section, so each table
//! checks one theorem, lemma or design constant (DESIGN.md §6 has the
//! index, EXPERIMENTS.md the expected vs measured shapes). A table writes
//! its CSVs under `args.out_dir` and appends the text it prints to `out`;
//! [`run_all`] runs every table in turn and writes that text as
//! `<table>.txt` next to the CSVs. The quick outputs are committed under
//! `results/`, and the `results-smoke` stage of `scripts/check.sh`
//! regenerates them and compares bytes.

use crate::factory::{self, ALGORITHMS};
use crate::runner::{mean, median, parallel_map, stddev, Scenario};
use crate::table::{f, pct, Table};
use crate::Args;
use gather_config::{
    classify, detect_quasi_regularity, quasi_regular_with_center, safe_points, Class, Configuration,
};
use gather_geom::{Point, Segment, Tol};
use gather_sim::metrics::{summarize, RunMetrics};
use gather_sim::prelude::*;
use gather_workloads as workloads;
use gathering::{rules, WaitFreeGather};
use std::collections::BTreeMap;

/// `println!` into a table's text.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// A table: writes its CSVs and appends its printed text.
type TableFn = fn(&Args, &mut String);

/// Every table, by the file stem of its `.txt`, in run order.
const ALL: [(&str, TableFn); 14] = [
    ("t1_theorem51", t1_theorem51),
    ("t2_baselines", t2_baselines),
    ("t3_bivalent", t3_bivalent),
    ("t4_qr_detection", t4_qr_detection),
    ("t5_waitfree", t5_waitfree),
    ("t6_classification", t6_classification),
    ("t7_byzantine", t7_byzantine),
    ("f1_scaling", f1_scaling),
    ("f2_delta", f2_delta),
    ("f3_transitions", f3_transitions),
    ("f4_potential", f4_potential),
    ("f5_crash_timing", f5_crash_timing),
    ("f6_staleness", f6_staleness),
    ("a1_ablations", a1_ablations),
];

/// Runs every table, printing each one's text under an
/// `== <table> ==` banner and writing it to `<out_dir>/<table>.txt`.
///
/// # Panics
///
/// Panics when a table's own check fails (F3's illegal transitions, F4's
/// φ violations, an invariant violation) or on an I/O error.
pub fn run_all(args: &Args) {
    for (name, table) in ALL {
        let mut text = String::new();
        table(args, &mut text);
        print!("== {name} ==\n{text}");
        let path = args.out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// Runs every cell's scenarios once, in parallel on the global pool, and
/// returns each cell's key with its metrics, in cell order.
fn run_grid<K>(cells: Vec<(K, Vec<Scenario>)>) -> Vec<(K, Vec<RunMetrics>)> {
    let (keys, groups): (Vec<K>, Vec<Vec<Scenario>>) = cells.into_iter().unzip();
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let scenarios: Vec<Scenario> = groups.into_iter().flatten().collect();
    let mut metrics = parallel_map(scenarios, Scenario::run).into_iter();
    keys.into_iter()
        .zip(sizes)
        .map(|(key, size)| (key, metrics.by_ref().take(size).collect()))
        .collect()
}

/// Writes `table` as `<out_dir>/<file>` and returns the path as printed.
fn write_csv(args: &Args, table: &Table, file: &str) -> String {
    let path = args.out_dir.join(file);
    table.write_csv(&path).expect("write CSV");
    path.display().to_string()
}

/// The five non-bivalent classes T1, T5 and F3 sweep.
const LIVE_CLASSES: [Class; 5] = [
    Class::Multiple,
    Class::Collinear1W,
    Class::Collinear2W,
    Class::QuasiRegular,
    Class::Asymmetric,
];

/// T1 — Theorem 5.1: WAIT-FREE-GATHER gathers all correct robots from
/// every non-bivalent class, for any `f ≤ n − 1`, under every scheduler
/// and motion adversary sampled.
///
/// Expected shape: the `gathered` column is 100% in every row; rounds grow
/// with serialisation (scheduler `single`) and with the stingy motion
/// adversary, but success never drops.
pub(crate) fn t1_theorem51(args: &Args, out: &mut String) {
    let n = 8usize;
    let fault_levels = [0usize, 1, n / 2, n - 1];
    let schedulers: &[&'static str] = if args.quick {
        &["full", "round-robin"]
    } else {
        &["full", "round-robin", "single", "random"]
    };

    let mut cells = Vec::new();
    for &class in &LIVE_CLASSES {
        for &faults in &fault_levels {
            for &sched in schedulers {
                let trials = (0..args.trials as u64)
                    .map(|trial| {
                        let mut s = Scenario::new(workloads::of_class(class, n, trial), trial);
                        s.scheduler = sched;
                        s.motion = "random";
                        s.faults = faults;
                        s.max_rounds = 200_000;
                        s
                    })
                    .collect();
                cells.push(((class, faults, sched), trials));
            }
        }
    }

    let mut table = Table::new(&[
        "class",
        "n",
        "f",
        "scheduler",
        "trials",
        "gathered",
        "rounds(mean)",
        "travel(mean)",
    ]);
    for ((class, faults, sched), cell) in run_grid(cells) {
        let gathered = cell.iter().filter(|m| m.gathered).count();
        let rounds: Vec<f64> = cell.iter().map(|m| m.rounds as f64).collect();
        let travel: Vec<f64> = cell.iter().map(|m| m.total_travel).collect();
        table.push(vec![
            class.short_name().into(),
            n.to_string(),
            faults.to_string(),
            sched.into(),
            args.trials.to_string(),
            pct(gathered, args.trials),
            f(mean(&rounds), 1),
            f(mean(&travel), 1),
        ]);
    }

    outln!(
        out,
        "T1 — Theorem 5.1: gathering success across classes, faults, schedulers\n"
    );
    out.push_str(&table.render());
    let csv = write_csv(args, &table, "t1_theorem51.csv");
    outln!(out, "\nwrote {csv}");
}

/// T2's initial-configuration families.
fn t2_workload(name: &str, seed: u64) -> Vec<Point> {
    match name {
        "scatter" => workloads::random_scatter(8, 8.0, seed),
        "stacks" => workloads::clusters(9, 3, seed),
        "line" => workloads::collinear_1w(9, seed),
        "ring" => workloads::regular_polygon(8, 4.0, seed as f64 * 0.1),
        other => panic!("unknown workload {other}"),
    }
}

/// T2 — Baseline comparison: the paper's algorithm vs the prior art its
/// introduction discusses, across fault levels and initial-configuration
/// families (including the multi-multiplicity starts that are outside the
/// classic algorithms' contracts).
///
/// Expected shape: `wait-free-gather` is 100% everywhere; `ordered-march`
/// collapses as soon as `f ≥ 1` can hit the designated walker;
/// `agmon-peleg` style survives small `f` on distinct starts but is
/// unreliable on multiplicity starts; `center-of-gravity` "succeeds" only
/// because float convergence eventually crosses the snap radius, paying a
/// large round count under the stingy motion adversary.
pub(crate) fn t2_baselines(args: &Args, out: &mut String) {
    let fault_levels = [0usize, 1, 2, 4];

    let mut cells = Vec::new();
    for &alg in &ALGORITHMS {
        for w in ["scatter", "stacks", "line", "ring"] {
            for &faults in &fault_levels {
                let trials = (0..args.trials as u64)
                    .map(|trial| {
                        let mut s = Scenario::new(t2_workload(w, trial), trial * 7 + 1);
                        s.algorithm = alg;
                        s.scheduler = "random";
                        s.motion = "random";
                        s.faults = faults;
                        s.max_rounds = 50_000;
                        s
                    })
                    .collect();
                cells.push(((alg, w, faults), trials));
            }
        }
    }

    let mut table = Table::new(&[
        "algorithm",
        "workload",
        "f",
        "gathered",
        "rounds(median)",
        "rounds(mean)",
    ]);
    for ((alg, w, faults), cell) in run_grid(cells) {
        let ok = cell.iter().filter(|m| m.gathered).count();
        let rounds: Vec<f64> = cell
            .iter()
            .filter(|m| m.gathered)
            .map(|m| m.rounds as f64)
            .collect();
        table.push(vec![
            alg.into(),
            w.into(),
            faults.to_string(),
            pct(ok, args.trials),
            f(median(&rounds), 1),
            f(mean(&rounds), 1),
        ]);
    }

    outln!(
        out,
        "T2 — baselines vs WAIT-FREE-GATHER (round stats over gathered runs only)\n"
    );
    out.push_str(&table.render());
    let csv = write_csv(args, &table, "t2_baselines.csv");
    outln!(out, "\nwrote {csv}");
}

/// T3's rounds: each round halves the separation; stay far above the
/// float snap floor (8 / 2^14 ≈ 5e-4 ≫ 1e-6).
const T3_ROUNDS: u64 = 14;

/// `alg` against T3's group-serialising adversary, which activates the
/// robots `0..split` on even rounds and the rest on odd ones.
fn t3_engine(alg: &str, pts: Vec<Point>, split: usize) -> Engine {
    Engine::builder(pts)
        .algorithm(factory::algorithm(alg))
        .scheduler(FnScheduler::new(
            "serialise-groups",
            move |round, alive: &[bool]| {
                let range = if round % 2 == 0 {
                    0..split
                } else {
                    split..alive.len()
                };
                range.filter(|i| alive[*i]).collect()
            },
        ))
        .frames(FramePolicy::GlobalFrame)
        .check_invariants(false)
        .build()
}

/// T3 — Lemma 5.2: the bivalent impossibility.
///
/// From an exactly even two-point split, the group-serialising adversary
/// (activate one co-located group per round, alternating) defeats every
/// anonymous deterministic algorithm: the even split survives every round
/// while the separation only converges geometrically. The control rows
/// show that the *same* adversary loses against any unbalanced split —
/// only the exact `n/2 + n/2` case is deadly.
///
/// Expected shape: `still B` = yes and `gathered` = no on every bivalent
/// row for every algorithm; the control rows all gather.
pub(crate) fn t3_bivalent(args: &Args, out: &mut String) {
    let n = 8usize;
    let mut table = Table::new(&[
        "algorithm",
        "start",
        "rounds",
        "still B",
        "gathered",
        "sep start",
        "sep end",
    ]);

    for &alg in &ALGORITHMS {
        // The bivalent trap.
        let mut engine = t3_engine(alg, workloads::bivalent(n, 8.0), n / 2);
        let mut still_bivalent = true;
        for _ in 0..T3_ROUNDS {
            if engine.is_gathered() {
                still_bivalent = false;
                break;
            }
            engine.step();
            let class = classify(&engine.configuration(), Tol::default()).class;
            if class != Class::Bivalent {
                still_bivalent = false;
                break;
            }
        }
        let d = engine.configuration().distinct_points();
        let sep_end = if d.len() == 2 { d[0].dist(d[1]) } else { 0.0 };
        table.push(vec![
            alg.into(),
            "bivalent 4+4".into(),
            T3_ROUNDS.to_string(),
            if still_bivalent { "yes" } else { "NO" }.into(),
            if engine.is_gathered() { "YES" } else { "no" }.into(),
            f(8.0, 4),
            f(sep_end, 6),
        ]);

        // Control: the 5+3 split under the same adversary.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(8.0, 0.0);
        let mut pts = vec![a; 5];
        pts.extend(vec![b; 3]);
        let outcome = t3_engine(alg, pts, 5).run(20_000);
        table.push(vec![
            alg.into(),
            "unbalanced 5+3".into(),
            outcome.rounds().to_string(),
            "-".into(),
            if outcome.gathered() { "yes" } else { "NO" }.into(),
            f(8.0, 4),
            f(0.0, 6),
        ]);
    }

    outln!(
        out,
        "T3 — Lemma 5.2: the bivalent trap vs every algorithm\n"
    );
    out.push_str(&table.render());
    outln!(
        out,
        "\nseparation after {T3_ROUNDS} rounds ≈ 8/2^{T3_ROUNDS} — geometric convergence, \
             never coincidence: gathering is impossible from B, and only from B."
    );
    let csv = write_csv(args, &table, "t3_bivalent.csv");
    outln!(out, "wrote {csv}");
}

/// One labelled T4 configuration family.
struct QrFamily {
    name: &'static str,
    expect_qr: bool,
    /// Ground-truth centre when known.
    center: Option<Point>,
    generate: fn(usize, u64) -> Vec<Point>,
}

/// T4 — Theorem 3.1: quasi-regularity detection and Weber-point output.
///
/// Generates labelled configurations — quasi-regular families (regular
/// polygons, biangular, radially-converged symmetric, occupied-centre) and
/// non-quasi-regular controls (asymmetric with vertex Weber points,
/// random scatters of n ≥ 5) — and measures detection rate and Weber-point
/// error against the ground-truth centre. Detection latency is not a
/// table column: perfbench's `config.classify_us` measures it.
///
/// Expected shape: ~100% detection on every positive family with Weber
/// error at numeric-noise level (≤ 1e-5 of the configuration radius);
/// ~0% false positives on the asymmetric control (random scatters of
/// small n are legitimately quasi-regular — see DESIGN.md on Fermat
/// points — so the control uses vertex-Weber constructions).
pub(crate) fn t4_qr_detection(args: &Args, out: &mut String) {
    let families = [
        QrFamily {
            name: "regular-polygon",
            expect_qr: true,
            center: Some(Point::ORIGIN),
            generate: |n, seed| workloads::regular_polygon(n, 3.0, seed as f64 * 0.21),
        },
        QrFamily {
            name: "biangular",
            expect_qr: true,
            center: Some(Point::ORIGIN),
            generate: |n, _seed| {
                let k = (n / 2).max(2);
                workloads::biangular(k, std::f64::consts::TAU / (2.3 * k as f64), 2.0, 4.5)
            },
        },
        QrFamily {
            name: "radially-converged",
            expect_qr: true,
            center: Some(Point::ORIGIN),
            generate: |n, seed| workloads::quasi_regular((n / 2).max(2), 2, seed),
        },
        QrFamily {
            name: "occupied-centre",
            expect_qr: true,
            center: Some(Point::ORIGIN),
            generate: |n, _seed| workloads::ring_with_center(n.saturating_sub(1).max(3), 1, 3.0),
        },
        QrFamily {
            name: "asymmetric-control",
            expect_qr: false,
            center: None,
            generate: |n, seed| workloads::asymmetric(n.max(4), seed),
        },
    ];
    let sizes: &[usize] = if args.quick {
        &[6, 12]
    } else {
        &[4, 6, 8, 12, 16, 24, 32]
    };
    let tol = Tol::default();

    let mut table = Table::new(&[
        "family",
        "n",
        "trials",
        "detected",
        "correct",
        "weber err(mean)",
    ]);

    for fam in &families {
        for &n in sizes {
            let inputs: Vec<Vec<Point>> = (0..args.trials as u64)
                .map(|seed| (fam.generate)(n, seed))
                .collect();
            let centers = parallel_map(inputs, |pts| {
                let config = Configuration::canonical(pts.clone(), tol);
                detect_quasi_regularity(&config, tol).map(|q| q.center)
            });
            let detected = centers.iter().filter(|c| c.is_some()).count();
            let correct = centers
                .iter()
                .filter(|c| c.is_some() == fam.expect_qr)
                .count();
            let errors: Vec<f64> = centers
                .iter()
                .filter_map(|c| Some(c.as_ref()?.dist(fam.center?)))
                .collect();
            table.push(vec![
                fam.name.into(),
                n.to_string(),
                args.trials.to_string(),
                pct(detected, args.trials),
                pct(correct, args.trials),
                if errors.is_empty() {
                    "-".into()
                } else {
                    format!("{:.2e}", mean(&errors))
                },
            ]);
        }
    }

    outln!(
        out,
        "T4 — Theorem 3.1: quasi-regularity detection quality\n"
    );
    out.push_str(&table.render());
    let csv = write_csv(args, &table, "t4_qr_detection.csv");
    outln!(out, "\nwrote {csv}");
}

/// T5 — Lemma 5.1: the wait-freeness necessary condition.
///
/// For every sampled configuration of every class, count how many occupied
/// locations WAIT-FREE-GATHER instructs to stay. Crash tolerance for
/// `f = n − 1` requires at most one. The baselines are measured too, which
/// shows exactly *why* they fail: `ordered-march` leaves all but one
/// location waiting.
///
/// Expected shape: `max staying` ≤ 1 for wait-free-gather and agmon-peleg
/// and the convergence rules; `ordered-march` has `max staying` close to
/// the number of distinct locations.
pub(crate) fn t5_waitfree(args: &Args, out: &mut String) {
    let tol = Tol::default();

    let mut table = Table::new(&[
        "algorithm",
        "class",
        "configs",
        "max staying",
        "mean staying",
        "wait-free",
    ]);

    for &alg_name in &ALGORITHMS {
        let alg = factory::algorithm(alg_name);
        for &class in &LIVE_CLASSES {
            let mut max_staying = 0usize;
            let mut total = 0usize;
            let mut configs = 0usize;
            for seed in 0..args.trials as u64 {
                for n in [5usize, 8, 11] {
                    let pts = workloads::of_class(class, n, seed);
                    let config = Configuration::canonical(pts, tol);
                    if config.is_gathered() {
                        continue;
                    }
                    let mut staying = 0usize;
                    for p in config.distinct_points() {
                        let d = alg.destination(&Snapshot::new(config.clone(), p));
                        if d.within(p, tol.abs) {
                            staying += 1;
                        }
                    }
                    max_staying = max_staying.max(staying);
                    total += staying;
                    configs += 1;
                }
            }
            table.push(vec![
                alg_name.into(),
                class.short_name().into(),
                configs.to_string(),
                max_staying.to_string(),
                f(total as f64 / configs.max(1) as f64, 2),
                if max_staying <= 1 { "yes" } else { "NO" }.into(),
            ]);
        }
    }

    outln!(
        out,
        "T5 — Lemma 5.1: locations instructed to stay, per algorithm and class\n"
    );
    out.push_str(&table.render());
    outln!(
        out,
        "\na crash-tolerant algorithm for f ≤ n−1 must keep 'max staying' ≤ 1 \
         (Lemma 5.1); 'ordered-march' fails exactly this condition."
    );
    let csv = write_csv(args, &table, "t5_waitfree.csv");
    outln!(out, "wrote {csv}");
}

/// T6 — Section IV: the classification partition and safe points.
///
/// Four measurements:
///
/// 1. generator agreement — every per-class generator's output classifies
///    as intended (exercising the decision procedure's boundaries);
/// 2. the class distribution of random configurations by team size — shows
///    why class `A` only becomes generic for n ≥ 5 (small configurations
///    have Weber points with periodic direction structure);
/// 3. Lemmas 4.2/4.3 — safe points exist exactly outside `B ∪ L2W` among
///    the sampled configurations;
/// 4. axial symmetry — mirror-symmetric configurations carry a detectable
///    axis yet classify as A (the paper's chirality argument).
///
/// Expected shape: 100% generator agreement; random scatters are QR for
/// n ∈ {3, 4} and overwhelmingly A for n ≥ 5; zero safe-point lemma
/// violations.
pub(crate) fn t6_classification(args: &Args, out: &mut String) {
    let tol = Tol::default();
    let trials = args.trials.max(5);

    // 1. Generator agreement.
    let mut agree = Table::new(&["class", "n", "trials", "agreement"]);
    for class in Class::all() {
        for n in [4usize, 6, 9, 12] {
            let hits = (0..trials as u64)
                .filter(|seed| {
                    let pts = workloads::of_class(class, n, *seed);
                    classify(&Configuration::canonical(pts, tol), tol).class == class
                })
                .count();
            agree.push(vec![
                class.short_name().into(),
                n.to_string(),
                trials.to_string(),
                pct(hits, trials),
            ]);
        }
    }
    outln!(out, "T6a — generator/classifier agreement\n");
    out.push_str(&agree.render());
    write_csv(args, &agree, "t6a_agreement.csv");

    // 2. Class distribution of random configurations.
    let mut dist = Table::new(&["n", "samples", "B", "M", "L1W", "L2W", "QR", "A"]);
    for n in [3usize, 4, 5, 6, 8, 12] {
        let samples = trials * 10;
        let mut hist: BTreeMap<Class, usize> = BTreeMap::new();
        for seed in 0..samples as u64 {
            let pts =
                workloads::random_scatter(n, 8.0, seed.wrapping_mul(31).wrapping_add(n as u64));
            let class = classify(&Configuration::canonical(pts, tol), tol).class;
            *hist.entry(class).or_insert(0) += 1;
        }
        let cell = |c: Class| pct(hist.get(&c).copied().unwrap_or(0), samples);
        dist.push(vec![
            n.to_string(),
            samples.to_string(),
            cell(Class::Bivalent),
            cell(Class::Multiple),
            cell(Class::Collinear1W),
            cell(Class::Collinear2W),
            cell(Class::QuasiRegular),
            cell(Class::Asymmetric),
        ]);
    }
    outln!(
        out,
        "\nT6b — class distribution of uniform random configurations\n"
    );
    out.push_str(&dist.render());
    write_csv(args, &dist, "t6b_distribution.csv");

    // 3. Safe-point lemmas.
    let mut safe = Table::new(&["class", "configs", "lemma", "violations"]);
    let mut by_class: BTreeMap<Class, (usize, usize)> = BTreeMap::new();
    for class in Class::all() {
        for seed in 0..trials as u64 {
            for n in [4usize, 7, 10] {
                let pts = workloads::of_class(class, n, seed);
                let config = Configuration::canonical(pts, tol);
                let has_safe = !safe_points(&config, tol).is_empty();
                let violated = match classify(&config, tol).class {
                    // Lemma 4.3: B and L2W have no safe point.
                    Class::Bivalent | Class::Collinear2W => has_safe,
                    // Lemma 4.2: non-linear configurations have one.
                    _ if !config.is_linear(tol) => !has_safe,
                    _ => false,
                };
                let entry = by_class.entry(class).or_insert((0, 0));
                entry.0 += 1;
                if violated {
                    entry.1 += 1;
                }
            }
        }
    }
    for (class, (configs, violations)) in &by_class {
        safe.push(vec![
            class.short_name().into(),
            configs.to_string(),
            match class {
                Class::Bivalent | Class::Collinear2W => "4.3 (none exist)",
                _ => "4.2 (exists if non-linear)",
            }
            .into(),
            violations.to_string(),
        ]);
    }
    outln!(out, "\nT6c — safe-point lemmas 4.2/4.3\n");
    out.push_str(&safe.render());
    write_csv(args, &safe, "t6c_safe_points.csv");

    // 4. Axial symmetry.
    let mut axial = Table::new(&["pairs", "on-axis", "trials", "axis found", "class A"]);
    for (pairs, on_axis) in [(2usize, 1usize), (3, 0), (3, 1), (4, 2)] {
        let mut axes = 0usize;
        let mut class_a = 0usize;
        for seed in 0..trials as u64 {
            let pts = workloads::axially_symmetric(pairs, on_axis, seed);
            let config = Configuration::canonical(pts, tol);
            if gather_config::detect_mirror_axis(&config, tol).is_some() {
                axes += 1;
            }
            if classify(&config, tol).class == Class::Asymmetric {
                class_a += 1;
            }
        }
        axial.push(vec![
            pairs.to_string(),
            on_axis.to_string(),
            trials.to_string(),
            pct(axes, trials),
            pct(class_a, trials),
        ]);
    }
    outln!(
        out,
        "\nT6d — axial symmetry: mirror axes broken by chirality\n"
    );
    out.push_str(&axial.render());
    write_csv(args, &axial, "t6d_axial.csv");
    outln!(out, "\nwrote CSVs under {}", args.out_dir.display());
}

/// T7's byzantine policies by name.
fn t7_policy(name: &str, seed: u64) -> Box<dyn ByzantinePolicy> {
    match name {
        "statue" => Box::new(Statue),
        "wanderer" => Box::new(Wanderer::new(6.0, seed)),
        "fugitive" => Box::new(Fugitive),
        "stack-stalker" => Box::new(StackStalker),
        other => panic!("unknown policy {other}"),
    }
}

/// T7 — Beyond the paper: byzantine faults.
///
/// The paper proves crash tolerance and cites Agmon & Peleg for the
/// byzantine side: one byzantine robot defeats gathering of `n = 3`
/// robots. This experiment charts where WAIT-FREE-GATHER stands between
/// the two fault models: byzantine robots that merely stop (statue) or
/// inject noise (wanderer, fugitive) are handled like crashes, while the
/// targeted stack-stalker degrades small teams — the measured frontier of
/// crash-tolerance.
///
/// Expected shape: statue = 100% (it *is* a crash); the mobile policies
/// also measure ≈ 100% under fair schedulers — a lone byzantine robot
/// cannot outweigh the multiplicity the correct robots form, and the
/// known n = 3 impossibility needs a byzantine strategy *coordinated with
/// the scheduler*, which is outside this policy family (see
/// EXPERIMENTS.md §T7 for the honest discussion).
pub(crate) fn t7_byzantine(args: &Args, out: &mut String) {
    let sizes: &[usize] = if args.quick {
        &[4, 8]
    } else {
        &[3, 4, 6, 8, 12, 16]
    };

    let mut table = Table::new(&[
        "policy",
        "n",
        "byzantine",
        "trials",
        "gathered",
        "rounds(mean)",
    ]);
    for pol in ["statue", "wanderer", "fugitive", "stack-stalker"] {
        for &n in sizes {
            for b in [1usize, 2] {
                if b >= n {
                    continue;
                }
                let mut ok = 0usize;
                let mut rounds = Vec::new();
                for seed in 0..args.trials as u64 {
                    let pts = workloads::random_scatter(n, 8.0, seed * 13 + 1);
                    let mut builder = Engine::builder(pts)
                        .algorithm(WaitFreeGather::default())
                        .scheduler(RoundRobin::new(2.max(n / 4)))
                        .motion(RandomStops::new(0.4, seed))
                        .check_invariants(false);
                    for k in 0..b {
                        builder = builder.byzantine(k, t7_policy(pol, seed + k as u64));
                    }
                    let outcome = builder.build().run(3_000);
                    if outcome.gathered() {
                        ok += 1;
                        rounds.push(outcome.rounds() as f64);
                    }
                }
                table.push(vec![
                    pol.into(),
                    n.to_string(),
                    b.to_string(),
                    args.trials.to_string(),
                    pct(ok, args.trials),
                    f(mean(&rounds), 1),
                ]);
            }
        }
    }

    outln!(
        out,
        "T7 — byzantine policies vs WAIT-FREE-GATHER (round budget 3000)\n"
    );
    out.push_str(&table.render());
    outln!(
        out,
        "\nbyzantine faults are outside the paper's positive result; the rows \
         chart how far crash-tolerance stretches (statue = crash; targeted \
         adversaries require the byzantine-specific algorithms the paper \
         cites)."
    );
    let csv = write_csv(args, &table, "t7_byzantine.csv");
    outln!(out, "wrote {csv}");
}

/// F1 — Rounds-to-gather scaling with team size.
///
/// Sweeps `n` per class at `f = 0` and `f = n − 1`, under the random
/// scheduler and motion adversary.
///
/// Expected shape: rounds grow mildly with `n` (activation fairness is the
/// binding constraint, not the geometry); massive crash counts *reduce*
/// rounds (fewer live robots need to arrive); no failures anywhere.
pub(crate) fn f1_scaling(args: &Args, out: &mut String) {
    let classes = [
        Class::Multiple,
        Class::Collinear1W,
        Class::QuasiRegular,
        Class::Asymmetric,
    ];
    let sizes: &[usize] = if args.quick {
        &[6, 12]
    } else {
        &[4, 6, 8, 12, 16, 24, 32]
    };

    let mut cells = Vec::new();
    for &class in &classes {
        for &n in sizes {
            for faults in [0, n - 1] {
                let trials = (0..args.trials as u64)
                    .map(|trial| {
                        let mut s = Scenario::new(workloads::of_class(class, n, trial), trial);
                        s.scheduler = "random";
                        s.motion = "random";
                        s.faults = faults;
                        s.max_rounds = 400_000;
                        s
                    })
                    .collect();
                cells.push(((class, n, faults), trials));
            }
        }
    }

    let mut table = Table::new(&[
        "class",
        "n",
        "f",
        "gathered",
        "rounds(mean)",
        "rounds(std)",
        "travel(mean)",
    ]);
    for ((class, n, faults), cell) in run_grid(cells) {
        let ok = cell.iter().filter(|m| m.gathered).count();
        let rounds: Vec<f64> = cell.iter().map(|m| m.rounds as f64).collect();
        let travel: Vec<f64> = cell.iter().map(|m| m.total_travel).collect();
        table.push(vec![
            class.short_name().into(),
            n.to_string(),
            faults.to_string(),
            pct(ok, args.trials),
            f(mean(&rounds), 1),
            f(stddev(&rounds), 1),
            f(mean(&travel), 1),
        ]);
    }

    outln!(
        out,
        "F1 — rounds-to-gather vs team size (series: class × fault level)\n"
    );
    out.push_str(&table.render());
    let csv = write_csv(args, &table, "f1_scaling.csv");
    outln!(out, "\nwrote {csv}");
}

/// F2 — Sensitivity to the minimum movement step `δ`.
///
/// The model guarantees progress of at least `δ` per interrupted move; the
/// stingy adversary (`AlwaysDelta`) makes every move exactly `δ`, so the
/// round count scales like `diameter/δ`. The full-motion rows are the
/// control: `δ` is irrelevant when moves complete.
///
/// Expected shape: under `delta` motion, rounds ≈ c/δ (log-log slope −1);
/// under `full` motion, rounds are flat in `δ`.
pub(crate) fn f2_delta(args: &Args, out: &mut String) {
    let deltas: &[f64] = if args.quick {
        &[0.1, 0.5]
    } else {
        &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    };
    let n = 8usize;

    let mut cells = Vec::new();
    for motion in ["delta", "full"] {
        for &delta in deltas {
            let trials = (0..args.trials as u64)
                .map(|trial| {
                    let mut s = Scenario::new(workloads::random_scatter(n, 8.0, trial), trial);
                    s.motion = motion;
                    s.delta = delta;
                    s.faults = 2;
                    s.max_rounds = 1_000_000;
                    s
                })
                .collect();
            cells.push(((motion, delta), trials));
        }
    }

    let mut table = Table::new(&[
        "motion",
        "delta",
        "gathered",
        "rounds(mean)",
        "rounds×delta",
        "travel(mean)",
    ]);
    for ((motion, delta), cell) in run_grid(cells) {
        let ok = cell.iter().filter(|m| m.gathered).count();
        let rounds: Vec<f64> = cell.iter().map(|m| m.rounds as f64).collect();
        let travel: Vec<f64> = cell.iter().map(|m| m.total_travel).collect();
        table.push(vec![
            motion.into(),
            f(delta, 3),
            pct(ok, args.trials),
            f(mean(&rounds), 1),
            f(mean(&rounds) * delta, 2),
            f(mean(&travel), 1),
        ]);
    }

    outln!(out, "F2 — effect of the minimum step δ (n = {n}, f = 2)\n");
    out.push_str(&table.render());
    outln!(
        out,
        "\nunder the stingy adversary 'rounds×delta' is roughly constant \
         (rounds ∝ 1/δ); under full motion δ does not matter."
    );
    let csv = write_csv(args, &table, "f2_delta.csv");
    outln!(out, "wrote {csv}");
}

/// The class transitions Lemmas 5.3–5.9 allow.
fn f3_allowed(from: Class, to: Class) -> bool {
    use Class::*;
    match from {
        Multiple => false,
        Collinear1W => matches!(to, Multiple),
        QuasiRegular => matches!(to, Multiple | Collinear1W),
        Asymmetric => matches!(to, Multiple | Collinear1W | QuasiRegular),
        Collinear2W => to != Bivalent,
        Bivalent => to != Bivalent,
    }
}

/// F3 — The class-transition graph (claims C1 of Lemmas 5.3–5.9).
///
/// Aggregates class transitions over many executions and compares them
/// against the edges the proofs allow: `M` is absorbing, `L1W → M`,
/// `QR → {M, L1W}`, `A → {M, L1W, QR}`, `L2W → anything but B`, and no
/// edge enters `B`.
///
/// Expected shape: every observed edge is allowed; `illegal` = 0.
pub(crate) fn f3_transitions(args: &Args, out: &mut String) {
    let mut edges: BTreeMap<(Class, Class), u64> = BTreeMap::new();
    let mut runs = 0usize;
    let mut gathered = 0usize;
    for &class in &LIVE_CLASSES {
        for n in [5usize, 8, 12] {
            for seed in 0..args.trials as u64 {
                let pts = workloads::of_class(class, n, seed);
                let mut engine = Engine::builder(pts)
                    .algorithm(WaitFreeGather::default())
                    .scheduler(RandomSubsets::new(0.4, 6 * n as u64, seed))
                    .motion(RandomStops::new(0.3, seed + 1))
                    .crash_plan(RandomCrashes::new(n / 2, 0.05, seed + 2))
                    .build();
                let outcome = engine.run(200_000);
                let m = summarize(outcome, engine.trace());
                runs += 1;
                if m.gathered {
                    gathered += 1;
                }
                for (edge, count) in m.transitions {
                    *edges.entry(edge).or_insert(0) += count;
                }
            }
        }
    }

    let mut table = Table::new(&["from", "to", "count", "allowed by lemmas"]);
    let mut illegal = 0u64;
    for ((from, to), count) in &edges {
        let ok = f3_allowed(*from, *to);
        if !ok {
            illegal += count;
        }
        table.push(vec![
            from.short_name().into(),
            to.short_name().into(),
            count.to_string(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }

    outln!(
        out,
        "F3 — observed class transitions over {runs} executions ({gathered} gathered)\n"
    );
    out.push_str(&table.render());
    outln!(
        out,
        "\nillegal transitions: {illegal} (the lemmas predict 0)"
    );
    let csv = write_csv(args, &table, "f3_transitions.csv");
    outln!(out, "wrote {csv}");
    assert_eq!(illegal, 0, "lemma-violating transition observed");
}

/// Lemma 5.6's potential `φ`: the elected point's multiplicity and the sum
/// of distances to it.
fn f4_phi(config: &Configuration, tol: Tol) -> (usize, f64) {
    let elected = rules::asymmetric::elected_point(config, tol);
    (config.mult(elected, tol), config.sum_of_distances(elected))
}

/// F4 — The potential function of class `A` (Lemma 5.6, Claim C2).
///
/// Records the time series of `φ = (max multiplicity of the elected point,
/// Σ distances to it)` along asymmetric-phase executions and verifies the
/// lexicographic improvement whenever the configuration changes.
///
/// Expected shape: `mult` is non-decreasing; within equal-`mult` stretches
/// the distance sum is non-increasing; `violations` = 0.
pub(crate) fn f4_potential(args: &Args, out: &mut String) {
    let tol = Tol::default();

    // One detailed time series (figure data)…
    let pts = workloads::asymmetric(10, 2);
    let mut engine = Engine::builder(pts)
        .algorithm(WaitFreeGather::default())
        .scheduler(RoundRobin::new(3))
        .motion(RandomStops::new(0.3, 5))
        .build();
    let mut series = Table::new(&["round", "class", "elected mult", "sum dist", "weiszfeld"]);
    for round in 0..10_000u64 {
        let config = engine.configuration();
        let analysis = classify(&config, tol);
        if analysis.class != Class::Asymmetric {
            break;
        }
        let (mult, sum) = f4_phi(&config, tol);
        if engine.is_gathered() {
            break;
        }
        // Step first so the row can report the solver cost of the round it
        // describes: φ is evaluated on the start-of-round configuration,
        // the Weiszfeld count is what this round's (warm-started)
        // classification spent on it.
        let weiszfeld = engine.step().weiszfeld_iters;
        series.push(vec![
            round.to_string(),
            analysis.class.short_name().into(),
            mult.to_string(),
            f(sum, 4),
            weiszfeld.to_string(),
        ]);
    }
    outln!(out, "F4 — φ time series in class A (single seeded run)\n");
    out.push_str(&series.render());
    let csv = write_csv(args, &series, "f4_potential_series.csv");

    // …and a violation count across many runs (table data).
    let mut runs = 0usize;
    let mut violations = 0usize;
    for seed in 0..(args.trials as u64 * 4) {
        let n = 6 + (seed as usize % 7);
        let pts = workloads::asymmetric(n, seed);
        let mut engine = Engine::builder(pts)
            .algorithm(WaitFreeGather::default())
            .scheduler(RandomSubsets::new(0.4, 6 * n as u64, seed))
            .motion(RandomStops::new(0.3, seed + 9))
            .crash_plan(RandomCrashes::new(n / 3, 0.05, seed + 17))
            .build();
        runs += 1;
        let mut prev: Option<(usize, f64, Configuration)> = None;
        for _ in 0..20_000 {
            let config = engine.configuration();
            if classify(&config, tol).class != Class::Asymmetric {
                break;
            }
            let (mult, sum) = f4_phi(&config, tol);
            if let Some((pm, ps, pc)) = &prev {
                let changed = *pc != config;
                let improved = mult > *pm || (mult == *pm && sum < *ps + 1e-9);
                if changed && !improved {
                    violations += 1;
                }
            }
            prev = Some((mult, sum, config));
            if engine.is_gathered() {
                break;
            }
            engine.step();
        }
    }
    outln!(
        out,
        "\nφ-monotonicity audit: {runs} asymmetric runs, {violations} violations (expected 0)"
    );
    assert_eq!(violations, 0);
    outln!(out, "wrote {csv}");
}

/// F5's crash strategies by name, with a budget of `fbudget` crashes.
fn f5_crash_plan(strategy: &str, fbudget: usize, seed: u64) -> Box<dyn CrashPlan> {
    match strategy {
        "at-start" => Box::new(CrashAtRounds::new((0..fbudget).map(|i| (0, i)).collect())),
        "random" => Box::new(RandomCrashes::new(fbudget, 0.05, seed)),
        "leader" => Box::new(TargetedCrashes::new(
            "leader",
            fbudget,
            |round, config: &Configuration, alive: &[bool]| {
                if round % 3 != 0 {
                    return Vec::new();
                }
                let Some(target) = classify(config, Tol::default()).target else {
                    return Vec::new();
                };
                config
                    .points()
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| alive[*i] && p.within(target, 1e-6))
                    .map(|(i, _)| i)
                    .take(1)
                    .collect()
            },
        )),
        "endpoints" => Box::new(TargetedCrashes::new(
            "endpoints",
            fbudget,
            |round, config: &Configuration, alive: &[bool]| {
                if round != 0 {
                    return Vec::new();
                }
                let tol = Tol::default();
                if classify(config, tol).class != Class::Collinear2W {
                    return Vec::new();
                }
                let frame = rules::collinear2w::line_frame(config);
                config
                    .points()
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| {
                        alive[*i] && (p.within(frame.lo, tol.snap) || p.within(frame.hi, tol.snap))
                    })
                    .map(|(i, _)| i)
                    .collect()
            },
        )),
        other => panic!("unknown strategy {other}"),
    }
}

/// F5 — Crash-timing sensitivity: does *when and whom* the adversary
/// crashes matter?
///
/// Strategies compared on the same workloads: crashes at start, randomly
/// timed crashes, the leader-assassin (always kill a robot standing on the
/// current target) and the endpoint-killer (crash the extremes of
/// collinear configurations — the adversary of Lemma 5.9's contradiction).
///
/// Expected shape: 100% gathering under every strategy; targeted
/// strategies cost somewhat more rounds than random ones.
pub(crate) fn f5_crash_timing(args: &Args, out: &mut String) {
    let classes = [
        Class::Multiple,
        Class::Collinear2W,
        Class::QuasiRegular,
        Class::Asymmetric,
    ];
    let n = 9usize;
    let fbudget = 4usize;

    let mut table = Table::new(&[
        "strategy",
        "class",
        "trials",
        "gathered",
        "rounds(mean)",
        "crashed(mean)",
    ]);
    for strategy in ["at-start", "random", "leader", "endpoints"] {
        for &class in &classes {
            let mut ok = 0usize;
            let mut rounds = Vec::new();
            let mut crashed = Vec::new();
            for seed in 0..args.trials as u64 {
                let pts = workloads::of_class(class, n, seed);
                let n_actual = pts.len();
                let mut engine = Engine::builder(pts)
                    .algorithm(WaitFreeGather::default())
                    .scheduler(RoundRobin::new(3))
                    .motion(RandomStops::new(0.4, seed))
                    .crash_plan(f5_crash_plan(strategy, fbudget.min(n_actual - 1), seed))
                    .build();
                let outcome = engine.run(200_000);
                if outcome.gathered() {
                    ok += 1;
                    rounds.push(outcome.rounds() as f64);
                }
                crashed.push((n_actual - engine.live_count()) as f64);
                assert!(
                    engine.violations().is_empty(),
                    "{strategy}/{class}: {:?}",
                    engine.violations()
                );
            }
            table.push(vec![
                strategy.into(),
                class.short_name().into(),
                args.trials.to_string(),
                pct(ok, args.trials),
                f(mean(&rounds), 1),
                f(mean(&crashed), 1),
            ]);
        }
    }

    outln!(
        out,
        "F5 — crash-timing strategies vs WAIT-FREE-GATHER (n = {n}, f ≤ {fbudget})\n"
    );
    out.push_str(&table.render());
    let csv = write_csv(args, &table, "f5_crash_timing.csv");
    outln!(out, "\nwrote {csv}");
}

/// F6 — Beyond ATOM: stale observations (toward the ASYNC model).
///
/// The paper's guarantees hold in the semi-synchronous ATOM model, where
/// LOOK, COMPUTE and MOVE are atomic; the asynchronous model — where a
/// robot may move based on an arbitrarily old snapshot — is explicitly out
/// of scope. This experiment interpolates on the event-heap
/// [`AsyncEngine`]: every robot Looks in lockstep, Computes for `delay`
/// simulated seconds on the snapshot it took, then travels at unit speed
/// while a non-rigid adversary may stop it mid-flight (never before `δ`
/// progress). The snapshot a move is based on is therefore at least
/// `delay` seconds old when the move starts. `delay = 0` already
/// leaves ATOM (moves take time and are observed mid-flight); growing
/// delays measure how much of the algorithm's correctness is
/// ATOM-specific.
///
/// Expected shape: 100% at every delay. WAIT-FREE-GATHER's destinations
/// are *invariants* of the evolving configuration (the Weber point, the
/// max-multiplicity point, the elected safe point), so a stale snapshot
/// usually yields the same target as a fresh one; only class-transition
/// moments are observed late. The table reports gathered fractions and
/// ticks (event batches) to gathering — empirical support for extending
/// the result toward ASYNC (the paper's open model), where the same
/// invariance is the standard proof tool.
pub(crate) fn f6_staleness(args: &Args, out: &mut String) {
    let delays: &[u64] = if args.quick {
        &[0, 4]
    } else {
        &[0, 1, 2, 4, 8, 16]
    };
    let classes = [Class::Multiple, Class::QuasiRegular, Class::Asymmetric];
    let n = 8usize;

    let mut table = Table::new(&[
        "class",
        "delay",
        "trials",
        "gathered",
        "ticks(mean)",
        "weiszfeld/tick",
    ]);
    for &class in &classes {
        for &delay in delays {
            let cell = parallel_map((0..args.trials as u64).collect(), |&seed| {
                let pts = workloads::of_class(class, n, seed);
                let mut engine = AsyncEngine::builder(pts)
                    .algorithm(WaitFreeGather::default())
                    .timing(Timing::Phased {
                        compute_time: delay as f64,
                        speed: 1.0,
                    })
                    .pacing(Pacing::Lockstep)
                    .rigidity(Rigidity::NonRigid {
                        stop_prob: 0.4,
                        seed: seed + 1,
                    })
                    .crash_plan(RandomCrashes::new(2, 0.05, seed + 2))
                    .check_invariants(false)
                    .build();
                let outcome = engine.run(30_000);
                let metrics = summarize(outcome, engine.trace());
                (outcome, metrics.weiszfeld_per_round())
            });
            let ok = cell.iter().filter(|(o, _)| o.gathered()).count();
            let rounds: Vec<f64> = cell
                .iter()
                .filter(|(o, _)| o.gathered())
                .map(|(o, _)| o.rounds() as f64)
                .collect();
            // Solver cost per tick: how much Weiszfeld work the warm-started
            // pipeline spends as staleness grows (class QR is the only
            // initial class whose rounds exercise the numeric solver).
            let weiszfeld: Vec<f64> = cell.iter().map(|(_, w)| *w).collect();
            table.push(vec![
                class.short_name().into(),
                delay.to_string(),
                args.trials.to_string(),
                pct(ok, args.trials),
                f(mean(&rounds), 1),
                f(mean(&weiszfeld), 2),
            ]);
        }
    }

    outln!(
        out,
        "F6 — stale observations: Compute takes `delay` seconds on the Looked snapshot\n"
    );
    out.push_str(&table.render());
    outln!(
        out,
        "\nAsyncEngine, lockstep Looks, unit speed, non-rigid stops (p = 0.4): \
         even delay 0 leaves ATOM (moves are observed mid-flight); positive \
         delays step further toward ASYNC, which the paper leaves open."
    );
    let csv = write_csv(args, &table, "f6_staleness.csv");
    outln!(out, "wrote {csv}");
}

/// A1 — Ablations of the design constants DESIGN.md calls out.
///
/// Three sweeps:
///
/// 1. **Side-step fraction** (class M; paper: 1/3 of the angular gap).
///    Measured: success, rounds, and Claim C1's hazard quantity — pairs of
///    same-round movement paths crossing away from the target. Finding:
///    crossings are 0 for *every* fraction < 1, matching the geometry
///    (side-step chords stay inside the angular wedge to the next occupied
///    ray; same-ray side-steps are parallel chords; free robots move
///    radially within their own ray) — the paper's 1/3 is a conservative
///    constant chosen for its clean `3θ` case analysis, not a tight bound.
/// 2. **Tolerance policy** (strict / default / loose): the reproduction's
///    stand-in for exact arithmetic; correctness should be flat across
///    policies on generator workloads.
/// 3. **QR candidate centres** (full detector vs occupied-only): disabling
///    the unoccupied-centre candidates breaks exactly the symmetric
///    configurations, quantifying how much of class QR each candidate
///    family covers.
pub(crate) fn a1_ablations(args: &Args, out: &mut String) {
    a1_sidestep(args, out);
    a1_tolerance(args, out);
    a1_candidates(args, out);
}

/// A blocking-heavy class-M workload: a stack at the origin plus chains of
/// robots sharing rays (every outer robot starts blocked) on rays only a
/// few degrees apart — the regime where side-stepping fires every round
/// and a too-greedy fraction steps next to a neighbouring ray.
fn a1_blocked_workload(seed: u64) -> Vec<Point> {
    let mut pts = vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)];
    let base = (seed as f64) * 0.37;
    for (k, ray) in [0.0_f64, 0.12, 0.24, 2.1].iter().enumerate() {
        let theta = base + ray;
        let radii: &[f64] = if k % 2 == 0 {
            &[2.0, 4.0, 6.0]
        } else {
            &[3.0, 5.0]
        };
        for r in radii {
            pts.push(Point::new(r * theta.cos(), r * theta.sin()));
        }
    }
    pts
}

/// Runs the class-M rule with the given side-step fraction and counts
/// Claim C1's hazard quantity: pairs of same-round movement paths that
/// intersect away from the target (the proof for fraction 1/3 shows there
/// are none; intersecting paths are where an adversarial stop could merge
/// two robots and mint a second maximum).
fn a1_run_m_with_fraction(fraction: f64, seed: u64) -> (bool, u64, usize) {
    let pts = a1_blocked_workload(seed);
    let target = Point::new(0.0, 0.0);
    let tol = Tol::default();
    let mut engine = Engine::builder(pts)
        .algorithm(WaitFreeGather::default().with_sidestep_fraction(fraction))
        .scheduler(EveryRobot) // all move: maximal simultaneous paths
        .motion(RandomStops::new(0.3, seed + 1))
        .check_invariants(false)
        .build();
    let mut crossings = 0usize;
    for _ in 0..20_000 {
        if engine.is_gathered() {
            break;
        }
        let before = engine.positions().to_vec();
        engine.step();
        let after = engine.positions();
        let moved: Vec<Segment> = before
            .iter()
            .zip(after)
            .filter(|(b, a)| b.dist(**a) > 1e-9)
            .map(|(b, a)| Segment::new(*b, *a))
            .collect();
        for i in 0..moved.len() {
            for j in (i + 1)..moved.len() {
                if moved[i].intersects(&moved[j], tol) {
                    // Intersections at the target itself are the intended
                    // meeting point; anything else is the hazard.
                    let shared_at_target =
                        moved[i].b.within(target, 1e-6) && moved[j].b.within(target, 1e-6);
                    if !shared_at_target {
                        crossings += 1;
                    }
                }
            }
        }
    }
    let gathered = engine.is_gathered();
    (gathered, engine.round(), crossings)
}

/// A1a: the class-M side-step fraction.
fn a1_sidestep(args: &Args, out: &mut String) {
    let mut table = Table::new(&[
        "fraction",
        "trials",
        "gathered",
        "rounds(mean)",
        "path crossings",
    ]);
    for fraction in [0.1, 1.0 / 3.0, 0.5, 0.9, 0.999] {
        let mut ok = 0;
        let mut rounds = Vec::new();
        let mut merges = 0usize;
        for seed in 0..args.trials as u64 {
            let (g, r, m) = a1_run_m_with_fraction(fraction, seed);
            if g {
                ok += 1;
                rounds.push(r as f64);
            }
            merges += m;
        }
        table.push(vec![
            f(fraction, 3),
            args.trials.to_string(),
            pct(ok, args.trials),
            f(mean(&rounds), 1),
            merges.to_string(),
        ]);
    }
    outln!(out, "A1a — class-M side-step fraction (paper: 0.333)\n");
    out.push_str(&table.render());
    outln!(
        out,
        "\nzero crossings at every fraction: equal-radius side-steps stay \
         inside their angular wedge, so collision-freedom holds for any \
         fraction < 1 — the paper's 1/3 is conservative.\n"
    );
    write_csv(args, &table, "a1a_sidestep.csv");
}

/// A1b: the tolerance policy.
fn a1_tolerance(args: &Args, out: &mut String) {
    let mut table = Table::new(&["tolerance", "class", "trials", "gathered", "rounds(mean)"]);
    for (name, tol) in [
        ("strict", Tol::strict()),
        ("default", Tol::default()),
        ("loose", Tol::loose()),
    ] {
        for class in [Class::Multiple, Class::QuasiRegular, Class::Asymmetric] {
            let mut ok = 0;
            let mut rounds = Vec::new();
            for seed in 0..args.trials as u64 {
                let pts = workloads::of_class(class, 8, seed);
                let mut engine = Engine::builder(pts)
                    .algorithm(WaitFreeGather::new(tol))
                    .tol(tol)
                    .scheduler(RoundRobin::new(3))
                    .motion(RandomStops::new(0.4, seed))
                    .crash_plan(RandomCrashes::new(3, 0.05, seed + 1))
                    .check_invariants(false)
                    .build();
                let outcome = engine.run(30_000);
                if outcome.gathered() {
                    ok += 1;
                    rounds.push(outcome.rounds() as f64);
                }
            }
            table.push(vec![
                name.into(),
                class.short_name().into(),
                args.trials.to_string(),
                pct(ok, args.trials),
                f(mean(&rounds), 1),
            ]);
        }
    }
    outln!(out, "A1b — tolerance policy sweep\n");
    out.push_str(&table.render());
    write_csv(args, &table, "a1b_tolerance.csv");
    outln!(out);
}

/// A1c: which QR candidate family detects which QR sub-family.
fn a1_candidates(args: &Args, out: &mut String) {
    let tol = Tol::default();
    let mut table = Table::new(&["family", "full detector", "occupied-only"]);
    type Family = Box<dyn Fn(u64) -> Vec<Point>>;
    let families: [(&str, Family); 4] = [
        (
            "regular-polygon",
            Box::new(|s| workloads::regular_polygon(8, 3.0, s as f64 * 0.2)),
        ),
        (
            "biangular",
            Box::new(|_| workloads::biangular(4, 0.5, 2.0, 4.0)),
        ),
        (
            "ring+center",
            Box::new(|_| workloads::ring_with_center(7, 1, 3.0)),
        ),
        (
            "radially-converged",
            Box::new(|s| workloads::quasi_regular(4, 2, s)),
        ),
    ];
    for (name, generate) in &families {
        let mut full = 0usize;
        let mut occupied_only = 0usize;
        for seed in 0..args.trials as u64 {
            let config = Configuration::canonical(generate(seed), tol);
            if detect_quasi_regularity(&config, tol).is_some() {
                full += 1;
            }
            let occ = config
                .distinct_points()
                .into_iter()
                .any(|p| quasi_regular_with_center(&config, p, tol).is_some());
            if occ {
                occupied_only += 1;
            }
        }
        table.push(vec![
            (*name).into(),
            pct(full, args.trials),
            pct(occupied_only, args.trials),
        ]);
    }
    outln!(
        out,
        "A1c — QR detection candidate ablation (Lemma 3.4 alone vs full)\n"
    );
    out.push_str(&table.render());
    write_csv(args, &table, "a1c_candidates.csv");
    outln!(
        out,
        "\nunoccupied-centre candidates (SEC centre + Weiszfeld) are what \
         extend Lemma 3.4's occupied-centre test to the symmetric families."
    );
}
