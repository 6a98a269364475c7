//! SWEEP — parameter-space cartography on the lockstep mega-sweep engine.
//!
//! T1 samples Theorem 5.1's claim at 800 cells; this driver maps the
//! whole phase space at an order of magnitude more: every scenario family
//! (the six configuration classes plus the grid-constrained and stand-up
//! related-work families) × team size × scheduler × motion floor `δ` ×
//! *every* crash count `f ∈ 0..n-1`, several trials each — tens of
//! thousands of scenarios, executed by
//! [`gather_bench::sweep::run_batched_on`] (lockstep batches, one recycled
//! arena per worker, admission memoisation across the grid cells that
//! share an initial configuration; bit-identical to the sequential path,
//! see B10). The `async` scheduler column rides the same driver:
//! `run_batched_on` routes those scenarios to the event-heap engine with
//! a tick budget in place of the round budget (a tick is one event batch,
//! ~`1/n` of a round's work).
//!
//! Outputs, committed in full mode:
//!
//! * `results/sweep_phase.json` — one aggregate row per grid cell
//!   (gathered fraction, mean rounds, mean travel over trials);
//! * `results/sweep_phase.svg` — a heatmap sheet (family × scheduler
//!   panels; `δ` × crash-fraction cells; colour = log₁₀(1 + mean rounds
//!   to gather)), the phase diagram's visual: gathering everywhere
//!   (Theorem 5.1 for the non-bivalent classes; the bivalent class also
//!   converges here because Lemma 5.2's impossibility needs the
//!   group-serialising adversary, which none of the sampled schedulers
//!   is — see T3 for that adversary), with cost growing toward the
//!   single-activation scheduler and the stingy motion floor, and the
//!   async column visibly hotter (tick counts, not round counts).
//!
//! `--quick` runs a reduced grid into `--out` and leaves the committed
//! artefacts untouched. Audits are off ([`Scenario::audit`]): the sweep
//! measures outcomes, not monitors, and B10 pins batch ≡ sequential.

use gather_bench::pool;
use gather_bench::runner::Scenario;
use gather_bench::sweep::run_batched_on;
use gather_bench::table::{f, pct, Table};
use gather_bench::Args;
use gather_config::Class;
use gather_geom::Point;
use gather_viz::{render_heatmap_sheet, HeatmapPanel, HeatmapStyle};
use gather_workloads as workloads;
use std::collections::BTreeMap;

/// Lockstep lanes per in-flight batch (matches B10).
const WIDTH: usize = 16;
/// Round budget: two orders of magnitude above the typical gathering run
/// in the grid, so round-limit cells mark genuinely slow corners of the
/// phase space (deep serialisation × stingy motion), not noise.
const MAX_ROUNDS: u64 = 2_000;
/// Tick budget for the async column. A tick is one event batch — usually
/// one robot's phase — so the budget is `MAX_ROUNDS` scaled by a typical
/// team size rather than the round budget verbatim.
const MAX_TICKS: u64 = 40_000;

const SCHEDULERS: [&str; 5] = ["full", "round-robin", "single", "random", "async"];
const DELTAS: [f64; 4] = [0.01, 0.05, 0.2, 0.5];
/// Crash-fraction buckets for the heatmap's x axis (`f / (n-1)`).
const FRAC_BINS: usize = 8;

/// One row-group of the sweep: the six configuration classes of the paper
/// plus the two related-work scenario families.
#[derive(Clone, Copy)]
struct Family {
    name: &'static str,
    /// `None` for the two non-class families.
    class: Option<Class>,
    algorithm: &'static str,
}

fn families() -> Vec<Family> {
    let mut out: Vec<Family> = Class::all()
        .iter()
        .map(|&c| Family {
            name: c.short_name(),
            class: Some(c),
            algorithm: "wait-free-gather",
        })
        .collect();
    // Grid-constrained gathering (Bose et al., arXiv:1709.00877): robots
    // on ℤ², the grid rule, the grid model's common compass (pinned by
    // `Scenario::frame_policy`).
    out.push(Family {
        name: "grid",
        class: None,
        algorithm: "grid-march",
    });
    // Stand-up indulgent gathering (Bramas et al., arXiv:2302.03466):
    // scattered teams under the paper's algorithm; the strengthened
    // gather-at-the-casualty predicate is mapped by `f7_boundary`, the
    // sweep charts the plain-gathering cost of the same scenarios.
    out.push(Family {
        name: "standup",
        class: None,
        algorithm: "wait-free-gather",
    });
    out
}

fn family_initial(fam: &Family, n: usize, trial: u64) -> Vec<Point> {
    match (fam.name, fam.class) {
        (_, Some(class)) => workloads::of_class(class, n, trial),
        ("grid", None) => {
            let extent = 10.max((n as f64).sqrt().ceil() as i64);
            workloads::lattice_scatter(n, extent, trial)
        }
        _ => workloads::random_scatter(n, 10.0, trial),
    }
}

struct Dims {
    ns: Vec<usize>,
    schedulers: Vec<&'static str>,
    deltas: Vec<f64>,
    trials: u64,
}

impl Dims {
    fn new(quick: bool) -> Self {
        if quick {
            Dims {
                ns: vec![8],
                schedulers: vec!["full", "round-robin", "async"],
                deltas: vec![0.05, 0.5],
                trials: 1,
            }
        } else {
            Dims {
                ns: vec![8, 12, 16, 20],
                schedulers: SCHEDULERS.to_vec(),
                deltas: DELTAS.to_vec(),
                trials: 2,
            }
        }
    }
}

/// One aggregate cell of the phase diagram.
#[derive(Default)]
struct CellAgg {
    runs: u64,
    gathered: u64,
    rounds: f64,
    travel: f64,
}

type CellKey = (usize, usize, usize, usize, usize); // family, n, sched, delta, f

fn main() {
    let args = Args::parse();
    let dims = Dims::new(args.quick);
    let families = families();

    // Scenario order keeps every cell sharing an initial configuration
    // consecutive (scheduler × δ × f inside one (family, n, trial)), which
    // is the layout the batch admission memo deduplicates.
    let mut scenarios: Vec<(CellKey, Scenario)> = Vec::new();
    for (ci, fam) in families.iter().enumerate() {
        for (ni, &n) in dims.ns.iter().enumerate() {
            for trial in 0..dims.trials {
                let initial = family_initial(fam, n, trial);
                for (si, &sched) in dims.schedulers.iter().enumerate() {
                    for (di, &delta) in dims.deltas.iter().enumerate() {
                        for faults in 0..n {
                            let mut s = Scenario::new(initial.clone(), trial);
                            s.algorithm = fam.algorithm;
                            s.scheduler = sched;
                            s.motion = "random";
                            s.delta = delta;
                            s.faults = faults;
                            s.max_rounds = if s.is_async() { MAX_TICKS } else { MAX_ROUNDS };
                            s.audit = false;
                            scenarios.push(((ci, ni, si, di, faults), s));
                        }
                    }
                }
            }
        }
    }
    let specs: Vec<Scenario> = scenarios.iter().map(|(_, s)| s.clone()).collect();

    let pool = pool::global();
    println!(
        "SWEEP — phase cartography: {} scenarios ({} families × n {:?} × {} schedulers × {} δ × f 0..n-1 × {} trial(s)), {} worker(s), batch width {WIDTH}",
        specs.len(),
        families.len(),
        dims.ns,
        dims.schedulers.len(),
        dims.deltas.len(),
        dims.trials,
        pool.threads()
    );
    let start = std::time::Instant::now();
    let results = run_batched_on(pool, &specs, WIDTH);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "executed in {elapsed:.1}s ({:.0} scenarios/sec)",
        specs.len() as f64 / elapsed
    );

    // --- Aggregate per grid cell ---------------------------------------
    let mut cells: BTreeMap<CellKey, CellAgg> = BTreeMap::new();
    for ((key, _), m) in scenarios.iter().zip(&results) {
        let agg = cells.entry(*key).or_default();
        agg.runs += 1;
        agg.gathered += m.gathered as u64;
        agg.rounds += m.rounds as f64;
        agg.travel += m.total_travel;
    }

    // --- Console digest: family × scheduler -----------------------------
    let mut digest = Table::new(&["family", "scheduler", "gathered", "mean rounds"]);
    for (ci, fam) in families.iter().enumerate() {
        for (si, &sched) in dims.schedulers.iter().enumerate() {
            let (mut runs, mut gathered, mut rounds) = (0u64, 0u64, 0.0f64);
            for (key, agg) in &cells {
                if key.0 == ci && key.2 == si {
                    runs += agg.runs;
                    gathered += agg.gathered;
                    rounds += agg.rounds;
                }
            }
            digest.push(vec![
                fam.name.to_string(),
                sched.to_string(),
                pct(gathered as usize, runs as usize),
                f(rounds / runs as f64, 1),
            ]);
        }
    }
    println!();
    digest.print();

    // --- JSON record -----------------------------------------------------
    let mut json = format!(
        "{{\n  \"sweep\": \"phase_cartography\",\n  \"scenarios\": {},\n  \"trials\": {},\n  \"max_rounds\": {MAX_ROUNDS},\n  \"batch_width\": {WIDTH},\n  \"motion\": \"random\",\n  \"cells\": [\n",
        specs.len(),
        dims.trials
    );
    let mut first = true;
    for (key, agg) in &cells {
        let (ci, ni, si, di, faults) = *key;
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"scheduler\": \"{}\", \"delta\": {}, \"f\": {}, \"gathered\": {:.3}, \"mean_rounds\": {:.1}, \"mean_travel\": {:.2}}}",
            families[ci].name,
            dims.ns[ni],
            dims.schedulers[si],
            dims.deltas[di],
            faults,
            agg.gathered as f64 / agg.runs as f64,
            agg.rounds / agg.runs as f64,
            agg.travel / agg.runs as f64,
        ));
    }
    json.push_str("\n  ]\n}\n");

    // --- Heatmap sheet: family × scheduler panels -----------------------
    // x: crash fraction f/(n-1) bucketed; y: δ; colour: log10(1 + mean
    // rounds), one shared scale across panels (the async column reads
    // hotter by construction: its unit is ticks, not rounds).
    let mut panels = Vec::new();
    for (ci, fam) in families.iter().enumerate() {
        for (si, &sched) in dims.schedulers.iter().enumerate() {
            let mut sums = vec![vec![(0.0f64, 0u64); FRAC_BINS]; dims.deltas.len()];
            for (key, agg) in &cells {
                if key.0 != ci || key.2 != si {
                    continue;
                }
                let n = dims.ns[key.1];
                let frac = if n > 1 {
                    key.4 as f64 / (n - 1) as f64
                } else {
                    0.0
                };
                let bin = ((frac * FRAC_BINS as f64) as usize).min(FRAC_BINS - 1);
                let slot = &mut sums[key.3][bin];
                slot.0 += agg.rounds;
                slot.1 += agg.runs;
            }
            panels.push(HeatmapPanel {
                title: format!("{} / {}", fam.name, sched),
                cells: sums
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|(rounds, runs)| {
                                (*runs > 0).then(|| (1.0 + rounds / *runs as f64).log10())
                            })
                            .collect()
                    })
                    .collect(),
            });
        }
    }
    let x_ticks: Vec<String> = (0..FRAC_BINS)
        .map(|b| format!("{:.2}", b as f64 / FRAC_BINS as f64))
        .collect();
    let y_ticks: Vec<String> = dims.deltas.iter().map(|d| format!("δ={d}")).collect();
    let svg = render_heatmap_sheet(
        &panels,
        &x_ticks,
        &y_ticks,
        &HeatmapStyle {
            columns: dims.schedulers.len(),
            scale_label: "log10(1 + mean rounds to gather)".into(),
            ..HeatmapStyle::default()
        },
    );

    // Full runs commit the phase diagram under results/; quick runs write
    // a reduced grid under a distinct name into --out, so the committed
    // cartography stays untouched even when --out is results/ (which is
    // what run_experiments.sh passes).
    let (dir, base) = if args.quick {
        (args.out_dir.clone(), "sweep_phase_quick")
    } else {
        (std::path::PathBuf::from("results"), "sweep_phase")
    };
    std::fs::create_dir_all(&dir).expect("create output dir");
    let json_path = dir.join(format!("{base}.json"));
    std::fs::write(&json_path, &json).expect("write phase JSON");
    let svg_path = dir.join(format!("{base}.svg"));
    std::fs::write(&svg_path, &svg).expect("write phase SVG");
    println!("\nwrote {}", json_path.display());
    println!("wrote {}", svg_path.display());
    if args.quick {
        println!("(quick run; committed results/sweep_phase.* left untouched)");
    }
}
