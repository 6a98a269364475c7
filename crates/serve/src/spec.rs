//! The wire-level request model: JSON scenario specs, validated and
//! mapped onto [`gather_bench::runner::Scenario`].
//!
//! A spec is pure data — `(workload, class, n, seed, faults, algorithm,
//! scheduler, motion, delta, max_rounds, rigidity, speed_skew)` — and the
//! mapping to an initial
//! configuration goes through `gather_workloads::by_name`, so a served
//! run is *defined* to be the same pure function of its spec as an
//! in-process experiment run. That definition is what the bit-identity
//! contract (DESIGN.md §11) tests against.
//!
//! Validation is strict and total: unknown fields are rejected (a typoed
//! `"classs"` must not silently fall back to a default), every numeric
//! range is checked, and all failures surface as `Err` strings for the
//! server to turn into HTTP 400 — a malformed spec can never panic a
//! worker.

use crate::json::Json;
use gather_bench::factory;
use gather_bench::runner::Scenario;
use gather_config::Class;
use gather_workloads as workloads;

/// Largest admissible team size (a LOOK is Θ(n log n); this caps the cost
/// any single spec can demand from a worker).
pub const MAX_N: usize = 512;
/// Largest admissible round budget per scenario.
pub const MAX_ROUNDS: u64 = 500_000;
/// Longest admissible per-request deadline.
pub const MAX_DEADLINE_MS: u64 = 600_000;

/// The JSON fields a spec may carry.
const SPEC_FIELDS: [&str; 12] = [
    "workload",
    "class",
    "n",
    "seed",
    "faults",
    "algorithm",
    "scheduler",
    "motion",
    "delta",
    "max_rounds",
    "rigidity",
    "speed_skew",
];

/// One validated scenario specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Workload family (see [`workloads::WORKLOAD_NAMES`]).
    pub workload: String,
    /// Target class for the `"class"` workload.
    pub class: Option<Class>,
    /// Team size.
    pub n: usize,
    /// Seed for every randomised component.
    pub seed: u64,
    /// Crash faults to inject.
    pub faults: usize,
    /// Algorithm name (validated against [`factory::ALGORITHMS`]).
    pub algorithm: &'static str,
    /// Scheduler name (validated against [`factory::SCHEDULERS`], plus the
    /// `"async"` event-heap scheduler which lives outside the round-based
    /// table).
    pub scheduler: &'static str,
    /// Motion-adversary name (validated against [`factory::MOTIONS`]).
    pub motion: &'static str,
    /// Minimum movement step δ.
    pub delta: f64,
    /// Round budget.
    pub max_rounds: u64,
    /// Rigid motion (ASYNC only; non-rigid moves may stop early, δ floor).
    pub rigid: bool,
    /// Per-robot speed-multiplier spread (ASYNC only; 0 = uniform speeds).
    pub speed_skew: f64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        // Mirrors `Scenario::new`'s harness defaults.
        ScenarioSpec {
            workload: "class".to_string(),
            class: Some(Class::Asymmetric),
            n: 8,
            seed: 0,
            faults: 0,
            algorithm: "wait-free-gather",
            scheduler: "full",
            motion: "full",
            delta: 0.05,
            max_rounds: 60_000,
            rigid: true,
            speed_skew: 0.0,
        }
    }
}

/// Finds `name` in a static name table, returning the table's `'static`
/// entry (so [`Scenario`]'s `&'static str` fields can be populated from
/// owned JSON strings).
fn lookup(kind: &str, name: &str, table: &[&'static str]) -> Result<&'static str, String> {
    table
        .iter()
        .find(|&&t| t == name)
        .copied()
        .ok_or_else(|| format!("unknown {kind} {name:?}; known: {}", table.join(", ")))
}

fn field_u64(v: &Json, key: &str, max: u64) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => {
            let x = x
                .as_u64()
                .ok_or_else(|| format!("{key:?} must be a non-negative integer"))?;
            if x > max {
                return Err(format!("{key:?} must be <= {max}, got {x}"));
            }
            Ok(Some(x))
        }
    }
}

impl ScenarioSpec {
    /// Parses and validates one spec object.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint (unknown field, missing or
    /// out-of-range value, unknown name).
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, String> {
        if !v.is_object() {
            return Err("a scenario spec must be a JSON object".to_string());
        }
        if let Json::Obj(members) = v {
            for (key, _) in members {
                if !SPEC_FIELDS.contains(&key.as_str()) {
                    return Err(format!(
                        "unknown spec field {key:?}; known: {}",
                        SPEC_FIELDS.join(", ")
                    ));
                }
            }
        }
        let mut spec = ScenarioSpec::default();
        if let Some(w) = v.get("workload") {
            spec.workload = w
                .as_str()
                .ok_or("\"workload\" must be a string")?
                .to_string();
            if !workloads::WORKLOAD_NAMES.contains(&spec.workload.as_str()) {
                return Err(format!(
                    "unknown workload {:?}; known: {}",
                    spec.workload,
                    workloads::WORKLOAD_NAMES.join(", ")
                ));
            }
            if spec.workload != "class" {
                spec.class = None;
            }
        }
        if let Some(c) = v.get("class") {
            let name = c.as_str().ok_or("\"class\" must be a string")?;
            spec.class =
                Some(Class::from_short_name(name).ok_or_else(|| {
                    format!("unknown class {name:?} (use B, M, L1W, L2W, QR, A)")
                })?);
        }
        if let Some(n) = field_u64(v, "n", MAX_N as u64)? {
            spec.n = n as usize;
        }
        if spec.n < 4 {
            return Err(format!("\"n\" must be in 4..={MAX_N}, got {}", spec.n));
        }
        if let Some(seed) = field_u64(v, "seed", u64::MAX)? {
            spec.seed = seed;
        }
        if let Some(faults) = field_u64(v, "faults", MAX_N as u64)? {
            spec.faults = faults as usize;
        }
        if spec.faults >= spec.n {
            return Err(format!(
                "\"faults\" must be < n (crashing everyone forfeits gathering), got {} of {}",
                spec.faults, spec.n
            ));
        }
        if let Some(a) = v.get("algorithm") {
            let name = a.as_str().ok_or("\"algorithm\" must be a string")?;
            spec.algorithm = lookup("algorithm", name, &factory::ALGORITHMS)?;
        }
        if let Some(s) = v.get("scheduler") {
            let name = s.as_str().ok_or("\"scheduler\" must be a string")?;
            // The event-heap engine is not a round-based `Scheduler`
            // implementation, so it is special-cased ahead of the table.
            spec.scheduler = if name == "async" {
                "async"
            } else {
                lookup("scheduler", name, &factory::SCHEDULERS)?
            };
        }
        if let Some(r) = v.get("rigidity") {
            let name = r.as_str().ok_or("\"rigidity\" must be a string")?;
            if spec.scheduler != "async" {
                return Err(format!(
                    "\"rigidity\" requires \"scheduler\":\"async\" (round-based \
                     schedulers delegate motion to the \"motion\" adversary), \
                     got scheduler {:?}",
                    spec.scheduler
                ));
            }
            spec.rigid = match name {
                "rigid" => true,
                "non-rigid" => false,
                other => {
                    return Err(format!(
                        "unknown rigidity {other:?}; known: rigid, non-rigid"
                    ))
                }
            };
        }
        if let Some(s) = v.get("speed_skew") {
            let s = s.as_f64().ok_or("\"speed_skew\" must be a number")?;
            if spec.scheduler != "async" {
                return Err(format!(
                    "\"speed_skew\" requires \"scheduler\":\"async\" (round-based \
                     schedulers have no per-robot speeds), got scheduler {:?}",
                    spec.scheduler
                ));
            }
            if !(0.0..=10.0).contains(&s) {
                return Err(format!("\"speed_skew\" must be in [0, 10], got {s}"));
            }
            spec.speed_skew = s;
        }
        if let Some(m) = v.get("motion") {
            let name = m.as_str().ok_or("\"motion\" must be a string")?;
            spec.motion = lookup("motion", name, &factory::MOTIONS)?;
        }
        if let Some(d) = v.get("delta") {
            let d = d.as_f64().ok_or("\"delta\" must be a number")?;
            if !(d > 0.0 && d <= 10.0) {
                return Err(format!("\"delta\" must be in (0, 10], got {d}"));
            }
            spec.delta = d;
        }
        if let Some(r) = field_u64(v, "max_rounds", MAX_ROUNDS)? {
            if r == 0 {
                return Err("\"max_rounds\" must be >= 1".to_string());
            }
            spec.max_rounds = r;
        }
        Ok(spec)
    }

    /// Materialises the spec into a runnable [`Scenario`] (generating the
    /// initial configuration from the workload family).
    ///
    /// # Errors
    ///
    /// Propagates workload-constraint violations (e.g. class `B` with odd
    /// `n`) — still a client error, still HTTP 400.
    pub fn to_scenario(&self) -> Result<Scenario, String> {
        let initial = workloads::by_name(&self.workload, self.class, self.n, self.seed)?;
        Ok(Scenario {
            initial,
            algorithm: self.algorithm,
            scheduler: self.scheduler,
            motion: self.motion,
            faults: self.faults,
            delta: self.delta,
            max_rounds: self.max_rounds,
            seed: self.seed,
            // ASYNC runs skip the ATOM-model invariant monitors: Lemma 5.1
            // and the never-bivalent property are round-model theorems and
            // mid-flight configurations violate them legitimately.
            audit: self.scheduler != "async",
            rigid: self.rigid,
            speed_skew: self.speed_skew,
        })
    }

    /// Canonical byte encoding of the spec's *typed* fields, the input to
    /// the result-cache key ([`crate::cache::spec_key`]).
    ///
    /// Canonicalisation happens in [`ScenarioSpec::from_json`], not here:
    /// parsing collapses JSON-level degrees of freedom (member order,
    /// whitespace, number spellings like `1e1` vs `10`, defaulted vs
    /// explicit fields) into one typed value, so two bodies describing the
    /// same scenario encode to the same bytes. Every field that influences
    /// the run is included — strings NUL-terminated (self-delimiting
    /// against concatenation collisions), integers little-endian, `delta`
    /// by its exact bit pattern (the engine is a pure function of bits,
    /// not of approximate values).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.extend_from_slice(self.workload.as_bytes());
        out.push(0);
        match self.class {
            Some(c) => out.extend_from_slice(c.short_name().as_bytes()),
            None => out.push(b'-'),
        }
        out.push(0);
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.faults as u64).to_le_bytes());
        out.extend_from_slice(self.algorithm.as_bytes());
        out.push(0);
        out.extend_from_slice(self.scheduler.as_bytes());
        out.push(0);
        out.extend_from_slice(self.motion.as_bytes());
        out.push(0);
        out.extend_from_slice(&self.delta.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max_rounds.to_le_bytes());
        out.push(self.rigid as u8);
        out.extend_from_slice(&self.speed_skew.to_bits().to_le_bytes());
        out
    }

    /// The trace/v2 document header line for this spec's traced run
    /// (newline included, so the v1 round lines concatenate directly):
    /// the pinned schema tag, the canonical spec JSON, the seed and the
    /// producing engine. `POST /v1/trace` emits exactly this header, which
    /// is what lets a captured corpus name the execution it came from.
    pub fn trace_header(&self) -> String {
        let engine = if self.scheduler == "async" {
            "async"
        } else {
            "sync"
        };
        let mut header = gather_sim::trace::v2_header(&self.to_json(), self.seed, engine);
        header.push('\n');
        header
    }

    /// The spec as its canonical JSON object (inverse of
    /// [`ScenarioSpec::from_json`]; used by the load generator to build
    /// request bodies).
    pub fn to_json(&self) -> String {
        let class = match self.class {
            Some(c) => format!("\"class\":\"{}\",", c.short_name()),
            None => String::new(),
        };
        // The ASYNC-only knobs are emitted only for async specs: round-based
        // specs carrying them would fail `from_json`'s combo validation.
        let async_knobs = if self.scheduler == "async" {
            format!(
                ",\"rigidity\":\"{}\",\"speed_skew\":{:?}",
                if self.rigid { "rigid" } else { "non-rigid" },
                self.speed_skew
            )
        } else {
            String::new()
        };
        format!(
            "{{\"workload\":\"{}\",{class}\"n\":{},\"seed\":{},\"faults\":{},\
             \"algorithm\":\"{}\",\"scheduler\":\"{}\",\"motion\":\"{}\",\
             \"delta\":{:?},\"max_rounds\":{}{async_knobs}}}",
            self.workload,
            self.n,
            self.seed,
            self.faults,
            self.algorithm,
            self.scheduler,
            self.motion,
            self.delta,
            self.max_rounds
        )
    }
}

/// A validated `POST /run` body: one or many scenario specs plus an
/// optional queue-wait deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The scenarios to execute, in order.
    pub scenarios: Vec<ScenarioSpec>,
    /// Milliseconds this request may wait in the admission queue before
    /// the dispatcher discards it (server default when absent).
    pub deadline_ms: Option<u64>,
}

impl RunRequest {
    /// Parses a request body: either a single bare spec object or
    /// `{"scenarios": [spec, ...], "deadline_ms": N}`.
    ///
    /// # Errors
    ///
    /// Describes the first syntactic or semantic violation (HTTP 400).
    pub fn parse(body: &str, max_batch: usize) -> Result<RunRequest, String> {
        let v = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let (specs_json, deadline_ms): (Vec<&Json>, Option<u64>) = if v.get("scenarios").is_some() {
            let arr = v
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or("\"scenarios\" must be an array")?;
            if let Json::Obj(members) = &v {
                for (key, _) in members {
                    if key != "scenarios" && key != "deadline_ms" {
                        return Err(format!("unknown request field {key:?}"));
                    }
                }
            }
            let deadline = field_u64(&v, "deadline_ms", MAX_DEADLINE_MS)?;
            (arr.iter().collect(), deadline)
        } else {
            (vec![&v], None)
        };
        if specs_json.is_empty() {
            return Err("\"scenarios\" must not be empty".to_string());
        }
        if specs_json.len() > max_batch {
            return Err(format!(
                "batch of {} scenarios exceeds the per-request limit of {max_batch}",
                specs_json.len()
            ));
        }
        let scenarios = specs_json
            .into_iter()
            .enumerate()
            .map(|(i, s)| ScenarioSpec::from_json(s).map_err(|e| format!("scenario[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunRequest {
            scenarios,
            deadline_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_harness() {
        let spec = ScenarioSpec::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(spec, ScenarioSpec::default());
        let scenario = spec.to_scenario().unwrap();
        assert_eq!(scenario.algorithm, "wait-free-gather");
        assert_eq!(scenario.delta, 0.05);
        assert_eq!(scenario.max_rounds, 60_000);
        assert_eq!(scenario.initial.len(), 8);
    }

    #[test]
    fn full_spec_parses_and_maps() {
        let body = r#"{"workload":"class","class":"QR","n":12,"seed":9,"faults":2,
                       "algorithm":"center-of-gravity","scheduler":"round-robin",
                       "motion":"delta","delta":0.1,"max_rounds":500}"#;
        let spec = ScenarioSpec::from_json(&Json::parse(body).unwrap()).unwrap();
        assert_eq!(spec.class, Some(Class::QuasiRegular));
        assert_eq!(spec.n, 12);
        assert_eq!(spec.faults, 2);
        let scenario = spec.to_scenario().unwrap();
        assert_eq!(scenario.initial.len(), 12);
        assert_eq!(scenario.scheduler, "round-robin");
        // The scenario is reproducible: same spec, same configuration.
        assert_eq!(scenario.initial, spec.to_scenario().unwrap().initial);
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = ScenarioSpec {
            n: 16,
            seed: 42,
            delta: 0.125,
            ..ScenarioSpec::default()
        };
        let parsed = ScenarioSpec::from_json(&Json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        let scatter = ScenarioSpec {
            workload: "scatter".to_string(),
            class: None,
            n: 6,
            ..ScenarioSpec::default()
        };
        let parsed = ScenarioSpec::from_json(&Json::parse(&scatter.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, scatter);
    }

    #[test]
    fn async_specs_parse_and_round_trip() {
        let body = r#"{"workload":"lattice","n":9,"seed":7,"faults":2,
                       "algorithm":"grid-march","scheduler":"async",
                       "rigidity":"non-rigid","speed_skew":0.5,"max_rounds":900}"#;
        let spec = ScenarioSpec::from_json(&Json::parse(body).unwrap()).unwrap();
        assert_eq!(spec.scheduler, "async");
        assert!(!spec.rigid);
        assert_eq!(spec.speed_skew, 0.5);
        let scenario = spec.to_scenario().unwrap();
        assert!(scenario.is_async());
        assert!(!scenario.audit, "async runs must not audit ATOM invariants");
        assert!(!scenario.rigid);
        assert_eq!(scenario.speed_skew, 0.5);
        // to_json is from_json's inverse for async specs too.
        let parsed = ScenarioSpec::from_json(&Json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // The async knobs feed the cache key: rigid vs non-rigid and skew
        // must produce distinct canonical bytes.
        let rigid = ScenarioSpec {
            rigid: true,
            ..spec.clone()
        };
        assert_ne!(spec.canonical_bytes(), rigid.canonical_bytes());
        let skewed = ScenarioSpec {
            speed_skew: 1.0,
            ..spec.clone()
        };
        assert_ne!(spec.canonical_bytes(), skewed.canonical_bytes());
        // Round-based specs never emit the async-only fields.
        assert!(!ScenarioSpec::default().to_json().contains("rigidity"));
    }

    #[test]
    fn async_knobs_without_async_scheduler_are_rejected() {
        for (body, needle) in [
            (
                r#"{"rigidity":"non-rigid"}"#,
                "requires \"scheduler\":\"async\"",
            ),
            (r#"{"speed_skew":1}"#, "requires \"scheduler\":\"async\""),
            (
                r#"{"scheduler":"full","rigidity":"rigid"}"#,
                "requires \"scheduler\":\"async\"",
            ),
            (
                r#"{"scheduler":"async","rigidity":"bendy"}"#,
                "unknown rigidity",
            ),
            (
                r#"{"scheduler":"async","speed_skew":11}"#,
                "must be in [0, 10]",
            ),
            (
                r#"{"scheduler":"async","speed_skew":-0.5}"#,
                "must be in [0, 10]",
            ),
        ] {
            let err = ScenarioSpec::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(
                err.contains(needle),
                "{body}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for (body, needle) in [
            (r#"{"classs":"QR"}"#, "unknown spec field"),
            (r#"{"n":3}"#, "must be in 4"),
            (r#"{"n":100000}"#, "must be <="),
            (r#"{"n":8,"faults":8}"#, "faults"),
            (r#"{"class":"Z"}"#, "unknown class"),
            (r#"{"workload":"warp"}"#, "unknown workload"),
            (r#"{"algorithm":"magic"}"#, "unknown algorithm"),
            (r#"{"scheduler":"magic"}"#, "unknown scheduler"),
            (r#"{"motion":"magic"}"#, "unknown motion"),
            (r#"{"delta":0}"#, "delta"),
            (r#"{"delta":-1}"#, "delta"),
            (r#"{"max_rounds":0}"#, ">= 1"),
            (r#"{"max_rounds":1e12}"#, "must be <="),
            (r#"{"n":"eight"}"#, "integer"),
            (r#"[1,2]"#, "object"),
        ] {
            let err = Json::parse(body)
                .map_err(|e| e.to_string())
                .and_then(|v| ScenarioSpec::from_json(&v).map(|_| ()));
            match err {
                Err(e) => assert!(
                    e.contains(needle),
                    "{body}: error {e:?} should mention {needle:?}"
                ),
                Ok(()) => panic!("{body} should be rejected"),
            }
        }
    }

    #[test]
    fn run_request_accepts_bare_and_batched_bodies() {
        let bare = RunRequest::parse(r#"{"n":8,"seed":1}"#, 4).unwrap();
        assert_eq!(bare.scenarios.len(), 1);
        assert_eq!(bare.deadline_ms, None);
        let batch = RunRequest::parse(
            r#"{"scenarios":[{"n":8},{"n":9,"seed":2}],"deadline_ms":1000}"#,
            4,
        )
        .unwrap();
        assert_eq!(batch.scenarios.len(), 2);
        assert_eq!(batch.scenarios[1].n, 9);
        assert_eq!(batch.deadline_ms, Some(1000));
    }

    #[test]
    fn run_request_rejects_bad_batches() {
        assert!(RunRequest::parse("not json", 4)
            .unwrap_err()
            .contains("JSON"));
        assert!(RunRequest::parse(r#"{"scenarios":[]}"#, 4)
            .unwrap_err()
            .contains("empty"));
        assert!(RunRequest::parse(r#"{"scenarios":[{},{},{}]}"#, 2)
            .unwrap_err()
            .contains("limit"));
        assert!(RunRequest::parse(r#"{"scenarios":[{"n":1}]}"#, 4)
            .unwrap_err()
            .contains("scenario[0]"));
        assert!(RunRequest::parse(r#"{"scenarios":[{}],"extra":1}"#, 4)
            .unwrap_err()
            .contains("unknown request field"));
        assert!(RunRequest::parse(r#"{"scenarios":{}}"#, 4)
            .unwrap_err()
            .contains("array"));
    }

    #[test]
    fn trace_header_names_spec_seed_and_engine() {
        let spec = ScenarioSpec {
            seed: 42,
            ..ScenarioSpec::default()
        };
        let header = spec.trace_header();
        assert!(header.starts_with("{\"schema\":\"trace/v2\",\"spec\":"));
        assert!(header.contains(&format!("\"spec\":{}", spec.to_json())));
        assert!(header.ends_with(",\"seed\":42,\"engine\":\"sync\"}\n"));
        let async_spec = ScenarioSpec {
            scheduler: "async",
            ..ScenarioSpec::default()
        };
        assert!(async_spec
            .trace_header()
            .ends_with("\"engine\":\"async\"}\n"));
    }

    #[test]
    fn class_b_odd_n_is_a_client_error_not_a_panic() {
        let spec = ScenarioSpec {
            class: Some(Class::Bivalent),
            n: 7,
            ..ScenarioSpec::default()
        };
        assert!(spec.to_scenario().unwrap_err().contains("even"));
    }
}
