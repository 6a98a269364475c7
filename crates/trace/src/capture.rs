//! Service-backed corpus capture.
//!
//! Capture goes through the real HTTP service — `POST /v1/trace` against
//! an in-process [`Server`] — rather than calling `run_traced` directly,
//! so a captured corpus exercises (and is certified by) the same wire
//! path the deployed service serves: validation, the trace/v2 header,
//! chunked streaming and the result cache. The bit-identity contract
//! makes the two routes byte-equal anyway; capturing over the wire is
//! what *checks* that.

use gather_config::Class;
use gather_serve::{Client, ScenarioSpec, ServeConfig, Server};

/// The standard six-class capture matrix: one execution per paper class
/// (`n` chosen to satisfy each class's parity constraint), mirroring the
/// service round-trip tests.
pub const SIX_CLASS_MATRIX: [(Class, usize); 6] = [
    (Class::Bivalent, 8),
    (Class::Multiple, 9),
    (Class::Collinear1W, 8),
    (Class::Collinear2W, 8),
    (Class::QuasiRegular, 9),
    (Class::Asymmetric, 8),
];

/// The six-class corpus specs for one `(seed, max_rounds)` choice.
///
/// The harness defaults (FSYNC, unrestricted motion) gather in a round
/// or two — traces with nothing to analyze. The standard corpus instead
/// runs SSYNC round-robin activation under the δ-bounded motion
/// adversary, so each execution actually walks the class DAG and the
/// transition-graph and phase-duration analytics have substance. Still
/// f = 0 and rigid: the corpus must audit clean.
pub fn six_class_specs(seed: u64, max_rounds: u64) -> Vec<ScenarioSpec> {
    SIX_CLASS_MATRIX
        .iter()
        .map(|&(class, n)| ScenarioSpec {
            class: Some(class),
            n,
            seed,
            max_rounds,
            scheduler: "round-robin",
            motion: "delta",
            ..ScenarioSpec::default()
        })
        .collect()
}

/// Captures one corpus: starts an in-process service, streams every
/// spec's trace document over `POST /v1/trace`, and concatenates the
/// bodies in spec order.
///
/// # Errors
///
/// Any transport failure, non-200 response, or a document without the
/// trace/v2 header.
pub fn capture_corpus(specs: &[ScenarioSpec]) -> Result<String, String> {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start capture service: {e}"))?;
    let result = capture_on(&server, specs);
    server.shutdown();
    result
}

fn capture_on(server: &Server, specs: &[ScenarioSpec]) -> Result<String, String> {
    let mut client =
        Client::connect(&server.addr()).map_err(|e| format!("connect capture client: {e}"))?;
    let mut corpus = String::new();
    for spec in specs {
        let posted = client
            .post_trace(&spec.to_json())
            .map_err(|e| format!("POST /v1/trace: {e}"))?;
        if posted.status != 200 {
            return Err(format!(
                "POST /v1/trace -> {}: {}",
                posted.status,
                posted.text()
            ));
        }
        let document = posted.text();
        if !document.starts_with("{\"schema\":\"trace/v2\",") {
            return Err(format!(
                "trace document lacks the v2 header: {:?}...",
                &document[..document.len().min(40)]
            ));
        }
        corpus.push_str(&document);
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_class_specs_cover_every_class_once() {
        let specs = six_class_specs(7, 2_000);
        assert_eq!(specs.len(), 6);
        let classes: Vec<Class> = specs.iter().filter_map(|s| s.class).collect();
        assert_eq!(classes, Class::all().to_vec());
        assert!(specs.iter().all(|s| s.seed == 7 && s.max_rounds == 2_000));
    }

    #[test]
    fn capture_streams_documents_in_spec_order() {
        let specs = vec![
            ScenarioSpec {
                seed: 11,
                max_rounds: 1_500,
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                seed: 12,
                max_rounds: 1_500,
                ..ScenarioSpec::default()
            },
        ];
        let corpus = capture_corpus(&specs).expect("capture");
        let expected: String = specs
            .iter()
            .map(|spec| {
                let (_, rounds) = spec.to_scenario().expect("valid").run_traced();
                format!("{}{rounds}", spec.trace_header())
            })
            .collect();
        assert_eq!(corpus, expected, "served capture == in-process documents");
    }
}
