//! `POST /v1/trace` streaming contract: the chunked trace/v2 document a
//! client decodes is the spec's header line followed by round lines
//! byte-identical to the in-process per-round trace of the same spec
//! ([`Scenario::run_traced`]) — the bit-identity contract of DESIGN.md
//! §11 extended from summaries to full traces.

use gather_config::Class;
use gather_serve::{Client, ScenarioSpec, ServeConfig, Server};

fn spec(class: Class, n: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        class: Some(class),
        n,
        seed,
        max_rounds: 2_000,
        ..ScenarioSpec::default()
    }
}

#[test]
fn streamed_traces_are_byte_identical_to_in_process_runs() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    for (class, n) in [
        (Class::Bivalent, 8),
        (Class::Multiple, 9),
        (Class::Collinear1W, 8),
        (Class::Collinear2W, 8),
        (Class::QuasiRegular, 9),
        (Class::Asymmetric, 8),
    ] {
        let spec = spec(class, n, 7);
        let (metrics, rounds_jsonl) = spec.to_scenario().expect("scenario").run_traced();
        let expected = format!("{}{rounds_jsonl}", spec.trace_header());

        let response = client.post_trace(&spec.to_json()).unwrap();
        assert_eq!(response.status, 200, "{class:?}: {}", response.text());
        assert_eq!(
            response.header("transfer-encoding"),
            Some("chunked"),
            "{class:?}: traces stream chunked"
        );
        assert_eq!(
            response.header("content-type"),
            Some("application/x-ndjson"),
            "{class:?}"
        );
        assert_eq!(
            response.body,
            expected.as_bytes(),
            "{class:?}: streamed document must be the header plus the \
             in-process trace"
        );
        let text = response.text();
        assert!(
            text.starts_with("{\"schema\":\"trace/v2\","),
            "{class:?}: document leads with the v2 header: {text:?}"
        );
        assert_eq!(
            text.lines().count() as u64,
            metrics.rounds + 1,
            "{class:?}: one line per simulated round plus the header"
        );
    }
    server.shutdown();
}

#[test]
fn trace_requests_are_validated_and_counted() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    let bad = client.post_trace(r#"{"n":3}"#).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(
        bad.text().contains("\"code\":\"bad_spec\""),
        "{}",
        bad.text()
    );
    let bad_json = client.post_trace("not json").unwrap();
    assert_eq!(bad_json.status, 400, "{}", bad_json.text());

    let over = client
        .post_trace(&format!(
            "{{\"n\":8,\"max_rounds\":{}}}",
            gather_serve::TRACE_MAX_ROUNDS + 1
        ))
        .unwrap();
    assert_eq!(over.status, 400, "{}", over.text());
    assert!(
        over.text().contains("\"code\":\"bad_spec\""),
        "{}",
        over.text()
    );
    assert!(over.text().contains("max_rounds"), "{}", over.text());

    // Only POST reaches the trace handler.
    assert_eq!(
        client.request("PUT", "/v1/trace", b"{}").unwrap().status,
        405
    );

    let body = spec(Class::Asymmetric, 8, 0).to_json();
    let ok = client.post_trace(&body).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    let metrics = client.get("/v1/metrics").unwrap().text();
    assert!(
        metrics.contains("gather_requests_completed_total 1\n"),
        "{metrics}"
    );

    // A repeat is answered from the result cache with the same bytes.
    let hit = client.post_trace(&body).unwrap();
    assert_eq!(hit.status, 200, "{}", hit.text());
    assert_eq!(hit.header("x-gather-cache"), Some("hit"));
    assert!(hit.header("age").is_some());
    assert_eq!(hit.body, ok.body, "cache hit serves identical bytes");
    server.shutdown();
}
