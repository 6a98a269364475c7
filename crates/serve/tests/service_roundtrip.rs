//! The determinism contract, end to end: `POST /run` over real TCP must
//! return bytes identical to running the same specs in-process and
//! serialising with `RunMetrics::to_jsonl` — for every configuration
//! class, for batches, and repeatably across requests.

use gather_config::Class;
use gather_serve::{Client, ScenarioSpec, ServeConfig, Server};

fn test_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("start server on an ephemeral port")
}

fn local_jsonl(spec: &ScenarioSpec) -> String {
    format!(
        "{}\n",
        spec.to_scenario().expect("valid spec").run().to_jsonl()
    )
}

#[test]
fn served_bytes_match_in_process_runs_for_all_six_classes() {
    let server = test_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    for class in Class::all() {
        let spec = ScenarioSpec {
            class: Some(class),
            seed: 13,
            faults: 1,
            max_rounds: 2_000,
            ..ScenarioSpec::default()
        };
        let expected = local_jsonl(&spec);
        let response = client.post_run(&spec.to_json()).expect("POST /v1/run");
        assert_eq!(
            response.status,
            200,
            "class {}: {}",
            class.short_name(),
            response.text()
        );
        assert_eq!(
            response.header("content-type"),
            Some("application/x-ndjson")
        );
        assert_eq!(
            response.body,
            expected.as_bytes(),
            "class {}: served bytes != in-process bytes",
            class.short_name()
        );
    }
    server.shutdown();
}

#[test]
fn batched_scenarios_come_back_in_request_order_bit_identical() {
    let server = test_server();
    let specs: Vec<ScenarioSpec> = (0..5)
        .map(|i| ScenarioSpec {
            seed: 100 + i,
            faults: (i % 3) as usize,
            max_rounds: 1_500,
            ..ScenarioSpec::default()
        })
        .collect();
    let expected: String = specs.iter().map(local_jsonl).collect();
    let body = format!(
        "{{\"scenarios\":[{}]}}",
        specs
            .iter()
            .map(ScenarioSpec::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut client = Client::connect(&server.addr()).expect("connect");
    let response = client.post_run(&body).expect("POST /v1/run");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.body, expected.as_bytes());
    // The pool fans the batch out across workers; order and bytes must
    // nevertheless be reproducible on a second request.
    let again = client.post_run(&body).expect("second POST /v1/run");
    assert_eq!(again.body, response.body);
    server.shutdown();
}

#[test]
fn mega_batch_endpoint_is_bit_identical_to_run_and_in_process() {
    let server = test_server();
    let specs: Vec<ScenarioSpec> = (0..6)
        .map(|i| ScenarioSpec {
            seed: 300 + i,
            faults: (i % 3) as usize,
            max_rounds: 1_200,
            ..ScenarioSpec::default()
        })
        .collect();
    let expected: String = specs.iter().map(local_jsonl).collect();
    let body = format!(
        "{{\"scenarios\":[{}]}}",
        specs
            .iter()
            .map(ScenarioSpec::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut client = Client::connect(&server.addr()).expect("connect");
    let batched = client.post_batch(&body).expect("POST /v1/batch");
    assert_eq!(batched.status, 200, "{}", batched.text());
    assert_eq!(
        batched.body,
        expected.as_bytes(),
        "/v1/batch (batch lanes) must serve in-process bytes"
    );
    // The mega-batch endpoint exists only under /v1.
    let unversioned = client
        .request("POST", "/batch", body.as_bytes())
        .expect("POST /batch");
    assert_eq!(unversioned.status, 404);
    server.shutdown();
}

#[test]
fn async_scenarios_are_served_bit_identically() {
    let server = test_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    // Full knob soup: event-heap scheduler, non-rigid motion, skewed
    // speeds — served bytes must still equal the in-process run.
    let spec = ScenarioSpec {
        scheduler: "async",
        rigid: false,
        speed_skew: 0.5,
        seed: 31,
        faults: 2,
        max_rounds: 20_000,
        ..ScenarioSpec::default()
    };
    let expected = local_jsonl(&spec);
    assert!(
        expected.contains("\"async_events\":"),
        "async run must report its event count"
    );
    let response = client.post_run(&spec.to_json()).expect("POST /v1/run");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.body, expected.as_bytes());
    // Repeatable across requests (and through the result cache).
    let again = client
        .post_run(&spec.to_json())
        .expect("second POST /v1/run");
    assert_eq!(again.body, response.body);
    // The metrics exposition now carries the event-heap counter.
    let metrics = client.get("/v1/metrics").expect("GET /v1/metrics");
    let text = metrics.text();
    let events: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("gather_sim_async_events_total "))
        .expect("gather_sim_async_events_total exposed")
        .parse()
        .expect("counter is an integer");
    assert!(events > 0, "async events counter must accumulate:\n{text}");
    server.shutdown();
}

#[test]
fn async_traces_round_trip_over_the_wire() {
    let server = test_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    let spec = ScenarioSpec {
        scheduler: "async",
        seed: 5,
        max_rounds: 10_000,
        ..ScenarioSpec::default()
    };
    let (_, rounds) = spec.to_scenario().expect("valid spec").run_traced();
    let expected = format!("{}{rounds}", spec.trace_header());
    let response = client.post_trace(&spec.to_json()).expect("POST /v1/trace");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.body, expected.as_bytes());
    assert!(
        response.text().starts_with("{\"schema\":\"trace/v2\","),
        "async documents carry the v2 header too"
    );
    assert!(
        expected.contains("\"engine\":\"async\""),
        "header names the event-heap engine"
    );
    server.shutdown();
}

#[test]
fn invalid_async_combos_get_structured_400s() {
    let server = test_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    for body in [
        r#"{"scheduler":"full","rigidity":"non-rigid"}"#,
        r#"{"speed_skew":1.5}"#,
        r#"{"scheduler":"async","rigidity":"bendy"}"#,
        r#"{"scheduler":"async","speed_skew":99}"#,
    ] {
        let response = client.post_run(body).expect("POST /v1/run");
        assert_eq!(response.status, 400, "{body}: {}", response.text());
        let text = response.text();
        assert!(
            text.contains("\"code\":\"bad_spec\"")
                || text.contains("\"code\":\"malformed_request\""),
            "{body}: error must be structured JSON, got {text}"
        );
    }
    server.shutdown();
}

#[test]
fn workload_families_are_served_identically_too() {
    let server = test_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    for workload in [
        "scatter",
        "clusters",
        "co-circular",
        "near-bivalent",
        "axial",
    ] {
        let spec = ScenarioSpec {
            workload: workload.to_string(),
            class: None,
            n: 9,
            seed: 21,
            max_rounds: 1_000,
            ..ScenarioSpec::default()
        };
        let expected = local_jsonl(&spec);
        let response = client.post_run(&spec.to_json()).expect("POST /v1/run");
        assert_eq!(response.status, 200, "{workload}: {}", response.text());
        assert_eq!(
            response.body,
            expected.as_bytes(),
            "{workload}: served bytes != in-process bytes"
        );
    }
    server.shutdown();
}
