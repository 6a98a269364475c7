//! The deterministic result cache, end to end over real TCP: repeated
//! requests must be answered from the cache with bit-identical payloads,
//! report their disposition in `x-gather-cache`/`Age` headers, and show
//! up in the `/v1/metrics` counters. Determinism is what makes this
//! sound (DESIGN.md §16), so byte-identity — not just status codes — is
//! asserted throughout.

use gather_serve::{Client, ScenarioSpec, ServeConfig, Server};

fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        max_rounds: 800,
        ..ScenarioSpec::default()
    }
}

#[test]
fn repeated_runs_hit_the_cache_with_identical_bytes() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    let body = spec(11).to_json();
    let cold = client.post_run(&body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-gather-cache"), Some("miss"));
    assert_eq!(cold.header("age"), None, "a miss has no age");

    let hot = client.post_run(&body).unwrap();
    assert_eq!(hot.status, 200);
    assert_eq!(hot.header("x-gather-cache"), Some("hit"));
    let age: u64 = hot
        .header("age")
        .expect("hits carry an Age header")
        .parse()
        .expect("age is seconds");
    assert!(age < 120, "age must reflect storage time, got {age}");
    assert_eq!(
        hot.body, cold.body,
        "cached payload must be bit-identical to the computed one"
    );

    // In-process ground truth: the cache serves exactly to_jsonl bytes.
    let expected = format!(
        "{}\n",
        spec(11).to_scenario().expect("valid").run().to_jsonl()
    );
    assert_eq!(hot.body, expected.as_bytes());

    let counters = server.cache_counters();
    assert_eq!(counters.hits, 1, "{counters:?}");
    assert_eq!(counters.misses, 1, "{counters:?}");
    server.shutdown();
}

#[test]
fn key_canonicalisation_hits_across_equivalent_spellings() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    let canonical = spec(23).to_json();
    let cold = client.post_run(&canonical).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());

    // Same spec, different JSON: reordered keys, scattered whitespace,
    // explicitly spelled defaults — must hit the same cache entry
    // (canonicalisation happens in the parser; the key sees only the
    // typed spec).
    let scrambled = String::from(
        "{ \"max_rounds\" : 800 ,\n  \"seed\" : 23 ,\n  \"workload\" : \"class\" ,\n  \"faults\" : 0 }",
    );
    let hot = client.post_run(&scrambled).unwrap();
    assert_eq!(hot.status, 200, "{}", hot.text());
    assert_eq!(
        hot.header("x-gather-cache"),
        Some("hit"),
        "canonicalised specs must share one cache key"
    );
    assert_eq!(hot.body, cold.body);
    server.shutdown();
}

#[test]
fn mixed_batches_stitch_hits_and_misses_in_request_order() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    // Warm seed 31 only.
    let warm = client.post_run(&spec(31).to_json()).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());

    // A batch of [cold 37, warm 31, cold 41]: the response must be in
    // request order and bit-identical to running all three in-process.
    let batch = format!(
        "{{\"scenarios\":[{},{},{}]}}",
        spec(37).to_json(),
        spec(31).to_json(),
        spec(41).to_json()
    );
    let mixed = client.post_run(&batch).unwrap();
    assert_eq!(mixed.status, 200, "{}", mixed.text());
    assert_eq!(
        mixed.header("x-gather-cache"),
        Some("miss"),
        "a partially cached batch still executes, so it reports miss"
    );
    let expected: String = [37u64, 31, 41]
        .into_iter()
        .map(|seed| {
            format!(
                "{}\n",
                spec(seed).to_scenario().expect("valid").run().to_jsonl()
            )
        })
        .collect();
    assert_eq!(mixed.body, expected.as_bytes());

    // Everything is warm now: the whole batch is answered at admission.
    let hot = client.post_run(&batch).unwrap();
    assert_eq!(hot.header("x-gather-cache"), Some("hit"));
    assert_eq!(hot.body, mixed.body);
    server.shutdown();
}

#[test]
fn traces_are_cached_whole_and_served_identically() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");

    let body = ScenarioSpec {
        seed: 5,
        max_rounds: 2_000,
        ..ScenarioSpec::default()
    }
    .to_json();
    let cold = client.post_trace(&body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-gather-cache"), Some("miss"));
    let hot = client.post_trace(&body).unwrap();
    assert_eq!(hot.status, 200);
    assert_eq!(hot.header("x-gather-cache"), Some("hit"));
    assert!(hot.header("age").is_some());
    assert_eq!(
        hot.body, cold.body,
        "cached trace must be the same NDJSON bytes"
    );
    server.shutdown();
}

#[test]
fn metrics_expose_cache_counters_and_capacity_zero_disables() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let body = spec(53).to_json();
    assert_eq!(client.post_run(&body).unwrap().status, 200);
    assert_eq!(
        client.post_run(&body).unwrap().header("x-gather-cache"),
        Some("hit")
    );
    let metrics = client.get("/v1/metrics").unwrap().text();
    assert!(metrics.contains("gather_cache_hits_total 1\n"), "{metrics}");
    assert!(metrics.contains("gather_cache_misses_total "), "{metrics}");
    assert!(metrics.contains("gather_cache_hit_ratio "), "{metrics}");
    server.shutdown();

    // cache_entries: Some(0) switches the whole subsystem off: no
    // headers, no metrics lines, repeated requests recompute.
    let server = Server::start(ServeConfig {
        cache_entries: Some(0),
        ..ServeConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let first = client.post_run(&body).unwrap();
    let second = client.post_run(&body).unwrap();
    assert_eq!(first.header("x-gather-cache"), None);
    assert_eq!(second.header("x-gather-cache"), None);
    assert_eq!(first.body, second.body, "determinism holds regardless");
    let metrics = client.get("/v1/metrics").unwrap().text();
    assert!(
        !metrics.contains("gather_cache_hits_total"),
        "disabled cache must not advertise counters: {metrics}"
    );
    server.shutdown();
}
