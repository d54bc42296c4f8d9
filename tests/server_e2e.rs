//! End-to-end tests for the `genie-server` socket front-end: responses over
//! a real TCP connection must be **byte-identical** to rendering the same
//! requests in-process (regardless of engine worker count or how requests
//! coalesce into micro-batches), hostile bytes must get typed 4xx answers
//! without wedging the server, quotas must answer `429`, and shutdown must
//! drain in-flight work.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use genie::engine::{GenieEngine, ParseRequest};
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie_server::{api, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::{LuinetParser, ModelConfig};

// ---------------------------------------------------------------------------
// Fixtures: train once, build per-test engines cheaply from the shared model
// ---------------------------------------------------------------------------

/// One trained model for the whole file plus a mix of utterances: some the
/// engine answers, some it rejects with typed errors — both kinds must be
/// deterministic over the socket.
fn fixture() -> &'static (Arc<LuinetParser>, Vec<String>) {
    static FIXTURE: OnceLock<(Arc<LuinetParser>, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let pipeline = PipelineConfig::builder()
            .synthesis(
                GeneratorConfig::builder()
                    .target_per_rule(10)
                    .instantiations_per_template(1)
                    .seed(11)
                    .quiet(true)
                    .build()
                    .unwrap(),
            )
            .paraphrase(
                ParaphraseConfig::builder()
                    .per_sentence(1)
                    .error_rate(0.0)
                    .seed(11)
                    .build()
                    .unwrap(),
            )
            .paraphrase_sample(20)
            .parameter_expansion(false)
            .seed(11)
            .build()
            .unwrap();
        let engine = GenieEngine::builder()
            .train(
                pipeline,
                ModelConfig {
                    epochs: 5,
                    seed: 11,
                    ..ModelConfig::default()
                },
            )
            .unwrap()
            .build()
            .unwrap();
        let library = thingpedia::Thingpedia::builtin();
        let data = genie::DataPipeline::new(&library, pipeline)
            .build()
            .unwrap();
        let mut utterances: Vec<String> = data
            .synthesized
            .examples
            .iter()
            .take(30)
            .map(|e| e.text())
            .filter(|u| {
                engine
                    .parse(&ParseRequest::new(u.clone()).bypass_cache())
                    .is_ok()
            })
            .take(4)
            .collect();
        assert!(
            !utterances.is_empty(),
            "the engine answers none of its own training utterances"
        );
        // Typed parse failures ride along: they too must be byte-stable.
        utterances.push("xyzzy frobnicate the veeblefetzer".to_owned());
        (engine.model(), utterances)
    })
}

fn engine_with_threads(threads: usize) -> GenieEngine {
    let (model, _) = fixture();
    GenieEngine::builder()
        .model_shared(model.clone())
        .threads(threads)
        .build()
        .unwrap()
}

fn serve(engine: GenieEngine, config: ServerConfig) -> GenieServer {
    GenieServer::bind(engine, config).unwrap()
}

// ---------------------------------------------------------------------------
// A minimal test client
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read one `Content-Length`-framed response; `None` on clean EOF.
fn read_response<R: BufRead>(reader: &mut R) -> Option<Response> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).unwrap() == 0 {
        return None;
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("malformed status line")
        .parse()
        .unwrap();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').unwrap();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().unwrap();
        }
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    Some(Response {
        status,
        headers,
        body: String::from_utf8(body).unwrap(),
    })
}

fn raw_post(path: &str, body: &str, keep_alive: bool) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(raw_post(path, body, false).as_bytes())
        .unwrap();
    read_response(&mut BufReader::new(stream)).expect("no response")
}

fn get(addr: SocketAddr, path: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    read_response(&mut BufReader::new(stream)).expect("no response")
}

fn parse_body(utterance: &str) -> String {
    format!(
        "{{\"utterance\": {}}}",
        genie_server::json::escape(utterance)
    )
}

fn metric(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .map(|rest| rest.trim().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("metric `{name}` missing from:\n{metrics_text}"))
}

// ---------------------------------------------------------------------------
// Determinism: socket bytes == in-process bytes, at every worker count
// ---------------------------------------------------------------------------

#[test]
fn concurrent_socket_responses_are_byte_identical_to_in_process_at_every_worker_count() {
    let (_, utterances) = fixture();
    // The in-process reference: same requests through the same rendering
    // functions — the single path the server itself serves from.
    let reference_engine = engine_with_threads(1);
    let requests: Vec<ParseRequest> = utterances
        .iter()
        .map(|u| ParseRequest::new(u.clone()))
        .collect();
    let expected: Vec<(u16, String)> = reference_engine
        .parse_batch(&requests)
        .iter()
        .map(|result| {
            let (status, _, body) = api::render_result(result);
            (status, body)
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let server = serve(
            engine_with_threads(threads),
            ServerConfig::builder()
                .worker_threads(4)
                .coalesce_window(Duration::from_millis(5))
                .build()
                .unwrap(),
        );
        let addr = server.local_addr();
        // Hammer concurrently so requests actually race into shared
        // micro-batches, twice over to exercise the response cache too.
        let mut counts = Vec::new();
        for round in 0..2 {
            let clients: Vec<_> = utterances
                .iter()
                .enumerate()
                .map(|(i, utterance)| {
                    let utterance = utterance.clone();
                    std::thread::spawn(move || {
                        let response = post(addr, "/v1/parse", &parse_body(&utterance));
                        (i, response.status, response.body)
                    })
                })
                .collect();
            for client in clients {
                let (i, status, body) = client.join().unwrap();
                assert_eq!(
                    (status, body.as_str()),
                    (expected[i].0, expected[i].1.as_str()),
                    "threads={threads} round={round} utterance #{i} drifted over the socket"
                );
            }
            let metrics = server.metrics_text();
            counts.push((
                metric(&metrics, "server_coalesced_requests_total"),
                metric(&metrics, "engine_cache_hits_total"),
            ));
        }
        // Round one misses the cache, so its parses flow through the
        // coalescer. Round two answers every request — the successes and
        // the typed no-parse alike — from the cache on the acceptor thread.
        let (first_coalesced, first_hits) = counts[0];
        let (second_coalesced, second_hits) = counts[1];
        assert!(first_coalesced <= utterances.len() as u64);
        assert!(first_coalesced >= 1);
        assert_eq!(
            second_coalesced, first_coalesced,
            "threads={threads}: a cached answer went through the coalescer"
        );
        assert_eq!(
            second_hits - first_hits,
            utterances.len() as u64,
            "threads={threads}: every repeated request must be one cache hit"
        );
        assert!(metric(&server.metrics_text(), "server_coalesce_batches_total") >= 1);
    }
}

#[test]
fn batch_endpoint_matches_in_process_parse_batch_bytes() {
    let (_, utterances) = fixture();
    let engine = engine_with_threads(2);
    let requests: Vec<ParseRequest> = utterances
        .iter()
        .map(|u| ParseRequest::new(u.clone()))
        .collect();
    let expected = api::render_batch(&engine.parse_batch(&requests));

    let server = serve(engine, ServerConfig::default());
    let body = format!(
        "{{\"requests\": [{}]}}",
        utterances
            .iter()
            .map(|u| parse_body(u))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let response = post(server.local_addr(), "/v1/parse_batch", &body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected);
}

// ---------------------------------------------------------------------------
// Keep-alive and pipelining over one connection
// ---------------------------------------------------------------------------

#[test]
fn pipelined_keep_alive_requests_are_served_in_order_on_one_connection() {
    let (_, utterances) = fixture();
    let server = serve(engine_with_threads(2), ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Three requests written back-to-back before reading anything.
    let mut wire = String::new();
    wire.push_str(&raw_post("/v1/parse", &parse_body(&utterances[0]), true));
    wire.push_str(&raw_post("/v1/parse", "{\"utterance\": \"\"}", true));
    wire.push_str("GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(wire.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let first = read_response(&mut reader).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("Connection"), Some("keep-alive"));
    let second = read_response(&mut reader).unwrap();
    assert_eq!(second.status, 422, "empty utterance is a typed 422");
    assert!(second.body.contains("empty_utterance"));
    let third = read_response(&mut reader).unwrap();
    assert_eq!(third.status, 200);
    assert!(third.body.contains("server_http_requests_total"));
    assert_eq!(third.header("Connection"), Some("close"));
    assert!(read_response(&mut reader).is_none(), "server honors close");
}

// ---------------------------------------------------------------------------
// Quotas
// ---------------------------------------------------------------------------

#[test]
fn quota_exhaustion_answers_429_with_retry_after() {
    let (_, utterances) = fixture();
    let server = serve(
        engine_with_threads(1),
        ServerConfig::builder()
            .quota(2, 0.001) // 2-token burst, refill far slower than the test
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    let body = parse_body(&utterances[0]);
    let statuses: Vec<u16> = (0..5)
        .map(|_| post(addr, "/v1/parse", &body).status)
        .collect();
    assert_eq!(
        statuses,
        vec![200, 200, 429, 429, 429],
        "burst of 2, then typed rejection"
    );

    let rejected = post(addr, "/v1/parse", &body);
    assert_eq!(rejected.status, 429);
    assert!(rejected.body.contains("quota_exhausted"));
    let retry_after: u64 = rejected
        .header("Retry-After")
        .expect("429 must carry Retry-After")
        .parse()
        .unwrap();
    assert!(retry_after >= 1);

    // Batch cost is per-utterance: a 3-utterance batch cannot fit either.
    let batch = format!("{{\"requests\": [{0}, {0}, {0}]}}", body);
    assert_eq!(post(addr, "/v1/parse_batch", &batch).status, 429);

    let metrics = server.metrics_text();
    assert!(metric(&metrics, "server_quota_rejections_total") >= 4);
}

/// The quota is charged before the response cache is consulted: a repeat
/// of an already-cached utterance past the burst is still refused.
#[test]
fn a_cached_repeat_still_pays_its_quota() {
    let (_, utterances) = fixture();
    let server = serve(
        engine_with_threads(1),
        ServerConfig::builder().quota(1, 0.001).build().unwrap(),
    );
    let addr = server.local_addr();
    let body = parse_body(&utterances[0]);
    assert_eq!(post(addr, "/v1/parse", &body).status, 200);
    let repeat = post(addr, "/v1/parse", &body);
    assert_eq!(repeat.status, 429);
    assert!(repeat.body.contains("quota_exhausted"));
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "engine_requests_total"), 1);
    assert_eq!(metric(&metrics, "engine_cache_hits_total"), 0);
}

// ---------------------------------------------------------------------------
// Hostile bytes against a live server
// ---------------------------------------------------------------------------

#[test]
fn hostile_probes_get_typed_errors_and_never_wedge_the_server() {
    let (_, utterances) = fixture();
    let server = serve(
        engine_with_threads(1),
        ServerConfig::builder()
            .max_body_bytes(1024)
            .read_timeout(Duration::from_millis(200))
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();

    let probe = |wire: &[u8]| -> Option<Response> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(wire).unwrap();
        read_response(&mut BufReader::new(stream))
    };

    // Garbage request line → 400 with a machine-readable code.
    let garbage = probe(b"\x01\x02\x03 garbage\r\n\r\n").unwrap();
    assert_eq!(garbage.status, 400);
    assert!(garbage.body.contains("bad_request"));

    // POST without Content-Length → 411.
    assert_eq!(
        probe(b"POST /v1/parse HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap()
            .status,
        411
    );

    // Declared body over the limit → 413 without reading the body.
    let oversized =
        probe(b"POST /v1/parse HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n").unwrap();
    assert_eq!(oversized.status, 413);
    assert!(oversized.body.contains("payload_too_large"));

    // Path over the limit → 414.
    let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2048));
    assert_eq!(probe(long_path.as_bytes()).unwrap().status, 414);

    // Malformed JSON, non-UTF-8 bytes, and a JSON depth bomb → 400.
    assert_eq!(
        probe(raw_post("/v1/parse", "{not json", false).as_bytes())
            .unwrap()
            .status,
        400
    );
    let mut non_utf8 = b"POST /v1/parse HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
    non_utf8.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
    assert_eq!(probe(&non_utf8).unwrap().status, 400);
    let bomb = "[".repeat(500);
    assert_eq!(
        probe(raw_post("/v1/parse", &bomb, false).as_bytes())
            .unwrap()
            .status,
        400
    );

    // Wrong shapes at the API layer → typed 400s.
    assert_eq!(
        probe(raw_post("/v1/parse", "{\"utterance\": 3}", false).as_bytes())
            .unwrap()
            .status,
        400
    );

    // Unknown route → 404; unsupported method → 405 with Allow.
    assert_eq!(get(addr, "/v1/nope").status, 404);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"DELETE /v1/parse HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let denied = read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(denied.status, 405);
    assert_eq!(denied.header("Allow"), Some("GET, POST"));

    // A slow-write attacker (half a request line, then silence) gets a 408
    // once the read timeout fires.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"POST /v1/par").unwrap();
    let timed_out = read_response(&mut BufReader::new(slow)).unwrap();
    assert_eq!(timed_out.status, 408);

    // A peer that connects and says nothing is closed quietly.
    let idle = TcpStream::connect(addr).unwrap();
    assert!(read_response(&mut BufReader::new(idle)).is_none());

    // After every probe the server still serves real work.
    let healthy = post(addr, "/v1/parse", &parse_body(&utterances[0]));
    assert_eq!(healthy.status, 200);

    let metrics = server.metrics_text();
    assert!(metric(&metrics, "server_http_4xx_total") >= 8);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

#[test]
fn metrics_fold_engine_counters_without_shadow_counting() {
    let (_, utterances) = fixture();
    let engine = engine_with_threads(1);
    let server = serve(engine.clone(), ServerConfig::default());
    let addr = server.local_addr();

    // Same utterance twice: the second is an engine cache hit, so a swap
    // carries the entry into the next world.
    let body = parse_body(&utterances[0]);
    assert_eq!(post(addr, "/v1/parse", &body).status, 200);
    assert_eq!(post(addr, "/v1/parse", &body).status, 200);
    engine.swap_world(engine.library(), engine.model(), Vec::new(), 0);

    let scraped = get(addr, "/metrics");
    assert_eq!(scraped.status, 200);
    let text = &scraped.body;
    assert_eq!(metric(text, "server_parse_requests_total"), 2);
    assert_eq!(metric(text, "server_parse_ok_total"), 2);
    assert_eq!(metric(text, "server_quota_rejections_total"), 0);
    assert!(metric(text, "server_latency_us_count") >= 2);
    // The engine rows ARE the engine's own counters, scraped live.
    let stats = engine.stats();
    assert_eq!(metric(text, "engine_requests_total"), stats.requests);
    assert_eq!(metric(text, "engine_cache_hits_total"), stats.cache_hits);
    assert_eq!(
        metric(text, "engine_cache_carried_total"),
        stats.cache_carried
    );
    assert!(
        stats.cache_hits >= 1,
        "second identical parse must hit the cache"
    );
    assert_eq!(stats.cache_carried, 1, "the swap carries the hot entry");
    // Every line is exactly `name value`.
    for line in text.lines() {
        let mut parts = line.split(' ');
        assert!(parts.next().is_some_and(|n| !n.is_empty()));
        assert!(
            parts.next().is_some_and(|v| v.parse::<u64>().is_ok()),
            "bad line `{line}`"
        );
        assert!(parts.next().is_none());
    }

    assert_eq!(get(addr, "/healthz").status, 200);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_requests_then_refuses_new_connections() {
    let (_, utterances) = fixture();
    // A wide coalescing window parks the in-flight request inside the
    // coalescer, so shutdown provably overlaps an unfinished request.
    let mut server = serve(
        engine_with_threads(2),
        ServerConfig::builder()
            .coalesce_window(Duration::from_millis(300))
            .worker_threads(2)
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();

    let body = parse_body(&utterances[0]);
    let in_flight = std::thread::spawn(move || post(addr, "/v1/parse", &body));
    // Let the request reach the coalescer queue, then pull the plug.
    std::thread::sleep(Duration::from_millis(60));
    server.shutdown();

    let response = in_flight.join().unwrap();
    assert_eq!(
        response.status, 200,
        "in-flight request must drain, not drop"
    );

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "socket must be closed after shutdown"
    );
}
