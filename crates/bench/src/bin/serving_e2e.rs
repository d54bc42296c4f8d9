//! End-to-end socket serving bench: boots a real `genie-server` on
//! loopback from a **snapshot-loaded** engine (the production cold-start
//! path), hammers it with concurrent HTTP clients, and records socket-level
//! p50/p99 latency and req/s alongside hard correctness assertions:
//!
//! * every socket response is **byte-identical** to rendering the same
//!   request in-process through `genie_server::api::render_result`;
//! * malformed probes (garbage request line, missing `Content-Length`,
//!   oversized body, broken JSON, unknown route) get **typed 4xx** answers;
//! * every single-request parse flows through the coalescer;
//! * a live world under the same client load answers every request with a
//!   typed outcome while admin reloads swap worlds underneath it — the
//!   p99 *during* those swaps is reported alongside the steady-state p99,
//!   so swap-induced tail latency is tracked in the trajectory rather
//!   than asserted.
//!
//! The process exits non-zero if any assertion fails, so the CI job fails
//! even before the regression gate reads the numbers.
//!
//! Usage:
//!   serving_e2e [--requests N] [--clients N] [--passes N]
//!               [--base BENCH_serving.json] [--out BENCH_serving.json]
//!
//! With `--base`, the socket section is spliced into an existing
//! `BENCH_serving.json` written by the in-process serving bench (the CI
//! flow); without it, a standalone report is written. `GENIE_BENCH_SMOKE=1`
//! shrinks the workload to CI-smoke size.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use genie::engine::{GenieEngine, ParseRequest};
use genie::live::LiveWorld;
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie_bench::{flag_value, json_field, json_object};
use genie_server::{api, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
}

/// Train the bench engine (same seeds/shape as the in-process serving
/// bench, so the two halves of `BENCH_serving.json` describe one model).
fn train_engine(target_per_rule: usize) -> GenieEngine {
    let pipeline = PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(target_per_rule)
                .instantiations_per_template(1)
                .seed(7)
                .quiet(true)
                .build()
                .expect("valid synthesis config"),
        )
        .paraphrase(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(7)
                .build()
                .expect("valid paraphrase config"),
        )
        .paraphrase_sample(120)
        .seed(7)
        .build()
        .expect("valid pipeline config");
    GenieEngine::builder()
        .train(
            pipeline,
            ModelConfig {
                epochs: 3,
                seed: 7,
                ..ModelConfig::default()
            },
        )
        .expect("training the bench engine cannot fail")
        .build()
        .expect("the bench engine builds")
}

/// Production-shaped workload: utterances from the training distribution,
/// salted with empty utterances the engine must reject deterministically.
fn workload(requests: usize, target_per_rule: usize) -> Vec<ParseRequest> {
    let library = thingpedia::Thingpedia::builtin();
    let pipeline = genie::DataPipeline::new(
        &library,
        PipelineConfig::builder()
            .synthesis(
                GeneratorConfig::builder()
                    .target_per_rule(target_per_rule)
                    .instantiations_per_template(1)
                    .seed(7)
                    .quiet(true)
                    .build()
                    .expect("valid synthesis config"),
            )
            .parameter_expansion(false)
            .paraphrase_sample(0)
            .seed(7)
            .build()
            .expect("valid pipeline config"),
    );
    let mut commands: Vec<String> = Vec::new();
    pipeline
        .run_streaming(genie::NnOptions::default(), |example| {
            if commands.len() < 64 {
                commands.push(example.sentence_text());
            }
        })
        .expect("builtin pipeline streams");
    (0..requests)
        .map(|i| {
            if i % 16 == 15 {
                ParseRequest::new("")
            } else {
                ParseRequest::new(commands[i % commands.len()].clone())
            }
        })
        .collect()
}

// --- A minimal blocking HTTP client -----------------------------------

struct Response {
    status: u16,
    body: String,
}

fn read_response<R: BufRead>(reader: &mut R) -> Option<Response> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Response {
        status,
        body: String::from_utf8(body).ok()?,
    })
}

fn raw_post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len(),
    )
}

fn probe(addr: SocketAddr, wire: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.write_all(wire).ok()?;
    read_response(&mut BufReader::new(stream))
}

fn quantile(sorted_micros: &[f64], q: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * q).round() as usize;
    sorted_micros[idx]
}

/// One client thread: serve its share of the workload over a keep-alive
/// connection, asserting byte identity against the in-process rendering.
fn run_client(
    addr: SocketAddr,
    jobs: Vec<(String, u16, String)>, // (utterance, expected status, expected body)
) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connect to the bench server");
    let mut writer = stream.try_clone().expect("clone client stream");
    let mut reader = BufReader::new(stream);
    let mut micros = Vec::with_capacity(jobs.len());
    for (utterance, expected_status, expected_body) in jobs {
        let body = format!(
            "{{\"utterance\": {}}}",
            genie_server::json::escape(&utterance)
        );
        let start = Instant::now();
        writer
            .write_all(raw_post("/v1/parse", &body).as_bytes())
            .expect("write request");
        let response = read_response(&mut reader).expect("read response");
        micros.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            (response.status, response.body.as_str()),
            (expected_status, expected_body.as_str()),
            "socket response for `{utterance}` drifted from the in-process rendering"
        );
    }
    micros
}

fn assert_typed_4xx(addr: SocketAddr) {
    let cases: Vec<(&str, Vec<u8>, u16, &str)> = vec![
        (
            "garbage request line",
            b"\x01\x02\x03 garbage\r\n\r\n".to_vec(),
            400,
            "bad_request",
        ),
        (
            "missing Content-Length",
            b"POST /v1/parse HTTP/1.1\r\nHost: b\r\n\r\n".to_vec(),
            411,
            "length_required",
        ),
        (
            "oversized declared body",
            b"POST /v1/parse HTTP/1.1\r\nHost: b\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
            413,
            "payload_too_large",
        ),
        (
            "broken JSON",
            raw_post("/v1/parse", "{not json").into_bytes(),
            400,
            "bad_request",
        ),
        (
            "wrong field type",
            raw_post("/v1/parse", "{\"utterance\": 7}").into_bytes(),
            400,
            "bad_request",
        ),
        (
            "unknown route",
            b"GET /v1/nope HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n".to_vec(),
            404,
            "not_found",
        ),
    ];
    for (name, wire, expected_status, expected_code) in cases {
        let response =
            probe(addr, &wire).unwrap_or_else(|| panic!("no response to malformed probe `{name}`"));
        assert_eq!(
            response.status, expected_status,
            "probe `{name}` got status {} body {}",
            response.status, response.body
        );
        assert!(
            response.body.contains(expected_code),
            "probe `{name}` body lacks code `{expected_code}`: {}",
            response.body
        );
    }
    println!("serving-e2e: all malformed probes answered with typed 4xx");
}

/// Tail latency *during* a world swap: boot a small live world under the
/// same client pressure, run two admin reloads back to back (a pool-shape
/// change forcing a full rebuild, then a content-only incremental one),
/// and record the p99 of parse requests answered while the reloads were
/// in flight. Every request must still get a typed outcome (2xx/422) —
/// drops or 5xx abort the bench — but the latency itself is reported, not
/// gated: swap-induced tail latency is a tracked trajectory.
fn swap_tail_latency(clients: usize, utterances: &[String]) -> (f64, usize, usize) {
    let pipeline = PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(10)
                .max_depth(4)
                .instantiations_per_template(1)
                .seed(7)
                .threads(1)
                .shards(4)
                .quiet(true)
                .build()
                .expect("valid synthesis config"),
        )
        .paraphrase(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(7)
                .build()
                .expect("valid paraphrase config"),
        )
        .paraphrase_sample(20)
        .parameter_expansion(false)
        .seed(7)
        .build()
        .expect("valid pipeline config");
    let live = Arc::new(
        LiveWorld::bootstrap(
            thingpedia::Thingpedia::builtin(),
            pipeline,
            ModelConfig {
                epochs: 4,
                seed: 7,
                threads: 1,
                ..ModelConfig::default()
            },
        )
        .expect("bootstrap the live world"),
    );
    let mut server = GenieServer::bind_live(
        live,
        ServerConfig::builder()
            .worker_threads((clients + 2).min(32))
            .build()
            .expect("valid server config"),
    )
    .expect("bind the live server");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let jobs: Vec<String> = utterances
                .iter()
                .enumerate()
                .filter(|(i, utterance)| i % clients == client && !utterance.is_empty())
                .map(|(_, utterance)| utterance.clone())
                .collect();
            let stop = stop.clone();
            let errors = errors.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect to the live server");
                let mut writer = stream.try_clone().expect("clone client stream");
                let mut reader = BufReader::new(stream);
                let mut micros = Vec::new();
                let mut next = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let body = format!(
                        "{{\"utterance\": {}}}",
                        genie_server::json::escape(&jobs[next % jobs.len()])
                    );
                    next += 1;
                    let start = Instant::now();
                    if writer
                        .write_all(raw_post("/v1/parse", &body).as_bytes())
                        .is_err()
                    {
                        errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    match read_response(&mut reader) {
                        Some(r) if r.status == 422 || (200..300).contains(&r.status) => {
                            micros.push(start.elapsed().as_secs_f64() * 1e6);
                        }
                        Some(r) => {
                            eprintln!("serving-e2e: {} during swap: {}", r.status, r.body);
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            eprintln!("serving-e2e: connection dropped during swap");
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                micros
            })
        })
        .collect();

    // Two back-to-back reloads: adding the class changes a pool length
    // (full rebuild); re-wording its template is the incremental path.
    let class = "class @com.bench.lights { action set_power(in req power : Enum(on, off)); }";
    let reloads = 2usize;
    for swap in 1..=reloads {
        // `wait: true`: the bench wants the synchronous swap report, not
        // the default 202-accepted handoff to the background builder.
        let body = format!(
            "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
             [{{\"category\": \"vp\", \"function\": \"set_power\", \
             \"utterance\": {}}}], \"mode\": \"full\", \"wait\": true}}",
            genie_server::json::escape(class),
            genie_server::json::escape(&format!("swap the bench lights $power v{swap}")),
        );
        let response =
            probe(addr, raw_post("/v1/admin/reload", &body).as_bytes()).expect("reload response");
        assert_eq!(
            response.status, 200,
            "live reload {swap} failed: {}",
            response.body
        );
    }
    stop.store(true, Ordering::Relaxed);
    let mut micros: Vec<f64> = Vec::new();
    for handle in handles {
        micros.extend(handle.join().expect("swap client thread"));
    }
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "requests dropped or errored while worlds swapped"
    );
    micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p99 = quantile(&micros, 0.99);
    server.shutdown();
    (p99, micros.len(), reloads)
}

fn scrape_metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .map(|rest| rest.trim().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
}

/// Add `"socket": <socket>` as the last field of the JSON object `base`,
/// which must end in its own closing brace and have no socket section yet
/// (a second splice would leave two `socket` keys).
fn splice_socket(base: &str, socket: &str) -> Result<String, String> {
    if json_field(base, "socket").is_some() {
        return Err("the report already has a `socket` section".to_owned());
    }
    let body = base
        .trim_end()
        .strip_suffix('}')
        .ok_or("the report does not end in `}`")?
        .trim_end();
    let separator = if body.ends_with('{') { "" } else { ", " };
    Ok(format!("{body}{separator}\"socket\": {socket}}}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let target_per_rule = if smoke { 15 } else { 60 };
    let requests = flag_value(&args, "--requests").unwrap_or(if smoke { 80 } else { 400 });
    let clients = flag_value(&args, "--clients").unwrap_or(4).max(1);
    let passes = flag_value(&args, "--passes").unwrap_or(2).max(1);
    let base = flag_str(&args, "--base");
    let out_path = flag_str(&args, "--out")
        .or_else(|| base.clone())
        .unwrap_or_else(|| "BENCH_serving.json".to_owned());

    // Train once, snapshot, and serve from the snapshot — the bench
    // measures the cold-start path replicas actually take.
    let trained = train_engine(target_per_rule);
    let snapshot_path =
        std::env::temp_dir().join(format!("genie-serving-e2e-{}.snapshot", std::process::id()));
    luinet::snapshot::save(&trained.model(), &snapshot_path).expect("save snapshot");
    drop(trained);
    let load_start = Instant::now();
    let engine = GenieEngine::builder()
        .model_from_snapshot(&snapshot_path)
        .expect("load snapshot")
        .build()
        .expect("the snapshot engine builds");
    let snapshot_load_secs = load_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snapshot_path);

    let workload = workload(requests, target_per_rule);

    // In-process reference through the server's own rendering functions:
    // this is the byte-identity oracle.
    let results = engine.parse_batch(&workload);
    // Validation errors (the empty utterances) are the only answers the
    // response cache never holds.
    let uncacheable = results
        .iter()
        .filter(|result| matches!(result, Err(error) if error.rejected_candidates().is_none()))
        .count() as u64;
    let expected: Vec<(String, u16, String)> = workload
        .iter()
        .zip(results)
        .map(|(request, result)| {
            let (status, _, body) = api::render_result(&result);
            (request.utterance.clone(), status, body)
        })
        .collect();
    engine.clear_cache();

    let server = GenieServer::bind(
        engine,
        ServerConfig::builder()
            .worker_threads(clients.min(16))
            .build()
            .expect("valid server config"),
    )
    .expect("bind the bench server");
    let addr = server.local_addr();
    println!("serving-e2e: listening on {addr} (snapshot load {snapshot_load_secs:.3}s)");

    assert_typed_4xx(addr);

    // Concurrent load: each pass splits the workload round-robin across
    // keep-alive client connections. The first pass warms the response
    // cache; the last pass is the measured steady state.
    let mut measured_micros: Vec<f64> = Vec::new();
    let mut measured_secs = 0.0f64;
    // (coalesced requests, cache hits) after each pass.
    let mut counts: Vec<(u64, u64)> = Vec::with_capacity(passes);
    for pass in 0..passes {
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let jobs: Vec<(String, u16, String)> = expected
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == client)
                    .map(|(_, job)| job.clone())
                    .collect();
                std::thread::spawn(move || run_client(addr, jobs))
            })
            .collect();
        let mut micros: Vec<f64> = Vec::with_capacity(expected.len());
        for handle in handles {
            micros.extend(handle.join().expect("client thread"));
        }
        let secs = start.elapsed().as_secs_f64();
        let metrics = server.metrics_text();
        counts.push((
            scrape_metric(&metrics, "server_coalesced_requests_total"),
            scrape_metric(&metrics, "engine_cache_hits_total"),
        ));
        if pass + 1 == passes {
            measured_micros = micros;
            measured_secs = secs;
        }
    }
    measured_micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p50 = quantile(&measured_micros, 0.50);
    let p99 = quantile(&measured_micros, 0.99);
    let mean = measured_micros.iter().sum::<f64>() / measured_micros.len().max(1) as f64;
    let rate = expected.len() as f64 / measured_secs;
    println!(
        "serving-e2e: {} requests x {passes} passes over {clients} clients; \
         socket p50 {p50:.0}us p99 {p99:.0}us mean {mean:.0}us; {rate:.0} req/s \
         (byte-identical to in-process)",
        expected.len(),
    );

    // Exact accounting: the first pass queues at most one coalesced parse
    // per request. Every later pass answers each cached answer (responses
    // and typed no-parses) on the acceptor thread; only the validation
    // errors, which never reach the cache, queue into the coalescer again.
    let cacheable = expected.len() as u64 - uncacheable;
    assert!(counts[0].0 <= expected.len() as u64);
    for pair in counts.windows(2) {
        let ((coalesced_before, hits_before), (coalesced_after, hits_after)) = (pair[0], pair[1]);
        assert_eq!(
            coalesced_after - coalesced_before,
            uncacheable,
            "a repeated pass sent a cached answer through the coalescer"
        );
        assert_eq!(
            hits_after - hits_before,
            cacheable,
            "a repeated pass must answer every cacheable request from the cache"
        );
    }
    let metrics = server.metrics_text();
    let coalesced = scrape_metric(&metrics, "server_coalesced_requests_total");
    let batches = scrape_metric(&metrics, "server_coalesce_batches_total");
    let max_batch = scrape_metric(&metrics, "server_coalesce_max_batch");
    println!(
        "serving-e2e: {coalesced} requests coalesced into {batches} micro-batches \
         (largest {max_batch})"
    );

    let swap_utterances: Vec<String> = expected.iter().map(|(u, _, _)| u.clone()).collect();
    let (swap_p99, swap_requests, swap_reloads) = swap_tail_latency(clients, &swap_utterances);
    println!(
        "serving-e2e: p99 during swap {swap_p99:.0}us over {swap_requests} requests \
         across {swap_reloads} reloads (steady-state p99 {p99:.0}us, zero errors)"
    );

    let socket = json_object(&[
        ("clients", clients.to_string()),
        ("requests", expected.len().to_string()),
        ("passes", passes.to_string()),
        ("snapshot_load_secs", format!("{snapshot_load_secs:.6}")),
        ("p50_us", format!("{p50:.1}")),
        ("p99_us", format!("{p99:.1}")),
        ("mean_us", format!("{mean:.1}")),
        ("requests_per_sec", format!("{rate:.1}")),
        ("coalesce_batches", batches.to_string()),
        ("coalesce_max_batch", max_batch.to_string()),
        ("p99_during_swap_us", format!("{swap_p99:.1}")),
        ("swap_requests", swap_requests.to_string()),
        ("swap_reloads", swap_reloads.to_string()),
        ("swap_request_errors", "0".to_owned()),
        ("byte_identical", "true".to_owned()),
        ("malformed_probes_typed", "true".to_owned()),
    ]);

    // Splice the socket section into the in-process report when given one
    // (the CI flow: `--bench serving` writes the base, this bin completes
    // it); standalone otherwise.
    let report = match base.as_deref().map(std::fs::read_to_string) {
        Some(Ok(existing)) => match splice_socket(&existing, &socket) {
            Ok(report) => report,
            Err(error) => {
                eprintln!(
                    "serving-e2e: cannot splice into --base {}: {error}",
                    base.as_deref().unwrap_or_default()
                );
                std::process::exit(1);
            }
        },
        Some(Err(error)) => {
            eprintln!(
                "serving-e2e: cannot read --base {}: {error}",
                base.as_deref().unwrap_or_default()
            );
            std::process::exit(1);
        }
        None => json_object(&[
            ("bench", "\"serving_e2e\"".to_owned()),
            ("smoke", smoke.to_string()),
            ("socket", socket),
        ]),
    };
    std::fs::write(&out_path, format!("{report}\n")).expect("write the serving report");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::splice_socket;

    #[test]
    fn splice_strips_one_closing_brace() {
        let base = "{\"bench\": \"serving\", \"cold_latency_us\": {\"p50\": 1.0}}\n";
        assert_eq!(
            splice_socket(base, "{\"p50_us\": 2.0}").unwrap(),
            "{\"bench\": \"serving\", \"cold_latency_us\": {\"p50\": 1.0}, \
             \"socket\": {\"p50_us\": 2.0}}"
        );
        assert_eq!(splice_socket("{}", "1").unwrap(), "{\"socket\": 1}");
        assert!(splice_socket("[1, 2]", "1").is_err());
    }

    #[test]
    fn splice_refuses_a_base_with_a_socket_section() {
        let spliced = splice_socket("{\"bench\": \"serving\"}", "{\"p50_us\": 2.0}").unwrap();
        let error = splice_socket(&spliced, "{\"p50_us\": 3.0}").unwrap_err();
        assert!(error.contains("socket"), "{error}");
    }
}
