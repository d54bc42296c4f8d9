//! The traced run's per-layer measurements.
//!
//! After a workload's timed loop, its inputs are replayed in-process
//! through each layer's public functions, with a span around every call
//! (see [`crate::trace`]). The replay runs twice, untraced to warm up and
//! then traced. Layers that a span cannot isolate from outside
//! (the coalescer's wait, `par_map`'s fan-out, the reload's parts) are
//! timed by calling the layer directly and subtracting the parts measured
//! beside it.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie::engine::{ParseRequest, DEFAULT_CANDIDATES};
use genie::live::DeltaJournal;
use genie::pipeline::NnOptions;
use genie::{DataPipeline, GenieEngine};
use genie_server::coalescer::Coalescer;
use genie_server::config::{DEFAULT_COALESCE_WINDOW, DEFAULT_MAX_BATCH_REQUESTS};
use genie_server::config::{DEFAULT_MAX_BODY_BYTES, DEFAULT_MAX_COALESCE_BATCH};
use genie_server::json::Json;
use genie_server::metrics::Metrics;
use genie_server::{api, http};
use luinet::LuinetParser;
use thingtalk::nn_syntax::from_tokens_checked;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Outcome, Phases, Setup};
use crate::world;

/// Utterances each replay decodes.
const REPLAY_UTTERANCES: usize = 256;
/// Single requests the serving replay pushes through the codec layers.
const REPLAY_SINGLES: usize = 256;
/// Batch requests the serving replay pushes through the codec layers.
const REPLAY_BATCHES: usize = 16;
/// Repetitions of the micro-timed layers (swap, admin decode, par_map).
const REPS: usize = 64;
/// Repetitions of the second-scale reload parts.
const SLOW_REPS: usize = 3;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn median_us(durations: &[Duration]) -> f64 {
    median(
        &durations
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    )
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed())
}

/// Tokenize like the engine does: into the shared arena, committing novel
/// words.
fn tokenize(utterance: &str) -> genie_nlp::TokenStream {
    let interner = genie_templates::intern::shared();
    let mut local = genie_nlp::LocalInterner::new(interner);
    let mut sentence = genie_nlp::TokenStream::new();
    genie_nlp::tokenize::tokenize_into(utterance.trim(), &mut local, &mut sentence);
    if local.has_pending() {
        if let Some(remap) = interner.try_commit(&local.take_pending()) {
            remap.apply(&mut sentence);
        }
    }
    sentence
}

/// Candidate counts of the decode replay.
#[derive(Default)]
struct Counts {
    decoded: usize,
    valid: usize,
}

/// Decode each utterance twice: once through `GenieEngine::parse` with the
/// cache bypassed (the miss path), once part by part (tokenize →
/// `predict_topk` → `from_tokens_checked`), so the engine's own share is
/// the miss time minus its parts.
fn decode_replay(tracer: &mut Tracer, engine: &GenieEngine, utterances: &[String]) -> Counts {
    let model = engine.model();
    let library = engine.library();
    let mut counts = Counts::default();
    for (i, utterance) in utterances.iter().enumerate() {
        let id = i as u64;
        let request = ParseRequest::new(utterance.as_str()).bypass_cache();
        tracer.span("decode", None, id, |t, root| {
            let _ = t.span("genie.engine.parse_miss", root, id, |_, _| {
                black_box(engine.parse(&request))
            });
            t.span("decode.parts", root, id, |t, parts| {
                let sentence = t.span("genie-nlp.tokenize", parts, id, |_, _| tokenize(utterance));
                let predictions = t.span("luinet.predict_topk", parts, id, |_, _| {
                    model.predict_topk(&sentence, DEFAULT_CANDIDATES)
                });
                let valid = t.span("thingtalk.from_tokens_checked", parts, id, |_, _| {
                    predictions
                        .iter()
                        .filter(|p| from_tokens_checked(library.as_ref(), &p.tokens).is_ok())
                        .count()
                });
                counts.decoded += predictions.len();
                counts.valid += valid;
            });
        });
    }
    counts
}

/// The cache-hit path over `answered` utterances (typed no-parse answers
/// are not cached): each was parsed before, so each parse is a lookup.
fn hit_replay(tracer: &mut Tracer, engine: &GenieEngine, answered: &[String]) {
    for (i, utterance) in answered.iter().enumerate() {
        let request = ParseRequest::new(utterance.as_str());
        let _ = tracer.span("genie.engine.parse_hit", None, i as u64, |_, _| {
            black_box(engine.parse(&request))
        });
    }
}

/// Push the workload's own request shape through the server's codec
/// layers in-process: read the request off the wire bytes, parse the JSON,
/// decode the API request, run the engine, render, and write the response.
/// Singles call the engine directly (the coalescer is measured on its own);
/// batches bypass the cache, as the workload's distinct utterances miss it.
fn serving_replay(tracer: &mut Tracer, setup: &Setup) {
    let engine = setup.engine();
    let count = if setup.inputs.single {
        REPLAY_SINGLES
    } else {
        REPLAY_BATCHES
    };
    let mut out = Vec::with_capacity(64 << 10);
    for i in 0..count {
        let wire = &setup.inputs.jobs[i % setup.inputs.jobs.len()];
        let id = i as u64;
        tracer.span("serve", None, id, |t, root| {
            let request = t.span("genie-server.http.read_request", root, id, |_, _| {
                http::read_request(&mut &wire[..], DEFAULT_MAX_BODY_BYTES)
                    .expect("replayed request reads")
                    .expect("replayed request is present")
            });
            let json = t.span("genie-server.json.parse", root, id, |_, _| {
                Json::parse(std::str::from_utf8(&request.body).expect("UTF-8 body"))
                    .expect("replayed body parses")
            });
            let (status, reason, body) = if setup.inputs.single {
                let parse_request = t.span("genie-server.api.parse_request", root, id, |_, _| {
                    api::parse_request_from_json(&json).expect("replayed request decodes")
                });
                let result = t.span("serve.engine", root, id, |_, _| {
                    engine.parse(&parse_request)
                });
                t.span("genie-server.api.render_result", root, id, |_, _| {
                    api::render_result(&result)
                })
            } else {
                let mut requests = t.span("genie-server.api.parse_request", root, id, |_, _| {
                    api::parse_batch_from_json(&json, DEFAULT_MAX_BATCH_REQUESTS)
                        .expect("replayed batch decodes")
                });
                for request in &mut requests {
                    request.flags.bypass_cache = true;
                }
                let results = t.span("serve.engine", root, id, |_, _| {
                    engine.parse_batch(&requests)
                });
                t.span("genie-server.api.render_result", root, id, |_, _| {
                    (200, "OK", api::render_batch(&results))
                })
            };
            out.clear();
            t.span("genie-server.http.write_response", root, id, |_, _| {
                http::write_response(
                    &mut out,
                    status,
                    reason,
                    "application/json",
                    body.as_bytes(),
                    true,
                    &[],
                )
                .expect("writing to memory succeeds")
            });
        });
    }
}

/// The utterances the replays decode: the workload's own, cycled up to
/// [`REPLAY_UTTERANCES`].
fn replay_utterances(setup: &Setup) -> Vec<String> {
    let pool = &setup.inputs.utterances;
    (0..REPLAY_UTTERANCES)
        .map(|i| pool[i % pool.len()].clone())
        .collect()
}

fn replay(
    tracer: &mut Tracer,
    setup: &Setup,
    utterances: &[String],
    answered: &[String],
) -> Counts {
    let counts = decode_replay(tracer, setup.engine(), utterances);
    hit_replay(tracer, setup.engine(), answered);
    serving_replay(tracer, setup);
    counts
}

/// Median submit latency (µs) of a standalone coalescer over the engine,
/// driven by two closed-loop submitters of cached utterances, and the mean
/// micro-batch size its metrics (the counters `/metrics` exposes) saw.
fn coalescer_replay(engine: &GenieEngine, utterances: &[String]) -> (f64, f64) {
    let metrics = Arc::new(Metrics::default());
    let coalescer = Coalescer::start(
        engine.clone(),
        DEFAULT_COALESCE_WINDOW,
        DEFAULT_MAX_COALESCE_BATCH,
        metrics.clone(),
    )
    .expect("start a standalone coalescer");
    let halves: Vec<&[String]> = utterances.chunks(utterances.len().div_ceil(2)).collect();
    let submits: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|half| {
                let coalescer = &coalescer;
                scope.spawn(move || {
                    half.iter()
                        .map(|utterance| {
                            let deadline = Instant::now() + Duration::from_secs(30);
                            let request = ParseRequest::new(utterance.as_str());
                            let (result, took) = timed(|| coalescer.submit(request, deadline));
                            drop(result.expect("coalescer answers"));
                            took
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    coalescer.shutdown();
    let batches = metrics
        .coalesce_batches
        .load(std::sync::atomic::Ordering::Relaxed);
    let coalesced = metrics
        .coalesced_requests
        .load(std::sync::atomic::Ordering::Relaxed);
    (
        median_us(&submits),
        coalesced as f64 / batches.max(1) as f64,
    )
}

/// `par_map`'s own cost on a coalesced pair of cached requests: the
/// engine's fan-out (`threads` 0, as the served engine is built) minus the
/// same two parses in sequence.
fn par_map_overhead_us(engine: &GenieEngine, utterances: &[String]) -> f64 {
    let pair: Vec<ParseRequest> = utterances[..2]
        .iter()
        .map(|u| ParseRequest::new(u.as_str()))
        .collect();
    let mut parallel = Vec::with_capacity(REPS);
    let mut sequential = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        parallel
            .push(timed(|| black_box(genie_parallel::par_map(0, &pair, |_, r| engine.parse(r)))).1);
        sequential
            .push(timed(|| black_box(pair.iter().map(|r| engine.parse(r)).collect::<Vec<_>>())).1);
    }
    median_us(&parallel) - median_us(&sequential)
}

/// The reload's parts, each called directly, and the in-process reload.
fn reload_layers(setup: &Setup) -> Vec<Metric> {
    let live = &setup.live;
    let upsert_body = world::upsert_body(setup.seed);
    let remove_body = world::remove_body();

    let decode: Vec<Duration> = (0..REPS)
        .map(|_| timed(|| black_box(world::decode_delta(&upsert_body))).1)
        .collect();
    let (upsert, mode) = world::decode_delta(&upsert_body);
    let (remove, _) = world::decode_delta(&remove_body);

    let mut reloads = Vec::new();
    for _ in 0..2 {
        for delta in [&upsert, &remove] {
            let (report, took) = timed(|| live.reload_with(delta, mode));
            report.expect("in-process reload");
            reloads.push(took);
        }
    }

    let journal_path = setup.dir.join("layers.journal");
    let (journal, _) = DeltaJournal::open(&journal_path).expect("open a scratch journal");
    let appends: Vec<Duration> = (0..8)
        .map(|i| {
            let delta = if i % 2 == 0 { &upsert } else { &remove };
            let (digest, took) = timed(|| journal.append_delta(i + 2, delta, mode));
            digest.expect("journal append");
            took
        })
        .collect();

    let bundles: Vec<Duration> = (0..SLOW_REPS)
        .map(|_| {
            let (saved, took) = timed(|| live.persist_current());
            saved.expect("persist the bundle");
            took
        })
        .collect();

    let engine = setup.engine();
    let library = engine.library();
    let model = engine.model();
    let standalone = GenieEngine::builder()
        .thingpedia_shared(library.clone())
        .model_shared(model.clone())
        .build()
        .expect("standalone engine");
    let swaps: Vec<Duration> = (0..REPS)
        .map(|_| timed(|| standalone.swap_world(library.clone(), model.clone(), Vec::new(), 0)).1)
        .collect();

    let mut config = world::pipeline_config();
    config.synthesis.pool_streams = true;
    let pipeline = DataPipeline::new(&library, config);
    let mut streams = Vec::new();
    let mut trains = Vec::new();
    let mut examples_count = 0;
    for _ in 0..SLOW_REPS {
        let mut examples = Vec::new();
        let (stats, took) =
            timed(|| pipeline.run_streaming(NnOptions::default(), |e| examples.push(e)));
        stats.expect("stream the training set");
        streams.push(took);
        examples_count = examples.len();
        let mut parser = LuinetParser::new(world::model_config());
        trains.push(timed(|| parser.train(&examples)).1);
        black_box(parser.weights_digest());
    }

    let seconds = |d: &[Duration]| median(&d.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    let reload_s = seconds(&reloads);
    let stream_s = seconds(&streams);
    let train_s = seconds(&trains);
    let bundle_s = seconds(&bundles);
    let journal_us = median_us(&appends);
    let swap_us = median_us(&swaps);
    let decode_us = median_us(&decode);
    let residual_s =
        reload_s - stream_s - train_s - bundle_s - (journal_us + swap_us + decode_us) / 1e6;
    vec![
        ("genie.live.reload_s", reload_s, "s"),
        ("genie.pipeline.stream_s", stream_s, "s"),
        ("genie.pipeline.examples", examples_count as f64, "count"),
        ("luinet.train_s", train_s, "s"),
        (
            "luinet.train_examples_per_s",
            examples_count as f64 / train_s,
            "1/s",
        ),
        ("genie.live.journal_append_us", journal_us, "us"),
        ("genie.live.bundle_bytes_s", bundle_s, "s"),
        ("genie.engine.swap_us", swap_us, "us"),
        ("genie-server.admin.decode_us", decode_us, "us"),
        ("genie.live.reload_residual_s", residual_s, "s"),
    ]
}

/// Median duration (µs) per span name, and the engine's self time per
/// decoded utterance (the miss path minus its parts).
fn span_medians(tracer: &Tracer) -> (HashMap<&'static str, f64>, f64) {
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for span in tracer.spans() {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration() as f64 / 1e3);
    }
    let medians = by_name
        .into_iter()
        .map(|(name, durations)| (name, median(&durations)))
        .collect();
    let misses = tracer.durations_us("genie.engine.parse_miss");
    let parts = tracer.self_us("decode.parts");
    let parts_total = tracer.durations_us("decode.parts");
    // `decode.parts` self time is the replay's own glue between the parts;
    // the parts proper are its duration minus that.
    let engine_self: Vec<f64> = misses
        .iter()
        .zip(parts.iter().zip(&parts_total))
        .map(|(miss, (glue, total))| miss - (total - glue))
        .collect();
    (medians, median(&engine_self))
}

/// Every per-layer metric of the traced run.
pub fn measure(
    setup: &Setup,
    outcome: &Outcome,
    phases: &[Phases],
    trace_path: &Path,
) -> Vec<Metric> {
    let engine = setup.engine();
    let utterances = replay_utterances(setup);
    // The timed loop's checks swapped worlds, which empties the cache:
    // fill it again for the hit path.
    let answered: Vec<String> = utterances
        .iter()
        .filter(|u| engine.parse(&ParseRequest::new(u.as_str())).is_ok())
        .cloned()
        .collect();

    replay(&mut Tracer::new(false), setup, &utterances, &answered);
    let mut tracer = Tracer::new(true);
    let counts = replay(&mut tracer, setup, &utterances, &answered);
    let requests = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
    let spans_per_request = tracer.spans().len() as f64 / requests as f64;
    let overhead_us = crate::trace::span_cost_ns(100_000) * spans_per_request / 1e3;
    tracer.write_tsv(trace_path).expect("write the span trace");

    let (span, engine_self_us) = span_medians(&tracer);
    let (submit_us, batch_size) = coalescer_replay(engine, &answered);
    let hit_us = span["genie.engine.parse_hit"];
    let engine_stage_us = if setup.inputs.single {
        submit_us
    } else {
        span["serve.engine"]
    };
    let socket_gap_us = outcome.latency.p50 * 1e3
        - span["genie-server.http.read_request"]
        - span["genie-server.json.parse"]
        - span["genie-server.api.parse_request"]
        - engine_stage_us
        - span["genie-server.api.render_result"]
        - span["genie-server.http.write_response"];

    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        ("genie-nlp.tokenize_us", span["genie-nlp.tokenize"], "us"),
        ("luinet.predict_topk_us", span["luinet.predict_topk"], "us"),
        ("luinet.candidates_decoded", counts.decoded as f64, "count"),
        (
            "thingtalk.from_tokens_checked_us",
            span["thingtalk.from_tokens_checked"],
            "us",
        ),
        (
            "thingtalk.valid_candidate_ratio",
            counts.valid as f64 / counts.decoded.max(1) as f64,
            "ratio",
        ),
        (
            "genie.engine.parse_miss_us",
            span["genie.engine.parse_miss"],
            "us",
        ),
        ("genie.engine.self_us", engine_self_us, "us"),
        (
            "genie-server.http.read_request_us",
            span["genie-server.http.read_request"],
            "us",
        ),
        (
            "genie-server.json.parse_us",
            span["genie-server.json.parse"],
            "us",
        ),
        (
            "genie-server.api.parse_request_us",
            span["genie-server.api.parse_request"],
            "us",
        ),
        (
            "genie-server.api.render_result_us",
            span["genie-server.api.render_result"],
            "us",
        ),
        (
            "genie-server.http.write_response_us",
            span["genie-server.http.write_response"],
            "us",
        ),
        ("genie.engine.parse_hit_us", hit_us, "us"),
        (
            "genie-server.coalescer.submit_wait_us",
            submit_us - hit_us,
            "us",
        ),
        ("genie-server.coalescer.batch_size", batch_size, "count"),
        (
            "genie-parallel.par_map_overhead_us",
            par_map_overhead_us(engine, &answered),
            "us",
        ),
        ("genie-server.socket_gap_us", socket_gap_us, "us"),
        (
            "genie.engine.cache_hit_ratio",
            outcome.cache_hit_ratio,
            "ratio",
        ),
    ];
    metrics.extend(reload_layers(setup));
    metrics.extend([
        ("setup.bootstrap_s", phase(|p| p.bootstrap_s), "s"),
        ("setup.inputs_s", phase(|p| p.inputs_s), "s"),
        ("setup.warmup_s", phase(|p| p.warmup_s), "s"),
        ("trace.overhead_us", overhead_us, "us"),
    ]);
    metrics
}
