//! The serving bench: request latency and throughput of the
//! [`genie::GenieEngine`] facade, written as machine-readable
//! `BENCH_serving.json` for the CI perf trajectory.
//!
//! The bench trains a small engine once, then measures:
//!
//! * **latency** — per-request wall time over the workload with the cache
//!   bypassed (p50 / p99 / mean), i.e. the cost of a cold parse:
//!   top-k decode + NN-syntax decode + typecheck per candidate;
//! * **cached latency** — the same workload served from the warm response
//!   cache (p50 / p99);
//! * **throughput** — requests/sec of `parse_batch` at worker counts
//!   {1, 2, 8}, with the responses checked byte-identical across counts.
//!
//! Environment: `GENIE_BENCH_SMOKE=1` shrinks the workload to CI-smoke
//! size; `GENIE_BENCH_SERVING_JSON=path` overrides where the JSON report
//! is written (default `BENCH_serving.json` in the working directory).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use genie::engine::{GenieEngine, ParseRequest};
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie::GenieResult;
use genie_bench::{json_object, json_string};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;

fn build_engine(target_per_rule: usize) -> GenieEngine {
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
        .threads(1)
        .build()
        .expect("the bench engine builds")
}

/// A sibling engine over the same trained model (fresh cache and
/// counters) with a different `parse_batch` worker count — training is
/// paid once, by [`build_engine`].
fn with_threads(base: &GenieEngine, threads: usize) -> GenieEngine {
    GenieEngine::builder()
        .model_shared(base.model())
        .threads(threads)
        .build()
        .expect("the sibling engine builds")
}

/// A serving workload: utterances drawn from the engine's own training
/// distribution (so most requests parse, like production traffic against
/// a converged model), salted with malformed requests the engine must
/// reject without panicking.
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
            // One request in sixteen is garbage the engine must reject.
            if i % 16 == 15 {
                ParseRequest::new("")
            } else {
                ParseRequest::new(commands[i % commands.len()].clone())
            }
        })
        .collect()
}

fn quantile(sorted_micros: &[f64], q: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * q).round() as usize;
    sorted_micros[idx]
}

/// Render responses into a canonical comparison string (errors included),
/// used to assert byte-identical batches across thread counts.
fn render(results: &[GenieResult<genie::ParseResponse>]) -> String {
    results
        .iter()
        .map(|result| match result {
            Ok(response) => format!(
                "ok {} => {}",
                response.sentence.join(" "),
                response
                    .candidates
                    .iter()
                    .map(|c| c.tokens.join(" "))
                    .collect::<Vec<_>>()
                    .join(" ;; ")
            ),
            Err(error) => format!("err {error}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn bench_serving_report(_c: &mut Criterion) {
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let target_per_rule = if smoke { 15 } else { 60 };
    let requests = if smoke { 80 } else { 400 };

    let train_start = Instant::now();
    let engine = build_engine(target_per_rule);
    let train_secs = train_start.elapsed().as_secs_f64();
    let workload = workload(requests, target_per_rule);

    // --- Cold latency distribution (cache bypassed). ---
    let mut cold_micros: Vec<f64> = Vec::with_capacity(workload.len());
    let mut parsed_ok = 0usize;
    for request in &workload {
        let request = request.clone().bypass_cache();
        let start = Instant::now();
        let result = engine.parse(&request);
        cold_micros.push(start.elapsed().as_secs_f64() * 1e6);
        if result.is_ok() {
            parsed_ok += 1;
        }
        black_box(result).ok();
    }
    cold_micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

    // --- Warm latency distribution (cache populated by the cold pass's
    // inserts; repeats hit). ---
    let mut warm_micros: Vec<f64> = Vec::with_capacity(workload.len());
    for request in &workload {
        let start = Instant::now();
        black_box(engine.parse(request)).ok();
        warm_micros.push(start.elapsed().as_secs_f64() * 1e6);
    }
    warm_micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

    // --- Throughput at worker counts {1, 2, 8}, byte-identical output. ---
    let model_threads = [1usize, 2, 8];
    let mut throughput: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<String> = None;
    for &threads in &model_threads {
        let engine = with_threads(&engine, threads);
        // Warm-up populates the cache so throughput measures the served
        // steady state; the first rendered batch doubles as the
        // determinism reference.
        let rendered = render(&engine.parse_batch(&workload));
        match &reference {
            None => reference = Some(rendered),
            Some(expected) => assert_eq!(
                &rendered, expected,
                "parse_batch output differs at {threads} threads"
            ),
        }
        let start = Instant::now();
        let passes: usize = if smoke { 2 } else { 5 };
        for _ in 0..passes {
            black_box(engine.parse_batch(&workload));
        }
        let secs = start.elapsed().as_secs_f64() / passes as f64;
        throughput.push((threads, workload.len() as f64 / secs));
    }

    let p50 = quantile(&cold_micros, 0.50);
    let p99 = quantile(&cold_micros, 0.99);
    let mean = cold_micros.iter().sum::<f64>() / cold_micros.len().max(1) as f64;
    let warm_p50 = quantile(&warm_micros, 0.50);
    let warm_p99 = quantile(&warm_micros, 0.99);
    let stats = engine.stats();
    println!(
        "serving: {} requests, {} parsed ok; cold p50 {p50:.0}us p99 {p99:.0}us mean {mean:.0}us; \
         warm p50 {warm_p50:.1}us p99 {warm_p99:.1}us; cache hits {} of {} requests",
        workload.len(),
        parsed_ok,
        stats.cache_hits,
        stats.requests,
    );
    for (threads, rate) in &throughput {
        println!("serving-throughput threads={threads}: {rate:>9.0} req/s (byte-identical)");
    }

    let throughput_json: Vec<String> = throughput
        .iter()
        .map(|(threads, rate)| {
            json_object(&[
                ("threads", threads.to_string()),
                ("requests_per_sec", format!("{rate:.1}")),
            ])
        })
        .collect();
    let report = json_object(&[
        ("bench", json_string("serving")),
        ("smoke", smoke.to_string()),
        (
            "config",
            json_object(&[
                ("target_per_rule", target_per_rule.to_string()),
                ("requests", workload.len().to_string()),
            ]),
        ),
        // Measured, so outside `config`: the gate requires equal configs.
        ("train_seconds", format!("{train_secs:.3}")),
        ("parsed_ok", parsed_ok.to_string()),
        (
            "cold_latency_us",
            json_object(&[
                ("p50", format!("{p50:.1}")),
                ("p99", format!("{p99:.1}")),
                ("mean", format!("{mean:.1}")),
            ]),
        ),
        (
            "warm_latency_us",
            json_object(&[
                ("p50", format!("{warm_p50:.2}")),
                ("p99", format!("{warm_p99:.2}")),
            ]),
        ),
        ("throughput", format!("[{}]", throughput_json.join(", "))),
        ("cache_hits", stats.cache_hits.to_string()),
        ("rejected_candidates", stats.rejected_candidates.to_string()),
    ]);
    let path = std::env::var("GENIE_BENCH_SERVING_JSON")
        .unwrap_or_else(|_| "BENCH_serving.json".to_owned());
    std::fs::write(&path, format!("{report}\n")).expect("write BENCH_serving.json");
    println!("wrote {path}");
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serving_report
);
criterion_main!(benches);
