//! Determinism guarantees of the sharded streaming synthesis engine: a
//! fixed `GeneratorConfig::seed` must produce an identical dataset —
//! utterances and program token sequences — regardless of the worker
//! thread count and the dedup shard count, and across repeated runs.

use genie_templates::{GeneratorConfig, SentenceGenerator};
use thingpedia::Thingpedia;
use thingtalk::nn_syntax::{to_tokens, NnSyntaxOptions};

fn config(seed: u64, threads: usize) -> GeneratorConfig {
    GeneratorConfig {
        target_per_rule: 30,
        max_depth: 5,
        instantiations_per_template: 1,
        seed,
        include_aggregation: true,
        include_timers: true,
        threads,
        ..GeneratorConfig::default()
    }
}

/// The dataset as the parser sees it: (utterance, program tokens) pairs.
fn dataset_sharded(seed: u64, threads: usize, shards: usize) -> Vec<(String, Vec<String>)> {
    let library = Thingpedia::builtin();
    let config = GeneratorConfig {
        shards,
        ..config(seed, threads)
    };
    let generator = SentenceGenerator::new(&library, config);
    let interner = generator.interner().clone();
    generator
        .synthesize()
        .into_iter()
        .map(|e| {
            (
                interner.render(&e.utterance),
                to_tokens(&e.program, NnSyntaxOptions::default()),
            )
        })
        .collect()
}

fn dataset(seed: u64, threads: usize) -> Vec<(String, Vec<String>)> {
    dataset_sharded(seed, threads, GeneratorConfig::default().shards)
}

#[test]
fn same_seed_same_dataset_across_thread_and_shard_counts() {
    let sequential = dataset_sharded(42, 1, 1);
    assert!(
        sequential.len() > 100,
        "dataset too small: {}",
        sequential.len()
    );
    for threads in [2, 3, 8, 0] {
        for shards in [1, 4, 16] {
            let parallel = dataset_sharded(42, threads, shards);
            assert_eq!(
                parallel, sequential,
                "dataset differs between (1 thread, 1 shard) and ({threads} threads, {shards} shards)"
            );
        }
    }
}

#[test]
fn matrix_thread_count_matches_the_sequential_dataset() {
    // The CI determinism matrix exports GENIE_TEST_THREADS={1, 2, 8}; the
    // dataset at that worker count must equal the sequential single-shard
    // dataset. Without the variable (local runs), default to 8 workers so
    // the multi-worker path is still exercised.
    let threads: usize = std::env::var("GENIE_TEST_THREADS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(8);
    assert_eq!(
        dataset_sharded(42, threads, 4),
        dataset_sharded(42, 1, 1),
        "threads = {threads}"
    );
}

#[test]
fn same_seed_same_dataset_across_runs() {
    assert_eq!(dataset(7, 0), dataset(7, 0));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(dataset(7, 0), dataset(8, 0));
}

#[test]
fn pipeline_output_is_thread_count_invariant() {
    use genie::pipeline::{DataPipeline, NnOptions, PipelineConfig};

    let library = Thingpedia::builtin();
    let build = |threads: usize| {
        let pipeline = DataPipeline::new(
            &library,
            PipelineConfig {
                synthesis: config(11, threads),
                paraphrase_sample: 60,
                ..PipelineConfig::default()
            },
        );
        let data = pipeline.build().unwrap();
        let examples = pipeline.to_parser_examples(&data.combined(), NnOptions::default());
        examples
            .into_iter()
            .map(|e| (e.sentence_text(), e.program.join(" ")))
            .collect::<Vec<_>>()
    };
    let sequential = build(1);
    assert!(!sequential.is_empty());
    assert_eq!(build(4), sequential);
    assert_eq!(build(0), sequential);
}

#[test]
fn fused_streaming_pipeline_matches_the_ci_matrix() {
    use genie::pipeline::{DataPipeline, NnOptions, PipelineConfig};

    // The exact grid the CI determinism matrix runs through
    // `dataset_digest`: threads {1, 2, 8} × shards {1, 4, 16}.
    let library = Thingpedia::builtin();
    let run = |threads: usize, shards: usize| {
        let pipeline = DataPipeline::new(
            &library,
            PipelineConfig {
                synthesis: GeneratorConfig {
                    threads,
                    shards,
                    ..config(13, threads)
                },
                paraphrase_sample: 40,
                ..PipelineConfig::default()
            },
        );
        let mut out = Vec::new();
        pipeline
            .run_streaming(NnOptions::default(), |e| {
                out.push((e.sentence_text(), e.program.join(" ")))
            })
            .unwrap();
        out
    };
    let reference = run(1, 1);
    assert!(reference.len() > 100);
    for threads in [2, 8] {
        for shards in [4, 16] {
            assert_eq!(
                run(threads, shards),
                reference,
                "threads={threads} shards={shards}"
            );
        }
    }
}

/// Interner determinism (the contract `genie_templates::intern` documents):
/// a fresh pre-seeded arena driven by the full parallel synthesis engine
/// assigns **identical symbols** for any worker count — worker overlays
/// never assign global ids; the canonical sink commits them in stream
/// order.
#[test]
fn interner_assigns_identical_symbols_across_thread_counts() {
    use genie_templates::intern::{fresh, Symbol};
    use genie_templates::SentenceGenerator;
    use thingpedia::ParamDatasets;

    let library = Thingpedia::builtin();
    let datasets = ParamDatasets::builtin();
    let run = |threads: usize| {
        let interner = fresh(&library, datasets);
        let generator = SentenceGenerator::with_interner(
            &library,
            GeneratorConfig {
                threads,
                batch_size: 8,
                ..config(29, threads)
            },
            interner.clone(),
        );
        let examples = generator.synthesize();
        assert!(!examples.is_empty());
        // The full arena contents: every (id, fragment) pair, in id order.
        let table: Vec<String> = (0..interner.len() as u32)
            .map(|id| interner.resolve(Symbol::from_raw(id)).to_owned())
            .collect();
        // And the raw symbol ids of every emitted utterance.
        let streams: Vec<Vec<u32>> = examples
            .iter()
            .map(|e| e.utterance.iter().map(|s| s.raw()).collect())
            .collect();
        (table, streams)
    };
    let (table_1, streams_1) = run(1);
    for threads in [2, 8] {
        let (table_n, streams_n) = run(threads);
        assert_eq!(
            table_n, table_1,
            "arena contents differ at {threads} threads"
        );
        assert_eq!(
            streams_n, streams_1,
            "symbol ids differ at {threads} threads"
        );
    }
}

/// Property-style round trip over randomized fragments: intern → resolve →
/// intern is the identity, and symbol equality coincides with fragment
/// equality.
#[test]
fn intern_resolve_intern_roundtrip_on_random_fragments() {
    use genie_nlp::intern::Interner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let interner = Interner::new();
    let mut rng = StdRng::seed_from_u64(4242);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyzABC0123456789:.,!@#\"'$_-"
        .chars()
        .collect();
    let mut fragments = Vec::new();
    for _ in 0..500 {
        let len = rng.gen_range(1..12);
        let fragment: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        fragments.push(fragment);
    }
    let symbols: Vec<_> = fragments.iter().map(|f| interner.intern(f)).collect();
    for (fragment, &symbol) in fragments.iter().zip(&symbols) {
        let resolved = interner.resolve(symbol).to_owned();
        assert_eq!(&resolved, fragment, "resolve changed the fragment");
        assert_eq!(
            interner.intern(&resolved),
            symbol,
            "round trip not identity"
        );
    }
    // Symbol equality ⇔ fragment equality (the injectivity the dedup keys
    // and every token comparison in the pipeline rely on).
    for i in 0..fragments.len() {
        for j in (i + 1)..fragments.len() {
            assert_eq!(
                symbols[i] == symbols[j],
                fragments[i] == fragments[j],
                "injectivity violated for {:?} / {:?}",
                fragments[i],
                fragments[j]
            );
        }
    }
}
