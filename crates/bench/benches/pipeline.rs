//! Criterion benches for the data-acquisition pipeline (§3.2–§3.4):
//! paraphrase simulation, parameter expansion, PPDB augmentation, argument
//! identification, and full training-set assembly.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

use genie::expansion::{augment_ppdb, expand_parameters};
use genie::paraphrase::{ParaphraseConfig, ParaphraseSimulator};
use genie::pipeline::{DataPipeline, PipelineConfig};
use genie::{Example, ExampleSource};
use genie_nlp::{identify_arguments, tokenize, Ppdb};
use genie_templates::GeneratorConfig;
use thingpedia::{ParamDatasets, Thingpedia};
use thingtalk::syntax::parse_program;

fn sample_example() -> Example {
    Example::new(
        "when i receive an email , send a slack message to #general saying check your inbox",
        parse_program(
            "monitor (@com.gmail.inbox()) => @com.slack.send(channel = \"#general\"^^tt:slack_channel, message = \"check your inbox\")",
        )
        .unwrap(),
        ExampleSource::Synthesized,
    )
}

fn bench_paraphrase_simulation(c: &mut Criterion) {
    let simulator = ParaphraseSimulator::new(ParaphraseConfig::default());
    let examples = vec![sample_example(); 50];
    c.bench_function("paraphrase_simulation_50", |b| {
        b.iter(|| black_box(simulator.paraphrase_all(black_box(&examples))))
    });
}

fn bench_parameter_expansion(c: &mut Criterion) {
    let datasets = ParamDatasets::builtin();
    let example = sample_example();
    c.bench_function("parameter_expansion_10x", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            black_box(expand_parameters(&example, datasets, 10, &mut rng))
        })
    });
}

fn bench_ppdb_augmentation(c: &mut Criterion) {
    let ppdb = Ppdb::builtin().compile(genie_templates::intern::shared());
    let example = sample_example();
    c.bench_function("ppdb_augmentation_5x", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            black_box(augment_ppdb(&example, &ppdb, 5, &mut rng))
        })
    });
}

fn bench_argument_identification(c: &mut Criterion) {
    let sentences = [
        "remind me at 8:30am tomorrow to email bob@example.com about the $25 invoice",
        "post \"hello brave new world\" on twitter when the temperature drops below 60f",
        "text +16505551234 the report.pdf link https://example.com/report",
    ];
    c.bench_function("argument_identification", |b| {
        b.iter(|| {
            for sentence in sentences {
                black_box(identify_arguments(&tokenize(black_box(sentence))));
            }
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let library = Thingpedia::builtin();
    c.bench_function("pipeline_build_small", |b| {
        b.iter(|| {
            let pipeline = DataPipeline::new(
                &library,
                PipelineConfig {
                    synthesis: GeneratorConfig {
                        target_per_rule: 10,
                        max_depth: 5,
                        instantiations_per_template: 1,
                        seed: 1,
                        include_aggregation: false,
                        include_timers: true,
                        threads: 0,
                        ..GeneratorConfig::default()
                    },
                    paraphrase_sample: 50,
                    ..PipelineConfig::default()
                },
            );
            black_box(pipeline.build().expect("builtin pipeline"))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_paraphrase_simulation,
        bench_parameter_expansion,
        bench_ppdb_augmentation,
        bench_argument_identification,
        bench_full_pipeline
);
criterion_main!(benches);
