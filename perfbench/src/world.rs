//! The served world and the seeded inputs every workload draws from.
//!
//! The world's configuration is fixed (training seed, synthesis size,
//! thread counts); only the *inputs* depend on the workload seed. Thread
//! counts are pinned to 1 for synthesis and training: the digests do not
//! depend on them, and a single builder thread leaves the second core of a
//! small host to the serving path while a reload retrains.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use genie::dataset::Example;
use genie::evaldata::{cheatsheet_data, developer_data, EvalDataConfig};
use genie::live::{LiveWorld, RetrainMode, SkillDelta};
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use thingpedia::Thingpedia;

/// Seed of the training data and the model; the workload seed never
/// reaches the world, so every run serves the same model.
const TRAIN_SEED: u64 = 7;

/// Seed of the fixed accuracy set behind `exact_match` and
/// `answered_ratio` (held out from training, independent of the workload
/// seed so those ratios repeat exactly).
const ACCURACY_SEED: u64 = 9000;

/// Sentences per evaluation generator in the accuracy set.
const ACCURACY_SIZE: usize = 100;

/// The class the reload deltas upsert and remove. No utterance of any
/// parse workload names it.
const BENCH_CLASS: &str =
    "class @com.bench.lights { action set_power(in req power : Enum(on, off)); }";

/// The bench class's fully qualified name.
const BENCH_CLASS_NAME: &str = "com.bench.lights";

/// Casual framings in the style of the cheatsheet data. Combined with the
/// held-out sentences they multiply the pool of distinct utterances so a
/// cache-bypassing workload never repeats one.
const PREFIXES: &[&str] = &[
    "",
    "hey assistant",
    "yo",
    "hi there ,",
    "assistant ,",
    "please",
    "could you",
    "help me",
];
const SUFFIXES: &[&str] = &["", "asap", "thanks", "thx", "right away", "please"];

/// Template verbs the seeded bench-class upsert picks from.
const BENCH_VERBS: &[&str] = &["switch", "turn", "flip", "set"];

pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(20)
                .max_depth(4)
                .instantiations_per_template(1)
                .seed(TRAIN_SEED)
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
                .seed(TRAIN_SEED)
                .build()
                .expect("valid paraphrase config"),
        )
        .paraphrase_sample(80)
        .parameter_expansion(false)
        .seed(TRAIN_SEED)
        .build()
        .expect("valid pipeline config")
}

pub fn model_config() -> ModelConfig {
    ModelConfig {
        epochs: 4,
        seed: TRAIN_SEED,
        threads: 1,
        ..ModelConfig::default()
    }
}

/// Open a durable live world in `dir` (which must not hold an earlier
/// world: a bundle there would warm-start it and skip the bootstrap).
pub fn open_world(dir: &Path) -> Arc<LiveWorld> {
    let (live, report) = LiveWorld::open_durable(
        dir,
        Thingpedia::builtin(),
        pipeline_config(),
        model_config(),
    )
    .expect("bootstrap the durable world");
    assert!(
        !report.recovered_from_bundle && report.version == 1,
        "the world in {} was not bootstrapped cold: {report:?}",
        dir.display()
    );
    Arc::new(live)
}

/// A fresh, empty directory for run state under the benchmark's own
/// `out/` directory (the benchmark writes nowhere else).
pub fn state_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run state directory");
    dir
}

/// Developer plus cheatsheet sentences (§5.1) generated with `seed`.
fn held_out(seed: u64, size: usize) -> Vec<Example> {
    let library = Thingpedia::builtin();
    let config = EvalDataConfig { size, seed };
    let mut examples = developer_data(&library, config).examples;
    examples.extend(cheatsheet_data(&library, config).examples);
    examples
}

/// The fixed accuracy set, as examples with gold programs.
pub fn accuracy_set() -> Vec<Example> {
    held_out(ACCURACY_SEED, ACCURACY_SIZE)
}

/// The seed the held-out input generators get for workload seed `seed`:
/// apart from the training seed and from the accuracy set's.
fn input_seed(seed: u64) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(seed.wrapping_add(1)) ^ 0x1_0000
}

/// `count` distinct held-out utterances (by text, and so by token
/// sequence), seeded by `seed`: developer and cheatsheet sentences, then
/// the same sentences under casual framings, shuffled.
pub fn distinct_utterances(seed: u64, count: usize) -> Vec<String> {
    // Each sentence yields up to PREFIXES × SUFFIXES utterances; the two
    // generators overlap a little, hence the margin.
    let size = count / (PREFIXES.len() * SUFFIXES.len()) + 50;
    let mut seen = HashSet::new();
    let base: Vec<String> = held_out(input_seed(seed), size)
        .iter()
        .map(Example::text)
        .filter(|text| seen.insert(text.clone()))
        .collect();
    let mut out = base.clone();
    for prefix in PREFIXES {
        for suffix in SUFFIXES {
            for sentence in &base {
                let framed = [*prefix, sentence.as_str(), *suffix]
                    .iter()
                    .filter(|part| !part.is_empty())
                    .copied()
                    .collect::<Vec<_>>()
                    .join(" ");
                if seen.insert(framed.clone()) {
                    out.push(framed);
                }
            }
        }
    }
    assert!(out.len() >= count, "the held-out pool is too small");
    out.shuffle(&mut StdRng::seed_from_u64(seed));
    out.truncate(count);
    out
}

/// The bench class's upsert body for `POST /v1/admin/reload`; the template
/// wording is picked by `seed`.
pub fn upsert_body(seed: u64) -> String {
    let verb = BENCH_VERBS
        .choose(&mut StdRng::seed_from_u64(seed))
        .expect("verbs to choose from");
    format!(
        "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
         [{{\"category\": \"vp\", \"function\": \"set_power\", \"utterance\": {}}}], \
         \"mode\": \"full\", \"wait\": true}}",
        genie_server::json::escape(BENCH_CLASS),
        genie_server::json::escape(&format!("{verb} the bench lights $power")),
    )
}

/// The bench class's remove body.
pub fn remove_body() -> String {
    format!(
        "{{\"op\": \"remove\", \"class\": {}, \"mode\": \"full\", \"wait\": true}}",
        genie_server::json::escape(BENCH_CLASS_NAME)
    )
}

/// Decode a reload body with the server's own decoder.
pub fn decode_delta(body: &str) -> (SkillDelta, RetrainMode) {
    let json = genie_server::json::Json::parse(body).expect("reload bodies are valid JSON");
    genie_server::admin::skill_delta_from_json(&json).expect("reload bodies decode")
}
