//! The training-set builder (Fig. 2, §3.4).
//!
//! The pipeline synthesizes sentences with the template engine, samples a
//! subset for (simulated) paraphrasing, expands parameters, applies PPDB
//! augmentation, and assembles the final training set. Three training
//! strategies are supported, matching Fig. 8: synthesized-only,
//! paraphrase-only (the traditional methodology), and the Genie strategy
//! that combines both. Ablation switches (Table 3) control
//! canonicalization, keyword parameters, type annotations, parameter
//! expansion and the pretrained decoder LM.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use genie_nlp::Ppdb;
use genie_templates::dedup::fingerprint;
use genie_templates::{
    BatchObserver, BatchProvider, GeneratorConfig, Interner, SentenceGenerator, SynthesisStats,
    SynthesizedExample,
};
use luinet::{ParserExample, ProgramLm};
use thingpedia::{ParamDatasets, Thingpedia};
use thingtalk::canonical::canonicalized;
use thingtalk::nn_syntax::{to_tokens, NnSyntaxOptions};

use genie_parallel::item_seed;

use crate::dataset::{Dataset, Example, ExampleSource, ShardedDatasetWriter};
use crate::error::{Error, GenieResult};
use crate::expansion::{augment_ppdb, expand_dataset, expand_parameters};
use crate::paraphrase::{ParaphraseConfig, ParaphraseSimulator};

/// Which data the parser is trained on (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingStrategy {
    /// Only synthesized sentences.
    SynthesizedOnly,
    /// Only (simulated) paraphrases — the Wang-et-al methodology.
    ParaphraseOnly,
    /// Synthesized + paraphrases + augmentation — the Genie strategy.
    Genie,
}

impl TrainingStrategy {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TrainingStrategy::SynthesizedOnly => "Synthesized Only",
            TrainingStrategy::ParaphraseOnly => "Paraphrase Only",
            TrainingStrategy::Genie => "Genie",
        }
    }
}

/// Options controlling how programs are rendered into parser tokens,
/// bundling the NN-syntax settings with the canonicalization switch of the
/// Table 3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnOptions {
    /// Keyword parameters / type annotations (NN syntax).
    pub syntax: NnSyntaxOptions,
    /// Canonicalize programs before serialization. Disabling this randomly
    /// shuffles keyword parameters per training example (the paper's
    /// "− canonicalization" row).
    pub canonicalize: bool,
}

impl Default for NnOptions {
    fn default() -> Self {
        NnOptions {
            syntax: NnSyntaxOptions::default(),
            canonicalize: true,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Template-synthesis settings.
    pub synthesis: GeneratorConfig,
    /// Paraphrase-simulation settings.
    pub paraphrase: ParaphraseConfig,
    /// How many synthesized sentences are sent for paraphrasing.
    pub paraphrase_sample: usize,
    /// Parameter-expansion factor for paraphrases (paper: 10–30×).
    pub expansion_paraphrase: usize,
    /// Parameter-expansion factor for synthesized sentences (paper: 1–4×).
    pub expansion_synthesized: usize,
    /// Master switch for parameter expansion (Table 3 ablation).
    pub parameter_expansion: bool,
    /// Seed for sampling decisions in the pipeline itself.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            synthesis: GeneratorConfig::default(),
            paraphrase: ParaphraseConfig::default(),
            paraphrase_sample: 400,
            expansion_paraphrase: 3,
            expansion_synthesized: 1,
            parameter_expansion: true,
            seed: 0,
        }
    }
}

impl PipelineConfig {
    /// Start a validating builder seeded with the default configuration.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::default(),
        }
    }

    /// Check an already-assembled configuration, including the nested
    /// synthesis and paraphrase configs.
    pub fn validate(&self) -> Result<(), genie_templates::ConfigError> {
        self.synthesis.validate()?;
        self.paraphrase.validate()?;
        Ok(())
    }
}

/// Validating builder for [`PipelineConfig`]. Nested configs are taken
/// whole (build them with their own builders); `build()` re-validates the
/// complete assembly.
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Template-synthesis settings.
    pub fn synthesis(mut self, value: GeneratorConfig) -> Self {
        self.config.synthesis = value;
        self
    }

    /// Paraphrase-simulation settings.
    pub fn paraphrase(mut self, value: ParaphraseConfig) -> Self {
        self.config.paraphrase = value;
        self
    }

    /// How many synthesized sentences are sent for paraphrasing.
    pub fn paraphrase_sample(mut self, value: usize) -> Self {
        self.config.paraphrase_sample = value;
        self
    }

    /// Parameter-expansion factor for paraphrases.
    pub fn expansion_paraphrase(mut self, value: usize) -> Self {
        self.config.expansion_paraphrase = value;
        self
    }

    /// Parameter-expansion factor for synthesized sentences.
    pub fn expansion_synthesized(mut self, value: usize) -> Self {
        self.config.expansion_synthesized = value;
        self
    }

    /// Master switch for parameter expansion.
    pub fn parameter_expansion(mut self, value: bool) -> Self {
        self.config.parameter_expansion = value;
        self
    }

    /// Seed for sampling decisions in the pipeline itself.
    pub fn seed(mut self, value: u64) -> Self {
        self.config.seed = value;
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<PipelineConfig, genie_templates::ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Counters from one fused streaming run ([`DataPipeline::run_streaming`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Synthesized sentences that entered the fused stages (post-dedup).
    pub synthesized: usize,
    /// Paraphrases produced by the simulated crowdworkers.
    pub paraphrases: usize,
    /// Parameter-expanded / PPDB-augmented variants.
    pub augmented: usize,
    /// Parser examples handed to the sink in total.
    pub emitted: usize,
    /// Counters of the underlying synthesis stream.
    pub synthesis: SynthesisStats,
}

/// The assembled training material, kept separated by provenance so the
/// training strategies and Fig. 7 statistics can be computed.
#[derive(Debug, Clone, Default)]
pub struct TrainingData {
    /// Synthesized examples.
    pub synthesized: Dataset,
    /// Simulated crowdworker paraphrases.
    pub paraphrases: Dataset,
    /// Parameter-expanded / PPDB-augmented examples.
    pub augmented: Dataset,
}

impl TrainingData {
    /// The dataset a given training strategy sees.
    pub fn for_strategy(&self, strategy: TrainingStrategy) -> Dataset {
        let mut out = Dataset::new();
        match strategy {
            TrainingStrategy::SynthesizedOnly => out.extend(self.synthesized.clone()),
            TrainingStrategy::ParaphraseOnly => out.extend(self.paraphrases.clone()),
            TrainingStrategy::Genie => {
                out.extend(self.synthesized.clone());
                out.extend(self.paraphrases.clone());
                out.extend(self.augmented.clone());
            }
        }
        out
    }

    /// The full Genie training set.
    pub fn combined(&self) -> Dataset {
        self.for_strategy(TrainingStrategy::Genie)
    }
}

/// The end-to-end training-set builder.
pub struct DataPipeline<'a> {
    library: &'a Thingpedia,
    datasets: &'static ParamDatasets,
    config: PipelineConfig,
    /// Snapshot-scoped synthesis arena (live worlds). `None` — the default —
    /// synthesizes straight into the process-shared arena, exactly as
    /// before the live subsystem existed.
    synth_interner: Option<Arc<Interner>>,
}

impl<'a> DataPipeline<'a> {
    /// Create a pipeline over a skill library.
    pub fn new(library: &'a Thingpedia, config: PipelineConfig) -> Self {
        DataPipeline {
            library,
            datasets: ParamDatasets::builtin(),
            config,
            synth_interner: None,
        }
    }

    /// Create a pipeline whose *synthesis half* (phrase pools, construct
    /// vocabulary, dedup keys) interns into a caller-owned snapshot arena
    /// instead of the process-shared one. The arena must already be
    /// pre-seeded for the library ([`genie_templates::intern::fresh`]); the
    /// pipeline does not seed it again. That is what makes symbol
    /// assignment inside the snapshot worker-count- and
    /// snapshot-count-invariant. Downstream fused stages (paraphrase,
    /// expansion, parser-example conversion) still speak the shared arena:
    /// each synthesized utterance is re-interned at the sequential fuse
    /// boundary, which keeps the model layer's `&'static str` vocabulary
    /// untouched and the emitted text byte-identical either way.
    pub fn with_interner(
        library: &'a Thingpedia,
        config: PipelineConfig,
        interner: Arc<Interner>,
    ) -> Self {
        DataPipeline {
            library,
            datasets: ParamDatasets::builtin(),
            config,
            synth_interner: Some(interner),
        }
    }

    /// The skill library the pipeline targets.
    pub fn library(&self) -> &Thingpedia {
        self.library
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The snapshot arena the synthesis half interns into, when one was
    /// attached with [`DataPipeline::with_interner`].
    pub fn synth_interner(&self) -> Option<&Arc<Interner>> {
        self.synth_interner.as_ref()
    }

    /// The sentence generator this pipeline runs: snapshot-arena-scoped
    /// when one is attached, shared-arena otherwise.
    fn generator(&self) -> SentenceGenerator<'a> {
        match &self.synth_interner {
            Some(arena) => {
                SentenceGenerator::with_interner(self.library, self.config.synthesis, arena.clone())
            }
            None => SentenceGenerator::new(self.library, self.config.synthesis),
        }
    }

    /// Re-intern a synthesized utterance from the snapshot arena into the
    /// process-shared one (a no-op without a snapshot arena). Called at
    /// sequential points only, so shared-arena growth stays deterministic
    /// for a fixed call sequence; rendering is injective, so the text is
    /// unchanged.
    fn bridge_to_shared(&self, example: &mut SynthesizedExample) {
        if let Some(snapshot) = &self.synth_interner {
            let text = snapshot.render(&example.utterance);
            example.utterance = genie_templates::intern::shared().stream_of(&text);
        }
    }

    /// Run synthesis, paraphrasing and augmentation.
    ///
    /// # Errors
    ///
    /// Propagates parameter-expansion failures (missing dataset in a
    /// hand-assembled registry); infallible with the builtin datasets.
    pub fn build(&self) -> GenieResult<TrainingData> {
        // Validate even hand-assembled configs at the choke point: the
        // fields are still `pub`, and e.g. an out-of-range `error_rate`
        // would otherwise panic inside the paraphrase simulation.
        self.config.validate()?;
        let generator = self.generator();
        let mut synthesized_raw = generator.synthesize();
        for example in &mut synthesized_raw {
            self.bridge_to_shared(example);
        }
        let synthesized = Dataset::from_examples(
            synthesized_raw
                .iter()
                .map(|e| {
                    Example::new(
                        e.utterance.clone(),
                        e.program.clone(),
                        ExampleSource::Synthesized,
                    )
                })
                .collect(),
        );

        // Sample synthesized sentences for paraphrasing.
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut to_paraphrase: Vec<&Example> = synthesized.examples.iter().collect();
        to_paraphrase.shuffle(&mut rng);
        to_paraphrase.truncate(self.config.paraphrase_sample);
        let simulator = ParaphraseSimulator::new(self.config.paraphrase);
        let paraphrases = Dataset::from_examples(simulator.paraphrase_all_with_threads(
            &to_paraphrase.into_iter().cloned().collect::<Vec<_>>(),
            self.config.synthesis.threads,
        ));

        // Parameter expansion / augmentation.
        let augmented = if self.config.parameter_expansion {
            let mut expanded = expand_dataset(
                &paraphrases.examples,
                self.datasets,
                |_| self.config.expansion_paraphrase,
                self.config.seed.wrapping_add(1),
                self.config.synthesis.threads,
            )?;
            expanded.extend(expand_dataset(
                &synthesized.examples,
                self.datasets,
                |e| {
                    if e.flags.primitive {
                        self.config.expansion_synthesized
                    } else {
                        self.config.expansion_synthesized.saturating_sub(1)
                    }
                },
                self.config.seed.wrapping_add(2),
                self.config.synthesis.threads,
            )?);
            Dataset::from_examples(expanded)
        } else {
            Dataset::new()
        };

        Ok(TrainingData {
            synthesized,
            paraphrases,
            augmented,
        })
    }

    /// Run the fused streaming pipeline: every batch of synthesized
    /// sentences flows synthesize → paraphrase → parameter expansion →
    /// parser-example conversion and is handed to `sink` before the next
    /// batch is produced, so the full dataset is **never resident** — peak
    /// memory is one fused batch plus the dedup keys.
    ///
    /// Differences from the materializing [`DataPipeline::build`]:
    /// paraphrase candidates are selected by a deterministic fingerprint of
    /// the stream index at a rate targeting
    /// [`PipelineConfig::paraphrase_sample`] sentences over the expected
    /// stream — an unbiased spread across every construct rule without the
    /// whole-dataset shuffle (and barrier) `build` uses, though the realized
    /// count is approximate rather than exact. All per-example randomness is
    /// keyed on the example's global stream index, so the emitted sequence
    /// is byte-identical across thread counts and dedup shard counts.
    pub fn run_streaming(
        &self,
        options: NnOptions,
        sink: impl FnMut(ParserExample),
    ) -> GenieResult<StreamStats> {
        self.run_streaming_observed(options, None, None, sink)
    }

    /// [`DataPipeline::run_streaming`] with the incremental-re-synthesis
    /// hooks of the live subsystem threaded through to
    /// [`SentenceGenerator::synthesize_streaming_observed`]:
    ///
    /// * `provider` — consulted per `(rule, batch)` synthesis work item; a
    ///   `Some` return substitutes cached candidates for live sampling
    ///   (batches whose phrase pools a skill delta did not touch);
    /// * `observer` — receives every completed batch (candidates,
    ///   fingerprints, pool draws) at the canonical sink, which is what the
    ///   live subsystem memoizes for the *next* delta.
    pub fn run_streaming_observed(
        &self,
        options: NnOptions,
        provider: Option<BatchProvider<'_>>,
        observer: Option<BatchObserver<'_>>,
        mut sink: impl FnMut(ParserExample),
    ) -> GenieResult<StreamStats> {
        self.config.validate()?;
        let generator = self.generator();
        let simulator = ParaphraseSimulator::new(self.config.paraphrase);
        let ppdb = Ppdb::builtin().compile(genie_templates::intern::shared());
        let fuse = match self.config.synthesis.batch_size {
            0 => 256,
            n => n,
        };
        // Select ~paraphrase_sample of the expected pre-dedup candidates,
        // spread over the whole stream: an index is selected when its
        // fingerprint falls under `paraphrase_sample / expected` of the
        // 64-bit space.
        let registry = genie_templates::RuleRegistry::builtin();
        let expected = registry
            .enabled_rules(&self.config.synthesis)
            .len()
            .saturating_mul(self.config.synthesis.target_per_rule)
            .max(1);
        let paraphrase_threshold = if self.config.paraphrase_sample >= expected {
            u64::MAX
        } else {
            ((self.config.paraphrase_sample as u128 * u64::MAX as u128) / expected as u128) as u64
        };
        let mut stats = StreamStats::default();
        let mut pending: Vec<SynthesizedExample> = Vec::new();
        let mut next_index = 0usize;
        // The synthesis driver's sink is infallible, so the first fuse
        // error is parked here and returned after the driver finishes;
        // synthesis itself still runs to completion (it has no cancellation
        // channel), but its remaining output is discarded unprocessed.
        let mut failure: Option<Error> = None;
        let synthesis = generator.synthesize_streaming_observed(
            &registry,
            provider,
            observer,
            |mut example| {
                if failure.is_some() {
                    return;
                }
                self.bridge_to_shared(&mut example);
                pending.push(example);
                if pending.len() >= fuse {
                    if let Err(error) = self.fuse_batch(
                        &simulator,
                        &ppdb,
                        options,
                        paraphrase_threshold,
                        &mut pending,
                        &mut next_index,
                        &mut stats,
                        &mut sink,
                    ) {
                        failure = Some(error);
                    }
                }
            },
        );
        if let Some(error) = failure {
            return Err(error);
        }
        self.fuse_batch(
            &simulator,
            &ppdb,
            options,
            paraphrase_threshold,
            &mut pending,
            &mut next_index,
            &mut stats,
            &mut sink,
        )?;
        stats.synthesis = synthesis;
        Ok(stats)
    }

    /// [`DataPipeline::run_streaming`] writing into an incremental
    /// [`ShardedDatasetWriter`]; the first write error aborts further writes
    /// and is returned after the stream drains.
    pub fn run_streaming_sharded(
        &self,
        options: NnOptions,
        writer: &mut ShardedDatasetWriter,
    ) -> GenieResult<StreamStats> {
        let mut io_error: Option<std::io::Error> = None;
        let stats = self.run_streaming(options, |example| {
            if io_error.is_none() {
                if let Err(error) = writer.write(&example) {
                    io_error = Some(error);
                }
            }
        })?;
        match io_error {
            Some(error) => Err(error.into()),
            None => Ok(stats),
        }
    }

    /// Fuse one batch: convert, paraphrase, expand and emit the pending
    /// synthesized examples in parallel, then drain them to the sink in
    /// canonical order.
    #[allow(clippy::too_many_arguments)]
    fn fuse_batch(
        &self,
        simulator: &ParaphraseSimulator,
        ppdb: &genie_nlp::ppdb::CompiledPpdb,
        options: NnOptions,
        paraphrase_threshold: u64,
        pending: &mut Vec<SynthesizedExample>,
        next_index: &mut usize,
        stats: &mut StreamStats,
        sink: &mut dyn FnMut(ParserExample),
    ) -> GenieResult<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let start = *next_index;
        *next_index += pending.len();
        let config = &self.config;
        let conversion_base = config.seed.wrapping_add(99);

        type FusedBatch = (Vec<ParserExample>, usize, usize);
        let produced = genie_parallel::par_map(
            config.synthesis.threads,
            pending,
            |offset, synthesized| -> GenieResult<FusedBatch> {
                // All randomness below is keyed on the global stream index,
                // so batch boundaries, threads and shards never change it.
                let global = start + offset;
                let example = Example::new(
                    synthesized.utterance.clone(),
                    synthesized.program.clone(),
                    ExampleSource::Synthesized,
                );
                let mut derived: Vec<Example> = Vec::new();
                let mut paraphrased = 0usize;
                let mut augmented = 0usize;

                // Fingerprint-based selection spreads the paraphrase budget
                // over the whole stream instead of its head, so every
                // construct rule contributes paraphrase-derived data.
                let selector = fingerprint(&(config.paraphrase.seed, global as u64));
                if paraphrase_threshold == u64::MAX || selector < paraphrase_threshold {
                    let mut rng = StdRng::seed_from_u64(item_seed(config.paraphrase.seed, global));
                    let rewrites = simulator.paraphrase(&example, &mut rng);
                    paraphrased = rewrites.len();
                    derived.extend(rewrites);
                }

                if config.parameter_expansion {
                    let mut rng =
                        StdRng::seed_from_u64(item_seed(config.seed.wrapping_add(1), global));
                    let mut expanded: Vec<Example> = Vec::new();
                    for rewrite in &derived {
                        expanded.extend(expand_parameters(
                            rewrite,
                            self.datasets,
                            config.expansion_paraphrase,
                            &mut rng,
                        )?);
                    }
                    let synthesized_factor = if example.flags.primitive {
                        config.expansion_synthesized
                    } else {
                        config.expansion_synthesized.saturating_sub(1)
                    };
                    expanded.extend(expand_parameters(
                        &example,
                        self.datasets,
                        synthesized_factor,
                        &mut rng,
                    )?);
                    if rng.gen_bool(0.3) {
                        expanded.extend(augment_ppdb(&example, ppdb, 1, &mut rng));
                    }
                    augmented = expanded.len();
                    derived.extend(expanded);
                }

                let mut out = Vec::with_capacity(1 + derived.len());
                let mut rng = StdRng::seed_from_u64(item_seed(conversion_base, global));
                out.push(self.to_parser_example(&example, options, &mut rng));
                for (position, rewrite) in derived.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(item_seed(
                        item_seed(conversion_base, global),
                        position + 1,
                    ));
                    out.push(self.to_parser_example(rewrite, options, &mut rng));
                }
                Ok((out, paraphrased, augmented))
            },
        );

        stats.synthesized += pending.len();
        for produced in produced {
            let (examples, paraphrased, augmented) = produced?;
            stats.paraphrases += paraphrased;
            stats.augmented += augmented;
            for example in examples {
                stats.emitted += 1;
                sink(example);
            }
        }
        pending.clear();
        Ok(())
    }

    /// Convert a dataset into parser examples under the given NN options.
    ///
    /// Examples are converted in parallel, each with a per-example RNG
    /// stream, so the (shuffling) "− canonicalization" ablation stays
    /// deterministic regardless of the worker count.
    pub fn to_parser_examples(&self, dataset: &Dataset, options: NnOptions) -> Vec<ParserExample> {
        let base = self.config.seed.wrapping_add(99);
        genie_parallel::par_map(
            self.config.synthesis.threads,
            &dataset.examples,
            |index, example| {
                let mut rng = StdRng::seed_from_u64(item_seed(base, index));
                self.to_parser_example(example, options, &mut rng)
            },
        )
    }

    /// Convert a single example.
    ///
    /// The sentence side is the concatenation of the cached per-symbol
    /// tokenizer expansions of the raw utterance — exactly what
    /// `genie_nlp::tokenize` produced for the rendered text, without
    /// rendering or re-tokenizing anything.
    pub fn to_parser_example(
        &self,
        example: &Example,
        options: NnOptions,
        rng: &mut StdRng,
    ) -> ParserExample {
        let sentence = genie_templates::intern::shared().tokenized(&example.utterance);
        let mut program = if options.canonicalize {
            canonicalized(self.library, &example.program)
        } else {
            example.program.clone()
        };
        if !options.canonicalize {
            // The "− canonicalization" ablation: shuffle keyword parameters
            // independently per training example.
            for invocation in program.invocations_mut() {
                invocation.in_params.shuffle(rng);
            }
        }
        let program_tokens = to_tokens(&program, options.syntax);
        ParserExample::new(sentence, program_tokens)
    }

    /// The gold parser tokens of an example for evaluation (always
    /// canonicalized, as the paper evaluates against the canonicalized
    /// program regardless of the training-time ablation).
    pub fn gold_tokens(&self, example: &Example, options: NnOptions) -> Vec<String> {
        let program = canonicalized(self.library, &example.program);
        to_tokens(&program, options.syntax)
    }

    /// Pretrain the program language model on a larger synthesized-only
    /// corpus (§4.2), `scale`× the size of the main synthesis.
    pub fn pretrain_lm(&self, scale: usize) -> ProgramLm {
        let mut config = self.config.synthesis;
        config.target_per_rule *= scale.max(1);
        config.seed = config.seed.wrapping_add(4242);
        let generator = SentenceGenerator::new(self.library, config);
        let mut lm = ProgramLm::new();
        let programs: Vec<Vec<String>> = generator
            .synthesize()
            .iter()
            .map(|e| {
                to_tokens(
                    &canonicalized(self.library, &e.program),
                    NnSyntaxOptions::default(),
                )
            })
            .collect();
        lm.train(&programs);
        lm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            synthesis: GeneratorConfig {
                target_per_rule: 15,
                max_depth: 5,
                instantiations_per_template: 1,
                seed: 1,
                include_aggregation: false,
                include_timers: true,
                threads: 0,
                ..GeneratorConfig::default()
            },
            paraphrase: ParaphraseConfig {
                per_sentence: 2,
                error_rate: 0.05,
                seed: 1,
            },
            paraphrase_sample: 60,
            expansion_paraphrase: 2,
            expansion_synthesized: 1,
            parameter_expansion: true,
            seed: 1,
        }
    }

    #[test]
    fn pipeline_produces_all_three_sources() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let data = pipeline.build().unwrap();
        assert!(!data.synthesized.is_empty());
        assert!(!data.paraphrases.is_empty());
        assert!(!data.augmented.is_empty());
        let combined = data.combined();
        assert!(combined.len() > data.synthesized.len());
        assert!(combined.paraphrase_fraction() > 0.0);
    }

    #[test]
    fn strategies_select_different_subsets() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let data = pipeline.build().unwrap();
        let synthesized = data.for_strategy(TrainingStrategy::SynthesizedOnly);
        let paraphrase = data.for_strategy(TrainingStrategy::ParaphraseOnly);
        let genie = data.for_strategy(TrainingStrategy::Genie);
        assert_eq!(synthesized.len(), data.synthesized.len());
        assert_eq!(paraphrase.len(), data.paraphrases.len());
        assert!(genie.len() > synthesized.len().max(paraphrase.len()));
    }

    #[test]
    fn hand_assembled_invalid_configs_error_instead_of_panicking() {
        let library = Thingpedia::builtin();
        // Struct literals bypass the builders; the entry points re-validate
        // so an out-of-range error_rate cannot reach `gen_bool` and panic.
        let mut config = small_config();
        config.paraphrase.error_rate = 1.5;
        let pipeline = DataPipeline::new(&library, config);
        assert!(matches!(pipeline.build(), Err(crate::Error::Config(_))));
        assert!(matches!(
            pipeline.run_streaming(NnOptions::default(), |_| {}),
            Err(crate::Error::Config(_))
        ));
    }

    #[test]
    fn parameter_expansion_can_be_disabled() {
        let library = Thingpedia::builtin();
        let mut config = small_config();
        config.parameter_expansion = false;
        let data = DataPipeline::new(&library, config).build().unwrap();
        assert!(data.augmented.is_empty());
    }

    #[test]
    fn streaming_pipeline_fuses_all_stages() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let mut emitted = Vec::new();
        let stats = pipeline
            .run_streaming(NnOptions::default(), |e| emitted.push(e))
            .unwrap();
        assert_eq!(stats.emitted, emitted.len());
        assert!(stats.synthesized > 50);
        assert!(stats.paraphrases > 0, "no paraphrases in stream");
        assert!(stats.augmented > 0, "no augmented examples in stream");
        assert_eq!(
            stats.emitted,
            stats.synthesized + stats.paraphrases + stats.augmented
        );
        assert_eq!(stats.synthesis.emitted, stats.synthesized);
        for example in emitted.iter().take(50) {
            assert!(!example.sentence.is_empty());
            assert!(example.program.iter().any(|t| t == "=>"));
        }
    }

    #[test]
    fn streaming_output_is_thread_and_shard_invariant() {
        let library = Thingpedia::builtin();
        let run = |threads: usize, shards: usize| {
            let mut config = small_config();
            config.synthesis.threads = threads;
            config.synthesis.shards = shards;
            config.synthesis.batch_size = 16;
            let pipeline = DataPipeline::new(&library, config);
            let mut out = Vec::new();
            pipeline
                .run_streaming(NnOptions::default(), |e| {
                    out.push((e.sentence_text(), e.program.join(" ")))
                })
                .unwrap();
            out
        };
        let sequential = run(1, 1);
        assert!(!sequential.is_empty());
        assert_eq!(run(2, 4), sequential);
        assert_eq!(run(8, 16), sequential);
        assert_eq!(run(0, 1), sequential);
    }

    #[test]
    fn streaming_writes_through_sharded_writer() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let dir = std::env::temp_dir().join(format!("genie-stream-writer-{}", std::process::id()));
        let mut writer = ShardedDatasetWriter::create(&dir, "train", 4).unwrap();
        let stats = pipeline
            .run_streaming_sharded(NnOptions::default(), &mut writer)
            .unwrap();
        assert_eq!(writer.written(), stats.emitted);
        let paths = writer.finish().unwrap();
        let mut merged = 0usize;
        ShardedDatasetWriter::merge_for_each(&paths, |_| merged += 1).unwrap();
        assert_eq!(merged, stats.emitted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parser_examples_have_aligned_tokens() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let data = pipeline.build().unwrap();
        let examples = pipeline.to_parser_examples(&data.synthesized, NnOptions::default());
        assert_eq!(examples.len(), data.synthesized.len());
        for example in examples.iter().take(50) {
            assert!(!example.sentence.is_empty());
            assert!(example.program.len() >= 4);
            assert!(example.program.iter().any(|t| t == "=>"));
        }
    }

    #[test]
    fn canonicalization_ablation_shuffles_parameters() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let example = Example::new(
            "post the picture on facebook with caption funny cat",
            thingtalk::syntax::parse_program(
                "now => @com.facebook.post_picture(picture_url = \"https://x.example/p.jpg\", caption = \"funny cat\")",
            )
            .unwrap(),
            ExampleSource::Synthesized,
        );
        let canonical = pipeline.gold_tokens(&example, NnOptions::default());
        // Canonical order is alphabetical: caption before picture_url.
        let caption_pos = canonical.iter().position(|t| t == "param:caption").unwrap();
        let picture_pos = canonical
            .iter()
            .position(|t| t == "param:picture_url")
            .unwrap();
        assert!(caption_pos < picture_pos);
    }

    #[test]
    fn pretrained_lm_covers_program_structure() {
        let library = Thingpedia::builtin();
        let pipeline = DataPipeline::new(&library, small_config());
        let lm = pipeline.pretrain_lm(1);
        assert!(lm.trained_programs() > 100);
        assert!(lm.log_prob("<s>", "now", "=>") > lm.log_prob("<s>", "now", "notify"));
    }
}
