//! Synthesis by sampling (§3.1), driven by the construct-rule registry.
//!
//! The generator instantiates primitive templates into phrase derivations,
//! optionally adds filters, and then samples combinations for each construct
//! rule instead of enumerating all derivations: "the number of derivations
//! grows exponentially with increasing depth and library size [...] Genie
//! uses a randomized synthesis algorithm, which considers only a subset of
//! derivations produced by each construct template."
//!
//! # Parallelism, sharding and determinism
//!
//! Synthesis is *streamed*, not collected: each rule's sampling target is
//! split into bounded batches, and the `(rule, batch)` work items run in
//! parallel over a [`genie_parallel::par_stream`] window. Each batch draws
//! from its own RNG stream (`seed ⊕ rule_id ⊕ mix(batch)`, see
//! [`genie_parallel::stream_seed`]), batches arrive at the sink in canonical
//! `(registry order, batch index)` order, and deduplication runs through a
//! [`ShardedDedup`] set (`shard = fingerprint % shards`) whose keep/drop
//! decisions equal a sequential first-wins scan. The emitted dataset is
//! therefore **byte-identical for a fixed seed regardless of
//! [`GeneratorConfig::threads`] and [`GeneratorConfig::shards`]**, and peak
//! memory is bounded by the in-flight window instead of the full dataset.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use std::sync::Arc;

use thingpedia::{ParamDatasets, Thingpedia};
use thingtalk::ast::{CompareOp, Predicate, Query};
use thingtalk::policy::{Policy, PolicyBody};
use thingtalk::value::Value;

use std::collections::HashSet;

use crate::constructs::ConstructKind;
use crate::dedup::{example_stream_key, program_fingerprints};
use crate::example::SynthesizedExample;
use crate::intern::{Interner, LocalInterner, PendingSymbols, SynthVocab, TokenStream};
use crate::pools::{PhrasePools, PoolDraw, PoolSampler};
use crate::registry::{ConstructRule, RuleCtx, RuleRegistry};
use crate::shards::ShardedDedup;

/// Configuration of the sampled synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// How many examples to sample per construct rule (the paper uses a
    /// target size of 100,000 per grammar rule at full scale).
    pub target_per_rule: usize,
    /// Maximum derivation depth (the paper uses 5).
    pub max_depth: usize,
    /// How many times each primitive template is instantiated with different
    /// parameter values.
    pub instantiations_per_template: usize,
    /// RNG seed.
    pub seed: u64,
    /// Include TT+A aggregation constructs (§6.3).
    pub include_aggregation: bool,
    /// Include timer constructs.
    pub include_timers: bool,
    /// Worker threads for rule-parallel synthesis: `0` uses all available
    /// cores, `1` runs inline on the calling thread. Output is identical for
    /// any value.
    pub threads: usize,
    /// Samples per `(rule, batch)` work item of the streaming engine; `0`
    /// keeps each rule in a single batch. The batch size selects the
    /// per-batch RNG streams, so it is part of the dataset identity (unlike
    /// `threads` and `shards`, which never change the output).
    pub batch_size: usize,
    /// Dedup shards (`0` is treated as 1). Sharding parallelizes
    /// deduplication; the emitted dataset is identical for any shard count.
    pub shards: usize,
    /// Suppress non-fatal diagnostics (e.g. phrase-pool shortfall logging)
    /// so benchmark and machine-readable runs stay clean.
    pub quiet: bool,
    /// Build phrase pools from per-template / per-attempt RNG streams
    /// instead of one sequential RNG, so a skill delta leaves other
    /// classes' pool entries byte-identical (required for the incremental
    /// re-synthesis of `genie::live`). Like `batch_size`, this knob is part
    /// of the dataset identity: flipping it changes the emitted dataset.
    pub pool_streams: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            target_per_rule: 200,
            max_depth: 5,
            instantiations_per_template: 2,
            seed: 0,
            include_aggregation: false,
            include_timers: true,
            threads: 0,
            batch_size: 64,
            shards: 8,
            quiet: false,
            pool_streams: false,
        }
    }
}

/// Counters reported by one streaming synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthesisStats {
    /// Candidate derivations instantiated before deduplication.
    pub generated: usize,
    /// Examples emitted to the sink (post-dedup).
    pub emitted: usize,
    /// Candidates dropped as duplicates.
    pub duplicates: usize,
    /// `(rule, batch)` work items processed.
    pub batches: usize,
}

/// One unit of streamed synthesis work: a bounded slice of a rule's
/// sampling target, with its own RNG stream.
struct WorkItem<'r> {
    rule: &'r dyn ConstructRule,
    batch: u64,
    count: usize,
}

/// A cached `(rule, batch)` result a [`BatchProvider`] substitutes for live
/// instantiation during incremental re-synthesis. The provider re-interns
/// the candidates' utterances through the worker's [`LocalInterner`], so
/// novel symbols still commit at the canonical sink in stream order.
pub struct ProvidedBatch {
    /// The candidates, pre-dedup, with utterances interned through the
    /// worker's overlay.
    pub candidates: Vec<SynthesizedExample>,
    /// The candidates' program fingerprints (arena-independent, so cached
    /// values stay valid across snapshot versions).
    pub fingerprints: Vec<(u64, u64)>,
    /// The pool draws recorded when the batch was first instantiated.
    pub draws: Vec<PoolDraw>,
}

/// One completed `(rule, batch)` work item, observed at the canonical sink
/// after symbol commit — the raw material of a synthesis memo.
pub struct BatchRecord {
    /// The rule's stable id ([`ConstructRule::rule_id`]).
    pub rule_id: u64,
    /// The batch index within the rule.
    pub batch: u64,
    /// All candidates, pre-dedup, with globally committed symbols.
    pub candidates: Vec<SynthesizedExample>,
    /// The candidates' program fingerprints.
    pub fingerprints: Vec<(u64, u64)>,
    /// The pool draws the batch made (including rejected draws).
    pub draws: Vec<PoolDraw>,
    /// Whether the batch was substituted by a provider instead of being
    /// instantiated live.
    pub provided: bool,
}

/// Substitutes cached results for `(rule_id, batch)` work items; return
/// `None` to instantiate the batch live.
pub type BatchProvider<'f> =
    &'f (dyn Fn(u64, u64, &mut LocalInterner<'_>) -> Option<ProvidedBatch> + Sync);

/// Receives every completed batch at the canonical sink, in stream order.
pub type BatchObserver<'f> = &'f mut dyn FnMut(BatchRecord);

/// The sampled sentence generator.
pub struct SentenceGenerator<'a> {
    library: &'a Thingpedia,
    datasets: &'static ParamDatasets,
    config: GeneratorConfig,
    vocab: SynthVocab,
    /// The phrase pools, built once per generator: they are a pure function
    /// of `(library, config.seed)` — the build consumes a fresh
    /// seed-derived RNG and nothing else — so repeated synthesis runs reuse
    /// them with byte-identical output.
    pools: std::sync::OnceLock<PhrasePools>,
}

impl<'a> SentenceGenerator<'a> {
    /// Create a generator over a library, interning into the shared
    /// process-wide arena ([`crate::intern::shared`]) — which is already
    /// pre-seeded, so construction skips the vocabulary walk.
    pub fn new(library: &'a Thingpedia, config: GeneratorConfig) -> Self {
        Self::assemble(library, crate::intern::shared().clone(), config)
    }

    /// Create a generator interning into a caller-owned arena.
    ///
    /// The arena must already be pre-seeded for `library`: pass one made by
    /// [`crate::intern::fresh`] (or seeded with [`crate::intern::preseed`]).
    /// A pre-seeded arena assigns ids deterministically for any worker
    /// count, which is what the interner-determinism tests and the live
    /// subsystem's snapshot arenas rely on. The generator does not seed it
    /// again; a bare `Interner::new()` holds no words and trips a debug
    /// assertion.
    pub fn with_interner(
        library: &'a Thingpedia,
        config: GeneratorConfig,
        interner: Arc<Interner>,
    ) -> Self {
        debug_assert!(
            !interner.is_empty(),
            "SentenceGenerator::with_interner needs a pre-seeded arena (intern::fresh)"
        );
        Self::assemble(library, interner, config)
    }

    fn assemble(library: &'a Thingpedia, interner: Arc<Interner>, config: GeneratorConfig) -> Self {
        SentenceGenerator {
            library,
            datasets: ParamDatasets::builtin(),
            config,
            vocab: SynthVocab::new(interner),
            pools: std::sync::OnceLock::new(),
        }
    }

    /// The arena utterances of this generator intern into.
    pub fn interner(&self) -> &Arc<Interner> {
        self.vocab.interner()
    }

    /// The phrase pools (built on first use, cached for the generator's
    /// lifetime).
    pub fn pools(&self) -> &PhrasePools {
        self.pools.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            PhrasePools::build(
                &self.vocab,
                self.library,
                self.datasets,
                &self.config,
                &mut rng,
            )
        })
    }

    /// Run the sampled synthesis with the builtin rule registry and return
    /// the deduplicated examples.
    pub fn synthesize(&self) -> Vec<SynthesizedExample> {
        self.synthesize_with(&RuleRegistry::builtin())
    }

    /// Run the sampled synthesis with a caller-provided rule registry,
    /// collecting the streamed examples into a `Vec`.
    ///
    /// This is [`SentenceGenerator::synthesize_streaming_with`] with a
    /// collecting sink; callers that can consume examples incrementally
    /// (sharded writers, fused pipeline stages) should use the streaming
    /// form directly so the full dataset is never resident.
    pub fn synthesize_with(&self, registry: &RuleRegistry) -> Vec<SynthesizedExample> {
        let mut out = Vec::new();
        self.synthesize_streaming_with(registry, |example| out.push(example));
        out
    }

    /// Stream the sampled synthesis of the builtin registry into `sink`.
    pub fn synthesize_streaming(&self, sink: impl FnMut(SynthesizedExample)) -> SynthesisStats {
        self.synthesize_streaming_with(&RuleRegistry::builtin(), sink)
    }

    /// Stream the sampled synthesis into `sink`, memory-bounded.
    ///
    /// Each enabled rule's `target_per_rule` samples are split into batches
    /// of [`GeneratorConfig::batch_size`]; every `(rule, batch)` work item
    /// draws from its own deterministic RNG stream
    /// (`seed ⊕ rule_id ⊕ mix(batch)`) and the items run in parallel across
    /// [`GeneratorConfig::threads`] workers inside a bounded
    /// [`genie_parallel::par_stream`] window. The workers also fingerprint
    /// their candidates — the expensive half of dedup runs in parallel with
    /// synthesis — and batches reach the sink in canonical `(registry
    /// order, batch index)` order, where the [`ShardedDedup`] set
    /// ([`GeneratorConfig::shards`]) absorbs the precomputed keys (one
    /// worker per shard for large batches, inline otherwise), preserving
    /// first-wins semantics. The emitted sequence is therefore
    /// byte-identical for any thread count and any shard count. Peak memory
    /// is the in-flight window plus the dedup keys — never the full
    /// dataset.
    pub fn synthesize_streaming_with(
        &self,
        registry: &RuleRegistry,
        sink: impl FnMut(SynthesizedExample),
    ) -> SynthesisStats {
        self.synthesize_streaming_observed(registry, None, None, sink)
    }

    /// [`SentenceGenerator::synthesize_streaming_with`], with two optional
    /// hooks for incremental re-synthesis:
    ///
    /// * `provider` — consulted per `(rule, batch)` work item inside the
    ///   worker; a `Some` return substitutes cached candidates for live
    ///   instantiation (their utterances re-interned through the worker's
    ///   overlay, so symbol commit order stays canonical);
    /// * `observer` — called at the canonical sink for every completed
    ///   batch, in stream order, with the post-commit candidates, their
    ///   fingerprints and the recorded pool draws. This is how
    ///   `genie::live` builds its synthesis memo.
    ///
    /// With both hooks `None` this is exactly the plain streaming run.
    pub fn synthesize_streaming_observed(
        &self,
        registry: &RuleRegistry,
        provider: Option<BatchProvider<'_>>,
        mut observer: Option<BatchObserver<'_>>,
        mut sink: impl FnMut(SynthesizedExample),
    ) -> SynthesisStats {
        let pools = self.pools();
        let ctx = RuleCtx {
            library: self.library,
            datasets: self.datasets,
            config: &self.config,
            vocab: &self.vocab,
        };
        let rules = registry.enabled_rules(&self.config);
        let target = self.config.target_per_rule;
        let batch_size = if self.config.batch_size == 0 {
            target.max(1)
        } else {
            self.config.batch_size
        };
        let seed = self.config.seed;
        let threads = self.config.threads;

        let mut items: Vec<WorkItem<'_>> = Vec::new();
        for rule in &rules {
            let mut remaining = target;
            let mut batch = 0u64;
            while remaining > 0 {
                let count = remaining.min(batch_size);
                items.push(WorkItem {
                    rule: *rule,
                    batch,
                    count,
                });
                remaining -= count;
                batch += 1;
            }
        }

        let dedup = ShardedDedup::new(self.config.shards);
        let mut stats = SynthesisStats::default();
        let interner = self.vocab.interner();
        // Keep enough windows in flight to feed every worker without ever
        // materializing more than `window` batches of candidates.
        let window = genie_parallel::resolve_threads(threads)
            .saturating_mul(4)
            .max(1);
        type WorkerBatch = (
            Vec<SynthesizedExample>,
            Vec<(u64, u64)>,
            PendingSymbols,
            Vec<PoolDraw>,
            bool,
        );
        genie_parallel::par_stream(
            threads,
            &items,
            window,
            |_, item| -> WorkerBatch {
                // Fresh text the rules render (timer values, predicates)
                // interns into this per-batch overlay; the sink commits the
                // pending fragments in canonical order.
                let mut local = LocalInterner::new(interner);
                if let Some(provide) = provider {
                    if let Some(cached) = provide(item.rule.rule_id(), item.batch, &mut local) {
                        return (
                            cached.candidates,
                            cached.fingerprints,
                            local.take_pending(),
                            cached.draws,
                            true,
                        );
                    }
                }
                let mut batch_rng = StdRng::seed_from_u64(genie_parallel::stream_seed(
                    seed,
                    item.rule.rule_id(),
                    item.batch,
                ));
                let mut sampler = PoolSampler::new(pools);
                let candidates: Vec<SynthesizedExample> = (0..item.count)
                    .filter_map(|_| {
                        item.rule
                            .instantiate(&ctx, &mut sampler, &mut local, &mut batch_rng)
                    })
                    .collect();
                // Fingerprinting the program is the O(program size) half of
                // dedup; doing it here means it parallelizes with synthesis,
                // leaving the sink O(utterance length) symbol hashing.
                let fingerprints: Vec<(u64, u64)> = candidates
                    .iter()
                    .map(|e| program_fingerprints(&e.program))
                    .collect();
                (
                    candidates,
                    fingerprints,
                    local.take_pending(),
                    sampler.take_draws(),
                    false,
                )
            },
            |index, (candidates, fingerprints, pending, draws, provided): WorkerBatch| {
                stats.batches += 1;
                stats.generated += candidates.len();
                // Ordered merge of the worker arena: global ids depend only
                // on the canonical stream order, never on scheduling.
                let remap = interner.commit(&pending);
                let mut candidates = candidates;
                let keys: Vec<u128> = candidates
                    .iter_mut()
                    .zip(&fingerprints)
                    .map(|(example, &fp)| {
                        remap.apply(&mut example.utterance);
                        example_stream_key(&example.utterance, fp)
                    })
                    .collect();
                if let Some(observe) = observer.as_deref_mut() {
                    let item = &items[index];
                    observe(BatchRecord {
                        rule_id: item.rule.rule_id(),
                        batch: item.batch,
                        candidates: candidates.clone(),
                        fingerprints,
                        draws,
                        provided,
                    });
                }
                let fresh = dedup.insert_batch(threads, &keys);
                for (example, fresh) in candidates.into_iter().zip(fresh) {
                    if fresh {
                        stats.emitted += 1;
                        sink(example);
                    } else {
                        stats.duplicates += 1;
                    }
                }
            },
        );
        stats
    }

    /// Synthesize TACL policies (§6.2) with their utterances.
    pub fn synthesize_policies(&self) -> Vec<(String, Policy)> {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(777));
        let pools = PhrasePools::build(
            &self.vocab,
            self.library,
            self.datasets,
            &self.config,
            &mut rng,
        );
        let interner = self.vocab.interner();
        let people = self
            .datasets
            .get("tt:person_first_name")
            .expect("dataset exists");
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        // Single-threaded path: splice into a reused stream, render once per
        // accepted policy.
        let mut stream = TokenStream::new();
        for _ in 0..self.config.target_per_rule {
            // Query policies.
            if let Some(np) = pools.choose_query_phrase(&mut rng) {
                let person = people.sample(&mut rng).to_owned();
                let variant = self
                    .vocab
                    .variants(ConstructKind::PolicyQuery)
                    .choose(&mut rng)
                    .expect("variants nonempty");
                stream.clear();
                variant.splice(&mut stream, |piece, out| match piece {
                    crate::intern::VariantPiece::Person => interner.intern_words(&person, out),
                    _ => out.extend_from_slice(&np.utterance),
                });
                let utterance = interner.render(&stream);
                let predicate = np
                    .query
                    .as_ref()
                    .map(|q| merge_predicates(q))
                    .unwrap_or(Predicate::True);
                let policy = Policy {
                    source: Predicate::atom("source", CompareOp::Eq, Value::string(person)),
                    body: PolicyBody::Query {
                        function: np.function.clone(),
                        predicate,
                    },
                };
                let key = format!("{utterance}\t{policy}");
                if seen.insert(key) {
                    out.push((utterance, policy));
                }
            }
            // Action policies.
            if let Some(vp) = pools.action_verbs.choose(&mut rng) {
                let person = people.sample(&mut rng).to_owned();
                let variant = self
                    .vocab
                    .variants(ConstructKind::PolicyAction)
                    .choose(&mut rng)
                    .expect("variants nonempty");
                stream.clear();
                variant.splice(&mut stream, |piece, out| match piece {
                    crate::intern::VariantPiece::Person => interner.intern_words(&person, out),
                    _ => out.extend_from_slice(&vp.utterance),
                });
                let utterance = interner.render(&stream);
                let action = vp.action.as_ref().expect("action phrase");
                let mut predicate = Predicate::True;
                for param in &action.in_params {
                    if param.value.is_constant() {
                        let atom =
                            Predicate::atom(param.name.clone(), CompareOp::Eq, param.value.clone());
                        predicate = if predicate.is_true() {
                            atom
                        } else {
                            predicate.and(atom)
                        };
                    }
                }
                let policy = Policy {
                    source: Predicate::atom("source", CompareOp::Eq, Value::string(person)),
                    body: PolicyBody::Action {
                        function: vp.function.clone(),
                        predicate,
                    },
                };
                let key = format!("{utterance}\t{policy}");
                if seen.insert(key) {
                    out.push((utterance, policy));
                }
            }
        }
        out
    }
}

fn merge_predicates(query: &Query) -> Predicate {
    let mut merged = Predicate::True;
    for predicate in query.predicates() {
        merged = if merged.is_true() {
            predicate.clone()
        } else {
            merged.and(predicate.clone())
        };
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use thingtalk::canonical::canonicalized;
    use thingtalk::typecheck::typecheck;

    fn generator(library: &Thingpedia, target: usize, seed: u64) -> SentenceGenerator<'_> {
        SentenceGenerator::new(
            library,
            GeneratorConfig {
                target_per_rule: target,
                max_depth: 5,
                instantiations_per_template: 1,
                seed,
                include_aggregation: true,
                include_timers: true,
                threads: 0,
                ..GeneratorConfig::default()
            },
        )
    }

    #[test]
    fn synthesis_produces_varied_examples() {
        let library = Thingpedia::builtin();
        let examples = generator(&library, 30, 1).synthesize();
        assert!(examples.len() > 150, "only {} examples", examples.len());
        assert!(examples.iter().any(|e| e.flags.primitive));
        assert!(examples.iter().any(|e| !e.flags.primitive));
        assert!(examples.iter().any(|e| e.flags.filter));
        assert!(examples.iter().any(|e| e.flags.param_passing));
        assert!(examples.iter().any(|e| e.flags.event_driven));
        assert!(examples.iter().any(|e| e.flags.aggregation));
    }

    #[test]
    fn synthesized_programs_typecheck_and_canonicalize() {
        let library = Thingpedia::builtin();
        let gen = generator(&library, 15, 2);
        let examples = gen.synthesize();
        for example in &examples {
            typecheck(&library, &example.program).unwrap_or_else(|e| {
                panic!(
                    "synthesized program does not typecheck: `{}` => `{}`: {e}",
                    example.utterance_text(gen.interner()),
                    example.program
                )
            });
            let canonical = canonicalized(&library, &example.program);
            let again = canonicalized(&library, &canonical);
            assert_eq!(canonical, again, "canonicalization not idempotent");
        }
    }

    #[test]
    fn utterances_have_no_placeholders_left() {
        let library = Thingpedia::builtin();
        let gen = generator(&library, 10, 3);
        let examples = gen.synthesize();
        for example in &examples {
            let text = example.utterance_text(gen.interner());
            assert!(!text.contains('$'), "placeholder left in `{text}`");
            assert!(!text.trim().is_empty());
            assert!(!example.utterance.is_empty());
        }
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let library = Thingpedia::builtin();
        let a = generator(&library, 10, 7).synthesize();
        let b = generator(&library, 10, 7).synthesize();
        let c = generator(&library, 10, 8).synthesize();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn output_is_identical_across_thread_and_shard_counts() {
        let library = Thingpedia::builtin();
        let run = |threads: usize, shards: usize| {
            SentenceGenerator::new(
                &library,
                GeneratorConfig {
                    target_per_rule: 25,
                    seed: 9,
                    instantiations_per_template: 1,
                    include_aggregation: true,
                    threads,
                    shards,
                    batch_size: 8,
                    ..GeneratorConfig::default()
                },
            )
            .synthesize()
        };
        let sequential = run(1, 1);
        for threads in [2, 4, 0] {
            for shards in [1, 4, 16] {
                assert_eq!(
                    run(threads, shards),
                    sequential,
                    "threads = {threads} shards = {shards}"
                );
            }
        }
    }

    #[test]
    fn streaming_and_collecting_agree() {
        let library = Thingpedia::builtin();
        let generator = generator(&library, 20, 12);
        let collected = generator.synthesize();
        let mut streamed = Vec::new();
        let stats = generator.synthesize_streaming(|example| streamed.push(example));
        assert_eq!(streamed, collected);
        assert_eq!(stats.emitted, collected.len());
        assert_eq!(stats.generated, stats.emitted + stats.duplicates);
        assert!(stats.batches > 0);
    }

    #[test]
    fn batch_streams_are_independent() {
        // Distinct batches of one rule must not replay each other's samples:
        // with a batch size smaller than the target, the per-batch streams
        // produce a more varied candidate set than one long stream would if
        // the seeds collided. Concretely, the first example of batch 1 must
        // not equal the first example of batch 0.
        let library = Thingpedia::builtin();
        let run = |batch_size: usize| {
            SentenceGenerator::new(
                &library,
                GeneratorConfig {
                    target_per_rule: 16,
                    instantiations_per_template: 1,
                    seed: 3,
                    batch_size,
                    include_aggregation: false,
                    include_timers: false,
                    ..GeneratorConfig::default()
                },
            )
            .synthesize()
        };
        // Sanity: batch size participates in dataset identity...
        assert_ne!(run(4), run(16));
        // ...while repeated runs at a fixed batch size are stable.
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn target_size_controls_output_size() {
        let library = Thingpedia::builtin();
        let small = generator(&library, 5, 1).synthesize();
        let large = generator(&library, 40, 1).synthesize();
        assert!(large.len() > small.len() * 2);
    }

    #[test]
    fn policies_are_synthesized_for_tacl() {
        let library = Thingpedia::builtin();
        let policies = generator(&library, 40, 4).synthesize_policies();
        assert!(policies.len() > 40);
        assert!(policies.iter().any(|(_, p)| p.is_query_policy()));
        assert!(policies.iter().any(|(_, p)| !p.is_query_policy()));
        for (utterance, _) in &policies {
            assert!(!utterance.contains('$'));
        }
    }

    #[test]
    fn low_depth_disables_compound_constructs() {
        let library = Thingpedia::builtin();
        let config = GeneratorConfig {
            target_per_rule: 20,
            max_depth: 2,
            instantiations_per_template: 1,
            seed: 5,
            include_aggregation: false,
            include_timers: false,
            threads: 0,
            ..GeneratorConfig::default()
        };
        let examples = SentenceGenerator::new(&library, config).synthesize();
        assert!(examples
            .iter()
            .all(|e| e.flags.primitive || !e.flags.param_passing));
        assert!(examples.iter().all(|e| e.program.invocations().len() <= 1));
    }

    #[test]
    fn custom_rules_extend_the_registry() {
        use crate::phrases::PhraseKind;
        use crate::pools::PoolId;
        use crate::registry::ConstructRule;

        /// A toy scenario rule: negated commands ("do not $vp").
        struct RefuseRule;

        impl ConstructRule for RefuseRule {
            fn kind(&self) -> ConstructKind {
                ConstructKind::DoCommand
            }

            fn label(&self) -> &'static str {
                "refuse"
            }

            fn inputs(&self) -> &'static [PhraseKind] {
                &[PhraseKind::ActionVerb]
            }

            fn instantiate(
                &self,
                _ctx: &RuleCtx<'_>,
                pools: &mut PoolSampler<'_>,
                local: &mut LocalInterner<'_>,
                rng: &mut StdRng,
            ) -> Option<SynthesizedExample> {
                let vp = pools.choose(PoolId::ActionVerbs, rng)?;
                let program = thingtalk::Program::do_action(vp.action.clone()?);
                let mut utterance = TokenStream::new();
                local.intern_words("do not", &mut utterance);
                utterance.extend_from_slice(&vp.utterance);
                Some(SynthesizedExample::new(
                    utterance,
                    program,
                    vp.depth + 1,
                    self.label(),
                ))
            }
        }

        let library = Thingpedia::builtin();
        let mut registry = RuleRegistry::builtin();
        registry.register(Box::new(RefuseRule));
        let examples = generator(&library, 10, 6).synthesize_with(&registry);
        assert!(examples.iter().any(|e| e.construct == "refuse"));
        // Registry order is output order: the custom rule's examples come
        // after the builtin ones, so builtin output is unperturbed.
        let builtin_only = generator(&library, 10, 6).synthesize();
        let prefix: Vec<_> = examples
            .iter()
            .filter(|e| e.construct != "refuse")
            .cloned()
            .collect();
        assert_eq!(prefix, builtin_only);
    }
}
