//! Phrase-derivation pools: the sampled building blocks construct rules
//! combine into programs.
//!
//! Pools are built once per synthesis run (sequentially, from the master
//! seed) and then shared read-only across all rule workers. Two build
//! modes exist:
//!
//! * the legacy sequential mode threads **one** RNG through every template
//!   instantiation, so any library edit perturbs every later pool entry;
//! * the *pool-stream* mode ([`GeneratorConfig::pool_streams`]) derives an
//!   independent RNG stream per `(template identity, instantiation)` and
//!   per filtered-fill attempt, so a skill delta leaves the pool entries of
//!   untouched classes byte-identical — the property the live incremental
//!   re-synthesis of `genie::live` is built on. The mode is part of the
//!   dataset identity (like [`GeneratorConfig::batch_size`]).
//!
//! Construct rules draw entries through a recording [`PoolSampler`], so the
//! delta closure knows the exact `(pool, index)` pairs each `(rule, batch)`
//! work item touched — including draws the rule later rejected.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use thingpedia::{ParamDatasets, PrimitiveTemplate, Thingpedia};

use crate::dedup::fingerprint;
use crate::generator::GeneratorConfig;
use crate::intern::{Interner, SynthVocab};
use crate::phrases::{add_filter, instantiate, PhraseDerivation, PhraseKind};

/// How many times the filter loop retries per missing filtered phrase before
/// recording a shortfall.
const FILTER_RETRY_FACTOR: usize = 4;

/// The instantiated phrase pools, indexed by [`PhraseKind`], plus filtered
/// variants of the noun and when pools.
#[derive(Debug, Default)]
pub struct PhrasePools {
    /// Noun phrases denoting queries.
    pub nouns: Vec<PhraseDerivation>,
    /// Verb phrases denoting queries.
    pub query_verbs: Vec<PhraseDerivation>,
    /// Verb phrases denoting actions.
    pub action_verbs: Vec<PhraseDerivation>,
    /// When phrases denoting monitored queries.
    pub whens: Vec<PhraseDerivation>,
    /// Noun phrases with one filter predicate added (depth 2).
    pub filtered_nouns: Vec<PhraseDerivation>,
    /// When phrases with one filter predicate added (depth 2).
    pub filtered_whens: Vec<PhraseDerivation>,
    /// How far the filtered pools fell short of their target after retries
    /// (0 when the target was met).
    pub filter_shortfall: usize,
}

impl PhrasePools {
    /// Instantiate the pools from the library's primitive templates.
    ///
    /// The filtered pools aim for `config.target_per_rule` entries each.
    /// `add_filter` can reject a candidate (e.g. a function without output
    /// parameters), so the loop retries with fresh base phrases — up to
    /// `FILTER_RETRY_FACTOR`× the target — instead of silently dropping the
    /// failed iterations; a remaining shortfall is recorded and logged
    /// (unless [`GeneratorConfig::quiet`] is set).
    pub fn build(
        vocab: &SynthVocab,
        library: &Thingpedia,
        datasets: &ParamDatasets,
        config: &GeneratorConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut pools = PhrasePools::default();
        if config.pool_streams {
            // Per-template streams: the RNG of each instantiation is a pure
            // function of (seed, template identity, occurrence, index), so a
            // library delta only perturbs the entries of the edited class.
            let mut occurrences: HashMap<u64, u64> = HashMap::new();
            for template in library.templates() {
                let tid = template_identity(template);
                let slot = occurrences.entry(tid).or_insert(0);
                let occurrence = *slot;
                *slot += 1;
                for inst in 0..config.instantiations_per_template.max(1) {
                    let mut trng = StdRng::seed_from_u64(genie_parallel::stream_seed(
                        config.seed ^ POOL_TEMPLATE_TAG,
                        tid.wrapping_add(occurrence.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        inst as u64,
                    ));
                    let Some(derivation) =
                        instantiate(vocab, library, datasets, template, &mut trng)
                    else {
                        continue;
                    };
                    pools.push(derivation);
                }
            }
        } else {
            for template in library.templates() {
                for _ in 0..config.instantiations_per_template.max(1) {
                    let Some(derivation) = instantiate(vocab, library, datasets, template, rng)
                    else {
                        continue;
                    };
                    pools.push(derivation);
                }
            }
        }
        if config.max_depth >= 2 {
            let target = config.target_per_rule.max(10);
            let shortfall_nouns = fill_filtered(
                &pools.nouns,
                &mut pools.filtered_nouns,
                target,
                vocab,
                library,
                datasets,
                config.pool_streams.then_some((config.seed, 1)),
                rng,
            );
            let shortfall_whens = fill_filtered(
                &pools.whens,
                &mut pools.filtered_whens,
                target,
                vocab,
                library,
                datasets,
                config.pool_streams.then_some((config.seed, 2)),
                rng,
            );
            pools.filter_shortfall = shortfall_nouns + shortfall_whens;
            // The shortfall is recorded unconditionally; the diagnostic is
            // gated so bench runs and machine-readable output stay clean.
            if pools.filter_shortfall > 0 && !config.quiet {
                eprintln!(
                    "genie-templates: filtered phrase pools fell {} short of the target of {} after {}x retries",
                    pools.filter_shortfall,
                    target,
                    FILTER_RETRY_FACTOR,
                );
            }
        }
        pools
    }

    fn push(&mut self, derivation: PhraseDerivation) {
        match derivation.kind {
            PhraseKind::QueryNoun => self.nouns.push(derivation),
            PhraseKind::QueryVerb => self.query_verbs.push(derivation),
            PhraseKind::ActionVerb => self.action_verbs.push(derivation),
            PhraseKind::WhenPhrase => self.whens.push(derivation),
        }
    }

    /// The entries of one pool.
    pub fn slice(&self, pool: PoolId) -> &[PhraseDerivation] {
        match pool {
            PoolId::Nouns => &self.nouns,
            PoolId::QueryVerbs => &self.query_verbs,
            PoolId::ActionVerbs => &self.action_verbs,
            PoolId::Whens => &self.whens,
            PoolId::FilteredNouns => &self.filtered_nouns,
            PoolId::FilteredWhens => &self.filtered_whens,
        }
    }

    /// Per-entry content digests, computed at the *rendered text* level so
    /// pools built in different arenas (two snapshot versions) compare
    /// correctly. This is what the live delta closure diffs.
    pub fn content_digests(&self, interner: &Interner) -> PoolDigests {
        let digest_pool = |entries: &[PhraseDerivation]| {
            entries
                .iter()
                .map(|entry| entry_digest(interner, entry))
                .collect()
        };
        PoolDigests {
            entries: PoolId::ALL.map(|pool| digest_pool(self.slice(pool))),
        }
    }

    /// A query noun phrase, preferring a filtered one 30% of the time.
    pub fn choose_query_phrase<'p>(&'p self, rng: &mut StdRng) -> Option<&'p PhraseDerivation> {
        if !self.filtered_nouns.is_empty() && rng.gen_bool(0.3) {
            self.filtered_nouns.choose(rng)
        } else {
            self.nouns.choose(rng)
        }
    }

    /// A when phrase, preferring a filtered one 30% of the time.
    pub fn choose_when_phrase<'p>(&'p self, rng: &mut StdRng) -> Option<&'p PhraseDerivation> {
        if !self.filtered_whens.is_empty() && rng.gen_bool(0.3) {
            self.filtered_whens.choose(rng)
        } else {
            self.whens.choose(rng)
        }
    }
}

/// RNG-stream domain tag for per-template pool instantiation.
const POOL_TEMPLATE_TAG: u64 = 0x504f_4f4c_5354_524d;
/// RNG-stream domain tag for per-attempt filtered-pool fills.
const POOL_FILTER_TAG: u64 = 0x504f_4f4c_4649_4c54;

/// The stable identity of a primitive template: everything instantiation
/// reads off it, but **not** its position in the library — so inserting or
/// removing another class's templates never re-keys this one's RNG stream.
fn template_identity(template: &PrimitiveTemplate) -> u64 {
    fingerprint(&(
        template.class.as_str(),
        template.function.as_str(),
        template.category.label(),
        template.utterance.as_str(),
        format!("{:?}", template.preset_params),
    ))
}

/// Content digest of one pool entry, over rendered text and the program
/// fragments — arena-independent, so digests from two snapshot versions
/// are comparable.
fn entry_digest(interner: &Interner, entry: &PhraseDerivation) -> u64 {
    fingerprint(&(
        format!("{:?}", entry.kind),
        entry.depth,
        format!("{:?}", entry.function),
        interner.render(&entry.utterance),
        format!("{:?}", entry.query),
        format!("{:?}", entry.action),
    ))
}

#[allow(clippy::too_many_arguments)]
fn fill_filtered(
    base: &[PhraseDerivation],
    out: &mut Vec<PhraseDerivation>,
    target: usize,
    vocab: &SynthVocab,
    library: &Thingpedia,
    datasets: &ParamDatasets,
    streams: Option<(u64, u64)>,
    rng: &mut StdRng,
) -> usize {
    if base.is_empty() {
        return target;
    }
    let max_attempts = target * FILTER_RETRY_FACTOR;
    let mut attempts = 0;
    while out.len() < target && attempts < max_attempts {
        match streams {
            // Pool-stream mode: every attempt draws from its own RNG stream,
            // so an attempt's randomness never depends on how much earlier
            // attempts consumed.
            Some((seed, kind_tag)) => {
                let mut arng = StdRng::seed_from_u64(genie_parallel::stream_seed(
                    seed ^ POOL_FILTER_TAG,
                    kind_tag,
                    attempts as u64,
                ));
                attempts += 1;
                let index = arng.gen_range(0..base.len());
                if let Some(filtered) =
                    add_filter(vocab, library, datasets, &base[index], &mut arng)
                {
                    out.push(filtered);
                }
            }
            None => {
                attempts += 1;
                let Some(candidate) = base.choose(rng) else {
                    break;
                };
                if let Some(filtered) = add_filter(vocab, library, datasets, candidate, rng) {
                    out.push(filtered);
                }
            }
        }
    }
    target.saturating_sub(out.len())
}

/// Names one of the six phrase pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolId {
    /// [`PhrasePools::nouns`].
    Nouns,
    /// [`PhrasePools::query_verbs`].
    QueryVerbs,
    /// [`PhrasePools::action_verbs`].
    ActionVerbs,
    /// [`PhrasePools::whens`].
    Whens,
    /// [`PhrasePools::filtered_nouns`].
    FilteredNouns,
    /// [`PhrasePools::filtered_whens`].
    FilteredWhens,
}

impl PoolId {
    /// All pools, in digest/diff order.
    pub const ALL: [PoolId; 6] = [
        PoolId::Nouns,
        PoolId::QueryVerbs,
        PoolId::ActionVerbs,
        PoolId::Whens,
        PoolId::FilteredNouns,
        PoolId::FilteredWhens,
    ];

    /// Index into per-pool arrays ([`PoolId::ALL`] order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One recorded pool access: which pool, which entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolDraw {
    /// The pool drawn from.
    pub pool: PoolId,
    /// The entry index.
    pub index: u32,
}

/// A recording facade over [`PhrasePools`]: rules draw entries through it,
/// and the draws — including ones the rule later rejects — are recorded so
/// the live delta closure knows exactly which entries a `(rule, batch)`
/// work item depends on.
///
/// The draw itself replicates the vendored `SliceRandom::choose`
/// (`gen_range(0..len)`), so routing rules through the sampler does not
/// change the emitted dataset.
pub struct PoolSampler<'p> {
    pools: &'p PhrasePools,
    draws: Vec<PoolDraw>,
}

impl<'p> PoolSampler<'p> {
    /// A fresh sampler over `pools` with an empty draw log.
    pub fn new(pools: &'p PhrasePools) -> Self {
        PoolSampler {
            pools,
            draws: Vec::new(),
        }
    }

    /// The underlying pools, for length-only checks (`is_empty`). Content
    /// reads must go through [`PoolSampler::choose`] so they are recorded;
    /// length changes are caught wholesale by the diff's length check.
    pub fn pools(&self) -> &'p PhrasePools {
        self.pools
    }

    /// Take the accumulated draw log, resetting it.
    pub fn take_draws(&mut self) -> Vec<PoolDraw> {
        std::mem::take(&mut self.draws)
    }

    /// A uniformly chosen entry of `pool`, recorded. RNG-compatible with
    /// `pools.slice(pool).choose(rng)`.
    pub fn choose(&mut self, pool: PoolId, rng: &mut StdRng) -> Option<&'p PhraseDerivation> {
        let entries = self.pools.slice(pool);
        if entries.is_empty() {
            return None;
        }
        let index = rng.gen_range(0..entries.len());
        self.draws.push(PoolDraw {
            pool,
            index: index as u32,
        });
        entries.get(index)
    }

    /// A query noun phrase, preferring a filtered one 30% of the time
    /// (RNG-compatible with [`PhrasePools::choose_query_phrase`]).
    pub fn choose_query_phrase(&mut self, rng: &mut StdRng) -> Option<&'p PhraseDerivation> {
        if !self.pools.filtered_nouns.is_empty() && rng.gen_bool(0.3) {
            self.choose(PoolId::FilteredNouns, rng)
        } else {
            self.choose(PoolId::Nouns, rng)
        }
    }

    /// A when phrase, preferring a filtered one 30% of the time
    /// (RNG-compatible with [`PhrasePools::choose_when_phrase`]).
    pub fn choose_when_phrase(&mut self, rng: &mut StdRng) -> Option<&'p PhraseDerivation> {
        if !self.pools.filtered_whens.is_empty() && rng.gen_bool(0.3) {
            self.choose(PoolId::FilteredWhens, rng)
        } else {
            self.choose(PoolId::Whens, rng)
        }
    }
}

/// Per-entry content digests of all six pools (see
/// [`PhrasePools::content_digests`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolDigests {
    entries: [Vec<u64>; 6],
}

impl PoolDigests {
    /// The per-entry digests of each pool, in [`PoolId::ALL`] order — the
    /// serializable face of the digests (the world-bundle codec persists
    /// them so a recovered world can diff future deltas).
    pub fn entries(&self) -> &[Vec<u64>; 6] {
        &self.entries
    }

    /// Rebuild digests from serialized entries ([`PoolId::ALL`] order).
    pub fn from_entries(entries: [Vec<u64>; 6]) -> Self {
        PoolDigests { entries }
    }

    /// Entry-wise diff against the digests of a newer pool build.
    pub fn diff(&self, new: &PoolDigests) -> PoolsDelta {
        let lengths_changed = PoolId::ALL
            .iter()
            .any(|p| self.entries[p.index()].len() != new.entries[p.index()].len());
        let mut changed_entries = 0;
        let changed = PoolId::ALL.map(|p| {
            let old = &self.entries[p.index()];
            let fresh = &new.entries[p.index()];
            let flags: Vec<bool> = (0..old.len().max(fresh.len()))
                .map(|i| old.get(i) != fresh.get(i))
                .collect();
            changed_entries += flags.iter().filter(|&&c| c).count();
            flags
        });
        PoolsDelta {
            lengths_changed,
            changed,
            changed_entries,
        }
    }
}

/// The entry-wise difference between two pool builds, used to decide which
/// `(rule, batch)` work items a skill delta invalidates.
#[derive(Debug)]
pub struct PoolsDelta {
    lengths_changed: bool,
    changed: [Vec<bool>; 6],
    /// Total changed entries across all pools.
    pub changed_entries: usize,
}

impl PoolsDelta {
    /// Whether any pool changed length. Index-based draws are then
    /// incomparable across the delta, so callers must fall back to a full
    /// rebuild (which is still byte-identical, trivially).
    pub fn lengths_changed(&self) -> bool {
        self.lengths_changed
    }

    /// Whether the delta changed nothing at all.
    pub fn is_empty(&self) -> bool {
        !self.lengths_changed && self.changed_entries == 0
    }

    /// Whether a work item that made `draws` would observe the delta. Sound
    /// because a batch's control flow depends on pool *content* only at its
    /// drawn indices (lengths are handled by
    /// [`PoolsDelta::lengths_changed`]).
    pub fn affects(&self, draws: &[PoolDraw]) -> bool {
        if self.lengths_changed {
            return true;
        }
        draws
            .iter()
            .any(|draw| self.changed[draw.pool.index()][draw.index as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn filtered_pools_reach_their_target() {
        let library = Thingpedia::builtin();
        let datasets = ParamDatasets::builtin();
        let config = GeneratorConfig {
            target_per_rule: 50,
            ..GeneratorConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let vocab = SynthVocab::new(crate::intern::shared().clone());
        let pools = PhrasePools::build(&vocab, &library, datasets, &config, &mut rng);
        // add_filter only rejects functions without output parameters; with
        // retries the pools must reach the sampling target.
        assert_eq!(pools.filtered_nouns.len(), 50);
        assert_eq!(pools.filtered_whens.len(), 50);
        assert_eq!(pools.filter_shortfall, 0);
    }

    #[test]
    fn shallow_synthesis_skips_filtered_pools() {
        let library = Thingpedia::builtin();
        let datasets = ParamDatasets::builtin();
        let config = GeneratorConfig {
            max_depth: 1,
            ..GeneratorConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let vocab = SynthVocab::new(crate::intern::shared().clone());
        let pools = PhrasePools::build(&vocab, &library, datasets, &config, &mut rng);
        assert!(pools.filtered_nouns.is_empty());
        assert!(pools.filtered_whens.is_empty());
        assert!(!pools.nouns.is_empty());
    }
}
