//! Live Thingpedia: versioned world snapshots with atomic hot swap,
//! incremental re-synthesis and delta retraining.
//!
//! A [`LiveWorld`] owns a [`GenieEngine`] plus everything needed to rebuild
//! its serving world when the skill library changes at runtime:
//!
//! 1. **Bootstrap** synthesizes a training set into a *snapshot-scoped*
//!    interner arena ([`genie_templates::intern::fresh`]), memoizing every
//!    `(rule, batch)` synthesis work item — candidates, program
//!    fingerprints and the pool draws it made — via the
//!    [`BatchObserver`](genie_templates::BatchObserver) hook, trains a
//!    [`LuinetParser`], and builds the engine (world version 1).
//! 2. **Reload** applies a [`SkillDelta`] to a copy of the library,
//!    pre-seeds a fresh snapshot arena for the *new* library, and diffs the
//!    new phrase pools against the memoized build
//!    ([`PoolDigests::diff`](genie_templates::PoolDigests)). Work items
//!    whose recorded draws never touched a changed pool entry are served
//!    from the memo by a [`BatchProvider`](genie_templates::BatchProvider)
//!    (their utterances re-interned into the new arena); only the affected
//!    closure is re-instantiated. The full example stream is retrained and
//!    [`GenieEngine::swap_world`] publishes library + model + policies as
//!    one new version.
//!
//! # Determinism contract
//!
//! An incremental reload emits a dataset **byte-identical** to a cold
//! bootstrap at the post-delta library, for any thread and shard count:
//!
//! * unaffected batches replay the exact candidates a live instantiation
//!   would produce (sound because a batch's control flow reads pool
//!   *content* only at its recorded draw indices; pool length changes force
//!   a full rebuild via
//!   [`PoolsDelta::lengths_changed`](genie_templates::PoolsDelta));
//! * batches still arrive at the canonical sink in `(registry order,
//!   batch index)` order, and dedup keys are injective per arena, so the
//!   keep/drop decisions equal the cold run's even where absolute symbol
//!   ids drift;
//! * downstream fuse stages (paraphrase, expansion, parser-example
//!   conversion) key their randomness on the global stream index, never on
//!   wall-clock or scheduling.
//!
//! Retraining from scratch on the byte-identical stream therefore yields a
//! byte-identical model ([`LuinetParser::weights_digest`] equality is the
//! cheap proxy the tests and the CI gate check). The optional
//! [`RetrainMode::FineTune`] path trades that equivalence for latency: it
//! clones the serving model and runs a few [`LuinetParser::fine_tune`]
//! epochs over the new stream instead.
//!
//! In-flight requests are never torn: they capture one immutable world
//! `Arc` at entry and finish on it even if a swap lands mid-request.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genie_nlp::failpoint::fnv64;
use genie_templates::{
    BatchRecord, ConfigError, Interner, PoolDigests, PoolsDelta, ProvidedBatch, SentenceGenerator,
    TokenStream,
};
use luinet::{LuinetParser, ModelConfig, ParserExample};
use thingpedia::{ParamDatasets, PrimitiveTemplate, Thingpedia};
use thingtalk::class::ClassDef;
use thingtalk::policy::Policy;

use crate::engine::GenieEngine;
use crate::error::{Error, GenieResult};
use crate::pipeline::{DataPipeline, NnOptions, PipelineConfig, StreamStats};

pub mod bundle;
pub mod journal;

pub use journal::{DeltaJournal, JournalRecord};

/// One runtime change to the skill library.
#[derive(Debug, Clone)]
pub enum SkillDelta {
    /// Add a class, or replace an existing class in place (same template
    /// splice position, so unrelated pool entries keep their indices).
    Upsert {
        /// The class definition.
        class: ClassDef,
        /// Its primitive templates (replacing any previous ones).
        templates: Vec<PrimitiveTemplate>,
    },
    /// Remove a class and all its primitive templates.
    Remove {
        /// The class name (e.g. `com.spotify`).
        name: String,
    },
}

impl SkillDelta {
    /// The class name the delta targets.
    pub fn class_name(&self) -> &str {
        match self {
            SkillDelta::Upsert { class, .. } => &class.name,
            SkillDelta::Remove { name } => name,
        }
    }

    /// Apply the delta to a library copy.
    fn apply(&self, library: &mut Thingpedia) {
        match self {
            SkillDelta::Upsert { class, templates } => {
                library.upsert_class(class.clone(), templates.clone());
            }
            SkillDelta::Remove { name } => {
                library.remove_class(name);
            }
        }
    }
}

/// How a reload produces the next model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainMode {
    /// Retrain from scratch on the (incrementally re-synthesized) stream —
    /// the byte-identical path: the swapped model equals a cold bootstrap
    /// at the new library.
    Full,
    /// Clone the serving model and run this many
    /// [`LuinetParser::fine_tune`] epochs over the new stream — the
    /// low-latency approximate path (the new stream contains the full
    /// dataset, so rehearsal against forgetting is built in).
    FineTune {
        /// Fine-tuning epochs (0 falls back to [`RetrainMode::Full`]).
        epochs: usize,
    },
}

/// What one completed reload did, returned by [`LiveWorld::reload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// The world version now serving.
    pub version: u64,
    /// Synthesis `(rule, batch)` work items in the new build.
    pub total_batches: usize,
    /// Work items served from the memo instead of re-instantiated.
    pub reused_batches: usize,
    /// Pool entries whose content the delta changed.
    pub changed_pool_entries: usize,
    /// Whether a pool length change forced a full re-synthesis.
    pub full_rebuild: bool,
    /// Parser examples the retraining consumed.
    pub emitted_examples: usize,
    /// Whether the model was fine-tuned instead of retrained from scratch.
    pub fine_tuned: bool,
    /// End-to-end reload latency (delta apply → re-synthesis → retrain →
    /// swap), as surfaced by [`crate::engine::EngineStats::last_swap_us`].
    pub swap_latency_us: u64,
    /// Whether the new world was persisted as a bundle after the swap
    /// (vacuously `true` for worlds without durability). A `false` here is
    /// survivable — the delta is journaled, so recovery replays it — but
    /// the next restart pays a replay instead of a bundle load.
    pub persisted: bool,
}

/// What [`LiveWorld::open_durable`] did to get back to serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a usable world bundle was loaded (`false` = cold bootstrap,
    /// because the bundle was missing, torn, or built under a different
    /// configuration).
    pub recovered_from_bundle: bool,
    /// The bundle's world version (0 when none was loaded).
    pub bundle_version: u64,
    /// Journal records replayed on top of the starting world.
    pub replayed: usize,
    /// Journal records skipped because the starting world already included
    /// them (their version ≤ the bundle's).
    pub skipped: usize,
    /// Whether the journal ended in a torn/corrupt tail record (ignored;
    /// everything before it replayed).
    pub torn_tail: bool,
    /// The world version now serving.
    pub version: u64,
}

/// The memoized synthesis of the serving world: everything the next delta
/// needs to decide which work items it can replay.
struct SynthesisMemo {
    /// The snapshot arena the memoized candidates' utterances live in.
    arena: Arc<Interner>,
    /// Per-entry content digests of the phrase pools at build time.
    digests: PoolDigests,
    /// Every completed `(rule, batch)` work item, keyed by `(rule_id,
    /// batch)`.
    batches: HashMap<(u64, u64), BatchRecord>,
}

/// Mutable half of a [`LiveWorld`], held behind a mutex so concurrent
/// reloads serialize (requests never wait on it — they go straight to the
/// engine's world slot).
struct LiveState {
    library: Arc<Thingpedia>,
    memo: SynthesisMemo,
}

/// Everything one synthesis + training pass produced.
struct BuildOutcome {
    parser: LuinetParser,
    memo: SynthesisMemo,
    stats: StreamStats,
    examples: usize,
    reused_batches: usize,
    changed_pool_entries: usize,
    full_rebuild: bool,
    fine_tuned: bool,
}

/// The on-disk side of a durable world: the delta journal plus the bundle
/// path appends and recoveries go through.
struct Durability {
    journal: DeltaJournal,
    bundle_path: PathBuf,
}

/// A hot-swappable serving world: a [`GenieEngine`] plus the synthesis
/// memo and configuration needed to rebuild it incrementally on a skill
/// delta. See the [module docs](self) for the lifecycle.
pub struct LiveWorld {
    engine: GenieEngine,
    pipeline: PipelineConfig,
    model: ModelConfig,
    options: NnOptions,
    policies: Vec<Policy>,
    config_digest: u64,
    state: Mutex<LiveState>,
    durability: Option<Durability>,
}

/// The configuration identity a bundle is scoped to: a world rebuilt under
/// a different pipeline/model/options tuple is a different world, so its
/// bundle must not warm-start this one.
fn config_digest(pipeline: &PipelineConfig, model: &ModelConfig, options: &NnOptions) -> u64 {
    fnv64(format!("{pipeline:?}|{model:?}|{options:?}").as_bytes())
}

impl LiveWorld {
    /// Bootstrap a live world over `library`: synthesize + train with the
    /// given configs, memoize the synthesis, and build the engine (world
    /// version 1). Forces [`genie_templates::GeneratorConfig::pool_streams`]
    /// (genie_templates) on — per-template pool RNG streams are what keep
    /// a delta's pool damage local, and the knob is part of the dataset
    /// identity, so it must be fixed for the world's whole lifetime.
    ///
    /// # Errors
    ///
    /// Propagates config validation, pipeline and engine-build failures.
    pub fn bootstrap(
        library: Thingpedia,
        pipeline: PipelineConfig,
        model: ModelConfig,
    ) -> GenieResult<Self> {
        Self::bootstrap_with(library, pipeline, model, NnOptions::default(), Vec::new())
    }

    /// [`LiveWorld::bootstrap`] with explicit parser-token options and
    /// TACL policies (re-installed verbatim on every swap).
    pub fn bootstrap_with(
        library: Thingpedia,
        mut pipeline: PipelineConfig,
        model: ModelConfig,
        options: NnOptions,
        policies: Vec<Policy>,
    ) -> GenieResult<Self> {
        pipeline.synthesis.pool_streams = true;
        pipeline.validate()?;
        let library = Arc::new(library);
        let outcome = build_world(
            &library,
            &pipeline,
            &model,
            options,
            None,
            TrainPlan::Scratch,
        )?;
        let engine = GenieEngine::builder()
            .thingpedia_shared(library.clone())
            .model(outcome.parser)
            .policies(policies.clone())
            .build()?;
        let config_digest = config_digest(&pipeline, &model, &options);
        Ok(LiveWorld {
            engine,
            pipeline,
            model,
            options,
            policies,
            config_digest,
            state: Mutex::new(LiveState {
                library,
                memo: outcome.memo,
            }),
            durability: None,
        })
    }

    /// Open a **durable** live world rooted at `dir`: recover from the
    /// world bundle and delta journal if they exist, else bootstrap cold
    /// from `library` and create them.
    ///
    /// Recovery order:
    ///
    /// 1. load `world.bundle` — if it unseals, decodes, and was built under
    ///    this exact (pipeline, model, options) configuration, the world
    ///    warm-starts at the bundle's version with the bundled model and
    ///    synthesis memo (no re-synthesis, no retraining);
    /// 2. otherwise (missing, torn, or config drift) bootstrap cold at
    ///    `library` — version 1, exactly like [`LiveWorld::bootstrap`];
    /// 3. replay every effective journal record newer than the starting
    ///    version, in order (a torn journal tail is ignored as a typed
    ///    condition; abort-cancelled records are skipped);
    /// 4. persist a consolidated bundle at the recovered version.
    ///
    /// The result is deterministic: the recovered `weights_digest` equals
    /// the digest the primary served at that version (see the
    /// [determinism contract](self)).
    ///
    /// # Errors
    ///
    /// Propagates journal/bundle I/O failures, a journal whose intact
    /// records fail to decode, a version gap in the journal (history lost
    /// beyond what cold bootstrap can rebuild), and pipeline/engine errors.
    pub fn open_durable(
        dir: &Path,
        library: Thingpedia,
        pipeline: PipelineConfig,
        model: ModelConfig,
    ) -> GenieResult<(Self, RecoveryReport)> {
        Self::open_durable_with(
            dir,
            library,
            pipeline,
            model,
            NnOptions::default(),
            Vec::new(),
        )
    }

    /// [`LiveWorld::open_durable`] with explicit parser-token options and
    /// TACL policies.
    pub fn open_durable_with(
        dir: &Path,
        library: Thingpedia,
        mut pipeline: PipelineConfig,
        model: ModelConfig,
        options: NnOptions,
        policies: Vec<Policy>,
    ) -> GenieResult<(Self, RecoveryReport)> {
        pipeline.synthesis.pool_streams = true;
        pipeline.validate()?;
        std::fs::create_dir_all(dir)?;
        let digest = config_digest(&pipeline, &model, &options);
        let bundle_path = dir.join("world.bundle");
        let (journal, torn) = DeltaJournal::open(&dir.join("deltas.journal"))?;
        let durability = Durability {
            journal,
            bundle_path: bundle_path.clone(),
        };
        // A bundle that is missing, torn, or config-scoped to a different
        // world is simply unusable — recovery falls back to cold bootstrap
        // plus a full journal replay, which rebuilds the identical world.
        let warm = match bundle::load(&bundle_path) {
            Ok(bundle) if bundle.config_digest == digest => Some(bundle),
            _ => None,
        };
        let (world, recovered_from_bundle, bundle_version) = match warm {
            Some(bundle) => {
                let (library, memo, snapshot, version) = bundle.into_parts();
                let parser = luinet::snapshot::from_bytes(&snapshot)?;
                let engine = GenieEngine::builder()
                    .thingpedia_shared(library.clone())
                    .model(parser)
                    .policies(policies.clone())
                    .world_version(version)
                    .build()?;
                (
                    LiveWorld {
                        engine,
                        pipeline,
                        model,
                        options,
                        policies,
                        config_digest: digest,
                        state: Mutex::new(LiveState { library, memo }),
                        durability: Some(durability),
                    },
                    true,
                    version,
                )
            }
            None => {
                let mut world = Self::bootstrap_with(library, pipeline, model, options, policies)?;
                world.durability = Some(durability);
                (world, false, 0)
            }
        };
        let mut replayed = 0;
        let mut skipped = 0;
        let records = match &world.durability {
            Some(durability) => durability.journal.records_since(0),
            None => Vec::new(),
        };
        for record in records {
            let current = world.engine.world_version();
            if record.version <= current {
                skipped += 1;
                continue;
            }
            if record.version != current + 1 {
                return Err(Error::CorruptArtifact {
                    detail: format!(
                        "journal record v{} does not follow recovered world v{current} — \
                         history gap",
                        record.version
                    ),
                });
            }
            world.reload_inner(&record.delta, record.mode, false, false)?;
            replayed += 1;
        }
        if replayed > 0 || !recovered_from_bundle {
            world.persist_current()?;
        }
        let version = world.engine.world_version();
        Ok((
            world,
            RecoveryReport {
                recovered_from_bundle,
                bundle_version,
                replayed,
                skipped,
                torn_tail: torn.is_some(),
                version,
            },
        ))
    }

    /// Seal and atomically persist the serving world as a bundle at its
    /// current version. No-op for non-durable worlds.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the sealed write fails (including an injected
    /// `bundle.write` fault).
    pub fn persist_current(&self) -> GenieResult<()> {
        let Some(durability) = &self.durability else {
            return Ok(());
        };
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot = luinet::snapshot::to_bytes(&self.engine.model());
        let payload = bundle::encode(
            self.engine.world_version(),
            self.config_digest,
            &state.library,
            &state.memo,
            &snapshot,
        );
        bundle::save(&durability.bundle_path, &payload)
    }

    /// The engine this world serves through. Clones share the world slot,
    /// so a handle captured before a reload observes the swap.
    pub fn engine(&self) -> &GenieEngine {
        &self.engine
    }

    /// The world version currently serving.
    pub fn version(&self) -> u64 {
        self.engine.world_version()
    }

    /// The library of the serving world.
    pub fn library(&self) -> Arc<Thingpedia> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .library
            .clone()
    }

    /// Apply a skill delta with byte-identical retraining
    /// ([`RetrainMode::Full`]).
    ///
    /// # Errors
    ///
    /// Propagates pipeline and training failures; the serving world is
    /// untouched unless the whole rebuild succeeds.
    pub fn reload(&self, delta: &SkillDelta) -> GenieResult<SwapReport> {
        self.reload_with(delta, RetrainMode::Full)
    }

    /// Apply a skill delta: copy + patch the library, incrementally
    /// re-synthesize, retrain per `mode`, and atomically swap the new
    /// world in. Concurrent reloads serialize; requests in flight finish
    /// on the world they started with.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and training failures; the serving world is
    /// untouched unless the whole rebuild succeeds.
    pub fn reload_with(&self, delta: &SkillDelta, mode: RetrainMode) -> GenieResult<SwapReport> {
        self.reload_inner(delta, mode, true, true)
    }

    /// The reload engine. `journal` appends the delta as a WAL record
    /// before the rebuild (and an abort record on rebuild failure);
    /// recovery replay passes `false` because the record already exists.
    /// `persist` rewrites the world bundle after a successful swap.
    fn reload_inner(
        &self,
        delta: &SkillDelta,
        mode: RetrainMode,
        journal: bool,
        persist: bool,
    ) -> GenieResult<SwapReport> {
        let start = Instant::now();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        // The state lock serializes reloads, so `world_version` cannot move
        // between this read and the swap below.
        let next_version = self.engine.world_version() + 1;
        if journal {
            if let Some(durability) = &self.durability {
                // WAL discipline: the delta is durable *before* the rebuild
                // runs. An append failure is a typed error and the old
                // world keeps serving — nothing was rebuilt or swapped.
                durability.journal.append_delta(next_version, delta, mode)?;
            }
        }
        let rebuilt = (|| {
            // Chaos-harness injection point: a fault here (error or panic)
            // must leave the old world serving and the version untouched —
            // the swap below only happens after the whole rebuild succeeds.
            genie_nlp::failpoint::fail_io("reload.retrain")?;
            let mut library = (*state.library).clone();
            delta.apply(&mut library);
            let library = Arc::new(library);
            let plan = match mode {
                RetrainMode::Full | RetrainMode::FineTune { epochs: 0 } => TrainPlan::Scratch,
                RetrainMode::FineTune { epochs } => TrainPlan::FineTune {
                    base: self.engine.model(),
                    epochs,
                },
            };
            let outcome = build_world(
                &library,
                &self.pipeline,
                &self.model,
                self.options,
                Some(&state.memo),
                plan,
            )?;
            Ok((library, outcome))
        })();
        let (library, outcome) = match rebuilt {
            Ok(rebuilt) => rebuilt,
            Err(error) => {
                if journal {
                    if let Some(durability) = &self.durability {
                        // Best-effort: the journaled delta failed, so mark
                        // it dead for recovery. If this append is itself
                        // lost to a crash, replay applies the delta — a
                        // deterministic world the version accounting still
                        // agrees with.
                        let _ = durability.journal.append_abort(next_version);
                    }
                }
                return Err(error);
            }
        };
        let parser = Arc::new(outcome.parser);
        let swap_latency_us = start.elapsed().as_micros() as u64;
        let version = self.engine.swap_world_at(
            next_version,
            library.clone(),
            parser.clone(),
            self.policies.clone(),
            swap_latency_us,
        );
        state.library = library;
        state.memo = outcome.memo;
        let mut persisted = true;
        if persist {
            if let Some(durability) = &self.durability {
                // Bundle-write failure is survivable (the journal already
                // has the delta; the next restart replays it), so it is
                // reported, not propagated.
                let payload = bundle::encode(
                    version,
                    self.config_digest,
                    &state.library,
                    &state.memo,
                    &luinet::snapshot::to_bytes(&parser),
                );
                persisted = bundle::save(&durability.bundle_path, &payload).is_ok();
            }
        }
        Ok(SwapReport {
            version,
            total_batches: outcome.stats.synthesis.batches,
            reused_batches: outcome.reused_batches,
            changed_pool_entries: outcome.changed_pool_entries,
            full_rebuild: outcome.full_rebuild,
            emitted_examples: outcome.examples,
            fine_tuned: outcome.fine_tuned,
            swap_latency_us,
            persisted,
        })
    }

    /// The FNV-1a digest of the serving model's weights — the byte-identity
    /// proxy replication and recovery compare.
    pub fn weights_digest(&self) -> u64 {
        self.engine.model().weights_digest()
    }

    /// Whether this world journals deltas and persists bundles.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The effective journal history after `since` (exclusive). Empty for
    /// non-durable worlds.
    pub fn journal_records_since(&self, since: u64) -> Vec<JournalRecord> {
        match &self.durability {
            Some(durability) => durability.journal.records_since(since),
            None => Vec::new(),
        }
    }

    /// The first effectively journaled version (0 when empty or
    /// non-durable) — a follower older than this must resync from a bundle.
    pub fn journal_first_version(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(0, |durability| durability.journal.first_version())
    }

    /// The last effectively journaled version (0 when empty or
    /// non-durable).
    pub fn journal_last_version(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(0, |durability| durability.journal.last_version())
    }

    /// The sealed bytes of the current world bundle, as served to a
    /// resyncing follower (the follower unseals and decodes them with
    /// [`LiveWorld::install_bundle`]).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for non-durable worlds; [`Error::Io`] when the
    /// bundle file is unreadable.
    pub fn bundle_bytes(&self) -> GenieResult<Vec<u8>> {
        let Some(durability) = &self.durability else {
            return Err(Error::Config(ConfigError::new(
                "durability",
                "this world was not opened durable — no bundle exists",
            )));
        };
        // The sealed image ships verbatim: the checksum footer crosses the
        // wire, so a truncated transfer is detected at the receiver.
        Ok(std::fs::read(&durability.bundle_path)?)
    }

    /// Install a primary's sealed bundle — the follower resync path. The
    /// bundle must match this world's configuration digest; versions at or
    /// below the serving one are a no-op. Returns the serving version.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptArtifact`] when the bytes fail validation or the
    /// configuration digests differ.
    pub fn install_bundle(&self, sealed_bytes: &[u8]) -> GenieResult<u64> {
        let payload = genie_nlp::sealed::unseal(sealed_bytes).map_err(Error::from)?;
        let decoded = bundle::decode(payload)?;
        if decoded.config_digest != self.config_digest {
            return Err(Error::CorruptArtifact {
                detail: format!(
                    "bundle configuration digest {:#018x} does not match this world's {:#018x}",
                    decoded.config_digest, self.config_digest
                ),
            });
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let current = self.engine.world_version();
        if decoded.world_version <= current {
            return Ok(current);
        }
        let (library, memo, snapshot, version) = decoded.into_parts();
        let parser = luinet::snapshot::from_bytes(&snapshot)?;
        let installed = self.engine.swap_world_at(
            version,
            library.clone(),
            Arc::new(parser),
            self.policies.clone(),
            0,
        );
        state.library = library;
        state.memo = memo;
        Ok(installed)
    }
}

/// How [`build_world`] turns the example stream into a parser.
enum TrainPlan {
    /// `LuinetParser::new` + full training — byte-identical to a cold
    /// bootstrap at the same library.
    Scratch,
    /// Clone `base` (via a snapshot round-trip; the parser is deliberately
    /// not `Clone`) and fine-tune for `epochs`.
    FineTune {
        base: Arc<LuinetParser>,
        epochs: usize,
    },
}

/// One full synthesis + training pass over `library`, incrementally reusing
/// `previous` where the pool diff proves a work item unaffected.
fn build_world(
    library: &Thingpedia,
    pipeline: &PipelineConfig,
    model: &ModelConfig,
    options: NnOptions,
    previous: Option<&SynthesisMemo>,
    plan: TrainPlan,
) -> GenieResult<BuildOutcome> {
    let arena = genie_templates::intern::fresh(library, ParamDatasets::builtin());
    // The digest pass builds the new pools once up front (a pure function
    // of `(library, seed)`); the pipeline's own generator rebuilds them
    // identically, so the diff below describes exactly the pools the run
    // will draw from.
    let digests = {
        let generator =
            SentenceGenerator::with_interner(library, pipeline.synthesis, arena.clone());
        generator.pools().content_digests(generator.interner())
    };
    let delta: Option<PoolsDelta> = previous.map(|memo| memo.digests.diff(&digests));
    let full_rebuild = match &delta {
        Some(delta) => delta.lengths_changed(),
        None => false,
    };
    let changed_pool_entries = delta.as_ref().map_or(0, |d| d.changed_entries);
    let reusable = match (&delta, previous) {
        (Some(delta), Some(memo)) if !delta.lengths_changed() => Some((delta, memo)),
        _ => None,
    };
    let provider = reusable.map(|(delta, memo)| {
        move |rule_id: u64, batch: u64, local: &mut genie_templates::LocalInterner<'_>| {
            let record = memo.batches.get(&(rule_id, batch))?;
            if delta.affects(&record.draws) {
                return None;
            }
            let candidates = record
                .candidates
                .iter()
                .map(|example| {
                    let mut replay = example.clone();
                    let text = memo.arena.render(&example.utterance);
                    let mut stream = TokenStream::with_capacity(example.utterance.len());
                    local.intern_words(&text, &mut stream);
                    replay.utterance = stream;
                    replay
                })
                .collect();
            Some(ProvidedBatch {
                candidates,
                fingerprints: record.fingerprints.clone(),
                draws: record.draws.clone(),
            })
        }
    });
    let data_pipeline = DataPipeline::with_interner(library, *pipeline, arena.clone());
    let mut batches: HashMap<(u64, u64), BatchRecord> = HashMap::new();
    let mut observer = |record: BatchRecord| {
        batches.insert((record.rule_id, record.batch), record);
    };
    let mut examples: Vec<ParserExample> = Vec::new();
    let stats =
        data_pipeline.run_streaming_observed(
            options,
            provider.as_ref().map(|f| {
                f
                    as &(dyn Fn(
                        u64,
                        u64,
                        &mut genie_templates::LocalInterner<'_>,
                    ) -> Option<ProvidedBatch>
                          + Sync)
            }),
            Some(&mut observer),
            |example| examples.push(example),
        )?;
    let reused_batches = batches.values().filter(|record| record.provided).count();
    let (parser, fine_tuned) = match plan {
        TrainPlan::Scratch => {
            let mut parser = LuinetParser::new(model.clone());
            parser.train(&examples);
            (parser, false)
        }
        TrainPlan::FineTune { base, epochs } => {
            let bytes = luinet::snapshot::to_bytes(&base);
            let mut parser = luinet::snapshot::from_bytes(&bytes)?;
            parser.fine_tune(&examples, epochs);
            (parser, true)
        }
    };
    Ok(BuildOutcome {
        parser,
        memo: SynthesisMemo {
            arena,
            digests,
            batches,
        },
        stats,
        examples: examples.len(),
        reused_batches,
        changed_pool_entries,
        full_rebuild,
        fine_tuned,
    })
}
