//! The `GenieEngine` serving facade.
//!
//! PRs 1–2 built the *offline* half of the paper — the dataset factory —
//! but the product of §5 is a deployed semantic parser answering live
//! utterances. This module is that serving layer: one long-lived,
//! thread-safe object assembled once from a Thingpedia and a trained
//! parser, shared across request threads, and answering typed requests
//! with typed errors instead of panics.
//!
//! # Request lifecycle
//!
//! ```text
//! ParseRequest { utterance, flags }
//!        │  validate: non-empty, ≤ max_utterance_tokens
//!        ▼
//!   tokenize (genie-nlp)
//!        │            cache hit? ──────────────────────────┐
//!        ▼                                                 │
//!   LuinetParser::predict_topk  (k scored candidates)      │
//!        │  per candidate:                                 │
//!        ▼                                                 │
//!   nn_syntax::from_tokens_checked  (decode + typecheck)   │
//!        │                                                 │
//!        ▼                                                 │
//!   TACL policy check (when policies are installed)        │
//!        │  survivors                                      ▼
//!        ▼                                          cached answer
//!   ParseResponse { candidates } ── insert ──▶ fingerprint-keyed cache
//!        │                                                 ▲
//!        └─ every candidate rejected →                     │
//!           Err(Error::NoParse { rejected }) ── insert ────┘
//! ```
//!
//! Responses are a pure function of (model, library, policies, request),
//! candidate ranking breaks ties deterministically, and
//! [`GenieEngine::parse_batch`] fans out over an order-preserving parallel
//! map — so batch output is **byte-identical for any thread count**, and
//! the cache can only change latency, never content.
//! [`GenieEngine::cached`] runs the same tokenize → key → verify lookup
//! alone, so a front-end can answer a hit without queueing it for a batch.
//!
//! The cache is scoped to the serving world. A hot swap
//! ([`GenieEngine::swap_world`]) re-answers the entries that were hit
//! against the incoming world and carries those answers into its cache;
//! the rest are dropped. No answer of a retired world is ever served.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use genie_templates::dedup::fingerprint;
use genie_templates::ConfigError;
use luinet::{LuinetParser, ModelConfig};
use thingpedia::Thingpedia;
use thingtalk::nn_syntax::from_tokens_checked;
use thingtalk::policy::{check_program, Policy};
use thingtalk::Program;

use crate::error::{Error, GenieResult};
use crate::pipeline::{DataPipeline, NnOptions, PipelineConfig};

/// Default number of candidates decoded per request.
pub const DEFAULT_CANDIDATES: usize = 3;
/// Hard ceiling on candidates per request. The beam's cost grows with its
/// width, so an unclamped per-request `candidates` would let one untrusted
/// request buy unbounded decode work; values above the ceiling are clamped.
pub const MAX_REQUEST_CANDIDATES: usize = 16;
/// Default bound on utterance length, in tokens.
pub const DEFAULT_MAX_UTTERANCE_TOKENS: usize = 64;
/// Default response-cache capacity, in entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;
/// The principal used for policy checks when a request names none.
pub const DEFAULT_PRINCIPAL: &str = "user";

/// Per-request options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseFlags {
    /// Candidates to decode and check; `0` uses the engine default.
    pub candidates: usize,
    /// Principal for the TACL policy check; `None` uses
    /// [`DEFAULT_PRINCIPAL`].
    pub principal: Option<String>,
    /// Skip the response cache for this request (it is still populated).
    pub bypass_cache: bool,
}

/// One utterance to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRequest {
    /// The natural-language command.
    pub utterance: String,
    /// Per-request options.
    pub flags: ParseFlags,
}

impl ParseRequest {
    /// A request with default flags.
    pub fn new(utterance: impl Into<String>) -> Self {
        ParseRequest {
            utterance: utterance.into(),
            flags: ParseFlags::default(),
        }
    }

    /// Ask for a specific number of candidates.
    pub fn with_candidates(mut self, candidates: usize) -> Self {
        self.flags.candidates = candidates;
        self
    }

    /// Check policies against this principal instead of the default.
    pub fn with_principal(mut self, principal: impl Into<String>) -> Self {
        self.flags.principal = Some(principal.into());
        self
    }

    /// Skip the response cache.
    pub fn bypass_cache(mut self) -> Self {
        self.flags.bypass_cache = true;
        self
    }
}

/// One decoded, typechecked, policy-approved candidate program.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseCandidate {
    /// The decoded program.
    pub program: Program,
    /// The program rendered in surface syntax.
    pub source: String,
    /// The NN tokens the model emitted.
    pub tokens: Vec<String>,
    /// The decoder score (comparable within one response only).
    pub score: f64,
}

/// The answer to a [`ParseRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseResponse {
    /// The request utterance, as received.
    pub utterance: String,
    /// The tokenized sentence the model saw.
    pub sentence: Vec<String>,
    /// Valid candidates, most probable first. Never empty — an empty set
    /// is an [`Error::NoParse`] instead.
    pub candidates: Vec<ParseCandidate>,
}

impl ParseResponse {
    /// The most probable candidate.
    pub fn best(&self) -> &ParseCandidate {
        // Construction guarantees at least one candidate.
        &self.candidates[0]
    }
}

/// Aggregate serving counters (monotonic except `world_version` and
/// `last_swap_us`, which track the latest hot swap; updated atomically).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered (including errors).
    pub requests: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Model candidates discarded by decode, typecheck or policy.
    pub rejected_candidates: u64,
    /// Version of the world snapshot currently serving (1 = as built).
    pub world_version: u64,
    /// Completed hot swaps since the engine was built.
    pub swaps: u64,
    /// Wall-clock microseconds the most recent swap took end to end, as
    /// reported by the caller that drove it (0 until the first swap).
    pub last_swap_us: u64,
    /// Hot cached answers that swaps re-answered against the incoming
    /// world and carried into its cache.
    pub cache_carried: u64,
}

/// The engine's counter cells, shared between the engine and any
/// [`EngineStatsHandle`]s observing it.
#[derive(Default)]
struct EngineCounters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    rejected_candidates: AtomicU64,
    world_version: AtomicU64,
    swaps: AtomicU64,
    last_swap_us: AtomicU64,
    cache_carried: AtomicU64,
}

impl EngineCounters {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            rejected_candidates: self.rejected_candidates.load(Ordering::Relaxed),
            world_version: self.world_version.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            last_swap_us: self.last_swap_us.load(Ordering::Relaxed),
            cache_carried: self.cache_carried.load(Ordering::Relaxed),
        }
    }
}

/// A cheap, cloneable handle onto the engine's counters — three shared
/// atomics, no lock, no reference to the model or the library. A metrics
/// exporter (e.g. `genie-server`'s `GET /metrics`) holds one of these and
/// snapshots it per scrape instead of shadow-counting cache hits it cannot
/// see from outside.
///
/// The handle keeps only the counter cells alive, so it can outlive the
/// engine itself (the counters then simply stop moving).
#[derive(Clone)]
pub struct EngineStatsHandle {
    counters: Arc<EngineCounters>,
}

impl EngineStatsHandle {
    /// A consistent-enough snapshot of the counters (each cell is read
    /// atomically; the triple is not a transaction).
    pub fn snapshot(&self) -> EngineStats {
        self.counters.snapshot()
    }
}

impl fmt::Debug for EngineStatsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("EngineStatsHandle")
            .field(&self.snapshot())
            .finish()
    }
}

/// A computed answer: the response (its utterance rendered from the
/// tokens), or the rejected candidates of a typed no-parse.
type Answer = Result<ParseResponse, Vec<(String, thingtalk::Error)>>;

/// One cached answer, carrying the full key so a 64-bit fingerprint
/// collision is detected on lookup instead of silently serving another
/// utterance's parse.
struct CacheEntry {
    sentence: genie_nlp::TokenStream,
    k: usize,
    principal: String,
    answer: Answer,
    /// Set by the first verified hit: the entry is hot, and the next swap
    /// re-answers it against the incoming world instead of dropping it.
    hit: AtomicBool,
}

impl CacheEntry {
    fn new(sentence: genie_nlp::TokenStream, k: usize, principal: String, answer: Answer) -> Self {
        CacheEntry {
            sentence,
            k,
            principal,
            answer,
            hit: AtomicBool::new(false),
        }
    }

    /// The cached answer, under `utterance` (the request's own).
    fn answer_for(&self, utterance: &str) -> GenieResult<ParseResponse> {
        match &self.answer {
            Ok(response) => Ok(ParseResponse {
                utterance: utterance.to_owned(),
                ..response.clone()
            }),
            Err(rejected) => Err(Error::NoParse {
                utterance: utterance.to_owned(),
                rejected: rejected.clone(),
            }),
        }
    }
}

/// A validated request keyed against one world: its tokenization, clamped
/// candidate width and principal, and their cache fingerprint.
struct Resolved<'r> {
    sentence: genie_nlp::TokenStream,
    k: usize,
    principal: &'r str,
    key: u64,
}

/// What the response cache holds for one request.
enum Lookup<'r> {
    /// The cached answer, rewritten to the request's own utterance.
    Hit(GenieResult<ParseResponse>),
    /// No verified entry; the parser must answer.
    Miss(Resolved<'r>),
}

/// The hot-swappable half of the engine: everything a live skill update
/// replaces in one step. Immutable once published — in-flight requests
/// capture one `Arc<World>` at entry and finish on it even if a swap lands
/// mid-request. The response cache rides inside the world, so no answer
/// computed against a retired library is ever served: a swap starts the
/// incoming world's cache with the outgoing world's *hot* entries (those a
/// verified hit marked) re-answered against the incoming world, and drops
/// the rest.
struct World {
    /// Monotonic snapshot version; 1 is the world the engine was built
    /// with, each completed swap increments it.
    version: u64,
    library: Arc<Thingpedia>,
    model: Arc<LuinetParser>,
    policies: Vec<Policy>,
    cache: Mutex<HashMap<u64, Arc<CacheEntry>>>,
}

struct EngineInner {
    /// The serving world, swapped atomically by [`GenieEngine::swap_world`].
    /// Readers hold the lock only long enough to clone the `Arc`.
    world: RwLock<Arc<World>>,
    candidates: usize,
    max_utterance_tokens: usize,
    cache_capacity: usize,
    threads: usize,
    counters: Arc<EngineCounters>,
}

/// The long-lived, thread-safe serving facade. Cloning is cheap (the
/// engine is an [`Arc`] handle); clones share the model, the library, the
/// cache and the counters.
#[derive(Clone)]
pub struct GenieEngine {
    inner: Arc<EngineInner>,
}

/// Builder for [`GenieEngine`]; `build()` validates the assembly.
pub struct EngineBuilder {
    library: Arc<Thingpedia>,
    model: Option<Arc<LuinetParser>>,
    policies: Vec<Policy>,
    candidates: usize,
    max_utterance_tokens: usize,
    cache_capacity: usize,
    threads: usize,
    initial_version: u64,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            library: Arc::new(Thingpedia::builtin()),
            model: None,
            policies: Vec::new(),
            candidates: DEFAULT_CANDIDATES,
            max_utterance_tokens: DEFAULT_MAX_UTTERANCE_TOKENS,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            threads: 0,
            initial_version: 1,
        }
    }
}

impl EngineBuilder {
    /// Start from the builtin Thingpedia and defaults.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Serve against this skill library instead of the builtin one.
    pub fn thingpedia(mut self, library: Thingpedia) -> Self {
        self.library = Arc::new(library);
        self
    }

    /// Share an already-`Arc`ed library (e.g. with a co-located pipeline).
    pub fn thingpedia_shared(mut self, library: Arc<Thingpedia>) -> Self {
        self.library = library;
        self
    }

    /// Use this trained parser.
    pub fn model(mut self, model: LuinetParser) -> Self {
        self.model = Some(Arc::new(model));
        self
    }

    /// Share an already-`Arc`ed parser.
    pub fn model_shared(mut self, model: Arc<LuinetParser>) -> Self {
        self.model = Some(model);
        self
    }

    /// Load the model from a snapshot file written by
    /// [`luinet::LuinetParser::save_snapshot`] — the multi-process serving
    /// path: replicas share one trained artifact instead of each re-training
    /// or eagerly rebuilding the symbol-keyed tables.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read and
    /// [`Error::CorruptArtifact`] when its bytes fail validation.
    pub fn model_from_snapshot(mut self, path: impl AsRef<std::path::Path>) -> GenieResult<Self> {
        let model = luinet::snapshot::load(path.as_ref())?;
        self.model = Some(Arc::new(model));
        Ok(self)
    }

    /// Synthesize a training set with `pipeline`, train a parser with
    /// `model` on the full Genie strategy, and install it as the engine
    /// model — the one-stop bootstrap used by tests, examples and the
    /// serving bench.
    ///
    /// Training is deterministically parallel: `model.threads` only
    /// changes wall-clock, while `model.train_shards` is part of the
    /// model identity (see [`luinet::ModelConfig`]) — so an engine
    /// bootstrapped from a fixed (pipeline, model) pair serves identical
    /// responses no matter how many cores trained it.
    pub fn train(mut self, pipeline: PipelineConfig, model: ModelConfig) -> GenieResult<Self> {
        pipeline.validate()?;
        let data_pipeline = DataPipeline::new(&self.library, pipeline);
        let data = data_pipeline.build()?;
        let examples = data_pipeline.to_parser_examples(&data.combined(), NnOptions::default());
        let mut parser = LuinetParser::new(model);
        parser.train(&examples);
        self.model = Some(Arc::new(parser));
        Ok(self)
    }

    /// Enforce these TACL policies on every candidate. With no policies
    /// installed, every well-typed candidate is allowed.
    pub fn policies(mut self, policies: Vec<Policy>) -> Self {
        self.policies = policies;
        self
    }

    /// Default number of candidates per request.
    pub fn candidates(mut self, candidates: usize) -> Self {
        self.candidates = candidates;
        self
    }

    /// Reject utterances longer than this many tokens.
    pub fn max_utterance_tokens(mut self, tokens: usize) -> Self {
        self.max_utterance_tokens = tokens;
        self
    }

    /// Response-cache capacity in entries (`0` disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Worker threads for [`GenieEngine::parse_batch`] (`0` = all cores;
    /// never changes output).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Start serving at this world version instead of 1 — the crash-recovery
    /// path: an engine rebuilt from a version-`V` bundle must report `V`, so
    /// journal replay and follower catch-up line up with the pre-crash
    /// history. Values below 1 are clamped to 1.
    pub fn world_version(mut self, version: u64) -> Self {
        self.initial_version = version.max(1);
        self
    }

    /// Validate and assemble the engine.
    ///
    /// # Errors
    ///
    /// [`Error::ModelUntrained`] when no model was installed or the model
    /// has seen no training data; [`Error::Config`] for out-of-range
    /// limits.
    pub fn build(self) -> GenieResult<GenieEngine> {
        if self.candidates == 0 {
            return Err(ConfigError::new("candidates", "must be at least 1").into());
        }
        if self.candidates > MAX_REQUEST_CANDIDATES {
            return Err(ConfigError::new(
                "candidates",
                format!(
                    "must be at most {MAX_REQUEST_CANDIDATES}, got {}",
                    self.candidates
                ),
            )
            .into());
        }
        if self.max_utterance_tokens == 0 {
            return Err(ConfigError::new("max_utterance_tokens", "must be at least 1").into());
        }
        let model = self.model.ok_or(Error::ModelUntrained)?;
        if model.trained_examples() == 0 {
            return Err(Error::ModelUntrained);
        }
        let counters = Arc::new(EngineCounters::default());
        counters
            .world_version
            .store(self.initial_version, Ordering::Relaxed);
        Ok(GenieEngine {
            inner: Arc::new(EngineInner {
                world: RwLock::new(Arc::new(World {
                    version: self.initial_version,
                    library: self.library,
                    model,
                    policies: self.policies,
                    cache: Mutex::new(HashMap::new()),
                })),
                candidates: self.candidates,
                max_utterance_tokens: self.max_utterance_tokens,
                cache_capacity: self.cache_capacity,
                threads: self.threads,
                counters,
            }),
        })
    }
}

impl GenieEngine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The serving world at this instant (a cheap `Arc` clone; the read
    /// lock is held only for the clone). Requests capture one world at
    /// entry and never observe a mid-request swap.
    fn world(&self) -> Arc<World> {
        self.inner
            .world
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The skill library the engine currently serves (a swap may replace
    /// it; the returned `Arc` pins this version).
    pub fn library(&self) -> Arc<Thingpedia> {
        self.world().library.clone()
    }

    /// The trained model currently serving, shared (a cheap [`Arc`]
    /// clone) — e.g. to assemble another engine over the same parser with
    /// different policies or worker counts.
    pub fn model(&self) -> Arc<LuinetParser> {
        self.world().model.clone()
    }

    /// The version of the world snapshot currently serving (1 = as built;
    /// each completed [`GenieEngine::swap_world`] increments it).
    pub fn world_version(&self) -> u64 {
        self.world().version
    }

    /// Atomically replace the serving world: library, model and policies
    /// swap together as one version. In-flight requests finish on the
    /// snapshot they captured at entry; requests arriving after the swap
    /// see only the new world. Returns the new version.
    ///
    /// The response cache is scoped to the world it was filled under. Before
    /// publishing, the swap re-answers each hot entry of the outgoing cache
    /// (one a verified hit marked) against the incoming world — the same
    /// routine a miss runs, so the carried answer is byte-identical to what
    /// a miss would compute — and the incoming cache starts with those
    /// answers. Entries never hit are dropped, and the carry counts no
    /// request, hit or rejection (see [`EngineStats::cache_carried`]).
    ///
    /// `swap_latency_us` is the end-to-end latency of the reload that
    /// produced this world (re-synthesis + retraining + this call), as
    /// measured by the driver; it is surfaced through
    /// [`EngineStats::last_swap_us`].
    pub fn swap_world(
        &self,
        library: Arc<Thingpedia>,
        model: Arc<LuinetParser>,
        policies: Vec<Policy>,
        swap_latency_us: u64,
    ) -> u64 {
        self.swap_world_inner(None, library, model, policies, swap_latency_us)
    }

    /// [`GenieEngine::swap_world`] at an explicit version — the replication
    /// path: a follower installing a primary's bundle must land on the
    /// bundle's version, not `local + 1`. Returns the version installed.
    pub fn swap_world_at(
        &self,
        version: u64,
        library: Arc<Thingpedia>,
        model: Arc<LuinetParser>,
        policies: Vec<Policy>,
        swap_latency_us: u64,
    ) -> u64 {
        self.swap_world_inner(Some(version), library, model, policies, swap_latency_us)
    }

    fn swap_world_inner(
        &self,
        version: Option<u64>,
        library: Arc<Thingpedia>,
        model: Arc<LuinetParser>,
        policies: Vec<Policy>,
        swap_latency_us: u64,
    ) -> u64 {
        let mut incoming = World {
            version: 0,
            library,
            model,
            policies,
            cache: Mutex::new(HashMap::new()),
        };
        // Snapshot the hot entries, then re-answer them with no lock held:
        // serving goes on against the outgoing world and its cache meanwhile.
        let hot: Vec<Arc<CacheEntry>> = self
            .world()
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|entry| entry.hit.load(Ordering::Relaxed))
            .cloned()
            .collect();
        let carried: Vec<CacheEntry> = hot
            .iter()
            .map(|entry| {
                let (answer, _) =
                    self.answer(&incoming, &entry.sentence, entry.k, &entry.principal);
                CacheEntry::new(
                    entry.sentence.clone(),
                    entry.k,
                    entry.principal.clone(),
                    answer,
                )
            })
            .collect();
        let carried_count = carried.len() as u64;

        let mut slot = self.inner.world.write().unwrap_or_else(|e| e.into_inner());
        // The version is read and replaced under the same write lock, so
        // concurrent implicit swaps never mint the same successor.
        let version = version.unwrap_or(slot.version + 1);
        incoming.version = version;
        let cache = incoming.cache.get_mut().unwrap_or_else(|e| e.into_inner());
        for entry in carried {
            let key = fingerprint(&(version, &entry.sentence, entry.k, entry.principal.as_str()));
            cache.insert(key, Arc::new(entry));
        }
        *slot = Arc::new(incoming);
        drop(slot);
        let counters = &self.inner.counters;
        counters.world_version.store(version, Ordering::Relaxed);
        counters.swaps.fetch_add(1, Ordering::Relaxed);
        counters
            .last_swap_us
            .store(swap_latency_us, Ordering::Relaxed);
        counters
            .cache_carried
            .fetch_add(carried_count, Ordering::Relaxed);
        version
    }

    /// Aggregate serving counters.
    pub fn stats(&self) -> EngineStats {
        self.inner.counters.snapshot()
    }

    /// A cloneable handle onto the engine's counters, for observers (a
    /// metrics endpoint, a load shedder) that must read cache effectiveness
    /// without holding — or keeping alive — the engine itself.
    pub fn stats_handle(&self) -> EngineStatsHandle {
        EngineStatsHandle {
            counters: self.inner.counters.clone(),
        }
    }

    /// The cached answer for `request` — a response or a typed
    /// [`Error::NoParse`] — or `None` when answering it needs the parser: a
    /// miss, a `bypass_cache` request, a disabled cache, or a malformed
    /// utterance (whose typed error [`GenieEngine::parse`] reports). This is
    /// the exact lookup `parse` starts with, so a `Some` is byte-identical
    /// to what `parse` would return. A hit counts as one answered request;
    /// a `None` counts nothing, so the caller's follow-up `parse` is the
    /// request's only count.
    pub fn cached(&self, request: &ParseRequest) -> Option<GenieResult<ParseResponse>> {
        if request.flags.bypass_cache || self.inner.cache_capacity == 0 {
            return None;
        }
        match self.lookup(&self.world(), request) {
            Ok(Lookup::Hit(response)) => {
                self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .counters
                    .cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                Some(response)
            }
            Ok(Lookup::Miss(_)) | Err(_) => None,
        }
    }

    /// Parse one utterance into typechecked, policy-approved candidate
    /// programs.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyUtterance`] / [`Error::UtteranceTooLong`] for
    ///   malformed requests;
    /// * [`Error::NoParse`] when every model candidate is rejected by
    ///   decode, typecheck or policy — the rejections ride along for
    ///   error analysis.
    pub fn parse(&self, request: &ParseRequest) -> GenieResult<ParseResponse> {
        self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        // Capture the serving world once: the whole request — cache lookup,
        // decode, policy check, cache fill — runs against this snapshot,
        // even if a hot swap lands while the request is in flight.
        let world = self.world();
        let Resolved {
            sentence,
            k,
            principal,
            key,
        } = match self.lookup(&world, request)? {
            Lookup::Hit(answer) => {
                self.inner
                    .counters
                    .cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                return answer;
            }
            Lookup::Miss(resolved) => resolved,
        };
        let (answer, rejections) = self.answer(&world, &sentence, k, principal);
        self.inner
            .counters
            .rejected_candidates
            .fetch_add(rejections, Ordering::Relaxed);
        let entry = CacheEntry::new(sentence, k, principal.to_owned(), answer);
        let response = entry.answer_for(&request.utterance);
        if self.inner.cache_capacity > 0 {
            let mut cache = world.cache.lock().unwrap_or_else(|e| e.into_inner());
            // Bounded and deterministic in content: a full cache stops
            // admitting. (Values are pure functions of their key, so *which*
            // requests are cached never affects *what* is returned.) A typed
            // no-parse is as pure as a response, so it is cached too: a
            // repeated unparseable utterance costs a lookup, not a decode.
            if cache.len() < self.inner.cache_capacity {
                cache.entry(key).or_insert_with(|| Arc::new(entry));
            }
        }
        response
    }

    /// Predict → typecheck → policy for one resolved request against
    /// `world`: the answer a cache miss computes, and the number of model
    /// candidates it rejected. A pure function of `(world, sentence, k,
    /// principal)`; counts nothing. The response's utterance is the
    /// canonical rendering of the tokens, since the cache keys on the
    /// tokenization that many surface utterances share;
    /// [`CacheEntry::answer_for`] rewrites it per request.
    fn answer(
        &self,
        world: &World,
        sentence: &genie_nlp::TokenStream,
        k: usize,
        principal: &str,
    ) -> (Answer, u64) {
        let mut candidates = Vec::new();
        let mut rejected = Vec::new();
        for prediction in world.model.predict_topk(sentence, k) {
            match self.check_candidate(world, &prediction.tokens, principal) {
                Ok(program) => {
                    candidates.push(ParseCandidate {
                        source: program.to_string(),
                        program,
                        tokens: prediction.tokens,
                        score: prediction.score,
                    });
                }
                Err(error) => rejected.push((prediction.tokens.join(" "), error)),
            }
        }
        let rejections = rejected.len() as u64;
        if candidates.is_empty() {
            return (Err(rejected), rejections);
        }
        // The response surface stays text: resolve the interned tokens
        // once, at the serving boundary.
        let interner = genie_templates::intern::shared();
        let sentence: Vec<String> = sentence
            .iter()
            .map(|s| interner.resolve(s).to_owned())
            .collect();
        let response = ParseResponse {
            utterance: sentence.join(" "),
            sentence,
            candidates,
        };
        (Ok(response), rejections)
    }

    /// Tokenize and validate `request`, key it against `world`, and look
    /// the key up in that world's response cache — the one routine both
    /// [`GenieEngine::cached`] and [`GenieEngine::parse`] answer hits from.
    /// Counts nothing; the callers do.
    fn lookup<'r>(&self, world: &World, request: &'r ParseRequest) -> GenieResult<Lookup<'r>> {
        let utterance = request.utterance.trim();
        if utterance.is_empty() {
            return Err(Error::EmptyUtterance);
        }
        // Tokenize straight into the shared arena: known words are table
        // lookups; novel request words first land in the per-request local
        // overlay and commit only after the request passes the length
        // bounds — an oversized utterance never touches the arena, and a
        // vocabulary-exhaustion attack degrades to a typed error
        // (`try_commit` refuses near capacity) instead of a panic.
        let interner = genie_templates::intern::shared();
        let mut local = genie_nlp::LocalInterner::new(interner);
        let mut sentence = genie_nlp::TokenStream::new();
        genie_nlp::tokenize::tokenize_into(utterance, &mut local, &mut sentence);
        if sentence.is_empty() {
            return Err(Error::EmptyUtterance);
        }
        if sentence.len() > self.inner.max_utterance_tokens {
            return Err(Error::UtteranceTooLong {
                tokens: sentence.len(),
                limit: self.inner.max_utterance_tokens,
            });
        }
        if local.has_pending() {
            match interner.try_commit(&local.take_pending()) {
                Some(remap) => remap.apply(&mut sentence),
                None => return Err(Error::Config(genie_templates::ConfigError::new(
                    "intern_arena",
                    "shared vocabulary arena is full; the request's novel words cannot be admitted",
                ))),
            }
        }
        // Clamp the per-request width: decode work grows with the beam, so
        // an untrusted request must not be able to buy unbounded work.
        let k = if request.flags.candidates == 0 {
            self.inner.candidates
        } else {
            request.flags.candidates.min(MAX_REQUEST_CANDIDATES)
        };
        let principal = request
            .flags
            .principal
            .as_deref()
            .unwrap_or(DEFAULT_PRINCIPAL);

        // The response is a deterministic function of the key, so a hit can
        // only change latency, never content. The world version is folded
        // into the key — the cache is already scoped to one world, but the
        // fold makes the key itself honest about *which* skill library the
        // answer was computed against. The entry stores the full
        // (sentence, k, principal) tuple and a hit re-verifies it, so a
        // 64-bit fingerprint collision degrades to a miss, never to serving
        // another utterance's parse.
        let key = fingerprint(&(world.version, &sentence, k, principal));
        if !request.flags.bypass_cache && self.inner.cache_capacity > 0 {
            let cache = world.cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(cached) = cache.get(&key) {
                if cached.sentence == sentence && cached.k == k && cached.principal == principal {
                    cached.hit.store(true, Ordering::Relaxed);
                    return Ok(Lookup::Hit(cached.answer_for(&request.utterance)));
                }
            }
        }
        Ok(Lookup::Miss(Resolved {
            sentence,
            k,
            principal,
            key,
        }))
    }

    /// Decode, typecheck and policy-check one model candidate against a
    /// captured world snapshot.
    fn check_candidate(
        &self,
        world: &World,
        tokens: &[String],
        principal: &str,
    ) -> thingtalk::Result<Program> {
        let program = from_tokens_checked(world.library.as_ref(), tokens)?;
        if !world.policies.is_empty() && !check_program(&world.policies, principal, &program) {
            return Err(thingtalk::Error::policy_violation(format!(
                "no installed policy allows principal `{principal}` to run this program"
            )));
        }
        Ok(program)
    }

    /// Parse a batch of requests, fanned out over the engine's configured
    /// worker threads. Output order matches input order and every response
    /// is byte-identical regardless of the thread count — per-request
    /// results are pure functions, and the shared cache affects latency
    /// only.
    pub fn parse_batch(&self, requests: &[ParseRequest]) -> Vec<GenieResult<ParseResponse>> {
        genie_parallel::par_map(self.inner.threads, requests, |_, request| {
            self.parse(request)
        })
    }

    /// Drop every cached answer of the current world, hot ones included (a
    /// swap right after this carries nothing).
    pub fn clear_cache(&self) {
        self.world()
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Number of cached answers (responses and typed no-parses) in the
    /// current world.
    pub fn cached_responses(&self) -> usize {
        self.world()
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paraphrase::ParaphraseConfig;
    use genie_templates::GeneratorConfig;
    use std::sync::OnceLock;

    fn tiny_pipeline() -> PipelineConfig {
        PipelineConfig::builder()
            .synthesis(
                GeneratorConfig::builder()
                    .target_per_rule(12)
                    .instantiations_per_template(1)
                    .seed(5)
                    .quiet(true)
                    .build()
                    .unwrap(),
            )
            .paraphrase(
                ParaphraseConfig::builder()
                    .per_sentence(1)
                    .error_rate(0.0)
                    .seed(5)
                    .build()
                    .unwrap(),
            )
            .paraphrase_sample(30)
            .parameter_expansion(false)
            .seed(5)
            .build()
            .unwrap()
    }

    /// One engine (expensive: synthesis + training) shared by every test,
    /// plus a training utterance the engine demonstrably parses.
    fn tiny_engine() -> &'static (GenieEngine, String) {
        static ENGINE: OnceLock<(GenieEngine, String)> = OnceLock::new();
        ENGINE.get_or_init(|| {
            let engine = GenieEngine::builder()
                .train(
                    tiny_pipeline(),
                    ModelConfig {
                        epochs: 8,
                        seed: 5,
                        ..ModelConfig::default()
                    },
                )
                .unwrap()
                .threads(1)
                .build()
                .unwrap();
            // Find a training utterance the tiny model round-trips; the
            // facade must answer at least one of the first twenty.
            let library = Thingpedia::builtin();
            let data = DataPipeline::new(&library, tiny_pipeline())
                .build()
                .unwrap();
            let utterance = data
                .synthesized
                .examples
                .iter()
                .take(20)
                .map(|e| e.text())
                .find(|u| {
                    engine
                        .parse(&ParseRequest::new(u.clone()).bypass_cache())
                        .is_ok()
                })
                .expect("the engine answers none of its own training utterances");
            engine.clear_cache();
            (engine, utterance)
        })
    }

    #[test]
    fn engine_answers_a_training_utterance() {
        let (engine, utterance) = tiny_engine();
        let response = engine.parse(&ParseRequest::new(utterance.clone())).unwrap();
        assert!(!response.candidates.is_empty());
        let best = response.best();
        assert!(best.source.contains("=>"), "not a program: {}", best.source);
        // Every returned candidate typechecks against the library.
        for candidate in &response.candidates {
            assert!(
                thingtalk::typecheck::typecheck(engine.library().as_ref(), &candidate.program)
                    .is_ok()
            );
        }
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let (engine, _) = tiny_engine();
        assert!(matches!(
            engine.parse(&ParseRequest::new("")),
            Err(Error::EmptyUtterance)
        ));
        assert!(matches!(
            engine.parse(&ParseRequest::new("   \t  ")),
            Err(Error::EmptyUtterance)
        ));
        let long = "tweet ".repeat(200);
        assert!(matches!(
            engine.parse(&ParseRequest::new(long)),
            Err(Error::UtteranceTooLong { .. })
        ));
    }

    #[test]
    fn oversized_candidate_requests_are_clamped_not_unbounded() {
        let (engine, utterance) = tiny_engine();
        // An adversarial width must not buy unbounded beam work: the
        // request completes promptly and matches the clamped width.
        let flooded = engine.parse(
            &ParseRequest::new(utterance.clone())
                .with_candidates(usize::MAX)
                .bypass_cache(),
        );
        let clamped = engine.parse(
            &ParseRequest::new(utterance.clone())
                .with_candidates(MAX_REQUEST_CANDIDATES)
                .bypass_cache(),
        );
        match (flooded, clamped) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("clamped and flooded requests diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn untrained_model_is_rejected_at_build_time() {
        let untrained = LuinetParser::new(ModelConfig::default());
        assert!(matches!(
            GenieEngine::builder().model(untrained).build(),
            Err(Error::ModelUntrained)
        ));
        assert!(matches!(
            GenieEngine::builder().build(),
            Err(Error::ModelUntrained)
        ));
    }

    #[test]
    fn zero_limits_are_config_errors() {
        let (engine, _) = tiny_engine();
        let model = engine.model();
        let zero_candidates = GenieEngine::builder()
            .model_shared(model.clone())
            .candidates(0)
            .build();
        assert!(matches!(zero_candidates, Err(Error::Config(_))));
        let too_many = GenieEngine::builder()
            .model_shared(model.clone())
            .candidates(MAX_REQUEST_CANDIDATES + 1)
            .build();
        assert!(matches!(too_many, Err(Error::Config(_))));
        let zero_length = GenieEngine::builder()
            .model_shared(model)
            .max_utterance_tokens(0)
            .build();
        assert!(matches!(zero_length, Err(Error::Config(_))));
    }

    #[test]
    fn cache_serves_repeats_without_changing_responses() {
        let (base, utterance) = tiny_engine();
        // A private engine so the counters are this test's alone.
        let engine = GenieEngine::builder()
            .model_shared(base.model())
            .threads(1)
            .build()
            .unwrap();
        let request = ParseRequest::new(utterance.clone());
        let first = engine.parse(&request).unwrap();
        let second = engine.parse(&request).unwrap();
        assert_eq!(first, second);
        assert!(engine.stats().cache_hits >= 1);
        assert_eq!(engine.cached_responses(), 1);
        // Bypass gives the same content.
        let bypassed = engine.parse(&request.bypass_cache()).unwrap();
        assert_eq!(first, bypassed);
        engine.clear_cache();
        assert_eq!(engine.cached_responses(), 0);
    }

    #[test]
    fn cached_answers_exactly_what_parse_answers_and_counts_once() {
        let (base, utterance) = tiny_engine();
        let engine = GenieEngine::builder()
            .model_shared(base.model())
            .threads(1)
            .build()
            .unwrap();
        let request = ParseRequest::new(utterance.clone());
        // A fresh engine holds nothing, and a miss counts nothing.
        assert!(engine.cached(&request).is_none());
        assert_eq!(engine.stats().requests, 0);
        let parsed = engine.parse(&request).unwrap();
        let hit = engine
            .cached(&request)
            .expect("a parsed request is cached")
            .unwrap();
        assert_eq!(format!("{hit:?}"), format!("{parsed:?}"));
        assert_eq!(engine.parse(&request).unwrap(), hit);
        // The entry answers every surface form of the same tokenization,
        // under the request's own utterance.
        let shouted = ParseRequest::new(utterance.to_uppercase());
        assert_eq!(
            engine.cached(&shouted).map(|r| r.unwrap().utterance),
            Some(shouted.utterance.clone())
        );
        // Other widths and principals, and cache bypasses, are not hits.
        assert!(engine.cached(&request.clone().with_candidates(1)).is_none());
        assert!(engine
            .cached(&request.clone().with_principal("guest"))
            .is_none());
        assert!(engine.cached(&request.bypass_cache()).is_none());
        assert_eq!(
            engine.stats(),
            EngineStats {
                requests: 4,
                cache_hits: 3,
                world_version: 1,
                ..engine.stats()
            }
        );
    }

    #[test]
    fn a_fingerprint_collision_is_a_miss_not_another_parse() {
        let (base, utterance) = tiny_engine();
        let engine = GenieEngine::builder()
            .model_shared(base.model())
            .threads(1)
            .build()
            .unwrap();
        let request = ParseRequest::new(utterance.clone());
        let expected = engine.parse(&request.clone().bypass_cache()).unwrap();
        engine.clear_cache();
        // Plant another request's response under this request's key, as a
        // 64-bit collision would.
        let world = engine.world();
        let Ok(Lookup::Miss(resolved)) = engine.lookup(&world, &request) else {
            panic!("a cleared cache holds nothing");
        };
        let mut planted = expected.clone();
        planted.candidates.truncate(1);
        planted.candidates[0].source = "planted".to_owned();
        world.cache.lock().unwrap().insert(
            resolved.key,
            Arc::new(CacheEntry::new(
                resolved.sentence.clone(),
                resolved.k,
                "someone else".to_owned(),
                Ok(planted),
            )),
        );
        assert!(engine.cached(&request).is_none());
        assert_eq!(engine.parse(&request).unwrap(), expected);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn stats_handle_tracks_the_engine_and_outlives_it() {
        let (base, utterance) = tiny_engine();
        let engine = GenieEngine::builder()
            .model_shared(base.model())
            .threads(1)
            .build()
            .unwrap();
        let handle = engine.stats_handle();
        assert_eq!(
            handle.snapshot(),
            EngineStats {
                world_version: 1,
                ..EngineStats::default()
            }
        );
        let request = ParseRequest::new(utterance.clone());
        engine.parse(&request).unwrap();
        engine.parse(&request).unwrap();
        let seen = handle.snapshot();
        assert_eq!(seen.requests, 2);
        assert_eq!(seen.cache_hits, 1);
        assert_eq!(seen, engine.stats());
        // The handle is just the counter cells: it stays readable after the
        // engine is gone, and the counters simply stop moving.
        drop(engine);
        assert_eq!(handle.snapshot(), seen);
    }

    /// The tiny engine's model behind policies that allow only a class
    /// the tiny utterance's program does not use, so every candidate for
    /// that utterance violates them.
    fn engine_rejecting_the_tiny_utterance() -> GenieEngine {
        use thingtalk::ast::{FunctionRef, Predicate};
        use thingtalk::policy::{action_policy, query_policy};

        let (base, utterance) = tiny_engine();
        let parsed = base.parse(&ParseRequest::new(utterance.clone())).unwrap();
        let devices = parsed.best().program.devices();
        assert!(!devices.contains(&"com.example.unused"));
        let only_unused = vec![
            query_policy(
                Predicate::True,
                FunctionRef::new("com.example.unused", "get"),
                Predicate::True,
            ),
            action_policy(
                Predicate::True,
                FunctionRef::new("com.example.unused", "act"),
                Predicate::True,
            ),
        ];
        GenieEngine::builder()
            .model_shared(base.model())
            .policies(only_unused)
            .threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn policies_reject_disallowed_programs() {
        let (_, utterance) = tiny_engine();
        let engine = engine_rejecting_the_tiny_utterance();
        match engine.parse(&ParseRequest::new(utterance.clone())) {
            Err(Error::NoParse { rejected, .. }) => {
                assert!(!rejected.is_empty());
                assert!(rejected
                    .iter()
                    .any(|(_, e)| matches!(e, thingtalk::Error::PolicyViolation { .. })));
            }
            other => panic!("expected NoParse with policy rejections, got {other:?}"),
        }
    }

    #[test]
    fn a_typed_no_parse_is_cached_and_answered_under_the_request_utterance() {
        let (_, utterance) = tiny_engine();
        let engine = engine_rejecting_the_tiny_utterance();
        let request = ParseRequest::new(utterance.clone());
        let decoded = engine.parse(&request);
        assert!(matches!(decoded, Err(Error::NoParse { .. })));
        let rejections = engine.stats().rejected_candidates;
        assert!(rejections > 0);
        // The lookup answers the same typed error, and so does `parse`,
        // without decoding again.
        let cached = engine.cached(&request).expect("a no-parse is cached");
        assert_eq!(format!("{cached:?}"), format!("{decoded:?}"));
        assert_eq!(
            format!("{:?}", engine.parse(&request)),
            format!("{decoded:?}")
        );
        // Another surface form of the same tokenization gets the error
        // under its own utterance.
        let shouted = ParseRequest::new(utterance.to_uppercase());
        match engine.cached(&shouted) {
            Some(Err(Error::NoParse { utterance, .. })) => assert_eq!(utterance, shouted.utterance),
            other => panic!("expected a cached NoParse, got {other:?}"),
        }
        assert_eq!(
            engine.stats(),
            EngineStats {
                requests: 4,
                cache_hits: 3,
                rejected_candidates: rejections,
                world_version: 1,
                ..engine.stats()
            }
        );
        // Bypassing the cache decodes again, to the same answer.
        let bypassed = engine.parse(&request.bypass_cache());
        assert_eq!(format!("{bypassed:?}"), format!("{decoded:?}"));
        assert_eq!(engine.stats().rejected_candidates, 2 * rejections);
    }

    /// A second model over the tiny pipeline, trained differently from the
    /// tiny engine's, so its scores (and often its tokens) differ.
    fn other_model() -> Arc<LuinetParser> {
        static MODEL: OnceLock<Arc<LuinetParser>> = OnceLock::new();
        MODEL
            .get_or_init(|| {
                GenieEngine::builder()
                    .train(
                        tiny_pipeline(),
                        ModelConfig {
                            epochs: 2,
                            seed: 9,
                            ..ModelConfig::default()
                        },
                    )
                    .unwrap()
                    .build()
                    .unwrap()
                    .model()
            })
            .clone()
    }

    fn render(answer: &GenieResult<ParseResponse>) -> String {
        format!("{answer:?}")
    }

    #[test]
    fn a_swap_carries_hot_entries_re_answered_against_the_incoming_world() {
        let (base, utterance) = tiny_engine();
        let engine = GenieEngine::builder()
            .model_shared(base.model())
            .threads(1)
            .build()
            .unwrap();
        let hot = ParseRequest::new(utterance.clone());
        let cold = ParseRequest::new("tweet hello world");
        let old_answer = engine.parse(&hot);
        engine.parse(&cold).ok();
        assert!(engine.cached(&hot).is_some(), "a parsed request is cached");
        assert_eq!(engine.cached_responses(), 2);
        let before = engine.stats();

        let library = engine.library();
        engine.swap_world(library.clone(), other_model(), Vec::new(), 0);
        // Only the entry a hit marked is carried, and the carry counts no
        // request, hit or rejection.
        assert_eq!(engine.cached_responses(), 1);
        assert_eq!(
            engine.stats(),
            EngineStats {
                world_version: 2,
                swaps: 1,
                cache_carried: 1,
                ..before
            }
        );
        // The carried entry is the incoming world's own answer, not the
        // outgoing one's.
        let fresh = engine.parse(&hot.clone().bypass_cache());
        assert_ne!(render(&fresh), render(&old_answer), "the models agree");
        let carried = engine.cached(&hot).expect("the hot entry was carried");
        assert_eq!(render(&carried), render(&fresh));
        assert!(engine.cached(&cold).is_none(), "an unhit entry was carried");

        // A swap right after a clear carries nothing.
        engine.clear_cache();
        engine.swap_world(library, base.model(), Vec::new(), 0);
        assert_eq!(engine.cached_responses(), 0);
        assert_eq!(engine.stats().cache_carried, 1);
    }

    #[test]
    fn a_hot_utterance_of_a_removed_skill_answers_as_the_new_world_does() {
        let (base, utterance) = tiny_engine();
        let engine = GenieEngine::builder()
            .model_shared(base.model())
            .threads(1)
            .build()
            .unwrap();
        let request = ParseRequest::new(utterance.clone());
        let old_answer = engine.parse(&request).unwrap();
        assert!(
            engine.cached(&request).is_some(),
            "a parsed request is cached"
        );
        let class = old_answer.best().program.devices()[0].to_owned();

        let mut library = (*engine.library()).clone();
        assert!(library.remove_class(&class));
        engine.swap_world(Arc::new(library), base.model(), Vec::new(), 0);
        assert_eq!(engine.stats().cache_carried, 1);
        let carried = engine.cached(&request).expect("the hot entry was carried");
        let fresh = engine.parse(&request.bypass_cache());
        assert_eq!(render(&carried), render(&fresh));
        // No answer of the retired library leaks through.
        if let Ok(response) = &carried {
            for candidate in &response.candidates {
                assert!(!candidate.program.devices().contains(&class.as_str()));
            }
        }
    }

    #[test]
    fn batch_output_is_byte_identical_across_thread_counts() {
        let (base, utterance) = tiny_engine();
        let mut utterances = vec![
            utterance.clone(),
            "tweet hello world".to_owned(),
            utterance.clone(), // repeat: exercises the cache
            String::new(),     // error path inside a batch
            "frobnicate the unfrobnicatable".to_owned(),
        ];
        utterances.push(utterance.clone());
        let requests: Vec<ParseRequest> = utterances
            .iter()
            .map(|u| ParseRequest::new(u.clone()))
            .collect();
        let render = |results: Vec<GenieResult<ParseResponse>>| -> Vec<String> {
            results
                .into_iter()
                .map(|r| match r {
                    Ok(response) => format!(
                        "ok {} | {}",
                        response.sentence.join(" "),
                        response
                            .candidates
                            .iter()
                            .map(|c| c.tokens.join(" "))
                            .collect::<Vec<_>>()
                            .join(" ; ")
                    ),
                    Err(error) => format!("err {error}"),
                })
                .collect()
        };
        let mut baseline = None;
        for threads in [1usize, 2, 8] {
            let engine = GenieEngine::builder()
                .model_shared(base.model())
                .threads(threads)
                .build()
                .unwrap();
            let rendered = render(engine.parse_batch(&requests));
            match &baseline {
                None => baseline = Some(rendered),
                Some(expected) => {
                    assert_eq!(&rendered, expected, "batch differs at {threads} threads")
                }
            }
        }
    }
}
