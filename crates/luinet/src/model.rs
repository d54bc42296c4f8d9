//! LUInet-lite: the trainable semantic parser.
//!
//! The parser decodes the program left to right. At each step it scores a
//! set of candidate next-tokens with a linear model over hashed features of
//! (input sentence, previous program tokens, position) — the same
//! conditioning signals MQAN's decoder attends over — and can *copy* words
//! from the input sentence (the pointer mechanism that makes unquoted
//! free-form parameters possible). Training uses the averaged structured
//! perceptron with teacher forcing; an optional pretrained program language
//! model ([`crate::ProgramLm`]) contributes an additional score, mirroring
//! the decoder LM of §4.2.
//!
//! # The hot path speaks symbols
//!
//! Program tokens are interned [`Symbol`]s end to end: the transition model
//! compiles into per-`prev1` candidate tables with cached candidate-half
//! feature hashes, every sentence is indexed once per example
//! ([`SentenceIndex`]), and each decode step folds its context halves once
//! ([`StepContext`]) before scoring candidates by pure integer mixing. Beam
//! hypotheses extend a shared backpointer arena instead of cloning token
//! vectors. Text is resolved only at the public API boundary.
//!
//! # Sparse served weights, memoized decoding
//!
//! Training keeps a raw weight and a running total per bucket, but writes
//! well under 1% of the 2^22 buckets, so it keeps them in a sparse scratch
//! table keyed by bucket (a missing bucket reads as zero) rather than in
//! 48 MB of dense arrays. The table exists inside [`LuinetParser::train`]
//! and [`LuinetParser::fine_tune`] only: each rebuilds it from the parser's
//! sparse `(bucket, weight, total)` entries on entry and folds it back on
//! exit. A trained parser keeps just those entries (what the weights
//! digest and snapshots fold) plus an [`AveragedWeights`] table of their
//! averaged values.
//!
//! Every bucket of a decode score but the sentence's content words depends
//! on no sentence, so binding the served weights to the compiled candidate
//! tables (`LuinetParser::rebind`, after every change to either) also
//! compiles those terms:
//!
//! * each successor's head, `(0.0 + bias) + prev1`;
//! * for each `(prev2, prev1)` context of the transition model's trigrams,
//!   a dense row of `head + prev2` per successor of `prev1`, in candidate
//!   order (other contexts add a live prev2 lookup to the head);
//! * the `(min(position, 24), token)` weight of every memo key;
//! * the copy-next weight.
//!
//! One decode call ([`LuinetParser::predict`] or
//! [`LuinetParser::predict_topk`]) runs over its thread's decode scratch,
//! taken out for the call and put back after it, cleared per call with its
//! capacity kept. It holds a membership map from memo key to the key's
//! place among the sentence's distinct words, which replaces the sentence
//! and copy-list binary searches; the candidate-only bucket values of
//! every candidate the call scores, addressed by the candidate's dense
//! key; and every scored step, keyed by `(prev2, prev1, capped position)`,
//! so the beam reuses the steps greedy decoding already scored. The beam
//! keeps its survivors by a top-`k` selection that returns exactly what
//! sort → dedup → truncate returns. Training keeps the same candidate memo
//! per example, holding the round snapshot's weights, and reads its shard
//! delta through a write filter that answers most reads of unwritten
//! buckets without a probe.
//!
//! Scores are added in the same order as the per-bucket definition. The
//! running sum starts at `+0.0`, and under round-to-nearest `x + y` is
//! `−0.0` only when both are, so the sum is never `−0.0` and adding `±0.0`
//! is the identity. Each compiled value is the same operations in the same
//! order, so compiling moves where a value comes from and never reorders an
//! addition: every token, score bit and weights digest is unchanged.
//!
//! # Deterministic parallel training
//!
//! [`LuinetParser::train`] splits each epoch's shuffled example stream into
//! a **fixed** number of shards (`ModelConfig::train_shards`, independent of
//! the worker count; per-epoch order comes from
//! [`genie_parallel::stream_seed`]). Training proceeds in short mixing
//! rounds: each round hands every shard a few examples, shards accumulate
//! weight *deltas* against the round-start snapshot in parallel over
//! [`genie_parallel::par_map`], and the deltas merge back **in shard
//! order** (summed delayed updates — the `w ← w + Σ Δ_s / S` average of
//! classic iterative parameter mixing damps each correction by `1/S` and
//! measurably lost accuracy at equal epochs; summing with a short round
//! keeps staleness bounded to `shards × TRAIN_ROUND_EXAMPLES` examples
//! and matches the sequential perceptron on the smoke workloads). The
//! trained weights are a function of (data, config) only — byte-identical
//! for any worker thread count.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use genie_nlp::intern::{FnvState, Symbol};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::ParserExample;
use crate::features::{
    bias_bucket, cand_hash, mix_bucket, position_context, prev1_bucket, prev2_context,
    AveragedWeights, BucketFilter, SentenceIndex, StepContext, COPY_NEXT_BUCKET, FEATURE_BUCKETS,
    POSITION_CAP,
};
use crate::lm::ProgramLm;
use crate::vocab::{bos_symbol, eos_symbol, Vocab};

/// Logical stream id of the per-epoch training shuffle in
/// [`genie_parallel::stream_seed`] (distinguishes it from synthesis
/// streams seeded from the same user seed).
const TRAIN_SHUFFLE_STREAM: u64 = 0x7261_696e; // "rain"

/// Logical stream id of the delta-training shuffle
/// ([`LuinetParser::fine_tune`]); XORed with the update counter at call
/// time so successive fine-tune passes draw independent shuffles while
/// staying a pure function of the call sequence.
const FINE_TUNE_SHUFFLE_STREAM: u64 = 0x7475_6e65; // "tune"

/// Below this many examples per shard, the trainer collapses to fewer
/// shards: tiny datasets gain nothing from parameter mixing and lose
/// update granularity.
const MIN_SHARD_EXAMPLES: usize = 64;

/// Examples each shard processes between two parameter-mixing merges. A
/// smaller round keeps shard snapshots fresher (better accuracy), a larger
/// one amortizes the merge; 2 per shard is empirically indistinguishable
/// from sequential training on the smoke workloads while cutting the sync
/// points in half versus per-example merging.
const TRAIN_ROUND_EXAMPLES: usize = 2;

/// Hyper-parameters of the parser.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Maximum decoded program length.
    pub max_length: usize,
    /// Weight of the pretrained program LM score (0 disables its influence
    /// even when a LM is attached).
    pub lm_weight: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Worker threads for sharded training and batch decoding (`0` = all
    /// cores, `1` = inline). Never changes the trained weights or any
    /// prediction — only wall-clock.
    pub threads: usize,
    /// Number of training shards for iterative parameter mixing (`0` = the
    /// default of 4). Part of the model identity: like a dataset batch
    /// size, changing it changes the trained weights — the thread count
    /// never does. Tiny datasets automatically collapse to fewer shards
    /// (at least `MIN_SHARD_EXAMPLES` — 64 — examples per shard).
    pub train_shards: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            epochs: 3,
            max_length: 48,
            lm_weight: 2.0,
            seed: 0,
            threads: 0,
            train_shards: 4,
        }
    }
}

impl ModelConfig {
    /// The shard count used for `examples` training examples.
    fn effective_shards(&self, examples: usize) -> usize {
        let configured = if self.train_shards == 0 {
            4
        } else {
            self.train_shards
        };
        configured.min((examples / MIN_SHARD_EXAMPLES).max(1))
    }
}

/// One scored candidate program from [`LuinetParser::predict_topk`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPrediction {
    /// The decoded program tokens (without the end-of-sequence marker).
    pub tokens: Vec<String>,
    /// Length-normalized decoder score (mean per-step score); higher is
    /// more probable. Comparable only between candidates for the same
    /// sentence.
    pub score: f64,
}

/// The compiled candidate tables: for each `prev1`, the tokens observed to
/// follow it in training, sorted by resolved text (a process-history-
/// independent order), each with its cached candidate-half feature hash,
/// plus an id-sorted membership index.
///
/// [`CompiledTransitions::bind`] gives every successor token its
/// [`CandidateMemo`] key and compiles, from the served weights, the terms of
/// the decode sum that depend on no sentence: each successor's head, a row
/// per trigram context, the position table and the copy-next value. The
/// parser rebinds whenever the tables or the served weights change
/// ([`LuinetParser::rebind`]).
#[derive(Default)]
pub(crate) struct CompiledTransitions {
    pub(crate) map: HashMap<Symbol, SuccessorEntry, FnvState>,
    /// Successor token → memo key (from 1; [`EOS_KEY`] is end-of-sequence).
    keys: HashMap<Symbol, u32, FnvState>,
    /// Each `(prev2, prev1)` context of the transition model's trigrams
    /// whose `prev1` has successors → the start of its row in `rows`.
    contexts: HashMap<(Symbol, Symbol), u32, FnvState>,
    /// Per context, one value per successor of `prev1`, in candidate order:
    /// the successor's head plus its `(prev2, prev1)` bucket.
    rows: Vec<f64>,
    /// The served `(min(position, POSITION_CAP), token)` weight of every
    /// memo key, position-major: `POSITION_CAP + 1` runs of
    /// [`CompiledTransitions::key_count`] values.
    positions: Box<[f64]>,
    /// The served weight of [`COPY_NEXT_BUCKET`].
    copy_next: f64,
}

#[derive(Default)]
pub(crate) struct SuccessorEntry {
    /// The successors in text order — the iteration order candidates are
    /// scored in (ties in the argmax go to the first seen).
    pub(crate) candidates: Box<[Successor]>,
    /// The same tokens sorted by raw id, for O(log n) membership.
    pub(crate) members: Box<[Symbol]>,
}

/// One compiled successor of a `prev1`.
pub(crate) struct Successor {
    pub(crate) token: Symbol,
    /// The token's memo key (set by [`CompiledTransitions::bind`]).
    key: u32,
    /// The candidate-half feature hash.
    pub(crate) hash: u64,
    /// `(0.0 + bias) + prev1`: the first two additions of the candidate's
    /// sum, over the served weights of its bias bucket and of its
    /// `(prev1, token)` bucket ([`prev1_bucket`]), which no sentence changes
    /// (set by [`CompiledTransitions::bind`]).
    head: f64,
}

impl Successor {
    /// A successor not yet bound to a memo key or to served weights.
    pub(crate) fn unbound(token: Symbol, hash: u64) -> Self {
        Successor {
            token,
            key: EOS_KEY,
            hash,
            head: 0.0,
        }
    }
}

impl SuccessorEntry {
    #[inline]
    fn contains(&self, token: Symbol) -> bool {
        self.members.binary_search(&token).is_ok()
    }
}

/// The memo key of the end-of-sequence token, whether or not any `prev1`
/// lists it.
const EOS_KEY: u32 = 0;

impl CompiledTransitions {
    fn compile(lm: &ProgramLm) -> Self {
        let interner: &'static genie_nlp::Interner = genie_nlp::intern::shared();
        let mut map: HashMap<Symbol, SuccessorEntry, FnvState> = HashMap::default();
        for (prev, successors) in lm.successor_entries() {
            let mut candidates: Vec<Successor> = successors
                .iter()
                .map(|&s| Successor::unbound(s, cand_hash(interner.resolve(s))))
                .collect();
            candidates.sort_unstable_by_key(|successor| interner.resolve(successor.token));
            let mut members: Vec<Symbol> = successors.to_vec();
            members.sort_unstable();
            map.insert(
                prev,
                SuccessorEntry {
                    candidates: candidates.into_boxed_slice(),
                    members: members.into_boxed_slice(),
                },
            );
        }
        CompiledTransitions::from_map(map)
    }

    /// Tables read back as they were compiled, still to be bound.
    pub(crate) fn from_map(map: HashMap<Symbol, SuccessorEntry, FnvState>) -> Self {
        CompiledTransitions {
            map,
            ..CompiledTransitions::default()
        }
    }

    /// Give every successor token its memo key and compile the
    /// sentence-free terms from `averaged`: each successor's head, a row for
    /// each `(prev2, prev1)` in `contexts` whose `prev1` has successors, the
    /// position table and the copy-next value. Each compiled value is the
    /// reference sum's operations in its order, so reading it changes no
    /// bit. Keys only address memo slots and rows, so the map order that
    /// assigns them never reaches a score.
    fn bind(
        &mut self,
        averaged: &AveragedWeights,
        eos: Symbol,
        eos_hash: u64,
        contexts: impl Iterator<Item = (Symbol, Symbol)>,
    ) {
        let interner: &'static genie_nlp::Interner = genie_nlp::intern::shared();
        // Memo key → candidate hash.
        let mut hashes = vec![eos_hash];
        self.keys.clear();
        for (&prev, entry) in &mut self.map {
            let prev_text = interner.resolve(prev);
            for successor in entry.candidates.iter_mut() {
                let hash = successor.hash;
                successor.key = if successor.token == eos {
                    EOS_KEY
                } else {
                    *self.keys.entry(successor.token).or_insert_with(|| {
                        hashes.push(hash);
                        hashes.len() as u32 - 1
                    })
                };
                successor.head = (0.0 + averaged.get(bias_bucket(hash)))
                    + averaged.get(prev1_bucket(prev_text, hash));
            }
        }
        self.positions = (0..=POSITION_CAP)
            .flat_map(|position| {
                let ctx = position_context(position);
                hashes
                    .iter()
                    .map(move |&hash| averaged.get(mix_bucket(ctx, hash)))
            })
            .collect();
        self.contexts.clear();
        self.rows.clear();
        for (prev2, prev1) in contexts {
            let Some(entry) = self.map.get(&prev1) else {
                continue;
            };
            let Entry::Vacant(slot) = self.contexts.entry((prev2, prev1)) else {
                continue;
            };
            slot.insert(self.rows.len() as u32);
            let ctx = prev2_context(interner.resolve(prev2), interner.resolve(prev1));
            self.rows.extend(
                entry.candidates.iter().map(|successor| {
                    successor.head + averaged.get(mix_bucket(ctx, successor.hash))
                }),
            );
        }
        self.copy_next = averaged.get(COPY_NEXT_BUCKET);
    }

    /// The memo key of a successor token (end-of-sequence always has one).
    fn key(&self, token: Symbol, eos: Symbol) -> Option<u32> {
        if token == eos {
            return Some(EOS_KEY);
        }
        self.keys.get(&token).copied()
    }

    /// How many memo keys successor tokens use; copy candidates take the
    /// keys after them.
    #[inline]
    fn key_count(&self) -> u32 {
        self.keys.len() as u32 + 1
    }

    #[inline]
    fn get(&self, prev: Symbol) -> Option<&SuccessorEntry> {
        self.map.get(&prev)
    }

    /// The compiled row of the `(prev2, prev1)` context, `successors` long,
    /// when the transition model saw the context.
    #[inline]
    fn context_row(&self, prev2: Symbol, prev1: Symbol, successors: usize) -> Option<&[f64]> {
        let start = *self.contexts.get(&(prev2, prev1))? as usize;
        Some(&self.rows[start..start + successors])
    }

    /// The position values of every memo key at the capped position
    /// `capped`.
    #[inline]
    fn position_row(&self, capped: usize) -> &[f64] {
        let keys = self.key_count() as usize;
        &self.positions[capped * keys..(capped + 1) * keys]
    }
}

/// A candidate next-token as scoring sees it.
#[derive(Clone, Copy)]
struct Candidate {
    token: Symbol,
    /// Its [`CandidateMemo`] key.
    key: u32,
    /// The candidate-half feature hash.
    hash: u64,
}

/// One nonzero averaged-perceptron parameter: `(bucket, raw weight,
/// running total)`.
pub(crate) type WeightEntry = (u32, f32, f64);

/// Training scratch: the raw weight and running total of every bucket a
/// training pass has written, rebuilt from the sparse entries when the pass
/// starts and folded back into them when it ends. A bucket missing from the
/// table reads as zero, exactly like a bucket training never touched.
///
/// Most reads are of buckets the table lacks, so an exact [`BucketFilter`]
/// (one bit per bucket, 512 KB) holds every key of the table and answers
/// those reads without a map probe.
struct TrainParams {
    /// Exact: bit `bucket` is set iff `params` has the key `bucket`.
    present: BucketFilter,
    /// bucket → (raw weight, running total).
    params: HashMap<u32, (f32, f64), FnvState>,
}

impl TrainParams {
    fn from_entries(entries: &[WeightEntry]) -> Self {
        let mut present = BucketFilter::new(FEATURE_BUCKETS);
        for &(bucket, _, _) in entries {
            present.insert(bucket as usize);
        }
        TrainParams {
            present,
            params: entries
                .iter()
                .map(|&(bucket, weight, total)| (bucket, (weight, total)))
                .collect(),
        }
    }

    /// The raw weight of a bucket.
    #[inline]
    fn weight(&self, bucket: usize) -> f32 {
        if !self.present.may_contain(bucket) {
            return 0.0;
        }
        self.params
            .get(&(bucket as u32))
            .map_or(0.0, |&(weight, _)| weight)
    }

    /// Merge one shard delta into a bucket.
    #[inline]
    fn add(&mut self, bucket: u32, weight_delta: f64, total_delta: f64) {
        self.present.insert(bucket as usize);
        let (weight, total) = self.params.entry(bucket).or_default();
        *weight = (*weight as f64 + weight_delta) as f32;
        *total += total_delta;
    }

    /// The nonzero buckets in ascending bucket order.
    fn into_entries(self) -> Vec<WeightEntry> {
        let mut entries: Vec<WeightEntry> = self
            .params
            .into_iter()
            .filter(|&(_, (weight, total))| weight != 0.0 || total != 0.0)
            .map(|(bucket, (weight, total))| (bucket, weight, total))
            .collect();
        entries.sort_unstable_by_key(|&(bucket, _, _)| bucket);
        entries
    }
}

/// A training example prepared once per [`LuinetParser::train`] call and
/// reused by every epoch: the sentence index and the gold program with
/// end-of-sequence appended, candidate-half hashes and memo keys cached.
struct PreparedExample {
    index: SentenceIndex,
    gold: Vec<Candidate>,
}

/// Bits in a [`ShardDelta`]'s write filter (a power of two).
const DELTA_FILTER_BITS: usize = 1 << 16;

/// Shard-local training result: sparse weight/total deltas against the
/// round-start snapshot, plus the number of decode steps taken.
///
/// A shard writes a few hundred buckets per round but reads millions, so a
/// small [`BucketFilter`] records which ones may have been written: a read
/// whose bit is clear is `0.0` without a map probe.
struct ShardDelta {
    /// bucket → (weight delta, averaged-total delta).
    deltas: HashMap<u32, (f64, f64), FnvState>,
    /// Holds every written bucket.
    written: BucketFilter,
    steps: u64,
}

impl ShardDelta {
    fn new() -> Self {
        ShardDelta {
            deltas: HashMap::default(),
            written: BucketFilter::new(DELTA_FILTER_BITS),
            steps: 0,
        }
    }

    /// The weight delta of a bucket (`0.0` when the shard never wrote it).
    #[inline]
    fn weight(&self, bucket: usize) -> f64 {
        if !self.written.may_contain(bucket) {
            return 0.0;
        }
        self.deltas
            .get(&(bucket as u32))
            .map_or(0.0, |&(weight, _)| weight)
    }

    /// Add to a bucket's weight and averaged-total deltas.
    #[inline]
    fn add(&mut self, bucket: usize, weight: f64, total: f64) {
        self.written.insert(bucket);
        let slot = self.deltas.entry(bucket as u32).or_default();
        slot.0 += weight;
        slot.1 += total;
    }
}

/// An in-flight beam hypothesis: a tail pointer into the shared
/// [`BeamArena`] instead of an owned token vector, so extending a
/// hypothesis is O(1) and prefixes are stored once.
#[derive(Clone, Copy)]
struct Hypothesis {
    /// Arena handle of the last token (0 = empty sequence).
    tail: u32,
    len: u32,
    prev1: Symbol,
    prev2: Symbol,
    score: f64,
    steps: u32,
    finished: bool,
}

impl Hypothesis {
    /// Mean per-step score — comparable between hypotheses of different
    /// lengths, unlike the raw cumulative score.
    fn normalized(&self) -> f64 {
        self.score / (self.steps.max(1)) as f64
    }
}

/// Shared-prefix storage for beam hypotheses: each node is `(parent handle,
/// token)`; handle 0 is the empty sequence. Prefix comparison short-circuits
/// on shared nodes, so the deterministic tie-break costs O(divergence), not
/// O(length).
#[derive(Default)]
struct BeamArena {
    nodes: Vec<(u32, Symbol)>,
}

impl BeamArena {
    #[inline]
    fn push(&mut self, parent: u32, token: Symbol) -> u32 {
        self.nodes.push((parent, token));
        self.nodes.len() as u32
    }

    /// The sequence ending at `tail`, front to back.
    fn materialize(&self, mut tail: u32, len: usize) -> Vec<Symbol> {
        let mut out = vec![Symbol::from_raw(0); len];
        for slot in out.iter_mut().rev() {
            let (parent, token) = self.nodes[(tail - 1) as usize];
            *slot = token;
            tail = parent;
        }
        out
    }

    fn ancestor(&self, mut tail: u32, mut back: u32) -> u32 {
        while back > 0 {
            tail = self.nodes[(tail - 1) as usize].0;
            back -= 1;
        }
        tail
    }

    /// Compare two equal-length chains element-wise (front to back) by
    /// resolved text.
    fn cmp_equal_len(
        &self,
        interner: &genie_nlp::Interner,
        a: u32,
        b: u32,
        n: u32,
    ) -> std::cmp::Ordering {
        if n == 0 || a == b {
            return std::cmp::Ordering::Equal;
        }
        let (a_parent, a_token) = self.nodes[(a - 1) as usize];
        let (b_parent, b_token) = self.nodes[(b - 1) as usize];
        self.cmp_equal_len(interner, a_parent, b_parent, n - 1)
            .then_with(|| {
                if a_token == b_token {
                    std::cmp::Ordering::Equal
                } else {
                    interner.resolve(a_token).cmp(interner.resolve(b_token))
                }
            })
    }

    /// Lexicographic comparison of two token sequences by resolved text
    /// (the deterministic beam tie-break).
    fn cmp_seq(
        &self,
        interner: &genie_nlp::Interner,
        a: &Hypothesis,
        b: &Hypothesis,
    ) -> std::cmp::Ordering {
        let common = a.len.min(b.len);
        let a_anchor = self.ancestor(a.tail, a.len - common);
        let b_anchor = self.ancestor(b.tail, b.len - common);
        self.cmp_equal_len(interner, a_anchor, b_anchor, common)
            .then_with(|| a.len.cmp(&b.len))
    }

    fn seq_eq(&self, interner: &genie_nlp::Interner, a: &Hypothesis, b: &Hypothesis) -> bool {
        a.len == b.len && self.cmp_seq(interner, a, b) == std::cmp::Ordering::Equal
    }
}

/// A decode call's view of its sentence and of the thread's scratch.
struct DecodeMemo<'s> {
    index: &'s SentenceIndex,
    scratch: &'s mut DecodeScratch,
}

/// Everything a decode call writes before its output (see the module
/// notes): the candidate-only bucket values of each candidate, each scored
/// step's full candidate list, the sentence's membership map and the beam's
/// nodes. One lives per thread ([`with_decode_scratch`]); each call clears
/// it and keeps its capacity.
#[derive(Default)]
struct DecodeScratch {
    candidates: CandidateMemo<f64>,
    /// `(prev2, prev1, capped position)` → range of `scores`.
    steps: HashMap<(Symbol, Symbol, u32), (u32, u32), FnvState>,
    /// `(candidate, score)` in the deterministic candidate order.
    scores: Vec<(Symbol, f64)>,
    membership: Membership,
    arena: BeamArena,
}

thread_local! {
    static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::default();
}

/// Run `decode` over this thread's decode scratch. The scratch is taken
/// out for the call and put back after it, so a panic in between only
/// loses it, and a nested call starts from an empty one.
fn with_decode_scratch<R>(decode: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    let mut scratch = DECODE_SCRATCH.take();
    let out = decode(&mut scratch);
    DECODE_SCRATCH.set(scratch);
    out
}

/// Which memo keys name a word of the decoded sentence: for each successor
/// key, `1 + ` the word's index among the sentence's distinct words
/// (saturating at `u16::MAX`), or 0. One fill per decode replaces a binary
/// search of the sentence per scored candidate; a fill resets only the keys
/// the previous one set.
#[derive(Default)]
struct Membership {
    slots: Vec<u16>,
    /// The keys set since the last fill.
    touched: Vec<u32>,
}

impl Membership {
    fn fill(&mut self, compiled: &CompiledTransitions, index: &SentenceIndex, eos: Symbol) {
        for &key in &self.touched {
            self.slots[key as usize] = 0;
        }
        self.touched.clear();
        let keys = compiled.key_count() as usize;
        if keys > self.slots.len() {
            self.slots.reserve_exact(keys - self.slots.len());
            self.slots.resize(keys, 0);
        }
        for (i, &(word, _)) in index.distinct_words().iter().enumerate() {
            if let Some(key) = compiled.key(word, eos) {
                self.slots[key as usize] = u16::try_from(i + 1).unwrap_or(u16::MAX);
                self.touched.push(key);
            }
        }
    }

    /// `1 + ` the distinct-word index of `key`'s token, or 0 when the
    /// sentence lacks it.
    #[inline]
    fn get(&self, key: u32) -> u16 {
        self.slots[key as usize]
    }
}

/// One slot per candidate-only bucket ([`SentenceIndex::candidate_buckets`])
/// of every candidate scored against one sentence and one set of weights:
/// the averaged weight when decoding, `(bucket, snapshot weight)` when
/// training. A memo is valid only while both stay fixed, so a decode clears
/// it per call and a training shard per example.
///
/// Candidates are addressed by their dense key, not by symbol id: a
/// successor token's key comes from [`CompiledTransitions::bind`], and the
/// sentence's `i`-th distinct word is a copy candidate under key
/// `key_count + i`. Keys are bounded by the successor vocabulary plus the
/// sentence length, so words interned after training (or worker-local
/// symbols) never size an allocation. A clear resets only the keys it
/// filled and keeps every buffer's capacity.
struct CandidateMemo<T> {
    /// Key → offset of its slots in `slots` ([`UNFILLED`] when unfilled).
    offsets: Vec<u32>,
    /// The keys filled since the last clear.
    touched: Vec<u32>,
    slots: Vec<T>,
}

/// The offset of a memo key no candidate has filled.
const UNFILLED: u32 = u32::MAX;

impl<T> Default for CandidateMemo<T> {
    fn default() -> Self {
        CandidateMemo {
            offsets: Vec::new(),
            touched: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<T> CandidateMemo<T> {
    /// The slots of `candidate`, filled by `slot` over its candidate-only
    /// buckets on first use.
    #[inline]
    fn slots(
        &mut self,
        index: &SentenceIndex,
        candidate: &Candidate,
        slot: impl Fn(usize) -> T,
    ) -> &[T] {
        let key = candidate.key as usize;
        if key >= self.offsets.len() {
            self.offsets.resize(key + 1, UNFILLED);
        }
        let mut start = self.offsets[key];
        if start == UNFILLED {
            start = self.slots.len() as u32;
            let slots = &mut self.slots;
            index.candidate_buckets(candidate.hash, |bucket| slots.push(slot(bucket)));
            self.offsets[key] = start;
            self.touched.push(key as u32);
        }
        let start = start as usize;
        &self.slots[start..start + index.candidate_bucket_count()]
    }

    /// Make keys below `keys` addressable without growing past them.
    fn reserve_keys(&mut self, keys: usize) {
        if keys > self.offsets.len() {
            self.offsets.reserve_exact(keys - self.offsets.len());
            self.offsets.resize(keys, UNFILLED);
        }
    }

    fn clear(&mut self) {
        for &key in &self.touched {
            self.offsets[key as usize] = UNFILLED;
        }
        self.touched.clear();
        self.slots.clear();
    }
}

/// The trainable parser.
///
/// Fields are `pub(crate)` for [`crate::snapshot`], which serializes and
/// reconstructs the whole trained state without re-deriving it.
pub struct LuinetParser {
    pub(crate) config: ModelConfig,
    pub(crate) vocab: Vocab,
    /// The nonzero parameters in ascending bucket order: exactly what
    /// [`LuinetParser::weights_digest`] folds and snapshots store.
    pub(crate) entries: Vec<WeightEntry>,
    /// `entries` averaged for decoding (see [`LuinetParser::install`]).
    pub(crate) averaged: AveragedWeights,
    pub(crate) updates: u64,
    pub(crate) transitions: ProgramLm,
    pub(crate) compiled: CompiledTransitions,
    pub(crate) pretrained_lm: Option<ProgramLm>,
    pub(crate) trained_examples: usize,
    pub(crate) bos: Symbol,
    pub(crate) eos: Symbol,
    pub(crate) eos_hash: u64,
}

impl LuinetParser {
    /// Create an untrained parser.
    pub fn new(config: ModelConfig) -> Self {
        LuinetParser {
            config,
            vocab: Vocab::new(),
            entries: Vec::new(),
            averaged: AveragedWeights::default(),
            updates: 0,
            transitions: ProgramLm::new(),
            compiled: CompiledTransitions::default(),
            pretrained_lm: None,
            trained_examples: 0,
            bos: bos_symbol(),
            eos: eos_symbol(),
            eos_hash: cand_hash(crate::vocab::EOS),
        }
    }

    /// Attach a pretrained program language model (§4.2). Call before
    /// [`LuinetParser::train`].
    pub fn with_pretrained_lm(mut self, lm: ProgramLm) -> Self {
        self.pretrained_lm = Some(lm);
        self
    }

    /// Number of training examples seen.
    pub fn trained_examples(&self) -> usize {
        self.trained_examples
    }

    /// The program-token vocabulary learned from training data.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// A fingerprint of the trained parameters (non-zero weight buckets,
    /// averaged totals and the update counter). Byte-identical weights ⇔
    /// equal digests; the determinism tests and the training bench compare
    /// this across thread counts and runs.
    pub fn weights_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut state = 0xcbf2_9ce4_8422_2325u64 ^ self.updates.wrapping_mul(PRIME);
        let mut fold = |value: u64| {
            state ^= value;
            state = state.wrapping_mul(PRIME);
        };
        for &(bucket, weight, total) in &self.entries {
            fold(u64::from(bucket));
            fold(u64::from(weight.to_bits()));
            fold(total.to_bits());
        }
        state
    }

    /// Take `entries` (nonzero, ascending buckets) as the trained
    /// parameters and build their averaged table. Each value is the
    /// bucket's averaged weight, `weight - total / updates` (the raw weight
    /// while no update is counted), computed in `f64` exactly as scoring
    /// sums it.
    pub(crate) fn install(&mut self, entries: Vec<WeightEntry>) {
        let updates = self.updates as f64;
        let averaged = entries.iter().map(|&(bucket, weight, total)| {
            let value = if self.updates > 0 {
                weight as f64 - total / updates
            } else {
                weight as f64
            };
            (bucket, value)
        });
        self.averaged = AveragedWeights::build(averaged);
        self.entries = entries;
        self.rebind();
    }

    /// Bind the compiled successor tables to the served weights. Every
    /// change to `compiled` or `averaged` ends here: [`LuinetParser::install`]
    /// (train, fine-tune and snapshot load) and `absorb_programs`.
    fn rebind(&mut self) {
        let contexts = self
            .transitions
            .trigram
            .keys()
            .map(|&(prev2, prev1, _)| (prev2, prev1));
        self.compiled
            .bind(&self.averaged, self.eos, self.eos_hash, contexts);
    }

    /// Train on the given examples (teacher forcing, averaged perceptron,
    /// deterministically parallel — see the crate-level notes).
    pub fn train(&mut self, examples: &[ParserExample]) {
        self.absorb_programs(examples);
        if examples.is_empty() {
            return;
        }
        self.run_epochs(examples, self.config.epochs, TRAIN_SHUFFLE_STREAM);
    }

    /// Delta-train for a live skill update: continue from the current
    /// (already-trained) weights, running `epochs` additional passes over
    /// the changed examples (callers should mix in a rehearsal sample of
    /// the unchanged dataset — a pure-delta pass lets the perceptron
    /// forget untouched skills).
    ///
    /// This is the *approximate* fast path of the live subsystem: it
    /// converges the perceptron toward the updated skill in a fraction of a
    /// full retrain, but the resulting weights are a function of the whole
    /// call sequence, not of the final dataset — swaps that must be
    /// byte-identical to a freshly built engine retrain from scratch
    /// instead. Deterministic for a fixed call sequence: the shuffle stream
    /// is keyed by the update counter at entry, and the worker count never
    /// changes the weights.
    ///
    /// Averaging restarts at the fine-tune boundary: the base model's
    /// *averaged* weights are materialized as the new raw weights and the
    /// running totals reset. Without this, the standard averaged-perceptron
    /// bookkeeping discounts every update by how late it arrives, so a
    /// short delta pass after a long base run would contribute almost
    /// nothing to the served (averaged) weights.
    pub fn fine_tune(&mut self, examples: &[ParserExample], epochs: usize) {
        self.absorb_programs(examples);
        if examples.is_empty() || epochs == 0 {
            return;
        }
        // Key the shuffle stream by the update counter *at entry* (a pure
        // function of the call sequence), before averaging resets it.
        let stream = FINE_TUNE_SHUFFLE_STREAM ^ self.updates;
        if self.updates > 0 {
            let updates = self.updates as f64;
            for (_, weight, total) in &mut self.entries {
                *weight = (f64::from(*weight) - *total / updates) as f32;
                *total = 0.0;
            }
            self.updates = 0;
        }
        self.run_epochs(examples, epochs, stream);
    }

    /// `epochs` shuffled passes over `examples` (the shuffle of epoch `e`
    /// seeded by `(config.seed, stream, e)`) on a scratch table rebuilt
    /// from the sparse entries, then installed back as sparse entries.
    fn run_epochs(&mut self, examples: &[ParserExample], epochs: usize, stream: u64) {
        let prepared = self.prepare_examples(examples);
        let shards = self.config.effective_shards(examples.len());
        let mut params = TrainParams::from_entries(&self.entries);
        let mut order: Vec<u32> = (0..examples.len() as u32).collect();
        for epoch in 0..epochs {
            let mut rng = StdRng::seed_from_u64(genie_parallel::stream_seed(
                self.config.seed,
                stream,
                epoch as u64,
            ));
            order.shuffle(&mut rng);
            self.run_rounds(&mut params, &prepared, &order, shards);
        }
        self.install(params.into_entries());
    }

    /// Absorb the training programs into the transition model and the
    /// program vocabulary. The transition model proposes candidate
    /// next-tokens at decode time and accumulates across calls; this is
    /// also where program tokens intern into the shared arena.
    fn absorb_programs(&mut self, examples: &[ParserExample]) {
        self.transitions.train(examples.iter().map(|e| &e.program));
        for example in examples {
            self.vocab.add_all(&example.program);
        }
        self.trained_examples += examples.len();
        self.compiled = CompiledTransitions::compile(&self.transitions);
        self.rebind();
    }

    /// Per-example state, prepared once per train call (not per epoch):
    /// the sentence index and the gold chain with cached hashes and keys.
    fn prepare_examples(&self, examples: &[ParserExample]) -> Vec<PreparedExample> {
        let interner: &'static genie_nlp::Interner = genie_nlp::intern::shared();
        genie_parallel::par_map(self.config.threads, examples, |_, example| {
            let index = SentenceIndex::build(&example.sentence);
            // Absorbing the programs made every gold token a successor, so
            // each has a key; a token without one would take a key past the
            // copy keys, unique to its position.
            let unkeyed = self.copy_key(index.distinct_words().len());
            let gold = example
                .program
                .iter()
                .map(|token| (interner.intern(token), cand_hash(token)))
                .chain(std::iter::once((self.eos, self.eos_hash)))
                .enumerate()
                .map(|(position, (token, hash))| Candidate {
                    token,
                    key: self
                        .compiled
                        .key(token, self.eos)
                        .unwrap_or(unkeyed + position as u32),
                    hash,
                })
                .collect();
            PreparedExample { index, gold }
        })
    }

    /// The memo key of a sentence's `i`-th distinct word as a copy
    /// candidate.
    #[inline]
    fn copy_key(&self, i: usize) -> u32 {
        self.compiled.key_count() + i as u32
    }

    /// The end-of-sequence candidate.
    fn eos_candidate(&self) -> Candidate {
        Candidate {
            token: self.eos,
            key: EOS_KEY,
            hash: self.eos_hash,
        }
    }

    /// A decode memo for `index` over `scratch`, cleared with its capacity
    /// kept.
    fn decode_memo<'s>(
        &self,
        index: &'s SentenceIndex,
        scratch: &'s mut DecodeScratch,
    ) -> DecodeMemo<'s> {
        scratch.candidates.clear();
        scratch
            .candidates
            .reserve_keys(self.copy_key(index.distinct_words().len()) as usize);
        scratch.steps.clear();
        scratch.scores.clear();
        scratch.membership.fill(&self.compiled, index, self.eos);
        scratch.arena.nodes.clear();
        DecodeMemo { index, scratch }
    }

    /// One epoch of mixing rounds over a shuffled order: each round hands
    /// `shards` contiguous slices of the stream to the workers and merges
    /// their deltas before the next round starts, bounding how stale a
    /// shard's snapshot can get (the per-round cadence is what keeps mixed
    /// training competitive with the sequential perceptron).
    fn run_rounds(
        &mut self,
        params: &mut TrainParams,
        prepared: &[PreparedExample],
        order: &[u32],
        shards: usize,
    ) {
        let round_len = shards * TRAIN_ROUND_EXAMPLES;
        for round in order.chunks(round_len) {
            let chunks: Vec<&[u32]> = round.chunks(round.len().div_ceil(shards)).collect();
            let snapshot: &TrainParams = params;
            let deltas = genie_parallel::par_map(self.config.threads, &chunks, |_, chunk| {
                self.train_shard(snapshot, chunk, prepared)
            });
            // Merge in shard order: the result is a function of the shard
            // partition alone, so the worker count can never change the
            // trained weights.
            let mut step_sum = 0u64;
            for delta in &deltas {
                for (&bucket, &(dw, dt)) in &delta.deltas {
                    params.add(bucket, dw, dt);
                }
                step_sum += delta.steps;
            }
            self.updates += step_sum;
        }
    }

    /// Train one shard of one mixing round: accumulate sparse weight deltas
    /// against the round-start snapshot (`params`, re-merged after every
    /// round), scoring each candidate as snapshot + local delta so the
    /// shard behaves exactly like a sequential perceptron over its chunk.
    ///
    /// The snapshot stays fixed for the whole call, so each example keeps a
    /// [`CandidateMemo`] of its candidates' sentence-only buckets with their
    /// snapshot weights; only the delta is read live.
    fn train_shard(
        &self,
        params: &TrainParams,
        chunk: &[u32],
        prepared: &[PreparedExample],
    ) -> ShardDelta {
        let mut delta = ShardDelta::new();
        let mut memo = CandidateMemo::default();
        let mut buckets: Vec<usize> = Vec::with_capacity(24);
        for &index in chunk {
            let example = &prepared[index as usize];
            memo.clear();
            let mut prev1 = self.bos;
            let mut prev2 = self.bos;
            for (position, &gold) in example.gold.iter().enumerate() {
                let step = StepContext::new(&example.index, prev1, prev2, position);
                let predicted = self.best_candidate(params, &mut memo, &step, gold, &delta);
                delta.steps += 1;
                let stamp = (self.updates + delta.steps) as f64;
                if predicted.token != gold.token {
                    step.collect_buckets(gold.token, gold.hash, &mut buckets);
                    for &bucket in &buckets {
                        delta.add(bucket, 1.0, stamp);
                    }
                    step.collect_buckets(predicted.token, predicted.hash, &mut buckets);
                    for &bucket in &buckets {
                        delta.add(bucket, -1.0, -stamp);
                    }
                }
                // Teacher forcing: condition the next step on the gold token.
                prev2 = prev1;
                prev1 = gold.token;
            }
        }
        delta
    }

    /// Visit the candidate next-tokens in the deterministic scoring order:
    /// the compiled successors of `prev1` (text order), then the sentence's distinct words not already
    /// among them (first-occurrence order, the copy actions), then the
    /// end-of-sequence token, then — in training — the gold token when no
    /// other source proposed it.
    #[inline]
    fn for_each_candidate(
        &self,
        index: &SentenceIndex,
        prev1: Symbol,
        gold: Option<Candidate>,
        mut f: impl FnMut(Candidate),
    ) {
        let successors = self.compiled.get(prev1);
        if let Some(entry) = successors {
            for successor in entry.candidates.iter() {
                f(Candidate {
                    token: successor.token,
                    key: successor.key,
                    hash: successor.hash,
                });
            }
        }
        let in_successors = |token: Symbol| successors.is_some_and(|entry| entry.contains(token));
        for (i, &(word, hash)) in index.distinct_words().iter().enumerate() {
            if !in_successors(word) {
                f(Candidate {
                    token: word,
                    key: self.copy_key(i),
                    hash,
                });
            }
        }
        if !in_successors(self.eos) && !index.contains(self.eos) {
            f(self.eos_candidate());
        }
        if let Some(gold) = gold {
            let token = gold.token;
            if !in_successors(token) && !index.contains(token) && token != self.eos {
                f(gold);
            }
        }
    }

    /// Raw (non-averaged) score of one candidate during training: the sum
    /// over its buckets of round-start snapshot weight plus shard-local
    /// delta, plus the pretrained-LM contribution. The candidate-only
    /// buckets and their snapshot weights come from `memo` (which must
    /// belong to this step's sentence and to `params`); the delta is read
    /// live, since the shard writes it between steps. The compiled decode
    /// tables hold served weights, so training looks every step bucket up.
    #[inline]
    fn score_train(
        &self,
        params: &TrainParams,
        memo: &mut CandidateMemo<(u32, f64)>,
        step: &StepContext<'_>,
        candidate: &Candidate,
        delta: &ShardDelta,
    ) -> f64 {
        let cached = memo.slots(step.index(), candidate, |bucket| {
            (bucket as u32, params.weight(bucket) as f64)
        });
        step.score_cached(
            candidate.token,
            candidate.hash,
            cached,
            |&(bucket, weight)| weight + delta.weight(bucket as usize),
            |bucket| params.weight(bucket) as f64 + delta.weight(bucket),
        ) + self.lm_score(step, candidate.token)
    }

    /// The scored candidates of the step after `(prev2, prev1)` at
    /// `position`, as a range of the scratch's scores: looked up when an
    /// earlier step of this call had the same key, scored and recorded
    /// otherwise.
    ///
    /// This is the compiled decode scorer. It visits the candidates in
    /// [`LuinetParser::for_each_candidate`] order and sums each
    /// candidate's buckets in [`StepContext::for_each_bucket`] order, but
    /// reads every sentence-free term it can from the bound tables: a
    /// successor's head (bias + prev1) and, when the transition model saw
    /// the `(prev2, prev1)` context, its row value (head + prev2), then its
    /// position value. Sentence membership comes from the call's
    /// [`Membership`] map, and the copy list skips the sentence words that
    /// are successors of `prev1` by a bitmask filled while the successors
    /// are scored.
    fn scored_step(
        &self,
        memo: &mut DecodeMemo<'_>,
        prev1: Symbol,
        prev2: Symbol,
        position: usize,
    ) -> Range<usize> {
        let capped = position.min(POSITION_CAP);
        let key = (prev2, prev1, capped as u32);
        let scratch = &mut *memo.scratch;
        if let Some(&(start, end)) = scratch.steps.get(&key) {
            return start as usize..end as usize;
        }
        let index = memo.index;
        let step = StepContext::new(index, prev1, prev2, position);
        // The two step buckets `sentence_terms` asks for: this step's copy
        // bucket and the copy-next bucket. Should they collide, both read
        // the same served weight.
        let copy = self.averaged.get(step.copy_bucket());
        let copy_next = self.compiled.copy_next;
        let step_value = |bucket: usize| {
            if bucket == COPY_NEXT_BUCKET {
                copy_next
            } else {
                copy
            }
        };
        let start = scratch.scores.len();
        let entry = self.compiled.get(prev1);
        // Bit `i`: the sentence's `i`-th distinct word is a successor.
        let mut listed = 0u64;
        let mut eos_listed = false;
        if let Some(entry) = entry {
            let row = self
                .compiled
                .context_row(prev2, prev1, entry.candidates.len());
            let positions = self.compiled.position_row(capped);
            for (i, successor) in entry.candidates.iter().enumerate() {
                let mut score = match row {
                    Some(row) => row[i],
                    None => successor.head + self.averaged.get(step.prev2_bucket(successor.hash)),
                };
                score += positions[successor.key as usize];
                let member = scratch.membership.get(successor.key);
                let candidate = Candidate {
                    token: successor.token,
                    key: successor.key,
                    hash: successor.hash,
                };
                let cached = scratch
                    .candidates
                    .slots(index, &candidate, |bucket| self.averaged.get(bucket));
                let score = step.sentence_terms(
                    score,
                    member != 0,
                    successor.token,
                    cached,
                    |&value| value,
                    step_value,
                ) + self.lm_score(&step, successor.token);
                scratch.scores.push((successor.token, score));
                if (1..=64).contains(&member) {
                    listed |= 1 << (member - 1);
                }
                eos_listed |= successor.key == EOS_KEY;
            }
        }
        for (i, &(word, hash)) in index.distinct_words().iter().enumerate() {
            let is_successor = if i < 64 {
                (listed >> i) & 1 != 0
            } else {
                entry.is_some_and(|entry| entry.contains(word))
            };
            if !is_successor {
                let candidate = Candidate {
                    token: word,
                    key: self.copy_key(i),
                    hash,
                };
                let score = self.score_unlisted(
                    &mut scratch.candidates,
                    &step,
                    &candidate,
                    true,
                    step_value,
                );
                scratch.scores.push((word, score));
            }
        }
        if !eos_listed && scratch.membership.get(EOS_KEY) == 0 {
            let candidate = self.eos_candidate();
            let score = self.score_unlisted(
                &mut scratch.candidates,
                &step,
                &candidate,
                false,
                step_value,
            );
            scratch.scores.push((self.eos, score));
        }
        let end = scratch.scores.len();
        scratch.steps.insert(key, (start as u32, end as u32));
        start..end
    }

    /// The decode score of a candidate that is not a successor of the
    /// step's `prev1` (a copy, or end-of-sequence), with its step buckets
    /// looked up live. `in_sentence` says whether the sentence holds the
    /// candidate, and `step_value` values the copy and copy-next buckets.
    #[inline]
    fn score_unlisted(
        &self,
        candidates: &mut CandidateMemo<f64>,
        step: &StepContext<'_>,
        candidate: &Candidate,
        in_sentence: bool,
        step_value: impl Fn(usize) -> f64,
    ) -> f64 {
        let cached = candidates.slots(step.index(), candidate, |bucket| self.averaged.get(bucket));
        let score = step.fixed_terms(cached[0], candidate.hash, |bucket| {
            self.averaged.get(bucket)
        });
        step.sentence_terms(
            score,
            in_sentence,
            candidate.token,
            cached,
            |&value| value,
            step_value,
        ) + self.lm_score(step, candidate.token)
    }

    #[inline]
    fn lm_score(&self, step: &StepContext<'_>, candidate: Symbol) -> f64 {
        match &self.pretrained_lm {
            Some(lm) if self.config.lm_weight != 0.0 => {
                self.config.lm_weight as f64
                    * lm.log_prob_sym(step.prev2(), step.prev1(), candidate)
            }
            _ => 0.0,
        }
    }

    /// The argmax candidate under the raw training score (first seen wins
    /// ties, which the deterministic candidate order makes reproducible).
    fn best_candidate(
        &self,
        params: &TrainParams,
        memo: &mut CandidateMemo<(u32, f64)>,
        step: &StepContext<'_>,
        gold: Candidate,
        delta: &ShardDelta,
    ) -> Candidate {
        let mut best = self.eos_candidate();
        let mut best_score = f64::NEG_INFINITY;
        self.for_each_candidate(step.index(), step.prev1(), Some(gold), |candidate| {
            let score = self.score_train(params, memo, step, &candidate, delta);
            if score > best_score {
                best_score = score;
                best = candidate;
            }
        });
        best
    }

    /// Greedy averaged-weight decode; returns the tokens and the
    /// length-normalized sequence score (the mean per-step score including
    /// the final end-of-sequence step).
    fn decode_greedy(&self, memo: &mut DecodeMemo<'_>) -> (Vec<Symbol>, f64) {
        let mut out: Vec<Symbol> = Vec::new();
        let mut prev1 = self.bos;
        let mut prev2 = self.bos;
        let mut total = 0.0;
        let mut steps = 0usize;
        let mut ended = false;
        for position in 0..self.config.max_length {
            let mut best = self.eos;
            let mut best_score = f64::NEG_INFINITY;
            let scored = self.scored_step(memo, prev1, prev2, position);
            for &(candidate, score) in &memo.scratch.scores[scored] {
                if score > best_score {
                    best_score = score;
                    best = candidate;
                }
            }
            total += best_score;
            steps += 1;
            if best == self.eos {
                ended = true;
                break;
            }
            out.push(best);
            prev2 = prev1;
            prev1 = best;
        }
        if !ended {
            // Score the closing end-of-sequence step the decode never took,
            // so normalized scores stay comparable with finished sequences.
            let step = StepContext::new(memo.index, prev1, prev2, out.len());
            let in_sentence = memo.scratch.membership.get(EOS_KEY) != 0;
            total += self.score_unlisted(
                &mut memo.scratch.candidates,
                &step,
                &self.eos_candidate(),
                in_sentence,
                |bucket| self.averaged.get(bucket),
            );
            steps += 1;
        }
        (out, total / steps.max(1) as f64)
    }

    /// Decode the program for an interned sentence (greedy, averaged
    /// weights).
    pub fn predict(&self, sentence: &[Symbol]) -> Vec<String> {
        let index = SentenceIndex::build(sentence);
        let (tokens, _) = with_decode_scratch(|scratch| {
            self.decode_greedy(&mut self.decode_memo(&index, scratch))
        });
        resolve_tokens(&tokens)
    }

    /// Decode the `k` best-scoring candidate programs for a sentence, most
    /// probable first.
    ///
    /// The top candidate is always the greedy decode — identical to
    /// [`LuinetParser::predict`] — so serving the best candidate behaves
    /// exactly like the evaluated parser. Alternatives come from a
    /// deterministic beam search (beam width = `k`) ranked by
    /// length-normalized score (mean per-step averaged-weight score, plus
    /// the pretrained-LM contribution); normalization keeps long
    /// token-copy runaways from outscoring short finished parses. Ties are
    /// broken lexicographically on the token sequence, so the ranking is
    /// reproducible bit for bit across runs and thread counts — the
    /// property the serving cache depends on.
    pub fn predict_topk(&self, sentence: &[Symbol], k: usize) -> Vec<ScoredPrediction> {
        let index = SentenceIndex::build(sentence);
        with_decode_scratch(|scratch| self.decode_topk(&mut self.decode_memo(&index, scratch), k))
    }

    /// [`LuinetParser::predict_topk`] over a prepared memo.
    fn decode_topk(&self, memo: &mut DecodeMemo<'_>, k: usize) -> Vec<ScoredPrediction> {
        let (greedy_tokens, greedy_score) = self.decode_greedy(memo);
        let greedy_tokens = resolve_tokens(&greedy_tokens);
        let mut out = vec![ScoredPrediction {
            tokens: greedy_tokens,
            score: greedy_score,
        }];
        if k <= 1 {
            return out;
        }
        for hypothesis in self.beam(memo, k) {
            if out.len() >= k {
                break;
            }
            let tokens = resolve_tokens(
                &memo
                    .scratch
                    .arena
                    .materialize(hypothesis.tail, hypothesis.len as usize),
            );
            if out.iter().any(|p| p.tokens == tokens) {
                continue;
            }
            let score = hypothesis.normalized();
            out.push(ScoredPrediction { tokens, score });
        }
        out
    }

    /// Deterministic beam search over the decode space; returns the beam
    /// ranked by length-normalized score.
    fn beam(&self, memo: &mut DecodeMemo<'_>, beam_width: usize) -> Vec<Hypothesis> {
        let interner: &'static genie_nlp::Interner = genie_nlp::intern::shared();
        let mut beam: Vec<Hypothesis> = vec![Hypothesis {
            tail: 0,
            len: 0,
            prev1: self.bos,
            prev2: self.bos,
            score: 0.0,
            steps: 0,
            finished: false,
        }];
        let mut next: Vec<Hypothesis> = Vec::with_capacity(beam_width * 8);
        let mut kept: Vec<Hypothesis> = Vec::with_capacity(beam_width);
        for position in 0..self.config.max_length {
            if beam.iter().all(|h| h.finished) {
                break;
            }
            next.clear();
            for hypothesis in &beam {
                if hypothesis.finished {
                    next.push(*hypothesis);
                    continue;
                }
                let scored = self.scored_step(memo, hypothesis.prev1, hypothesis.prev2, position);
                let scratch = &mut *memo.scratch;
                for &(candidate, score) in &scratch.scores[scored] {
                    let mut extended = *hypothesis;
                    extended.score += score;
                    extended.steps += 1;
                    if candidate == self.eos {
                        extended.finished = true;
                    } else {
                        extended.prev2 = extended.prev1;
                        extended.prev1 = candidate;
                        extended.tail = scratch.arena.push(hypothesis.tail, candidate);
                        extended.len += 1;
                    }
                    next.push(extended);
                }
            }
            let arena = &memo.scratch.arena;
            // Deterministic pruning: normalized score descending, token
            // sequence (by resolved text) as the tie-break — no hash-order
            // or float-equality ambiguity, no dependence on symbol ids.
            select_top(
                &mut next,
                beam_width,
                &mut kept,
                Hypothesis::normalized,
                |a, b| arena.cmp_seq(interner, a, b),
                |a, b| a.finished == b.finished && arena.seq_eq(interner, a, b),
            );
            std::mem::swap(&mut beam, &mut next);
        }
        beam
    }

    /// Predict programs for many sentences in parallel (used by the
    /// evaluation harness). Uses the configured worker threads for large
    /// batches; see [`LuinetParser::predict_batch_with_threads`] for an
    /// explicit count.
    pub fn predict_batch<S>(&self, sentences: &[S]) -> Vec<Vec<String>>
    where
        S: AsRef<[Symbol]> + Sync,
    {
        if sentences.len() < 32 {
            return sentences.iter().map(|s| self.predict(s.as_ref())).collect();
        }
        self.predict_batch_with_threads(sentences, self.config.threads)
    }

    /// [`LuinetParser::predict_batch`] with an explicit worker count (`0` =
    /// all cores, `1` = inline). Predictions are a pure function of the
    /// model and the sentence and [`genie_parallel::par_map`] preserves
    /// input order, so the output is byte-identical for any thread count.
    pub fn predict_batch_with_threads<S>(&self, sentences: &[S], threads: usize) -> Vec<Vec<String>>
    where
        S: AsRef<[Symbol]> + Sync,
    {
        genie_parallel::par_map(threads, sentences, |_, sentence| {
            self.predict(sentence.as_ref())
        })
    }

    /// Top-`k` scored candidates for many sentences, fanned out over
    /// `threads` workers with order-preserving, byte-identical output.
    pub fn predict_topk_batch<S>(
        &self,
        sentences: &[S],
        k: usize,
        threads: usize,
    ) -> Vec<Vec<ScoredPrediction>>
    where
        S: AsRef<[Symbol]> + Sync,
    {
        genie_parallel::par_map(threads, sentences, |_, sentence| {
            self.predict_topk(sentence.as_ref(), k)
        })
    }

    /// Exact-match accuracy of the parser on a set of examples (token-level
    /// exact match; the pipeline-level program accuracy additionally
    /// canonicalizes both sides). Decodes in parallel over the configured
    /// worker threads, borrowing every sentence — no per-example clones.
    pub fn exact_match_accuracy(&self, examples: &[ParserExample]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let interner: &'static genie_nlp::Interner = genie_nlp::intern::shared();
        let correct = genie_parallel::par_map(self.config.threads, examples, |_, example| {
            let index = SentenceIndex::build(&example.sentence);
            let (tokens, _) = with_decode_scratch(|scratch| {
                self.decode_greedy(&mut self.decode_memo(&index, scratch))
            });
            tokens.len() == example.program.len()
                && tokens
                    .iter()
                    .zip(&example.program)
                    .all(|(&symbol, gold)| interner.resolve(symbol) == gold)
        })
        .into_iter()
        .filter(|&ok| ok)
        .count();
        correct as f64 / examples.len() as f64
    }
}

/// Keep in `items` its first `width` items after a stable sort (by `key`
/// descending, then `tie`), a `dedup_by(same)` and a truncation — the
/// beam's pruning — without sorting them all.
///
/// One insertion pass keeps the best `width` items seen so far in sorted,
/// stable order; most items lose a single comparison against the worst
/// survivor. That buffer is exactly the first `width` items of the stable
/// sort whenever `key` orders every item (no NaN). Dedup removes an item
/// only next to its retained twin, so it can change the first `width`
/// only through a `same` pair adjacent among them. In either case
/// (a NaN key, or such a pair) this runs the full sort → dedup → truncate
/// instead, so the result always equals it.
fn select_top<T: Copy>(
    items: &mut Vec<T>,
    width: usize,
    kept: &mut Vec<T>,
    key: impl Fn(&T) -> f64,
    tie: impl Fn(&T, &T) -> Ordering,
    same: impl Fn(&T, &T) -> bool,
) {
    let cmp = |a: &T, b: &T| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(Ordering::Equal)
            .then_with(|| tie(a, b))
    };
    kept.clear();
    if width > 0 && !items.iter().any(|item| key(item).is_nan()) {
        for item in items.iter() {
            if kept.len() == width && cmp(&kept[width - 1], item) != Ordering::Greater {
                continue;
            }
            let mut slot = kept.len();
            while slot > 0 && cmp(&kept[slot - 1], item) == Ordering::Greater {
                slot -= 1;
            }
            if kept.len() == width {
                kept.pop();
            }
            kept.insert(slot, *item);
        }
        if !kept.windows(2).any(|pair| same(&pair[1], &pair[0])) {
            items.clear();
            items.extend_from_slice(kept);
            return;
        }
    }
    items.sort_by(cmp);
    items.dedup_by(|a, b| same(a, b));
    items.truncate(width);
}

/// Resolve decoded symbols to owned token text (the public API boundary).
fn resolve_tokens(tokens: &[Symbol]) -> Vec<String> {
    let interner = genie_nlp::intern::shared();
    tokens
        .iter()
        .map(|&s| interner.resolve(s).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_nlp::intern::TokenStream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream(s: &str) -> TokenStream {
        genie_nlp::intern::shared().stream_of(s)
    }

    fn training_set() -> Vec<ParserExample> {
        let mut out = Vec::new();
        let devices = [
            ("twitter", "@com.twitter.timeline"),
            ("gmail", "@com.gmail.inbox"),
            ("dropbox", "@com.dropbox.list_folder"),
            ("calendar", "@org.thingpedia.builtin.calendar.list_events"),
        ];
        for (word, function) in devices {
            out.push(ParserExample::from_strs(
                &format!("show me my {word} stuff"),
                &format!("now => {function} ( ) => notify"),
            ));
            out.push(ParserExample::from_strs(
                &format!("get my {word} stuff"),
                &format!("now => {function} ( ) => notify"),
            ));
            out.push(ParserExample::from_strs(
                &format!("notify me when my {word} stuff changes"),
                &format!("monitor ( {function} ( ) ) => notify"),
            ));
        }
        // Copy examples: tweet <free form text>.
        for text in [
            "hello world",
            "good morning",
            "rust is great",
            "paper accepted",
        ] {
            out.push(ParserExample::from_strs(
                &format!("tweet {text}"),
                &format!("now => @com.twitter.post ( param:status = \" {text} \" )"),
            ));
        }
        out
    }

    /// A larger synthetic workload (hundreds of examples) that actually
    /// splits into multiple training shards.
    fn sharded_training_set() -> Vec<ParserExample> {
        let mut out = Vec::new();
        let devices = [
            ("twitter", "@com.twitter.timeline"),
            ("gmail", "@com.gmail.inbox"),
            ("dropbox", "@com.dropbox.list_folder"),
            ("spotify", "@com.spotify.playlists"),
            ("weather", "@org.thingpedia.weather.current"),
            ("news", "@com.nytimes.get_front_page"),
        ];
        let verbs = ["show", "get", "fetch", "list", "display", "pull"];
        let tails = ["stuff", "items", "things", "updates", "results", "entries"];
        for (word, function) in devices {
            for verb in verbs {
                for tail in tails {
                    out.push(ParserExample::from_strs(
                        &format!("{verb} me my {word} {tail}"),
                        &format!("now => {function} ( ) => notify"),
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn fine_tune_is_thread_invariant_and_learns_the_delta() {
        // The delta: a skill the base model has never seen.
        let delta: Vec<ParserExample> = ["show", "get", "fetch", "list"]
            .iter()
            .map(|verb| {
                ParserExample::from_strs(
                    &format!("{verb} me my instagram stuff"),
                    "now => @com.instagram.feed ( ) => notify",
                )
            })
            .collect();
        // Delta passes mix the changed examples with a rehearsal sample of
        // the base dataset — fine-tuning on the delta alone would let the
        // perceptron forget the untouched skills.
        let mut rehearsal = delta.clone();
        rehearsal.extend(training_set());
        let run = |threads: usize| {
            let mut parser = LuinetParser::new(ModelConfig {
                epochs: 10,
                seed: 3,
                threads,
                ..ModelConfig::default()
            });
            parser.train(&training_set());
            parser.fine_tune(&rehearsal, 4);
            parser
        };
        let sequential = run(1);
        let parallel = run(4);
        // Delta training is deterministic for a fixed call sequence and
        // worker-count-invariant like full training.
        assert_eq!(sequential.weights_digest(), parallel.weights_digest());
        // It actually learns the new skill without forgetting the old one.
        let accuracy = sequential.exact_match_accuracy(&delta);
        assert!(accuracy > 0.9, "delta accuracy {accuracy}");
        let base_accuracy = sequential.exact_match_accuracy(&training_set());
        assert!(base_accuracy > 0.8, "base accuracy {base_accuracy}");
        // And it is the approximate path: the weights differ from a
        // from-scratch retrain over the combined dataset.
        let mut scratch = LuinetParser::new(ModelConfig {
            epochs: 10,
            seed: 3,
            threads: 1,
            ..ModelConfig::default()
        });
        let mut combined = training_set();
        combined.extend(delta.iter().cloned());
        scratch.train(&combined);
        assert_ne!(scratch.weights_digest(), sequential.weights_digest());
    }

    #[test]
    fn learns_the_training_set() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 20,
            seed: 2,
            ..ModelConfig::default()
        });
        let examples = training_set();
        parser.train(&examples);
        let accuracy = parser.exact_match_accuracy(&examples);
        assert!(accuracy > 0.9, "training accuracy {accuracy}");
    }

    #[test]
    fn generalizes_to_new_function_word_combinations() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 10,
            ..ModelConfig::default()
        });
        let examples = training_set();
        parser.train(&examples);
        // "notify me when my calendar stuff changes" appears in training;
        // check a held-out lexical variant of a seen construct instead.
        let predicted = parser.predict(&stream("show me my gmail stuff"));
        assert_eq!(predicted.join(" "), "now => @com.gmail.inbox ( ) => notify");
    }

    #[test]
    fn copies_unseen_free_form_text() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 20,
            seed: 1,
            ..ModelConfig::default()
        });
        let examples = training_set();
        parser.train(&examples);
        let predicted = parser.predict(&stream("tweet deadline extended again"));
        let joined = predicted.join(" ");
        assert!(
            joined.contains("deadline") && joined.contains("extended"),
            "copy mechanism failed: {joined}"
        );
        assert!(joined.starts_with("now => @com.twitter.post"));
    }

    #[test]
    fn pretrained_lm_biases_toward_grammatical_programs() {
        let mut lm = ProgramLm::new();
        let programs: Vec<Vec<String>> = training_set().into_iter().map(|e| e.program).collect();
        lm.train(&programs);
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 4,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(lm);
        parser.train(&training_set());
        let predicted = parser.predict(&stream("show me my dropbox stuff"));
        assert!(predicted.join(" ").contains("@com.dropbox.list_folder"));
    }

    #[test]
    fn untrained_parser_predicts_nothing_useful() {
        let parser = LuinetParser::new(ModelConfig::default());
        let predicted = parser.predict(&stream("show me my tweets"));
        // With no training data there is no program vocabulary, so the
        // output cannot contain any program structure.
        assert!(!predicted.iter().any(|t| t == "=>" || t.starts_with('@')));
        assert_eq!(parser.trained_examples(), 0);
        assert!(parser.vocab().is_empty());
    }

    #[test]
    fn topk_is_scored_ranked_and_deterministic() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 8,
            seed: 2,
            ..ModelConfig::default()
        });
        parser.train(&training_set());
        let sentence = stream("show me my gmail stuff");
        let top = parser.predict_topk(&sentence, 4);
        assert!(!top.is_empty() && top.len() <= 4);
        // The top candidate is pinned to the greedy decode; the beam
        // alternatives after it are ranked by normalized score.
        assert_eq!(top[0].tokens, parser.predict(&sentence));
        for pair in top[1..].windows(2) {
            assert!(pair[0].score >= pair[1].score, "alternatives out of order");
        }
        // No duplicate candidates.
        for (i, a) in top.iter().enumerate() {
            for b in &top[i + 1..] {
                assert_ne!(a.tokens, b.tokens, "duplicate candidate");
            }
        }
        // Rerunning the decode gives bit-identical candidates.
        assert_eq!(top, parser.predict_topk(&sentence, 4));
        // The top candidate is a plausible program for the sentence.
        assert!(top[0].tokens.join(" ").contains("@com.gmail.inbox"));
    }

    #[test]
    fn topk_batch_is_thread_invariant() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 4,
            ..ModelConfig::default()
        });
        parser.train(&training_set());
        let examples = training_set();
        let sentences: Vec<&TokenStream> = examples.iter().map(|e| &e.sentence).collect();
        let sequential = parser.predict_topk_batch(&sentences, 3, 1);
        for threads in [2, 8] {
            assert_eq!(
                parser.predict_topk_batch(&sentences, 3, threads),
                sequential,
                "top-k batch differs at {threads} threads"
            );
        }
        let greedy = parser.predict_batch_with_threads(&sentences, 1);
        for threads in [2, 8] {
            assert_eq!(
                parser.predict_batch_with_threads(&sentences, threads),
                greedy,
                "greedy batch differs at {threads} threads"
            );
        }
    }

    #[test]
    fn batch_prediction_matches_sequential() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 4,
            ..ModelConfig::default()
        });
        parser.train(&training_set());
        let examples = training_set();
        let sentences: Vec<&TokenStream> = examples.iter().map(|e| &e.sentence).collect();
        let sequential: Vec<Vec<String>> = sentences.iter().map(|s| parser.predict(s)).collect();
        let batched = parser.predict_batch(&sentences);
        assert_eq!(sequential, batched);
    }

    #[test]
    fn training_is_thread_invariant_and_reproducible() {
        let examples = sharded_training_set();
        let train_with = |threads: usize| {
            let mut parser = LuinetParser::new(ModelConfig {
                epochs: 3,
                seed: 7,
                threads,
                train_shards: 4,
                ..ModelConfig::default()
            });
            parser.train(&examples);
            parser
        };
        let baseline = train_with(1);
        let digest = baseline.weights_digest();
        let topk = baseline.predict_topk(&stream("fetch me my spotify updates"), 3);
        for threads in [2, 8] {
            let parser = train_with(threads);
            assert_eq!(
                parser.weights_digest(),
                digest,
                "weights differ at {threads} threads"
            );
            assert_eq!(
                parser.predict_topk(&stream("fetch me my spotify updates"), 3),
                topk,
                "predictions differ at {threads} threads"
            );
        }
        // Two runs at the same seed and thread count are identical too.
        assert_eq!(train_with(1).weights_digest(), digest);
    }

    #[test]
    fn sharded_training_matches_the_sequential_trainer_on_accuracy() {
        let examples = sharded_training_set();
        let accuracy_with = |train_shards: usize, threads: usize| {
            let mut parser = LuinetParser::new(ModelConfig {
                epochs: 3,
                seed: 5,
                threads,
                train_shards,
                ..ModelConfig::default()
            });
            parser.train(&examples);
            parser.exact_match_accuracy(&examples)
        };
        let sequential = accuracy_with(1, 1);
        let sharded = accuracy_with(4, 0);
        assert!(
            sharded >= sequential,
            "sharded training regressed accuracy: {sharded} < {sequential}"
        );
        assert!(
            sequential > 0.9,
            "sequential accuracy too low: {sequential}"
        );
    }

    /// The trained parameters are pinned digests for these training sets,
    /// so a change to how weights are stored, or rebuilt between passes,
    /// must leave training unchanged bit for bit.
    #[test]
    fn weights_digests_are_pinned() {
        let config = ModelConfig {
            epochs: 10,
            seed: 3,
            threads: 1,
            ..ModelConfig::default()
        };
        let mut rehearsal: Vec<ParserExample> = ["show", "get"]
            .iter()
            .map(|verb| {
                ParserExample::from_strs(
                    &format!("{verb} me my instagram stuff"),
                    "now => @com.instagram.feed ( ) => notify",
                )
            })
            .collect();
        rehearsal.extend(training_set());

        let mut parser = LuinetParser::new(config);
        parser.train(&training_set());
        assert_eq!(
            parser.weights_digest(),
            0x4240_57ff_7b78_328c,
            "after train"
        );
        let mut loaded = crate::snapshot::from_bytes(&crate::snapshot::to_bytes(&parser)).unwrap();
        parser.fine_tune(&rehearsal, 3);
        assert_eq!(
            parser.weights_digest(),
            0x614a_d4f5_dab5_5c5a,
            "after train → fine_tune"
        );
        loaded.fine_tune(&rehearsal, 3);
        assert_eq!(
            loaded.weights_digest(),
            0x614a_d4f5_dab5_5c5a,
            "after save → load → fine_tune"
        );

        let mut sharded = LuinetParser::new(ModelConfig {
            epochs: 3,
            seed: 7,
            threads: 1,
            train_shards: 4,
            ..ModelConfig::default()
        });
        sharded.train(&sharded_training_set());
        assert_eq!(
            sharded.weights_digest(),
            0xa3c7_0cb8_a332_b2a5,
            "after sharded train"
        );
    }

    /// The plain decoder the memoized one replaced: every candidate scored
    /// from scratch by per-bucket lookups over
    /// [`StepContext::for_each_bucket`] (each value computed from the raw
    /// entries as `weight - total / updates`), greedy top-1, then a beam
    /// pruned by a full stable sort → dedup → truncate.
    fn reference_topk(parser: &LuinetParser, sentence: &[Symbol], k: usize) -> Vec<(String, u64)> {
        let params: HashMap<usize, (f32, f64)> = parser
            .entries
            .iter()
            .map(|&(bucket, weight, total)| (bucket as usize, (weight, total)))
            .collect();
        let updates = parser.updates as f64;
        let score = |step: &StepContext<'_>, candidate: Symbol, hash: u64| {
            let mut score = 0.0;
            step.for_each_bucket(candidate, hash, |bucket| {
                let (weight, total) = params.get(&bucket).copied().unwrap_or((0.0, 0.0));
                score += if parser.updates > 0 {
                    weight as f64 - total / updates
                } else {
                    weight as f64
                };
            });
            score + parser.lm_score(step, candidate)
        };
        let index = SentenceIndex::build(sentence);

        let (mut prev1, mut prev2) = (parser.bos, parser.bos);
        let mut greedy = Vec::new();
        let (mut total, mut steps, mut ended) = (0.0, 0usize, false);
        for position in 0..parser.config.max_length {
            let step = StepContext::new(&index, prev1, prev2, position);
            let (mut best, mut best_score) = (parser.eos, f64::NEG_INFINITY);
            parser.for_each_candidate(&index, prev1, None, |candidate| {
                let value = score(&step, candidate.token, candidate.hash);
                if value > best_score {
                    best_score = value;
                    best = candidate.token;
                }
            });
            total += best_score;
            steps += 1;
            if best == parser.eos {
                ended = true;
                break;
            }
            greedy.push(best);
            prev2 = prev1;
            prev1 = best;
        }
        if !ended {
            let step = StepContext::new(&index, prev1, prev2, greedy.len());
            total += score(&step, parser.eos, parser.eos_hash);
            steps += 1;
        }
        let mut out = vec![(resolve_tokens(&greedy), total / steps.max(1) as f64)];

        if k > 1 {
            let interner = genie_nlp::intern::shared();
            let mut arena = BeamArena::default();
            let mut beam = vec![Hypothesis {
                tail: 0,
                len: 0,
                prev1: parser.bos,
                prev2: parser.bos,
                score: 0.0,
                steps: 0,
                finished: false,
            }];
            for position in 0..parser.config.max_length {
                if beam.iter().all(|h| h.finished) {
                    break;
                }
                let mut next = Vec::new();
                for hypothesis in &beam {
                    if hypothesis.finished {
                        next.push(*hypothesis);
                        continue;
                    }
                    let step =
                        StepContext::new(&index, hypothesis.prev1, hypothesis.prev2, position);
                    parser.for_each_candidate(&index, hypothesis.prev1, None, |candidate| {
                        let token = candidate.token;
                        let mut extended = *hypothesis;
                        extended.score += score(&step, token, candidate.hash);
                        extended.steps += 1;
                        if token == parser.eos {
                            extended.finished = true;
                        } else {
                            extended.prev2 = extended.prev1;
                            extended.prev1 = token;
                            extended.tail = arena.push(hypothesis.tail, token);
                            extended.len += 1;
                        }
                        next.push(extended);
                    });
                }
                next.sort_by(|a, b| {
                    b.normalized()
                        .partial_cmp(&a.normalized())
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| arena.cmp_seq(interner, a, b))
                });
                next.dedup_by(|a, b| a.finished == b.finished && arena.seq_eq(interner, a, b));
                next.truncate(k);
                beam = next;
            }
            for hypothesis in beam {
                if out.len() >= k {
                    break;
                }
                let tokens =
                    resolve_tokens(&arena.materialize(hypothesis.tail, hypothesis.len as usize));
                if !out.iter().any(|(seen, _)| *seen == tokens) {
                    out.push((tokens, hypothesis.normalized()));
                }
            }
        }
        out.into_iter()
            .map(|(tokens, score)| (tokens.join(" "), score.to_bits()))
            .collect()
    }

    fn bits(predictions: Vec<ScoredPrediction>) -> Vec<(String, u64)> {
        predictions
            .into_iter()
            .map(|p| (p.tokens.join(" "), p.score.to_bits()))
            .collect()
    }

    /// The memoized decoder (filtered sparse table, compiled `prev1`
    /// weights, candidate-value memo, step memo, top-k selection) matches
    /// the plain reference in tokens and score bits, for greedy and beam
    /// decoding, on trained parsers (with and without the pretrained LM,
    /// and one whose short length cap cuts most decodes before they end),
    /// on an untrained one, and on parsers whose successor tables changed
    /// without new weights: after `fine_tune(.., 0)` brought new
    /// successors, after `train(&[])`, and after save → load. It also
    /// decodes sentences whose words were interned after training.
    #[test]
    fn memoized_decode_matches_the_plain_reference() {
        let mut examples = training_set();
        examples.extend(sharded_training_set());
        let mut sentences: Vec<TokenStream> = examples.iter().map(|e| e.sentence.clone()).collect();
        for text in [
            "tweet deadline extended again",
            "tweet the the the of of",
            "hey show me my gmail stuff thanks",
            "notify me when my spotify entries change",
            "fetch me my weather and my news",
            "",
        ] {
            sentences.push(stream(text));
        }
        assert!(sentences.len() >= 200);

        let mut lm = ProgramLm::new();
        lm.train(examples.iter().map(|e| &e.program));
        let mut with_lm = LuinetParser::new(ModelConfig {
            epochs: 3,
            seed: 4,
            threads: 1,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(lm);
        with_lm.train(&examples);
        let mut short = LuinetParser::new(ModelConfig {
            epochs: 2,
            seed: 5,
            threads: 1,
            max_length: 5,
            ..ModelConfig::default()
        });
        short.train(&training_set());
        let untrained = LuinetParser::new(ModelConfig::default());

        let base = || {
            let mut parser = LuinetParser::new(ModelConfig {
                epochs: 3,
                seed: 6,
                threads: 1,
                ..ModelConfig::default()
            });
            parser.train(&training_set());
            parser
        };
        // New programs bring new successors (and new tokens) but, with no
        // epochs, no new weights.
        let mut absorbed = base();
        absorbed.fine_tune(
            &[
                ParserExample::from_strs(
                    "show me my instagram stuff",
                    "now => @com.instagram.feed ( ) => notify",
                ),
                ParserExample::from_strs(
                    "tweet hello then notify",
                    "now => @com.twitter.post ( param:status = \" hello \" ) => notify",
                ),
            ],
            0,
        );
        let mut retrained_empty = base();
        retrained_empty.train(&[]);
        let loaded = crate::snapshot::from_bytes(&crate::snapshot::to_bytes(&with_lm)).unwrap();

        // Words the arena first sees after every parser above was trained.
        let fresh: Vec<TokenStream> = [
            "tweet quokka marmalade zeppelin",
            "show me my zeppelin quokka stuff",
            "notify me when my marmalade stuff changes quokka quokka",
        ]
        .into_iter()
        .map(stream)
        .collect();

        let tail = |count: usize| &sentences[sentences.len() - count..];
        for (name, parser, sentences) in [
            ("with_lm", &with_lm, tail(sentences.len())),
            ("short", &short, tail(40)),
            ("untrained", &untrained, tail(10)),
            ("fine_tune(.., 0)", &absorbed, tail(40)),
            ("train(&[])", &retrained_empty, tail(40)),
            ("save → load", &loaded, tail(40)),
            ("fresh words", &with_lm, &fresh[..]),
        ] {
            for sentence in sentences {
                for k in [1, 3, 8] {
                    let expected = reference_topk(parser, sentence, k);
                    assert_eq!(
                        bits(parser.predict_topk(sentence, k)),
                        expected,
                        "{name}: k={k}"
                    );
                    assert_eq!(parser.predict(sentence).join(" "), expected[0].0, "{name}");
                }
            }
        }
    }

    /// The key capacities of this thread's decode scratch: the candidate
    /// memo's and the membership map's.
    fn scratch_capacity() -> (usize, usize) {
        DECODE_SCRATCH.with_borrow(|scratch| {
            (
                scratch.candidates.offsets.capacity(),
                scratch.membership.slots.capacity(),
            )
        })
    }

    /// The thread's decode scratch, reused across decodes, stays exact and
    /// bounded: after it grew on long sentences, a sentence of words
    /// interned later decodes bit-identically to the reference, and its key
    /// capacity never exceeds the vocabulary plus the longest sentence's
    /// distinct words.
    #[test]
    fn a_reused_candidate_memo_stays_exact_and_bounded() {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 3,
            seed: 8,
            threads: 1,
            ..ModelConfig::default()
        });
        parser.train(&training_set());
        DECODE_SCRATCH.take();
        let mut longest = 0;
        let mut decode = |sentence: &TokenStream| {
            let got = bits(parser.predict_topk(sentence, 3));
            assert_eq!(got, reference_topk(&parser, sentence, 3));
            longest = longest.max(SentenceIndex::build(sentence).distinct_words().len());
            let bound = parser.vocab().len() + longest;
            let (offsets, members) = scratch_capacity();
            assert!(offsets <= bound, "memo capacity {offsets} above {bound}");
            assert!(members <= parser.vocab().len(), "{members} membership keys");
        };
        for text in [
            "show me my gmail stuff and my dropbox stuff and my calendar stuff please now",
            "tweet rust is great",
            "notify me when my twitter stuff changes",
        ] {
            decode(&stream(text));
        }
        let grown = scratch_capacity();
        decode(&stream("tweet wombat lantern wombat ocelot"));
        assert_eq!(
            scratch_capacity(),
            grown,
            "a shorter sentence grew the scratch"
        );
    }

    /// Two parsers with different key counts decode alternately on one
    /// thread, the way a swap interleaves the incoming world's carry with
    /// the outgoing world's misses. Over sentences that grow and then
    /// shrink, each result equals the reference, and the shared scratch
    /// stays bounded by the larger vocabulary plus the longest sentence.
    #[test]
    fn two_parsers_share_one_thread_scratch_exactly() {
        let train = |examples: &[ParserExample]| {
            let mut parser = LuinetParser::new(ModelConfig {
                epochs: 3,
                seed: 9,
                threads: 1,
                ..ModelConfig::default()
            });
            parser.train(examples);
            parser
        };
        let small = train(&training_set());
        let mut examples = training_set();
        examples.extend(sharded_training_set());
        let large = train(&examples);
        assert!(small.compiled.key_count() < large.compiled.key_count());
        DECODE_SCRATCH.take();
        let texts = [
            "tweet hi",
            "show me my gmail stuff",
            "notify me when my spotify entries change",
            "fetch me my weather and my news and tweet hello world then show my dropbox stuff",
            "tweet one two three four five six seven eight nine ten eleven twelve notify =>",
            "get my calendar stuff",
            "tweet ok",
            "",
        ];
        let mut longest = 0;
        for (round, text) in texts.iter().enumerate() {
            let sentence = stream(text);
            longest = longest.max(SentenceIndex::build(&sentence).distinct_words().len());
            let order = if round % 2 == 0 {
                [&small, &large]
            } else {
                [&large, &small]
            };
            for parser in order {
                for k in [1, 3] {
                    let expected = reference_topk(parser, &sentence, k);
                    assert_eq!(bits(parser.predict_topk(&sentence, k)), expected, "{text}");
                    assert_eq!(parser.predict(&sentence).join(" "), expected[0].0, "{text}");
                }
                let bound = large.vocab().len() + longest;
                let (offsets, members) = scratch_capacity();
                assert!(offsets <= bound, "memo capacity {offsets} above {bound}");
                assert!(members <= large.vocab().len(), "{members} membership keys");
            }
        }
    }

    /// The compiled decode scorer ([`LuinetParser::scored_step`]) matches,
    /// bit for bit and in candidate order, the plain sum of
    /// [`AveragedWeights::get`] over [`StepContext::for_each_bucket`] plus
    /// the LM term. Seeded steps cover contexts in and not in the trigram
    /// map, positions 0, 24 and past [`POSITION_CAP`], and `prev1`s copied
    /// from the sentence. The sentences hold successor tokens, more than 64
    /// distinct words (the copy list's fallback), the end-of-sequence text
    /// and words interned after training. The parsers include ones after
    /// `fine_tune(.., 0)`, `train(&[])` and save → load.
    #[test]
    fn compiled_decode_scorer_matches_a_plain_sum() {
        use rand::Rng;
        let mut examples = training_set();
        examples.extend(sharded_training_set());
        let mut lm = ProgramLm::new();
        lm.train(examples.iter().map(|e| &e.program));
        let mut with_lm = LuinetParser::new(ModelConfig {
            epochs: 3,
            seed: 12,
            threads: 1,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(lm);
        with_lm.train(&examples);
        let base = || {
            let mut parser = LuinetParser::new(ModelConfig {
                epochs: 3,
                seed: 13,
                threads: 1,
                ..ModelConfig::default()
            });
            parser.train(&training_set());
            parser
        };
        let mut absorbed = base();
        absorbed.fine_tune(
            &[ParserExample::from_strs(
                "tweet hello then notify",
                "now => @com.twitter.post ( param:status = \" hello \" ) => notify",
            )],
            0,
        );
        let mut retrained_empty = base();
        retrained_empty.train(&[]);
        let loaded = crate::snapshot::from_bytes(&crate::snapshot::to_bytes(&with_lm)).unwrap();

        let interner = genie_nlp::intern::shared();
        let mut wide: Vec<String> = (0..70).map(|i| format!("wideword{i}")).collect();
        wide.splice(10..10, ["notify", "now"].map(String::from));
        wide.extend(["=>", "(", ")", "@com.gmail.inbox", "notify"].map(String::from));
        let sentences: Vec<TokenStream> = [
            "show me my gmail stuff",
            "notify me when my twitter stuff changes",
            "tweet hello world now => notify ( )",
            "tweet see you </s> later",
            "tweet quokka marmalade zeppelin quokka",
            wide.join(" ").as_str(),
            "",
        ]
        .into_iter()
        .map(stream)
        .collect();
        assert!(SentenceIndex::build(&sentences[5]).distinct_words().len() > 64);

        let mut rng = StdRng::seed_from_u64(0xc0_4b11ed);
        let (mut in_map, mut off_map, mut shared_words, mut compared) = (0, 0, 0, 0);
        for (name, parser) in [
            ("with_lm", &with_lm),
            ("fine_tune(.., 0)", &absorbed),
            ("train(&[])", &retrained_empty),
            ("save → load", &loaded),
        ] {
            let mut contexts: Vec<(Symbol, Symbol)> = parser
                .transitions
                .trigram
                .keys()
                .map(|&(prev2, prev1, _)| (prev2, prev1))
                .collect();
            contexts.sort_unstable_by_key(|&(a, b)| (interner.resolve(a), interner.resolve(b)));
            contexts.dedup();
            let mut tokens: Vec<Symbol> = contexts.iter().map(|&(_, prev1)| prev1).collect();
            tokens.sort_unstable_by_key(|&s| interner.resolve(s));
            tokens.dedup();
            let plain = |step: &StepContext<'_>, token: Symbol| {
                let mut score = 0.0;
                step.for_each_bucket(token, cand_hash(interner.resolve(token)), |bucket| {
                    score += parser.averaged.get(bucket);
                });
                score + parser.lm_score(step, token)
            };
            for sentence in &sentences {
                let index = SentenceIndex::build(sentence);
                let words: Vec<Symbol> = index.distinct_words().iter().map(|&(w, _)| w).collect();
                with_decode_scratch(|scratch| {
                    let mut memo = parser.decode_memo(&index, scratch);
                    for _ in 0..60 {
                        let pick = |rng: &mut StdRng| match rng.gen_range(0..3) {
                            0 if !words.is_empty() => words[rng.gen_range(0..words.len())],
                            _ => tokens[rng.gen_range(0..tokens.len())],
                        };
                        let (prev2, prev1) = if rng.gen_bool(0.5) {
                            contexts[rng.gen_range(0..contexts.len())]
                        } else {
                            (pick(&mut rng), pick(&mut rng))
                        };
                        let position: usize =
                            [0, 1, 7, 23, 24, 25, 31, 47][rng.gen_range(0..8usize)];
                        let successors = parser.compiled.get(prev1);
                        if let Some(entry) = successors {
                            match parser
                                .compiled
                                .context_row(prev2, prev1, entry.candidates.len())
                            {
                                Some(_) => in_map += 1,
                                None => off_map += 1,
                            }
                            shared_words += entry
                                .candidates
                                .iter()
                                .filter(|successor| index.contains(successor.token))
                                .count();
                        }
                        let scored = parser.scored_step(&mut memo, prev1, prev2, position);
                        let got: Vec<(Symbol, u64)> = memo.scratch.scores[scored]
                            .iter()
                            .map(|&(token, score)| (token, score.to_bits()))
                            .collect();
                        let step = StepContext::new(&index, prev1, prev2, position);
                        let mut expected = Vec::new();
                        parser.for_each_candidate(&index, prev1, None, |candidate| {
                            let score = plain(&step, candidate.token);
                            expected.push((candidate.token, score.to_bits()));
                        });
                        assert_eq!(
                            got,
                            expected,
                            "{name}: {:?} after ({}, {}) at {position}",
                            interner.render(sentence),
                            interner.resolve(prev2),
                            interner.resolve(prev1),
                        );
                        compared += got.len();
                    }
                });
            }
        }
        assert!(
            in_map > 200 && off_map > 200 && shared_words > 200 && compared > 20_000,
            "{in_map} trigram contexts, {off_map} others, {shared_words} shared words, \
             {compared} scores"
        );
    }

    /// The memoized training scorer (per-example candidate memo over a
    /// fixed snapshot, delta read through its write filter) matches the
    /// plain sum of snapshot weight plus delta over
    /// [`StepContext::for_each_bucket`] bit for bit. Weights and deltas are
    /// fractional (trained perceptron weights are small integers, whose
    /// sums no reordering can change), examples come in a seeded order and
    /// each step scores a seeded subset of its candidates, so memo slots
    /// are filled and reused at varied points.
    #[test]
    fn memoized_training_score_matches_the_plain_reference() {
        use rand::Rng;
        let mut examples = training_set();
        examples.extend(sharded_training_set());
        // Copy spans, so steps after a copied token (prev-copied and
        // span-continuation buckets) are common too.
        for text in ["see you at noon", "ship it now", "the build is green again"] {
            for verb in ["tweet", "post"] {
                examples.push(ParserExample::from_strs(
                    &format!("{verb} {text}"),
                    &format!("now => @com.twitter.post ( param:status = \" {text} \" )"),
                ));
            }
        }
        let mut lm = ProgramLm::new();
        lm.train(examples.iter().map(|e| &e.program));
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 2,
            seed: 11,
            threads: 1,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(lm);
        parser.train(&examples);
        let prepared = parser.prepare_examples(&examples);
        let mut rng = StdRng::seed_from_u64(0x7ea1);
        let entries: Vec<WeightEntry> = parser
            .entries
            .iter()
            .map(|&(bucket, weight, total)| (bucket, weight + rng.gen_range(-0.5f32..0.5), total))
            .collect();
        let params = TrainParams::from_entries(&entries);
        let mut order: Vec<u32> = (0..examples.len() as u32).collect();
        order.shuffle(&mut rng);
        let mut delta = parser.train_shard(&params, &order[..16], &prepared);
        for &(bucket, _, _) in entries.iter().step_by(5) {
            delta.add(bucket as usize, rng.gen_range(-0.5..0.5), 0.0);
        }
        assert!(
            delta.deltas.len() > 50,
            "{} delta buckets",
            delta.deltas.len()
        );
        let plain = |step: &StepContext<'_>, candidate: Symbol, hash: u64| {
            let mut score = 0.0;
            step.for_each_bucket(candidate, hash, |bucket| {
                let local = delta
                    .deltas
                    .get(&(bucket as u32))
                    .map_or(0.0, |&(dw, _)| dw);
                score += params.weight(bucket) as f64 + local;
            });
            score + parser.lm_score(step, candidate)
        };

        let mut scored = 0;
        for &index in &order {
            let example = &prepared[index as usize];
            let mut memo = CandidateMemo::default();
            let (mut prev1, mut prev2) = (parser.bos, parser.bos);
            for (position, &gold) in example.gold.iter().enumerate() {
                let step = StepContext::new(&example.index, prev1, prev2, position);
                parser.for_each_candidate(&example.index, prev1, Some(gold), |candidate| {
                    if !rng.gen_bool(0.6) {
                        return;
                    }
                    let memoized =
                        parser.score_train(&params, &mut memo, &step, &candidate, &delta);
                    assert_eq!(
                        memoized.to_bits(),
                        plain(&step, candidate.token, candidate.hash).to_bits(),
                        "example {index}, position {position}"
                    );
                    scored += 1;
                });
                prev2 = prev1;
                prev1 = gold.token;
            }
        }
        assert!(scored > 5_000, "only {scored} scores compared");
    }

    /// The beam's top-`k` selection equals sort → dedup → truncate on
    /// seeded inputs built to collide: few distinct scores (ties), few
    /// distinct sequences (repeats, which dedup removes), mixed finished
    /// flags, and widths below, at and above the input length. Each item
    /// carries its input position, so stability is checked too.
    #[test]
    fn top_k_selection_equals_sort_dedup_truncate() {
        type Item = (f64, u8, bool, u16);
        let tie = |a: &Item, b: &Item| a.1.cmp(&b.1);
        let same = |a: &Item, b: &Item| a.2 == b.2 && a.1 == b.1;
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        let mut kept = Vec::new();
        let mut fallbacks = 0;
        for round in 0..2000 {
            let len = rand::Rng::gen_range(&mut rng, 0..40usize);
            let distinct_scores = rand::Rng::gen_range(&mut rng, 1..6u32);
            let distinct_seqs = rand::Rng::gen_range(&mut rng, 1..60u8);
            let items: Vec<Item> = (0..len)
                .map(|i| {
                    let score = f64::from(rand::Rng::gen_range(&mut rng, 0..distinct_scores));
                    let seq = rand::Rng::gen_range(&mut rng, 0..distinct_seqs);
                    (
                        score - 2.0,
                        seq,
                        rand::Rng::gen_bool(&mut rng, 0.3),
                        i as u16,
                    )
                })
                .collect();
            let width = rand::Rng::gen_range(&mut rng, 0..12usize);

            let mut expected = items.clone();
            expected.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| tie(a, b))
            });
            let deduped_len = {
                let mut deduped = expected.clone();
                deduped.dedup_by(|a, b| same(a, b));
                deduped.len()
            };
            if deduped_len != expected.len() {
                fallbacks += 1;
            }
            expected.dedup_by(|a, b| same(a, b));
            expected.truncate(width);

            let mut selected = items.clone();
            select_top(&mut selected, width, &mut kept, |item| item.0, tie, same);
            assert_eq!(
                selected, expected,
                "round {round}: width {width}, items {items:?}"
            );
        }
        // The inputs really do exercise dedup.
        assert!(fallbacks > 100, "only {fallbacks} rounds had duplicates");
    }

    #[test]
    fn tiny_datasets_collapse_to_one_shard() {
        let config = ModelConfig::default();
        assert_eq!(config.effective_shards(24), 1);
        assert_eq!(config.effective_shards(64), 1);
        assert_eq!(config.effective_shards(128), 2);
        assert_eq!(config.effective_shards(10_000), 4);
        let wide = ModelConfig {
            train_shards: 16,
            ..ModelConfig::default()
        };
        assert_eq!(wide.effective_shards(10_000), 16);
        assert_eq!(wide.effective_shards(300), 4);
    }

    #[test]
    fn train_params_fold_back_nonzero_entries_in_bucket_order() {
        let mut params = TrainParams::from_entries(&[(7, 1.0, 2.0), (40, -1.0, 0.0)]);
        assert_eq!(params.weight(7), 1.0);
        assert_eq!(params.weight(8), 0.0);
        params.add(3_000_000, 1.0, 5.0);
        params.add(2, 1.0, 1.0);
        // Buckets whose updates cancel out drop, whether they came from the
        // entries or from training.
        params.add(40, 1.0, 0.0);
        params.add(9, 1.0, 3.0);
        params.add(9, -1.0, -3.0);
        // A zero weight with a nonzero total is still a parameter.
        params.add(7, -1.0, 0.0);
        assert_eq!(
            params.into_entries(),
            vec![(2, 1.0, 1.0), (7, 0.0, 2.0), (3_000_000, 1.0, 5.0)]
        );
    }

    /// The training table's presence bitmap never hides a bucket: over
    /// seeded entry sets and merge sequences (the first and last bucket,
    /// buckets whose adds cancel to zero, fresh and re-written buckets),
    /// `weight` equals a plain map read bit for bit on every bucket ever
    /// written and on a seeded sample of absent ones, their neighbours
    /// included.
    #[test]
    fn train_params_filter_matches_a_plain_map() {
        use rand::Rng;
        let last = (FEATURE_BUCKETS - 1) as u32;
        let mut rng = StdRng::seed_from_u64(0xb17_4a9);
        for case in 0..12 {
            let mut entries: Vec<WeightEntry> = (0..[0, 1, 3, 60, 2500, 20_000][case % 6])
                .map(|_| {
                    let bucket = rng.gen_range(0..=last);
                    (
                        bucket,
                        rng.gen_range(-6i8..6) as f32 * 0.25,
                        rng.gen_range(-9.0..9.0),
                    )
                })
                .collect();
            if case % 2 == 1 {
                entries.extend([(0, 1.5, 2.0), (last, -0.75, -1.0)]);
            }
            entries.sort_unstable_by_key(|&(bucket, _, _)| bucket);
            entries.dedup_by_key(|&mut (bucket, _, _)| bucket);

            let mut params = TrainParams::from_entries(&entries);
            let mut plain: HashMap<u32, f32> = entries
                .iter()
                .map(|&(bucket, weight, _)| (bucket, weight))
                .collect();
            // One merged delta, applied to both tables.
            let add = |params: &mut TrainParams, plain: &mut HashMap<u32, f32>, bucket, dw| {
                params.add(bucket, dw, dw * 3.0);
                let weight = plain.entry(bucket).or_default();
                *weight = (*weight as f64 + dw) as f32;
            };
            for _merge in 0..6 {
                for _ in 0..rng.gen_range(0..400) {
                    let bucket = match rng.gen_range(0..5) {
                        0 => 0,
                        1 => last,
                        2 if !entries.is_empty() => entries[rng.gen_range(0..entries.len())].0,
                        _ => rng.gen_range(0..=last),
                    };
                    let dw = f64::from(rng.gen_range(-4i8..4)) * 0.5 + 0.125;
                    add(&mut params, &mut plain, bucket, dw);
                    if rng.gen_bool(0.3) {
                        // A later shard's delta cancels this one.
                        add(&mut params, &mut plain, bucket, -dw);
                    }
                }
                let read = |bucket: u32| plain.get(&bucket).copied().unwrap_or(0.0).to_bits();
                let mut probes: Vec<u32> = plain.keys().copied().collect();
                probes.extend((0..3000).map(|_| rng.gen_range(0..=last)));
                for bucket in plain.keys().take(1000) {
                    probes.extend([
                        bucket ^ 1,
                        bucket.wrapping_sub(1) & last,
                        (bucket + 1) & last,
                    ]);
                }
                for bucket in probes {
                    assert_eq!(
                        params.weight(bucket as usize).to_bits(),
                        read(bucket),
                        "case {case}, bucket {bucket}"
                    );
                }
            }
        }
    }
}
