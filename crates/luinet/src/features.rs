//! Split-hashed feature vectors for the structured decoder.
//!
//! The decoder scores candidate next-tokens with a linear model over sparse
//! features hashed into a fixed-size weight table (the hashing trick). Every
//! feature is a *(context, candidate)* pair — the context half describes the
//! decoding state (previous program tokens, position, sentence words), the
//! candidate half names the token being scored — and the two halves are
//! hashed **independently**:
//!
//! * the context half of every bucket is folded once per decode step into a
//!   reusable [`StepContext`] (sentence-dependent halves are folded once per
//!   *sentence* into a [`SentenceIndex`]);
//! * the candidate half is one 64-bit hash per token, cached alongside the
//!   compiled candidate tables, so scoring a candidate against all of its
//!   buckets is pure integer mixing ([`mix_bucket`]) — O(buckets +
//!   candidates) per step instead of the old monolithic scheme's O(buckets ×
//!   candidate-bytes) re-hashing of candidate text for every bucket.
//!
//! A trained parser serves its weights from [`AveragedWeights`], a compact
//! read-only table over the few buckets training touched, behind a presence
//! filter small enough to stay in L1 cache, so the common lookup of a bucket
//! training never touched costs one bit test. Decoding and training both
//! memoize the buckets that depend only on the sentence and the candidate
//! ([`SentenceIndex::candidate_buckets`]) with their values, and decoding
//! reads each successor's [`prev1_bucket`] value from the compiled
//! candidate tables, so a step mixes and looks up only the buckets that
//! depend on the step itself ([`StepContext::score_cached`]).
//!
//! [`candidate_buckets_reference`] is the straightforward monolithic
//! definition of the same feature scheme (hash everything from scratch for
//! every bucket); the golden test in this module pins the optimized path to
//! it bucket for bucket over a synthesized corpus.

use genie_nlp::intern::Symbol;

/// Number of weight buckets (2^22).
pub const FEATURE_BUCKETS: usize = 1 << 22;

/// Positions at or beyond this share one position feature, so decode steps
/// that differ only in such positions score alike.
pub const POSITION_CAP: usize = 24;

const BUCKET_MASK: u64 = (FEATURE_BUCKETS - 1) as u64;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold raw bytes into an FNV-1a state. `DefaultHasher` is deterministic per
/// process but not guaranteed across Rust versions, so the feature scheme
/// pins its own fixed hash. `const` so the tag states below fold at compile
/// time — a decode step only folds its *variable* halves.
#[inline]
const fn fold(mut state: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        state ^= bytes[i] as u64;
        state = state.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    state
}

/// Fold one string field, with a terminator so adjacent fields cannot alias
/// (`("ab", "c")` vs `("a", "bc")`).
#[inline]
const fn fold_str(state: u64, text: &str) -> u64 {
    fold(fold(state, text.as_bytes()), &[0xff])
}

/// The candidate-half hash of a token — a pure function of its text,
/// computed once and cached next to every compiled candidate list.
#[inline]
pub const fn cand_hash(text: &str) -> u64 {
    fold_str(FNV_OFFSET, text)
}

/// The candidate-half hash of the empty candidate (context-only features).
const EMPTY_CAND: u64 = cand_hash("");

/// Mix a context-half hash with a candidate-half hash into a weight bucket.
/// SplitMix64-style finalizer: both halves are plain FNV states, so the
/// avalanche here is what spreads nearby contexts across the table.
#[inline]
pub const fn mix_bucket(ctx: u64, cand: u64) -> usize {
    let mut z = ctx ^ cand.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z & BUCKET_MASK) as usize
}

// Context-half builders. Each is an FNV fold over a tag and the context
// fields; the reference implementation and the incremental path share these
// definitions, so they cannot drift apart. The tag states are compile-time
// constants — only the context *fields* fold at run time.

const CTX_BIAS: u64 = fold_str(FNV_OFFSET, "bias");
const CTX_PREV1_TAG: u64 = fold_str(FNV_OFFSET, "prev1");
const CTX_PREV2_TAG: u64 = fold_str(FNV_OFFSET, "prev2");
const CTX_POS_TAG: u64 = fold_str(FNV_OFFSET, "pos");
const CTX_COPY_TAG: u64 = fold_str(FNV_OFFSET, "copy");
const CTX_COPY_WORD: u64 = fold_str(FNV_OFFSET, "copy-word");
const CTX_PREV_COPIED: u64 = fold_str(FNV_OFFSET, "prev-copied");
const COPY_NEXT_BUCKET: usize = mix_bucket(fold_str(FNV_OFFSET, "copy-next"), EMPTY_CAND);
const CTX_WORD_TAG: u64 = fold_str(FNV_OFFSET, "word");

#[inline]
fn ctx_prev1(prev1: &str) -> u64 {
    fold_str(CTX_PREV1_TAG, prev1)
}

/// The `("prev1", prev1) × candidate` bucket: the one step-dependent
/// bucket that depends on no sentence, so its value can be compiled next to
/// each successor of `prev1`.
#[inline]
pub fn prev1_bucket(prev1: &str, cand_hash: u64) -> usize {
    mix_bucket(ctx_prev1(prev1), cand_hash)
}

#[inline]
fn ctx_prev2(prev2: &str, prev1: &str) -> u64 {
    fold_str(fold_str(CTX_PREV2_TAG, prev2), prev1)
}

#[inline]
fn ctx_pos(position: usize) -> u64 {
    fold(
        CTX_POS_TAG,
        &(position.min(POSITION_CAP) as u64).to_le_bytes(),
    )
}

#[inline]
fn ctx_copy(prev1: &str) -> u64 {
    fold_str(CTX_COPY_TAG, prev1)
}

#[inline]
fn ctx_word(word: &str) -> u64 {
    fold_str(CTX_WORD_TAG, word)
}

/// The feature buckets of one decoding context paired with one candidate,
/// computed monolithically (every hash from scratch). This is the
/// *definition* of the feature scheme:
///
/// * previous one and two program tokens (a program-LM-style feature);
/// * a position bucket;
/// * whether the candidate copies a word that occurs in the input (the
///   pointer feature), and whether a copied span continues;
/// * each content word of the input sentence (lexical → function/parameter
///   associations, the analogue of attention).
///
/// The production path ([`StepContext::for_each_bucket`]) must produce
/// exactly these buckets in exactly this order; the golden test pins it.
pub fn candidate_buckets_reference(
    sentence: &[&str],
    prev1: &str,
    prev2: &str,
    position: usize,
    candidate: &str,
    buckets: &mut Vec<usize>,
) {
    buckets.clear();
    let cand = cand_hash(candidate);
    buckets.push(mix_bucket(CTX_BIAS, cand));
    buckets.push(mix_bucket(ctx_prev1(prev1), cand));
    buckets.push(mix_bucket(ctx_prev2(prev2, prev1), cand));
    buckets.push(mix_bucket(ctx_pos(position), cand));
    if sentence.contains(&candidate) {
        buckets.push(mix_bucket(ctx_copy(prev1), EMPTY_CAND));
        buckets.push(mix_bucket(CTX_COPY_WORD, cand));
    }
    // Pointer-style span continuation: if the previous program token was
    // itself copied from the input, learn (independently of word identity)
    // whether to keep copying the next input word or to close the span.
    if sentence.contains(&prev1) {
        buckets.push(mix_bucket(CTX_PREV_COPIED, cand));
        let continues_span = sentence
            .windows(2)
            .any(|pair| pair[0] == prev1 && pair[1] == candidate);
        if continues_span {
            buckets.push(COPY_NEXT_BUCKET);
        }
    }
    for word in content_words(sentence) {
        buckets.push(mix_bucket(ctx_word(word), cand));
    }
}

/// The content words of a sentence used as lexical features (stop words and
/// very short tokens are skipped, and the list is capped to bound cost).
pub fn content_words<'a>(sentence: &'a [&'a str]) -> impl Iterator<Item = &'a str> {
    const STOP: &[&str] = &[
        "a", "an", "the", "to", "of", "in", "on", "at", "is", "are", "my", "me", "i", "and",
        "then", "please", "can", "you", "it", "that", "with", "for", "when", "if", ",", ".", "!",
        "?", "\"",
    ];
    sentence
        .iter()
        .copied()
        .filter(|w| w.len() > 1 && !STOP.contains(w))
        .take(12)
}

/// Everything the decoder needs to know about one input sentence, computed
/// **once** per decode or training example and reused by every step:
///
/// * the word set (sorted symbol ids) behind the copy-feature membership
///   tests — no more `sentence.contains(..)` text scans per candidate;
/// * the adjacent-pair set behind the span-continuation feature — no more
///   `windows(2)` scans per candidate;
/// * the distinct words in first-occurrence order, each with its cached
///   candidate-half hash (these become the copy candidates);
/// * the pre-folded `("word", w)` context halves of the content words.
///
/// Symbols resolve against the shared arena ([`genie_nlp::intern::shared`]),
/// the same arena every [`crate::ParserExample`] sentence lives in.
pub struct SentenceIndex {
    distinct: Vec<(Symbol, u64)>,
    sorted: Vec<Symbol>,
    pairs: Vec<(Symbol, Symbol)>,
    word_ctx: Vec<u64>,
}

impl SentenceIndex {
    /// Index a sentence (one resolve per word, no per-step text access).
    pub fn build(sentence: &[Symbol]) -> Self {
        let interner = genie_nlp::intern::shared();
        let texts: Vec<&str> = sentence.iter().map(|&s| interner.resolve(s)).collect();

        let mut distinct: Vec<(Symbol, u64)> = Vec::with_capacity(sentence.len());
        for (&symbol, &text) in sentence.iter().zip(&texts) {
            if !distinct.iter().any(|&(seen, _)| seen == symbol) {
                distinct.push((symbol, cand_hash(text)));
            }
        }
        let mut sorted: Vec<Symbol> = distinct.iter().map(|&(s, _)| s).collect();
        sorted.sort_unstable();
        let mut pairs: Vec<(Symbol, Symbol)> = sentence.windows(2).map(|w| (w[0], w[1])).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let word_ctx = content_words(&texts).map(ctx_word).collect();
        SentenceIndex {
            distinct,
            sorted,
            pairs,
            word_ctx,
        }
    }

    /// The distinct sentence words in first-occurrence order, with their
    /// cached candidate-half hashes — the copy-candidate list.
    #[inline]
    pub fn distinct_words(&self) -> &[(Symbol, u64)] {
        &self.distinct
    }

    /// Whether the sentence contains this word (symbol equality ⇔ text
    /// equality within one arena).
    #[inline]
    pub fn contains(&self, symbol: Symbol) -> bool {
        self.sorted.binary_search(&symbol).is_ok()
    }

    /// Whether `(a, b)` occur adjacently (in that order) in the sentence.
    #[inline]
    pub fn has_pair(&self, a: Symbol, b: Symbol) -> bool {
        self.pairs.binary_search(&(a, b)).is_ok()
    }

    /// How many buckets [`SentenceIndex::candidate_buckets`] visits per
    /// candidate.
    #[inline]
    pub fn candidate_bucket_count(&self) -> usize {
        3 + self.word_ctx.len()
    }

    /// Visit the buckets of the candidate with hash `cand_hash` that depend
    /// only on this sentence and the candidate, in bucket order: bias, copy-word, prev-copied,
    /// then one per content word. A step reads the copy-word slot only when
    /// the candidate is an input word, and the prev-copied slot only after
    /// a copied token. [`StepContext::score_cached`] adds their values back
    /// in [`StepContext::for_each_bucket`] order.
    #[inline]
    pub fn candidate_buckets(&self, cand_hash: u64, mut f: impl FnMut(usize)) {
        f(mix_bucket(CTX_BIAS, cand_hash));
        f(mix_bucket(CTX_COPY_WORD, cand_hash));
        f(mix_bucket(CTX_PREV_COPIED, cand_hash));
        for &word_ctx in &self.word_ctx {
            f(mix_bucket(word_ctx, cand_hash));
        }
    }
}

/// A presence filter over weight buckets: one bit per low-bit pattern of a
/// bucket, set by [`BucketFilter::insert`]. A clear bit proves that no
/// inserted bucket has those low bits, so a table behind the filter answers
/// "absent" with one bit test. Buckets are already the low bits of a mixed
/// hash ([`mix_bucket`]), so the low bits spread evenly. With
/// [`FEATURE_BUCKETS`] bits (512 KB) every bucket has its own bit and the
/// filter is exact.
///
/// The served table ([`AveragedWeights`]), the training table and each
/// training shard's delta all read through one.
pub(crate) struct BucketFilter {
    words: Box<[u64]>,
    mask: usize,
}

impl BucketFilter {
    /// An empty filter of `bits` bits, a power of two of at least 64.
    pub(crate) fn new(bits: usize) -> Self {
        assert!(
            bits.is_power_of_two() && bits >= 64,
            "filter size {bits} is not a power of two ≥ 64"
        );
        BucketFilter {
            words: vec![0; bits / 64].into_boxed_slice(),
            mask: bits - 1,
        }
    }

    /// The word and bit of a bucket.
    #[inline]
    fn bit(&self, bucket: usize) -> (usize, u64) {
        let bit = bucket & self.mask;
        (bit / 64, 1 << (bit % 64))
    }

    /// Record `bucket` as present.
    #[inline]
    pub(crate) fn insert(&mut self, bucket: usize) {
        let (word, bit) = self.bit(bucket);
        self.words[word] |= bit;
    }

    /// Whether some inserted bucket shares `bucket`'s bit. `false` is
    /// certain; `true` is certain only for an exact filter.
    #[inline]
    pub(crate) fn may_contain(&self, bucket: usize) -> bool {
        let (word, bit) = self.bit(bucket);
        self.words[word] & bit != 0
    }
}

/// The served perceptron parameters: the averaged weight of every bucket
/// training touched, in a read-only open-addressed table (linear probing,
/// load factor at most 1/4) behind a `BucketFilter`. A bucket missing
/// from the table reads as `+0.0`, the averaged weight of a bucket training
/// never touched.
///
/// Both structures index by the bucket's own low bits. Most lookups are for
/// buckets the table lacks. The filter, `next_power_of_two(8 × entries)`
/// bits (capped at [`FEATURE_BUCKETS`] bits; 32 KB for the benchmark
/// world's ~25k entries), is set for every stored bucket, so a clear bit
/// answers `+0.0` from a structure that stays in L1 cache, and only about
/// one absent bucket in eight reaches the 2 MB table. The table's 1/4 load
/// factor keeps the probes that do reach it, mostly hits, at their first
/// slot. A slot is 16 bytes and there are four to eight slots per nonzero
/// bucket, against 12 bytes for *every* bucket (48 MB) in a dense
/// per-bucket layout.
pub struct AveragedWeights {
    /// Holds every stored bucket.
    filter: BucketFilter,
    /// `(bucket, averaged weight)`; [`EMPTY_SLOT`] marks a free slot.
    slots: Box<[(u32, f64)]>,
    mask: usize,
}

/// The key of a free slot (no bucket reaches it: buckets are below
/// [`FEATURE_BUCKETS`]).
const EMPTY_SLOT: u32 = u32::MAX;

impl Default for AveragedWeights {
    /// The table of an untrained parser: every bucket reads `+0.0`.
    fn default() -> Self {
        AveragedWeights::build(std::iter::empty())
    }
}

impl AveragedWeights {
    /// Build the table from `(bucket, averaged weight)` pairs with
    /// distinct buckets below [`FEATURE_BUCKETS`].
    pub fn build(entries: impl ExactSizeIterator<Item = (u32, f64)>) -> Self {
        // At least one free slot always remains, so every probe ends.
        let capacity = (4 * entries.len()).next_power_of_two().max(1);
        let mask = capacity - 1;
        let mut filter = BucketFilter::new(
            (8 * entries.len())
                .next_power_of_two()
                .clamp(64, FEATURE_BUCKETS),
        );
        let mut slots = vec![(EMPTY_SLOT, 0.0); capacity].into_boxed_slice();
        for (bucket, value) in entries {
            filter.insert(bucket as usize);
            let mut slot = bucket as usize & mask;
            while slots[slot].0 != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            slots[slot] = (bucket, value);
        }
        AveragedWeights {
            filter,
            slots,
            mask,
        }
    }

    /// The averaged weight of `bucket` (`+0.0` when training never touched
    /// it).
    #[inline]
    pub fn get(&self, bucket: usize) -> f64 {
        if !self.filter.may_contain(bucket) {
            return 0.0;
        }
        let mut slot = bucket & self.mask;
        loop {
            let (key, value) = self.slots[slot];
            if key as usize == bucket {
                return value;
            }
            if key == EMPTY_SLOT {
                return 0.0;
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// The context halves of one decoding step, folded once and mixed against
/// every candidate. Construction resolves `prev1`/`prev2` text exactly once;
/// everything sentence-shaped comes pre-folded from the [`SentenceIndex`].
pub struct StepContext<'a> {
    index: &'a SentenceIndex,
    /// bias / prev1 / prev2 / position context halves.
    ctx_fixed: [u64; 4],
    /// Fully-mixed `("copy", prev1) × ""` bucket (candidate-independent).
    copy_bucket: usize,
    prev_copied: bool,
    prev1: Symbol,
    prev2: Symbol,
}

impl<'a> StepContext<'a> {
    /// Fold the step's context halves.
    pub fn new(index: &'a SentenceIndex, prev1: Symbol, prev2: Symbol, position: usize) -> Self {
        let interner = genie_nlp::intern::shared();
        let prev1_text = interner.resolve(prev1);
        let prev2_text = interner.resolve(prev2);
        StepContext {
            index,
            ctx_fixed: [
                CTX_BIAS,
                ctx_prev1(prev1_text),
                ctx_prev2(prev2_text, prev1_text),
                ctx_pos(position),
            ],
            copy_bucket: mix_bucket(ctx_copy(prev1_text), EMPTY_CAND),
            prev_copied: index.contains(prev1),
            prev1,
            prev2,
        }
    }

    /// The previous program token this step was folded for (scoring reads
    /// the conditioning pair back from here rather than threading it
    /// through every call).
    #[inline]
    pub fn prev1(&self) -> Symbol {
        self.prev1
    }

    /// The second-previous program token this step was folded for.
    #[inline]
    pub fn prev2(&self) -> Symbol {
        self.prev2
    }

    /// The sentence this step was folded for.
    #[inline]
    pub fn index(&self) -> &'a SentenceIndex {
        self.index
    }

    /// Visit every active bucket for one candidate — pure integer mixing of
    /// the pre-folded context halves with the candidate's cached hash, plus
    /// two O(log n) membership tests on the sentence index.
    #[inline]
    pub fn for_each_bucket(&self, candidate: Symbol, cand_hash: u64, mut f: impl FnMut(usize)) {
        for &ctx in &self.ctx_fixed {
            f(mix_bucket(ctx, cand_hash));
        }
        if self.index.contains(candidate) {
            f(self.copy_bucket);
            f(mix_bucket(CTX_COPY_WORD, cand_hash));
        }
        if self.prev_copied {
            f(mix_bucket(CTX_PREV_COPIED, cand_hash));
            if self.index.has_pair(self.prev1, candidate) {
                f(COPY_NEXT_BUCKET);
            }
        }
        for &word_ctx in &self.index.word_ctx {
            f(mix_bucket(word_ctx, cand_hash));
        }
    }

    /// The sum over this candidate's buckets, in
    /// [`StepContext::for_each_bucket`] order: `cached` holds one slot per
    /// [`SentenceIndex::candidate_buckets`] bucket, valued by `cached_value`,
    /// `prev1_value` is the value of the candidate's [`prev1_bucket`] when
    /// the caller has it compiled (`None` mixes and values it here), and
    /// the other step-dependent buckets are mixed and valued by `value`.
    /// With `value(b)`, `prev1_value` and `cached_value` of `b`'s slot equal
    /// to the value of `b`, the result is bit-identical to summing `value`
    /// over [`StepContext::for_each_bucket`]: the additions are the same
    /// and in the same order.
    #[inline]
    pub fn score_cached<T>(
        &self,
        candidate: Symbol,
        cand_hash: u64,
        prev1_value: Option<f64>,
        cached: &[T],
        cached_value: impl Fn(&T) -> f64,
        value: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut score = 0.0;
        score += cached_value(&cached[0]);
        score += prev1_value.unwrap_or_else(|| value(mix_bucket(self.ctx_fixed[1], cand_hash)));
        for &ctx in &self.ctx_fixed[2..] {
            score += value(mix_bucket(ctx, cand_hash));
        }
        if self.index.contains(candidate) {
            score += value(self.copy_bucket);
            score += cached_value(&cached[1]);
        }
        if self.prev_copied {
            score += cached_value(&cached[2]);
            if self.index.has_pair(self.prev1, candidate) {
                score += value(COPY_NEXT_BUCKET);
            }
        }
        for slot in &cached[3..] {
            score += cached_value(slot);
        }
        score
    }

    /// Collect the active buckets into a reusable buffer (the shape the
    /// perceptron updates need).
    pub fn collect_buckets(&self, candidate: Symbol, cand_hash: u64, buckets: &mut Vec<usize>) {
        buckets.clear();
        self.for_each_bucket(candidate, cand_hash, |bucket| buckets.push(bucket));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_nlp::intern::TokenStream;

    fn words(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn hashing_is_deterministic_and_bounded() {
        let a = mix_bucket(ctx_prev1("now"), cand_hash("=>"));
        let b = mix_bucket(ctx_prev1("now"), cand_hash("=>"));
        assert_eq!(a, b);
        assert!(a < FEATURE_BUCKETS);
        let c = mix_bucket(ctx_prev1("now"), cand_hash("notify"));
        assert_ne!(a, c);
    }

    #[test]
    fn candidate_buckets_include_lexical_features() {
        let sentence = words("post funny cat on facebook");
        let mut buckets = Vec::new();
        candidate_buckets_reference(
            &sentence,
            "now",
            "<s>",
            1,
            "@com.facebook.post",
            &mut buckets,
        );
        assert!(buckets.len() >= 6);
        let mut with_other_word = Vec::new();
        candidate_buckets_reference(
            &words("lock the front door"),
            "now",
            "<s>",
            1,
            "@com.facebook.post",
            &mut with_other_word,
        );
        assert_ne!(buckets, with_other_word);
    }

    #[test]
    fn copy_features_fire_only_for_input_words() {
        let sentence = words("play shake it off");
        let mut copy_buckets = Vec::new();
        candidate_buckets_reference(&sentence, "\"", "=", 5, "shake", &mut copy_buckets);
        let mut nocopy_buckets = Vec::new();
        candidate_buckets_reference(&sentence, "\"", "=", 5, "hello", &mut nocopy_buckets);
        assert!(copy_buckets.len() > nocopy_buckets.len());
    }

    #[test]
    fn content_words_drop_stopwords() {
        let sentence = words("please post the funny cat on my facebook");
        let content: Vec<&str> = content_words(&sentence).collect();
        assert!(content.contains(&"funny"));
        assert!(content.contains(&"facebook"));
        assert!(!content.contains(&"the"));
        assert!(!content.contains(&"please"));
    }

    /// The golden equivalence: the incremental split-hash path
    /// ([`SentenceIndex`] + [`StepContext`]) must reproduce the monolithic
    /// reference buckets **in order** for every (sentence, prev2, prev1,
    /// position, candidate) combination of a fixed corpus that exercises
    /// copies, span continuations, stop words and unseen candidates.
    #[test]
    fn split_hashing_matches_the_monolithic_reference() {
        let interner = genie_nlp::intern::shared();
        let sentences = [
            "post funny cat picture on facebook",
            "tweet hello brave new world",
            "play shake it off on spotify",
            "the the the of of",
            "lock my front door please",
        ];
        let contexts = [
            ("<s>", "<s>"),
            ("<s>", "now"),
            ("now", "=>"),
            ("\"", "hello"),
            ("hello", "brave"),
        ];
        let candidates = [
            "now",
            "=>",
            "notify",
            "</s>",
            "hello",
            "brave",
            "cat",
            "facebook",
            "unseen-token",
            "\"",
            "the",
        ];
        for sentence_text in sentences {
            let stream: TokenStream = interner.stream_of(sentence_text);
            let resolved: Vec<&str> = stream.iter().map(|s| interner.resolve(s)).collect();
            let index = SentenceIndex::build(&stream);
            for &(prev2, prev1) in &contexts {
                for position in [0usize, 3, 30] {
                    let step = StepContext::new(
                        &index,
                        interner.intern(prev1),
                        interner.intern(prev2),
                        position,
                    );
                    for candidate in candidates {
                        let mut reference = Vec::new();
                        candidate_buckets_reference(
                            &resolved,
                            prev1,
                            prev2,
                            position,
                            candidate,
                            &mut reference,
                        );
                        let mut fast = Vec::new();
                        step.collect_buckets(
                            interner.intern(candidate),
                            cand_hash(candidate),
                            &mut fast,
                        );
                        assert_eq!(
                            fast, reference,
                            "bucket mismatch: sentence={sentence_text:?} prev2={prev2:?} \
                             prev1={prev1:?} position={position} candidate={candidate:?}"
                        );
                    }
                }
            }
        }
    }

    /// The presence filter never hides a stored bucket: on seeded entry
    /// sets (empty, one entry, buckets that share filter bits or table
    /// slots, the first and last bucket) `get` equals a plain map lookup,
    /// bit for bit, on every present bucket and on a seeded sample of
    /// absent ones, including absent buckets whose filter bit is set.
    #[test]
    fn presence_filter_matches_a_plain_map() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        let mut rng = StdRng::seed_from_u64(0xf117e2);
        let last = FEATURE_BUCKETS - 1;
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(), vec![0], vec![last], vec![0, last]];
        for size in [1usize, 2, 7, 8, 9, 100, 3000, 40_000] {
            sets.push(
                (0..size)
                    .map(|_| rng.gen_range(0..FEATURE_BUCKETS))
                    .collect(),
            );
        }
        // Buckets equal in their low bits share a filter bit and a home
        // slot, whatever the table and filter sizes; runs of neighbours
        // share probe chains.
        for stride in [64usize, 1 << 10, 1 << 16, 1 << 21] {
            let base = rng.gen_range(0..stride);
            sets.push(
                (0..FEATURE_BUCKETS / stride)
                    .take(300)
                    .map(|i| base + i * stride)
                    .collect(),
            );
        }
        sets.push((0..200).chain(last - 200..=last).collect());

        for (set_number, mut buckets) in sets.into_iter().enumerate() {
            buckets.sort_unstable();
            buckets.dedup();
            let mut values = [0.0, -0.0, 1.0, -2.5, 0.125].into_iter().cycle();
            let plain: HashMap<usize, f64> = buckets
                .iter()
                .map(|&bucket| {
                    let value = values.next().unwrap() + f64::from(rng.gen_range(-3i8..3));
                    (bucket, value)
                })
                .collect();
            let table = AveragedWeights::build(plain.iter().map(|(&b, &v)| (b as u32, v)));
            let expect = |bucket: usize| plain.get(&bucket).copied().unwrap_or(0.0).to_bits();
            for &bucket in &buckets {
                assert_eq!(
                    table.get(bucket).to_bits(),
                    expect(bucket),
                    "set {set_number}"
                );
            }
            let filter_bits = table.filter.mask + 1;
            let mut absent: Vec<usize> = (0..2000)
                .map(|_| rng.gen_range(0..FEATURE_BUCKETS))
                .collect();
            for &bucket in buckets.iter().take(500) {
                absent.extend([
                    bucket ^ filter_bits,
                    bucket.wrapping_sub(1) & last,
                    (bucket + 1) & last,
                ]);
            }
            for bucket in absent {
                assert_eq!(
                    table.get(bucket).to_bits(),
                    expect(bucket),
                    "set {set_number}, bucket {bucket}"
                );
            }
        }
    }

    #[test]
    fn presence_filter_is_sized_from_the_entry_count() {
        let bits = |entries: usize| {
            let table = AveragedWeights::build((0..entries as u32).map(|b| (b * 7, 1.0)));
            (table.filter.mask + 1, table.filter.words.len() * 64)
        };
        assert_eq!(bits(0), (64, 64));
        assert_eq!(bits(1), (64, 64));
        assert_eq!(bits(24_637), (1 << 18, 1 << 18));
        // Capped at one bit per bucket.
        assert_eq!(
            AveragedWeights::build((0..530_000u32).map(|b| (b * 7, 1.0)))
                .filter
                .mask
                + 1,
            FEATURE_BUCKETS
        );
    }

    #[test]
    fn sentence_index_membership_matches_text_scans() {
        let interner = genie_nlp::intern::shared();
        let stream = interner.stream_of("play shake it off shake it");
        let index = SentenceIndex::build(&stream);
        assert!(index.contains(interner.intern("shake")));
        assert!(!index.contains(interner.intern("hello")));
        assert!(index.has_pair(interner.intern("shake"), interner.intern("it")));
        assert!(index.has_pair(interner.intern("it"), interner.intern("off")));
        assert!(!index.has_pair(interner.intern("off"), interner.intern("play")));
        // Distinct words keep first-occurrence order.
        let order: Vec<&str> = index
            .distinct_words()
            .iter()
            .map(|&(s, _)| interner.resolve(s))
            .collect();
        assert_eq!(order, vec!["play", "shake", "it", "off"]);
    }
}
