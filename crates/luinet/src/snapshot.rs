//! Flat, offset-based model snapshots: serialize a trained
//! [`LuinetParser`] once, load it in any process without re-training or
//! eagerly rebuilding the symbol-keyed tables.
//!
//! # Layout
//!
//! One little-endian buffer: the `GENSNAP1` magic and format version, the
//! fixed-width [`ModelConfig`] and counters, a [`StringTable`] section
//! holding every token text the model references exactly once, then the
//! tables — vocabulary (table ids in vocab-id order), sparse perceptron
//! weights (`(bucket, weight bits, total bits)` for exactly the buckets
//! the [`LuinetParser::weights_digest`] folds, in bucket order), the
//! transition [`ProgramLm`], the optional pretrained LM, and the compiled
//! per-`prev1` candidate tables **with their cached candidate-half feature
//! hashes** — so loading re-hashes nothing.
//!
//! # Loading is re-interning plus bulk reads
//!
//! [`Symbol`] values are process-history-dependent, so a snapshot never
//! stores raw arena ids: every symbol is a local id into the snapshot's own
//! string table. Load interns the table into the live arena in one bulk
//! pass (one hash per *distinct* token), then reconstructs every table by
//! mapping 4-byte local ids through that `Vec<Symbol>` — no per-entry text
//! parsing. The id-sorted membership index of each candidate table is the
//! one structure that genuinely depends on live arena ids; it is re-sorted
//! at load (`O(n log n)` over compiled successors, the same work the
//! crate-private `CompiledTransitions` does on a fresh compile). Each
//! successor's memo key and every compiled decode table over the served
//! weights are derived state too: the load's `install` binds them, so the
//! format stores none of them.
//!
//! # Guarantees
//!
//! Save → load preserves [`LuinetParser::weights_digest`] bit for bit
//! (weights are stored as their IEEE bit patterns, sparsely, over exactly
//! the digest's bucket set) and every prediction
//! ([`LuinetParser::predict_topk`] included). Serialization orders all
//! hash-map content by resolved text, so save → load → save is
//! byte-identical even across processes with different arena histories.

use std::collections::HashMap;
use std::path::Path;

use genie_nlp::colfmt::{
    self, put_f32, put_f64, put_u32, put_u64, put_u8, ColfmtError, ColfmtResult, LoadedTable,
    Reader, StringTable,
};
use genie_nlp::intern::{FnvState, Symbol};

use crate::features::{cand_hash, FEATURE_BUCKETS};
use crate::lm::ProgramLm;
use crate::model::{CompiledTransitions, LuinetParser, ModelConfig, Successor, SuccessorEntry};
use crate::vocab::{bos_symbol, eos_symbol, Vocab};

/// Magic bytes opening a model snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GENSNAP1";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Bytes of one stored weight entry: bucket `u32`, weight `f32`, total
/// `f64`.
const WEIGHT_ENTRY_BYTES: usize = 16;

/// Write-side symbol mapper: live arena [`Symbol`] → local string-table id,
/// assigning table ids in serialization order (which the text-sorted
/// section walks make process-history-independent).
struct SymbolWriter {
    interner: &'static genie_nlp::Interner,
    table: StringTable,
    ids: HashMap<Symbol, u32, FnvState>,
}

impl SymbolWriter {
    fn new() -> Self {
        SymbolWriter {
            interner: genie_nlp::intern::shared(),
            table: StringTable::new(),
            ids: HashMap::default(),
        }
    }

    fn id_of(&mut self, symbol: Symbol) -> u32 {
        if let Some(&id) = self.ids.get(&symbol) {
            return id;
        }
        let id = self.table.id_of(self.interner.resolve(symbol));
        self.ids.insert(symbol, id);
        id
    }

    fn resolve(&self, symbol: Symbol) -> &'static str {
        self.interner.resolve(symbol)
    }
}

/// Serialize a trained parser to its snapshot bytes.
pub fn to_bytes(parser: &LuinetParser) -> Vec<u8> {
    let mut syms = SymbolWriter::new();
    // The body is built first so the string table is complete before it is
    // written (the table section precedes the body in the file).
    let mut body = Vec::new();

    // Vocabulary, in id order (feeding these symbols back through
    // `Vocab::from_symbols` reproduces the exact token → id mapping).
    put_u32(&mut body, parser.vocab.symbols().len() as u32);
    for &symbol in parser.vocab.symbols() {
        let id = syms.id_of(symbol);
        put_u32(&mut body, id);
    }

    // Sparse averaged-perceptron state: exactly the buckets the digest
    // folds, in ascending bucket order, as raw IEEE bit patterns.
    put_u32(&mut body, parser.entries.len() as u32);
    for &(bucket, weight, total) in &parser.entries {
        put_u32(&mut body, bucket);
        put_f32(&mut body, weight);
        put_f64(&mut body, total);
    }

    // The transition model and the optional pretrained LM.
    write_lm(&mut body, &parser.transitions, &mut syms);
    match &parser.pretrained_lm {
        Some(lm) => {
            put_u8(&mut body, 1);
            write_lm(&mut body, lm, &mut syms);
        }
        None => put_u8(&mut body, 0),
    }

    // Compiled candidate tables: per prev1 (text order), the candidate list
    // in its scoring order with the cached candidate-half hashes. The
    // id-sorted membership index is re-derived at load — raw-id order does
    // not survive a process boundary.
    let mut entries: Vec<(&str, Symbol, &SuccessorEntry)> = parser
        .compiled
        .map
        .iter()
        .map(|(&prev, entry)| (syms.resolve(prev), prev, entry))
        .collect();
    entries.sort_unstable_by_key(|&(text, ..)| text);
    put_u32(&mut body, entries.len() as u32);
    for (_, prev, entry) in entries {
        let prev_id = syms.id_of(prev);
        put_u32(&mut body, prev_id);
        put_u32(&mut body, entry.candidates.len() as u32);
        for successor in entry.candidates.iter() {
            let token_id = syms.id_of(successor.token);
            put_u32(&mut body, token_id);
            put_u64(&mut body, successor.hash);
        }
    }

    // Header + config + counters + string table + body.
    let mut out = Vec::with_capacity(64 + body.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, parser.config.epochs as u64);
    put_u64(&mut out, parser.config.max_length as u64);
    put_f32(&mut out, parser.config.lm_weight);
    put_u64(&mut out, parser.config.seed);
    put_u64(&mut out, parser.config.threads as u64);
    put_u64(&mut out, parser.config.train_shards as u64);
    put_u64(&mut out, parser.trained_examples as u64);
    put_u64(&mut out, parser.updates);
    syms.table.append_to(&mut out);
    out.extend_from_slice(&body);
    out
}

/// Save a trained parser to a snapshot file.
pub fn save(parser: &LuinetParser, path: &Path) -> ColfmtResult<()> {
    // Sealed + atomic (write-temp → fsync → rename, trailing checksum): a
    // crash mid-save leaves the previous snapshot intact, and a torn write
    // is detected on load instead of misparsing. `snapshot.write` is the
    // chaos-harness failpoint.
    colfmt::write_artifact(path, &to_bytes(parser), "snapshot.write")
}

/// Reconstruct a parser from snapshot bytes.
pub fn from_bytes(buf: &[u8]) -> ColfmtResult<LuinetParser> {
    let mut reader = Reader::new(buf);
    reader.expect_magic(&SNAPSHOT_MAGIC, "model snapshot")?;
    reader.expect_version(SNAPSHOT_VERSION, "model snapshot")?;
    let config = ModelConfig {
        epochs: reader.u64()? as usize,
        max_length: reader.u64()? as usize,
        lm_weight: reader.f32()?,
        seed: reader.u64()?,
        threads: reader.u64()? as usize,
        train_shards: reader.u64()? as usize,
    };
    let trained_examples = reader.u64()? as usize;
    let updates = reader.u64()?;

    // One bulk re-intern: local table id → live arena symbol. Everything
    // after this maps 4-byte ids; no further text is hashed.
    let table = LoadedTable::read_section(&mut reader)?;
    let interner = genie_nlp::intern::shared();
    let symbols: Vec<Symbol> = table.iter().map(|text| interner.intern(text)).collect();

    // Vocabulary.
    let count = reader.u32()? as usize;
    let mut vocab_symbols = Vec::with_capacity(reader.capacity_hint(count, 4));
    for _ in 0..count {
        vocab_symbols.push(symbol_of(&symbols, reader.u32()?)?);
    }
    let vocab = Vocab::from_symbols(vocab_symbols);

    // The sparse weight entries, kept sparse. Buckets must be strictly
    // ascending: a repeated or out-of-order bucket would otherwise let a
    // later entry silently shadow an earlier one. All-zero entries (which
    // the writer never emits) carry no parameter and are dropped, so the
    // entries stay exactly the set the digest folds.
    let count = reader.u32()? as usize;
    let mut entries = Vec::with_capacity(reader.capacity_hint(count, WEIGHT_ENTRY_BYTES));
    let mut previous: Option<u32> = None;
    for _ in 0..count {
        let bucket = reader.u32()?;
        if bucket as usize >= FEATURE_BUCKETS {
            return Err(ColfmtError::Corrupt(format!(
                "model snapshot: weight bucket {bucket} out of range ({FEATURE_BUCKETS} buckets)"
            )));
        }
        if let Some(previous) = previous.filter(|&previous| bucket <= previous) {
            return Err(ColfmtError::Corrupt(format!(
                "model snapshot: weight bucket {bucket} after bucket {previous} \
                 (entries must be strictly ascending)"
            )));
        }
        previous = Some(bucket);
        let weight = reader.f32()?;
        let total = reader.f64()?;
        if weight != 0.0 || total != 0.0 {
            entries.push((bucket, weight, total));
        }
    }

    let transitions = read_lm(&mut reader, &symbols)?;
    let pretrained_lm = match reader.u8()? {
        0 => None,
        1 => Some(read_lm(&mut reader, &symbols)?),
        other => {
            return Err(ColfmtError::Corrupt(format!(
                "model snapshot: pretrained-LM tag must be 0 or 1, found {other}"
            )))
        }
    };

    // Compiled candidate tables: candidates (with cached hashes) are read
    // verbatim in their stored scoring order; the membership index is the
    // one live-id-dependent structure and is re-sorted here.
    let count = reader.u32()? as usize;
    let mut map: HashMap<Symbol, SuccessorEntry, FnvState> =
        HashMap::with_capacity_and_hasher(reader.capacity_hint(count, 8), FnvState::default());
    for _ in 0..count {
        let prev = symbol_of(&symbols, reader.u32()?)?;
        let candidate_count = reader.u32()? as usize;
        let mut candidates = Vec::with_capacity(reader.capacity_hint(candidate_count, 12));
        for _ in 0..candidate_count {
            let token = symbol_of(&symbols, reader.u32()?)?;
            let hash = reader.u64()?;
            candidates.push(Successor::unbound(token, hash));
        }
        let mut members: Vec<Symbol> = candidates.iter().map(|successor| successor.token).collect();
        members.sort_unstable();
        map.insert(
            prev,
            SuccessorEntry {
                candidates: candidates.into_boxed_slice(),
                members: members.into_boxed_slice(),
            },
        );
    }
    if !reader.is_done() {
        return Err(ColfmtError::Corrupt(format!(
            "model snapshot: {} trailing bytes after the candidate tables",
            reader.remaining()
        )));
    }

    let mut parser = LuinetParser {
        config,
        vocab,
        entries: Vec::new(),
        averaged: Default::default(),
        updates,
        transitions,
        compiled: CompiledTransitions::from_map(map),
        pretrained_lm,
        trained_examples,
        bos: bos_symbol(),
        eos: eos_symbol(),
        eos_hash: cand_hash(crate::vocab::EOS),
    };
    parser.install(entries);
    Ok(parser)
}

/// Load a parser from a snapshot file.
pub fn load(path: &Path) -> ColfmtResult<LuinetParser> {
    let bytes = colfmt::read_artifact(path, "snapshot.read")?;
    from_bytes(&bytes)
}

fn symbol_of(symbols: &[Symbol], id: u32) -> ColfmtResult<Symbol> {
    symbols.get(id as usize).copied().ok_or_else(|| {
        ColfmtError::Corrupt(format!(
            "model snapshot: symbol id {id} out of range (table holds {} strings)",
            symbols.len()
        ))
    })
}

/// Serialize one [`ProgramLm`]: counters, then each count table with its
/// entries sorted by resolved text (so the bytes are independent of hash-map
/// iteration order and of the live arena's id assignment), then the
/// successor lists — prev-keys text-sorted, each *list* verbatim, because
/// first-observation order is API-visible through
/// [`ProgramLm::successor_symbols`].
fn write_lm(body: &mut Vec<u8>, lm: &ProgramLm, syms: &mut SymbolWriter) {
    put_f64(body, lm.total_tokens);
    put_u64(body, lm.trained_programs as u64);

    let mut unigrams: Vec<(&str, Symbol, f64)> = lm
        .unigram
        .iter()
        .map(|(&token, &count)| (syms.resolve(token), token, count))
        .collect();
    unigrams.sort_unstable_by_key(|&(text, ..)| text);
    put_u32(body, unigrams.len() as u32);
    for (_, token, count) in unigrams {
        let id = syms.id_of(token);
        put_u32(body, id);
        put_f64(body, count);
    }

    // Each row is (sort key of resolved texts, the symbols, the count).
    type BigramRow<'a> = ((&'a str, &'a str), (Symbol, Symbol), f64);
    let mut bigrams: Vec<BigramRow> = lm
        .bigram
        .iter()
        .map(|(&(a, b), &count)| ((syms.resolve(a), syms.resolve(b)), (a, b), count))
        .collect();
    bigrams.sort_unstable_by_key(|&(key, ..)| key);
    put_u32(body, bigrams.len() as u32);
    for (_, (a, b), count) in bigrams {
        let a = syms.id_of(a);
        put_u32(body, a);
        let b = syms.id_of(b);
        put_u32(body, b);
        put_f64(body, count);
    }

    type TrigramRow<'a> = ((&'a str, &'a str, &'a str), (Symbol, Symbol, Symbol), f64);
    let mut trigrams: Vec<TrigramRow> = lm
        .trigram
        .iter()
        .map(|(&(a, b, c), &count)| {
            (
                (syms.resolve(a), syms.resolve(b), syms.resolve(c)),
                (a, b, c),
                count,
            )
        })
        .collect();
    trigrams.sort_unstable_by_key(|&(key, ..)| key);
    put_u32(body, trigrams.len() as u32);
    for (_, (a, b, c), count) in trigrams {
        let a = syms.id_of(a);
        put_u32(body, a);
        let b = syms.id_of(b);
        put_u32(body, b);
        let c = syms.id_of(c);
        put_u32(body, c);
        put_f64(body, count);
    }

    let mut successors: Vec<(&str, Symbol, &Vec<Symbol>)> = lm
        .successors
        .iter()
        .map(|(&prev, list)| (syms.resolve(prev), prev, list))
        .collect();
    successors.sort_unstable_by_key(|&(text, ..)| text);
    put_u32(body, successors.len() as u32);
    for (_, prev, list) in successors {
        let prev_id = syms.id_of(prev);
        put_u32(body, prev_id);
        put_u32(body, list.len() as u32);
        for &token in list {
            let id = syms.id_of(token);
            put_u32(body, id);
        }
    }
}

/// Rebuild one [`ProgramLm`]. The `successor_seen` membership index is
/// derived from the successor lists rather than stored — it is exactly the
/// pair set the lists already encode.
fn read_lm(reader: &mut Reader<'_>, symbols: &[Symbol]) -> ColfmtResult<ProgramLm> {
    let mut lm = ProgramLm::new();
    lm.total_tokens = reader.f64()?;
    lm.trained_programs = reader.u64()? as usize;

    let count = reader.u32()? as usize;
    lm.unigram.reserve(reader.capacity_hint(count, 12));
    for _ in 0..count {
        let token = symbol_of(symbols, reader.u32()?)?;
        lm.unigram.insert(token, reader.f64()?);
    }

    let count = reader.u32()? as usize;
    lm.bigram.reserve(reader.capacity_hint(count, 16));
    for _ in 0..count {
        let a = symbol_of(symbols, reader.u32()?)?;
        let b = symbol_of(symbols, reader.u32()?)?;
        lm.bigram.insert((a, b), reader.f64()?);
    }

    let count = reader.u32()? as usize;
    lm.trigram.reserve(reader.capacity_hint(count, 20));
    for _ in 0..count {
        let a = symbol_of(symbols, reader.u32()?)?;
        let b = symbol_of(symbols, reader.u32()?)?;
        let c = symbol_of(symbols, reader.u32()?)?;
        lm.trigram.insert((a, b, c), reader.f64()?);
    }

    let count = reader.u32()? as usize;
    lm.successors.reserve(reader.capacity_hint(count, 8));
    for _ in 0..count {
        let prev = symbol_of(symbols, reader.u32()?)?;
        let list_len = reader.u32()? as usize;
        let mut list = Vec::with_capacity(reader.capacity_hint(list_len, 4));
        for _ in 0..list_len {
            let token = symbol_of(symbols, reader.u32()?)?;
            lm.successor_seen.insert((prev, token));
            list.push(token);
        }
        lm.successors.insert(prev, list);
    }
    Ok(lm)
}

impl LuinetParser {
    /// Serialize this trained parser to a snapshot file (see
    /// [`mod@crate::snapshot`]).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> ColfmtResult<()> {
        save(self, path.as_ref())
    }

    /// Reconstruct a parser from a snapshot file (see
    /// [`mod@crate::snapshot`]).
    pub fn load_snapshot(path: impl AsRef<Path>) -> ColfmtResult<LuinetParser> {
        load(path.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ParserExample;

    fn training_set() -> Vec<ParserExample> {
        let mut out = Vec::new();
        for (word, function) in [
            ("twitter", "@com.twitter.timeline"),
            ("gmail", "@com.gmail.inbox"),
            ("dropbox", "@com.dropbox.list_folder"),
        ] {
            out.push(ParserExample::from_strs(
                &format!("show me my {word} stuff"),
                &format!("now => {function} ( ) => notify"),
            ));
            out.push(ParserExample::from_strs(
                &format!("monitor my {word} stuff"),
                &format!("monitor ( {function} ( ) ) => notify"),
            ));
        }
        out
    }

    fn trained_parser() -> LuinetParser {
        let mut lm = ProgramLm::new();
        let programs: Vec<Vec<String>> = training_set().into_iter().map(|e| e.program).collect();
        lm.train(&programs);
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 8,
            seed: 3,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(lm);
        parser.train(&training_set());
        parser
    }

    #[test]
    fn roundtrip_preserves_digest_predictions_and_bytes() {
        let parser = trained_parser();
        let bytes = to_bytes(&parser);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded.weights_digest(), parser.weights_digest());
        assert_eq!(loaded.trained_examples(), parser.trained_examples());
        assert_eq!(loaded.vocab().len(), parser.vocab().len());
        let examples = training_set();
        for example in &examples {
            assert_eq!(
                loaded.predict_topk(&example.sentence, 3),
                parser.predict_topk(&example.sentence, 3)
            );
        }
        assert_eq!(
            loaded.exact_match_accuracy(&examples),
            parser.exact_match_accuracy(&examples)
        );
        // Deterministic serialization: save → load → save is byte-identical.
        assert_eq!(to_bytes(&loaded), bytes);
    }

    #[test]
    fn untrained_parser_roundtrips() {
        let parser = LuinetParser::new(ModelConfig::default());
        let loaded = from_bytes(&to_bytes(&parser)).unwrap();
        assert_eq!(loaded.weights_digest(), parser.weights_digest());
        assert_eq!(loaded.trained_examples(), 0);
        assert!(loaded.vocab().is_empty());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("luinet-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let parser = trained_parser();
        parser.save_snapshot(&path).unwrap();
        let loaded = LuinetParser::load_snapshot(&path).unwrap();
        assert_eq!(loaded.weights_digest(), parser.weights_digest());
        assert!(matches!(
            load(&dir.join("missing.snap")),
            Err(ColfmtError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A repeated or out-of-order weight bucket is a typed error, never a
    /// later entry silently shadowing an earlier one.
    #[test]
    fn weight_buckets_must_be_strictly_ascending() {
        let parser = trained_parser();
        assert!(parser.entries.len() >= 2);
        let mut swapped = trained_parser();
        swapped.entries.swap(0, 1);
        let mut repeated = trained_parser();
        repeated.entries[1].0 = repeated.entries[0].0;
        for (name, bad) in [("swapped", swapped), ("repeated", repeated)] {
            match from_bytes(&to_bytes(&bad)) {
                Err(ColfmtError::Corrupt(detail)) => {
                    assert!(detail.contains("strictly ascending"), "{name}: {detail}");
                }
                other => panic!("{name}: expected Corrupt, got Ok? {:?}", other.is_ok()),
            }
        }
    }

    /// A weight count far beyond what the buffer holds fails as truncated
    /// input; the entry vector is sized by what the remaining bytes can
    /// hold, not by the claimed count (4 billion entries would be 64 GB).
    #[test]
    fn a_huge_weight_count_is_corrupt_without_a_huge_allocation() {
        let mut parser = LuinetParser::new(ModelConfig::default());
        let empty = to_bytes(&parser);
        parser.entries.push((7, 1.0, 0.0));
        let one = to_bytes(&parser);
        // The two layouts first differ at the weight count's low byte.
        let at = empty.iter().zip(&one).position(|(a, b)| a != b).unwrap();
        let mut bytes = empty;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(ColfmtError::Corrupt(_))));
    }

    #[test]
    fn corrupt_snapshots_are_typed_errors() {
        let parser = trained_parser();
        let bytes = to_bytes(&parser);
        // Every truncation fails with Corrupt, never panics (step 97 keeps
        // the loop fast over the multi-hundred-KB buffer).
        for len in (0..bytes.len()).step_by(97) {
            match from_bytes(&bytes[..len]) {
                Err(ColfmtError::Corrupt(_)) => {}
                other => panic!(
                    "prefix of {len} bytes: expected Corrupt, got Ok? {:?}",
                    other.is_ok()
                ),
            }
        }
        // Bad magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(from_bytes(&wrong), Err(ColfmtError::Corrupt(_))));
        // Trailing garbage.
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(from_bytes(&padded), Err(ColfmtError::Corrupt(_))));
    }
}
