//! World bundles: one sealed binary artifact holding a complete versioned
//! world — library, synthesis memo (pool digests + `(rule, batch)` work
//! items with their pool draws), and the trained LUInet snapshot.
//!
//! A restarted server (or a freshly resyncing replica) recovers by loading
//! the bundle at version `V` and replaying journal records `> V`, instead
//! of re-synthesizing from scratch. The layout is colfmt-style
//! little-endian sections:
//!
//! ```text
//! "GENBNDL1" | u32 format | u64 world_version | u64 config_digest
//!            | library (classes + spliced template vec)
//!            | pool digests (6 × u32 count + u64 entries)
//!            | batch records (draws, fingerprints, candidates)
//!            | u64 len + LUInet snapshot payload
//! ```
//!
//! Candidate utterances are stored as rendered text and re-interned into a
//! fresh arena at load — sound because replay renders through the memo
//! arena and re-interns into each rebuild's arena anyway (dedup keys are
//! injective per arena, so absolute symbol ids never matter). Candidate
//! flags are recomputed from the decoded program. Writes ride the shared
//! sealed discipline ([`genie_nlp::sealed::write_artifact`]) under the
//! `bundle.write` failpoint; a torn write is *detected* at the next load
//! and recovery falls back to cold bootstrap + full journal replay.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use genie_nlp::colfmt::{put_u32, put_u64, put_u8, ColfmtError, ColfmtResult, Reader};
use genie_nlp::sealed;
use genie_templates::{
    BatchRecord, Interner, PoolDigests, PoolDraw, PoolId, RuleRegistry, SynthesizedExample,
    TokenStream,
};
use thingpedia::{ParamDatasets, Thingpedia};
use thingtalk::syntax::parse_program;

use super::journal::{decode_class, decode_template, encode_class, encode_template, read_str};
use super::SynthesisMemo;
use crate::error::{Error, GenieResult};

/// Magic bytes opening a world bundle.
pub const BUNDLE_MAGIC: [u8; 8] = *b"GENBNDL1";
/// Bundle format version.
pub const BUNDLE_FORMAT: u32 = 2;

/// A decoded world bundle, ready to install.
pub struct WorldBundle {
    /// The world version the bundle snapshots.
    pub world_version: u64,
    /// Digest of the (pipeline, model, options) configuration the world was
    /// built under; a mismatch at load forces cold bootstrap (the memo and
    /// model are config-scoped).
    pub config_digest: u64,
    /// The skill library, template splice order preserved exactly.
    pub library: Thingpedia,
    /// The snapshot arena the decoded candidates were re-interned into.
    pub arena: Arc<Interner>,
    /// Per-entry pool content digests at build time.
    pub digests: PoolDigests,
    /// Every memoized `(rule, batch)` work item.
    pub batches: HashMap<(u64, u64), BatchRecord>,
    /// The serialized LUInet parser ([`luinet::snapshot::to_bytes`]).
    pub snapshot: Vec<u8>,
}

impl WorldBundle {
    /// Consume the bundle into the pieces [`super::LiveWorld`] installs:
    /// library, synthesis memo, and snapshot bytes.
    pub(super) fn into_parts(self) -> (Arc<Thingpedia>, SynthesisMemo, Vec<u8>, u64) {
        (
            Arc::new(self.library),
            SynthesisMemo {
                arena: self.arena,
                digests: self.digests,
                batches: self.batches,
            },
            self.snapshot,
            self.world_version,
        )
    }
}

/// Encode a world into bundle payload bytes (unsealed).
pub(super) fn encode(
    world_version: u64,
    config_digest: u64,
    library: &Thingpedia,
    memo: &SynthesisMemo,
    snapshot: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&BUNDLE_MAGIC);
    put_u32(&mut out, BUNDLE_FORMAT);
    put_u64(&mut out, world_version);
    put_u64(&mut out, config_digest);
    // Library: classes in name order, then the template vec verbatim — the
    // splice order is part of the synthesis identity.
    let classes: Vec<_> = library.classes().collect();
    put_u32(&mut out, classes.len() as u32);
    for class in classes {
        encode_class(&mut out, class);
    }
    put_u32(&mut out, library.templates().len() as u32);
    for template in library.templates() {
        encode_template(&mut out, template);
    }
    // Pool digests, PoolId::ALL order.
    for entries in memo.digests.entries() {
        put_u32(&mut out, entries.len() as u32);
        for digest in entries {
            put_u64(&mut out, *digest);
        }
    }
    // Batch records, sorted by key so the artifact is byte-stable.
    let mut keys: Vec<(u64, u64)> = memo.batches.keys().copied().collect();
    keys.sort_unstable();
    put_u32(&mut out, keys.len() as u32);
    for key in keys {
        let record = &memo.batches[&key];
        put_u64(&mut out, record.rule_id);
        put_u64(&mut out, record.batch);
        put_u8(&mut out, u8::from(record.provided));
        put_u32(&mut out, record.draws.len() as u32);
        for draw in &record.draws {
            put_u8(&mut out, draw.pool.index() as u8);
            put_u32(&mut out, draw.index);
        }
        put_u32(&mut out, record.fingerprints.len() as u32);
        for (a, b) in &record.fingerprints {
            put_u64(&mut out, *a);
            put_u64(&mut out, *b);
        }
        put_u32(&mut out, record.candidates.len() as u32);
        for candidate in &record.candidates {
            encode_candidate(&mut out, candidate, &memo.arena);
        }
    }
    put_u64(&mut out, snapshot.len() as u64);
    out.extend_from_slice(snapshot);
    out
}

fn encode_candidate(out: &mut Vec<u8>, candidate: &SynthesizedExample, arena: &Interner) {
    super::journal::put_str(out, &arena.render(&candidate.utterance));
    super::journal::put_str(out, &candidate.program.to_string());
    put_u32(out, candidate.depth as u32);
    super::journal::put_str(out, candidate.construct);
}

/// Decode bundle payload bytes into an installable world.
pub fn decode(payload: &[u8]) -> GenieResult<WorldBundle> {
    decode_inner(payload).map_err(Error::from)
}

fn decode_inner(payload: &[u8]) -> ColfmtResult<WorldBundle> {
    let mut reader = Reader::new(payload);
    reader.expect_magic(&BUNDLE_MAGIC, "world bundle")?;
    reader.expect_version(BUNDLE_FORMAT, "world bundle")?;
    let world_version = reader.u64()?;
    let config_digest = reader.u64()?;
    let class_count = reader.u32()? as usize;
    let mut classes = Vec::with_capacity(reader.capacity_hint(class_count, 8));
    for _ in 0..class_count {
        classes.push(decode_class(&mut reader)?);
    }
    let template_count = reader.u32()? as usize;
    let mut templates = Vec::with_capacity(reader.capacity_hint(template_count, 8));
    for _ in 0..template_count {
        templates.push(decode_template(&mut reader)?);
    }
    let library = Thingpedia::from_parts(classes, templates);
    let mut entries: [Vec<u64>; 6] = Default::default();
    for slot in &mut entries {
        let count = reader.u32()? as usize;
        *slot = reader.u64_vec(count, "pool digests")?;
    }
    let digests = PoolDigests::from_entries(entries);
    // A fresh arena pre-seeded for the decoded library: candidates
    // re-intern below, and future deltas diff against it exactly as they
    // would against the bootstrap arena.
    let arena = genie_templates::intern::fresh(&library, ParamDatasets::builtin());
    let constructs = construct_labels();
    let batch_count = reader.u32()? as usize;
    let mut batches = HashMap::with_capacity(reader.capacity_hint(batch_count, 16));
    for _ in 0..batch_count {
        let rule_id = reader.u64()?;
        let batch = reader.u64()?;
        let provided = reader.u8()? != 0;
        let draw_count = reader.u32()? as usize;
        let mut draws = Vec::with_capacity(reader.capacity_hint(draw_count, 5));
        for _ in 0..draw_count {
            let pool_index = reader.u8()? as usize;
            let pool = *PoolId::ALL
                .get(pool_index)
                .ok_or_else(|| ColfmtError::Corrupt(format!("unknown pool index {pool_index}")))?;
            let index = reader.u32()?;
            draws.push(PoolDraw { pool, index });
        }
        let fp_count = reader.u32()? as usize;
        let mut fingerprints = Vec::with_capacity(reader.capacity_hint(fp_count, 16));
        for _ in 0..fp_count {
            fingerprints.push((reader.u64()?, reader.u64()?));
        }
        let candidate_count = reader.u32()? as usize;
        let mut candidates = Vec::with_capacity(reader.capacity_hint(candidate_count, 16));
        for _ in 0..candidate_count {
            candidates.push(decode_candidate(&mut reader, &arena, &constructs)?);
        }
        batches.insert(
            (rule_id, batch),
            BatchRecord {
                rule_id,
                batch,
                candidates,
                fingerprints,
                draws,
                provided,
            },
        );
    }
    let snapshot_len = reader.u64()? as usize;
    let snapshot = reader.u8_vec(snapshot_len, "luinet snapshot")?;
    if !reader.is_done() {
        return Err(ColfmtError::Corrupt(format!(
            "world bundle has {} trailing bytes",
            reader.remaining()
        )));
    }
    Ok(WorldBundle {
        world_version,
        config_digest,
        library,
        arena,
        digests,
        batches,
        snapshot,
    })
}

fn decode_candidate(
    reader: &mut Reader<'_>,
    arena: &Interner,
    constructs: &HashMap<&'static str, &'static str>,
) -> ColfmtResult<SynthesizedExample> {
    let text = read_str(reader, "candidate utterance")?;
    let source = read_str(reader, "candidate program")?;
    let depth = reader.u32()? as usize;
    let label = read_str(reader, "candidate construct")?;
    let construct = *constructs
        .get(label.as_str())
        .ok_or_else(|| ColfmtError::Corrupt(format!("unknown construct label `{label}`")))?;
    let program = parse_program(&source)
        .map_err(|error| ColfmtError::Corrupt(format!("candidate program `{source}`: {error}")))?;
    let mut utterance = TokenStream::with_capacity(8);
    arena.intern_words(&text, &mut utterance);
    Ok(SynthesizedExample::new(
        utterance, program, depth, construct,
    ))
}

/// The `&'static str` identity map for construct labels: serialized labels
/// decode back onto the registry's static strings.
fn construct_labels() -> HashMap<&'static str, &'static str> {
    RuleRegistry::builtin()
        .rules()
        .iter()
        .map(|rule| (rule.label(), rule.label()))
        .collect()
}

/// Seal and atomically persist bundle payload bytes (the `bundle.write`
/// failpoint site).
///
/// # Errors
///
/// [`Error::Io`] when the write fails or a fault is injected.
pub(super) fn save(path: &Path, payload: &[u8]) -> GenieResult<()> {
    sealed::write_artifact(path, payload, "bundle.write").map_err(Error::from)
}

/// Read and unseal the bundle at `path`, then decode it (the `bundle.read`
/// failpoint site).
///
/// # Errors
///
/// [`Error::Io`] when unreadable, [`Error::CorruptArtifact`] when torn or
/// malformed — recovery treats both as "no usable bundle" and falls back to
/// cold bootstrap + full journal replay.
pub fn load(path: &Path) -> GenieResult<WorldBundle> {
    let payload = sealed::read_artifact(path, "bundle.read").map_err(Error::from)?;
    decode(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveWorld;
    use crate::paraphrase::ParaphraseConfig;
    use crate::pipeline::PipelineConfig;
    use genie_templates::GeneratorConfig;
    use luinet::ModelConfig;

    /// Encode → decode → re-encode must be a byte fixed point: the memo a
    /// recovered world replays from must be indistinguishable from the one
    /// the live world held, or replay diverges from the served digest.
    #[test]
    fn the_bundle_codec_is_a_byte_fixed_point() {
        let pipeline = PipelineConfig::builder()
            .synthesis(
                GeneratorConfig::builder()
                    .target_per_rule(10)
                    .max_depth(4)
                    .instantiations_per_template(1)
                    .seed(7)
                    .threads(1)
                    .shards(4)
                    .quiet(true)
                    .build()
                    .unwrap(),
            )
            .paraphrase(
                ParaphraseConfig::builder()
                    .per_sentence(1)
                    .error_rate(0.0)
                    .seed(7)
                    .build()
                    .unwrap(),
            )
            .paraphrase_sample(20)
            .parameter_expansion(false)
            .seed(7)
            .build()
            .unwrap();
        let model = ModelConfig {
            epochs: 2,
            seed: 7,
            threads: 1,
            ..ModelConfig::default()
        };
        let world =
            LiveWorld::bootstrap(thingpedia::Thingpedia::builtin(), pipeline, model).unwrap();
        let state = world.state.lock().unwrap();
        let snapshot = luinet::snapshot::to_bytes(&world.engine.model());
        let first = encode(1, 0xABCD, &state.library, &state.memo, &snapshot);
        let decoded = decode(&first).unwrap();
        let (library, memo, snapshot, version) = decoded.into_parts();
        assert_eq!(version, 1);
        let second = encode(1, 0xABCD, &library, &memo, &snapshot);
        assert_eq!(first.len(), second.len(), "bundle re-encode changed length");
        let diverges_at = first.iter().zip(second.iter()).position(|(a, b)| a != b);
        assert_eq!(
            diverges_at,
            None,
            "bundle re-encode diverges at byte {diverges_at:?} of {}",
            first.len()
        );
    }
}

#[cfg(test)]
mod memo_fidelity {
    use super::*;
    use crate::live::LiveWorld;
    use crate::paraphrase::ParaphraseConfig;
    use crate::pipeline::PipelineConfig;
    use genie_templates::GeneratorConfig;
    use luinet::ModelConfig;

    #[test]
    fn decoded_candidates_equal_the_live_ones() {
        let pipeline = PipelineConfig::builder()
            .synthesis(
                GeneratorConfig::builder()
                    .target_per_rule(10)
                    .max_depth(4)
                    .instantiations_per_template(1)
                    .seed(7)
                    .threads(1)
                    .shards(4)
                    .quiet(true)
                    .build()
                    .unwrap(),
            )
            .paraphrase(
                ParaphraseConfig::builder()
                    .per_sentence(1)
                    .error_rate(0.0)
                    .seed(7)
                    .build()
                    .unwrap(),
            )
            .paraphrase_sample(20)
            .parameter_expansion(false)
            .seed(7)
            .build()
            .unwrap();
        let model = ModelConfig {
            epochs: 1,
            seed: 7,
            threads: 1,
            ..ModelConfig::default()
        };
        let world =
            LiveWorld::bootstrap(thingpedia::Thingpedia::builtin(), pipeline, model).unwrap();
        let state = world.state.lock().unwrap();
        let snapshot = luinet::snapshot::to_bytes(&world.engine.model());
        let bytes = encode(1, 0xABCD, &state.library, &state.memo, &snapshot);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.batches.len(), state.memo.batches.len());
        for (key, original) in &state.memo.batches {
            let replica = decoded.batches.get(key).expect("batch survived");
            assert_eq!(
                original.candidates.len(),
                replica.candidates.len(),
                "{key:?}"
            );
            for (a, b) in original.candidates.iter().zip(&replica.candidates) {
                assert_eq!(
                    state.memo.arena.render(&a.utterance),
                    decoded.arena.render(&b.utterance),
                    "utterance text {key:?}"
                );
                assert_eq!(a.utterance.len(), b.utterance.len(), "token count {key:?}");
                assert_eq!(a.depth, b.depth, "depth {key:?}");
                assert_eq!(a.construct, b.construct, "construct {key:?}");
                assert_eq!(a.flags, b.flags, "flags {key:?}");
                assert_eq!(
                    a.program.to_string(),
                    b.program.to_string(),
                    "program text {key:?}"
                );
                assert_eq!(a.program, b.program, "program AST {key:?}");
            }
            assert_eq!(original.fingerprints, replica.fingerprints, "{key:?}");
            assert_eq!(original.draws, replica.draws, "{key:?}");
            assert_eq!(original.provided, replica.provided, "{key:?}");
        }
        assert_eq!(state.memo.digests.entries(), decoded.digests.entries());

        // The decisive check: rebuilding the next version from the decoded
        // memo must produce the same weights as rebuilding from the live
        // one — this is exactly what journal replay over a stale bundle
        // does.
        let delta = {
            let class = thingtalk::syntax::parse_class(
                "class @com.test.lights { action set_power(in req power : Enum(on, off)); }",
            )
            .unwrap();
            let template = thingpedia::PrimitiveTemplate::new(
                &class.name,
                "set_power",
                thingpedia::PhraseCategory::VerbPhrase,
                "flip the test lights $power".to_owned(),
            );
            crate::SkillDelta::Upsert {
                class,
                templates: vec![template],
            }
        };
        let mut patched = (*state.library).clone();
        delta.apply(&mut patched);
        let (library2, memo2, _, _) = decoded.into_parts();
        for (a, b) in state.library.classes().zip(library2.classes()) {
            assert_eq!(a, b, "class `{}` lost fidelity through the bundle", a.name);
        }
        assert_eq!(
            state.library.templates(),
            library2.templates(),
            "template vec lost fidelity through the bundle"
        );
        let live_build = super::super::build_world(
            &patched,
            &world.pipeline,
            &world.model,
            world.options,
            Some(&state.memo),
            super::super::TrainPlan::Scratch,
        )
        .unwrap();
        let decoded_build = super::super::build_world(
            &patched,
            &world.pipeline,
            &world.model,
            world.options,
            Some(&memo2),
            super::super::TrainPlan::Scratch,
        )
        .unwrap();
        assert_eq!(
            live_build.examples, decoded_build.examples,
            "example counts diverge"
        );
        assert_eq!(
            live_build.reused_batches, decoded_build.reused_batches,
            "reuse sets diverge"
        );
        assert_eq!(
            live_build.parser.weights_digest(),
            decoded_build.parser.weights_digest(),
            "rebuild from the decoded memo diverges from the live memo"
        );
    }
}
