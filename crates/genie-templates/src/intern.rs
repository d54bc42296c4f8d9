//! The synthesis-side interning subsystem: the shared pre-seeded arena and
//! the construct-variant compiler.
//!
//! The core types ([`Symbol`], [`TokenStream`], [`Interner`],
//! [`LocalInterner`]) live in [`genie_nlp::intern`] so every layer — NL
//! utilities, synthesis, the pipeline, LUInet — can speak the same
//! representation; this module owns the parts that need the skill library:
//!
//! * [`shared`] — the process-wide arena, deterministically pre-seeded with
//!   the builtin synthesis vocabulary (template words, construct variants,
//!   parameter-dataset values, rendered numerals/times/units) so the
//!   parallel hot path almost never misses;
//! * [`preseed`] — the same seeding for caller-owned arenas (fresh arenas
//!   are what the id-level determinism tests use);
//! * [`SynthVocab`] — the per-generator compiled form of the construct
//!   variants: each `"get $np and then $vp"` pattern becomes a sequence of
//!   [`VariantPiece`]s (interned words and typed slot markers), so
//!   instantiating a rule splices token runs instead of scanning the
//!   pattern text with `str::replace`.
//!
//! # Determinism
//!
//! Pre-seeding happens in one fixed order (variants, templates, canonicals,
//! dataset values, rendered scalars), and everything the parallel engine
//! interns later goes through the ordered-commit protocol
//! ([`Interner::commit`] at the canonical sink). A fresh pre-seeded arena
//! therefore assigns identical symbols for any thread count; the shared
//! arena additionally absorbs interleavings from other pipelines in the
//! same process without ever changing rendered text (symbol *values* never
//! reach the output — only resolved fragments do).

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

pub use genie_nlp::intern::{
    FnvState, Interner, LocalInterner, PendingSymbols, Remap, Symbol, TokenStream,
};

use thingpedia::{ParamDatasets, Thingpedia};
use thingtalk::units::Unit;
use thingtalk::value::DateEdge;

use crate::constructs::ConstructKind;

/// The process-wide synthesis arena — [`genie_nlp::intern::shared`],
/// pre-seeded with the builtin vocabulary on first use. Every pipeline
/// component defaults to this arena; pass a fresh one (see [`preseed`] /
/// [`fresh`]) where id-level isolation matters.
pub fn shared() -> &'static Arc<Interner> {
    static SEEDED: OnceLock<()> = OnceLock::new();
    let interner = genie_nlp::intern::shared();
    SEEDED.get_or_init(|| {
        preseed(interner, &Thingpedia::builtin(), ParamDatasets::builtin());
    });
    interner
}

/// One named pre-seeding step: a pure, idempotent walk that interns a slice
/// of the synthesis vocabulary in a fixed order. [`preseed`] runs all of
/// [`PRESEED_STEPS`] in sequence; snapshot builders (the live subsystem)
/// run the same steps against their own per-snapshot arenas, which is what
/// makes symbol assignment snapshot-count- and worker-count-invariant.
pub type PreseedStep = fn(&Interner, &Thingpedia, &ParamDatasets);

/// The pre-seeding pipeline, in its canonical order. Every step is
/// idempotent (interning an existing string is a no-op returning the same
/// symbol), so re-running the pipeline — on the shared arena, on a fresh
/// snapshot arena, or after a skill delta against an already-seeded arena —
/// never reassigns an id.
pub const PRESEED_STEPS: &[(&str, PreseedStep)] = &[
    ("construct-variant-words", seed_construct_variant_words),
    ("primitive-template-words", seed_template_words),
    ("canonical-phrases", seed_canonical_phrases),
    ("parameter-dataset-values", seed_dataset_values),
    ("rendered-scalars", seed_rendered_scalars),
    ("program-vocabulary", seed_program_vocabulary),
    ("connective-words", seed_connective_words),
];

/// Pre-seed an arena with the synthesis vocabulary of a skill library, in a
/// fixed deterministic order (the [`PRESEED_STEPS`] pipeline). Idempotent;
/// single-threaded contexts only.
pub fn preseed(interner: &Interner, library: &Thingpedia, datasets: &ParamDatasets) {
    for (_, step) in PRESEED_STEPS {
        step(interner, library, datasets);
    }
}

/// Construct-variant words (all kinds, fixed enum order).
fn seed_construct_variant_words(interner: &Interner, _: &Thingpedia, _: &ParamDatasets) {
    for kind in ConstructKind::ALL {
        for variant in kind.variants() {
            for word in variant.split_whitespace() {
                if !word.starts_with('$') {
                    interner.intern(word);
                }
            }
        }
    }
}

/// Primitive-template words, library order.
fn seed_template_words(interner: &Interner, library: &Thingpedia, _: &ParamDatasets) {
    for template in library.templates() {
        for word in template.utterance.split_whitespace() {
            if !word.starts_with('$') {
                interner.intern(word);
            }
        }
    }
}

/// Function and parameter canonical phrases (filters, parameter passing,
/// edge predicates all splice them into utterances).
fn seed_canonical_phrases(interner: &Interner, library: &Thingpedia, _: &ParamDatasets) {
    for class in library.classes() {
        for function in class.functions.values() {
            interner.intern_words(&function.canonical, &mut TokenStream::new());
            for param in &function.params {
                interner.intern_words(&param.canonical, &mut TokenStream::new());
                // The boolean-filter rewrite drops a leading "is ".
                let stripped = param.canonical.replace("is ", "");
                interner.intern_words(&stripped, &mut TokenStream::new());
            }
        }
    }
}

/// Parameter-dataset values (sampled into slots and by expansion).
fn seed_dataset_values(interner: &Interner, _: &Thingpedia, datasets: &ParamDatasets) {
    for dataset in datasets.datasets() {
        for value in &dataset.values {
            interner.intern_words(value, &mut TokenStream::new());
        }
    }
}

/// Rendered scalars: the numerals, clock times, unit phrases and date edges
/// `describe_value` can produce for sampled values.
fn seed_rendered_scalars(interner: &Interner, _: &Thingpedia, _: &ParamDatasets) {
    let mut buf = String::new();
    for n in -10i64..=1100 {
        buf.clear();
        let _ = write!(buf, "{n}");
        interner.intern(&buf);
    }
    for hour in 0u8..24 {
        for minute in [0u8, 15, 30, 45] {
            buf.clear();
            let _ = write!(buf, "{hour}:{minute:02}");
            interner.intern(&buf);
        }
    }
    for unit in Unit::ALL {
        interner.intern_words(unit.phrase(), &mut TokenStream::new());
    }
    for edge in [
        DateEdge::StartOfDay,
        DateEdge::EndOfDay,
        DateEdge::StartOfWeek,
        DateEdge::EndOfWeek,
        DateEdge::StartOfMonth,
        DateEdge::EndOfMonth,
        DateEdge::StartOfYear,
        DateEdge::EndOfYear,
        DateEdge::Now,
    ] {
        interner.intern_words(&edge.keyword().replace('_', " "), &mut TokenStream::new());
    }
}

/// The NN-syntax program vocabulary: the model layer (LUInet) interns
/// program tokens into the same arena, so seed the structural tokens and
/// every `@class.function` / `param:name` the library can emit — training
/// then interns (almost) nothing, and fresh arenas assign program-token ids
/// deterministically for the id-level tests.
fn seed_program_vocabulary(interner: &Interner, library: &Thingpedia, _: &ParamDatasets) {
    for token in [
        "<s>",
        "</s>",
        "<unk>",
        "now",
        "=>",
        "notify",
        "monitor",
        "edge",
        "on",
        "timer",
        "attimer",
        "base",
        "interval",
        "filter",
        "join",
        "agg",
        "of",
        "(",
        ")",
        "=",
        "\"",
        "!",
        "&&",
        "||",
        "true",
        "false",
        "time",
        "param:time",
    ] {
        interner.intern(token);
    }
    let mut buf = String::new();
    for class in library.classes() {
        for function in class.functions.values() {
            buf.clear();
            let _ = write!(buf, "@{}.{}", class.name, function.name);
            interner.intern(&buf);
            for param in &function.params {
                buf.clear();
                let _ = write!(buf, "param:{}", param.name);
                interner.intern(&buf);
                buf.clear();
                let _ = write!(buf, "param:{}:{}", param.name, param.ty.annotation_token());
                interner.intern(&buf);
            }
        }
    }
}

/// Fixed connective words of the generated filter / predicate / value
/// phrases and common punctuation fragments.
fn seed_connective_words(interner: &Interner, _: &Thingpedia, _: &ParamDatasets) {
    for word in [
        "the",
        "with",
        "greater",
        "less",
        "than",
        "after",
        "that",
        "are",
        "whose",
        "contains",
        "containing",
        "of",
        "goes",
        "above",
        "drops",
        "below",
        "when",
        "yes",
        "no",
        "something",
        "result",
        "USD",
        ",",
        ".",
        ":",
        "days",
        "before",
    ] {
        interner.intern(word);
    }
}

/// A pre-seeded fresh arena for one library — what the determinism tests
/// construct per run to compare id assignment across worker counts, and
/// what [`crate::SentenceGenerator::with_interner`] expects: the generator
/// does not seed the arena again.
pub fn fresh(library: &Thingpedia, datasets: &ParamDatasets) -> Arc<Interner> {
    let interner = Arc::new(Interner::new());
    preseed(&interner, library, datasets);
    interner
}

/// One element of a compiled construct variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantPiece {
    /// A literal interned word.
    Word(Symbol),
    /// `$np` — a query noun phrase.
    Np,
    /// `$vp` — a verb phrase.
    Vp,
    /// `$wp` — a when phrase.
    Wp,
    /// `$wp_bare` — a when phrase with its leading "when" stripped.
    WpBare,
    /// `$time` — a rendered time-of-day value.
    Time,
    /// `$interval` — a rendered interval value.
    Interval,
    /// `$pred` — a rendered edge predicate phrase.
    Pred,
    /// `$field` — a parameter canonical phrase.
    Field,
    /// `$person` — a sampled person name.
    Person,
}

/// A construct variant compiled to interned pieces. Splicing replaces the
/// old `variant.replace("$np", …)` chains: no pattern scan, no intermediate
/// `String`s, one output stream.
#[derive(Debug, Clone)]
pub struct CompiledVariant {
    pieces: Box<[VariantPiece]>,
    has_vp: bool,
}

impl CompiledVariant {
    fn compile(variant: &str, interner: &Interner) -> Self {
        let pieces: Box<[VariantPiece]> = variant
            .split_whitespace()
            .map(|word| match word {
                "$np" => VariantPiece::Np,
                "$vp" => VariantPiece::Vp,
                "$wp" => VariantPiece::Wp,
                "$wp_bare" => VariantPiece::WpBare,
                "$time" => VariantPiece::Time,
                "$interval" => VariantPiece::Interval,
                "$pred" => VariantPiece::Pred,
                "$field" => VariantPiece::Field,
                "$person" => VariantPiece::Person,
                literal => VariantPiece::Word(interner.intern(literal)),
            })
            .collect();
        let has_vp = pieces.contains(&VariantPiece::Vp);
        CompiledVariant { pieces, has_vp }
    }

    /// Whether the pattern contains a `$vp` slot (EdgeCommand uses this to
    /// decide between notify and action forms).
    pub fn has_vp(&self) -> bool {
        self.has_vp
    }

    /// Build the utterance: literal words are pushed as-is, slots are filled
    /// by the callback (which appends the slot's tokens to the stream).
    pub fn splice(
        &self,
        out: &mut TokenStream,
        mut fill: impl FnMut(VariantPiece, &mut TokenStream),
    ) {
        for &piece in self.pieces.iter() {
            match piece {
                VariantPiece::Word(symbol) => out.push(symbol),
                slot => fill(slot, out),
            }
        }
    }
}

/// Interned symbols for the fixed words the construct rules and filter
/// builders splice into utterances on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct CommonSymbols {
    /// "the"
    pub the: Symbol,
    /// "when"
    pub when: Symbol,
    /// "of"
    pub of: Symbol,
    /// "goes"
    pub goes: Symbol,
    /// "above"
    pub above: Symbol,
    /// "drops"
    pub drops: Symbol,
    /// "below"
    pub below: Symbol,
    /// "with"
    pub with: Symbol,
    /// "greater"
    pub greater: Symbol,
    /// "less"
    pub less: Symbol,
    /// "than"
    pub than: Symbol,
    /// "after"
    pub after: Symbol,
    /// "that"
    pub that: Symbol,
    /// "are"
    pub are: Symbol,
    /// "whose"
    pub whose: Symbol,
    /// "contains"
    pub contains: Symbol,
    /// "containing"
    pub containing: Symbol,
}

/// The per-generator synthesis vocabulary: the arena handle, the compiled
/// construct variants, and the common splice symbols. Built once per
/// generator (microseconds), shared read-only by all rule workers.
pub struct SynthVocab {
    interner: Arc<Interner>,
    variants: Vec<Vec<CompiledVariant>>,
    /// Common splice symbols.
    pub sym: CommonSymbols,
}

impl SynthVocab {
    /// Compile the construct variants against an arena.
    pub fn new(interner: Arc<Interner>) -> Self {
        let variants = ConstructKind::ALL
            .iter()
            .map(|kind| {
                kind.variants()
                    .iter()
                    .map(|variant| CompiledVariant::compile(variant, &interner))
                    .collect()
            })
            .collect();
        let sym = CommonSymbols {
            the: interner.intern("the"),
            when: interner.intern("when"),
            of: interner.intern("of"),
            goes: interner.intern("goes"),
            above: interner.intern("above"),
            drops: interner.intern("drops"),
            below: interner.intern("below"),
            with: interner.intern("with"),
            greater: interner.intern("greater"),
            less: interner.intern("less"),
            than: interner.intern("than"),
            after: interner.intern("after"),
            that: interner.intern("that"),
            are: interner.intern("are"),
            whose: interner.intern("whose"),
            contains: interner.intern("contains"),
            containing: interner.intern("containing"),
        };
        SynthVocab {
            interner,
            variants,
            sym,
        }
    }

    /// The arena this vocabulary (and every stream built from it) lives in.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// The compiled variants of a construct kind.
    pub fn variants(&self, kind: ConstructKind) -> &[CompiledVariant] {
        &self.variants[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preseed_is_deterministic_and_idempotent() {
        let library = Thingpedia::builtin();
        let datasets = ParamDatasets::builtin();
        let a = fresh(&library, datasets);
        let b = fresh(&library, datasets);
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 2000, "vocabulary too small: {}", a.len());
        for id in 0..a.len() as u32 {
            let symbol = Symbol::from_raw(id);
            assert_eq!(a.resolve(symbol), b.resolve(symbol), "symbol {id}");
        }
        // Idempotent: seeding again adds nothing — neither the whole
        // pipeline nor any individual named step.
        let before = a.len();
        preseed(&a, &library, datasets);
        assert_eq!(a.len(), before);
        for (name, step) in PRESEED_STEPS {
            step(&a, &library, datasets);
            assert_eq!(a.len(), before, "step `{name}` is not idempotent");
        }
    }

    #[test]
    fn fresh_arenas_are_snapshot_and_worker_count_invariant() {
        // Two snapshot arenas created in the same process — regardless of
        // how many were made before, and regardless of the worker count of
        // the synthesis run that fills them — assign identical symbol ids.
        // This is the contract the live subsystem's atomic swap rests on:
        // a snapshot built on an 8-core box equals one built single-threaded.
        use crate::generator::{GeneratorConfig, SentenceGenerator};
        let library = Thingpedia::builtin();
        let datasets = ParamDatasets::builtin();
        // Burn a few arenas first: snapshot-count-invariance means earlier
        // snapshots must not perturb later ones.
        for _ in 0..3 {
            let _ = fresh(&library, datasets);
        }
        let run = |threads: usize| {
            let config = GeneratorConfig {
                target_per_rule: 6,
                max_depth: 4,
                seed: 11,
                threads,
                pool_streams: true,
                quiet: true,
                ..GeneratorConfig::default()
            };
            let arena = fresh(&library, datasets);
            let generator = SentenceGenerator::with_interner(&library, config, arena.clone());
            let examples = generator.synthesize();
            (arena, examples)
        };
        let (arena_1, examples_1) = run(1);
        let (arena_8, examples_8) = run(8);
        assert_eq!(arena_1.len(), arena_8.len());
        for id in 0..arena_1.len() as u32 {
            let symbol = Symbol::from_raw(id);
            assert_eq!(arena_1.resolve(symbol), arena_8.resolve(symbol), "id {id}");
        }
        // Id-level equality of the synthesized streams, not just text.
        assert_eq!(examples_1, examples_8);
    }

    #[test]
    fn variants_compile_and_splice() {
        let vocab = SynthVocab::new(shared().clone());
        let interner = vocab.interner().clone();
        let get_do = vocab.variants(ConstructKind::GetDo);
        assert_eq!(get_do.len(), ConstructKind::GetDo.variants().len());
        let np = interner.stream_of("my dropbox files");
        let vp = interner.stream_of("post it on twitter");
        let mut out = TokenStream::new();
        get_do[0].splice(&mut out, |piece, out| match piece {
            VariantPiece::Np => out.extend_from_slice(&np),
            VariantPiece::Vp => out.extend_from_slice(&vp),
            other => panic!("unexpected slot {other:?}"),
        });
        assert_eq!(
            interner.render(&out),
            "get my dropbox files and then post it on twitter"
        );
    }

    #[test]
    fn spliced_variants_match_string_replacement() {
        // Every compiled variant must reproduce the exact text the old
        // `replace` chains produced, for every kind.
        let vocab = SynthVocab::new(shared().clone());
        let interner = vocab.interner().clone();
        let fills: &[(&str, &str)] = &[
            ("$np", "my dropbox files"),
            ("$vp", "post the caption on twitter"),
            ("$wp_bare", "i receive an email"),
            ("$wp", "when i receive an email"),
            ("$time", "8:30"),
            ("$interval", "30 minutes"),
            ("$pred", "the low of weather goes above 10"),
            ("$field", "file size"),
            ("$person", "alice"),
        ];
        for kind in ConstructKind::ALL {
            for (index, variant) in kind.variants().iter().enumerate() {
                // Replacement order matters: `$wp_bare` before `$wp`.
                let mut expected = variant.to_string();
                for (slot, text) in fills {
                    expected = expected.replace(slot, text);
                }
                let mut out = TokenStream::new();
                vocab.variants(*kind)[index].splice(&mut out, |piece, out| {
                    let text = match piece {
                        VariantPiece::Np => "my dropbox files",
                        VariantPiece::Vp => "post the caption on twitter",
                        VariantPiece::WpBare => "i receive an email",
                        VariantPiece::Wp => "when i receive an email",
                        VariantPiece::Time => "8:30",
                        VariantPiece::Interval => "30 minutes",
                        VariantPiece::Pred => "the low of weather goes above 10",
                        VariantPiece::Field => "file size",
                        VariantPiece::Person => "alice",
                        VariantPiece::Word(_) => unreachable!(),
                    };
                    interner.intern_words(text, out);
                });
                assert_eq!(interner.render(&out), expected, "{kind:?} #{index}");
            }
        }
    }

    #[test]
    fn variant_choice_draws_match_slice_choose() {
        use rand::seq::SliceRandom;
        let vocab = SynthVocab::new(shared().clone());
        for kind in ConstructKind::ALL {
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            let via_str = kind.variants().choose(&mut a).copied();
            let via_compiled = vocab.variants(*kind).choose(&mut b);
            assert_eq!(via_str.is_some(), via_compiled.is_some());
        }
    }
}
