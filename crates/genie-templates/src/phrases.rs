//! Phrase derivations: primitive templates instantiated with sampled
//! parameter values.
//!
//! A phrase derivation is the depth-1 building block of synthesis: a natural
//! language fragment (noun/verb/when phrase) paired with the code fragment
//! it denotes — a query, an action invocation, or a monitored stream.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use thingpedia::{ParamDatasets, PhraseCategory, PrimitiveTemplate, Thingpedia};
use thingtalk::ast::{FunctionRef, Invocation, Query};
use thingtalk::class::{FunctionDef, ParamDef};
use thingtalk::describe::{describe_value, describe_value_into};
use thingtalk::typecheck::SchemaRegistry;
use thingtalk::types::Type;
use thingtalk::units::{BaseUnit, Unit};
use thingtalk::value::{DateEdge, DateValue, Value};

use crate::intern::{Interner, SynthVocab, TokenStream};

/// What code fragment a phrase denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhraseKind {
    /// A noun phrase denoting a query ("my dropbox files").
    QueryNoun,
    /// A verb phrase denoting a query ("translate $text").
    QueryVerb,
    /// A verb phrase denoting an action ("post $status on twitter").
    ActionVerb,
    /// A when phrase denoting an event ("when i receive an email").
    WhenPhrase,
}

/// A primitive phrase instantiated with concrete parameter values.
///
/// The denoted code fragments are [`Arc`]-shared: construct rules compose
/// them into programs by bumping a reference count, not by deep-cloning
/// (§3.1 calls for sampling thousands of combinations per construct).
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseDerivation {
    /// The natural-language fragment, as interned tokens. Construct rules
    /// compose phrases by splicing these token runs — never by scanning or
    /// re-allocating text.
    pub utterance: TokenStream,
    /// What the phrase denotes.
    pub kind: PhraseKind,
    /// The denoted query (for query and when phrases).
    pub query: Option<Arc<Query>>,
    /// The denoted action invocation (for action verb phrases).
    pub action: Option<Arc<Invocation>>,
    /// The function the phrase uses.
    pub function: FunctionRef,
    /// Derivation depth (1 for plain primitives, 2 for filtered phrases).
    pub depth: usize,
}

impl PhraseDerivation {
    /// Whether the underlying function is monitorable (so the phrase can be
    /// turned into a stream).
    pub fn is_monitorable(&self, library: &Thingpedia) -> bool {
        library
            .function(&self.function.class, &self.function.function)
            .map(|f| f.kind.is_monitorable())
            .unwrap_or(false)
    }

    /// Whether the underlying function returns a list (so TT+A aggregation
    /// applies).
    pub fn is_list(&self, library: &Thingpedia) -> bool {
        library
            .function(&self.function.class, &self.function.function)
            .map(|f| f.kind.is_list())
            .unwrap_or(false)
    }
}

/// Instantiate a primitive template with sampled parameter values.
///
/// Returns `None` when the template's category is inconsistent with the
/// function kind (e.g. a when phrase for a non-monitorable query), mirroring
/// the semantic-function rejection of §3.1. Runs at pool-build time (single
/// threaded), so sampled values intern directly into the global arena.
pub fn instantiate(
    vocab: &SynthVocab,
    library: &Thingpedia,
    datasets: &ParamDatasets,
    template: &PrimitiveTemplate,
    rng: &mut StdRng,
) -> Option<PhraseDerivation> {
    let interner = vocab.interner();
    let function = library.function(&template.class, &template.function)?;
    let kind = match (template.category, function.kind.is_query()) {
        (PhraseCategory::NounPhrase, true) => PhraseKind::QueryNoun,
        (PhraseCategory::VerbPhrase, true) => PhraseKind::QueryVerb,
        (PhraseCategory::VerbPhrase, false) => PhraseKind::ActionVerb,
        (PhraseCategory::WhenPhrase, true) if function.kind.is_monitorable() => {
            PhraseKind::WhenPhrase
        }
        _ => return None,
    };

    let mut invocation = Invocation::new(template.class.clone(), template.function.clone());
    let mut substitutions: Vec<(String, TokenStream)> = Vec::new();

    // Preset parameters (constant bindings that are part of the meaning of
    // the utterance, e.g. order_by for "that changed most recently").
    for (name, value) in &template.preset_params {
        invocation = invocation.with_param(name.clone(), value.clone());
    }

    // Placeholder parameters: sample a value and render it into tokens.
    for placeholder in template.placeholders() {
        let param = function.param(&placeholder)?;
        let value = sample_value(datasets, param, rng);
        substitutions.push((placeholder.clone(), value_tokens(interner, &value)));
        invocation = invocation.with_param(placeholder, value);
    }

    // Remaining required inputs are filled silently so the program is
    // executable; templates are expected to cover them (checked by the
    // thingpedia test suite for the builtin library).
    for param in function.required_params() {
        if invocation.param(&param.name).is_none() {
            let value = sample_value(datasets, param, rng);
            invocation = invocation.with_param(param.name.clone(), value);
        }
    }

    let utterance = instantiate_template(interner, template, &substitutions);
    let function_ref = invocation.function.clone();
    let (query, action) = if function.kind.is_query() {
        (Some(Arc::new(Query::Invocation(invocation))), None)
    } else {
        (None, Some(Arc::new(invocation)))
    };
    Some(PhraseDerivation {
        utterance,
        kind,
        query,
        action,
        function: function_ref,
        depth: 1,
    })
}

/// Sample a concrete value for a parameter, using the parameter datasets for
/// strings and entities and type-appropriate generators otherwise.
pub fn sample_value(datasets: &ParamDatasets, param: &ParamDef, rng: &mut StdRng) -> Value {
    match &param.ty {
        Type::Boolean => Value::Boolean(rng.gen_bool(0.5)),
        Type::Number => Value::Number(rng.gen_range(1..100) as f64),
        Type::Enum(variants) => {
            let idx = rng.gen_range(0..variants.len().max(1));
            Value::Enum(variants.get(idx).cloned().unwrap_or_default())
        }
        Type::Measure(base) => {
            let (amount, unit): (f64, Unit) = match base {
                BaseUnit::Byte => (rng.gen_range(1..500) as f64, Unit::Megabyte),
                BaseUnit::Millisecond => (rng.gen_range(1..60) as f64, Unit::Minute),
                BaseUnit::Meter => (rng.gen_range(1..50) as f64, Unit::Kilometer),
                BaseUnit::Celsius => (rng.gen_range(-5..40) as f64, Unit::Celsius),
                BaseUnit::Gram => (rng.gen_range(50..100) as f64, Unit::Kilogram),
                BaseUnit::MeterPerSecond => (rng.gen_range(1..35) as f64, Unit::MeterPerSecond),
                BaseUnit::Calorie => (rng.gen_range(100..900) as f64, Unit::Kilocalorie),
                BaseUnit::BeatPerMinute => (rng.gen_range(60..180) as f64, Unit::BeatPerMinute),
                BaseUnit::Pascal => (rng.gen_range(980..1040) as f64, Unit::Hectopascal),
                BaseUnit::Milliliter => (rng.gen_range(1..3) as f64, Unit::Liter),
            };
            Value::Measure(amount, unit)
        }
        Type::Date => {
            let edges = [
                DateEdge::Now,
                DateEdge::StartOfDay,
                DateEdge::StartOfWeek,
                DateEdge::StartOfMonth,
                DateEdge::EndOfWeek,
            ];
            Value::Date(DateValue::Edge(edges[rng.gen_range(0..edges.len())]))
        }
        Type::Time => Value::Time(
            rng.gen_range(0..24),
            [0, 15, 30, 45][rng.gen_range(0..4usize)],
        ),
        Type::Currency => Value::Currency(rng.gen_range(1..200) as f64, "USD".to_owned()),
        Type::Location => Value::Location(thingtalk::value::LocationValue::Named(
            datasets.sample_for_param(&Type::Location, &param.name, rng),
        )),
        Type::Entity(kind) => {
            let text = datasets.sample_for_param(&param.ty, &param.name, rng);
            Value::Entity {
                value: text.clone(),
                kind: kind.clone(),
                display: Some(text),
            }
        }
        _ => Value::String(datasets.sample_for_param(&param.ty, &param.name, rng)),
    }
}

/// Render a sampled value as it should appear inside an utterance.
pub fn render_value(value: &Value) -> String {
    describe_value(value)
}

/// Render a sampled value into interned tokens (global arena; pool-build
/// and other single-threaded paths).
pub fn value_tokens(interner: &Interner, value: &Value) -> TokenStream {
    let mut buf = String::new();
    describe_value_into(value, &mut buf);
    interner.stream_of(&buf)
}

/// Substitute the placeholders of a template utterance with rendered value
/// tokens — the token-stream counterpart of `PrimitiveTemplate::instantiate`,
/// producing exactly the same rendered text (placeholder suffixes such as
/// `$name's` merge into the last value token, unbound placeholders stay
/// literal).
fn instantiate_template(
    interner: &Interner,
    template: &PrimitiveTemplate,
    values: &[(String, TokenStream)],
) -> TokenStream {
    let mut out = TokenStream::new();
    for word in template.utterance.split_whitespace() {
        let Some(name) = word.strip_prefix('$') else {
            out.push(interner.intern(word));
            continue;
        };
        let clean: String = name
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let suffix: String = name.chars().skip(clean.len()).collect();
        match values.iter().find(|(n, _)| *n == clean) {
            Some((_, rendered)) => {
                if suffix.is_empty() {
                    out.extend_from_slice(rendered);
                } else if let Some((&last, head)) = rendered.as_slice().split_last() {
                    out.extend_from_slice(head);
                    let merged = format!("{}{suffix}", interner.resolve(last));
                    out.push(interner.intern(&merged));
                } else {
                    out.push(interner.intern(&suffix));
                }
            }
            None => out.push(interner.intern(word)),
        }
    }
    out
}

/// Build one filtered variant of a query noun phrase: adds a type-appropriate
/// predicate over a random output parameter of the function, with a natural
/// rendering ("having modified time after start of week").
pub fn add_filter(
    vocab: &SynthVocab,
    library: &Thingpedia,
    datasets: &ParamDatasets,
    phrase: &PhraseDerivation,
    rng: &mut StdRng,
) -> Option<PhraseDerivation> {
    use thingtalk::ast::{CompareOp, Predicate};

    if !matches!(phrase.kind, PhraseKind::QueryNoun | PhraseKind::WhenPhrase) {
        return None;
    }
    let interner = vocab.interner();
    let sym = &vocab.sym;
    let function: &FunctionDef =
        library.function(&phrase.function.class, &phrase.function.function)?;
    let outputs: Vec<&ParamDef> = function.output_params().collect();
    if outputs.is_empty() {
        return None;
    }
    let param = outputs[rng.gen_range(0..outputs.len())];
    // The filter phrase is spliced from interned runs: connective symbols,
    // the parameter's canonical words, and the rendered value tokens.
    let mut text = TokenStream::new();
    let (op, value): (CompareOp, Value) = match &param.ty {
        Type::Number | Type::Measure(_) | Type::Currency => {
            let value = sample_value(datasets, param, rng);
            let op = if rng.gen_bool(0.5) {
                text.push(sym.with);
                interner.intern_words(&param.canonical, &mut text);
                text.push(sym.greater);
                text.push(sym.than);
                CompareOp::Gt
            } else {
                text.push(sym.with);
                interner.intern_words(&param.canonical, &mut text);
                text.push(sym.less);
                text.push(sym.than);
                CompareOp::Lt
            };
            text.extend_from_slice(&value_tokens(interner, &value));
            (op, value)
        }
        Type::Date => {
            let value = sample_value(datasets, param, rng);
            text.push(sym.with);
            interner.intern_words(&param.canonical, &mut text);
            text.push(sym.after);
            text.extend_from_slice(&value_tokens(interner, &value));
            (CompareOp::Gt, value)
        }
        Type::Boolean => {
            text.push(sym.that);
            text.push(sym.are);
            interner.intern_words(&param.canonical.replace("is ", ""), &mut text);
            (CompareOp::Eq, Value::Boolean(true))
        }
        Type::Enum(_) => {
            let value = sample_value(datasets, param, rng);
            text.push(sym.with);
            interner.intern_words(&param.canonical, &mut text);
            text.extend_from_slice(&value_tokens(interner, &value));
            (CompareOp::Eq, value)
        }
        Type::Array(_) => {
            let inner = ParamDef::new(
                param.name.clone(),
                param.ty.element_type().clone(),
                param.direction,
            );
            let value = sample_value(datasets, &inner, rng);
            text.push(sym.containing);
            interner.intern_words(&param.canonical, &mut text);
            text.extend_from_slice(&value_tokens(interner, &value));
            (CompareOp::Contains, value)
        }
        _ => {
            let value = sample_value(datasets, param, rng);
            // `substr` only typechecks on string-like parameters; anything
            // else (locations, entities without text, …) gets equality.
            let op = if param.ty.is_string_like() && !rng.gen_bool(0.5) {
                text.push(sym.whose);
                interner.intern_words(&param.canonical, &mut text);
                text.push(sym.contains);
                CompareOp::Substr
            } else {
                text.push(sym.with);
                interner.intern_words(&param.canonical, &mut text);
                CompareOp::Eq
            };
            text.extend_from_slice(&value_tokens(interner, &value));
            (op, value)
        }
    };
    let predicate = Predicate::atom(param.name.clone(), op, value);
    // Share the unfiltered subtree: the filter node wraps the pooled query
    // without cloning it.
    let query = Query::shared_filtered(phrase.query.as_ref()?, predicate);
    let mut utterance = phrase.utterance.clone();
    utterance.extend_from_slice(&text);
    Some(PhraseDerivation {
        utterance,
        kind: phrase.kind,
        query: Some(Arc::new(query)),
        action: None,
        function: phrase.function.clone(),
        depth: phrase.depth + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SynthVocab, Thingpedia, &'static ParamDatasets, StdRng) {
        (
            SynthVocab::new(crate::intern::shared().clone()),
            Thingpedia::builtin(),
            ParamDatasets::builtin(),
            StdRng::seed_from_u64(42),
        )
    }

    #[test]
    fn instantiates_all_builtin_templates() {
        let (vocab, library, datasets, mut rng) = setup();
        let mut count = 0;
        for template in library.templates() {
            let derivation = instantiate(&vocab, &library, datasets, template, &mut rng)
                .unwrap_or_else(|| panic!("failed to instantiate `{}`", template.utterance));
            let text = vocab.interner().render(&derivation.utterance);
            assert!(!text.contains('$'), "placeholder left in `{text}`");
            count += 1;
        }
        assert!(count > 250);
    }

    #[test]
    fn instantiated_streams_render_like_string_instantiation() {
        // The token-stream instantiation must reproduce the exact text of
        // `PrimitiveTemplate::instantiate` — rendered text is the dataset
        // identity and must not shift under the interned representation.
        let (vocab, library, datasets, _) = setup();
        for (i, template) in library.templates().iter().enumerate() {
            let mut rng_a = StdRng::seed_from_u64(1000 + i as u64);
            let mut rng_b = StdRng::seed_from_u64(1000 + i as u64);
            let Some(derivation) = instantiate(&vocab, &library, datasets, template, &mut rng_a)
            else {
                continue;
            };
            // Replay the sampling with the legacy string path.
            let function = library
                .function(&template.class, &template.function)
                .unwrap();
            let mut substitutions: Vec<(String, String)> = Vec::new();
            for placeholder in template.placeholders() {
                let param = function.param(&placeholder).unwrap();
                let value = sample_value(datasets, param, &mut rng_b);
                substitutions.push((placeholder.clone(), render_value(&value)));
            }
            let expected = template.instantiate(&substitutions);
            assert_eq!(
                vocab.interner().render(&derivation.utterance),
                expected,
                "template `{}`",
                template.utterance
            );
        }
    }

    #[test]
    fn query_phrases_carry_queries_and_actions_carry_invocations() {
        let (vocab, library, datasets, mut rng) = setup();
        for template in library.templates() {
            let derivation = instantiate(&vocab, &library, datasets, template, &mut rng).unwrap();
            match derivation.kind {
                PhraseKind::ActionVerb => {
                    assert!(derivation.action.is_some());
                    assert!(derivation.query.is_none());
                }
                _ => {
                    assert!(derivation.query.is_some());
                    assert!(derivation.action.is_none());
                }
            }
        }
    }

    #[test]
    fn sampled_values_typecheck() {
        let (vocab, library, datasets, mut rng) = setup();
        for template in library.templates().iter().take(100) {
            let derivation = instantiate(&vocab, &library, datasets, template, &mut rng).unwrap();
            let program = match (&derivation.query, &derivation.action) {
                (Some(query), _) => thingtalk::Program::get_query(query.clone()),
                (_, Some(action)) => thingtalk::Program::do_action(action.clone()),
                _ => unreachable!(),
            };
            thingtalk::typecheck::typecheck(&library, &program).unwrap_or_else(|e| {
                panic!(
                    "`{}` does not typecheck: {e}",
                    vocab.interner().render(&derivation.utterance)
                )
            });
        }
    }

    #[test]
    fn filtered_phrases_add_one_predicate() {
        let (vocab, library, datasets, mut rng) = setup();
        let template = library.templates_for("com.dropbox", "list_folder")[0].clone();
        let base = instantiate(&vocab, &library, datasets, &template, &mut rng).unwrap();
        let filtered = add_filter(&vocab, &library, datasets, &base, &mut rng).unwrap();
        assert_eq!(filtered.depth, base.depth + 1);
        assert!(filtered.utterance.len() > base.utterance.len());
        let query = filtered.query.unwrap();
        assert!(query.has_filter());
    }

    #[test]
    fn action_phrases_cannot_be_filtered() {
        let (vocab, library, datasets, mut rng) = setup();
        let template = library.templates_for("com.twitter", "post")[0].clone();
        let base = instantiate(&vocab, &library, datasets, &template, &mut rng).unwrap();
        assert!(add_filter(&vocab, &library, datasets, &base, &mut rng).is_none());
    }
}
