//! Parameter replacement and PPDB augmentation (§3.3).
//!
//! "During training, it is important that the model sees many different
//! combinations of parameter values, so as not to overfit on specific values
//! present in the training set." Parameter expansion takes an example and
//! produces copies where the free-form string and entity parameters are
//! replaced — consistently in the utterance and in the program — with fresh
//! values from the parameter datasets. PPDB augmentation rewrites the
//! utterance only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use genie_nlp::intern::{Interner, Symbol, TokenStream};
use genie_nlp::ppdb::CompiledPpdb;
use genie_nlp::Ppdb;
use thingpedia::ParamDatasets;
use thingtalk::ast::Predicate;
use thingtalk::value::Value;

use crate::dataset::{Example, ExampleSource};
use crate::error::GenieResult;

/// Parameter expansion: produce up to `copies` variants of the example with
/// fresh parameter values. Only values whose rendered text occurs in the
/// utterance **as a whole-token run** are replaced (so sentence and program
/// stay aligned). This is deliberately stricter than the byte-substring
/// matching of the string engine it replaced: a value can no longer match
/// *inside* a larger word (where the old `str::replace` would silently
/// mangle the token, e.g. rewriting the `5` inside `15`). On the builtin
/// synthesis workloads the two criteria coincide — the CI digest matrix
/// pins the dataset bytes — but hand-built examples whose values abut
/// punctuation inside one token expand less aggressively than before.
///
/// # Errors
///
/// Propagates [`thingtalk::Error::MissingResource`] (as
/// [`crate::Error::ThingTalk`]) when the dataset registry lacks both the
/// routed dataset and its free-form fallback — impossible for
/// [`ParamDatasets::builtin`], reachable with hand-assembled registries.
pub fn expand_parameters(
    example: &Example,
    datasets: &ParamDatasets,
    copies: usize,
    rng: &mut StdRng,
) -> GenieResult<Vec<Example>> {
    let interner = genie_templates::intern::shared();
    let replaceable = replaceable_values(interner, example);
    if replaceable.is_empty() || copies == 0 {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for _ in 0..copies {
        let mut utterance = example.utterance.clone();
        let mut program = example.program.clone();
        let mut changed = false;
        for replace in &replaceable {
            let dataset = datasets.for_param(&thingtalk::types::Type::String, &replace.param)?;
            let new_text = dataset.sample(rng).to_owned();
            if new_text == replace.old_text {
                continue;
            }
            // Substitute the value's token run wherever it occurs (the old
            // byte-scanning `str::replace`); dataset values are pre-seeded,
            // so interning the fresh value is a lookup, not an allocation.
            let new_tokens = interner.stream_of(&new_text);
            if let Some(rewritten) = utterance.replace_seq(&replace.old_tokens, &new_tokens) {
                utterance = rewritten;
            }
            replace_in_program(&mut program, &replace.old_text, &new_text);
            changed = true;
        }
        if changed {
            out.push(Example::new(utterance, program, ExampleSource::Augmented));
        }
    }
    out.dedup_by(|a, b| a.utterance == b.utterance);
    Ok(out)
}

/// One replaceable constant: its parameter, its rendered text (for the
/// program-side rewrite) and its token run in the utterance.
struct ReplaceableValue {
    param: String,
    old_text: String,
    old_tokens: TokenStream,
}

/// The string/entity constants that appear as whole-token runs in the
/// utterance. A value whose words were never interned cannot occur in the
/// utterance stream, so the lookup never interns anything new.
fn replaceable_values(interner: &Interner, example: &Example) -> Vec<ReplaceableValue> {
    example
        .program
        .constants()
        .into_iter()
        .filter_map(|(name, value)| {
            let text = match &value {
                Value::String(s) if s.len() > 2 => s.as_str(),
                Value::Entity {
                    display: Some(d), ..
                } if d.len() > 2 => d.as_str(),
                _ => return None,
            };
            let tokens = existing_tokens(interner, text)?;
            example.utterance.find_seq(&tokens, 0)?;
            Some(ReplaceableValue {
                param: name,
                old_text: text.to_owned(),
                old_tokens: TokenStream::from_slice(&tokens),
            })
        })
        .collect()
}

/// The token run of `text` if every word is already interned.
fn existing_tokens(interner: &Interner, text: &str) -> Option<Vec<Symbol>> {
    text.split_whitespace()
        .map(|word| interner.get(word))
        .collect()
}

/// Replace a string/entity constant's text everywhere in a program.
fn replace_in_program(program: &mut thingtalk::Program, old_text: &str, new_text: &str) {
    for invocation in program.invocations_mut() {
        for param in &mut invocation.in_params {
            replace_in_value(&mut param.value, old_text, new_text);
        }
    }
    if let Some(query) = &mut program.query {
        replace_in_query(std::sync::Arc::make_mut(query), old_text, new_text);
    }
    if let thingtalk::Stream::Monitor { query, .. } = &mut program.stream {
        replace_in_query(std::sync::Arc::make_mut(query), old_text, new_text);
    }
    if let thingtalk::Stream::EdgeFilter { predicate, .. } = &mut program.stream {
        replace_in_predicate(predicate, old_text, new_text);
    }
}

fn replace_in_query(query: &mut thingtalk::Query, old_text: &str, new_text: &str) {
    match query {
        thingtalk::Query::Invocation(inv) => {
            for param in &mut inv.in_params {
                replace_in_value(&mut param.value, old_text, new_text);
            }
        }
        thingtalk::Query::Filter { query, predicate } => {
            replace_in_query(std::sync::Arc::make_mut(query), old_text, new_text);
            replace_in_predicate(predicate, old_text, new_text);
        }
        thingtalk::Query::Join { lhs, rhs, .. } => {
            replace_in_query(std::sync::Arc::make_mut(lhs), old_text, new_text);
            replace_in_query(std::sync::Arc::make_mut(rhs), old_text, new_text);
        }
        thingtalk::Query::Aggregation { query, .. } => {
            replace_in_query(std::sync::Arc::make_mut(query), old_text, new_text)
        }
    }
}

fn replace_in_predicate(predicate: &mut Predicate, old_text: &str, new_text: &str) {
    match predicate {
        Predicate::Not(inner) => replace_in_predicate(inner, old_text, new_text),
        Predicate::And(items) | Predicate::Or(items) => {
            for item in items {
                replace_in_predicate(item, old_text, new_text);
            }
        }
        Predicate::Atom { value, .. } => replace_in_value(value, old_text, new_text),
        Predicate::External {
            invocation,
            predicate,
        } => {
            for param in &mut invocation.in_params {
                replace_in_value(&mut param.value, old_text, new_text);
            }
            replace_in_predicate(predicate, old_text, new_text);
        }
        _ => {}
    }
}

fn replace_in_value(value: &mut Value, old_text: &str, new_text: &str) {
    match value {
        Value::String(s) if s == old_text => *s = new_text.to_owned(),
        Value::Entity { value, display, .. } => {
            if display.as_deref() == Some(old_text) {
                *display = Some(new_text.to_owned());
            }
            if value == old_text {
                *value = new_text.to_owned();
            }
        }
        _ => {}
    }
}

/// PPDB augmentation: rewrite the utterance with meaning-preserving lexical
/// substitutions, keeping the program unchanged.
pub fn augment_ppdb(
    example: &Example,
    ppdb: &CompiledPpdb,
    copies: usize,
    rng: &mut StdRng,
) -> Vec<Example> {
    ppdb.augment(&example.utterance, copies, rng)
        .into_iter()
        .map(|utterance| Example::new(utterance, example.program.clone(), ExampleSource::Augmented))
        .collect()
}

/// Convenience: expand a whole dataset, with a per-example expansion factor
/// chosen by the caller (the paper uses 30× for paraphrases with string
/// parameters, 10× for other paraphrases, 4× for synthesized primitives and
/// 1× otherwise).
///
/// Examples are expanded in parallel over `threads` workers (`0` = all
/// cores, `1` = inline); each draws from its own RNG stream
/// ([`genie_parallel::item_seed`]), so the output is deterministic and
/// independent of the worker count. The first per-example error (see
/// [`expand_parameters`]) aborts the whole expansion.
pub fn expand_dataset(
    examples: &[Example],
    datasets: &ParamDatasets,
    factor: impl Fn(&Example) -> usize + Sync,
    seed: u64,
    threads: usize,
) -> GenieResult<Vec<Example>> {
    let ppdb = Ppdb::builtin().compile(genie_templates::intern::shared());
    let expanded = genie_parallel::par_map(
        threads,
        examples,
        |index, example| -> GenieResult<Vec<Example>> {
            let mut rng = StdRng::seed_from_u64(genie_parallel::item_seed(seed, index));
            let copies = factor(example);
            let mut out = expand_parameters(example, datasets, copies, &mut rng)?;
            // A small probability of additionally applying a PPDB rewrite keeps
            // the augmented set lexically varied without exploding its size.
            if rng.gen_bool(0.3) {
                out.extend(augment_ppdb(example, &ppdb, 1, &mut rng));
            }
            Ok(out)
        },
    );
    let mut out = Vec::new();
    for batch in expanded {
        out.extend(batch?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thingtalk::syntax::parse_program;

    fn example() -> Example {
        Example::new(
            "post funny cat on facebook",
            parse_program("now => @com.facebook.post(status = \"funny cat\")").unwrap(),
            ExampleSource::Synthesized,
        )
    }

    #[test]
    fn expansion_replaces_utterance_and_program_consistently() {
        let datasets = ParamDatasets::builtin();
        let mut rng = StdRng::seed_from_u64(3);
        let expanded = expand_parameters(&example(), datasets, 5, &mut rng).unwrap();
        assert!(!expanded.is_empty());
        for variant in &expanded {
            assert_ne!(variant.utterance, example().utterance);
            let constants = variant.program.constants();
            let (_, value) = &constants[0];
            let text = value.as_text().unwrap();
            let rendered = variant.text();
            assert!(
                rendered.contains(&text),
                "utterance `{rendered}` does not contain the new value `{text}`"
            );
            assert_eq!(variant.source, ExampleSource::Augmented);
        }
    }

    #[test]
    fn examples_without_string_constants_are_not_expanded() {
        let datasets = ParamDatasets::builtin();
        let mut rng = StdRng::seed_from_u64(3);
        let plain = Example::new(
            "show me my emails",
            parse_program("now => @com.gmail.inbox() => notify").unwrap(),
            ExampleSource::Synthesized,
        );
        assert!(expand_parameters(&plain, datasets, 5, &mut rng)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn ppdb_augmentation_keeps_the_program() {
        let ppdb = Ppdb::builtin().compile(genie_templates::intern::shared());
        let mut rng = StdRng::seed_from_u64(4);
        let augmented = augment_ppdb(&example(), &ppdb, 3, &mut rng);
        assert!(!augmented.is_empty());
        for variant in &augmented {
            assert_eq!(variant.program, example().program);
            assert_ne!(variant.utterance, example().utterance);
        }
    }

    #[test]
    fn expand_dataset_respects_the_factor() {
        let datasets = ParamDatasets::builtin();
        let examples = vec![example()];
        let large = expand_dataset(&examples, datasets, |_| 10, 5, 0).unwrap();
        let small = expand_dataset(&examples, datasets, |_| 1, 5, 0).unwrap();
        assert!(large.len() > small.len());
        let none = expand_dataset(&examples, datasets, |_| 0, 5, 0).unwrap();
        assert!(none.len() <= 1);
    }
}
