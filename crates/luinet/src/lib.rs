//! # LUInet — the semantic parser
//!
//! The paper's parser is MQAN, a seq2seq model with coattention,
//! self-attention and a pointer-generator decoder, augmented with a
//! pretrained ThingTalk decoder language model (§4). Training it requires a
//! GPU and a deep-learning framework; per the reproduction plan (DESIGN.md),
//! this crate substitutes a from-scratch, CPU-trainable parser that keeps
//! the properties the evaluation depends on:
//!
//! * it is trained on (sentence tokens, program tokens) pairs and decodes
//!   programs token by token, conditioned on the input sentence and the
//!   previously generated tokens ([`model::LuinetParser`]); besides the
//!   greedy decode it offers scored top-k candidates
//!   ([`model::LuinetParser::predict_topk`]: greedy top-1 plus a
//!   deterministic length-normalized beam), which is what the
//!   `genie::engine` serving facade consumes;
//! * it has a **copy mechanism**: at every step the decoder can either emit
//!   a token from the program vocabulary or copy a word from the input
//!   sentence, which is how unquoted free-form parameters are produced;
//! * it can be augmented with a **pretrained program language model**
//!   ([`lm::ProgramLm`]) trained on a large synthesized program corpus, the
//!   counterpart of §4.2's decoder LM (and the corresponding Table 3
//!   ablation);
//! * larger and more varied training sets improve it, so the Fig. 8 and
//!   Fig. 9 comparisons between training strategies are meaningful.
//!
//! The crate also provides the **Baseline** of §6 ([`baseline`]): a
//! Wang-et-al-style parser that matches the input against the canonical
//! sentences of the programs seen in training and returns the program of the
//! closest match.
//!
//! Both training and decoding run on interned 4-byte [`genie_nlp::Symbol`]s
//! end to end — split context/candidate feature hashing
//! ([`features::StepContext`]), per-sentence indexes
//! ([`features::SentenceIndex`]), compiled per-`prev1` candidate tables and
//! a shared-structure beam — and training is deterministically parallel
//! (fixed shard partition, iterative parameter mixing; see
//! [`model::ModelConfig::train_shards`]). Trained weights and every
//! prediction are byte-identical for any worker thread count.
//!
//! A trained parser keeps its weights sparse: the nonzero `(bucket,
//! weight, total)` entries plus a compact table of their averaged values
//! behind a presence filter ([`features::AveragedWeights`]). Training works on a sparse scratch
//! table of the buckets it writes, which exists only inside
//! [`model::LuinetParser::train`] and [`model::LuinetParser::fine_tune`].
//! Each decode call memoizes the
//! bucket values that depend only on the sentence and the candidate, and
//! every scored step, so the beam reuses what greedy decoding already
//! scored (see [`model`]).

pub mod baseline;
pub mod data;
pub mod features;
pub mod lm;
pub mod model;
pub mod snapshot;
pub mod vocab;

pub use baseline::BaselineParser;
pub use data::ParserExample;
pub use lm::ProgramLm;
pub use model::{LuinetParser, ModelConfig, ScoredPrediction};
pub use vocab::Vocab;
