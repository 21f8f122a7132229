//! A miniature search engine: the Elasticsearch stand-in for the RAG
//! experiments.
//!
//! Section VI runs three retrieval methods over BEIR, with the documents
//! held in an Elasticsearch database, entirely inside TDX:
//!
//! * **BM25** — classic keyword ranking ([`index::InvertedIndex`]).
//! * **Reranked BM25** — BM25 candidates re-scored by a cross-encoder
//!   ([`rerank`]).
//! * **SBERT** — dense retrieval by cosine similarity over sentence
//!   embeddings ([`dense`]).
//!
//! Everything is implemented from scratch: text analysis ([`text`]), the
//! inverted index with BM25 scoring, a deterministic feature-hashing
//! embedder with a brute-force vector index, the reranker, a synthetic
//! BEIR-like corpus generator with relevance judgments ([`beir`]), and
//! retrieval-quality metrics (nDCG@10, recall, MRR — [`metrics`]).
//! [`engine::Engine`] ties them together behind one Elasticsearch-shaped
//! facade.
//!
//! # Example
//!
//! ```
//! use cllm_retrieval::engine::{Engine, SearchMode};
//!
//! let mut engine = Engine::new(64);
//! engine.put(0, "confidential llm inference in trusted enclaves");
//! engine.put(1, "cooking pasta with garlic and olive oil");
//! let hits = engine.search("enclave inference", SearchMode::Bm25, 10);
//! assert_eq!(hits[0].doc, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beir;
pub mod dense;
pub mod engine;
pub mod index;
pub mod metrics;
pub mod rerank;
pub mod text;
