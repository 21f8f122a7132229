//! The Elasticsearch-shaped facade tying the retrieval components
//! together: one store, three search modes.

use crate::dense::{Embedder, VectorIndex};
use crate::index::{Hit, InvertedIndex};
use crate::rerank::CrossEncoder;
use std::collections::HashMap;

/// How a search request is executed (the three RAG methods of Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchMode {
    /// Classic BM25 keyword ranking.
    Bm25,
    /// BM25 candidates re-scored by the cross-encoder.
    RerankedBm25 {
        /// How many BM25 candidates to rerank.
        candidates: usize,
    },
    /// Dense retrieval by embedding cosine similarity (SBERT-style).
    Sbert,
}

impl SearchMode {
    /// Figure-14 label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchMode::Bm25 => "BM25",
            SearchMode::RerankedBm25 { .. } => "Reranked BM25",
            SearchMode::Sbert => "SBERT",
        }
    }
}

/// A document store with lexical and dense indexes.
#[derive(Debug)]
pub struct Engine {
    inverted: InvertedIndex,
    vectors: VectorIndex,
    embedder: Embedder,
    cross_encoder: CrossEncoder,
    texts: HashMap<u64, String>,
}

impl Engine {
    /// A new engine with the given embedding dimension.
    #[must_use]
    pub fn new(embedding_dim: usize) -> Self {
        Engine {
            inverted: InvertedIndex::new(),
            vectors: VectorIndex::new(),
            embedder: Embedder::new(embedding_dim),
            cross_encoder: CrossEncoder::new(embedding_dim),
            texts: HashMap::new(),
        }
    }

    /// Index a document in both indexes.
    pub fn put(&mut self, doc: u64, text: &str) {
        self.inverted.add(doc, text);
        self.vectors.add(doc, self.embedder.embed(text));
        self.texts.insert(doc, text.to_owned());
    }

    /// Bulk-index documents.
    pub fn bulk<'a>(&mut self, docs: impl IntoIterator<Item = (u64, &'a str)>) {
        for (id, text) in docs {
            self.put(id, text);
        }
    }

    /// Number of documents indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the engine holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Retrieve a stored document's text.
    #[must_use]
    pub fn get(&self, doc: u64) -> Option<&str> {
        self.texts.get(&doc).map(String::as_str)
    }

    /// Execute a search, returning up to `k` hits.
    #[must_use]
    pub fn search(&self, query: &str, mode: SearchMode, k: usize) -> Vec<Hit> {
        match mode {
            SearchMode::Bm25 => self.inverted.search(query, k),
            SearchMode::RerankedBm25 { candidates } => {
                let pool = self.inverted.search(query, candidates.max(k));
                let mut reranked = self
                    .cross_encoder
                    .rerank(query, &pool, &self.inverted, |d| {
                        self.texts.get(&d).map_or("", String::as_str)
                    });
                reranked.truncate(k);
                reranked
            }
            SearchMode::Sbert => self.vectors.search(&self.embedder.embed(query), k),
        }
    }

    /// Approximate work units for one query in each mode — used by the
    /// perf layer to model Figure 14's relative retrieval latencies
    /// (BM25 cheap, reranked = BM25 + candidate re-scoring, SBERT = full
    /// index scan).
    #[must_use]
    pub fn query_cost_units(&self, mode: SearchMode) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let n = self.len() as f64;
        match mode {
            SearchMode::Bm25 => n * 0.02 + 1.0,
            SearchMode::RerankedBm25 { candidates } => {
                #[allow(clippy::cast_precision_loss)]
                let c = candidates as f64;
                n * 0.02 + 1.0 + c * 2.5
            }
            SearchMode::Sbert => n * 0.12 + 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beir::{self, BeirSpec};
    use crate::metrics::ndcg_at_k;

    fn loaded_engine() -> (Engine, beir::BeirDataset) {
        let data = beir::generate(&BeirSpec {
            topics: 6,
            docs_per_topic: 12,
            queries_per_topic: 2,
            doc_len: 30,
            seed: 5,
        });
        let mut e = Engine::new(128);
        for (id, text) in &data.docs {
            e.put(*id, text);
        }
        (e, data)
    }

    #[test]
    fn all_modes_retrieve_topical_docs() {
        let (e, data) = loaded_engine();
        for mode in [
            SearchMode::Bm25,
            SearchMode::RerankedBm25 { candidates: 20 },
            SearchMode::Sbert,
        ] {
            let mut total = 0.0;
            for (qid, qtext) in &data.queries {
                let hits = e.search(qtext, mode, 10);
                total += ndcg_at_k(&hits, &data.qrels[qid], 10);
            }
            let mean = total / data.queries.len() as f64;
            assert!(mean > 0.5, "{}: mean nDCG@10 {mean}", mode.label());
        }
    }

    #[test]
    fn reranking_does_not_hurt_much() {
        let (e, data) = loaded_engine();
        let mut bm25 = 0.0;
        let mut rr = 0.0;
        for (qid, qtext) in &data.queries {
            bm25 += ndcg_at_k(&e.search(qtext, SearchMode::Bm25, 10), &data.qrels[qid], 10);
            rr += ndcg_at_k(
                &e.search(qtext, SearchMode::RerankedBm25 { candidates: 20 }, 10),
                &data.qrels[qid],
                10,
            );
        }
        assert!(rr > bm25 * 0.8, "reranked {rr} vs bm25 {bm25}");
    }

    #[test]
    fn cost_ordering_matches_figure_14() {
        // Figure 14: BM25 cheapest, SBERT and reranked far costlier.
        let (e, _) = loaded_engine();
        let bm25 = e.query_cost_units(SearchMode::Bm25);
        let rr = e.query_cost_units(SearchMode::RerankedBm25 { candidates: 50 });
        let sbert = e.query_cost_units(SearchMode::Sbert);
        assert!(bm25 < sbert);
        assert!(bm25 < rr);
    }

    #[test]
    fn get_returns_stored_text() {
        let mut e = Engine::new(64);
        e.put(7, "hello world");
        assert_eq!(e.get(7), Some("hello world"));
        assert_eq!(e.get(8), None);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn bulk_indexes_everything() {
        let mut e = Engine::new(64);
        e.bulk([(0u64, "alpha"), (1, "beta"), (2, "gamma")]);
        assert_eq!(e.len(), 3);
    }
}
