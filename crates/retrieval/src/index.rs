//! Inverted index with BM25 scoring.

use crate::text::analyze;
use std::collections::HashMap;

/// BM25 parameters (Elasticsearch defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalization.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// One posting: document id and term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting {
    doc: u64,
    tf: u32,
}

/// A scored search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Document id.
    pub doc: u64,
    /// Relevance score (higher is better).
    pub score: f64,
}

/// An in-memory inverted index over analyzed terms.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: HashMap<u64, u32>,
    total_len: u64,
    params: Bm25Params,
}

impl InvertedIndex {
    /// An empty index with default BM25 parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.doc_len.len()
    }

    /// Whether the index holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.doc_len.is_empty()
    }

    /// Index (or re-index) a document.
    ///
    /// # Panics
    ///
    /// Panics if the document id was already indexed (delete-then-add is
    /// not supported by this mini engine).
    pub fn add(&mut self, doc: u64, text: &str) {
        assert!(
            !self.doc_len.contains_key(&doc),
            "document {doc} already indexed"
        );
        let terms = analyze(text);
        let mut tf: HashMap<&str, u32> = HashMap::new();
        for t in &terms {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        for (term, count) in tf {
            self.postings
                .entry(term.to_owned())
                .or_default()
                .push(Posting { doc, tf: count });
        }
        let len = u32::try_from(terms.len()).unwrap_or(u32::MAX);
        self.doc_len.insert(doc, len);
        self.total_len += u64::from(len);
    }

    fn avg_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Inverse document frequency of a term (BM25+ style, floored at 0).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.doc_len.len() as f64;
        let df = self.postings.get(term).map_or(0, Vec::len) as f64;
        (((n - df + 0.5) / (df + 0.5)) + 1.0).ln().max(0.0)
    }

    /// BM25 search: returns up to `k` hits sorted by descending score
    /// (ties broken by ascending doc id for determinism).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let terms = analyze(query);
        let avg = self.avg_len();
        let mut scores: HashMap<u64, f64> = HashMap::new();
        for term in &terms {
            let Some(postings) = self.postings.get(term) else {
                continue;
            };
            let idf = self.idf(term);
            for p in postings {
                let len = f64::from(self.doc_len[&p.doc]);
                let tf = f64::from(p.tf);
                let denom = tf + self.params.k1 * (1.0 - self.params.b + self.params.b * len / avg);
                let score = idf * tf * (self.params.k1 + 1.0) / denom;
                *scores.entry(p.doc).or_insert(0.0) += score;
            }
        }
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .map(|(doc, score)| Hit { doc, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add(0, "trusted execution environments protect model weights");
        idx.add(1, "llama inference throughput on cpu platforms");
        idx.add(2, "cooking recipes with fresh garden vegetables");
        idx.add(3, "trusted enclaves run llama inference confidentially");
        idx
    }

    #[test]
    fn exact_topic_wins() {
        let idx = sample();
        let hits = idx.search("trusted llama inference", 4);
        assert_eq!(hits[0].doc, 3, "doc 3 matches all three terms");
        assert!(hits.iter().all(|h| h.doc != 2), "cooking doc is irrelevant");
    }

    #[test]
    fn empty_query_no_hits() {
        let idx = sample();
        assert!(idx.search("of the and", 5).is_empty());
    }

    #[test]
    fn unknown_terms_ignored() {
        let idx = sample();
        let hits = idx.search("llama zzzzz", 5);
        assert!(!hits.is_empty());
    }

    #[test]
    fn rare_terms_score_higher() {
        let mut idx = InvertedIndex::new();
        for i in 0..20 {
            idx.add(i, "common words everywhere common words");
        }
        idx.add(100, "common words plus unique sgx enclave");
        assert!(idx.idf("sgx") > idx.idf("common"));
        let hits = idx.search("sgx", 5);
        assert_eq!(hits[0].doc, 100);
    }

    #[test]
    fn scores_sorted_descending() {
        let idx = sample();
        let hits = idx.search("trusted inference", 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn k_truncates() {
        let idx = sample();
        assert!(idx.search("inference", 1).len() <= 1);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn duplicate_add_panics() {
        let mut idx = sample();
        idx.add(0, "again");
    }

    #[test]
    fn tf_saturation() {
        // BM25 saturates term frequency: 10 repetitions shouldn't score
        // 10x a single occurrence.
        let mut idx = InvertedIndex::new();
        idx.add(0, "enclave");
        idx.add(1, &"enclave ".repeat(10));
        idx.add(2, "unrelated filler text here");
        let hits = idx.search("enclave", 3);
        let (s_many, s_one) = if hits[0].doc == 1 {
            (hits[0].score, hits[1].score)
        } else {
            (hits[1].score, hits[0].score)
        };
        assert!(
            s_many / s_one < 3.0,
            "saturation failed: {s_many} vs {s_one}"
        );
    }
}
