//! Replay the checked-in chaos regression corpus byte-identically.
//!
//! Each file under `tests/chaos_corpus/` is a shrunken minimal repro
//! (or a clean digest pin) captured by the chaos engine: a
//! self-contained `ChaosPoint` plus the report digest and violations
//! it must reproduce. A drift here means simulator behaviour changed;
//! regenerate deliberately with
//! `cargo run -p cllm-chaos --example gen_corpus -- tests/chaos_corpus`.

use cllm_chaos::point::{planted_infer_demo, PathSpec};
use cllm_chaos::{InvalidPoint, Repro, ReproError};

#[test]
fn chaos_corpus_replays_byte_identically() {
    let dir = format!("{}/tests/chaos_corpus", env!("CARGO_MANIFEST_DIR"));
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/chaos_corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 4,
        "corpus must hold the planted repro and one clean pin per path, found {}",
        entries.len()
    );
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let repro = Repro::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let outcome = repro
            .replay()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            outcome.digest,
            repro.digest,
            "{}: replay digest mismatch",
            path.display()
        );
    }
}

#[test]
fn planted_repro_in_corpus_is_minimal() {
    let path = format!(
        "{}/tests/chaos_corpus/planted-forbid-aborts.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let repro = Repro::from_json(&std::fs::read_to_string(path).expect("planted repro exists"))
        .expect("planted repro parses");
    assert!(
        repro.violations.iter().any(|v| v.label() == "forbidden"),
        "the planted repro records the forbid-aborts violation"
    );
    let events = match &repro.point.path {
        PathSpec::Autoscale(p) => p.base_fleet.iter().map(|n| n.events.len()).sum::<usize>(),
        other => panic!("planted repro must be an autoscale point, got {other:?}"),
    };
    assert!(
        events <= 3,
        "shrunken repro must stay minimal, has {events}"
    );
}

/// A corpus file, parsed.
fn corpus(name: &str) -> Repro {
    let path = format!("{}/tests/chaos_corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    Repro::from_json(&std::fs::read_to_string(path).expect("corpus file reads"))
        .expect("corpus file parses")
}

/// `Repro::from_json` on `repro`'s JSON once `edit` has changed its
/// point: the path a hand-edited repro file takes through the CLI.
fn parse_edited(mut repro: Repro, edit: impl FnOnce(&mut PathSpec)) -> Result<Repro, ReproError> {
    edit(&mut repro.point.path);
    Repro::from_json(&repro.to_json())
}

/// The single-node corpus file with its point swapped for the
/// (unplanted) infer demo, then edited: the corpus pins no infer point.
fn parse_edited_infer(
    edit: impl FnOnce(&mut cllm_chaos::point::InferPoint),
) -> Result<Repro, ReproError> {
    parse_edited(corpus("clean-pin-single.json"), |path| {
        let PathSpec::Infer(mut p) = planted_infer_demo().path else {
            unreachable!("the infer demo is an infer point")
        };
        p.plant_nan_lm_head = false;
        edit(&mut p);
        *path = PathSpec::Infer(p);
    })
}

#[test]
fn repro_with_an_empty_cluster_is_rejected() {
    let err = parse_edited(corpus("clean-pin-cluster.json"), |path| match path {
        PathSpec::Cluster(p) => p.nodes.clear(),
        other => panic!("cluster pin holds {other:?}"),
    })
    .expect_err("an empty cluster must not parse");
    assert_eq!(err, ReproError::Invalid(InvalidPoint::EmptyCluster));
    assert!(err.to_string().contains("no nodes"), "{err}");
}

#[test]
fn repro_with_an_empty_base_fleet_is_rejected() {
    let err = parse_edited(corpus("clean-pin-autoscale.json"), |path| match path {
        PathSpec::Autoscale(p) => p.base_fleet.clear(),
        other => panic!("autoscale pin holds {other:?}"),
    })
    .expect_err("an empty base fleet must not parse");
    assert_eq!(err, ReproError::Invalid(InvalidPoint::EmptyBaseFleet));
    assert!(err.to_string().contains("base_fleet"), "{err}");
}

#[test]
fn repro_with_an_out_of_vocabulary_prompt_token_is_rejected() {
    let err =
        parse_edited_infer(|p| p.prompt = vec![200]).expect_err("token 200 of 64 must not parse");
    assert_eq!(
        err,
        ReproError::Invalid(InvalidPoint::TokenOutOfVocab {
            token: 200,
            vocab: 64
        })
    );
    assert!(err.to_string().contains("token 200"), "{err}");
}

#[test]
fn repro_with_a_zero_draft_window_is_rejected() {
    let err = parse_edited_infer(|p| p.draft_k = 0).expect_err("draft_k 0 must not parse");
    assert_eq!(err, ReproError::Invalid(InvalidPoint::ZeroDraftWindow));
    assert!(err.to_string().contains("draft_k"), "{err}");
}

#[test]
fn repro_overflowing_the_kv_cache_is_rejected() {
    let err =
        parse_edited_infer(|p| p.max_new = 500).expect_err("an overflowing run must not parse");
    assert!(
        matches!(
            err,
            ReproError::Invalid(InvalidPoint::KvOverflow { max_seq: 128, .. })
        ),
        "{err:?}"
    );
}

#[test]
fn repro_with_a_zero_batch_cap_page_size_or_empty_length_range_is_rejected() {
    let rejection = |edit: fn(&mut cllm_chaos::point::BasePoint)| {
        parse_edited(corpus("clean-pin-single.json"), |path| match path {
            PathSpec::Single(p) => edit(&mut p.base),
            other => panic!("single pin holds {other:?}"),
        })
        .expect_err("must not parse")
    };
    let invalid = ReproError::Invalid;
    assert_eq!(
        rejection(|b| b.max_batch = 0),
        invalid(InvalidPoint::ZeroBatch)
    );
    assert_eq!(
        rejection(|b| b.kv.block_tokens = 0),
        invalid(InvalidPoint::ZeroPageTokens)
    );
    assert_eq!(
        rejection(|b| b.arrivals.prompt_range = (254, 16)),
        invalid(InvalidPoint::EmptyLengthRange)
    );
    assert_eq!(
        rejection(|b| b.arrivals.output_range = (0, 9)),
        invalid(InvalidPoint::EmptyLengthRange)
    );
}

#[test]
fn unedited_swap_parses_and_truncated_text_is_a_parse_error() {
    // The infer edits above start from a valid point: only the edit
    // makes them invalid.
    let repro = parse_edited_infer(|_| {}).expect("the unplanted infer demo parses");
    assert!(repro.point.check().is_ok());
    let text = std::fs::read_to_string(format!(
        "{}/tests/chaos_corpus/clean-pin-single.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("corpus file reads");
    assert!(matches!(
        Repro::from_json(&text[..text.len() / 2]),
        Err(ReproError::Parse(_))
    ));
}
