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
use proptest::prelude::*;

#[test]
fn chaos_corpus_replays_byte_identically() {
    let entries = corpus_texts();
    assert!(
        entries.len() >= 4,
        "corpus must hold the planted repro and one clean pin per path, found {}",
        entries.len()
    );
    for (path, text) in entries {
        let repro = Repro::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        // The file round-trips through to_json and from_json unchanged.
        assert_eq!(repro.to_json(), text, "{path}: to_json changes the file");
        let back = Repro::from_json(&repro.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(back, repro, "{path}: from_json(to_json) changes the repro");
        let outcome = repro.replay().unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            outcome.digest, repro.digest,
            "{path}: replay digest mismatch"
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

#[test]
fn repro_asking_for_too_much_work_is_rejected() {
    use cllm_serve::{MAX_EXPECTED_ARRIVALS, MAX_FLEET_NODES, MAX_HOURLY_RATE_X_DURATION};
    let over = |err: ReproError, want: f64| {
        assert!(
            matches!(err, ReproError::Invalid(InvalidPoint::OverCap { cap, .. }) if cap == want),
            "{err:?}"
        );
    };
    let edited = |name: &str, edit: fn(&mut PathSpec)| {
        parse_edited(corpus(name), edit).expect_err("a point over a work cap must not parse")
    };
    over(
        edited("clean-pin-cluster.json", |path| match path {
            PathSpec::Cluster(p) => p.wave.waves_per_hr = 1e300,
            other => panic!("cluster pin holds {other:?}"),
        }),
        MAX_HOURLY_RATE_X_DURATION,
    );
    over(
        edited("clean-pin-autoscale.json", |path| match path {
            PathSpec::Autoscale(p) => p.traffic.base_rate_per_s = 1e300,
            other => panic!("autoscale pin holds {other:?}"),
        }),
        MAX_EXPECTED_ARRIVALS,
    );
    over(
        edited("clean-pin-autoscale.json", |path| match path {
            PathSpec::Autoscale(p) => p.traffic.bursts.bursts_per_hr = 1e300,
            other => panic!("autoscale pin holds {other:?}"),
        }),
        MAX_HOURLY_RATE_X_DURATION,
    );
    over(
        edited("clean-pin-autoscale.json", |path| match path {
            PathSpec::Autoscale(p) => p.rental_rates.enclave_crashes_per_hr = 1e300,
            other => panic!("autoscale pin holds {other:?}"),
        }),
        MAX_HOURLY_RATE_X_DURATION,
    );

    // The single-node pin edited to 1e300 arrivals per second, and the
    // autoscale pin to 1e9 rentals, each one attested handshake, rented
    // up to 1e9 per tick: the CLI refuses both before any work.
    for (name, pinned, edit, cap, what) in [
        (
            "clean-pin-single.json",
            "\"rate_per_s\": 2.749636505241904,",
            "\"rate_per_s\": 1e300,",
            MAX_EXPECTED_ARRIVALS,
            "expected arrivals",
        ),
        (
            "clean-pin-autoscale.json",
            "\"scale_up_step\": 2,\n          \"max_rented\": 0,",
            "\"scale_up_step\": 1000000000,\n          \"max_rented\": 1000000000,",
            MAX_FLEET_NODES as f64,
            "max_rented",
        ),
    ] {
        let text = corpus_texts()
            .into_iter()
            .find(|(path, _)| path.ends_with(name))
            .expect("the pin exists")
            .1;
        assert!(text.contains(pinned), "{name} no longer holds {pinned}");
        let text = text.replace(pinned, edit);
        let err = Repro::from_json(&text).expect_err("a point over a work cap must not parse");
        // The message names the quantity and prints the cap's value:
        // 1e6 for the single pin, 1.024e3 for the autoscale pin.
        let message = err.to_string();
        assert!(message.contains(what), "{message}");
        assert!(
            message.contains(&format!("above the cap of {cap:e}")),
            "{message}"
        );
        over(err, cap);
        let path = format!("{}/over-cap-{name}", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, &text).expect("edited repro writes");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cllm"))
            .args(["chaos", "--repro", &path])
            .output()
            .expect("cllm runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(
            stderr.contains(&path) && stderr.contains(what) && stderr.contains("cap"),
            "stderr names the file and the cap: {stderr}"
        );
    }
}

/// Every corpus file's path and text, in name order.
fn corpus_texts() -> Vec<(String, String)> {
    let dir = format!("{}/tests/chaos_corpus", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/chaos_corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("corpus file reads");
            (p.display().to_string(), text)
        })
        .collect()
}

/// Parse `text` as a repro: it must fail with an error or yield a
/// point that passes its check, and never panic.
fn parse_is_total(text: &str) {
    if let Ok(repro) = Repro::from_json(text) {
        assert_eq!(
            repro.point.check(),
            Ok(()),
            "from_json returned an unchecked point"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics_the_repro_parser(bytes in collection::vec(any::<u8>(), 0..600)) {
        parse_is_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_corpus_text_never_panics_the_repro_parser(file in any::<usize>(), cut in 0.0f64..1.0) {
        let texts = corpus_texts();
        let text = &texts[file % texts.len()].1;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let end = (text.len() as f64 * cut) as usize;
        parse_is_total(&String::from_utf8_lossy(&text.as_bytes()[..end]));
    }

    #[test]
    fn bit_flipped_corpus_text_never_panics_the_repro_parser(
        file in any::<usize>(),
        flips in collection::vec((0.0f64..1.0, 0u32..8), 1..6),
    ) {
        let texts = corpus_texts();
        let mut bytes = texts[file % texts.len()].1.clone().into_bytes();
        for (at, bit) in flips {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
            let i = (bytes.len() as f64 * at) as usize;
            bytes[i] ^= 1 << bit;
        }
        parse_is_total(&String::from_utf8_lossy(&bytes));
    }
}
