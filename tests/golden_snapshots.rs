//! Golden-snapshot test: the committed JSON under `results/` pins the
//! exact serialized output (schema_version 2) of all 30 experiments.
//! Any drift — a changed simulation, column, precision, or schema field —
//! fails here with the experiment id, so table changes are always a
//! reviewed diff, never an accident. Regenerate with
//! `cargo run --release --bin cllm -- figures` after a deliberate change.

use confidential_llms_in_tees::core::experiments;

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn all_experiments_match_golden_snapshots() {
    let mut drifted = Vec::new();
    for (id, runner) in experiments::all_experiments() {
        let fresh = serde_json::to_string_pretty(runner().to_json()).expect("serialize");
        let path = golden_dir().join(format!("{id}.json"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        if fresh.trim_end() != golden.trim_end() {
            drifted.push(id);
        }
    }
    assert!(
        drifted.is_empty(),
        "experiments drifted from results/: {drifted:?}\n\
         If the change is intentional, regenerate with\n\
         `cargo run --release --bin cllm -- figures`"
    );
}

#[test]
fn goldens_carry_schema_version_and_raw_rows() {
    for (id, _) in experiments::all_experiments() {
        let path = golden_dir().join(format!("{id}.json"));
        let text = std::fs::read_to_string(&path).expect("golden file");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(experiments::SCHEMA_VERSION, 2, "schema version pinned here");
        assert_eq!(
            json.get("schema_version")
                .and_then(serde_json::Value::as_f64),
            Some(2.0),
            "{id}: schema_version"
        );
        let rows = json.get("rows").and_then(serde_json::Value::as_array);
        let raw = json.get("raw_rows").and_then(serde_json::Value::as_array);
        let (rows, raw) = (rows.expect("rows"), raw.expect("raw_rows"));
        assert_eq!(rows.len(), raw.len(), "{id}: rows vs raw_rows length");
        assert!(!rows.is_empty(), "{id}: empty table");
    }
}

#[test]
fn no_golden_snapshot_is_orphaned() {
    // Every JSON file in results/ must correspond to a registered
    // experiment — stale snapshots would silently stop being checked.
    let ids: Vec<&str> = experiments::all_experiments()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if name == "README.md" {
            continue;
        }
        let Some(stem) = name.strip_suffix(".json") else {
            panic!("non-JSON file in results/: {name}");
        };
        assert!(ids.contains(&stem), "orphaned golden snapshot: {name}");
    }
}
