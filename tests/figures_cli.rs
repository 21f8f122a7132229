//! The experiment CLI paths: `cllm figures` writes every registered
//! result byte-identical to the committed `results/`, `cllm figures <id>`
//! and `cllm <id>` run the same code, an unknown id is a usage error
//! listing the registry, `cllm insights` confirms all 12 insights,
//! DESIGN.md's experiment index names exactly the registered ids, and
//! README's list of runnable examples names exactly the files in
//! `examples/`.

use confidential_llms_in_tees::core::experiments::all_experiments;
use std::collections::BTreeSet;
use std::process::{Command, Output};

fn cllm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cllm"))
        .args(args)
        .output()
        .expect("cllm runs")
}

#[test]
fn figures_writes_every_registered_result_as_committed() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-results");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cllm"))
        .arg("figures")
        .env("CLLM_RESULTS_DIR", &dir)
        .output()
        .expect("cllm runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("results dir written")
        .map(|entry| {
            let name = entry.expect("results entry").file_name();
            name.to_string_lossy().into_owned()
        })
        .collect();
    let registered: BTreeSet<String> = all_experiments()
        .iter()
        .map(|(id, _)| format!("{id}.json"))
        .collect();
    assert_eq!(written, registered);
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for name in &written {
        let fresh = std::fs::read(dir.join(name)).expect("fresh result reads");
        let pinned = std::fs::read(committed.join(name)).expect("committed result reads");
        assert!(fresh == pinned, "{name} differs from results/{name}");
    }
    std::fs::remove_dir_all(&dir).expect("temp results removed");
}

#[test]
fn figures_id_prints_what_the_bare_id_prints() {
    let via_figures = cllm(&["figures", "fig9"]);
    let bare = cllm(&["fig9"]);
    assert!(via_figures.status.success() && bare.status.success());
    assert!(!bare.stdout.is_empty());
    assert_eq!(via_figures.stdout, bare.stdout);
}

#[test]
fn unknown_figure_id_exits_2_listing_the_registry() {
    let out = cllm(&["figures", "nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("fig9"), "{stderr}");
}

#[test]
fn insights_confirms_all_twelve() {
    let out = cllm(&["insights"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("12/12 insights confirmed"));
}

#[test]
fn design_experiment_index_names_every_registered_id() {
    let design = include_str!("../DESIGN.md");
    let start = design.find("\n## 4.").expect("DESIGN.md has a section 4");
    let end = start + design[start..].find("\n## 5.").expect("and a section 5");
    // One table under one header: its rows are the first contiguous
    // run of `|` lines.
    let table: String = design[start..end]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .collect();
    let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
    for id in &ids {
        assert!(
            table.contains(&format!("`cllm {id}`")),
            "DESIGN.md's section 4 table does not name `cllm {id}`"
        );
    }
    for named in table.split("`cllm ").skip(1) {
        let named = named.split('`').next().unwrap_or_default();
        assert!(ids.contains(&named), "section 4 names unknown id {named:?}");
    }
}

#[test]
fn readme_lists_exactly_the_runnable_examples() {
    let readme = include_str!("../README.md");
    let start = readme
        .find("\nRunnable examples")
        .expect("README has a runnable-examples list");
    // The list is the run of `* ` bullets, with their indented
    // continuation lines, under that line.
    let listed: BTreeSet<String> = readme[start + 1..]
        .lines()
        .skip(1)
        .skip_while(|line| line.trim().is_empty())
        .take_while(|line| line.starts_with("* ") || line.starts_with("  "))
        .filter_map(|line| line.strip_prefix("* `")?.split('`').next())
        .map(str::to_string)
        .collect();
    let files: BTreeSet<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples"))
            .expect("examples/ is readable")
            .map(|entry| {
                let name = entry.expect("examples/ entry").file_name();
                let name = name.to_string_lossy();
                name.strip_suffix(".rs").unwrap_or(&name).to_string()
            })
            .collect();
    assert_eq!(
        listed, files,
        "README's runnable examples must name exactly the files in examples/ \
         (what only re-runs a CLI subcommand belongs in the CLI)"
    );
}
