//! The single-experiment CLI paths: `cllm figures <id>` and `cllm <id>`
//! run the same code, an unknown id is a usage error listing the
//! registry, `cllm insights` confirms all 12 insights, and DESIGN.md's
//! experiment index names exactly the registered ids.

use confidential_llms_in_tees::core::experiments::all_experiments;
use std::process::{Command, Output};

fn cllm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cllm"))
        .args(args)
        .output()
        .expect("cllm runs")
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
