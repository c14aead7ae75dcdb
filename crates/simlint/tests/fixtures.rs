//! Golden-file tests over the rule fixture corpus.
//!
//! Every rule has a `tests/fixtures/<CODE>/` directory holding a `bad.rs`
//! (must produce exactly the findings recorded in `tests/golden/<CODE>.json`)
//! and a `good.rs` (must be completely clean — near-miss idioms, allowed
//! sites, test-exempt code). Fixtures declare the path they are linted
//! under via a `//@ path:` first-line directive so path-scoped rules
//! (`L-SPAWN`, `L-FLOAT`, `L-PANIC`) can be exercised.
//!
//! When a rule's behavior or message changes intentionally, regenerate the
//! goldens with `cargo run -p simlint --example regen_fixtures` and review
//! the diff.

use simlint::{lint_files, rules, FileInput};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load_fixture(path: &Path) -> FileInput {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let fake = source
        .lines()
        .next()
        .and_then(|l| l.trim().strip_prefix("//@ path:"))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| panic!("{} is missing its //@ path: directive", path.display()));
    FileInput { path: fake, source }
}

fn fixture_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<_> = std::fs::read_dir(fixture_root())
        .expect("fixture corpus exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn every_rule_has_a_fixture_pair() {
    let catalog: BTreeSet<String> = rules::catalog()
        .iter()
        .map(|r| r.code().to_string())
        .collect();
    let covered: BTreeSet<String> = fixture_dirs()
        .iter()
        .map(|d| d.file_name().unwrap().to_string_lossy().to_string())
        .collect();
    assert_eq!(
        catalog, covered,
        "each rule needs a tests/fixtures/<CODE>/ directory and vice versa"
    );
    for dir in fixture_dirs() {
        assert!(
            dir.join("bad.rs").is_file(),
            "{} lacks bad.rs",
            dir.display()
        );
        assert!(
            dir.join("good.rs").is_file(),
            "{} lacks good.rs",
            dir.display()
        );
    }
}

#[test]
fn bad_fixtures_reproduce_their_golden_reports() {
    for dir in fixture_dirs() {
        let code = dir.file_name().unwrap().to_string_lossy().to_string();
        let report = lint_files(&[load_fixture(&dir.join("bad.rs"))]);
        assert!(
            !report.findings.is_empty(),
            "{code}/bad.rs produced no findings"
        );
        assert!(
            report.findings.iter().any(|d| d.rule == code),
            "{code}/bad.rs never triggered its own rule: {:?}",
            report.findings
        );
        let golden_path = fixture_root()
            .parent()
            .unwrap()
            .join(format!("golden/{code}.json"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
        let actual = report.to_json();
        assert_eq!(
            actual, golden,
            "{code}/bad.rs diverged from its golden report; if intentional, \
             regenerate with `cargo run -p simlint --example regen_fixtures` \
             and review the diff"
        );
    }
}

#[test]
fn good_fixtures_are_completely_clean() {
    for dir in fixture_dirs() {
        let code = dir.file_name().unwrap().to_string_lossy().to_string();
        let report = lint_files(&[load_fixture(&dir.join("good.rs"))]);
        assert!(
            report.is_clean(),
            "{code}/good.rs must lint clean, got: {:#?}",
            report.findings
        );
    }
}
