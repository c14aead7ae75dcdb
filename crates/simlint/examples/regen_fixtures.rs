//! Regenerates the golden JSON reports for the rule fixture corpus.
//!
//! ```text
//! cargo run -p simlint --example regen_fixtures
//! ```
//!
//! For every `tests/fixtures/<CODE>/bad.rs` this lints the fixture (under
//! the fake path its `//@ path:` directive declares) and rewrites
//! `tests/golden/<CODE>.json` with the machine-readable report. Run it
//! after changing a rule's message, severity, or detection logic, then
//! review the golden diff like any other code change.

use simlint::{lint_files, FileInput};
use std::path::Path;

fn main() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixtures = manifest.join("tests/fixtures");
    let golden = manifest.join("tests/golden");
    let mut dirs: Vec<_> = std::fs::read_dir(&fixtures)
        .expect("fixture corpus exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    dirs.sort();
    for dir in dirs {
        let code = dir.file_name().unwrap().to_string_lossy().to_string();
        let bad = load_fixture(&dir.join("bad.rs"));
        let report = lint_files(&[bad]);
        let out = golden.join(format!("{code}.json"));
        // lint:allow(fs-write): goldens are whole-file dev artifacts,
        // rewritten by this explicit maintenance command and reviewed as a
        // diff.
        std::fs::write(&out, report.to_json()).expect("write golden");
        println!(
            "regen_fixtures: {code}: {} finding(s) -> {}",
            report.findings.len(),
            out.display()
        );
    }
}

/// Loads a fixture, taking its lint path from the `//@ path:` first line.
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
