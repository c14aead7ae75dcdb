//! The workspace self-test: the whole repository must lint clean under the
//! full ten-rule catalog, via the same engine path `xtask lint` uses. The
//! only suppression is a reasoned inline allow.
//!
//! This is the migrated successor of xtask's old `the_workspace_is_clean`
//! test. If it fails, fix the new hazard, or annotate the site with a
//! reasoned `lint:allow(rule): why` when its invariant holds by
//! construction.

use std::path::Path;

#[test]
fn the_workspace_is_clean() {
    // crates/simlint → two levels up is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint sits two levels below the workspace root");
    let report = simlint::lint_workspace(root).expect("lint runs");
    assert!(
        report.is_clean(),
        "workspace lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|d| format!("{d}\n    context: {}", d.context))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
