//! `simlint` — a token-level determinism & concurrency static analyzer for
//! the parastat workspace.
//!
//! The crate is dependency-free (the workspace builds offline; no `syn`,
//! no `serde`): [`lexer`] hand-rolls a spanned Rust token stream, [`scope`]
//! builds a per-file semantic model (local-binding dataflow, function
//! extents, `#[cfg(test)]` masking), and [`rules`] holds the ten-rule
//! catalog. Findings are [`diag::Diagnostic`]s with a stable rule code,
//! severity, exact `file:line:col`, message and suggestion; [`diag`] also
//! renders the machine-readable `--json` report.
//!
//! Suppression has one tier: an inline allow, `// lint:allow(rule):
//! reason`, on the finding's line or in the comment block directly above
//! it. The rule may be named by code (`L-CLOCK`) or name (`wall-clock`);
//! an allow **without a stated reason does not suppress** — the reason is
//! the documentation the annotation exists to carry. Every other finding
//! gates.
//!
//! `cargo run -p xtask -- lint` is the CLI; this crate is the engine.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

use diag::Diagnostic;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One file handed to the engine: a workspace-relative path (forward
/// slashes) and its source text.
pub struct FileInput {
    /// Workspace-relative path, e.g. `crates/core/src/runner.rs`.
    pub path: String,
    /// Full source text.
    pub source: String,
}

/// The outcome of linting a file set.
pub struct Report {
    /// Gating findings: every finding no reasoned inline allow suppresses.
    /// Sorted by `(file, line, col, rule)`.
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed by a reasoned inline `lint:allow`.
    pub allowed: usize,
    /// Number of files linted.
    pub files: usize,
}

impl Report {
    /// True when nothing gates.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable JSON report (`xtask lint --json`).
    pub fn to_json(&self) -> String {
        diag::report_json(
            &self.findings,
            &[
                ("files", self.files),
                ("gating", self.findings.len()),
                ("allowed", self.allowed),
            ],
        )
    }
}

/// Lints a file set against the full rule catalog.
pub fn lint_files(files: &[FileInput]) -> Report {
    let mut rules = rules::catalog();
    let mut raw: Vec<Diagnostic> = Vec::new();
    // file → list of (code-line, rule-name-or-code) suppressions derived
    // from reasoned allow annotations.
    let mut allows: BTreeMap<&str, Vec<(u32, String)>> = BTreeMap::new();

    for f in files {
        let lexed = lexer::lex(&f.source);
        let fm = scope::FileModel::build(&f.path, &f.source, &lexed.tokens);
        for rule in &mut rules {
            rule.check_file(&fm, &mut raw);
        }
        // An allow's target is the first line at or after it that carries
        // code. Comments produce no tokens, so an annotation atop a comment
        // block lands on the line the block documents; a trailing
        // same-line annotation lands on its own line.
        let table = allows.entry(f.path.as_str()).or_default();
        for a in &lexed.allows {
            if !a.has_reason {
                continue;
            }
            let target = lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l >= a.line)
                .unwrap_or(a.line);
            table.push((target, a.rule.clone()));
        }
    }
    for rule in &mut rules {
        rule.finish(&mut raw);
    }

    let mut kept = Vec::new();
    let mut allowed = 0usize;
    for d in raw {
        let suppressed = allows.get(d.file.as_str()).is_some_and(|table| {
            table
                .iter()
                .any(|(line, rule)| *line == d.line && (rule == d.rule || rule == d.name))
        });
        if suppressed {
            allowed += 1;
        } else {
            kept.push(d);
        }
    }
    diag::sort(&mut kept);
    Report {
        findings: kept,
        allowed,
        files: files.len(),
    }
}

/// Collects the workspace's lintable `.rs` files under `root`: everything
/// below `crates/` and `src/`, skipping `target/`, `.git/`, and rule-engine
/// `fixtures/` corpora. Paths come back workspace-relative with forward
/// slashes, sorted for deterministic reports.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<FileInput>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&p)?;
        out.push(FileInput { path: rel, source });
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files = collect_workspace_files(root).map_err(|e| format!("walking workspace: {e}"))?;
    Ok(lint_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(path: &str, source: &str) -> FileInput {
        FileInput {
            path: path.into(),
            source: source.into(),
        }
    }

    #[test]
    fn a_finding_gates_and_a_reasoned_allow_suppresses_it() {
        let bad = input(
            "crates/x/src/lib.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        let r = lint_files(&[bad]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "L-CLOCK");
        assert!(!r.is_clean());

        let allowed = input(
            "crates/x/src/lib.rs",
            "fn f() { let t = Instant::now(); } // lint:allow(wall-clock): profiling probe\n",
        );
        let r = lint_files(&[allowed]);
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.allowed, 1);
    }

    #[test]
    fn allow_by_code_and_comment_block_above_both_work() {
        let src = "\
// The export path writes whole files on purpose.
// lint:allow(L-FSWRITE): final artifact export
fn export() { std::fs::write(p, b); }\n";
        let r = lint_files(&[input("crates/x/src/lib.rs", src)]);
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.allowed, 1);
    }

    #[test]
    fn an_allow_without_a_reason_does_not_suppress() {
        let src = "fn f() { let t = Instant::now(); } // lint:allow(wall-clock)\n";
        let r = lint_files(&[input("crates/x/src/lib.rs", src)]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.allowed, 0);
    }

    #[test]
    fn an_allow_for_a_different_rule_does_not_suppress() {
        let src = "fn f() { let t = Instant::now(); } // lint:allow(env-read): wrong rule\n";
        let r = lint_files(&[input("crates/x/src/lib.rs", src)]);
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn findings_come_out_sorted_and_json_renders() {
        let a = input(
            "crates/b/src/lib.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        let b = input(
            "crates/a/src/lib.rs",
            "fn f() { std::thread::sleep(d); let t = SystemTime::now(); }\n",
        );
        let r = lint_files(&[a, b]);
        assert_eq!(r.findings.len(), 3);
        assert!(r.findings[0].file <= r.findings[1].file);
        assert!(r.findings[1].file <= r.findings[2].file);
        let json = r.to_json();
        assert!(json.contains("\"gating\": 3"), "{json}");
        assert!(json.contains("\"files\": 2"));
    }

    #[test]
    fn cross_file_lock_findings_respect_allows() {
        let a = input(
            "crates/x/src/a.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             // lint:allow(lock-order): startup-only path, single-threaded by construction\n\
             fn ab() { let x = A.lock().unwrap(); let y = B.lock().unwrap(); }\n",
        );
        let b = input(
            "crates/x/src/b.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             fn ba() { let y = B.lock().unwrap(); let x = A.lock().unwrap(); }\n",
        );
        let r = lint_files(&[a, b]);
        // The annotated edge is suppressed; the opposite edge still gates.
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].file, "crates/x/src/b.rs");
        assert_eq!(r.allowed, 1);
    }
}
