//! `L-PANIC` (`analyzer-panic`): panics in the streaming analyzers and
//! the trace decode path.
//!
//! The analyzers `verify.rs`, `hb.rs` and `timeline.rs`, and the decode
//! path under them — `setl3.rs` (container and record codec), `shard.rs`
//! (`BlockCursor` and the fold pipeline), `etl.rs` (`trace_info`) and
//! `event.rs` (`TraceBuilder::push_decoded`) — promise
//! *Diagnostic-and-continue* recovery: a malformed trace must produce a
//! machine-readable finding or a decode error, never kill the pass
//! mid-trace — the run store re-verifies every loaded artifact through
//! these paths, so a panic there turns one corrupt byte into a crashed
//! pipeline. This rule flags `unwrap`/`expect` calls, panicking macros,
//! and `[]` indexing (which panics out of range) in those modules'
//! production code, and every finding gates. A site whose invariant is
//! locally guaranteed carries `lint:allow(analyzer-panic): reason`.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::rules::Rule;
use crate::scope::FileModel;

/// The modules bound by the Diagnostic-and-continue contract.
const ANALYZER_FILES: [&str; 7] = [
    "crates/trace/src/verify.rs",
    "crates/trace/src/hb.rs",
    "crates/trace/src/timeline.rs",
    "crates/trace/src/setl3.rs",
    "crates/trace/src/shard.rs",
    "crates/trace/src/etl.rs",
    "crates/trace/src/event.rs",
];

/// Keywords after which a `[` opens a pattern, type or array expression,
/// never an index: `let [a, b] = w`, `for x in [a, b]`, `&mut [u8]`,
/// `impl T for [u8]`, `return [1, 2]`. `self` and `await` stay out: they
/// end an expression, so `self[i]` and `f.await[i]` do index.
const NON_POSTFIX_KEYWORDS: [&str; 12] = [
    "break", "const", "for", "if", "in", "let", "match", "mut", "return", "where", "while", "yield",
];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The `L-PANIC` rule.
pub struct AnalyzerPanic;

impl AnalyzerPanic {
    fn emit(&self, fm: &FileModel<'_>, i: usize, what: String, out: &mut Vec<Diagnostic>) {
        let t = &fm.tokens[i];
        out.push(Diagnostic {
            rule: self.code(),
            name: self.name(),
            severity: Severity::Error,
            file: fm.path.to_string(),
            line: t.line,
            col: t.col,
            message: format!(
                "{what} can panic mid-trace; the streaming analyzers promise \
                 Diagnostic-and-continue recovery"
            ),
            suggestion: "return a Diagnostic / decode error instead (get()/checked access with a \
                         graceful fallback); annotate `lint:allow(analyzer-panic): reason` when \
                         the invariant is locally guaranteed"
                .to_string(),
            context: fm.context(t.line),
        });
    }
}

impl Rule for AnalyzerPanic {
    fn code(&self) -> &'static str {
        "L-PANIC"
    }

    fn name(&self) -> &'static str {
        "analyzer-panic"
    }

    fn check_file(&mut self, fm: &FileModel<'_>, out: &mut Vec<Diagnostic>) {
        if !ANALYZER_FILES.contains(&fm.path) {
            return;
        }
        let toks = fm.tokens;
        for i in 0..toks.len() {
            if fm.in_test[i] {
                continue;
            }
            let t = &toks[i];
            // `.unwrap()` / `.expect(...)`.
            if t.is_punct(".")
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
            {
                self.emit(fm, i + 1, format!("`.{}()`", toks[i + 1].text), out);
                continue;
            }
            // `panic!(...)` and friends.
            if t.kind == TokKind::Ident
                && PANIC_MACROS.iter().any(|m| t.is_ident(m))
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                self.emit(fm, i, format!("`{}!`", t.text), out);
                continue;
            }
            // Indexing `expr[i]`: a `[` directly after an identifier that
            // is not one of those keywords, `)` or `]`. Macro brackets
            // (`vec![`), attributes (`#[`), slice types and array literals
            // all have non-postfix predecessors.
            if t.is_punct("[")
                && i > 0
                && ((toks[i - 1].kind == TokKind::Ident
                    && !NON_POSTFIX_KEYWORDS.iter().any(|k| toks[i - 1].is_ident(k)))
                    || toks[i - 1].is_punct(")")
                    || toks[i - 1].is_punct("]"))
                && !(i >= 2 && toks[i - 2].is_punct("!"))
            {
                self.emit(fm, i, "indexing".to_string(), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let fm = FileModel::build(path, src, &lexed.tokens);
        let mut out = Vec::new();
        AnalyzerPanic.check_file(&fm, &mut out);
        out
    }

    #[test]
    fn panic_sites_fire_only_in_analyzer_modules() {
        let src = "fn f() { x.unwrap(); y.expect(\"e\"); panic!(\"boom\"); let v = xs[0]; }";
        for file in ["verify", "hb", "timeline", "setl3", "shard", "etl", "event"] {
            let path = format!("crates/trace/src/{file}.rs");
            assert_eq!(run(&path, src).len(), 4, "{path}");
        }
        assert!(run("crates/trace/src/blame.rs", src).is_empty());
        assert!(run("crates/workloads/src/video.rs", src).is_empty());
    }

    #[test]
    fn test_code_in_analyzer_modules_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(run("crates/trace/src/hb.rs", src).is_empty());
    }

    #[test]
    fn non_indexing_brackets_are_clean() {
        let src = "fn f(xs: &[u8]) -> [u8; 2] { let a = [1, 2]; let v = vec![3]; a }";
        assert!(run("crates/trace/src/setl3.rs", src).is_empty());
        // A keyword before `[` opens a pattern, a type or an array.
        let src = "impl T for [u8] {} fn f(w: [u8; 4], xs: &mut [u8]) -> [u8; 2] { \
                   let [a, b, ..] = w; for x in [a, b] { g(x); } return [a, b]; }";
        let found = run("crates/trace/src/timeline.rs", src);
        assert!(found.is_empty(), "{found:?}");
        // Chained postfix indexing and `self`, which ends an expression,
        // still fire.
        for src in ["fn f() { m(a)[0]; }", "fn f(&self) { self[0]; }"] {
            assert_eq!(run("crates/trace/src/setl3.rs", src).len(), 1, "{src}");
        }
    }

    #[test]
    fn unwrap_or_variants_are_clean() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }";
        assert!(run("crates/trace/src/timeline.rs", src).is_empty());
    }
}
