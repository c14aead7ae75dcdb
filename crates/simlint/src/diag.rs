//! Structured lint diagnostics and their text / JSON renderings.

use std::fmt;

/// How serious a finding is. Both severities gate (`xtask lint` exits 1 on
/// any unsuppressed finding); the label communicates how likely the site is
/// to be a shipped hazard rather than a latent one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Likely-latent hazard (e.g. a narrowing cast that is safe today).
    Warning,
    /// Direct violation of a determinism/concurrency contract.
    Error,
}

impl Severity {
    /// Lowercase label used in renders (`"error"` / `"warning"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: rule identity, source location, message and suggestion.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule code (`L-CLOCK`, `L-LOCK`, …).
    pub rule: &'static str,
    /// Human rule name as spelled in `lint:allow(...)` (`wall-clock`, …).
    pub name: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Workspace-relative file path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong at the site.
    pub message: String,
    /// How to fix it (or how to sanction it with an annotation).
    pub suggestion: String,
    /// The trimmed source line the finding sits on, printed beside the
    /// location so a report reads without the source at hand.
    pub context: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] ({}) {}",
            self.file,
            self.line,
            self.col,
            self.severity.label(),
            self.rule,
            self.name,
            self.message
        )
    }
}

/// Escapes `s` for a JSON string body.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one diagnostic as a JSON object (stable field order).
pub fn diagnostic_json(d: &Diagnostic, indent: &str) -> String {
    format!(
        "{indent}{{\"rule\": \"{}\", \"name\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
         \"line\": {}, \"col\": {}, \"message\": \"{}\", \"suggestion\": \"{}\", \"context\": \"{}\"}}",
        d.rule,
        d.name,
        d.severity.label(),
        json_escape(&d.file),
        d.line,
        d.col,
        json_escape(&d.message),
        json_escape(&d.suggestion),
        json_escape(&d.context),
    )
}

/// Renders a finding list plus summary counters as the machine-readable
/// report `xtask lint --json` prints.
pub fn report_json(findings: &[Diagnostic], summary: &[(&str, usize)]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
    for (i, d) in findings.iter().enumerate() {
        out.push_str(&diagnostic_json(d, "    "));
        out.push_str(if i + 1 == findings.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"summary\": {");
    for (i, (k, v)) in summary.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{k}\": {v}"));
    }
    out.push_str("}\n}\n");
    out
}

/// Sorts diagnostics into the canonical reporting order.
pub fn sort(findings: &mut [Diagnostic]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "L-CLOCK",
            name: "wall-clock",
            severity: Severity::Error,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            message: "Instant::now breaks determinism".into(),
            suggestion: "use SimTime".into(),
            context: "let t = Instant::now();".into(),
        }
    }

    #[test]
    fn display_is_file_line_col_rule() {
        let d = sample();
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:3:9: error[L-CLOCK] (wall-clock) Instant::now breaks determinism"
        );
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let mut d = sample();
        d.message = "say \"hi\"\nback\\slash".into();
        let j = diagnostic_json(&d, "");
        assert!(j.contains("say \\\"hi\\\"\\nback\\\\slash"), "{j}");
    }

    #[test]
    fn report_json_has_findings_and_summary() {
        let j = report_json(&[sample()], &[("files", 2), ("allowed", 1)]);
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("\"rule\": \"L-CLOCK\""));
        assert!(j.contains("\"files\": 2, \"allowed\": 1"));
        let empty = report_json(&[], &[("files", 0)]);
        assert!(empty.contains("\"findings\": [\n  ]"), "{empty}");
    }
}
