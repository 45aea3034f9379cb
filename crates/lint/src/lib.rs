//! `radio-lint`: project-specific static analysis for the radio-network
//! repro workspace.
//!
//! The differential test chain proves the engine tiers agree on the paths
//! the tests execute; this crate proves the *source-level* invariants that
//! make that agreement structural rather than coincidental:
//!
//! * **`rng-order-sync`** — marked decide/receive blocks across the
//!   engine tiers must contain token-identical RNG-draw sequences.
//! * **`no-alloc-region`** — fenced hot-loop regions must not contain
//!   allocating constructs (`Vec::new`, `vec!`, `collect`, …).
//! * **`schema-literal`** — schema-id strings (`radio-lab/*`,
//!   `bench-engine/*`) may only be defined in `radio_bench::schemas`.
//! * **`no-panic-serve`** — the serve/checkpoint layers must degrade, not
//!   panic: no `.unwrap()` / `.expect(` / `panic!` outside tests.
//! * **`forbid-unsafe`** — every crate root carries
//!   `#![forbid(unsafe_code)]` or a written waiver.
//!
//! Markers and waivers are line comments:
//!
//! ```text
//! // lint: rng-order(decide)      … // lint: end-rng-order(decide)
//! // lint: begin-no-alloc         … // lint: end-no-alloc
//! // lint:allow(<rule>) <reason>
//! ```
//!
//! A waiver on line L covers findings of that rule on lines L and L+1, so
//! it can sit on the offending line or immediately above it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use lexer::{lex, Comment, Lexed};
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule identifiers radio-lint knows about.
pub const RULES: [&str; 5] = [
    "rng-order-sync",
    "no-alloc-region",
    "schema-literal",
    "no-panic-serve",
    "forbid-unsafe",
];

/// Pseudo-rule used for malformed lint directives themselves.
pub const DIRECTIVE_RULE: &str = "lint-directive";

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (one of [`RULES`] or [`DIRECTIVE_RULE`]).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` if an inline waiver covers this finding.
    pub waived: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if let Some(reason) = &self.waived {
            write!(f, " (waived: {reason})")?;
        }
        Ok(())
    }
}

/// A parsed lint directive from a line comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// lint: rng-order(<group>)`
    RngBegin {
        /// Group name shared by the blocks to compare.
        group: String,
    },
    /// `// lint: end-rng-order(<group>)`
    RngEnd {
        /// Group name this end closes.
        group: String,
    },
    /// `// lint: begin-no-alloc`
    NoAllocBegin,
    /// `// lint: end-no-alloc`
    NoAllocEnd,
    /// `// lint:allow(<rule>) <reason>`
    Allow {
        /// Rule id being waived.
        rule: String,
        /// Written justification (must be non-empty).
        reason: String,
    },
}

/// A directive plus the line it appeared on.
#[derive(Debug, Clone)]
pub struct SourcedDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// The parsed directive.
    pub directive: Directive,
}

/// Parses lint directives out of the comment stream. Only line comments
/// whose trimmed text begins with `lint:` are considered — doc comments
/// *describing* the syntax (`/// // lint: …`) have text starting with
/// `/` and are therefore ignored. Malformed directives become
/// [`DIRECTIVE_RULE`] findings.
pub fn parse_directives(file: &str, comments: &[Comment]) -> (Vec<SourcedDirective>, Vec<Finding>) {
    let mut out = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        if !c.line_comment {
            continue;
        }
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        let bad = |msg: String| Finding {
            rule: DIRECTIVE_RULE,
            file: file.to_string(),
            line: c.line,
            message: msg,
            waived: None,
        };
        let directive = if let Some(arg) = rest.strip_prefix("allow(") {
            match arg.split_once(')') {
                Some((rule, reason)) => {
                    let rule = rule.trim();
                    let reason = reason.trim();
                    if !RULES.contains(&rule) {
                        findings.push(bad(format!("waiver names unknown rule '{rule}'")));
                        continue;
                    }
                    if reason.is_empty() {
                        findings.push(bad(format!(
                            "waiver for '{rule}' has no written justification"
                        )));
                        continue;
                    }
                    Directive::Allow {
                        rule: rule.to_string(),
                        reason: reason.to_string(),
                    }
                }
                None => {
                    findings.push(bad("unclosed 'allow(' directive".to_string()));
                    continue;
                }
            }
        } else if let Some(arg) = rest.strip_prefix("rng-order(") {
            match group_arg(arg) {
                Some(g) => Directive::RngBegin { group: g },
                None => {
                    findings.push(bad("malformed rng-order(<group>) directive".to_string()));
                    continue;
                }
            }
        } else if let Some(arg) = rest.strip_prefix("end-rng-order(") {
            match group_arg(arg) {
                Some(g) => Directive::RngEnd { group: g },
                None => {
                    findings.push(bad("malformed end-rng-order(<group>) directive".to_string()));
                    continue;
                }
            }
        } else if rest == "begin-no-alloc" {
            Directive::NoAllocBegin
        } else if rest == "end-no-alloc" {
            Directive::NoAllocEnd
        } else {
            findings.push(bad(format!("unknown lint directive '{rest}'")));
            continue;
        };
        out.push(SourcedDirective {
            line: c.line,
            directive,
        });
    }
    (out, findings)
}

fn group_arg(arg: &str) -> Option<String> {
    let (g, rest) = arg.split_once(')')?;
    let g = g.trim();
    if g.is_empty() || !rest.trim().is_empty() {
        return None;
    }
    Some(g.to_string())
}

/// An inclusive 1-based line range.
#[derive(Debug, Clone, Copy)]
pub struct LineRange {
    /// First line of the range.
    pub start: u32,
    /// Last line of the range.
    pub end: u32,
}

impl LineRange {
    /// Whether `line` falls inside the range.
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// Finds the line spans of `#[cfg(test)]` items (attribute line through
/// the matching closing brace). Findings inside these spans are exempt
/// from the path-scoped rules.
pub fn cfg_test_spans(lexed: &Lexed) -> Vec<LineRange> {
    let t = &lexed.toks;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < t.len() {
        let hit = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !hit {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while j + 1 < t.len() && t[j].is_punct('#') && t[j + 1].is_punct('[') {
            let mut depth = 0i32;
            j += 1;
            while j < t.len() {
                if t[j].is_punct('[') {
                    depth += 1;
                } else if t[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Scan to the item's body `{ … }`, or a `;` for bodiless items.
        let mut end_line = start_line;
        while j < t.len() {
            if t[j].is_punct(';') {
                end_line = t[j].line;
                j += 1;
                break;
            }
            if t[j].is_punct('{') {
                let mut depth = 0i32;
                while j < t.len() {
                    if t[j].is_punct('{') {
                        depth += 1;
                    } else if t[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            end_line = t[j].line;
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        spans.push(LineRange {
            start: start_line,
            end: end_line.max(start_line),
        });
        i = j.max(i + 7);
    }
    spans
}

/// Whether a workspace-relative path is test/bench code, exempt from the
/// path-scoped rules (`schema-literal`, `no-panic-serve`).
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

/// Lints one source file under its workspace-relative path. The path
/// decides which path-scoped rules apply, which is also how the fixture
/// tests exercise rules on files that live elsewhere on disk.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let (directives, mut findings) = parse_directives(rel_path, &lexed.comments);
    let test_spans = cfg_test_spans(&lexed);
    let in_tests = is_test_path(rel_path);

    findings.extend(rules::rng_order_sync(rel_path, &lexed, &directives));
    findings.extend(rules::no_alloc_region(rel_path, &lexed, &directives));
    if !in_tests {
        findings.extend(rules::schema_literal(rel_path, &lexed, &test_spans));
        findings.extend(rules::no_panic_serve(rel_path, &lexed, &test_spans));
        findings.extend(rules::forbid_unsafe(rel_path, &lexed));
    }
    apply_waivers(&mut findings, &directives);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Marks findings covered by an inline waiver. A waiver on line L covers
/// findings of the named rule on lines L and L+1.
fn apply_waivers(findings: &mut [Finding], directives: &[SourcedDirective]) {
    for f in findings.iter_mut() {
        for d in directives {
            if let Directive::Allow { rule, reason } = &d.directive {
                if rule == f.rule && (d.line == f.line || d.line + 1 == f.line) {
                    f.waived = Some(reason.clone());
                    break;
                }
            }
        }
    }
}

/// Walks the workspace at `root` and lints every `.rs` file. Skips
/// `target/`, dot-directories, and `fixtures/` directories (fixtures
/// contain seeded violations by design).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_parsing_roundtrip() {
        let src = "\
// lint: rng-order(decide)
// lint: end-rng-order(decide)
// lint: begin-no-alloc
// lint: end-no-alloc
// lint:allow(no-panic-serve) table emit is best-effort
/// doc prose that mentions // lint: rng-order(x) syntax
// plain comment
";
        let lexed = lex(src);
        let (ds, findings) = parse_directives("x.rs", &lexed.comments);
        assert_eq!(findings.len(), 0, "{findings:?}");
        assert_eq!(ds.len(), 5);
        assert!(
            matches!(&ds[4].directive, Directive::Allow { rule, .. } if rule == "no-panic-serve")
        );
    }

    #[test]
    fn bad_directives_are_findings() {
        let cases = [
            "// lint:allow(no-panic-serve)",
            "// lint:allow(not-a-rule) because",
            "// lint: rng-order()",
            "// lint: frobnicate",
        ];
        for src in cases {
            let lexed = lex(src);
            let (_, findings) = parse_directives("x.rs", &lexed.comments);
            assert_eq!(findings.len(), 1, "for {src}");
            assert_eq!(findings[0].rule, DIRECTIVE_RULE);
        }
    }

    #[test]
    fn cfg_test_span_covers_mod_body() {
        let src = "\
fn a() {}
#[cfg(test)]
mod tests {
    fn b() {
        x.unwrap();
    }
}
fn c() {}
";
        let lexed = lex(src);
        let spans = cfg_test_spans(&lexed);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].contains(5));
        assert!(!spans[0].contains(8));
    }

    #[test]
    fn test_paths_detected() {
        assert!(is_test_path("crates/bench/tests/serve_cli.rs"));
        assert!(is_test_path("crates/sim/benches/engine.rs"));
        assert!(!is_test_path("crates/bench/src/serve/spool.rs"));
    }
}
