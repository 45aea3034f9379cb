//! The fixture battery plus the workspace self-test.
//!
//! Each rule is demonstrated three ways: a seeded violation (`fail.rs`),
//! a compliant form (`pass.rs`), and a violation carrying a written
//! waiver (`waived.rs`). Fixtures live in `fixtures/` (not `tests/`, so
//! the test-path exemption cannot neuter them) and are linted under
//! *virtual* workspace paths so the path-scoped rules fire. On top of
//! that, the self-tests lint the real workspace — asserting zero
//! unwaived findings, that the engine carries the full marker set, and
//! that seeded violations in the real `engine.rs` are caught.

use radio_lint::{lint_source, lint_workspace, Finding};
use std::path::{Path, PathBuf};

/// Lints fixture text under a claimed workspace path, returning only the
/// named rule's findings.
fn lint_fixture(rule: &str, fixture: &str, virtual_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(fixture);
    let src = std::fs::read_to_string(&path).unwrap();
    lint_source(virtual_path, &src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn check_rule(rule: &str, virtual_path: &str) {
    let fail = lint_fixture(rule, "fail.rs", virtual_path);
    assert!(
        fail.iter().any(|f| f.waived.is_none()),
        "{rule}: fail.rs should produce an unwaived finding, got {fail:?}"
    );
    let pass = lint_fixture(rule, "pass.rs", virtual_path);
    assert!(
        pass.is_empty(),
        "{rule}: pass.rs should be clean, got {pass:?}"
    );
    let waived = lint_fixture(rule, "waived.rs", virtual_path);
    assert!(!waived.is_empty(), "{rule}: waived.rs should still report");
    assert!(
        waived.iter().all(|f| f.waived.is_some()),
        "{rule}: waived.rs findings should all carry a waiver, got {waived:?}"
    );
}

#[test]
fn rng_order_sync_fixtures() {
    check_rule("rng-order-sync", "crates/sim/src/engine.rs");
}

#[test]
fn no_alloc_region_fixtures() {
    check_rule("no-alloc-region", "crates/sim/src/engine.rs");
}

#[test]
fn schema_literal_fixtures() {
    check_rule("schema-literal", "crates/bench/src/serve/cli.rs");
}

#[test]
fn no_panic_serve_fixtures() {
    check_rule("no-panic-serve", "crates/bench/src/serve/spool.rs");
}

#[test]
fn forbid_unsafe_fixtures() {
    check_rule("forbid-unsafe", "crates/bench/src/bin/tool.rs");
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn engine_src() -> String {
    std::fs::read_to_string(workspace_root().join("crates/sim/src/engine.rs")).unwrap()
}

/// The whole repo passes its own lint: no unwaived findings anywhere.
#[test]
fn workspace_is_clean() {
    let findings = lint_workspace(&workspace_root()).unwrap();
    let unwaived: Vec<&Finding> = findings.iter().filter(|f| f.waived.is_none()).collect();
    assert!(
        unwaived.is_empty(),
        "workspace has unwaived lint findings:\n{}",
        unwaived
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The engine carries the full marker set: a decide block for the oracle
/// (`step_legacy`) and for the shared `decide_phase`, a receive block for
/// each of the three tiers, and a no-alloc fence around `RoundScratch`,
/// the three step tiers, the three shared phase helpers and the two
/// sparse-round helpers.
#[test]
fn engine_marker_coverage() {
    let src = engine_src();
    assert_eq!(
        src.matches("// lint: rng-order(decide)").count(),
        2,
        "step_legacy and decide_phase must tag their decide loops"
    );
    assert_eq!(
        src.matches("// lint: rng-order(receive)").count(),
        3,
        "each of the three tiers must tag its receive phase"
    );
    assert_eq!(
        src.matches("// lint: begin-no-alloc").count(),
        src.matches("// lint: end-no-alloc").count(),
        "no-alloc fences must pair up"
    );
    assert_eq!(
        src.matches("// lint: begin-no-alloc").count(),
        9,
        "RoundScratch, step, step_legacy, step_bitset, decide_phase, \
         refresh_due, after_call, adversary_phase and finish_round are fenced"
    );
}

/// Seeding a real divergence into the engine's receive phase is caught:
/// change the reference block's receive call and the other two tiers no
/// longer match it.
#[test]
fn seeded_rng_divergence_in_real_engine_is_caught() {
    let src = engine_src().replacen(
        "self.procs[v].receive(&mut ctx, msg);",
        "self.procs[v].receive(&mut ctx, msg.or(fallback));",
        1,
    );
    let findings = lint_source("crates/sim/src/engine.rs", &src);
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "rng-order-sync" && f.waived.is_none())
        .collect();
    assert_eq!(
        hits.len(),
        2,
        "two receive blocks should diverge from the tampered reference, got {findings:?}"
    );
}

/// Seeding an allocation into `step`'s fenced body is caught.
#[test]
fn seeded_allocation_in_real_engine_is_caught() {
    let src = engine_src().replacen(
        "let epoch = self.scratch.epoch;",
        "let boom = vec![0u8; 1];\n        let epoch = self.scratch.epoch;",
        1,
    );
    let findings = lint_source("crates/sim/src/engine.rs", &src);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "no-alloc-region" && f.waived.is_none()),
        "the seeded vec! should be flagged, got {findings:?}"
    );
}

/// End-to-end through the binary: the fixtures tree fails `--check` (and
/// writes the report artifact), the real workspace passes it.
#[test]
fn binary_check_mode() {
    let bin = env!("CARGO_BIN_EXE_radio-lint");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = std::env::temp_dir().join(format!("radio_lint_report_{}.txt", std::process::id()));
    let out = std::process::Command::new(bin)
        .args(["--check", "--root"])
        .arg(&fixtures)
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "seeded fixtures must fail --check: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let written = std::fs::read_to_string(&report).unwrap();
    let _ = std::fs::remove_file(&report);
    assert!(written.contains("unwaived"), "report artifact is written");

    let out = std::process::Command::new(bin)
        .args(["--check", "--root"])
        .arg(workspace_root())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "the workspace must pass --check:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
