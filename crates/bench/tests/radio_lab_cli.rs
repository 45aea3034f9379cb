//! End-to-end tests of the `radio-lab` binary's streaming surface: the
//! `--stream --no-records --records --csv` pipeline produces parseable
//! artifacts, the streamed CSV is byte-identical to the materialized run's,
//! colliding `--csv` targets uniquify instead of clobbering, duplicate
//! value-taking flags are refused, a killed checkpointed sweep resumes
//! byte-identically (torn `--records` tails truncated with a warning,
//! changed-spec fingerprints refused), and a sharded sweep merges
//! byte-identically to the single-process run. The spec opens with a
//! deterministic clique, whose trials share one build and its cached
//! detector, so those shared runs cross the chunk boundaries of every
//! streamed, resumed and sharded run here. Specs whose grid product
//! overflows are refused before any unit runs.

use std::path::{Path, PathBuf};
use std::process::Command;

const SPEC: &str = r#"{
  "id": "CLI-STREAM",
  "caption": "radio-lab CLI streaming smoke",
  "render": "Aggregate",
  "topologies": [
    { "kind": { "Clique": { "n": 16 } }, "seed": null },
    { "kind": { "GeometricDense": { "n": 12 } }, "seed": null },
    { "kind": { "GeometricDense": { "n": 20 } }, "seed": null }
  ],
  "adversaries": [{ "Random": { "p": 0.5 } }],
  "workloads": [
    { "kind": { "Core": { "algo": "Mis" } },
      "run_seed": null, "net_seed": null, "det_seed": null }
  ],
  "trials": 3,
  "nest": "TopologyMajor",
  "seeds": { "net_base": 77, "run_base": 5 },
  "stop": "Default",
  "aggregate": null
}"#;

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("radio_lab_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn lab(args: &[&str], cwd: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_radio-lab"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("radio-lab spawns")
}

#[test]
fn streamed_csv_is_byte_identical_to_materialized() {
    let dir = scratch("ident");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");

    let out = lab(
        &["spec.json", "--out", "mat.json", "--csv", "mat.csv"],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = lab(
        &[
            "spec.json",
            "--stream",
            "--chunk",
            "2",
            "--no-records",
            "--records",
            "records.jsonl",
            "--out",
            "str.json",
            "--csv",
            "str.csv",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mat = std::fs::read_to_string(dir.join("mat.csv")).expect("materialized CSV");
    let str_csv = std::fs::read_to_string(dir.join("str.csv")).expect("streamed CSV");
    assert_eq!(str_csv, mat, "streamed CSV drifted from materialized");

    // The JSONL log holds one parseable record per unit (MIS = one record
    // each), and no cell anywhere reads "NaN".
    let jsonl = std::fs::read_to_string(dir.join("records.jsonl")).expect("JSONL log");
    assert_eq!(jsonl.lines().count(), 9, "3 topologies × 1 × 1 × 3 trials");
    for line in jsonl.lines() {
        assert!(line.contains("\"algo\""), "record line: {line}");
    }
    assert!(!str_csv.contains("NaN"), "NaN leaked into CSV: {str_csv}");

    // The streamed results JSON carries counts, not records.
    let report = std::fs::read_to_string(dir.join("str.json")).expect("results JSON");
    assert!(report.contains("\"schema\": \"radio-lab/v2\""));
    assert!(report.contains("\"units\": 9"));
    assert!(
        report.contains("\"run\": null"),
        "records embedded despite --no-records"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_csv_targets_uniquify_and_warn() {
    let dir = scratch("dup");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    // The same spec twice: both tables share the id CLI-STREAM, which
    // previously collapsed to one clobbered CSV target.
    let out = lab(
        &[
            "spec.json",
            "spec.json",
            "--out",
            "dup.json",
            "--csv",
            "dup.csv",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = dir.join("dup_CLI-STREAM.csv");
    let second = dir.join("dup_CLI-STREAM_2.csv");
    assert!(first.exists(), "first table's CSV missing");
    assert!(
        second.exists(),
        "second table's CSV was clobbered into the first"
    );
    assert_eq!(
        std::fs::read_to_string(&first).expect("first CSV"),
        std::fs::read_to_string(&second).expect("second CSV"),
        "identical specs must produce identical tables"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("collides"),
        "no collision warning in stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunk_without_stream_is_rejected() {
    let dir = scratch("reject");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    let out = lab(&["spec.json", "--chunk", "4"], &dir);
    assert!(
        !out.status.success(),
        "--chunk without --stream must exit nonzero"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_value_flags_are_rejected_not_swallowed() {
    // `--out a.json --out b.json` used to keep a.json and silently treat
    // b.json as a positional (spec file) argument.
    let dir = scratch("dupflag");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    for dup in [
        ["--out", "a.json", "--out", "b.json"],
        ["--csv", "a.csv", "--csv", "b.csv"],
        ["--threads", "1", "--threads", "2"],
    ] {
        let mut args = vec!["spec.json"];
        args.extend(dup);
        let out = lab(&args, &dir);
        assert!(
            !out.status.success(),
            "duplicate {} must exit nonzero",
            dup[0]
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(dup[0]) && stderr.contains("at most once"),
            "unclear duplicate-flag error: {stderr}"
        );
        assert!(
            !dir.join("a.json").exists() && !dir.join("b.json").exists(),
            "a duplicate flag still wrote output"
        );
    }
    // --records and --chunk are stream-only; exercise their duplicates
    // under --stream.
    let out = lab(
        &[
            "spec.json",
            "--stream",
            "--chunk",
            "2",
            "--chunk",
            "3",
            "--out",
            "o.json",
        ],
        &dir,
    );
    assert!(!out.status.success(), "duplicate --chunk must exit nonzero");
    let out = lab(
        &[
            "spec.json",
            "--stream",
            "--records",
            "a.jsonl",
            "--records",
            "b.jsonl",
        ],
        &dir,
    );
    assert!(
        !out.status.success(),
        "duplicate --records must exit nonzero"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lab` with an environment variable set.
fn lab_env(args: &[&str], cwd: &Path, key: &str, value: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_radio-lab"))
        .args(args)
        .current_dir(cwd)
        .env(key, value)
        .output()
        .expect("radio-lab spawns")
}

#[test]
fn killed_sweep_resumes_byte_identical_even_with_a_torn_records_tail() {
    let dir = scratch("resume");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    // Uninterrupted reference.
    let out = lab(
        &[
            "spec.json",
            "--stream",
            "--chunk",
            "2",
            "--records",
            "ref.jsonl",
            "--out",
            "ref.json",
            "--csv",
            "ref.csv",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ref_stdout = out.stdout.clone();
    // Interrupted run: the sweep "dies" at the second chunk boundary
    // (mimicking SIGKILL with exit 137), leaving the checkpoint behind.
    let args = [
        "spec.json",
        "--stream",
        "--chunk",
        "2",
        "--records",
        "run.jsonl",
        "--out",
        "run.json",
        "--csv",
        "run.csv",
        "--checkpoint",
        "cp.json",
    ];
    let out = lab_env(&args, &dir, "RADIO_LAB_DIE_AFTER_CHUNKS", "2");
    assert_eq!(out.status.code(), Some(137), "simulated kill exit code");
    assert!(dir.join("cp.json").exists(), "checkpoint left behind");
    assert!(
        !dir.join("run.csv").exists(),
        "no CSV must exist before completion"
    );
    // Simulate the torn final line of a crash mid-write.
    let mut torn = std::fs::read(dir.join("run.jsonl")).expect("partial log");
    torn.extend_from_slice(b"{\"algo\": \"torn");
    std::fs::write(dir.join("run.jsonl"), torn).expect("torn tail appended");
    // Resume: output must be byte-identical to the uninterrupted run.
    let mut resume_args = args.to_vec();
    resume_args.push("--resume");
    let out = lab(&resume_args, &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("torn"),
        "no torn-tail warning: {stderr}"
    );
    assert_eq!(out.stdout, ref_stdout, "stdout table drifted after resume");
    for (a, b) in [("ref.csv", "run.csv"), ("ref.jsonl", "run.jsonl")] {
        assert_eq!(
            std::fs::read(dir.join(a)).expect(a),
            std::fs::read(dir.join(b)).expect(b),
            "{b} drifted from {a}"
        );
    }
    assert!(
        !dir.join("cp.json").exists(),
        "checkpoint consumed on completion"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_changed_spec_fingerprint() {
    let dir = scratch("fingerprint");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    let args = [
        "spec.json",
        "--stream",
        "--chunk",
        "2",
        "--out",
        "run.json",
        "--checkpoint",
        "cp.json",
    ];
    let out = lab_env(&args, &dir, "RADIO_LAB_DIE_AFTER_CHUNKS", "1");
    assert_eq!(out.status.code(), Some(137));
    // The spec changes under the checkpoint (more trials).
    std::fs::write(
        dir.join("spec.json"),
        SPEC.replace("\"trials\": 3", "\"trials\": 4"),
    )
    .expect("spec rewrites");
    let mut resume_args = args.to_vec();
    resume_args.push("--resume");
    let out = lab(&resume_args, &dir);
    assert!(!out.status.success(), "fingerprint mismatch must refuse");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fingerprint") && stderr.contains("refusing"),
        "unclear refusal: {stderr}"
    );
    // Starting fresh over an existing checkpoint is refused too.
    let out = lab(&args, &dir);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "should point at --resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_sweep_merges_byte_identical_to_single_run() {
    let dir = scratch("shard");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    let out = lab(
        &[
            "spec.json",
            "--stream",
            "--chunk",
            "2",
            "--records",
            "ref.jsonl",
            "--out",
            "ref.json",
            "--csv",
            "ref.csv",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ref_stdout = out.stdout.clone();
    for i in 0..3 {
        let shard = format!("{i}/3");
        let records = format!("s{i}.jsonl");
        let partial = format!("s{i}.partial");
        let out = lab(
            &[
                "spec.json",
                "--stream",
                "--chunk",
                "2",
                "--shard",
                &shard,
                "--records",
                &records,
                "--out",
                &partial,
            ],
            &dir,
        );
        assert!(
            out.status.success(),
            "shard {i}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Merge accepts partials in any order; fold is by shard index.
    let out = lab(
        &[
            "merge",
            "s1.partial",
            "s2.partial",
            "s0.partial",
            "--out",
            "merged.json",
            "--csv",
            "merged.csv",
            "--records",
            "merged.jsonl",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, ref_stdout, "merged stdout table drifted");
    for (a, b) in [("ref.csv", "merged.csv"), ("ref.jsonl", "merged.jsonl")] {
        assert_eq!(
            std::fs::read(dir.join(a)).expect(a),
            std::fs::read(dir.join(b)).expect(b),
            "{b} drifted from {a}"
        );
    }
    // A missing shard is refused.
    let out = lab(
        &["merge", "s0.partial", "s2.partial", "--out", "x.json"],
        &dir,
    );
    assert!(!out.status.success(), "missing shard must refuse");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_flag_rejects_malformed_and_out_of_range_refs() {
    let dir = scratch("shardflag");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    // Every rejected form must exit 2 (usage) with a diagnostic naming
    // the problem, and must produce no partial artifact.
    for (shard, why) in [
        ("0/0", "zero shard count"),
        ("2/2", "index == count"),
        ("3/2", "index past count"),
        ("x/2", "non-numeric index"),
        ("1/y", "non-numeric count"),
        ("1", "missing count"),
        ("1-2", "wrong separator"),
        ("-1/2", "negative index"),
    ] {
        let out = lab(
            &[
                "spec.json",
                "--stream",
                "--shard",
                shard,
                "--out",
                "part.partial",
            ],
            &dir,
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "--shard {shard} ({why}) must exit 2"
        );
        assert!(
            !dir.join("part.partial").exists(),
            "--shard {shard} ({why}) must not write a partial"
        );
    }
    // The well-formed boundary neighbours still work.
    for shard in ["0/1", "1/2"] {
        let out = lab(
            &[
                "spec.json",
                "--stream",
                "--shard",
                shard,
                "--out",
                "part.partial",
            ],
            &dir,
        );
        assert!(
            out.status.success(),
            "--shard {shard} must run: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::remove_file(dir.join("part.partial")).expect("partial written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn topologies_past_the_u32_csr_exit_2_before_any_build() {
    // Refused from its counts alone: a clique of 65 537 nodes needs
    // 65 537 · 65 536 edge slots, one past what `u32` offsets hold.
    let dir = scratch("bigclique");
    let spec = SPEC.replace(
        r#"{ "Clique": { "n": 16 } }"#,
        r#"{ "Clique": { "n": 65537 } }"#,
    );
    assert_ne!(spec, SPEC, "the clique entry was replaced");
    std::fs::write(dir.join("big.json"), spec).expect("spec writes");
    let out = lab(
        &[
            "big.json",
            "--stream",
            "--no-records",
            "--out",
            "big.out.json",
        ],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("big.json") && stderr.contains("n = 65537"),
        "the refusal must name the spec and the field: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no unit may run");
    assert!(!dir.join("big.out.json").exists(), "no report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grid_products_past_usize_exit_2_before_any_unit_runs() {
    // Unchecked, 2 · 2^63 units wraps to 0 and 3 · 6 148 914 691 236 517 206
    // to 2: a sweep that reports success over a grid it never ran.
    let dir = scratch("biggrid");
    let two_topologies = SPEC.replace(
        ",\n    { \"kind\": { \"GeometricDense\": { \"n\": 20 } }, \"seed\": null }",
        "",
    );
    assert_ne!(two_topologies, SPEC, "the last topology was dropped");
    for (spec, trials) in [
        (two_topologies.as_str(), "9223372036854775808"),
        (SPEC, "6148914691236517206"),
    ] {
        let spec = spec.replace(r#""trials": 3"#, &format!(r#""trials": {trials}"#));
        std::fs::write(dir.join("huge.json"), spec).expect("spec writes");
        let out = lab(
            &[
                "huge.json",
                "--stream",
                "--csv",
                "huge.csv",
                "--out",
                "huge.out.json",
            ],
            &dir,
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "trials = {trials}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            stderr.contains("huge.json") && stderr.contains("CLI-STREAM"),
            "the refusal must name the spec: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no unit may run");
        assert!(!dir.join("huge.csv").exists(), "no table");
        assert!(!dir.join("huge.out.json").exists(), "no report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_adversary_probabilities_exit_2_without_a_panic() {
    let dir = scratch("badprob");
    for (adversary, named) in [
        (r#"{ "Random": { "p": 1.5 } }"#, "p = 1.5"),
        (
            r#"{ "Bursty": { "p_gb": 0.1, "p_bg": -0.1 } }"#,
            "p_bg = -0.1",
        ),
    ] {
        let spec = SPEC.replace(r#"{ "Random": { "p": 0.5 } }"#, adversary);
        assert_ne!(spec, SPEC, "the adversary axis was replaced");
        std::fs::write(dir.join("bad.json"), spec).expect("spec writes");
        let out = lab(
            &[
                "bad.json",
                "--stream",
                "--no-records",
                "--out",
                "bad.out.json",
            ],
            &dir,
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{adversary}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{adversary} panicked: {stderr}"
        );
        assert!(
            stderr.contains("bad.json") && stderr.contains(named),
            "{adversary}: the refusal must name the spec and the field: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{adversary}: no unit may run");
        assert!(!dir.join("bad.out.json").exists(), "{adversary}: no report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
