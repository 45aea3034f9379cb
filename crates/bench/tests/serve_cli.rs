//! End-to-end tests of the fault-tolerant sweep service: `radio-lab
//! serve` with a worker fleet must produce stdout/CSV/JSONL
//! byte-identical to the uninterrupted single-process `--stream` run —
//! on the happy path, across worker counts, and under every injected
//! fault the service claims to survive (worker kills at each chunk
//! boundary, torn record-log tails, heartbeat stalls that force a lease
//! takeover, and bounded sink-error retries). A shard that exhausts its
//! retries must degrade loudly: partial table marked INCOMPLETE, no
//! CSV/JSONL artifacts, exit code 3.
//!
//! The spec opens with a deterministic clique, whose trials share one
//! build and its cached detector in runs of two under `--chunk 2`. The
//! reference streams at chunk 1, where nothing is shared, so every serve
//! run below diffs shared runs, split across chunk and attempt
//! boundaries, against private builds.

use std::path::{Path, PathBuf};
use std::process::Command;

const SPEC: &str = r#"{
  "id": "SERVE-CLI",
  "caption": "radio-lab serve chaos smoke",
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
  "trials": 4,
  "nest": "TopologyMajor",
  "seeds": { "net_base": 77, "run_base": 5 },
  "stop": "Default",
  "aggregate": null
}"#;

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("radio_serve_cli_{tag}_{}", std::process::id()));
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

/// Runs the uninterrupted single-process reference and returns its
/// stdout; `ref.csv` and `ref.jsonl` land in `dir`.
fn reference(dir: &Path) -> Vec<u8> {
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    let out = lab(
        &[
            "spec.json",
            "--stream",
            "--chunk",
            "1",
            "--no-records",
            "--records",
            "ref.jsonl",
            "--csv",
            "ref.csv",
            "--out",
            "ref.json",
        ],
        dir,
    );
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Asserts a finished serve run's artifacts match the reference
/// byte-for-byte.
fn assert_identical(dir: &Path, out: &std::process::Output, ref_stdout: &[u8], tag: &str) {
    assert!(
        out.status.success(),
        "{tag}: serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout,
        ref_stdout.to_vec(),
        "{tag}: stdout table drifted from the single-process run"
    );
    for (a, b) in [("ref.csv", "merged.csv"), ("ref.jsonl", "merged.jsonl")] {
        assert_eq!(
            std::fs::read(dir.join(a)).expect(a),
            std::fs::read(dir.join(b)).expect(b),
            "{tag}: {b} drifted from {a}"
        );
    }
}

/// The serve argument list every test shares; `extra` appends
/// test-specific flags.
fn serve_args<'a>(spool: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "serve",
        "spec.json",
        "--spool",
        spool,
        "--workers",
        "2",
        "--shards",
        "2",
        "--chunk",
        "2",
        "--poll-ms",
        "10",
        "--records",
        "merged.jsonl",
        "--csv",
        "merged.csv",
        "--out",
        "serve.json",
    ];
    args.extend_from_slice(extra);
    args
}

#[test]
fn serve_matches_stream_run_across_worker_counts() {
    let dir = scratch("happy");
    let ref_stdout = reference(&dir);
    for (workers, shards) in [("1", "1"), ("2", "3"), ("3", "2")] {
        let spool = format!("spool_w{workers}_s{shards}");
        let out = lab(
            &[
                "serve",
                "spec.json",
                "--spool",
                &spool,
                "--workers",
                workers,
                "--shards",
                shards,
                "--chunk",
                "2",
                "--poll-ms",
                "10",
                "--records",
                "merged.jsonl",
                "--csv",
                "merged.csv",
                "--out",
                "serve.json",
            ],
            &dir,
        );
        assert_identical(&dir, &out, &ref_stdout, &format!("{workers}w/{shards}s"));
        let report = std::fs::read_to_string(dir.join("serve.json")).expect("report");
        assert!(report.contains("\"radio-lab/serve/v1\""), "report schema");
        assert!(report.contains("\"complete\""), "phase recorded");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_recovers_from_a_kill_with_a_torn_records_tail() {
    let dir = scratch("killtear");
    let ref_stdout = reference(&dir);
    // Whichever worker runs shard 0's first attempt dies at the first
    // chunk boundary, tearing the record log on the way out. The lease
    // expires, another worker takes over from the checkpoint, and the
    // torn tail is truncated — output must not drift by a byte.
    std::fs::write(
        dir.join("plan.json"),
        r#"{ "schema": "radio-lab/fault-plan/v1", "events": [
            { "worker": null, "spec": null, "shard": 0, "attempt": 0, "at_chunk": 1,
              "action": { "Kill": { "tear_jsonl": true } } } ] }"#,
    )
    .expect("plan writes");
    let out = lab(
        &serve_args("spool", &["--lease-ms", "400", "--fault-plan", "plan.json"]),
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("died") && stderr.contains("137"),
        "no kill observed: {stderr}"
    );
    assert!(
        stderr.contains("dropped") && stderr.contains("torn"),
        "no torn-tail truncation observed: {stderr}"
    );
    assert_identical(&dir, &out, &ref_stdout, "kill+tear");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_survives_a_kill_at_every_chunk_boundary() {
    let dir = scratch("killmatrix");
    let ref_stdout = reference(&dir);
    // 12 grid units, 2 shards, chunk 2: each shard is 3 chunks, so
    // boundaries 1..=3 cover first / middle / final-chunk kills (the
    // final boundary dies after the shard's last checkpoint but before
    // the partial publishes — recovery must still finish it).
    for boundary in ["1", "2", "3"] {
        std::fs::write(
            dir.join("plan.json"),
            format!(
                r#"{{ "schema": "radio-lab/fault-plan/v1", "events": [
                    {{ "worker": null, "spec": null, "shard": 0, "attempt": 0,
                       "at_chunk": {boundary},
                       "action": {{ "Kill": {{ "tear_jsonl": false }} }} }} ] }}"#
            ),
        )
        .expect("plan writes");
        let spool = format!("spool_b{boundary}");
        let out = lab(
            &serve_args(&spool, &["--lease-ms", "400", "--fault-plan", "plan.json"]),
            &dir,
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("died"),
            "boundary {boundary}: no kill observed: {stderr}"
        );
        assert_identical(&dir, &out, &ref_stdout, &format!("boundary {boundary}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stalled_heartbeat_loses_the_lease_and_another_worker_takes_over() {
    let dir = scratch("stall");
    let ref_stdout = reference(&dir);
    // The first attempt on shard 0 stalls 1500 ms against a 300 ms
    // lease: the peer worker must take the shard over, and the stalled
    // worker must notice at its fence and abandon without publishing.
    std::fs::write(
        dir.join("plan.json"),
        r#"{ "schema": "radio-lab/fault-plan/v1", "events": [
            { "worker": null, "spec": null, "shard": 0, "attempt": 0, "at_chunk": 1,
              "action": { "StallHeartbeat": { "stall_ms": 1500 } } } ] }"#,
    )
    .expect("plan writes");
    let out = lab(
        &serve_args("spool", &["--lease-ms", "300", "--fault-plan", "plan.json"]),
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("taking over"),
        "no lease takeover observed: {stderr}"
    );
    assert!(
        stderr.contains("lost the lease") || stderr.contains("abandon"),
        "stalled worker never abandoned: {stderr}"
    );
    assert_identical(&dir, &out, &ref_stdout, "stall");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_retries_sink_errors_with_backoff_until_success() {
    let dir = scratch("retry");
    let ref_stdout = reference(&dir);
    // Shard 1's record-log writes fail on attempts 0 and 1; attempt 2
    // (within max_retries 3) runs clean. The run must end complete and
    // byte-identical, with both failures on the record.
    std::fs::write(
        dir.join("plan.json"),
        r#"{ "schema": "radio-lab/fault-plan/v1", "events": [
            { "worker": null, "spec": null, "shard": 1, "attempt": 0, "at_chunk": 0,
              "action": "SinkError" },
            { "worker": null, "spec": null, "shard": 1, "attempt": 1, "at_chunk": 0,
              "action": "SinkError" } ] }"#,
    )
    .expect("plan writes");
    let out = lab(
        &serve_args(
            "spool",
            &[
                "--max-retries",
                "3",
                "--backoff-ms",
                "20",
                "--fault-plan",
                "plan.json",
            ],
        ),
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("injected sink I/O fault").count(),
        2,
        "expected exactly two failed attempts: {stderr}"
    );
    assert_identical(&dir, &out, &ref_stdout, "retry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_degrades_when_a_shard_exhausts_its_retries() {
    let dir = scratch("degraded");
    let _ = reference(&dir);
    // Every attempt on shard 1 hits the sink fault; with max_retries 2
    // the shard exhausts and the spec degrades: exit 3, the partial
    // table clearly marked, and no CSV/JSONL artifacts on disk.
    std::fs::write(
        dir.join("plan.json"),
        r#"{ "schema": "radio-lab/fault-plan/v1", "events": [
            { "worker": null, "spec": null, "shard": 1, "attempt": null, "at_chunk": 0,
              "action": "SinkError" } ] }"#,
    )
    .expect("plan writes");
    let out = lab(
        &serve_args(
            "spool",
            &[
                "--max-retries",
                "2",
                "--backoff-ms",
                "10",
                "--fault-plan",
                "plan.json",
            ],
        ),
        &dir,
    );
    assert_eq!(out.status.code(), Some(3), "degraded run must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("INCOMPLETE"),
        "partial table not marked: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("DEGRADED"),
        "no degradation notice: {stderr}"
    );
    assert!(
        !dir.join("merged.csv").exists() && !dir.join("merged.jsonl").exists(),
        "degraded runs must not write merged artifacts"
    );
    // The spool keeps the evidence: status reports the exhausted shard
    // and the preview table carries the marker.
    let out = lab(&["status", "--spool", "spool"], &dir);
    assert!(out.status.success(), "status must succeed on a spool");
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(
        status.contains("degraded") && status.contains("exhausted"),
        "status missed the degradation: {status}"
    );
    assert!(status.contains("INCOMPLETE"), "preview unmarked: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_reports_a_complete_spool_and_emits_json() {
    let dir = scratch("status");
    let ref_stdout = reference(&dir);
    let out = lab(&serve_args("spool", &[]), &dir);
    assert_identical(&dir, &out, &ref_stdout, "pre-status serve");
    let out = lab(&["status", "--spool", "spool"], &dir);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("complete") && text.contains("2/2 shards done"),
        "status misread the spool: {text}"
    );
    assert!(
        !text.contains("INCOMPLETE"),
        "complete spool must not be marked incomplete: {text}"
    );
    let out = lab(&["status", "--spool", "spool", "--json"], &dir);
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout);
    let line = line.lines().next().expect("one status line");
    assert!(
        line.contains("\"radio-lab/spool-status/v1\"") && line.contains("\"complete\""),
        "status JSON misshaped: {line}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_usage_errors_are_loud_and_early() {
    let dir = scratch("usage");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    // No --spool.
    let out = lab(&["serve", "spec.json"], &dir);
    assert_eq!(out.status.code(), Some(2));
    // No specs.
    let out = lab(&["serve", "--spool", "spool"], &dir);
    assert_eq!(out.status.code(), Some(2));
    // Unloadable fault plan fails before any worker spawns.
    let out = lab(
        &[
            "serve",
            "spec.json",
            "--spool",
            "spool",
            "--fault-plan",
            "missing.json",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(!dir.join("spool").exists(), "nothing may touch the spool");
    // Reusing a spool that already holds a queue is refused.
    let out = lab(&serve_args("spool", &[]), &dir);
    assert!(out.status.success(), "first serve must succeed");
    let out = lab(&serve_args("spool", &[]), &dir);
    assert_eq!(out.status.code(), Some(1), "reused spool must be refused");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already holds a queue"),
        "refusal must say why"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_out_of_range_adversary_probabilities_before_spawning() {
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
        std::fs::write(dir.join("spec.json"), spec).expect("spec writes");
        let out = lab(&serve_args("spool", &[]), &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{adversary}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{adversary} panicked: {stderr}"
        );
        assert!(
            stderr.contains("spec.json") && stderr.contains(named),
            "{adversary}: the refusal must name the spec and the field: {stderr}"
        );
        assert!(
            !dir.join("spool").exists(),
            "{adversary}: nothing may touch the spool"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
