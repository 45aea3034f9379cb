//! The `radio-lab serve` / `work` / `status` command surface.
//!
//! `serve` is the user-facing entry point: submit specs, run the fleet,
//! print the merged tables (stdout carries *only* tables, so the output
//! stays byte-comparable to `radio-lab SPEC --stream`), and write the
//! serve report / CSV / merged JSONL artifacts. `work` is the worker
//! process `serve` spawns — it can also be launched by hand against any
//! spool, which is how the lease protocol will survive the planned
//! move to a TCP transport: the worker only speaks
//! [`super::spool`] primitives. `status` is the polling client:
//! it prints each submitted spec's phase, shard table, and the
//! merged-so-far preview (clearly marked INCOMPLETE while shards are
//! missing).
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error, `3`
//! every shard terminal but some exhausted — the run **degraded** and
//! only partial results exist.

use super::coord::{run_serve, ServeConfig};
use super::fault::FaultPlan;
use super::spool::{list_specs, load_partials, merged_preview, scan_spec, spec_status, SpecPhase};
use super::worker::{run_worker, WorkerConfig};
use crate::checkpoint::concat_record_logs;
use crate::scenario::{registry, ScenarioSpec};
use crate::table::Table;
use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// The serve-family usage text (printed on `--help` or a usage error).
pub const SERVE_USAGE: &str = "usage:
  radio-lab serve SPEC.json|e1..e11 ... --spool DIR [--workers N] [--shards M]
            [--chunk N] [--lease-ms MS] [--poll-ms MS] [--max-retries N]
            [--backoff-ms MS] [--worker-threads N] [--max-respawns N]
            [--fault-plan PLAN.json] [--quick|--full]
            [--out PATH] [--csv PATH] [--records PATH.jsonl] [--json]
  radio-lab work --spool DIR [--worker-id ID] [--poll-ms MS] [--threads N]
  radio-lab status --spool DIR [--json]

serve submits each spec to a fresh spool directory, spawns N worker
processes, supervises them (crashed workers are respawned while the
--max-respawns budget lasts), and merges the published shard partials
in shard order: the stdout table, --csv, and --records output are
byte-identical to the uninterrupted single-process --stream run. A
shard that fails --max-retries times (crashes don't count — they
recover via lease takeover) degrades the spec: serve prints the
partial table clearly marked INCOMPLETE, skips its CSV/JSONL
artifacts, and exits 3. --fault-plan injects deterministic faults
(kills, heartbeat stalls, torn record-log tails, sink I/O errors) for
reproducible chaos testing. --csv/--records accept exactly one spec.

work runs one worker against an existing spool until every submitted
spec is terminal; serve spawns these for you.

status polls a spool: per-spec phase, per-shard lease states, and the
merged-so-far preview table (marked INCOMPLETE until every shard has
published).";

fn fail_usage(msg: &str) -> i32 {
    eprintln!("{msg}");
    eprintln!("{SERVE_USAGE}");
    2
}

/// Parsed flags: values, switches, and positionals, with duplicates and
/// unknown flags rejected up front.
struct Parsed {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Parsed {
    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    fn u64_or(&self, flag: &str, default: u64, min: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => match v.parse::<u64>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!("{flag} requires an integer >= {min}, got {v}")),
            },
        }
    }
}

fn parse_args(
    args: &[String],
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        values: Vec::new(),
        switches: Vec::new(),
        positionals: Vec::new(),
    };
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if value_flags.contains(&a.as_str()) {
            if parsed.values.iter().any(|(f, _)| f == a) {
                return Err(format!(
                    "{a} given more than once — each value-taking flag may appear at most once"
                ));
            }
            match iter.next() {
                Some(v) if !v.starts_with("--") => parsed.values.push((a.clone(), v.clone())),
                _ => return Err(format!("{a} requires a value")),
            }
        } else if switch_flags.contains(&a.as_str()) {
            parsed.switches.push(a.clone());
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}"));
        } else {
            parsed.positionals.push(a.clone());
        }
    }
    Ok(parsed)
}

/// Resolves inputs to specs for both the main lab path and `serve`:
/// registry ids expand to built-ins, anything else reads as a
/// ScenarioSpec JSON file whose adversary probabilities must pass
/// [`radio_sim::spec::AdversaryKind::validate`], whose topologies must
/// pass [`radio_sim::spec::TopologyKind::validate`], and whose grid
/// product must fit [`ScenarioSpec::checked_grid_size`]. Everything
/// resolves before anything runs.
///
/// # Errors
///
/// A message naming the input: unreadable, not a ScenarioSpec, an
/// out-of-range adversary probability, a topology too large for the
/// `u32` CSR, or a grid product that overflows.
pub fn resolve_specs(inputs: &[String], quick: bool) -> Result<Vec<ScenarioSpec>, String> {
    let mut specs = Vec::new();
    for input in inputs {
        if let Some(built_in) = registry::specs(&input.to_lowercase(), quick) {
            specs.extend(built_in);
            continue;
        }
        let text = std::fs::read_to_string(input).map_err(|e| {
            format!("{input}: not a registry id (e1..e11) and unreadable as a file: {e}")
        })?;
        let spec: ScenarioSpec = serde_json::from_str(&text)
            .map_err(|e| format!("{input}: invalid ScenarioSpec JSON: {e}"))?;
        for adversary in &spec.adversaries {
            adversary.validate().map_err(|e| format!("{input}: {e}"))?;
        }
        for topology in &spec.topologies {
            topology
                .kind
                .validate()
                .map_err(|e| format!("{input}: {e}"))?;
        }
        if spec.checked_grid_size().is_none() {
            return Err(format!(
                "{input}: spec {}: the grid of {} topologies × {} adversaries × {} workloads × \
                 {} trials overflows the unit count",
                spec.id,
                spec.topologies.len(),
                spec.adversaries.len(),
                spec.workloads.len(),
                spec.trials
            ));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Prints a table exactly like the main lab does (markdown, or one-line
/// JSON under `--json`) — stdout byte-compatibility with `--stream` is
/// load-bearing.
fn emit_table(table: &Table, json_tables: bool) {
    if json_tables {
        match crate::checkpoint::json_compact(table) {
            Ok(json) => println!("{json}"),
            Err(e) => eprintln!("cannot serialize table: {e}"),
        }
    } else {
        println!("{}", table.render());
    }
}

/// One scenario in the serve report.
#[derive(Serialize)]
struct ServeScenario {
    spec: ScenarioSpec,
    phase: String,
    tables: Vec<Table>,
    units: u64,
    records: u64,
    wall_s: f64,
    shards_done: u64,
    shards_total: u64,
}

/// The serve results document (`radio-lab/serve/v1`).
#[derive(Serialize)]
struct ServeReport {
    schema: String,
    workers: u64,
    shards: u64,
    degraded: bool,
    respawns: u64,
    scenarios: Vec<ServeScenario>,
}

/// Routes `serve` / `work` / `status` invocations; `None` means the
/// first positional is not a serve-family subcommand and the caller
/// should fall through to the classic CLI.
pub fn dispatch(args: &[String]) -> Option<i32> {
    let (cmd, rest) = args.split_first()?;
    let code = match cmd.as_str() {
        "serve" => serve_main(rest),
        "work" => work_main(rest),
        "status" => status_main(rest),
        _ => return None,
    };
    Some(code)
}

fn serve_main(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return 0;
    }
    let parsed = match parse_args(
        args,
        &[
            "--spool",
            "--workers",
            "--shards",
            "--chunk",
            "--lease-ms",
            "--poll-ms",
            "--max-retries",
            "--backoff-ms",
            "--worker-threads",
            "--max-respawns",
            "--fault-plan",
            "--out",
            "--csv",
            "--records",
        ],
        &["--quick", "--full", "--json"],
    ) {
        Ok(p) => p,
        Err(e) => return fail_usage(&e),
    };
    let Some(spool) = parsed.value("--spool") else {
        return fail_usage("serve requires --spool DIR (the coordination directory)");
    };
    if parsed.positionals.is_empty() {
        return fail_usage("serve needs at least one SPEC.json or registry id");
    }
    let quick = parsed.has("--quick");
    let json_tables = parsed.has("--json");
    let specs = match resolve_specs(&parsed.positionals, quick) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let csv_path = parsed.value("--csv").map(str::to_string);
    let records_path = parsed.value("--records").map(str::to_string);
    if specs.len() > 1 && (csv_path.is_some() || records_path.is_some()) {
        return fail_usage("--csv/--records accept exactly one spec per serve");
    }
    let out_path = parsed
        .value("--out")
        .unwrap_or("LAB_serve.json")
        .to_string();

    let mut cfg = ServeConfig::new(PathBuf::from(spool));
    let numbers: [(&str, &mut u64, u64, u64); 8] = [
        ("--workers", &mut cfg.workers, 2, 1),
        ("--shards", &mut cfg.shards, 0, 1),
        ("--chunk", &mut cfg.chunk, 256, 1),
        ("--lease-ms", &mut cfg.lease_ms, 5_000, 1),
        ("--poll-ms", &mut cfg.poll_ms, 25, 1),
        ("--max-retries", &mut cfg.max_retries, 3, 1),
        ("--backoff-ms", &mut cfg.backoff_ms, 100, 0),
        ("--max-respawns", &mut cfg.max_respawns, 4, 0),
    ];
    for (flag, slot, default, min) in numbers {
        match parsed.u64_or(flag, default, min) {
            Ok(v) => *slot = v,
            Err(e) => return fail_usage(&e),
        }
    }
    if parsed.value("--shards").is_none() {
        // Default: one shard per worker.
        cfg.shards = cfg.workers;
    }
    match parsed.u64_or("--worker-threads", 1, 1) {
        Ok(v) => cfg.worker_threads = v as usize,
        Err(e) => return fail_usage(&e),
    }
    cfg.fault_plan_path = parsed.value("--fault-plan").map(str::to_string);
    if let Some(plan) = &cfg.fault_plan_path {
        // Fail fast on an unloadable plan instead of spawning a fleet
        // that dies one worker at a time.
        if let Err(e) = FaultPlan::load(Path::new(plan)) {
            eprintln!("--fault-plan: {e}");
            return 2;
        }
    }
    cfg.records = records_path.is_some();

    let outcome = match run_serve(&cfg, &specs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve: {e}");
            return 1;
        }
    };

    let mut report = ServeReport {
        schema: crate::schemas::SERVE_REPORT_SCHEMA.to_string(),
        workers: cfg.workers,
        shards: cfg.shards,
        degraded: outcome.degraded,
        respawns: outcome.respawns,
        scenarios: Vec::new(),
    };
    for so in &outcome.specs {
        if let Some(table) = &so.table {
            emit_table(table, json_tables);
        } else {
            eprintln!(
                "serve: {}: degraded with no partials published — no table to show",
                so.spec.id
            );
        }
        if so.phase == SpecPhase::Complete {
            if let (Some(path), Some(table)) = (&csv_path, &so.table) {
                if let Err(e) = std::fs::write(path, table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    return 1;
                }
                eprintln!("wrote {path}");
            }
            if let (Some(path), Some(paths)) = (&records_path, &so.records_paths) {
                match concat_record_logs(paths, Path::new(path)) {
                    Ok(bytes) => {
                        eprintln!("wrote {path} ({} record logs, {bytes} bytes)", paths.len());
                    }
                    Err(e) => {
                        eprintln!("cannot assemble {path}: {e}");
                        return 1;
                    }
                }
            }
        } else if csv_path.is_some() || records_path.is_some() {
            eprintln!(
                "serve: {}: degraded — skipping CSV/JSONL artifacts (partial data would be \
                 silently wrong)",
                so.spec.id
            );
        }
        report.scenarios.push(ServeScenario {
            spec: so.spec.clone(),
            phase: so.phase.as_str().to_string(),
            tables: so.table.iter().cloned().collect(),
            units: so.units,
            records: so.records,
            wall_s: so.wall_s,
            shards_done: so.shards_done,
            shards_total: so.shards_total,
        });
    }
    let json = match crate::checkpoint::json_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot serialize report: {e}");
            return 1;
        }
    };
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }
    eprintln!(
        "wrote {out_path} ({} scenario(s){})",
        report.scenarios.len(),
        if outcome.degraded { ", DEGRADED" } else { "" }
    );
    if outcome.degraded {
        3
    } else {
        0
    }
}

fn work_main(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return 0;
    }
    let parsed = match parse_args(
        args,
        &["--spool", "--worker-id", "--poll-ms", "--threads"],
        &[],
    ) {
        Ok(p) => p,
        Err(e) => return fail_usage(&e),
    };
    if !parsed.positionals.is_empty() {
        return fail_usage("work takes no positional arguments");
    }
    let Some(spool) = parsed.value("--spool") else {
        return fail_usage("work requires --spool DIR");
    };
    let worker_id = parsed
        .value("--worker-id")
        .map_or_else(|| format!("w{}", std::process::id()), str::to_string);
    let poll_ms = match parsed.u64_or("--poll-ms", 25, 1) {
        Ok(v) => v,
        Err(e) => return fail_usage(&e),
    };
    let threads = match parsed.value("--threads") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => return fail_usage(&format!("--threads requires an integer >= 1, got {v}")),
        },
    };
    let fault_plan = match FaultPlan::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[{worker_id}] fault plan: {e}");
            return 1;
        }
    };
    let cfg = WorkerConfig {
        spool: PathBuf::from(spool),
        worker_id: worker_id.clone(),
        poll_ms,
        threads,
        fault_plan,
    };
    match run_worker(&cfg) {
        Ok(report) => {
            eprintln!(
                "[{worker_id}] done: {} published, {} abandoned, {} failed",
                report.published, report.abandoned, report.failed
            );
            0
        }
        Err(e) => {
            eprintln!("[{worker_id}] worker error: {e}");
            1
        }
    }
}

fn status_main(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return 0;
    }
    let parsed = match parse_args(args, &["--spool"], &["--json"]) {
        Ok(p) => p,
        Err(e) => return fail_usage(&e),
    };
    if !parsed.positionals.is_empty() {
        return fail_usage("status takes no positional arguments");
    }
    let Some(spool) = parsed.value("--spool") else {
        return fail_usage("status requires --spool DIR");
    };
    let json = parsed.has("--json");
    let dirs = match list_specs(Path::new(spool)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("status: {spool}: {e}");
            return 1;
        }
    };
    if dirs.is_empty() {
        eprintln!("status: {spool}: no specs submitted");
        return 0;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for sd in &dirs {
        let result = (|| -> std::io::Result<()> {
            let manifest = sd.load_manifest()?;
            let scan = scan_spec(sd, &manifest, SystemTime::now())?;
            let status = spec_status(&manifest, &scan);
            if json {
                writeln!(out, "{}", crate::checkpoint::json_compact(&status)?)?;
                return Ok(());
            }
            writeln!(
                out,
                "{}: {} ({}/{} shards done)",
                status.spec_id, status.phase, status.shards_done, status.shards_total
            )?;
            for s in &status.shards {
                let progress = s
                    .next_index
                    .map_or(String::new(), |n| format!(" [next index {n}]"));
                if s.detail.is_empty() {
                    writeln!(out, "  shard {}: {}{progress}", s.index, s.state)?;
                } else {
                    writeln!(
                        out,
                        "  shard {}: {} — {}{progress}",
                        s.index, s.state, s.detail
                    )?;
                }
            }
            let spec = sd.load_spec()?;
            let partials = load_partials(sd, &manifest)?;
            if let Some(table) = merged_preview(&spec, &partials, manifest.shards)? {
                writeln!(out, "{}", table.render())?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("status: {}: {e}", sd.name());
            return 1;
        }
    }
    0
}
