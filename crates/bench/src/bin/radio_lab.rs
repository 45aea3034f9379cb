//! `radio-lab` — run declarative scenarios from JSON spec files or the
//! built-in experiment registry, and write machine-readable results.
//!
//! Usage:
//!
//! ```text
//! radio-lab my_scenario.json            # run a user-authored ScenarioSpec
//! radio-lab e1 e5 --quick               # registry experiments at smoke scale
//! radio-lab --all --full                # the whole E1–E11 suite
//! radio-lab spec.json --threads 4       # scoped pool for this run only
//! radio-lab spec.json --out results.json
//! radio-lab spec.json --csv results.csv # aggregated/raw tables as CSV
//! radio-lab spec.json --stream --chunk 512 \
//!   --records records.jsonl --no-records  # bounded-memory sweep
//! radio-lab spec.json --stream --checkpoint cp.json   # durable progress
//! radio-lab spec.json --stream --checkpoint cp.json --resume  # continue
//! radio-lab spec.json --stream --shard 0/4 --out s0.partial   # one shard
//! radio-lab merge s0.partial s1.partial s2.partial s3.partial \
//!   --out final.json --csv final.csv --records final.jsonl
//! ```
//!
//! Positional arguments naming registry ids (`e1`..`e11`) expand to the
//! built-in specs; anything else is read as a JSON [`ScenarioSpec`] file.
//! Tables print to stdout; the results file records, per scenario, the
//! spec, the rendered tables, the unit/record counts, the sweep's
//! wall-clock seconds, and (unless `--no-records` or `--stream`) the full
//! `ScenarioRun` with every `RunRecord`.
//!
//! `--threads N` installs a **scoped** [`ThreadPool`] for this run instead
//! of mutating `RAYON_NUM_THREADS`, so concurrent labs in one process (or
//! test harness) size their pools independently. A user spec with
//! `"render": "Aggregate"` (or an `"aggregate"` group-by block) prints a
//! grouped summary table — mean, CI, percentiles — instead of one raw row
//! per record; `--csv` writes whatever tables render as CSV.
//!
//! `--stream` switches execution to the bounded-memory pipeline
//! ([`radio_bench::scenario::run_spec_streaming`]): the grid runs in
//! index-ordered chunks of `--chunk` units (default 256) and every
//! completed unit's records flow to sinks instead of accumulating — an
//! aggregation sink for the table (byte-identical to the materialized
//! fold) and, with `--records PATH.jsonl`, a JSONL writer logging one
//! record per line in unit order. Streamed results JSON never embeds
//! records (counts and wall-clock replace them); specs that don't render
//! through the aggregate fold already — bespoke `E*` layouts, or
//! `Generic` without an `aggregate` block — fall back to the default
//! aggregate grouping under `--stream` with a stderr notice (their
//! layouts need the materialized records).
//!
//! # Resumable and sharded sweeps
//!
//! `--checkpoint PATH` (requires `--stream`, one scenario) makes progress
//! durable: after every chunk the sinks flush and a
//! [`radio_bench::checkpoint::SweepCheckpoint`] lands atomically at
//! `PATH` — spec fingerprint, next grid index, lossless accumulator
//! state, durable record-log line count. A killed sweep re-run with
//! `--resume` restores the accumulators, truncates a torn `--records`
//! tail back to the checkpointed durable prefix (with a warning), and
//! continues from the last durable chunk; the final table, CSV, and
//! JSONL are **byte-identical** to an uninterrupted run. A fingerprint
//! mismatch (the spec changed) is refused. Checkpointed, sharded and
//! served slices run the same executor as plain `--stream` — one shared
//! build per run of deterministic-topology units — through
//! [`radio_bench::checkpoint::run_slice_checkpointed`], and set up a
//! resume through [`radio_bench::checkpoint::resume_or_start`].
//!
//! `--shard i/m` (requires `--stream`, one scenario) runs the i-th of
//! `m` contiguous index ranges and writes a
//! [`radio_bench::checkpoint::ShardPartial`] to `--out` instead of a
//! results report (give each shard its own `--out` and, if logging,
//! `--records` path). `radio-lab merge a.partial b.partial … --out
//! final.json` folds the partials **in shard order** — producing table,
//! `--csv`, and concatenated `--records` output byte-identical to the
//! single-process `--stream` run — and refuses missing, duplicate, or
//! fingerprint-mismatched shards. Shards compose with `--checkpoint`:
//! each shard can itself be killed and resumed.

#![forbid(unsafe_code)]

use radio_bench::checkpoint::{
    merge_partials, resume_or_start, shard_range, ShardPartial, ShardRef, SweepCheckpoint,
    PARTIAL_SCHEMA,
};
use radio_bench::scenario::{
    registry, render, run_spec, run_spec_streaming, RenderKind, ScenarioRun, ScenarioSpec,
};
use radio_bench::serve::cli::resolve_specs;
use radio_bench::sink::{JsonlWriter, RecordSink, SinkFile, StreamAggregate};
use radio_bench::{spec_fingerprint, Table, ThreadPool};
use serde::Serialize;
use std::io::BufWriter;
use std::path::Path;

/// One executed scenario in the results file.
#[derive(Serialize)]
struct LabScenario {
    spec: ScenarioSpec,
    tables: Vec<Table>,
    /// Units executed (= the spec's grid product).
    units: u64,
    /// Records produced across all units.
    records: u64,
    /// Wall-clock seconds for the sweep.
    wall_s: f64,
    /// The full materialized run (planned units + every record); absent
    /// under `--stream` / `--no-records`, where counts stand in.
    run: Option<ScenarioRun>,
}

/// The whole results document.
#[derive(Serialize)]
struct LabReport {
    schema: String,
    quick: bool,
    streamed: bool,
    wall_s_total: f64,
    scenarios: Vec<LabScenario>,
}

const USAGE: &str = "usage: radio-lab [SPEC.json | e1..e11 | --all] [--quick|--full] \
[--threads N] [--out PATH] [--csv PATH] [--json] \
[--stream] [--chunk N] [--records PATH.jsonl] [--no-records] \
[--checkpoint PATH [--resume]] [--shard I/M]\n\
       radio-lab merge PART.partial... [--out PATH] [--csv PATH] \
[--records PATH.jsonl] [--json]\n\
       radio-lab serve|work|status ... (fault-tolerant multi-process \
sweep service; see radio-lab serve --help)\n\
\n\
SPEC.json is a ScenarioSpec; give it \"render\": \"Aggregate\" (or an\n\
\"aggregate\" block with group_by keys and metric reductions) for a\n\
grouped mean/CI/percentile summary instead of one row per record —\n\
see examples/aggregate_mis.json for the end-to-end shape.\n\
--threads N uses a scoped pool for this run only (no global state);\n\
--csv writes each rendered table as CSV (a single table lands at PATH;\n\
several get the table id spliced in before the extension, and\n\
colliding targets — duplicate table ids — are uniquified with a\n\
numeric suffix and a warning instead of clobbering each other).\n\
Value-taking flags may be given at most once; a repeated flag is an\n\
error rather than a silently ignored value.\n\
--stream executes the grid in index-ordered chunks of --chunk units\n\
(default 256), folding records into the aggregate table as they\n\
arrive: peak memory is O(chunk), not O(grid), and the table is\n\
byte-identical to the materialized run. --records PATH.jsonl streams\n\
every RunRecord as one JSON line (unit order) while the sweep runs;\n\
--no-records keeps the per-record dump out of the results JSON (unit\n\
and record counts plus wall-clock are always recorded). Specs that\n\
don't render through the aggregate fold — bespoke E* layouts, or\n\
Generic without an aggregate block — print the default aggregate\n\
summary under --stream (a notice says so).\n\
--checkpoint PATH (with --stream, one scenario) writes a durable\n\
checkpoint after every chunk: spec fingerprint, next grid index,\n\
lossless accumulator state. --resume restores it and continues from\n\
the last durable chunk — output is byte-identical to an uninterrupted\n\
run; a changed spec (fingerprint mismatch) is refused, and a torn\n\
--records tail from a crash is truncated back to the durable prefix\n\
with a warning.\n\
--shard I/M (with --stream, one scenario) runs the I-th of M\n\
contiguous grid slices and writes a shard partial to --out; 'radio-lab\n\
merge *.partial' folds partials in shard order into table/CSV/JSONL\n\
byte-identical to the single-process run (missing, duplicate, or\n\
mismatched shards are refused).";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Resolves each table id to its CSV path: a single table lands exactly at
/// `path`; several get the id spliced in before the extension. Targets
/// that would collide — the same table id twice (`radio-lab e1 e1`), or
/// two user specs sharing an id — are uniquified with a numeric suffix so
/// no table silently clobbers another; the returned flags mark which
/// targets were renamed (the caller warns).
fn csv_targets(path: &str, ids: &[String]) -> Vec<(String, bool)> {
    let mut used: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        let natural = if ids.len() == 1 {
            path.to_string()
        } else {
            spliced(path, id)
        };
        let mut target = natural.clone();
        let mut k = 2u32;
        while used.contains(&target) {
            target = spliced(path, &format!("{id}_{k}"));
            k += 1;
        }
        let renamed = target != natural;
        used.push(target.clone());
        out.push((target, renamed));
    }
    out
}

/// `path` with `id` spliced in before the extension.
fn spliced(path: &str, id: &str) -> String {
    let p = std::path::Path::new(path);
    let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("tables");
    let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("csv");
    p.with_file_name(format!("{stem}_{id}.{ext}"))
        .to_string_lossy()
        .into_owned()
}

/// Flags that take a value; each may appear at most once (a silently
/// swallowed duplicate is how `--out a.json --out b.json` used to write
/// only `a.json`).
const VALUE_FLAGS: [&str; 7] = [
    "--out",
    "--csv",
    "--records",
    "--chunk",
    "--threads",
    "--checkpoint",
    "--shard",
];

/// Warns beside the table when a log-log slope was fitted on a subset
/// (non-positive points dropped — the caption carries the count).
fn warn_if_subset_fit(table: &Table) {
    if table
        .caption
        .contains(radio_bench::aggregate::DROPPED_POINTS_MARKER)
    {
        eprintln!(
            "warning: {}: log-log exponent fitted on a subset — non-positive points were \
             dropped (count in the caption)",
            table.id
        );
    }
}

/// Prints a rendered table to stdout, as markdown or one-line JSON.
fn emit_table(table: &Table, json_tables: bool) {
    if json_tables {
        println!(
            "{}",
            serde_json::to_string(table).expect("table serializes")
        );
    } else {
        println!("{}", table.render());
    }
    warn_if_subset_fit(table);
}

fn write_report(report: &LabReport, out_path: &str) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(out_path, json).unwrap_or_else(|e| {
        fail(&format!("cannot write {out_path}: {e}"));
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The serve family (serve/work/status) owns its own flag grammar —
    // dispatch on the first positional before the classic parser runs.
    if let Some(code) = radio_bench::serve::cli::dispatch(&args) {
        std::process::exit(code);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    // Duplicate value-taking flags used to silently keep the first value
    // and swallow the second as a positional — refuse them instead.
    for flag in VALUE_FLAGS {
        let positions: Vec<usize> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == flag)
            .map(|(i, _)| i)
            .collect();
        if positions.len() > 1 {
            fail(&format!(
                "{flag} given {} times — each value-taking flag may appear at most once",
                positions.len()
            ));
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json_tables = args.iter().any(|a| a == "--json");
    let all = args.iter().any(|a| a == "--all");
    let stream = args.iter().any(|a| a == "--stream");
    let no_records = args.iter().any(|a| a == "--no-records");
    let resume = args.iter().any(|a| a == "--resume");
    // A value-taking flag's argument must exist and not itself be a flag —
    // `--csv --json` silently writing a file named "--json" is worse than
    // exiting.
    let flag_value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => {
                eprintln!("{flag} requires a value");
                usage();
            }
        }
    };
    let out_path = flag_value("--out")
        .unwrap_or("LAB_results.json")
        .to_string();
    let csv_path = flag_value("--csv").map(str::to_string);
    let records_path = flag_value("--records").map(str::to_string);
    let checkpoint_path = flag_value("--checkpoint").map(str::to_string);
    let shard = flag_value("--shard").map(|v| {
        ShardRef::parse(v).unwrap_or_else(|e| {
            fail(&format!("--shard: {e}"));
        })
    });
    let chunk = flag_value("--chunk").map_or(256u64, |v| match v.parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--chunk requires a positive integer, got {v}");
            usage();
        }
    });
    // A scoped pool for this run: nothing process-global changes, so
    // concurrent labs (or a test harness running labs in parallel) each
    // keep their own width.
    let pool = flag_value("--threads").map(|v| match v.parse::<usize>() {
        Ok(n) if n >= 1 => ThreadPool::new(n),
        _ => {
            eprintln!("--threads requires a positive integer, got {v}");
            usage();
        }
    });
    let mut skip_next = false;
    let mut inputs: Vec<String> = Vec::new();
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            if !matches!(
                a.as_str(),
                "--quick"
                    | "--full"
                    | "--json"
                    | "--all"
                    | "--stream"
                    | "--no-records"
                    | "--resume"
            ) {
                eprintln!("unknown flag {a}");
                usage();
            }
            continue;
        }
        inputs.push(a.clone());
    }

    // `radio-lab merge a.partial b.partial …` — fold shard partials.
    if inputs.first().is_some_and(|a| a == "merge") {
        if stream
            || resume
            || shard.is_some()
            || checkpoint_path.is_some()
            || all
            || quick
            || no_records
            || pool.is_some()
            || args.iter().any(|a| a == "--chunk")
        {
            fail("merge takes only partial files plus --out/--csv/--records/--json");
        }
        run_merge(
            &inputs[1..],
            &out_path,
            csv_path.as_deref(),
            records_path.as_deref(),
            json_tables,
        );
        return;
    }

    if !stream && (records_path.is_some() || args.iter().any(|a| a == "--chunk")) {
        eprintln!("--records/--chunk only apply to --stream runs");
        usage();
    }
    if !stream && (checkpoint_path.is_some() || shard.is_some() || resume) {
        eprintln!("--checkpoint/--resume/--shard only apply to --stream runs");
        usage();
    }
    if resume && checkpoint_path.is_none() {
        eprintln!("--resume requires --checkpoint PATH (the file to continue from)");
        usage();
    }
    if all {
        inputs.extend(registry::ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    if inputs.is_empty() {
        usage();
    }

    // Resolve (and validate) every input to specs before running
    // anything, so a typo or an out-of-range adversary probability fails
    // fast instead of after — or in the middle of — a long sweep.
    let specs = resolve_specs(&inputs, quick).unwrap_or_else(|e| fail(&e));

    // Checkpointed / sharded sweeps run one scenario through the durable
    // pipeline and return.
    if checkpoint_path.is_some() || shard.is_some() {
        let [spec] = &specs[..] else {
            fail("--checkpoint/--shard apply to exactly one scenario per invocation");
        };
        run_checkpointed(
            spec,
            chunk,
            pool.as_ref(),
            shard,
            checkpoint_path.as_deref(),
            resume,
            records_path.as_deref(),
            &out_path,
            csv_path.as_deref(),
            json_tables,
            quick,
        );
        return;
    }

    // One JSONL log across every scenario of the run, written as records
    // arrive (unit order within each scenario, scenarios in CLI order).
    let mut jsonl = records_path.as_ref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        JsonlWriter::new(BufWriter::new(file))
    });

    let mut report = LabReport {
        schema: radio_bench::schemas::RESULTS_SCHEMA.to_string(),
        quick,
        streamed: stream,
        wall_s_total: 0.0,
        scenarios: Vec::new(),
    };
    let mut csv_tables: Vec<(String, String)> = Vec::new();
    for spec in specs {
        eprintln!(
            "running {} ({} units{}{})...",
            spec.id,
            spec.grid_size(),
            if quick { ", quick" } else { "" },
            if stream {
                format!(", streaming in chunks of {chunk}")
            } else {
                String::new()
            }
        );
        let (table, units, records, wall_s, run) = if stream {
            stream_fallback_notice(&spec);
            let mut agg = StreamAggregate::for_spec(&spec);
            let stats = {
                let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg];
                if let Some(w) = jsonl.as_mut() {
                    sinks.push(w);
                }
                let result = match &pool {
                    Some(p) => p.install(|| run_spec_streaming(&spec, chunk, &mut sinks)),
                    None => run_spec_streaming(&spec, chunk, &mut sinks),
                };
                result.unwrap_or_else(|e| {
                    eprintln!("{}: streaming sink error: {e}", spec.id);
                    std::process::exit(1);
                })
            };
            let table = agg.table(&spec);
            (table, stats.units, stats.records, stats.wall_s, None)
        } else {
            let run = match &pool {
                Some(p) => p.install(|| run_spec(&spec)),
                None => run_spec(&spec),
            };
            let table = render(&spec, &run);
            let units = run.units.len() as u64;
            let records = run.records.iter().map(|r| r.len() as u64).sum();
            let wall_s = run.wall_s;
            let kept = (!no_records).then_some(run);
            (table, units, records, wall_s, kept)
        };
        if csv_path.is_some() {
            csv_tables.push((table.id.clone(), table.to_csv()));
        }
        emit_table(&table, json_tables);
        eprintln!("{}: {:.3}s", spec.id, wall_s);
        report.wall_s_total += wall_s;
        report.scenarios.push(LabScenario {
            spec,
            tables: vec![table],
            units,
            records,
            wall_s,
            run,
        });
    }
    if let Some(w) = jsonl {
        w.finish().unwrap_or_else(|e| {
            eprintln!(
                "cannot flush {}: {e}",
                records_path.as_deref().unwrap_or("records")
            );
            std::process::exit(1);
        });
        eprintln!("wrote {}", records_path.as_deref().unwrap_or("records"));
    }
    write_report(&report, &out_path);
    if let Some(path) = &csv_path {
        // One table → exactly the requested path; several tables get the
        // table id spliced in before the extension (one well-formed CSV
        // per file — concatenating tables with different headers would
        // parse as a ragged mess). Duplicate ids uniquify instead of
        // clobbering.
        let ids: Vec<String> = csv_tables.iter().map(|(id, _)| id.clone()).collect();
        for ((target, renamed), (id, csv)) in csv_targets(path, &ids).iter().zip(&csv_tables) {
            if *renamed {
                eprintln!(
                    "warning: CSV target for table {id} collides with an earlier table; \
                     writing {target} instead"
                );
            }
            std::fs::write(target, csv).unwrap_or_else(|e| {
                eprintln!("cannot write {target}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {target}");
        }
    }
    eprintln!(
        "wrote {out_path} ({} scenarios, {:.3}s total)",
        report.scenarios.len(),
        report.wall_s_total
    );
}

/// The stderr notice for specs that don't stream natively (their layouts
/// need materialized records, so `--stream` renders the aggregate fold).
fn stream_fallback_notice(spec: &ScenarioSpec) {
    let streams_natively = matches!(spec.render, RenderKind::Aggregate)
        || (matches!(spec.render, RenderKind::Generic) && spec.aggregate.is_some());
    if !streams_natively {
        eprintln!(
            "{}: --stream renders the {} instead of the {:?} layout (it needs \
             materialized records)",
            spec.id,
            if spec.aggregate.is_some() {
                "spec's aggregate block"
            } else {
                "default aggregate summary"
            },
            spec.render
        );
    }
}

/// Runs one scenario through the durable streaming pipeline: chunked
/// execution with per-chunk checkpoints (`--checkpoint`), optional resume
/// from the last durable chunk (`--resume`), and optional restriction to
/// one contiguous shard of the grid (`--shard i/m`, writing a partial
/// artifact instead of a results report).
#[allow(clippy::too_many_arguments)] // CLI surface, one call site
fn run_checkpointed(
    spec: &ScenarioSpec,
    chunk: u64,
    pool: Option<&ThreadPool>,
    shard: Option<ShardRef>,
    checkpoint_path: Option<&str>,
    resume: bool,
    records_path: Option<&str>,
    out_path: &str,
    csv_path: Option<&str>,
    json_tables: bool,
    quick: bool,
) {
    stream_fallback_notice(spec);
    let total = spec.grid_size() as u64;
    let bounds = shard.map_or(0..total, |s| shard_range(total, s));
    // Testing hook: stop cleanly after N chunks (checkpoint left behind),
    // simulating a kill at an exact chunk boundary.
    let limit_chunks =
        std::env::var("RADIO_LAB_DIE_AFTER_CHUNKS")
            .ok()
            .map(|v| match v.parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => fail(&format!("RADIO_LAB_DIE_AFTER_CHUNKS must be >= 1, got {v}")),
            });

    let checkpoint = if resume {
        let cp_path = Path::new(checkpoint_path.expect("--resume implies --checkpoint"));
        Some(
            SweepCheckpoint::load(cp_path).unwrap_or_else(|e| fail(&format!("cannot resume: {e}"))),
        )
    } else {
        if let Some(cp) = checkpoint_path {
            if Path::new(cp).exists() {
                fail(&format!(
                    "{cp} already exists — pass --resume to continue it, or remove it to start \
                     fresh"
                ));
            }
        }
        None
    };
    let mut state = resume_or_start(
        spec,
        shard,
        &bounds,
        checkpoint,
        records_path.map(Path::new),
        SinkFile::new,
    )
    .unwrap_or_else(|e| {
        let prefix = if resume { "cannot resume: " } else { "" };
        fail(&format!("{prefix}{e}"))
    });
    if let Some(t) = state.truncation.filter(|t| t.dropped_bytes > 0) {
        eprintln!(
            "warning: {}: dropped {} byte(s) past the checkpoint ({} complete line(s){}) — the \
             resumed sweep re-emits them",
            records_path.unwrap_or("records"),
            t.dropped_bytes,
            t.dropped_lines,
            if t.torn_tail {
                " plus a torn final line"
            } else {
                ""
            }
        );
    }
    if resume {
        eprintln!(
            "resuming {} at grid index {} of {}..{} ({} records durable)...",
            spec.id, state.next_index, bounds.start, bounds.end, state.base_records
        );
    } else {
        eprintln!(
            "running {} ({} units{}, streaming in chunks of {chunk}{}{})...",
            spec.id,
            bounds.end - bounds.start,
            if quick { ", quick" } else { "" },
            shard.map_or(String::new(), |s| format!(", shard {s}")),
            if checkpoint_path.is_some() {
                ", checkpointed"
            } else {
                ""
            }
        );
    }

    let mut run_slice = || {
        radio_bench::checkpoint::run_slice_checkpointed(
            radio_bench::checkpoint::SliceJob {
                spec,
                chunk,
                bounds: bounds.clone(),
                shard,
                checkpoint_path: checkpoint_path.map(Path::new),
                limit_chunks,
                on_chunk: None,
            },
            &mut state,
        )
    };
    let outcome = match pool {
        Some(p) => p.install(run_slice),
        None => run_slice(),
    }
    .unwrap_or_else(|e| {
        eprintln!("{}: streaming sink error: {e}", spec.id);
        std::process::exit(1);
    });
    if outcome.interrupted {
        eprintln!(
            "{}: stopping at grid index {} after {} chunk(s) (RADIO_LAB_DIE_AFTER_CHUNKS)",
            spec.id,
            outcome.next_index,
            limit_chunks.unwrap_or(0)
        );
        // Mimic a SIGKILL exit so harnesses treat this as the crash it
        // simulates; the checkpoint (if configured) stays behind.
        std::process::exit(137);
    }
    if let Some(w) = state.jsonl.take() {
        w.finish().unwrap_or_else(|e| {
            eprintln!("cannot flush {}: {e}", records_path.unwrap_or("records"));
            std::process::exit(1);
        });
        eprintln!("wrote {}", records_path.unwrap_or("records"));
    }
    let table = state.agg.table(spec);
    emit_table(&table, json_tables);
    eprintln!("{}: {:.3}s", spec.id, outcome.wall_s);
    if let Some(path) = csv_path {
        std::fs::write(path, table.to_csv())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(s) = shard {
        let partial = ShardPartial {
            schema: PARTIAL_SCHEMA.to_string(),
            fingerprint: spec_fingerprint(spec),
            shard: s,
            start: bounds.start,
            end: bounds.end,
            records: outcome.records,
            wall_s: outcome.wall_s,
            records_path: records_path.map(str::to_string),
            spec: spec.clone(),
            aggregate: state.agg.snapshot(),
        };
        partial
            .save(Path::new(out_path))
            .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
        eprintln!(
            "wrote {out_path} (shard {s}, units {}..{}, {:.3}s)",
            bounds.start, bounds.end, outcome.wall_s
        );
    } else {
        let report = LabReport {
            schema: radio_bench::schemas::RESULTS_SCHEMA.to_string(),
            quick,
            streamed: true,
            wall_s_total: outcome.wall_s,
            scenarios: vec![LabScenario {
                spec: spec.clone(),
                tables: vec![table],
                units: bounds.end - bounds.start,
                records: outcome.records,
                wall_s: outcome.wall_s,
                run: None,
            }],
        };
        write_report(&report, out_path);
        eprintln!(
            "wrote {out_path} (1 scenario, {:.3}s total)",
            outcome.wall_s
        );
    }
}

/// `radio-lab merge` — fold shard partials, in shard order, back into the
/// single sweep's table/CSV/JSONL (byte-identical to the single-process
/// `--stream` run).
fn run_merge(
    files: &[String],
    out_path: &str,
    csv_path: Option<&str>,
    records_out: Option<&str>,
    json_tables: bool,
) {
    if files.is_empty() {
        fail("merge needs at least one .partial file");
    }
    let partials: Vec<ShardPartial> = files
        .iter()
        .map(|f| {
            ShardPartial::load(Path::new(f)).unwrap_or_else(|e| fail(&format!("cannot merge: {e}")))
        })
        .collect();
    let merged = merge_partials(partials).unwrap_or_else(|e| fail(&format!("cannot merge: {e}")));
    let table = merged.agg.table(&merged.spec);
    emit_table(&table, json_tables);
    if let Some(path) = csv_path {
        std::fs::write(path, table.to_csv())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = records_out {
        let bytes =
            radio_bench::checkpoint::concat_record_logs(&merged.records_paths, Path::new(path))
                .unwrap_or_else(|e| fail(&format!("cannot assemble {path}: {e}")));
        eprintln!(
            "wrote {path} ({} record logs, {bytes} bytes)",
            merged.records_paths.len()
        );
    }
    let shards = merged.records_paths.len();
    let report = LabReport {
        schema: radio_bench::schemas::RESULTS_SCHEMA.to_string(),
        quick: false,
        streamed: true,
        wall_s_total: merged.wall_s,
        scenarios: vec![LabScenario {
            spec: merged.spec,
            tables: vec![table],
            units: merged.units,
            records: merged.records,
            wall_s: merged.wall_s,
            run: None,
        }],
    };
    write_report(&report, out_path);
    eprintln!(
        "wrote {out_path} (merged {shards} shards, {:.3}s summed shard time)",
        report.wall_s_total
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_table_uses_the_requested_path() {
        assert_eq!(
            csv_targets("out/results.csv", &ids(&["E1"])),
            vec![("out/results.csv".to_string(), false)]
        );
    }

    #[test]
    fn several_tables_splice_ids_before_the_extension() {
        assert_eq!(
            csv_targets("results.csv", &ids(&["E1", "E5a"])),
            vec![
                ("results_E1.csv".to_string(), false),
                ("results_E5a.csv".to_string(), false),
            ]
        );
    }

    #[test]
    fn duplicate_ids_uniquify_instead_of_clobbering() {
        // `radio-lab e1 e1 --csv out.csv` — the second E1 must not
        // overwrite the first.
        assert_eq!(
            csv_targets("out.csv", &ids(&["E1", "E1", "E1"])),
            vec![
                ("out_E1.csv".to_string(), false),
                ("out_E1_2.csv".to_string(), true),
                ("out_E1_3.csv".to_string(), true),
            ]
        );
    }

    #[test]
    fn uniquified_names_dodge_natural_names_too() {
        // A pathological id that matches another table's uniquified name:
        // the suffix search must keep probing.
        assert_eq!(
            csv_targets("t.csv", &ids(&["E1", "E1", "E1_2"])),
            vec![
                ("t_E1.csv".to_string(), false),
                ("t_E1_2.csv".to_string(), true),
                ("t_E1_2_2.csv".to_string(), true),
            ]
        );
    }
}
