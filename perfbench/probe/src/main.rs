//! In-process half of the sweep benchmark; `perfbench/run.py` drives it.
//!
//! ```text
//! perfbench-probe spec WORKLOAD SEED OUT.json [--smoke]
//! perfbench-probe reference SPEC.json DIR
//! perfbench-probe trace SPEC.json DIR stream CHUNK
//! perfbench-probe trace SPEC.json DIR serve SHARDS CHUNK
//! ```
//!
//! * `spec` writes a workload's `ScenarioSpec`. The seed moves
//!   `seeds.net_base` and `seeds.run_base` by [`SEED_STRIDE`] per step;
//!   `--smoke` shrinks the grid for the benchmark's self-test.
//! * `reference` runs the spec through `run_spec` in this process and
//!   writes what radio-lab must reproduce byte for byte: `table.csv` (the
//!   `--csv` file), `stdout.txt` (the printed table) and `records.jsonl`.
//! * `trace` replays the sweep on one thread with a span around every call
//!   into a layer; see [`replay`].

#![forbid(unsafe_code)]

mod replay;

use radio_bench::scenario::{
    run_spec, NestOrder, RenderKind, ScenarioSpec, SeedPolicy, StopCondition, TopologyEntry,
    WorkloadEntry,
};
use radio_bench::sink::{RecordSink, StreamAggregate};
use radio_bench::Table;
use radio_sim::spec::{AdversaryKind, TopologyKind};
use radio_structures::runner::AlgoKind;
use std::error::Error;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

type Res<T> = Result<T, Box<dyn Error>>;

/// How far one benchmark seed moves a spec's seed bases. Every grid here
/// has fewer trials per cell, so two seeds never share a unit seed.
const SEED_STRIDE: u64 = 1000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args.as_slice() {
        ["spec", workload, seed, out, rest @ ..] => spec_cmd(workload, seed, Path::new(out), rest),
        ["reference", spec, dir] => load_spec(spec).and_then(|s| reference(&s, Path::new(dir))),
        ["trace", spec, dir, "stream", chunk] => load_spec(spec).and_then(|s| {
            let route = replay::Route::Stream {
                chunk: positive(chunk)?,
            };
            replay::trace(&s, Path::new(dir), route)
        }),
        ["trace", spec, dir, "serve", shards, chunk] => load_spec(spec).and_then(|s| {
            let route = replay::Route::Serve {
                shards: positive(shards)?,
                chunk: positive(chunk)?,
            };
            replay::trace(&s, Path::new(dir), route)
        }),
        _ => Err("usage: perfbench-probe spec|reference|trace ... (see the module docs)".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench-probe: {e}");
        std::process::exit(1);
    }
}

fn positive(v: &str) -> Res<u64> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("expected a positive integer, got {v}").into()),
    }
}

fn load_spec(path: &str) -> Res<ScenarioSpec> {
    Ok(serde_json::from_str(&fs::read_to_string(path)?)?)
}

fn spec_cmd(workload: &str, seed: &str, out: &Path, rest: &[&str]) -> Res<()> {
    let smoke = match rest {
        [] => false,
        ["--smoke"] => true,
        _ => return Err("spec takes nothing after OUT but --smoke".into()),
    };
    let spec = workload_spec(workload, seed.parse()?, smoke)?;
    fs::write(out, serde_json::to_string_pretty(&spec)?)?;
    Ok(())
}

/// The benchmark's workloads as specs; see `BENCHMARK.json` for why each
/// was chosen.
fn workload_spec(workload: &str, seed: u64, smoke: bool) -> Res<ScenarioSpec> {
    let mut spec = match workload {
        "clique-cells" => mis_grid(
            "CLIQUE",
            "sweep benchmark: MIS cells on dense cliques",
            (if smoke { [32, 64] } else { [256, 1024] })
                .into_iter()
                .map(|n| TopologyKind::Clique { n })
                .collect(),
            vec![AdversaryKind::Random { p: 0.5 }],
            if smoke { 4 } else { 32 },
            SeedPolicy {
                net_base: 1000,
                run_base: 7,
            },
        ),
        "serve-fleet" => mis_grid(
            "FLEET",
            "sweep benchmark: E9a-shaped MIS grid under five adversaries",
            vec![TopologyKind::GeometricDense { n: 128 }],
            vec![
                AdversaryKind::ReliableOnly,
                AdversaryKind::Random { p: 0.5 },
                AdversaryKind::Bursty {
                    p_gb: 0.05,
                    p_bg: 0.05,
                },
                AdversaryKind::AllUnreliable,
                AdversaryKind::Collider,
            ],
            if smoke { 4 } else { 80 },
            SeedPolicy {
                net_base: 91,
                run_base: 17,
            },
        ),
        other => return Err(format!("unknown workload {other}").into()),
    };
    let shift = (seed % (1 << 32)) * SEED_STRIDE;
    spec.seeds.net_base += shift;
    spec.seeds.run_base += shift;
    Ok(spec)
}

/// A MIS grid rendered through the default aggregate fold, which is what
/// both `--stream` and `serve` print for it.
fn mis_grid(
    id: &str,
    caption: &str,
    topologies: Vec<TopologyKind>,
    adversaries: Vec<AdversaryKind>,
    trials: u64,
    seeds: SeedPolicy,
) -> ScenarioSpec {
    ScenarioSpec {
        id: id.to_string(),
        caption: caption.to_string(),
        render: RenderKind::Aggregate,
        topologies: topologies.into_iter().map(TopologyEntry::new).collect(),
        adversaries,
        workloads: vec![WorkloadEntry::core(AlgoKind::Mis)],
        trials,
        nest: NestOrder::TopologyMajor,
        seeds,
        stop: StopCondition::Default,
        aggregate: None,
    }
}

/// Runs the spec through `run_spec` and writes the artifacts a correct
/// radio-lab run reproduces: the aggregate table as CSV and as printed,
/// and one JSONL record per line in unit order.
fn reference(spec: &ScenarioSpec, dir: &Path) -> Res<()> {
    fs::create_dir_all(dir)?;
    let run = run_spec(spec);
    let mut agg = StreamAggregate::for_spec(spec);
    let mut log = BufWriter::new(File::create(dir.join("records.jsonl"))?);
    for (unit, recs) in run.units.iter().zip(&run.records) {
        agg.accept(spec, unit, recs)?;
        for rec in recs {
            writeln!(log, "{}", rec.to_jsonl())?;
        }
    }
    log.flush()?;
    write_table(&agg.table(spec), dir)
}

/// Writes a finished table the way radio-lab does: the `--csv` file and
/// the rendering it prints on stdout.
fn write_table(table: &Table, dir: &Path) -> Res<()> {
    fs::write(dir.join("table.csv"), table.to_csv())?;
    fs::write(dir.join("stdout.txt"), format!("{}\n", table.render()))?;
    Ok(())
}
