//! The traced single-thread replay behind `perfbench-probe trace`.
//!
//! It walks a workload's grid through the public calls the chosen
//! radio-lab path makes, with a span around every call into a layer. The
//! `--stream` path builds once per run of shared-net units and runs each
//! fused cell as one `run_algo_batch`, every other unit as a private build
//! and a `run_algo`. The `serve` path builds privately and runs `run_algo`
//! per unit, fsyncs the record log and saves the checkpoint at every chunk
//! boundary of every shard, then merges the published partials. The replay
//! writes the artifacts radio-lab writes, so they can be checked against
//! the reference, plus `spans.jsonl` and `summary.json`.

use crate::{write_table, Res};
use radio_bench::checkpoint::{
    concat_record_logs, merge_partials, shard_range, ShardPartial, ShardRef, SweepCheckpoint,
    CHECKPOINT_SCHEMA, PARTIAL_SCHEMA,
};
use radio_bench::scenario::{ScenarioSpec, StopCondition, TrialUnit, Workload, WorkloadEntry};
use radio_bench::sink::{JsonlWriter, RecordSink, SinkFile, StreamAggregate};
use radio_bench::spec_fingerprint;
use radio_sim::{Action, Context, DualGraph, EngineBuilder, Process, StepMode};
use radio_structures::checker::check_mis;
use radio_structures::runner::{run_algo, run_algo_batch, AlgoKind, RunRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The radio-lab execution path a replay follows.
pub(crate) enum Route {
    /// `radio-lab SPEC --stream` without `--records`.
    Stream { chunk: u64 },
    /// `radio-lab serve`: every shard through the checkpointed slice runner.
    Serve { shards: u64, chunk: u64 },
}

pub(crate) fn trace(spec: &ScenarioSpec, dir: &Path, route: Route) -> Res<()> {
    let [WorkloadEntry {
        kind: Workload::Core { algo },
        ..
    }] = spec.workloads.as_slice()
    else {
        return Err("the replay covers specs with exactly one Core workload".into());
    };
    fs::create_dir_all(dir)?;
    let mut replay = Replay {
        spec,
        algo,
        max_rounds: match spec.stop {
            StopCondition::Default => None,
            StopCondition::Rounds { max } => Some(max),
        },
        t: Tracer::new(),
        out: Summary::default(),
        fused: Vec::new(),
    };
    match route {
        Route::Stream { chunk } => replay.stream(chunk, dir)?,
        Route::Serve { shards, chunk } => replay.serve(shards, chunk, dir)?,
    }
    replay.batch_speedup();
    replay.finish(dir)
}

/// One span: a call into a layer (named `layer.call`) or a structural
/// grouping the calls nest in (`replay`, `shard`, `window`, `run`, `unit`).
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    unit: Option<u64>,
}

/// Spans kept in memory until the replay ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, unit: Option<u64>) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent,
            unit,
        });
    }

    fn close(&mut self) -> Duration {
        let id = self.open.pop().expect("every close matches an open");
        let span = &mut self.spans[id];
        span.end = self.t0.elapsed();
        span.end - span.start
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        unit: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        self.open(name, unit);
        let out = f();
        (out, self.close())
    }

    fn span<T>(&mut self, name: &'static str, unit: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.timed(name, unit, f).0
    }
}

/// One line of `spans.jsonl`.
#[derive(Serialize)]
struct SpanLine {
    id: usize,
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    unit: Option<u64>,
}

/// `summary.json`: what the replay did and where its time went.
#[derive(Default, Serialize)]
struct Summary {
    topology_builds: u64,
    /// Σ n × `rounds_executed`.
    node_rounds: u64,
    broadcasts: u64,
    deliveries: u64,
    collisions: u64,
    units_scalar: u64,
    units_bitset: u64,
    units_batched: u64,
    /// Σ per-trial `run_algo` time ÷ Σ `run_algo_batch` time over the
    /// fused cells (0 without fused cells).
    batch_speedup_1t: f64,
    /// Per-trial records that differ from their fused cell's.
    batch_disagreements: u64,
    /// Records whose re-checked validity differs from `valid`.
    checker_disagreements: u64,
    checkpoint_saves: u64,
    checkpoint_bytes: u64,
    sink_jsonl_bytes: u64,
    aggregate_snapshot_bytes: u64,
    /// The replay's wall time, less the tier probes.
    traced_wall_s: f64,
    /// Time inside the replay that no layer span covers.
    unattributed_s: f64,
    /// Σ `unit` and `run` spans: the per-unit compute the pool schedules.
    unit_s: f64,
    /// Summed duration per span name.
    span_s: BTreeMap<String, f64>,
    /// Self time per layer; structural spans count as `unattributed`.
    layer_s: BTreeMap<String, f64>,
}

/// A cell the replay ran through `run_algo_batch`, kept for the
/// batch-speedup probe.
struct FusedCell {
    net: Rc<DualGraph>,
    units: Vec<TrialUnit>,
    batch: Duration,
    records: Vec<RunRecord>,
}

/// A process that never acts: the tier probe reads only its engine's
/// resolved step mode.
struct Idle;

impl Process for Idle {
    type Msg = u32;

    fn decide(&mut self, _: &mut Context<'_>) -> Action<u32> {
        Action::Idle
    }

    fn receive(&mut self, _: &mut Context<'_>, _: Option<&u32>) {}

    fn output(&self) -> Option<bool> {
        None
    }
}

/// A shared-net unit's detector stream. Deterministic builds draw nothing,
/// so continuing the topology stream equals a fresh one from `net_seed`.
fn det_stream(unit: &TrialUnit) -> StdRng {
    StdRng::seed_from_u64(unit.det_seed.unwrap_or(unit.net_seed))
}

/// The scenario layer's shared-net key: units on a deterministic topology
/// share one build per run of consecutive indices.
fn shared_key(spec: &ScenarioSpec, i: u64) -> Option<usize> {
    let unit = spec.unit_at(i);
    spec.topologies[unit.topo]
        .kind
        .is_deterministic()
        .then_some(unit.topo)
}

/// A window's maximal runs of equal shared-net keys, as the fused runner
/// groups them; keyless units are runs of their own.
fn runs(spec: &ScenarioSpec, window: Range<u64>) -> Vec<(Range<u64>, bool)> {
    let mut runs: Vec<(Range<u64>, bool)> = Vec::new();
    let mut prev = None;
    for i in window {
        let key = shared_key(spec, i);
        match runs.last_mut() {
            Some((run, _)) if key.is_some() && key == prev => run.end = i + 1,
            _ => runs.push((i..i + 1, key.is_some())),
        }
        prev = key;
    }
    runs
}

struct Replay<'a> {
    spec: &'a ScenarioSpec,
    algo: &'a AlgoKind,
    max_rounds: Option<u64>,
    t: Tracer,
    out: Summary,
    fused: Vec<FusedCell>,
}

impl Replay<'_> {
    /// `radio-lab --stream`: index-ordered windows of `chunk` units, each
    /// executed and then fed to the aggregate fold.
    fn stream(&mut self, chunk: u64, dir: &Path) -> Res<()> {
        let spec = self.spec;
        let total = spec.grid_size() as u64;
        let mut agg = StreamAggregate::for_spec(spec);
        // Without --records the path writes no log; the replay keeps the
        // records and writes them untimed, so its stream is still compared.
        let mut kept = Vec::new();
        self.t.open("replay", None);
        let mut start = 0;
        while start < total {
            let end = total.min(start + chunk);
            self.t.open("window", Some(start));
            let mut done = Vec::new();
            for (run, shared) in runs(spec, start..end) {
                let recs = if shared {
                    self.shared_run(run.clone())?
                } else {
                    run.clone()
                        .map(|i| self.private_unit(i))
                        .collect::<Res<Vec<_>>>()?
                };
                done.extend(run.zip(recs));
            }
            self.sinks(&done, &mut agg, None)?;
            self.t.close();
            kept.extend(done.into_iter().map(|(_, rec)| rec));
            start = end;
        }
        let table = self.t.span("aggregate.table", None, || agg.table(spec));
        self.t.close();
        let mut copy = BufWriter::new(File::create(dir.join("records.jsonl"))?);
        for rec in &kept {
            writeln!(copy, "{}", rec.to_jsonl())?;
        }
        copy.flush()?;
        self.out.aggregate_snapshot_bytes =
            serde_json::to_string_pretty(&agg.snapshot())?.len() as u64;
        write_table(&table, dir)
    }

    /// `radio-lab serve`: each shard's slice in chunks, with the record-log
    /// fsync and checkpoint save at every chunk boundary, the partial
    /// published at the end, then the merge of every partial.
    fn serve(&mut self, shards: u64, chunk: u64, dir: &Path) -> Res<()> {
        let spec = self.spec;
        let total = spec.grid_size() as u64;
        let ledger = dir.join("shards");
        fs::create_dir_all(&ledger)?;
        let mut published = Vec::new();
        let mut snapshots = Vec::new();
        self.t.open("replay", None);
        let fingerprint = spec_fingerprint(spec);
        for index in 0..shards {
            let shard = ShardRef {
                index,
                count: shards,
            };
            let bounds = shard_range(total, shard);
            let log_path = ledger.join(format!("s{index}.jsonl"));
            let checkpoint_path = ledger.join(format!("s{index}.ckpt"));
            let partial_path = ledger.join(format!("s{index}.partial"));
            self.t.open("shard", Some(bounds.start));
            let started = Instant::now();
            let mut agg = StreamAggregate::for_spec(spec);
            let file = SinkFile::new(File::create(&log_path)?);
            let mut log = JsonlWriter::new(BufWriter::new(file));
            let mut records = 0u64;
            let mut start = bounds.start;
            while start < bounds.end {
                let end = bounds.end.min(start + chunk);
                self.t.open("window", Some(start));
                let done = (start..end)
                    .map(|i| Ok((i, self.private_unit(i)?)))
                    .collect::<Res<Vec<_>>>()?;
                records += done.len() as u64;
                self.sinks(&done, &mut agg, Some(&mut log as &mut dyn RecordSink))?;
                // A checkpoint may only count log lines that survive power
                // loss.
                self.t.span("sink.jsonl", None, || log.sync_data())?;
                let save = || {
                    SweepCheckpoint {
                        schema: CHECKPOINT_SCHEMA.to_string(),
                        fingerprint: fingerprint.clone(),
                        shard: Some(shard),
                        start: bounds.start,
                        end: bounds.end,
                        next_index: end,
                        records,
                        wall_s: started.elapsed().as_secs_f64(),
                        jsonl_lines: Some(log.lines()),
                        aggregate: agg.snapshot(),
                    }
                    .save(&checkpoint_path)
                };
                self.t.span("checkpoint.save", Some(start), save)?;
                self.out.checkpoint_saves += 1;
                self.out.checkpoint_bytes += fs::metadata(&checkpoint_path)?.len();
                self.t.close();
                start = end;
            }
            // A finished slice consumes its checkpoint, syncs its log and
            // publishes its partial.
            self.t.span("checkpoint.remove", None, || {
                fs::remove_file(&checkpoint_path)
            })?;
            self.t.span("sink.jsonl", None, || log.sync_data())?;
            let publish = || {
                let partial = ShardPartial {
                    schema: PARTIAL_SCHEMA.to_string(),
                    fingerprint: fingerprint.clone(),
                    shard,
                    start: bounds.start,
                    end: bounds.end,
                    records,
                    wall_s: started.elapsed().as_secs_f64(),
                    records_path: Some(log_path.to_string_lossy().into_owned()),
                    spec: spec.clone(),
                    aggregate: agg.snapshot(),
                };
                partial.save(&partial_path).map(|()| partial.aggregate)
            };
            snapshots.push(
                self.t
                    .span("checkpoint.publish", Some(bounds.start), publish)?,
            );
            published.push(partial_path);
            self.out.sink_jsonl_bytes += fs::metadata(&log_path)?.len();
            self.t.close();
        }
        let merge = || -> io::Result<_> {
            let partials = published
                .iter()
                .map(|p| ShardPartial::load(p))
                .collect::<io::Result<Vec<_>>>()?;
            let merged = merge_partials(partials)?;
            concat_record_logs(&merged.records_paths, &dir.join("records.jsonl"))?;
            Ok(merged)
        };
        let merged = self.t.span("checkpoint.merge", None, merge)?;
        let table = self
            .t
            .span("aggregate.table", None, || merged.agg.table(&merged.spec));
        self.t.close();
        for snap in &snapshots {
            self.out.aggregate_snapshot_bytes += serde_json::to_string_pretty(snap)?.len() as u64;
        }
        write_table(&table, dir)
    }

    /// One unit with its own build, as `scenario::run_unit` executes it.
    fn private_unit(&mut self, i: u64) -> Res<RunRecord> {
        let (spec, algo, max_rounds) = (self.spec, self.algo, self.max_rounds);
        let unit = spec.unit_at(i);
        let topo = &spec.topologies[unit.topo].kind;
        let adversary = spec.adversaries[unit.adv];
        self.t.open("unit", Some(i));
        let mut net_rng = StdRng::seed_from_u64(unit.net_seed);
        let built = self.t.span("topology.build_with", Some(i), || {
            topo.build_with(&mut net_rng)
        });
        self.out.topology_builds += 1;
        let rec = match &built {
            Ok(net) => {
                // The detector stream continues the topology stream unless
                // the workload pins one.
                let mut det_rng = match unit.det_seed {
                    Some(s) => StdRng::seed_from_u64(s),
                    None => net_rng,
                };
                self.t.span("runner.run_algo", Some(i), || {
                    run_algo(
                        net,
                        algo,
                        adversary,
                        unit.run_seed,
                        &mut det_rng,
                        max_rounds,
                    )
                })
            }
            Err(e) => RunRecord::failed(algo.name(), e.to_string()),
        };
        self.t.close();
        if let Ok(net) = &built {
            self.recheck(net, std::slice::from_ref(&rec), i);
            self.probe_tier(net, 1, false)?;
        }
        Ok(rec)
    }

    /// A run of shared-net units, as the fused runner executes it: one
    /// build, then each grid cell of ≥ 2 trials as one `run_algo_batch`
    /// and any single-trial cell as a `run_algo` on the shared net.
    fn shared_run(&mut self, run: Range<u64>) -> Res<Vec<RunRecord>> {
        let (spec, algo, max_rounds) = (self.spec, self.algo, self.max_rounds);
        let units: Vec<TrialUnit> = run.clone().map(|i| spec.unit_at(i)).collect();
        let topo = &spec.topologies[units[0].topo].kind;
        self.t.open("run", Some(run.start));
        let mut rng = StdRng::seed_from_u64(units[0].net_seed);
        let built = self.t.span("topology.build_with", Some(run.start), || {
            topo.build_with(&mut rng)
        });
        self.out.topology_builds += 1;
        let net = match built {
            Ok(net) => Rc::new(net),
            Err(e) => {
                self.t.close();
                let failed = |_: &TrialUnit| RunRecord::failed(algo.name(), e.to_string());
                return Ok(units.iter().map(failed).collect());
            }
        };
        let mut recs = Vec::with_capacity(units.len());
        let mut cells = Vec::new();
        let mut at = 0;
        while at < units.len() {
            // One grid cell: consecutive units sharing workload and
            // adversary.
            let end = (at + 1..units.len())
                .find(|&k| units[k].work != units[at].work || units[k].adv != units[at].adv)
                .unwrap_or(units.len());
            let cell = &units[at..end];
            let first = run.start + at as u64;
            let adversary = spec.adversaries[cell[0].adv];
            if let [unit] = cell {
                let mut det_rng = det_stream(unit);
                recs.push(self.t.span("runner.run_algo", Some(first), || {
                    run_algo(
                        &net,
                        algo,
                        adversary,
                        unit.run_seed,
                        &mut det_rng,
                        max_rounds,
                    )
                }));
            } else {
                let seeds: Vec<u64> = cell.iter().map(|u| u.run_seed).collect();
                let mut det_rngs: Vec<StdRng> = cell.iter().map(det_stream).collect();
                let (batch, took) = self.t.timed("runner.run_algo_batch", Some(first), || {
                    run_algo_batch(&net, algo, adversary, &seeds, &mut det_rngs, max_rounds)
                });
                self.fused.push(FusedCell {
                    net: Rc::clone(&net),
                    units: cell.to_vec(),
                    batch: took,
                    records: batch.clone(),
                });
                recs.extend(batch);
            }
            cells.push(cell.len() as u64);
            at = end;
        }
        self.t.close();
        self.recheck(&net, &recs, run.start);
        for len in cells {
            self.probe_tier(&net, len, len >= 2)?;
        }
        Ok(recs)
    }

    /// Feeds a window's records to the path's sinks in unit order — the
    /// aggregate fold, then the record log — and ends the chunk with the
    /// log's flush.
    fn sinks(
        &mut self,
        done: &[(u64, RunRecord)],
        agg: &mut StreamAggregate,
        mut log: Option<&mut dyn RecordSink>,
    ) -> Res<()> {
        let spec = self.spec;
        for (i, rec) in done {
            let unit = spec.unit_at(*i);
            let recs = std::slice::from_ref(rec);
            self.tally(recs);
            self.t
                .span("aggregate.fold", Some(*i), || agg.accept(spec, &unit, recs))?;
            if let Some(log) = log.as_deref_mut() {
                self.t
                    .span("sink.jsonl", Some(*i), || log.accept(spec, &unit, recs))?;
            }
        }
        if let Some(log) = log {
            self.t.span("sink.jsonl", None, || log.flush_chunk())?;
        }
        Ok(())
    }

    /// Sums the engine counters of a unit's records.
    fn tally(&mut self, recs: &[RunRecord]) {
        let out = &mut self.out;
        for rec in recs {
            out.node_rounds += rec.n as u64 * rec.rounds_executed;
            if let Some(m) = &rec.metrics {
                out.broadcasts += m.broadcasts;
                out.deliveries += m.deliveries;
                out.collisions += m.collisions;
            }
        }
    }

    /// Re-runs the MIS checker on each record's outputs. Every MIS run uses
    /// the 0-complete detector, whose graph `H` is `G` itself.
    fn recheck(&mut self, net: &DualGraph, recs: &[RunRecord], first: u64) {
        if *self.algo != AlgoKind::Mis {
            return;
        }
        for (k, rec) in recs.iter().enumerate() {
            if rec.error.is_some() {
                continue;
            }
            let valid = self
                .t
                .span("checker.check_mis", Some(first + k as u64), || {
                    check_mis(net, net.g(), &rec.outputs).is_valid()
                });
            self.out.checker_disagreements += u64::from(valid != rec.valid);
        }
    }

    /// Counts `units` on the tier they run on: the solo tier a probe
    /// engine on `net` resolves with `StepMode::Auto`, or the batched tier
    /// for a fused cell whose net resolves to bitset.
    fn probe_tier(&mut self, net: &DualGraph, units: u64, fused: bool) -> Res<()> {
        let mode = self.t.span("probe.tier", None, || {
            EngineBuilder::new(net.clone())
                .spawn(|_| Idle)
                .map(|engine| engine.step_mode())
        })?;
        let tier = match mode {
            StepMode::Bitset if fused => &mut self.out.units_batched,
            StepMode::Bitset => &mut self.out.units_bitset,
            _ => &mut self.out.units_scalar,
        };
        *tier += units;
        Ok(())
    }

    /// Re-runs every fused cell trial by trial through `run_algo` — the
    /// cell's cost on the solo tier — and checks each record against the
    /// batch's.
    fn batch_speedup(&mut self) {
        let (mut solo, mut batch) = (Duration::ZERO, Duration::ZERO);
        for cell in &self.fused {
            let adversary = self.spec.adversaries[cell.units[0].adv];
            let started = Instant::now();
            let recs: Vec<RunRecord> = cell
                .units
                .iter()
                .map(|u| {
                    let mut det_rng = det_stream(u);
                    run_algo(
                        &cell.net,
                        self.algo,
                        adversary,
                        u.run_seed,
                        &mut det_rng,
                        self.max_rounds,
                    )
                })
                .collect();
            solo += started.elapsed();
            batch += cell.batch;
            self.out.batch_disagreements += recs
                .iter()
                .zip(&cell.records)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        if !batch.is_zero() {
            self.out.batch_speedup_1t = solo.as_secs_f64() / batch.as_secs_f64();
        }
    }

    /// Derives the per-layer times from the spans and writes `spans.jsonl`
    /// and `summary.json`.
    fn finish(mut self, dir: &Path) -> Res<()> {
        let spans = &self.t.spans;
        let secs = |s: &Span| (s.end - s.start).as_secs_f64();
        let mut covered = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += secs(s);
            }
        }
        let mut lines = BufWriter::new(File::create(dir.join("spans.jsonl"))?);
        for (id, s) in spans.iter().enumerate() {
            *self.out.span_s.entry(s.name.to_string()).or_default() += secs(s);
            // A span's self time is its duration less what its children
            // cover; structural spans' self time belongs to no layer.
            let layer = s.name.split_once('.').map_or("unattributed", |(l, _)| l);
            *self.out.layer_s.entry(layer.to_string()).or_default() += secs(s) - covered[id];
            if matches!(s.name, "unit" | "run") {
                self.out.unit_s += secs(s);
            }
            let line = SpanLine {
                id,
                name: s.name.to_string(),
                start_s: s.start.as_secs_f64(),
                end_s: s.end.as_secs_f64(),
                parent: s.parent,
                unit: s.unit,
            };
            writeln!(lines, "{}", serde_json::to_string(&line)?)?;
        }
        lines.flush()?;
        let layer = |name: &str| self.out.layer_s.get(name).copied().unwrap_or(0.0);
        let (probe, unattributed) = (layer("probe"), layer("unattributed"));
        self.out.traced_wall_s = spans.first().map_or(0.0, secs) - probe;
        self.out.unattributed_s = unattributed;
        fs::write(
            dir.join("summary.json"),
            serde_json::to_string_pretty(&self.out)?,
        )?;
        Ok(())
    }
}
