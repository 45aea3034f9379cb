//! The declarative scenario subsystem: experiments as plain data.
//!
//! A [`ScenarioSpec`] describes one experiment table as a grid — topology
//! axis × adversary axis × workload axis × trials — plus a seed policy, a
//! nesting order, and a render style. The [`ScenarioSpec::plan`] sweep
//! planner expands the grid into [`TrialUnit`]s with index-derived seeds;
//! [`run_spec`] fans the units out through
//! [`crate::parallel::run_trials`] (bit-identical to a serial sweep) and
//! collects one or more [`RunRecord`]s per unit; [`render`] turns the
//! records into the experiment's [`Table`].
//!
//! Every paper experiment E1–E11 is a spec in the [`registry`] — adding a
//! scenario is a ~10-line data value (or a JSON file fed to the
//! `radio-lab` binary), not a new module.
//!
//! Two execution modes share one planner:
//!
//! * [`run_spec`] materializes everything — all units, all records — and
//!   hands the [`ScenarioRun`] to [`render`]. Memory is O(grid).
//! * [`run_spec_streaming`] decodes units on the fly
//!   ([`ScenarioSpec::unit_at`]), executes the grid in index-ordered
//!   chunks, and pushes each unit's records to [`crate::sink`]
//!   implementations, retaining nothing. Memory is O(chunk + sink
//!   state); the record stream the sinks observe is exactly the
//!   materialized order, so a [`crate::sink::StreamAggregate`] table is
//!   byte-identical to the materialized fold.
//!
//! # Invariants
//!
//! * **Grid expansion order** is the nesting order's nested loop:
//!   topology → adversary → workload → trial for
//!   [`NestOrder::TopologyMajor`], workload → adversary → topology → trial
//!   for [`NestOrder::WorkloadMajor`]. Renderers and the golden tests rely
//!   on this order being stable.
//! * **Seed derivation**: a unit's network seed is
//!   `workload.net_seed ⊦ topology.seed ⊦ seeds.net_base`, its run seed
//!   `workload.run_seed ⊦ seeds.run_base` (`⊦` = first explicit override
//!   wins), each plus the trial index. Detector streams continue the
//!   topology stream unless the workload pins `det_seed`.
//! * **Expansion count** equals the grid product
//!   `topologies × adversaries × workloads × trials` (units may each
//!   yield several records — e.g. the two-clique sweep — but the planner
//!   never drops or duplicates a grid cell).

use crate::aggregate::AggregateSpec;
use crate::parallel::run_trials_batched_fused;
use crate::stats::{dropped_points_note, loglog_exponent_counting};
use crate::table::{f1, f3, Table};
use hitting_games::{
    expected_rounds_floor, mean_hitting_time, two_clique_sweep, UniformNoReplacement,
    UniformWithReplacement,
};
use radio_baselines::{DecayBroadcast, NaiveCcdsConfig, RoundRobinBroadcast};
use radio_sim::spec::{AdversaryKind, TopologyKind};
use radio_sim::{EngineBuilder, IdAssignment, StopReason};
use radio_structures::params::{ceil_log2, MisParams};
use radio_structures::runner::{run_algo, run_algo_batch, AlgoKind, RunRecord};
use radio_structures::{CcdsConfig, TauConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One entry of a spec's topology axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyEntry {
    /// The topology to build.
    pub kind: TopologyKind,
    /// Explicit network seed base (overrides the spec's `seeds.net_base`).
    pub seed: Option<u64>,
}

impl TopologyEntry {
    /// An entry deriving its seed from the spec's seed policy.
    pub fn new(kind: TopologyKind) -> Self {
        TopologyEntry { kind, seed: None }
    }

    /// An entry with a pinned network seed base.
    pub fn seeded(kind: TopologyKind, seed: u64) -> Self {
        TopologyEntry {
            kind,
            seed: Some(seed),
        }
    }
}

/// A workload: what runs on each built network (or beside it, for the
/// game/schedule workloads that need no network).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// A `radio-structures` algorithm through the unified
    /// [`run_algo`] entry point.
    Core {
        /// The algorithm and its parameters.
        algo: AlgoKind,
    },
    /// The β-single hitting game (experiment E5a): mean rounds to hit over
    /// `trials` plays.
    Hitting {
        /// Number of principals β.
        beta: u32,
        /// Plays to average over.
        trials: u32,
        /// `true` for uniform-with-replacement guessing, `false` for the
        /// optimal no-replacement strategy.
        replacement: bool,
    },
    /// The end-to-end two-clique lower-bound sweep (experiment E5b); one
    /// unit yields one record per β (the sweep shares a bridge-placement
    /// stream across βs, so it cannot be split into independent cells).
    TwoCliqueSweep {
        /// Clique sizes to sweep.
        betas: Vec<usize>,
        /// Trials per β.
        trials: u32,
    },
    /// Schedule-arithmetic probe (experiment E5c): the 0-complete large-`b`
    /// schedule vs the 1-complete schedule at `Δ = β`, no execution.
    SchedulePair {
        /// Clique size `β = Δ`.
        beta: usize,
    },
    /// Detector-less broadcast baselines (experiment E9b) on the built
    /// network with reversed ids: Decay or round-robin, with or without
    /// the collider adversary (the spec's adversary axis is ignored — the
    /// E9b grid is not an adversary product).
    Broadcast {
        /// `true` for Decay, `false` for round-robin.
        decay: bool,
        /// Whether the collider adversary attacks the run.
        collider: bool,
    },
    /// The backbone-vs-flood-all comparison (experiment E10): one unit
    /// builds the CCDS **once** and yields one record per flood mode
    /// (backbone first, then flood-all), sharing the expensive structure
    /// construction the two rows have in common.
    BackboneCompare {
        /// Maximum message size in bits for the CCDS build.
        b: u64,
        /// Seed of the flood phase (independent of the CCDS build seed).
        flood_seed: u64,
        /// Round budget of each flood.
        flood_budget: u64,
    },
}

impl Workload {
    /// Short name for records and generic tables.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Core { algo } => algo.name(),
            Workload::Hitting { .. } => "hitting-game",
            Workload::TwoCliqueSweep { .. } => "two-clique-sweep",
            Workload::SchedulePair { .. } => "schedule-pair",
            Workload::Broadcast { decay: true, .. } => "decay",
            Workload::Broadcast { decay: false, .. } => "round-robin",
            Workload::BackboneCompare { .. } => "backbone-compare",
        }
    }
}

/// One entry of a spec's workload axis, with optional seed overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// The workload to run.
    pub kind: Workload,
    /// Explicit run seed base (overrides the spec's `seeds.run_base`).
    pub run_seed: Option<u64>,
    /// Explicit network seed base (overrides both the topology entry's
    /// seed and `seeds.net_base` — for workloads whose historical network
    /// stream was keyed by a workload parameter, e.g. E4's `41 + τ`).
    pub net_seed: Option<u64>,
    /// Explicit detector seed: τ-complete detector construction draws from
    /// a fresh stream with this seed instead of continuing the topology
    /// stream (E11's `1100 + τ`).
    pub det_seed: Option<u64>,
}

impl WorkloadEntry {
    /// An entry deriving all seeds from the spec's seed policy.
    pub fn new(kind: Workload) -> Self {
        WorkloadEntry {
            kind,
            run_seed: None,
            net_seed: None,
            det_seed: None,
        }
    }

    /// A [`Workload::Core`] entry deriving all seeds from the policy.
    pub fn core(algo: AlgoKind) -> Self {
        WorkloadEntry::new(Workload::Core { algo })
    }
}

/// Which axis the planner iterates outermost (the table's row order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NestOrder {
    /// topology → adversary → workload → trial.
    TopologyMajor,
    /// workload → adversary → topology → trial.
    WorkloadMajor,
}

/// Default seed bases; see the module docs for the derivation rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedPolicy {
    /// Base of the network seed (plus trial index).
    pub net_base: u64,
    /// Base of the run/engine seed (plus trial index).
    pub run_base: u64,
}

/// When a unit's execution stops, beyond the algorithm's own budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopCondition {
    /// The algorithm's intrinsic budget (schedule length, parameter
    /// budget, …).
    Default,
    /// Cap every run at `max` rounds (also the broadcast workloads'
    /// coverage budget).
    Rounds {
        /// The round cap.
        max: u64,
    },
}

/// How the records render into a table: one of the experiment-specific
/// layouts, or the generic layout for user-authored specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // variants name their experiment table
pub enum RenderKind {
    E1,
    E2,
    E3a,
    E3b,
    E4,
    E5a,
    E5b,
    E5c,
    E6,
    E7,
    E8,
    E9a,
    E9b,
    E10,
    E11,
    /// One row per record: topology, adversary, workload, trial, and the
    /// common result columns. When the spec carries an
    /// [`ScenarioSpec::aggregate`] block, renders the grouped summary
    /// instead.
    Generic,
    /// Grouped summary statistics per [`ScenarioSpec::aggregate`] (the
    /// [`AggregateSpec::default`] grouping when the block is absent).
    Aggregate,
}

/// A declarative experiment: the grid, its seeds, and its presentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Table id, e.g. `"E3a"`.
    pub id: String,
    /// Table caption (what the table shows and which claim it tests).
    pub caption: String,
    /// How records render into the table.
    pub render: RenderKind,
    /// Topology axis.
    pub topologies: Vec<TopologyEntry>,
    /// Adversary axis.
    pub adversaries: Vec<AdversaryKind>,
    /// Workload axis.
    pub workloads: Vec<WorkloadEntry>,
    /// Independent trials per grid cell.
    pub trials: u64,
    /// Axis nesting order.
    pub nest: NestOrder,
    /// Default seed bases.
    pub seeds: SeedPolicy,
    /// Stop condition applied to every unit.
    pub stop: StopCondition,
    /// Optional group-by aggregation (used by [`RenderKind::Aggregate`]
    /// and, when present, [`RenderKind::Generic`]). Absent in older spec
    /// files — they parse unchanged.
    pub aggregate: Option<AggregateSpec>,
}

/// One planned execution: a grid cell × trial with its derived seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialUnit {
    /// Index into the spec's topology axis.
    pub topo: usize,
    /// Index into the spec's adversary axis.
    pub adv: usize,
    /// Index into the spec's workload axis.
    pub work: usize,
    /// Trial index within the cell.
    pub trial: u64,
    /// Derived network seed.
    pub net_seed: u64,
    /// Derived run/engine seed.
    pub run_seed: u64,
    /// Pinned detector seed (`None` = continue the topology stream).
    pub det_seed: Option<u64>,
}

impl ScenarioSpec {
    /// The grid product `topologies × adversaries × workloads × trials`,
    /// which is exactly `plan().len()`.
    pub fn grid_size(&self) -> usize {
        self.topologies.len()
            * self.adversaries.len()
            * self.workloads.len()
            * usize::try_from(self.trials).unwrap_or(usize::MAX)
    }

    /// The planned unit at grid `index` — `plan()[index]` without
    /// materializing the plan. The grid is a mixed-radix counter in the
    /// nesting order (trial is always the innermost digit), so any index
    /// decodes to its axis coordinates in O(1); the streaming runner
    /// derives each chunk's units through this, which keeps peak planner
    /// memory at O(chunk) instead of O(grid).
    ///
    /// # Panics
    ///
    /// Panics if `index >= grid_size()` (or the grid is empty).
    pub fn unit_at(&self, index: u64) -> TrialUnit {
        assert!(
            (index as usize) < self.grid_size(),
            "unit index {index} out of range for grid of {}",
            self.grid_size()
        );
        let trial = index % self.trials;
        let cell = index / self.trials;
        let t_len = self.topologies.len() as u64;
        let a_len = self.adversaries.len() as u64;
        let w_len = self.workloads.len() as u64;
        let (ti, ai, wi) = match self.nest {
            NestOrder::TopologyMajor => {
                (cell / (w_len * a_len), (cell / w_len) % a_len, cell % w_len)
            }
            NestOrder::WorkloadMajor => {
                (cell % t_len, (cell / t_len) % a_len, cell / (t_len * a_len))
            }
        };
        let (ti, ai, wi) = (ti as usize, ai as usize, wi as usize);
        let work = &self.workloads[wi];
        let net_base = work
            .net_seed
            .or(self.topologies[ti].seed)
            .unwrap_or(self.seeds.net_base);
        let run_base = work.run_seed.unwrap_or(self.seeds.run_base);
        TrialUnit {
            topo: ti,
            adv: ai,
            work: wi,
            trial,
            net_seed: net_base + trial,
            run_seed: run_base + trial,
            det_seed: work.det_seed,
        }
    }

    /// Expands the grid into trial units in nesting order, deriving every
    /// unit's seeds from its indices (see the module docs). Equivalent to
    /// decoding every index through [`ScenarioSpec::unit_at`] — the
    /// streaming runner's chunked plan and this materialized one are the
    /// same sequence by construction.
    pub fn plan(&self) -> Vec<TrialUnit> {
        (0..self.grid_size() as u64)
            .map(|i| self.unit_at(i))
            .collect()
    }

    /// The stop condition as an optional round cap.
    fn max_rounds(&self) -> Option<u64> {
        match self.stop {
            StopCondition::Default => None,
            StopCondition::Rounds { max } => Some(max),
        }
    }
}

/// The executed scenario: planned units (in order) with each unit's
/// records, plus the sweep's wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRun {
    /// The planned units, in expansion order.
    pub units: Vec<TrialUnit>,
    /// One record vector per unit (usually a single record; sweeps yield
    /// several).
    pub records: Vec<Vec<RunRecord>>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
}

impl ScenarioRun {
    /// Iterates `(unit, first-record)` pairs — the common case for
    /// renderers of one-record units.
    fn rows(&self) -> impl Iterator<Item = (&TrialUnit, &RunRecord)> {
        self.units
            .iter()
            .zip(&self.records)
            .filter_map(|(u, recs)| recs.first().map(|r| (u, r)))
    }
}

/// Executes every planned unit of `spec` in parallel (results identical to
/// the serial sweep) and collects the records.
///
/// Units that freeze the same network — consecutive trials of a
/// deterministic topology under a net-building workload — share one built
/// instance (adjacency *and* bitmask rows) through
/// [`crate::parallel::run_trials_batched_fused`]; see `run_unit_with`
/// for why the records are bit-identical to the build-per-trial sweep.
/// Within a shared span, runs of ≥ 2 Core trials of one grid cell are
/// additionally *fused* into a single [`run_algo_batch`] call, so dense
/// networks step all of a cell's trials in lockstep over the shared
/// bitmask rows (`fuse_shared_units`) — still record-identical.
pub fn run_spec(spec: &ScenarioSpec) -> ScenarioRun {
    let units = spec.plan();
    let start = Instant::now();
    let records = run_trials_batched_fused(
        units.len() as u64,
        |i| shared_net_key(spec, i),
        |i| build_shared_net(spec, i),
        |shared, span| {
            let start = usize::try_from(span.start).expect("unit index fits");
            let end = usize::try_from(span.end).expect("unit index fits");
            fuse_shared_units(spec, shared, &units[start..end])
        },
        |shared, i| {
            run_unit_with(
                spec,
                &units[usize::try_from(i).expect("unit index fits")],
                shared,
            )
        },
    );
    ScenarioRun {
        units,
        records,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// What a streaming sweep reports instead of a [`ScenarioRun`]: counts and
/// wall-clock — the records themselves went to the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Units executed (the grid product for a full sweep; the slice
    /// length for a [`run_spec_streaming_range`] slice).
    pub units: u64,
    /// Records produced across all units.
    pub records: u64,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
}

/// [`run_spec`] with O(chunk) peak memory: executes the grid in
/// index-ordered chunks of `chunk` units via
/// [`crate::parallel::run_trials_chunked`] and hands every completed
/// unit's records — in unit order — to each sink in turn. Nothing is
/// retained after a sink returns, so an arbitrarily large grid runs in
/// bounded memory; a [`crate::sink::Materialize`] sink restores today's
/// collect-everything behavior and is the differential reference
/// ([`crate::sink::Materialize::into_run`] equals [`run_spec`]'s output
/// up to wall-clock).
///
/// Sinks observe exactly the serial record stream whatever the chunk size
/// or thread count — the units of a chunk still execute in parallel, but
/// chunks are consumed in order and records within a unit stay together.
///
/// # Errors
///
/// Returns the first sink error (e.g. a full disk under
/// [`crate::sink::JsonlWriter`]); the sweep stops at the failing chunk.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn run_spec_streaming(
    spec: &ScenarioSpec,
    chunk: u64,
    sinks: &mut [&mut dyn crate::sink::RecordSink],
) -> std::io::Result<StreamStats> {
    let total = spec.grid_size() as u64;
    run_spec_streaming_range(spec, chunk, 0..total, sinks)
}

/// [`run_spec_streaming`] over an arbitrary index-ordered slice
/// `range` of the grid: the sinks observe exactly the records of units
/// `range.start..range.end`, in unit order. Because the grid decodes
/// index-by-index ([`ScenarioSpec::unit_at`]) with index-derived seeds,
/// the concatenation of consecutive ranges is **bit-identical** to the
/// whole sweep — this is the execution primitive behind resumable
/// (`--resume` re-enters at the checkpointed index) and sharded
/// (`--shard i/m` runs one contiguous slice) sweeps.
///
/// After each completed chunk every sink's
/// [`crate::sink::RecordSink::flush_chunk`] runs, so I/O sinks are
/// durable at chunk granularity.
///
/// # Errors
///
/// Returns the first sink error; the sweep stops at the failing chunk.
///
/// # Panics
///
/// Panics if `chunk` is zero, the range is inverted, or `range.end`
/// exceeds the grid size.
pub fn run_spec_streaming_range(
    spec: &ScenarioSpec,
    chunk: u64,
    range: std::ops::Range<u64>,
    sinks: &mut [&mut dyn crate::sink::RecordSink],
) -> std::io::Result<StreamStats> {
    run_spec_streaming_range_with(spec, chunk, range, sinks, |_, _| Ok(()))
}

/// [`run_spec_streaming_range`] with a chunk-boundary hook: after each
/// chunk's records have been accepted by every sink *and* every sink has
/// flushed, `on_chunk(next_index, records_so_far)` runs — `next_index` is
/// the first grid index not yet executed and `records_so_far` counts the
/// slice's records accepted so far. The checkpoint writer hangs here: by
/// the time the hook sees an index, everything before it is durable in
/// the sinks, so a checkpoint recording `next_index` never points past
/// durable data.
///
/// # Errors
///
/// Returns the first sink or hook error; the sweep stops at that chunk.
///
/// # Panics
///
/// Panics if `chunk` is zero, the range is inverted, or `range.end`
/// exceeds the grid size.
pub fn run_spec_streaming_range_with(
    spec: &ScenarioSpec,
    chunk: u64,
    range: std::ops::Range<u64>,
    sinks: &mut [&mut dyn crate::sink::RecordSink],
    mut on_chunk: impl FnMut(u64, u64) -> std::io::Result<()>,
) -> std::io::Result<StreamStats> {
    assert!(
        range.end <= spec.grid_size() as u64,
        "range end {} exceeds grid of {}",
        range.end,
        spec.grid_size()
    );
    let units = range.end.saturating_sub(range.start);
    let start = Instant::now();
    let mut records = 0u64;
    crate::parallel::run_trials_batched_fused_chunked_range(
        range,
        chunk,
        |i| shared_net_key(spec, i),
        |i| build_shared_net(spec, i),
        |shared, span| {
            let units: Vec<TrialUnit> = span.map(|i| spec.unit_at(i)).collect();
            fuse_shared_units(spec, shared, &units)
                .map(|recs| units.into_iter().zip(recs).collect())
        },
        |shared, i| {
            let unit = spec.unit_at(i);
            let recs = run_unit_with(spec, &unit, shared);
            (unit, recs)
        },
        |window_start, window| {
            for (unit, recs) in &window {
                records += recs.len() as u64;
                for sink in sinks.iter_mut() {
                    sink.accept(spec, unit, recs)?;
                }
            }
            for sink in sinks.iter_mut() {
                sink.flush_chunk()?;
            }
            on_chunk(window_start + window.len() as u64, records)
        },
    )?;
    Ok(StreamStats {
        units,
        records,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// The batch key of grid index `i` for shared-network execution, or `None`
/// when the unit must build privately.
///
/// Sharing is sound exactly when (a) the workload builds a network at all
/// and (b) the topology is deterministic
/// ([`TopologyKind::is_deterministic`]): such builds produce the same
/// network for every `net_seed` *and draw nothing from the stream*, so one
/// frozen instance substitutes for every trial's private build without
/// moving the detector-stream continuation. Random topologies differ per
/// trial and never share. The key is the topology-axis index — trial is
/// the innermost grid digit, so a cell's trials are consecutive and land
/// in one batch.
fn shared_net_key(spec: &ScenarioSpec, i: u64) -> Option<usize> {
    let unit = spec.unit_at(i);
    let builds_net = matches!(
        spec.workloads[unit.work].kind,
        Workload::Core { .. } | Workload::Broadcast { .. } | Workload::BackboneCompare { .. }
    );
    (builds_net && spec.topologies[unit.topo].kind.is_deterministic()).then_some(unit.topo)
}

/// Builds the shared network for the batch that grid index `i` opens.
/// Errors are carried as the rendered string so every trial in the batch
/// reports the identical failure record its private build would have.
fn build_shared_net(spec: &ScenarioSpec, i: u64) -> Result<radio_sim::DualGraph, String> {
    let unit = spec.unit_at(i);
    let mut rng = StdRng::seed_from_u64(unit.net_seed);
    spec.topologies[unit.topo]
        .kind
        .build_with(&mut rng)
        .map_err(|e| e.to_string())
}

/// Executes a span of consecutive shared-network units as a unit-for-unit
/// replacement for per-unit [`run_unit_with`] calls, fusing each grid
/// cell's run of ≥ 2 Core trials into one [`run_algo_batch`] call — which
/// hands the trials' engines to the batched multi-trial tier on dense
/// networks. Returns `None` (declining to fuse, so the caller falls back
/// per unit) when the shared build failed; everything else executes here,
/// with non-Core workloads and singleton cells routed through
/// [`run_unit_with`] unchanged.
///
/// Record-stream equivalence rests on two invariants: [`run_algo_batch`]
/// is bit-identical to per-trial [`run_algo`] whatever the batch size, and
/// the fused detector stream — a fresh `det_seed`/`net_seed` stream per
/// trial — is exactly what the per-unit Core arm derives, because the
/// deterministic builds [`shared_net_key`] gates on draw nothing from the
/// topology stream.
fn fuse_shared_units(
    spec: &ScenarioSpec,
    shared: &Result<radio_sim::DualGraph, String>,
    units: &[TrialUnit],
) -> Option<Vec<Vec<RunRecord>>> {
    let net = match shared {
        Ok(net) => net,
        // Failure records carry no engine work worth fusing; the per-unit
        // path reports the identical error string for every trial.
        Err(_) => return None,
    };
    let max_rounds = spec.max_rounds();
    let mut out: Vec<Vec<RunRecord>> = Vec::with_capacity(units.len());
    let mut idx = 0;
    while idx < units.len() {
        // One grid cell: consecutive units with the same workload and
        // adversary coordinates (trial is the innermost grid digit, so a
        // cell's trials are consecutive within the span).
        let mut end = idx + 1;
        while end < units.len()
            && units[end].work == units[idx].work
            && units[end].adv == units[idx].adv
        {
            end += 1;
        }
        let cell = &units[idx..end];
        let adversary = spec.adversaries[cell[0].adv];
        match &spec.workloads[cell[0].work].kind {
            Workload::Core { algo } if cell.len() >= 2 => {
                let seeds: Vec<u64> = cell.iter().map(|u| u.run_seed).collect();
                let mut det_rngs: Vec<StdRng> = cell
                    .iter()
                    .map(|u| StdRng::seed_from_u64(u.det_seed.unwrap_or(u.net_seed)))
                    .collect();
                let recs = run_algo_batch(net, algo, adversary, &seeds, &mut det_rngs, max_rounds);
                out.extend(recs.into_iter().map(|rec| vec![rec]));
            }
            _ => out.extend(
                cell.iter()
                    .map(|unit| run_unit_with(spec, unit, Some(shared))),
            ),
        }
        idx = end;
    }
    Some(out)
}

/// Executes one trial unit, building its network privately.
pub(crate) fn run_unit(spec: &ScenarioSpec, unit: &TrialUnit) -> Vec<RunRecord> {
    run_unit_with(spec, unit, None)
}

/// Executes one trial unit, borrowing `shared` as the frozen network when
/// the batched runner provides one.
///
/// With `shared = None` this is the reference build-per-trial execution.
/// With `Some`, the net-building workloads skip their private build but
/// keep everything else identical — in particular the Core arm still seeds
/// `net_rng` from `unit.net_seed`, because the detector stream continues
/// that stream and deterministic builds leave it untouched (the invariant
/// [`shared_net_key`] gates on).
fn run_unit_with(
    spec: &ScenarioSpec,
    unit: &TrialUnit,
    shared: Option<&Result<radio_sim::DualGraph, String>>,
) -> Vec<RunRecord> {
    let topo = &spec.topologies[unit.topo].kind;
    let adversary = spec.adversaries[unit.adv];
    let entry = &spec.workloads[unit.work];
    let max_rounds = spec.max_rounds();
    match &entry.kind {
        Workload::Core { algo } => {
            let mut net_rng = StdRng::seed_from_u64(unit.net_seed);
            let owned;
            let net = match shared {
                Some(Ok(net)) => net,
                Some(Err(e)) => return vec![RunRecord::failed(algo.name(), e.clone())],
                None => match topo.build_with(&mut net_rng) {
                    Ok(net) => {
                        owned = net;
                        &owned
                    }
                    Err(e) => return vec![RunRecord::failed(algo.name(), e.to_string())],
                },
            };
            // The detector stream continues the topology stream unless the
            // workload pins an independent one.
            let mut det_rng = match unit.det_seed {
                Some(s) => StdRng::seed_from_u64(s),
                None => net_rng,
            };
            vec![run_algo(
                net,
                algo,
                adversary,
                unit.run_seed,
                &mut det_rng,
                max_rounds,
            )]
        }
        Workload::Hitting {
            beta,
            trials,
            replacement,
        } => {
            let (beta, trials) = (*beta, *trials);
            let mean = if *replacement {
                mean_hitting_time(beta, trials, unit.run_seed, |s| {
                    Box::new(UniformWithReplacement::new(beta, s))
                })
            } else {
                mean_hitting_time(beta, trials, unit.run_seed, |s| {
                    Box::new(UniformNoReplacement::new(beta, s))
                })
            };
            let mut rec = RunRecord::blank("hitting-game", beta as usize, 0);
            rec.valid = true;
            rec.push_extra("beta", f64::from(beta));
            rec.push_extra("mean_rounds", mean);
            rec.push_extra("floor", expected_rounds_floor(beta));
            vec![rec]
        }
        Workload::TwoCliqueSweep { betas, trials } => {
            two_clique_sweep(betas, *trials, unit.run_seed)
                .into_iter()
                .map(|row| {
                    let mut rec = RunRecord::blank("two-clique", 2 * row.beta, row.beta);
                    rec.valid = row.valid == row.trials;
                    rec.schedule_total = Some(row.schedule_total);
                    rec.push_extra("beta", row.beta as f64);
                    rec.push_extra("trials", f64::from(row.trials));
                    rec.push_extra("valid_trials", f64::from(row.valid));
                    rec.push_extra("solved_trials", f64::from(row.solved));
                    rec.push_extra("mean_solve", row.mean_solve_round);
                    rec.push_extra("mean_bridge", row.mean_bridge_round);
                    rec
                })
                .collect()
        }
        Workload::SchedulePair { beta } => {
            let beta = *beta;
            let n = 2 * beta;
            let mut rec = RunRecord::blank("schedule-pair", n, beta);
            match CcdsConfig::new(n, beta, 4096).schedule() {
                Ok(sched) => {
                    rec.valid = true;
                    rec.push_extra("zero_complete_rounds", sched.total as f64);
                    rec.push_extra(
                        "one_complete_rounds",
                        TauConfig::new(n, beta, 1).schedule().total as f64,
                    );
                }
                Err(e) => rec.error = Some(e.to_string()),
            }
            vec![rec]
        }
        Workload::Broadcast { decay, collider } => {
            // The engine consumes the network by value; a shared batch
            // clones its handle, which shares the frozen instance and its
            // cached bitmask rows.
            let net = match shared {
                Some(Ok(net)) => net.clone(),
                Some(Err(e)) => return vec![RunRecord::failed(entry.kind.name(), e.clone())],
                None => {
                    let mut net_rng = StdRng::seed_from_u64(unit.net_seed);
                    match topo.build_with(&mut net_rng) {
                        Ok(net) => net,
                        Err(e) => return vec![RunRecord::failed(entry.kind.name(), e.to_string())],
                    }
                }
            };
            let n = net.n();
            let delta = net.max_degree_g();
            // Worst-case id order (the source gets the largest id) — the
            // round-robin baseline's slowest permutation.
            let ids = IdAssignment::from_ids((1..=n as u32).rev().collect())
                .expect("reversed identity is a permutation");
            let budget = max_rounds.unwrap_or(40_000);
            let mut builder = EngineBuilder::new(net).seed(unit.run_seed).ids(ids);
            if *collider {
                builder = builder.adversary(radio_sim::adversary::Collider);
            }
            let (rounds, covered, metrics) = if *decay {
                let mut e = builder
                    .spawn(|info| DecayBroadcast::new(info.n, info.node.index() == 0))
                    .expect("engine assembly from a validated network cannot fail");
                let out = e.run(budget);
                (
                    out.rounds,
                    matches!(out.stop, StopReason::AllDone),
                    *e.metrics(),
                )
            } else {
                let mut e = builder
                    .spawn(|info| RoundRobinBroadcast::new(info.node.index() == 0))
                    .expect("engine assembly from a validated network cannot fail");
                let out = e.run(budget);
                (
                    out.rounds,
                    matches!(out.stop, StopReason::AllDone),
                    *e.metrics(),
                )
            };
            let mut rec = RunRecord::blank(entry.kind.name(), n, delta);
            rec.valid = covered;
            rec.solve_round = covered.then_some(rounds);
            rec.rounds_executed = rounds;
            rec.metrics = Some(metrics);
            vec![rec]
        }
        Workload::BackboneCompare {
            b,
            flood_seed,
            flood_budget,
        } => {
            let owned;
            let net = match shared {
                Some(Ok(net)) => net,
                Some(Err(e)) => {
                    return vec![
                        RunRecord::failed("backbone", e.clone()),
                        RunRecord::failed("flood-all", e.clone()),
                    ]
                }
                None => {
                    let mut net_rng = StdRng::seed_from_u64(unit.net_seed);
                    match topo.build_with(&mut net_rng) {
                        Ok(net) => {
                            owned = net;
                            &owned
                        }
                        Err(e) => {
                            return vec![
                                RunRecord::failed("backbone", e.to_string()),
                                RunRecord::failed("flood-all", e.to_string()),
                            ]
                        }
                    }
                }
            };
            radio_structures::runner::run_backbone_modes(
                net,
                adversary,
                unit.run_seed,
                *b,
                &[false, true],
                *flood_seed,
                max_rounds.map_or(*flood_budget, |m| (*flood_budget).min(m)),
                max_rounds,
            )
        }
    }
}

/// `⌈log₂ n⌉³`, the paper's recurring round-complexity yardstick.
fn log3(n: usize) -> f64 {
    let l = f64::from(ceil_log2(n));
    l * l * l
}

fn u64_cell(v: Option<f64>) -> String {
    v.map_or("—".to_string(), |x| format!("{}", x as u64))
}

fn solve_cell(r: Option<u64>) -> String {
    r.map_or("—".to_string(), |r| r.to_string())
}

/// Renders the executed scenario into its table.
pub fn render(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    match spec.render {
        RenderKind::E1 => render_e1(spec, run),
        RenderKind::E2 => render_e2(spec, run),
        RenderKind::E3a | RenderKind::E3b => render_e3(spec, run),
        RenderKind::E4 => render_e4(spec, run),
        RenderKind::E5a => render_e5a(spec, run),
        RenderKind::E5b => render_e5b(spec, run),
        RenderKind::E5c => render_e5c(spec, run),
        RenderKind::E6 => render_e6(spec, run),
        RenderKind::E7 => render_e7(spec, run),
        RenderKind::E8 => render_e8(spec, run),
        RenderKind::E9a => render_e9a(spec, run),
        RenderKind::E9b => render_e9b(spec, run),
        RenderKind::E10 => render_e10(spec, run),
        RenderKind::E11 => render_e11(spec, run),
        RenderKind::Generic => match &spec.aggregate {
            Some(agg) => crate::aggregate::render_aggregate(spec, run, agg),
            None => render_generic(spec, run),
        },
        RenderKind::Aggregate => {
            let default;
            let agg = match &spec.aggregate {
                Some(agg) => agg,
                None => {
                    default = AggregateSpec::default();
                    &default
                }
            };
            crate::aggregate::render_aggregate(spec, run, agg)
        }
    }
}

fn render_e1(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "n",
            "Delta",
            "trials",
            "valid",
            "mean solve rounds",
            "budget",
            "rounds/log^3 n",
        ],
    );
    let params = MisParams::default();
    let mut fit_points = Vec::new();
    // One row per topology entry, aggregating every record that landed on
    // it (the registry grid is 1 adversary × 1 workload, so that is
    // exactly `spec.trials`; user specs with more axes aggregate them all
    // into the row, and the trial count reports the true divisor).
    for ti in 0..spec.topologies.len() {
        let n = spec.topologies[ti].kind.n();
        let mut valid = 0u64;
        let mut solve_sum = 0u64;
        let mut delta = 0usize;
        let mut trials = 0u64;
        for (_, rec) in run.rows().filter(|(u, _)| u.topo == ti) {
            trials += 1;
            delta = delta.max(rec.max_degree);
            valid += u64::from(rec.valid);
            solve_sum += rec.solve_round.unwrap_or(rec.rounds_executed);
        }
        let mean = solve_sum as f64 / trials as f64;
        fit_points.push((f64::from(ceil_log2(n)), mean));
        t.push(vec![
            n.to_string(),
            delta.to_string(),
            trials.to_string(),
            format!("{valid}/{trials}"),
            f1(mean),
            params.total_rounds(n).to_string(),
            f3(mean / log3(n)),
        ]);
    }
    // Footer: the measured exponent of solve rounds in log n (paper: ≤ 3).
    let (p, dropped) = loglog_exponent_counting(&fit_points);
    if let Some(p) = p {
        t.caption.push_str(&format!(
            " [measured exponent of rounds in log n: {p:.2}; paper bound: 3]"
        ));
    }
    if dropped > 0 {
        t.caption.push_str(&dropped_points_note(dropped));
    }
    t
}

fn render_e2(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    use radio_structures::checker::{density_bound, mis_density_within};
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &["n", "r", "max in ball", "I_r bound", "within bound"],
    );
    for (unit, rec) in run.rows() {
        // Density checks need the embedding; rebuild the (deterministic)
        // network from the unit's seed.
        let net = spec.topologies[unit.topo]
            .kind
            .build(unit.net_seed)
            .expect("topology built once already");
        for r in [1.0f64, 2.0, 3.0] {
            let got = mis_density_within(&net, &rec.outputs, r).expect("embedded network");
            let bound = density_bound(r);
            t.push(vec![
                rec.n.to_string(),
                f1(r),
                got.to_string(),
                bound.to_string(),
                (got <= bound).to_string(),
            ]);
        }
    }
    t
}

fn render_e3(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "n",
            "Delta",
            "b",
            "chunk windows",
            "schedule rounds",
            "solved at",
            "valid",
        ],
    );
    for (unit, rec) in run.rows() {
        let Workload::Core {
            algo: AlgoKind::Ccds { b },
        } = spec.workloads[unit.work].kind
        else {
            continue;
        };
        if rec.error.is_some() {
            t.push(vec![
                rec.n.to_string(),
                rec.max_degree.to_string(),
                b.to_string(),
                "—".to_string(),
                "—".to_string(),
                "b below minimum".to_string(),
                "—".to_string(),
            ]);
            continue;
        }
        let sched = CcdsConfig::new(rec.n, rec.max_degree, b)
            .schedule()
            .expect("the run executed this schedule");
        t.push(vec![
            rec.n.to_string(),
            rec.max_degree.to_string(),
            b.to_string(),
            sched.chunk_windows.to_string(),
            rec.schedule_total.unwrap_or(0).to_string(),
            solve_cell(rec.solve_round),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_e4(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "n",
            "tau",
            "Delta",
            "slots",
            "schedule rounds",
            "winners",
            "valid",
        ],
    );
    for (unit, rec) in run.rows() {
        let Workload::Core {
            algo: AlgoKind::TauCcds { tau, .. },
        } = spec.workloads[unit.work].kind
        else {
            continue;
        };
        let cfg = TauConfig::new(rec.n, rec.max_degree + tau, tau);
        t.push(vec![
            rec.n.to_string(),
            tau.to_string(),
            rec.max_degree.to_string(),
            cfg.schedule().slots.to_string(),
            rec.schedule_total.unwrap_or(0).to_string(),
            rec.winners.unwrap_or(0).to_string(),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_e5a(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "beta",
            "optimal (no replacement)",
            "with replacement",
            "floor (beta+1)/2",
        ],
    );
    // Workload entries come in (no-replacement, with-replacement) pairs
    // per β. Pair by workload index — not by raw record position — so the
    // pairing survives trials > 1 and extra axes; one row per paired
    // record (the registry runs one trial, giving one row per β).
    let mut per_work: Vec<Vec<&RunRecord>> = vec![Vec::new(); spec.workloads.len()];
    for (unit, rec) in run.rows() {
        per_work[unit.work].push(rec);
    }
    for pair in per_work.chunks(2) {
        let [opts, withs] = pair else { continue };
        for (opt, with) in opts.iter().zip(withs) {
            t.push(vec![
                u64_cell(opt.extra("beta")),
                f1(opt.extra("mean_rounds").unwrap_or(f64::NAN)),
                f1(with.extra("mean_rounds").unwrap_or(f64::NAN)),
                f1(opt.extra("floor").unwrap_or(f64::NAN)),
            ]);
        }
    }
    t
}

fn render_e5b(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "Delta=beta",
            "trials",
            "valid",
            "mean solve",
            "mean bridge join",
            "schedule",
        ],
    );
    for recs in &run.records {
        for rec in recs {
            t.push(vec![
                u64_cell(rec.extra("beta")),
                u64_cell(rec.extra("trials")),
                format!(
                    "{}/{}",
                    rec.extra("valid_trials").unwrap_or(0.0) as u64,
                    rec.extra("trials").unwrap_or(0.0) as u64
                ),
                f1(rec.extra("mean_solve").unwrap_or(f64::NAN)),
                f1(rec.extra("mean_bridge").unwrap_or(f64::NAN)),
                rec.schedule_total.unwrap_or(0).to_string(),
            ]);
        }
    }
    t
}

fn render_e5c(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &["Delta", "0-complete rounds (b=4096)", "1-complete rounds"],
    );
    for (_, rec) in run.rows() {
        t.push(vec![
            rec.max_degree.to_string(),
            u64_cell(rec.extra("zero_complete_rounds")),
            u64_cell(rec.extra("one_complete_rounds")),
        ]);
    }
    t
}

fn render_e6(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "seed",
            "stabilize round",
            "delta_CDS",
            "checked at",
            "valid",
        ],
    );
    for (unit, rec) in run.rows() {
        t.push(vec![
            unit.run_seed.to_string(),
            u64_cell(rec.extra("stabilize_round")),
            u64_cell(rec.extra("delta_cds")),
            u64_cell(rec.extra("checked_at")),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_e7(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "n",
            "model",
            "max latency",
            "log^3 n",
            "latency/log^3 n",
            "valid",
        ],
    );
    for (_, rec) in run.rows() {
        // The record carries the model the run actually executed in
        // (run_async_mis picks the filter from `net.is_classic()`), so any
        // classic topology kind — not just GeometricClassic — labels
        // correctly.
        let classic = rec.extra("classic").unwrap_or(0.0) > 0.0;
        let max_latency = rec.extra("max_latency").unwrap_or(0.0);
        t.push(vec![
            rec.n.to_string(),
            if classic {
                "classic, no topology".to_string()
            } else {
                "dual graph, 0-complete".to_string()
            },
            format!("{}", max_latency as u64),
            f1(log3(rec.n)),
            f3(max_latency / log3(rec.n)),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_e8(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "Delta",
            "banned-list explorations (max)",
            "naive turns",
            "banned rounds",
            "naive rounds",
            "banned valid",
        ],
    );
    for (_, rec) in run.rows() {
        let naive = NaiveCcdsConfig::new(rec.n, rec.max_degree);
        t.push(vec![
            rec.max_degree.to_string(),
            rec.max_explorations.unwrap_or(0).to_string(),
            naive.exploration_turns().to_string(),
            rec.schedule_total.unwrap_or(0).to_string(),
            naive.total_rounds().to_string(),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_e9a(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &["adversary", "valid", "solve rounds", "collisions"],
    );
    for (unit, rec) in run.rows() {
        t.push(vec![
            spec.adversaries[unit.adv].name().to_string(),
            rec.valid.to_string(),
            solve_cell(rec.solve_round),
            rec.metrics.map_or(0, |m| m.collisions).to_string(),
        ]);
    }
    t
}

fn render_e9b(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "protocol",
            "adversary",
            "rounds to full coverage",
            "covered",
        ],
    );
    for (unit, rec) in run.rows() {
        let Workload::Broadcast { collider, .. } = spec.workloads[unit.work].kind else {
            continue;
        };
        t.push(vec![
            rec.algo.clone(),
            if collider {
                "collider"
            } else {
                "reliable-only"
            }
            .to_string(),
            rec.rounds_executed.to_string(),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_e10(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "n",
            "backbone size",
            "mode",
            "coverage rounds",
            "broadcasts",
            "tx rate/round",
            "transmitters",
        ],
    );
    // Both backbone workload shapes (`BackboneCompare` with two records
    // per unit, `Core { Backbone }` with one) name each record after its
    // mode, so iterate every record and read the mode from it.
    for (unit, recs) in run.units.iter().zip(&run.records) {
        let is_backbone = matches!(
            spec.workloads[unit.work].kind,
            Workload::BackboneCompare { .. }
                | Workload::Core {
                    algo: AlgoKind::Backbone { .. },
                }
        );
        if !is_backbone {
            continue;
        }
        for rec in recs {
            let broadcasts = rec.extra("broadcasts").unwrap_or(0.0);
            t.push(vec![
                rec.n.to_string(),
                u64_cell(rec.extra("backbone_size")),
                rec.algo.clone(),
                solve_cell(rec.solve_round),
                format!("{}", broadcasts as u64),
                rec.solve_round
                    .map_or("—".to_string(), |r| f3(broadcasts / r as f64)),
                u64_cell(rec.extra("transmitters")),
            ]);
        }
    }
    t
}

fn render_e11(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "n",
            "tau",
            "schedule rounds",
            "winners",
            "max CCDS G'-neighbors",
            "valid",
        ],
    );
    for (unit, rec) in run.rows() {
        let Workload::Core {
            algo: AlgoKind::TauCcds { tau, .. },
        } = spec.workloads[unit.work].kind
        else {
            continue;
        };
        t.push(vec![
            rec.n.to_string(),
            tau.to_string(),
            rec.schedule_total.unwrap_or(0).to_string(),
            rec.winners.unwrap_or(0).to_string(),
            u64_cell(rec.extra("max_gprime_neighbors")),
            rec.valid.to_string(),
        ]);
    }
    t
}

fn render_generic(spec: &ScenarioSpec, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &spec.id,
        &spec.caption,
        &[
            "topology",
            "adversary",
            "workload",
            "trial",
            "n",
            "valid",
            "solve round",
            "rounds",
            "error",
        ],
    );
    for (unit, recs) in run.units.iter().zip(&run.records) {
        for rec in recs {
            t.push(vec![
                spec.topologies[unit.topo].kind.label(),
                spec.adversaries[unit.adv].name().to_string(),
                rec.algo.clone(),
                unit.trial.to_string(),
                rec.n.to_string(),
                rec.valid.to_string(),
                solve_cell(rec.solve_round),
                rec.rounds_executed.to_string(),
                rec.error.clone().unwrap_or_else(|| "—".to_string()),
            ]);
        }
    }
    t
}

pub mod registry;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            id: "T0".to_string(),
            caption: "planner unit test".to_string(),
            render: RenderKind::Generic,
            topologies: vec![
                TopologyEntry::new(TopologyKind::Clique { n: 6 }),
                TopologyEntry::seeded(TopologyKind::GeometricDense { n: 16 }, 12),
            ],
            adversaries: vec![
                AdversaryKind::ReliableOnly,
                AdversaryKind::Random { p: 0.5 },
            ],
            workloads: vec![WorkloadEntry::core(AlgoKind::Mis)],
            trials: 3,
            nest: NestOrder::TopologyMajor,
            seeds: SeedPolicy {
                net_base: 100,
                run_base: 7,
            },
            stop: StopCondition::Default,
            aggregate: None,
        }
    }

    #[test]
    fn plan_matches_grid_product_and_orders_axes() {
        let spec = tiny_spec();
        let units = spec.plan();
        assert_eq!(units.len(), spec.grid_size());
        // 2 topologies x 2 adversaries x 1 workload x 3 trials.
        assert_eq!(units.len(), 12);
        // Topology-major: all topology-0 units first.
        assert!(units[..6].iter().all(|u| u.topo == 0));
        assert!(units[6..].iter().all(|u| u.topo == 1));
        // Seeds: derived base + trial; topology 1 pins its own net seed.
        assert_eq!(units[0].net_seed, 100);
        assert_eq!(units[1].net_seed, 101);
        assert_eq!(units[1].run_seed, 8);
        assert_eq!(units[6].net_seed, 12);
        let mut wm = spec.clone();
        wm.nest = NestOrder::WorkloadMajor;
        assert_eq!(wm.plan().len(), wm.grid_size());
    }

    #[test]
    fn run_spec_is_deterministic_and_renders() {
        let spec = tiny_spec();
        let a = run_spec(&spec);
        let b = run_spec(&spec);
        assert_eq!(a.records, b.records);
        assert_eq!(a.units, b.units);
        let table = render(&spec, &a);
        assert_eq!(table.rows.len(), spec.grid_size());
        assert!(table.rows.iter().all(|r| r.len() == table.header.len()));
    }

    #[test]
    fn batched_shared_nets_match_private_builds() {
        // tiny_spec mixes a deterministic clique (its trials share one
        // frozen network) with a random geometric (never shared). Add a
        // Broadcast workload so the by-value engine path is covered too;
        // the batched sweep must be bit-identical to building every unit
        // privately.
        let mut spec = tiny_spec();
        spec.stop = StopCondition::Rounds { max: 200 };
        spec.workloads = vec![
            WorkloadEntry::core(AlgoKind::Mis),
            WorkloadEntry::new(Workload::Broadcast {
                decay: true,
                collider: false,
            }),
        ];
        let run = run_spec(&spec);
        let private: Vec<Vec<RunRecord>> = spec.plan().iter().map(|u| run_unit(&spec, u)).collect();
        assert_eq!(run.records, private);
        // The clique units carry a batch key; the random topology never
        // shares.
        assert!(shared_net_key(&spec, 0).is_some());
        let geo = run.units.iter().position(|u| u.topo == 1).unwrap() as u64;
        assert!(shared_net_key(&spec, geo).is_none());
    }

    #[test]
    fn fused_core_cells_match_private_builds() {
        // A dense deterministic clique whose Core cells genuinely engage
        // the batched engine tier, with a τ-CCDS workload whose detector
        // stream continues the topology stream (det_seed = None) — the
        // subtle part of the fused det_rng derivation — plus a pinned
        // det_seed variant. Fused records must equal the build-per-trial
        // reference exactly.
        let mut spec = tiny_spec();
        spec.topologies = vec![TopologyEntry::new(TopologyKind::Clique { n: 24 })];
        spec.trials = 4;
        spec.stop = StopCondition::Rounds { max: 400 };
        let mut pinned = WorkloadEntry::core(AlgoKind::TauCcds {
            tau: 1,
            spurious: radio_sim::SpuriousSource::UnreliableNeighbors,
        });
        pinned.det_seed = Some(99);
        spec.workloads = vec![
            WorkloadEntry::core(AlgoKind::Mis),
            WorkloadEntry::core(AlgoKind::TauCcds {
                tau: 1,
                spurious: radio_sim::SpuriousSource::UnreliableNeighbors,
            }),
            pinned,
        ];
        let run = run_spec(&spec);
        let private: Vec<Vec<RunRecord>> = spec.plan().iter().map(|u| run_unit(&spec, u)).collect();
        assert_eq!(run.records, private);
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = tiny_spec();
        let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec parses");
        assert_eq!(back, spec);
        // And the executed run serializes too (the radio-lab results file).
        let run = run_spec(&spec);
        let json = serde_json::to_string(&run).expect("run serializes");
        let back: ScenarioRun = serde_json::from_str(&json).expect("run parses");
        assert_eq!(back, run);
    }

    #[test]
    fn broken_topology_yields_error_record() {
        let mut spec = tiny_spec();
        spec.topologies = vec![TopologyEntry::new(TopologyKind::Geometric {
            n: 10,
            side: 1000.0,
            d: 2.0,
            gray_prob: 0.0,
            max_attempts: 2,
        })];
        spec.trials = 1;
        let run = run_spec(&spec);
        assert!(run.records.iter().flatten().all(|r| r.error.is_some()));
        let table = render(&spec, &run);
        assert!(table.rows.iter().all(|r| r[5] == "false"));
    }
}
