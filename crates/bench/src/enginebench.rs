//! Engine micro-benchmark workloads and the `BENCH_engine.json` report.
//!
//! The simulator's `Engine::step()` is the hot path under every experiment
//! table, so its throughput is tracked PR-over-PR in a machine-readable
//! artifact. Five canonical topologies cover the engine's regimes:
//!
//! * **clique-64 / clique-256 / clique-1024** — dense reliable layer,
//!   every broadcast reaches everyone (scatter cost is maximal per
//!   broadcaster). The row kernel shines here, and the advantage grows
//!   with `n`: the CSR scatter is `O(B·n)` per round while the row passes
//!   are `O(B·n/64)`, against per-node decide/receive costs that both
//!   kernels share. The smaller cliques document where the crossover sits;
//! * **rgg** — the random-geometric dual graph the paper's experiments
//!   use, with a gray zone of unreliable links and a randomized adversary
//!   (the acceptance workload at `n = 256`);
//! * **sparse** — a path with unreliable chords under the adaptive
//!   [`Collider`], the cheap-per-round /
//!   adversary-heavy regime.
//!
//! Each workload runs three engines: the seed implementation kept as
//! [`Engine::step_legacy`], and the production [`Engine::step`] with each
//! of its two reach kernels pinned at spawn — `"scratch"`
//! ([`StepMode::Scalar`], the CSR scatter) and `"bitset"`
//! ([`StepMode::Bitset`], the bitmask rows). Every generated
//! `BENCH_engine.json` (schema `bench-engine/v4`) records the baseline,
//! the scratch/legacy speedup, and the bitset/scratch speedup in the same
//! artifact; their product is the row kernel's speedup over the oracle.
//!
//! [`Engine::step`]: radio_sim::Engine::step
//! [`Engine::step_legacy`]: radio_sim::Engine::step_legacy

use radio_sim::adversary::{Collider, RandomUnreliable};
use radio_sim::spec::TopologyKind;
use radio_sim::topology::{random_geometric, RandomGeometricConfig};
use radio_sim::{Action, Context, DualGraph, Engine, EngineBuilder, Graph, Process, StepMode};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A light randomized chatterer: broadcasts its id with probability `p`
/// each round, never terminates — so measured cost is the engine's, not an
/// algorithm's.
pub struct Chatter {
    /// 53-bit acceptance threshold for the broadcast coin (hoisted out of
    /// the per-round decision so the engine, not float conversion, is what
    /// the benchmark measures).
    threshold: u64,
    heard: u64,
}

impl Chatter {
    /// A chatterer broadcasting with probability `p` per round.
    pub fn new(p: f64) -> Self {
        Chatter {
            threshold: (p * (1u64 << 53) as f64) as u64,
            heard: 0,
        }
    }

    /// Messages received so far (keeps `receive` from being optimized out).
    pub fn heard(&self) -> u64 {
        self.heard
    }
}

impl Process for Chatter {
    type Msg = u32;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        use rand::RngCore;
        if (ctx.rng.next_u64() >> 11) < self.threshold {
            Action::Broadcast(ctx.my_id.get())
        } else {
            Action::Idle
        }
    }

    fn receive(&mut self, _: &mut Context<'_>, msg: Option<&u32>) {
        if msg.is_some() {
            self.heard += 1;
        }
    }

    fn output(&self) -> Option<bool> {
        None
    }
}

/// Names of the canonical workloads, in report order.
pub const WORKLOADS: [&str; 5] = [
    "clique-64",
    "clique-256",
    "clique-1024",
    "rgg-256",
    "sparse-256",
];

/// Broadcast probability used by every workload's [`Chatter`] processes
/// (MIS-style sparse contention).
pub const CHATTER_P: f64 = 0.05;

/// Builds a canonical workload network by name.
///
/// # Panics
///
/// Panics on an unknown name (callers pick from [`WORKLOADS`]).
pub fn workload_net(name: &str) -> DualGraph {
    let clique = |n| {
        TopologyKind::Clique { n }
            .build(0)
            .expect("clique is connected")
    };
    match name {
        "clique-64" => clique(64),
        "clique-256" => clique(256),
        "clique-1024" => clique(1024),
        "rgg-256" => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
            random_geometric(&RandomGeometricConfig::dense(256), &mut rng)
                .expect("dense configuration connects")
        }
        "sparse-256" => {
            let n = 256;
            let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).expect("path");
            let mut gp = g.clone();
            for i in 0..n - 2 {
                gp.add_edge(i, i + 2);
            }
            DualGraph::new(g, gp).expect("valid dual graph")
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Spawns the workload's engine (Chatter processes + the workload's
/// adversary) with the `mode` reach kernel, same construction for every
/// engine. The bitset measurements force [`StepMode::Bitset`] so the
/// bitmask rows are built at spawn (outside the measured steady state) on
/// every workload, including the sparse ones Auto would route to the
/// scatter kernel.
pub fn workload_engine_mode(name: &str, mode: StepMode) -> Engine<Chatter> {
    workload_builder(name, mode)
        .spawn(|_| Chatter::new(CHATTER_P))
        .expect("workload engines assemble")
}

/// The workload's engine builder (network, adversary, seed and pinned
/// kernel), ready to spawn any process.
pub fn workload_builder(name: &str, mode: StepMode) -> EngineBuilder {
    let builder = EngineBuilder::new(workload_net(name))
        .seed(7)
        .step_mode(mode);
    match name {
        "sparse-256" => builder.adversary(Collider),
        _ => builder.adversary(RandomUnreliable::new(0.5, 11)),
    }
}

/// One measured engine configuration within a workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineMeasurement {
    /// `"scratch"` (`step()` on the CSR scatter kernel), `"legacy"` (seed
    /// implementation), or `"bitset"` (`step()` on the row kernel).
    /// Schema-v3 documents also carry a `"batched"` entry, which parses
    /// like any other.
    pub engine: String,
    /// Rounds executed during measurement.
    pub rounds: u64,
    /// Wall time for those rounds, seconds.
    pub wall_s: f64,
    /// Rounds per second.
    pub rounds_per_sec: f64,
    /// Steady-state heap allocations per round (`None` when the harness
    /// has no counting allocator installed).
    pub allocs_per_round: Option<f64>,
    /// Steady-state heap bytes allocated per round.
    pub bytes_per_round: Option<f64>,
}

/// Benchmark results of one workload: every engine plus the ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name from [`WORKLOADS`].
    pub name: String,
    /// Network size.
    pub n: usize,
    /// Measurements (scratch, then legacy, then bitset).
    pub engines: Vec<EngineMeasurement>,
    /// `rounds_per_sec(scratch) / rounds_per_sec(legacy)`.
    pub speedup: f64,
    /// `rounds_per_sec(bitset) / rounds_per_sec(scratch)`. `None` in
    /// schema-v1 documents (they predate the row kernel and parse
    /// unchanged).
    pub bitset_speedup: Option<f64>,
}

/// The whole `BENCH_engine.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Per-workload results.
    pub workloads: Vec<WorkloadReport>,
}

/// Steady-state allocation statistics observed around a measured run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocDelta {
    /// Heap allocations during the measured rounds.
    pub allocs: u64,
    /// Heap bytes requested during the measured rounds.
    pub bytes: u64,
}

/// Measures every engine on one workload, **interleaved**: after a warmup
/// on each, scratch, legacy, and bitset execute alternating batches of
/// rounds, so machine-load drift during the measurement hits every engine
/// equally and cancels out of the speedup ratios. `alloc_probe` (when
/// provided) samples a monotone `(allocs, bytes)` counter around each
/// batch; the summed deltas give exact steady-state allocations. The
/// scratch and bitset engines pin their kernel at spawn, so each column
/// measures its kernel on every workload; the bitset engine's rows are
/// built at spawn, outside the probes.
pub fn measure_workload(
    name: &str,
    rounds: u64,
    alloc_probe: Option<&dyn Fn() -> (u64, u64)>,
) -> WorkloadReport {
    const LABELS: [&str; 3] = ["scratch", "legacy", "bitset"];
    let warmup = (rounds / 10).max(16);
    let batches = 16u64;
    let batch = (rounds / batches).max(1);
    let mut engines_rt = [
        workload_engine_mode(name, StepMode::Scalar),
        workload_engine_mode(name, StepMode::Scalar),
        workload_engine_mode(name, StepMode::Bitset),
    ];
    let step_one = |engine: &mut Engine<Chatter>, which: usize| match which {
        1 => engine.step_legacy(),
        _ => engine.step(),
    };
    for _ in 0..warmup {
        for (which, engine) in engines_rt.iter_mut().enumerate() {
            step_one(engine, which);
        }
    }
    let mut wall = [0.0f64; 3];
    let mut executed = [0u64; 3];
    let mut alloc = [AllocDelta::default(); 3];
    for _ in 0..batches {
        for (which, engine) in engines_rt.iter_mut().enumerate() {
            let before = alloc_probe.map(|p| p());
            let start = Instant::now();
            for _ in 0..batch {
                step_one(engine, which);
            }
            wall[which] += start.elapsed().as_secs_f64();
            executed[which] += batch;
            if let (Some(probe), Some((a0, b0))) = (alloc_probe, before) {
                let (a1, b1) = probe();
                alloc[which].allocs += a1 - a0;
                alloc[which].bytes += b1 - b0;
            }
        }
    }
    // Defeat dead-code elimination of the whole run.
    let heard: u64 = engines_rt
        .iter()
        .flat_map(|e| e.procs())
        .map(Chatter::heard)
        .sum();
    std::hint::black_box(heard);
    let engines: Vec<EngineMeasurement> = LABELS
        .into_iter()
        .enumerate()
        .map(|(which, label)| EngineMeasurement {
            engine: label.to_string(),
            rounds: executed[which],
            wall_s: wall[which],
            rounds_per_sec: executed[which] as f64 / wall[which].max(1e-12),
            allocs_per_round: alloc_probe
                .map(|_| alloc[which].allocs as f64 / executed[which] as f64),
            bytes_per_round: alloc_probe
                .map(|_| alloc[which].bytes as f64 / executed[which] as f64),
        })
        .collect();
    let speedup = engines[0].rounds_per_sec / engines[1].rounds_per_sec.max(1e-12);
    let bitset_speedup = engines[2].rounds_per_sec / engines[0].rounds_per_sec.max(1e-12);
    WorkloadReport {
        name: name.to_string(),
        n: engines_rt[0].net().n(),
        engines,
        speedup,
        bitset_speedup: Some(bitset_speedup),
    }
}

/// Runs every workload on every engine and assembles the report.
pub fn run_engine_bench(
    rounds: u64,
    alloc_probe: Option<&dyn Fn() -> (u64, u64)>,
) -> EngineBenchReport {
    let workloads = WORKLOADS
        .iter()
        .map(|&name| measure_workload(name, rounds, alloc_probe))
        .collect();
    EngineBenchReport {
        schema: crate::schemas::BENCH_ENGINE_SCHEMA.to_string(),
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_assemble_and_step() {
        for name in WORKLOADS {
            let mut e = workload_engine_mode(name, StepMode::Auto);
            e.run_rounds(8);
            assert_eq!(e.round(), 8, "{name}");
            assert!(e.metrics().broadcasts > 0, "{name}: chatters must chat");
        }
    }

    #[test]
    fn report_serializes() {
        let report = run_engine_bench(16, None);
        assert_eq!(report.workloads.len(), WORKLOADS.len());
        assert_eq!(report.schema, "bench-engine/v4");
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: EngineBenchReport = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back.workloads.len(), report.workloads.len());
        assert!(back.workloads.iter().all(|w| w.speedup > 0.0));
        // v4: every workload measures all three engines and both ratios.
        for w in &back.workloads {
            assert_eq!(w.engines.len(), 3, "{}", w.name);
            assert_eq!(w.engines[2].engine, "bitset");
            assert!(w.bitset_speedup.expect("v4 carries the ratio") > 0.0);
        }
    }

    #[test]
    fn v1_workloads_parse_without_the_bitset_column() {
        // Pre-bitset baselines (schema v1) must keep parsing for the
        // regression gate's delta comparison.
        let v1 = r#"{"name":"clique-64","n":64,"engines":[],"speedup":3.0}"#;
        let w: WorkloadReport = serde_json::from_str(v1).expect("v1 row parses");
        assert_eq!(w.bitset_speedup, None);
    }

    #[test]
    fn v3_workloads_parse_and_keep_their_ratios() {
        // A schema-v3 baseline row carries a fourth, "batched" measurement
        // and a batched_speedup. It must keep parsing, with its
        // scratch/legacy and bitset/scratch ratios intact, so the gate can
        // diff a v4 run against it.
        let v3 = r#"{"name":"clique-1024","n":1024,"engines":[
            {"engine":"scratch","rounds":50000,"wall_s":3.17,"rounds_per_sec":15770.1,
             "allocs_per_round":0.0,"bytes_per_round":0.0},
            {"engine":"legacy","rounds":50000,"wall_s":2.11,"rounds_per_sec":23674.5,
             "allocs_per_round":3.0,"bytes_per_round":33792.0},
            {"engine":"bitset","rounds":50000,"wall_s":0.62,"rounds_per_sec":81193.0,
             "allocs_per_round":0.0,"bytes_per_round":0.0},
            {"engine":"batched","rounds":1600000,"wall_s":18.8,"rounds_per_sec":85127.7,
             "allocs_per_round":0.0,"bytes_per_round":0.0}],
            "speedup":0.666,"bitset_speedup":5.149,"batched_speedup":1.048}"#;
        let w: WorkloadReport = serde_json::from_str(v3).expect("v3 row parses");
        assert_eq!(w.speedup, 0.666);
        assert_eq!(w.bitset_speedup, Some(5.149));
        assert_eq!(w.engines.len(), 4);
        assert_eq!(w.engines[3].engine, "batched");
    }
}
