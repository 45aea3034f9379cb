//! Engine micro-benchmark workloads and the `BENCH_engine.json` report.
//!
//! The simulator's `Engine::step()` is the hot path under every experiment
//! table, so its throughput is tracked PR-over-PR in a machine-readable
//! artifact. Five canonical topologies cover the engine's regimes:
//!
//! * **clique-64 / clique-256 / clique-1024** — dense reliable layer,
//!   every broadcast reaches everyone (scatter cost is maximal per
//!   broadcaster). Word-packed delivery shines here, and the advantage
//!   grows with `n`: the scalar scatter is `O(B·n)` per round while the
//!   bitset passes are `O(B·n/64)`, against shared per-node decide/receive
//!   costs that are identical across tiers. The 1024 clique carries the
//!   ≥3× bitset/scratch acceptance ratio; the smaller cliques document
//!   where the crossover sits;
//! * **rgg** — the random-geometric dual graph the paper's experiments
//!   use, with a gray zone of unreliable links and a randomized adversary
//!   (the acceptance workload at `n = 256`);
//! * **sparse** — a path with unreliable chords under the adaptive
//!   [`Collider`], the cheap-per-round /
//!   adversary-heavy regime.
//!
//! Each workload runs on **all four engine tiers** — the scratch-buffer
//! engine ([`Engine::step`]), the seed implementation kept as
//! [`Engine::step_legacy`], the word-packed [`Engine::step_bitset`], and
//! the struct-of-arrays multi-trial [`BatchedEngine`] stepping
//! [`BATCHED_TRIALS`] independent trials per round over shared bitmask
//! rows — so every generated `BENCH_engine.json` (schema `bench-engine/v3`)
//! records the baseline, the scratch/legacy speedup, the bitset/scratch
//! speedup, and the batched/bitset speedup in the same artifact. The
//! batched column's throughput is **trial-rounds per second** (`B` trials
//! advancing one round counts `B`), so the batched/bitset ratio reads
//! directly as the per-trial amortization factor.
//!
//! [`Engine::step`]: radio_sim::Engine::step
//! [`Engine::step_legacy`]: radio_sim::Engine::step_legacy
//! [`Engine::step_bitset`]: radio_sim::Engine::step_bitset
//! [`BatchedEngine`]: radio_sim::BatchedEngine

use radio_sim::adversary::{Collider, RandomUnreliable};
use radio_sim::topology::{random_geometric, RandomGeometricConfig};
use radio_sim::{
    Action, BatchedEngine, Context, DualGraph, Engine, EngineBuilder, Graph, Process, StepMode,
};
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

/// Trials per batch in the batched-tier measurement (`B`). Large enough
/// to amortize each broadcaster's row fetch across a cache-hot stripe
/// walk, small enough that the whole batch's planes stay resident.
pub const BATCHED_TRIALS: usize = 32;

/// Builds a canonical workload network by name.
///
/// # Panics
///
/// Panics on an unknown name (callers pick from [`WORKLOADS`]).
pub fn workload_net(name: &str) -> DualGraph {
    match name {
        "clique-64" => DualGraph::classic(Graph::complete(64)).expect("clique is connected"),
        "clique-256" => DualGraph::classic(Graph::complete(256)).expect("clique is connected"),
        "clique-1024" => DualGraph::classic(Graph::complete(1024)).expect("clique is connected"),
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
/// adversary), same construction for every engine implementation.
pub fn workload_engine(name: &str) -> Engine<Chatter> {
    workload_engine_mode(name, StepMode::Auto)
}

/// [`workload_engine`] with a pinned delivery tier — the bitset
/// measurements force [`StepMode::Bitset`] so the bitmask rows are built
/// at spawn (outside the measured steady state) on every workload,
/// including the sparse ones Auto would route to the scalar tier.
pub fn workload_engine_mode(name: &str, mode: StepMode) -> Engine<Chatter> {
    workload_engine_seeded(name, mode, 7)
}

/// [`workload_engine_mode`] with an explicit engine seed — the batched
/// measurement gives each of its `B` trials a distinct seed (`7 + trial`),
/// matching how a sweep's trial seeds differ.
pub fn workload_engine_seeded(name: &str, mode: StepMode, seed: u64) -> Engine<Chatter> {
    let net = workload_net(name);
    let builder = EngineBuilder::new(net).seed(seed).step_mode(mode);
    let builder = match name {
        "sparse-256" => builder.adversary(Collider),
        _ => builder.adversary(RandomUnreliable::new(0.5, 11)),
    };
    builder
        .spawn(|_| Chatter::new(CHATTER_P))
        .expect("workload engines assemble")
}

/// Builds the batched-tier measurement unit for a workload: a
/// [`BatchedEngine`] of [`BATCHED_TRIALS`] trials with distinct seeds,
/// every trial pinned to the bitset phase semantics over one shared set
/// of bitmask rows.
pub fn workload_batched_engine(name: &str) -> BatchedEngine<Chatter> {
    BatchedEngine::new(
        (0..BATCHED_TRIALS)
            .map(|t| workload_engine_seeded(name, StepMode::Bitset, 7 + t as u64))
            .collect(),
    )
}

/// One measured engine configuration within a workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineMeasurement {
    /// `"scratch"` (`step()`), `"legacy"` (seed implementation),
    /// `"bitset"` (word-packed `step_bitset()`), or `"batched"`
    /// ([`BatchedEngine`] lockstep; rounds and rates count trial-rounds).
    pub engine: String,
    /// Rounds executed during measurement (trial-rounds for `"batched"`).
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

/// Benchmark results of one workload: every engine tier plus the ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name from [`WORKLOADS`].
    pub name: String,
    /// Network size.
    pub n: usize,
    /// Measurements (scratch, then legacy, then bitset, then batched).
    pub engines: Vec<EngineMeasurement>,
    /// `rounds_per_sec(scratch) / rounds_per_sec(legacy)`.
    pub speedup: f64,
    /// `rounds_per_sec(bitset) / rounds_per_sec(scratch)`. `None` in
    /// schema-v1 documents (they predate the bitset tier and parse
    /// unchanged).
    pub bitset_speedup: Option<f64>,
    /// `trial_rounds_per_sec(batched) / rounds_per_sec(bitset)` at `B =`
    /// [`BATCHED_TRIALS`] — the per-trial amortization of the batched
    /// multi-trial tier. `None` in schema-v1/v2 documents (they predate
    /// the batched tier and parse unchanged).
    pub batched_speedup: Option<f64>,
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

/// Measures every engine tier on one workload, **interleaved**: after a
/// warmup on each, scratch, legacy, bitset, and batched execute
/// alternating batches of rounds, so machine-load drift during the
/// measurement hits every tier equally and cancels out of the speedup
/// ratios. `alloc_probe` (when provided) samples a monotone
/// `(allocs, bytes)` counter around each batch; the summed deltas give
/// exact steady-state allocations. The bitset and batched engines are
/// spawned with their rows pre-built, outside the probes. The batched
/// unit steps [`BATCHED_TRIALS`] trials per round and accounts in
/// trial-rounds, so its per-round alloc statistics are per *trial-round*
/// too (zero stays zero either way).
pub fn measure_workload(
    name: &str,
    rounds: u64,
    alloc_probe: Option<&dyn Fn() -> (u64, u64)>,
) -> WorkloadReport {
    const LABELS: [&str; 4] = ["scratch", "legacy", "bitset", "batched"];
    let warmup = (rounds / 10).max(16);
    let batches = 16u64;
    let batch = (rounds / batches).max(1);
    let mut engines_rt = [
        workload_engine(name),
        workload_engine(name),
        workload_engine_mode(name, StepMode::Bitset),
    ];
    let mut batched_rt = workload_batched_engine(name);
    let step_one = |engine: &mut Engine<Chatter>, which: usize| match which {
        0 => engine.step(),
        1 => engine.step_legacy(),
        _ => engine.step_bitset(),
    };
    for _ in 0..warmup {
        for (which, engine) in engines_rt.iter_mut().enumerate() {
            step_one(engine, which);
        }
        batched_rt.step();
    }
    let mut wall = [0.0f64; 4];
    let mut executed = [0u64; 4];
    let mut alloc = [AllocDelta::default(); 4];
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
        let before = alloc_probe.map(|p| p());
        let start = Instant::now();
        for _ in 0..batch {
            batched_rt.step();
        }
        wall[3] += start.elapsed().as_secs_f64();
        executed[3] += batch * BATCHED_TRIALS as u64;
        if let (Some(probe), Some((a0, b0))) = (alloc_probe, before) {
            let (a1, b1) = probe();
            alloc[3].allocs += a1 - a0;
            alloc[3].bytes += b1 - b0;
        }
    }
    // Defeat dead-code elimination of the whole run.
    let heard: u64 = engines_rt
        .iter()
        .chain(batched_rt.engines())
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
    let batched_speedup = engines[3].rounds_per_sec / engines[2].rounds_per_sec.max(1e-12);
    WorkloadReport {
        name: name.to_string(),
        n: engines_rt[0].net().n(),
        engines,
        speedup,
        bitset_speedup: Some(bitset_speedup),
        batched_speedup: Some(batched_speedup),
    }
}

/// Runs every workload on every engine tier and assembles the report.
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
            let mut e = workload_engine(name);
            e.run_rounds(8);
            assert_eq!(e.round(), 8, "{name}");
            assert!(e.metrics().broadcasts > 0, "{name}: chatters must chat");
        }
    }

    #[test]
    fn report_serializes() {
        let report = run_engine_bench(16, None);
        assert_eq!(report.workloads.len(), WORKLOADS.len());
        assert_eq!(report.schema, "bench-engine/v3");
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: EngineBenchReport = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back.workloads.len(), report.workloads.len());
        assert!(back.workloads.iter().all(|w| w.speedup > 0.0));
        // v3: every workload measures all four tiers and both ratios.
        for w in &back.workloads {
            assert_eq!(w.engines.len(), 4, "{}", w.name);
            assert_eq!(w.engines[2].engine, "bitset");
            assert_eq!(w.engines[3].engine, "batched");
            // Batched accounts in trial-rounds: B trials advance per step.
            assert_eq!(
                w.engines[3].rounds,
                w.engines[2].rounds * BATCHED_TRIALS as u64,
                "{}",
                w.name
            );
            assert!(w.bitset_speedup.expect("v3 carries the ratio") > 0.0);
            assert!(w.batched_speedup.expect("v3 carries the ratio") > 0.0);
        }
    }

    #[test]
    fn v1_workloads_parse_without_the_bitset_column() {
        // Pre-bitset baselines (schema v1) must keep parsing for the
        // regression gate's delta comparison.
        let v1 = r#"{"name":"clique-64","n":64,"engines":[],"speedup":3.0}"#;
        let w: WorkloadReport = serde_json::from_str(v1).expect("v1 row parses");
        assert_eq!(w.bitset_speedup, None);
        assert_eq!(w.batched_speedup, None);
    }

    #[test]
    fn v2_workloads_parse_without_the_batched_column() {
        // Pre-batched baselines (schema v2) must keep parsing so the gate
        // can diff a v3 run against them (batched ratio simply ungated).
        let v2 = r#"{"name":"clique-64","n":64,"engines":[],"speedup":3.0,"bitset_speedup":5.5}"#;
        let w: WorkloadReport = serde_json::from_str(v2).expect("v2 row parses");
        assert_eq!(w.bitset_speedup, Some(5.5));
        assert_eq!(w.batched_speedup, None);
    }

    #[test]
    fn batched_workload_unit_is_bit_identical_to_solo_trials() {
        // The bench's batched unit must measure the same work the solo
        // bitset unit does: trial t of the batch equals a solo engine on
        // seed 7 + t.
        let mut batched = workload_batched_engine("rgg-256");
        batched.run_rounds_each(24);
        for t in 0..BATCHED_TRIALS {
            let mut solo = workload_engine_seeded("rgg-256", StepMode::Bitset, 7 + t as u64);
            solo.run_rounds(24);
            assert_eq!(
                batched.engines()[t].metrics(),
                solo.metrics(),
                "trial {t} diverged from its solo run"
            );
        }
    }
}
