//! One-call execution helpers: build an engine, run an algorithm, verify
//! the result.
//!
//! The experiment harness, examples and integration tests all follow the
//! same pattern — assemble a network, spawn one process per node, run the
//! fixed schedule, check the Section 3 conditions. These helpers package
//! that pattern with explicit, serializable results.
//!
//! Each algorithm's engine is assembled in one place: [`run_mis_budget`],
//! [`run_ccds_budget`], [`run_tau_ccds_budget`] and the async-MIS,
//! continuous and backbone runners. [`run_algo`] dispatches an
//! [`AlgoKind`] to them and copies the typed result into a [`RunRecord`];
//! [`run_algo_batch`] is a loop over [`run_algo`]. The 0-complete detector
//! under identity ids is read from the network
//! ([`DualGraph::zero_complete_detector`]), which builds it once and
//! shares it with every clone.

use crate::async_mis::{AsyncFilter, AsyncMis, AsyncMisParams};
use crate::backbone::run_backbone_flood;
use crate::ccds::{Ccds, CcdsConfig, ScheduleError};
use crate::checker::{check_ccds, check_mis, CcdsReport, MisReport};
use crate::continuous::ContinuousCcds;
use crate::mis::Mis;
use crate::params::MisParams;
use crate::tau::{TauCcds, TauConfig};
use radio_sim::{
    DualGraph, DynamicDetector, EngineBuilder, ExecutionMetrics, IdAssignment,
    LinkDetectorAssignment, NodeId, ProcessId, SpuriousSource, StopReason,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

pub use radio_sim::spec::AdversaryKind;

/// Result of one MIS execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MisRun {
    /// Final outputs by node.
    pub outputs: Vec<Option<bool>>,
    /// Verification of the Section 3 MIS conditions.
    pub report: MisReport,
    /// Round by which the last process decided (`None` if some never did).
    pub solve_round: Option<u64>,
    /// Rounds the engine executed.
    pub rounds_executed: u64,
    /// Channel counters.
    pub metrics: ExecutionMetrics,
}

/// Runs the Section 4 MIS on `net` with the network's 0-complete detector
/// and identity id assignment, then verifies it.
pub fn run_mis(net: &DualGraph, params: MisParams, adversary: AdversaryKind, seed: u64) -> MisRun {
    run_mis_budget(net, params, adversary, seed, params.total_rounds(net.n()))
}

/// [`run_mis`] with an explicit round budget (the scenario planner's stop
/// condition hook).
pub fn run_mis_budget(
    net: &DualGraph,
    params: MisParams,
    adversary: AdversaryKind,
    seed: u64,
    budget: u64,
) -> MisRun {
    let mut engine = EngineBuilder::new(net.clone())
        .seed(seed)
        .ids(IdAssignment::identity(net.n()))
        .detector(net.zero_complete_detector().clone())
        .adversary(adversary.build(seed ^ 0x5eed))
        .spawn(|info| Mis::new(info.n, info.id, params))
        .expect("engine assembly from a validated network cannot fail");
    engine.run(budget);
    let outputs = engine.outputs();
    MisRun {
        // A 0-complete detector's H is G itself.
        report: check_mis(net, net.g(), &outputs),
        solve_round: engine.all_decided_round(),
        rounds_executed: engine.round(),
        metrics: *engine.metrics(),
        outputs,
    }
}

/// Result of one CCDS execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CcdsRun {
    /// Final outputs by node.
    pub outputs: Vec<Option<bool>>,
    /// Verification of the Section 3 CCDS conditions.
    pub report: CcdsReport,
    /// Total schedule length for this configuration.
    pub schedule_total: u64,
    /// Round by which the last process decided (`None` if some never did).
    pub solve_round: Option<u64>,
    /// Rounds the engine executed.
    pub rounds_executed: u64,
    /// Channel counters.
    pub metrics: ExecutionMetrics,
    /// Maximum explorations initiated by any single MIS node (the
    /// banned-list efficiency statistic; the paper keeps this `O(1)`).
    pub max_explorations: u64,
    /// Number of MIS nodes in the final structure.
    pub mis_size: usize,
}

/// Runs the Section 5 CCDS on `net` with the network's 0-complete detector
/// and identity id assignment, then verifies it.
///
/// # Errors
///
/// Returns [`ScheduleError`] if `cfg.b` is too small for `cfg.n`.
pub fn run_ccds(
    net: &DualGraph,
    cfg: &CcdsConfig,
    adversary: AdversaryKind,
    seed: u64,
) -> Result<CcdsRun, ScheduleError> {
    run_ccds_budget(net, cfg, adversary, seed, None)
}

/// [`run_ccds`] with an optional cap on the schedule's round budget (the
/// scenario planner's stop condition hook).
///
/// # Errors
///
/// Returns [`ScheduleError`] if `cfg.b` is too small for `cfg.n`.
pub fn run_ccds_budget(
    net: &DualGraph,
    cfg: &CcdsConfig,
    adversary: AdversaryKind,
    seed: u64,
    max_rounds: Option<u64>,
) -> Result<CcdsRun, ScheduleError> {
    let schedule = cfg.schedule()?;
    let budget = max_rounds.map_or(schedule.total + 1, |m| (schedule.total + 1).min(m));
    let mut engine = EngineBuilder::new(net.clone())
        .seed(seed)
        .ids(IdAssignment::identity(net.n()))
        .detector(net.zero_complete_detector().clone())
        .adversary(adversary.build(seed ^ 0x5eed))
        .max_message_bits(cfg.b)
        .spawn(|info| Ccds::new(cfg, info.id).expect("config validated above"))
        .expect("engine assembly from a validated network cannot fail");
    engine.run(budget);
    let outputs = engine.outputs();
    let max_explorations = engine
        .procs()
        .iter()
        .filter(|p| p.mis().in_mis())
        .map(|p| p.counters().explorations)
        .max()
        .unwrap_or(0);
    let mis_size = engine.procs().iter().filter(|p| p.mis().in_mis()).count();
    Ok(CcdsRun {
        // A 0-complete detector's H is G itself.
        report: check_ccds(net, net.g(), &outputs),
        schedule_total: schedule.total,
        solve_round: engine.all_decided_round(),
        rounds_executed: engine.round(),
        metrics: *engine.metrics(),
        max_explorations,
        mis_size,
        outputs,
    })
}

/// Result of one τ-complete CCDS execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TauRun {
    /// Final outputs by node.
    pub outputs: Vec<Option<bool>>,
    /// Verification of the Section 3 CCDS conditions (against the τ-induced
    /// `H`).
    pub report: CcdsReport,
    /// Total schedule length for this configuration.
    pub schedule_total: u64,
    /// Round by which the last process decided (`None` if some never did).
    pub solve_round: Option<u64>,
    /// Rounds the engine executed.
    pub rounds_executed: u64,
    /// Channel counters.
    pub metrics: ExecutionMetrics,
    /// Number of winners (dominators) in the final structure.
    pub winners: usize,
}

/// Runs the Section 6 τ-complete CCDS on `net` with the given detector
/// assignment, then verifies it against the detector-induced `H`.
pub fn run_tau_ccds(
    net: &DualGraph,
    det: &LinkDetectorAssignment,
    cfg: &TauConfig,
    adversary: AdversaryKind,
    seed: u64,
) -> TauRun {
    run_tau_ccds_budget(net, det, cfg, adversary, seed, None)
}

/// [`run_tau_ccds`] with an optional cap on the schedule's round budget
/// (the scenario planner's stop condition hook).
pub fn run_tau_ccds_budget(
    net: &DualGraph,
    det: &LinkDetectorAssignment,
    cfg: &TauConfig,
    adversary: AdversaryKind,
    seed: u64,
    max_rounds: Option<u64>,
) -> TauRun {
    let schedule = cfg.schedule();
    let budget = max_rounds.map_or(schedule.total + 1, |m| (schedule.total + 1).min(m));
    let ids = IdAssignment::identity(net.n());
    let h = det.h_graph(&ids);
    let mut engine = EngineBuilder::new(net.clone())
        .seed(seed)
        .ids(ids)
        .detector(det.clone())
        .adversary(adversary.build(seed ^ 0x5eed))
        .spawn(|info| TauCcds::new(cfg, info.id))
        .expect("engine assembly from a validated network cannot fail");
    engine.run(budget);
    let outputs = engine.outputs();
    let winners = engine.procs().iter().filter(|p| p.is_winner()).count();
    TauRun {
        report: check_ccds(net, &h, &outputs),
        schedule_total: schedule.total,
        solve_round: engine.all_decided_round(),
        rounds_executed: engine.round(),
        metrics: *engine.metrics(),
        winners,
        outputs,
    }
}

/// A selectable algorithm (value-level mirror of the runners in this
/// module, so experiment configs can be plain data).
///
/// Every variant runs through [`run_algo`], the single entry point behind
/// the experiment harness's scenario planner: one network in, one
/// [`RunRecord`] out, whatever the algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlgoKind {
    /// The Section 4 MIS with default parameters and a 0-complete detector.
    Mis,
    /// The Section 5 CCDS at message bound `b` with a 0-complete detector.
    Ccds {
        /// Maximum message size in bits.
        b: u64,
    },
    /// The Section 6 τ-complete CCDS. The detector assignment is built
    /// from `run_algo`'s detector stream (see [`run_algo`]'s `det_rng`).
    TauCcds {
        /// Detector completeness parameter τ.
        tau: usize,
        /// Where spurious detector entries are drawn from.
        spurious: SpuriousSource,
    },
    /// The Section 9 asynchronous-start MIS with the staggered wake
    /// pattern of experiment E7. The message filter is chosen from the
    /// network: classic (`G = G'`) networks run filterless (no topology
    /// knowledge), dual graphs use the 0-complete detector filter.
    AsyncMis,
    /// The Section 8 continuous CCDS under a dynamic detector that starts
    /// sparse and stabilizes to 0-complete mid-execution (experiment E6);
    /// validity is checked `2·δ_CDS` after stabilization per Theorem 8.1.
    ContinuousDynamic {
        /// Maximum message size in bits for the underlying CCDS.
        b: u64,
    },
    /// The backbone-routing application (experiment E10): build a CCDS,
    /// then flood from node 0 with only backbone nodes forwarding
    /// (`everyone = false`) or the whole network forwarding (`true`).
    Backbone {
        /// Maximum message size in bits for the CCDS build.
        b: u64,
        /// Whether every node forwards (plain flooding baseline).
        everyone: bool,
        /// Seed of the flood phase (independent of the CCDS build seed).
        flood_seed: u64,
        /// Round budget of the flood phase.
        flood_budget: u64,
    },
}

impl AlgoKind {
    /// Short name for tables and records.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::Mis => "mis",
            AlgoKind::Ccds { .. } => "ccds",
            AlgoKind::TauCcds { .. } => "tau-ccds",
            AlgoKind::AsyncMis => "async-mis",
            AlgoKind::ContinuousDynamic { .. } => "continuous-dynamic",
            AlgoKind::Backbone { .. } => "backbone",
        }
    }
}

/// The common result of one algorithm execution, whatever the algorithm —
/// the serializable record the scenario planner aggregates.
///
/// Fields that only some algorithms produce are `Option`s; scalar
/// statistics with no common shape (game means, latency maxima, structure
/// sizes, …) live in `extras` as named values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Algorithm name (see [`AlgoKind::name`]).
    pub algo: String,
    /// Network size.
    pub n: usize,
    /// Maximum reliable degree `Δ` of the network.
    pub max_degree: usize,
    /// Whether the run's verification passed (per-algorithm criteria: the
    /// checker conditions for structures, coverage for floods, …).
    pub valid: bool,
    /// Round by which the run's goal was reached (`None` if never): last
    /// decision for structures, coverage for floods.
    pub solve_round: Option<u64>,
    /// Rounds the engine executed.
    pub rounds_executed: u64,
    /// Total schedule length, for fixed-schedule algorithms.
    pub schedule_total: Option<u64>,
    /// Channel counters, when an engine ran.
    pub metrics: Option<ExecutionMetrics>,
    /// Final outputs by node (empty when the run failed to start).
    pub outputs: Vec<Option<bool>>,
    /// Maximum explorations by any MIS node (CCDS banned-list statistic).
    pub max_explorations: Option<u64>,
    /// MIS nodes in the final structure (CCDS runs).
    pub mis_size: Option<usize>,
    /// Winners (dominators) in the final structure (τ-CCDS runs).
    pub winners: Option<usize>,
    /// Why the run could not execute (e.g. `b` below the schedule
    /// minimum); all other fields are defaults when set.
    pub error: Option<String>,
    /// Named scalar statistics with no common shape.
    pub extras: Vec<(String, f64)>,
}

impl RunRecord {
    /// An empty record for `algo` on a network of `n` nodes and maximum
    /// degree `delta`.
    fn new(algo: &AlgoKind, n: usize, delta: usize) -> Self {
        RunRecord::blank(algo.name(), n, delta)
    }

    /// An empty record for a workload outside this crate's [`AlgoKind`]
    /// dispatch (game sweeps, broadcast baselines, schedule probes).
    pub fn blank(algo: &str, n: usize, max_degree: usize) -> Self {
        RunRecord {
            algo: algo.to_string(),
            n,
            max_degree,
            valid: false,
            solve_round: None,
            rounds_executed: 0,
            schedule_total: None,
            metrics: None,
            outputs: Vec::new(),
            max_explorations: None,
            mis_size: None,
            winners: None,
            error: None,
            extras: Vec::new(),
        }
    }

    /// A record for a run that could not execute at all (e.g. the topology
    /// failed to build).
    pub fn failed(algo: &str, error: String) -> Self {
        let mut rec = RunRecord::blank(algo, 0, 0);
        rec.error = Some(error);
        rec
    }

    /// Whether the run reached its goal: a solve round exists and the run
    /// executed at all. Timed-out runs (`solve_round` = `None` with a
    /// nonzero `rounds_executed`) and failed builds (`error` set) are both
    /// unsolved — aggregations exclude them from solve-round statistics by
    /// default so a round cap is never mistaken for a measurement.
    pub fn solved(&self) -> bool {
        self.solve_round.is_some() && self.error.is_none()
    }

    /// Serializes the record as one line of JSONL — the streaming record
    /// format (`radio-lab --records PATH.jsonl` writes one record per
    /// line, in unit order). The output contains no raw newlines, so a
    /// line-oriented reader can [`RunRecord::from_jsonl`] each line back
    /// independently; the round-trip is lossless.
    pub fn to_jsonl(&self) -> String {
        // The compact encoder never emits newlines (strings escape them),
        // so one record is exactly one line.
        serde_json::to_string(self)
            .expect("records serialize: no non-finite extras by construction")
    }

    /// Parses one JSONL line back into the record.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for a malformed or
    /// wrong-shaped line.
    pub fn from_jsonl(line: &str) -> Result<RunRecord, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// Looks up a named extra statistic.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extras.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Appends a named extra statistic. Non-finite values are dropped
    /// (JSON cannot represent them); readers treat a missing key as NaN.
    pub fn push_extra(&mut self, key: &str, value: f64) {
        if value.is_finite() {
            self.extras.push((key.to_string(), value));
        }
    }
}

/// Runs any [`AlgoKind`] on `net` and verifies the result — the single
/// entry point the scenario planner drives.
///
/// `seed` seeds the engine (and, XOR-masked, the adversary), exactly as the
/// per-algorithm runners do. `det_rng` is the detector randomness stream
/// for τ-complete detector construction: passing the generator that built
/// the topology reproduces the experiments whose detector draws continue
/// the topology stream (E4), passing a fresh one keeps them independent
/// (E11). `max_rounds`, when set, caps the algorithm's intrinsic round
/// budget.
///
/// The MIS, CCDS and τ-CCDS arms run [`run_mis_budget`],
/// [`run_ccds_budget`] and [`run_tau_ccds_budget`] and copy their typed
/// results into the record. Every 0-complete detector is the one
/// [`DualGraph::zero_complete_detector`] caches on the network, so trials
/// on one shared network build it once.
pub fn run_algo(
    net: &DualGraph,
    algo: &AlgoKind,
    adversary: AdversaryKind,
    seed: u64,
    det_rng: &mut StdRng,
    max_rounds: Option<u64>,
) -> RunRecord {
    let cap = |budget: u64| max_rounds.map_or(budget, |m| budget.min(m));
    let n = net.n();
    let delta = net.max_degree_g();
    let mut rec = RunRecord::new(algo, n, delta);
    match *algo {
        AlgoKind::Mis => {
            let params = MisParams::default();
            let run = run_mis_budget(net, params, adversary, seed, cap(params.total_rounds(n)));
            rec.valid = run.report.is_valid();
            rec.solve_round = run.solve_round;
            rec.rounds_executed = run.rounds_executed;
            rec.metrics = Some(run.metrics);
            rec.outputs = run.outputs;
            // The parameter budget, for aggregated tables (E1's "budget"
            // column reads it as an extra).
            rec.push_extra("budget", params.total_rounds(n) as f64);
        }
        AlgoKind::Ccds { b } => {
            let cfg = CcdsConfig::new(n, delta, b);
            match run_ccds_budget(net, &cfg, adversary, seed, max_rounds) {
                Ok(run) => {
                    let report = &run.report;
                    rec.valid = report.terminated && report.connected && report.dominating;
                    rec.solve_round = run.solve_round;
                    rec.rounds_executed = run.rounds_executed;
                    rec.schedule_total = Some(run.schedule_total);
                    rec.metrics = Some(run.metrics);
                    rec.max_explorations = Some(run.max_explorations);
                    rec.mis_size = Some(run.mis_size);
                    rec.push_extra(
                        "max_gprime_neighbors",
                        report.max_gprime_neighbors_in_set as f64,
                    );
                    rec.outputs = run.outputs;
                }
                Err(e) => rec.error = Some(e.to_string()),
            }
        }
        AlgoKind::TauCcds { tau, spurious } => {
            let cfg = TauConfig::new(n, delta + tau, tau);
            // The trial's detector comes from its own stream, drawn before
            // its engine spawns.
            let ids = IdAssignment::identity(n);
            let det = LinkDetectorAssignment::tau_complete(net, &ids, tau, spurious, det_rng);
            let run = run_tau_ccds_budget(net, &det, &cfg, adversary, seed, max_rounds);
            let report = &run.report;
            rec.valid = report.terminated && report.connected && report.dominating;
            rec.solve_round = run.solve_round;
            rec.rounds_executed = run.rounds_executed;
            rec.schedule_total = Some(run.schedule_total);
            rec.metrics = Some(run.metrics);
            rec.winners = Some(run.winners);
            rec.push_extra(
                "max_gprime_neighbors",
                report.max_gprime_neighbors_in_set as f64,
            );
            rec.outputs = run.outputs;
        }
        AlgoKind::AsyncMis => run_async_mis(net, adversary, seed, max_rounds, &mut rec),
        AlgoKind::ContinuousDynamic { b } => {
            run_continuous_dynamic(net, adversary, seed, b, max_rounds, &mut rec);
        }
        AlgoKind::Backbone {
            b,
            everyone,
            flood_seed,
            flood_budget,
        } => {
            let mut recs = run_backbone_modes(
                net,
                adversary,
                seed,
                b,
                &[everyone],
                flood_seed,
                cap(flood_budget),
                max_rounds,
            );
            return recs.pop().expect("one mode requested");
        }
    }
    rec
}

/// Runs `algo` once per entry of `seeds` on the **same** network: one
/// [`run_algo`] call per trial, in trial order, so every record is the one
/// that call returns. Trials share `net`'s frozen state, including its
/// cached 0-complete detector, and hold one engine at a time.
///
/// `det_rngs` supplies one detector stream per trial (same contract as
/// [`run_algo`]'s `det_rng`); streams are consumed in trial order.
///
/// # Panics
///
/// Panics if `seeds` and `det_rngs` have different lengths.
pub fn run_algo_batch(
    net: &DualGraph,
    algo: &AlgoKind,
    adversary: AdversaryKind,
    seeds: &[u64],
    det_rngs: &mut [StdRng],
    max_rounds: Option<u64>,
) -> Vec<RunRecord> {
    assert_eq!(seeds.len(), det_rngs.len(), "one detector stream per trial");
    seeds
        .iter()
        .zip(det_rngs.iter_mut())
        .map(|(&seed, det_rng)| run_algo(net, algo, adversary, seed, det_rng, max_rounds))
        .collect()
}

/// The Section 9 asynchronous-start MIS with E7's staggered wake pattern.
/// Classic networks run filterless, dual graphs use the 0-complete
/// detector filter; validity needs every process to output and the MIS
/// to hold in `G`.
fn run_async_mis(
    net: &DualGraph,
    adversary: AdversaryKind,
    seed: u64,
    max_rounds: Option<u64>,
    rec: &mut RunRecord,
) {
    let n = net.n();
    let filter = if net.is_classic() {
        AsyncFilter::AcceptAll
    } else {
        AsyncFilter::Detector
    };
    let params = AsyncMisParams::default();
    let epoch = params.epoch_len(n);
    let wakes: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % 8) * (epoch / 2)).collect();
    let budget = 8 * epoch / 2 + 60 * epoch;
    let mut engine = EngineBuilder::new(net.clone())
        .seed(seed)
        .ids(IdAssignment::identity(n))
        .detector(net.zero_complete_detector().clone())
        .wake_rounds(wakes)
        .adversary(adversary.build(seed ^ 0x5eed))
        .spawn(|info| AsyncMis::new(info.n, info.id, params, filter))
        .expect("engine assembly from a validated network cannot fail");
    let out = engine.run(max_rounds.map_or(budget, |m| budget.min(m)));
    let outputs = engine.outputs();
    let max_latency = (0..n)
        .filter_map(|v| engine.decided_latency(NodeId(v)))
        .max()
        .unwrap_or(0);
    // `AllDone` means every process output; the MIS is checked against G,
    // the 0-complete detector's H.
    rec.valid = out.stop == StopReason::AllDone && check_mis(net, net.g(), &outputs).is_valid();
    rec.solve_round = engine.all_decided_round();
    rec.rounds_executed = engine.round();
    rec.metrics = Some(*engine.metrics());
    rec.push_extra("max_latency", max_latency as f64);
    rec.push_extra("classic", f64::from(u8::from(net.is_classic())));
    rec.outputs = outputs;
}

/// The Section 8 continuous CCDS with a detector that starts sparse and
/// stabilizes to 0-complete at `δ_CDS / 2`; validity is checked at
/// stabilization + `2·δ_CDS` per Theorem 8.1.
fn run_continuous_dynamic(
    net: &DualGraph,
    adversary: AdversaryKind,
    seed: u64,
    b: u64,
    max_rounds: Option<u64>,
    rec: &mut RunRecord,
) {
    let n = net.n();
    let good = net.zero_complete_detector().clone();
    // The pre-stabilization detector: drop one entry from every set past
    // the first two, leaving it incomplete but well-formed.
    let sparse = {
        let mut sets: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|v| good.set(NodeId(v)).iter().copied().collect())
            .collect();
        for set in sets.iter_mut().skip(2) {
            if let Some(&first) = set.iter().next() {
                set.remove(&first);
            }
        }
        LinkDetectorAssignment::from_sets(sets)
    };
    let cfg = CcdsConfig::new(n, net.max_degree_g(), b);
    let probe = match ContinuousCcds::new(&cfg, ProcessId::new(1).expect("valid id")) {
        Ok(p) => p,
        Err(e) => {
            rec.error = Some(e.to_string());
            return;
        }
    };
    let delta = probe.cycle_len();
    let stabilize_at = (delta / 2).max(2);
    let dyn_det = DynamicDetector::new(vec![(1, sparse), (stabilize_at, good)])
        .expect("stabilization schedule is strictly increasing");
    let mut engine = EngineBuilder::new(net.clone())
        .seed(seed)
        .detector(dyn_det)
        .adversary(adversary.build(seed ^ 0x5eed))
        .spawn(|info| ContinuousCcds::new(&cfg, info.id).expect("config validated above"))
        .expect("engine assembly from a validated network cannot fail");
    let deadline = stabilize_at + 2 * delta;
    let total = max_rounds.map_or(deadline + 1, |m| (deadline + 1).min(m));
    engine.run_rounds(total);
    let outputs = engine.outputs();
    // The stabilized detector is 0-complete, so its H is G itself.
    let report = check_ccds(net, net.g(), &outputs);
    rec.valid = report.terminated && report.connected && report.dominating;
    rec.rounds_executed = engine.round();
    rec.metrics = Some(*engine.metrics());
    rec.push_extra("stabilize_round", stabilize_at as f64);
    rec.push_extra("delta_cds", delta as f64);
    rec.push_extra("checked_at", total as f64);
    rec.outputs = outputs;
}

/// The E10 backbone application: build a CCDS **once** (seeded by
/// `seed`), then run one flood per entry of `modes` (`false` = only
/// backbone nodes forward, `true` = everyone floods), returning one record
/// per mode in order.
///
/// Sharing the CCDS build across modes is what makes the backbone /
/// flood-all comparison cheap: the structure construction dominates the
/// flood by orders of magnitude.
#[allow(clippy::too_many_arguments)] // flat knobs of a leaf runner
pub fn run_backbone_modes(
    net: &DualGraph,
    adversary: AdversaryKind,
    seed: u64,
    b: u64,
    modes: &[bool],
    flood_seed: u64,
    flood_budget: u64,
    max_rounds: Option<u64>,
) -> Vec<RunRecord> {
    let n = net.n();
    let delta = net.max_degree_g();
    let mode_name = |everyone: bool| if everyone { "flood-all" } else { "backbone" };
    let cfg = CcdsConfig::new(n, delta, b);
    let run = match run_ccds_budget(net, &cfg, adversary, seed, max_rounds) {
        Ok(run) => run,
        Err(e) => {
            return modes
                .iter()
                .map(|&everyone| RunRecord::failed(mode_name(everyone), e.to_string()))
                .collect();
        }
    };
    let ccds: Vec<bool> = run.outputs.iter().map(|o| *o == Some(true)).collect();
    let backbone_size = ccds.iter().filter(|&&c| c).count();
    modes
        .iter()
        .map(|&everyone| {
            let mut rec = RunRecord::blank(mode_name(everyone), n, delta);
            let flags = if everyone {
                vec![true; n]
            } else {
                ccds.clone()
            };
            let stats = run_backbone_flood(net, &flags, 0, adversary, flood_seed, flood_budget);
            rec.valid = stats.coverage_round.is_some();
            rec.solve_round = stats.coverage_round;
            rec.rounds_executed = stats.coverage_round.unwrap_or(flood_budget);
            rec.push_extra("backbone_size", backbone_size as f64);
            rec.push_extra("broadcasts", stats.broadcasts as f64);
            rec.push_extra("transmitters", stats.transmitters as f64);
            rec.outputs = run.outputs.clone();
            rec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::topology::{random_geometric, RandomGeometricConfig};
    use radio_sim::{Graph, SpuriousSource};
    use rand::SeedableRng;

    #[test]
    fn mis_runner_verifies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let net = random_geometric(&RandomGeometricConfig::dense(40), &mut rng).unwrap();
        let run = run_mis(
            &net,
            MisParams::default(),
            AdversaryKind::Random { p: 0.5 },
            7,
        );
        assert!(run.report.is_valid(), "{:?}", run.report);
        assert!(run.solve_round.is_some());
        assert!(run.solve_round.unwrap() <= run.rounds_executed);
    }

    #[test]
    fn ccds_runner_verifies() {
        let g = Graph::from_edges(9, (0..8).map(|i| (i, i + 1))).unwrap();
        let net = radio_sim::DualGraph::classic(g).unwrap();
        let cfg = CcdsConfig::new(9, net.max_degree_g(), 256);
        let run = run_ccds(&net, &cfg, AdversaryKind::ReliableOnly, 3).unwrap();
        assert!(run.report.terminated && run.report.connected && run.report.dominating);
        assert_eq!(run.metrics.oversize_messages, 0);
        assert!(run.mis_size >= 1);
    }

    #[test]
    fn tau_runner_verifies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net = random_geometric(&RandomGeometricConfig::dense(24), &mut rng).unwrap();
        let ids = IdAssignment::identity(net.n());
        let det = LinkDetectorAssignment::tau_complete(
            &net,
            &ids,
            1,
            SpuriousSource::UnreliableNeighbors,
            &mut rng,
        );
        let cfg = TauConfig::new(net.n(), net.max_degree_g() + 1, 1);
        let run = run_tau_ccds(&net, &det, &cfg, AdversaryKind::Random { p: 0.3 }, 11);
        assert!(run.report.terminated && run.report.connected && run.report.dominating);
        assert!(run.winners >= 1);
    }

    #[test]
    fn run_algo_covers_every_kind() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let net = random_geometric(&RandomGeometricConfig::dense(24), &mut rng).unwrap();
        let path = radio_sim::DualGraph::classic(
            Graph::from_edges(8, (0..7).map(|i| (i, i + 1))).unwrap(),
        )
        .unwrap();
        let kinds = [
            (AlgoKind::Mis, &net),
            (AlgoKind::Ccds { b: 256 }, &net),
            (
                AlgoKind::TauCcds {
                    tau: 1,
                    spurious: SpuriousSource::UnreliableNeighbors,
                },
                &net,
            ),
            (AlgoKind::AsyncMis, &net),
            (AlgoKind::ContinuousDynamic { b: 256 }, &path),
            (
                AlgoKind::Backbone {
                    b: 256,
                    everyone: false,
                    flood_seed: 11,
                    flood_budget: 100_000,
                },
                &net,
            ),
        ];
        for (algo, net) in kinds {
            let mut det_rng = rand::rngs::StdRng::seed_from_u64(5);
            let rec = run_algo(
                net,
                &algo,
                AdversaryKind::Random { p: 0.5 },
                7,
                &mut det_rng,
                None,
            );
            assert!(rec.error.is_none(), "{algo:?}: {:?}", rec.error);
            assert!(rec.valid, "{algo:?} must verify");
            assert_eq!(rec.algo, algo.name());
            assert_eq!(rec.n, net.n());
            // The record round-trips through the vendored serde.
            let json = serde_json::to_string(&rec).expect("record serializes");
            let back: RunRecord = serde_json::from_str(&json).expect("record parses");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn run_algo_batch_matches_per_trial_runs() {
        // Dense clique (row kernel) and a sparse path (scatter kernel): a
        // 3-trial batch shares the network's cached detector across its
        // trials, and must still reproduce the per-trial `run_algo`
        // records and detector streams exactly.
        use rand::RngCore;
        let clique = radio_sim::DualGraph::classic(Graph::complete(32)).unwrap();
        let path = radio_sim::DualGraph::classic(
            Graph::from_edges(24, (0..23).map(|i| (i, i + 1))).unwrap(),
        )
        .unwrap();
        let seeds = [7u64, 8, 9];
        let algos = [
            AlgoKind::Mis,
            AlgoKind::Ccds { b: 256 },
            AlgoKind::TauCcds {
                tau: 1,
                spurious: SpuriousSource::UnreliableNeighbors,
            },
            AlgoKind::AsyncMis,
            AlgoKind::ContinuousDynamic { b: 256 },
        ];
        for net in [&clique, &path] {
            for algo in &algos {
                let mut batch_rngs: Vec<StdRng> = seeds
                    .iter()
                    .map(|&s| StdRng::seed_from_u64(s * 31))
                    .collect();
                let batch = run_algo_batch(
                    net,
                    algo,
                    AdversaryKind::Random { p: 0.5 },
                    &seeds,
                    &mut batch_rngs,
                    Some(600),
                );
                assert_eq!(batch.len(), seeds.len());
                for (i, &seed) in seeds.iter().enumerate() {
                    let mut det_rng = StdRng::seed_from_u64(seed * 31);
                    let solo = run_algo(
                        net,
                        algo,
                        AdversaryKind::Random { p: 0.5 },
                        seed,
                        &mut det_rng,
                        Some(600),
                    );
                    assert_eq!(batch[i], solo, "{algo:?} trial {i} (n = {})", net.n());
                    // The detector stream must have advanced identically.
                    assert_eq!(
                        batch_rngs[i].next_u64(),
                        det_rng.next_u64(),
                        "{algo:?} trial {i} detector stream"
                    );
                }
            }
        }
    }

    #[test]
    fn jsonl_survives_non_finite_extras_and_round_trips() {
        // `push_extra` is the only sanctioned way statistics reach
        // `extras`, and it drops non-finite values — that guard is what
        // makes `to_jsonl`'s "cannot fail" expectation true even for
        // degenerate sweeps (e.g. a two-clique row with zero solved
        // trials reports mean_solve = NaN, which must vanish rather than
        // poison the record log).
        let mut rec = RunRecord::blank("two-clique", 8, 4);
        rec.push_extra("beta", 4.0);
        rec.push_extra("mean_solve", f64::NAN);
        rec.push_extra("mean_bridge", f64::INFINITY);
        assert_eq!(rec.extra("beta"), Some(4.0));
        assert_eq!(rec.extra("mean_solve"), None, "NaN extras are dropped");
        let line = rec.to_jsonl();
        assert!(!line.contains('\n'), "one record = one line");
        let back = RunRecord::from_jsonl(&line).expect("line parses");
        assert_eq!(back, rec);
        assert!(!back.solved(), "no solve round and no error ⇒ unsolved");
    }

    #[test]
    fn run_algo_reports_schedule_errors() {
        let g = Graph::from_edges(9, (0..8).map(|i| (i, i + 1))).unwrap();
        let net = radio_sim::DualGraph::classic(g).unwrap();
        let mut det_rng = rand::rngs::StdRng::seed_from_u64(5);
        let rec = run_algo(
            &net,
            &AlgoKind::Ccds { b: 1 },
            AdversaryKind::ReliableOnly,
            3,
            &mut det_rng,
            None,
        );
        assert!(rec.error.is_some());
        assert!(!rec.valid);
    }

    #[test]
    fn budget_cap_truncates_runs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let net = random_geometric(&RandomGeometricConfig::dense(24), &mut rng).unwrap();
        let mut det_rng = rand::rngs::StdRng::seed_from_u64(5);
        let rec = run_algo(
            &net,
            &AlgoKind::Mis,
            AdversaryKind::Random { p: 0.5 },
            7,
            &mut det_rng,
            Some(3),
        );
        assert_eq!(rec.rounds_executed, 3);
    }

    #[test]
    fn adversary_kinds_build() {
        for kind in [
            AdversaryKind::ReliableOnly,
            AdversaryKind::AllUnreliable,
            AdversaryKind::Random { p: 0.5 },
            AdversaryKind::Collider,
            AdversaryKind::Bursty {
                p_gb: 0.1,
                p_bg: 0.1,
            },
            AdversaryKind::CliqueIsolator,
        ] {
            let a = kind.build(1);
            assert!(!a.name().is_empty());
            assert_eq!(a.name(), kind.name());
        }
    }
}
