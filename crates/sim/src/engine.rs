//! The synchronous execution engine for dual graph radio networks.
//!
//! Each round the engine: (1) asks every awake process for an action; (2)
//! lets the adversary pick the round's reach set (all of `E` plus chosen
//! unreliable edges); (3) applies the model's delivery rule — a listener
//! receives a message iff *exactly one* reachable neighbor broadcast,
//! otherwise it observes `⊥` (there is no collision detection); broadcasters
//! receive only their own message. Processes that start asynchronously
//! (Section 9) are simply not scheduled before their wake round.
//!
//! Executions are deterministic given the engine seed: every process gets a
//! private RNG derived from it, and adversaries carry their own seeds.
//!
//! # Performance architecture
//!
//! Stepping is the hot path of every experiment, and it comes in **four
//! tiers**, each differentially pinned to the one below it by golden-trace
//! tests (identical traces, transcripts, metrics, and outputs for the same
//! seed):
//!
//! 1. [`Engine::step_legacy`] — the seed implementation, kept verbatim.
//!    Allocates per-round buffers and scans every listener's full
//!    neighborhood; the reference everything else is measured and tested
//!    against.
//! 2. [`Engine::step`] — the scalar scratch tier. **Steady-state zero heap
//!    allocation**: every per-round buffer lives in [`RoundScratch`],
//!    sized once at spawn and overwritten (never freed) each round.
//!    Delivery is *broadcaster-centric*: each broadcaster scatters into
//!    epoch-stamped reach counters over the frozen CSR adjacency
//!    ([`crate::CsrGraph`]), costing `O(Σ deg(broadcasters))` — on sparse
//!    broadcast schedules (MIS-style contention reduction) far below the
//!    seed's `O(Σ deg(listeners))` scan.
//! 3. [`Engine::step_bitset`] — the word-packed tier. Delivery ORs each
//!    broadcaster's bitmask row ([`crate::BitRows`], `⌈n/64⌉` words per
//!    node) into carry-save seen/collide accumulators
//!    (`collide |= seen & row; seen |= row`), then overlays the
//!    adversary's activated unreliable edges bit by bit — `O(B·⌈n/64⌉)`
//!    word operations per round, a ~64× narrower inner loop than the
//!    scalar scatter on dense graphs.
//! 4. [`Engine::step_batched`] / [`BatchedEngine`] — the multi-trial
//!    tier. A [`BatchedEngine`] steps `B` independent trials of the same
//!    topology one round at a time over **struct-of-arrays** reach state:
//!    each trial's seen/collide planes are contiguous `⌈n/64⌉`-word
//!    stripes in one flat buffer, and delivery runs node-major — every
//!    node broadcasting in at least one trial has its bitmask row fetched
//!    **once** and carry-saved into every broadcasting trial's plane
//!    while the row is hot in cache, amortizing row traffic across the
//!    batch the way an inference stack amortizes weight fetches. The
//!    decide/receive phases stay strictly per-trial (each trial's private
//!    RNG streams are drawn in exactly the order `step_bitset` draws
//!    them), so every trial's trace, transcript, metrics, and outputs are
//!    bit-identical to its solo run. [`Engine::step_batched`] is the
//!    tier's batch-of-one face: the same phase helpers over a single
//!    plane pair.
//!
//! **One adversary phase.** The three production tiers share phase 2
//! (`Engine::adversary_phase`). Only an activated edge with exactly one
//! broadcasting endpoint can change a reception, so the helper first
//! drops every other pair of the proposal (out of range, self-loops,
//! both or neither endpoint broadcasting), then normalizes, sorts,
//! dedupes and validates the short remainder against `E' \ E` with an
//! `O(1)`-amortized [`crate::NeighborStamps`] row test. A round with a
//! few broadcasters thus validates a few dozen pairs, not the hundreds a
//! random adversary proposes. Only a tracing engine validates the whole
//! proposal first, because its trace records how many distinct valid
//! edges the adversary proposed (`RoundRecord::extra_edges`, counted the
//! way `step_legacy` counts them). The delivery phases then add each
//! remaining edge at its listening endpoint with no further checks.
//!
//! **Tier selection.** The run loops ([`Engine::run`] and friends) pick
//! between the scalar and bitset tiers once at spawn via
//! [`EngineBuilder::step_mode`]. The default, [`StepMode::Auto`], chooses
//! bitset when the reliable layer's average degree exceeds three row
//! widths (`edge_slots ≥ 3·n·⌈n/64⌉` — the break-even point of the
//! three row passes a bitset round makes against the scalar scatter,
//! computed with checked arithmetic so a pathological `n` can never wrap
//! the product and mis-select a tier) and `n` is small enough that the
//! rows' `n·⌈n/64⌉` words stay cache-friendly (`n ≤ 16384`); otherwise
//! the scalar tier runs. Dense workloads (cliques, dense RGGs) land on
//! bitset, sparse ones (paths, bounded degree) on scalar. `step_legacy`
//! is never auto-selected — it exists as the differential reference and
//! benchmark baseline.
//!
//! `Auto` never resolves a *single* engine to the batched tier: batching
//! is a property of a trial set, not of one engine, so the batch-level
//! selection lives in [`BatchedEngine::run_all`] — handed a run of ≥ 2
//! same-topology trials whose engines resolved to the bitset tier (dense
//! nets), it steps them through one [`BatchedEngine`]; anything else
//! falls back to per-trial solo runs. `run_trials_batched`-style sweep
//! harnesses route each cell's trials through it, cut into one span per
//! worker, so registry sweeps and user specs benefit with zero spec
//! changes.
//!
//! **Shared frozen topology.** Per-topology state is immutable and
//! shared, never copied per engine: a [`DualGraph`] clone is a handle on
//! one frozen network (layers, CSR forms, unreliable list, bitmask rows),
//! a [`LinkDetectorAssignment`] clone shares its frozen sets (flat sorted
//! ids plus, on dense assignments, membership bitmask rows), an engine
//! over a static detector keeps a handle on those sets, and a
//! [`BatchedEngine`] reads rows through a network handle. Spawning a
//! trial's engine therefore allocates only its own per-node state. Each
//! [`Context`] carries its node's set as a [`DetectorSet`] view, which
//! costs `O(1)` to make, so the decide and receive phases pay for the
//! detector only when a process tests membership — one word load on a
//! dense assignment.
//!
//! The scratch invariants:
//!
//! * `msgs`, `broadcasting`, `reach_*` are exactly `n` long from spawn and
//!   are overwritten (not reallocated) every round;
//! * `extra` holds the adversary's proposal, filtered in place by phase 2;
//!   its capacity high-water-marks after the first few rounds, after
//!   which `clear()` frees nothing;
//! * `reach_stamp` equality with the current round epoch marks a listener
//!   as reached this round — stale entries are never cleared, just
//!   outdated, so no `O(n)` zeroing happens between rounds. The epoch
//!   advances **every round**, including broadcaster-less ones, where
//!   stale reach state from earlier rounds must not deliver;
//! * the bitset tier's `bit_seen`/`bit_collide` words are `⌈n/64⌉` long
//!   and cleared (not reallocated) every round — the same
//!   every-round-including-empty rule, enforced by a regression test that
//!   alternates empty and dense broadcast rounds.
//!
//! `BENCH_engine.json` tracks every tier's relative throughput
//! PR-over-PR.

use crate::adversary::{Adversary, ReliableOnly};
use crate::detector::{DetectorSet, LinkDetectorAssignment};
use crate::dynamic::DetectorProvider;
use crate::graph::NeighborStamps;
use crate::ids::{IdAssignment, NodeId, ProcessId};
use crate::network::DualGraph;
use crate::process::{Action, Context, MessageSize, Process, ProcessRng};
use crate::trace::{ExecutionMetrics, RoundRecord, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors from assembling an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The id assignment covers a different number of nodes than the network.
    IdSizeMismatch {
        /// Nodes in the network.
        n: usize,
        /// Nodes covered by the assignment.
        ids: usize,
    },
    /// The detector provider covers a different number of nodes.
    DetectorSizeMismatch {
        /// Nodes in the network.
        n: usize,
        /// Nodes covered by the provider.
        detector: usize,
    },
    /// The wake-round vector has the wrong length or contains round 0.
    BadWakeRounds,
    /// A pinned [`StepMode::Bitset`] or [`StepMode::Batched`] engine would
    /// need more than 1 GiB of bitmask rows.
    BitRowsTooLarge {
        /// Nodes in the network.
        n: usize,
        /// Bytes the rows would take (`usize::MAX` if the size overflows).
        bytes: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::IdSizeMismatch { n, ids } => {
                write!(f, "id assignment covers {ids} nodes, network has {n}")
            }
            EngineError::DetectorSizeMismatch { n, detector } => {
                write!(f, "detector covers {detector} nodes, network has {n}")
            }
            EngineError::BadWakeRounds => {
                write!(f, "wake rounds must have one entry >= 1 per node")
            }
            EngineError::BitRowsTooLarge { n, bytes } => write!(
                f,
                "bitmask rows for {n} nodes need {bytes} bytes, over the \
                 {MAX_BIT_ROWS_BYTES}-byte cap of the bit-row tiers"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Which delivery tier the run loops step through (see the module docs'
/// *Performance architecture*). `step_legacy` is not selectable — it is
/// the differential reference, not a production tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Resolve to [`StepMode::Scalar`] or [`StepMode::Bitset`] at spawn by
    /// the density rule in the module docs.
    #[default]
    Auto,
    /// Always step through the scalar scratch tier ([`Engine::step`]).
    Scalar,
    /// Always step through the word-packed tier ([`Engine::step_bitset`]).
    Bitset,
    /// Always step through the batched tier's single-trial path
    /// ([`Engine::step_batched`]). Multi-trial batching itself lives in
    /// [`BatchedEngine`]; [`StepMode::Auto`] never resolves a lone engine
    /// here — the batch-level selection happens in
    /// [`BatchedEngine::run_all`].
    Batched,
}

/// Largest `n` at which [`StepMode::Auto`] may pick the bitset tier: the
/// bitmask rows cost `n·⌈n/64⌉` words (32 MiB at this cap), past which
/// the CSR scatter's cache behavior wins and the million-node direction
/// wants implicit topologies anyway.
const MAX_AUTO_BITSET_N: usize = 16_384;

/// Largest bitmask-row footprint (1 GiB) a pinned [`StepMode::Bitset`] or
/// [`StepMode::Batched`] engine may allocate; larger networks fail to
/// spawn with [`EngineError::BitRowsTooLarge`] instead of exhausting
/// memory. `Auto` never comes near it (its bitset cap is 32 MiB of rows).
const MAX_BIT_ROWS_BYTES: usize = 1 << 30;

/// Bytes of the `n·⌈n/64⌉`-word bitmask rows, computed with checked
/// arithmetic; an overflow saturates to `usize::MAX` (over any cap).
fn bit_rows_bytes(n: usize) -> usize {
    n.checked_mul(n.div_ceil(64))
        .and_then(|words| words.checked_mul(8))
        .unwrap_or(usize::MAX)
}

/// The bitset tier's break-even edge-slot threshold, `3·n·⌈n/64⌉`, or
/// `None` when the product would overflow `usize`. An overflowing
/// threshold is unreachably large — no graph can have that many edge
/// slots — so callers must treat `None` as "not dense" rather than let a
/// wrapped product mis-select the tier for a pathological `n`.
fn bitset_break_even(n: usize) -> Option<usize> {
    n.div_ceil(64).checked_mul(n)?.checked_mul(3)
}

/// The density rule behind [`StepMode::Auto`]: a bitset round makes three
/// row passes of `⌈n/64⌉` words per broadcaster, so it pays off once the
/// average reliable degree exceeds three row widths.
fn auto_step_mode(net: &DualGraph) -> StepMode {
    let n = net.n();
    let dense = n > 0
        && n <= MAX_AUTO_BITSET_N
        && bitset_break_even(n).is_some_and(|t| net.g_csr().edge_slots() >= t);
    if dense {
        StepMode::Bitset
    } else {
        StepMode::Scalar
    }
}

/// Why a run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every process reported [`Process::is_done`].
    AllDone,
    /// The caller's predicate returned true.
    Predicate,
    /// The round budget was exhausted first.
    MaxRounds,
}

/// Result of a run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total rounds executed so far (cumulative across run calls).
    pub rounds: u64,
    /// Why the loop stopped.
    pub stop: StopReason,
}

/// Everything a process factory gets to see when instantiating a process.
#[derive(Debug)]
pub struct SpawnInfo<'a> {
    /// The node the process is assigned to.
    pub node: NodeId,
    /// The process's unique id.
    pub id: ProcessId,
    /// Network size `n`.
    pub n: usize,
    /// The process's link detector output at its wake round.
    pub detector: DetectorSet<'a>,
    /// The round the process wakes (1 = synchronous start).
    pub wake_round: u64,
}

/// Builder for [`Engine`]; start with [`EngineBuilder::new`].
pub struct EngineBuilder {
    net: DualGraph,
    ids: Option<IdAssignment>,
    adversary: Box<dyn Adversary>,
    detectors: Option<Box<dyn DetectorProvider>>,
    wake_rounds: Option<Vec<u64>>,
    seed: u64,
    max_message_bits: Option<u64>,
    record_trace: bool,
    step_mode: StepMode,
}

impl EngineBuilder {
    /// Starts building an engine for `net`.
    pub fn new(net: DualGraph) -> Self {
        EngineBuilder {
            net,
            ids: None,
            adversary: Box::new(ReliableOnly),
            detectors: None,
            wake_rounds: None,
            seed: 0,
            max_message_bits: None,
            record_trace: false,
            step_mode: StepMode::Auto,
        }
    }

    /// Sets the process-to-node assignment (default: identity).
    pub fn ids(mut self, ids: IdAssignment) -> Self {
        self.ids = Some(ids);
        self
    }

    /// Sets the reach-set adversary (default: [`ReliableOnly`]).
    pub fn adversary(mut self, a: impl Adversary + 'static) -> Self {
        self.adversary = Box::new(a);
        self
    }

    /// Sets the link detector provider (default: the 0-complete detector for
    /// the network and id assignment).
    pub fn detector(mut self, d: impl DetectorProvider + 'static) -> Self {
        self.detectors = Some(Box::new(d));
        self
    }

    /// Sets per-node wake rounds (default: every node wakes at round 1).
    pub fn wake_rounds(mut self, w: Vec<u64>) -> Self {
        self.wake_rounds = Some(w);
        self
    }

    /// Sets the master seed for process randomness (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enforces a message-size bound `b` in bits; oversize broadcasts are
    /// counted in [`ExecutionMetrics::oversize_messages`].
    pub fn max_message_bits(mut self, b: u64) -> Self {
        self.max_message_bits = Some(b);
        self
    }

    /// Enables per-round trace recording (default: off).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Sets which delivery tier the run loops step through (default:
    /// [`StepMode::Auto`] — resolved by density at spawn). All tiers
    /// produce identical executions; this only selects the implementation.
    pub fn step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Instantiates one process per node via `factory` and assembles the
    /// engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the id assignment, detector provider, or
    /// wake-round vector does not match the network size, or when a pinned
    /// bit-row tier's rows would exceed 1 GiB.
    pub fn spawn<P, F>(self, mut factory: F) -> Result<Engine<P>, EngineError>
    where
        P: Process,
        F: FnMut(SpawnInfo<'_>) -> P,
    {
        let n = self.net.n();
        let ids = self.ids.unwrap_or_else(|| IdAssignment::identity(n));
        if ids.n() != n {
            return Err(EngineError::IdSizeMismatch { n, ids: ids.n() });
        }
        let detectors: Box<dyn DetectorProvider> = match self.detectors {
            Some(d) => d,
            None => Box::new(LinkDetectorAssignment::zero_complete(&self.net, &ids)),
        };
        if detectors.n() != n {
            return Err(EngineError::DetectorSizeMismatch {
                n,
                detector: detectors.n(),
            });
        }
        let wake_rounds = self.wake_rounds.unwrap_or_else(|| vec![1; n]);
        if wake_rounds.len() != n || wake_rounds.contains(&0) {
            return Err(EngineError::BadWakeRounds);
        }
        let mode = match self.step_mode {
            StepMode::Auto => auto_step_mode(&self.net),
            m => m,
        };
        let bit_rows = matches!(mode, StepMode::Bitset | StepMode::Batched);
        let bytes = bit_rows_bytes(n);
        if bit_rows && bytes > MAX_BIT_ROWS_BYTES {
            return Err(EngineError::BitRowsTooLarge { n, bytes });
        }
        // Size the adversary-proposal buffer for the built-in adversaries'
        // worst cases (full unreliable layer, or ≤ 2 edges per listener) so
        // steady state never grows it.
        let extra_capacity = self.net.unreliable_edge_count().max(2 * n);
        // Per-process seeds come from the master StdRng (pinned stream);
        // the per-process generators themselves are the cheap SmallRng —
        // process coins dominate RNG volume at steady state.
        let mut master = StdRng::seed_from_u64(self.seed);
        let rngs = (0..n)
            .map(|_| ProcessRng::seed_from_u64(master.gen()))
            .collect();
        let procs = (0..n)
            .map(|v| {
                factory(SpawnInfo {
                    node: NodeId(v),
                    id: ids.id_of(NodeId(v)),
                    n,
                    detector: detectors.set_at(NodeId(v), wake_rounds[v]),
                    wake_round: wake_rounds[v],
                })
            })
            .collect();
        // A static detector never changes output: keep a shared handle on
        // its sets so the per-node, per-round lookup is a plain index
        // instead of a virtual call.
        let static_det = detectors.static_assignment();
        if bit_rows {
            // Build (and cache on the network) the bitmask rows up front,
            // so the hot loop never pays the one-time cost mid-run.
            self.net.g_bit_rows();
        }
        Ok(Engine {
            net: self.net,
            ids,
            procs,
            adversary: self.adversary,
            detectors,
            wake_rounds,
            rngs,
            round: 0,
            metrics: ExecutionMetrics::default(),
            trace: if self.record_trace {
                Some(Trace::new())
            } else {
                None
            },
            max_message_bits: self.max_message_bits,
            decided_round: vec![None; n],
            static_det,
            mode,
            scratch: RoundScratch::new(n, extra_capacity),
        })
    }
}

/// Reusable per-round buffers of the engine (see the module docs for the
/// invariants). Sized once at spawn; `step()` only overwrites.
// lint: begin-no-alloc
struct RoundScratch<M> {
    /// This round's decisions, indexed by node. Only current-round
    /// broadcasters' slots are meaningful; idle slots go stale (never
    /// read, never cleared).
    msgs: Vec<Option<M>>,
    /// Whether each node broadcast this round.
    broadcasting: Vec<bool>,
    /// The nodes that broadcast this round, in node order.
    broadcasters: Vec<u32>,
    /// The adversary's proposed unreliable edges, normalized/filtered in
    /// place each round.
    extra: Vec<(usize, usize)>,
    /// Row tester validating proposals against `E' \ E` in `O(1)` amortized.
    unreliable_rows: NeighborStamps,
    /// Monotone round epoch for the reach counters below; stale entries are
    /// outdated by the bump, never cleared.
    epoch: u64,
    /// Last epoch in which each listener was reached by any broadcaster.
    reach_stamp: Vec<u64>,
    /// Reachable-broadcaster count per listener (valid iff stamp == epoch).
    reach_count: Vec<u32>,
    /// First reachable broadcaster per listener (valid iff stamp == epoch).
    /// The bitset tier reuses it as its delivering-source array: whenever a
    /// listener's seen bit is set cleanly, the slot holds the sender.
    reach_first: Vec<u32>,
    /// Bitset tier: listeners reached at least once this round, one bit
    /// per node. Cleared (never reallocated) every round.
    bit_seen: Vec<u64>,
    /// Bitset tier: listeners reached at least twice this round (the
    /// carry-save "seen twice" half of the pair).
    bit_collide: Vec<u64>,
}
// lint: end-no-alloc

impl<M> RoundScratch<M> {
    fn new(n: usize, extra_capacity: usize) -> Self {
        RoundScratch {
            msgs: (0..n).map(|_| None).collect(),
            broadcasting: vec![false; n],
            broadcasters: Vec::with_capacity(n),
            extra: Vec::with_capacity(extra_capacity),
            unreliable_rows: NeighborStamps::new(n),
            epoch: 0,
            reach_stamp: vec![0; n],
            reach_count: vec![0; n],
            reach_first: vec![0; n],
            bit_seen: vec![0; n.div_ceil(64)],
            bit_collide: vec![0; n.div_ceil(64)],
        }
    }
}

/// Executes an algorithm on a dual graph network, round by round.
///
/// # Examples
///
/// Run a trivial one-round algorithm in which everyone immediately outputs:
///
/// ```
/// use radio_sim::{Action, Context, DualGraph, EngineBuilder, Graph, Process};
///
/// struct Silent(Option<bool>);
/// impl Process for Silent {
///     type Msg = ();
///     fn decide(&mut self, _: &mut Context<'_>) -> Action<()> {
///         self.0 = Some(false);
///         Action::Idle
///     }
///     fn receive(&mut self, _: &mut Context<'_>, _: Option<&()>) {}
///     fn output(&self) -> Option<bool> { self.0 }
/// }
///
/// let net = DualGraph::classic(Graph::from_edges(2, [(0, 1)])?)?;
/// let mut engine = EngineBuilder::new(net).spawn(|_| Silent(None))?;
/// let outcome = engine.run(10);
/// assert_eq!(outcome.rounds, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine<P: Process> {
    net: DualGraph,
    ids: IdAssignment,
    procs: Vec<P>,
    adversary: Box<dyn Adversary>,
    detectors: Box<dyn DetectorProvider>,
    wake_rounds: Vec<u64>,
    rngs: Vec<ProcessRng>,
    round: u64,
    metrics: ExecutionMetrics,
    trace: Option<Trace>,
    max_message_bits: Option<u64>,
    decided_round: Vec<Option<u64>>,
    /// A shared handle on the provider's sets when it is static (see
    /// [`DetectorProvider::static_assignment`]); `None` for genuinely
    /// dynamic detectors.
    static_det: Option<LinkDetectorAssignment>,
    /// The resolved delivery tier the run loops step through (never
    /// [`StepMode::Auto`] after spawn).
    mode: StepMode,
    scratch: RoundScratch<P::Msg>,
}

/// The detector set of node `v` at round `r` — an `O(1)` view on the shared
/// sets for static detectors, the provider call otherwise. A free function
/// over the two fields so callers keep disjoint borrows of the rest of the
/// engine.
#[inline]
fn detector_set<'a>(
    static_det: &'a Option<LinkDetectorAssignment>,
    detectors: &'a dyn DetectorProvider,
    v: usize,
    r: u64,
) -> DetectorSet<'a> {
    match static_det {
        Some(det) => det.set(NodeId(v)),
        None => detectors.set_at(NodeId(v), r),
    }
}

impl<P: Process> Engine<P> {
    /// Executes one synchronous round.
    ///
    /// Allocation-free in steady state: all per-round buffers live in the
    /// engine's scratch (see the module docs). Deliveries are computed by
    /// scattering each broadcaster's CSR neighborhood into epoch-stamped
    /// reach counters, `O(Σ deg(broadcasters) + extra edges + n)` per round.
    // lint: begin-no-alloc
    pub fn step(&mut self) {
        let n = self.net.n();
        self.round += 1;
        let r = self.round;
        self.metrics.rounds = r;

        // Phase 1: every awake process decides. Idle nodes' `msgs` slots
        // are left stale on purpose: delivery only ever dereferences the
        // slot of a *current-round* broadcaster (via `reach_first`), and
        // those slots are freshly written below.
        self.scratch.broadcasters.clear();
        // lint: rng-order(decide)
        for v in 0..n {
            if self.wake_rounds[v] > r {
                self.scratch.broadcasting[v] = false;
                continue;
            }
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            match self.procs[v].decide(&mut ctx) {
                Action::Idle => {
                    self.scratch.broadcasting[v] = false;
                }
                Action::Broadcast(m) => {
                    let bits = m.bits();
                    self.metrics.broadcasts += 1;
                    self.metrics.bits_broadcast += bits;
                    if let Some(b) = self.max_message_bits {
                        if bits > b {
                            self.metrics.oversize_messages += 1;
                        }
                    }
                    self.scratch.broadcasting[v] = true;
                    self.scratch.broadcasters.push(v as u32);
                    self.scratch.msgs[v] = Some(m);
                }
            }
        }
        // lint: end-rng-order(decide)
        let broadcaster_count = self.scratch.broadcasters.len() as u32;

        // Phase 2: the adversary picks the round's unreliable reach edges;
        // `extra` keeps the validated ones that can change a reception.
        let extra_count = self.adversary_phase();

        // Phase 3: reach. Each broadcaster scatters its CSR row into the
        // stamped counters, then each activated unreliable edge bumps its
        // listening endpoint. The epoch advances every round — including
        // broadcaster-less ones, where stale reach state from earlier
        // rounds must not deliver.
        self.scratch.epoch += 1;
        if broadcaster_count > 0 {
            let epoch = self.scratch.epoch;
            let csr_g = self.net.g_csr();
            let RoundScratch {
                broadcasters,
                broadcasting,
                extra,
                reach_stamp,
                reach_count,
                reach_first,
                ..
            } = &mut self.scratch;
            let mut bump = |from: u32, to: usize| {
                if reach_stamp[to] != epoch {
                    reach_stamp[to] = epoch;
                    reach_count[to] = 1;
                    reach_first[to] = from;
                } else {
                    reach_count[to] += 1;
                }
            };
            for &u in broadcasters.iter() {
                for &v in csr_g.neighbors(u as usize) {
                    bump(u, v as usize);
                }
            }
            for &(a, b) in extra.iter() {
                let (from, to) = if broadcasting[a] { (a, b) } else { (b, a) };
                bump(from as u32, to);
            }
        }

        // Delivery: exactly one reachable broadcaster => message; otherwise
        // ⊥. Sleeping nodes neither broadcast nor receive.
        let epoch = self.scratch.epoch;
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for v in 0..n {
            if self.wake_rounds[v] > r || self.scratch.broadcasting[v] {
                continue;
            }
            let reach = if self.scratch.reach_stamp[v] == epoch {
                self.scratch.reach_count[v]
            } else {
                0
            };
            let delivered = if reach == 1 {
                deliveries += 1;
                Some(self.scratch.reach_first[v] as usize)
            } else {
                if reach >= 2 {
                    collisions += 1;
                }
                None
            };
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            let msg = delivered.and_then(|u| self.scratch.msgs[u].as_ref());
            self.procs[v].receive(&mut ctx, msg);
        }
        // lint: end-rng-order(receive)
        self.finish_round(r, broadcaster_count, deliveries, collisions, extra_count);
    }
    // lint: end-no-alloc

    /// The seed implementation of [`Engine::step`], kept verbatim as the
    /// reference for differential (golden-trace) testing and as the
    /// baseline side of `BENCH_engine.json`. Allocates its per-round
    /// buffers and scans every listener's full neighborhood; produces
    /// executions identical to [`Engine::step`] for the same seed.
    // lint: begin-no-alloc
    #[allow(clippy::needless_range_loop)] // kept structurally verbatim
    pub fn step_legacy(&mut self) {
        let n = self.net.n();
        self.round += 1;
        let r = self.round;
        self.metrics.rounds = r;

        // Phase 1: every awake process decides.
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut messages: Vec<Option<P::Msg>> = Vec::with_capacity(n);
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut broadcasting = vec![false; n];
        // lint: rng-order(decide)
        for v in 0..n {
            if self.wake_rounds[v] > r {
                messages.push(None);
                continue;
            }
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            match self.procs[v].decide(&mut ctx) {
                Action::Idle => messages.push(None),
                Action::Broadcast(m) => {
                    let bits = m.bits();
                    self.metrics.broadcasts += 1;
                    self.metrics.bits_broadcast += bits;
                    if let Some(b) = self.max_message_bits {
                        if bits > b {
                            self.metrics.oversize_messages += 1;
                        }
                    }
                    broadcasting[v] = true;
                    messages.push(Some(m));
                }
            }
        }
        // lint: end-rng-order(decide)

        // Phase 2: the adversary picks the round's unreliable reach edges.
        self.scratch.extra.clear();
        self.adversary
            .extra_edges(r, &self.net, &broadcasting, &mut self.scratch.extra);
        // Defensive filtering: keep only genuine unreliable edges, dedupe.
        let net = &self.net;
        self.scratch
            .extra
            .retain(|&(u, v)| u < n && v < n && net.is_unreliable_edge(u, v));
        for e in &mut self.scratch.extra {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        self.scratch.extra.sort_unstable();
        self.scratch.extra.dedup();
        let extra_count = self.scratch.extra.len() as u32;

        // Per-listener extra reach: broadcasters connected by an activated
        // unreliable edge.
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut extra_from: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in &self.scratch.extra {
            if broadcasting[u] && !broadcasting[v] {
                extra_from[v].push(u);
            }
            if broadcasting[v] && !broadcasting[u] {
                extra_from[u].push(v);
            }
        }

        // Phase 3: delivery. Exactly one reachable broadcaster => message;
        // otherwise ⊥. Sleeping nodes neither broadcast nor receive.
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for v in 0..n {
            if self.wake_rounds[v] > r || broadcasting[v] {
                continue;
            }
            let mut reach = extra_from[v].len();
            let mut the_one = extra_from[v].first().copied();
            for &u in self.net.g().neighbors(v) {
                if broadcasting[u] {
                    reach += 1;
                    if the_one.is_none() {
                        the_one = Some(u);
                    }
                    if reach >= 2 {
                        break;
                    }
                }
            }
            let delivered = if reach == 1 {
                deliveries += 1;
                the_one
            } else {
                if reach >= 2 {
                    collisions += 1;
                }
                None
            };
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            let msg = delivered.and_then(|u| messages[u].as_ref());
            self.procs[v].receive(&mut ctx, msg);
        }
        // lint: end-rng-order(receive)
        let broadcaster_count = broadcasting.iter().filter(|&&b| b).count() as u32;
        self.finish_round(r, broadcaster_count, deliveries, collisions, extra_count);
    }
    // lint: end-no-alloc

    /// Executes one synchronous round through the word-packed delivery
    /// tier (see the module docs' *Performance architecture*).
    ///
    /// Produces executions identical to [`Engine::step`] — same decide and
    /// receive call order (hence the same per-process RNG streams), same
    /// traces, transcripts, metrics, and outputs — for every adversary,
    /// including malformed proposals; the golden-trace differential tests
    /// pin the equivalence exactly the way `step` is pinned to
    /// [`Engine::step_legacy`].
    ///
    /// Reach is computed as a carry-save bit pair over `⌈n/64⌉`-word
    /// bitmask rows: for each broadcaster row,
    /// `collide |= seen & row; seen |= row` — one-bit saturating counters
    /// distinguishing "reached once" (clean delivery) from "reached twice
    /// or more" (collision), which is all the model's delivery rule needs.
    /// The adversary's activated unreliable edges overlay single bits, and
    /// a second row pass records each cleanly reached listener's unique
    /// source. Cost: `O(B·⌈n/64⌉ + extra + n)` word operations per round
    /// for `B` broadcasters.
    ///
    /// Allocation-free in steady state. The bitmask rows are built (and
    /// cached on the network) at spawn for engines resolved to
    /// [`StepMode::Bitset`], or on the first call otherwise.
    // lint: begin-no-alloc
    pub fn step_bitset(&mut self) {
        let n = self.net.n();
        self.round += 1;
        let r = self.round;
        self.metrics.rounds = r;

        // Phase 1: every awake process decides — identical to `step`, so
        // the RNG streams and broadcast metrics stay in lockstep.
        self.scratch.broadcasters.clear();
        // lint: rng-order(decide)
        for v in 0..n {
            if self.wake_rounds[v] > r {
                self.scratch.broadcasting[v] = false;
                continue;
            }
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            match self.procs[v].decide(&mut ctx) {
                Action::Idle => {
                    self.scratch.broadcasting[v] = false;
                }
                Action::Broadcast(m) => {
                    let bits = m.bits();
                    self.metrics.broadcasts += 1;
                    self.metrics.bits_broadcast += bits;
                    if let Some(b) = self.max_message_bits {
                        if bits > b {
                            self.metrics.oversize_messages += 1;
                        }
                    }
                    self.scratch.broadcasting[v] = true;
                    self.scratch.broadcasters.push(v as u32);
                    self.scratch.msgs[v] = Some(m);
                }
            }
        }
        // lint: end-rng-order(decide)
        let broadcaster_count = self.scratch.broadcasters.len() as u32;

        // Phase 2: the adversary picks the round's unreliable reach edges;
        // `extra` keeps the validated ones that can change a reception.
        let extra_count = self.adversary_phase();

        // Phase 3: carry-save reach. seen/collide are cleared every round
        // — including broadcaster-less ones, where stale bits from an
        // earlier round must not deliver (the phantom-delivery bug class
        // the scalar path's unconditional epoch bump guards against).
        let words = n.div_ceil(64);
        self.scratch.bit_seen[..words].fill(0);
        self.scratch.bit_collide[..words].fill(0);
        if broadcaster_count > 0 {
            let rows = self.net.g_bit_rows();
            let RoundScratch {
                broadcasters,
                broadcasting,
                extra,
                bit_seen,
                bit_collide,
                reach_first,
                ..
            } = &mut self.scratch;
            for &u in broadcasters.iter() {
                let row = rows.row(u as usize);
                for w in 0..words {
                    bit_collide[w] |= bit_seen[w] & row[w];
                    bit_seen[w] |= row[w];
                }
            }
            // Unreliable overlay: each activated edge adds a single bit at
            // its listening endpoint. E' \ E is disjoint from E, so an
            // extra edge never double-counts a row delivery from the same
            // broadcaster.
            for &(a, b) in extra.iter() {
                let (from, to) = if broadcasting[a] { (a, b) } else { (b, a) };
                let (w, bit) = (to >> 6, 1u64 << (to & 63));
                if bit_seen[w] & bit != 0 {
                    bit_collide[w] |= bit;
                } else {
                    bit_seen[w] |= bit;
                    reach_first[to] = from as u32;
                }
            }
            // Second row pass: record the delivering source of every
            // cleanly row-reached listener. A clean bit has exactly one
            // reaching broadcaster (a second row or extra hit would have
            // set collide), so exactly one row writes each slot.
            for &u in broadcasters.iter() {
                let row = rows.row(u as usize);
                for w in 0..words {
                    let mut hits = row[w] & bit_seen[w] & !bit_collide[w];
                    while hits != 0 {
                        let v = (w << 6) | hits.trailing_zeros() as usize;
                        reach_first[v] = u;
                        hits &= hits - 1;
                    }
                }
            }
        }

        // Delivery: read each listener's bit pair — collide => ⊥ with a
        // collision counted, seen => the recorded source's message,
        // neither => silence. Same receive-call order as `step`.
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for v in 0..n {
            if self.wake_rounds[v] > r || self.scratch.broadcasting[v] {
                continue;
            }
            let (w, bit) = (v >> 6, 1u64 << (v & 63));
            let delivered = if self.scratch.bit_collide[w] & bit != 0 {
                collisions += 1;
                None
            } else if self.scratch.bit_seen[w] & bit != 0 {
                deliveries += 1;
                Some(self.scratch.reach_first[v] as usize)
            } else {
                None
            };
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            let msg = delivered.and_then(|u| self.scratch.msgs[u].as_ref());
            self.procs[v].receive(&mut ctx, msg);
        }
        // lint: end-rng-order(receive)
        self.finish_round(r, broadcaster_count, deliveries, collisions, extra_count);
    }
    // lint: end-no-alloc

    /// Executes one synchronous round through the batched tier's
    /// single-trial path: the same decide / adversary / carry-save /
    /// receive phase helpers a [`BatchedEngine`] interleaves across its
    /// trials, run over one plane pair. Produces executions identical to
    /// [`Engine::step_bitset`] (and therefore to the whole differential
    /// chain) — the batch-of-one face of the fourth tier.
    ///
    /// Allocation-free in steady state: the plane pair is the scratch's
    /// own `bit_seen`/`bit_collide`, temporarily moved out (no copy) so
    /// the receive phase can borrow the planes and the engine mutably at
    /// once.
    // lint: begin-no-alloc
    pub fn step_batched(&mut self) {
        let words = self.net.n().div_ceil(64);
        let broadcaster_count = self.batched_decide();
        let extra_count = self.adversary_phase();
        let mut seen = std::mem::take(&mut self.scratch.bit_seen);
        let mut collide = std::mem::take(&mut self.scratch.bit_collide);
        seen[..words].fill(0);
        collide[..words].fill(0);
        if broadcaster_count > 0 {
            let rows = self.net.g_bit_rows();
            let RoundScratch {
                broadcasters,
                broadcasting,
                extra,
                reach_first,
                ..
            } = &mut self.scratch;
            for &u in broadcasters.iter() {
                carry_save_row(
                    rows.row(u as usize),
                    &mut seen[..words],
                    &mut collide[..words],
                );
            }
            overlay_extra_bits(
                extra,
                broadcasting,
                reach_first,
                &mut seen[..words],
                &mut collide[..words],
            );
            for &u in broadcasters.iter() {
                recover_row_sources(
                    rows.row(u as usize),
                    u,
                    &seen[..words],
                    &collide[..words],
                    reach_first,
                );
            }
        }
        self.batched_receive(
            &seen[..words],
            &collide[..words],
            broadcaster_count,
            extra_count,
        );
        self.scratch.bit_seen = seen;
        self.scratch.bit_collide = collide;
    }
    // lint: end-no-alloc

    /// Batched-tier phase 1: advance the round and let every awake
    /// process decide, in node order — the exact loop (and therefore the
    /// exact per-process RNG draw order) of `step_bitset`'s phase 1.
    /// Returns the broadcaster count.
    // lint: begin-no-alloc
    fn batched_decide(&mut self) -> u32 {
        let n = self.net.n();
        self.round += 1;
        let r = self.round;
        self.metrics.rounds = r;
        self.scratch.broadcasters.clear();
        // lint: rng-order(decide)
        for v in 0..n {
            if self.wake_rounds[v] > r {
                self.scratch.broadcasting[v] = false;
                continue;
            }
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            match self.procs[v].decide(&mut ctx) {
                Action::Idle => {
                    self.scratch.broadcasting[v] = false;
                }
                Action::Broadcast(m) => {
                    let bits = m.bits();
                    self.metrics.broadcasts += 1;
                    self.metrics.bits_broadcast += bits;
                    if let Some(b) = self.max_message_bits {
                        if bits > b {
                            self.metrics.oversize_messages += 1;
                        }
                    }
                    self.scratch.broadcasting[v] = true;
                    self.scratch.broadcasters.push(v as u32);
                    self.scratch.msgs[v] = Some(m);
                }
            }
        }
        // lint: end-rng-order(decide)
        self.scratch.broadcasters.len() as u32
    }
    // lint: end-no-alloc

    /// Batched-tier phase 4: read each listener's bit pair out of the
    /// given planes and deliver, in node order — the exact receive loop
    /// (and RNG draw order) of `step_bitset`'s delivery phase — then run
    /// the shared end-of-round bookkeeping.
    // lint: begin-no-alloc
    fn batched_receive(
        &mut self,
        seen: &[u64],
        collide: &[u64],
        broadcaster_count: u32,
        extra_count: u32,
    ) {
        let n = self.net.n();
        let r = self.round;
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for v in 0..n {
            if self.wake_rounds[v] > r || self.scratch.broadcasting[v] {
                continue;
            }
            let (w, bit) = (v >> 6, 1u64 << (v & 63));
            let delivered = if collide[w] & bit != 0 {
                collisions += 1;
                None
            } else if seen[w] & bit != 0 {
                deliveries += 1;
                Some(self.scratch.reach_first[v] as usize)
            } else {
                None
            };
            let det = detector_set(&self.static_det, self.detectors.as_ref(), v, r);
            let mut ctx = Context {
                local_round: r - self.wake_rounds[v] + 1,
                n,
                my_id: self.ids.id_of(NodeId(v)),
                detector: det,
                rng: &mut self.rngs[v],
            };
            let msg = delivered.and_then(|u| self.scratch.msgs[u].as_ref());
            self.procs[v].receive(&mut ctx, msg);
        }
        // lint: end-rng-order(receive)
        self.finish_round(r, broadcaster_count, deliveries, collisions, extra_count);
    }
    // lint: end-no-alloc

    /// Phase 2 of every production tier: collects the adversary's
    /// proposal for the current round into `scratch.extra` and leaves
    /// there exactly the distinct edges of `E' \ E` with one broadcasting
    /// endpoint, normalized `(u < v)` and sorted — the only activated
    /// edges that can change a reception.
    ///
    /// Untraced engines drop every other pair first (out of range, both
    /// or neither endpoint broadcasting) and then sort, dedupe and
    /// validate the short remainder. A tracing engine validates the whole
    /// proposal before that filter, because its trace records how many
    /// distinct valid edges the adversary proposed — the count this
    /// returns (what `step_legacy` records). Untraced engines return the
    /// filtered count, which nothing reads.
    // lint: begin-no-alloc
    fn adversary_phase(&mut self) -> u32 {
        let n = self.net.n();
        self.scratch.extra.clear();
        self.adversary.extra_edges(
            self.round,
            &self.net,
            &self.scratch.broadcasting,
            &mut self.scratch.extra,
        );
        let unreliable = self.net.unreliable_csr();
        let RoundScratch {
            extra,
            broadcasting,
            unreliable_rows,
            ..
        } = &mut self.scratch;
        let mut validate = |extra: &mut Vec<(usize, usize)>| {
            for e in extra.iter_mut() {
                if e.0 > e.1 {
                    *e = (e.1, e.0);
                }
            }
            extra.sort_unstable();
            extra.dedup();
            // One stamped row load per distinct lower endpoint instead of
            // a binary search per edge.
            let mut loaded = usize::MAX;
            extra.retain(|&(u, v)| {
                u < n && v < n && {
                    if loaded != u {
                        unreliable_rows.load_row(unreliable, u);
                        loaded = u;
                    }
                    unreliable_rows.contains(v)
                }
            });
        };
        // Also drops self-loops: both sides carry the same flag.
        let incident =
            |&(a, b): &(usize, usize)| a < n && b < n && broadcasting[a] != broadcasting[b];
        if self.trace.is_none() {
            extra.retain(incident);
            validate(extra);
            return extra.len() as u32;
        }
        validate(extra);
        let proposed = extra.len() as u32;
        extra.retain(incident);
        proposed
    }
    // lint: end-no-alloc

    /// Shared end-of-round bookkeeping: aggregate metrics, first-output
    /// rounds, and the optional trace record.
    // lint: begin-no-alloc
    fn finish_round(
        &mut self,
        r: u64,
        broadcasters: u32,
        deliveries: u32,
        collisions: u32,
        extra_edges: u32,
    ) {
        self.metrics.deliveries += u64::from(deliveries);
        self.metrics.collisions += u64::from(collisions);
        for v in 0..self.decided_round.len() {
            if self.decided_round[v].is_none() && self.procs[v].output().is_some() {
                self.decided_round[v] = Some(r);
            }
        }
        if let Some(trace) = &mut self.trace {
            trace.push(RoundRecord {
                round: r,
                broadcasters,
                deliveries,
                collisions,
                extra_edges,
            });
        }
    }
    // lint: end-no-alloc

    /// Runs until every process is done or `max_rounds` total rounds have
    /// been executed.
    pub fn run(&mut self, max_rounds: u64) -> RunOutcome {
        self.run_until(max_rounds, |_| false)
    }

    /// Runs until every process is done, the predicate over the process
    /// array returns true, or the budget is exhausted — whichever first.
    pub fn run_until(&mut self, max_rounds: u64, mut pred: impl FnMut(&[P]) -> bool) -> RunOutcome {
        loop {
            if self.procs.iter().all(Process::is_done) {
                return RunOutcome {
                    rounds: self.round,
                    stop: StopReason::AllDone,
                };
            }
            if pred(&self.procs) {
                return RunOutcome {
                    rounds: self.round,
                    stop: StopReason::Predicate,
                };
            }
            if self.round >= max_rounds {
                return RunOutcome {
                    rounds: self.round,
                    stop: StopReason::MaxRounds,
                };
            }
            self.step_selected();
        }
    }

    /// Runs exactly `rounds` additional rounds (regardless of outputs).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_selected();
        }
    }

    /// One round through the tier resolved at spawn (see [`StepMode`]).
    #[inline]
    fn step_selected(&mut self) {
        match self.mode {
            StepMode::Bitset => self.step_bitset(),
            StepMode::Batched => self.step_batched(),
            _ => self.step(),
        }
    }

    /// The delivery tier the run loops step through, resolved at spawn
    /// (never [`StepMode::Auto`]).
    pub fn step_mode(&self) -> StepMode {
        self.mode
    }

    /// The network being simulated.
    pub fn net(&self) -> &DualGraph {
        &self.net
    }

    /// The process-to-node assignment.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The processes, indexed by node.
    pub fn procs(&self) -> &[P] {
        &self.procs
    }

    /// Mutable access to the processes (used by wrappers such as the
    /// continuous CCDS that restart protocols between runs).
    pub fn procs_mut(&mut self) -> &mut [P] {
        &mut self.procs
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Aggregate execution counters.
    pub fn metrics(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// The recorded trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Outputs by node (`None` while undecided).
    pub fn outputs(&self) -> Vec<Option<bool>> {
        self.procs.iter().map(Process::output).collect()
    }

    /// The first round at which node `v` had an output, if it has one.
    pub fn decided_round(&self, v: NodeId) -> Option<u64> {
        self.decided_round[v.index()]
    }

    /// Latest first-output round across nodes that have decided; `None` if
    /// any node is still undecided.
    pub fn all_decided_round(&self) -> Option<u64> {
        self.decided_round
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// Per-node rounds-from-wake until first output (Section 9's complexity
    /// measure); `None` for undecided nodes.
    pub fn decided_latency(&self, v: NodeId) -> Option<u64> {
        self.decided_round[v.index()].map(|r| r - self.wake_rounds[v.index()] + 1)
    }
}

/// Carry-saves one bitmask row into a seen/collide plane pair:
/// `collide |= seen & row; seen |= row`. The iterator form elides bounds
/// checks so the word loop vectorizes — this is the inner loop the
/// batched tier runs once per (broadcasting node, broadcasting trial)
/// pair while the row is hot in cache.
// lint: begin-no-alloc
#[inline]
fn carry_save_row(row: &[u64], seen: &mut [u64], collide: &mut [u64]) {
    for ((s, c), &w) in seen.iter_mut().zip(collide.iter_mut()).zip(row) {
        *c |= *s & w;
        *s |= w;
    }
}

/// Overlays the adversary's activated edges (phase 2's output: each has
/// exactly one broadcasting endpoint) onto a plane pair: each adds a
/// single bit at its listening endpoint, recording the sender in
/// `reach_first` on a clean hit — exactly `step_bitset`'s overlay,
/// parameterized over the planes.
#[inline]
fn overlay_extra_bits(
    extra: &[(usize, usize)],
    broadcasting: &[bool],
    reach_first: &mut [u32],
    seen: &mut [u64],
    collide: &mut [u64],
) {
    for &(a, b) in extra {
        let (from, to) = if broadcasting[a] { (a, b) } else { (b, a) };
        let (w, bit) = (to >> 6, 1u64 << (to & 63));
        if seen[w] & bit != 0 {
            collide[w] |= bit;
        } else {
            seen[w] |= bit;
            reach_first[to] = from as u32;
        }
    }
}

/// Second row pass over a plane pair: records broadcaster `u` as the
/// delivering source of every listener its row reached cleanly (seen and
/// not collided — such a listener has exactly one reaching broadcaster,
/// so exactly one row writes each slot).
#[inline]
fn recover_row_sources(
    row: &[u64],
    u: u32,
    seen: &[u64],
    collide: &[u64],
    reach_first: &mut [u32],
) {
    for (w, ((&rw, &sw), &cw)) in row.iter().zip(seen).zip(collide).enumerate() {
        let mut hits = rw & sw & !cw;
        while hits != 0 {
            let v = (w << 6) | hits.trailing_zeros() as usize;
            reach_first[v] = u;
            hits &= hits - 1;
        }
    }
}
// lint: end-no-alloc

/// Steps `B` independent trials of the same topology one round at a time
/// over struct-of-arrays reach state — the multi-trial half of the
/// batched tier (see the module docs' *Performance architecture*).
///
/// Every trial's seen/collide planes are contiguous `⌈n/64⌉`-word stripes
/// of one flat buffer. A batched round runs:
///
/// 1. per trial, in trial order: the decide and adversary phases
///    (identical per-trial code and RNG draw order to
///    [`Engine::step_bitset`] — trials own disjoint RNG streams, so the
///    ordering *across* trials is immaterial);
/// 2. node-major delivery: for every node broadcasting in ≥ 1 trial, the
///    bitmask row is fetched **once** and carry-saved into each
///    broadcasting trial's plane while hot, then (after the per-trial
///    unreliable overlays) a second node-major pass recovers delivering
///    sources the same way;
/// 3. per trial, in trial order: the receive phase.
///
/// Because trials share no mutable state, interleaving the phases this
/// way leaves each trial's execution — trace, transcript, metrics,
/// outputs, RNG streams — bit-identical to stepping its engine solo
/// through `step_bitset`; the differential tests pin this at several
/// batch sizes. Allocation-free in steady state: all buffers are sized at
/// construction.
pub struct BatchedEngine<P: Process> {
    engines: Vec<Engine<P>>,
    /// A handle on the shared topology, read for its bitmask rows (a field
    /// of its own keeps the delivery borrows disjoint from the engines).
    net: DualGraph,
    n: usize,
    words: usize,
    /// Trial-major seen planes: trial `b` owns words `b·words ..
    /// (b+1)·words`.
    seen: Vec<u64>,
    /// Trial-major collide planes, same stripe layout.
    collide: Vec<u64>,
    /// Node-major broadcast masks: `⌈B/64⌉` words per node recording
    /// which trials the node broadcasts in this round. Rebuilt every
    /// round; lets delivery skip silent nodes in one word read instead of
    /// a `B`-way cursor merge.
    bcast_mask: Vec<u64>,
    mask_words: usize,
    /// Per-trial (broadcaster, validated-extra) counts for the round.
    counts: Vec<(u32, u32)>,
    /// Which trials still step; [`BatchedEngine::run_each`] retires
    /// trials as they stop, fresh batches step everything.
    active: Vec<bool>,
    outcomes: Vec<RunOutcome>,
}

impl<P: Process> BatchedEngine<P> {
    /// Assembles a batch over `engines`, which must all simulate the same
    /// topology: clones of one network (a pointer compare), or networks
    /// with equal reliable layers.
    ///
    /// The engines' resolved [`StepMode`]s are irrelevant here: a batch
    /// always steps its trials through the batched tier. Engines may be at
    /// different rounds; trials are independent.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or the topologies disagree.
    pub fn new(engines: Vec<Engine<P>>) -> Self {
        assert!(!engines.is_empty(), "a batch needs at least one trial");
        let net = engines[0].net.clone();
        assert!(
            engines
                .iter()
                .all(|e| e.net.ptr_eq(&net) || e.net.g_csr() == net.g_csr()),
            "batched trials must share one topology"
        );
        // Build the rows now (a no-op when the engines' spawn did), so the
        // first batched round does not pay for them.
        net.g_bit_rows();
        let n = net.n();
        let words = n.div_ceil(64);
        let b = engines.len();
        let mask_words = b.div_ceil(64);
        BatchedEngine {
            net,
            n,
            words,
            seen: vec![0; b * words],
            collide: vec![0; b * words],
            bcast_mask: vec![0; n * mask_words],
            mask_words,
            counts: vec![(0, 0); b],
            active: vec![true; b],
            outcomes: vec![
                RunOutcome {
                    rounds: 0,
                    stop: StopReason::MaxRounds,
                };
                b
            ],
            engines,
        }
    }

    /// Number of trials in the batch.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the batch is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The trial engines, in batch order.
    pub fn engines(&self) -> &[Engine<P>] {
        &self.engines
    }

    /// Disassembles the batch back into its trial engines, in batch order.
    pub fn into_engines(self) -> Vec<Engine<P>> {
        self.engines
    }

    /// Steps every still-active trial one round (all trials are active on
    /// a fresh batch; [`BatchedEngine::run_each`] retires them).
    // lint: begin-no-alloc
    pub fn step(&mut self) {
        let b_count = self.engines.len();
        let words = self.words;
        let mask_words = self.mask_words;
        let rows = self.net.g_bit_rows();

        // Phases 1+2, per trial in trial order, clearing each active
        // trial's planes for the round (every round, including
        // broadcaster-less ones — the phantom-delivery rule).
        for b in 0..b_count {
            if !self.active[b] {
                continue;
            }
            let engine = &mut self.engines[b];
            let bc = engine.batched_decide();
            let ec = engine.adversary_phase();
            self.counts[b] = (bc, ec);
            self.seen[b * words..(b + 1) * words].fill(0);
            self.collide[b * words..(b + 1) * words].fill(0);
        }

        // Node-major broadcast masks for the round.
        self.bcast_mask.fill(0);
        for b in 0..b_count {
            if !self.active[b] || self.counts[b].0 == 0 {
                continue;
            }
            let (mw, mbit) = (b >> 6, 1u64 << (b & 63));
            for &u in &self.engines[b].scratch.broadcasters {
                self.bcast_mask[u as usize * mask_words + mw] |= mbit;
            }
        }

        // First row pass: each hot row carry-saves into every
        // broadcasting trial's plane.
        for u in 0..self.n {
            let base = u * mask_words;
            for mw in 0..mask_words {
                let mut mask = self.bcast_mask[base + mw];
                if mask == 0 {
                    continue;
                }
                let row = rows.row(u);
                while mask != 0 {
                    let b = (mw << 6) | mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    carry_save_row(
                        row,
                        &mut self.seen[b * words..(b + 1) * words],
                        &mut self.collide[b * words..(b + 1) * words],
                    );
                }
            }
        }

        // Per-trial unreliable overlays.
        for b in 0..b_count {
            if !self.active[b] || self.counts[b].0 == 0 {
                continue;
            }
            let RoundScratch {
                extra,
                broadcasting,
                reach_first,
                ..
            } = &mut self.engines[b].scratch;
            overlay_extra_bits(
                extra,
                broadcasting,
                reach_first,
                &mut self.seen[b * words..(b + 1) * words],
                &mut self.collide[b * words..(b + 1) * words],
            );
        }

        // Second row pass: recover each cleanly reached listener's source,
        // node-major again so the row is fetched once per node.
        for u in 0..self.n {
            let base = u * mask_words;
            for mw in 0..mask_words {
                let mut mask = self.bcast_mask[base + mw];
                if mask == 0 {
                    continue;
                }
                let row = rows.row(u);
                while mask != 0 {
                    let b = (mw << 6) | mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    recover_row_sources(
                        row,
                        u as u32,
                        &self.seen[b * words..(b + 1) * words],
                        &self.collide[b * words..(b + 1) * words],
                        &mut self.engines[b].scratch.reach_first,
                    );
                }
            }
        }

        // Phase 4, per trial in trial order.
        for b in 0..b_count {
            if !self.active[b] {
                continue;
            }
            let (bc, ec) = self.counts[b];
            let engine = &mut self.engines[b];
            engine.batched_receive(
                &self.seen[b * words..(b + 1) * words],
                &self.collide[b * words..(b + 1) * words],
                bc,
                ec,
            );
        }
    }
    // lint: end-no-alloc

    /// Steps every still-active trial exactly `rounds` more rounds
    /// (regardless of outputs) — the batched mirror of
    /// [`Engine::run_rounds`].
    pub fn run_rounds_each(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs every trial until it is done or has executed `max_rounds`
    /// total rounds, whichever first — per trial, exactly
    /// [`Engine::run`]'s stop rule (all-done is checked before the
    /// budget, both before stepping). Active trials stay in round
    /// lockstep; finished trials freeze while the rest continue. Returns
    /// one [`RunOutcome`] per trial, in batch order.
    pub fn run_each(&mut self, max_rounds: u64) -> Vec<RunOutcome> {
        for flag in &mut self.active {
            *flag = true;
        }
        loop {
            let mut any = false;
            for b in 0..self.engines.len() {
                if !self.active[b] {
                    continue;
                }
                let engine = &self.engines[b];
                if engine.procs.iter().all(Process::is_done) {
                    self.outcomes[b] = RunOutcome {
                        rounds: engine.round,
                        stop: StopReason::AllDone,
                    };
                    self.active[b] = false;
                } else if engine.round >= max_rounds {
                    self.outcomes[b] = RunOutcome {
                        rounds: engine.round,
                        stop: StopReason::MaxRounds,
                    };
                    self.active[b] = false;
                } else {
                    any = true;
                }
            }
            if !any {
                return self.outcomes.clone();
            }
            self.step();
        }
    }

    /// The batch-level tier selection (see the module docs): runs a trial
    /// set to `max_rounds` through one [`BatchedEngine`] when batching
    /// pays — ≥ 2 trials whose engines resolved to the bitset tier (or
    /// were pinned to the batched one), i.e. a dense shared topology —
    /// and falls back to per-trial [`Engine::run`] calls otherwise.
    /// Either way the executions (and the returned per-trial outcomes)
    /// are bit-identical; only the stepping schedule differs.
    pub fn run_all(
        mut engines: Vec<Engine<P>>,
        max_rounds: u64,
    ) -> (Vec<Engine<P>>, Vec<RunOutcome>) {
        let batchable = engines.len() >= 2
            && engines
                .iter()
                .all(|e| matches!(e.step_mode(), StepMode::Bitset | StepMode::Batched));
        if batchable {
            let mut batch = BatchedEngine::new(engines);
            let outcomes = batch.run_each(max_rounds);
            (batch.into_engines(), outcomes)
        } else {
            let outcomes = engines.iter_mut().map(|e| e.run(max_rounds)).collect();
            (engines, outcomes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Broadcasts its id every round, never outputs.
    struct Chatter;
    impl Process for Chatter {
        type Msg = u32;
        fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
            Action::Broadcast(ctx.my_id.get())
        }
        fn receive(&mut self, _: &mut Context<'_>, _: Option<&u32>) {}
        fn output(&self) -> Option<bool> {
            None
        }
    }

    /// Listens forever, recording what it hears.
    struct Listener {
        heard: Vec<Option<u32>>,
    }
    impl Process for Listener {
        type Msg = u32;
        fn decide(&mut self, _: &mut Context<'_>) -> Action<u32> {
            Action::Idle
        }
        fn receive(&mut self, _: &mut Context<'_>, msg: Option<&u32>) {
            self.heard.push(msg.copied());
        }
        fn output(&self) -> Option<bool> {
            None
        }
    }

    enum Node {
        Chatter(Chatter),
        Listener(Listener),
    }
    impl Process for Node {
        type Msg = u32;
        fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
            match self {
                Node::Chatter(c) => c.decide(ctx),
                Node::Listener(l) => l.decide(ctx),
            }
        }
        fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&u32>) {
            match self {
                Node::Chatter(c) => c.receive(ctx, msg),
                Node::Listener(l) => l.receive(ctx, msg),
            }
        }
        fn output(&self) -> Option<bool> {
            None
        }
    }

    fn star_net() -> DualGraph {
        // 0 is the hub; 1, 2, 3 are leaves. No unreliable edges.
        DualGraph::classic(Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap()).unwrap()
    }

    #[test]
    fn single_broadcaster_delivers() {
        let net = star_net();
        let mut e = EngineBuilder::new(net)
            .record_trace(true)
            .spawn(|info| {
                if info.node.index() == 1 {
                    Node::Chatter(Chatter)
                } else {
                    Node::Listener(Listener { heard: Vec::new() })
                }
            })
            .unwrap();
        e.step();
        // Node 0 (hub) hears node 1's message; nodes 2 and 3 are not
        // adjacent to 1 and hear silence.
        match &e.procs()[0] {
            Node::Listener(l) => assert_eq!(l.heard, vec![Some(2)]), // process id of node 1
            _ => panic!("node 0 should listen"),
        }
        match &e.procs()[2] {
            Node::Listener(l) => assert_eq!(l.heard, vec![None]),
            _ => panic!(),
        }
        assert_eq!(e.metrics().deliveries, 1);
        assert_eq!(e.metrics().collisions, 0);
        assert_eq!(e.trace().unwrap().rounds[0].broadcasters, 1);
    }

    #[test]
    fn two_broadcasters_collide_at_hub() {
        let net = star_net();
        let mut e = EngineBuilder::new(net)
            .spawn(|info| {
                if info.node.index() == 1 || info.node.index() == 2 {
                    Node::Chatter(Chatter)
                } else {
                    Node::Listener(Listener { heard: Vec::new() })
                }
            })
            .unwrap();
        e.step();
        match &e.procs()[0] {
            Node::Listener(l) => assert_eq!(l.heard, vec![None]),
            _ => panic!(),
        }
        assert_eq!(e.metrics().collisions, 1);
    }

    #[test]
    fn unreliable_edge_silent_under_reliable_only() {
        // G: path 0-1; G' adds (0, 2)... need G connected over 3 nodes.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut gp = g.clone();
        gp.add_edge(0, 2);
        let net = DualGraph::new(g, gp).unwrap();
        let mut e = EngineBuilder::new(net)
            .spawn(|info| {
                if info.node.index() == 2 {
                    Node::Chatter(Chatter)
                } else {
                    Node::Listener(Listener { heard: Vec::new() })
                }
            })
            .unwrap();
        e.step();
        // Node 0 must not hear node 2 over the (inactive) unreliable edge.
        match &e.procs()[0] {
            Node::Listener(l) => assert_eq!(l.heard, vec![None]),
            _ => panic!(),
        }
        // Node 1 hears node 2 over the reliable edge.
        match &e.procs()[1] {
            Node::Listener(l) => assert_eq!(l.heard, vec![Some(3)]),
            _ => panic!(),
        }
    }

    #[test]
    fn unreliable_edge_delivers_under_all_unreliable() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut gp = g.clone();
        gp.add_edge(0, 2);
        let net = DualGraph::new(g, gp).unwrap();
        let mut e = EngineBuilder::new(net)
            .adversary(crate::adversary::AllUnreliable)
            .spawn(|info| {
                if info.node.index() == 2 {
                    Node::Chatter(Chatter)
                } else {
                    Node::Listener(Listener { heard: Vec::new() })
                }
            })
            .unwrap();
        e.step();
        match &e.procs()[0] {
            Node::Listener(l) => assert_eq!(l.heard, vec![Some(3)]),
            _ => panic!(),
        }
    }

    #[test]
    fn sleeping_nodes_neither_send_nor_receive() {
        let net = star_net();
        let mut e = EngineBuilder::new(net)
            .wake_rounds(vec![1, 1, 3, 1])
            .spawn(|info| {
                if info.node.index() == 1 {
                    Node::Chatter(Chatter)
                } else {
                    Node::Listener(Listener { heard: Vec::new() })
                }
            })
            .unwrap();
        e.run_rounds(2);
        match &e.procs()[2] {
            // Asleep for rounds 1-2: no receptions recorded.
            Node::Listener(l) => assert!(l.heard.is_empty()),
            _ => panic!(),
        }
        e.step();
        match &e.procs()[2] {
            // Awake from round 3; hears silence (not adjacent to node 1).
            Node::Listener(l) => assert_eq!(l.heard.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn oversize_messages_counted() {
        let net = star_net();
        let mut e = EngineBuilder::new(net)
            .max_message_bits(16)
            .spawn(|info| {
                if info.node.index() == 1 {
                    Node::Chatter(Chatter) // u32 message: 32 bits > 16
                } else {
                    Node::Listener(Listener { heard: Vec::new() })
                }
            })
            .unwrap();
        e.step();
        assert_eq!(e.metrics().oversize_messages, 1);
    }

    #[test]
    fn builder_validation() {
        let net = star_net();
        let err = EngineBuilder::new(net)
            .wake_rounds(vec![1, 2])
            .spawn(|_| Node::Chatter(Chatter));
        assert!(matches!(err.map(|_| ()), Err(EngineError::BadWakeRounds)));
    }

    #[test]
    fn determinism_under_same_seed() {
        // Random chatters: same seed => same trace.
        struct Coin;
        impl Process for Coin {
            type Msg = u32;
            fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
                if ctx.rng.gen_bool(0.5) {
                    Action::Broadcast(ctx.my_id.get())
                } else {
                    Action::Idle
                }
            }
            fn receive(&mut self, _: &mut Context<'_>, _: Option<&u32>) {}
            fn output(&self) -> Option<bool> {
                None
            }
        }
        let run = |seed| {
            let mut e = EngineBuilder::new(star_net())
                .seed(seed)
                .record_trace(true)
                .spawn(|_| Coin)
                .unwrap();
            e.run_rounds(50);
            e.trace().unwrap().clone()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn auto_mode_resolves_by_density() {
        // Dense: a 256-clique has edge_slots = 256·255 ≫ 3·256·4 words.
        let clique = DualGraph::classic(Graph::complete(256)).unwrap();
        let dense = EngineBuilder::new(clique)
            .spawn(|_| Node::Chatter(Chatter))
            .unwrap();
        assert_eq!(dense.step_mode(), StepMode::Bitset);

        // Sparse: a path has avg degree ~2, far under the 3-words-per-node
        // break-even, so the scalar scatter stays selected.
        let edges: Vec<_> = (0..255).map(|i| (i, i + 1)).collect();
        let path = DualGraph::classic(Graph::from_edges(256, edges).unwrap()).unwrap();
        let sparse = EngineBuilder::new(path)
            .spawn(|_| Node::Chatter(Chatter))
            .unwrap();
        assert_eq!(sparse.step_mode(), StepMode::Scalar);

        // Explicit overrides win over the density rule.
        let forced = EngineBuilder::new(DualGraph::classic(Graph::complete(64)).unwrap())
            .step_mode(StepMode::Scalar)
            .spawn(|_| Node::Chatter(Chatter))
            .unwrap();
        assert_eq!(forced.step_mode(), StepMode::Scalar);
    }

    #[test]
    fn auto_mode_density_boundary_is_exact() {
        // n = 64 => words = 1 => break-even at 3·64·1 = 192 edge slots =
        // 96 undirected edges. A connected graph with exactly 96 edges
        // sits on the threshold (bitset); one edge fewer falls back to
        // scalar.
        let graph_with_edges = |extra_chords: usize| {
            let mut edges: Vec<(usize, usize)> = (0..63).map(|i| (i, i + 1)).collect();
            edges.extend((2..2 + extra_chords).map(|j| (0, j + 1)));
            DualGraph::classic(Graph::from_edges(64, edges).unwrap()).unwrap()
        };
        let at = graph_with_edges(33); // 63 + 33 = 96 edges
        assert_eq!(at.g_csr().edge_slots(), 192);
        assert_eq!(auto_step_mode(&at), StepMode::Bitset);
        let below = graph_with_edges(32); // 95 edges
        assert_eq!(below.g_csr().edge_slots(), 190);
        assert_eq!(auto_step_mode(&below), StepMode::Scalar);
    }

    #[test]
    fn break_even_threshold_never_wraps() {
        // A pathological n whose 3·n·⌈n/64⌉ product overflows usize must
        // report "no threshold" (treated as not-dense), not a wrapped
        // small number that would mis-select the bitset tier.
        assert_eq!(bitset_break_even(usize::MAX), None);
        assert_eq!(bitset_break_even(1 << 40), None);
        // Sane sizes still compute exactly.
        assert_eq!(bitset_break_even(64), Some(192));
        assert_eq!(bitset_break_even(1024), Some(3 * 1024 * 16));
        assert_eq!(bitset_break_even(0), Some(0));
    }

    #[test]
    fn pinned_bit_row_tiers_refuse_oversized_rows() {
        // n = 10⁵ needs 10⁵·1563 words ≈ 1.25 GB of rows: a pinned bit-row
        // tier must refuse at spawn (before building them), while Auto
        // resolves the sparse path to scalar and spawns.
        let n = 100_000;
        let path =
            DualGraph::classic(Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap())
                .unwrap();
        for mode in [StepMode::Bitset, StepMode::Batched] {
            let err = EngineBuilder::new(path.clone())
                .step_mode(mode)
                .spawn(|_| Node::Chatter(Chatter))
                .map(|_| ());
            assert_eq!(
                err,
                Err(EngineError::BitRowsTooLarge {
                    n,
                    bytes: 1_250_400_000
                }),
                "{mode:?}"
            );
        }
        let auto = EngineBuilder::new(path)
            .spawn(|_| Node::Chatter(Chatter))
            .unwrap();
        assert_eq!(auto.step_mode(), StepMode::Scalar);
        // The size itself never wraps: an overflow reads as too large.
        assert_eq!(bit_rows_bytes(usize::MAX), usize::MAX);
        assert_eq!(bit_rows_bytes(1 << 40), usize::MAX);
        assert_eq!(bit_rows_bytes(64), 512);
        assert_eq!(bit_rows_bytes(0), 0);
    }

    #[test]
    fn batched_tier_matches_bitset_solo_and_in_batch() {
        // Random chatters over the dense circulant + clique dual: the
        // batch-of-one path and a 3-trial batch must both reproduce the
        // bitset tier's executions exactly. (The broad differential suite
        // at B ∈ {1, 2, 7, 64} lives in tests/determinism.rs.)
        struct Coin {
            heard: Vec<Option<u32>>,
        }
        impl Process for Coin {
            type Msg = u32;
            fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
                if ctx.rng.gen_bool(0.3) {
                    Action::Broadcast(ctx.my_id.get())
                } else {
                    Action::Idle
                }
            }
            fn receive(&mut self, _: &mut Context<'_>, m: Option<&u32>) {
                self.heard.push(m.copied());
            }
            fn output(&self) -> Option<bool> {
                None
            }
        }
        let net = || {
            let mut edges = Vec::new();
            for i in 0..70usize {
                for d in 1..=20 {
                    edges.push((i, (i + d) % 70));
                }
            }
            let g = Graph::from_edges(70, edges).unwrap();
            DualGraph::new(g, Graph::complete(70)).unwrap()
        };
        let spawn = |seed: u64, mode: StepMode| {
            EngineBuilder::new(net())
                .seed(seed)
                .adversary(crate::adversary::AllUnreliable)
                .record_trace(true)
                .step_mode(mode)
                .spawn(|_| Coin { heard: Vec::new() })
                .unwrap()
        };
        let capture = |e: &Engine<Coin>| {
            let heard: Vec<_> = e.procs().iter().map(|p| p.heard.clone()).collect();
            (e.trace().unwrap().clone(), heard, *e.metrics())
        };
        for seed in [5u64, 17, 23] {
            let mut bit = spawn(seed, StepMode::Bitset);
            bit.run_rounds(40);
            // Batch-of-one path (also what StepMode::Batched steps).
            let mut one = spawn(seed, StepMode::Batched);
            one.run_rounds(40);
            assert_eq!(capture(&bit), capture(&one), "seed {seed} solo");
        }
        // A 3-trial batch, stepped in lockstep.
        let mut batch = BatchedEngine::new(vec![
            spawn(5, StepMode::Bitset),
            spawn(17, StepMode::Bitset),
            spawn(23, StepMode::Bitset),
        ]);
        batch.run_rounds_each(40);
        for (engine, seed) in batch.engines().iter().zip([5u64, 17, 23]) {
            let mut reference = spawn(seed, StepMode::Bitset);
            reference.run_rounds(40);
            assert_eq!(capture(&reference), capture(engine), "seed {seed} batched");
        }
    }

    #[test]
    fn run_all_selects_batching_only_for_dense_multi_trial_runs() {
        // Dense clique, 3 trials: engines resolve to Bitset, run_all
        // batches them; outcomes and rounds match per-trial runs.
        let clique = || DualGraph::classic(Graph::complete(72)).unwrap();
        let spawn = |seed: u64| {
            EngineBuilder::new(clique())
                .seed(seed)
                .spawn(|_| Node::Chatter(Chatter))
                .unwrap()
        };
        let (engines, outcomes) = BatchedEngine::run_all(vec![spawn(1), spawn(2), spawn(3)], 12);
        assert_eq!(engines.len(), 3);
        for (engine, outcome) in engines.iter().zip(&outcomes) {
            assert_eq!(engine.round(), 12);
            assert_eq!(outcome.stop, StopReason::MaxRounds);
            assert_eq!(outcome.rounds, 12);
        }
        // A single trial never batches; a scalar-resolved (sparse) set
        // falls back to solo runs. Both still execute to the budget.
        let (solo, _) = BatchedEngine::run_all(vec![spawn(1)], 12);
        assert_eq!(solo[0].round(), 12);
        let path = || {
            let edges: Vec<_> = (0..71).map(|i| (i, i + 1)).collect();
            DualGraph::classic(Graph::from_edges(72, edges).unwrap()).unwrap()
        };
        let sparse: Vec<_> = (0..3)
            .map(|s| {
                EngineBuilder::new(path())
                    .seed(s)
                    .spawn(|_| Node::Chatter(Chatter))
                    .unwrap()
            })
            .collect();
        assert!(sparse.iter().all(|e| e.step_mode() == StepMode::Scalar));
        let (engines, _) = BatchedEngine::run_all(sparse, 12);
        assert_eq!(engines[0].round(), 12);
    }

    #[test]
    fn bitset_tier_matches_scalar() {
        // Random chatters over a clique with unreliable chords: the two
        // tiers must produce identical traces and transcripts. (The broad
        // differential suite lives in tests/determinism.rs; this is the
        // in-crate smoke.)
        struct Coin {
            heard: Vec<Option<u32>>,
        }
        impl Process for Coin {
            type Msg = u32;
            fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
                if ctx.rng.gen_bool(0.3) {
                    Action::Broadcast(ctx.my_id.get())
                } else {
                    Action::Idle
                }
            }
            fn receive(&mut self, _: &mut Context<'_>, m: Option<&u32>) {
                self.heard.push(m.copied());
            }
            fn output(&self) -> Option<bool> {
                None
            }
        }
        let net = || {
            // G: dense circulant (70 nodes, offsets 1..=20, degree 40);
            // G': the full clique, so E' \ E is a real unreliable layer.
            let mut edges = Vec::new();
            for i in 0..70usize {
                for d in 1..=20 {
                    edges.push((i, (i + d) % 70));
                }
            }
            let g = Graph::from_edges(70, edges).unwrap();
            DualGraph::new(g, Graph::complete(70)).unwrap()
        };
        let run = |mode| {
            let mut e = EngineBuilder::new(net())
                .seed(5)
                .adversary(crate::adversary::AllUnreliable)
                .record_trace(true)
                .step_mode(mode)
                .spawn(|_| Coin { heard: Vec::new() })
                .unwrap();
            e.run_rounds(40);
            let heard: Vec<_> = e.procs().iter().map(|p| p.heard.clone()).collect();
            (e.trace().unwrap().clone(), heard, *e.metrics())
        };
        assert_eq!(run(StepMode::Scalar), run(StepMode::Bitset));
    }

    #[test]
    #[should_panic(expected = "batched trials must share one topology")]
    fn batches_reject_another_topology_with_as_many_edge_slots() {
        // A 4-node path and a 4-node star: equal `n`, 6 edge slots each.
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let spawn = |g| {
            EngineBuilder::new(DualGraph::classic(g).unwrap())
                .spawn(|_| Chatter)
                .unwrap()
        };
        BatchedEngine::new(vec![spawn(path), spawn(star)]);
    }
}
