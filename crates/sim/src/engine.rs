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
//! Stepping is the hot path of every experiment, and it comes in **three
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
//!
//! **One decide phase.** The two production tiers share phase 1
//! (`Engine::decide_phase`): advance the round, then let every due
//! process decide in node order (every awake one, less the promised naps
//! below). `step_legacy` keeps its own copy of the
//! loop as the oracle; the receive loops stay per tier, because they read
//! reach state differently.
//!
//! **One adversary phase.** The production tiers also share phase 2
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
//! **Shared frozen topology.** Per-topology state is immutable and
//! shared, never copied per engine: a [`DualGraph`] clone is a handle on
//! one frozen network (layers, CSR forms, unreliable list, bitmask rows),
//! a [`LinkDetectorAssignment`] clone shares its frozen sets (flat sorted
//! ids plus, on dense assignments, membership bitmask rows), and an
//! engine over a static detector keeps a handle on those sets. Spawning a
//! trial's engine therefore allocates only its own per-node state. Each
//! [`Context`] carries its node's set as a [`DetectorSet`] view, which
//! costs `O(1)` to make, so the decide and receive phases pay for the
//! detector only when a process tests membership — one word load on a
//! dense assignment.
//!
//! **Idle promises.** A process may promise that it is idle (see
//! [`Process`]'s *Idle promises*): `idle_until` names the first local round
//! in which its `decide` must run again. When `P::IDLES` is set, the engine
//! keeps one `skip_until` entry per node, the promise as a global round
//! (`local + wake − 1`, saturating), and re-reads it after every `decide`
//! and `receive` call. While `r < skip_until[v]`, the shared decide phase
//! skips node `v`, and both receive loops skip it when it hears `⊥` — after
//! the delivery and collision counters are updated, so a message always
//! reaches its listener. The Section 4 MIS promises for knocked-out and
//! covered nodes, which on a clique are nearly all of them. Every promise
//! line sits behind `if P::IDLES`, so it compiles out for processes that
//! keep the default. `step_legacy` ignores promises and stays the oracle;
//! it and `procs_mut` reset every entry to 0, so the next production round
//! calls every awake `decide` again and mixing tiers on one engine stays
//! exact.
//!
//! **Sparse rounds.** With promises, a production round costs what happens
//! in it: a quiet round is `O(⌈n/64⌉)` word operations, not three `O(n)`
//! passes.
//!
//! * *Due set.* One bit per node (`due`) marks the processes whose
//!   `decide` runs next round, and `next_wake` is the earliest round at
//!   which a node outside it becomes due, by its wake round or its
//!   promise. The decide phase walks the set bits in node order, so the
//!   call order is unchanged. After each `decide` or `receive` call on `v`
//!   in round `r`, `v` stays in `due` iff its promise is at most `r + 1`;
//!   otherwise its bit clears and `next_wake` drops to the promise if that
//!   is smaller. A message that wakes a sleeper thus puts it back at once.
//! * *Refresh.* A round that reaches `next_wake` first rebuilds `due` and
//!   `next_wake` from the wake rounds and `skip_until` in one `O(n)` pass —
//!   for the MIS, at each epoch start and each distinct wake round.
//! * *Visit set.* A listener is visited iff it was reached this round, or
//!   it decided this round and its promise still lets it hear `⊥` (the
//!   decide phase records that in `bit_listen`). The bitset tier walks
//!   `bit_seen | bit_listen`; the scalar tier sets a listener's `bit_seen`
//!   bit when it first stamps its counter and walks the same union. Both
//!   count deliveries and collisions over the same listeners as before.
//! * *First outputs.* Outputs change only inside a process's own calls or
//!   through `procs_mut` (see [`Process`]), so the engine records
//!   `decided_round` right after each call, and `finish_round` scans every
//!   output only after spawn, after `procs_mut` and in `step_legacy`
//!   rounds.
//! * *Resets.* `step_legacy` and `procs_mut` also force a refresh
//!   (`next_wake = 0`) and the output scan, so the next production round
//!   sees every promise a legacy call changed.
//!
//! A process without promises runs the same loops with every node of each
//! word as the bits, so its RNG order and its per-round cost are as before;
//! `P::IDLES` selects only where the bits come from, and `finish_round`
//! keeps its full scan for it.
//!
//! The scratch invariants:
//!
//! * `msgs`, `broadcasting`, `reach_*` are exactly `n` long from spawn and
//!   are overwritten (not reallocated) every round; only the round's
//!   broadcasters have their `broadcasting` flag set, and the next round
//!   clears those through the broadcaster list;
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
//!   alternates empty and dense broadcast rounds. The scalar tier clears
//!   `bit_seen` under the same rule when the process makes promises, and
//!   every decide phase rewrites `bit_listen` word by word.
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
    /// A pinned [`StepMode::Bitset`] engine would need more than 1 GiB of
    /// bitmask rows.
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
                 {MAX_BIT_ROWS_BYTES}-byte cap of the bitset tier"
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
}

/// Largest `n` at which [`StepMode::Auto`] may pick the bitset tier: the
/// bitmask rows cost `n·⌈n/64⌉` words (32 MiB at this cap), past which
/// the CSR scatter's cache behavior wins and the million-node direction
/// wants implicit topologies anyway.
const MAX_AUTO_BITSET_N: usize = 16_384;

/// Largest bitmask-row footprint (1 GiB) a pinned [`StepMode::Bitset`]
/// engine may allocate; larger networks fail to spawn with
/// [`EngineError::BitRowsTooLarge`] instead of exhausting memory. `Auto`
/// never comes near it (its bitset cap is 32 MiB of rows).
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
    /// bitset engine's rows would exceed 1 GiB.
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
        let bit_rows = mode == StepMode::Bitset;
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
            skip_until: vec![0; if P::IDLES { n } else { 0 }],
            due: vec![0; if P::IDLES { n.div_ceil(64) } else { 0 }],
            next_wake: 0,
            scan_outputs: true,
            static_det,
            mode,
            scratch: RoundScratch::new(n, extra_capacity, P::IDLES),
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
    /// Whether each node broadcast this round. Only the flags of the
    /// round's broadcasters are set, and the next round clears them
    /// through `broadcasters`.
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
    /// Listeners reached at least once this round, one bit per node.
    /// Cleared (never reallocated) every round by the bitset tier, and by
    /// the scalar tier when the process idles (see the module docs'
    /// *Sparse rounds*).
    bit_seen: Vec<u64>,
    /// Bitset tier: listeners reached at least twice this round (the
    /// carry-save "seen twice" half of the pair).
    bit_collide: Vec<u64>,
    /// The nodes that decided this round and still hear `⊥` (their promise
    /// is at most the round), one bit per node. Rewritten word by word by
    /// every decide phase. Empty unless the process idles.
    bit_listen: Vec<u64>,
}
// lint: end-no-alloc

impl<M> RoundScratch<M> {
    fn new(n: usize, extra_capacity: usize, idles: bool) -> Self {
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
            bit_listen: vec![0; if idles { n.div_ceil(64) } else { 0 }],
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
    /// Per node, the global round before which its process promised to stay
    /// idle (see the module docs' *Idle promises*). Empty unless `P::IDLES`.
    skip_until: Vec<u64>,
    /// One bit per node: the processes whose `decide` the next production
    /// round calls (see the module docs' *Sparse rounds*). Empty unless
    /// `P::IDLES`.
    due: Vec<u64>,
    /// No node outside `due` becomes due before this round; a round that
    /// reaches it rebuilds `due` first. `0` forces the rebuild.
    next_wake: u64,
    /// Whether the next `finish_round` scans every output for first-output
    /// rounds. Always scanned when the process does not idle; otherwise set
    /// at spawn, by `procs_mut` and by `step_legacy`.
    scan_outputs: bool,
    /// A shared handle on the provider's sets when it is static (see
    /// [`DetectorProvider::static_assignment`]); `None` for genuinely
    /// dynamic detectors.
    static_det: Option<LinkDetectorAssignment>,
    /// The resolved delivery tier the run loops step through (never
    /// [`StepMode::Auto`] after spawn).
    mode: StepMode,
    scratch: RoundScratch<P::Msg>,
}

/// The bits of word `w` that name nodes of an `n`-node network: all 64
/// except in a partial last word.
#[inline]
fn node_bits(n: usize, w: usize) -> u64 {
    match n - (w << 6) {
        rest @ 0..=63 => (1 << rest) - 1,
        _ => !0,
    }
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
    /// reach counters. Cost per round, for `B` broadcasters:
    /// `O(⌈n/64⌉ + |due| + Σ deg(B) + extra edges + |visited|)`, where the
    /// due deciders and visited listeners are every awake node for a process
    /// that keeps the default promise, and only the ones the module docs'
    /// *Sparse rounds* name for one that idles (plus `O(n)` on the rounds a
    /// promise lapses).
    // lint: begin-no-alloc
    pub fn step(&mut self) {
        // Phase 1: every due process decides (see `decide_phase`).
        let broadcaster_count = self.decide_phase();
        let n = self.net.n();
        let r = self.round;

        // Phase 2: the adversary picks the round's unreliable reach edges;
        // `extra` keeps the validated ones that can change a reception.
        let extra_count = self.adversary_phase();

        // Phase 3: reach. Each broadcaster scatters its CSR row into the
        // stamped counters, then each activated unreliable edge bumps its
        // listening endpoint. The epoch advances every round — including
        // broadcaster-less ones, where stale reach state from earlier
        // rounds must not deliver. A promising process also marks each
        // listener's first stamp in `bit_seen`, cleared under the same rule.
        self.scratch.epoch += 1;
        if P::IDLES {
            self.scratch.bit_seen.fill(0);
        }
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
                bit_seen,
                ..
            } = &mut self.scratch;
            let mut bump = |from: u32, to: usize| {
                if reach_stamp[to] != epoch {
                    reach_stamp[to] = epoch;
                    reach_count[to] = 1;
                    reach_first[to] = from;
                    if P::IDLES {
                        bit_seen[to >> 6] |= 1 << (to & 63);
                    }
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
        // ⊥. Sleeping nodes neither broadcast nor receive. The loop visits
        // every node of each word, or, for a promising process, only the
        // reached and ⊥-hearing listeners.
        let epoch = self.scratch.epoch;
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for w in 0..n.div_ceil(64) {
            let mut pending = if P::IDLES {
                self.scratch.bit_seen[w] | self.scratch.bit_listen[w]
            } else {
                node_bits(n, w)
            };
            while pending != 0 {
                let v = (w << 6) | pending.trailing_zeros() as usize;
                pending &= pending - 1;
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
                if P::IDLES && delivered.is_none() && r < self.skip_until[v] {
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
                let msg = delivered.and_then(|u| self.scratch.msgs[u].as_ref());
                self.procs[v].receive(&mut ctx, msg);
                if P::IDLES {
                    self.after_call(v, r);
                }
            }
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
        if P::IDLES {
            // The oracle ignores promises; the next production round
            // re-reads every one, and this round rescans every output.
            self.skip_until.fill(0);
            self.next_wake = 0;
            self.scan_outputs = true;
        }

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
    /// source. Cost: `O(⌈n/64⌉·(B+1) + extra + |due| + |visited|)` word
    /// operations per round for `B` broadcasters, where the due deciders and
    /// visited listeners are every awake node for a process that keeps the
    /// default promise, and only the ones the module docs' *Sparse rounds*
    /// name for one that idles (plus `O(n)` on the rounds a promise
    /// lapses).
    ///
    /// Allocation-free in steady state. The bitmask rows are built (and
    /// cached on the network) at spawn for engines resolved to
    /// [`StepMode::Bitset`], or on the first call otherwise.
    // lint: begin-no-alloc
    pub fn step_bitset(&mut self) {
        // Phase 1: every due process decides (see `decide_phase`).
        let broadcaster_count = self.decide_phase();
        let n = self.net.n();
        let r = self.round;

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
        // neither => silence. Same receive-call order and visit rule as
        // `step`.
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for w in 0..words {
            let mut pending = if P::IDLES {
                self.scratch.bit_seen[w] | self.scratch.bit_listen[w]
            } else {
                node_bits(n, w)
            };
            while pending != 0 {
                let bit = pending & pending.wrapping_neg();
                pending ^= bit;
                let v = (w << 6) | bit.trailing_zeros() as usize;
                if self.wake_rounds[v] > r || self.scratch.broadcasting[v] {
                    continue;
                }
                let delivered = if self.scratch.bit_collide[w] & bit != 0 {
                    collisions += 1;
                    None
                } else if self.scratch.bit_seen[w] & bit != 0 {
                    deliveries += 1;
                    Some(self.scratch.reach_first[v] as usize)
                } else {
                    None
                };
                if P::IDLES && delivered.is_none() && r < self.skip_until[v] {
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
                let msg = delivered.and_then(|u| self.scratch.msgs[u].as_ref());
                self.procs[v].receive(&mut ctx, msg);
                if P::IDLES {
                    self.after_call(v, r);
                }
            }
        }
        // lint: end-rng-order(receive)
        self.finish_round(r, broadcaster_count, deliveries, collisions, extra_count);
    }
    // lint: end-no-alloc

    /// Phase 1 of every production tier: advance the round and let every
    /// due process decide, in node order — the loop (and therefore the
    /// per-process RNG draw order) of `step_legacy`'s phase 1, less the
    /// calls an idle promise makes moot. Returns the broadcaster count.
    ///
    /// Without promises every awake node is due. With them the loop walks
    /// the set bits of `due`, rebuilt first when some node outside it may
    /// have become due (see the module docs' *Sparse rounds*), and records
    /// in `bit_listen` who decided and still hears `⊥`.
    ///
    /// Idle nodes' `msgs` slots are left stale on purpose: delivery only
    /// ever dereferences the slot of a *current-round* broadcaster (via
    /// `reach_first`), and those slots are freshly written here.
    // lint: begin-no-alloc
    fn decide_phase(&mut self) -> u32 {
        let n = self.net.n();
        self.round += 1;
        let r = self.round;
        self.metrics.rounds = r;
        let RoundScratch {
            broadcasters,
            broadcasting,
            ..
        } = &mut self.scratch;
        for &u in broadcasters.iter() {
            broadcasting[u as usize] = false;
        }
        broadcasters.clear();
        if P::IDLES && r >= self.next_wake {
            self.refresh_due(r);
        }
        // lint: rng-order(decide)
        for w in 0..n.div_ceil(64) {
            let mut pending = if P::IDLES {
                self.due[w]
            } else {
                node_bits(n, w)
            };
            let mut listen = 0;
            while pending != 0 {
                let bit = pending & pending.wrapping_neg();
                pending ^= bit;
                let v = (w << 6) | bit.trailing_zeros() as usize;
                if self.wake_rounds[v] > r {
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
                if let Action::Broadcast(m) = self.procs[v].decide(&mut ctx) {
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
                if P::IDLES && self.after_call(v, r) <= r {
                    listen |= bit;
                }
            }
            if P::IDLES {
                self.scratch.bit_listen[w] = listen;
            }
        }
        // lint: end-rng-order(decide)
        self.scratch.broadcasters.len() as u32
    }
    // lint: end-no-alloc

    /// Rebuilds `due` and `next_wake` for round `r` from the wake rounds
    /// and promises: a node is due once it is awake and its promise has
    /// lapsed. `O(n)`, so it runs only in a round that reaches
    /// `next_wake`.
    // lint: begin-no-alloc
    fn refresh_due(&mut self, r: u64) {
        let mut next_wake = u64::MAX;
        let words = self.due.iter_mut();
        let nodes = self.wake_rounds.chunks(64).zip(self.skip_until.chunks(64));
        for (word, (wake, skip)) in words.zip(nodes) {
            *word = 0;
            for (i, (&a, &b)) in wake.iter().zip(skip).enumerate() {
                let due_at = a.max(b);
                if due_at <= r {
                    *word |= 1 << i;
                } else {
                    next_wake = next_wake.min(due_at);
                }
            }
        }
        self.next_wake = next_wake;
    }
    // lint: end-no-alloc

    /// Bookkeeping after a `decide` or `receive` call on node `v` in round
    /// `r`, made only when `P::IDLES`: re-reads the promise as a global
    /// round (the local `idle_until` shifted by the wake round,
    /// saturating), keeps `v` in `due` iff it must decide next round
    /// (lowering `next_wake` when it leaves), and records a first output.
    /// Returns the promise.
    // lint: begin-no-alloc
    #[inline]
    fn after_call(&mut self, v: usize, r: u64) -> u64 {
        let promise = self.procs[v]
            .idle_until()
            .saturating_add(self.wake_rounds[v] - 1);
        self.skip_until[v] = promise;
        let (w, bit) = (v >> 6, 1u64 << (v & 63));
        if promise <= r + 1 {
            self.due[w] |= bit;
        } else {
            self.due[w] &= !bit;
            self.next_wake = self.next_wake.min(promise);
        }
        if self.decided_round[v].is_none() && self.procs[v].output().is_some() {
            self.decided_round[v] = Some(r);
        }
        promise
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
    /// rounds, and the optional trace record. The output scan runs every
    /// round for a process that keeps the default promise; for one that
    /// idles, `after_call` records first outputs as calls happen, and the
    /// scan runs only when `scan_outputs` asks for it.
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
        if !P::IDLES || self.scan_outputs {
            self.scan_outputs = false;
            for v in 0..self.decided_round.len() {
                if self.decided_round[v].is_none() && self.procs[v].output().is_some() {
                    self.decided_round[v] = Some(r);
                }
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
    /// continuous CCDS that restart protocols between runs). Every idle
    /// promise lapses: the next round calls every awake `decide`, and its
    /// end rescans every output for first-output rounds.
    pub fn procs_mut(&mut self) -> &mut [P] {
        if P::IDLES {
            self.skip_until.fill(0);
            self.next_wake = 0;
            self.scan_outputs = true;
        }
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
        // n = 10⁵ needs 10⁵·1563 words ≈ 1.25 GB of rows: a pinned bitset
        // engine must refuse at spawn (before building them), while Auto
        // resolves the sparse path to scalar and spawns.
        let n = 100_000;
        let path =
            DualGraph::classic(Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap())
                .unwrap();
        let err = EngineBuilder::new(path.clone())
            .step_mode(StepMode::Bitset)
            .spawn(|_| Node::Chatter(Chatter))
            .map(|_| ());
        assert_eq!(
            err,
            Err(EngineError::BitRowsTooLarge {
                n,
                bytes: 1_250_400_000
            })
        );
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
        let run = |mode| {
            let mut e = EngineBuilder::new(circulant_net())
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

    /// G: dense circulant (70 nodes, offsets 1..=20, degree 40); G': the
    /// full clique, so E' \ E is a real unreliable layer.
    fn circulant_net() -> DualGraph {
        let mut edges = Vec::new();
        for i in 0..70usize {
            for d in 1..=20 {
                edges.push((i, (i + d) % 70));
            }
        }
        let g = Graph::from_edges(70, edges).unwrap();
        DualGraph::new(g, Graph::complete(70)).unwrap()
    }

    /// Broadcasts its id with probability 0.3 when it decides, then
    /// promises a nap of 0–5 rounds drawn from its own RNG (0 promises
    /// nothing). A message ends the nap. Counts the calls its promises let
    /// the engine skip, and whether a woken nap's next `decide` came on
    /// time.
    #[derive(Default)]
    struct Napper {
        /// First local round in which `decide` must run again.
        wake_at: u64,
        /// A message cut the current nap short.
        woken: bool,
        /// Broadcast inside naps, breaking the promise.
        liar: bool,
        decides: u64,
        /// `decide` calls inside a promised nap.
        nap_decides: u64,
        /// `receive(None)` calls inside a promised nap.
        nap_silences: u64,
        /// Messages that arrived inside a promised nap.
        nap_messages: u64,
        /// Woken naps whose next `decide` came after `wake_at`.
        late_wakes: u64,
        /// Every message heard, with its local round.
        heard: Vec<(u64, u32)>,
    }

    impl Process for Napper {
        type Msg = u32;
        const IDLES: bool = true;

        fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
            self.decides += 1;
            if std::mem::take(&mut self.woken) && ctx.local_round != self.wake_at {
                self.late_wakes += 1;
            }
            if ctx.local_round < self.wake_at {
                self.nap_decides += 1;
                return if self.liar {
                    Action::Broadcast(ctx.my_id.get())
                } else {
                    Action::Idle
                };
            }
            self.wake_at = ctx.local_round + ctx.rng.gen_range(0..6u64);
            if ctx.rng.gen_bool(0.3) {
                Action::Broadcast(ctx.my_id.get())
            } else {
                Action::Idle
            }
        }

        fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&u32>) {
            let napping = ctx.local_round < self.wake_at;
            match msg {
                Some(&m) => {
                    self.heard.push((ctx.local_round, m));
                    if napping {
                        self.nap_messages += 1;
                        self.wake_at = ctx.local_round + 1;
                        self.woken = true;
                    }
                }
                None => self.nap_silences += u64::from(napping),
            }
        }

        fn output(&self) -> Option<bool> {
            None
        }

        fn idle_until(&self) -> u64 {
            self.wake_at
        }
    }

    type Tier = fn(&mut Engine<Napper>);
    const PRODUCTION_TIERS: [Tier; 2] = [Engine::step, Engine::step_bitset];

    /// Napper engine over the circulant net; node `v` wakes at round
    /// `1 + v % 5`, so local and global rounds differ.
    fn napper_engine(liar: bool) -> Engine<Napper> {
        EngineBuilder::new(circulant_net())
            .seed(9)
            .adversary(crate::adversary::RandomUnreliable::new(0.5, 3))
            .wake_rounds((0..70).map(|v| 1 + v % 5).collect())
            .record_trace(true)
            .spawn(|_| Napper {
                liar,
                ..Napper::default()
            })
            .unwrap()
    }

    fn total(e: &Engine<Napper>, count: fn(&Napper) -> u64) -> u64 {
        e.procs().iter().map(count).sum()
    }

    #[test]
    fn production_tiers_skip_only_promised_naps() {
        let run = |step: Tier| {
            let mut e = napper_engine(false);
            for _ in 0..200 {
                step(&mut e);
            }
            e
        };
        let legacy = run(Engine::step_legacy);
        // The oracle ignores promises, so it calls into naps.
        assert!(total(&legacy, |p| p.nap_decides) > 0);
        assert!(total(&legacy, |p| p.nap_silences) > 0);
        for step in PRODUCTION_TIERS {
            let e = run(step);
            assert_eq!(total(&e, |p| p.nap_decides), 0, "decide inside a nap");
            assert_eq!(total(&e, |p| p.nap_silences), 0, "⊥ inside a nap");
            assert_eq!(total(&e, |p| p.late_wakes), 0, "a message did not wake");
            assert!(total(&e, |p| p.nap_messages) > 0, "no message hit a nap");
            assert_eq!(e.trace(), legacy.trace());
            assert_eq!(e.metrics(), legacy.metrics());
            for (p, q) in e.procs().iter().zip(legacy.procs()) {
                assert_eq!(p.heard, q.heard);
            }
        }
    }

    #[test]
    fn a_false_promise_diverges_from_the_oracle() {
        // A liar broadcasts inside its naps. The production tiers trust
        // the promise and skip those decides; the oracle calls them.
        let trace = |step: Tier| {
            let mut e = napper_engine(true);
            for _ in 0..50 {
                step(&mut e);
            }
            e.trace().unwrap().clone()
        };
        let legacy = trace(Engine::step_legacy);
        for step in PRODUCTION_TIERS {
            assert_ne!(trace(step), legacy);
        }
    }

    #[test]
    fn lapsed_promises_call_every_awake_decide() {
        // Node 69 sleeps through the test; everyone else wakes at round 1.
        let mut wake = vec![1; 70];
        wake[69] = 1_000;
        let lapses: [fn(&mut Engine<Napper>); 2] = [
            |e| {
                e.procs_mut();
            },
            Engine::step_legacy,
        ];
        for lapse in lapses {
            for step in PRODUCTION_TIERS {
                let mut e = EngineBuilder::new(circulant_net())
                    .seed(4)
                    .wake_rounds(wake.clone())
                    .spawn(|_| Napper::default())
                    .unwrap();
                for _ in 0..20 {
                    step(&mut e);
                }
                lapse(&mut e);
                // Someone is mid-nap, so only the lapse makes it decide.
                let next = e.round() + 1;
                assert!(e.procs().iter().any(|p| p.wake_at > next));
                let before: Vec<u64> = e.procs().iter().map(|p| p.decides).collect();
                step(&mut e);
                for (v, p) in e.procs().iter().enumerate() {
                    assert_eq!(p.decides - before[v], u64::from(v != 69), "node {v}");
                }
            }
        }
    }

    /// Node 0 is a beacon: it promises nothing and broadcasts every third
    /// local round. Every other node broadcasts its id with probability
    /// 0.3 when it decides, then promises `u64::MAX` until a message wakes
    /// it, so no nap ever lapses: only the engine's bookkeeping after a
    /// call brings a sleeper back. Outputs once it hears a message, unless
    /// `out` was set first.
    #[derive(Default)]
    struct Sleeper {
        beacon: bool,
        /// First local round in which `decide` must run again.
        wake_at: u64,
        /// A message cut the current nap short.
        woken: bool,
        /// Woken naps whose next `decide` came after `wake_at`.
        late_wakes: u64,
        /// Every message heard, with its local round.
        heard: Vec<(u64, u32)>,
        out: Option<bool>,
    }

    impl Process for Sleeper {
        type Msg = u32;
        const IDLES: bool = true;

        fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
            if std::mem::take(&mut self.woken) && ctx.local_round != self.wake_at {
                self.late_wakes += 1;
            }
            let broadcast = if self.beacon {
                ctx.local_round.is_multiple_of(3)
            } else if ctx.local_round < self.wake_at {
                false
            } else {
                self.wake_at = u64::MAX;
                ctx.rng.gen_bool(0.3)
            };
            if broadcast {
                Action::Broadcast(ctx.my_id.get())
            } else {
                Action::Idle
            }
        }

        fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&u32>) {
            if let Some(&m) = msg {
                self.heard.push((ctx.local_round, m));
                self.out.get_or_insert(true);
                if !self.beacon && ctx.local_round < self.wake_at {
                    self.wake_at = ctx.local_round + 1;
                    self.woken = true;
                }
            }
        }

        fn output(&self) -> Option<bool> {
            self.out
        }

        fn idle_until(&self) -> u64 {
            if self.beacon {
                0
            } else {
                self.wake_at
            }
        }
    }

    type SleeperTier = fn(&mut Engine<Sleeper>);

    /// Steps `e` for `rounds` rounds, switching to the next of `tiers`
    /// (cyclically) every five rounds.
    fn step_in_stints(e: &mut Engine<Sleeper>, rounds: u64, tiers: &[SleeperTier]) {
        for _ in 0..rounds {
            tiers[(e.round() / 5) as usize % tiers.len()](e);
        }
    }

    /// Pure scalar, pure bitset, and both interleaved with the oracle.
    const SLEEPER_RUNS: [&[SleeperTier]; 3] = [
        &[Engine::step],
        &[Engine::step_bitset],
        &[Engine::step, Engine::step_legacy, Engine::step_bitset],
    ];

    /// G: a 70-node ring joining each node to the next two; G': the next
    /// four. Sparse, so a sleeper's wake travels as a wave instead of
    /// colliding everywhere at once.
    fn ring_net() -> DualGraph {
        let ring = |k: usize| {
            Graph::from_edges(
                70,
                (0..70).flat_map(|i| (1..=k).map(move |d| (i, (i + d) % 70))),
            )
            .unwrap()
        };
        DualGraph::new(ring(2), ring(4)).unwrap()
    }

    fn sleeper_engine(
        seed: u64,
        wake_rounds: Vec<u64>,
        out: impl Fn(usize) -> Option<bool>,
    ) -> Engine<Sleeper> {
        EngineBuilder::new(ring_net())
            .seed(seed)
            .adversary(crate::adversary::RandomUnreliable::new(0.5, 8))
            .wake_rounds(wake_rounds)
            .record_trace(true)
            .spawn(|info| Sleeper {
                beacon: info.node.index() == 0,
                out: out(info.node.index()),
                ..Sleeper::default()
            })
            .unwrap()
    }

    fn decided_rounds<P: Process>(e: &Engine<P>) -> Vec<Option<u64>> {
        (0..e.net().n())
            .map(|v| e.decided_round(NodeId(v)))
            .collect()
    }

    #[test]
    fn woken_sleepers_match_the_oracle_on_interleaved_tiers() {
        // Everyone wakes at round 1, so the only rebuild of the due set
        // after round 1 comes from a `step_legacy` round: a sleeper that a
        // message wakes must be brought back by the call's own bookkeeping.
        let capture = |tiers: &[SleeperTier]| {
            let mut e = sleeper_engine(6, vec![1; 70], |_| None);
            step_in_stints(&mut e, 150, tiers);
            let late: u64 = e.procs().iter().map(|p| p.late_wakes).sum();
            assert_eq!(
                late,
                0,
                "a woken sleeper decided late ({} tiers)",
                tiers.len()
            );
            let heard: Vec<_> = e.procs().iter().map(|p| p.heard.clone()).collect();
            (
                e.trace().unwrap().clone(),
                *e.metrics(),
                heard,
                decided_rounds(&e),
            )
        };
        let oracle = capture(&[Engine::step_legacy]);
        // The beacon alone broadcasts 50 times; the rest come from woken
        // sleepers, which keep waking to the end.
        assert!(
            oracle.1.broadcasts > 100,
            "{} broadcasts",
            oracle.1.broadcasts
        );
        let tail = &oracle.0.rounds[120..];
        assert!(tail.iter().map(|rec| rec.broadcasters).sum::<u32>() > tail.len() as u32 / 3);
        for tiers in SLEEPER_RUNS {
            assert_eq!(capture(tiers), oracle, "diverged ({} tiers)", tiers.len());
        }
    }

    #[test]
    fn first_output_rounds_match_the_oracle_on_every_path() {
        // Node 1 outputs at spawn and sleeps until round 50; node 2 sleeps
        // until round 100, and `procs_mut` sets its output after round 30.
        // Neither is called before it wakes, so only the output scans after
        // spawn and after `procs_mut` can date them.
        let mut wake = vec![1; 70];
        wake[1] = 50;
        wake[2] = 100;
        let capture = |tiers: &[SleeperTier]| {
            let mut e = sleeper_engine(2, wake.clone(), |v| (v == 1).then_some(false));
            step_in_stints(&mut e, 30, tiers);
            e.procs_mut()[2].out = Some(true);
            step_in_stints(&mut e, 90, tiers);
            decided_rounds(&e)
        };
        let oracle = capture(&[Engine::step_legacy]);
        assert_eq!(oracle[1], Some(1));
        assert_eq!(oracle[2], Some(31));
        // Most nodes output inside a `receive`, dated by the call itself.
        assert!(oracle.iter().filter(|d| d.is_some_and(|r| r > 1)).count() > 30);
        for tiers in SLEEPER_RUNS {
            // Round 1 and round 31 are production rounds on every run.
            assert_eq!(capture(tiers), oracle, "{} tiers", tiers.len());
        }
    }
}
