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
//! Stepping is the hot path of every experiment. It comes as **the oracle
//! and one production step**, pinned to each other by golden-trace tests
//! (identical traces, transcripts, metrics, and outputs for the same seed):
//!
//! 1. [`Engine::step_legacy`] — the seed implementation, kept verbatim.
//!    Allocates per-round buffers and scans every listener's full
//!    neighborhood; the reference everything else is measured and tested
//!    against.
//! 2. [`Engine::step`] — the production step. **Steady-state zero heap
//!    allocation**: every per-round buffer lives in `RoundScratch`, sized
//!    once at spawn and overwritten (never freed) each round. Reach is a
//!    carry-save pair of bit planes of `⌈n/64⌉` words: `bit_seen` marks the
//!    listeners reached at least once, `bit_collide` those reached at least
//!    twice, and `reach_first` holds the source of each listener reached
//!    exactly once. Delivery is *broadcaster-centric*: one of two **reach
//!    kernels**, fixed at spawn, fills the planes from the broadcasters'
//!    rows, then the broadcasters' activated unreliable edges overlay single
//!    bits, and one receive loop reads the planes.
//!
//! The two reach kernels, for `B` broadcasters:
//!
//! * *Scatter kernel* ([`StepMode::Scalar`]). Each broadcaster walks its
//!   CSR row ([`crate::CsrGraph`], sorted ascending), ORs the neighbors
//!   that share a word into a register and folds each word into the planes
//!   once (`collide |= seen & acc; seen |= acc`). It writes `reach_first`
//!   for every neighbor; a listener reached once has exactly one writer.
//!   Cost `O(Σ_{b∈B} deg(b))` — on sparse broadcast schedules (MIS-style
//!   contention reduction) far below the seed's `O(Σ deg(listeners))`
//!   scan.
//! * *Row kernel* ([`StepMode::Bitset`]). Each broadcaster's bitmask row
//!   ([`crate::BitRows`], `⌈n/64⌉` words per node) ORs into the planes word
//!   by word, then a second row pass records the source of every bit that
//!   was reached once (`row & seen & !collide`): `O(B·⌈n/64⌉)` word
//!   operations, a ~64× narrower inner loop than the scatter on dense
//!   graphs.
//!
//! Both kernels start from planes cleared at the top of phase 3 **every
//! round, including broadcaster-less ones**, where stale bits from an
//! earlier round must not deliver. The clear costs `O(⌈n/64⌉)`, which the
//! receive loop's walk over the plane words pays anyway.
//!
//! **One decide phase.** Phase 1 of `step` is `Engine::decide_phase`:
//! advance the round, then let every due process decide in node order
//! (every awake one, less the promised naps below). `step_legacy` keeps
//! its own copy of the loop, and of the receive loop, as the oracle.
//!
//! **One adversary phase.** Phase 2 of `step` is
//! `Engine::adversary_phase`. The adversary marks the round's activated
//! edges in a bitmask over `E' \ E` (see [`Adversary`]), cleared before
//! each call and sized at spawn: bit `i` is edge `i` of
//! [`DualGraph::unreliable_edge_list`]. Only an activated edge with
//! exactly one broadcasting endpoint can change a reception, so the phase
//! reads the mask only along the broadcasters' unreliable rows: the
//! network freezes the edge index of each unreliable CSR slot
//! ([`DualGraph::unreliable_edge_ids`]), and slot `(b, v)` of broadcaster
//! `b`'s row enters `extra` iff its bit is set and `v` does not broadcast.
//! That costs `O(⌈m'/64⌉ + Σ_{b∈B} deg_U(b))` for `m'` unreliable edges,
//! whatever the adversary activates. A mask cannot name an out-of-range
//! pair, a self-loop, a reliable edge or a duplicate, so nothing is
//! normalized or validated. The trace's `RoundRecord::extra_edges` is the
//! popcount of the mask's first `m'` bits, the count `step_legacy` records
//! after expanding the mask into pairs; bits past the last edge never
//! deliver and never count. Phase 3 then adds each `extra` pair at its
//! listener with no further checks.
//!
//! **Kernel selection.** The reach kernel is picked once at spawn via
//! [`EngineBuilder::step_mode`]. The default, [`StepMode::Auto`], chooses
//! the row kernel when the reliable layer's average degree exceeds three
//! row widths (`edge_slots ≥ 3·n·⌈n/64⌉` — the break-even point of the
//! row passes a round makes against the CSR scatter, computed with checked
//! arithmetic so a pathological `n` can never wrap the product and
//! mis-select a kernel) and `n` is small enough that the rows'
//! `n·⌈n/64⌉` words stay cache-friendly (`n ≤ 16384`); otherwise the
//! scatter kernel runs. Dense workloads (cliques, dense RGGs) land on
//! rows, sparse ones (paths, bounded degree) on the scatter. `step_legacy`
//! is never selected — it exists as the differential reference and
//! benchmark baseline.
//!
//! **Shared frozen topology.** Per-topology state is immutable and
//! shared, never copied per engine: a [`DualGraph`] clone is a handle on
//! one frozen network (CSR layers, unreliable list, bitmask rows),
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
//! and `receive` call. While `r < skip_until[v]`, the decide phase skips
//! node `v`, and the receive loop skips it when it hears `⊥` or a message
//! it promises to ignore ([`Process::ignores`]) — after the delivery and
//! collision counters are updated, so the counts are as before and any
//! other message reaches its listener. The Section 4 MIS promises for
//! knocked-out and covered nodes, which on a clique are nearly all of
//! them, and a covered node ignores contenders and the announcers it
//! already knows. Every promise line sits behind `if P::IDLES`, so it
//! compiles out for processes that keep the default. `step_legacy` ignores
//! promises and calls every `receive`, so it stays the oracle; it and
//! `procs_mut` reset every entry to 0, so the next production round calls
//! every awake `decide` again and mixing `step` and `step_legacy` on one
//! engine stays exact.
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
//!   decide phase records that in `bit_listen`). The receive loop walks
//!   `bit_seen | bit_listen` and counts deliveries and collisions over the
//!   same listeners as before; a reached listener inside its promise is
//!   then called unless it promises to ignore the message.
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
//! * `msgs`, `broadcasting` and `reach_first` are exactly `n` long from
//!   spawn and are overwritten (not reallocated) every round; only the round's
//!   broadcasters have their `broadcasting` flag set, and the next round
//!   clears those through the broadcaster list;
//! * `mask` is `⌈m'/64⌉` words from spawn and cleared before every
//!   adversary call; `extra` holds the round's (broadcaster, listener)
//!   pairs, at most one per unreliable edge, so its spawn capacity of `m'`
//!   never grows;
//! * `bit_seen`/`bit_collide` are `⌈n/64⌉` words and cleared (not
//!   reallocated) **every round**, including broadcaster-less ones, under
//!   either kernel — enforced by a regression test that alternates empty
//!   and dense broadcast rounds. `reach_first` is read only for a listener
//!   whose `bit_seen` bit is set and `bit_collide` bit clear, and this
//!   round's kernel or overlay wrote it then, so it is never cleared; every
//!   decide phase rewrites `bit_listen` word by word.
//!
//! `BENCH_engine.json` tracks each kernel's throughput against the oracle
//! PR-over-PR.

use crate::adversary::{Adversary, ReliableOnly};
use crate::detector::{DetectorSet, LinkDetectorAssignment};
use crate::dynamic::DetectorProvider;
use crate::graph::low_bits;
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
                 {MAX_BIT_ROWS_BYTES}-byte cap of the row kernel"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Which reach kernel [`Engine::step`] fills its seen/collide planes with
/// (see the module docs' *Performance architecture*). `step_legacy` is not
/// selectable — it is the differential reference, not a production step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Resolve to [`StepMode::Scalar`] or [`StepMode::Bitset`] at spawn by
    /// the density rule in the module docs.
    #[default]
    Auto,
    /// Always scatter each broadcaster's CSR row.
    Scalar,
    /// Always OR each broadcaster's bitmask row (built at spawn).
    Bitset,
}

/// Largest `n` at which [`StepMode::Auto`] may pick the row kernel: the
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

/// The row kernel's break-even edge-slot threshold, `3·n·⌈n/64⌉`, or
/// `None` when the product would overflow `usize`. An overflowing
/// threshold is unreachably large — no graph can have that many edge
/// slots — so callers must treat `None` as "not dense" rather than let a
/// wrapped product mis-select the kernel for a pathological `n`.
fn bitset_break_even(n: usize) -> Option<usize> {
    n.div_ceil(64).checked_mul(n)?.checked_mul(3)
}

/// The density rule behind [`StepMode::Auto`]: a row-kernel round makes
/// three row passes of `⌈n/64⌉` words per broadcaster, so it pays off once
/// the average reliable degree exceeds three row widths.
fn auto_step_mode(net: &DualGraph) -> StepMode {
    let n = net.n();
    let dense = n > 0
        && n <= MAX_AUTO_BITSET_N
        && bitset_break_even(n).is_some_and(|t| net.g().edge_slots() >= t);
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

    /// Sets which reach kernel [`Engine::step`] runs (default:
    /// [`StepMode::Auto`] — resolved by density at spawn). Both kernels
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
    /// row-kernel engine's rows would exceed 1 GiB.
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
        let unreliable_edges = self.net.unreliable_edge_count();
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
            scratch: RoundScratch::new(n, unreliable_edges, P::IDLES),
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
    /// The adversary's activated unreliable edges, one bit per edge of
    /// `net.unreliable_edge_list()` (`⌈m'/64⌉` words), cleared before
    /// every adversary call.
    mask: Vec<u64>,
    /// The activated edges that can change a reception, as (broadcaster,
    /// listener) pairs. Each edge has at most one broadcasting endpoint
    /// here, so `m'` slots always suffice.
    extra: Vec<(u32, u32)>,
    /// The delivering broadcaster per listener, valid this round iff the
    /// listener's `bit_seen` bit is set and its `bit_collide` bit clear.
    reach_first: Vec<u32>,
    /// Listeners reached at least once this round, one bit per node.
    /// Cleared (never reallocated) every round.
    bit_seen: Vec<u64>,
    /// Listeners reached at least twice this round (the carry-save "seen
    /// twice" half of the pair). Cleared every round.
    bit_collide: Vec<u64>,
    /// The nodes that decided this round and still hear `⊥` (their promise
    /// is at most the round), one bit per node. Rewritten word by word by
    /// every decide phase. Empty unless the process idles.
    bit_listen: Vec<u64>,
}
// lint: end-no-alloc

impl<M> RoundScratch<M> {
    fn new(n: usize, unreliable_edges: usize, idles: bool) -> Self {
        RoundScratch {
            msgs: (0..n).map(|_| None).collect(),
            broadcasting: vec![false; n],
            broadcasters: Vec::with_capacity(n),
            mask: vec![0; unreliable_edges.div_ceil(64)],
            extra: Vec::with_capacity(unreliable_edges),
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
    /// The reach kernel `step` runs, resolved at spawn (never
    /// [`StepMode::Auto`]).
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
    /// engine's scratch (see the module docs). Reach is a carry-save pair
    /// of seen/collide bit planes, filled by the reach kernel resolved at
    /// spawn ([`Engine::step_mode`]) and read by one receive loop. Cost per
    /// round, for `B` broadcasters and `m'` unreliable edges, besides the
    /// adversary's own work: `O(⌈n/64⌉ + ⌈m'/64⌉ + |due| + K +
    /// Σ_{b∈B} deg_U(b) + |visited|)`, where the kernel's `K` is
    /// `Σ_{b∈B} deg(b)` for the CSR scatter and `B·⌈n/64⌉` for the rows,
    /// and the due deciders and visited listeners are every awake node for
    /// a process that keeps the default promise, and only the ones the
    /// module docs' *Sparse rounds* name for one that idles (plus `O(n)` on
    /// the rounds a promise lapses).
    // lint: begin-no-alloc
    pub fn step(&mut self) {
        // Phase 1: every due process decides (see `decide_phase`).
        let broadcaster_count = self.decide_phase();
        let n = self.net.n();
        let r = self.round;

        // Phase 2: the adversary marks the round's unreliable reach edges;
        // `extra` receives the ones that can change a reception.
        let extra_count = self.adversary_phase();

        // Phase 3: carry-save reach. The planes are cleared every round —
        // including broadcaster-less ones, where stale bits from an earlier
        // round must not deliver.
        let words = n.div_ceil(64);
        let RoundScratch {
            broadcasters,
            extra,
            reach_first,
            bit_seen,
            bit_collide,
            ..
        } = &mut self.scratch;
        bit_seen.fill(0);
        bit_collide.fill(0);
        if broadcaster_count > 0 {
            if self.mode == StepMode::Bitset {
                // Row kernel: OR every broadcaster row into the planes, then
                // record the source of each bit reached once. A bit that the
                // overlay below collides keeps a slot nobody reads.
                let rows = self.net.g_bit_rows();
                for &u in broadcasters.iter() {
                    let row = rows.row(u as usize);
                    for w in 0..words {
                        bit_collide[w] |= bit_seen[w] & row[w];
                        bit_seen[w] |= row[w];
                    }
                }
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
            } else {
                // Scatter kernel: the sorted CSR row's neighbors that share a
                // word gather in `acc`, and each word folds into the planes
                // once. A listener reached once has one writer of its slot.
                let csr = self.net.g();
                let mut fold = |w: usize, acc: u64| {
                    bit_collide[w] |= bit_seen[w] & acc;
                    bit_seen[w] |= acc;
                };
                for &u in broadcasters.iter() {
                    let (mut w, mut acc) = (0, 0);
                    for &v in csr.neighbors(u as usize) {
                        let v = v as usize;
                        reach_first[v] = u;
                        if v >> 6 != w {
                            fold(w, acc);
                            (w, acc) = (v >> 6, 0);
                        }
                        acc |= 1 << (v & 63);
                    }
                    fold(w, acc);
                }
            }
            // Unreliable overlay: each activated edge adds a single bit at
            // its listener. E' \ E is disjoint from E, so an extra edge
            // never double-counts a row delivery from the same broadcaster.
            for &(from, to) in extra.iter() {
                let (w, bit) = (to as usize >> 6, 1u64 << (to & 63));
                if bit_seen[w] & bit != 0 {
                    bit_collide[w] |= bit;
                } else {
                    bit_seen[w] |= bit;
                    reach_first[to as usize] = from;
                }
            }
        }

        // Delivery: read each listener's bit pair — collide => ⊥ with a
        // collision counted, seen => the recorded source's message, neither
        // => silence. Sleeping nodes neither broadcast nor receive. The loop
        // visits every node of each word, or, for a promising process, only
        // the reached and ⊥-hearing listeners, and skips a listener inside
        // its promise that hears ⊥ or a message it ignores.
        let mut deliveries = 0u32;
        let mut collisions = 0u32;
        // lint: rng-order(receive)
        for w in 0..words {
            let (seen, collide) = (self.scratch.bit_seen[w], self.scratch.bit_collide[w]);
            let mut pending = if P::IDLES {
                seen | self.scratch.bit_listen[w]
            } else {
                low_bits(n, w)
            };
            while pending != 0 {
                let bit = pending & pending.wrapping_neg();
                pending ^= bit;
                let v = (w << 6) | bit.trailing_zeros() as usize;
                if self.wake_rounds[v] > r || self.scratch.broadcasting[v] {
                    continue;
                }
                let delivered = if collide & bit != 0 {
                    collisions += 1;
                    None
                } else if seen & bit != 0 {
                    deliveries += 1;
                    Some(self.scratch.reach_first[v] as usize)
                } else {
                    None
                };
                let msg = delivered.and_then(|u| self.scratch.msgs[u].as_ref());
                if P::IDLES
                    && r < self.skip_until[v]
                    && msg.is_none_or(|m| self.procs[v].ignores(m))
                {
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

        // Phase 2: the adversary marks the round's unreliable reach edges
        // in a fresh mask; every set bit below m' names one edge.
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut broadcasters = Vec::new();
        for v in 0..n {
            if broadcasting[v] {
                broadcasters.push(v as u32);
            }
        }
        let edges = self.net.unreliable_edge_list();
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut mask = vec![0u64; edges.len().div_ceil(64)];
        self.adversary
            .extra_edges(r, &self.net, &broadcasting, &broadcasters, &mut mask);
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut extra: Vec<(usize, usize)> = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            if mask[i >> 6] >> (i & 63) & 1 == 1 {
                extra.push(e);
            }
        }
        // Defensive filtering: keep only genuine unreliable edges, dedupe.
        let net = &self.net;
        extra.retain(|&(u, v)| u < n && v < n && net.is_unreliable_edge(u, v));
        for e in &mut extra {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        extra.sort_unstable();
        extra.dedup();
        let extra_count = extra.len() as u32;

        // Per-listener extra reach: broadcasters connected by an activated
        // unreliable edge.
        // lint:allow(no-alloc-region) seed tier allocates its per-round buffers by design
        let mut extra_from: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in &extra {
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
                let u = u as usize;
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

    /// Phase 1 of `step`: advance the round and let every due process
    /// decide, in node order — the loop (and therefore the
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
                low_bits(n, w)
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

    /// Phase 2 of `step`: the adversary marks the round's
    /// activated unreliable edges in the cleared `scratch.mask`, and
    /// `scratch.extra` receives every marked edge `(b, v)` from a
    /// broadcaster `b` to a listener `v` — the only activated edges that
    /// can change a reception — by a walk of each broadcaster's unreliable
    /// row. An edge with two broadcasting endpoints is skipped from both
    /// sides, so each edge enters at most once.
    ///
    /// Returns how many edges the mask activates, its popcount below `m'`:
    /// the count `step_legacy` records. A round that activates nothing
    /// skips the walk. Cost `O(⌈m'/64⌉ + Σ_{b∈B} deg_U(b))` besides the
    /// adversary's own work.
    // lint: begin-no-alloc
    fn adversary_phase(&mut self) -> u32 {
        let RoundScratch {
            broadcasting,
            broadcasters,
            mask,
            extra,
            ..
        } = &mut self.scratch;
        mask.fill(0);
        self.adversary
            .extra_edges(self.round, &self.net, broadcasting, broadcasters, mask);
        // Bits past the last edge of the final word name no edge.
        let m = self.net.unreliable_edge_count();
        let mut activated = 0;
        for (w, word) in mask.iter().enumerate() {
            activated += (word & low_bits(m, w)).count_ones();
        }
        extra.clear();
        if activated > 0 {
            let unreliable = self.net.unreliable_csr();
            for &b in broadcasters.iter() {
                let row = unreliable.neighbors(b as usize);
                for (&v, &e) in row.iter().zip(self.net.unreliable_edge_ids(b as usize)) {
                    if mask[e as usize >> 6] >> (e & 63) & 1 == 1 && !broadcasting[v as usize] {
                        extra.push((b, v));
                    }
                }
            }
        }
        activated
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
            self.step();
        }
    }

    /// Runs exactly `rounds` additional rounds (regardless of outputs).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// The reach kernel [`Engine::step`] runs, resolved at spawn (never
    /// [`StepMode::Auto`]).
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
        assert_eq!(at.g().edge_slots(), 192);
        assert_eq!(auto_step_mode(&at), StepMode::Bitset);
        let below = graph_with_edges(32); // 95 edges
        assert_eq!(below.g().edge_slots(), 190);
        assert_eq!(auto_step_mode(&below), StepMode::Scalar);
    }

    #[test]
    fn break_even_threshold_never_wraps() {
        // A pathological n whose 3·n·⌈n/64⌉ product overflows usize must
        // report "no threshold" (treated as not-dense), not a wrapped
        // small number that would mis-select the row kernel.
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
        // reach kernels must produce identical traces and transcripts. (The
        // broad differential suite, each kernel against the oracle, lives
        // in tests/determinism.rs; this is the in-crate smoke.)
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

    /// How a [`Napper`] keeps its promises.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    enum Lie {
        /// Keeps them.
        #[default]
        Honest,
        /// Broadcasts inside its naps.
        Broadcasts,
        /// Claims to ignore the odd senders' messages, which wake it.
        Ignores,
    }

    /// Broadcasts its id with probability 0.3 when it decides, then
    /// promises a nap of 0–5 rounds drawn from its own RNG (0 promises
    /// nothing). Inside a nap it ignores messages from even sender ids,
    /// and any other message ends the nap. Counts the calls its promises
    /// let the engine skip, and whether a woken nap's next `decide` came on
    /// time.
    #[derive(Default)]
    struct Napper {
        /// First local round in which `decide` must run again.
        wake_at: u64,
        /// A message cut the current nap short.
        woken: bool,
        lie: Lie,
        decides: u64,
        /// `decide` calls inside a promised nap.
        nap_decides: u64,
        /// `receive(None)` calls inside a promised nap.
        nap_silences: u64,
        /// `receive` calls inside a promised nap with a message it ignores.
        nap_ignored: u64,
        /// Messages that arrived inside a promised nap and woke it.
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
                return if self.lie == Lie::Broadcasts {
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
                Some(&m) if napping && m.is_multiple_of(2) => self.nap_ignored += 1,
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

        fn ignores(&self, &m: &u32) -> bool {
            m.is_multiple_of(2) != (self.lie == Lie::Ignores)
        }
    }

    /// The reach kernels of the production step, each pinned at spawn.
    const KERNELS: [StepMode; 2] = [StepMode::Scalar, StepMode::Bitset];

    type Tier = fn(&mut Engine<Napper>);

    /// Napper engine over the circulant net with the `mode` kernel; node
    /// `v` wakes at round `1 + v % 5`, so local and global rounds differ.
    fn napper_engine(lie: Lie, mode: StepMode) -> Engine<Napper> {
        EngineBuilder::new(circulant_net())
            .seed(9)
            .step_mode(mode)
            .adversary(crate::adversary::RandomUnreliable::new(0.5, 3))
            .wake_rounds((0..70).map(|v| 1 + v % 5).collect())
            .record_trace(true)
            .spawn(|_| Napper {
                lie,
                ..Napper::default()
            })
            .unwrap()
    }

    fn total(e: &Engine<Napper>, count: fn(&Napper) -> u64) -> u64 {
        e.procs().iter().map(count).sum()
    }

    #[test]
    fn production_tiers_skip_only_promised_naps() {
        let run = |mode, step: Tier| {
            let mut e = napper_engine(Lie::Honest, mode);
            for _ in 0..200 {
                step(&mut e);
            }
            e
        };
        let legacy = run(StepMode::Scalar, Engine::step_legacy);
        // The oracle ignores promises, so it calls into naps.
        assert!(total(&legacy, |p| p.nap_decides) > 0);
        assert!(total(&legacy, |p| p.nap_silences) > 0);
        assert!(total(&legacy, |p| p.nap_ignored) > 0);
        for mode in KERNELS {
            let e = run(mode, Engine::step);
            assert_eq!(total(&e, |p| p.nap_decides), 0, "decide inside a nap");
            assert_eq!(total(&e, |p| p.nap_silences), 0, "⊥ inside a nap");
            assert_eq!(total(&e, |p| p.nap_ignored), 0, "ignored message in a nap");
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
        // One liar broadcasts inside its naps, another claims to ignore the
        // messages that wake it. Both kernels' step trusts the promise and
        // skips those calls; the oracle makes them.
        let trace = |lie, mode, step: Tier| {
            let mut e = napper_engine(lie, mode);
            for _ in 0..50 {
                step(&mut e);
            }
            e.trace().unwrap().clone()
        };
        for lie in [Lie::Broadcasts, Lie::Ignores] {
            let legacy = trace(lie, StepMode::Scalar, Engine::step_legacy);
            for mode in KERNELS {
                assert_ne!(trace(lie, mode, Engine::step), legacy, "{lie:?}");
            }
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
            for mode in KERNELS {
                let mut e = EngineBuilder::new(circulant_net())
                    .seed(4)
                    .step_mode(mode)
                    .wake_rounds(wake.clone())
                    .spawn(|_| Napper::default())
                    .unwrap();
                e.run_rounds(20);
                lapse(&mut e);
                // Someone is mid-nap, so only the lapse makes it decide.
                let next = e.round() + 1;
                assert!(e.procs().iter().any(|p| p.wake_at > next));
                let before: Vec<u64> = e.procs().iter().map(|p| p.decides).collect();
                e.step();
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

    /// Each kernel alone, and each interleaved with the oracle.
    const SLEEPER_RUNS: [(StepMode, &[SleeperTier]); 4] = [
        (StepMode::Scalar, &[Engine::step]),
        (StepMode::Bitset, &[Engine::step]),
        (StepMode::Scalar, &[Engine::step, Engine::step_legacy]),
        (StepMode::Bitset, &[Engine::step, Engine::step_legacy]),
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
        mode: StepMode,
        wake_rounds: Vec<u64>,
        out: impl Fn(usize) -> Option<bool>,
    ) -> Engine<Sleeper> {
        EngineBuilder::new(ring_net())
            .seed(seed)
            .step_mode(mode)
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
        let capture = |mode, tiers: &[SleeperTier]| {
            let mut e = sleeper_engine(6, mode, vec![1; 70], |_| None);
            step_in_stints(&mut e, 150, tiers);
            let late: u64 = e.procs().iter().map(|p| p.late_wakes).sum();
            assert_eq!(
                late,
                0,
                "a woken sleeper decided late ({mode:?}, {} tiers)",
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
        let oracle = capture(StepMode::Scalar, &[Engine::step_legacy]);
        // The beacon alone broadcasts 50 times; the rest come from woken
        // sleepers, which keep waking to the end.
        assert!(
            oracle.1.broadcasts > 100,
            "{} broadcasts",
            oracle.1.broadcasts
        );
        let tail = &oracle.0.rounds[120..];
        assert!(tail.iter().map(|rec| rec.broadcasters).sum::<u32>() > tail.len() as u32 / 3);
        for (mode, tiers) in SLEEPER_RUNS {
            assert_eq!(
                capture(mode, tiers),
                oracle,
                "diverged ({mode:?}, {} tiers)",
                tiers.len()
            );
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
        let capture = |mode, tiers: &[SleeperTier]| {
            let mut e = sleeper_engine(2, mode, wake.clone(), |v| (v == 1).then_some(false));
            step_in_stints(&mut e, 30, tiers);
            e.procs_mut()[2].out = Some(true);
            step_in_stints(&mut e, 90, tiers);
            decided_rounds(&e)
        };
        let oracle = capture(StepMode::Scalar, &[Engine::step_legacy]);
        assert_eq!(oracle[1], Some(1));
        assert_eq!(oracle[2], Some(31));
        // Most nodes output inside a `receive`, dated by the call itself.
        assert!(oracle.iter().filter(|d| d.is_some_and(|r| r > 1)).count() > 30);
        for (mode, tiers) in SLEEPER_RUNS {
            // Round 1 and round 31 are production rounds on every run.
            assert_eq!(
                capture(mode, tiers),
                oracle,
                "{mode:?}, {} tiers",
                tiers.len()
            );
        }
    }
}
