//! The Section 5 CCDS algorithm: MIS plus banned-list path finding.
//!
//! After building an MIS (every MIS node joins the CCDS), the algorithm
//! connects every pair of MIS nodes within 3 hops in `G` by a path of CCDS
//! nodes. The naive approach explores through each of a node's `Δ`
//! neighbors; this algorithm instead keeps, at each MIS node `u`, a **banned
//! list** `B_u` of processes known to lead only to already-discovered MIS
//! nodes (`u` itself, its neighbors, every discovered MIS node and its
//! neighbors). Covered neighbors then nominate only non-banned processes, so
//! each search epoch discovers a *new* MIS node whenever one remains —
//! `O(1)` explorations total per MIS node instead of `O(Δ)` (there are only
//! `O(1)` MIS nodes within 3 hops, by the density Corollary 4.7).
//!
//! The price is shipping `B_u` to the neighbors: `O(Δ·log n)` bits, i.e.
//! `O(Δ·log n / b)` bounded-broadcast calls of `Θ(log n)` rounds each —
//! the `O(Δ·log²n/b)` term of Theorem 5.3. For `b = Ω(Δ·log n)` the whole
//! algorithm is polylogarithmic.
//!
//! Subroutines (proved as Lemmas 5.1 and 5.2):
//!
//! * `bounded-broadcast(δ, m)` — broadcast `m` with probability 1/2 for
//!   `ℓ_BB(δ) = Θ(2^δ·log n)` rounds; delivers to all `G`-neighbors w.h.p.
//!   provided at most `δ` nearby processes run it concurrently.
//! * `directed-decay` — covered processes simulate one sender per message
//!   (destination an MIS neighbor), doubling broadcast probability from
//!   `1/n` to `1/2` across `⌈log n⌉` phases; after each phase MIS processes
//!   that heard something issue stop orders. Every MIS process with a
//!   nonempty covered set hears at least one message w.h.p.

mod schedule;

pub use schedule::{P3Stage, Schedule, ScheduleError, SearchSlot, Slot, HEADER_BITS};

use crate::messages::Wire;
use crate::mis::{MisCore, MisMsg};
use crate::params::{id_bits, CcdsParams};
use radio_sim::{Action, Context, Process, ProcessId};
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Static configuration shared by all CCDS processes.
///
/// Every process must be constructed from the *same* configuration: the
/// schedule is globally agreed, which is how the paper's fixed-length phases
/// work (it assumes `n`, a degree bound `Δ`, and the message bound `b` are
/// common knowledge).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CcdsConfig {
    /// Network size `n`.
    pub n: usize,
    /// Known upper bound on the reliable max degree `Δ`.
    pub delta_bound: usize,
    /// Message size bound `b` in bits.
    pub b: u64,
    /// Phase-length constants.
    pub params: CcdsParams,
}

impl CcdsConfig {
    /// A configuration with default parameters.
    pub fn new(n: usize, delta_bound: usize, b: u64) -> Self {
        CcdsConfig {
            n,
            delta_bound,
            b,
            params: CcdsParams::default(),
        }
    }

    /// Computes the global schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if `b` is too small to carry one id.
    pub fn schedule(&self) -> Result<Schedule, ScheduleError> {
        Schedule::compute(self.n, self.delta_bound, self.b, &self.params)
    }
}

/// One nomination entry inside a directed-decay message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nomination {
    /// The MIS process this nomination is addressed to.
    pub dest: u32,
    /// The nominated (non-banned) neighbor.
    pub nominee: u32,
}

/// CCDS wire messages. All are labeled with the sender id (`from`), and
/// receptions from outside the link detector set are discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcdsMsg {
    /// MIS-prefix traffic.
    Mis(MisMsg),
    /// Phase 1: a banned-list chunk from MIS process `from`.
    Banned {
        /// Sending MIS process.
        from: u32,
        /// Chunk of banned ids.
        ids: Vec<u32>,
    },
    /// Phase 2: combined nominations from covered process `from`
    /// (directed-decay simulated senders that fired this round).
    Nominate {
        /// Sending covered process.
        from: u32,
        /// The nominations that fired.
        entries: Vec<Nomination>,
    },
    /// Phase 2: stop order from MIS process `from`.
    Stop {
        /// Sending MIS process.
        from: u32,
    },
    /// Phase 3: MIS process `from` selects `nominator`'s nomination.
    Select {
        /// Sending MIS process.
        from: u32,
        /// The covered process whose nomination won.
        nominator: u32,
    },
    /// Phase 3: nominator `from` asks `target` to describe itself.
    Explore {
        /// Sending covered process (the nominator).
        from: u32,
        /// The nominated process being explored.
        target: u32,
        /// The MIS process the discovery is for.
        origin: u32,
    },
    /// Phase 3: chunked answer from the explored process.
    Reply {
        /// Sending (explored) process.
        from: u32,
        /// The nominator the chunk is addressed to.
        via: u32,
        /// The MIS process the discovery is for.
        origin: u32,
        /// The discovered MIS process the answer describes.
        mis: u32,
        /// Chunk sequence number.
        seq: u16,
        /// Chunk of the discovered process's neighborhood.
        ids: Vec<u32>,
    },
    /// Phase 3: the nominator relays an answer chunk to the MIS process.
    Relay {
        /// Sending covered process (the nominator).
        from: u32,
        /// The MIS process the chunk is addressed to.
        origin: u32,
        /// The discovered MIS process.
        mis: u32,
        /// Chunk sequence number.
        seq: u16,
        /// Chunk of the discovered process's neighborhood.
        ids: Vec<u32>,
    },
}

impl CcdsMsg {
    /// Sender's process id.
    pub fn from(&self) -> u32 {
        match self {
            CcdsMsg::Mis(m) => m.from(),
            CcdsMsg::Banned { from, .. }
            | CcdsMsg::Nominate { from, .. }
            | CcdsMsg::Stop { from }
            | CcdsMsg::Select { from, .. }
            | CcdsMsg::Explore { from, .. }
            | CcdsMsg::Reply { from, .. }
            | CcdsMsg::Relay { from, .. } => *from,
        }
    }

    /// Encoded size in bits (ids cost `id_bits(n)` each, plus the fixed
    /// header).
    pub fn encoded_bits(&self, n: usize) -> u64 {
        let idb = id_bits(n);
        match self {
            CcdsMsg::Mis(m) => m.encoded_bits(n),
            CcdsMsg::Banned { ids, .. } => HEADER_BITS + idb * (1 + ids.len() as u64),
            CcdsMsg::Nominate { entries, .. } => HEADER_BITS + idb + 2 * idb * entries.len() as u64,
            CcdsMsg::Stop { .. } => HEADER_BITS + idb,
            CcdsMsg::Select { .. } => HEADER_BITS + 2 * idb,
            CcdsMsg::Explore { .. } => HEADER_BITS + 3 * idb,
            CcdsMsg::Reply { ids, .. } | CcdsMsg::Relay { ids, .. } => {
                HEADER_BITS + 4 * idb + idb * ids.len() as u64
            }
        }
    }
}

/// Counters the experiment harness reads (notably for the banned-list
/// ablation: explorations per MIS node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcdsCounters {
    /// Search epochs in which this MIS process initiated an exploration.
    pub explorations: u64,
    /// Distinct MIS processes discovered through explorations.
    pub discoveries: u64,
}

/// An in-flight exploration, as seen by the nominator `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExploreJob {
    origin: u32,
    target: u32,
}

/// An in-flight exploration, as seen by the explored process `w`.
#[derive(Debug, Clone)]
struct ReplyJob {
    origin: u32,
    via: u32,
    mis: u32,
    chunks: Vec<Vec<u32>>,
}

/// A directed-decay simulated sender at a covered process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimSender {
    nomination: Nomination,
    active: bool,
}

/// A buffered relay chunk at the nominator.
#[derive(Debug, Clone)]
struct RelayChunk {
    origin: u32,
    mis: u32,
    seq: u16,
    ids: Vec<u32>,
}

/// The Section 5 CCDS process.
///
/// # Examples
///
/// See the crate-level documentation and `examples/quickstart.rs`; the
/// typical pattern is
///
/// ```no_run
/// use radio_structures::{Ccds, CcdsConfig};
/// use radio_sim::{EngineBuilder, DualGraph, Graph};
/// # fn net() -> DualGraph { unimplemented!() }
/// let net = net();
/// let cfg = CcdsConfig::new(net.n(), net.max_degree_g(), 256);
/// let schedule = cfg.schedule()?;
/// let mut engine = EngineBuilder::new(net)
///     .max_message_bits(cfg.b)
///     .spawn(|info| Ccds::new(&cfg, info.id).expect("valid config"))?;
/// engine.run(schedule.total);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ccds {
    cfg: CcdsConfig,
    schedule: Schedule,
    mis: MisCore,
    my_id: u32,
    output: Option<bool>,
    current_epoch: Option<u32>,
    search_initialized: bool,
    counters: CcdsCounters,

    // --- MIS-node search state ---
    banned: BTreeSet<u32>,
    delivered: BTreeSet<u32>,
    chunks: Vec<Vec<u32>>,
    nomination: Option<Nomination>,
    nominator: Option<u32>,
    heard_this_decay: bool,
    discovered: BTreeSet<u32>,

    // --- covered-node state ---
    replicas: BTreeMap<u32, BTreeSet<u32>>,
    primaries: BTreeMap<u32, BTreeSet<u32>>,
    sims: Vec<SimSender>,
    explore_job: Option<ExploreJob>,
    reply_job: Option<ReplyJob>,
    relay_chunks: Vec<RelayChunk>,
}

impl Ccds {
    /// Creates a CCDS process.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the configuration's message bound is too
    /// small for this `n`.
    pub fn new(cfg: &CcdsConfig, my_id: ProcessId) -> Result<Self, ScheduleError> {
        let schedule = cfg.schedule()?;
        Ok(Ccds {
            cfg: *cfg,
            schedule,
            mis: MisCore::new(cfg.n, my_id, cfg.params.mis),
            my_id: my_id.get(),
            output: None,
            current_epoch: None,
            search_initialized: false,
            counters: CcdsCounters::default(),
            banned: BTreeSet::new(),
            delivered: BTreeSet::new(),
            chunks: Vec::new(),
            nomination: None,
            nominator: None,
            heard_this_decay: false,
            discovered: BTreeSet::new(),
            replicas: BTreeMap::new(),
            primaries: BTreeMap::new(),
            sims: Vec::new(),
            explore_job: None,
            reply_job: None,
            relay_chunks: Vec::new(),
        })
    }

    /// Creates a CCDS process that **skips the MIS phase**: the MIS outcome
    /// is supplied, and the schedule contains only the search epochs. The
    /// Section 8 repair prototype uses this to re-run path finding against
    /// a changed link detector without paying the `O(log³ n)` MIS prefix.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the configuration's message bound is too
    /// small for this `n`.
    pub fn resume_search(
        cfg: &CcdsConfig,
        my_id: ProcessId,
        in_mis: bool,
        mis_set: std::collections::BTreeSet<u32>,
    ) -> Result<Self, ScheduleError> {
        let schedule = Schedule::compute_search_only(cfg.n, cfg.delta_bound, cfg.b, &cfg.params)?;
        let mut p = Self::new(cfg, my_id)?;
        p.schedule = schedule;
        p.mis = MisCore::pre_decided(cfg.n, my_id, cfg.params.mis, in_mis, mis_set);
        Ok(p)
    }

    /// The global schedule this process follows.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The underlying MIS state (outputs, membership).
    pub fn mis(&self) -> &MisCore {
        &self.mis
    }

    /// Exploration counters for the ablation experiments.
    pub fn counters(&self) -> &CcdsCounters {
        &self.counters
    }

    /// The banned list `B_u` (meaningful for MIS nodes).
    pub fn banned(&self) -> &BTreeSet<u32> {
        &self.banned
    }

    /// MIS processes this node discovered through explorations.
    pub fn discovered(&self) -> &BTreeSet<u32> {
        &self.discovered
    }

    fn split_chunks(&self, ids: impl IntoIterator<Item = u32>) -> Vec<Vec<u32>> {
        let cap = self.schedule.chunk_capacity.max(1);
        let mut out: Vec<Vec<u32>> = Vec::new();
        for id in ids {
            match out.last_mut() {
                Some(chunk) if chunk.len() < cap => chunk.push(id),
                _ => out.push(vec![id]),
            }
        }
        out
    }

    /// Epoch-start bookkeeping (both roles).
    fn start_epoch(&mut self, ctx: &Context<'_>) {
        if !self.search_initialized {
            self.search_initialized = true;
            if self.mis.in_mis() {
                self.output = Some(true);
                self.banned.insert(self.my_id);
                self.banned.extend(ctx.detector.iter().copied());
            }
        }
        if self.mis.in_mis() {
            let diff: Vec<u32> = self.banned.difference(&self.delivered).copied().collect();
            self.chunks = self.split_chunks(diff);
            self.delivered = self.banned.clone();
        }
        self.nomination = None;
        self.nominator = None;
        self.heard_this_decay = false;
        self.sims.clear();
        self.explore_job = None;
        self.reply_job = None;
        self.relay_chunks.clear();
    }

    /// Builds this epoch's directed-decay simulated senders (covered nodes).
    fn build_nominations(&mut self, ctx: &Context<'_>) {
        if self.mis.in_mis() {
            return;
        }
        let idb = id_bits(self.cfg.n);
        let max_entries =
            (((self.cfg.b.saturating_sub(HEADER_BITS + idb)) / (2 * idb)) as usize).max(1);
        let mut sims = Vec::new();
        for &u in self.mis.mis_set() {
            if u == self.my_id || !ctx.detector.contains(&u) {
                continue;
            }
            let empty = BTreeSet::new();
            let replica = self.replicas.get(&u).unwrap_or(&empty);
            // Nominate the smallest non-banned reliable neighbor, if any.
            if let Some(&w) = ctx
                .detector
                .iter()
                .find(|w| !replica.contains(w) && **w != self.my_id)
            {
                sims.push(SimSender {
                    nomination: Nomination {
                        dest: u,
                        nominee: w,
                    },
                    active: true,
                });
            }
            if sims.len() >= max_entries {
                break; // keep combined messages within b
            }
        }
        self.sims = sims;
    }

    /// The decide half of the search-epoch state machine.
    fn search_decide(&mut self, ctx: &mut Context<'_>, phase: SearchSlot) -> Option<CcdsMsg> {
        match phase {
            SearchSlot::P1 { window, .. } => {
                if self.mis.in_mis() {
                    if let Some(chunk) = self.chunks.get(window as usize) {
                        if ctx.rng.gen_bool(0.5) {
                            return Some(CcdsMsg::Banned {
                                from: self.my_id,
                                ids: chunk.clone(),
                            });
                        }
                    }
                }
                None
            }
            SearchSlot::P2Contention { decay_phase, round } => {
                if decay_phase == 0 && round == 0 {
                    self.build_nominations(ctx);
                }
                if round == 0 {
                    self.heard_this_decay = false;
                }
                if self.mis.in_mis() || self.sims.is_empty() {
                    return None;
                }
                let p = (2f64.powi(decay_phase as i32) / self.cfg.n as f64).min(0.5);
                let entries: Vec<Nomination> = self
                    .sims
                    .iter()
                    .filter(|s| s.active)
                    .filter(|_| ctx.rng.gen_bool(p))
                    .map(|s| s.nomination)
                    .collect();
                if entries.is_empty() {
                    None
                } else {
                    Some(CcdsMsg::Nominate {
                        from: self.my_id,
                        entries,
                    })
                }
            }
            SearchSlot::P2Stop { .. } => {
                if self.mis.in_mis() && self.heard_this_decay && ctx.rng.gen_bool(0.5) {
                    Some(CcdsMsg::Stop { from: self.my_id })
                } else {
                    None
                }
            }
            SearchSlot::P3 { stage, round } => self.p3_decide(ctx, stage, round),
        }
    }

    fn p3_decide(&mut self, ctx: &mut Context<'_>, stage: P3Stage, round: u64) -> Option<CcdsMsg> {
        match stage {
            P3Stage::Select => {
                if self.mis.in_mis() {
                    if let Some(nom) = self.nomination {
                        // Freshness check: the nomination was made against a
                        // possibly stale replica of the banned list; if the
                        // nominee has been banned since (a discovery this
                        // node made in an earlier epoch that the nominator
                        // had not yet received), exploring it can only
                        // rediscover a known MIS node — skip the epoch
                        // instead of recruiting redundant relays.
                        if self.banned.contains(&nom.nominee) {
                            return None;
                        }
                        if round == 0 {
                            self.counters.explorations += 1;
                        }
                        let nominator = self.nominator.expect("set alongside nomination");
                        if ctx.rng.gen_bool(0.5) {
                            return Some(CcdsMsg::Select {
                                from: self.my_id,
                                nominator,
                            });
                        }
                    }
                }
                None
            }
            P3Stage::Explore => {
                if let Some(job) = self.explore_job {
                    // Being selected adds the nominator to the CCDS.
                    if self.output.is_none() {
                        self.output = Some(true);
                    }
                    if ctx.rng.gen_bool(0.5) {
                        return Some(CcdsMsg::Explore {
                            from: self.my_id,
                            target: job.target,
                            origin: job.origin,
                        });
                    }
                }
                None
            }
            P3Stage::Reply { chunk } => {
                if let Some(job) = &self.reply_job {
                    if let Some(ids) = job.chunks.get(chunk as usize) {
                        if ctx.rng.gen_bool(0.5) {
                            return Some(CcdsMsg::Reply {
                                from: self.my_id,
                                via: job.via,
                                origin: job.origin,
                                mis: job.mis,
                                seq: chunk as u16,
                                ids: ids.clone(),
                            });
                        }
                    }
                }
                None
            }
            P3Stage::Relay { chunk } => {
                if let Some(rc) = self
                    .relay_chunks
                    .iter()
                    .find(|rc| u64::from(rc.seq) == chunk)
                {
                    if ctx.rng.gen_bool(0.5) {
                        return Some(CcdsMsg::Relay {
                            from: self.my_id,
                            origin: rc.origin,
                            mis: rc.mis,
                            seq: rc.seq,
                            ids: rc.ids.clone(),
                        });
                    }
                }
                None
            }
        }
    }

    /// The receive half of the search-epoch state machine.
    fn search_receive(&mut self, ctx: &Context<'_>, msg: &CcdsMsg) {
        match msg {
            CcdsMsg::Mis(_) => {}
            CcdsMsg::Banned { from, ids } => {
                // Banned chunks only come from MIS processes; receiving one
                // also teaches a covered node that `from` is an MIS
                // neighbor (normally already known from the announcement).
                if !self.mis.in_mis() {
                    let epoch = self.current_epoch.unwrap_or(0);
                    let replica = self.replicas.entry(*from).or_default();
                    replica.extend(ids.iter().copied());
                    if epoch == 0 {
                        self.primaries
                            .entry(*from)
                            .or_default()
                            .extend(ids.iter().copied());
                    }
                }
            }
            CcdsMsg::Nominate { from, entries } => {
                if self.mis.in_mis() {
                    for e in entries {
                        if e.dest == self.my_id {
                            self.heard_this_decay = true;
                            if self.nomination.is_none() {
                                self.nomination = Some(*e);
                                self.nominator = Some(*from);
                            }
                        }
                    }
                }
            }
            CcdsMsg::Stop { from } => {
                for s in &mut self.sims {
                    if s.nomination.dest == *from {
                        s.active = false;
                    }
                }
            }
            CcdsMsg::Select { from, nominator } => {
                if *nominator == self.my_id && self.explore_job.is_none() {
                    // Look up which process we nominated for `from`.
                    if let Some(s) = self.sims.iter().find(|s| s.nomination.dest == *from) {
                        self.explore_job = Some(ExploreJob {
                            origin: *from,
                            target: s.nomination.nominee,
                        });
                    }
                }
            }
            CcdsMsg::Explore {
                from,
                target,
                origin,
            } => {
                if *target == self.my_id && self.reply_job.is_none() {
                    let (mis, ids): (u32, Vec<u32>) = if self.mis.in_mis() {
                        // The explored process is itself in the MIS: answer
                        // with its own neighborhood.
                        (
                            self.my_id,
                            std::iter::once(self.my_id)
                                .chain(ctx.detector.iter().copied())
                                .collect(),
                        )
                    } else {
                        // Answer with a neighboring MIS process and its
                        // primary-replica neighborhood.
                        let Some((&x, primary)) = self.primaries.iter().find(|(x, _)| {
                            ctx.detector.contains(x) && self.mis.mis_set().contains(*x)
                        }) else {
                            return;
                        };
                        (x, primary.iter().copied().collect())
                    };
                    // Replying adds the explored process to the CCDS.
                    if self.output.is_none() {
                        self.output = Some(true);
                    }
                    let chunks = self.split_chunks(ids);
                    self.reply_job = Some(ReplyJob {
                        origin: *origin,
                        via: *from,
                        mis,
                        chunks,
                    });
                }
            }
            CcdsMsg::Reply {
                via,
                origin,
                mis,
                seq,
                ids,
                ..
            } => {
                if *via == self.my_id && self.relay_chunks.iter().all(|rc| rc.seq != *seq) {
                    self.relay_chunks.push(RelayChunk {
                        origin: *origin,
                        mis: *mis,
                        seq: *seq,
                        ids: ids.clone(),
                    });
                }
            }
            CcdsMsg::Relay {
                origin, mis, ids, ..
            } => {
                if *origin == self.my_id && self.mis.in_mis() {
                    if *mis != self.my_id && !self.banned.contains(mis) {
                        self.discovered.insert(*mis);
                        self.counters.discoveries += 1;
                    }
                    self.banned.insert(*mis);
                    self.banned.extend(ids.iter().copied());
                }
            }
        }
    }
}

impl Process for Ccds {
    type Msg = Wire<CcdsMsg>;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg> {
        let r0 = ctx.local_round - 1;
        let slot = self.schedule.slot(r0);
        let msg = match slot {
            Slot::Mis { r0 } => {
                self.current_epoch = None;
                self.mis.step(ctx, r0).map(CcdsMsg::Mis)
            }
            Slot::Search {
                epoch,
                epoch_start,
                phase,
            } => {
                if epoch_start || self.current_epoch != Some(epoch) {
                    self.start_epoch(ctx);
                    self.current_epoch = Some(epoch);
                }
                self.search_decide(ctx, phase)
            }
            Slot::Done { .. } => {
                if self.output.is_none() {
                    // Everyone undecided at the end outputs 0.
                    self.output = Some(false);
                }
                None
            }
        };
        match msg {
            Some(m) => {
                let bits = m.encoded_bits(self.cfg.n);
                Action::Broadcast(Wire::new(m, bits))
            }
            None => Action::Idle,
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>) {
        let Some(wire) = msg else { return };
        let body = wire.body();
        // Universal rule: discard messages from outside the detector set.
        if !ctx.detector.contains(&body.from()) {
            return;
        }
        if let CcdsMsg::Mis(m) = body {
            self.mis.on_message(ctx, m);
            return;
        }
        self.search_receive(ctx, body);
    }

    fn output(&self) -> Option<bool> {
        self.output
    }

    /// CCDS outputs settle only at the end of the fixed schedule, so a
    /// process is done when it has an output (which the final slot forces).
    fn is_done(&self) -> bool {
        self.output.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ccds, check_mis};
    use radio_sim::topology::{random_geometric, RandomGeometricConfig};
    use radio_sim::{DualGraph, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment};
    use rand::SeedableRng;

    fn run_ccds(net: DualGraph, b: u64, seed: u64) -> (Vec<Option<bool>>, u64) {
        let cfg = CcdsConfig::new(net.n(), net.max_degree_g(), b);
        let schedule = cfg.schedule().unwrap();
        let mut engine = EngineBuilder::new(net)
            .seed(seed)
            .max_message_bits(b)
            .spawn(|info| Ccds::new(&cfg, info.id).unwrap())
            .unwrap();
        engine.run(schedule.total + 1);
        assert_eq!(
            engine.metrics().oversize_messages,
            0,
            "chunking must respect b"
        );
        (engine.outputs(), engine.round())
    }

    #[test]
    fn path_network_builds_valid_ccds() {
        let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let (out, _) = run_ccds(net.clone(), 256, 3);
        let report = check_ccds(&net, net.g(), &out);
        assert!(report.terminated, "undecided: {}", report.undecided);
        assert!(report.connected, "CCDS not connected: {out:?}");
        assert!(
            report.dominating,
            "violations: {:?}",
            report.domination_violations
        );
    }

    #[test]
    fn geometric_network_builds_valid_ccds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let net = random_geometric(&RandomGeometricConfig::dense(48), &mut rng).unwrap();
        let ids = IdAssignment::identity(net.n());
        let det = LinkDetectorAssignment::zero_complete(&net, &ids);
        let h = det.h_graph(&ids);
        let (out, _) = run_ccds(net.clone(), 512, 5);
        let report = check_ccds(&net, &h, &out);
        assert!(report.terminated);
        assert!(report.connected, "CCDS not connected");
        assert!(report.dominating);
        // MIS layer is valid too.
        let mis_out: Vec<Option<bool>> = out.clone();
        let _ = check_mis(&net, &h, &mis_out);
    }

    #[test]
    fn small_b_produces_more_chunk_windows_and_longer_run() {
        let g = Graph::complete(16);
        let net = DualGraph::classic(g).unwrap();
        let cfg_small = CcdsConfig::new(16, 15, 64);
        let cfg_large = CcdsConfig::new(16, 15, 2048);
        assert!(cfg_small.schedule().unwrap().total > cfg_large.schedule().unwrap().total);
        let _ = net;
    }

    #[test]
    fn message_sizes_respect_bound() {
        let msg = CcdsMsg::Banned {
            from: 1,
            ids: vec![2, 3, 4],
        };
        let n = 64;
        assert_eq!(msg.encoded_bits(n), HEADER_BITS + 7 * 4);
        let reply = CcdsMsg::Reply {
            from: 1,
            via: 2,
            origin: 3,
            mis: 4,
            seq: 0,
            ids: vec![5, 6],
        };
        assert_eq!(reply.encoded_bits(n), HEADER_BITS + 4 * 7 + 2 * 7);
    }

    #[test]
    fn counters_stay_constant_per_mis_node() {
        // On a path, each MIS node has O(1) nearby MIS nodes; explorations
        // should be far below Δ even over all epochs.
        let g = Graph::from_edges(12, (0..11).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let cfg = CcdsConfig::new(12, 2, 256);
        let schedule = cfg.schedule().unwrap();
        let mut engine = EngineBuilder::new(net)
            .seed(9)
            .spawn(|info| Ccds::new(&cfg, info.id).unwrap())
            .unwrap();
        engine.run(schedule.total + 1);
        for p in engine.procs() {
            assert!(p.counters().explorations <= u64::from(cfg.params.search_epochs));
        }
    }
}
