//! The Section 6 CCDS algorithm for incomplete (τ-complete, τ = O(1)) link
//! detectors.
//!
//! With τ > 0 the single-shot MIS of Section 4 can leave a process "covered"
//! only by an `H \ G` neighbor — a process it may be unable to talk to. The
//! fix is to run **τ+1 sequential iterations** of the MIS algorithm
//! (winners sit out later iterations), with every message labeled by the
//! sender's link detector set so receivers keep only messages from mutual
//! (`H`) neighbors. If a process is covered in all τ+1 iterations, its τ+1
//! coverers are distinct, and at most τ of them can be spurious — so at
//! least one is a true `G`-neighbor (Lemma 6.1a). Each iteration adds at
//! most one winner per overlay disk, so the winner set stays constant-dense
//! (Lemma 6.1b).
//!
//! Winners are then connected by brute force, because the banned-list trick
//! of Section 5 is unsound here (a banned `H \ G` neighbor might hide the
//! only path to an undiscovered winner — and Section 7 proves *no* fast
//! algorithm exists): each winner's neighbors get a dedicated slot to
//! announce their id and masters (phase 1), then a second slot to repeat
//! everything they heard (phase 2). After that every winner knows all
//! winners within 3 `G`-hops and a connecting path; a final assignment stage
//! recruits the path relays into the CCDS. Total: `O(Δ·polylog n)` rounds —
//! and by Theorem 7.1 the Δ factor is necessary.

use crate::messages::Wire;
use crate::mis::{MisCore, MisMsg};
use crate::params::{ceil_log2, id_bits, MisParams};
use radio_sim::{Action, Context, Process, ProcessId};
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of the τ-complete CCDS algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TauParams {
    /// Parameters for each MIS iteration.
    pub mis: MisParams,
    /// Multiplier for the announcement-slot length (`Θ(log n)` rounds).
    pub slot_factor: u32,
}

impl Default for TauParams {
    fn default() -> Self {
        TauParams {
            mis: MisParams::default(),
            slot_factor: 12,
        }
    }
}

impl TauParams {
    /// Length of one announcement slot in rounds.
    pub fn slot_len(&self, n: usize) -> u64 {
        u64::from(self.slot_factor) * u64::from(ceil_log2(n))
    }
}

/// Static configuration for [`TauCcds`] (shared by all processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TauConfig {
    /// Network size `n`.
    pub n: usize,
    /// Known upper bound on `Δ` plus detector slack (slot count).
    pub delta_bound: usize,
    /// Detector incompleteness τ (the algorithm runs τ+1 MIS iterations).
    pub tau: usize,
    /// Phase-length constants.
    pub params: TauParams,
}

impl TauConfig {
    /// A configuration with default parameters.
    pub fn new(n: usize, delta_bound: usize, tau: usize) -> Self {
        TauConfig {
            n,
            delta_bound,
            tau,
            params: TauParams::default(),
        }
    }

    /// The global schedule.
    pub fn schedule(&self) -> TauSchedule {
        let mis_len = self.params.mis.total_rounds(self.n);
        let slot_len = self.params.slot_len(self.n);
        let slots = self.delta_bound as u64 + self.tau as u64;
        TauSchedule {
            mis_len,
            iterations: self.tau as u64 + 1,
            slot_len,
            slots,
            total: (self.tau as u64 + 1) * mis_len + (1 + 2 * slots + 2) * slot_len,
        }
    }
}

/// Round layout of the τ-complete CCDS algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TauSchedule {
    /// Rounds per MIS iteration.
    pub mis_len: u64,
    /// Number of MIS iterations (τ+1).
    pub iterations: u64,
    /// Rounds per announcement slot.
    pub slot_len: u64,
    /// Announcement slots per phase (`Δ + τ`, one per detector neighbor).
    pub slots: u64,
    /// Total schedule length.
    pub total: u64,
}

/// A round's position in the τ-CCDS schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TauSlot {
    /// Inside MIS iteration `iter`.
    Mis {
        /// Iteration index, `0..=τ`.
        iter: u64,
        /// Round within the iteration.
        r0: u64,
    },
    /// Stage A: winners broadcast their detector lists.
    StageA {
        /// Round within the stage.
        round: u64,
    },
    /// Phase 1: per-neighbor announcement slots (id + masters).
    Phase1 {
        /// Slot index, `0..slots`.
        slot: u64,
        /// Round within the slot.
        round: u64,
    },
    /// Phase 2: per-neighbor slots repeating everything heard in phase 1.
    Phase2 {
        /// Slot index, `0..slots`.
        slot: u64,
        /// Round within the slot.
        round: u64,
    },
    /// Winners broadcast relay assignments.
    Assign {
        /// Round within the stage.
        round: u64,
    },
    /// Chosen first-hop relays re-broadcast assignments to second hops.
    RelayAssign {
        /// Round within the stage.
        round: u64,
    },
    /// Past the end of the schedule.
    Done {
        /// Whether this is the first post-schedule round.
        first: bool,
    },
}

impl TauSchedule {
    /// Maps a 0-based round index to its slot.
    pub fn slot(&self, r0: u64) -> TauSlot {
        let mis_total = self.iterations * self.mis_len;
        if r0 < mis_total {
            return TauSlot::Mis {
                iter: r0 / self.mis_len,
                r0: r0 % self.mis_len,
            };
        }
        let s = r0 - mis_total;
        if s < self.slot_len {
            return TauSlot::StageA { round: s };
        }
        let s = s - self.slot_len;
        let phase_len = self.slots * self.slot_len;
        if s < phase_len {
            return TauSlot::Phase1 {
                slot: s / self.slot_len,
                round: s % self.slot_len,
            };
        }
        let s = s - phase_len;
        if s < phase_len {
            return TauSlot::Phase2 {
                slot: s / self.slot_len,
                round: s % self.slot_len,
            };
        }
        let s = s - phase_len;
        if s < self.slot_len {
            return TauSlot::Assign { round: s };
        }
        let s = s - self.slot_len;
        if s < self.slot_len {
            return TauSlot::RelayAssign { round: s };
        }
        TauSlot::Done {
            first: s == self.slot_len,
        }
    }
}

/// One relay assignment: connect the sender to winner `x` through `v` (and
/// `w`, for 3-hop paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// First-hop relay (a neighbor of the assigning winner).
    pub v: u32,
    /// Second-hop relay, for 3-hop paths.
    pub w: Option<u32>,
    /// The discovered winner being connected to.
    pub x: u32,
}

/// Messages of the τ-complete algorithm. Every message carries the sender's
/// link detector set so receivers can apply the mutual (`H`) filter the
/// algorithm specifies; Section 6's bound does not depend on the message
/// size, so these messages are not chunked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TauMsg {
    /// MIS-iteration traffic, labeled with the sender's detector set.
    Mis {
        /// The embedded MIS message.
        msg: MisMsg,
        /// Sender's link detector set.
        detector: Vec<u32>,
    },
    /// Stage A: a winner's detector list (order defines neighbor slots).
    DetectorList {
        /// Sending winner.
        from: u32,
        /// The winner's detector set, ascending.
        ids: Vec<u32>,
    },
    /// Phase 1: a covered process announces itself and its masters.
    Announce1 {
        /// Sending process.
        from: u32,
        /// Sender's detector set (for the mutual filter).
        detector: Vec<u32>,
        /// Winners adjacent to the sender in `H`.
        masters: Vec<u32>,
    },
    /// Phase 2: a covered process repeats everything heard in phase 1.
    Announce2 {
        /// Sending process.
        from: u32,
        /// Sender's detector set (for the mutual filter).
        detector: Vec<u32>,
        /// `(neighbor, masters-of-neighbor)` pairs heard in phase 1.
        entries: Vec<(u32, Vec<u32>)>,
    },
    /// A winner's relay assignments.
    Assign {
        /// Sending winner.
        from: u32,
        /// Sender's detector set (for the mutual filter).
        detector: Vec<u32>,
        /// The chosen connecting paths.
        relays: Vec<Assignment>,
    },
    /// First-hop relays forward assignments to second-hop relays.
    RelayAssign {
        /// Sending first-hop relay.
        from: u32,
        /// Sender's detector set (for the mutual filter).
        detector: Vec<u32>,
        /// `(second_hop, winner)` pairs.
        entries: Vec<(u32, u32)>,
    },
}

impl TauMsg {
    /// Sender's process id.
    pub fn from(&self) -> u32 {
        match self {
            TauMsg::Mis { msg, .. } => msg.from(),
            TauMsg::DetectorList { from, .. }
            | TauMsg::Announce1 { from, .. }
            | TauMsg::Announce2 { from, .. }
            | TauMsg::Assign { from, .. }
            | TauMsg::RelayAssign { from, .. } => *from,
        }
    }

    /// The sender's detector set carried by the message (the `H` filter
    /// checks the receiver's id against it).
    pub fn sender_detector(&self) -> &[u32] {
        match self {
            TauMsg::Mis { detector, .. }
            | TauMsg::Announce1 { detector, .. }
            | TauMsg::Announce2 { detector, .. }
            | TauMsg::Assign { detector, .. }
            | TauMsg::RelayAssign { detector, .. } => detector,
            TauMsg::DetectorList { ids, .. } => ids,
        }
    }

    /// Encoded size in bits: ids at `id_bits(n)` each plus a header.
    pub fn encoded_bits(&self, n: usize) -> u64 {
        let idb = id_bits(n);
        let header = 8u64;
        let payload: u64 = match self {
            TauMsg::Mis { detector, .. } => 1 + detector.len() as u64 + 1,
            TauMsg::DetectorList { ids, .. } => 1 + ids.len() as u64,
            TauMsg::Announce1 {
                detector, masters, ..
            } => 1 + detector.len() as u64 + masters.len() as u64,
            TauMsg::Announce2 {
                detector, entries, ..
            } => {
                1 + detector.len() as u64
                    + entries.iter().map(|(_, m)| 1 + m.len() as u64).sum::<u64>()
            }
            TauMsg::Assign {
                detector, relays, ..
            } => 1 + detector.len() as u64 + 3 * relays.len() as u64,
            TauMsg::RelayAssign {
                detector, entries, ..
            } => 1 + detector.len() as u64 + 2 * entries.len() as u64,
        };
        header + payload * idb
    }
}

/// How a winner reaches a discovered winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathTo {
    /// Direct `H` edge.
    Direct,
    /// Two hops via `v`.
    TwoHop(u32),
    /// Three hops via `v` then `w`.
    ThreeHop(u32, u32),
}

/// The Section 6 CCDS process for τ-complete detectors.
///
/// All processes must share the same [`TauConfig`]. Winners of any MIS
/// iteration output 1; relays recruited in the assignment stages output 1;
/// everyone else outputs 0 when the schedule ends.
#[derive(Debug, Clone)]
pub struct TauCcds {
    cfg: TauConfig,
    schedule: TauSchedule,
    my_id: u32,
    mis: MisCore,
    current_iter: u64,
    won: bool,
    output: Option<bool>,
    /// Winners heard announcing, with mutual detector membership.
    masters: BTreeSet<u32>,
    /// Winner id → its stage-A detector list (defines slot ranks).
    winner_lists: BTreeMap<u32, Vec<u32>>,
    /// Phase-1 intelligence: neighbor id → that neighbor's masters.
    heard1: BTreeMap<u32, Vec<u32>>,
    /// Winner-side intelligence: discovered winner → path.
    paths: BTreeMap<u32, PathTo>,
    /// Slots (by index) in which this process announces.
    my_slots: BTreeSet<u64>,
    /// Assignments this process must forward in the relay stage.
    forward: Vec<(u32, u32)>,
    assignments: Vec<Assignment>,
    phase1_prepared: bool,
    assign_prepared: bool,
}

impl TauCcds {
    /// Creates a τ-CCDS process.
    pub fn new(cfg: &TauConfig, my_id: ProcessId) -> Self {
        TauCcds {
            cfg: *cfg,
            schedule: cfg.schedule(),
            my_id: my_id.get(),
            mis: MisCore::new(cfg.n, my_id, cfg.params.mis),
            current_iter: 0,
            won: false,
            output: None,
            masters: BTreeSet::new(),
            winner_lists: BTreeMap::new(),
            heard1: BTreeMap::new(),
            paths: BTreeMap::new(),
            my_slots: BTreeSet::new(),
            forward: Vec::new(),
            assignments: Vec::new(),
            phase1_prepared: false,
            assign_prepared: false,
        }
    }

    /// The global schedule.
    pub fn schedule(&self) -> &TauSchedule {
        &self.schedule
    }

    /// Whether this process won one of the MIS iterations (is a dominator).
    pub fn is_winner(&self) -> bool {
        self.won
    }

    /// Winners this process discovered within 3 hops (winner side).
    pub fn discovered(&self) -> impl Iterator<Item = u32> + '_ {
        self.paths.keys().copied()
    }

    fn detector_vec(ctx: &Context<'_>) -> Vec<u32> {
        ctx.detector.iter().copied().collect()
    }

    /// Prepare phase-1 slot ranks from the stage-A lists.
    fn prepare_phase1(&mut self) {
        self.my_slots.clear();
        for list in self.winner_lists.values() {
            if let Ok(rank) = list.binary_search(&self.my_id) {
                self.my_slots.insert(rank as u64);
            }
        }
        self.phase1_prepared = true;
    }

    /// Winner-side: digest announcements into discovered paths and pick
    /// relay assignments.
    fn prepare_assignments(&mut self) {
        // 2-hop discoveries from phase 1, 3-hop from phase 2 are already in
        // `paths` (inserted on reception, never downgrading). Build the
        // relay list.
        self.assignments = self
            .paths
            .iter()
            .filter_map(|(&x, path)| match *path {
                PathTo::Direct => None,
                PathTo::TwoHop(v) => Some(Assignment { v, w: None, x }),
                PathTo::ThreeHop(v, w) => Some(Assignment { v, w: Some(w), x }),
            })
            .collect();
        self.assign_prepared = true;
    }

    /// Record a discovered winner, preferring shorter paths.
    fn record_path(&mut self, x: u32, path: PathTo) {
        if x == self.my_id {
            return;
        }
        let better = match (self.paths.get(&x), &path) {
            (None, _) => true,
            (Some(PathTo::Direct), _) => false,
            (Some(PathTo::TwoHop(_)), PathTo::Direct) => true,
            (Some(PathTo::TwoHop(_)), _) => false,
            (Some(PathTo::ThreeHop(..)), PathTo::ThreeHop(..)) => false,
            (Some(PathTo::ThreeHop(..)), _) => true,
        };
        if better {
            self.paths.insert(x, path);
        }
    }

    fn decide_slot(&mut self, ctx: &mut Context<'_>, slot: TauSlot) -> Option<TauMsg> {
        match slot {
            TauSlot::Mis { iter, r0 } => {
                if iter != self.current_iter {
                    self.current_iter = iter;
                    if !self.won {
                        // Fresh MIS instance for the next iteration.
                        self.mis = MisCore::new(
                            self.cfg.n,
                            ProcessId::new_unchecked(self.my_id),
                            self.cfg.params.mis,
                        );
                    }
                }
                if self.won {
                    return None; // winners sit out later iterations
                }
                let msg = self.mis.step(ctx, r0)?;
                if self.mis.in_mis() {
                    self.won = true;
                    self.output = Some(true);
                    self.masters.insert(self.my_id);
                }
                Some(TauMsg::Mis {
                    msg,
                    detector: Self::detector_vec(ctx),
                })
            }
            TauSlot::StageA { .. } => {
                if self.won && ctx.rng.gen_bool(0.5) {
                    Some(TauMsg::DetectorList {
                        from: self.my_id,
                        ids: Self::detector_vec(ctx),
                    })
                } else {
                    None
                }
            }
            TauSlot::Phase1 { slot, .. } => {
                if !self.phase1_prepared {
                    self.prepare_phase1();
                }
                if !self.won && self.my_slots.contains(&slot) && ctx.rng.gen_bool(0.5) {
                    Some(TauMsg::Announce1 {
                        from: self.my_id,
                        detector: Self::detector_vec(ctx),
                        masters: self.masters.iter().copied().collect(),
                    })
                } else {
                    None
                }
            }
            TauSlot::Phase2 { slot, .. } => {
                if !self.won
                    && self.my_slots.contains(&slot)
                    && !self.heard1.is_empty()
                    && ctx.rng.gen_bool(0.5)
                {
                    Some(TauMsg::Announce2 {
                        from: self.my_id,
                        detector: Self::detector_vec(ctx),
                        entries: self.heard1.iter().map(|(id, m)| (*id, m.clone())).collect(),
                    })
                } else {
                    None
                }
            }
            TauSlot::Assign { .. } => {
                if !self.assign_prepared {
                    self.prepare_assignments();
                }
                if self.won && !self.assignments.is_empty() && ctx.rng.gen_bool(0.5) {
                    Some(TauMsg::Assign {
                        from: self.my_id,
                        detector: Self::detector_vec(ctx),
                        relays: self.assignments.clone(),
                    })
                } else {
                    None
                }
            }
            TauSlot::RelayAssign { .. } => {
                if !self.forward.is_empty() && ctx.rng.gen_bool(0.5) {
                    Some(TauMsg::RelayAssign {
                        from: self.my_id,
                        detector: Self::detector_vec(ctx),
                        entries: self.forward.clone(),
                    })
                } else {
                    None
                }
            }
            TauSlot::Done { .. } => {
                if self.output.is_none() {
                    self.output = Some(false);
                }
                None
            }
        }
    }

    fn receive_msg(&mut self, ctx: &Context<'_>, msg: &TauMsg) {
        // Mutual (H) filter: the sender must be in my detector and I must be
        // in the sender's.
        if !ctx.detector.contains(&msg.from()) {
            return;
        }
        if !msg.sender_detector().contains(&self.my_id) {
            return;
        }
        match msg {
            TauMsg::Mis { msg, .. } => {
                if !self.won {
                    self.mis.on_message(ctx, msg);
                }
                if let MisMsg::Announce { from } = msg {
                    self.masters.insert(*from);
                }
            }
            TauMsg::DetectorList { from, ids } => {
                self.masters.insert(*from);
                self.winner_lists.insert(*from, ids.clone());
                if self.won {
                    self.record_path(*from, PathTo::Direct);
                }
            }
            TauMsg::Announce1 { from, masters, .. } => {
                self.heard1.insert(*from, masters.clone());
                if self.won {
                    for &x in masters {
                        self.record_path(x, PathTo::TwoHop(*from));
                    }
                }
            }
            TauMsg::Announce2 { from, entries, .. } => {
                if self.won {
                    for (w, masters_w) in entries {
                        for &x in masters_w {
                            self.record_path(x, PathTo::ThreeHop(*from, *w));
                        }
                    }
                }
            }
            TauMsg::Assign { relays, .. } => {
                for a in relays {
                    if a.v == self.my_id {
                        if self.output.is_none() {
                            self.output = Some(true);
                        }
                        if let Some(w) = a.w {
                            self.forward.push((w, a.x));
                        }
                    }
                }
            }
            TauMsg::RelayAssign { entries, .. } => {
                for &(w, _x) in entries {
                    if w == self.my_id && self.output.is_none() {
                        self.output = Some(true);
                    }
                }
            }
        }
    }
}

impl Process for TauCcds {
    type Msg = Wire<TauMsg>;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg> {
        let r0 = ctx.local_round - 1;
        let slot = self.schedule.slot(r0);
        match self.decide_slot(ctx, slot) {
            Some(m) => {
                let bits = m.encoded_bits(self.cfg.n);
                Action::Broadcast(Wire::new(m, bits))
            }
            None => Action::Idle,
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>) {
        if let Some(wire) = msg {
            self.receive_msg(ctx, wire.body());
        }
    }

    fn output(&self) -> Option<bool> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ccds;
    use radio_sim::topology::{random_geometric, RandomGeometricConfig};
    use radio_sim::{
        DualGraph, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment, SpuriousSource,
    };
    use rand::SeedableRng;

    #[test]
    fn schedule_covers_all_stages() {
        let cfg = TauConfig::new(32, 6, 1);
        let s = cfg.schedule();
        assert_eq!(s.iterations, 2);
        assert!(matches!(s.slot(0), TauSlot::Mis { iter: 0, r0: 0 }));
        assert!(matches!(s.slot(s.mis_len), TauSlot::Mis { iter: 1, r0: 0 }));
        let base = 2 * s.mis_len;
        assert!(matches!(s.slot(base), TauSlot::StageA { round: 0 }));
        assert!(matches!(
            s.slot(base + s.slot_len),
            TauSlot::Phase1 { slot: 0, round: 0 }
        ));
        assert!(matches!(
            s.slot(base + s.slot_len + s.slots * s.slot_len),
            TauSlot::Phase2 { slot: 0, round: 0 }
        ));
        assert!(matches!(s.slot(s.total), TauSlot::Done { .. }));
    }

    #[test]
    fn tau_zero_matches_plain_structure() {
        // With τ = 0 and a 0-complete detector the algorithm reduces to one
        // MIS iteration plus the exchange; it must still build a valid CCDS.
        let g = Graph::from_edges(8, (0..7).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let cfg = TauConfig::new(8, net.max_degree_g(), 0);
        let total = cfg.schedule().total;
        let mut engine = EngineBuilder::new(net.clone())
            .seed(5)
            .spawn(|info| TauCcds::new(&cfg, info.id))
            .unwrap();
        engine.run(total + 1);
        let report = check_ccds(&net, net.g(), &engine.outputs());
        assert!(report.terminated);
        assert!(report.connected, "outputs: {:?}", engine.outputs());
        assert!(report.dominating);
    }

    #[test]
    fn one_complete_detector_still_builds_ccds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let net = random_geometric(&RandomGeometricConfig::dense(32), &mut rng).unwrap();
        let ids = IdAssignment::identity(net.n());
        let det = LinkDetectorAssignment::tau_complete(
            &net,
            &ids,
            1,
            SpuriousSource::UnreliableNeighbors,
            &mut rng,
        );
        let h = det.h_graph(&ids);
        let cfg = TauConfig::new(net.n(), net.max_degree_g() + 1, 1);
        let total = cfg.schedule().total;
        let mut engine = EngineBuilder::new(net.clone())
            .seed(13)
            .detector(det)
            .spawn(|info| TauCcds::new(&cfg, info.id))
            .unwrap();
        engine.run(total + 1);
        let report = check_ccds(&net, &h, &engine.outputs());
        assert!(report.terminated);
        assert!(
            report.dominating,
            "violations: {:?}",
            report.domination_violations
        );
        assert!(report.connected);
    }

    #[test]
    fn running_time_linear_in_delta() {
        let p = TauParams::default();
        let small = TauConfig {
            n: 256,
            delta_bound: 10,
            tau: 1,
            params: p,
        }
        .schedule();
        let large = TauConfig {
            n: 256,
            delta_bound: 100,
            tau: 1,
            params: p,
        }
        .schedule();
        let fixed = 2 * small.mis_len + 3 * small.slot_len;
        let var_small = small.total - fixed;
        let var_large = large.total - fixed;
        // The variable part scales linearly with the slot count.
        assert_eq!(var_small / (small.slots), var_large / (large.slots));
    }

    #[test]
    fn message_sizes_grow_with_detector() {
        let m = TauMsg::DetectorList {
            from: 1,
            ids: vec![1, 2, 3],
        };
        let big = TauMsg::DetectorList {
            from: 1,
            ids: (1..100).collect(),
        };
        assert!(big.encoded_bits(128) > m.encoded_bits(128));
    }
}
