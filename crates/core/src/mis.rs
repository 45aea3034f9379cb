//! The Section 4 MIS algorithm for the dual graph model.
//!
//! The execution is divided into `ℓ_E = Θ(log n)` *epochs*. At the start of
//! an epoch every process declares itself *active* unless its MIS set `M_u`
//! already contains its own id or a detector neighbor's id. An epoch has
//! `⌈log n⌉` *competition phases* of `ℓ_P = Θ(log n)` rounds: in phase `i`
//! active processes broadcast a contender message with probability
//! `2^{i-1}/n` (doubling each phase up to 1/2); receiving a contender from a
//! detector neighbor *knocks a process out* for the rest of the epoch. A
//! process that survives every competition phase joins the MIS (outputs 1)
//! and broadcasts an announcement with probability 1/2 throughout the final
//! *announcement phase*; processes receiving an announcement from a detector
//! neighbor record it in `M` and output 0.
//!
//! The point of the careful doubling-plus-knockout structure is robustness
//! to unreliable links: the analysis (Lemma 4.3) never relies on a message
//! being delivered over an edge the adversary controls — it relies on a
//! process broadcasting *alone* within `G'` interference range, which the
//! adversary cannot prevent.
//!
//! Theorem 4.6: with 0-complete link detectors this solves the MIS problem
//! in `O(log³ n)` rounds, w.h.p.

use crate::messages::Wire;
use crate::params::{id_bits, MisParams};
use radio_sim::{Action, Context, Process, ProcessId};
use rand::Rng as _;
use std::collections::BTreeSet;

/// MIS protocol messages. Senders always label messages with their id; the
/// algorithm discards receptions from processes outside the link detector
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// "I am competing" — knocks out active detector neighbors.
    Contender {
        /// Sender's process id.
        from: u32,
    },
    /// "I joined the MIS" — covered detector neighbors output 0.
    Announce {
        /// Sender's process id.
        from: u32,
    },
}

impl MisMsg {
    /// Sender's id, whichever variant.
    pub fn from(&self) -> u32 {
        match *self {
            MisMsg::Contender { from } | MisMsg::Announce { from } => from,
        }
    }

    /// Encoded size: one id plus a one-bit tag.
    pub fn encoded_bits(&self, n: usize) -> u64 {
        id_bits(n) + 1
    }
}

/// The MIS state machine, independent of the wire message type so the CCDS
/// algorithm (whose message enum embeds [`MisMsg`]) can drive it directly.
///
/// Standalone use goes through [`Mis`], the [`Process`] wrapper.
#[derive(Debug, Clone)]
pub struct MisCore {
    n: usize,
    my_id: u32,
    params: MisParams,
    phase_len: u64,
    comp_phases: u32,
    epoch_len: u64,
    total: u64,
    mis_set: BTreeSet<u32>,
    output: Option<bool>,
    active: bool,
    in_mis: bool,
    announce_prob: f64,
}

impl MisCore {
    /// Creates the state machine for a process with the given id in a
    /// network of size `n`.
    pub fn new(n: usize, my_id: ProcessId, params: MisParams) -> Self {
        MisCore {
            n,
            my_id: my_id.get(),
            params,
            phase_len: params.phase_len(n),
            comp_phases: params.competition_phases(n),
            epoch_len: params.epoch_len(n),
            total: params.total_rounds(n),
            mis_set: BTreeSet::new(),
            output: None,
            active: false,
            in_mis: false,
            announce_prob: params.announce_prob(),
        }
    }

    /// Creates a state machine whose MIS outcome is already decided — used
    /// by wrappers (e.g. the Section 8 repair prototype) that re-run the
    /// CCDS search stage on top of an established MIS.
    pub fn pre_decided(
        n: usize,
        my_id: ProcessId,
        params: MisParams,
        in_mis: bool,
        mis_set: BTreeSet<u32>,
    ) -> Self {
        let mut core = Self::new(n, my_id, params);
        core.in_mis = in_mis;
        core.output = Some(in_mis);
        core.mis_set = mis_set;
        if in_mis {
            core.mis_set.insert(core.my_id);
        }
        core
    }

    /// Total rounds the algorithm runs (`O(log³ n)`).
    pub fn total_rounds(&self) -> u64 {
        self.total
    }

    /// One round of the protocol. `r0` is the 0-based round index since the
    /// algorithm started; returns the message to broadcast, if any.
    pub fn step(&mut self, ctx: &mut Context<'_>, r0: u64) -> Option<MisMsg> {
        if r0 >= self.total {
            return None;
        }
        // MIS members announce perpetually (every round, probability
        // `announce_prob`). The Section 4 text announces only during the
        // joining epoch's announcement phase; that leaves a neighbor that
        // misses the one announcement free to win the next epoch unopposed
        // (its MIS neighbor is silent during competition phases). The
        // paper's own Section 9 variant switches to announcing "for the
        // remainder of the execution", which closes the gap; we adopt it
        // here for all starts. See DESIGN.md's deviations table.
        if self.in_mis {
            if ctx.rng.gen_bool(self.announce_prob) {
                return Some(MisMsg::Announce { from: self.my_id });
            }
            return None;
        }
        let epoch_pos = r0 % self.epoch_len;
        if epoch_pos == 0 {
            self.active = self.output.is_none()
                && !self.mis_set.contains(&self.my_id)
                && self.mis_set.iter().all(|id| !ctx.detector.contains(id));
        }
        if !self.active {
            return None;
        }
        let phase_idx = (epoch_pos / self.phase_len) as u32;
        if phase_idx < self.comp_phases {
            // Competition: probability doubles each phase, 1/n up to 1/2.
            let p = (2f64.powi(phase_idx as i32) / self.n as f64).min(0.5);
            if ctx.rng.gen_bool(p) {
                return Some(MisMsg::Contender { from: self.my_id });
            }
        } else if self.output.is_none() {
            // Announcement phase: survivors join the MIS and announce (the
            // perpetual-announcement branch above takes over from the next
            // round on). Outputs are irrevocable: a process covered earlier
            // this epoch never reaches this branch.
            self.in_mis = true;
            self.output = Some(true);
            self.mis_set.insert(self.my_id);
            if ctx.rng.gen_bool(self.announce_prob) {
                return Some(MisMsg::Announce { from: self.my_id });
            }
        }
        None
    }

    /// Handles a received MIS message. Messages from processes outside the
    /// detector set are discarded, per the algorithm.
    pub fn on_message(&mut self, ctx: &Context<'_>, msg: &MisMsg) {
        if !ctx.detector.contains(&msg.from()) {
            return;
        }
        match *msg {
            MisMsg::Contender { .. } => {
                if self.active && !self.in_mis {
                    self.active = false; // knocked out for this epoch
                }
            }
            MisMsg::Announce { from } => {
                self.mis_set.insert(from);
                if !self.in_mis && self.output.is_none() {
                    // Covered: output 0 and stop competing immediately (a
                    // covered process must not survive the rest of the
                    // epoch and join).
                    self.output = Some(false);
                    self.active = false;
                }
            }
        }
    }

    /// The process's MIS output, once decided.
    pub fn output(&self) -> Option<bool> {
        self.output
    }

    /// Whether this process joined the MIS.
    pub fn in_mis(&self) -> bool {
        self.in_mis
    }

    /// The MIS set `M_u`: ids of known MIS processes (all detector
    /// neighbors, plus the process itself if it joined).
    pub fn mis_set(&self) -> &BTreeSet<u32> {
        &self.mis_set
    }

    /// The network size this instance was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// This process's id.
    pub fn my_id(&self) -> u32 {
        self.my_id
    }

    /// The parameters this instance was built with.
    pub fn params(&self) -> MisParams {
        self.params
    }
}

/// The standalone MIS algorithm as an engine [`Process`].
///
/// # Examples
///
/// ```
/// use radio_structures::{Mis, params::MisParams};
/// use radio_sim::{EngineBuilder, DualGraph, Graph, Process};
///
/// let net = DualGraph::classic(Graph::complete(8))?;
/// let params = MisParams::default();
/// let mut engine = EngineBuilder::new(net)
///     .seed(3)
///     .spawn(|info| Mis::new(info.n, info.id, params))?;
/// let budget = params.total_rounds(8);
/// engine.run(budget);
/// // In a clique, exactly one process should win.
/// let winners = engine.procs().iter().filter(|p| p.core().in_mis()).count();
/// assert_eq!(winners, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mis {
    core: MisCore,
}

impl Mis {
    /// Creates an MIS process for a network of size `n`.
    pub fn new(n: usize, my_id: ProcessId, params: MisParams) -> Self {
        Mis {
            core: MisCore::new(n, my_id, params),
        }
    }

    /// Read access to the underlying state machine.
    pub fn core(&self) -> &MisCore {
        &self.core
    }
}

impl Process for Mis {
    type Msg = Wire<MisMsg>;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg> {
        let r0 = ctx.local_round - 1;
        match self.core.step(ctx, r0) {
            Some(msg) => {
                let bits = msg.encoded_bits(self.core.n);
                Action::Broadcast(Wire::new(msg, bits))
            }
            None => Action::Idle,
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>) {
        if let Some(wire) = msg {
            self.core.on_message(ctx, wire.body());
        }
    }

    fn output(&self) -> Option<bool> {
        self.core.output()
    }

    /// The algorithm has a fixed-length schedule; a process is done when it
    /// has an output (w.h.p. before the schedule ends).
    fn is_done(&self) -> bool {
        self.core.output().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::adversary::{AllUnreliable, Collider};
    use radio_sim::{DualGraph, EngineBuilder, Graph, LinkDetectorAssignment, NodeId};

    fn run_mis(net: &DualGraph, seed: u64) -> Vec<Option<bool>> {
        let params = MisParams::default();
        let n = net.n();
        let mut engine = EngineBuilder::new(net.clone())
            .seed(seed)
            .spawn(|info| Mis::new(info.n, info.id, params))
            .unwrap();
        engine.run(params.total_rounds(n));
        engine.outputs()
    }

    #[test]
    fn clique_elects_exactly_one() {
        let net = DualGraph::classic(Graph::complete(12)).unwrap();
        let out = run_mis(&net, 1);
        assert_eq!(out.iter().filter(|o| **o == Some(true)).count(), 1);
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn path_alternates_legally() {
        let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let out = run_mis(&net, 2);
        // Independence: no two adjacent 1s. Maximality: every 0 has a 1
        // neighbor. Termination: all decided.
        assert!(out.iter().all(Option::is_some));
        for (u, v) in net.g().edges() {
            assert!(!(out[u] == Some(true) && out[v] == Some(true)));
        }
        for v in 0..10 {
            if out[v] == Some(false) {
                assert!(net.g().neighbors(v).iter().any(|&u| out[u] == Some(true)));
            }
        }
    }

    #[test]
    fn survives_unreliable_adversaries() {
        // Path in G plus long-range unreliable chords the adversary always
        // activates (maximum interference).
        let g = Graph::from_edges(12, (0..11).map(|i| (i, i + 1))).unwrap();
        let mut gp = g.clone();
        for i in 0..10 {
            gp.add_edge(i, i + 2);
        }
        let net = DualGraph::new(g, gp).unwrap();
        let params = MisParams::default();
        for adversary in 0..2 {
            let mut builder = EngineBuilder::new(net.clone()).seed(77);
            builder = if adversary == 0 {
                builder.adversary(AllUnreliable)
            } else {
                builder.adversary(Collider)
            };
            let mut engine = builder
                .spawn(|info| Mis::new(info.n, info.id, params))
                .unwrap();
            engine.run(params.total_rounds(12));
            let out = engine.outputs();
            assert!(out.iter().all(Option::is_some), "termination failed");
            for (u, v) in net.g().edges() {
                assert!(!(out[u] == Some(true) && out[v] == Some(true)));
            }
            for v in 0..12 {
                if out[v] == Some(false) {
                    assert!(net.g().neighbors(v).iter().any(|&u| out[u] == Some(true)));
                }
            }
        }
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let msg = MisMsg::Contender { from: 3 };
        assert_eq!(msg.encoded_bits(256), 10); // 9 id bits + tag
        assert_eq!(msg.from(), 3);
        let ann = MisMsg::Announce { from: 9 };
        assert_eq!(ann.from(), 9);
    }

    #[test]
    fn knocked_out_process_stays_quiet_within_epoch() {
        // Direct state-machine test: drive two cores by hand.
        use rand::SeedableRng;
        let params = MisParams::default();
        let mut core = MisCore::new(4, ProcessId::new(1).unwrap(), params);
        let mut rng = radio_sim::ProcessRng::seed_from_u64(5);
        let detector = LinkDetectorAssignment::from_sets(vec![[2u32].into()]);
        let mut ctx = Context {
            local_round: 1,
            n: 4,
            my_id: ProcessId::new(1).unwrap(),
            detector: detector.set(NodeId(0)),
            rng: &mut rng,
        };
        // Round 0 activates the process.
        let _ = core.step(&mut ctx, 0);
        assert!(core.output().is_none());
        // A contender from a detector neighbor knocks it out...
        core.on_message(&ctx, &MisMsg::Contender { from: 2 });
        // ...after which it never broadcasts for the rest of the epoch.
        for r0 in 1..core.params_epoch_len_for_test() {
            assert!(core.step(&mut ctx, r0).is_none());
        }
    }

    impl MisCore {
        fn params_epoch_len_for_test(&self) -> u64 {
            self.epoch_len
        }
    }

    #[test]
    fn announce_from_non_detector_is_discarded() {
        use rand::SeedableRng;
        let params = MisParams::default();
        let mut core = MisCore::new(4, ProcessId::new(1).unwrap(), params);
        let mut rng = radio_sim::ProcessRng::seed_from_u64(5);
        let detector = LinkDetectorAssignment::from_sets(vec![[2u32].into()]);
        let ctx = Context {
            local_round: 1,
            n: 4,
            my_id: ProcessId::new(1).unwrap(),
            detector: detector.set(NodeId(0)),
            rng: &mut rng,
        };
        core.on_message(&ctx, &MisMsg::Announce { from: 3 });
        assert!(core.output().is_none());
        core.on_message(&ctx, &MisMsg::Announce { from: 2 });
        assert_eq!(core.output(), Some(false));
    }
}
