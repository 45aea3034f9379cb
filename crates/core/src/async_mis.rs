//! The Section 9 MIS variant: asynchronous starts, optional topology
//! knowledge.
//!
//! When processes wake at different rounds their epochs are not aligned; a
//! newly awake process must not knock out a neighbor that is about to join
//! the MIS. Two changes fix this (following the paper, which in turn follows
//! Moscibroda–Wattenhofer):
//!
//! 1. every epoch begins with a **listening phase** of `Θ(log² n)` silent
//!    rounds — receiving any message during it knocks the process back to a
//!    fresh epoch (with a fresh listening phase);
//! 2. a process that joins the MIS **announces forever** (probability 1/2
//!    every round), so late wakers still learn of it.
//!
//! Run with 0-complete detectors this solves MIS in the dual graph model; run
//! with [`AsyncFilter::AcceptAll`] it needs **no topology information** and
//! solves MIS in the classic model (`G = G'`), within `O(log³ n)` rounds of
//! each process's wake-up (Theorem 9.4) — a log factor slower than [15] in
//! exchange for a simpler structure, exactly the trade the paper makes.

use crate::messages::Wire;
use crate::mis::MisMsg;
use crate::params::{ceil_log2, MisParams};
use radio_sim::{Action, Context, Process, ProcessId};
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Message filtering mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsyncFilter {
    /// Discard messages from processes outside the link detector set
    /// (requires a 0-complete detector; works in the dual graph model).
    Detector,
    /// Accept every message — no topology knowledge at all (sound in the
    /// classic model `G = G'`).
    AcceptAll,
}

/// Parameters of the asynchronous-start MIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsyncMisParams {
    /// Competition/announcement phase constants (as in the synchronous
    /// algorithm).
    pub mis: MisParams,
    /// Multiplier for the listening phase: `listen_factor · ⌈log₂ n⌉²`
    /// rounds.
    pub listen_factor: u32,
}

impl Default for AsyncMisParams {
    fn default() -> Self {
        AsyncMisParams {
            mis: MisParams::default(),
            listen_factor: 2,
        }
    }
}

impl AsyncMisParams {
    /// Listening-phase length in rounds (`Θ(log² n)`).
    pub fn listen_len(&self, n: usize) -> u64 {
        let l = u64::from(ceil_log2(n));
        u64::from(self.listen_factor) * l * l
    }

    /// Length of one undisturbed epoch: listening + competition phases +
    /// announcement.
    pub fn epoch_len(&self, n: usize) -> u64 {
        self.listen_len(n) + self.mis.epoch_len(n)
    }
}

/// The asynchronous-start MIS process.
///
/// Unlike the synchronous [`crate::Mis`], epochs are tracked by a private
/// counter that *resets* on knock-outs, and MIS members broadcast their
/// announcement forever.
#[derive(Debug, Clone)]
pub struct AsyncMis {
    n: usize,
    my_id: u32,
    params: AsyncMisParams,
    filter: AsyncFilter,
    listen_len: u64,
    phase_len: u64,
    comp_phases: u32,
    /// Position within the current epoch (resets on knock-out).
    epoch_pos: u64,
    output: Option<bool>,
    in_mis: bool,
    mis_set: BTreeSet<u32>,
}

impl AsyncMis {
    /// Creates an asynchronous-start MIS process.
    pub fn new(n: usize, my_id: ProcessId, params: AsyncMisParams, filter: AsyncFilter) -> Self {
        AsyncMis {
            n,
            my_id: my_id.get(),
            params,
            filter,
            listen_len: params.listen_len(n),
            phase_len: params.mis.phase_len(n),
            comp_phases: params.mis.competition_phases(n),
            epoch_pos: 0,
            output: None,
            in_mis: false,
            mis_set: BTreeSet::new(),
        }
    }

    /// Whether this process joined the MIS.
    pub fn in_mis(&self) -> bool {
        self.in_mis
    }

    /// Known MIS members (from announcements).
    pub fn mis_set(&self) -> &BTreeSet<u32> {
        &self.mis_set
    }

    /// The parameters this instance was built with.
    pub fn params(&self) -> AsyncMisParams {
        self.params
    }

    fn relevant(&self, ctx: &Context<'_>, from: u32) -> bool {
        match self.filter {
            AsyncFilter::Detector => ctx.detector.contains(&from),
            AsyncFilter::AcceptAll => true,
        }
    }

    /// Restart the epoch (knock-out): back to a fresh listening phase.
    fn restart(&mut self) {
        self.epoch_pos = 0;
    }
}

impl Process for AsyncMis {
    type Msg = Wire<MisMsg>;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg> {
        // MIS members announce forever.
        if self.in_mis {
            if ctx.rng.gen_bool(self.params.mis.announce_prob()) {
                let m = MisMsg::Announce { from: self.my_id };
                let bits = m.encoded_bits(self.n);
                return Action::Broadcast(Wire::new(m, bits));
            }
            return Action::Idle;
        }
        // Processes that output 0 go silent.
        if self.output.is_some() {
            return Action::Idle;
        }
        let pos = self.epoch_pos;
        self.epoch_pos += 1;
        if pos < self.listen_len {
            return Action::Idle; // listening phase
        }
        let comp_pos = pos - self.listen_len;
        let phase_idx = (comp_pos / self.phase_len) as u32;
        if phase_idx < self.comp_phases {
            let p = (2f64.powi(phase_idx as i32) / self.n as f64).min(0.5);
            if ctx.rng.gen_bool(p) {
                let m = MisMsg::Contender { from: self.my_id };
                let bits = m.encoded_bits(self.n);
                return Action::Broadcast(Wire::new(m, bits));
            }
        } else {
            // Survived every competition phase: join the MIS.
            self.in_mis = true;
            self.output = Some(true);
            self.mis_set.insert(self.my_id);
            if ctx.rng.gen_bool(self.params.mis.announce_prob()) {
                let m = MisMsg::Announce { from: self.my_id };
                let bits = m.encoded_bits(self.n);
                return Action::Broadcast(Wire::new(m, bits));
            }
        }
        Action::Idle
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>) {
        let Some(wire) = msg else { return };
        let body = wire.body();
        if !self.relevant(ctx, body.from()) {
            return;
        }
        match *body {
            MisMsg::Contender { .. } => {
                if !self.in_mis && self.output.is_none() {
                    // Knocked out: start a new epoch with a fresh listening
                    // phase (this also covers receptions during listening).
                    self.restart();
                }
            }
            MisMsg::Announce { from } => {
                self.mis_set.insert(from);
                if !self.in_mis && self.output.is_none() {
                    self.output = Some(false);
                }
            }
        }
    }

    fn output(&self) -> Option<bool> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::{CsrGraph, DualGraph, EngineBuilder, Graph};

    fn check_valid_mis(g: &CsrGraph, out: &[Option<bool>]) {
        assert!(out.iter().all(Option::is_some), "termination: {out:?}");
        for (u, v) in g.edges() {
            assert!(
                !(out[u] == Some(true) && out[v] == Some(true)),
                "independence violated on ({u}, {v})"
            );
        }
        for v in 0..g.n() {
            if out[v] == Some(false) {
                assert!(
                    g.neighbors(v)
                        .iter()
                        .any(|&u| out[u as usize] == Some(true)),
                    "maximality violated at {v}"
                );
            }
        }
    }

    #[test]
    fn synchronous_start_still_works() {
        let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let params = AsyncMisParams::default();
        let mut engine = EngineBuilder::new(net)
            .seed(2)
            .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::AcceptAll))
            .unwrap();
        engine.run(40 * params.epoch_len(10));
        check_valid_mis(engine.net().g(), &engine.outputs());
    }

    #[test]
    fn staggered_wakeups_classic_model() {
        let g = Graph::from_edges(12, (0..11).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let params = AsyncMisParams::default();
        // Adversarial-ish staggering: one process wakes every half epoch.
        let half = params.epoch_len(12) / 2;
        let wakes: Vec<u64> = (0..12).map(|i| 1 + i as u64 * half).collect();
        let mut engine = EngineBuilder::new(net)
            .seed(4)
            .wake_rounds(wakes)
            .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::AcceptAll))
            .unwrap();
        engine.run(200 * params.epoch_len(12));
        check_valid_mis(engine.net().g(), &engine.outputs());
    }

    #[test]
    fn dual_graph_with_detector_filter() {
        let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1))).unwrap();
        let mut gp = g.clone();
        for i in 0..8 {
            gp.add_edge(i, i + 2);
        }
        let net = DualGraph::new(g, gp).unwrap();
        let params = AsyncMisParams::default();
        let wakes: Vec<u64> = (0..10).map(|i| 1 + (i as u64 % 3) * 500).collect();
        let mut engine = EngineBuilder::new(net)
            .seed(6)
            .wake_rounds(wakes)
            .adversary(radio_sim::adversary::AllUnreliable)
            .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::Detector))
            .unwrap();
        engine.run(400 * params.epoch_len(10));
        check_valid_mis(engine.net().g(), &engine.outputs());
    }

    #[test]
    fn latency_is_measured_from_wake() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let params = AsyncMisParams::default();
        let mut engine = EngineBuilder::new(net)
            .seed(8)
            .wake_rounds(vec![1, 50, 100, 150])
            .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::AcceptAll))
            .unwrap();
        engine.run(50_000);
        for v in 0..4 {
            let lat = engine.decided_latency(radio_sim::NodeId(v));
            assert!(lat.is_some());
        }
    }

    #[test]
    fn listen_len_is_log_squared() {
        let p = AsyncMisParams::default();
        assert_eq!(p.listen_len(256), u64::from(p.listen_factor) * 64);
    }
}
