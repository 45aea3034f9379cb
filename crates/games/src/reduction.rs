//! The two reduction transformations behind Theorem 7.1.
//!
//! **Lemma 7.2 (CCDS → double hitting game).** Given any CCDS algorithm for
//! 1-complete detectors, build two player automata that *cooperatively
//! simulate* it on the two-clique network: player A simulates processes
//! `1..=β` (clique A), player B simulates `β+1..=2β` (clique B). Each player
//! gives its processes the 1-complete detector consistent with the bridge
//! endpoints being the targets. The dual-graph adversary lets each player
//! resolve every round *locally*: if two or more of its processes broadcast,
//! everyone can be made to collide (the adversary activates `G'` edges); if
//! exactly one broadcasts, the whole clique receives it — and the player
//! *guesses that process's id*, because the only event that could leak
//! information between cliques is a bridge endpoint broadcasting alone,
//! which is exactly a correct guess. When a simulated clique terminates, the
//! player guesses its CCDS members (constant-bounded, so `O(1)` extra
//! rounds): domination+connectivity force the bridge endpoints into the
//! CCDS.
//!
//! **Lemma 7.3 (double → single).** The cross-inputs allow coordination, so
//! one player alone isn't a single-game solver. Instead: for every target
//! pair `(x, y)` one of the two players must hit fast w.h.p. (their failure
//! probabilities multiply); tabulate the "winner" over the `2β × 2β` grid,
//! find a column with ≥ β A-winners (or a row with ≥ β B-winners), and the
//! winning automaton restricted to that column, with its guesses mapped
//! through a bijection `ψ`, solves the β-single hitting game. Since that
//! game needs `Ω(β)` rounds, the CCDS algorithm needed `Ω(Δ)`.

use crate::double::DoublePlayer;
use crate::single::SinglePlayer;
use radio_sim::ProcessRng;
use radio_sim::{
    Context, DetectorSet, LinkDetectorAssignment, MessageSize, NodeId, Process, ProcessId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

/// Which clique a [`CliquePlayer`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliqueRole {
    /// Processes `1..=β` (guesses are their ids directly).
    A,
    /// Processes `β+1..=2β` (guesses are normalized by subtracting β).
    B,
}

/// The Lemma 7.2 player: one clique of a CCDS algorithm, simulated as a
/// double-hitting-game automaton.
///
/// Generic over the algorithm's [`Process`] type, because the lemma holds
/// for *any* CCDS algorithm; the experiments instantiate it with
/// `radio_structures::TauCcds` (our τ = 1 algorithm).
pub struct CliquePlayer<P: Process> {
    procs: Vec<P>,
    detectors: LinkDetectorAssignment,
    ids: Vec<u32>,
    rngs: Vec<ProcessRng>,
    n_total: usize,
    beta: u32,
    role: CliqueRole,
    local_round: u64,
    halted: bool,
    terminal_guesses: VecDeque<u32>,
    /// Rounds of simulation executed (for complexity accounting).
    pub sim_rounds: u64,
}

impl<P: Process> CliquePlayer<P> {
    /// Builds the player for `role`, given the *opponent's* target (the
    /// only input the double hitting game provides) and a factory producing
    /// the algorithm's process for a given id/detector.
    ///
    /// `other_target` must be in `1..=β`; it names the opposite clique's
    /// bridge endpoint (local index).
    pub fn new<F>(role: CliqueRole, beta: u32, other_target: u32, seed: u64, mut factory: F) -> Self
    where
        F: FnMut(ProcessId, DetectorSet<'_>, usize) -> P,
    {
        assert!((1..=beta).contains(&other_target), "target outside [beta]");
        let n_total = 2 * beta as usize;
        let (lo, _hi, foreign) = match role {
            // Clique A holds ids 1..=β; its spurious detector entry is the
            // bridge endpoint in clique B, process `other_target + β`.
            CliqueRole::A => (1u32, beta, other_target + beta),
            // Clique B holds ids β+1..=2β; its spurious entry is process
            // `other_target` in clique A.
            CliqueRole::B => (beta + 1, 2 * beta, other_target),
        };
        let ids: Vec<u32> = (0..beta).map(|k| lo + k).collect();
        let detectors = LinkDetectorAssignment::from_sets(
            ids.iter()
                .map(|&id| {
                    let others = ids.iter().copied().filter(|&j| j != id);
                    others.chain([foreign]).collect::<BTreeSet<u32>>()
                })
                .collect(),
        );
        let mut master = StdRng::seed_from_u64(seed);
        let mut procs = Vec::with_capacity(beta as usize);
        let mut rngs = Vec::with_capacity(beta as usize);
        for (i, &id) in ids.iter().enumerate() {
            let pid = ProcessId::new_unchecked(id);
            procs.push(factory(pid, detectors.set(NodeId(i)), n_total));
            rngs.push(ProcessRng::seed_from_u64(master.gen()));
        }
        CliquePlayer {
            procs,
            detectors,
            ids,
            rngs,
            n_total,
            beta,
            role,
            local_round: 0,
            halted: false,
            terminal_guesses: VecDeque::new(),
            sim_rounds: 0,
        }
    }

    fn normalize(&self, id: u32) -> u32 {
        match self.role {
            CliqueRole::A => id,
            CliqueRole::B => id - self.beta,
        }
    }
}

impl<P: Process> DoublePlayer for CliquePlayer<P> {
    fn guess(&mut self, _round: u64) -> Option<u32> {
        if self.halted {
            return self.terminal_guesses.pop_front();
        }
        self.local_round += 1;
        self.sim_rounds += 1;
        let k = self.procs.len();

        // Simulated decide phase.
        let mut messages: Vec<Option<P::Msg>> = Vec::with_capacity(k);
        for i in 0..k {
            let mut ctx = Context {
                local_round: self.local_round,
                n: self.n_total,
                my_id: ProcessId::new_unchecked(self.ids[i]),
                detector: self.detectors.set(NodeId(i)),
                rng: &mut self.rngs[i],
            };
            match self.procs[i].decide(&mut ctx) {
                radio_sim::Action::Broadcast(m) => {
                    let _ = m.bits();
                    messages.push(Some(m));
                }
                radio_sim::Action::Idle => messages.push(None),
            }
        }
        let broadcasters: Vec<usize> = (0..k).filter(|&i| messages[i].is_some()).collect();

        // Delivery per the proof's adversary: a lone broadcaster reaches its
        // whole clique (and is this round's guess); otherwise everyone
        // observes ⊥ (the adversary manufactures collisions with G' edges).
        let mut guess = None;
        for i in 0..k {
            if messages[i].is_some() {
                continue; // broadcasters receive only their own message
            }
            let delivered = if broadcasters.len() == 1 {
                messages[broadcasters[0]].as_ref()
            } else {
                None
            };
            let mut ctx = Context {
                local_round: self.local_round,
                n: self.n_total,
                my_id: ProcessId::new_unchecked(self.ids[i]),
                detector: self.detectors.set(NodeId(i)),
                rng: &mut self.rngs[i],
            };
            self.procs[i].receive(&mut ctx, delivered);
        }
        if broadcasters.len() == 1 {
            guess = Some(self.normalize(self.ids[broadcasters[0]]));
        }

        // Termination: queue a guess per CCDS member (constant-bounded, so
        // this takes O(1) rounds).
        if self.procs.iter().all(|p| p.output().is_some()) {
            self.halted = true;
            for i in 0..k {
                if self.procs[i].output() == Some(true) {
                    let g = self.normalize(self.ids[i]);
                    self.terminal_guesses.push_back(g);
                }
            }
            if guess.is_none() {
                guess = self.terminal_guesses.pop_front();
            }
        }
        guess
    }
}

/// The Lemma 7.3 winner table over target pairs `(t_a, t_b) ∈ [β]²`.
#[derive(Debug, Clone)]
pub struct WinnerTable {
    beta: u32,
    /// `winner_is_a[x-1][y-1]` for targets `t_a = x`, `t_b = y`.
    winner_is_a: Vec<Vec<bool>>,
}

impl WinnerTable {
    /// Estimates the table by Monte-Carlo: for each pair, whichever player
    /// hits its target within `budget` rounds in the majority of `trials`
    /// runs is the winner (ties default to A, as in the lemma).
    pub fn estimate<FA, FB>(
        beta: u32,
        trials: u32,
        budget: u64,
        seed: u64,
        mut make_a: FA,
        mut make_b: FB,
    ) -> Self
    where
        FA: FnMut(u32, u64) -> Box<dyn DoublePlayer>,
        FB: FnMut(u32, u64) -> Box<dyn DoublePlayer>,
    {
        let mut winner_is_a = vec![vec![false; beta as usize]; beta as usize];
        for x in 1..=beta {
            for y in 1..=beta {
                let mut a_hits = 0u32;
                let mut b_hits = 0u32;
                for t in 0..trials {
                    let s = seed
                        ^ (u64::from(x) << 40)
                        ^ (u64::from(y) << 20)
                        ^ u64::from(t).wrapping_mul(0x9e37_79b9);
                    let mut pa = make_a(y, s);
                    let mut pb = make_b(x, s.wrapping_add(1));
                    let mut a_hit = false;
                    let mut b_hit = false;
                    for r in 1..=budget {
                        if pa.guess(r) == Some(x) {
                            a_hit = true;
                        }
                        if pb.guess(r) == Some(y) {
                            b_hit = true;
                        }
                        if a_hit || b_hit {
                            break;
                        }
                    }
                    if a_hit {
                        a_hits += 1;
                    }
                    if b_hit {
                        b_hits += 1;
                    }
                }
                winner_is_a[(x - 1) as usize][(y - 1) as usize] = a_hits >= b_hits;
            }
        }
        WinnerTable { beta, winner_is_a }
    }

    /// The lemma's counting step: a column `y` with at least `β/2` A-wins,
    /// or a row `x` with at least `β/2` B-wins (over the β×β table the
    /// halves are guaranteed by pigeonhole).
    pub fn extract(&self) -> SingleConstruction {
        let beta = self.beta as usize;
        for y in 0..beta {
            let a_count = (0..beta).filter(|&x| self.winner_is_a[x][y]).count();
            if 2 * a_count >= beta {
                let targets = (0..beta)
                    .filter(|&x| self.winner_is_a[x][y])
                    .map(|x| (x + 1) as u32)
                    .collect();
                return SingleConstruction::FromColumn {
                    y: (y + 1) as u32,
                    targets,
                };
            }
        }
        // Pigeonhole: some row must then be majority-B.
        for x in 0..beta {
            let b_count = (0..beta).filter(|&y| !self.winner_is_a[x][y]).count();
            if 2 * b_count >= beta {
                let targets = (0..beta)
                    .filter(|&y| !self.winner_is_a[x][y])
                    .map(|y| (y + 1) as u32)
                    .collect();
                return SingleConstruction::FromRow {
                    x: (x + 1) as u32,
                    targets,
                };
            }
        }
        unreachable!("pigeonhole guarantees a majority column or row");
    }

    /// Whether A is the winner for targets `(t_a, t_b)`.
    pub fn winner_is_a(&self, t_a: u32, t_b: u32) -> bool {
        self.winner_is_a[(t_a - 1) as usize][(t_b - 1) as usize]
    }
}

/// The single-player construction extracted from a [`WinnerTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SingleConstruction {
    /// Simulate player A with input `y`; its guesses, restricted to
    /// `targets` and mapped through `ψ`, solve the single game.
    FromColumn {
        /// The fixed cross-input fed to A.
        y: u32,
        /// The target subset `S_y` (A-winning rows).
        targets: Vec<u32>,
    },
    /// Symmetric: simulate player B with input `x`.
    FromRow {
        /// The fixed cross-input fed to B.
        x: u32,
        /// The target subset (B-winning columns).
        targets: Vec<u32>,
    },
}

impl SingleConstruction {
    /// Size of the single game this construction solves (`|targets|`).
    pub fn domain(&self) -> u32 {
        match self {
            SingleConstruction::FromColumn { targets, .. }
            | SingleConstruction::FromRow { targets, .. } => targets.len() as u32,
        }
    }
}

/// The `P_{A,B}` automaton of Lemma 7.3: a double-game player with a fixed
/// cross-input, with guesses mapped through the bijection `ψ : S → [|S|]`.
pub struct SingleFromDouble {
    inner: Box<dyn DoublePlayer>,
    /// Sorted target subset; `ψ(targets[k]) = k+1`.
    targets: Vec<u32>,
}

impl SingleFromDouble {
    /// Wraps a double-game player (already constructed with the fixed
    /// cross-input) and the target subset from the winner table.
    pub fn new(inner: Box<dyn DoublePlayer>, mut targets: Vec<u32>) -> Self {
        targets.sort_unstable();
        SingleFromDouble { inner, targets }
    }

    /// The single-game domain size.
    pub fn domain(&self) -> u32 {
        self.targets.len() as u32
    }
}

impl SinglePlayer for SingleFromDouble {
    fn guess(&mut self, round: u64) -> u32 {
        match self.inner.guess(round) {
            Some(g) => match self.targets.binary_search(&g) {
                Ok(k) => (k + 1) as u32, // ψ(g)
                Err(_) => 0,             // outside S: never a hit
            },
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::double::{play_double, SweepPlayer};
    use crate::single::play_single;
    use radio_structures::{TauCcds, TauConfig};

    fn tau_player(role: CliqueRole, beta: u32, other: u32, seed: u64) -> CliquePlayer<TauCcds> {
        let cfg = TauConfig::new(2 * beta as usize, beta as usize, 1);
        CliquePlayer::new(role, beta, other, seed, move |pid, _det, _n| {
            TauCcds::new(&cfg, pid)
        })
    }

    #[test]
    fn ccds_simulation_solves_the_double_game() {
        // Lemma 7.2, end to end: simulating our τ=1 CCDS algorithm as two
        // clique players solves the double hitting game.
        let beta = 4u32;
        let cfg = TauConfig::new(2 * beta as usize, beta as usize, 1);
        let budget = cfg.schedule().total + 64;
        let mut solved = 0;
        let pairs = [(1u32, 1u32), (2, 3), (4, 2)];
        for (i, &(t_a, t_b)) in pairs.iter().enumerate() {
            let mut pa = tau_player(CliqueRole::A, beta, t_b, 100 + i as u64);
            let mut pb = tau_player(CliqueRole::B, beta, t_a, 200 + i as u64);
            let out = play_double(beta, t_a, t_b, &mut pa, &mut pb, budget);
            if out.solved_at.is_some() {
                solved += 1;
            }
        }
        assert_eq!(solved, pairs.len(), "every pair should solve w.h.p.");
    }

    #[test]
    fn winner_table_extraction_is_well_formed() {
        let beta = 6u32;
        let table = WinnerTable::estimate(
            beta,
            3,
            64,
            9,
            |_, s| Box::new(SweepPlayer::new(beta, s)),
            |_, s| Box::new(SweepPlayer::new(beta, s)),
        );
        let construction = table.extract();
        assert!(construction.domain() >= beta / 2);
    }

    #[test]
    fn single_from_double_solves_the_single_game() {
        // Lemma 7.3 with sweep players: fix the cross-input, map guesses
        // through ψ, and the result is a legitimate single-game player.
        let beta = 8u32;
        let table = WinnerTable::estimate(
            beta,
            3,
            64,
            5,
            |_, s| Box::new(SweepPlayer::new(beta, s)),
            |_, s| Box::new(SweepPlayer::new(beta, s)),
        );
        match table.extract() {
            SingleConstruction::FromColumn { y, targets } => {
                let domain = targets.len() as u32;
                for t in 1..=domain {
                    let mut p = SingleFromDouble::new(
                        Box::new(SweepPlayer::new(beta, u64::from(y))),
                        targets.clone(),
                    );
                    // The sweep player enumerates all of [β], so ψ(guesses)
                    // covers [domain] within β rounds.
                    let hit = play_single(domain, t, &mut p, u64::from(beta) + 4);
                    assert!(hit.is_some(), "target {t} not hit");
                }
            }
            SingleConstruction::FromRow { x, targets } => {
                let domain = targets.len() as u32;
                for t in 1..=domain {
                    let mut p = SingleFromDouble::new(
                        Box::new(SweepPlayer::new(beta, u64::from(x))),
                        targets.clone(),
                    );
                    let hit = play_single(domain, t, &mut p, u64::from(beta) + 4);
                    assert!(hit.is_some(), "target {t} not hit");
                }
            }
        }
    }

    #[test]
    fn full_theorem_pipeline_with_real_ccds_players() {
        // The complete Thm 7.1 chain, instantiated: CCDS algorithm →
        // (Lemma 7.2) clique players → (Lemma 7.3) winner table → single
        // hitting game solver. β is tiny because the winner table costs
        // β² · trials full simulations.
        let beta = 3u32;
        let cfg = TauConfig::new(2 * beta as usize, beta as usize, 1);
        let budget = cfg.schedule().total + 32;
        let make_a = |other: u32, seed: u64| -> Box<dyn DoublePlayer> {
            Box::new(CliquePlayer::new(
                CliqueRole::A,
                beta,
                other,
                seed,
                move |pid, _d, _n| TauCcds::new(&cfg, pid),
            ))
        };
        let make_b = |other: u32, seed: u64| -> Box<dyn DoublePlayer> {
            Box::new(CliquePlayer::new(
                CliqueRole::B,
                beta,
                other,
                seed,
                move |pid, _d, _n| TauCcds::new(&cfg, pid),
            ))
        };
        let table = WinnerTable::estimate(beta, 2, budget, 31, make_a, make_b);
        let construction = table.extract();
        let domain = construction.domain();
        assert!(domain >= 1);
        // Build the single-game player and verify it hits every target in
        // its domain within the double game's budget.
        let (targets, inner): (Vec<u32>, Box<dyn DoublePlayer>) = match construction {
            SingleConstruction::FromColumn { y, targets } => {
                let p = CliquePlayer::new(CliqueRole::A, beta, y, 77, move |pid, _d, _n| {
                    TauCcds::new(&cfg, pid)
                });
                (targets, Box::new(p))
            }
            SingleConstruction::FromRow { x, targets } => {
                let p = CliquePlayer::new(CliqueRole::B, beta, x, 78, move |pid, _d, _n| {
                    TauCcds::new(&cfg, pid)
                });
                (targets, Box::new(p))
            }
        };
        // One fixed automaton run can only be checked against one target;
        // verify it hits at least one element of its domain (the CCDS puts
        // every clique member or the bridge in play across the run).
        let mut player = SingleFromDouble::new(inner, targets);
        let mut hits = std::collections::BTreeSet::new();
        for r in 1..=budget {
            let g = player.guess(r);
            if (1..=domain).contains(&g) {
                hits.insert(g);
            }
        }
        assert!(
            !hits.is_empty(),
            "the constructed single player never guessed in-domain"
        );
    }

    #[test]
    fn clique_player_guesses_stay_in_range() {
        let beta = 4u32;
        let mut pa = tau_player(CliqueRole::A, beta, 2, 77);
        let mut pb = tau_player(CliqueRole::B, beta, 3, 78);
        for r in 1..=2000 {
            if let Some(g) = pa.guess(r) {
                assert!((1..=beta).contains(&g), "A guessed {g}");
            }
            if let Some(g) = pb.guess(r) {
                assert!((1..=beta).contains(&g), "B guessed {g}");
            }
        }
    }
}
