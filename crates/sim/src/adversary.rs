//! Reach-set adversaries: who controls the unreliable edges each round.
//!
//! In every round the adversary chooses a *reach set* consisting of all of
//! `E` plus an arbitrary subset of `E' \ E`; those links behave reliably for
//! the round. The adversary in this module is adaptive — it sees the current
//! broadcasters before choosing — which is exactly the power the paper's
//! lower-bound constructions exploit (Lemma 7.2).
//!
//! Implementations range from benign ([`ReliableOnly`], which renders `G'`
//! inert) to worst-case ([`Collider`], which uses unreliable edges to create
//! collisions wherever a clean delivery was about to happen;
//! [`CliqueIsolator`], the Lemma 7.2 adversary that prevents inter-clique
//! communication on the two-clique network).

use crate::graph::low_bits;
use crate::network::DualGraph;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Chooses, each round, which unreliable edges (`E' \ E`) join the reach set.
///
/// The choice is a bitmask over [`DualGraph::unreliable_edge_list`]: bit
/// `i % 64` of word `i / 64` activates edge `i`. The mask holds `⌈m'/64⌉`
/// words for `m'` unreliable edges (none on a classic network) and arrives
/// cleared. A mask cannot name a pair outside `E' \ E`, a self-loop or a
/// duplicate, so the engine takes it as it is: setting a bit twice is
/// harmless, and bits past the last edge of the final word never deliver
/// and never count. An adaptive adversary that walks a node's unreliable
/// row finds each slot's edge index in [`DualGraph::unreliable_edge_ids`].
///
/// Only an activated edge with exactly one broadcasting endpoint can change
/// a reception, and the engine reads the mask only along the broadcasters'
/// unreliable rows; the trace still counts every activated edge.
pub trait Adversary {
    /// Marks this round's extra (unreliable) reach edges in `mask`.
    ///
    /// The adversary is adaptive: `broadcasting[v]` reports whether node
    /// `v` broadcasts this round, and `broadcasters` lists those nodes in
    /// ascending order.
    fn extra_edges(
        &mut self,
        round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        broadcasters: &[u32],
        mask: &mut [u64],
    );

    /// Short name for traces and experiment tables.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

impl Adversary for Box<dyn Adversary> {
    fn extra_edges(
        &mut self,
        round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        (**self).extra_edges(round, net, broadcasting, broadcasters, mask);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Sets the bit of edge `e` in `mask`.
#[inline]
fn activate(mask: &mut [u64], e: usize) {
    mask[e >> 6] |= 1 << (e & 63);
}

/// Sets the bits of all `m` unreliable edges.
fn activate_all(mask: &mut [u64], m: usize) {
    for (w, word) in mask.iter_mut().enumerate() {
        *word = low_bits(m, w);
    }
}

/// The benign adversary: unreliable edges never deliver. The execution
/// behaves exactly like the classic radio network on `G`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableOnly;

impl Adversary for ReliableOnly {
    fn extra_edges(
        &mut self,
        _round: u64,
        _net: &DualGraph,
        _broadcasting: &[bool],
        _broadcasters: &[u32],
        _mask: &mut [u64],
    ) {
    }

    fn name(&self) -> &'static str {
        "reliable-only"
    }
}

/// Every unreliable edge is always in the reach set: the execution behaves
/// like the classic radio network on `G'`. Maximizes contention (every
/// `G'`-neighbor can collide with you) without being adaptive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllUnreliable;

impl Adversary for AllUnreliable {
    fn extra_edges(
        &mut self,
        _round: u64,
        net: &DualGraph,
        _broadcasting: &[bool],
        _broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        activate_all(mask, net.unreliable_edge_count());
    }

    fn name(&self) -> &'static str {
        "all-unreliable"
    }
}

/// The 53-bit acceptance threshold of `Rng::gen_bool(p)`: a draw `x`
/// succeeds iff `x >> 11 < coin_threshold(p)`, so a loop can hoist it and
/// keep `gen_bool`'s exact stream.
fn coin_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64) as u64
}

/// Each unreliable edge joins the reach set independently with probability
/// `p` each round — the "fading links" regime observed in deployments.
#[derive(Debug, Clone)]
pub struct RandomUnreliable {
    p: f64,
    rng: StdRng,
}

impl RandomUnreliable {
    /// Creates the adversary with per-edge, per-round probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        RandomUnreliable {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomUnreliable {
    fn extra_edges(
        &mut self,
        _round: u64,
        net: &DualGraph,
        _broadcasting: &[bool],
        _broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        let m = net.unreliable_edge_count();
        // Nothing activates, and nothing is drawn, when `1 - p` rounds to 1:
        // `p = 0`, or `p ≤ 2⁻⁵⁴`, below the 53-bit resolution of
        // `gen_bool`. The skip sampler below would divide by `ln 1 = 0`
        // there and activate every edge.
        if 1.0 - self.p == 1.0 {
            return;
        }
        if self.p >= 1.0 {
            activate_all(mask, m);
            return;
        }
        if self.p < 0.25 {
            // Geometric skip sampling: draw the gap to the next activated
            // edge — one RNG call (plus an `ln`) per *activated* edge,
            // a large win when activations are sparse. The stream differs
            // from the coin-per-edge loop but is equally deterministic per
            // seed.
            let ln_q = (1.0 - self.p).ln();
            let mut i = 0usize;
            loop {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                // Geometric(p) number of skipped edges; 1 - u ∈ (0, 1].
                let skip = ((1.0 - u).ln() / ln_q) as usize;
                i = i.saturating_add(skip);
                if i >= m {
                    return;
                }
                activate(mask, i);
                i += 1;
            }
        }
        if self.p == 0.5 {
            // The common experiment setting: every bit of a random word is
            // an exact Bernoulli(½) coin, so one RNG call marks 64 edges
            // (bit `i` of the word is the coin of the word's `i`-th edge).
            for (w, word) in mask.iter_mut().enumerate() {
                *word = self.rng.next_u64() & low_bits(m, w);
            }
            return;
        }
        // Dense activation: a coin per edge is cheaper than a logarithm
        // per activated edge. Hoist the acceptance threshold out of the
        // loop, and shift each coin into its bit instead of branching.
        let threshold = coin_threshold(self.p);
        for (w, word) in mask.iter_mut().enumerate() {
            for bit in 0..(m - (w << 6)).min(64) {
                *word |= u64::from((self.rng.next_u64() >> 11) < threshold) << bit;
            }
        }
    }

    fn name(&self) -> &'static str {
        "random-unreliable"
    }
}

/// The adaptive collision adversary.
///
/// For each listening node that would receive a clean message over `E`
/// (exactly one reliable broadcaster in range), it looks for an unreliable
/// edge from *another* broadcaster and activates it, turning the clean
/// reception into a collision. This is the behaviour that breaks naive
/// exponential contention-reduction schemes in the dual graph model, and the
/// strongest general-purpose adversary short of problem-specific
/// constructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Collider;

impl Adversary for Collider {
    fn extra_edges(
        &mut self,
        _round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        // A lone broadcaster is no listener's unreliable neighbour and its
        // reliable one at once (E' \ E and E are disjoint), so it leaves no
        // clean reception to break.
        if broadcasters.len() < 2 {
            return;
        }
        // Incident-first: only a listener on some broadcaster's unreliable
        // row can take an edge. It takes the edge to its lowest-numbered
        // broadcasting unreliable neighbour — the first broadcaster, in
        // node order, whose row holds it — iff exactly one of its
        // `G`-neighbours broadcasts. Both counts sum whole rows instead of
        // stopping early: a branch per neighbour costs more than the loads.
        let (reliable, unreliable) = (net.g(), net.unreliable_csr());
        // The broadcasters in `row` numbered below `below`.
        let count = |row: &[u32], below: u32| -> u32 {
            let hits = row.iter().map(|&u| (u < below) & broadcasting[u as usize]);
            hits.map(u32::from).sum()
        };
        for &b in broadcasters {
            let row = unreliable.neighbors(b as usize);
            for (&v, &e) in row.iter().zip(net.unreliable_edge_ids(b as usize)) {
                let v = v as usize;
                if broadcasting[v] {
                    continue;
                }
                if count(reliable.neighbors(v), u32::MAX) == 1
                    && count(unreliable.neighbors(v), b) == 0
                {
                    activate(mask, e as usize);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "collider"
    }
}

/// Bursty unreliable links: a Gilbert–Elliott two-state Markov chain per
/// edge.
///
/// Measurement studies (e.g. the β-factor work the paper cites) show real
/// unreliable links are *bursty*: they deliver in runs and fail in runs
/// rather than independently per packet. Each unreliable edge here is in a
/// `Good` (delivering) or `Bad` (silent) state, flipping with probabilities
/// `p_gb` (Good→Bad) and `p_bg` (Bad→Good) each round; the stationary
/// delivery rate is `p_bg / (p_gb + p_bg)` with mean burst lengths `1/p_gb`
/// and `1/p_bg`.
#[derive(Debug, Clone)]
pub struct BurstyUnreliable {
    p_gb: f64,
    p_bg: f64,
    rng: StdRng,
    /// Edge states, lazily initialized on first use (keyed by the network's
    /// unreliable edge order).
    states: Vec<bool>,
    initialized: bool,
}

impl BurstyUnreliable {
    /// Creates the adversary with transition probabilities `p_gb`
    /// (Good→Bad) and `p_bg` (Bad→Good).
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `[0, 1]`.
    pub fn new(p_gb: f64, p_bg: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_gb), "p_gb out of range");
        assert!((0.0..=1.0).contains(&p_bg), "p_bg out of range");
        BurstyUnreliable {
            p_gb,
            p_bg,
            rng: StdRng::seed_from_u64(seed),
            states: Vec::new(),
            initialized: false,
        }
    }

    /// The long-run fraction of rounds each edge delivers.
    pub fn stationary_delivery_rate(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            1.0
        } else {
            self.p_bg / (self.p_gb + self.p_bg)
        }
    }
}

impl Adversary for BurstyUnreliable {
    fn extra_edges(
        &mut self,
        _round: u64,
        net: &DualGraph,
        _broadcasting: &[bool],
        _broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        // Per-round work is allocation-free (modulo the one-time state
        // vector).
        let m = net.unreliable_edge_count();
        if !self.initialized || self.states.len() != m {
            // Start each edge at its stationary distribution.
            let rate = self.stationary_delivery_rate();
            self.states = (0..m).map(|_| self.rng.gen_bool(rate)).collect();
            self.initialized = true;
        }
        // One `gen_bool` per edge, its two acceptance thresholds hoisted
        // out of the loop. Each edge's new state is shifted into its bit
        // of the mask, so the loop has no data-dependent branch. The
        // generator runs from a local copy, which keeps its state in
        // registers across the state stores.
        let (t_gb, t_bg) = (coin_threshold(self.p_gb), coin_threshold(self.p_bg));
        let mut rng = self.rng.clone();
        for (word, states) in mask.iter_mut().zip(self.states.chunks_mut(64)) {
            let mut bits = 0;
            for (bit, state) in states.iter_mut().enumerate() {
                let t = if *state { t_gb } else { t_bg };
                *state ^= (rng.next_u64() >> 11) < t;
                bits |= u64::from(*state) << bit;
            }
            *word = bits;
        }
        self.rng = rng;
    }

    fn name(&self) -> &'static str {
        "bursty-unreliable"
    }
}

/// The Lemma 7.2 adversary for the two-clique network.
///
/// Keeps the two cliques informationally isolated: whenever two or more
/// nodes broadcast anywhere in the network, it activates enough unreliable
/// edges that *every* listener experiences a collision; when at most one
/// node broadcasts, it adds nothing, so the lone message is confined to the
/// broadcaster's `G`-neighborhood (its own clique, unless the broadcaster is
/// a bridge endpoint). This is precisely the strategy the reduction proof
/// uses to forbid inter-clique communication until a bridge endpoint
/// broadcasts alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CliqueIsolator;

impl Adversary for CliqueIsolator {
    fn extra_edges(
        &mut self,
        _round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        if broadcasters.len() < 2 {
            return;
        }
        // For every listener, ensure at least two broadcasters reach it by
        // activating unreliable edges from broadcasters as needed. Scanning
        // the listener's unreliable CSR row visits exactly the candidate
        // broadcasters in ascending order — same choices as enumerating all
        // broadcasters and testing edge membership.
        for v in 0..net.n() {
            if broadcasting[v] {
                continue;
            }
            let mut reach = net
                .g()
                .neighbors(v)
                .iter()
                .filter(|&&u| broadcasting[u as usize])
                .count();
            if reach >= 2 {
                continue;
            }
            let row = net.unreliable_csr().neighbors(v);
            for (&u, &e) in row.iter().zip(net.unreliable_edge_ids(v)) {
                if reach >= 2 {
                    break;
                }
                if broadcasting[u as usize] {
                    activate(mask, e as usize);
                    reach += 1;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "clique-isolator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::topology::{random_geometric, RandomGeometricConfig};

    fn net_with_chord() -> DualGraph {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut gp = g.clone();
        gp.add_edge(0, 2);
        gp.add_edge(0, 3);
        DualGraph::new(g, gp).unwrap()
    }

    /// One round's mask from `adv`, sized and cleared as the engine does,
    /// with the broadcaster list derived from the flags.
    fn round_mask(
        adv: &mut impl Adversary,
        round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
    ) -> Vec<u64> {
        let broadcasters: Vec<u32> = (0..net.n() as u32)
            .filter(|&v| broadcasting[v as usize])
            .collect();
        let mut mask = vec![0; net.unreliable_edge_count().div_ceil(64)];
        adv.extra_edges(round, net, broadcasting, &broadcasters, &mut mask);
        mask
    }

    /// The edges one round of `adv` activates, in list order.
    fn activated(
        adv: &mut impl Adversary,
        net: &DualGraph,
        broadcasting: &[bool],
    ) -> Vec<(usize, usize)> {
        let mask = round_mask(adv, 1, net, broadcasting);
        net.unreliable_edges()
            .enumerate()
            .filter(|&(i, _)| mask[i >> 6] >> (i & 63) & 1 == 1)
            .map(|(_, e)| e)
            .collect()
    }

    /// The mask naming exactly the edges of `pairs`, in either orientation.
    ///
    /// # Panics
    ///
    /// Panics on a pair outside `E' \ E`.
    fn pairs_mask(net: &DualGraph, pairs: &[(usize, usize)]) -> Vec<u64> {
        let list = net.unreliable_edge_list();
        let mut mask = vec![0; list.len().div_ceil(64)];
        for &(a, b) in pairs {
            let i = list
                .binary_search(&(a.min(b), a.max(b)))
                .unwrap_or_else(|_| panic!("({a}, {b}) is not an unreliable edge"));
            activate(&mut mask, i);
        }
        mask
    }

    #[test]
    fn reliable_only_adds_nothing() {
        let net = net_with_chord();
        assert!(activated(&mut ReliableOnly, &net, &[true, false, false, false]).is_empty());
    }

    #[test]
    fn all_unreliable_adds_everything() {
        let net = net_with_chord();
        let all = activated(&mut AllUnreliable, &net, &[false; 4]);
        assert_eq!(all, vec![(0, 2), (0, 3)]);
    }

    #[test]
    fn random_respects_probability_extremes() {
        let net = net_with_chord();
        let none = activated(&mut RandomUnreliable::new(0.0, 9), &net, &[false; 4]);
        assert!(none.is_empty());
        let all = activated(&mut RandomUnreliable::new(1.0, 9), &net, &[false; 4]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn random_with_a_vanishing_p_activates_nothing() {
        // `1 - p` rounds to 1 for each of these `p`, so no 53-bit coin can
        // come up. Unguarded, the geometric skip sampler would divide by
        // `ln 1 = 0` and activate every edge.
        let net = rgg_net();
        let broadcasting = vec![false; net.n()];
        for p in [5e-324, 1e-18, 5e-17] {
            assert_eq!(1.0 - p, 1.0);
            let mut adv = RandomUnreliable::new(p, 4);
            for r in 0..10 {
                let mask = round_mask(&mut adv, r, &net, &broadcasting);
                assert!(mask.iter().all(|&w| w == 0), "p = {p}, round {r}");
            }
            // And it drew nothing.
            let fresh = StdRng::seed_from_u64(4).next_u64();
            assert_eq!(adv.rng.next_u64(), fresh, "p = {p} drew from its stream");
        }
    }

    #[test]
    fn collider_breaks_clean_reception() {
        let net = net_with_chord();
        // Nodes 1 and 3 broadcast. Node 2 hears both over E (a collision
        // already), so nothing is added for it. Node 0 hears only node 1
        // over E; the collider activates the unreliable edge (0, 3) from
        // broadcaster 3, turning 0's clean reception into a collision.
        let out = activated(&mut Collider, &net, &[false, true, false, true]);
        assert_eq!(out, vec![(0, 3)]);
    }

    #[test]
    fn collider_leaves_collisions_alone() {
        let net = net_with_chord();
        // Only node 1 broadcasts: nodes 0 and 2 get clean receptions, but no
        // *other* broadcaster exists, so nothing can be activated.
        assert!(activated(&mut Collider, &net, &[false, true, false, false]).is_empty());
    }

    #[test]
    fn bursty_edges_have_runs() {
        let net = net_with_chord();
        let mut adv = BurstyUnreliable::new(0.05, 0.05, 3);
        assert!((adv.stationary_delivery_rate() - 0.5).abs() < 1e-12);
        // Count state flips for one edge across rounds: with p = 0.05 the
        // edge should persist in its state most rounds (bursts), far fewer
        // flips than a per-round Bernoulli coin would produce.
        let mut present_last = None;
        let mut flips = 0;
        let mut present_total = 0;
        let rounds = 2000;
        for _ in 0..rounds {
            let present = activated(&mut adv, &net, &[false; 4]).contains(&(0, 2));
            if present {
                present_total += 1;
            }
            if let Some(last) = present_last {
                if last != present {
                    flips += 1;
                }
            }
            present_last = Some(present);
        }
        // Stationary rate ~0.5; expected flips ~ rounds * 0.05 * 2 = 200.
        assert!(
            (600..1400).contains(&present_total),
            "rate off: {present_total}"
        );
        assert!(flips < 400, "too many flips for bursty links: {flips}");
        assert!(flips > 20, "suspiciously static: {flips}");
    }

    #[test]
    fn bursty_extremes() {
        let net = net_with_chord();
        // p_gb = 1, p_bg = 0: everything decays to Bad and stays there.
        let mut adv = BurstyUnreliable::new(1.0, 0.0, 1);
        let mut out = Vec::new();
        for _ in 0..10 {
            out = activated(&mut adv, &net, &[false; 4]);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn isolator_quiet_when_single_broadcaster() {
        let net = net_with_chord();
        let out = activated(&mut CliqueIsolator, &net, &[true, false, false, false]);
        assert!(out.is_empty());
    }

    #[test]
    fn isolator_collides_everyone_when_two_broadcast() {
        let net = net_with_chord();
        // Nodes 2 and 3 broadcast. Node 0's only E-neighbour, node 1, is
        // silent, so nothing reaches it over E; its unreliable edges (0, 2)
        // and (0, 3) both lead to broadcasters, and the isolator activates
        // both to reach 2. Node 1 hears node 2 over E and has no
        // unreliable edge, so it keeps its clean reception.
        let out = activated(&mut CliqueIsolator, &net, &[false, false, true, true]);
        assert_eq!(out, vec![(0, 2), (0, 3)]);
    }

    /// A path `G` on `chords + 2` nodes whose `G'` adds the chords
    /// `(i, i + 2)`: exactly `chords` unreliable edges, so the masks
    /// straddle the 64-edge word boundaries.
    fn path_with_chords(chords: usize) -> DualGraph {
        let n = chords + 2;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let mut gp = g.clone();
        for i in 0..chords {
            gp.add_edge(i, i + 2);
        }
        let net = DualGraph::new(g, gp).unwrap();
        assert_eq!(net.unreliable_edge_count(), chords);
        net
    }

    /// A dense random-geometric net on 128 nodes, the shape of the
    /// experiments' adversary grids (several hundred unreliable edges).
    fn rgg_net() -> DualGraph {
        let mut rng = StdRng::seed_from_u64(17);
        random_geometric(&RandomGeometricConfig::dense(128), &mut rng).unwrap()
    }

    const STREAM_CHORDS: [usize; 6] = [0, 1, 63, 64, 65, 130];
    const STREAM_ROUNDS: u64 = 50;

    #[test]
    fn random_half_matches_the_coin_per_edge_stream() {
        for chords in STREAM_CHORDS {
            let net = path_with_chords(chords);
            let broadcasting = vec![false; net.n()];
            let mut adv = RandomUnreliable::new(0.5, 21);
            let mut rng = StdRng::seed_from_u64(21);
            let mut want = Vec::new();
            for r in 0..STREAM_ROUNDS {
                let got = round_mask(&mut adv, r, &net, &broadcasting);
                // Reference: bit `i` of one fresh word per 64 edges is the
                // coin of the chunk's `i`-th edge.
                want.clear();
                for chunk in net.unreliable_edge_list().chunks(64) {
                    let mut word = rng.next_u64();
                    for &e in chunk {
                        if word & 1 == 1 {
                            want.push(e);
                        }
                        word >>= 1;
                    }
                }
                assert_eq!(got, pairs_mask(&net, &want), "{chords} chords, round {r}");
            }
        }
    }

    #[test]
    fn bursty_matches_the_coin_per_edge_stream() {
        let (p_gb, p_bg) = (0.05, 0.05);
        for chords in STREAM_CHORDS {
            let net = path_with_chords(chords);
            let broadcasting = vec![false; net.n()];
            let mut adv = BurstyUnreliable::new(p_gb, p_bg, 8);
            let mut rng = StdRng::seed_from_u64(8);
            let edges = net.unreliable_edge_list();
            // Reference: stationary start, then one `gen_bool` per edge
            // per round flipping its state, keeping the Good edges.
            let mut states: Vec<bool> = (0..edges.len()).map(|_| rng.gen_bool(0.5)).collect();
            let mut want = Vec::new();
            for r in 0..STREAM_ROUNDS {
                let got = round_mask(&mut adv, r, &net, &broadcasting);
                want.clear();
                for (state, &edge) in states.iter_mut().zip(edges) {
                    let flip = if *state { p_gb } else { p_bg };
                    if rng.gen_bool(flip) {
                        *state = !*state;
                    }
                    if *state {
                        want.push(edge);
                    }
                }
                assert_eq!(got, pairs_mask(&net, &want), "{chords} chords, round {r}");
            }
        }
    }

    /// The pair-emitting form of the built-in adversaries before they
    /// marked a mask, kept as test-only references: each one pushes the
    /// pairs it activates, and each port's mask must name exactly that set.
    trait PairReference {
        fn pairs(&mut self, net: &DualGraph, broadcasting: &[bool], out: &mut Vec<(usize, usize)>);
    }

    struct RefRandom {
        p: f64,
        rng: StdRng,
    }

    impl PairReference for RefRandom {
        fn pairs(&mut self, net: &DualGraph, _: &[bool], out: &mut Vec<(usize, usize)>) {
            let edges = net.unreliable_edge_list();
            if self.p <= 0.0 {
                return;
            }
            if self.p >= 1.0 {
                out.extend_from_slice(edges);
                return;
            }
            if self.p < 0.25 {
                let ln_q = (1.0 - self.p).ln();
                let mut i = 0usize;
                loop {
                    let u: f64 = self.rng.gen_range(0.0..1.0);
                    let skip = ((1.0 - u).ln() / ln_q) as usize;
                    i = i.saturating_add(skip);
                    if i >= edges.len() {
                        return;
                    }
                    out.push(edges[i]);
                    i += 1;
                }
            }
            if self.p == 0.5 {
                for chunk in edges.chunks(64) {
                    let mut word = self.rng.next_u64();
                    if chunk.len() < 64 {
                        word &= (1u64 << chunk.len()) - 1;
                    }
                    while word != 0 {
                        out.push(chunk[word.trailing_zeros() as usize]);
                        word &= word - 1;
                    }
                }
                return;
            }
            let threshold = coin_threshold(self.p);
            for &e in edges {
                if (self.rng.next_u64() >> 11) < threshold {
                    out.push(e);
                }
            }
        }
    }

    struct RefBursty {
        t_gb: u64,
        t_bg: u64,
        rate: f64,
        rng: StdRng,
        states: Option<Vec<bool>>,
    }

    impl PairReference for RefBursty {
        fn pairs(&mut self, net: &DualGraph, _: &[bool], out: &mut Vec<(usize, usize)>) {
            let edges = net.unreliable_edge_list();
            let rng = &mut self.rng;
            let rate = self.rate;
            let states = self
                .states
                .get_or_insert_with(|| (0..edges.len()).map(|_| rng.gen_bool(rate)).collect());
            for (state, &edge) in states.iter_mut().zip(edges) {
                let t = if *state { self.t_gb } else { self.t_bg };
                *state ^= (rng.next_u64() >> 11) < t;
                if *state {
                    out.push(edge);
                }
            }
        }
    }

    struct RefAll;

    impl PairReference for RefAll {
        fn pairs(&mut self, net: &DualGraph, _: &[bool], out: &mut Vec<(usize, usize)>) {
            out.extend(net.unreliable_edges());
        }
    }

    struct RefCollider;

    impl PairReference for RefCollider {
        fn pairs(&mut self, net: &DualGraph, broadcasting: &[bool], out: &mut Vec<(usize, usize)>) {
            for v in 0..net.n() {
                if broadcasting[v] {
                    continue;
                }
                let reliable_hits = net
                    .g()
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| broadcasting[u as usize])
                    .count();
                if reliable_hits != 1 {
                    continue;
                }
                if let Some(&u) = net
                    .unreliable_csr()
                    .neighbors(v)
                    .iter()
                    .find(|&&u| broadcasting[u as usize])
                {
                    out.push((u as usize, v));
                }
            }
        }
    }

    struct RefIsolator;

    impl PairReference for RefIsolator {
        fn pairs(&mut self, net: &DualGraph, broadcasting: &[bool], out: &mut Vec<(usize, usize)>) {
            if broadcasting.iter().filter(|&&b| b).count() < 2 {
                return;
            }
            for v in 0..net.n() {
                if broadcasting[v] {
                    continue;
                }
                let mut reach = net
                    .g()
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| broadcasting[u as usize])
                    .count();
                if reach >= 2 {
                    continue;
                }
                for &u in net.unreliable_csr().neighbors(v) {
                    if reach >= 2 {
                        break;
                    }
                    if broadcasting[u as usize] {
                        out.push((u as usize, v));
                        reach += 1;
                    }
                }
            }
        }
    }

    /// Broadcast flags for round `r`, cycling through no broadcaster, one,
    /// a fixed few, every node, and a random few.
    fn broadcast_flags(n: usize, r: u64, rng: &mut StdRng) -> Vec<bool> {
        match r % 5 {
            0 => vec![false; n],
            1 => (0..n).map(|v| v == n / 2).collect(),
            2 => (0..n).map(|v| v % 7 == 3).collect(),
            3 => vec![true; n],
            _ => (0..n).map(|_| rng.gen_bool(0.1)).collect(),
        }
    }

    /// Steps a fresh port and a fresh reference side by side for
    /// `STREAM_ROUNDS` rounds on each `STREAM_CHORDS` net and the RGG net,
    /// and asserts that each round's mask names exactly the reference's
    /// pairs (with no bit past the last edge).
    fn assert_port_matches(
        what: &str,
        port: impl Fn() -> Box<dyn Adversary>,
        reference: impl Fn() -> Box<dyn PairReference>,
    ) {
        let nets = STREAM_CHORDS.map(path_with_chords).into_iter();
        for net in nets.chain([rgg_net()]) {
            let (mut adv, mut refr) = (port(), reference());
            let mut flags_rng = StdRng::seed_from_u64(3);
            let mut want = Vec::new();
            for r in 0..STREAM_ROUNDS {
                let broadcasting = broadcast_flags(net.n(), r, &mut flags_rng);
                let got = round_mask(&mut adv, r, &net, &broadcasting);
                want.clear();
                refr.pairs(&net, &broadcasting, &mut want);
                let m = net.unreliable_edge_count();
                assert_eq!(got, pairs_mask(&net, &want), "{what}, {m} edges, round {r}");
            }
        }
    }

    #[test]
    fn random_ports_match_the_pair_references() {
        // Both extremes, the geometric skip, the word-per-64 half and the
        // dense coin loop.
        for p in [0.0, 0.1, 0.5, 0.7, 1.0] {
            assert_port_matches(
                &format!("random {p}"),
                || Box::new(RandomUnreliable::new(p, 21)),
                || {
                    Box::new(RefRandom {
                        p,
                        rng: StdRng::seed_from_u64(21),
                    })
                },
            );
        }
    }

    #[test]
    fn bursty_port_matches_the_pair_reference() {
        for (p_gb, p_bg) in [(0.05, 0.05), (0.3, 0.6)] {
            assert_port_matches(
                &format!("bursty {p_gb}/{p_bg}"),
                || Box::new(BurstyUnreliable::new(p_gb, p_bg, 8)),
                || {
                    Box::new(RefBursty {
                        t_gb: coin_threshold(p_gb),
                        t_bg: coin_threshold(p_bg),
                        rate: p_bg / (p_gb + p_bg),
                        rng: StdRng::seed_from_u64(8),
                        states: None,
                    })
                },
            );
        }
    }

    #[test]
    fn adaptive_and_fixed_ports_match_the_pair_references() {
        assert_port_matches("all", || Box::new(AllUnreliable), || Box::new(RefAll));
        assert_port_matches("collider", || Box::new(Collider), || Box::new(RefCollider));
        assert_port_matches(
            "isolator",
            || Box::new(CliqueIsolator),
            || Box::new(RefIsolator),
        );
    }
}
