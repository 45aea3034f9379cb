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

use crate::network::DualGraph;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Chooses, each round, which unreliable edges (`E' \ E`) join the reach set.
///
/// The returned edges are filtered by the engine: anything not in `E' \ E`
/// is ignored defensively, so implementations may over-approximate.
pub trait Adversary {
    /// Select this round's extra (unreliable) reach edges.
    ///
    /// `broadcasting[v]` reports whether node `v` broadcasts this round —
    /// the adversary is adaptive. Edges are pushed into `out` (cleared by
    /// the caller) as unordered pairs.
    fn extra_edges(
        &mut self,
        round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        out: &mut Vec<(usize, usize)>,
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
        out: &mut Vec<(usize, usize)>,
    ) {
        (**self).extra_edges(round, net, broadcasting, out);
    }

    fn name(&self) -> &'static str {
        (**self).name()
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
        _out: &mut Vec<(usize, usize)>,
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
        out: &mut Vec<(usize, usize)>,
    ) {
        out.extend(net.unreliable_edges());
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
        out: &mut Vec<(usize, usize)>,
    ) {
        let edges = net.unreliable_edge_list();
        if self.p <= 0.0 {
            return;
        }
        if self.p >= 1.0 {
            out.extend_from_slice(edges);
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
                if i >= edges.len() {
                    return;
                }
                out.push(edges[i]);
                i += 1;
            }
        }
        if self.p == 0.5 {
            // The common experiment setting: every bit of a random word is
            // an exact Bernoulli(½) coin, so one RNG call covers 64 edges.
            // Walking the word's set bits (bit `i` keeps `chunk[i]`, lowest
            // first) emits the kept edges with no per-edge branch.
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
        // Dense activation: a coin per edge is cheaper than a logarithm
        // per activated edge. Hoist the acceptance threshold out of the
        // loop.
        let threshold = coin_threshold(self.p);
        for &e in edges {
            if (self.rng.next_u64() >> 11) < threshold {
                out.push(e);
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
        out: &mut Vec<(usize, usize)>,
    ) {
        for v in 0..net.n() {
            if broadcasting[v] {
                continue;
            }
            let reliable_hits = net
                .g_csr()
                .neighbors(v)
                .iter()
                .filter(|&&u| broadcasting[u as usize])
                .count();
            if reliable_hits != 1 {
                continue;
            }
            // Find an unreliable edge from a different broadcaster. The
            // unreliable CSR layer is exactly E' \ E, so no membership
            // re-check against G is needed.
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
        out: &mut Vec<(usize, usize)>,
    ) {
        // The network precomputes the unreliable edge list, so per-round
        // work is allocation-free (modulo the one-time state vector).
        let edges = net.unreliable_edge_list();
        if !self.initialized || self.states.len() != edges.len() {
            // Start each edge at its stationary distribution.
            let rate = self.stationary_delivery_rate();
            self.states = (0..edges.len()).map(|_| self.rng.gen_bool(rate)).collect();
            self.initialized = true;
        }
        // One `gen_bool` per edge, its two acceptance thresholds hoisted
        // out of the loop. Every edge is written to a stack buffer and the
        // write cursor advances only past Good edges, so the loop has no
        // data-dependent branch; each full buffer is appended in one copy,
        // keeping the edge-list order.
        let (t_gb, t_bg) = (coin_threshold(self.p_gb), coin_threshold(self.p_bg));
        let mut kept = [(0usize, 0usize); 64];
        for (states, chunk) in self.states.chunks_mut(64).zip(edges.chunks(64)) {
            let mut len = 0;
            for (state, &edge) in states.iter_mut().zip(chunk) {
                let t = if *state { t_gb } else { t_bg };
                *state ^= (self.rng.next_u64() >> 11) < t;
                kept[len] = edge;
                len += usize::from(*state);
            }
            out.extend_from_slice(&kept[..len]);
        }
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
        out: &mut Vec<(usize, usize)>,
    ) {
        if broadcasting.iter().filter(|&&b| b).count() < 2 {
            return;
        }
        // For every listener, ensure at least two broadcasters reach it by
        // activating unreliable edges from broadcasters as needed. Scanning
        // the listener's unreliable CSR row visits exactly the candidate
        // broadcasters in ascending order — same choices as enumerating all
        // broadcasters and testing edge membership, without materializing
        // the broadcaster list.
        for v in 0..net.n() {
            if broadcasting[v] {
                continue;
            }
            let mut reach = net
                .g_csr()
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

    fn name(&self) -> &'static str {
        "clique-isolator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn net_with_chord() -> DualGraph {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut gp = g.clone();
        gp.add_edge(0, 2);
        gp.add_edge(0, 3);
        DualGraph::new(g, gp).unwrap()
    }

    #[test]
    fn reliable_only_adds_nothing() {
        let net = net_with_chord();
        let mut out = Vec::new();
        ReliableOnly.extra_edges(1, &net, &[true, false, false, false], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn all_unreliable_adds_everything() {
        let net = net_with_chord();
        let mut out = Vec::new();
        AllUnreliable.extra_edges(1, &net, &[false; 4], &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(0, 2), (0, 3)]);
    }

    #[test]
    fn random_respects_probability_extremes() {
        let net = net_with_chord();
        let mut out = Vec::new();
        RandomUnreliable::new(0.0, 9).extra_edges(1, &net, &[false; 4], &mut out);
        assert!(out.is_empty());
        RandomUnreliable::new(1.0, 9).extra_edges(1, &net, &[false; 4], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn collider_breaks_clean_reception() {
        let net = net_with_chord();
        // Nodes 1 and 3 broadcast. Node 2 hears both over E (collision
        // already) -> nothing added for it. Node 0 hears only node 1 over E;
        // the collider activates the unreliable edge (0, 3) wait — (0,3) is
        // from broadcaster 3 to listener 0, turning 0's clean reception into
        // a collision.
        let mut out = Vec::new();
        Collider.extra_edges(1, &net, &[false, true, false, true], &mut out);
        assert_eq!(out.len(), 1);
        let (a, b) = out[0];
        assert_eq!((a.min(b), a.max(b)), (0, 3));
    }

    #[test]
    fn collider_leaves_collisions_alone() {
        let net = net_with_chord();
        // Only node 1 broadcasts: nodes 0 and 2 get clean receptions, but no
        // *other* broadcaster exists, so nothing can be activated.
        let mut out = Vec::new();
        Collider.extra_edges(1, &net, &[false, true, false, false], &mut out);
        assert!(out.is_empty());
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
        let mut out = Vec::new();
        for r in 0..rounds {
            out.clear();
            adv.extra_edges(r, &net, &[false; 4], &mut out);
            let present = out.contains(&(0, 2));
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
        let mut out = Vec::new();
        // p_gb = 1, p_bg = 0: everything decays to Bad and stays there.
        let mut adv = BurstyUnreliable::new(1.0, 0.0, 1);
        for r in 0..10 {
            out.clear();
            adv.extra_edges(r, &net, &[false; 4], &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn isolator_quiet_when_single_broadcaster() {
        let net = net_with_chord();
        let mut out = Vec::new();
        CliqueIsolator.extra_edges(1, &net, &[true, false, false, false], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn isolator_collides_everyone_when_two_broadcast() {
        let net = net_with_chord();
        let mut out = Vec::new();
        // Nodes 2 and 3 broadcast; node 0 hears neither over E... node 0's E
        // neighbors: {1}. So reach 0; isolator activates (2,0)? (0,2) is
        // unreliable and 2 broadcasts; (0,3) also. It should add both to
        // reach 2.
        CliqueIsolator.extra_edges(1, &net, &[false, false, true, true], &mut out);
        let touching_zero = out.iter().filter(|&&(a, b)| a == 0 || b == 0).count();
        assert_eq!(touching_zero, 2);
    }

    /// A path `G` on `chords + 2` nodes whose `G'` adds the chords
    /// `(i, i + 2)`: exactly `chords` unreliable edges, so the lists
    /// straddle the 64-edge word boundaries of the word-at-a-time
    /// adversaries.
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

    const STREAM_CHORDS: [usize; 6] = [0, 1, 63, 64, 65, 130];
    const STREAM_ROUNDS: u64 = 50;

    #[test]
    fn random_half_matches_the_coin_per_edge_stream() {
        for chords in STREAM_CHORDS {
            let net = path_with_chords(chords);
            let broadcasting = vec![false; net.n()];
            let mut adv = RandomUnreliable::new(0.5, 21);
            let mut rng = StdRng::seed_from_u64(21);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for r in 0..STREAM_ROUNDS {
                got.clear();
                adv.extra_edges(r, &net, &broadcasting, &mut got);
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
                assert_eq!(got, want, "{chords} chords, round {r}");
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
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for r in 0..STREAM_ROUNDS {
                got.clear();
                adv.extra_edges(r, &net, &broadcasting, &mut got);
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
                assert_eq!(got, want, "{chords} chords, round {r}");
            }
        }
    }
}
