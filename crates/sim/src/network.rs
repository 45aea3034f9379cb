//! The dual graph network `(G, G')` of the paper's model section.
//!
//! A network consists of two undirected graphs on the same vertex set: `G =
//! (V, E)` of *reliable* links (always deliver, absent collisions) and `G' =
//! (V, E')` of *all* links (`E ⊆ E'`); the edges of `E' \ E` are
//! *unreliable* and deliver only when the round's adversary places them in
//! the reach set. `G` must be connected.
//!
//! When nodes carry a planar embedding, the model additionally requires a
//! constant `d ≥ 1` such that `dist(u, v) ≤ 1 ⇒ (u, v) ∈ E` and `(u, v) ∈ E'
//! ⇒ dist(u, v) ≤ d` — a generalization of unit disk graphs with a gray zone
//! of unpredictable connectivity.
//!
//! Callers build each layer with the [`Graph`] builder and hand it over.
//! The network freezes it into a [`CsrGraph`], the one form of every built
//! graph, and drops the builder; [`DualGraph::g`], [`DualGraph::g_prime`]
//! and [`DualGraph::unreliable_csr`] return the frozen layers. The point-set
//! generators skip the builders: they hand over their edges as one sorted
//! list, and the network writes all of its frozen forms from it in one
//! counting pass.
//!
//! The geometric constraints are checked in near-linear time: only pairs in
//! the same or adjacent cells of a unit [`crate::geometry`] cell grid can be
//! within distance 1, and each `E'` edge's length is read once.

use crate::detector::LinkDetectorAssignment;
use crate::geometry::{CellGrid, Point};
use crate::graph::{BitRows, CsrFill, CsrGraph, Graph};
use crate::ids::IdAssignment;
use std::sync::{Arc, OnceLock};

/// Errors from constructing or validating a [`DualGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// `E ⊄ E'`: some reliable edge is missing from the unreliable layer.
    ReliableNotSubset {
        /// A witness edge in `E \ E'`.
        edge: (usize, usize),
    },
    /// The reliable graph `G` is disconnected (the model assumes connectivity).
    ReliableDisconnected,
    /// Vertex counts of the two layers differ.
    LayerSizeMismatch {
        /// `|V|` of `G`.
        g: usize,
        /// `|V|` of `G'`.
        g_prime: usize,
    },
    /// The number of positions differs from the number of vertices.
    PositionCountMismatch {
        /// Number of positions provided.
        positions: usize,
        /// Number of vertices.
        n: usize,
    },
    /// Two nodes are within distance 1 but not `E`-adjacent.
    MissingShortEdge {
        /// The offending pair.
        pair: (usize, usize),
        /// Their distance.
        dist: f64,
    },
    /// An `E'` edge spans more than distance `d`.
    EdgeTooLong {
        /// The offending edge.
        edge: (usize, usize),
        /// Its length.
        dist: f64,
        /// The configured maximum `d`.
        d: f64,
    },
    /// The gray-zone constant was invalid (`d < 1` or not finite).
    InvalidGrayZone {
        /// The provided constant.
        d: f64,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::ReliableNotSubset { edge } => {
                write!(f, "reliable edge {edge:?} missing from G'")
            }
            NetworkError::ReliableDisconnected => write!(f, "reliable graph G is disconnected"),
            NetworkError::LayerSizeMismatch { g, g_prime } => {
                write!(f, "layer sizes differ: |V(G)| = {g}, |V(G')| = {g_prime}")
            }
            NetworkError::PositionCountMismatch { positions, n } => {
                write!(f, "{positions} positions for {n} vertices")
            }
            NetworkError::MissingShortEdge { pair, dist } => {
                write!(
                    f,
                    "nodes {pair:?} at distance {dist:.3} <= 1 lack a reliable edge"
                )
            }
            NetworkError::EdgeTooLong { edge, dist, d } => {
                write!(f, "edge {edge:?} has length {dist:.3} > d = {d}")
            }
            NetworkError::InvalidGrayZone { d } => write!(f, "invalid gray zone constant d = {d}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A dual graph radio network `(G, G')`, optionally embedded in the plane.
///
/// Construction freezes each layer into flat CSR adjacency ([`CsrGraph`])
/// and drops its builder, validates the model constraints on the frozen
/// layers, and precomputes the unreliable difference `E' \ E` as both a
/// CSR layer and a flat edge list, plus the list index of the edge at each
/// slot of that layer — the forms the engine's per-round hot path
/// consumes without further allocation or `O(log deg)` membership
/// searches. A classic network (`G = G'`) stores the reliable layer once.
///
/// A `DualGraph` is a handle on that frozen state: the network is
/// immutable once built, so [`Clone`] only bumps a reference count, and
/// every clone — one per engine of a trial batch, say — reads the same
/// layers and lazily built [`BitRows`].
///
/// # Examples
///
/// ```
/// use radio_sim::{DualGraph, Graph};
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let mut gp = g.clone();
/// gp.add_edge(0, 2); // one unreliable link
/// let net = DualGraph::new(g, gp)?;
/// assert_eq!(net.n(), 3);
/// assert!(net.is_unreliable_edge(0, 2));
/// assert!(!net.is_unreliable_edge(0, 1));
/// assert_eq!(net.unreliable_csr().neighbors(0), &[2]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DualGraph {
    frozen: Arc<FrozenNet>,
}

/// The immutable per-topology state every [`DualGraph`] clone shares.
#[derive(Debug)]
struct FrozenNet {
    g: CsrGraph,
    /// `None` for classic networks (`G' = G`), avoiding a full duplicate
    /// adjacency; [`DualGraph::g_prime`] falls back to `g`.
    g_prime: Option<CsrGraph>,
    positions: Option<Vec<Point>>,
    d: f64,
    unreliable: CsrGraph,
    unreliable_list: Vec<(usize, usize)>,
    /// The index in `unreliable_list` of the edge at each slot of
    /// `unreliable`'s neighbor array.
    unreliable_ids: Vec<u32>,
    /// Word-packed reliable-layer adjacency for the bit-parallel delivery
    /// engine. Built on first use (rows cost `n·⌈n/64⌉` words, which
    /// scalar-only runs should never pay); one layer suffices because the
    /// engine reads the adversary's unreliable picks along the
    /// broadcasters' unreliable rows.
    bit_g: OnceLock<BitRows>,
    /// The 0-complete detector under the identity ids, which depends on
    /// `G` alone. Built on first use, like `bit_g`.
    zero_complete: OnceLock<LinkDetectorAssignment>,
}

/// Freezes a builder into its CSR form and drops the builder.
fn freeze(g: Graph) -> CsrGraph {
    g.to_csr()
}

impl DualGraph {
    /// Builds a dual graph without an embedding.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the layers have different vertex counts,
    /// `E ⊄ E'`, or `G` is disconnected.
    pub fn new(g: Graph, g_prime: Graph) -> Result<Self, NetworkError> {
        let (g, g_prime) = (freeze(g), freeze(g_prime));
        Self::validate_layers(&g, &g_prime)?;
        Ok(Self::assemble(g, Some(g_prime), None, 1.0))
    }

    /// Builds the unreliable difference and its edge list from validated
    /// layers.
    fn assemble(
        g: CsrGraph,
        g_prime: Option<CsrGraph>,
        positions: Option<Vec<Point>>,
        d: f64,
    ) -> Self {
        let n = g.n();
        // Normalize G' = G to the classic representation.
        let g_prime = g_prime.filter(|gp| gp.edge_slots() != g.edge_slots());
        let unreliable = match &g_prime {
            None => CsrGraph::from_rows(n, |_| std::iter::empty()),
            Some(gp) => {
                let reliable = &g;
                CsrGraph::from_rows(n, |u| {
                    let row = gp.neighbors(u).iter().copied();
                    row.filter(move |&v| !reliable.has_edge(u, v as usize))
                })
            }
        };
        let unreliable_list: Vec<(usize, usize)> = unreliable.edges().collect();
        let unreliable_ids = slot_edge_ids(&unreliable, &unreliable_list);
        DualGraph {
            frozen: Arc::new(FrozenNet {
                g,
                g_prime,
                positions,
                d,
                unreliable,
                unreliable_list,
                unreliable_ids,
                bit_g: OnceLock::new(),
                zero_complete: OnceLock::new(),
            }),
        }
    }

    /// Builds an embedded dual graph and checks the geometric constraints:
    /// every pair within distance 1 is `E`-adjacent, and every `E'` edge has
    /// length at most `d`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on any violated model constraint.
    pub fn with_embedding(
        g: Graph,
        g_prime: Graph,
        positions: Vec<Point>,
        d: f64,
    ) -> Result<Self, NetworkError> {
        if !(d.is_finite() && d >= 1.0) {
            return Err(NetworkError::InvalidGrayZone { d });
        }
        let (g, g_prime) = (freeze(g), freeze(g_prime));
        Self::validate_layers(&g, &g_prime)?;
        let n = g.n();
        if positions.len() != n {
            return Err(NetworkError::PositionCountMismatch {
                positions: positions.len(),
                n,
            });
        }
        check_embedding(&g, &g_prime, &positions, d)?;
        Ok(Self::assemble(g, Some(g_prime), Some(positions), d))
    }

    /// Builds an embedded network from its `E'` edges, each listed once as
    /// `(u, v, reliable)` with `u < v`, in lexicographic order. One counting
    /// pass writes `G`, `G'`, `E' \ E`, the unreliable edge list and the
    /// edge index of each unreliable slot: every row receives its
    /// neighbours in ascending order, because the edges `(w, u)` with
    /// `w < u` all come before the edges `(u, v)`. The checks are those of
    /// [`DualGraph::with_embedding`] that the list does not settle by its
    /// form, in the same order: the gray zone, `G`'s connectivity (once),
    /// then the geometric constraints. The network is classic when no edge
    /// is unreliable.
    pub(crate) fn from_sorted_edges(
        edges: &[(u32, u32, bool)],
        positions: Vec<Point>,
        d: f64,
    ) -> Result<Self, NetworkError> {
        if !(d.is_finite() && d >= 1.0) {
            return Err(NetworkError::InvalidGrayZone { d });
        }
        debug_assert!(edges.iter().all(|&(u, v, _)| u < v));
        debug_assert!(edges
            .windows(2)
            .all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        let n = positions.len();
        let (mut deg_g, mut deg_u) = (vec![0u32; n], vec![0u32; n]);
        for &(u, v, reliable) in edges {
            let deg = if reliable { &mut deg_g } else { &mut deg_u };
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let unreliable_count = edges.iter().filter(|e| !e.2).count();
        let mut g_prime = (unreliable_count > 0).then(|| {
            let deg: Vec<u32> = deg_g.iter().zip(&deg_u).map(|(a, b)| a + b).collect();
            CsrFill::new(&deg)
        });
        let (mut g, mut unreliable) = (CsrFill::new(&deg_g), CsrFill::new(&deg_u));
        let mut unreliable_list = Vec::with_capacity(unreliable_count);
        let mut unreliable_ids = vec![0; 2 * unreliable_count];
        for &(u, v, reliable) in edges {
            if let Some(gp) = &mut g_prime {
                gp.push(u, v);
                gp.push(v, u);
            }
            if reliable {
                g.push(u, v);
                g.push(v, u);
            } else {
                let id = unreliable_list.len() as u32;
                unreliable_ids[unreliable.push(u, v)] = id;
                unreliable_ids[unreliable.push(v, u)] = id;
                unreliable_list.push((u as usize, v as usize));
            }
        }
        let g = g.finish();
        if !g.is_connected() {
            return Err(NetworkError::ReliableDisconnected);
        }
        let g_prime = g_prime.map(CsrFill::finish);
        check_embedding(&g, g_prime.as_ref().unwrap_or(&g), &positions, d)?;
        Ok(DualGraph {
            frozen: Arc::new(FrozenNet {
                g,
                g_prime,
                positions: Some(positions),
                d,
                unreliable: unreliable.finish(),
                unreliable_list,
                unreliable_ids,
                bit_g: OnceLock::new(),
                zero_complete: OnceLock::new(),
            }),
        })
    }

    /// The classic radio network model: `G = G'` (no unreliable links).
    ///
    /// The reliable layer is stored once — no duplicate adjacency is built.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ReliableDisconnected`] if `g` is disconnected.
    pub fn classic(g: Graph) -> Result<Self, NetworkError> {
        Self::classic_frozen(freeze(g))
    }

    /// [`DualGraph::classic`] over a layer that is already frozen.
    pub(crate) fn classic_frozen(g: CsrGraph) -> Result<Self, NetworkError> {
        if !g.is_connected() {
            return Err(NetworkError::ReliableDisconnected);
        }
        Ok(Self::assemble(g, None, None, 1.0))
    }

    fn validate_layers(g: &CsrGraph, g_prime: &CsrGraph) -> Result<(), NetworkError> {
        if g.n() != g_prime.n() {
            return Err(NetworkError::LayerSizeMismatch {
                g: g.n(),
                g_prime: g_prime.n(),
            });
        }
        if let Some(edge) = g.edges().find(|&(u, v)| !g_prime.has_edge(u, v)) {
            return Err(NetworkError::ReliableNotSubset { edge });
        }
        if !g.is_connected() {
            return Err(NetworkError::ReliableDisconnected);
        }
        Ok(())
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.frozen.g.n()
    }

    /// The reliable layer `G`.
    #[inline]
    pub fn g(&self) -> &CsrGraph {
        &self.frozen.g
    }

    /// The full layer `G'` (reliable plus unreliable links). For a classic
    /// network this is the reliable layer itself.
    #[inline]
    pub fn g_prime(&self) -> &CsrGraph {
        self.frozen.g_prime.as_ref().unwrap_or(&self.frozen.g)
    }

    /// The unreliable difference `E' \ E` (empty rows for a classic
    /// network).
    #[inline]
    pub fn unreliable_csr(&self) -> &CsrGraph {
        &self.frozen.unreliable
    }

    /// The reliable layer as word-packed bitmask rows ([`BitRows`]), the
    /// form the engine's row kernel (`StepMode::Bitset`) delivers from. Built from the CSR on
    /// first call and cached on the frozen network, so every clone of this
    /// handle shares the one build.
    pub fn g_bit_rows(&self) -> &BitRows {
        self.frozen
            .bit_g
            .get_or_init(|| BitRows::from_csr(&self.frozen.g))
    }

    /// The 0-complete link detector under the identity id assignment:
    /// node `u` sees exactly the ids of its `G`-neighbours. Built on first
    /// call and cached on the frozen network like
    /// [`DualGraph::g_bit_rows`], so every clone of this handle shares the
    /// one build. Other id assignments build their own with
    /// [`LinkDetectorAssignment::zero_complete`].
    pub fn zero_complete_detector(&self) -> &LinkDetectorAssignment {
        self.frozen.zero_complete.get_or_init(|| {
            LinkDetectorAssignment::zero_complete(self, &IdAssignment::identity(self.n()))
        })
    }

    /// The unreliable edges as a precomputed flat list of pairs `u < v`,
    /// sorted. An edge's position here is its index: bit `i` of an
    /// adversary's mask names edge `i` (see [`crate::Adversary`]).
    #[inline]
    pub fn unreliable_edge_list(&self) -> &[(usize, usize)] {
        &self.frozen.unreliable_list
    }

    /// The index in [`DualGraph::unreliable_edge_list`] of each edge of
    /// `u`'s unreliable row, parallel to `unreliable_csr().neighbors(u)`.
    /// Frozen once with the network and shared by every clone.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn unreliable_edge_ids(&self, u: usize) -> &[u32] {
        &self.frozen.unreliable_ids[self.frozen.unreliable.row_slots(u)]
    }

    /// Maximum degree `Δ` in the reliable graph.
    #[inline]
    pub fn max_degree_g(&self) -> usize {
        self.frozen.g.max_degree()
    }

    /// Maximum degree `Δ'` in `G'`.
    #[inline]
    pub fn max_degree_g_prime(&self) -> usize {
        self.g_prime().max_degree()
    }

    /// Whether `{u, v}` is an unreliable link (in `E' \ E`).
    #[inline]
    pub fn is_unreliable_edge(&self, u: usize, v: usize) -> bool {
        self.frozen.unreliable.has_edge(u, v)
    }

    /// Iterates the unreliable edges `E' \ E` as pairs with `u < v`.
    pub fn unreliable_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.frozen.unreliable_list.iter().copied()
    }

    /// Number of unreliable edges.
    pub fn unreliable_edge_count(&self) -> usize {
        self.frozen.unreliable_list.len()
    }

    /// Node positions if the network is embedded.
    #[inline]
    pub fn positions(&self) -> Option<&[Point]> {
        self.frozen.positions.as_deref()
    }

    /// The gray-zone constant `d` (only meaningful for embedded networks;
    /// `1.0` otherwise).
    #[inline]
    pub fn gray_zone(&self) -> f64 {
        self.frozen.d
    }

    /// Whether the network is the classic model (`G = G'`).
    pub fn is_classic(&self) -> bool {
        self.unreliable_edge_count() == 0
    }
}

/// The geometric constraints of an embedded network: every pair within
/// distance 1 is `E`-adjacent, then every `E'` edge is at most `d` long.
/// Only pairs in the same or adjacent cells of a unit [`CellGrid`] can be
/// within distance 1, so the first check walks those pairs (against a mark
/// on each `E`-neighbour) and keeps the least violation in `(u, v)` order;
/// the second reads each edge once, in order. Either reports the witness
/// an all-pairs scan would.
fn check_embedding(
    g: &CsrGraph,
    g_prime: &CsrGraph,
    positions: &[Point],
    d: f64,
) -> Result<(), NetworkError> {
    let grid = CellGrid::new(positions, 1.0);
    // While `v` is walked, `mark[w] == v` iff `w < v` is an `E`-neighbour.
    let mut mark = vec![u32::MAX; positions.len()];
    let mut first: Option<((usize, usize), f64)> = None;
    for (v, &p) in positions.iter().enumerate() {
        for &w in g.neighbors(v).iter().take_while(|&&w| (w as usize) < v) {
            mark[w as usize] = v as u32;
        }
        grid.for_each_block_cell(v, |list| {
            for &w in list.iter().take_while(|&&w| (w as usize) < v) {
                let dist = positions[w as usize].dist(p);
                // `&`, not `&&`: one rarely taken branch per candidate.
                if (dist <= 1.0) & (mark[w as usize] != v as u32) {
                    let pair = (w as usize, v);
                    if first.is_none_or(|(least, _)| pair < least) {
                        first = Some((pair, dist));
                    }
                }
            }
        });
    }
    if let Some((pair, dist)) = first {
        return Err(NetworkError::MissingShortEdge { pair, dist });
    }
    for (u, v) in g_prime.edges() {
        let dist = positions[u].dist(positions[v]);
        if dist > d + 1e-9 {
            return Err(NetworkError::EdgeTooLong {
                edge: (u, v),
                dist,
                d,
            });
        }
    }
    Ok(())
}

/// The index in `list` of the edge at each slot of `csr`'s neighbor array.
/// `list` is sorted, so the edges at node `w` come up in ascending order of
/// their other endpoint, which is the order of `w`'s row: a cursor per row
/// places each index.
fn slot_edge_ids(csr: &CsrGraph, list: &[(usize, usize)]) -> Vec<u32> {
    let mut next: Vec<usize> = (0..csr.n()).map(|u| csr.row_slots(u).start).collect();
    let mut ids = vec![0; csr.edge_slots()];
    for (i, &(u, v)) in list.iter().enumerate() {
        for w in [u, v] {
            ids[next[w]] = i as u32;
            next[w] += 1;
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn valid_dual_graph() {
        let g = path(4);
        let mut gp = g.clone();
        gp.add_edge(0, 3);
        let net = DualGraph::new(g, gp).unwrap();
        assert_eq!(net.unreliable_edge_count(), 1);
        assert!(net.is_unreliable_edge(0, 3));
        assert_eq!(net.unreliable_edges().collect::<Vec<_>>(), vec![(0, 3)]);
        assert!(!net.is_classic());
    }

    #[test]
    fn rejects_non_subset() {
        let g = path(3);
        let gp = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        assert_eq!(
            DualGraph::new(g, gp).unwrap_err(),
            NetworkError::ReliableNotSubset { edge: (1, 2) }
        );
    }

    #[test]
    fn rejects_disconnected_g() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let gp = Graph::complete(4);
        assert_eq!(
            DualGraph::new(g, gp).unwrap_err(),
            NetworkError::ReliableDisconnected
        );
    }

    #[test]
    fn rejects_size_mismatch() {
        let g = path(3);
        let gp = Graph::complete(4);
        assert!(matches!(
            DualGraph::new(g, gp),
            Err(NetworkError::LayerSizeMismatch { .. })
        ));
    }

    #[test]
    fn bit_rows_lazily_built_and_match_g() {
        let g = path(5);
        let mut gp = g.clone();
        gp.add_edge(0, 4);
        let net = DualGraph::new(g, gp).unwrap();
        let rows = net.g_bit_rows();
        assert_eq!(rows.n(), 5);
        for u in 0..5 {
            for v in 0..5 {
                let bit = rows.row(u)[v >> 6] >> (v & 63) & 1 == 1;
                assert_eq!(bit, net.g().has_edge(u, v), "bit ({u}, {v})");
            }
        }
        // Unreliable edges are not in the reliable rows.
        assert_eq!(rows.row(0)[0] >> 4 & 1, 0);
        // Repeated calls return the same cached build.
        assert!(std::ptr::eq(net.g_bit_rows(), rows));
    }

    #[test]
    fn zero_complete_detector_lazily_built_and_shared() {
        let g = path(5);
        let mut gp = g.clone();
        gp.add_edge(0, 4);
        let net = DualGraph::new(g, gp).unwrap();
        let twin = net.clone();
        let det = net.zero_complete_detector();
        let ids = IdAssignment::identity(5);
        assert_eq!(det, &LinkDetectorAssignment::zero_complete(&net, &ids));
        // Every clone reads the one cached build.
        assert!(std::ptr::eq(twin.zero_complete_detector(), det));
        assert!(std::ptr::eq(net.zero_complete_detector(), det));
    }

    #[test]
    fn clones_share_one_frozen_network() {
        let g = path(5);
        let mut gp = g.clone();
        gp.add_edge(0, 4);
        let net = DualGraph::new(g, gp).unwrap();
        let twin = net.clone();
        assert!(std::ptr::eq(net.g(), twin.g()));
        assert!(std::ptr::eq(
            net.unreliable_edge_list(),
            twin.unreliable_edge_list()
        ));
        // Rows built through one handle are the rows every clone reads.
        assert!(std::ptr::eq(twin.g_bit_rows(), net.g_bit_rows()));
    }

    #[test]
    fn classic_has_no_unreliable_edges() {
        let net = DualGraph::classic(path(5)).unwrap();
        assert!(net.is_classic());
        assert_eq!(net.unreliable_edge_count(), 0);
        assert!((0..5).all(|u| net.unreliable_edge_ids(u).is_empty()));
    }

    #[test]
    fn unreliable_edge_ids_name_each_slots_edge() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rgg = crate::topology::random_geometric(
            &crate::topology::RandomGeometricConfig::dense(128),
            &mut rng,
        )
        .unwrap();
        let mut chords = path(70);
        for i in 0..68 {
            chords.add_edge(i, i + 2);
        }
        chords.add_edge(0, 69);
        let chords = DualGraph::new(path(70), chords).unwrap();
        for net in [rgg, chords] {
            let list = net.unreliable_edge_list();
            assert!(list.len() > 64);
            let mut seen = vec![0; list.len()];
            for u in 0..net.n() {
                let row = net.unreliable_csr().neighbors(u);
                let ids = net.unreliable_edge_ids(u);
                assert_eq!(row.len(), ids.len());
                for (&v, &i) in row.iter().zip(ids) {
                    let v = v as usize;
                    assert_eq!(list[i as usize], (u.min(v), u.max(v)), "slot ({u}, {v})");
                    seen[i as usize] += 1;
                }
            }
            // Each edge sits in both of its endpoints' rows.
            assert!(seen.iter().all(|&c| c == 2));
            // Clones read the one frozen array.
            assert!(std::ptr::eq(
                net.unreliable_edge_ids(0),
                net.clone().unreliable_edge_ids(0)
            ));
        }
    }

    #[test]
    fn embedding_constraints() {
        // Two nodes at distance 0.5 must share a reliable edge.
        let g = Graph::new(2);
        let gp = Graph::new(2);
        let pos = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
        // g is "connected" only for n<=1; a 2-node edgeless graph is
        // disconnected, so that error fires first — use an edge in G' only.
        let err = DualGraph::with_embedding(g, gp, pos, 2.0).unwrap_err();
        assert_eq!(err, NetworkError::ReliableDisconnected);

        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let gp = g.clone();
        let pos = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let err = DualGraph::with_embedding(g, gp, pos, 2.0).unwrap_err();
        assert!(matches!(err, NetworkError::EdgeTooLong { .. }));
    }

    #[test]
    fn embedding_missing_short_edge() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let gp = g.clone();
        // Nodes 0 and 2 are within distance 1 but not adjacent in G.
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.5),
            Point::new(0.9, 0.0),
        ];
        let err = DualGraph::with_embedding(g, gp, pos, 2.0).unwrap_err();
        assert!(matches!(err, NetworkError::MissingShortEdge { .. }));
    }

    /// The all-pairs loops the grid check replaced, kept as the reference
    /// for its witness.
    fn all_pairs_check(
        g: &Graph,
        g_prime: &Graph,
        positions: &[Point],
        d: f64,
    ) -> Result<(), NetworkError> {
        let n = positions.len();
        for u in 0..n {
            for v in (u + 1)..n {
                let dist = positions[u].dist(positions[v]);
                if dist <= 1.0 && !g.has_edge(u, v) {
                    return Err(NetworkError::MissingShortEdge { pair: (u, v), dist });
                }
            }
        }
        for (u, v) in g_prime.to_csr().edges() {
            let dist = positions[u].dist(positions[v]);
            if dist > d + 1e-9 {
                return Err(NetworkError::EdgeTooLong {
                    edge: (u, v),
                    dist,
                    d,
                });
            }
        }
        Ok(())
    }

    /// Random nets over `positions` whose `G` is a path plus each pair
    /// within distance 1 with probability `keep_short`, and whose `G'` adds
    /// each other pair with probability `extra`: several missing short
    /// edges when `keep_short < 1`, and several too-long edges wherever the
    /// path or the extra pairs span more than `d`.
    fn witness_case(
        rng: &mut rand::rngs::StdRng,
        positions: &[Point],
        keep_short: f64,
        extra: f64,
    ) -> (Graph, Graph) {
        let n = positions.len();
        let (mut g, mut gp) = (path(n), path(n));
        for u in 0..n {
            for v in (u + 1)..n {
                if positions[u].dist(positions[v]) <= 1.0 {
                    if rng.gen_bool(keep_short) {
                        g.add_edge(u, v);
                        gp.add_edge(u, v);
                    }
                } else if rng.gen_bool(extra) {
                    gp.add_edge(u, v);
                }
            }
        }
        (g, gp)
    }

    #[test]
    fn grid_check_reports_the_all_pairs_witness() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (mut short, mut long) = (0, 0);
        for case in 0..240 {
            let n = rng.gen_range(2..70usize);
            let side = rng.gen_range(0.5..8.0);
            let d = rng.gen_range(1.0..3.0);
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(-side..side), rng.gen_range(0.0..side)))
                .collect();
            // Every other case keeps all short pairs, so the too-long
            // edges get reported too.
            let keep_short = if case % 2 == 0 { 0.6 } else { 1.0 };
            let (g, gp) = witness_case(&mut rng, &positions, keep_short, 0.05);
            let want = all_pairs_check(&g, &gp, &positions, d);
            let got = DualGraph::with_embedding(g, gp, positions, d).map(|_| ());
            assert_eq!(got, want, "case {case}");
            match want {
                Err(NetworkError::MissingShortEdge { .. }) => short += 1,
                Err(NetworkError::EdgeTooLong { .. }) => long += 1,
                _ => {}
            }
        }
        assert!(short > 40 && long > 40, "{short} short, {long} long");
    }

    #[test]
    fn non_finite_positions_match_the_all_pairs_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let odd = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e308,
            f64::MAX,
        ];
        for case in 0..120 {
            let n = rng.gen_range(2..30usize);
            let mut positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)))
                .collect();
            for _ in 0..rng.gen_range(1..4usize) {
                let p = &mut positions[rng.gen_range(0..n)];
                let value = odd[rng.gen_range(0..odd.len())];
                if rng.gen_bool(0.5) {
                    p.x = value;
                } else {
                    p.y = value;
                }
            }
            let keep_short = if case % 2 == 0 { 0.7 } else { 1.0 };
            let (g, gp) = witness_case(&mut rng, &positions, keep_short, 0.1);
            let want = all_pairs_check(&g, &gp, &positions, 2.0);
            let got = DualGraph::with_embedding(g, gp, positions, 2.0).map(|_| ());
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn rejects_invalid_gray_zone() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let gp = g.clone();
        let pos = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
        assert!(matches!(
            DualGraph::with_embedding(g, gp, pos, 0.5),
            Err(NetworkError::InvalidGrayZone { .. })
        ));
    }
}
