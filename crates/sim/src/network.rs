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

use crate::geometry::Point;
use crate::graph::{BitRows, CsrGraph, Graph};
use serde::value::{field, DeError, Value};
use serde::{Deserialize, Serialize};
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
/// Construction freezes both layers into flat CSR adjacency
/// ([`CsrGraph`]) and precomputes the unreliable difference `E' \ E` as
/// both a CSR layer and a flat edge list — the forms the engine's
/// per-round hot path consumes without further allocation or `O(log deg)`
/// membership searches. A classic network (`G = G'`) stores the reliable
/// layer once.
///
/// A `DualGraph` is a handle on that frozen state: the network is
/// immutable once built, so [`Clone`] only bumps a reference count, and
/// every clone — one per engine of a trial batch, say — reads the same
/// layers, CSR forms and lazily built [`BitRows`].
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
    g: Graph,
    /// `None` for classic networks (`G' = G`), avoiding a full duplicate
    /// adjacency; [`DualGraph::g_prime`] falls back to `g`.
    g_prime: Option<Graph>,
    positions: Option<Vec<Point>>,
    d: f64,
    // Frozen hot-path forms, built once at construction.
    csr_g: CsrGraph,
    csr_g_prime: Option<CsrGraph>,
    csr_unreliable: CsrGraph,
    unreliable_list: Vec<(usize, usize)>,
    /// Word-packed reliable-layer adjacency for the bit-parallel delivery
    /// engine. Built on first use (rows cost `n·⌈n/64⌉` words, which
    /// scalar-only runs should never pay); one layer suffices because the
    /// adversary's unreliable picks arrive as an edge list each round.
    bit_g: OnceLock<BitRows>,
}

impl DualGraph {
    /// Builds a dual graph without an embedding.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the layers have different vertex counts,
    /// `E ⊄ E'`, or `G` is disconnected.
    pub fn new(g: Graph, g_prime: Graph) -> Result<Self, NetworkError> {
        Self::validate_layers(&g, &g_prime)?;
        Ok(Self::assemble(g, Some(g_prime), None, 1.0))
    }

    /// Freezes the CSR forms and the unreliable edge list (layers already
    /// validated).
    fn assemble(g: Graph, g_prime: Option<Graph>, positions: Option<Vec<Point>>, d: f64) -> Self {
        let n = g.n();
        let csr_g = g.to_csr();
        // Normalize G' = G to the classic representation.
        let g_prime = g_prime.filter(|gp| gp.edge_count() != g.edge_count());
        let (csr_g_prime, csr_unreliable, unreliable_list) = match &g_prime {
            None => (None, Graph::new(n).to_csr(), Vec::new()),
            Some(gp) => {
                let mut unreliable = Graph::new(n);
                for (u, v) in gp.edges() {
                    if !g.has_edge(u, v) {
                        unreliable.add_edge(u, v);
                    }
                }
                let list = unreliable.edges().collect();
                (Some(gp.to_csr()), unreliable.to_csr(), list)
            }
        };
        DualGraph {
            frozen: Arc::new(FrozenNet {
                g,
                g_prime,
                positions,
                d,
                csr_g,
                csr_g_prime,
                csr_unreliable,
                unreliable_list,
                bit_g: OnceLock::new(),
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
        Self::validate_layers(&g, &g_prime)?;
        if positions.len() != g.n() {
            return Err(NetworkError::PositionCountMismatch {
                positions: positions.len(),
                n: g.n(),
            });
        }
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                let dist = positions[u].dist(positions[v]);
                if dist <= 1.0 && !g.has_edge(u, v) {
                    return Err(NetworkError::MissingShortEdge { pair: (u, v), dist });
                }
            }
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
        Ok(Self::assemble(g, Some(g_prime), Some(positions), d))
    }

    /// The classic radio network model: `G = G'` (no unreliable links).
    ///
    /// The reliable layer is stored once — no duplicate adjacency is built.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ReliableDisconnected`] if `g` is disconnected.
    pub fn classic(g: Graph) -> Result<Self, NetworkError> {
        if !g.is_connected() {
            return Err(NetworkError::ReliableDisconnected);
        }
        Ok(Self::assemble(g, None, None, 1.0))
    }

    fn validate_layers(g: &Graph, g_prime: &Graph) -> Result<(), NetworkError> {
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
    pub fn g(&self) -> &Graph {
        &self.frozen.g
    }

    /// The full layer `G'` (reliable plus unreliable links). For a classic
    /// network this is the reliable layer itself.
    #[inline]
    pub fn g_prime(&self) -> &Graph {
        self.frozen.g_prime.as_ref().unwrap_or(&self.frozen.g)
    }

    /// The reliable layer as frozen CSR adjacency (the engine's hot-path
    /// form).
    #[inline]
    pub fn g_csr(&self) -> &CsrGraph {
        &self.frozen.csr_g
    }

    /// The full layer `G'` as frozen CSR adjacency.
    #[inline]
    pub fn g_prime_csr(&self) -> &CsrGraph {
        self.frozen
            .csr_g_prime
            .as_ref()
            .unwrap_or(&self.frozen.csr_g)
    }

    /// The unreliable difference `E' \ E` as frozen CSR adjacency (empty
    /// rows for a classic network).
    #[inline]
    pub fn unreliable_csr(&self) -> &CsrGraph {
        &self.frozen.csr_unreliable
    }

    /// The reliable layer as word-packed bitmask rows ([`BitRows`]), the
    /// form `Engine::step_bitset` delivers from. Built from the CSR on
    /// first call and cached on the frozen network, so every clone of this
    /// handle shares the one build.
    pub fn g_bit_rows(&self) -> &BitRows {
        self.frozen
            .bit_g
            .get_or_init(|| BitRows::from_csr(&self.frozen.csr_g))
    }

    /// The unreliable edges as a precomputed flat list of pairs `u < v`.
    #[inline]
    pub fn unreliable_edge_list(&self) -> &[(usize, usize)] {
        &self.frozen.unreliable_list
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
        self.frozen.csr_unreliable.has_edge(u, v)
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

    /// Whether `self` and `other` are handles on one frozen network.
    pub(crate) fn ptr_eq(&self, other: &DualGraph) -> bool {
        Arc::ptr_eq(&self.frozen, &other.frozen)
    }
}

// Serialization carries only the defining data (layers, embedding, gray
// zone); the CSR caches are rebuilt — and the model constraints revalidated
// — on deserialization.
impl Serialize for DualGraph {
    fn to_value(&self) -> Value {
        let net = &*self.frozen;
        Value::Object(vec![
            ("g".to_string(), net.g.to_value()),
            ("g_prime".to_string(), net.g_prime.to_value()),
            ("positions".to_string(), net.positions.to_value()),
            ("d".to_string(), net.d.to_value()),
        ])
    }
}

impl Deserialize for DualGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        let g: Graph = Deserialize::from_value(field(fields, "g"))?;
        let g_prime: Option<Graph> = Deserialize::from_value(field(fields, "g_prime"))?;
        let positions: Option<Vec<Point>> = Deserialize::from_value(field(fields, "positions"))?;
        let d: f64 = Deserialize::from_value(field(fields, "d"))?;
        let net = match (g_prime, positions) {
            (None, None) => DualGraph::classic(g),
            (None, Some(pos)) => {
                let gp = g.clone();
                DualGraph::with_embedding(g, gp, pos, d)
            }
            (Some(gp), None) => DualGraph::new(g, gp),
            (Some(gp), Some(pos)) => DualGraph::with_embedding(g, gp, pos, d),
        }
        .map_err(|e| DeError::msg(format!("invalid dual graph: {e}")))?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clones_share_one_frozen_network() {
        let g = path(5);
        let mut gp = g.clone();
        gp.add_edge(0, 4);
        let net = DualGraph::new(g, gp).unwrap();
        let twin = net.clone();
        assert!(std::ptr::eq(net.g_csr(), twin.g_csr()));
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
