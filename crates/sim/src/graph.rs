//! The simulator's graphs: [`Graph`] builds one, [`CsrGraph`] is every
//! built one.
//!
//! Both layers of the dual graph (`G` and `G'`), the unreliable difference
//! `E' \ E` and the detector-induced graph `H` are built once and then only
//! read, so each is stored in one frozen form, [`CsrGraph`]. It answers
//! every query the simulator and the checkers make: neighbor iteration
//! during delivery, membership tests during filtering, and whole-graph
//! checks (connectivity, BFS distances, subgraph containment, induced
//! components) during validation.
//!
//! # Builder and CSR layout
//!
//! [`Graph`] is the construction-time builder (a sorted `Vec` per vertex —
//! convenient for generators that add edges one at a time); it offers only
//! the mutating and per-row calls a generator needs, plus
//! [`Graph::to_csr`]. [`CsrGraph`] is the frozen form: `offsets` has
//! `n + 1` entries and the neighbors of `u` are the slice
//! `neighbors[offsets[u]..offsets[u + 1]]`, sorted ascending and stored as
//! `u32`. `DualGraph` freezes each layer once at construction and drops
//! its builder. The point-set generators and the clique skip the builder
//! and write their rows straight into the frozen form.
//!
//! Node ids and row offsets are stored as `u32` throughout the frozen
//! forms — half the memory (and twice the cache reach) of `usize` on
//! 64-bit targets; construction asserts `n ≤ u32::MAX`.
//!
//! # Bitmask rows
//!
//! [`BitRows`] is a derived adjacency form, built from a [`CsrGraph`]:
//! each node's neighborhood as a row of `⌈n/64⌉` `u64` words, one bit per
//! potential neighbor. The engine's row kernel (`Engine::step` with
//! `StepMode::Bitset`) ORs whole broadcaster rows into carry-save
//! seen/collide planes — a ~64× narrower inner loop than the CSR scatter
//! kernel on dense graphs. Rows cost `n·⌈n/64⌉` words, so they are built
//! lazily (see `DualGraph::g_bit_rows`) and only make sense at moderate
//! `n`; the CSR remains the general-purpose form.

use std::collections::VecDeque;

/// Errors produced when adding an edge to a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint.
        endpoint: usize,
        /// The number of vertices.
        n: usize,
    },
    /// An edge connected a vertex to itself.
    SelfLoop {
        /// The vertex with the loop.
        vertex: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range for {n} vertices")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop at vertex {vertex}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The builder of an undirected simple graph on vertices `0..n`.
///
/// Adjacency lists are kept sorted, so membership tests are `O(log deg)`.
/// Parallel edges are ignored and self loops rejected. Freeze the finished
/// graph with [`Graph::to_csr`]; whole-graph queries live on [`CsrGraph`].
///
/// # Examples
///
/// ```
/// use radio_sim::Graph;
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 3));
/// let csr = g.to_csr();
/// assert!(csr.is_connected());
/// assert_eq!(csr.max_degree(), 2);
/// # Ok::<(), radio_sim::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl Graph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are deduplicated silently (they are common when
    /// generators enumerate unordered pairs).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or an edge is a
    /// self loop.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.try_add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Adds the undirected edge `{u, v}`; a no-op if already present.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.try_add_edge(u, v)
            .expect("invalid edge passed to add_edge");
    }

    /// Fallible form of [`Graph::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or `u == v`.
    pub fn try_add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::EndpointOutOfRange {
                endpoint: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::EndpointOutOfRange {
                endpoint: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if Self::insert_sorted(&mut self.adj[u], v) {
            Self::insert_sorted(&mut self.adj[v], u);
        }
        Ok(())
    }

    fn insert_sorted(list: &mut Vec<usize>, x: usize) -> bool {
        match list.binary_search(&x) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, x);
                true
            }
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the edge `{u, v}` is present. Out-of-range queries return
    /// `false`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && self.adj[u].binary_search(&v).is_ok()
    }

    /// The sorted neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// The complete graph on `n` vertices, each sorted row built whole.
    pub fn complete(n: usize) -> Self {
        Graph {
            n,
            adj: (0..n).map(|u| (0..u).chain(u + 1..n).collect()).collect(),
        }
    }

    /// Freezes the adjacency into its flat [`CsrGraph`] form.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_rows(self.n, |u| self.adj[u].iter().map(|&v| v as u32))
    }
}

/// Frozen compressed-sparse-row adjacency of an undirected graph: one
/// offsets array, one neighbor array, nothing else. The engine's per-round
/// delivery loop iterates these slices; see the module docs for the
/// layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `n + 1` row boundaries into `neighbors`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, each row sorted ascending.
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR from a per-row neighbor generator (rows already sorted,
    /// and symmetric: `v` in row `u` iff `u` in row `v`).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` vertices or more than
    /// `u32::MAX` directed edge slots. Node ids are stored as `u32`
    /// throughout ([`Graph::to_csr`] and [`CsrGraph::has_edge`] cast with
    /// `as u32`), so a larger vertex count would silently truncate ids in
    /// release builds; the check is therefore a real assertion, not a
    /// `debug_assert`.
    pub fn from_rows<I>(n: usize, mut row: impl FnMut(usize) -> I) -> Self
    where
        I: Iterator<Item = u32>,
    {
        assert!(
            u32::try_from(n).is_ok(),
            "CSR node ids are u32; graph has {n} vertices"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for u in 0..n {
            neighbors.extend(row(u));
            offsets.push(
                u32::try_from(neighbors.len()).expect("graph exceeds u32 edge-slot capacity"),
            );
        }
        CsrGraph { offsets, neighbors }
    }

    /// The complete graph on `n` vertices, each row written straight into
    /// the frozen form.
    ///
    /// # Panics
    ///
    /// Panics, before allocating anything, if the `n(n − 1)` edge slots do
    /// not fit in `u32`.
    pub(crate) fn complete(n: usize) -> Self {
        let slots = n
            .checked_mul(n.saturating_sub(1))
            .filter(|&s| u32::try_from(s).is_ok())
            .expect("graph exceeds u32 edge-slot capacity");
        let offsets = (0..=n).map(|u| (u * n.saturating_sub(1)) as u32).collect();
        let mut neighbors = Vec::with_capacity(slots);
        for u in 0..n as u32 {
            neighbors.extend((0..u).chain(u + 1..n as u32));
        }
        CsrGraph { offsets, neighbors }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.neighbors[self.row_slots(u)]
    }

    /// The positions of `u`'s row in the concatenated neighbor array, for
    /// arrays kept parallel to it.
    #[inline]
    pub(crate) fn row_slots(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Maximum degree over all vertices (`Δ` for `G`, `Δ'` for `G'`). Zero
    /// for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Total directed edge slots (`2·|E|` for an undirected graph).
    #[inline]
    pub fn edge_slots(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether `{u, v}` is an edge (`O(log deg)`). Out-of-range queries
    /// return `false`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n() && v < self.n() && self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterates all edges as ordered pairs `(u, v)` with `u < v`, in
    /// ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| {
            let row = self.neighbors(u).iter().map(|&v| v as usize);
            row.filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Whether every edge of `self` is also an edge of `other`.
    pub fn is_subgraph_of(&self, other: &CsrGraph) -> bool {
        self.n() == other.n() && self.edges().all(|(u, v)| other.has_edge(u, v))
    }

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        self.n() <= 1 || self.bfs_distances(0).iter().all(Option::is_some)
    }

    /// BFS hop distances from `src`; `None` for unreachable vertices.
    ///
    /// # Panics
    ///
    /// Panics if `src >= n`.
    pub fn bfs_distances(&self, src: usize) -> Vec<Option<u32>> {
        assert!(src < self.n(), "bfs source out of range");
        let mut dist = vec![None; self.n()];
        dist[src] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued vertices have distances");
            for &v in self.neighbors(u) {
                let v = v as usize;
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Component labels of the subgraph induced by `{v : member[v]}`:
    /// `None` for non-members, and labels `0, 1, …` in the order of each
    /// component's lowest-numbered member.
    ///
    /// # Panics
    ///
    /// Panics if `member.len() != n`.
    pub fn member_components(&self, member: &[bool]) -> Vec<Option<usize>> {
        assert_eq!(member.len(), self.n(), "membership vector length mismatch");
        let mut comp = vec![None; self.n()];
        let mut next = 0;
        for start in 0..self.n() {
            if !member[start] || comp[start].is_some() {
                continue;
            }
            comp[start] = Some(next);
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    let v = v as usize;
                    if member[v] && comp[v].is_none() {
                        comp[v] = Some(next);
                        queue.push_back(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Whether the subgraph induced by `{v : member[v]}` is connected.
    ///
    /// Vacuously true when at most one vertex is selected. Used by the CCDS
    /// checker (connectivity of the processes that output 1, in `H`).
    ///
    /// # Panics
    ///
    /// Panics if `member.len() != n`.
    pub fn induced_connected(&self, member: &[bool]) -> bool {
        self.member_components(member)
            .iter()
            .all(|c| c.is_none_or(|c| c == 0))
    }
}

/// Writes a [`CsrGraph`] whose row lengths are known up front: each row
/// fills in the order its entries are pushed, so rows come out sorted when
/// every row's entries are pushed in ascending order.
pub(crate) struct CsrFill {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// The next free slot of each row.
    next: Vec<u32>,
}

impl CsrFill {
    /// Room for rows of the given lengths.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` rows or slots.
    pub(crate) fn new(degrees: &[u32]) -> Self {
        assert!(
            u32::try_from(degrees.len()).is_ok(),
            "CSR node ids are u32; graph has {} vertices",
            degrees.len()
        );
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for &deg in degrees {
            total = total
                .checked_add(deg)
                .expect("graph exceeds u32 edge-slot capacity");
            offsets.push(total);
        }
        CsrFill {
            next: offsets[..degrees.len()].to_vec(),
            neighbors: vec![0; total as usize],
            offsets,
        }
    }

    /// Appends `v` to row `u` and returns the slot it took.
    #[inline]
    pub(crate) fn push(&mut self, u: u32, v: u32) -> usize {
        let slot = self.next[u as usize] as usize;
        self.neighbors[slot] = v;
        self.next[u as usize] += 1;
        slot
    }

    /// The filled graph.
    pub(crate) fn finish(self) -> CsrGraph {
        debug_assert!(
            self.next.iter().eq(&self.offsets[1..]),
            "every row is filled"
        );
        CsrGraph {
            offsets: self.offsets,
            neighbors: self.neighbors,
        }
    }
}

/// Word-packed adjacency: each node's neighborhood as a row of
/// `⌈n/64⌉` `u64` words, bit `v` of row `u` set iff `{u, v}` is an edge.
///
/// This is the layout the bit-parallel delivery engine consumes: delivery
/// for a round is a word-wise OR of the broadcasters' rows into carry-save
/// seen/collide accumulators, so the per-broadcaster cost is `⌈n/64⌉`
/// word operations regardless of degree. Rows occupy `n·⌈n/64⌉·8` bytes
/// (2 MiB at `n = 4096`), which is why they are derived on demand from
/// the CSR rather than built for every network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRows {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// Packs a [`CsrGraph`]'s adjacency into bitmask rows.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        let n = csr.n();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for u in 0..n {
            let row = &mut bits[u * words..(u + 1) * words];
            for &v in csr.neighbors(u) {
                row[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
        }
        BitRows { n, words, bits }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per row (`⌈n/64⌉`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The bitmask row of `u`, `words()` long.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn row(&self, u: usize) -> &[u64] {
        &self.bits[u * self.words..(u + 1) * self.words]
    }
}

/// The bits of word `w` of a bitmask over `len` items (nodes, or unreliable
/// edges) that name an item: all 64, except in a partial last word.
#[inline]
pub(crate) fn low_bits(len: usize, w: usize) -> u64 {
    match len - (w << 6) {
        rest @ 0..=63 => (1 << rest) - 1,
        _ => !0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
        Graph::from_edges(n, edges.iter().copied())
            .unwrap()
            .to_csr()
    }

    #[test]
    fn build_and_query() {
        let g = frozen(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 1)]);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn rejects_bad_edges() {
        assert_eq!(
            Graph::from_edges(3, [(0, 3)]),
            Err(GraphError::EndpointOutOfRange { endpoint: 3, n: 3 })
        );
        assert_eq!(
            Graph::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn connectivity() {
        assert!(frozen(4, &[(0, 1), (1, 2), (2, 3)]).is_connected());
        assert!(!frozen(4, &[(0, 1), (2, 3)]).is_connected());
        assert!(frozen(1, &[]).is_connected());
        assert!(frozen(0, &[]).is_connected());
    }

    #[test]
    fn bfs_and_hops() {
        let g = frozen(5, &[(0, 1), (1, 2), (2, 3)]);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], None);
    }

    #[test]
    fn subgraph_check() {
        let g = frozen(4, &[(0, 1), (1, 2)]);
        let big = frozen(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.is_subgraph_of(&big));
        assert!(!big.is_subgraph_of(&g));
    }

    #[test]
    fn induced_connectivity() {
        let g = frozen(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(g.induced_connected(&[true, true, true, false, false]));
        assert!(!g.induced_connected(&[true, false, true, false, false]));
        assert!(g.induced_connected(&[false, false, false, false, false]));
        assert!(g.induced_connected(&[false, false, true, false, false]));
        assert_eq!(
            g.member_components(&[true, false, true, true, false]),
            vec![Some(0), None, Some(1), Some(1), None]
        );
    }

    #[test]
    fn complete_matches_the_add_edge_build() {
        // Both the builder's rows and the rows written straight into CSR.
        for n in 0..=70 {
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    g.add_edge(u, v);
                }
            }
            assert_eq!(CsrGraph::complete(n), g.to_csr(), "n = {n}");
            assert_eq!(Graph::complete(n), g, "n = {n}");
        }
        assert_eq!(Graph::complete(4).to_csr().edge_count(), 6);
    }

    #[test]
    fn edges_iterator_ordered() {
        let g = frozen(4, &[(2, 1), (0, 3)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn csr_matches_graph() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let csr = g.to_csr();
        assert_eq!(csr.n(), 5);
        assert_eq!(csr.edge_slots(), 10);
        for u in 0..5 {
            let from_csr: Vec<usize> = csr.neighbors(u).iter().map(|&v| v as usize).collect();
            assert_eq!(from_csr, g.neighbors(u));
            assert_eq!(csr.degree(u), g.neighbors(u).len());
            for v in 0..5 {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v));
            }
        }
        assert!(!csr.has_edge(0, 9));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "CSR node ids are u32")]
    fn csr_rejects_vertex_counts_past_u32() {
        // The check must fire before any row is generated (and before the
        // offsets allocation), so an empty-row generator never runs and the
        // oversized `n` cannot reserve ~16 GiB: the panic happens first,
        // identically in debug and release builds.
        CsrGraph::from_rows(u32::MAX as usize + 2, |_| std::iter::empty());
    }

    #[test]
    fn bit_rows_match_csr() {
        // 70 vertices forces a two-word row, covering the word boundary.
        let mut g = Graph::new(70);
        for v in 1..70 {
            g.add_edge(0, v); // star keeps it connected-ish and dense at 0
        }
        g.add_edge(3, 65);
        g.add_edge(64, 69);
        let csr = g.to_csr();
        let rows = BitRows::from_csr(&csr);
        assert_eq!(rows.n(), 70);
        assert_eq!(rows.words(), 2);
        for u in 0..70 {
            let row = rows.row(u);
            for v in 0..70 {
                let bit = row[v >> 6] >> (v & 63) & 1 == 1;
                assert_eq!(bit, g.has_edge(u, v), "bit ({u}, {v})");
            }
        }
        // Exact multiples of 64 use no padding word.
        let k = Graph::complete(64).to_csr();
        assert_eq!(BitRows::from_csr(&k).words(), 1);
    }
}
