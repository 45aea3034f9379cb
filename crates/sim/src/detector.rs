//! The link detector formalism: per-process estimates of reliable neighbors.
//!
//! Real deployments run low-layer protocols (ETX-style measurement, signal
//! statistics, sometimes special hardware) to separate reliable from
//! unreliable links. The paper abstracts these as a *link detector*: each
//! process `u` receives a set `L_u ⊆ [n]` of process ids at the beginning of
//! the execution.
//!
//! A detector is **τ-complete** when `L_u = {id(v) : v ∈ N_G(u)} ∪ W_u` with
//! `W_u ⊆ {id(w) : w ∉ N_G(u)}` and `|W_u| ≤ τ`: it contains every reliable
//! neighbor plus at most τ misclassified extras. `τ = 0` is perfect
//! knowledge of the reliable neighborhood — which, importantly, does *not*
//! remove the unreliable edges themselves.
//!
//! The problem definitions reference the graph `H` whose edges are the
//! mutually-detected pairs (`u ∈ L_v` and `v ∈ L_u`); see
//! [`LinkDetectorAssignment::h_graph`].
//!
//! # Representation
//!
//! The algorithms drop every reception whose sender is not in `L_u`, so
//! each delivered message costs one membership test. An assignment is
//! therefore frozen at construction into one shared structure, laid out
//! like the network's CSR layers: `n + 1` offsets into one flat array of
//! process ids, each node's slice sorted ascending. Beside it sits one
//! membership bitmask row per node over the process ids (bit `p` of row
//! `u` set iff `p ∈ L_u`), kept iff the rows take no more bytes than the
//! id lists: `8·n·⌈(max id + 1)/64⌉ ≤ 4·Σ|L_u|`. Dense assignments (a
//! clique's `n − 1` ids per node) keep the rows and test membership with
//! one word load; sparse ones (a path's two ids per node) drop them and
//! binary-search the node's slice. Processes see a node's set through
//! [`DetectorSet`], a `Copy` view holding a reference to the frozen sets
//! and the node index.

use crate::graph::CsrGraph;
use crate::ids::{IdAssignment, NodeId, ProcessId};
use crate::network::DualGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::value::{field, DeError, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Where a τ-complete builder draws its misclassified (spurious) entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpuriousSource {
    /// Spurious ids are unreliable `G'`-neighbors (the realistic case: a
    /// flaky link measured as good). Falls back to no entry if a node has no
    /// unreliable neighbors.
    UnreliableNeighbors,
    /// Spurious ids are arbitrary non-neighbors, as the formal definition
    /// allows (`W_u ⊆ {id(w) : w ∉ N_G(u)}`).
    AnyNonNeighbor,
}

/// A complete assignment of link detector sets, one per node.
///
/// Sets contain raw process-id numbers (`u32`); [`LinkDetectorAssignment::set`]
/// views one node's set and [`LinkDetectorAssignment::contains`] answers
/// typed queries. An assignment is immutable once built (the module docs
/// give the frozen layout), so [`Clone`] shares the sets behind a
/// reference count: the engines of a trial batch hold handles on one copy.
/// Equality compares contents.
///
/// # Examples
///
/// ```
/// use radio_sim::{DualGraph, Graph, IdAssignment, LinkDetectorAssignment, NodeId};
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let net = DualGraph::classic(g)?;
/// let ids = IdAssignment::identity(3);
/// let det = LinkDetectorAssignment::zero_complete(&net, &ids);
/// // Node 1's reliable neighbors are nodes 0 and 2, i.e. processes 1 and 3.
/// assert_eq!(det.set(NodeId(1)).iter().copied().collect::<Vec<u32>>(), vec![1, 3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LinkDetectorAssignment {
    sets: Arc<FrozenSets>,
}

/// The immutable sets every [`LinkDetectorAssignment`] clone shares (the
/// layout is in the module docs).
#[derive(PartialEq, Eq)]
struct FrozenSets {
    /// `n + 1` boundaries into `ids`.
    offsets: Vec<usize>,
    /// Every node's set, concatenated; each node's slice is ascending.
    ids: Vec<u32>,
    /// Words per membership row; 0 when the rows are not kept.
    words: usize,
    /// `words` words per node: bit `p` of node `u`'s row is set iff
    /// `p ∈ L_u`. Empty when the rows would outweigh `ids`.
    rows: Vec<u64>,
}

impl FrozenSets {
    /// Freezes `n` sets, which `fill` appends to the flat id array one node
    /// at a time, in node order (each set without repeats, in any order).
    /// `capacity` sizes the id array up front.
    fn build(n: usize, capacity: usize, mut fill: impl FnMut(usize, &mut Vec<u32>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut ids = Vec::with_capacity(capacity);
        offsets.push(0);
        for u in 0..n {
            let start = ids.len();
            fill(u, &mut ids);
            let set = &mut ids[start..];
            set.sort_unstable();
            debug_assert!(
                set.windows(2).all(|w| w[0] < w[1]),
                "node {u}'s detector set repeats an id"
            );
            offsets.push(ids.len());
        }
        // Rows pay only where they are no larger than the id lists.
        let words = ids
            .iter()
            .max()
            .map_or(0, |&m| (m as usize + 1).div_ceil(64));
        let row_bytes = n.checked_mul(words).and_then(|w| w.checked_mul(8));
        let words = if row_bytes.is_some_and(|b| b <= 4 * ids.len()) {
            words
        } else {
            0
        };
        let mut rows = vec![0u64; n * words];
        if words > 0 {
            for (u, row) in rows.chunks_exact_mut(words).enumerate() {
                for &p in &ids[offsets[u]..offsets[u + 1]] {
                    row[(p >> 6) as usize] |= 1 << (p & 63);
                }
            }
        }
        FrozenSets {
            offsets,
            ids,
            words,
            rows,
        }
    }
}

impl LinkDetectorAssignment {
    /// The 0-complete detector: each node sees exactly the ids of its
    /// `G`-neighbors.
    pub fn zero_complete(net: &DualGraph, ids: &IdAssignment) -> Self {
        let g = net.g();
        Self::freeze(FrozenSets::build(net.n(), g.edge_slots(), |u, set| {
            set.extend(neighbor_ids(net, ids, u));
        }))
    }

    /// A τ-complete detector: the 0-complete sets plus up to `tau` spurious
    /// ids per node, drawn per `source`.
    ///
    /// The builder inserts exactly `min(tau, candidates)` spurious entries
    /// per node — the hardest case the definition allows — choosing the
    /// entries uniformly from the candidate pool.
    pub fn tau_complete<R: Rng>(
        net: &DualGraph,
        ids: &IdAssignment,
        tau: usize,
        source: SpuriousSource,
        rng: &mut R,
    ) -> Self {
        Self::freeze(FrozenSets::build(
            net.n(),
            net.g().edge_slots(),
            |u, set| {
                set.extend(neighbor_ids(net, ids, u));
                let mut pool: Vec<usize> = match source {
                    SpuriousSource::UnreliableNeighbors => net
                        .g_prime()
                        .neighbors(u)
                        .iter()
                        .map(|&v| v as usize)
                        .filter(|&v| !net.g().has_edge(u, v))
                        .collect(),
                    SpuriousSource::AnyNonNeighbor => (0..net.n())
                        .filter(|&v| v != u && !net.g().has_edge(u, v))
                        .collect(),
                };
                pool.shuffle(rng);
                set.extend(pool.iter().take(tau).map(|&w| ids.id_of(NodeId(w)).get()));
            },
        ))
    }

    /// Builds an assignment from explicit sets (one per node, containing raw
    /// process-id numbers). Used by adversarial constructions such as the
    /// two-clique network of Lemma 7.2.
    pub fn from_sets(sets: Vec<BTreeSet<u32>>) -> Self {
        let total = sets.iter().map(BTreeSet::len).sum();
        Self::freeze(FrozenSets::build(sets.len(), total, |u, set| {
            set.extend(&sets[u]);
        }))
    }

    fn freeze(sets: FrozenSets) -> Self {
        LinkDetectorAssignment {
            sets: Arc::new(sets),
        }
    }

    /// Number of nodes covered by this assignment.
    #[inline]
    pub fn n(&self) -> usize {
        self.sets.offsets.len() - 1
    }

    /// The detector set of node `u`, as a view on the shared sets.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn set(&self, u: NodeId) -> DetectorSet<'_> {
        assert!(u.index() < self.n(), "node outside the detector assignment");
        DetectorSet {
            sets: &self.sets,
            node: u.index(),
        }
    }

    /// Whether process `p` appears in node `u`'s detector set.
    #[inline]
    pub fn contains(&self, u: NodeId, p: ProcessId) -> bool {
        self.set(u).contains(&p.get())
    }

    /// The graph `H` from the problem definitions: an edge `(u, v)` exists
    /// iff `u` and `v` are in each other's detector sets.
    ///
    /// For any τ-complete detector, `G ⊆ H`; for `τ = 0`, `H = G`. `H` is
    /// frozen straight from the detector sets, so call this once per
    /// assignment and reuse the result.
    pub fn h_graph(&self, ids: &IdAssignment) -> CsrGraph {
        CsrGraph::from_rows(self.n(), |u| {
            let id_u = ids.id_of(NodeId(u)).get();
            let mut row: Vec<u32> = self
                .set(NodeId(u))
                .iter()
                .map(|&pid| ids.node_of(ProcessId::new_unchecked(pid)).index())
                .filter(|&v| v != u && self.set(NodeId(v)).contains(&id_u))
                .map(|v| v as u32)
                .collect();
            row.sort_unstable();
            row.into_iter()
        })
    }

    /// Validates τ-completeness against a network: every entry is a
    /// process id of the network (in `1..=n`), every `G`-neighbor id is
    /// present, at most `tau` entries are extras, and no extra is the
    /// node's own id.
    pub fn is_tau_complete(&self, net: &DualGraph, ids: &IdAssignment, tau: usize) -> bool {
        let n = net.n();
        self.n() == n
            && self.sets.ids.iter().all(|&p| p != 0 && p as usize <= n)
            && (0..n).all(|u| {
                let set = self.set(NodeId(u));
                let degree = net.g().degree(u);
                // Sets hold no repeats, so once every neighbor id is in,
                // the rest are exactly the extras.
                neighbor_ids(net, ids, u).all(|p| set.contains(&p))
                    && set.len() - degree <= tau
                    && !set.contains(&ids.id_of(NodeId(u)).get())
            })
    }

    /// Total number of misclassified entries across all nodes (for metrics).
    pub fn spurious_count(&self, net: &DualGraph, ids: &IdAssignment) -> usize {
        (0..net.n())
            .map(|u| {
                self.set(NodeId(u))
                    .iter()
                    .filter(|&&pid| {
                        let v = ids.node_of(ProcessId::new_unchecked(pid)).index();
                        !net.g().has_edge(u, v)
                    })
                    .count()
            })
            .sum()
    }
}

/// The process ids of node `u`'s `G`-neighbors, in neighbor order.
fn neighbor_ids<'a>(
    net: &'a DualGraph,
    ids: &'a IdAssignment,
    u: usize,
) -> impl Iterator<Item = u32> + 'a {
    net.g()
        .neighbors(u)
        .iter()
        .map(|&v| ids.id_of(NodeId(v as usize)).get())
}

/// Prints the sets, one per node, as [`DetectorSet`]s do.
impl fmt::Debug for LinkDetectorAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sets: Vec<DetectorSet<'_>> = (0..self.n()).map(|u| self.set(NodeId(u))).collect();
        f.debug_struct("LinkDetectorAssignment")
            .field("sets", &sets)
            .finish()
    }
}

// Serialized as `{"sets": [[ids of node 0], …]}`, the shape the derived
// impls gave the former `Vec` field.
impl Serialize for LinkDetectorAssignment {
    fn to_value(&self) -> Value {
        let sets = (0..self.n())
            .map(|u| self.set(NodeId(u)).as_slice().to_value())
            .collect();
        Value::Object(vec![("sets".to_string(), Value::Array(sets))])
    }
}

impl Deserialize for LinkDetectorAssignment {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        let sets: Vec<BTreeSet<u32>> = Deserialize::from_value(field(fields, "sets"))?;
        Ok(Self::from_sets(sets))
    }
}

/// One node's detector set `L_u`, as processes see it through
/// [`Context::detector`](crate::Context::detector): raw process-id numbers,
/// iterated in ascending order.
///
/// The view is `Copy` and costs `O(1)` to make — the engine builds one for
/// every awake node twice per round, whether or not the process reads it.
/// It holds a reference to the assignment's frozen sets and the node
/// index, and slices the flat id array only when [`DetectorSet::iter`] or
/// [`DetectorSet::len`] asks. [`DetectorSet::contains`] is one word load
/// when the assignment keeps membership rows, and a binary search of the
/// node's sorted ids otherwise.
#[derive(Clone, Copy)]
pub struct DetectorSet<'a> {
    sets: &'a FrozenSets,
    node: usize,
}

impl<'a> DetectorSet<'a> {
    /// Whether process id `p` is in the set.
    #[inline]
    pub fn contains(&self, p: &u32) -> bool {
        let words = self.sets.words;
        if words == 0 {
            return self.as_slice().binary_search(p).is_ok();
        }
        let w = (*p >> 6) as usize;
        w < words && self.sets.rows[self.node * words + w] >> (*p & 63) & 1 == 1
    }

    /// The ids in ascending order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'a, u32> {
        self.as_slice().iter()
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    #[inline]
    fn as_slice(&self) -> &'a [u32] {
        let offsets = &self.sets.offsets;
        &self.sets.ids[offsets[self.node]..offsets[self.node + 1]]
    }
}

/// Prints the node's ids as a set, not the shared arrays behind them.
impl fmt::Debug for DetectorSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::SeedableRng;

    fn diamond() -> (DualGraph, IdAssignment) {
        // G: path 0-1-2-3; G' adds the chord 0-2 and 1-3.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut gp = g.clone();
        gp.add_edge(0, 2);
        gp.add_edge(1, 3);
        (DualGraph::new(g, gp).unwrap(), IdAssignment::identity(4))
    }

    #[test]
    fn zero_complete_matches_g() {
        let (net, ids) = diamond();
        let det = LinkDetectorAssignment::zero_complete(&net, &ids);
        assert!(det.is_tau_complete(&net, &ids, 0));
        assert_eq!(&det.h_graph(&ids), net.g());
    }

    #[test]
    fn tau_complete_has_bounded_extras() {
        let (net, ids) = diamond();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let det = LinkDetectorAssignment::tau_complete(
            &net,
            &ids,
            1,
            SpuriousSource::UnreliableNeighbors,
            &mut rng,
        );
        assert!(det.is_tau_complete(&net, &ids, 1));
        assert!(!det.is_tau_complete(&net, &ids, 0));
        // Nodes 0..=3 each have exactly one unreliable neighbor here.
        assert_eq!(det.spurious_count(&net, &ids), 4);
    }

    #[test]
    fn h_contains_g_for_any_tau() {
        let (net, ids) = diamond();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let det = LinkDetectorAssignment::tau_complete(
            &net,
            &ids,
            2,
            SpuriousSource::AnyNonNeighbor,
            &mut rng,
        );
        let h = det.h_graph(&ids);
        assert!(net.g().is_subgraph_of(&h));
    }

    #[test]
    fn h_requires_mutual_membership() {
        // Node 0 lists process 3 (node 2), but node 2 does not list node 0.
        let sets = vec![
            BTreeSet::from([2u32, 3]),
            BTreeSet::from([1u32, 3]),
            BTreeSet::from([2u32, 4]),
            BTreeSet::from([3u32]),
        ];
        let det = LinkDetectorAssignment::from_sets(sets);
        let ids = IdAssignment::identity(4);
        let h = det.h_graph(&ids);
        assert!(h.has_edge(0, 1)); // mutual
        assert!(!h.has_edge(0, 2)); // one-sided
    }

    #[test]
    fn json_shape_is_pinned() {
        let (net, ids) = diamond();
        let det = LinkDetectorAssignment::zero_complete(&net, &ids);
        let json = serde_json::to_string(&det).unwrap();
        assert_eq!(json, r#"{"sets":[[2],[1,3],[2,4],[3]]}"#);
        let back: LinkDetectorAssignment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, det);
    }

    #[test]
    fn clones_share_the_sets() {
        let (net, ids) = diamond();
        let det = LinkDetectorAssignment::zero_complete(&net, &ids);
        let twin = det.clone();
        assert!(Arc::ptr_eq(&det.sets, &twin.sets));
    }

    /// `tau_complete` with `AnyNonNeighbor` as it was written before the
    /// sets were frozen, kept as the oracle: one `BTreeSet` per node, the
    /// same RNG draws in the same order.
    fn btree_tau_complete(
        net: &DualGraph,
        ids: &IdAssignment,
        tau: usize,
        seed: u64,
    ) -> Vec<BTreeSet<u32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..net.n())
            .map(|u| {
                let mut set: BTreeSet<u32> = net
                    .g()
                    .neighbors(u)
                    .iter()
                    .map(|&v| ids.id_of(NodeId(v as usize)).get())
                    .collect();
                let mut pool: Vec<usize> = (0..net.n())
                    .filter(|&v| v != u && !net.g().has_edge(u, v))
                    .collect();
                pool.shuffle(&mut rng);
                set.extend(pool.iter().take(tau).map(|&w| ids.id_of(NodeId(w)).get()));
                set
            })
            .collect()
    }

    #[test]
    fn frozen_sets_match_their_source_with_and_without_rows() {
        let n_path = 300;
        let path = Graph::from_edges(n_path, (0..n_path - 1).map(|i| (i, i + 1))).unwrap();
        // A clique's dense sets keep the membership rows; a path's sparse
        // ones would be outweighed by them and binary-search instead.
        for (g, rows_kept) in [(Graph::complete(64), true), (path, false)] {
            let n = g.n();
            let net = DualGraph::classic(g).unwrap();
            let mut id_rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let ids = IdAssignment::random(n, &mut id_rng);
            assert_ne!(ids, IdAssignment::identity(n));
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let det = LinkDetectorAssignment::tau_complete(
                &net,
                &ids,
                3,
                SpuriousSource::AnyNonNeighbor,
                &mut rng,
            );
            let source = btree_tau_complete(&net, &ids, 3, 9);
            assert_eq!(det.sets.words > 0, rows_kept, "n = {n}");
            assert_eq!(det.sets.rows.is_empty(), !rows_kept, "n = {n}");
            for (u, want) in source.iter().enumerate() {
                let set = det.set(NodeId(u));
                for p in 0..=(n as u32 + 70) {
                    assert_eq!(set.contains(&p), want.contains(&p), "node {u}, id {p}");
                }
                let got: Vec<u32> = set.iter().copied().collect();
                assert!(got.windows(2).all(|w| w[0] < w[1]), "node {u}: {got:?}");
                assert_eq!(got, want.iter().copied().collect::<Vec<_>>(), "node {u}");
                assert_eq!(set.len(), want.len());
                assert_eq!(set.is_empty(), want.is_empty());
            }
            assert!(det.is_tau_complete(&net, &ids, 3));
            assert_eq!(det, LinkDetectorAssignment::from_sets(source));
            let json = serde_json::to_string(&det).unwrap();
            let back: LinkDetectorAssignment = serde_json::from_str(&json).unwrap();
            assert_eq!(back, det);
        }
    }

    #[test]
    fn ids_outside_the_network_are_not_tau_complete() {
        let net = DualGraph::classic(Graph::from_edges(2, [(0, 1)]).unwrap()).unwrap();
        let ids = IdAssignment::identity(2);
        let det = LinkDetectorAssignment::from_sets(vec![
            BTreeSet::from([2u32, 9]),
            BTreeSet::from([1u32]),
        ]);
        assert!(!det.is_tau_complete(&net, &ids, 1));
        let zero = LinkDetectorAssignment::from_sets(vec![
            BTreeSet::from([0u32, 2]),
            BTreeSet::from([1u32]),
        ]);
        assert!(!zero.is_tau_complete(&net, &ids, 1));
    }

    #[test]
    fn debug_prints_each_node_as_a_set() {
        let (net, ids) = diamond();
        let det = LinkDetectorAssignment::zero_complete(&net, &ids);
        assert_eq!(format!("{:?}", det.set(NodeId(1))), "{1, 3}");
        assert_eq!(
            format!("{det:?}"),
            "LinkDetectorAssignment { sets: [{2}, {1, 3}, {2, 4}, {3}] }"
        );
    }

    #[test]
    fn respects_nonidentity_assignment() {
        let (net, _) = diamond();
        let ids = IdAssignment::from_ids(vec![4, 3, 2, 1]).unwrap();
        let det = LinkDetectorAssignment::zero_complete(&net, &ids);
        // Node 0's sole G-neighbor is node 1, whose process id is 3.
        assert_eq!(
            det.set(NodeId(0)).iter().copied().collect::<Vec<_>>(),
            vec![3]
        );
        assert!(det.is_tau_complete(&net, &ids, 0));
    }
}
