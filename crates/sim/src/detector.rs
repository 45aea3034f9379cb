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

use crate::graph::Graph;
use crate::ids::{IdAssignment, NodeId, ProcessId};
use crate::network::DualGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::value::{field, DeError, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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
/// Sets contain raw process-id numbers (`u32`) for compact storage; use
/// [`LinkDetectorAssignment::contains`] for typed queries. An assignment
/// is immutable once built, so [`Clone`] shares the sets behind a
/// reference count: the engines of a trial batch hold handles on one copy.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkDetectorAssignment {
    sets: Arc<[BTreeSet<u32>]>,
}

impl LinkDetectorAssignment {
    /// The 0-complete detector: each node sees exactly the ids of its
    /// `G`-neighbors.
    pub fn zero_complete(net: &DualGraph, ids: &IdAssignment) -> Self {
        Self::from_sets(Self::zero_complete_sets(net, ids))
    }

    /// The 0-complete sets, still mutable for builders that extend them.
    fn zero_complete_sets(net: &DualGraph, ids: &IdAssignment) -> Vec<BTreeSet<u32>> {
        (0..net.n())
            .map(|u| {
                net.g()
                    .neighbors(u)
                    .iter()
                    .map(|&v| ids.id_of(NodeId(v)).get())
                    .collect()
            })
            .collect()
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
        let mut sets = Self::zero_complete_sets(net, ids);
        for (u, set) in sets.iter_mut().enumerate() {
            let mut pool: Vec<usize> = match source {
                SpuriousSource::UnreliableNeighbors => net
                    .g_prime()
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| !net.g().has_edge(u, v))
                    .collect(),
                SpuriousSource::AnyNonNeighbor => (0..net.n())
                    .filter(|&v| v != u && !net.g().has_edge(u, v))
                    .collect(),
            };
            pool.shuffle(rng);
            for &w in pool.iter().take(tau) {
                set.insert(ids.id_of(NodeId(w)).get());
            }
        }
        Self::from_sets(sets)
    }

    /// Builds an assignment from explicit sets (one per node, containing raw
    /// process-id numbers). Used by adversarial constructions such as the
    /// two-clique network of Lemma 7.2.
    pub fn from_sets(sets: Vec<BTreeSet<u32>>) -> Self {
        LinkDetectorAssignment { sets: sets.into() }
    }

    /// Number of nodes covered by this assignment.
    #[inline]
    pub fn n(&self) -> usize {
        self.sets.len()
    }

    /// The detector set of node `u` (raw process-id numbers, sorted).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn set(&self, u: NodeId) -> &BTreeSet<u32> {
        &self.sets[u.index()]
    }

    /// Whether process `p` appears in node `u`'s detector set.
    #[inline]
    pub fn contains(&self, u: NodeId, p: ProcessId) -> bool {
        self.sets[u.index()].contains(&p.get())
    }

    /// The graph `H` from the problem definitions: an edge `(u, v)` exists
    /// iff `u` and `v` are in each other's detector sets.
    ///
    /// For any τ-complete detector, `G ⊆ H`; for `τ = 0`, `H = G`.
    pub fn h_graph(&self, ids: &IdAssignment) -> Graph {
        let n = self.sets.len();
        let mut h = Graph::new(n);
        for u in 0..n {
            let id_u = ids.id_of(NodeId(u)).get();
            for &pid in &self.sets[u] {
                let v = ids.node_of(ProcessId::new_unchecked(pid)).index();
                if v > u && self.sets[v].contains(&id_u) {
                    h.add_edge(u, v);
                }
            }
        }
        h
    }

    /// The graph `H` frozen into CSR form. This rebuilds `H` from the
    /// detector sets — `O(V + E)` — so call it once per assignment and
    /// reuse the result; per-round callers should freeze up front.
    pub fn h_csr(&self, ids: &IdAssignment) -> crate::graph::CsrGraph {
        self.h_graph(ids).to_csr()
    }

    /// Validates τ-completeness against a network: every `G`-neighbor id
    /// present, at most `tau` extras, and no extra is a `G`-neighbor or the
    /// node's own id.
    pub fn is_tau_complete(&self, net: &DualGraph, ids: &IdAssignment, tau: usize) -> bool {
        if self.sets.len() != net.n() {
            return false;
        }
        for u in 0..net.n() {
            let own = ids.id_of(NodeId(u)).get();
            let neighbor_ids: BTreeSet<u32> = net
                .g()
                .neighbors(u)
                .iter()
                .map(|&v| ids.id_of(NodeId(v)).get())
                .collect();
            if !neighbor_ids.is_subset(&self.sets[u]) {
                return false;
            }
            let extras: Vec<u32> = self.sets[u].difference(&neighbor_ids).copied().collect();
            if extras.len() > tau || extras.contains(&own) {
                return false;
            }
        }
        true
    }

    /// Total number of misclassified entries across all nodes (for metrics).
    pub fn spurious_count(&self, net: &DualGraph, ids: &IdAssignment) -> usize {
        (0..net.n())
            .map(|u| {
                self.sets[u]
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

// Serialized as `{"sets": [[ids of node 0], …]}`, the shape the derived
// impls gave the former `Vec` field.
impl Serialize for LinkDetectorAssignment {
    fn to_value(&self) -> Value {
        Value::Object(vec![("sets".to_string(), self.sets[..].to_value())])
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let h = det.h_graph(&ids);
        assert_eq!(&h, net.g());
        assert_eq!(det.h_csr(&ids), h.to_csr());
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
        assert!(std::ptr::eq(det.set(NodeId(2)), twin.set(NodeId(2))));
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
