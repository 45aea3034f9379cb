//! Structure quality analysis: how good is the backbone the algorithms
//! build?
//!
//! The checkers in [`crate::checker`] decide *validity*; this module
//! quantifies *quality*: backbone size relative to offline greedy
//! constructions, the routing stretch incurred by forcing interior hops
//! onto the backbone, and per-node load statistics. Used by tests and the
//! experiment harness. The offline greedy MIS and CDS live here, beside the
//! measure that compares against them; `radio-baselines` re-exports them.

use radio_sim::{CsrGraph, DualGraph};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Greedy maximal independent set in id order: scan vertices, take any not
/// adjacent to an already-taken vertex.
pub fn greedy_mis(g: &CsrGraph) -> Vec<bool> {
    let mut in_set = vec![false; g.n()];
    let mut blocked = vec![false; g.n()];
    for v in 0..g.n() {
        if !blocked[v] {
            in_set[v] = true;
            for &u in g.neighbors(v) {
                blocked[u as usize] = true;
            }
        }
    }
    in_set
}

/// Greedy connected dominating set: a greedy MIS plus shortest connector
/// paths merged until the set is connected.
///
/// Returns the membership vector. For a connected input the result is a
/// valid CDS: dominating (the MIS dominates) and connected (by
/// construction). Runs in `O(n · (n + m))`.
///
/// # Panics
///
/// Panics if `g` is disconnected (a CDS does not exist).
pub fn greedy_cds(g: &CsrGraph) -> Vec<bool> {
    assert!(g.is_connected(), "CDS requires a connected graph");
    let mut member = greedy_mis(g);
    // Repeatedly find the closest pair of member-components and merge them
    // along a shortest path.
    loop {
        let comp = g.member_components(&member);
        if comp.iter().all(|c| c.is_none_or(|c| c == 0)) {
            return member; // at most one component (labels are 0-based)
        }
        // BFS from all of component 0 to the nearest node of any other
        // component, tracking parents through non-member vertices.
        let mut dist = vec![u32::MAX; g.n()];
        let mut parent = vec![usize::MAX; g.n()];
        let mut queue = VecDeque::new();
        for v in 0..g.n() {
            if comp[v] == Some(0) {
                dist[v] = 0;
                queue.push_back(v);
            }
        }
        let mut join = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = u;
                    if comp[v].is_some_and(|c| c != 0) {
                        join = Some(v);
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        let Some(mut v) = join else {
            return member; // should not happen on connected graphs
        };
        // Add the interior of the connecting path.
        while parent[v] != usize::MAX {
            member[v] = true;
            v = parent[v];
        }
        member[v] = true;
    }
}

/// Shortest path length from `src` to `dst` where every interior hop must
/// be a member of `backbone` (endpoints are exempt). `None` if no such path
/// exists.
///
/// # Panics
///
/// Panics if `backbone.len() != g.n()` or an endpoint is out of range.
pub fn backbone_distance(g: &CsrGraph, backbone: &[bool], src: usize, dst: usize) -> Option<u32> {
    assert_eq!(backbone.len(), g.n(), "one flag per node");
    assert!(src < g.n() && dst < g.n(), "endpoint out of range");
    if src == dst {
        return Some(0);
    }
    let mut dist = vec![None; g.n()];
    dist[src] = Some(0u32);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued vertices have distances");
        for &v in g.neighbors(u) {
            let v = v as usize;
            if v != dst && !backbone[v] {
                continue;
            }
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                if v == dst {
                    return dist[v];
                }
                queue.push_back(v);
            }
        }
    }
    dist[dst]
}

/// Quality statistics of a dominating backbone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackboneQuality {
    /// Number of backbone members.
    pub size: usize,
    /// Backbone size divided by the offline greedy CDS size (≥ ~1; smaller
    /// is better).
    pub size_vs_greedy: f64,
    /// Maximum over connected pairs of `backbone_distance / direct
    /// distance` (the routing stretch; 1.0 is optimal).
    pub max_stretch: f64,
    /// Mean stretch over sampled pairs.
    pub mean_stretch: f64,
}

/// Measures backbone quality over `net.g()`.
///
/// Stretch is computed over all pairs for `n ≤ 128`, else over a
/// deterministic sample of sources. Returns `None` if the backbone fails to
/// route some pair (i.e. it is not actually a connected dominating set).
pub fn backbone_quality(net: &DualGraph, backbone: &[bool]) -> Option<BackboneQuality> {
    let g = net.g();
    let n = g.n();
    let greedy = greedy_cds(g).iter().filter(|&&m| m).count();
    let sources: Vec<usize> = if n <= 128 {
        (0..n).collect()
    } else {
        (0..n).step_by(n / 64).collect()
    };
    let mut max_stretch = 1.0f64;
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for &src in &sources {
        let direct = g.bfs_distances(src);
        for (dst, dd) in direct.iter().enumerate() {
            let Some(d) = *dd else { continue };
            if d == 0 {
                continue;
            }
            let via = backbone_distance(g, backbone, src, dst)?;
            let stretch = f64::from(via) / f64::from(d);
            max_stretch = max_stretch.max(stretch);
            sum += stretch;
            count += 1;
        }
    }
    Some(BackboneQuality {
        size: backbone.iter().filter(|&&b| b).count(),
        size_vs_greedy: backbone.iter().filter(|&&b| b).count() as f64 / greedy as f64,
        max_stretch,
        mean_stretch: if count == 0 { 1.0 } else { sum / count as f64 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::{DualGraph, Graph};

    fn path_net(n: usize) -> DualGraph {
        DualGraph::classic(Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()).unwrap()
    }

    #[test]
    fn backbone_distance_respects_membership() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
            .unwrap()
            .to_csr();
        // Backbone = {1, 2}; route 0 → 3 must go the long way if 3's direct
        // edge neighbor (0) is fine... endpoints exempt, so 0-3 direct works.
        assert_eq!(
            backbone_distance(&g, &[false, true, true, false], 0, 3),
            Some(1)
        );
        // Remove the direct edge: 0-1-2-3 with interior on the backbone.
        let g2 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
            .unwrap()
            .to_csr();
        assert_eq!(
            backbone_distance(&g2, &[false, true, true, false], 0, 3),
            Some(3)
        );
        // An interior non-member blocks the only path.
        assert_eq!(
            backbone_distance(&g2, &[false, true, false, false], 0, 3),
            None
        );
        assert_eq!(backbone_distance(&g2, &[false; 4], 2, 2), Some(0));
    }

    #[test]
    fn perfect_backbone_has_unit_stretch() {
        let net = path_net(6);
        let all = vec![true; 6];
        let q = backbone_quality(&net, &all).unwrap();
        assert!((q.max_stretch - 1.0).abs() < 1e-12);
        assert_eq!(q.size, 6);
    }

    #[test]
    fn interior_cds_on_path_has_unit_stretch() {
        let net = path_net(6);
        // Interior nodes form a CDS of a path.
        let backbone = vec![false, true, true, true, true, false];
        let q = backbone_quality(&net, &backbone).unwrap();
        assert!((q.max_stretch - 1.0).abs() < 1e-12);
        assert!(q.size_vs_greedy <= 1.01);
    }

    #[test]
    fn broken_backbone_returns_none() {
        let net = path_net(5);
        // Node 2 missing: cannot route 0 → 4 through the backbone.
        let backbone = vec![false, true, false, true, false];
        assert!(backbone_quality(&net, &backbone).is_none());
    }

    #[test]
    fn ccds_backbone_quality_is_reasonable() {
        use crate::runner::{run_ccds, AdversaryKind};
        use radio_sim::topology::{random_geometric, RandomGeometricConfig};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let net = random_geometric(&RandomGeometricConfig::dense(48), &mut rng).unwrap();
        let cfg = crate::CcdsConfig::new(net.n(), net.max_degree_g(), 512);
        let run = run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 4).unwrap();
        let backbone: Vec<bool> = run.outputs.iter().map(|o| *o == Some(true)).collect();
        let q = backbone_quality(&net, &backbone).expect("valid CCDS routes everything");
        // Constant stretch (the paper's 3-hop connection guarantee implies
        // a small constant; we assert a loose bound).
        assert!(q.max_stretch <= 4.0, "stretch {}", q.max_stretch);
        assert!(q.size_vs_greedy >= 1.0);
    }
}
