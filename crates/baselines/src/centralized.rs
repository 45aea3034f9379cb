//! Centralized (offline) reference constructions.
//!
//! These are not radio algorithms — they see the whole graph — and serve as
//! quality yardsticks for the distributed structures: how large is the MIS,
//! how many connectors does a CDS really need, how close do the paper's
//! algorithms get.

use radio_sim::CsrGraph;

/// The offline greedy MIS, kept in `radio_structures::analysis` beside the
/// backbone measures that compare against it.
///
/// # Examples
///
/// ```
/// use radio_sim::Graph;
/// use radio_baselines::centralized::greedy_mis;
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?.to_csr();
/// assert_eq!(greedy_mis(&g), vec![true, false, true, false]);
/// # Ok::<(), radio_sim::GraphError>(())
/// ```
pub use radio_structures::analysis::greedy_mis;

/// The offline greedy CDS, kept beside the greedy MIS.
pub use radio_structures::analysis::greedy_cds;

/// Size statistics for comparing structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureStats {
    /// Number of members.
    pub size: usize,
    /// Maximum number of members adjacent to any vertex.
    pub max_member_degree: usize,
}

/// Computes [`StructureStats`] for a membership vector over `g`.
pub fn structure_stats(g: &CsrGraph, member: &[bool]) -> StructureStats {
    StructureStats {
        size: member.iter().filter(|&&m| m).count(),
        max_member_degree: (0..g.n())
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| member[u as usize])
                    .count()
            })
            .max()
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::Graph;

    fn path(n: usize) -> CsrGraph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
            .unwrap()
            .to_csr()
    }

    #[test]
    fn greedy_mis_is_valid() {
        let g = path(7);
        let mis = greedy_mis(&g);
        for (u, v) in g.edges() {
            assert!(!(mis[u] && mis[v]));
        }
        for v in 0..7 {
            assert!(mis[v] || g.neighbors(v).iter().any(|&u| mis[u as usize]));
        }
    }

    #[test]
    fn greedy_cds_is_connected_and_dominating() {
        let g = path(9);
        let cds = greedy_cds(&g);
        assert!(g.induced_connected(&cds));
        for v in 0..9 {
            assert!(cds[v] || g.neighbors(v).iter().any(|&u| cds[u as usize]));
        }
    }

    #[test]
    fn greedy_cds_on_star_is_just_the_hub() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let cds = greedy_cds(&g.to_csr());
        assert_eq!(cds, vec![true, false, false, false, false]);
    }

    #[test]
    fn cds_on_grid_like_graph() {
        // 3x3 king-less grid.
        let mut g = Graph::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(v, v + 1);
                }
                if r + 1 < 3 {
                    g.add_edge(v, v + 3);
                }
            }
        }
        let g = g.to_csr();
        let cds = greedy_cds(&g);
        assert!(g.induced_connected(&cds));
        let stats = structure_stats(&g, &cds);
        assert!(stats.size < 9, "a CDS should be a strict subset here");
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn cds_rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        greedy_cds(&g.to_csr());
    }
}
