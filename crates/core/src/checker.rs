//! Referee-side verification of the problem definitions (Section 3).
//!
//! Both problems are defined with respect to the reliable graph `G` and the
//! detector-induced graph `H` (mutual detector membership; `G ⊆ H` for any
//! τ-complete detector):
//!
//! * **MIS** — termination (everyone outputs), independence (no `G`-edge
//!   joins two 1s), maximality (every 0 has an `H`-neighbor that output 1).
//! * **CCDS** — termination, connectivity of the 1s in `H`, domination
//!   (every 0 has an `H`-neighbor that output 1), and constant-boundedness
//!   (no node has more than `δ = O(1)` `G'`-neighbors that output 1).
//!
//! The checkers run outside the model: they see the whole network, which
//! processes cannot.

use radio_sim::geometry::DiskOverlay;
use radio_sim::{CsrGraph, DualGraph};
use serde::{Deserialize, Serialize};

/// Outcome of verifying the MIS conditions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MisReport {
    /// Every process produced an output.
    pub terminated: bool,
    /// Number of processes with no output.
    pub undecided: usize,
    /// No reliable edge connects two processes that output 1.
    pub independent: bool,
    /// Witnesses of independence violations (reliable edges joining two 1s).
    pub independence_violations: Vec<(usize, usize)>,
    /// Every process that output 0 has an `H`-neighbor that output 1.
    pub maximal: bool,
    /// Nodes that output 0 with no `H`-neighbor in the MIS.
    pub maximality_violations: Vec<usize>,
    /// Number of processes that output 1.
    pub mis_size: usize,
}

impl MisReport {
    /// Whether the execution solved the MIS problem.
    pub fn is_valid(&self) -> bool {
        self.terminated && self.independent && self.maximal
    }
}

/// Verifies the MIS conditions for `outputs` (indexed by node) against the
/// reliable graph of `net` and the detector graph `h`.
///
/// Only the members' neighborhoods are read: each member `u`, in ascending
/// order, reports its `G`-neighbors `v > u` that are members too, and
/// marks its `H`-neighbors covered. That costs
/// `O(n + Σ_{u ∈ MIS} (deg_G u + deg_H u))` rather than a walk over every
/// edge, with violations in edge order.
///
/// # Panics
///
/// Panics if `outputs` or `h` disagree with the network size.
pub fn check_mis(net: &DualGraph, h: &CsrGraph, outputs: &[Option<bool>]) -> MisReport {
    let n = net.n();
    assert_eq!(outputs.len(), n, "one output per node required");
    assert_eq!(h.n(), n, "H must cover the same nodes");
    let undecided = outputs.iter().filter(|o| o.is_none()).count();
    let in_set = |v: usize| outputs[v] == Some(true);

    let mut independence_violations = Vec::new();
    let mut covered = vec![false; n];
    for u in (0..n).filter(|&u| in_set(u)) {
        independence_violations.extend(
            net.g()
                .neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| v > u && in_set(v))
                .map(|v| (u, v)),
        );
        for &v in h.neighbors(u) {
            covered[v as usize] = true;
        }
    }

    let maximality_violations: Vec<usize> = (0..n)
        .filter(|&v| outputs[v] == Some(false) && !covered[v])
        .collect();

    MisReport {
        terminated: undecided == 0,
        undecided,
        independent: independence_violations.is_empty(),
        independence_violations,
        maximal: maximality_violations.is_empty(),
        maximality_violations,
        mis_size: (0..n).filter(|&v| in_set(v)).count(),
    }
}

/// Outcome of verifying the CCDS conditions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcdsReport {
    /// Every process produced an output.
    pub terminated: bool,
    /// Number of processes with no output.
    pub undecided: usize,
    /// The processes that output 1 induce a connected subgraph of `H`.
    pub connected: bool,
    /// Every process that output 0 has an `H`-neighbor that output 1.
    pub dominating: bool,
    /// Nodes that output 0 with no `H`-neighbor in the set.
    pub domination_violations: Vec<usize>,
    /// Number of processes that output 1.
    pub ccds_size: usize,
    /// `max_v |{u ∈ N_{G'}(v) : u output 1}|` — the quantity the
    /// constant-bounded condition requires to be `O(1)`.
    pub max_gprime_neighbors_in_set: usize,
}

impl CcdsReport {
    /// Whether the execution solved the CCDS problem with bound `delta` on
    /// in-set `G'`-neighbors.
    pub fn is_valid(&self, delta: usize) -> bool {
        self.terminated
            && self.connected
            && self.dominating
            && self.max_gprime_neighbors_in_set <= delta
    }
}

/// Verifies the CCDS conditions for `outputs` against `net` and `h`.
///
/// # Panics
///
/// Panics if `outputs` or `h` disagree with the network size.
pub fn check_ccds(net: &DualGraph, h: &CsrGraph, outputs: &[Option<bool>]) -> CcdsReport {
    let n = net.n();
    assert_eq!(outputs.len(), n, "one output per node required");
    assert_eq!(h.n(), n, "H must cover the same nodes");
    let undecided = outputs.iter().filter(|o| o.is_none()).count();
    let in_set = |v: usize| outputs[v] == Some(true);
    let member: Vec<bool> = (0..n).map(in_set).collect();

    let domination_violations: Vec<usize> = (0..n)
        .filter(|&v| outputs[v] == Some(false))
        .filter(|&v| !h.neighbors(v).iter().any(|&u| in_set(u as usize)))
        .collect();

    let max_gprime_neighbors_in_set = (0..n)
        .map(|v| {
            net.g_prime()
                .neighbors(v)
                .iter()
                .filter(|&&u| in_set(u as usize))
                .count()
        })
        .max()
        .unwrap_or(0);

    CcdsReport {
        terminated: undecided == 0,
        undecided,
        connected: h.induced_connected(&member),
        dominating: domination_violations.is_empty(),
        domination_violations,
        ccds_size: member.iter().filter(|&&m| m).count(),
        max_gprime_neighbors_in_set,
    }
}

/// The density statistic of Corollary 4.7: the maximum number of selected
/// nodes within Euclidean distance `r` of any node. The corollary bounds it
/// by `I_r` ([`DiskOverlay::overlap_bound`]) for a valid MIS.
///
/// Returns `None` if the network has no embedding.
pub fn mis_density_within(net: &DualGraph, outputs: &[Option<bool>], r: f64) -> Option<usize> {
    let pos = net.positions()?;
    let selected: Vec<usize> = (0..net.n()).filter(|&v| outputs[v] == Some(true)).collect();
    Some(
        (0..net.n())
            .map(|v| {
                selected
                    .iter()
                    .filter(|&&m| pos[v].dist(pos[m]) <= r)
                    .count()
            })
            .max()
            .unwrap_or(0),
    )
}

/// Convenience: the paper's `I_r` bound for the density check.
pub fn density_bound(r: f64) -> usize {
    DiskOverlay::paper().overlap_bound(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use radio_sim::Graph;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn path_net(n: usize) -> DualGraph {
        DualGraph::classic(Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()).unwrap()
    }

    /// The edge-scan checker `check_mis` replaced, kept as its oracle.
    fn check_mis_by_edge_scan(
        net: &DualGraph,
        h: &CsrGraph,
        outputs: &[Option<bool>],
    ) -> MisReport {
        let n = net.n();
        let undecided = outputs.iter().filter(|o| o.is_none()).count();
        let in_set = |v: usize| outputs[v] == Some(true);
        let independence_violations: Vec<(usize, usize)> = net
            .g()
            .edges()
            .filter(|&(u, v)| in_set(u) && in_set(v))
            .collect();
        let maximality_violations: Vec<usize> = (0..n)
            .filter(|&v| outputs[v] == Some(false))
            .filter(|&v| !h.neighbors(v).iter().any(|&u| in_set(u as usize)))
            .collect();
        MisReport {
            terminated: undecided == 0,
            undecided,
            independent: independence_violations.is_empty(),
            independence_violations,
            maximal: maximality_violations.is_empty(),
            maximality_violations,
            mis_size: (0..n).filter(|&v| in_set(v)).count(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn member_scan_matches_the_edge_scan(
            n in 1usize..=40,
            seed in 0u64..1_000_000,
            g_pct in 0u32..=100,
            h_pct in 0u32..=100,
        ) {
            // G: a random spanning tree (G must be connected) plus chords;
            // H: G plus further chords. Outputs mix all three states.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = Graph::new(n);
            for v in 1..n {
                g.add_edge(rng.gen_range(0..v), v);
            }
            let mut h = g.clone();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(f64::from(g_pct) / 400.0) {
                        g.add_edge(u, v);
                        h.add_edge(u, v);
                    } else if rng.gen_bool(f64::from(h_pct) / 400.0) {
                        h.add_edge(u, v);
                    }
                }
            }
            let (net, h) = (DualGraph::classic(g).unwrap(), h.to_csr());
            let outputs: Vec<Option<bool>> = (0..n)
                .map(|_| [None, Some(false), Some(true)][rng.gen_range(0..3usize)])
                .collect();
            prop_assert_eq!(
                check_mis(&net, &h, &outputs),
                check_mis_by_edge_scan(&net, &h, &outputs)
            );
        }
    }

    #[test]
    fn valid_mis_on_path() {
        let net = path_net(5);
        let out = vec![Some(true), Some(false), Some(true), Some(false), Some(true)];
        let r = check_mis(&net, net.g(), &out);
        assert!(r.is_valid());
        assert_eq!(r.mis_size, 3);
    }

    #[test]
    fn detects_independence_violation() {
        let net = path_net(3);
        let out = vec![Some(true), Some(true), Some(false)];
        let r = check_mis(&net, net.g(), &out);
        assert!(!r.independent);
        assert_eq!(r.independence_violations, vec![(0, 1)]);
        assert!(!r.is_valid());
    }

    #[test]
    fn detects_maximality_violation() {
        let net = path_net(4);
        let out = vec![Some(true), Some(false), Some(false), Some(false)];
        let r = check_mis(&net, net.g(), &out);
        assert!(!r.maximal);
        assert_eq!(r.maximality_violations, vec![2, 3]);
    }

    #[test]
    fn detects_nontermination() {
        let net = path_net(3);
        let out = vec![Some(true), None, Some(false)];
        let r = check_mis(&net, net.g(), &out);
        assert!(!r.terminated);
        assert_eq!(r.undecided, 1);
    }

    #[test]
    fn maximality_uses_h_not_g() {
        // Node 2 has no G-neighbor in the set but an H-neighbor (node 0).
        let net = path_net(3);
        let h = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
            .unwrap()
            .to_csr();
        let out = vec![Some(true), Some(false), Some(false)];
        let r = check_mis(&net, &h, &out);
        assert!(r.maximal);
    }

    #[test]
    fn valid_ccds_on_path() {
        let net = path_net(5);
        let out = vec![Some(false), Some(true), Some(true), Some(true), Some(false)];
        let r = check_ccds(&net, net.g(), &out);
        assert!(r.is_valid(3));
        assert_eq!(r.ccds_size, 3);
        assert_eq!(r.max_gprime_neighbors_in_set, 2);
    }

    #[test]
    fn detects_disconnected_ccds() {
        let net = path_net(5);
        let out = vec![Some(true), Some(false), Some(true), Some(false), Some(true)];
        let r = check_ccds(&net, net.g(), &out);
        assert!(!r.connected);
        assert!(!r.is_valid(5));
    }

    #[test]
    fn detects_domination_violation() {
        let net = path_net(5);
        let out = vec![
            Some(true),
            Some(true),
            Some(false),
            Some(false),
            Some(false),
        ];
        let r = check_ccds(&net, net.g(), &out);
        assert!(!r.dominating);
        assert!(r.domination_violations.contains(&3));
    }

    #[test]
    fn constant_bound_measured_in_gprime() {
        // G is a path; G' adds chords to node 0.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut gp = g.clone();
        gp.add_edge(0, 2);
        gp.add_edge(0, 3);
        let net = DualGraph::new(g, gp).unwrap();
        let out = vec![Some(false), Some(true), Some(true), Some(true)];
        let r = check_ccds(&net, net.g(), &out);
        // Node 0 sees 1, 2, 3 in G' — all in the set.
        assert_eq!(r.max_gprime_neighbors_in_set, 3);
        assert!(r.is_valid(3));
        assert!(!r.is_valid(2));
    }

    #[test]
    fn density_requires_embedding() {
        let net = path_net(3);
        assert_eq!(
            mis_density_within(&net, &[Some(true), None, None], 1.0),
            None
        );
    }
}
