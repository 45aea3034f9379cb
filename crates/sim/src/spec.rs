//! Value-level, serde-serializable descriptions of simulator inputs.
//!
//! The simulator's builders are functions (`topology::random_geometric`,
//! `adversary::RandomUnreliable::new`, …); experiment configs want plain
//! *data*. This module provides the value-level mirrors: [`TopologyKind`]
//! names every topology generator with its parameters, [`AdversaryKind`]
//! names every reach-set adversary. Both serialize through the vendored
//! serde, so a whole scenario (topology × adversary × algorithm grid) can
//! live in a JSON file and round-trip losslessly.
//!
//! Randomized builders take a seed rather than an `&mut Rng` at this level;
//! [`TopologyKind::build`] derives a fresh `StdRng` from it, and
//! [`TopologyKind::build_with`] threads a caller-owned generator for the
//! experiments whose detector construction continues the topology stream.

use crate::adversary::{
    Adversary, AllUnreliable, BurstyUnreliable, CliqueIsolator, Collider, RandomUnreliable,
    ReliableOnly,
};
use crate::graph::{CsrGraph, Graph};
use crate::network::DualGraph;
use crate::topology::{
    clustered, grid, line, random_geometric, ClusteredConfig, GridConfig, RandomGeometricConfig,
    TopologyError, TwoClique,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A selectable reach-set adversary (value-level mirror of the
/// [`crate::adversary`] types, so experiment configs can be plain data).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// Unreliable edges never deliver.
    ReliableOnly,
    /// Unreliable edges always deliver.
    AllUnreliable,
    /// Each unreliable edge delivers independently with probability `p`.
    Random {
        /// Per-edge, per-round activation probability.
        p: f64,
    },
    /// Adaptive: manufactures collisions wherever a clean reception was
    /// about to happen.
    Collider,
    /// Gilbert–Elliott bursty links: per-edge Good/Bad Markov chains.
    Bursty {
        /// Good→Bad transition probability per round.
        p_gb: f64,
        /// Bad→Good transition probability per round.
        p_bg: f64,
    },
    /// The Lemma 7.2 clique-isolating adversary.
    CliqueIsolator,
}

impl AdversaryKind {
    /// Instantiates the adversary (randomized kinds derive their stream
    /// from `seed`).
    pub fn build(self, seed: u64) -> Box<dyn Adversary> {
        match self {
            AdversaryKind::ReliableOnly => Box::new(ReliableOnly),
            AdversaryKind::AllUnreliable => Box::new(AllUnreliable),
            AdversaryKind::Random { p } => Box::new(RandomUnreliable::new(p, seed)),
            AdversaryKind::Collider => Box::new(Collider),
            AdversaryKind::Bursty { p_gb, p_bg } => {
                Box::new(BurstyUnreliable::new(p_gb, p_bg, seed))
            }
            AdversaryKind::CliqueIsolator => Box::new(CliqueIsolator),
        }
    }

    /// Checks that every probability field is finite and in `[0, 1]` —
    /// the range [`AdversaryKind::build`]'s constructors assert — so a bad
    /// spec is refused where it enters instead of panicking mid-sweep.
    ///
    /// # Errors
    ///
    /// Names the adversary variant, the field, and the offending value.
    pub fn validate(self) -> Result<(), String> {
        let fields: &[(&str, f64)] = match &self {
            AdversaryKind::Random { p } => &[("p", *p)],
            AdversaryKind::Bursty { p_gb, p_bg } => &[("p_gb", *p_gb), ("p_bg", *p_bg)],
            _ => &[],
        };
        match fields.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
            Some((field, p)) => Err(format!(
                "adversary {self:?}: {field} = {p} is not a probability (finite, in [0, 1])"
            )),
            None => Ok(()),
        }
    }

    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::ReliableOnly => "reliable-only",
            AdversaryKind::AllUnreliable => "all-unreliable",
            AdversaryKind::Random { .. } => "random-unreliable",
            AdversaryKind::Collider => "collider",
            AdversaryKind::Bursty { .. } => "bursty-unreliable",
            AdversaryKind::CliqueIsolator => "clique-isolator",
        }
    }
}

/// A selectable network topology (value-level mirror of the builders under
/// [`crate::topology`], plus the classic structured graphs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// The complete classic network (`G = G'` with all edges): the densest
    /// single-hop regime.
    Clique {
        /// Number of nodes.
        n: usize,
    },
    /// A classic path `0 — 1 — … — n-1` with no unreliable layer.
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// A path with unreliable next-but-one chords: `G` is the path,
    /// `E' \ E = {(i, i+2)}` — the sparse adversary-heavy regime.
    PathChords {
        /// Number of nodes.
        n: usize,
    },
    /// `n` nodes on a line at fixed spacing with a geometric gray zone
    /// (see [`crate::topology::line`]).
    Line {
        /// Number of nodes.
        n: usize,
        /// Distance between consecutive nodes, in `(0, 1]`.
        spacing: f64,
        /// Gray-zone constant `d ≥ 1`.
        d: f64,
        /// Probability that each gray-zone pair becomes an unreliable link.
        gray_prob: f64,
    },
    /// A jittered grid deployment (see [`crate::topology::grid`]).
    Grid {
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
        /// Distance between adjacent grid positions.
        spacing: f64,
    },
    /// Random geometric dual graph at the default dense configuration
    /// ([`RandomGeometricConfig::dense`]): the paper's implicit workload.
    GeometricDense {
        /// Number of nodes.
        n: usize,
    },
    /// [`TopologyKind::GeometricDense`] with the gray zone disabled — a
    /// classic (`G = G'`) random geometric graph.
    GeometricClassic {
        /// Number of nodes.
        n: usize,
    },
    /// Random geometric dual graph sized for a target expected reliable
    /// degree ([`RandomGeometricConfig::with_expected_degree`]).
    GeometricDegree {
        /// Number of nodes.
        n: usize,
        /// Target expected reliable degree.
        degree: f64,
    },
    /// Fully explicit random geometric configuration.
    Geometric {
        /// Number of nodes.
        n: usize,
        /// Side length of the deployment square.
        side: f64,
        /// Gray-zone constant `d ≥ 1`.
        d: f64,
        /// Probability that each gray-zone pair becomes an unreliable link.
        gray_prob: f64,
        /// Placements to try before giving up on connectivity.
        max_attempts: u32,
    },
    /// Clustered deployment: dense pockets joined by relay corridors
    /// (see [`crate::topology::clustered`]).
    Clustered {
        /// Number of clusters, arranged on a ring.
        clusters: usize,
        /// Nodes per cluster.
        nodes_per_cluster: usize,
    },
    /// The Lemma 7.2 two-clique reduction network with explicit bridge
    /// endpoints.
    TwoCliqueBridge {
        /// Clique size `β = Δ`.
        beta: usize,
        /// Bridge endpoint's local index in clique A.
        bridge_a: usize,
        /// Bridge endpoint's local index in clique B.
        bridge_b: usize,
    },
}

impl TopologyKind {
    /// Builds the network, drawing any required randomness from `rng`.
    ///
    /// Deterministic kinds (clique, path, two-clique) ignore `rng`; using
    /// this entry point for every kind keeps the caller's stream position
    /// independent of which topology a sweep axis selected.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] for out-of-range parameters (including a
    /// kind that fails [`TopologyKind::validate`], refused before anything
    /// is allocated) or when no connected placement exists within the
    /// attempt budget.
    pub fn build_with<R: Rng>(&self, rng: &mut R) -> Result<DualGraph, TopologyError> {
        let bad = |what: &'static str| TopologyError::BadConfig { what };
        if self.validate().is_err() {
            return Err(bad("topology exceeds the u32 CSR capacity"));
        }
        match *self {
            TopologyKind::Clique { n } => {
                if n == 0 {
                    return Err(bad("n must be positive"));
                }
                DualGraph::classic_frozen(CsrGraph::complete(n))
                    .map_err(|_| bad("clique must connect"))
            }
            TopologyKind::Path { n } => {
                if n == 0 {
                    return Err(bad("n must be positive"));
                }
                let g = Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
                    .map_err(|_| bad("path edges must be simple"))?;
                DualGraph::classic(g).map_err(|_| bad("path must connect"))
            }
            TopologyKind::PathChords { n } => {
                if n < 3 {
                    return Err(bad("chorded path needs n >= 3"));
                }
                let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
                    .map_err(|_| bad("path edges must be simple"))?;
                let mut gp = g.clone();
                for i in 0..n - 2 {
                    gp.add_edge(i, i + 2);
                }
                DualGraph::new(g, gp).map_err(|_| bad("chorded path must be a valid dual graph"))
            }
            TopologyKind::Line {
                n,
                spacing,
                d,
                gray_prob,
            } => line(n, spacing, d, gray_prob, rng),
            TopologyKind::Grid {
                cols,
                rows,
                spacing,
            } => grid(&GridConfig::new(cols, rows, spacing), rng),
            TopologyKind::GeometricDense { n } => {
                random_geometric(&RandomGeometricConfig::dense(n), rng)
            }
            TopologyKind::GeometricClassic { n } => {
                let mut cfg = RandomGeometricConfig::dense(n);
                cfg.gray_prob = 0.0;
                random_geometric(&cfg, rng)
            }
            TopologyKind::GeometricDegree { n, degree } => {
                random_geometric(&RandomGeometricConfig::with_expected_degree(n, degree), rng)
            }
            TopologyKind::Geometric {
                n,
                side,
                d,
                gray_prob,
                max_attempts,
            } => random_geometric(
                &RandomGeometricConfig {
                    n,
                    side,
                    d,
                    gray_prob,
                    max_attempts,
                },
                rng,
            ),
            TopologyKind::Clustered {
                clusters,
                nodes_per_cluster,
            } => clustered(&ClusteredConfig::new(clusters, nodes_per_cluster), rng),
            TopologyKind::TwoCliqueBridge {
                beta,
                bridge_a,
                bridge_b,
            } => TwoClique::new(beta, bridge_a, bridge_b)
                .map(TwoClique::into_network)
                .map_err(|_| bad("two-clique parameters out of range")),
        }
    }

    /// Builds the network from a fresh `StdRng` stream derived from `seed`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TopologyKind::build_with`].
    pub fn build(&self, seed: u64) -> Result<DualGraph, TopologyError> {
        self.build_with(&mut StdRng::seed_from_u64(seed))
    }

    /// Whether [`TopologyKind::build_with`] ignores its RNG: deterministic
    /// kinds build the same network for every seed **and leave the stream
    /// untouched**, so a sweep may freeze one instance and share it across
    /// trials (the batched runner's contract) without perturbing the
    /// detector streams that continue the topology stream.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            *self,
            TopologyKind::Clique { .. }
                | TopologyKind::Path { .. }
                | TopologyKind::PathChords { .. }
                | TopologyKind::TwoCliqueBridge { .. }
        )
    }

    /// The number of nodes this kind will produce (grid/clustered kinds
    /// compute it from their shape parameters). A count past `usize::MAX`
    /// saturates instead of wrapping; [`TopologyKind::validate`] refuses
    /// any count past `u32::MAX`.
    pub fn n(&self) -> usize {
        usize::try_from(self.node_count().1).unwrap_or(usize::MAX)
    }

    /// The fields the node count comes from, and the exact count.
    fn node_count(&self) -> (&'static str, u128) {
        match *self {
            TopologyKind::Clique { n }
            | TopologyKind::Path { n }
            | TopologyKind::PathChords { n }
            | TopologyKind::Line { n, .. }
            | TopologyKind::GeometricDense { n }
            | TopologyKind::GeometricClassic { n }
            | TopologyKind::GeometricDegree { n, .. }
            | TopologyKind::Geometric { n, .. } => ("n", n as u128),
            TopologyKind::Grid { cols, rows, .. } => ("cols * rows", cols as u128 * rows as u128),
            // Relay chains add nodes beyond the clusters; report the floor.
            TopologyKind::Clustered {
                clusters,
                nodes_per_cluster,
            } => (
                "clusters * nodes_per_cluster",
                clusters as u128 * nodes_per_cluster as u128,
            ),
            TopologyKind::TwoCliqueBridge { beta, .. } => ("2 * beta", 2 * beta as u128),
        }
    }

    /// Checks, without building anything, that the network fits the
    /// simulator's `u32` CSR layers: the node count must fit in `u32`, and
    /// so must the exact edge-slot count of the largest layer of a
    /// deterministic kind (`n(n − 1)` for a clique, `2β(2β − 1)` for the
    /// two-clique's complete `G'`, `2(n − 1)` for a path and `4n − 6` for
    /// the chorded path's `G'`). A spec that fails is refused where it
    /// enters instead of allocating until the process runs out of memory.
    ///
    /// # Errors
    ///
    /// Names the topology, the field and the count that does not fit.
    pub fn validate(&self) -> Result<(), String> {
        let cap = u128::from(u32::MAX);
        let (field, n) = self.node_count();
        let slots = match *self {
            TopologyKind::Clique { .. } | TopologyKind::TwoCliqueBridge { .. } => {
                n * n.saturating_sub(1)
            }
            TopologyKind::Path { .. } => 2 * n.saturating_sub(1),
            TopologyKind::PathChords { .. } => 2 * n.saturating_sub(1) + 2 * n.saturating_sub(2),
            _ => 0,
        };
        if n > cap {
            Err(format!(
                "topology {self:?}: {field} = {n} nodes; the u32 CSR holds at most {cap}"
            ))
        } else if slots > cap {
            Err(format!(
                "topology {self:?}: {field} = {n} nodes need {slots} edge slots; \
                 the u32 CSR holds at most {cap}"
            ))
        } else {
            Ok(())
        }
    }

    /// Short label for experiment tables and generic scenario output.
    pub fn label(&self) -> String {
        match *self {
            TopologyKind::Clique { n } => format!("clique-{n}"),
            TopologyKind::Path { n } => format!("path-{n}"),
            TopologyKind::PathChords { n } => format!("path-chords-{n}"),
            TopologyKind::Line { n, .. } => format!("line-{n}"),
            TopologyKind::Grid { cols, rows, .. } => format!("grid-{cols}x{rows}"),
            TopologyKind::GeometricDense { n } => format!("rgg-{n}"),
            TopologyKind::GeometricClassic { n } => format!("rgg-classic-{n}"),
            TopologyKind::GeometricDegree { n, degree } => format!("rgg-{n}-deg{degree:.0}"),
            TopologyKind::Geometric { n, .. } => format!("rgg-custom-{n}"),
            TopologyKind::Clustered {
                clusters,
                nodes_per_cluster,
            } => format!("clustered-{clusters}x{nodes_per_cluster}"),
            TopologyKind::TwoCliqueBridge { beta, .. } => format!("two-clique-{beta}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_kinds_build() {
        for kind in [
            AdversaryKind::ReliableOnly,
            AdversaryKind::AllUnreliable,
            AdversaryKind::Random { p: 0.5 },
            AdversaryKind::Collider,
            AdversaryKind::Bursty {
                p_gb: 0.1,
                p_bg: 0.1,
            },
            AdversaryKind::CliqueIsolator,
        ] {
            assert_eq!(kind.validate(), Ok(()));
            let a = kind.build(1);
            assert!(!a.name().is_empty());
            assert_eq!(a.name(), kind.name());
        }
    }

    #[test]
    fn validate_names_the_out_of_range_field() {
        for (kind, field) in [
            (AdversaryKind::Random { p: 1.5 }, "p = 1.5"),
            (AdversaryKind::Random { p: f64::NAN }, "p = NaN"),
            (
                AdversaryKind::Bursty {
                    p_gb: 0.1,
                    p_bg: -0.1,
                },
                "p_bg = -0.1",
            ),
            (
                AdversaryKind::Bursty {
                    p_gb: f64::INFINITY,
                    p_bg: 0.5,
                },
                "p_gb = inf",
            ),
        ] {
            let err = kind.validate().unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        for p in [0.0, 1.0] {
            assert_eq!(AdversaryKind::Random { p }.validate(), Ok(()));
        }
    }

    #[test]
    fn every_topology_kind_builds() {
        let kinds = [
            TopologyKind::Clique { n: 8 },
            TopologyKind::Path { n: 8 },
            TopologyKind::PathChords { n: 8 },
            TopologyKind::Line {
                n: 8,
                spacing: 0.8,
                d: 2.0,
                gray_prob: 0.5,
            },
            TopologyKind::Grid {
                cols: 3,
                rows: 3,
                spacing: 0.9,
            },
            TopologyKind::GeometricDense { n: 24 },
            TopologyKind::GeometricClassic { n: 24 },
            TopologyKind::GeometricDegree {
                n: 24,
                degree: 10.0,
            },
            TopologyKind::Geometric {
                n: 24,
                side: 2.0,
                d: 2.0,
                gray_prob: 0.3,
                max_attempts: 64,
            },
            TopologyKind::Clustered {
                clusters: 3,
                nodes_per_cluster: 4,
            },
            TopologyKind::TwoCliqueBridge {
                beta: 4,
                bridge_a: 1,
                bridge_b: 2,
            },
        ];
        for kind in kinds {
            let net = kind.build(7).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(net.g().is_connected(), "{kind:?}");
            assert!(net.n() >= kind.n(), "{kind:?}: n() must be a floor");
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn classic_kind_is_classic_and_chords_are_unreliable() {
        let classic = TopologyKind::GeometricClassic { n: 16 }.build(3).unwrap();
        assert!(classic.is_classic());
        let chords = TopologyKind::PathChords { n: 8 }.build(3).unwrap();
        assert!(chords.is_unreliable_edge(0, 2));
        assert!(!chords.is_unreliable_edge(0, 1));
    }

    #[test]
    fn builds_reject_bad_parameters() {
        assert!(TopologyKind::Clique { n: 0 }.build(1).is_err());
        assert!(TopologyKind::PathChords { n: 2 }.build(1).is_err());
        assert!(TopologyKind::Geometric {
            n: 8,
            side: 2.0,
            d: 0.5,
            gray_prob: 0.5,
            max_attempts: 8,
        }
        .build(1)
        .is_err());
        assert!(TopologyKind::TwoCliqueBridge {
            beta: 1,
            bridge_a: 0,
            bridge_b: 0,
        }
        .build(1)
        .is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn validate_refuses_what_the_u32_csr_cannot_hold() {
        // Only counts: nothing here is built.
        let cap = u32::MAX as usize;
        for (fits, refused, named) in [
            // 65 536 · 65 535 slots fit; 65 537 · 65 536 do not.
            (
                TopologyKind::Clique { n: 65_536 },
                TopologyKind::Clique { n: 65_537 },
                "n = 65537 nodes need 4295032832 edge slots",
            ),
            (
                TopologyKind::TwoCliqueBridge {
                    beta: 32_768,
                    bridge_a: 0,
                    bridge_b: 0,
                },
                TopologyKind::TwoCliqueBridge {
                    beta: 32_769,
                    bridge_a: 0,
                    bridge_b: 0,
                },
                "2 * beta = 65538 nodes need 4295163906 edge slots",
            ),
            (
                TopologyKind::Path { n: 1 << 31 },
                TopologyKind::Path { n: (1 << 31) + 1 },
                "edge slots",
            ),
            (
                TopologyKind::GeometricDense { n: cap },
                TopologyKind::GeometricDense { n: cap + 1 },
                "n = 4294967296 nodes",
            ),
            (
                TopologyKind::Grid {
                    cols: 65_536,
                    rows: 65_535,
                    spacing: 0.5,
                },
                TopologyKind::Grid {
                    cols: 65_536,
                    rows: 65_536,
                    spacing: 0.5,
                },
                "cols * rows = 4294967296 nodes",
            ),
        ] {
            assert_eq!(fits.validate(), Ok(()), "{fits:?}");
            let err = refused.validate().unwrap_err();
            assert!(err.contains(named), "{err}");
        }
        // Products that overflow `usize` are refused, and `n()` saturates
        // instead of wrapping.
        for kind in [
            TopologyKind::Grid {
                cols: usize::MAX,
                rows: 3,
                spacing: 0.5,
            },
            TopologyKind::Clustered {
                clusters: usize::MAX,
                nodes_per_cluster: usize::MAX,
            },
        ] {
            assert!(kind.validate().unwrap_err().contains(" * "), "{kind:?}");
            assert_eq!(kind.n(), usize::MAX, "{kind:?}");
        }
    }

    #[test]
    fn spec_kinds_roundtrip_json() {
        let topo = TopologyKind::Geometric {
            n: 24,
            side: 2.5,
            d: 2.0,
            gray_prob: 0.3,
            max_attempts: 64,
        };
        let s = serde_json::to_string(&topo).unwrap();
        let back: TopologyKind = serde_json::from_str(&s).unwrap();
        assert_eq!(back, topo);
        let adv = AdversaryKind::Bursty {
            p_gb: 0.05,
            p_bg: 0.1,
        };
        let s = serde_json::to_string(&adv).unwrap();
        let back: AdversaryKind = serde_json::from_str(&s).unwrap();
        assert_eq!(back, adv);
        // A seed-for-seed rebuild is deterministic.
        let a = TopologyKind::GeometricDense { n: 24 }.build(9).unwrap();
        let b = TopologyKind::GeometricDense { n: 24 }.build(9).unwrap();
        assert_eq!(a.g().edge_count(), b.g().edge_count());
    }
}
