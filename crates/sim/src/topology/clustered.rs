//! Clustered deployments: dense pockets joined by sparse corridors.
//!
//! Clusters stress the CCDS algorithms where they are weakest — the MIS is
//! dense inside clusters and the connecting paths are few — and they are the
//! common shape of real sensor deployments (rooms, buildings, road
//! segments).

use super::first_connected;
use super::random_geometric::TopologyError;
use crate::geometry::Point;
use crate::network::DualGraph;
use rand::Rng;

/// Configuration for [`clustered`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteredConfig {
    /// Number of clusters, arranged on a ring.
    pub clusters: usize,
    /// Nodes per cluster.
    pub nodes_per_cluster: usize,
    /// Radius of each cluster's disk.
    pub cluster_radius: f64,
    /// Distance between adjacent cluster centers; bridged by chains of
    /// relay nodes so the reliable graph connects.
    pub center_spacing: f64,
    /// Gray-zone constant `d ≥ 1`.
    pub d: f64,
    /// Probability that each gray-zone pair becomes an unreliable link.
    pub gray_prob: f64,
    /// Placements to try before giving up on connectivity.
    pub max_attempts: u32,
}

impl ClusteredConfig {
    /// A reasonable default: `clusters` pockets of `nodes_per_cluster` nodes
    /// with radius 0.75, centers 2.5 apart, `d = 2`, half the gray-zone
    /// pairs unreliable.
    pub fn new(clusters: usize, nodes_per_cluster: usize) -> Self {
        ClusteredConfig {
            clusters,
            nodes_per_cluster,
            cluster_radius: 0.75,
            center_spacing: 2.5,
            d: 2.0,
            gray_prob: 0.5,
            max_attempts: 64,
        }
    }
}

/// Generates a clustered dual graph: clusters on a ring plus relay chains
/// between adjacent clusters.
///
/// # Errors
///
/// Returns [`TopologyError::BadConfig`] for degenerate parameters and
/// [`TopologyError::Disconnected`] if no connected placement was found.
pub fn clustered<R: Rng>(
    config: &ClusteredConfig,
    rng: &mut R,
) -> Result<DualGraph, TopologyError> {
    if config.clusters == 0 || config.nodes_per_cluster == 0 {
        return Err(TopologyError::BadConfig {
            what: "clusters and nodes_per_cluster must be positive",
        });
    }
    if !(config.cluster_radius > 0.0 && config.cluster_radius.is_finite()) {
        return Err(TopologyError::BadConfig {
            what: "cluster_radius must be positive",
        });
    }
    if !(config.d.is_finite() && config.d >= 1.0) {
        return Err(TopologyError::BadConfig {
            what: "d must be >= 1",
        });
    }
    if !(0.0..=1.0).contains(&config.gray_prob) {
        return Err(TopologyError::BadConfig {
            what: "gray_prob must be in [0, 1]",
        });
    }
    // Cluster centers on a ring sized so adjacent centers are
    // `center_spacing` apart.
    let k = config.clusters;
    let ring_radius = if k == 1 {
        0.0
    } else {
        config.center_spacing / (2.0 * (std::f64::consts::PI / k as f64).sin())
    };
    let centers: Vec<Point> = (0..k)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / k as f64;
            Point::new(ring_radius * theta.cos(), ring_radius * theta.sin())
        })
        .collect();

    let draw = |rng: &mut R| {
        let mut points = Vec::new();
        for c in &centers {
            for _ in 0..config.nodes_per_cluster {
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                let rad = config.cluster_radius * rng.gen_range(0.0f64..1.0).sqrt();
                points.push(Point::new(c.x + rad * theta.cos(), c.y + rad * theta.sin()));
            }
        }
        // Relay chains between adjacent clusters (every ~0.9 along the
        // segment between centers) keep the reliable graph connected.
        if k > 1 {
            for i in 0..k {
                let a = centers[i];
                let b = centers[(i + 1) % k];
                let dist = a.dist(b);
                let hops = (dist / 0.9).ceil() as usize;
                for h in 1..hops {
                    let t = h as f64 / hops as f64;
                    points.push(Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)));
                }
            }
        }
        points
    };
    first_connected(
        config.max_attempts,
        config.d,
        |_| config.gray_prob,
        rng,
        draw,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn clustered_connects() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let net = clustered(&ClusteredConfig::new(4, 12), &mut rng).unwrap();
        assert!(net.g().is_connected());
        // 4 clusters of 12 plus relay nodes.
        assert!(net.n() >= 48);
    }

    #[test]
    fn clusters_are_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let net = clustered(&ClusteredConfig::new(3, 16), &mut rng).unwrap();
        // Inside a radius-0.75 disk every pair is within 1.5; many pairs are
        // within 1, so the max reliable degree is large.
        assert!(net.max_degree_g() >= 8);
    }

    #[test]
    fn single_cluster_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let net = clustered(&ClusteredConfig::new(1, 10), &mut rng).unwrap();
        assert_eq!(net.n(), 10);
        assert!(net.g().is_connected());
    }

    #[test]
    fn rejects_bad_config() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        assert!(clustered(&ClusteredConfig::new(0, 10), &mut rng).is_err());
        let mut cfg = ClusteredConfig::new(2, 4);
        cfg.gray_prob = -0.1;
        assert!(clustered(&cfg, &mut rng).is_err());
    }
}
