//! One-dimensional chain deployments.
//!
//! Lines maximize diameter for a given `n`, stressing the multi-hop aspects
//! of structure building (e.g. CCDS connectivity along a corridor
//! deployment).

use super::dual_graph_from_points;
use super::random_geometric::TopologyError;
use crate::geometry::Point;
use crate::network::DualGraph;
use rand::Rng;

/// Generates `n` nodes on a line at the given spacing (must be in `(0, 1]`),
/// with gray-zone pairs (distance in `(1, d]`, here the next-but-k
/// neighbors) becoming unreliable links with probability `gray_prob`.
///
/// # Errors
///
/// Returns [`TopologyError::BadConfig`] for `n = 0`, spacing outside
/// `(0, 1]`, `d < 1`, or `gray_prob` outside `[0, 1]`.
pub fn line<R: Rng>(
    n: usize,
    spacing: f64,
    d: f64,
    gray_prob: f64,
    rng: &mut R,
) -> Result<DualGraph, TopologyError> {
    if n == 0 {
        return Err(TopologyError::BadConfig {
            what: "n must be positive",
        });
    }
    if !(spacing > 0.0 && spacing <= 1.0) {
        return Err(TopologyError::BadConfig {
            what: "spacing must be in (0, 1]",
        });
    }
    if !(d.is_finite() && d >= 1.0) {
        return Err(TopologyError::BadConfig {
            what: "d must be >= 1",
        });
    }
    if !(0.0..=1.0).contains(&gray_prob) {
        return Err(TopologyError::BadConfig {
            what: "gray_prob must be in [0, 1]",
        });
    }
    let points = (0..n)
        .map(|i| Point::new(i as f64 * spacing, 0.0))
        .collect();
    Ok(dual_graph_from_points(points, d, |_| gray_prob, rng)
        .expect("a chain with spacing <= 1 is connected"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn line_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let net = line(10, 0.8, 2.0, 0.0, &mut rng).unwrap();
        assert_eq!(net.n(), 10);
        assert!(net.g().is_connected());
        // spacing 0.8: nodes i, i+1 adjacent (0.8 <= 1); i, i+2 not (1.6 > 1).
        assert!(net.g().has_edge(0, 1));
        assert!(!net.g().has_edge(0, 2));
        assert_eq!(net.g().bfs_distances(0)[9], Some(9));
    }

    #[test]
    fn gray_zone_on_line() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let net = line(10, 0.8, 2.0, 1.0, &mut rng).unwrap();
        // distance(i, i+2) = 1.6 in (1, 2] -> unreliable link exists.
        assert!(net.is_unreliable_edge(0, 2));
    }

    #[test]
    fn rejects_bad_config() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert!(line(0, 0.5, 2.0, 0.5, &mut rng).is_err());
        assert!(line(5, 2.0, 2.0, 0.5, &mut rng).is_err());
    }
}
