//! Regular grid deployments with a gray zone.
//!
//! Deterministic connectivity (spacing < 1 keeps lattice neighbors within
//! reliable range) makes grids the workload of choice for controlled `Δ`
//! sweeps: density is `1/spacing²`, so `Δ` grows as spacing shrinks.

use super::dual_graph_from_points;
use super::random_geometric::TopologyError;
use crate::geometry::Point;
use crate::network::DualGraph;
use rand::Rng;

/// Configuration for [`grid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Grid width in nodes.
    pub cols: usize,
    /// Grid height in nodes.
    pub rows: usize,
    /// Distance between adjacent lattice points; must be in `(0, 1]` so the
    /// lattice is reliably connected.
    pub spacing: f64,
    /// Gray-zone constant `d ≥ 1`.
    pub d: f64,
    /// Probability that each gray-zone pair becomes an unreliable link.
    pub gray_prob: f64,
}

impl GridConfig {
    /// A `cols × rows` grid at the given spacing with `d = 2` and half the
    /// gray-zone pairs unreliable.
    pub fn new(cols: usize, rows: usize, spacing: f64) -> Self {
        GridConfig {
            cols,
            rows,
            spacing,
            d: 2.0,
            gray_prob: 0.5,
        }
    }
}

/// Generates a grid dual graph.
///
/// # Errors
///
/// Returns [`TopologyError::BadConfig`] for empty grids, spacing outside
/// `(0, 1]`, `d < 1`, or `gray_prob` outside `[0, 1]`.
pub fn grid<R: Rng>(config: &GridConfig, rng: &mut R) -> Result<DualGraph, TopologyError> {
    if config.cols == 0 || config.rows == 0 {
        return Err(TopologyError::BadConfig {
            what: "grid must be nonempty",
        });
    }
    if !(config.spacing > 0.0 && config.spacing <= 1.0) {
        return Err(TopologyError::BadConfig {
            what: "spacing must be in (0, 1]",
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
    let mut points = Vec::with_capacity(config.cols * config.rows);
    for r in 0..config.rows {
        for c in 0..config.cols {
            points.push(Point::new(
                c as f64 * config.spacing,
                r as f64 * config.spacing,
            ));
        }
    }
    Ok(
        dual_graph_from_points(points, config.d, |_| config.gray_prob, rng)
            .expect("lattice with spacing <= 1 is connected"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn grid_is_connected_and_sized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = grid(&GridConfig::new(6, 5, 0.9), &mut rng).unwrap();
        assert_eq!(net.n(), 30);
        assert!(net.g().is_connected());
    }

    #[test]
    fn tighter_spacing_raises_degree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let loose = grid(&GridConfig::new(8, 8, 0.95), &mut rng).unwrap();
        let tight = grid(&GridConfig::new(8, 8, 0.3), &mut rng).unwrap();
        assert!(tight.max_degree_g() > loose.max_degree_g());
    }

    #[test]
    fn rejects_bad_spacing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(matches!(
            grid(&GridConfig::new(3, 3, 1.5), &mut rng),
            Err(TopologyError::BadConfig { .. })
        ));
        assert!(matches!(
            grid(&GridConfig::new(0, 3, 0.5), &mut rng),
            Err(TopologyError::BadConfig { .. })
        ));
    }
}
