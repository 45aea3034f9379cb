//! Random geometric dual graphs: the paper's implicit workload.
//!
//! Nodes are placed uniformly at random in a square; reliable links connect
//! pairs within distance 1, and each gray-zone pair (distance in `(1, d]`)
//! becomes an unreliable link independently with probability `gray_prob`.
//! This realizes the paper's generalized unit disk model with its
//! "potentially large gray zone of unpredictable connectivity".

use super::first_connected;
use crate::geometry::Point;
use crate::network::DualGraph;
use rand::Rng;

/// Failure to generate a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No connected placement found within the attempt budget; densify (more
    /// nodes or smaller area) or raise `max_attempts`.
    Disconnected {
        /// Number of placements tried.
        attempts: u32,
    },
    /// A configuration field was out of range.
    BadConfig {
        /// Human-readable description of the offending field.
        what: &'static str,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Disconnected { attempts } => {
                write!(f, "no connected placement in {attempts} attempts")
            }
            TopologyError::BadConfig { what } => write!(f, "bad topology config: {what}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Configuration for [`random_geometric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomGeometricConfig {
    /// Number of nodes.
    pub n: usize,
    /// Side length of the deployment square. Density (and hence `Δ`) scales
    /// as `n / side²`; keep `side` proportional to `√n` for constant
    /// density, or shrink it to raise `Δ`.
    pub side: f64,
    /// Gray-zone constant `d ≥ 1`: unreliable links may span up to this
    /// distance.
    pub d: f64,
    /// Probability that each gray-zone pair becomes an unreliable link.
    pub gray_prob: f64,
    /// Placements to try before giving up on connectivity.
    pub max_attempts: u32,
}

impl RandomGeometricConfig {
    /// A dense-enough default for `n` nodes: side `√(n / 4)` (expected
    /// reliable degree ≈ π·4 ≈ 12), `d = 2`, half the gray-zone pairs
    /// unreliable.
    pub fn dense(n: usize) -> Self {
        RandomGeometricConfig {
            n,
            side: ((n as f64) / 4.0).sqrt().max(1.0),
            d: 2.0,
            gray_prob: 0.5,
            max_attempts: 64,
        }
    }

    /// Like [`RandomGeometricConfig::dense`] but with a target expected
    /// reliable degree: side is chosen so `n·π/side² ≈ degree`.
    pub fn with_expected_degree(n: usize, degree: f64) -> Self {
        let side = ((n as f64) * std::f64::consts::PI / degree).sqrt().max(1.0);
        RandomGeometricConfig {
            n,
            side,
            d: 2.0,
            gray_prob: 0.5,
            max_attempts: 64,
        }
    }
}

/// Generates a connected random geometric dual graph.
///
/// # Errors
///
/// Returns [`TopologyError::BadConfig`] for invalid parameters and
/// [`TopologyError::Disconnected`] when no connected placement is found
/// within `max_attempts` (the configuration is too sparse).
pub fn random_geometric<R: Rng>(
    config: &RandomGeometricConfig,
    rng: &mut R,
) -> Result<DualGraph, TopologyError> {
    check_square(config)?;
    if !(0.0..=1.0).contains(&config.gray_prob) {
        return Err(TopologyError::BadConfig {
            what: "gray_prob must be in [0, 1]",
        });
    }
    place_in_square(config, |_| config.gray_prob, rng)
}

/// Like [`random_geometric`], but with a **distance-decaying** gray zone:
/// a pair at distance `x ∈ (1, d]` becomes an unreliable link with
/// probability interpolated linearly from `p_near` (just past the reliable
/// radius) down to `p_far` (at distance `d`). This matches the measured
/// shape of real gray zones, where link quality falls off with distance
/// rather than being uniform.
///
/// # Errors
///
/// Same conditions as [`random_geometric`], plus both probabilities must be
/// in `[0, 1]`.
pub fn random_geometric_decay<R: Rng>(
    config: &RandomGeometricConfig,
    p_near: f64,
    p_far: f64,
    rng: &mut R,
) -> Result<DualGraph, TopologyError> {
    check_square(config)?;
    if !(0.0..=1.0).contains(&p_near) || !(0.0..=1.0).contains(&p_far) {
        return Err(TopologyError::BadConfig {
            what: "probabilities must be in [0, 1]",
        });
    }
    let d = config.d;
    let decay = |dist: f64| {
        let t = if d > 1.0 {
            (dist - 1.0) / (d - 1.0)
        } else {
            0.0
        };
        (p_near + t * (p_far - p_near)).clamp(0.0, 1.0)
    };
    place_in_square(config, decay, rng)
}

/// The placement checks both generators make before their own
/// probability checks.
fn check_square(config: &RandomGeometricConfig) -> Result<(), TopologyError> {
    if config.n == 0 {
        return Err(TopologyError::BadConfig {
            what: "n must be positive",
        });
    }
    if !(config.side.is_finite() && config.side > 0.0) {
        return Err(TopologyError::BadConfig {
            what: "side must be positive",
        });
    }
    if !(config.d.is_finite() && config.d >= 1.0) {
        return Err(TopologyError::BadConfig {
            what: "d must be >= 1",
        });
    }
    Ok(())
}

/// Places `config.n` points uniformly in the square until the reliable
/// graph connects, with gray-zone pairs linked per `gray_prob(dist)`.
fn place_in_square<R: Rng>(
    config: &RandomGeometricConfig,
    gray_prob: impl Fn(f64) -> f64,
    rng: &mut R,
) -> Result<DualGraph, TopologyError> {
    let (n, side) = (config.n, config.side);
    first_connected(config.max_attempts, config.d, gray_prob, rng, |rng| {
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_config_connects() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let net = random_geometric(&RandomGeometricConfig::dense(64), &mut rng).unwrap();
        assert_eq!(net.n(), 64);
        assert!(net.g().is_connected());
        assert!(net.g().is_subgraph_of(net.g_prime()));
    }

    #[test]
    fn gray_zone_produces_unreliable_links() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut cfg = RandomGeometricConfig::dense(96);
        cfg.gray_prob = 1.0;
        let net = random_geometric(&cfg, &mut rng).unwrap();
        assert!(net.unreliable_edge_count() > 0);
        // All unreliable edges span (1, d].
        let pos = net.positions().unwrap();
        for (u, v) in net.unreliable_edges() {
            let dist = pos[u].dist(pos[v]);
            assert!(dist > 1.0 && dist <= cfg.d + 1e-9);
        }
    }

    #[test]
    fn zero_gray_prob_is_classic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut cfg = RandomGeometricConfig::dense(48);
        cfg.gray_prob = 0.0;
        let net = random_geometric(&cfg, &mut rng).unwrap();
        assert!(net.is_classic());
    }

    #[test]
    fn expected_degree_scales_density() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sparse = random_geometric(
            &RandomGeometricConfig::with_expected_degree(128, 8.0),
            &mut rng,
        );
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(9);
        let dense = random_geometric(
            &RandomGeometricConfig::with_expected_degree(128, 24.0),
            &mut rng2,
        )
        .unwrap();
        if let Ok(sparse) = sparse {
            assert!(dense.max_degree_g() > sparse.max_degree_g());
        }
    }

    #[test]
    fn decay_gray_zone_prefers_short_links() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let cfg = RandomGeometricConfig::dense(128);
        let net = random_geometric_decay(&cfg, 0.9, 0.05, &mut rng).unwrap();
        let pos = net.positions().unwrap();
        // Split unreliable links at the gray-zone midpoint: the near half
        // should dominate.
        let mid = (1.0 + cfg.d) / 2.0;
        let (mut near, mut far) = (0usize, 0usize);
        for (u, v) in net.unreliable_edges() {
            if pos[u].dist(pos[v]) <= mid {
                near += 1;
            } else {
                far += 1;
            }
        }
        assert!(near > 2 * far, "near = {near}, far = {far}");
    }

    #[test]
    fn decay_rejects_bad_probabilities() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let cfg = RandomGeometricConfig::dense(8);
        assert!(matches!(
            random_geometric_decay(&cfg, 1.5, 0.0, &mut rng),
            Err(TopologyError::BadConfig { .. })
        ));
    }

    #[test]
    fn rejects_bad_configs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut cfg = RandomGeometricConfig::dense(8);
        cfg.d = 0.5;
        assert!(matches!(
            random_geometric(&cfg, &mut rng),
            Err(TopologyError::BadConfig { .. })
        ));
        let mut cfg = RandomGeometricConfig::dense(8);
        cfg.gray_prob = 1.5;
        assert!(matches!(
            random_geometric(&cfg, &mut rng),
            Err(TopologyError::BadConfig { .. })
        ));
    }

    #[test]
    fn impossible_configs_report_disconnected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let cfg = RandomGeometricConfig {
            n: 10,
            side: 1000.0,
            d: 2.0,
            gray_prob: 0.0,
            max_attempts: 3,
        };
        assert_eq!(
            random_geometric(&cfg, &mut rng).unwrap_err(),
            TopologyError::Disconnected { attempts: 3 }
        );
    }
}
