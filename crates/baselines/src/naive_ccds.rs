//! The "simple approach" CCDS: explore through **every** neighbor.
//!
//! Section 5 motivates the banned list by contrast with the obvious
//! algorithm: after the MIS, each MIS node gives each of its `Δ` neighbors
//! a chance to explore whether it leads to a nearby MIS node — `Θ(Δ)`
//! exploration turns, `O(Δ·polylog n)` rounds, *regardless of message
//! size*. That obvious algorithm is structurally the Section 6 algorithm
//! run at `τ = 0` (dedicated per-neighbor announcement slots), so this
//! module implements the baseline as exactly that, with the accounting made
//! explicit for the E8 ablation.

use radio_sim::ProcessId;
use radio_structures::{TauCcds, TauConfig, TauParams};
use serde::{Deserialize, Serialize};

/// Configuration of the naive (explore-everyone) CCDS baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NaiveCcdsConfig {
    /// The underlying per-neighbor-slot configuration (τ = 0).
    pub inner: TauConfig,
}

impl NaiveCcdsConfig {
    /// Builds the baseline configuration for network size `n` and degree
    /// bound `delta_bound`.
    pub fn new(n: usize, delta_bound: usize) -> Self {
        NaiveCcdsConfig {
            inner: TauConfig::new(n, delta_bound, 0),
        }
    }

    /// With explicit phase constants.
    pub fn with_params(n: usize, delta_bound: usize, params: TauParams) -> Self {
        NaiveCcdsConfig {
            inner: TauConfig {
                n,
                delta_bound,
                tau: 0,
                params,
            },
        }
    }

    /// Exploration turns each MIS node pays for: one per (potential)
    /// neighbor — the `Θ(Δ)` the banned list avoids.
    pub fn exploration_turns(&self) -> u64 {
        self.inner.schedule().slots
    }

    /// Total rounds of the baseline — linear in `Δ` by construction.
    pub fn total_rounds(&self) -> u64 {
        self.inner.schedule().total
    }

    /// Creates the process for one node.
    pub fn spawn(&self, id: ProcessId) -> TauCcds {
        TauCcds::new(&self.inner, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::{DualGraph, EngineBuilder, Graph};
    use radio_structures::checker::check_ccds;

    #[test]
    fn naive_turns_scale_with_delta() {
        let thin = NaiveCcdsConfig::new(64, 8);
        let thick = NaiveCcdsConfig::new(64, 32);
        assert_eq!(thin.exploration_turns(), 8);
        assert_eq!(thick.exploration_turns(), 32);
        assert!(thick.total_rounds() > thin.total_rounds());
    }

    #[test]
    fn naive_ccds_is_correct() {
        let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let cfg = NaiveCcdsConfig::new(10, net.max_degree_g());
        let mut engine = EngineBuilder::new(net.clone())
            .seed(3)
            .spawn(|info| cfg.spawn(info.id))
            .unwrap();
        engine.run(cfg.total_rounds() + 1);
        let report = check_ccds(&net, net.g(), &engine.outputs());
        assert!(report.terminated && report.connected && report.dominating);
    }
}
