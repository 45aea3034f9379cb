//! Network topology generators.
//!
//! All generators return validated [`DualGraph`]s. The geometric family
//! ([`random_geometric`], [`grid`], [`line()`], [`clustered`]) produces
//! embedded networks with a gray zone: `E = {dist ≤ 1}` and `E' ⊇ E` plus a
//! configurable subset of the pairs at distance in `(1, d]`. [`TwoClique`]
//! builds the adversarial reduction network of Lemma 7.2.

mod clustered;
mod grid;
mod line;
mod random_geometric;
mod two_clique;

pub use clustered::{clustered, ClusteredConfig};
pub use grid::{grid, GridConfig};
pub use line::line;
pub use random_geometric::{
    random_geometric, random_geometric_decay, RandomGeometricConfig, TopologyError,
};
pub use two_clique::{TwoClique, TwoCliqueError};

use crate::geometry::Point;
use crate::graph::Graph;
use crate::network::{DualGraph, NetworkError};
use rand::Rng;

/// Builds the dual graph induced by a point set: reliable edges for pairs at
/// distance ≤ 1, unreliable candidates for pairs in the gray zone `(1, d]`,
/// each included independently with probability `gray_prob(dist)` — one
/// coin per gray-zone pair, in `(u, v)` order.
///
/// Returns `None` if the resulting reliable graph is disconnected (callers
/// typically resample).
pub(crate) fn dual_graph_from_points<R: Rng>(
    points: Vec<Point>,
    d: f64,
    gray_prob: impl Fn(f64) -> f64,
    rng: &mut R,
) -> Option<DualGraph> {
    let n = points.len();
    let mut g = Graph::new(n);
    let mut gp = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dist = points[u].dist(points[v]);
            if dist <= 1.0 {
                g.add_edge(u, v);
                gp.add_edge(u, v);
            } else if dist <= d && rng.gen_bool(gray_prob(dist)) {
                gp.add_edge(u, v);
            }
        }
    }
    match DualGraph::with_embedding(g, gp, points, d) {
        Ok(net) => Some(net),
        Err(NetworkError::ReliableDisconnected) => None,
        Err(e) => panic!("construction satisfies the geometric constraints: {e}"),
    }
}

/// The one attempt loop of the random point generators: draws a point set
/// with `draw` until [`dual_graph_from_points`] connects it, at most
/// `max_attempts` times (at least once).
pub(crate) fn first_connected<R: Rng>(
    max_attempts: u32,
    d: f64,
    gray_prob: impl Fn(f64) -> f64,
    rng: &mut R,
    mut draw: impl FnMut(&mut R) -> Vec<Point>,
) -> Result<DualGraph, TopologyError> {
    let attempts = max_attempts.max(1);
    for _ in 0..attempts {
        let points = draw(rng);
        if let Some(net) = dual_graph_from_points(points, d, &gray_prob, rng) {
            return Ok(net);
        }
    }
    Err(TopologyError::Disconnected { attempts })
}
