//! Network topology generators.
//!
//! All generators return validated [`DualGraph`]s. The geometric family
//! ([`random_geometric`], [`grid`], [`line()`], [`clustered`]) produces
//! embedded networks with a gray zone: `E = {dist ≤ 1}` and `E' ⊇ E` plus a
//! configurable subset of the pairs at distance in `(1, d]`. [`TwoClique`]
//! builds the adversarial reduction network of Lemma 7.2.
//!
//! # Building from a point set
//!
//! The geometric family builds through one function, which runs in time
//! near-linear in `n` plus the number of pairs within distance `d`:
//!
//! - The points are bucketed into square cells **at least `d` wide**
//!   (`d·(1 + 1e-6)`, or wider for sparse sets, so that there are about
//!   `n` cells). Every pair within distance `d` then lies in one cell or
//!   two adjacent ones, and for each `v` the candidates `w < v` are the
//!   members below `v` of the 3×3 block of cells around it.
//! - A stable counting sort by `w` puts the pairs within `d` in `(u, v)`
//!   order, and **coins are drawn in `(u, v)` order**: a pair at distance
//!   at most 1 is reliable, and each gray-zone pair draws one
//!   `gen_bool(gray_prob(dist))`. That is the coin stream of a scan over
//!   all `n(n−1)/2` pairs, so every net and the generator's next draw are
//!   those of the all-pairs build.
//! - The sorted edge list goes to the network in one piece, which writes
//!   its frozen layers in one counting pass and checks the model
//!   constraints (see [`DualGraph`]).

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

use crate::geometry::{CellGrid, Point};
use crate::network::{DualGraph, NetworkError};
use rand::Rng;

/// Builds the dual graph induced by a point set: reliable edges for pairs at
/// distance ≤ 1, unreliable candidates for pairs in the gray zone `(1, d]`,
/// each included independently with probability `gray_prob(dist)` — one
/// coin per gray-zone pair, in `(u, v)` order (see the module docs).
///
/// Returns `None` if the resulting reliable graph is disconnected (callers
/// typically resample).
pub(crate) fn dual_graph_from_points<R: Rng>(
    points: Vec<Point>,
    d: f64,
    gray_prob: impl Fn(f64) -> f64,
    rng: &mut R,
) -> Option<DualGraph> {
    let pairs = pairs_within(&points, d);
    let mut edges = Vec::with_capacity(pairs.len());
    for (u, v) in pairs {
        let dist = points[u as usize].dist(points[v as usize]);
        if dist <= 1.0 {
            edges.push((u, v, true));
        } else if rng.gen_bool(gray_prob(dist)) {
            edges.push((u, v, false));
        }
    }
    match DualGraph::from_sorted_edges(&edges, points, d) {
        Ok(net) => Some(net),
        Err(NetworkError::ReliableDisconnected) => None,
        Err(e) => panic!("construction satisfies the geometric constraints: {e}"),
    }
}

/// Every pair `u < v` at distance at most `d`, in `(u, v)` order: the
/// grid yields the pairs by ascending `v`, and a stable counting sort by
/// `u` keeps that order within each `u`. The distances are not kept: the
/// caller recomputes the same value, which costs less than storing it.
fn pairs_within(points: &[Point], d: f64) -> Vec<(u32, u32)> {
    let grid = CellGrid::new(points, d);
    let mut by_v: Vec<(u32, u32)> = Vec::new();
    for (v, &p) in points.iter().enumerate() {
        grid.for_each_block_cell(v, |list| {
            // Every candidate is written, and kept by advancing past it:
            // the keep test is a coin flip to the branch predictor.
            let mut len = by_v.len();
            by_v.resize(len + list.len(), (0, 0));
            for &w in list.iter().take_while(|&&w| (w as usize) < v) {
                by_v[len] = (w, v as u32);
                len += usize::from(points[w as usize].dist(p) <= d);
            }
            by_v.truncate(len);
        });
    }
    let mut start = vec![0usize; points.len() + 1];
    for &(u, _) in &by_v {
        start[u as usize + 1] += 1;
    }
    for u in 1..start.len() {
        start[u] += start[u - 1];
    }
    let mut sorted = vec![(0, 0); by_v.len()];
    for pair in by_v {
        let slot = &mut start[pair.0 as usize];
        sorted[*slot] = pair;
        *slot += 1;
    }
    sorted
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The all-pairs build the cell grid replaced, kept as the reference:
    /// every pair in `(u, v)` order, sorted inserts into two builders, and
    /// the public checks.
    fn all_pairs_reference<R: Rng>(
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

    /// Builds `points` both ways from one seed and asserts equal frozen
    /// forms and the same next draw; a connected net must also pass the
    /// public checks when rebuilt from its own edges.
    fn assert_same_build(
        points: Vec<Point>,
        d: f64,
        gray_prob: impl Fn(f64) -> f64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let got = dual_graph_from_points(points.clone(), d, &gray_prob, &mut rng);
        let want = all_pairs_reference(points, d, &gray_prob, &mut ref_rng);
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64(), "the next draw");
        let (got, want) = match (got, want) {
            (Some(got), Some(want)) => (got, want),
            (None, None) => return Ok(()),
            (got, _) => {
                return Err(TestCaseError(format!(
                    "connected: grid {}, all pairs {}",
                    got.is_some(),
                    got.is_none()
                )))
            }
        };
        prop_assert_eq!(got.g(), want.g());
        prop_assert_eq!(got.g_prime(), want.g_prime());
        prop_assert_eq!(got.unreliable_csr(), want.unreliable_csr());
        prop_assert_eq!(got.unreliable_edge_list(), want.unreliable_edge_list());
        for u in 0..got.n() {
            prop_assert_eq!(got.unreliable_edge_ids(u), want.unreliable_edge_ids(u));
        }
        prop_assert_eq!(got.positions(), want.positions());
        prop_assert_eq!(got.gray_zone(), want.gray_zone());
        prop_assert_eq!(got.is_classic(), want.is_classic());
        let n = got.n();
        let g = Graph::from_edges(n, got.g().edges()).expect("simple edges");
        let gp = Graph::from_edges(n, got.g_prime().edges()).expect("simple edges");
        let positions = got.positions().expect("embedded").to_vec();
        let rebuilt = DualGraph::with_embedding(g, gp, positions, d);
        prop_assert!(
            rebuilt.is_ok(),
            "rebuilt from its edges: {:?}",
            rebuilt.err()
        );
        Ok(())
    }

    /// A point set drawn the way one of the generators draws it: `shape`
    /// picks uniform square, clustered rings, a line or a lattice.
    fn draw_points(shape: usize, n: usize, rng: &mut StdRng) -> Vec<Point> {
        match shape {
            0 => {
                let side = (n as f64 / 4.0).sqrt().max(1.0) * rng.gen_range(0.5..1.5);
                (0..n)
                    .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                    .collect()
            }
            1 => {
                // Cluster disks on a ring around the origin, then the relay
                // chains between adjacent centers.
                let k = rng.gen_range(1..6usize);
                let ring = 2.5 / (2.0 * (std::f64::consts::PI / k as f64).sin()).max(1.0);
                let center = |i: usize| {
                    let theta = std::f64::consts::TAU * (i % k) as f64 / k as f64;
                    Point::new(ring * theta.cos(), ring * theta.sin())
                };
                let mut points: Vec<Point> = (0..n)
                    .map(|i| {
                        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                        let rad = 0.75 * rng.gen_range(0.0f64..1.0).sqrt();
                        let c = center(i);
                        Point::new(c.x + rad * theta.cos(), c.y + rad * theta.sin())
                    })
                    .collect();
                for i in 0..k.min(n) {
                    let (a, b) = (center(i), center(i + 1));
                    let hops = (a.dist(b) / 0.9).ceil() as usize;
                    points.extend((1..hops).map(|h| {
                        let t = h as f64 / hops as f64;
                        Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                    }));
                }
                points
            }
            2 => {
                let spacing = rng.gen_range(0.05..1.0);
                (0..n)
                    .map(|i| Point::new(i as f64 * spacing, 0.0))
                    .collect()
            }
            _ => {
                let (cols, spacing) = (rng.gen_range(1..12usize), rng.gen_range(0.1..1.0));
                (0..n)
                    .map(|i| Point::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
                    .collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn cell_grid_build_matches_the_all_pairs_reference(
            shape in 0usize..4,
            n in 1usize..180,
            d_tenths in 10u32..36,
            gray in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points = draw_points(shape, n, &mut rng);
            let d = f64::from(d_tenths) / 10.0;
            match gray {
                0 => assert_same_build(points, d, |_| 0.0, seed)?,
                1 => assert_same_build(points, d, |_| 1.0, seed)?,
                2 => assert_same_build(points, d, |_| 0.5, seed)?,
                _ => {
                    // The decay gray zone: the coin depends on the distance.
                    let decay = |dist: f64| (0.9 - 0.85 * (dist - 1.0) / (d - 1.0).max(1e-9)).clamp(0.0, 1.0);
                    assert_same_build(points, d, decay, seed)?
                }
            }
        }
    }

    #[test]
    fn adversarial_placements_match_the_all_pairs_reference() {
        let lattice = |cols: usize, rows: usize, step: f64| -> Vec<Point> {
            (0..cols * rows)
                .map(|i| Point::new((i % cols) as f64 * step, (i / cols) as f64 * step))
                .collect()
        };
        let d = 2.0;
        // Points exactly on the boundaries of the build's cells, and a hair
        // either side of them.
        let side = d * (1.0 + 1e-6);
        let mut boundary = lattice(6, 6, side / 2.0);
        boundary.extend(
            lattice(4, 4, side)
                .iter()
                .map(|p| Point::new(p.x + 1e-12, p.y - 1e-12)),
        );
        let placements: Vec<(&str, Vec<Point>, f64)> = vec![
            // Pairs exactly 1 and exactly d apart (and at √2, √5).
            ("unit lattice", lattice(7, 5, 1.0), d),
            ("unit line", lattice(12, 1, 1.0), d),
            ("half-d line", lattice(12, 1, 0.5), 1.0),
            ("cell boundaries", boundary, d),
            // Coincident points: distance 0 is reliable.
            ("coincident", vec![Point::new(3.0, 3.0); 9], d),
            (
                "coincident pairs",
                (0..20)
                    .map(|i| Point::new((i / 2) as f64 * 0.9, 0.0))
                    .collect(),
                d,
            ),
            ("one point", vec![Point::new(-5.0, 7.0)], d),
            // Negative coordinates and a wide gray zone.
            (
                "negative lattice",
                lattice(8, 8, 0.7)
                    .iter()
                    .map(|p| Point::new(p.x - 9.0, -p.y))
                    .collect(),
                3.5,
            ),
        ];
        for (name, points, d) in placements {
            for (gray, seed) in [(0.0, 1), (0.5, 2), (1.0, 3)] {
                if let Err(e) = assert_same_build(points.clone(), d, |_| gray, seed) {
                    panic!("{name} at gray {gray}: {e}");
                }
            }
        }
        // A sparse extent: ten points in a 1000-wide square never connect,
        // and both builds leave the generator at the same draw.
        let mut rng = StdRng::seed_from_u64(4);
        let sparse: Vec<Point> = (0..10)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        assert_same_build(sparse.clone(), 2.0, |_| 0.5, 5).unwrap();
        assert!(dual_graph_from_points(sparse, 2.0, |_| 0.5, &mut rng).is_none());
    }
}
