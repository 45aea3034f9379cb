//! Property-based tests (proptest) on the substrate invariants: graphs,
//! dual graphs, overlays, detectors, id assignments, checkers, and
//! schedules. These are the structures every algorithm's correctness
//! quietly depends on.

use proptest::prelude::*;
use radio_sim::geometry::{DiskOverlay, Point};
use radio_sim::{DualGraph, Graph, IdAssignment, LinkDetectorAssignment, SpuriousSource};
use radio_structures::checker::{check_ccds, check_mis};
use radio_structures::params::{ceil_log2, id_bits, CcdsParams};
use radio_structures::Schedule;
use rand::SeedableRng;

/// A connected random graph on `n` vertices: a random spanning tree plus
/// random extra edges.
fn connected_graph(n: usize, seed: u64, extra: usize) -> Graph {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        g.add_edge(u, v);
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_edges_are_symmetric_and_counted(n in 2usize..40, seed in 0u64..500, extra in 0usize..30) {
        let g = connected_graph(n, seed, extra).to_csr();
        let mut count = 0usize;
        for u in 0..n {
            for &v in g.neighbors(u) {
                let v = v as usize;
                prop_assert!(g.has_edge(v, u), "symmetry broken");
                if u < v { count += 1; }
            }
        }
        prop_assert_eq!(count, g.edge_count());
        prop_assert!(g.is_connected());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_steps(n in 2usize..30, seed in 0u64..200) {
        let g = connected_graph(n, seed, n / 2).to_csr();
        let d = g.bfs_distances(0);
        for (u, v) in g.edges() {
            let du = d[u].unwrap();
            let dv = d[v].unwrap();
            prop_assert!(du.abs_diff(dv) <= 1, "adjacent distances differ by > 1");
        }
    }

    #[test]
    fn dual_graph_invariants(n in 2usize..30, seed in 0u64..200, extra in 0usize..20) {
        let g = connected_graph(n, seed, 2);
        let mut gp = g.clone();
        // Add unreliable links on top.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v { gp.add_edge(u, v); }
        }
        let net = DualGraph::new(g, gp).unwrap();
        prop_assert!(net.g().is_subgraph_of(net.g_prime()));
        prop_assert_eq!(
            net.unreliable_edge_count(),
            net.g_prime().edge_count() - net.g().edge_count()
        );
        for (u, v) in net.unreliable_edges() {
            prop_assert!(!net.g().has_edge(u, v));
            prop_assert!(net.g_prime().has_edge(u, v));
        }
    }

    #[test]
    fn overlay_always_covers(x in -50.0f64..50.0, y in -50.0f64..50.0) {
        let overlay = DiskOverlay::paper();
        let p = Point::new(x, y);
        let c = overlay.cell_of(p);
        prop_assert!(overlay.center(c).dist(p) <= overlay.radius() + 1e-9);
    }

    #[test]
    fn id_assignment_roundtrips(n in 1usize..64, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = IdAssignment::random(n, &mut rng);
        for v in 0..n {
            let node = radio_sim::NodeId(v);
            prop_assert_eq!(a.node_of(a.id_of(node)), node);
        }
    }

    #[test]
    fn tau_detectors_validate(n in 3usize..24, seed in 0u64..200, tau in 0usize..4) {
        let g = connected_graph(n, seed, 3);
        let mut gp = g.clone();
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x77);
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v { gp.add_edge(u, v); }
        }
        let net = DualGraph::new(g, gp).unwrap();
        let ids = IdAssignment::identity(n);
        let det = LinkDetectorAssignment::tau_complete(
            &net, &ids, tau, SpuriousSource::AnyNonNeighbor, &mut rng,
        );
        prop_assert!(det.is_tau_complete(&net, &ids, tau));
        // H always contains G.
        let h = det.h_graph(&ids);
        prop_assert!(net.g().is_subgraph_of(&h));
        // tau = 0 means H = G exactly.
        if tau == 0 {
            prop_assert_eq!(&h, net.g());
        }
    }

    #[test]
    fn checkers_accept_ground_truth_structures(n in 2usize..24, seed in 0u64..200) {
        // A greedily built MIS/CDS must satisfy the checkers — the checkers
        // and the constructions are implemented independently.
        let net = DualGraph::classic(connected_graph(n, seed, n / 3)).unwrap();
        let g = net.g();
        let mis = radio_baselines::centralized::greedy_mis(g);
        let mis_out: Vec<Option<bool>> = mis.iter().map(|&b| Some(b)).collect();
        prop_assert!(check_mis(&net, g, &mis_out).is_valid());
        let cds = radio_baselines::centralized::greedy_cds(g);
        let cds_out: Vec<Option<bool>> = cds.iter().map(|&b| Some(b)).collect();
        let report = check_ccds(&net, g, &cds_out);
        prop_assert!(report.terminated && report.connected && report.dominating);
    }

    #[test]
    fn schedule_partitions_time(n in 4usize..128, delta in 1usize..40, b in 60u64..2048) {
        let params = CcdsParams::default();
        if let Ok(s) = Schedule::compute(n, delta, b, &params) {
            prop_assert_eq!(s.epoch_len, s.p1_len + s.p2_len + s.p3_len);
            prop_assert_eq!(s.total, s.mis_total + s.search_epochs * s.epoch_len);
            // Slot mapping is total: every round index lands somewhere.
            for r0 in [0, s.mis_total, s.total - 1, s.total, s.total + 7] {
                let _ = s.slot(r0);
            }
            // Chunk capacity respects b.
            let idb = id_bits(n);
            prop_assert!(
                radio_structures::HEADER_BITS + 4 * idb + s.chunk_capacity as u64 * idb <= b + idb
            );
        }
    }

    #[test]
    fn log_helpers_are_monotone(a in 1usize..100_000, bump in 1usize..1000) {
        prop_assert!(ceil_log2(a + bump) >= ceil_log2(a));
        prop_assert!(id_bits(a + bump) >= id_bits(a));
        prop_assert!(1u64 << ceil_log2(a) >= a as u64 / 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end property: the MIS algorithm run on arbitrary connected
    /// dual graphs (not just geometric ones) always produces a valid MIS.
    /// (The paper's proofs assume geometric embeddings, but the algorithm
    /// itself only needs the detector; empirically it is robust on general
    /// sparse graphs too.)
    #[test]
    fn mis_valid_on_arbitrary_sparse_graphs(n in 4usize..24, seed in 0u64..50) {
        let g = connected_graph(n, seed, 2);
        let net = DualGraph::classic(g).unwrap();
        let run = radio_structures::runner::run_mis(
            &net,
            radio_structures::params::MisParams::default(),
            radio_structures::runner::AdversaryKind::ReliableOnly,
            seed,
        );
        prop_assert!(run.report.is_valid(), "{:?}", run.report);
    }
}
