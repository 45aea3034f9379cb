//! Integration tests for Section 8 (dynamic detectors / continuous CCDS)
//! and Section 9 (asynchronous starts).

use radio_sim::topology::{random_geometric, RandomGeometricConfig};
use radio_sim::{
    CsrGraph, DualGraph, DynamicDetector, EngineBuilder, Graph, IdAssignment,
    LinkDetectorAssignment, NodeId, StopReason,
};
use radio_structures::checker::check_ccds;
use radio_structures::{AsyncFilter, AsyncMis, AsyncMisParams, CcdsConfig, ContinuousCcds};
use rand::SeedableRng;

fn valid_mis(g: &CsrGraph, out: &[Option<bool>]) -> bool {
    let member = |u: u32| out[u as usize] == Some(true);
    out.iter().all(Option::is_some)
        && g.edges()
            .all(|(u, v)| !(out[u] == Some(true) && out[v] == Some(true)))
        && (0..g.n()).all(|v| out[v] != Some(false) || g.neighbors(v).iter().any(|&u| member(u)))
}

#[test]
fn theorem_8_1_recovery_deadline() {
    // Dynamic detector stabilizing mid-cycle: by stabilization + 2δ the
    // published structure must pass the checker.
    let n = 8usize;
    let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
    let net = DualGraph::classic(g).unwrap();
    let ids = IdAssignment::identity(n);
    let good = LinkDetectorAssignment::zero_complete(&net, &ids);
    let sparse = {
        let mut sets: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|v| good.set(NodeId(v)).iter().copied().collect())
            .collect();
        for set in sets.iter_mut().skip(1) {
            if let Some(&first) = set.iter().next() {
                set.remove(&first);
            }
        }
        LinkDetectorAssignment::from_sets(sets)
    };
    let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
    let delta = ContinuousCcds::new(&cfg, radio_sim::ProcessId::new(1).unwrap())
        .unwrap()
        .cycle_len();
    for stabilize_at in [2u64, delta / 3, delta - 1] {
        let dyn_det = DynamicDetector::new(vec![
            (1, sparse.clone()),
            (stabilize_at.max(2), good.clone()),
        ])
        .unwrap();
        let h = good.h_graph(&ids);
        let mut engine = EngineBuilder::new(net.clone())
            .seed(31)
            .detector(dyn_det)
            .spawn(|info| ContinuousCcds::new(&cfg, info.id).unwrap())
            .unwrap();
        engine.run_rounds(stabilize_at.max(2) + 2 * delta + 1);
        let report = check_ccds(&net, &h, &engine.outputs());
        assert!(
            report.terminated && report.connected && report.dominating,
            "stabilize_at = {stabilize_at}: {report:?}"
        );
    }
}

#[test]
fn continuous_ccds_stable_across_many_cycles() {
    // With a static detector, every published cycle must be valid.
    let n = 8usize;
    let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
    let net = DualGraph::classic(g).unwrap();
    let ids = IdAssignment::identity(n);
    let det = LinkDetectorAssignment::zero_complete(&net, &ids);
    let h = det.h_graph(&ids);
    let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
    let mut engine = EngineBuilder::new(net.clone())
        .seed(33)
        .spawn(|info| ContinuousCcds::new(&cfg, info.id).unwrap())
        .unwrap();
    let delta = engine.procs()[0].cycle_len();
    for cycle in 1..=3u64 {
        engine.run_rounds(delta);
        // One extra round lets the publish-at-boundary happen.
        engine.run_rounds(1);
        let report = check_ccds(&net, &h, &engine.outputs());
        assert!(
            report.terminated && report.connected && report.dominating,
            "cycle {cycle}: {report:?}"
        );
        assert!(engine.procs().iter().all(|p| p.cycles_completed() >= cycle));
        // Re-sync to the cycle grid (we consumed one extra round).
        engine.run_rounds(delta - 1);
    }
}

#[test]
fn async_mis_with_adversarial_wakeups_classic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(900);
    let mut cfg = RandomGeometricConfig::dense(40);
    cfg.gray_prob = 0.0;
    let net = random_geometric(&cfg, &mut rng).unwrap();
    let g = net.g().clone();
    let params = AsyncMisParams::default();
    let epoch = params.epoch_len(40);
    // Bursty wakeups: three waves half an epoch apart, plus stragglers.
    let wakes: Vec<u64> = (0..40)
        .map(|i| match i % 4 {
            0 => 1,
            1 => 1 + epoch / 2,
            2 => 1 + epoch,
            _ => 1 + 3 * epoch,
        })
        .collect();
    let mut engine = EngineBuilder::new(net)
        .seed(41)
        .wake_rounds(wakes)
        .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::AcceptAll))
        .unwrap();
    let out = engine.run(400 * epoch);
    assert_eq!(out.stop, StopReason::AllDone);
    assert!(valid_mis(&g, &engine.outputs()));
}

#[test]
fn async_mis_dual_graph_with_detectors_and_adversary() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(901);
    let net = random_geometric(&RandomGeometricConfig::dense(32), &mut rng).unwrap();
    let g = net.g().clone();
    let params = AsyncMisParams::default();
    let epoch = params.epoch_len(32);
    let wakes: Vec<u64> = (0..32).map(|i| 1 + (i as u64 % 5) * (epoch / 3)).collect();
    let mut engine = EngineBuilder::new(net)
        .seed(43)
        .wake_rounds(wakes)
        .adversary(radio_sim::adversary::Collider)
        .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::Detector))
        .unwrap();
    let out = engine.run(400 * epoch);
    assert_eq!(out.stop, StopReason::AllDone);
    assert!(valid_mis(&g, &engine.outputs()));
}

#[test]
fn async_latency_measured_from_wake_not_round_one() {
    let g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1))).unwrap();
    let net = DualGraph::classic(g).unwrap();
    let params = AsyncMisParams::default();
    let late_wake = 5_000u64;
    let mut engine = EngineBuilder::new(net)
        .seed(45)
        .wake_rounds(vec![1, 1, 1, 1, 1, late_wake])
        .spawn(|info| AsyncMis::new(info.n, info.id, params, AsyncFilter::AcceptAll))
        .unwrap();
    engine.run(late_wake + 200 * params.epoch_len(6));
    let lat = engine.decided_latency(NodeId(5)).unwrap();
    let abs = engine.decided_round(NodeId(5)).unwrap();
    assert_eq!(lat, abs - late_wake + 1);
    // The straggler's latency is measured from its own wake-up and must be
    // modest even though it woke thousands of rounds in.
    assert!(lat < 100 * params.epoch_len(6));
}
