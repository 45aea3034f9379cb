//! Integration tests for the extension features: bursty links, the
//! distance-decay gray zone, backbone analysis, CSV export, and the
//! localized repair loop under detector churn.

use radio_sim::export::{metrics_to_csv, trace_to_csv};
use radio_sim::topology::{random_geometric, random_geometric_decay, RandomGeometricConfig};
use radio_sim::{
    DualGraph, DynamicDetector, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment, NodeId,
};
use radio_structures::analysis::backbone_quality;
use radio_structures::checker::check_ccds;
use radio_structures::params::MisParams;
use radio_structures::runner::{run_ccds, run_mis, AdversaryKind};
use radio_structures::{CcdsConfig, Mis, RepairingCcds};
use rand::SeedableRng;

#[test]
fn mis_valid_under_bursty_links() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(700);
    let net = random_geometric(&RandomGeometricConfig::dense(48), &mut rng).unwrap();
    for (p_gb, p_bg) in [(0.05, 0.05), (0.01, 0.2), (0.3, 0.02)] {
        let run = run_mis(
            &net,
            MisParams::default(),
            AdversaryKind::Bursty { p_gb, p_bg },
            13,
        );
        assert!(
            run.report.is_valid(),
            "bursty ({p_gb}, {p_bg}): {:?}",
            run.report
        );
    }
}

#[test]
fn ccds_valid_on_distance_decay_gray_zone() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(701);
    let net =
        random_geometric_decay(&RandomGeometricConfig::dense(48), 0.9, 0.05, &mut rng).unwrap();
    let cfg = CcdsConfig::new(net.n(), net.max_degree_g(), 512);
    let run = run_ccds(
        &net,
        &cfg,
        AdversaryKind::Bursty {
            p_gb: 0.05,
            p_bg: 0.05,
        },
        5,
    )
    .unwrap();
    assert!(
        run.report.terminated && run.report.connected && run.report.dominating,
        "{:?}",
        run.report
    );
}

#[test]
fn ccds_backbone_routes_with_constant_stretch() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(702);
    let net = random_geometric(&RandomGeometricConfig::dense(64), &mut rng).unwrap();
    let cfg = CcdsConfig::new(net.n(), net.max_degree_g(), 512);
    let run = run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 6).unwrap();
    let backbone: Vec<bool> = run.outputs.iter().map(|o| *o == Some(true)).collect();
    let q = backbone_quality(&net, &backbone).expect("a valid CCDS routes all pairs");
    assert!(q.max_stretch <= 4.0, "max stretch {}", q.max_stretch);
    assert!(q.mean_stretch <= 2.0, "mean stretch {}", q.mean_stretch);
}

#[test]
fn traces_export_to_csv() {
    let g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1))).unwrap();
    let net = DualGraph::classic(g).unwrap();
    let params = MisParams::default();
    let mut engine = EngineBuilder::new(net)
        .seed(1)
        .record_trace(true)
        .spawn(|info| Mis::new(info.n, info.id, params))
        .unwrap();
    engine.run(params.total_rounds(6));
    let csv = trace_to_csv(engine.trace().expect("recording enabled"));
    // One line per executed round plus the header.
    assert_eq!(csv.lines().count() as u64, engine.round() + 1);
    let mcsv = metrics_to_csv(engine.metrics());
    assert_eq!(mcsv.lines().count(), 2);
}

#[test]
fn repair_loop_recovers_from_detector_churn() {
    // Detector under-reports during the bootstrap, stabilizes during the
    // first repair cycle; subsequent repair cycles must publish a structure
    // valid against the *stable* H. (The MIS is built from the sparse view
    // but stays valid: fewer detector entries only make maximality checks
    // harder, and the checker runs against the final H ⊇ sparse H.)
    let n = 10usize;
    let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
    let net = DualGraph::classic(g).unwrap();
    let ids = IdAssignment::identity(n);
    let good = LinkDetectorAssignment::zero_complete(&net, &ids);
    let sparse = {
        let mut sets: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|v| good.set(NodeId(v)).iter().copied().collect())
            .collect();
        // Hide one entry at a few high-degree-side nodes.
        for set in sets.iter_mut().skip(4) {
            if set.len() > 1 {
                let first = *set.iter().next().unwrap();
                set.remove(&first);
            }
        }
        LinkDetectorAssignment::from_sets(sets)
    };
    let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
    let probe = RepairingCcds::new(&cfg, radio_sim::ProcessId::new(1).unwrap()).unwrap();
    let boot = probe.bootstrap_len();
    let repair = probe.repair_len();
    // Stabilize halfway through the first repair cycle.
    let stabilize_at = boot + repair / 2;
    let dyn_det = DynamicDetector::new(vec![(1, sparse), (stabilize_at, good.clone())]).unwrap();
    let h = good.h_graph(&ids);
    let mut engine = EngineBuilder::new(net.clone())
        .seed(19)
        .detector(dyn_det)
        .spawn(|info| RepairingCcds::new(&cfg, info.id).unwrap())
        .unwrap();
    // Run to the end of the second repair cycle after stabilization.
    engine.run_rounds(boot + 3 * repair + 1);
    let report = check_ccds(&net, &h, &engine.outputs());
    assert!(
        report.terminated && report.connected && report.dominating,
        "{report:?}"
    );
}

#[test]
fn decay_gray_zone_has_shorter_unreliable_links_on_average() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(703);
    let cfg = RandomGeometricConfig::dense(96);
    let uniform = random_geometric(&cfg, &mut rng).unwrap();
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(703);
    let decayed = random_geometric_decay(&cfg, 0.9, 0.05, &mut rng2).unwrap();
    let mean_len = |net: &DualGraph| {
        let pos = net.positions().unwrap();
        let (sum, count) = net
            .unreliable_edges()
            .fold((0.0f64, 0usize), |(s, c), (u, v)| {
                (s + pos[u].dist(pos[v]), c + 1)
            });
        sum / count.max(1) as f64
    };
    assert!(mean_len(&decayed) < mean_len(&uniform));
}
