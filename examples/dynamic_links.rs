//! Dynamic link detectors (Section 8): links degrade, the detector
//! re-stabilizes, and the continuous CCDS recovers within two cycles.
//!
//! ```text
//! cargo run -p radio-bench --example dynamic_links --release
//! ```

use radio_sim::{
    DualGraph, DynamicDetector, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment, NodeId,
};
use radio_structures::checker::check_ccds;
use radio_structures::{CcdsConfig, ContinuousCcds};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 10usize;
    let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))?;
    let net = DualGraph::classic(g)?;
    let ids = IdAssignment::identity(n);
    let good = LinkDetectorAssignment::zero_complete(&net, &ids);

    // Before stabilization the detector under-reports: half the nodes are
    // missing one reliable neighbor (think: a link whose quality estimate
    // has not converged yet).
    let sparse = {
        let mut sets: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|v| good.set(NodeId(v)).iter().copied().collect())
            .collect();
        for set in sets.iter_mut().skip(n / 2) {
            if let Some(&first) = set.iter().next() {
                set.remove(&first);
            }
        }
        LinkDetectorAssignment::from_sets(sets)
    };

    let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
    let probe = ContinuousCcds::new(&cfg, radio_sim::ProcessId::new(1).expect("nonzero"))?;
    let delta = probe.cycle_len();
    let stabilize_at = delta / 2;
    println!("cycle length δ_CDS = {delta} rounds; detector stabilizes at round {stabilize_at}");

    let dyn_det = DynamicDetector::new(vec![(1, sparse), (stabilize_at, good.clone())])?;
    let h = good.h_graph(&ids);
    let mut engine = EngineBuilder::new(net)
        .seed(5)
        .detector(dyn_det)
        .spawn(|info| ContinuousCcds::new(&cfg, info.id).expect("validated config"))?;

    // Theorem 8.1: solved by stabilization + 2δ.
    let deadline = stabilize_at + 2 * delta;
    engine.run_rounds(deadline + 1);
    let report = check_ccds(engine.net(), &h, &engine.outputs());
    println!(
        "at round {}: terminated = {}, connected = {}, dominating = {} (cycles completed: {})",
        engine.round(),
        report.terminated,
        report.connected,
        report.dominating,
        engine.procs()[0].cycles_completed(),
    );
    assert!(report.terminated && report.connected && report.dominating);
    println!("dynamic_links OK — recovered within 2 cycles of stabilization");
    Ok(())
}
