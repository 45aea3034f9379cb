//! Sensor-network backbone: the paper's motivating use case.
//!
//! A clustered sensor deployment (rooms joined by corridors) builds a CCDS
//! backbone, then routes data over it: any node is at most one hop from the
//! backbone, so source → backbone → … → backbone → sink works with paths
//! only constant-factor longer than shortest, while only backbone nodes
//! stay awake to forward.
//!
//! ```text
//! cargo run -p radio-bench --example sensor_backbone --release
//! ```

use radio_sim::topology::{clustered, ClusteredConfig};
use radio_structures::analysis::backbone_distance;
use radio_structures::runner::{run_ccds, AdversaryKind};
use radio_structures::CcdsConfig;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let net = clustered(&ClusteredConfig::new(4, 14), &mut rng)?;
    println!(
        "deployment: n = {} in 4 clusters (+corridor relays), Δ = {}",
        net.n(),
        net.max_degree_g()
    );

    let cfg = CcdsConfig::new(net.n(), net.max_degree_g(), 1024);
    let run = run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 3)?;
    assert!(
        run.report.terminated && run.report.connected && run.report.dominating,
        "backbone construction failed verification"
    );
    let ccds: Vec<bool> = run.outputs.iter().map(|o| *o == Some(true)).collect();
    println!(
        "backbone: {} of {} nodes ({}%)",
        run.report.ccds_size,
        net.n(),
        100 * run.report.ccds_size / net.n()
    );

    // Route between the farthest pair of nodes, over the backbone.
    let g = net.g();
    let (mut src, mut dst, mut best) = (0, 0, 0);
    for v in 0..net.n() {
        let d = g.bfs_distances(v);
        for (u, du) in d.iter().enumerate() {
            if let Some(x) = *du {
                if x > best {
                    best = x;
                    src = v;
                    dst = u;
                }
            }
        }
    }
    let direct = best;
    let via = backbone_distance(g, &ccds, src, dst).expect("backbone routes everyone");
    println!("routing v{src} → v{dst}: shortest = {direct} hops, via backbone = {via} hops");
    assert!(via <= 4 * direct + 4, "backbone stretch should be constant");
    println!("sensor_backbone OK");
    Ok(())
}
