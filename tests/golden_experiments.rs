//! Golden-equivalence tests: the declarative `ScenarioSpec` registry must
//! reproduce the pre-refactor imperative experiment sweeps **byte for
//! byte** at quick scale.
//!
//! The functions below are the imperative E1-E11 bodies exactly as they
//! existed before the scenario subsystem replaced them (same grids, same
//! seed schedules, same formatting). Each test renders both sides and
//! compares the text; any drift in the planner's expansion order, seed
//! derivation, or a renderer's formatting fails here first.

#![allow(clippy::too_many_lines)]

use hitting_games::{
    expected_rounds_floor, mean_hitting_time, two_clique_sweep, UniformNoReplacement,
    UniformWithReplacement,
};
use radio_baselines::{DecayBroadcast, NaiveCcdsConfig, RoundRobinBroadcast};
use radio_bench::run_trials;
use radio_bench::stats::loglog_exponent;
use radio_bench::table::{f1, f3};
use radio_bench::Table;
use radio_sim::topology::{grid, random_geometric, GridConfig, RandomGeometricConfig};
use radio_sim::{
    DualGraph, DynamicDetector, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment, NodeId,
    SpuriousSource, StopReason,
};
use radio_structures::checker::{check_ccds, density_bound, mis_density_within};
use radio_structures::params::{ceil_log2, MisParams};
use radio_structures::runner::{run_ccds, run_mis, run_tau_ccds, AdversaryKind};
use radio_structures::{
    AsyncFilter, AsyncMis, AsyncMisParams, CcdsConfig, ContinuousCcds, TauConfig,
};
use rand::SeedableRng;

fn log3(n: usize) -> f64 {
    let l = f64::from(ceil_log2(n));
    l * l * l
}

fn geometric(n: usize, seed: u64) -> DualGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    random_geometric(&RandomGeometricConfig::dense(n), &mut rng)
        .expect("dense configuration connects")
}

/// E1 (Theorem 4.6): MIS solve rounds vs `n` — the `O(log³ n)` claim.
fn e1_mis_scaling(quick: bool) -> Table {
    let ns: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let trials: u64 = if quick { 2 } else { 5 };
    let mut t = Table::new(
        "E1",
        "MIS (Sec. 4) under a random unreliable adversary: rounds to solve vs n; \
         paper claims O(log^3 n) w.h.p. — the rounds/log^3(n) ratio should stay flat",
        &[
            "n",
            "Delta",
            "trials",
            "valid",
            "mean solve rounds",
            "budget",
            "rounds/log^3 n",
        ],
    );
    let mut fit_points = Vec::new();
    for &n in ns {
        let mut valid = 0u64;
        let mut solve_sum = 0u64;
        let mut delta = 0usize;
        let params = MisParams::default();
        // Trials are independent with per-trial derived seeds, so they fan
        // out in parallel with results identical to the serial loop.
        for (d, ok, solve) in run_trials(trials, |s| {
            let net = geometric(n, 1000 + s);
            let run = run_mis(&net, params, AdversaryKind::Random { p: 0.5 }, 7 + s);
            (
                net.max_degree_g(),
                run.report.is_valid(),
                run.solve_round.unwrap_or(run.rounds_executed),
            )
        }) {
            delta = delta.max(d);
            valid += u64::from(ok);
            solve_sum += solve;
        }
        let mean = solve_sum as f64 / trials as f64;
        fit_points.push((f64::from(ceil_log2(n)), mean));
        t.push(vec![
            n.to_string(),
            delta.to_string(),
            trials.to_string(),
            format!("{valid}/{trials}"),
            f1(mean),
            params.total_rounds(n).to_string(),
            f3(mean / log3(n)),
        ]);
    }
    // Footer: the measured exponent of solve rounds in log n (paper: ≤ 3).
    if let Some(p) = loglog_exponent(&fit_points) {
        t.caption.push_str(&format!(
            " [measured exponent of rounds in log n: {p:.2}; paper bound: 3]"
        ));
    }
    t
}

/// E2 (Corollary 4.7): MIS density — at most `I_r` MIS nodes within
/// distance `r` of any node.
fn e2_mis_density(quick: bool) -> Table {
    let ns: &[usize] = if quick { &[64] } else { &[64, 256] };
    let mut t = Table::new(
        "E2",
        "MIS density (Cor. 4.7): max MIS nodes within distance r of any node, \
         against the overlay constant I_r",
        &["n", "r", "max in ball", "I_r bound", "within bound"],
    );
    for &n in ns {
        let net = geometric(n, 2000);
        let run = run_mis(
            &net,
            MisParams::default(),
            AdversaryKind::Random { p: 0.5 },
            3,
        );
        for r in [1.0f64, 2.0, 3.0] {
            let got = mis_density_within(&net, &run.outputs, r).expect("embedded network");
            let bound = density_bound(r);
            t.push(vec![
                n.to_string(),
                f1(r),
                got.to_string(),
                bound.to_string(),
                (got <= bound).to_string(),
            ]);
        }
    }
    t
}

/// E3 (Theorem 5.3): CCDS rounds `O(Δ·log²n/b + log³n)` — sweep `Δ` at
/// small `b`, then sweep `b` at fixed density; the crossover is where the
/// dissemination term stops dominating.
fn e3_ccds_tradeoff(quick: bool) -> Vec<Table> {
    let n: usize = if quick { 48 } else { 96 };
    // (a) Δ sweep at small b.
    let degrees: &[f64] = if quick {
        &[8.0, 14.0]
    } else {
        &[8.0, 14.0, 20.0, 26.0]
    };
    let mut ta = Table::new(
        "E3a",
        "CCDS (Sec. 5) rounds vs Delta at small b = 64 bits: the Delta*log^2(n)/b \
         term dominates, so rounds grow ~linearly in Delta",
        &[
            "n",
            "Delta",
            "b",
            "chunk windows",
            "schedule rounds",
            "solved at",
            "valid",
        ],
    );
    for &deg in degrees {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let net = random_geometric(
            &RandomGeometricConfig::with_expected_degree(n, deg),
            &mut rng,
        )
        .expect("configuration connects");
        let cfg = CcdsConfig::new(n, net.max_degree_g(), 64);
        let run = run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 5).expect("b >= min");
        let sched = cfg.schedule().expect("valid schedule");
        ta.push(vec![
            n.to_string(),
            net.max_degree_g().to_string(),
            "64".to_string(),
            sched.chunk_windows.to_string(),
            run.schedule_total.to_string(),
            run.solve_round.map_or("—".to_string(), |r| r.to_string()),
            (run.report.terminated && run.report.connected && run.report.dominating).to_string(),
        ]);
    }
    // (b) b sweep at fixed topology.
    let bs: &[u64] = if quick {
        &[64, 512]
    } else {
        &[48, 64, 128, 256, 512, 1024, 2048]
    };
    let net = geometric(n, 3000);
    let mut tb = Table::new(
        "E3b",
        "CCDS rounds vs message bound b at fixed Delta: rounds fall as 1/b until \
         the MIS term log^3 n dominates (the paper's large-message regime b = Omega(Delta log n))",
        &[
            "n",
            "Delta",
            "b",
            "chunk windows",
            "schedule rounds",
            "solved at",
            "valid",
        ],
    );
    for &b in bs {
        let cfg = CcdsConfig::new(n, net.max_degree_g(), b);
        match run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 11) {
            Ok(run) => {
                let sched = cfg.schedule().expect("valid schedule");
                tb.push(vec![
                    n.to_string(),
                    net.max_degree_g().to_string(),
                    b.to_string(),
                    sched.chunk_windows.to_string(),
                    run.schedule_total.to_string(),
                    run.solve_round.map_or("—".to_string(), |r| r.to_string()),
                    (run.report.terminated && run.report.connected && run.report.dominating)
                        .to_string(),
                ]);
            }
            Err(_) => {
                tb.push(vec![
                    n.to_string(),
                    net.max_degree_g().to_string(),
                    b.to_string(),
                    "—".to_string(),
                    "—".to_string(),
                    "b below minimum".to_string(),
                    "—".to_string(),
                ]);
            }
        }
    }
    vec![ta, tb]
}

/// E4 (Theorem 6.2): τ-complete CCDS rounds `O(Δ·polylog n)` — linear in
/// `Δ` regardless of message size.
fn e4_tau_ccds(quick: bool) -> Table {
    let n: usize = if quick { 24 } else { 48 };
    let taus: &[usize] = if quick { &[1] } else { &[1, 2, 3] };
    let degrees: &[f64] = if quick { &[8.0] } else { &[6.0, 10.0, 14.0] };
    let mut t = Table::new(
        "E4",
        "tau-complete CCDS (Sec. 6): rounds vs Delta and tau; linear in Delta \
         (per-neighbor slots), tau+1 MIS iterations",
        &[
            "n",
            "tau",
            "Delta",
            "slots",
            "schedule rounds",
            "winners",
            "valid",
        ],
    );
    for &tau in taus {
        for &deg in degrees {
            let mut rng = rand::rngs::StdRng::seed_from_u64(41 + tau as u64);
            let net = random_geometric(
                &RandomGeometricConfig::with_expected_degree(n, deg),
                &mut rng,
            )
            .expect("configuration connects");
            let ids = IdAssignment::identity(n);
            let det = LinkDetectorAssignment::tau_complete(
                &net,
                &ids,
                tau,
                SpuriousSource::UnreliableNeighbors,
                &mut rng,
            );
            let cfg = TauConfig::new(n, net.max_degree_g() + tau, tau);
            let run = run_tau_ccds(&net, &det, &cfg, AdversaryKind::Random { p: 0.5 }, 13);
            t.push(vec![
                n.to_string(),
                tau.to_string(),
                net.max_degree_g().to_string(),
                cfg.schedule().slots.to_string(),
                run.schedule_total.to_string(),
                run.winners.to_string(),
                (run.report.terminated && run.report.connected && run.report.dominating)
                    .to_string(),
            ]);
        }
    }
    t
}

/// E5 (Theorem 7.1): the Ω(Δ) lower bound, three ways — the single hitting
/// game floor, the end-to-end two-clique run, and the separation against
/// the 0-complete algorithm.
fn e5_lower_bound(quick: bool) -> Vec<Table> {
    // (a) single hitting game.
    let betas: &[u32] = if quick {
        &[16, 64]
    } else {
        &[16, 32, 64, 128, 256]
    };
    let trials = if quick { 100 } else { 400 };
    let mut ta = Table::new(
        "E5a",
        "beta-single hitting game: mean rounds to hit vs beta; any strategy needs \
         >= (beta+1)/2 in expectation — the bottom of the Thm 7.1 reduction",
        &[
            "beta",
            "optimal (no replacement)",
            "with replacement",
            "floor (beta+1)/2",
        ],
    );
    for &beta in betas {
        let opt = mean_hitting_time(beta, trials, 1, |s| {
            Box::new(UniformNoReplacement::new(beta, s))
        });
        let with = mean_hitting_time(beta, trials, 2, |s| {
            Box::new(UniformWithReplacement::new(beta, s))
        });
        ta.push(vec![
            beta.to_string(),
            f1(opt),
            f1(with),
            f1(expected_rounds_floor(beta)),
        ]);
    }
    // (b) two-clique network, 1-complete detectors, isolating adversary.
    let betas_b: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8, 12, 16] };
    let sweep = two_clique_sweep(betas_b, if quick { 1 } else { 3 }, 99);
    let mut tb = Table::new(
        "E5b",
        "two-clique network (Lemma 7.2) with 1-complete detectors under the \
         clique-isolating adversary: rounds grow linearly in Delta = beta \
         (upper-bounded by the Sec. 6 schedule, lower-bounded by Thm 7.1)",
        &[
            "Delta=beta",
            "trials",
            "valid",
            "mean solve",
            "mean bridge join",
            "schedule",
        ],
    );
    for row in &sweep {
        tb.push(vec![
            row.beta.to_string(),
            row.trials.to_string(),
            format!("{}/{}", row.valid, row.trials),
            f1(row.mean_solve_round),
            f1(row.mean_bridge_round),
            row.schedule_total.to_string(),
        ]);
    }
    // (c) separation: 0-complete CCDS at large b is polylog (flat in Δ);
    // 1-complete is linear in Δ.
    let mut tc = Table::new(
        "E5c",
        "the separation: schedule rounds for 0-complete CCDS (large b) stay \
         ~flat in Delta while the 1-complete structure grows linearly",
        &["Delta", "0-complete rounds (b=4096)", "1-complete rounds"],
    );
    for &beta in betas_b {
        let n = 2 * beta;
        let zero = CcdsConfig::new(n, beta, 4096)
            .schedule()
            .expect("large b")
            .total;
        let one = TauConfig::new(n, beta, 1).schedule().total;
        tc.push(vec![beta.to_string(), zero.to_string(), one.to_string()]);
    }
    vec![ta, tb, tc]
}

/// E6 (Theorem 8.1): the continuous CCDS recovers within `2·δ_CDS` of
/// detector stabilization.
fn e6_dynamic(quick: bool) -> Table {
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
    let n = 8usize;
    let mut t = Table::new(
        "E6",
        "continuous CCDS (Sec. 8) with a dynamic detector stabilizing at round r: \
         the structure is a valid CCDS when checked at r + 2*delta_CDS (Thm 8.1)",
        &[
            "seed",
            "stabilize round",
            "delta_CDS",
            "checked at",
            "valid",
        ],
    );
    for &seed in seeds {
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).expect("path");
        let net = DualGraph::classic(g).expect("connected");
        let ids = IdAssignment::identity(n);
        let good = LinkDetectorAssignment::zero_complete(&net, &ids);
        let sparse = {
            let mut sets: Vec<std::collections::BTreeSet<u32>> = (0..n)
                .map(|v| good.set(NodeId(v)).iter().copied().collect())
                .collect();
            for set in sets.iter_mut().skip(2) {
                if let Some(&first) = set.iter().next() {
                    set.remove(&first);
                }
            }
            LinkDetectorAssignment::from_sets(sets)
        };
        let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
        let probe = ContinuousCcds::new(&cfg, radio_sim::ProcessId::new(1).expect("valid"))
            .expect("valid config");
        let delta = probe.cycle_len();
        let stabilize_at = (delta / 2).max(2);
        let dyn_det = DynamicDetector::new(vec![(1, sparse), (stabilize_at, good.clone())])
            .expect("valid schedule");
        let h = good.h_graph(&ids);
        let mut engine = EngineBuilder::new(net)
            .seed(seed)
            .detector(dyn_det)
            .spawn(|info| ContinuousCcds::new(&cfg, info.id).expect("valid config"))
            .expect("valid engine");
        let deadline = stabilize_at + 2 * delta;
        engine.run_rounds(deadline + 1);
        let report = check_ccds(engine.net(), &h, &engine.outputs());
        t.push(vec![
            seed.to_string(),
            stabilize_at.to_string(),
            delta.to_string(),
            (deadline + 1).to_string(),
            (report.terminated && report.connected && report.dominating).to_string(),
        ]);
    }
    t
}

/// E7 (Theorem 9.4): asynchronous-start MIS — max rounds-from-wake vs `n`,
/// in the classic model without topology knowledge and in the dual graph
/// with 0-complete detectors.
fn e7_async_mis(quick: bool) -> Table {
    let ns: &[usize] = if quick { &[16, 32] } else { &[32, 64, 128] };
    let mut t = Table::new(
        "E7",
        "async-start MIS (Sec. 9): max rounds from wake-up to output vs n; \
         paper claims O(log^3 n) per process — ratio should stay ~flat",
        &[
            "n",
            "model",
            "max latency",
            "log^3 n",
            "latency/log^3 n",
            "valid",
        ],
    );
    // Each (n, model) configuration is an independent run; fan them out in
    // parallel and push rows in the original sweep order.
    let configs: Vec<(usize, bool)> = ns.iter().flat_map(|&n| [(n, true), (n, false)]).collect();
    let rows = run_trials(configs.len() as u64, |i| {
        let (n, classic) = configs[i as usize];
        let (net, filter) = if classic {
            let mut rng = rand::rngs::StdRng::seed_from_u64(71);
            let mut cfg = RandomGeometricConfig::dense(n);
            cfg.gray_prob = 0.0;
            (
                random_geometric(&cfg, &mut rng).expect("connects"),
                AsyncFilter::AcceptAll,
            )
        } else {
            (geometric(n, 72), AsyncFilter::Detector)
        };
        let params = AsyncMisParams::default();
        let epoch = params.epoch_len(n);
        let wakes: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % 8) * (epoch / 2)).collect();
        let budget = 8 * epoch / 2 + 60 * epoch;
        let mut engine = EngineBuilder::new(net)
            .seed(73)
            .wake_rounds(wakes)
            .adversary(radio_sim::adversary::AllUnreliable)
            .spawn(|info| AsyncMis::new(info.n, info.id, params, filter))
            .expect("valid engine");
        let out = engine.run(budget);
        let outputs = engine.outputs();
        let max_latency = (0..n)
            .filter_map(|v| engine.decided_latency(NodeId(v)))
            .max()
            .unwrap_or(0);
        let g = engine.net().g();
        let mut valid = out.stop == StopReason::AllDone;
        for (u, v) in g.edges() {
            if outputs[u] == Some(true) && outputs[v] == Some(true) {
                valid = false;
            }
        }
        for v in 0..n {
            if outputs[v] == Some(false)
                && !g.neighbors(v).iter().any(|&u| outputs[u] == Some(true))
            {
                valid = false;
            }
        }
        vec![
            n.to_string(),
            if classic {
                "classic, no topology".to_string()
            } else {
                "dual graph, 0-complete".to_string()
            },
            max_latency.to_string(),
            f1(log3(n)),
            f3(max_latency as f64 / log3(n)),
            valid.to_string(),
        ]
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// E8 (ablation, Sec. 5 discussion): banned-list explorations per MIS node
/// stay `O(1)` while the naive approach pays `Θ(Δ)` turns.
fn e8_ablation(quick: bool) -> Table {
    let spacings: &[f64] = if quick {
        &[0.9, 0.45]
    } else {
        &[0.9, 0.6, 0.45, 0.32]
    };
    let side = if quick { 5 } else { 7 };
    let mut t = Table::new(
        "E8",
        "banned list ablation: explorations per MIS node (Sec. 5, measured max) vs \
         the naive explore-every-neighbor turns (Sec. 5's 'simple approach' = Sec. 6 at tau=0)",
        &[
            "Delta",
            "banned-list explorations (max)",
            "naive turns",
            "banned rounds",
            "naive rounds",
            "banned valid",
        ],
    );
    for &spacing in spacings {
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let net = grid(&GridConfig::new(side, side, spacing), &mut rng).expect("valid grid");
        let n = net.n();
        let delta = net.max_degree_g();
        let cfg = CcdsConfig::new(n, delta, 1024);
        let run = run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 7).expect("valid b");
        let naive = NaiveCcdsConfig::new(n, delta);
        t.push(vec![
            delta.to_string(),
            run.max_explorations.to_string(),
            naive.exploration_turns().to_string(),
            run.schedule_total.to_string(),
            naive.total_rounds().to_string(),
            (run.report.terminated && run.report.connected && run.report.dominating).to_string(),
        ]);
    }
    t
}

/// E9 (model, Sec. 2/4): adversary impact on the MIS, and the
/// detector-less broadcast trade-off (Decay vs round robin).
fn e9_adversaries(quick: bool) -> Vec<Table> {
    let n = if quick { 32 } else { 64 };
    let net = geometric(n, 91);
    let kinds = [
        AdversaryKind::ReliableOnly,
        AdversaryKind::Random { p: 0.5 },
        AdversaryKind::Bursty {
            p_gb: 0.05,
            p_bg: 0.05,
        },
        AdversaryKind::AllUnreliable,
        AdversaryKind::Collider,
    ];
    let mut ta = Table::new(
        "E9a",
        "MIS solve rounds under increasingly hostile reach-set adversaries: \
         correctness holds under all (the Sec. 4 design goal); cost degrades gracefully",
        &["adversary", "valid", "solve rounds", "collisions"],
    );
    for kind in kinds {
        let run = run_mis(&net, MisParams::default(), kind, 17);
        ta.push(vec![
            kind.name().to_string(),
            run.report.is_valid().to_string(),
            run.solve_round.map_or("—".to_string(), |r| r.to_string()),
            run.metrics.collisions.to_string(),
        ]);
    }
    // Broadcast: Decay (fast, fragile) vs round robin (slow, immune) on a
    // line with unreliable chords.
    let len = if quick { 12 } else { 20 };
    let g = Graph::from_edges(len, (0..len - 1).map(|i| (i, i + 1))).expect("path");
    let mut gp = g.clone();
    for i in 0..len - 2 {
        gp.add_edge(i, i + 2);
    }
    let bnet = DualGraph::new(g, gp).expect("valid dual graph");
    let mut tbl = Table::new(
        "E9b",
        "detector-less broadcast on a line with unreliable chords: Decay is fast \
         when links behave but degrades under the collider; round robin is \
         adversary-immune at Theta(n)-per-hop cost (why [5] calls it optimal)",
        &[
            "protocol",
            "adversary",
            "rounds to full coverage",
            "covered",
        ],
    );
    let ids = IdAssignment::from_ids((1..=len as u32).rev().collect()).expect("permutation");
    for (proto, collider) in [("decay", false), ("decay", true), ("round-robin", true)] {
        let budget = 40_000u64;
        let (rounds, covered) = if proto == "decay" {
            let mut b = EngineBuilder::new(bnet.clone()).seed(19).ids(ids.clone());
            if collider {
                b = b.adversary(radio_sim::adversary::Collider);
            }
            let mut e = b
                .spawn(|info| DecayBroadcast::new(info.n, info.node.index() == 0))
                .expect("valid engine");
            let out = e.run(budget);
            (out.rounds, matches!(out.stop, StopReason::AllDone))
        } else {
            let mut e = EngineBuilder::new(bnet.clone())
                .seed(19)
                .ids(ids.clone())
                .adversary(radio_sim::adversary::Collider)
                .spawn(|info| RoundRobinBroadcast::new(info.node.index() == 0))
                .expect("valid engine");
            let out = e.run(budget);
            (out.rounds, matches!(out.stop, StopReason::AllDone))
        };
        tbl.push(vec![
            proto.to_string(),
            if collider {
                "collider"
            } else {
                "reliable-only"
            }
            .to_string(),
            rounds.to_string(),
            covered.to_string(),
        ]);
    }
    vec![ta, tbl]
}

/// E10 (application, paper §1 motivation): the CCDS as a routing backbone —
/// flood coverage with backbone-only forwarding vs whole-network flooding.
fn e10_backbone(quick: bool) -> Table {
    let ns: &[usize] = if quick { &[48] } else { &[48, 96] };
    let mut t = Table::new(
        "E10",
        "CCDS as routing backbone (the paper's motivating application): flood a \
         message with only backbone nodes forwarding vs everyone flooding; the \
         backbone trades constant-factor latency for a transmission rate \
         proportional to backbone size instead of n",
        &[
            "n",
            "backbone size",
            "mode",
            "coverage rounds",
            "broadcasts",
            "tx rate/round",
            "transmitters",
        ],
    );
    for &n in ns {
        let net = geometric(n, 4000);
        let cfg = CcdsConfig::new(n, net.max_degree_g(), 512);
        let run = run_ccds(&net, &cfg, AdversaryKind::Random { p: 0.5 }, 5).expect("valid b");
        let ccds: Vec<bool> = run.outputs.iter().map(|o| *o == Some(true)).collect();
        let size = ccds.iter().filter(|&&c| c).count();
        for (mode, flags) in [("backbone", ccds.clone()), ("flood-all", vec![true; n])] {
            let stats = radio_structures::backbone::run_backbone_flood(
                &net,
                &flags,
                0,
                AdversaryKind::Random { p: 0.5 },
                11,
                200_000,
            );
            let rounds = stats.coverage_round;
            t.push(vec![
                n.to_string(),
                size.to_string(),
                mode.to_string(),
                rounds.map_or("—".to_string(), |r| r.to_string()),
                stats.broadcasts.to_string(),
                rounds.map_or("—".to_string(), |r| f3(stats.broadcasts as f64 / r as f64)),
                stats.transmitters.to_string(),
            ]);
        }
    }
    t
}

/// E11 (future work, §10): probing non-constant τ — the paper leaves CCDS
/// for larger τ open and conjectures impossibility once τ exceeds the
/// constant-bounded degree. The §6 algorithm's cost grows linearly in τ
/// (one MIS iteration each); we sweep τ well past O(1) and watch cost and
/// structure quality.
fn e11_large_tau(quick: bool) -> Table {
    let n: usize = if quick { 24 } else { 40 };
    let taus: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 6, 8] };
    let mut t = Table::new(
        "E11",
        "beyond the paper (Sec. 10 future work): tau-CCDS at non-constant tau; \
         cost grows linearly in tau and the winner set densifies (tau+1 per \
         disk) — the quantity the paper's impossibility conjecture is about",
        &[
            "n",
            "tau",
            "schedule rounds",
            "winners",
            "max CCDS G'-neighbors",
            "valid",
        ],
    );
    for &tau in taus {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1100 + tau as u64);
        let net = geometric(n, 5000);
        let ids = IdAssignment::identity(n);
        let det = LinkDetectorAssignment::tau_complete(
            &net,
            &ids,
            tau,
            SpuriousSource::AnyNonNeighbor,
            &mut rng,
        );
        let cfg = TauConfig::new(n, net.max_degree_g() + tau, tau);
        let run = run_tau_ccds(&net, &det, &cfg, AdversaryKind::Random { p: 0.5 }, 17);
        t.push(vec![
            n.to_string(),
            tau.to_string(),
            run.schedule_total.to_string(),
            run.winners.to_string(),
            run.report.max_gprime_neighbors_in_set.to_string(),
            (run.report.terminated && run.report.connected && run.report.dominating).to_string(),
        ]);
    }
    t
}

fn assert_tables_match(id: &str, reference: Vec<Table>) {
    let refactored = radio_bench::run_experiment(id, true);
    assert_eq!(
        refactored.len(),
        reference.len(),
        "{id}: table count changed"
    );
    for (new, old) in refactored.iter().zip(&reference) {
        assert_eq!(
            new.render(),
            old.render(),
            "{id}/{}: spec-driven table differs from the pre-refactor output",
            old.id
        );
    }
}

#[test]
fn e1_matches_pre_refactor() {
    assert_tables_match("e1", vec![e1_mis_scaling(true)]);
}

#[test]
fn e2_matches_pre_refactor() {
    assert_tables_match("e2", vec![e2_mis_density(true)]);
}

#[test]
fn e3_matches_pre_refactor() {
    assert_tables_match("e3", e3_ccds_tradeoff(true));
}

#[test]
fn e4_matches_pre_refactor() {
    assert_tables_match("e4", vec![e4_tau_ccds(true)]);
}

#[test]
fn e5_matches_pre_refactor() {
    assert_tables_match("e5", e5_lower_bound(true));
}

#[test]
fn e6_matches_pre_refactor() {
    assert_tables_match("e6", vec![e6_dynamic(true)]);
}

#[test]
fn e7_matches_pre_refactor() {
    assert_tables_match("e7", vec![e7_async_mis(true)]);
}

#[test]
fn e8_matches_pre_refactor() {
    assert_tables_match("e8", vec![e8_ablation(true)]);
}

#[test]
fn e9_matches_pre_refactor() {
    assert_tables_match("e9", e9_adversaries(true));
}

#[test]
fn e10_matches_pre_refactor() {
    assert_tables_match("e10", vec![e10_backbone(true)]);
}

#[test]
fn e11_matches_pre_refactor() {
    assert_tables_match("e11", vec![e11_large_tau(true)]);
}

/// The generic aggregation engine must be able to express E1's bespoke
/// summary table **byte for byte**: take the registry E1 spec, swap its
/// renderer for a declarative [`AggregateSpec`], and compare against the
/// pre-refactor imperative output. Any drift in the group-by fold, the
/// reduction formatting, the normalizer, or the slope caption fails here —
/// the same tripwire the planner already has.
#[test]
fn aggregate_spec_reproduces_e1_byte_for_byte() {
    use radio_bench::aggregate::{
        AggregateSpec, GroupKey, MetricSource, MetricSpec, Normalizer, Reduction, SlopeAxis,
        SlopeSpec,
    };
    use radio_bench::scenario::{registry, render, run_spec, RenderKind};

    let mut spec = registry::specs("e1", true)
        .expect("e1 registered")
        .remove(0);
    spec.render = RenderKind::Aggregate;
    spec.aggregate = Some(AggregateSpec {
        group_by: vec![GroupKey::N],
        // The imperative E1 table substitutes the round budget for
        // unsolved runs (`solve_round.unwrap_or(rounds_executed)`), so its
        // declarative mirror opts into that historical convention
        // explicitly — the PR 4 default excludes unsolved records.
        metrics: vec![
            MetricSpec::labeled(MetricSource::MaxDegree, vec![Reduction::Max], "Delta"),
            MetricSpec {
                source: MetricSource::SolveRound,
                reductions: vec![Reduction::Count],
                per: None,
                label: None,
                include_invalid: Some(true),
            },
            MetricSpec::new(MetricSource::Valid, vec![Reduction::Frac]),
            MetricSpec {
                source: MetricSource::SolveRound,
                reductions: vec![Reduction::Mean],
                per: None,
                label: Some("mean solve rounds".to_string()),
                include_invalid: Some(true),
            },
            MetricSpec::labeled(
                MetricSource::Extra {
                    key: "budget".to_string(),
                },
                vec![Reduction::Max],
                "budget",
            ),
            MetricSpec {
                source: MetricSource::SolveRound,
                reductions: vec![Reduction::Mean],
                per: Some(Normalizer::Log3N),
                label: Some("rounds/log^3 n".to_string()),
                include_invalid: Some(true),
            },
        ],
        slope: Some(SlopeSpec {
            x: SlopeAxis::Log2N,
            metric: 3,
            caption: " [measured exponent of rounds in log n: {p}; paper bound: 3]".to_string(),
        }),
    });
    let run = run_spec(&spec);
    let aggregated = render(&spec, &run);
    assert_eq!(
        aggregated.render(),
        e1_mis_scaling(true).render(),
        "declarative aggregation drifted from the imperative E1 table"
    );
}
