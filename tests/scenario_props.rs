//! Property-based tests of the declarative scenario subsystem: arbitrary
//! `ScenarioSpec`s round-trip losslessly through the vendored serde, the
//! sweep planner's expansion is exactly the grid product with
//! index-derived seeds, and the shared-context batched trial runner is
//! index-for-index identical to the unbatched one.

use proptest::prelude::*;
use radio_bench::aggregate::{
    AggregateSpec, GroupKey, MetricSource, MetricSpec, Normalizer, Reduction, SlopeAxis, SlopeSpec,
};
use radio_bench::scenario::{
    NestOrder, ScenarioSpec, SeedPolicy, StopCondition, TopologyEntry, Workload, WorkloadEntry,
};
use radio_sim::spec::{AdversaryKind, TopologyKind};
use radio_sim::SpuriousSource;
use radio_structures::runner::AlgoKind;

/// Builds a spec whose axis sizes and seeds are driven by the sampled
/// inputs, cycling through every workload/topology/adversary shape so the
/// serde derives are exercised across the whole enum surface.
#[allow(clippy::too_many_arguments)]
fn sample_spec(
    topos: usize,
    advs: usize,
    works: usize,
    trials: u64,
    net_base: u64,
    run_base: u64,
    workload_major: bool,
    p: f64,
) -> ScenarioSpec {
    let topology_pool = [
        TopologyKind::Clique { n: 4 },
        TopologyKind::Path { n: 5 },
        TopologyKind::PathChords { n: 6 },
        TopologyKind::Line {
            n: 6,
            spacing: 0.8,
            d: 2.0,
            gray_prob: p,
        },
        TopologyKind::Grid {
            cols: 3,
            rows: 2,
            spacing: 0.9,
        },
        TopologyKind::GeometricDense { n: 16 },
        TopologyKind::GeometricClassic { n: 16 },
        TopologyKind::GeometricDegree { n: 16, degree: 8.0 },
        TopologyKind::Geometric {
            n: 16,
            side: 2.0,
            d: 2.0,
            gray_prob: p,
            max_attempts: 16,
        },
        TopologyKind::Clustered {
            clusters: 2,
            nodes_per_cluster: 4,
        },
        TopologyKind::TwoCliqueBridge {
            beta: 4,
            bridge_a: 0,
            bridge_b: 1,
        },
    ];
    let adversary_pool = [
        AdversaryKind::ReliableOnly,
        AdversaryKind::AllUnreliable,
        AdversaryKind::Random { p },
        AdversaryKind::Collider,
        AdversaryKind::Bursty {
            p_gb: p,
            p_bg: 1.0 - p,
        },
        AdversaryKind::CliqueIsolator,
    ];
    let workload_pool = [
        Workload::Core {
            algo: AlgoKind::Mis,
        },
        Workload::Core {
            algo: AlgoKind::Ccds { b: 256 },
        },
        Workload::Core {
            algo: AlgoKind::TauCcds {
                tau: 1,
                spurious: SpuriousSource::UnreliableNeighbors,
            },
        },
        Workload::Core {
            algo: AlgoKind::AsyncMis,
        },
        Workload::Core {
            algo: AlgoKind::ContinuousDynamic { b: 256 },
        },
        Workload::Core {
            algo: AlgoKind::Backbone {
                b: 256,
                everyone: false,
                flood_seed: 11,
                flood_budget: 1000,
            },
        },
        Workload::Hitting {
            beta: 8,
            trials: 4,
            replacement: true,
        },
        Workload::TwoCliqueSweep {
            betas: vec![4, 6],
            trials: 1,
        },
        Workload::SchedulePair { beta: 4 },
        Workload::Broadcast {
            decay: true,
            collider: false,
        },
    ];
    ScenarioSpec {
        id: format!("P{topos}x{advs}x{works}"),
        caption: "sampled property-test spec".to_string(),
        render: radio_bench::scenario::RenderKind::Generic,
        topologies: (0..topos)
            .map(|i| {
                let kind = topology_pool[i % topology_pool.len()].clone();
                if i % 2 == 0 {
                    TopologyEntry::seeded(kind, net_base ^ i as u64)
                } else {
                    TopologyEntry::new(kind)
                }
            })
            .collect(),
        adversaries: (0..advs)
            .map(|i| adversary_pool[i % adversary_pool.len()])
            .collect(),
        workloads: (0..works)
            .map(|i| {
                let mut w = WorkloadEntry::new(workload_pool[i % workload_pool.len()].clone());
                if i % 3 == 1 {
                    w.run_seed = Some(run_base + 1000 + i as u64);
                }
                if i % 4 == 2 {
                    w.det_seed = Some(run_base + 2000 + i as u64);
                }
                w
            })
            .collect(),
        trials,
        nest: if workload_major {
            NestOrder::WorkloadMajor
        } else {
            NestOrder::TopologyMajor
        },
        seeds: SeedPolicy { net_base, run_base },
        stop: if trials.is_multiple_of(2) {
            StopCondition::Default
        } else {
            StopCondition::Rounds { max: 100 + trials }
        },
        // Cycle the aggregate block through absent / simple / full so the
        // new serde surface round-trips alongside the rest of the spec.
        aggregate: match works % 3 {
            0 => None,
            1 => Some(AggregateSpec::default()),
            _ => Some(AggregateSpec {
                group_by: vec![GroupKey::N, GroupKey::Adversary],
                metrics: vec![
                    MetricSpec::labeled(MetricSource::MaxDegree, vec![Reduction::Max], "Delta"),
                    MetricSpec {
                        source: MetricSource::Extra {
                            key: format!("k{net_base}"),
                        },
                        reductions: vec![Reduction::Mean, Reduction::P90, Reduction::Ci95],
                        per: Some(Normalizer::Log3N),
                        label: None,
                        include_invalid: Some(trials.is_multiple_of(2)),
                    },
                ],
                slope: Some(SlopeSpec {
                    x: SlopeAxis::Log2N,
                    metric: 1,
                    caption: " [p = {p}]".to_string(),
                }),
            }),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scenario_spec_roundtrips_serde(
        topos in 1usize..12,
        advs in 1usize..7,
        works in 1usize..11,
        trials in 1u64..6,
        net_base in 0u64..10_000,
        run_base in 0u64..10_000,
        workload_major in 0u8..2,
        p in 0.0f64..1.0,
    ) {
        let spec = sample_spec(
            topos, advs, works, trials, net_base, run_base, workload_major == 1, p,
        );
        let json = serde_json::to_string_pretty(&spec)
            .map_err(|e| TestCaseError(e.to_string()))?;
        let back: ScenarioSpec =
            serde_json::from_str(&json).map_err(|e| TestCaseError(e.to_string()))?;
        prop_assert_eq!(&back, &spec);
        // Compact form parses too.
        let compact = serde_json::to_string(&spec)
            .map_err(|e| TestCaseError(e.to_string()))?;
        let back2: ScenarioSpec =
            serde_json::from_str(&compact).map_err(|e| TestCaseError(e.to_string()))?;
        prop_assert_eq!(&back2, &spec);
    }

    #[test]
    fn planner_expansion_matches_grid_product(
        topos in 1usize..12,
        advs in 1usize..7,
        works in 1usize..11,
        trials in 1u64..6,
        net_base in 0u64..10_000,
        run_base in 0u64..10_000,
        workload_major in 0u8..2,
        p in 0.0f64..1.0,
    ) {
        let spec = sample_spec(
            topos, advs, works, trials, net_base, run_base, workload_major == 1, p,
        );
        let units = spec.plan();
        prop_assert_eq!(units.len(), topos * advs * works * trials as usize);
        prop_assert_eq!(units.len(), spec.grid_size());
        // Every grid cell appears exactly once per trial, and seeds are
        // derived from the declared bases plus the trial index.
        let mut seen = std::collections::BTreeSet::new();
        for u in &units {
            prop_assert!(u.topo < topos && u.adv < advs && u.work < works);
            prop_assert!(u.trial < trials);
            prop_assert!(seen.insert((u.topo, u.adv, u.work, u.trial)), "duplicate cell");
            let work = &spec.workloads[u.work];
            let net_expected = work
                .net_seed
                .or(spec.topologies[u.topo].seed)
                .unwrap_or(spec.seeds.net_base)
                + u.trial;
            prop_assert_eq!(u.net_seed, net_expected);
            let run_expected = work.run_seed.unwrap_or(spec.seeds.run_base) + u.trial;
            prop_assert_eq!(u.run_seed, run_expected);
            prop_assert_eq!(u.det_seed, work.det_seed);
        }
        // The nesting order's outermost axis is contiguous.
        let outer: Vec<usize> = units
            .iter()
            .map(|u| if workload_major == 1 { u.work } else { u.topo })
            .collect();
        let mut sorted = outer.clone();
        sorted.sort_unstable();
        prop_assert!(outer == sorted, "outermost axis not contiguous");
    }

    #[test]
    fn deterministic_topologies_draw_no_rng(
        n in 1usize..48,
        beta in 1usize..12,
        seed in 0u64..10_000,
        p in 0.0f64..1.0,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        // `is_deterministic()` is what lets the scenario layer share one
        // topology build, and the 0-complete detector cached on it, across
        // trials while reconstructing each trial's detector RNG from the
        // seed alone: a deterministic kind must
        // leave the topology RNG stream exactly where it found it — even
        // when the build fails validation.
        let pool = [
            TopologyKind::Clique { n },
            TopologyKind::Path { n },
            TopologyKind::PathChords { n },
            TopologyKind::TwoCliqueBridge {
                beta,
                bridge_a: 0,
                bridge_b: beta / 2,
            },
            TopologyKind::Line { n, spacing: 0.8, d: 2.0, gray_prob: p },
            TopologyKind::Grid { cols: 3, rows: 2, spacing: 0.9 },
            TopologyKind::GeometricDense { n },
            TopologyKind::GeometricClassic { n },
            TopologyKind::GeometricDegree { n, degree: 8.0 },
            TopologyKind::Geometric { n, side: 2.0, d: 2.0, gray_prob: p, max_attempts: 16 },
            TopologyKind::Clustered { clusters: 2, nodes_per_cluster: 4 },
        ];
        let mut deterministic = 0usize;
        for kind in pool {
            if !kind.is_deterministic() {
                continue;
            }
            deterministic += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut untouched = rng.clone();
            let _ = kind.build_with(&mut rng);
            for _ in 0..8 {
                prop_assert_eq!(
                    rng.next_u64(),
                    untouched.next_u64(),
                    "{:?} drew from the topology RNG",
                    kind
                );
            }
            // Zero draws also means the build cannot depend on the seed.
            let built = kind.build_with(&mut StdRng::seed_from_u64(seed));
            let rebuilt = kind.build_with(&mut StdRng::seed_from_u64(!seed));
            match (built, rebuilt) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.g().edge_count(), b.g().edge_count()),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{:?}: seed changed build outcome", kind),
            }
        }
        prop_assert_eq!(deterministic, 4, "pool must cover every deterministic kind");
    }

    #[test]
    fn batched_trials_match_unbatched_index_for_index(
        trials in 0u64..200,
        width in 1u64..9,
        chunk in 1u64..50,
        salt in 0u64..1000,
    ) {
        // Batches are runs of equal `i / width` keys, broken by periodic
        // keyless indices; the context depends only on the key, so the
        // shared build (from the batch's first index) must reproduce the
        // per-index derivation exactly.
        let gap = salt % 5 + 2;
        let key_of = move |i: u64| (!i.is_multiple_of(gap)).then_some(i / width);
        let ctx_of = move |i: u64| (i / width).wrapping_mul(salt | 1);
        let f = move |ctx: Option<&u64>, i: u64| ctx.copied().unwrap_or_else(|| ctx_of(i)) ^ i;
        let expect = radio_bench::run_trials(trials, move |i| ctx_of(i) ^ i);
        // One window is the plain shared-run sweep; the windowed form
        // concatenates to the same stream at any chunk size (runs never
        // span a window).
        for chunk in [trials.max(1), chunk] {
            let mut streamed = Vec::new();
            radio_bench::parallel::run_trials_windowed(
                0..trials, chunk, key_of, ctx_of, f,
                |start, results| {
                    prop_assert_eq!(start, streamed.len() as u64);
                    streamed.extend(results);
                    Ok(())
                },
            )?;
            prop_assert_eq!(&streamed, &expect, "chunk = {}", chunk);
        }
    }
}
