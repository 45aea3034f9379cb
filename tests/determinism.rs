//! Determinism regression tests for the engine rewrites.
//!
//! The production step (`Engine::step`) must produce executions
//! *identical* to the seed implementation (`Engine::step_legacy`) — same
//! per-round trace (broadcasters, deliveries, collisions, activated
//! edges), same metrics, same outputs — for every adversary, because both
//! drive the same process RNG streams. Each of its two reach kernels, the
//! CSR scatter and the bitmask rows, is pinned at spawn and held to the
//! oracle on its own. The Section 4 MIS, whose knocked-out and covered
//! processes promise to idle and ignore the messages that change nothing,
//! must match the oracle on every kernel too, down to each process's
//! protocol state, and so must a test process whose naps run long or
//! forever across bit-word boundaries. And the parallel trial runner must be
//! bit-identical to the serial loop it replaced.

use radio_sim::adversary::{
    AllUnreliable, BurstyUnreliable, CliqueIsolator, Collider, RandomUnreliable, ReliableOnly,
};
use radio_sim::topology::{random_geometric, RandomGeometricConfig};
use radio_sim::{
    Action, Adversary, Context, DualGraph, Engine, EngineBuilder, Graph, NodeId, Process, StepMode,
    Trace,
};
use radio_structures::params::MisParams;
use radio_structures::Mis;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// A randomized chatterer with a per-node output round, exercising decide,
/// receive, outputs, and the RNG streams.
struct Talker {
    heard: Vec<Option<u32>>,
    done_after: u64,
    rounds: u64,
}

impl Process for Talker {
    type Msg = u32;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        use rand::Rng;
        self.rounds += 1;
        if ctx.rng.gen_bool(0.2) {
            Action::Broadcast(ctx.my_id.get() * 1000 + (self.rounds % 997) as u32)
        } else {
            Action::Idle
        }
    }

    fn receive(&mut self, _: &mut Context<'_>, msg: Option<&u32>) {
        self.heard.push(msg.copied());
    }

    fn output(&self) -> Option<bool> {
        (self.rounds >= self.done_after).then_some(true)
    }

    fn is_done(&self) -> bool {
        false
    }
}

fn nets() -> Vec<(&'static str, DualGraph)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let rgg = random_geometric(&RandomGeometricConfig::dense(48), &mut rng)
        .expect("dense configuration connects");
    let path_with_chords = {
        let g = Graph::from_edges(16, (0..15).map(|i| (i, i + 1))).expect("path");
        let mut gp = g.clone();
        for i in 0..14 {
            gp.add_edge(i, i + 2);
        }
        DualGraph::new(g, gp).expect("valid dual graph")
    };
    let classic = DualGraph::classic(Graph::complete(10)).expect("connected");
    // 70 nodes total: the bitset rows span two words, crossing the word
    // boundary the smaller nets never reach.
    let two_clique = radio_sim::spec::TopologyKind::TwoCliqueBridge {
        beta: 35,
        bridge_a: 3,
        bridge_b: 7,
    }
    .build(0)
    .expect("two-clique builds");
    vec![
        ("rgg-48", rgg),
        ("chords-16", path_with_chords),
        ("clique-10", classic),
        ("two-clique-35", two_clique),
    ]
}

type AdversaryFactory = Box<dyn Fn() -> Box<dyn Adversary>>;

fn adversaries() -> Vec<(&'static str, AdversaryFactory)> {
    vec![
        ("reliable-only", Box::new(|| Box::new(ReliableOnly))),
        ("all-unreliable", Box::new(|| Box::new(AllUnreliable))),
        (
            "random-0.5",
            Box::new(|| Box::new(RandomUnreliable::new(0.5, 5))),
        ),
        (
            "random-0.1",
            Box::new(|| Box::new(RandomUnreliable::new(0.1, 5))),
        ),
        ("collider", Box::new(|| Box::new(Collider))),
        (
            "bursty",
            Box::new(|| Box::new(BurstyUnreliable::new(0.1, 0.1, 6))),
        ),
        ("isolator", Box::new(|| Box::new(CliqueIsolator))),
    ]
}

/// Everything observable about one execution: trace, per-node receive
/// transcripts, outputs, and aggregate metrics.
type Capture = (
    Option<Trace>,
    Vec<Vec<Option<u32>>>,
    Vec<Option<bool>>,
    radio_sim::ExecutionMetrics,
);

/// Which engine implementation a capture steps through: the oracle, or
/// `step` with one reach kernel pinned at spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Legacy,
    Scalar,
    Bitset,
}

/// The production step's kernels.
const KERNELS: [Tier; 2] = [Tier::Scalar, Tier::Bitset];

impl Tier {
    /// `net`'s engine builder with this tier's kernel pinned (the oracle
    /// ignores it).
    fn builder(self, net: &DualGraph) -> EngineBuilder {
        let mode = match self {
            Tier::Bitset => StepMode::Bitset,
            Tier::Legacy | Tier::Scalar => StepMode::Scalar,
        };
        EngineBuilder::new(net.clone()).step_mode(mode)
    }

    /// One round through this tier.
    fn step<P: Process>(self, engine: &mut Engine<P>) {
        match self {
            Tier::Legacy => engine.step_legacy(),
            Tier::Scalar | Tier::Bitset => engine.step(),
        }
    }
}

/// Runs `rounds` rounds and captures a [`Capture`] for one engine tier.
fn capture(
    net: &DualGraph,
    adversary: Box<dyn Adversary>,
    seed: u64,
    rounds: u64,
    tier: Tier,
    record_trace: bool,
) -> Capture {
    let mut engine = tier
        .builder(net)
        .seed(seed)
        .adversary(adversary)
        .record_trace(record_trace)
        .spawn(|info| Talker {
            heard: Vec::new(),
            done_after: 10 + info.id.get() as u64 % 7,
            rounds: 0,
        })
        .expect("engine assembles");
    for _ in 0..rounds {
        tier.step(&mut engine);
    }
    let heard = engine.procs().iter().map(|p| p.heard.clone()).collect();
    (
        engine.trace().cloned(),
        heard,
        engine.outputs(),
        *engine.metrics(),
    )
}

/// Asserts the differential contract between two tiers over the full
/// net × adversary × seed grid.
fn assert_tiers_agree(reference: Tier, candidate: Tier) {
    for (net_name, net) in nets() {
        for (adv_name, make) in adversaries() {
            for seed in [1u64, 42] {
                let new = capture(&net, make(), seed, 60, candidate, true);
                let old = capture(&net, make(), seed, 60, reference, true);
                let ctx =
                    format!("{net_name}/{adv_name}/seed {seed} ({candidate:?} vs {reference:?})");
                assert_eq!(new.0, old.0, "trace diverged on {ctx}");
                assert_eq!(new.1, old.1, "receive transcripts diverged on {ctx}");
                assert_eq!(new.2, old.2, "outputs diverged on {ctx}");
                assert_eq!(new.3, old.3, "metrics diverged on {ctx}");
            }
        }
    }
}

#[test]
fn golden_trace_scratch_matches_legacy() {
    assert_tiers_agree(Tier::Legacy, Tier::Scalar);
}

#[test]
fn golden_trace_bitset_matches_legacy() {
    assert_tiers_agree(Tier::Legacy, Tier::Bitset);
}

#[test]
fn tracing_off_does_not_change_behavior() {
    // A trace records each round's activated-edge count beside the
    // execution; whether it records must not change anything else.
    for tier in KERNELS {
        for (net_name, net) in nets() {
            for (adv_name, make) in adversaries() {
                let traced = capture(&net, make(), 7, 60, tier, true);
                let untraced = capture(&net, make(), 7, 60, tier, false);
                assert_eq!(
                    traced.1, untraced.1,
                    "transcripts diverged on {net_name}/{adv_name} ({tier:?})"
                );
                assert_eq!(
                    traced.2, untraced.2,
                    "outputs diverged on {net_name}/{adv_name} ({tier:?})"
                );
                assert_eq!(
                    traced.3, untraced.3,
                    "metrics diverged on {net_name}/{adv_name} ({tier:?})"
                );
            }
        }
    }
}

/// A random adversary that also sets garbage bits past the last edge of
/// the mask's final word and sets every chosen bit a second time — inputs
/// the mask contract says never deliver and never count twice. It checks
/// that every tier hands it a cleared mask of `⌈m'/64⌉` words.
struct MessyAdversary {
    inner: RandomUnreliable,
}

impl Adversary for MessyAdversary {
    fn extra_edges(
        &mut self,
        round: u64,
        net: &DualGraph,
        broadcasting: &[bool],
        broadcasters: &[u32],
        mask: &mut [u64],
    ) {
        let m = net.unreliable_edge_count();
        assert_eq!(mask.len(), m.div_ceil(64), "mask sized for {m} edges");
        assert!(mask.iter().all(|&w| w == 0), "mask arrived dirty");
        self.inner
            .extra_edges(round, net, broadcasting, broadcasters, mask);
        for i in 0..m {
            if mask[i / 64] >> (i % 64) & 1 == 1 {
                mask[i / 64] |= 1 << (i % 64);
            }
        }
        if let Some(last) = mask.last_mut() {
            if !m.is_multiple_of(64) {
                *last |= !0 << (m % 64);
            }
        }
    }

    fn name(&self) -> &'static str {
        "messy"
    }
}

#[test]
fn disorderly_adversaries_are_normalized_identically() {
    let messy = || {
        Box::new(MessyAdversary {
            inner: RandomUnreliable::new(0.4, 9),
        })
    };
    // Some net leaves room for garbage past its last edge, and the classic
    // clique gets an empty mask.
    let nets = nets();
    let edges = |net: &DualGraph| net.unreliable_edge_count();
    assert!(nets.iter().any(|(_, net)| !edges(net).is_multiple_of(64)));
    assert!(nets.iter().any(|(_, net)| edges(net) == 0));
    for (net_name, net) in nets {
        let old = capture(&net, messy(), 3, 60, Tier::Legacy, true);
        for tier in KERNELS {
            let new = capture(&net, messy(), 3, 60, tier, true);
            assert_eq!(
                new.0, old.0,
                "trace diverged on {net_name}/messy ({tier:?})"
            );
            assert_eq!(
                new.1, old.1,
                "transcripts diverged on {net_name}/messy ({tier:?})"
            );
            assert_eq!(
                new.3, old.3,
                "metrics diverged on {net_name}/messy ({tier:?})"
            );
            // And the no-trace path agrees on everything observable.
            let untraced = capture(&net, messy(), 3, 60, tier, false);
            assert_eq!(
                new.1, untraced.1,
                "no-trace transcripts diverged on {net_name}/messy ({tier:?})"
            );
            assert_eq!(
                new.3, untraced.3,
                "no-trace metrics diverged on {net_name}/messy ({tier:?})"
            );
        }
    }
}

/// A process alternating silence and broadcast rounds: chatty nodes
/// broadcast on odd local rounds, nobody on even ones.
struct AlternatingChatter {
    chatty: bool,
    heard: Vec<Option<u32>>,
    rounds: u64,
}

impl Process for AlternatingChatter {
    type Msg = u32;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        self.rounds += 1;
        if self.chatty && self.rounds % 2 == 1 {
            Action::Broadcast(ctx.my_id.get())
        } else {
            Action::Idle
        }
    }

    fn receive(&mut self, _: &mut Context<'_>, msg: Option<&u32>) {
        self.heard.push(msg.copied());
    }

    fn output(&self) -> Option<bool> {
        None
    }

    fn is_done(&self) -> bool {
        false
    }
}

#[test]
fn bitset_clears_reach_words_on_broadcaster_less_rounds() {
    // The PR 1 phantom-delivery bug class: reach state surviving a
    // broadcaster-less round delivers ghosts in the next one. Both reach
    // kernels rely on `step` clearing its seen/collide words every round —
    // including empty ones. Alternate dense rounds (every node broadcasts →
    // all-collide silence) with empty rounds; a single-broadcaster variant
    // then checks clean deliveries don't echo.
    let net = DualGraph::classic(Graph::complete(12)).expect("connected");
    let run = |tier: Tier, all_chatty: bool| {
        let mut engine = tier
            .builder(&net)
            .seed(3)
            .record_trace(true)
            .spawn(|info| AlternatingChatter {
                chatty: all_chatty || info.node.index() == 0,
                heard: Vec::new(),
                rounds: 0,
            })
            .expect("engine assembles");
        for _ in 0..40 {
            tier.step(&mut engine);
        }
        let heard: Vec<Vec<Option<u32>>> = engine.procs().iter().map(|p| p.heard.clone()).collect();
        (engine.trace().cloned(), heard, *engine.metrics())
    };
    for tier in KERNELS {
        for all_chatty in [true, false] {
            assert_eq!(
                run(tier, all_chatty),
                run(Tier::Legacy, all_chatty),
                "{tier:?} diverged from legacy (all_chatty = {all_chatty})"
            );
        }
        // Dense variant: odd rounds are all-broadcast (nobody listens); the
        // even rounds must hear silence at every node — any Some here is a
        // phantom delivery from stale reach words.
        let dense = run(tier, true);
        for heard in &dense.1 {
            assert_eq!(heard.len(), 20, "one reception per even round ({tier:?})");
            assert!(
                heard.iter().all(Option::is_none),
                "phantom delivery on an empty round ({tier:?})"
            );
        }
        assert_eq!(dense.2.deliveries, 0);
        // Solo variant: node 0 delivers cleanly on odd rounds; a stale
        // *seen* bit surviving into the following empty round would
        // re-deliver it.
        let solo = run(tier, false);
        for heard in &solo.1[1..] {
            assert_eq!(heard.len(), 40, "listeners receive every round ({tier:?})");
            for (i, h) in heard.iter().enumerate() {
                if i % 2 == 0 {
                    assert!(h.is_some(), "clean delivery expected on odd rounds");
                } else {
                    assert!(h.is_none(), "phantom delivery echoed into an empty round");
                }
            }
        }
    }
}

/// One MIS process's protocol state: its output, whether it joined, and
/// its MIS set `M_u`.
///
/// `MisCore`'s `last_r0` is left out on purpose: the oracle's moot
/// `decide` calls inside a promise advance it, and the production step
/// skips them, so it differs between the two by design. The promise it
/// dates, `next_step`, is the same either way.
type MisState = (Option<bool>, bool, BTreeSet<u32>);

/// Everything observable about one MIS execution: trace, each process's
/// protocol state, metrics and each node's first-output round.
type MisCapture = (
    Option<Trace>,
    Vec<MisState>,
    radio_sim::ExecutionMetrics,
    Vec<Option<u64>>,
);

/// Runs the Section 4 MIS through one tier until every process is done or
/// the last process to wake has had its whole schedule.
fn capture_mis(
    net: &DualGraph,
    adversary: Box<dyn Adversary>,
    seed: u64,
    wake_rounds: Vec<u64>,
    tier: Tier,
) -> MisCapture {
    let params = MisParams::default();
    let n = net.n();
    let last_wake = wake_rounds.iter().copied().max().unwrap_or(1);
    let budget = params.total_rounds(n) + last_wake - 1;
    let mut engine = tier
        .builder(net)
        .seed(seed)
        .adversary(adversary)
        .wake_rounds(wake_rounds)
        .record_trace(true)
        .spawn(|info| Mis::new(info.n, info.id, params))
        .expect("engine assembles");
    while engine.round() < budget && !engine.procs().iter().all(Process::is_done) {
        tier.step(&mut engine);
    }
    let decided = (0..n).map(|v| engine.decided_round(NodeId(v))).collect();
    let states = engine
        .procs()
        .iter()
        .map(|p| {
            let core = p.core();
            (core.output(), core.in_mis(), core.mis_set().clone())
        })
        .collect();
    (engine.trace().cloned(), states, *engine.metrics(), decided)
}

#[test]
fn mis_idle_promises_match_the_oracle_on_every_tier() {
    // The production step skips knocked-out and covered MIS processes on
    // either kernel, and the messages they ignore; the oracle calls every
    // one. A wrong promise (one epoch too long, say) changes who competes,
    // so the executions part. A covered process that ignores a new
    // announcer leaves the trace alone but loses it from `M_u`, which the
    // protocol states catch.
    let check = |ctx: &str, net: &DualGraph, make: &AdversaryFactory, seed: u64, wake: &[u64]| {
        let oracle = capture_mis(net, make(), seed, wake.to_vec(), Tier::Legacy);
        for tier in KERNELS {
            let got = capture_mis(net, make(), seed, wake.to_vec(), tier);
            assert_eq!(got.0, oracle.0, "trace diverged on {ctx} ({tier:?})");
            assert_eq!(
                got.1, oracle.1,
                "protocol states diverged on {ctx} ({tier:?})"
            );
            assert_eq!(got.2, oracle.2, "metrics diverged on {ctx} ({tier:?})");
            assert_eq!(
                got.3, oracle.3,
                "decided rounds diverged on {ctx} ({tier:?})"
            );
        }
    };
    for (net_name, net) in nets() {
        for (adv_name, make) in adversaries() {
            for seed in [1u64, 42] {
                let ctx = format!("{net_name}/{adv_name}/seed {seed}");
                check(&ctx, &net, &make, seed, &vec![1; net.n()]);
            }
        }
    }
    // Asynchronous starts: wake rounds spread over 1..=40.
    let (_, rgg) = &nets()[0];
    let wake: Vec<u64> = (0..rgg.n() as u64).map(|v| 1 + v * 17 % 40).collect();
    let (_, random) = &adversaries()[2];
    check("rgg-48/random-0.5/async", rgg, random, 7, &wake);
}

/// After each `decide` it makes, naps 0–5 rounds, 30–200 rounds or for
/// good, drawn from its own RNG; a message ends any nap. Broadcasts its id
/// with probability 0.3 when it decides and outputs once it has heard a
/// message. Counts woken naps whose next `decide` came late.
#[derive(Default)]
struct LongNapper {
    /// First local round in which `decide` must run again.
    wake_at: u64,
    /// A message cut the current nap short.
    woken: bool,
    /// Messages that cut a nap with more than five rounds left.
    long_naps_cut: u64,
    late_wakes: u64,
    heard: Vec<(u64, u32)>,
}

impl Process for LongNapper {
    type Msg = u32;
    const IDLES: bool = true;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        use rand::Rng;
        if std::mem::take(&mut self.woken) && ctx.local_round != self.wake_at {
            self.late_wakes += 1;
        }
        if ctx.local_round < self.wake_at {
            return Action::Idle;
        }
        self.wake_at = match ctx.rng.gen_range(0..4u32) {
            0 | 1 => ctx.local_round + ctx.rng.gen_range(0..6u64),
            2 => ctx.local_round + ctx.rng.gen_range(30..=200u64),
            _ => u64::MAX,
        };
        if ctx.rng.gen_bool(0.3) {
            Action::Broadcast(ctx.my_id.get())
        } else {
            Action::Idle
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&u32>) {
        if let Some(&m) = msg {
            self.heard.push((ctx.local_round, m));
            if ctx.local_round < self.wake_at {
                self.long_naps_cut += u64::from(self.wake_at - ctx.local_round > 5);
                self.wake_at = ctx.local_round + 1;
                self.woken = true;
            }
        }
    }

    fn output(&self) -> Option<bool> {
        (!self.heard.is_empty()).then_some(true)
    }

    fn is_done(&self) -> bool {
        false
    }

    fn idle_until(&self) -> u64 {
        self.wake_at
    }
}

/// A ring whose `G` joins each node to the three next ones and whose `G'`
/// adds the three after those.
fn ring_net(n: usize) -> DualGraph {
    let ring = |offsets: std::ops::RangeInclusive<usize>| {
        let edges = (0..n).flat_map(|i| offsets.clone().map(move |d| (i, (i + d) % n)));
        Graph::from_edges(n, edges).expect("ring")
    };
    DualGraph::new(ring(1..=3), ring(1..=6)).expect("valid dual graph")
}

#[test]
fn long_naps_across_word_boundaries_match_the_oracle() {
    // Long naps and naps for good leave the due set without a rebuild for
    // many rounds, so a sleeper that a message wakes must be brought back
    // by the bookkeeping after that `receive`, and a node whose nap lapses
    // by a rebuild — on nets whose last bit word is partial, full, or
    // holds one node.
    for n in [63usize, 64, 65, 129] {
        let net = ring_net(n);
        let wake: Vec<u64> = (0..n as u64).map(|v| 1 + v * 37 % 300).collect();
        let capture = |tier: Tier| {
            let mut engine = tier
                .builder(&net)
                .seed(n as u64)
                .adversary(RandomUnreliable::new(0.5, 3))
                .wake_rounds(wake.clone())
                .record_trace(true)
                .spawn(|_| LongNapper::default())
                .expect("engine assembles");
            for _ in 0..600 {
                tier.step(&mut engine);
            }
            let procs = engine.procs();
            let late: u64 = procs.iter().map(|p| p.late_wakes).sum();
            assert_eq!(late, 0, "a woken nap decided late on n = {n} ({tier:?})");
            let cut: u64 = procs.iter().map(|p| p.long_naps_cut).sum();
            let heard: Vec<_> = procs.iter().map(|p| p.heard.clone()).collect();
            let decided: Vec<_> = (0..n).map(|v| engine.decided_round(NodeId(v))).collect();
            (
                engine.trace().cloned(),
                *engine.metrics(),
                heard,
                decided,
                cut,
            )
        };
        let oracle = capture(Tier::Legacy);
        assert!(oracle.4 > 0, "no message cut a long nap on n = {n}");
        for tier in KERNELS {
            let got = capture(tier);
            assert_eq!(got.0, oracle.0, "trace diverged on n = {n} ({tier:?})");
            assert_eq!(got.1, oracle.1, "metrics diverged on n = {n} ({tier:?})");
            assert_eq!(got.2, oracle.2, "messages diverged on n = {n} ({tier:?})");
            assert_eq!(
                got.3, oracle.3,
                "decided rounds diverged on n = {n} ({tier:?})"
            );
        }
    }
}

#[test]
fn parallel_trials_match_serial() {
    let trial = |s: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(500 + s);
        let net = random_geometric(&RandomGeometricConfig::dense(32), &mut rng)
            .expect("dense configuration connects");
        let run = radio_structures::runner::run_mis(
            &net,
            radio_structures::params::MisParams::default(),
            radio_structures::runner::AdversaryKind::Random { p: 0.5 },
            s,
        );
        (run.outputs, run.solve_round, run.metrics)
    };
    let parallel = radio_bench::run_trials(8, trial);
    let serial: Vec<_> = (0..8).map(trial).collect();
    assert_eq!(parallel, serial);
}
