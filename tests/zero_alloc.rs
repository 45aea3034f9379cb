//! Steady-state zero-allocation test for `Engine::step()` on both reach
//! kernels.
//!
//! This file holds exactly one test so the counting global allocator sees
//! no concurrent allocations from sibling tests. After a warmup that
//! high-water-marks every scratch buffer (and, for the row kernel, built
//! the cached bitmask rows), stepping the engine must not touch the heap
//! at all — on any canonical workload, with either kernel pinned, for a
//! process that never idles and for one that promises naps and ignores
//! some messages inside them, long enough that the engine rebuilds its due
//! set inside the counted rounds — and under every built-in adversary on
//! the workloads with unreliable edges.

use radio_bench::enginebench::{
    workload_builder, workload_engine_mode, workload_net, Chatter, CHATTER_P, WORKLOADS,
};
use radio_sim::{Action, AdversaryKind, Context, Engine, EngineBuilder, Process, StepMode};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System`, adding only a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Broadcasts with the workload's probability when it decides, then
/// promises a nap of 0–5 rounds or, one time in five, of 30–200 rounds,
/// drawn from its own RNG. Inside a nap it ignores messages from even
/// sender ids, and any other message ends the nap.
#[derive(Default)]
struct Napper {
    wake_at: u64,
    decides: u64,
}

impl Process for Napper {
    type Msg = u32;
    const IDLES: bool = true;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        if ctx.local_round < self.wake_at {
            return Action::Idle;
        }
        self.decides += 1;
        let nap = if ctx.rng.gen_bool(0.2) {
            30..=200
        } else {
            0..=5
        };
        self.wake_at = ctx.local_round + ctx.rng.gen_range::<u64, _>(nap);
        if ctx.rng.gen_bool(CHATTER_P) {
            Action::Broadcast(ctx.my_id.get())
        } else {
            Action::Idle
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&u32>) {
        let napping = ctx.local_round < self.wake_at;
        if msg.is_some_and(|m| !(napping && self.ignores(m))) {
            self.wake_at = ctx.local_round + 1;
        }
    }

    fn output(&self) -> Option<bool> {
        None
    }

    fn idle_until(&self) -> u64 {
        self.wake_at
    }

    fn ignores(&self, &m: &u32) -> bool {
        m.is_multiple_of(2)
    }
}

/// Heap allocations made by 512 steady-state rounds, after a warmup that
/// grows every scratch buffer to its high-water mark.
fn steady_state_allocs<P: Process>(engine: &mut Engine<P>) -> u64 {
    engine.run_rounds(128);
    let before = ALLOCS.load(Ordering::Relaxed);
    engine.run_rounds(512);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn step_is_allocation_free_in_steady_state() {
    for mode in [StepMode::Scalar, StepMode::Bitset] {
        for name in WORKLOADS {
            // The pinned mode makes `run_rounds` run the kernel under
            // test; Bitset spawns also pre-build the bitmask rows.
            let mut engine = workload_engine_mode(name, mode);
            assert_eq!(
                steady_state_allocs(&mut engine),
                0,
                "{name}: the {mode:?} kernel allocated in steady state"
            );
            let mut napping = workload_builder(name, mode)
                .spawn(|_| Napper::default())
                .expect("workload engines assemble");
            assert_eq!(
                steady_state_allocs(&mut napping),
                0,
                "{name}: the {mode:?} kernel allocated around idle promises"
            );
            let n = napping.net().n() as u64;
            let decides: u64 = napping.procs().iter().map(|p| p.decides).sum();
            assert!(decides < 640 * n, "{name}: no process napped");
        }
        // Every built-in adversary, on the workloads with unreliable
        // edges: the sparse and dense random branches, the bursty chains
        // (their state vector is built in the warmup), and the adaptive
        // adversaries that walk rows.
        let adversaries = [
            AdversaryKind::AllUnreliable,
            AdversaryKind::Bursty {
                p_gb: 0.05,
                p_bg: 0.05,
            },
            AdversaryKind::Random { p: 0.1 },
            AdversaryKind::Random { p: 0.7 },
            AdversaryKind::Collider,
            AdversaryKind::CliqueIsolator,
        ];
        for name in ["rgg-256", "sparse-256"] {
            for kind in adversaries {
                let mut engine = EngineBuilder::new(workload_net(name))
                    .seed(7)
                    .step_mode(mode)
                    .adversary(kind.build(3))
                    .spawn(|_| Chatter::new(CHATTER_P))
                    .expect("workload engines assemble");
                assert_eq!(
                    steady_state_allocs(&mut engine),
                    0,
                    "{name}/{kind:?}: the {mode:?} kernel allocated in steady state"
                );
            }
        }
    }
}
