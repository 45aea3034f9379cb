//! Steady-state zero-allocation test for `Engine::step()` and
//! `Engine::step_bitset()`.
//!
//! This file holds exactly one test so the counting global allocator sees
//! no concurrent allocations from sibling tests. After a warmup that
//! high-water-marks every scratch buffer (and, for the bitset tier, built
//! the cached bitmask rows), stepping the engine must not touch the heap
//! at all — on any canonical workload, in either zero-alloc tier.

use radio_bench::enginebench::{workload_engine_mode, WORKLOADS};
use radio_sim::StepMode;
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

#[test]
fn step_is_allocation_free_in_steady_state() {
    for mode in [StepMode::Scalar, StepMode::Bitset] {
        for name in WORKLOADS {
            // The pinned mode routes `run_rounds` through the tier under
            // test; Bitset spawns also pre-build the bitmask rows,
            // and the warmup would cover a lazy build anyway.
            let mut engine = workload_engine_mode(name, mode);
            engine.run_rounds(128); // grow every scratch buffer to its high-water mark
            let before = ALLOCS.load(Ordering::Relaxed);
            engine.run_rounds(512);
            let after = ALLOCS.load(Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "{name}: the {mode:?} tier allocated in steady state"
            );
        }
    }
}
