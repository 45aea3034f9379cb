//! Spawn-cost test for engines that share one topology.
//!
//! This file holds exactly one test so the byte-counting global allocator
//! sees no concurrent allocations from sibling tests. A trial batch spawns
//! one engine per trial from clones of one network and one detector; the
//! clones must be handles on the frozen per-topology state, so a further
//! engine pays only for its own per-node state (processes, RNGs, scratch),
//! never for another copy of the adjacency, the bitmask rows or the
//! detector sets. The detector build itself is bounded too: its frozen
//! sets are one flat id array plus membership rows, not a tree per node.

use radio_sim::spec::AdversaryKind;
use radio_sim::{DualGraph, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment};
use radio_structures::params::MisParams;
use radio_structures::Mis;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System`, adding only a relaxed counter bump.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

/// Bytes allocated while `f` runs, and its result.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

#[test]
fn engines_spawned_from_shared_clones_copy_no_topology() {
    const N: usize = 1024;
    const BUDGET_PER_NODE: u64 = 1024;
    // 4·N·(N − 1) B of ids, 8·N·⌈(N + 1)/64⌉ B of rows, and the offsets.
    const DETECTOR_BUDGET: u64 = 4_500_000;
    let net = DualGraph::classic(Graph::complete(N)).unwrap();
    let ids = IdAssignment::identity(N);
    let (detector_bytes, det) = bytes_of(|| LinkDetectorAssignment::zero_complete(&net, &ids));
    // The budget is tight enough to catch a deep copy: building the
    // detector's sets alone exceeds it.
    assert!(
        detector_bytes > BUDGET_PER_NODE * N as u64,
        "detector build took only {detector_bytes} B"
    );
    assert!(
        detector_bytes <= DETECTOR_BUDGET,
        "detector build took {detector_bytes} B"
    );
    let params = MisParams::default();
    let spawn = |seed: u64| {
        EngineBuilder::new(net.clone())
            .seed(seed)
            .ids(ids.clone())
            .detector(det.clone())
            .adversary(AdversaryKind::Random { p: 0.5 }.build(seed ^ 0x5eed))
            .spawn(|info| Mis::new(info.n, info.id, params))
            .unwrap()
    };
    // The first spawn builds the shared bitmask rows (a clique resolves to
    // the bitset tier); the second must find everything already built.
    let first = spawn(1);
    let (second_bytes, second) = bytes_of(|| spawn(2));
    assert!(
        second_bytes < BUDGET_PER_NODE * N as u64,
        "a second engine allocated {second_bytes} B ({} B per node)",
        second_bytes / N as u64
    );
    assert!(std::ptr::eq(
        first.net().g_bit_rows(),
        second.net().g_bit_rows()
    ));
}
