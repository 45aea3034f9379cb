//! Spawn-cost test for engines that share one topology.
//!
//! This file holds exactly one test so the byte-counting global allocator
//! sees no concurrent allocations from sibling tests. Trials on one shared
//! network spawn one engine each from clones of the network and of the
//! 0-complete detector cached on it; the clones must be handles on the
//! frozen per-topology state, so a further engine pays only for its own
//! per-node state (processes, RNGs, scratch), never for another copy of
//! the adjacency, the bitmask rows or the detector sets. The builds
//! themselves are bounded too: a clique's rows are written straight into
//! its one frozen CSR layer, with no builder rows beside them even while
//! it builds, and a detector's frozen sets are one flat id array plus
//! membership rows, not a tree per node. A second `run_algo` on the same
//! network reads the cached detector instead of building another, and a
//! multi-trial `run_algo_batch` call keeps one engine alive at a time:
//! its peak of live bytes does not grow with the trial count.

use radio_sim::spec::{AdversaryKind, TopologyKind};
use radio_sim::{EngineBuilder, IdAssignment, LinkDetectorAssignment};
use radio_structures::params::MisParams;
use radio_structures::runner::{run_algo, run_algo_batch, AlgoKind};
use radio_structures::Mis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct ByteCountingAlloc;

/// Bytes ever requested (growth only).
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE`.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow_live(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates to `System`, adding only relaxed counter updates.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        if new_size >= layout.size() {
            grow_live((new_size - layout.size()) as u64);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
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

/// Live bytes that `f`'s result still holds once `f` returns, and the
/// result.
fn retained_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (LIVE.load(Ordering::Relaxed).saturating_sub(before), out)
}

/// Peak live bytes above the starting level while `f` runs.
fn peak_of(f: impl FnOnce()) -> u64 {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - start
}

#[test]
fn engines_spawned_from_shared_clones_copy_no_topology() {
    const N: usize = 1024;
    const BUDGET_PER_NODE: u64 = 1024;
    // The one CSR layer of a classic clique: 4·N·(N − 1) B of neighbors
    // and the offsets, both while it builds and once built.
    const NET_BUDGET: u64 = 4_500_000;
    // 4·N·(N − 1) B of ids, 8·N·⌈(N + 1)/64⌉ B of rows, and the offsets.
    const DETECTOR_BUDGET: u64 = 4_500_000;
    let mut built = None;
    let build_peak = peak_of(|| {
        built = Some(retained_of(|| {
            TopologyKind::Clique { n: N }.build(0).unwrap()
        }))
    });
    let (net_bytes, net) = built.expect("the build ran");
    assert!(
        build_peak <= NET_BUDGET,
        "a clique-{N} build peaks at {build_peak} B"
    );
    assert!(
        net_bytes <= NET_BUDGET,
        "a clique-{N} network retains {net_bytes} B"
    );
    let ids = IdAssignment::identity(N);
    // Build the detector cached on the network here, so that no later
    // measurement pays for it.
    let (detector_bytes, det) = bytes_of(|| net.zero_complete_detector().clone());
    assert_eq!(det, LinkDetectorAssignment::zero_complete(&net, &ids));
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
    // the row kernel); the second must find everything already built.
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

    // A trial on the same network reads its cached detector: it
    // allocates its engine and record, never another detector.
    let trial = |seed: u64| {
        let mut det_rng = StdRng::seed_from_u64(seed);
        let adversary = AdversaryKind::Random { p: 0.5 };
        run_algo(&net, &AlgoKind::Mis, adversary, seed, &mut det_rng, Some(8))
    };
    trial(1);
    let (trial_bytes, _) = bytes_of(|| trial(2));
    assert!(
        trial_bytes < detector_bytes,
        "a second run_algo allocated {trial_bytes} B; one detector build takes \
         {detector_bytes} B"
    );

    // A batch spawns, runs and records each trial before the next one
    // spawns, so eight trials peak no higher than one trial plus the
    // extra records — well under one more engine's spawn bytes.
    let cell_peak = |trials: u64| {
        peak_of(|| {
            let seeds: Vec<u64> = (0..trials).collect();
            let mut det_rngs: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let recs = run_algo_batch(
                &net,
                &AlgoKind::Mis,
                AdversaryKind::Random { p: 0.5 },
                &seeds,
                &mut det_rngs,
                Some(8),
            );
            assert_eq!(recs.len() as u64, trials);
        })
    };
    let one = cell_peak(1);
    let eight = cell_peak(8);
    assert!(
        eight < one + second_bytes,
        "8 trials peaked at {eight} B against {one} B for one trial; \
         one engine spawns {second_bytes} B"
    );
}
