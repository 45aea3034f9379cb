// lint:allow(forbid-unsafe) the zero-alloc probe needs `unsafe impl GlobalAlloc` for its counting allocator; the unsafety is confined to that shim
//! Generates `BENCH_engine.json`: engine rounds/sec, wall time, and
//! steady-state allocations per round, for the seed baseline
//! (`step_legacy`) and the production `step` on each of its reach kernels —
//! scratch (the CSR scatter) and bitset (the bitmask rows) — on the
//! canonical workloads.
//!
//! Usage:
//!
//! ```text
//! bench_engine                 # full measurement (50k rounds per workload)
//! bench_engine --quick         # smoke scale for CI (2k rounds)
//! bench_engine --out PATH      # write the JSON somewhere else
//! bench_engine --baseline PATH # diff against a previous report
//! bench_engine --check         # exit nonzero on >15% ratio regression
//! ```
//!
//! When the output path already holds a previous report (or `--baseline`
//! names one), a delta table prints for every workload; with `--check`,
//! a >15% drop in either kernel's speedup over the oracle fails the run:
//! scratch/legacy, and bitset/legacy (the product of a report's
//! scratch/legacy and bitset/scratch ratios) when the baseline records
//! the bitset column. The bitset/scratch ratio prints but does not gate:
//! it compares two kernels no sweep runs on the same network, and a
//! faster scatter kernel would lower it. The CI bench-smoke step runs
//! this against the committed `BENCH_engine.json`. The gates use speedup
//! ratios (not absolute rounds/sec) because the engines are measured
//! interleaved, so machine speed cancels and the committed baseline stays
//! valid across hardware. Schema-v1 baselines (no bitset column) still
//! gate the scratch/legacy ratio; a schema-v3 baseline's batched column
//! is ignored.
//!
//! The binary installs a counting global allocator, so the reported
//! `allocs_per_round` is exact: the scratch and bitset engines must
//! report 0.0 in steady state (the zero-allocation acceptance
//! criterion), while the legacy engine reports its per-round buffer
//! churn.

use radio_bench::enginebench::run_engine_bench;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocations and requested bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, only adding relaxed counter
// bumps on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Maximum tolerated drop in a kernel's **speedup ratio** over the oracle
/// (scratch/legacy or bitset/legacy) vs the baseline before `--check`
/// fails the run.
///
/// The gate compares speedups, not absolute rounds/sec: the two engines
/// are measured interleaved in the same process, so machine speed cancels
/// out of the ratio and the check stays meaningful when the baseline was
/// recorded on different hardware or at a different `--quick` scale (the
/// CI case). Absolute rounds/sec deltas still print for same-machine
/// reruns.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Per-workload gate inputs of a report, in report order.
struct WorkloadStats {
    name: String,
    /// Scratch rounds/sec.
    rate: f64,
    /// scratch/legacy speedup.
    speedup: f64,
    /// bitset/scratch speedup (`None` in schema-v1 baselines).
    bitset: Option<f64>,
}

impl WorkloadStats {
    /// bitset/legacy speedup, the row kernel's gated ratio.
    fn rows(&self) -> Option<f64> {
        self.bitset.map(|b| b * self.speedup)
    }
}

fn scratch_stats(report: &radio_bench::enginebench::EngineBenchReport) -> Vec<WorkloadStats> {
    report
        .workloads
        .iter()
        .filter_map(|w| {
            w.engines
                .iter()
                .find(|m| m.engine == "scratch")
                .map(|m| WorkloadStats {
                    name: w.name.clone(),
                    rate: m.rounds_per_sec,
                    speedup: w.speedup,
                    bitset: w.bitset_speedup,
                })
        })
        .collect()
}

/// Prints the baseline delta table; returns the workloads whose
/// scratch/legacy — or bitset/legacy — ratio regressed beyond the
/// tolerance.
fn diff_against_baseline(
    baseline: &radio_bench::enginebench::EngineBenchReport,
    current: &radio_bench::enginebench::EngineBenchReport,
) -> Vec<String> {
    let old = scratch_stats(baseline);
    let new = scratch_stats(current);
    let mut regressed = Vec::new();
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "workload",
        "baseline r/s",
        "current r/s",
        "delta",
        "base s/l",
        "cur s/l",
        "delta",
        "base b/l",
        "cur b/l",
        "delta",
        "base b/s",
        "cur b/s"
    );
    for stats in &new {
        let name = &stats.name;
        let Some(base) = old.iter().find(|b| b.name == *name) else {
            println!("{name:<12} {:>16} {:>16.0} — new workload", "—", stats.rate);
            continue;
        };
        let rate_delta = stats.rate / base.rate.max(1e-12) - 1.0;
        let speedup_delta = stats.speedup / base.speedup.max(1e-12) - 1.0;
        // The row kernel's ratio only gates when both reports record the
        // bitset column (a v1 baseline never blocks its introduction).
        let rows_delta = match (base.rows(), stats.rows()) {
            (Some(b), Some(c)) => Some(c / b.max(1e-12) - 1.0),
            _ => None,
        };
        let ratio_cell = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.2}x"));
        let delta_cell =
            |v: Option<f64>| v.map_or("—".to_string(), |d| format!("{:+.1}%", d * 100.0));
        println!(
            "{name:<12} {:>14.0} {:>14.0} {:>+7.1}% {:>8.2}x {:>8.2}x {:>+7.1}% {:>9} {:>9} {:>8} {:>9} {:>9}",
            base.rate,
            stats.rate,
            rate_delta * 100.0,
            base.speedup,
            stats.speedup,
            speedup_delta * 100.0,
            ratio_cell(base.rows()),
            ratio_cell(stats.rows()),
            delta_cell(rows_delta),
            ratio_cell(base.bitset),
            ratio_cell(stats.bitset),
        );
        if speedup_delta < -REGRESSION_TOLERANCE
            || rows_delta.is_some_and(|d| d < -REGRESSION_TOLERANCE)
        {
            regressed.push(name.clone());
        }
    }
    regressed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_engine.json", String::as_str);
    // Default baseline: the previous report at the output path, so plain
    // reruns always show their delta.
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .map_or(out_path, String::as_str)
        .to_string();
    let baseline: Option<radio_bench::enginebench::EngineBenchReport> =
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(report) => Some(report),
                Err(e) => {
                    // A baseline that exists but does not parse must never
                    // silently disable an explicitly requested gate.
                    eprintln!("baseline {baseline_path} is unreadable as a report: {e}");
                    if check {
                        std::process::exit(1);
                    }
                    None
                }
            },
            Err(_) => {
                if check {
                    eprintln!("--check requires a baseline; none found at {baseline_path}");
                    std::process::exit(1);
                }
                None
            }
        };
    let rounds = if quick { 2_000 } else { 50_000 };

    eprintln!("measuring {rounds} rounds per workload per engine...");
    let report = run_engine_bench(rounds, Some(&counters));

    println!(
        "{:<12} {:>4} {:>8} {:>14} {:>14} {:>9} {:>13}",
        "workload", "n", "engine", "rounds/sec", "wall s", "vs legacy", "allocs/round"
    );
    for w in &report.workloads {
        for m in &w.engines {
            println!(
                "{:<12} {:>4} {:>8} {:>14.0} {:>14.4} {:>9} {:>13}",
                w.name,
                w.n,
                m.engine,
                m.rounds_per_sec,
                m.wall_s,
                match m.engine.as_str() {
                    // scratch row: scratch/legacy; bitset row:
                    // bitset/legacy.
                    "scratch" => format!("{:.2}x", w.speedup),
                    "bitset" => w
                        .bitset_speedup
                        .map_or("—".to_string(), |s| format!("{:.2}x", s * w.speedup)),
                    _ => "—".to_string(),
                },
                m.allocs_per_round
                    .map_or("—".to_string(), |a| format!("{a:.2}")),
            );
        }
    }

    let regressed = baseline
        .as_ref()
        .map(|base| diff_against_baseline(base, &report))
        .unwrap_or_default();

    // A failed check must not clobber the baseline it failed against: the
    // rejected report lands beside it so a rerun still compares against
    // the original numbers.
    let reject = check && !regressed.is_empty();
    let write_path = if reject && out_path == baseline_path {
        format!("{out_path}.rejected.json")
    } else {
        out_path.to_string()
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&write_path, json).expect("write BENCH_engine.json");
    eprintln!("wrote {write_path}");

    if reject {
        eprintln!(
            "FAIL: a gated speedup ratio regressed more than {:.0}% vs {} on: {regressed:?}",
            REGRESSION_TOLERANCE * 100.0,
            baseline_path
        );
        std::process::exit(1);
    }

    // Surface acceptance regressions directly in the exit code: `step`
    // must stay allocation-free in steady state on both kernels.
    let leaky: Vec<String> = report
        .workloads
        .iter()
        .flat_map(|w| {
            w.engines
                .iter()
                .filter(|m| {
                    matches!(m.engine.as_str(), "scratch" | "bitset")
                        && m.allocs_per_round.unwrap_or(0.0) > 0.0
                })
                .map(|m| format!("{}/{}", w.name, m.engine))
        })
        .collect();
    if !leaky.is_empty() {
        eprintln!("FAIL: engines allocated in steady state on: {leaky:?}");
        std::process::exit(1);
    }
}
