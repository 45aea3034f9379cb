//! # radio-bench — the experiment harness
//!
//! Regenerates every evaluation claim of *Structuring Unreliable Radio
//! Networks* as a table. The paper is a theory paper — its "tables and
//! figures" are theorems — so each experiment measures the quantity a
//! theorem bounds and reports the shape (scaling exponents, crossovers,
//! separations, validity rates). See `DESIGN.md` for the per-experiment
//! index and `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! Run everything: `cargo run -p radio-bench --bin experiments --release -- --all`
//! Run one: `cargo run -p radio-bench --bin experiments --release -- e5`

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod checkpoint;
pub mod enginebench;
pub mod experiments;
pub mod parallel;
pub mod scenario;
pub mod schemas;
pub mod serve;
pub mod sink;
pub mod stats;
pub mod table;

pub use aggregate::AggregateSpec;
pub use checkpoint::{
    merge_partials, shard_range, spec_fingerprint, ShardPartial, ShardRef, SweepCheckpoint,
};
pub use experiments::{run_experiment, ALL_EXPERIMENTS};
pub use parallel::{run_trials, run_trials_in, ThreadPool};
pub use scenario::{
    render, run_spec, run_spec_streaming, run_spec_streaming_range, ScenarioRun, ScenarioSpec,
    StreamStats,
};
pub use serve::{run_serve, run_worker, FaultPlan, ServeConfig, WorkerConfig};
pub use sink::{JsonlWriter, Materialize, RecordSink, StreamAggregate};
pub use table::Table;
