//! The single home of every on-disk schema identifier the workspace
//! emits or validates.
//!
//! Readers (resume, merge, serve status, the Python-side tooling) key on
//! these exact strings, so changing one is a format break: bump the
//! trailing version instead, and keep the old constant around for as
//! long as the old files must still be readable. The `schema-literal`
//! lint rule enforces that no other non-test module spells these ids
//! inline — everything goes through this module (the defining sites
//! below carry the only literals).

/// Schema id of the `radio-lab` results document (`RunDoc`).
pub const RESULTS_SCHEMA: &str = "radio-lab/v2";

/// Schema id of the `radio-lab serve` final report.
pub const SERVE_REPORT_SCHEMA: &str = "radio-lab/serve/v1";

/// Schema id of [`crate::checkpoint::SweepCheckpoint`] files.
pub const CHECKPOINT_SCHEMA: &str = "radio-lab/checkpoint/v1";

/// Schema id of [`crate::checkpoint::ShardPartial`] files.
pub const PARTIAL_SCHEMA: &str = "radio-lab/partial/v1";

/// Schema id of [`crate::serve::spool::SpoolManifest`] files.
pub const MANIFEST_SCHEMA: &str = "radio-lab/spool-manifest/v1";

/// Schema id of [`crate::serve::spool::Claim`] files.
pub const CLAIM_SCHEMA: &str = "radio-lab/claim/v1";

/// Schema id of [`crate::serve::spool::SpecStatus`] documents.
pub const STATUS_SCHEMA: &str = "radio-lab/spool-status/v1";

/// Schema id of fault-plan files (see [`crate::serve::fault`]).
pub const FAULT_PLAN_SCHEMA: &str = "radio-lab/fault-plan/v1";

/// Schema id of the engine-tier benchmark report (`BENCH_engine.json`).
pub const BENCH_ENGINE_SCHEMA: &str = "bench-engine/v4";
