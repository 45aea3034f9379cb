//! The spool directory: the sweep service's shared-filesystem transport.
//!
//! A spool is a plain directory the coordinator and every worker agree
//! on — the whole coordination protocol is files and atomic renames, so
//! swapping the transport for TCP later only means replacing this
//! module's primitives, not the lease/retry/merge logic above them.
//!
//! # Layout
//!
//! ```text
//! spool/
//!   q0000-E1/                 one submitted spec, in queue order
//!     spec.json               the ScenarioSpec, verbatim
//!     manifest.json           SpoolManifest: fingerprint + run parameters
//!     status.json             SpecStatus: advisory snapshot for pollers
//!     shards/
//!       s0.claim0             attempt 0's lease: Claim JSON, mtime =
//!                             last heartbeat (one claim file per attempt)
//!       s0.ckpt               SweepCheckpoint (radio-lab/checkpoint/v1)
//!       s0.jsonl              the shard's record log (when enabled)
//!       s0.partial            ShardPartial (radio-lab/partial/v1) = done
//!       s0.fail0.json         FailNote: attempt 0 failed (bounded retry)
//! ```
//!
//! # Lease state machine
//!
//! A shard is in exactly one of these states, decided from the files
//! alone (no shared memory, no coordinator round-trip):
//!
//! ```text
//!            acquire (hard-link)          publish s<i>.partial
//!   Open ───────────────────────▶ Leased ─────────────────────▶ Done
//!    ▲  ▲                          │   │
//!    │  │ backoff elapsed          │   │ heartbeat stops ≥ lease_ms
//!    │  │                          │   ▼
//!    │ Backoff ◀── attempt fails   │  Expired ─ takeover (hard-link) ─▶ Leased
//!    │              (FailNote)     │              (claim<attempt+1>)
//!    └─────────────────────────────┘
//!   failures ≥ max_retries ──▶ Exhausted        (terminal, degraded)
//! ```
//!
//! * **Every claim is its own file**, named for its attempt
//!   (`s0.claim0`, `s0.claim1`, …), and every acquisition — a fresh
//!   lease *and* a takeover alike — creates that file with `hard_link`
//!   from a synced temp sibling. The link either creates the entry (we
//!   own the attempt) or fails with `AlreadyExists` (someone else does),
//!   so there is exactly **one winner per attempt number**, with no
//!   locks and no read-check-write window. The highest-numbered claim
//!   is the live one; lower-numbered leftovers are inert.
//! * **Heartbeat** rewrites the worker's own claim file (temp + fsync +
//!   rename): the renamed file's fresh mtime *is* the heartbeat. Workers
//!   refresh at every chunk boundary and **fence** first — if any
//!   higher-attempt claim or failure marker exists, or the partial was
//!   published, the shard was taken over and the worker abandons it
//!   instead of publishing ([`heartbeat_and_fence`]).
//! * **Takeover** is just acquisition of `claim<attempt+1>` once the
//!   highest claim's heartbeat is ≥ `lease_ms` stale. The new owner
//!   resumes from the dead worker's checkpoint and truncates any torn
//!   record-log tail. A not-quite-dead previous owner discovers the new
//!   claim file at its next fence and stands down *before touching the
//!   shared checkpoint or record log again*; because execution is
//!   deterministic, even the worst-case overlap produces identical
//!   bytes. The one requirement: `lease_ms` must exceed the worst-case
//!   chunk wall time, so a live worker is never mistaken for dead.
//! * **Failure** (a sink/hook error, not a crash) writes a durable
//!   `FailNote` marker and releases the claim. Markers both count
//!   failures (≥ `max_retries` ⇒ `Exhausted`) and gate retry by
//!   exponential backoff (`backoff_ms · 2^(failures-1)` since the last
//!   marker). Crashes leave no marker: crash recovery is unbounded (the
//!   coordinator's respawn budget bounds it globally), while *errors*
//!   are bounded per shard.
//!
//! A spec is **Complete** when every shard is `Done`, **Degraded** when
//! every shard is terminal but some are `Exhausted`, and **Active**
//! otherwise. Pollers ([`merged_preview`]) get a table folded from the
//! partials published so far, its caption marked
//! [`INCOMPLETE_MARKER`] until the spec completes.

use crate::checkpoint::{
    spec_fingerprint, sync_parent_dir, write_durable_atomic, ShardPartial, SweepCheckpoint,
};
use crate::scenario::ScenarioSpec;
use crate::sink::StreamAggregate;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Schema id of [`SpoolManifest`] files.
pub use crate::schemas::MANIFEST_SCHEMA;

/// Schema id of [`Claim`] files.
pub use crate::schemas::CLAIM_SCHEMA;

/// Schema id of [`SpecStatus`] documents.
pub use crate::schemas::STATUS_SCHEMA;

/// The marker spliced into a preview table's caption while shards are
/// still missing — "clearly marked incomplete" is part of the
/// degradation contract, so tests match on this literal.
pub const INCOMPLETE_MARKER: &str = "INCOMPLETE";

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Atomic (temp + rename) but *not* fsynced — for advisory files
/// rewritten every poll tick, where durability is not worth an fsync
/// storm. Everything load-bearing goes through
/// [`crate::checkpoint::write_durable_atomic`] instead.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("atomic");
    let tmp = path.with_file_name(format!(".{name}.tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// A submitted spec's run parameters — everything a worker needs beyond
/// the spec itself, fixed at submission so the whole fleet agrees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpoolManifest {
    /// The literal [`MANIFEST_SCHEMA`].
    pub schema: String,
    /// The spec's id (display only; `spec.json` is authoritative).
    pub spec_id: String,
    /// [`spec_fingerprint`] of `spec.json` — workers refuse a mismatch.
    pub fingerprint: String,
    /// How many contiguous shards the grid splits into.
    pub shards: u64,
    /// Chunk size (units per durable window) for every shard.
    pub chunk: u64,
    /// Heartbeat deadline: a claim untouched this long is up for
    /// takeover. Must exceed the worst-case chunk wall time.
    pub lease_ms: u64,
    /// Failures (not crashes) allowed per shard before it is `Exhausted`.
    pub max_retries: u64,
    /// Base of the exponential retry backoff (`backoff_ms · 2^(f-1)`).
    pub backoff_ms: u64,
    /// Whether shards write per-shard JSONL record logs.
    pub records: bool,
}

impl SpoolManifest {
    /// Reads a manifest back, verifying the schema id.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem errors; malformed JSON or an unknown schema
    /// yield [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<SpoolManifest> {
        let text = std::fs::read_to_string(path)?;
        let m: SpoolManifest = serde_json::from_str(&text)
            .map_err(|e| invalid(format!("{}: not a spool manifest: {e}", path.display())))?;
        if m.schema != MANIFEST_SCHEMA {
            return Err(invalid(format!(
                "{}: unknown manifest schema {:?} (expected {MANIFEST_SCHEMA:?})",
                path.display(),
                m.schema
            )));
        }
        Ok(m)
    }
}

/// A shard lease: whoever's id is in the claim file owns the shard until
/// the file's mtime goes stale. `attempt` fences stale owners: a worker
/// whose claim was taken over sees a different `(owner, attempt)` at its
/// next refresh and abandons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// The literal [`CLAIM_SCHEMA`].
    pub schema: String,
    /// The owning worker's id.
    pub owner: String,
    /// Monotonic per-shard attempt number (fresh acquires and takeovers
    /// both advance it).
    pub attempt: u64,
    /// Heartbeat counter (informational; the file mtime is the deadline
    /// clock).
    pub beat: u64,
}

impl Claim {
    /// A fresh claim for `owner`'s `attempt` on a shard.
    pub fn new(owner: &str, attempt: u64) -> Claim {
        Claim {
            schema: CLAIM_SCHEMA.to_string(),
            owner: owner.to_string(),
            attempt,
            beat: 0,
        }
    }
}

/// The durable marker a failed attempt leaves behind (`s<i>.fail<a>.json`):
/// evidence for bounded retry (count ≥ `max_retries` ⇒ `Exhausted`) and
/// the backoff clock (the file's mtime).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailNote {
    /// The worker that failed.
    pub worker: String,
    /// The attempt that failed.
    pub attempt: u64,
    /// The error, as text.
    pub error: String,
}

/// Path helpers for one submitted spec's directory inside the spool.
#[derive(Debug, Clone)]
pub struct SpecDir {
    dir: PathBuf,
}

impl SpecDir {
    /// Wraps an existing queue-entry directory.
    pub fn new(dir: PathBuf) -> SpecDir {
        SpecDir { dir }
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The queue-entry name (e.g. `q0000-E1`).
    pub fn name(&self) -> String {
        self.dir.file_name().map_or_else(
            || self.dir.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        )
    }

    /// `spec.json` — the submitted [`ScenarioSpec`].
    pub fn spec_path(&self) -> PathBuf {
        self.dir.join("spec.json")
    }

    /// `manifest.json` — the [`SpoolManifest`].
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// `status.json` — the advisory [`SpecStatus`] snapshot.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join("status.json")
    }

    /// The `shards/` ledger directory.
    pub fn shards_dir(&self) -> PathBuf {
        self.dir.join("shards")
    }

    /// Shard `i`'s lease file for `attempt` — one claim file per
    /// attempt, so every acquisition (fresh or takeover) is a
    /// create-exclusive `hard_link` with exactly one winner.
    pub fn claim_path(&self, i: u64, attempt: u64) -> PathBuf {
        self.shards_dir().join(format!("s{i}.claim{attempt}"))
    }

    /// Shard `i`'s checkpoint file.
    pub fn checkpoint_path(&self, i: u64) -> PathBuf {
        self.shards_dir().join(format!("s{i}.ckpt"))
    }

    /// Shard `i`'s record log.
    pub fn jsonl_path(&self, i: u64) -> PathBuf {
        self.shards_dir().join(format!("s{i}.jsonl"))
    }

    /// Shard `i`'s published partial (existence = `Done`).
    pub fn partial_path(&self, i: u64) -> PathBuf {
        self.shards_dir().join(format!("s{i}.partial"))
    }

    /// Shard `i`'s failure marker for `attempt`.
    pub fn fail_path(&self, i: u64, attempt: u64) -> PathBuf {
        self.shards_dir().join(format!("s{i}.fail{attempt}.json"))
    }

    /// Reads the submitted spec back.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem errors; malformed JSON yields
    /// [`io::ErrorKind::InvalidData`].
    pub fn load_spec(&self) -> io::Result<ScenarioSpec> {
        let path = self.spec_path();
        let text = std::fs::read_to_string(&path)?;
        serde_json::from_str(&text).map_err(|e| {
            invalid(format!(
                "{}: invalid ScenarioSpec JSON: {e}",
                path.display()
            ))
        })
    }

    /// Reads the manifest back.
    ///
    /// # Errors
    ///
    /// See [`SpoolManifest::load`].
    pub fn load_manifest(&self) -> io::Result<SpoolManifest> {
        SpoolManifest::load(&self.manifest_path())
    }
}

/// The run parameters a submission fixes for the fleet (see the
/// same-named [`SpoolManifest`] fields).
#[derive(Debug, Clone, Copy)]
pub struct SubmitConfig {
    /// Shard count.
    pub shards: u64,
    /// Chunk size.
    pub chunk: u64,
    /// Lease deadline in milliseconds.
    pub lease_ms: u64,
    /// Failures allowed per shard.
    pub max_retries: u64,
    /// Backoff base in milliseconds.
    pub backoff_ms: u64,
    /// Whether shards write record logs.
    pub records: bool,
}

/// Submits a spec to the spool: creates `q<seq>-<id>/` with the spec,
/// the manifest, and an empty shard ledger, all durably. Queue order is
/// the lexicographic directory order, so `seq` should count up.
///
/// # Errors
///
/// Surfaces filesystem errors; refuses to overwrite an existing entry.
pub fn submit_spec(
    spool: &Path,
    seq: u64,
    spec: &ScenarioSpec,
    cfg: &SubmitConfig,
) -> io::Result<SpecDir> {
    let sanitized: String = spec
        .id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let dir = spool.join(format!("q{seq:04}-{sanitized}"));
    if dir.exists() {
        return Err(invalid(format!(
            "{}: queue entry already exists — refusing to overwrite",
            dir.display()
        )));
    }
    let sd = SpecDir::new(dir);
    std::fs::create_dir_all(sd.shards_dir())?;
    let spec_json = serde_json::to_string_pretty(spec)
        .map_err(|e| invalid(format!("spec does not serialize: {e}")))?;
    write_durable_atomic(&sd.spec_path(), spec_json.as_bytes())?;
    let manifest = SpoolManifest {
        schema: MANIFEST_SCHEMA.to_string(),
        spec_id: spec.id.clone(),
        fingerprint: spec_fingerprint(spec),
        shards: cfg.shards,
        chunk: cfg.chunk,
        lease_ms: cfg.lease_ms,
        max_retries: cfg.max_retries,
        backoff_ms: cfg.backoff_ms,
        records: cfg.records,
    };
    let manifest_json = crate::checkpoint::json_pretty(&manifest)?;
    write_durable_atomic(&sd.manifest_path(), manifest_json.as_bytes())?;
    // The queue entry itself must survive power loss too.
    sync_parent_dir(sd.dir())?;
    Ok(sd)
}

/// Lists the spool's queue entries in queue (lexicographic) order. An
/// entry without a manifest — a submission caught mid-write — is
/// skipped; the coordinator submits everything before spawning workers,
/// so in practice the queue is complete by the time anyone lists it.
///
/// # Errors
///
/// Surfaces the directory-read error.
pub fn list_specs(spool: &Path) -> io::Result<Vec<SpecDir>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(spool)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() && name.starts_with('q') && path.join("manifest.json").is_file() {
            out.push(SpecDir::new(path));
        }
    }
    out.sort_by_key(SpecDir::name);
    Ok(out)
}

/// Reads a claim back, verifying the schema id.
///
/// # Errors
///
/// Surfaces filesystem errors; malformed JSON or an unknown schema
/// yield [`io::ErrorKind::InvalidData`].
pub fn load_claim(path: &Path) -> io::Result<Claim> {
    let text = std::fs::read_to_string(path)?;
    let c: Claim = serde_json::from_str(&text)
        .map_err(|e| invalid(format!("{}: not a claim: {e}", path.display())))?;
    if c.schema != CLAIM_SCHEMA {
        return Err(invalid(format!(
            "{}: unknown claim schema {:?} (expected {CLAIM_SCHEMA:?})",
            path.display(),
            c.schema
        )));
    }
    Ok(c)
}

/// Tries to create the claim file — the race-free lease acquisition.
/// The claim is written to a synced temp sibling and `hard_link`ed to
/// the claim path: the link either creates the entry (we own the lease)
/// or fails with `AlreadyExists` (someone else does). Returns whether
/// we won.
///
/// # Errors
///
/// Surfaces filesystem errors other than the losing race.
pub fn try_acquire_claim(path: &Path, claim: &Claim) -> io::Result<bool> {
    let json = crate::checkpoint::json_pretty(claim)?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("claim");
    let tmp = path.with_file_name(format!(".{name}.acq{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    let linked = std::fs::hard_link(&tmp, path);
    let _ = std::fs::remove_file(&tmp);
    match linked {
        Ok(()) => {
            sync_parent_dir(path)?;
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Whether a later attempt has superseded `attempt` on this shard: the
/// partial was published, or a claim file or failure marker from a
/// higher attempt exists. Any of those means the lease was taken over —
/// the holder of `attempt` must abandon without touching the shared
/// checkpoint or record log again.
///
/// # Errors
///
/// Surfaces the directory-read error.
pub fn attempt_superseded(sd: &SpecDir, index: u64, attempt: u64) -> io::Result<bool> {
    if sd.partial_path(index).is_file() {
        return Ok(true);
    }
    let claim_prefix = format!("s{index}.claim");
    let fail_prefix = format!("s{index}.fail");
    for entry in std::fs::read_dir(sd.shards_dir())? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let newer = name
            .strip_prefix(&claim_prefix)
            .and_then(|r| r.parse::<u64>().ok())
            .or_else(|| {
                name.strip_prefix(&fail_prefix)
                    .and_then(|r| r.strip_suffix(".json"))
                    .and_then(|r| r.parse::<u64>().ok())
            });
        if newer.is_some_and(|a| a > attempt) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Heartbeat + fence in one step: if no later attempt has superseded
/// ours ([`attempt_superseded`]) and our own claim file is still in
/// place, rewrite it (temp + fsync + rename — the fresh mtime restarts
/// the deadline clock) and return `true`. Otherwise return `false`: the
/// shard is someone else's now and the caller must abandon it without
/// publishing.
///
/// # Errors
///
/// Surfaces filesystem errors other than the claim being gone.
pub fn heartbeat_and_fence(sd: &SpecDir, index: u64, ours: &Claim) -> io::Result<bool> {
    if attempt_superseded(sd, index, ours.attempt)? {
        return Ok(false);
    }
    let path = sd.claim_path(index, ours.attempt);
    match load_claim(&path) {
        Ok(c) if c.owner == ours.owner && c.attempt == ours.attempt => {
            let json = crate::checkpoint::json_pretty(ours)?;
            write_durable_atomic(&path, json.as_bytes())?;
            Ok(true)
        }
        Ok(_) => Ok(false),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Removes a claim (publish or failure both release the lease). Missing
/// is fine — an expired claim may have been taken over and re-released.
///
/// # Errors
///
/// Surfaces filesystem errors.
pub fn release_claim(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => sync_parent_dir(path),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Where a shard stands, decided from its files alone (see the module
/// docs' state machine).
#[derive(Debug, Clone, PartialEq)]
pub enum ShardState {
    /// The partial is published.
    Done,
    /// `failures ≥ max_retries` — terminal; the spec degrades.
    Exhausted {
        /// Failure count.
        failures: u64,
    },
    /// A live claim (mtime within the lease).
    Leased {
        /// The claim's owner.
        owner: String,
        /// The claim's attempt.
        attempt: u64,
        /// Milliseconds since the last heartbeat.
        age_ms: u64,
    },
    /// A claim whose heartbeat stopped ≥ `lease_ms` ago — up for
    /// takeover.
    Expired {
        /// The stale claim's owner.
        owner: String,
        /// The stale claim's attempt.
        attempt: u64,
        /// Milliseconds since the last heartbeat.
        age_ms: u64,
    },
    /// Failed recently; retry gated by exponential backoff.
    Backoff {
        /// Failure count so far.
        failures: u64,
        /// Milliseconds until the next attempt may start.
        remaining_ms: u64,
    },
    /// Free to lease.
    Open {
        /// The attempt number the next acquire should use.
        next_attempt: u64,
        /// Failure count so far.
        failures: u64,
    },
}

impl ShardState {
    /// Terminal states need no further work.
    pub fn is_terminal(&self) -> bool {
        matches!(self, ShardState::Done | ShardState::Exhausted { .. })
    }
}

/// One shard's scanned state plus its checkpoint progress, if visible.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Shard index.
    pub index: u64,
    /// The scanned state.
    pub state: ShardState,
    /// The checkpoint's `next_index`, when a readable checkpoint exists
    /// (progress display only — never load-bearing).
    pub next_index: Option<u64>,
}

/// The exponential backoff deadline after `failures` failures.
fn backoff_ms(base_ms: u64, failures: u64) -> u64 {
    let shift = (failures.saturating_sub(1)).min(16) as u32;
    base_ms.saturating_mul(1u64 << shift)
}

fn age_since(now: SystemTime, then: SystemTime) -> u64 {
    now.duration_since(then)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Scans one shard's files into a [`ShardView`] (see the module docs'
/// state machine for the decision order).
///
/// # Errors
///
/// Surfaces filesystem errors; a claim that vanishes mid-scan (a racing
/// release) is retried once as open.
pub fn scan_shard(
    sd: &SpecDir,
    manifest: &SpoolManifest,
    index: u64,
    now: SystemTime,
) -> io::Result<ShardView> {
    let next_index = SweepCheckpoint::load(&sd.checkpoint_path(index))
        .ok()
        .map(|cp| cp.next_index);
    let view = |state| ShardView {
        index,
        state,
        next_index,
    };
    if sd.partial_path(index).is_file() {
        return Ok(view(ShardState::Done));
    }
    // One directory pass: failure markers (count, latest attempt,
    // latest mtime) and per-attempt claims (highest attempt + mtime).
    let fail_prefix = format!("s{index}.fail");
    let claim_prefix = format!("s{index}.claim");
    let mut failures = 0u64;
    let mut max_fail: Option<u64> = None;
    let mut latest_fail: Option<SystemTime> = None;
    let mut top_claim: Option<(u64, SystemTime)> = None;
    for entry in std::fs::read_dir(sd.shards_dir())? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(attempt) = name
            .strip_prefix(&fail_prefix)
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            failures += 1;
            max_fail = Some(max_fail.map_or(attempt, |m| m.max(attempt)));
            if let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) {
                latest_fail = Some(latest_fail.map_or(mtime, |m| m.max(mtime)));
            }
        } else if let Some(attempt) = name
            .strip_prefix(&claim_prefix)
            .and_then(|r| r.parse::<u64>().ok())
        {
            if top_claim.is_none_or(|(top, _)| attempt > top) {
                if let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) {
                    top_claim = Some((attempt, mtime));
                }
            }
        }
    }
    if failures >= manifest.max_retries {
        return Ok(view(ShardState::Exhausted { failures }));
    }
    // The highest-numbered claim is the live attempt — unless a failure
    // marker at or above its number shows that attempt already concluded
    // (then the claim file is an inert leftover of a failed release).
    if let Some((attempt, mtime)) = top_claim {
        if max_fail.is_none_or(|m| m < attempt) {
            let age = age_since(now, mtime);
            match load_claim(&sd.claim_path(index, attempt)) {
                Ok(c) if age < manifest.lease_ms => {
                    return Ok(view(ShardState::Leased {
                        owner: c.owner,
                        attempt,
                        age_ms: age,
                    }));
                }
                Ok(c) => {
                    return Ok(view(ShardState::Expired {
                        owner: c.owner,
                        attempt,
                        age_ms: age,
                    }));
                }
                // Released between readdir and read (published or
                // failed just now) — fall through as concluded.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    if failures > 0 {
        let wait = backoff_ms(manifest.backoff_ms, failures);
        let elapsed = latest_fail.map_or(u64::MAX, |t| age_since(now, t));
        if elapsed < wait {
            return Ok(view(ShardState::Backoff {
                failures,
                remaining_ms: wait - elapsed,
            }));
        }
    }
    // The next acquire targets one past every attempt ever started —
    // claim files and failure markers both witness started attempts.
    let seen = match (max_fail, top_claim) {
        (Some(f), Some((c, _))) => Some(f.max(c)),
        (Some(f), None) => Some(f),
        (None, Some((c, _))) => Some(c),
        (None, None) => None,
    };
    Ok(view(ShardState::Open {
        next_attempt: seen.map_or(0, |m| m + 1),
        failures,
    }))
}

/// A spec's overall phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecPhase {
    /// Work remains (or is in flight).
    Active,
    /// Every shard published — the merge is byte-identical to the
    /// single-process run.
    Complete,
    /// Every shard terminal, at least one exhausted — only a partial
    /// (clearly marked) table is available.
    Degraded,
}

impl SpecPhase {
    /// The phase's lowercase wire name (status documents).
    pub fn as_str(self) -> &'static str {
        match self {
            SpecPhase::Active => "active",
            SpecPhase::Complete => "complete",
            SpecPhase::Degraded => "degraded",
        }
    }
}

/// A whole spec's scanned state.
#[derive(Debug, Clone)]
pub struct SpecScan {
    /// The overall phase.
    pub phase: SpecPhase,
    /// Every shard's view, in shard order.
    pub shards: Vec<ShardView>,
}

impl SpecScan {
    /// Shards already `Done`.
    pub fn done(&self) -> u64 {
        self.shards
            .iter()
            .filter(|v| matches!(v.state, ShardState::Done))
            .count() as u64
    }
}

/// Scans every shard of a spec and classifies the phase.
///
/// # Errors
///
/// Surfaces filesystem errors.
pub fn scan_spec(sd: &SpecDir, manifest: &SpoolManifest, now: SystemTime) -> io::Result<SpecScan> {
    let shards: Vec<ShardView> = (0..manifest.shards)
        .map(|i| scan_shard(sd, manifest, i, now))
        .collect::<io::Result<_>>()?;
    let all_terminal = shards.iter().all(|v| v.state.is_terminal());
    let all_done = shards.iter().all(|v| matches!(v.state, ShardState::Done));
    let phase = if all_done {
        SpecPhase::Complete
    } else if all_terminal {
        SpecPhase::Degraded
    } else {
        SpecPhase::Active
    };
    Ok(SpecScan { phase, shards })
}

/// Loads every published partial of a spec, in shard order (gaps where
/// shards haven't finished).
///
/// # Errors
///
/// Surfaces filesystem and schema errors for partials that exist.
pub fn load_partials(sd: &SpecDir, manifest: &SpoolManifest) -> io::Result<Vec<ShardPartial>> {
    let mut out = Vec::new();
    for i in 0..manifest.shards {
        let path = sd.partial_path(i);
        if path.is_file() {
            out.push(ShardPartial::load(&path)?);
        }
    }
    Ok(out)
}

/// Folds the partials published so far into a preview table — the
/// graceful-degradation surface. Partials merge in shard (= index)
/// order; with shards missing the fold is over a subset of the grid, so
/// the caption gets an unmissable `[INCOMPLETE: k/m shards merged]`
/// marker. A complete set produces exactly the final table. `None`
/// until the first partial lands.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when partials disagree on the
/// aggregation shape (they can't, unless the spool was tampered with).
pub fn merged_preview(
    spec: &ScenarioSpec,
    partials: &[ShardPartial],
    total_shards: u64,
) -> io::Result<Option<Table>> {
    if partials.is_empty() {
        return Ok(None);
    }
    let mut parts: Vec<&ShardPartial> = partials.iter().collect();
    parts.sort_by_key(|p| p.shard.index);
    let mut iter = parts.into_iter();
    let Some(first) = iter.next() else {
        return Ok(None);
    };
    let mut agg = StreamAggregate::restore_for_spec(spec, first.aggregate.clone())
        .map_err(|e| invalid(format!("shard {}: {e}", first.shard)))?;
    for p in iter {
        agg.merge_snapshot(&p.aggregate)
            .map_err(|e| invalid(format!("shard {}: {e}", p.shard)))?;
    }
    let mut table = agg.table(spec);
    if (partials.len() as u64) < total_shards {
        table.caption = format!(
            "{} [{INCOMPLETE_MARKER}: {}/{} shards merged]",
            table.caption,
            partials.len(),
            total_shards
        );
    }
    Ok(Some(table))
}

/// One shard's line in a [`SpecStatus`] document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index.
    pub index: u64,
    /// State name: `done`, `exhausted`, `leased`, `expired`, `backoff`,
    /// or `open`.
    pub state: String,
    /// Human-readable detail (owner, ages, counts).
    pub detail: String,
    /// Checkpoint progress, when visible.
    pub next_index: Option<u64>,
}

/// The advisory status snapshot the coordinator rewrites every poll —
/// what `radio-lab status` and any other poller reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecStatus {
    /// The literal [`STATUS_SCHEMA`].
    pub schema: String,
    /// The spec's id.
    pub spec_id: String,
    /// The spec's fingerprint.
    pub fingerprint: String,
    /// `active`, `complete`, or `degraded`.
    pub phase: String,
    /// Shards published.
    pub shards_done: u64,
    /// Shard count.
    pub shards_total: u64,
    /// Per-shard lines, in shard order.
    pub shards: Vec<ShardStatus>,
}

/// Renders a scan into the status document shape.
pub fn spec_status(manifest: &SpoolManifest, scan: &SpecScan) -> SpecStatus {
    let shards = scan
        .shards
        .iter()
        .map(|v| {
            let (state, detail) = match &v.state {
                ShardState::Done => ("done".to_string(), String::new()),
                ShardState::Exhausted { failures } => (
                    "exhausted".to_string(),
                    format!("{failures} failure(s), retries exhausted"),
                ),
                ShardState::Leased {
                    owner,
                    attempt,
                    age_ms,
                } => (
                    "leased".to_string(),
                    format!("{owner} attempt {attempt}, heartbeat {age_ms}ms ago"),
                ),
                ShardState::Expired {
                    owner,
                    attempt,
                    age_ms,
                } => (
                    "expired".to_string(),
                    format!("{owner} attempt {attempt}, heartbeat {age_ms}ms ago"),
                ),
                ShardState::Backoff {
                    failures,
                    remaining_ms,
                } => (
                    "backoff".to_string(),
                    format!("{failures} failure(s), retry in {remaining_ms}ms"),
                ),
                ShardState::Open {
                    next_attempt,
                    failures,
                } => (
                    "open".to_string(),
                    format!("next attempt {next_attempt}, {failures} failure(s)"),
                ),
            };
            ShardStatus {
                index: v.index,
                state,
                detail,
                next_index: v.next_index,
            }
        })
        .collect();
    SpecStatus {
        schema: STATUS_SCHEMA.to_string(),
        spec_id: manifest.spec_id.clone(),
        fingerprint: manifest.fingerprint.clone(),
        phase: scan.phase.as_str().to_string(),
        shards_done: scan.done(),
        shards_total: manifest.shards,
        shards,
    }
}

/// Writes the advisory status snapshot (atomic, not fsynced — see
/// `write_atomic`).
///
/// # Errors
///
/// Surfaces filesystem errors.
pub fn write_status(sd: &SpecDir, status: &SpecStatus) -> io::Result<()> {
    let json = crate::checkpoint::json_pretty(status)?;
    write_atomic(&sd.status_path(), json.as_bytes())
}

/// Reads the advisory status snapshot back.
///
/// # Errors
///
/// Surfaces filesystem errors; malformed JSON or an unknown schema
/// yield [`io::ErrorKind::InvalidData`].
pub fn load_status(sd: &SpecDir) -> io::Result<SpecStatus> {
    let path = sd.status_path();
    let text = std::fs::read_to_string(&path)?;
    let s: SpecStatus = serde_json::from_str(&text)
        .map_err(|e| invalid(format!("{}: not a status document: {e}", path.display())))?;
    if s.schema != STATUS_SCHEMA {
        return Err(invalid(format!(
            "{}: unknown status schema {:?} (expected {STATUS_SCHEMA:?})",
            path.display(),
            s.schema
        )));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        NestOrder, RenderKind, ScenarioSpec, SeedPolicy, StopCondition, TopologyEntry,
        WorkloadEntry,
    };
    use radio_sim::spec::{AdversaryKind, TopologyKind};
    use radio_structures::runner::AlgoKind;
    use std::time::Duration;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            id: "SPOOL".to_string(),
            caption: "spool unit test".to_string(),
            render: RenderKind::Aggregate,
            topologies: vec![TopologyEntry::new(TopologyKind::Clique { n: 5 })],
            adversaries: vec![AdversaryKind::ReliableOnly],
            workloads: vec![WorkloadEntry::core(AlgoKind::Mis)],
            trials: 4,
            nest: NestOrder::TopologyMajor,
            seeds: SeedPolicy {
                net_base: 7,
                run_base: 2,
            },
            stop: StopCondition::Default,
            aggregate: None,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("radio_spool_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn cfg() -> SubmitConfig {
        SubmitConfig {
            shards: 2,
            chunk: 2,
            lease_ms: 200,
            max_retries: 3,
            backoff_ms: 50,
            records: false,
        }
    }

    #[test]
    fn submit_then_list_roundtrips() {
        let spool = scratch("submit");
        let sd = submit_spec(&spool, 0, &spec(), &cfg()).expect("submits");
        assert!(sd.name().starts_with("q0000-"));
        let listed = list_specs(&spool).expect("lists");
        assert_eq!(listed.len(), 1);
        let manifest = listed[0].load_manifest().expect("manifest loads");
        assert_eq!(manifest.spec_id, "SPOOL");
        assert_eq!(manifest.fingerprint, spec_fingerprint(&spec()));
        assert_eq!(listed[0].load_spec().expect("spec loads"), spec());
        // Double submission refused.
        assert!(submit_spec(&spool, 0, &spec(), &cfg()).is_err());
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn acquire_is_exclusive_and_heartbeat_fences() {
        let spool = scratch("claims");
        let sd = submit_spec(&spool, 0, &spec(), &cfg()).expect("submits");
        let path0 = sd.claim_path(0, 0);
        let a = Claim::new("wA", 0);
        let b = Claim::new("wB", 0);
        assert!(try_acquire_claim(&path0, &a).expect("acquires"));
        assert!(
            !try_acquire_claim(&path0, &b).expect("loses race"),
            "second acquire of the same attempt must lose"
        );
        // Owner heartbeats fine until a takeover claims the next attempt —
        // takeover is itself an exclusive acquisition, so racers get one winner.
        assert!(heartbeat_and_fence(&sd, 0, &a).expect("heartbeats"));
        let takeover = Claim::new("wB", 1);
        let path1 = sd.claim_path(0, 1);
        assert!(try_acquire_claim(&path1, &takeover).expect("takes over"));
        assert!(
            !try_acquire_claim(&path1, &Claim::new("wC", 1)).expect("loses takeover race"),
            "takeover race must have one winner"
        );
        assert!(!heartbeat_and_fence(&sd, 0, &a).expect("fenced"));
        assert!(heartbeat_and_fence(&sd, 0, &takeover).expect("new owner heartbeats"));
        // A published partial fences everyone.
        std::fs::write(sd.partial_path(0), "placeholder").expect("writes");
        assert!(!heartbeat_and_fence(&sd, 0, &takeover).expect("done = fenced"));
        std::fs::remove_file(sd.partial_path(0)).expect("removes");
        release_claim(&path1).expect("releases");
        assert!(!heartbeat_and_fence(&sd, 0, &takeover).expect("gone = fenced"));
        release_claim(&path1).expect("double release is fine");
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn shard_states_walk_the_machine() {
        let spool = scratch("states");
        let sd = submit_spec(&spool, 0, &spec(), &cfg()).expect("submits");
        let manifest = sd.load_manifest().expect("manifest");
        let now = SystemTime::now();
        // Fresh: open at attempt 0.
        let v = scan_shard(&sd, &manifest, 0, now).expect("scans");
        assert!(matches!(
            v.state,
            ShardState::Open {
                next_attempt: 0,
                failures: 0
            }
        ));
        // Leased while fresh, expired once the heartbeat is stale.
        let claim = Claim::new("w0", 0);
        assert!(try_acquire_claim(&sd.claim_path(0, 0), &claim).expect("acquires"));
        let v = scan_shard(&sd, &manifest, 0, now).expect("scans");
        assert!(
            matches!(v.state, ShardState::Leased { .. }),
            "{:?}",
            v.state
        );
        let stale = now + Duration::from_millis(manifest.lease_ms + 50);
        let v = scan_shard(&sd, &manifest, 0, stale).expect("scans");
        match v.state {
            ShardState::Expired { owner, attempt, .. } => {
                assert_eq!(owner, "w0");
                assert_eq!(attempt, 0);
            }
            other => panic!("expected expired, got {other:?}"),
        }
        // A takeover claims the next attempt; the highest claim is the live
        // lease even while the dead owner's file lingers.
        let takeover = Claim::new("w1", 1);
        assert!(try_acquire_claim(&sd.claim_path(0, 1), &takeover).expect("takes over"));
        let v = scan_shard(&sd, &manifest, 0, SystemTime::now()).expect("scans");
        match v.state {
            ShardState::Leased {
                ref owner, attempt, ..
            } => {
                assert_eq!(owner, "w1");
                assert_eq!(attempt, 1);
            }
            other => panic!("expected leased by takeover, got {other:?}"),
        }
        release_claim(&sd.claim_path(0, 1)).expect("releases takeover");
        release_claim(&sd.claim_path(0, 0)).expect("releases original");
        // One failure: backoff first, open (at the next attempt) after.
        let note = FailNote {
            worker: "w0".to_string(),
            attempt: 0,
            error: "boom".to_string(),
        };
        std::fs::write(
            sd.fail_path(0, 0),
            serde_json::to_string(&note).expect("serializes"),
        )
        .expect("writes");
        let v = scan_shard(&sd, &manifest, 0, SystemTime::now()).expect("scans");
        assert!(matches!(v.state, ShardState::Backoff { failures: 1, .. }));
        let later = SystemTime::now() + Duration::from_millis(manifest.backoff_ms * 4);
        let v = scan_shard(&sd, &manifest, 0, later).expect("scans");
        assert!(matches!(
            v.state,
            ShardState::Open {
                next_attempt: 1,
                failures: 1
            }
        ));
        // max_retries failures: exhausted, and the spec scan degrades
        // once the other shard is done.
        for a in 1..manifest.max_retries {
            std::fs::write(
                sd.fail_path(0, a),
                serde_json::to_string(&note).expect("serializes"),
            )
            .expect("writes");
        }
        let v = scan_shard(&sd, &manifest, 0, SystemTime::now()).expect("scans");
        assert!(matches!(v.state, ShardState::Exhausted { failures: 3 }));
        std::fs::write(sd.partial_path(1), "placeholder").expect("writes");
        let v = scan_shard(&sd, &manifest, 1, SystemTime::now()).expect("scans");
        assert!(matches!(v.state, ShardState::Done));
        let scan = scan_spec(&sd, &manifest, SystemTime::now()).expect("scans");
        assert_eq!(scan.phase, SpecPhase::Degraded);
        assert_eq!(scan.done(), 1);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_ms(100, 1), 100);
        assert_eq!(backoff_ms(100, 2), 200);
        assert_eq!(backoff_ms(100, 5), 1600);
        // Deep failure counts clamp instead of overflowing.
        assert_eq!(backoff_ms(u64::MAX, 50), u64::MAX);
    }

    #[test]
    fn status_document_roundtrips() {
        let spool = scratch("status");
        let sd = submit_spec(&spool, 0, &spec(), &cfg()).expect("submits");
        let manifest = sd.load_manifest().expect("manifest");
        let scan = scan_spec(&sd, &manifest, SystemTime::now()).expect("scans");
        let status = spec_status(&manifest, &scan);
        assert_eq!(status.phase, "active");
        assert_eq!(status.shards.len(), 2);
        write_status(&sd, &status).expect("writes");
        assert_eq!(load_status(&sd).expect("loads"), status);
        let _ = std::fs::remove_dir_all(&spool);
    }
}
