//! Checkpoint/restore and sharding for streamed sweeps: fault-tolerant,
//! mergeable partial computation over the scenario grid.
//!
//! Streaming made sweep memory O(chunk); this layer makes sweep
//! *progress* durable and divisible. Both features lean on three
//! invariants: [`ScenarioSpec::unit_at`] decodes any grid index to its
//! unit — seeds included — in O(1), so execution can (re)enter the grid
//! anywhere; [`run_slice_checkpointed`] runs the `--stream` sweep
//! executor itself, whose windows never share state, so any slice
//! produces exactly its part of the uninterrupted record stream; and the
//! aggregation accumulators merge **in index order bit-for-bit**
//! ([`crate::stats::StreamingSummary::merge`] replays raw samples), so
//! partial folds recombine into exactly the uninterrupted fold.
//!
//! [`resume_or_start`] is where every checkpointed slice (`--checkpoint`,
//! `--shard`, a `serve` worker's attempt) begins: it validates and
//! restores a checkpoint, truncating the record log to its durable lines,
//! or starts the slice fresh.
//!
//! # Checkpoint schema (`radio-lab/checkpoint/v1`)
//!
//! A [`SweepCheckpoint`] is a JSON file written **atomically** (temp file
//! + rename) after every durable chunk:
//!
//! * `schema` — the literal [`CHECKPOINT_SCHEMA`]; unknown schemas refuse
//!   to resume.
//! * `fingerprint` — [`spec_fingerprint`] of the running spec. Resume
//!   **refuses** a mismatch: a checkpoint only continues the exact grid
//!   (same axes, seeds, trials, aggregation) it was cut from.
//! * `start` / `end` — the slice of grid indices this run covers (the
//!   whole grid, or one shard's range).
//! * `next_index` — the first grid index not yet durable. Every sink
//!   flushed before the checkpoint was written
//!   ([`crate::sink::RecordSink::flush_chunk`]), so the checkpoint never
//!   points past durable data.
//! * `records` / `wall_s` — cumulative counters for the resumed totals.
//! * `jsonl_lines` — durable record-log lines at `next_index` (`null`
//!   when no `--records` log rides along). On resume the log is scanned
//!   and truncated back to exactly this many complete lines
//!   ([`truncate_jsonl_to_lines`]) — a torn final line from a mid-write
//!   crash is dropped with a warning instead of poisoning the log.
//! * `aggregate` — the lossless [`AggregateSnapshot`] (floats as
//!   [`f64::to_bits`] patterns), restoring the fold bit-for-bit.
//!
//! # Fingerprint rule
//!
//! [`spec_fingerprint`] is FNV-1a 64 over the spec's canonical (compact)
//! JSON serialization, hex-encoded. Any observable change to the grid —
//! axes, order, seeds, stop condition, aggregation — changes the
//! fingerprint; resume and merge refuse mismatches rather than silently
//! blending two different sweeps.
//!
//! # Shards and the merge-order invariant
//!
//! [`shard_range`] splits the grid into `m` contiguous, balanced,
//! index-ordered ranges. Each shard streams its slice into a
//! [`ShardPartial`] (`radio-lab/partial/v1`: the spec, the shard's range,
//! its aggregate snapshot, and the path of its record log, if any).
//! [`merge_partials`] folds partials **in shard order** — the
//! concatenation of the slices is the whole grid in index order, so the
//! ordered accumulator merge reproduces the single-process fold and the
//! rendered table/CSV/JSONL are **byte-identical** to an uninterrupted
//! `--stream` run. Merging out of order, with gaps, or across different
//! fingerprints is refused. (The one caveat: a single shard pushing more
//! than [`crate::stats::EXACT_QUANTILE_CAP`] observations into one
//! aggregation group collapses that group's percentile state to P²
//! markers, whose merge is approximate — far beyond this repo's trial
//! counts.)

use crate::aggregate::AggregateSnapshot;
use crate::scenario::{run_windows, ScenarioSpec};
use crate::sink::{JsonlWriter, RecordSink, SinkFile, StreamAggregate};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Fsyncs the directory holding `path`, making a just-renamed entry
/// durable: on POSIX filesystems a rename only survives power loss once
/// the *directory* is synced, not just the file. A `path` with no parent
/// component syncs the current directory.
///
/// # Errors
///
/// Surfaces the open or `fsync` error.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Serializes to pretty JSON, mapping a serialization failure into an
/// `InvalidData` I/O error instead of panicking — serve-layer callers
/// must degrade, never abort.
pub(crate) fn json_pretty<T: Serialize>(v: &T) -> io::Result<String> {
    serde_json::to_string_pretty(v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Compact single-line variant of [`json_pretty`].
pub(crate) fn json_compact<T: Serialize>(v: &T) -> io::Result<String> {
    serde_json::to_string(v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes `bytes` to `path` **atomically and durably**: the bytes land in
/// a uniquely-named sibling temp file, are fsynced, the temp renames over
/// `path`, and the containing directory is fsynced. A crash at any moment
/// leaves either the old file or the new one — never a torn mix — and
/// once this returns the new content survives power loss, not just
/// process death. The temp name embeds the process id so concurrent
/// writers (the sweep-service worker fleet renaming over shared claim
/// files) never clobber each other's in-flight temp.
///
/// # Errors
///
/// Surfaces the underlying filesystem errors; the temp file is removed on
/// a failed rename.
pub fn write_durable_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("durable");
    let tmp = path.with_file_name(format!(".{name}.tmp{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path)
}

/// Schema id of [`SweepCheckpoint`] files.
pub use crate::schemas::CHECKPOINT_SCHEMA;

/// Schema id of [`ShardPartial`] files.
pub use crate::schemas::PARTIAL_SCHEMA;

/// FNV-1a 64 of the spec's canonical (compact) JSON — the identity a
/// checkpoint or shard partial was cut from. Resume and merge refuse to
/// combine state across different fingerprints.
pub fn spec_fingerprint(spec: &ScenarioSpec) -> String {
    // lint:allow(no-panic-serve) ScenarioSpec is plain serde data whose derived Serialize cannot fail, and the infallible String signature is load-bearing for every resume/merge caller
    let json = serde_json::to_string(spec).expect("spec serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One shard of a sharded sweep: the `index`-th of `count` contiguous
/// grid slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRef {
    /// Zero-based shard index.
    pub index: u64,
    /// Total shard count.
    pub count: u64,
}

impl ShardRef {
    /// Parses the CLI shape `i/m` (e.g. `--shard 2/8`).
    ///
    /// # Errors
    ///
    /// Rejects malformed text, `m = 0`, and `i >= m`.
    pub fn parse(s: &str) -> Result<ShardRef, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("expected i/m (e.g. 0/4), got {s}"))?;
        let index: u64 = i.parse().map_err(|_| format!("bad shard index {i}"))?;
        let count: u64 = m.parse().map_err(|_| format!("bad shard count {m}"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards"
            ));
        }
        Ok(ShardRef { index, count })
    }
}

impl std::fmt::Display for ShardRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The contiguous grid slice of one shard: balanced ranges
/// `[⌊i·total/m⌋, ⌊(i+1)·total/m⌋)` whose concatenation over
/// `i = 0..m` is exactly `[0, total)` in index order.
pub fn shard_range(total: u64, shard: ShardRef) -> Range<u64> {
    let (i, m, t) = (
        u128::from(shard.index),
        u128::from(shard.count),
        u128::from(total),
    );
    // For valid refs (index < count) both bounds are ≤ total by
    // construction; the clamp makes degenerate refs (count 0, index out
    // of range) yield an empty tail slice instead of panicking.
    let m = m.max(1);
    let lo = (i * t / m).min(t) as u64;
    let hi = ((i + 1) * t / m).min(t) as u64;
    lo..hi
}

/// A durable mid-sweep state: everything needed to continue the slice
/// `[next_index, end)` and land on output byte-identical to the
/// uninterrupted run. See the module docs for the field-by-field schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// The literal [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// [`spec_fingerprint`] of the sweep's spec.
    pub fingerprint: String,
    /// The shard this checkpoint belongs to (`None` = unsharded sweep).
    pub shard: Option<ShardRef>,
    /// First grid index of the run's slice.
    pub start: u64,
    /// One past the last grid index of the run's slice.
    pub end: u64,
    /// First grid index not yet durable — resume re-enters here.
    pub next_index: u64,
    /// Records accepted so far (cumulative across resumes).
    pub records: u64,
    /// Wall-clock seconds spent so far (cumulative across resumes).
    pub wall_s: f64,
    /// Durable record-log lines at `next_index` (`None` = no JSONL log).
    pub jsonl_lines: Option<u64>,
    /// The aggregation fold's lossless state.
    pub aggregate: AggregateSnapshot,
}

impl SweepCheckpoint {
    /// Writes the checkpoint **atomically and durably**
    /// ([`write_durable_atomic`]): temp file + fsync + rename + directory
    /// fsync, so a crash mid-write leaves the previous checkpoint intact
    /// and a completed save survives power loss, not just process death.
    ///
    /// # Errors
    ///
    /// Surfaces the underlying filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_durable_atomic(path, json.as_bytes())
    }

    /// Reads a checkpoint back, verifying the schema id.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem errors; malformed JSON or an unknown schema
    /// yield [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<SweepCheckpoint> {
        let text = std::fs::read_to_string(path)?;
        let cp: SweepCheckpoint = serde_json::from_str(&text)
            .map_err(|e| invalid(format!("{}: not a checkpoint file: {e}", path.display())))?;
        if cp.schema != CHECKPOINT_SCHEMA {
            return Err(invalid(format!(
                "{}: unknown checkpoint schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                path.display(),
                cp.schema
            )));
        }
        Ok(cp)
    }

    /// Checks that this checkpoint continues exactly the invocation at
    /// hand: same spec fingerprint, same shard, same slice, and a record
    /// log on both sides or neither.
    ///
    /// # Errors
    ///
    /// Returns a human-readable refusal; resuming must not proceed.
    pub fn validate(
        &self,
        spec: &ScenarioSpec,
        shard: Option<ShardRef>,
        slice: &Range<u64>,
        has_jsonl: bool,
    ) -> Result<(), String> {
        let fp = spec_fingerprint(spec);
        if self.fingerprint != fp {
            return Err(format!(
                "checkpoint fingerprint {} does not match spec {} ({}): the spec changed since \
                 the checkpoint was written — refusing to resume",
                self.fingerprint, spec.id, fp
            ));
        }
        if self.shard != shard {
            return Err(format!(
                "checkpoint belongs to shard {} but this invocation is {} — resume with the \
                 same --shard",
                opt_shard(self.shard),
                opt_shard(shard)
            ));
        }
        if self.start != slice.start || self.end != slice.end {
            return Err(format!(
                "checkpoint covers grid slice {}..{} but this invocation covers {}..{}",
                self.start, self.end, slice.start, slice.end
            ));
        }
        if !(self.start..=self.end).contains(&self.next_index) {
            return Err(format!(
                "checkpoint next_index {} outside its own slice {}..{}",
                self.next_index, self.start, self.end
            ));
        }
        if self.jsonl_lines.is_some() != has_jsonl {
            return Err(if has_jsonl {
                "checkpoint has no record log but --records was given — resume without \
                 --records or restart"
                    .to_string()
            } else {
                "checkpoint carries a record log but --records was not given — pass the same \
                 --records path to resume"
                    .to_string()
            });
        }
        Ok(())
    }
}

fn opt_shard(s: Option<ShardRef>) -> String {
    s.map_or_else(|| "<none>".to_string(), |s| s.to_string())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// What [`truncate_jsonl_to_lines`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlTruncation {
    /// Bytes kept (the durable prefix the checkpoint refers to).
    pub kept_bytes: u64,
    /// Complete lines dropped (written after the checkpoint, so the
    /// resumed sweep re-emits them).
    pub dropped_lines: u64,
    /// Bytes removed, complete and torn together.
    pub dropped_bytes: u64,
    /// Whether a torn (unterminated) final line was among the removed —
    /// the signature of a crash mid-write.
    pub torn_tail: bool,
}

/// Prepares a JSONL record log for resume: keeps exactly the first
/// `lines` newline-terminated lines — the prefix the checkpoint declares
/// durable — and truncates everything after, whether complete lines
/// written after the checkpoint or a **torn final line** from a crash
/// mid-write (which would otherwise poison
/// [`radio_structures::runner::RunRecord::from_jsonl`] over the file).
/// The resumed sweep re-emits the truncated records, so the final log is
/// byte-identical to an uninterrupted run's.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the log holds *fewer* complete
/// lines than the checkpoint records — the log was truncated or edited
/// out from under the checkpoint, and resuming would lose records.
pub fn truncate_jsonl_to_lines(path: &Path, lines: u64) -> io::Result<JsonlTruncation> {
    let file = File::open(path)?;
    let total_bytes = file.metadata()?.len();
    let mut reader = io::BufReader::new(file);
    let mut buf = Vec::new();
    let mut complete = 0u64;
    let mut keep_bytes = 0u64;
    let mut offset = 0u64;
    let mut torn_tail = false;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        offset += n as u64;
        if buf.last() == Some(&b'\n') {
            complete += 1;
            if complete <= lines {
                keep_bytes = offset;
            }
        } else {
            torn_tail = true;
        }
    }
    if complete < lines {
        return Err(invalid(format!(
            "{}: checkpoint records {lines} durable JSONL lines but only {complete} complete \
             lines exist — the log was truncated or edited; refusing to resume",
            path.display()
        )));
    }
    let report = JsonlTruncation {
        kept_bytes: keep_bytes,
        dropped_lines: complete - lines,
        dropped_bytes: total_bytes - keep_bytes,
        torn_tail,
    };
    if report.dropped_bytes > 0 {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep_bytes)?;
    }
    Ok(report)
}

/// The record-log sink type the checkpointed runner drives: a JSONL
/// writer over a buffered [`SinkFile`] (a plain file in production; the
/// chaos harness can arm its [`crate::sink::FaultTrip`] to inject
/// deterministic write failures).
pub type FileJsonl = JsonlWriter<BufWriter<SinkFile>>;

/// A checkpointed slice's sinks and starting point, as [`resume_or_start`]
/// restored them from a checkpoint or opened them fresh;
/// [`run_slice_checkpointed`] folds into the sinks.
pub struct SliceState {
    /// The aggregation fold.
    pub agg: StreamAggregate,
    /// The record log, open for writing (`None` = no log).
    pub jsonl: Option<FileJsonl>,
    /// First grid index still to execute.
    pub next_index: u64,
    /// Records durable before the run starts (from the checkpoint).
    pub base_records: u64,
    /// Wall-clock seconds spent before the run starts.
    pub base_wall_s: f64,
    /// What truncating the record log back to the checkpoint's durable
    /// lines removed (`None` = nothing was resumed, or no log rides along).
    pub truncation: Option<JsonlTruncation>,
}

/// Prepares the slice `bounds` for [`run_slice_checkpointed`]. With a
/// `checkpoint` it validates it against the invocation
/// ([`SweepCheckpoint::validate`]), truncates the record log at
/// `jsonl_path` to the checkpoint's durable lines
/// ([`truncate_jsonl_to_lines`]), reopens it for appending, and restores
/// the fold and counters; without one it creates the log and starts an
/// empty fold at `bounds.start`. `wrap` turns the log file into the sink
/// file the writer drives ([`SinkFile::new`], or a fault-armed
/// [`SinkFile::with_trip`]).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the checkpoint does not continue
/// this invocation or its fold does not restore; filesystem errors
/// (naming the log path) otherwise.
pub fn resume_or_start(
    spec: &ScenarioSpec,
    shard: Option<ShardRef>,
    bounds: &Range<u64>,
    checkpoint: Option<SweepCheckpoint>,
    jsonl_path: Option<&Path>,
    wrap: impl FnOnce(File) -> SinkFile,
) -> io::Result<SliceState> {
    let Some(cp) = checkpoint else {
        let jsonl = match jsonl_path {
            Some(path) => {
                let file = File::create(path).map_err(|e| log_error("create", path, e))?;
                Some(JsonlWriter::new(BufWriter::new(wrap(file))))
            }
            None => None,
        };
        return Ok(SliceState {
            agg: StreamAggregate::for_spec(spec),
            jsonl,
            next_index: bounds.start,
            base_records: 0,
            base_wall_s: 0.0,
            truncation: None,
        });
    };
    cp.validate(spec, shard, bounds, jsonl_path.is_some())
        .map_err(invalid)?;
    let (mut jsonl, mut truncation) = (None, None);
    // `validate` guarantees a log on both sides or neither.
    if let (Some(lines), Some(path)) = (cp.jsonl_lines, jsonl_path) {
        truncation = Some(truncate_jsonl_to_lines(path, lines)?);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| log_error("append to", path, e))?;
        jsonl = Some(JsonlWriter::resume(BufWriter::new(wrap(file)), lines));
    }
    Ok(SliceState {
        agg: StreamAggregate::restore_for_spec(spec, cp.aggregate).map_err(invalid)?,
        jsonl,
        next_index: cp.next_index,
        base_records: cp.records,
        base_wall_s: cp.wall_s,
        truncation,
    })
}

/// `e` with the failed step and the record-log path in its message.
fn log_error(what: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("cannot {what} {}: {e}", path.display()))
}

/// How a [`run_slice_checkpointed`] call ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceRun {
    /// First grid index not executed (equals the slice end unless
    /// interrupted by `limit_chunks`).
    pub next_index: u64,
    /// Cumulative records accepted (including the resumed base).
    pub records: u64,
    /// Cumulative wall-clock seconds (including the resumed base).
    pub wall_s: f64,
    /// `true` when the `limit_chunks` testing hook stopped the run early
    /// (the checkpoint, if configured, records `next_index`).
    pub interrupted: bool,
}

/// The chunk-boundary callback a [`SliceJob`] may carry: invoked after
/// every durable chunk with `(next_index, chunks_done)` — `next_index` is
/// the first grid index not yet executed and `chunks_done` counts this
/// invocation's completed chunks (1-based). By the time the hook runs the
/// chunk's sinks have flushed and the checkpoint (if configured) has
/// landed, so the hook is the safe place for the sweep service's
/// heartbeat refresh, lease fencing, and fault injection. A hook error
/// aborts the sweep like a sink error would.
pub type ChunkHook<'a> = &'a mut dyn FnMut(u64, u64) -> io::Result<()>;

/// What [`run_slice_checkpointed`] executes: the spec, the slice and the
/// durability targets (where the slice resumes is the [`SliceState`]'s).
pub struct SliceJob<'a> {
    /// The sweep's spec.
    pub spec: &'a ScenarioSpec,
    /// Chunk size (units per window).
    pub chunk: u64,
    /// The full slice this sweep covers (whole grid, or a shard's range).
    pub bounds: Range<u64>,
    /// The shard identity recorded in checkpoints (`None` = unsharded).
    pub shard: Option<ShardRef>,
    /// Where to write per-chunk checkpoints (`None` = don't checkpoint).
    pub checkpoint_path: Option<&'a Path>,
    /// Testing hook: stop cleanly after this many chunks, leaving the
    /// checkpoint behind — a kill at an exact chunk boundary.
    pub limit_chunks: Option<u64>,
    /// Chunk-boundary callback (`None` = no hook); see [`ChunkHook`].
    pub on_chunk: Option<ChunkHook<'a>>,
}

/// Executes a [`SliceJob`]'s indices from `state.next_index` on, folding
/// into `state.agg` (and `state.jsonl`, when open) and writing a
/// [`SweepCheckpoint`] after **every durable chunk**: sinks flush first, then the checkpoint
/// lands atomically, so the checkpoint never points past durable data
/// and a crash at any moment loses at most the in-flight chunk. On
/// completion the checkpoint file is consumed (deleted).
///
/// Execution is the sweep executor every `--stream` run uses — the same
/// index-ordered windows and shared deterministic builds —
/// so the record stream is identical to
/// [`crate::scenario::run_spec_streaming_range`] over the same indices by
/// construction, and resumed and sharded output is byte-identical to the
/// uninterrupted pipeline's.
///
/// # Errors
///
/// Returns the first sink or checkpoint-write error.
///
/// # Panics
///
/// Panics if the chunk size is zero or `state.next_index` lies outside
/// the slice.
pub fn run_slice_checkpointed(job: SliceJob<'_>, state: &mut SliceState) -> io::Result<SliceRun> {
    let SliceJob {
        spec,
        chunk,
        bounds,
        shard,
        checkpoint_path,
        limit_chunks,
        mut on_chunk,
    } = job;
    let todo = state.next_index..bounds.end;
    assert!(
        (bounds.start..=bounds.end).contains(&todo.start),
        "resume index {} outside the sweep bounds {bounds:?}",
        todo.start
    );
    let base_wall_s = state.base_wall_s;
    let mut records = state.base_records;
    let agg = &mut state.agg;
    let mut jsonl = state.jsonl.as_mut();
    let fingerprint = spec_fingerprint(spec);
    let started = Instant::now();
    let mut next_index = todo.start;
    let mut chunks_done = 0u64;
    // Set only by the limit_chunks hook, immediately before it raises its
    // sentinel error — so a genuine sink error can never be mistaken for
    // the simulated kill, whatever its ErrorKind.
    let mut hit_limit = false;
    let interrupted = io::ErrorKind::Interrupted;
    let result = run_windows(spec, todo, chunk, |window_start, window| {
        for (unit, recs) in &window {
            records += recs.len() as u64;
            agg.accept(spec, unit, recs)?;
            if let Some(log) = jsonl.as_deref_mut() {
                log.accept(spec, unit, recs)?;
            }
        }
        // Durability order: sinks flush (and, when a checkpoint will
        // reference them, fsync), then the checkpoint lands — so the
        // checkpoint never records a line count that could vanish in
        // a power loss.
        if let Some(log) = jsonl.as_deref_mut() {
            log.flush_chunk()?;
            if checkpoint_path.is_some() {
                log.sync_data()?;
            }
        }
        next_index = window_start + window.len() as u64;
        if let Some(path) = checkpoint_path {
            SweepCheckpoint {
                schema: CHECKPOINT_SCHEMA.to_string(),
                fingerprint: fingerprint.clone(),
                shard,
                start: bounds.start,
                end: bounds.end,
                next_index,
                records,
                wall_s: base_wall_s + started.elapsed().as_secs_f64(),
                jsonl_lines: jsonl.as_ref().map(|log| log.lines()),
                aggregate: agg.snapshot(),
            }
            .save(path)?;
        }
        chunks_done += 1;
        if let Some(hook) = on_chunk.as_deref_mut() {
            hook(next_index, chunks_done)?;
        }
        if limit_chunks == Some(chunks_done) && next_index < bounds.end {
            hit_limit = true;
            return Err(io::Error::new(interrupted, "chunk limit reached"));
        }
        Ok(())
    });
    match result {
        Ok(()) => {
            if let Some(path) = checkpoint_path {
                // The checkpoint is consumed; a leftover file would make a
                // later identical invocation refuse to start fresh.
                if let Err(e) = std::fs::remove_file(path) {
                    if e.kind() != io::ErrorKind::NotFound {
                        return Err(e);
                    }
                }
            }
            Ok(SliceRun {
                next_index: bounds.end,
                records,
                wall_s: base_wall_s + started.elapsed().as_secs_f64(),
                interrupted: false,
            })
        }
        // Only the armed testing hook maps to a clean interrupt — a
        // genuine sink error that happens to carry ErrorKind::Interrupted
        // must still surface as the error it is.
        Err(e) if hit_limit && e.kind() == interrupted => Ok(SliceRun {
            next_index,
            records,
            wall_s: base_wall_s + started.elapsed().as_secs_f64(),
            interrupted: true,
        }),
        Err(e) => Err(e),
    }
}

/// One shard's finished slice, self-describing enough to merge: the spec
/// (and its fingerprint), the slice bounds, the shard's lossless
/// aggregate fold, and the path of its record log, if one was written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPartial {
    /// The literal [`PARTIAL_SCHEMA`].
    pub schema: String,
    /// [`spec_fingerprint`] of `spec`.
    pub fingerprint: String,
    /// Which shard of how many.
    pub shard: ShardRef,
    /// First grid index of the shard's slice.
    pub start: u64,
    /// One past the last grid index of the shard's slice.
    pub end: u64,
    /// Records the slice produced.
    pub records: u64,
    /// Wall-clock seconds the shard spent.
    pub wall_s: f64,
    /// The `--records` JSONL path this shard wrote, if any (as given on
    /// its command line; `merge --records` concatenates these in shard
    /// order).
    pub records_path: Option<String>,
    /// The sweep's spec, verbatim — merge renders the final table from
    /// it without re-reading the original spec file.
    pub spec: ScenarioSpec,
    /// The shard's aggregate fold.
    pub aggregate: AggregateSnapshot,
}

impl ShardPartial {
    /// Writes the partial artifact (atomically and durably, like a
    /// checkpoint — [`write_durable_atomic`]).
    ///
    /// # Errors
    ///
    /// Surfaces the underlying filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_durable_atomic(path, json.as_bytes())
    }

    /// Reads a partial back, verifying the schema id.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem errors; malformed JSON or an unknown schema
    /// yield [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<ShardPartial> {
        let text = std::fs::read_to_string(path)?;
        let p: ShardPartial = serde_json::from_str(&text)
            .map_err(|e| invalid(format!("{}: not a shard partial: {e}", path.display())))?;
        if p.schema != PARTIAL_SCHEMA {
            return Err(invalid(format!(
                "{}: unknown partial schema {:?} (expected {PARTIAL_SCHEMA:?})",
                path.display(),
                p.schema
            )));
        }
        Ok(p)
    }
}

/// A complete sweep reassembled from shard partials.
pub struct MergedSweep {
    /// The sweep's spec (identical across all partials).
    pub spec: ScenarioSpec,
    /// The combined fold, ready to render — byte-identical to the
    /// single-process sweep's.
    pub agg: StreamAggregate,
    /// Total units (= the grid product).
    pub units: u64,
    /// Total records across all shards.
    pub records: u64,
    /// Summed shard wall-clock seconds (CPU-time-like; shards usually ran
    /// concurrently).
    pub wall_s: f64,
    /// Each shard's record-log path (shard order) — `merge --records`
    /// concatenates them.
    pub records_paths: Vec<Option<String>>,
}

/// Folds shard partials back into the single sweep. Partials may arrive
/// in any order on the command line; they are sorted by shard index and
/// merged **in shard order** (the merge-order invariant — ordered merges
/// replay samples, so the fold is bit-identical to the uninterrupted
/// run). Refuses mixed fingerprints, duplicate or missing shards, gaps,
/// or slices that don't tile the grid exactly.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] with a human-readable reason for every
/// refusal above.
pub fn merge_partials(partials: Vec<ShardPartial>) -> io::Result<MergedSweep> {
    let mut parts = partials;
    if parts.is_empty() {
        return Err(invalid("no partials to merge".to_string()));
    }
    parts.sort_by_key(|p| p.shard.index);
    let first = &parts[0];
    let count = first.shard.count;
    if parts.len() as u64 != count {
        return Err(invalid(format!(
            "partials declare {count} shards but {} were given",
            parts.len()
        )));
    }
    let total = first.spec.checked_grid_size().ok_or_else(|| {
        invalid(format!(
            "spec {}: the grid product overflows",
            first.spec.id
        ))
    })? as u64;
    let mut expected_start = 0u64;
    for (i, p) in parts.iter().enumerate() {
        if p.fingerprint != first.fingerprint || p.spec != first.spec {
            return Err(invalid(format!(
                "shard {} was cut from a different spec (fingerprint {} vs {}) — refusing to \
                 merge",
                p.shard, p.fingerprint, first.fingerprint
            )));
        }
        if p.shard.count != count {
            return Err(invalid(format!(
                "shard {} disagrees on the shard count (expected {count})",
                p.shard
            )));
        }
        if p.shard.index != i as u64 {
            return Err(invalid(format!(
                "duplicate or missing shard: expected index {i}, found {}",
                p.shard
            )));
        }
        if p.start != expected_start {
            return Err(invalid(format!(
                "shard {} starts at {} but the previous slice ended at {expected_start} — \
                 slices must tile the grid contiguously",
                p.shard, p.start
            )));
        }
        if p.end < p.start {
            return Err(invalid(format!("shard {} has an inverted slice", p.shard)));
        }
        expected_start = p.end;
    }
    if expected_start != total {
        return Err(invalid(format!(
            "slices cover 0..{expected_start} but the grid holds {total} units"
        )));
    }
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Err(invalid("no shard partials to merge".to_string()));
    };
    let spec = first.spec;
    let mut agg = StreamAggregate::restore_for_spec(&spec, first.aggregate)
        .map_err(|e| invalid(format!("shard 0: {e}")))?;
    let (mut records, mut wall_s) = (first.records, first.wall_s);
    let mut records_paths = vec![first.records_path];
    for p in parts {
        agg.merge_snapshot(&p.aggregate)
            .map_err(|e| invalid(format!("shard {}: {e}", p.shard)))?;
        records += p.records;
        wall_s += p.wall_s;
        records_paths.push(p.records_path);
    }
    Ok(MergedSweep {
        spec,
        agg,
        units: total,
        records,
        wall_s,
        records_paths,
    })
}

/// Concatenates the shards' record logs, in shard order, into `out` —
/// the JSONL stream an unsharded sweep would have written, byte for
/// byte. Every shard must have logged records (all-or-nothing across the
/// fleet).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when a shard recorded no log path;
/// filesystem errors surface as-is.
pub fn concat_record_logs(paths: &[Option<String>], out: &Path) -> io::Result<u64> {
    let mut writer = BufWriter::new(File::create(out)?);
    let mut bytes = 0u64;
    for (i, p) in paths.iter().enumerate() {
        let p = p.as_ref().ok_or_else(|| {
            invalid(format!(
                "shard {i} wrote no record log (--records was not passed to it) — cannot \
                 assemble a merged log"
            ))
        })?;
        let mut f = File::open(p)?;
        bytes += io::copy(&mut f, &mut writer)?;
    }
    writer.flush()?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        run_spec_streaming, NestOrder, RenderKind, ScenarioSpec, SeedPolicy, StopCondition,
        TopologyEntry, WorkloadEntry,
    };
    use radio_sim::spec::{AdversaryKind, TopologyKind};
    use radio_structures::runner::AlgoKind;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            id: "CKPT".to_string(),
            caption: "checkpoint unit test".to_string(),
            render: RenderKind::Aggregate,
            topologies: vec![
                TopologyEntry::new(TopologyKind::Clique { n: 5 }),
                TopologyEntry::new(TopologyKind::Path { n: 6 }),
            ],
            adversaries: vec![AdversaryKind::ReliableOnly],
            workloads: vec![WorkloadEntry::core(AlgoKind::Mis)],
            trials: 4,
            nest: NestOrder::TopologyMajor,
            seeds: SeedPolicy {
                net_base: 31,
                run_base: 8,
            },
            stop: StopCondition::Default,
            aggregate: None,
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("radio_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let a = spec();
        let mut b = spec();
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&a));
        b.trials += 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
        b = spec();
        b.seeds.run_base += 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn shard_ranges_tile_the_grid() {
        for total in [0u64, 1, 7, 8, 100] {
            for m in [1u64, 2, 3, 7, 13] {
                let mut next = 0u64;
                for i in 0..m {
                    let r = shard_range(total, ShardRef { index: i, count: m });
                    assert_eq!(r.start, next, "total {total}, shard {i}/{m}");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, total, "total {total}, {m} shards");
            }
        }
        assert!(ShardRef::parse("2/4").is_ok());
        assert!(ShardRef::parse("4/4").is_err());
        assert!(ShardRef::parse("0/0").is_err());
        assert!(ShardRef::parse("1-4").is_err());
    }

    #[test]
    fn checkpoint_roundtrips_and_validates() {
        let dir = scratch("roundtrip");
        let spec = spec();
        let mut agg = StreamAggregate::for_spec(&spec);
        run_spec_streaming(&spec, 3, &mut [&mut agg]).expect("no I/O");
        let cp = SweepCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            fingerprint: spec_fingerprint(&spec),
            shard: None,
            start: 0,
            end: spec.grid_size() as u64,
            next_index: 3,
            records: 3,
            wall_s: 0.25,
            jsonl_lines: None,
            aggregate: agg.snapshot(),
        };
        let path = dir.join("cp.json");
        cp.save(&path).expect("saves");
        let back = SweepCheckpoint::load(&path).expect("loads");
        assert_eq!(back, cp);
        let full = 0..spec.grid_size() as u64;
        assert!(back.validate(&spec, None, &full, false).is_ok());
        // Fingerprint mismatch refused.
        let mut other = spec.clone();
        other.trials += 1;
        let r = back.validate(&other, None, &(0..other.grid_size() as u64), false);
        assert!(r.is_err_and(|e| e.contains("fingerprint")));
        // Shard / slice / jsonl mismatches refused.
        assert!(back
            .validate(&spec, Some(ShardRef { index: 0, count: 2 }), &full, false)
            .is_err());
        assert!(back.validate(&spec, None, &(1..full.end), false).is_err());
        assert!(back.validate(&spec, None, &full, true).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_truncation_drops_torn_and_extra_lines() {
        let dir = scratch("torn");
        let path = dir.join("log.jsonl");
        // Three durable lines, one extra complete line, one torn tail.
        std::fs::write(&path, "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n{\"a\":4}\n{\"a\":")
            .expect("writes");
        let rep = truncate_jsonl_to_lines(&path, 3).expect("truncates");
        assert_eq!(rep.dropped_lines, 1);
        assert!(rep.torn_tail);
        assert!(rep.dropped_bytes > 0);
        assert_eq!(
            std::fs::read_to_string(&path).expect("reads"),
            "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n"
        );
        // Already-clean log: nothing dropped.
        let rep = truncate_jsonl_to_lines(&path, 3).expect("clean");
        assert_eq!(rep.dropped_bytes, 0);
        assert!(!rep.torn_tail);
        // Fewer durable lines than the checkpoint claims: refuse.
        assert!(truncate_jsonl_to_lines(&path, 5).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_error_surfaces_without_advancing_checkpoint() {
        use crate::sink::{FaultTrip, INJECTED_SINK_ERROR};

        let dir = scratch("sinkerr");
        let spec = spec();
        let total = spec.grid_size() as u64;
        let job = |checkpoint_path, on_chunk| SliceJob {
            spec: &spec,
            chunk: 2,
            bounds: 0..total,
            shard: None,
            checkpoint_path: Some(checkpoint_path),
            limit_chunks: None,
            on_chunk,
        };
        let start = |cp, path: &Path, wrap: &dyn Fn(File) -> SinkFile| {
            resume_or_start(&spec, None, &(0..total), cp, Some(path), wrap).expect("starts")
        };
        let ref_cp = dir.join("ref.ckpt");
        let cp = dir.join("cp.json");

        // Reference: the same slice, uninterrupted.
        let ref_jsonl = dir.join("ref.jsonl");
        let mut reference = start(None, &ref_jsonl, &SinkFile::new);
        run_slice_checkpointed(job(&ref_cp, None), &mut reference).expect("reference runs");
        reference
            .jsonl
            .take()
            .expect("log")
            .finish()
            .expect("finishes");

        // Faulted run: arm the trip at the first chunk boundary, so the
        // second chunk's record-log flush fails mid-sweep.
        let jsonl_path = dir.join("out.jsonl");
        let trip = FaultTrip::new();
        let mut faulted = start(None, &jsonl_path, &|f| SinkFile::with_trip(f, trip.clone()));
        let mut arm = |_next: u64, chunks_done: u64| {
            if chunks_done == 1 {
                trip.arm();
            }
            Ok(())
        };
        let err = run_slice_checkpointed(job(&cp, Some(&mut arm)), &mut faulted)
            .expect_err("armed trip must surface as the sweep error");
        assert!(
            err.to_string().contains(INJECTED_SINK_ERROR),
            "unexpected error: {err}"
        );
        drop(faulted);

        // The checkpoint still describes the last durable chunk — the
        // failed chunk never advanced it.
        let back = SweepCheckpoint::load(&cp).expect("checkpoint survives the fault");
        assert_eq!(back.next_index, 2, "failed chunk must not advance");
        assert!(back.jsonl_lines.is_some(), "log line count recorded");

        // Resume with a healthy sink: truncate to the durable prefix,
        // restore, finish — byte-identical to the uninterrupted run.
        let mut resumed = start(Some(back), &jsonl_path, &SinkFile::new);
        assert_eq!(resumed.next_index, 2);
        let run = run_slice_checkpointed(job(&cp, None), &mut resumed).expect("resumes");
        resumed
            .jsonl
            .take()
            .expect("log")
            .finish()
            .expect("finishes");
        assert_eq!(run.records, total);
        assert!(!cp.exists(), "completed run consumes its checkpoint");
        assert_eq!(
            std::fs::read(&jsonl_path).expect("reads"),
            std::fs::read(&ref_jsonl).expect("reads"),
            "resumed record log must match the uninterrupted run byte-for-byte"
        );
        assert_eq!(
            resumed.agg.table(&spec).render(),
            reference.agg.table(&spec).render(),
            "resumed table must match the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_inconsistent_partials() {
        let spec = spec();
        let total = spec.grid_size() as u64;
        let partial = |index: u64, count: u64| {
            let r = shard_range(total, ShardRef { index, count });
            let mut agg = StreamAggregate::for_spec(&spec);
            crate::scenario::run_spec_streaming_range(&spec, 4, r.clone(), &mut [&mut agg])
                .expect("no I/O");
            ShardPartial {
                schema: PARTIAL_SCHEMA.to_string(),
                fingerprint: spec_fingerprint(&spec),
                shard: ShardRef { index, count },
                start: r.start,
                end: r.end,
                records: r.end - r.start,
                wall_s: 0.0,
                records_path: None,
                spec: spec.clone(),
                aggregate: agg.snapshot(),
            }
        };
        // A valid pair merges.
        assert!(merge_partials(vec![partial(1, 2), partial(0, 2)]).is_ok());
        // Missing shard.
        assert!(merge_partials(vec![partial(0, 2)]).is_err());
        // Duplicate shard.
        assert!(merge_partials(vec![partial(0, 2), partial(0, 2)]).is_err());
        // Mixed fingerprints.
        let mut foreign = partial(1, 2);
        foreign.fingerprint = "0000000000000000".to_string();
        assert!(merge_partials(vec![partial(0, 2), foreign]).is_err());
        assert!(merge_partials(Vec::new()).is_err(), "empty merge refused");
    }
}
