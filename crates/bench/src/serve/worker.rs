//! The worker process: lease a shard, execute it through the
//! checkpointed driver, publish the partial — repeat until nothing in
//! the spool is active.
//!
//! Workers are deliberately stateless between shards: everything they
//! know comes from the spool ([`super::spool`]), so a worker can crash
//! at any instant and a replacement (or a takeover by a peer) continues
//! from the dead worker's own checkpoint. The executing core is the
//! same [`run_slice_checkpointed`] driver the single-process
//! `--checkpoint` path uses; the service wraps it with a chunk-boundary
//! hook that (in order) fires any scheduled faults, then heartbeats and
//! **fences**: if the shard's claim changed hands, the worker abandons
//! the shard mid-flight rather than publish over the new owner.
//!
//! Outcomes per leased shard:
//!
//! * **published** — the slice finished; its record log was fsynced and
//!   its [`ShardPartial`] landed durably; the claim is released.
//! * **abandoned** — the fence saw a takeover; nothing is written, the
//!   claim (now someone else's) is left alone, and no failure is
//!   counted — the takeover's attempt owns the shard now.
//! * **failed** — a sink/hook error; a durable [`FailNote`] marker
//!   lands (bounded retry: markers count toward `max_retries` and gate
//!   backoff) and the claim is released.

use super::fault::{FaultAction, FaultEvent, FaultPlan};
use super::spool::{
    attempt_superseded, heartbeat_and_fence, list_specs, release_claim, scan_spec,
    try_acquire_claim, Claim, FailNote, ShardState, SpecDir, SpecPhase, SpoolManifest,
};
use crate::checkpoint::{
    resume_or_start, run_slice_checkpointed, shard_range, spec_fingerprint, ShardPartial, ShardRef,
    SliceJob, SweepCheckpoint, PARTIAL_SCHEMA,
};
use crate::parallel::ThreadPool;
use crate::scenario::ScenarioSpec;
use crate::sink::{FaultTrip, SinkFile};
use std::cell::Cell;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::{Duration, SystemTime};

/// How a worker runs: where the spool is, who the worker is, how often
/// it polls, and which faults (if any) it injects.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The spool directory shared with the coordinator.
    pub spool: PathBuf,
    /// This worker's id — the `owner` its claims carry.
    pub worker_id: String,
    /// Idle poll interval (nothing leasable right now).
    pub poll_ms: u64,
    /// Scoped thread-pool width for shard execution (`None` = the
    /// process-global pool).
    pub threads: Option<usize>,
    /// The deterministic fault schedule, if chaos is on.
    pub fault_plan: Option<FaultPlan>,
}

/// What a worker did before exiting cleanly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shards published.
    pub published: u64,
    /// Attempts abandoned at a fence (taken over by a peer).
    pub abandoned: u64,
    /// Attempts that failed (left a marker).
    pub failed: u64,
}

/// How one leased shard attempt ended (see the module docs).
enum ShardOutcome {
    Published,
    Abandoned,
    Failed,
}

enum AttemptError {
    /// The fence saw a takeover — not a failure, no marker.
    LeaseLost,
    /// A genuine attempt error — marker, release, bounded retry.
    Fail(io::Error),
}

/// Runs the worker loop until no spec in the spool is active: scan the
/// queue in order, lease the first available shard (open, or expired
/// for takeover), execute it, repeat; sleep `poll_ms` when everything
/// is leased out or backing off. Exits when every spec is terminal.
///
/// # Errors
///
/// Surfaces spool-level I/O failures (the shared directory itself
/// misbehaving) — per-attempt errors are recorded as failure markers
/// instead, and the coordinator's respawn budget covers worker exits.
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<WorkerReport> {
    let pool = cfg.threads.map(ThreadPool::new);
    let mut report = WorkerReport::default();
    loop {
        let specs = list_specs(&cfg.spool)?;
        let mut any_active = false;
        let mut leased: Option<(SpecDir, SpoolManifest, u64, Claim)> = None;
        for sd in &specs {
            let manifest = sd.load_manifest()?;
            let scan = scan_spec(sd, &manifest, SystemTime::now())?;
            if scan.phase != SpecPhase::Active {
                continue;
            }
            any_active = true;
            if let Some((shard, claim)) = try_lease(sd, &scan, &cfg.worker_id)? {
                leased = Some((sd.clone(), manifest, shard, claim));
                break;
            }
        }
        match leased {
            Some((sd, manifest, shard, claim)) => {
                match run_shard(cfg, &sd, &manifest, shard, claim, pool.as_ref())? {
                    ShardOutcome::Published => report.published += 1,
                    ShardOutcome::Abandoned => report.abandoned += 1,
                    ShardOutcome::Failed => report.failed += 1,
                }
            }
            None if any_active => std::thread::sleep(Duration::from_millis(cfg.poll_ms)),
            None => break,
        }
    }
    Ok(report)
}

/// Leases the first available shard of a scanned spec. Open shards are
/// acquired at their next attempt number; an expired lease is taken
/// over by acquiring `attempt + 1`'s claim file. Both paths are the
/// same create-exclusive `hard_link` — exactly one worker ever owns a
/// given attempt, so racing workers can't both run (and stomp) the
/// shard's shared checkpoint and record log. Losing the race is fine:
/// the next scan sees the winner's claim.
///
/// The scan may be stale: the attempt it names can have run, published
/// (or failed) and released its claim since, leaving the claim path free.
/// So a won claim counts only if no later state supersedes it
/// ([`attempt_superseded`]) and the attempt left no failure marker;
/// otherwise it is released and the next shard tried, before anything
/// touches the shard's checkpoint or log.
fn try_lease(
    sd: &SpecDir,
    scan: &super::spool::SpecScan,
    worker_id: &str,
) -> io::Result<Option<(u64, Claim)>> {
    for view in &scan.shards {
        let (attempt, takeover) = match &view.state {
            ShardState::Open { next_attempt, .. } => (*next_attempt, None),
            ShardState::Expired { owner, attempt, .. } => (attempt + 1, Some((owner, attempt))),
            _ => continue,
        };
        let claim = Claim::new(worker_id, attempt);
        let path = sd.claim_path(view.index, attempt);
        if !try_acquire_claim(&path, &claim)? {
            continue;
        }
        if attempt_superseded(sd, view.index, attempt)?
            || sd.fail_path(view.index, attempt).is_file()
        {
            release_claim(&path)?;
            continue;
        }
        if let Some((owner, stale)) = takeover {
            eprintln!(
                "[{worker_id}] taking over shard {} of {} (lease of {owner} attempt {stale} \
                 expired)",
                view.index,
                sd.name()
            );
        }
        return Ok(Some((view.index, claim)));
    }
    Ok(None)
}

/// Runs one leased shard end to end and settles the claim.
fn run_shard(
    cfg: &WorkerConfig,
    sd: &SpecDir,
    manifest: &SpoolManifest,
    shard: u64,
    claim: Claim,
    pool: Option<&ThreadPool>,
) -> io::Result<ShardOutcome> {
    let spec = sd.load_spec()?;
    if spec_fingerprint(&spec) != manifest.fingerprint {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: spec.json fingerprint does not match the manifest — the spool was edited \
                 after submission",
                sd.name()
            ),
        ));
    }
    eprintln!(
        "[{}] leased shard {shard} of {} (attempt {})",
        cfg.worker_id,
        sd.name(),
        claim.attempt
    );
    match execute_attempt(cfg, sd, manifest, &spec, shard, &claim, pool) {
        Ok(()) => {
            release_claim(&sd.claim_path(shard, claim.attempt))?;
            eprintln!(
                "[{}] published shard {shard} of {}",
                cfg.worker_id,
                sd.name()
            );
            Ok(ShardOutcome::Published)
        }
        Err(AttemptError::LeaseLost) => {
            // Our attempt's claim file is ours alone — releasing it just
            // tidies the ledger; the takeover's higher-numbered claim is
            // untouched and stays the live one.
            release_claim(&sd.claim_path(shard, claim.attempt))?;
            eprintln!(
                "[{}] abandoning shard {shard} of {} (lease taken over)",
                cfg.worker_id,
                sd.name()
            );
            Ok(ShardOutcome::Abandoned)
        }
        Err(AttemptError::Fail(e)) => {
            eprintln!(
                "[{}] shard {shard} of {} attempt {} failed: {e}",
                cfg.worker_id,
                sd.name(),
                claim.attempt
            );
            let note = FailNote {
                worker: cfg.worker_id.clone(),
                attempt: claim.attempt,
                error: e.to_string(),
            };
            let json = crate::checkpoint::json_pretty(&note)?;
            crate::checkpoint::write_durable_atomic(
                &sd.fail_path(shard, claim.attempt),
                json.as_bytes(),
            )?;
            release_claim(&sd.claim_path(shard, claim.attempt))?;
            Ok(ShardOutcome::Failed)
        }
    }
}

/// One attempt at a leased shard: resume from the shard's checkpoint if
/// one exists (truncating a torn record-log tail), execute the
/// remaining slice with the heartbeat/fence/fault hook at every chunk
/// boundary, fsync the log, and publish the partial.
fn execute_attempt(
    cfg: &WorkerConfig,
    sd: &SpecDir,
    manifest: &SpoolManifest,
    spec: &ScenarioSpec,
    shard: u64,
    claim: &Claim,
    pool: Option<&ThreadPool>,
) -> Result<(), AttemptError> {
    let sref = ShardRef {
        index: shard,
        count: manifest.shards,
    };
    let total = spec.grid_size() as u64;
    let bounds = shard_range(total, sref);
    let ckpt_path = sd.checkpoint_path(shard);
    let jsonl_path = sd.jsonl_path(shard);
    let fail = AttemptError::Fail;

    // A checkpoint left by a crashed attempt resumes; a corrupt one is
    // discarded (the attempt restarts the slice from scratch — correct,
    // just slower); a mismatched one is a real error.
    let cp = match SweepCheckpoint::load(&ckpt_path) {
        Ok(cp) => Some(cp),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => {
            eprintln!(
                "[{}] discarding unreadable checkpoint {}: {e}",
                cfg.worker_id,
                ckpt_path.display()
            );
            let _ = std::fs::remove_file(&ckpt_path);
            None
        }
    };
    let resuming = cp.is_some();
    let trip = FaultTrip::new();
    let mut state = resume_or_start(
        spec,
        Some(sref),
        &bounds,
        cp,
        manifest.records.then_some(jsonl_path.as_path()),
        |file| SinkFile::with_trip(file, trip.clone()),
    )
    .map_err(fail)?;
    if let Some(t) = state.truncation.filter(|t| t.dropped_bytes > 0) {
        eprintln!(
            "[{}] {}: dropped {} byte(s) past the checkpoint ({} complete line(s){}) — this \
             attempt re-emits them",
            cfg.worker_id,
            jsonl_path.display(),
            t.dropped_bytes,
            t.dropped_lines,
            if t.torn_tail {
                " plus a torn final line"
            } else {
                ""
            }
        );
    }
    if resuming {
        eprintln!(
            "[{}] resuming shard {shard} at grid index {} of {}..{} ({} records durable)",
            cfg.worker_id, state.next_index, bounds.start, bounds.end, state.base_records
        );
    }

    let faults: Vec<&FaultEvent> = cfg.fault_plan.as_ref().map_or_else(Vec::new, |p| {
        p.events_for(&cfg.worker_id, &spec.id, shard, claim.attempt)
    });
    // at_chunk == 0 fires before the attempt's first chunk.
    fire_faults(cfg, &faults, 0, &jsonl_path, &trip, manifest.records);

    let lease_lost = Cell::new(false);
    let mut beat = claim.beat;
    let mut hook = |_next_index: u64, chunks_done: u64| -> io::Result<()> {
        fire_faults(
            cfg,
            &faults,
            chunks_done,
            &jsonl_path,
            &trip,
            manifest.records,
        );
        beat += 1;
        let mine = Claim {
            schema: claim.schema.clone(),
            owner: claim.owner.clone(),
            attempt: claim.attempt,
            beat,
        };
        if heartbeat_and_fence(sd, shard, &mine)? {
            Ok(())
        } else {
            lease_lost.set(true);
            Err(io::Error::other("lease lost at fence"))
        }
    };

    let job = SliceJob {
        spec,
        chunk: manifest.chunk,
        bounds: bounds.clone(),
        shard: Some(sref),
        checkpoint_path: Some(&ckpt_path),
        limit_chunks: None,
        on_chunk: Some(&mut hook),
    };
    let run_slice = || run_slice_checkpointed(job, &mut state);
    let run = match pool {
        Some(p) => p.install(run_slice),
        None => run_slice(),
    }
    .map_err(|e| {
        if lease_lost.get() {
            AttemptError::LeaseLost
        } else {
            AttemptError::Fail(e)
        }
    })?;

    // The partial must never reference record-log lines that could
    // vanish in a power loss: flush + fsync before publishing.
    let records_path = match state.jsonl {
        Some(mut log) => {
            log.sync_data().map_err(fail)?;
            Some(jsonl_path.to_string_lossy().into_owned())
        }
        None => None,
    };
    let partial = ShardPartial {
        schema: PARTIAL_SCHEMA.to_string(),
        fingerprint: manifest.fingerprint.clone(),
        shard: sref,
        start: bounds.start,
        end: bounds.end,
        records: run.records,
        wall_s: run.wall_s,
        records_path,
        spec: spec.clone(),
        aggregate: state.agg.snapshot(),
    };
    partial.save(&sd.partial_path(shard)).map_err(fail)?;
    Ok(())
}

/// Fires every fault scheduled for this boundary, in plan order. Kills
/// never return.
fn fire_faults(
    cfg: &WorkerConfig,
    faults: &[&FaultEvent],
    chunks_done: u64,
    jsonl_path: &std::path::Path,
    trip: &FaultTrip,
    records: bool,
) {
    for ev in faults.iter().filter(|e| e.at_chunk == chunks_done) {
        match &ev.action {
            FaultAction::Kill { tear_jsonl } => {
                if *tear_jsonl && records {
                    // Simulate a crash mid-write: an unterminated JSON
                    // fragment after the last durable line. The buffer
                    // was flushed at this boundary, so the fragment
                    // lands past everything the checkpoint counts.
                    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(jsonl_path) {
                        let _ = f.write_all(b"{\"torn\":");
                        let _ = f.sync_data();
                    }
                }
                eprintln!(
                    "[{}] fault: kill at chunk {chunks_done}{}",
                    cfg.worker_id,
                    if *tear_jsonl {
                        " (tearing record log)"
                    } else {
                        ""
                    }
                );
                std::process::exit(137);
            }
            FaultAction::StallHeartbeat { stall_ms } => {
                eprintln!(
                    "[{}] fault: stalling heartbeat {stall_ms}ms at chunk {chunks_done}",
                    cfg.worker_id
                );
                std::thread::sleep(Duration::from_millis(*stall_ms));
            }
            FaultAction::SinkError => {
                eprintln!(
                    "[{}] fault: arming sink error at chunk {chunks_done}",
                    cfg.worker_id
                );
                trip.arm();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        NestOrder, RenderKind, SeedPolicy, StopCondition, TopologyEntry, WorkloadEntry,
    };
    use crate::serve::spool::{submit_spec, SubmitConfig};
    use radio_sim::spec::{AdversaryKind, TopologyKind};
    use radio_structures::runner::AlgoKind;

    #[test]
    fn a_stale_scan_never_reruns_a_concluded_attempt() {
        let spool = std::env::temp_dir().join(format!("radio_worker_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let spec = ScenarioSpec {
            id: "STALE".to_string(),
            caption: "stale scan".to_string(),
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
        };
        let submit = SubmitConfig {
            shards: 2,
            chunk: 1,
            lease_ms: 60_000,
            max_retries: 3,
            backoff_ms: 50,
            records: true,
        };
        let sd = submit_spec(&spool, 0, &spec, &submit).expect("submits");
        let manifest = sd.load_manifest().expect("manifest loads");
        // Both shards open at attempt 0.
        let stale = scan_spec(&sd, &manifest, SystemTime::now()).expect("scans");
        let cfg = WorkerConfig {
            spool: spool.clone(),
            worker_id: "wA".to_string(),
            poll_ms: 1,
            threads: Some(1),
            fault_plan: None,
        };
        let (shard, claim) = try_lease(&sd, &stale, "wA").expect("leases").unwrap();
        assert_eq!((shard, claim.attempt), (0, 0));
        let outcome = run_shard(&cfg, &sd, &manifest, shard, claim, None).expect("runs");
        assert!(matches!(outcome, ShardOutcome::Published));
        assert!(
            !sd.claim_path(0, 0).exists(),
            "publishing releases the claim"
        );
        let log = std::fs::read(sd.jsonl_path(0)).expect("published log");
        assert!(!log.is_empty());
        // A second worker still holds the scan from before that lease:
        // shard 0 open at attempt 0, whose claim path is free again. It
        // must pass over the published shard and lease shard 1.
        let (shard, claim) = try_lease(&sd, &stale, "wB").expect("leases").unwrap();
        assert_eq!((shard, claim.attempt), (1, 0));
        assert!(!sd.claim_path(0, 0).exists(), "the won claim is released");
        assert_eq!(std::fs::read(sd.jsonl_path(0)).expect("log"), log);
        // Shard 1's attempt 0 fails: its marker lands and its claim is
        // released. A third worker with the same scan must start neither
        // shard, since that attempt number is spent on both.
        std::fs::write(sd.fail_path(1, 0), "{}").expect("marker writes");
        release_claim(&sd.claim_path(1, 0)).expect("releases");
        assert!(try_lease(&sd, &stale, "wC").expect("scans").is_none());
        assert!(!sd.claim_path(1, 0).exists(), "the won claim is released");
        let _ = std::fs::remove_dir_all(&spool);
    }
}
