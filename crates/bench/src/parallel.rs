//! Data-parallel trial execution with serial-identical results.
//!
//! Experiments are embarrassingly parallel across trials: every trial
//! derives its own seeds (network seed, engine seed, adversary seed) from
//! the trial index, so trials share no mutable state. [`run_trials`] fans
//! them out over rayon and returns results **in trial order**, which makes
//! parallel sweeps bit-identical to the serial `for s in 0..trials` loop
//! they replace — a property the determinism regression test pins down.
//!
//! Parallelism is sized by the ambient [`rayon::ThreadPool`] when one is
//! installed (see [`run_trials_in`]), falling back to `RAYON_NUM_THREADS`
//! and then the machine's parallelism. Prefer a scoped pool over the env
//! var: pools are per-run values, so concurrent sweeps in one process
//! don't race on global state. `RAYON_NUM_THREADS=1` still forces serial
//! execution when no pool is installed (e.g. when profiling a trial).

use rayon::prelude::*;
pub use rayon::ThreadPool;

/// Runs `trials` independent trials of `f` in parallel, returning
/// `[f(0), f(1), …]` exactly as the serial loop would.
///
/// `f` must derive all randomness from its trial index; it is executed
/// once per index, in unspecified temporal order, with results reassembled
/// by index.
///
/// # Examples
///
/// ```
/// let parallel = radio_bench::parallel::run_trials(16, |t| t * t);
/// let serial: Vec<u64> = (0..16).map(|t| t * t).collect();
/// assert_eq!(parallel, serial);
/// ```
pub fn run_trials<R, F>(trials: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    (0..trials).into_par_iter().map(f).collect()
}

/// [`run_trials`] on an explicit scoped pool: the fan-out uses the pool's
/// worker count instead of the ambient/global configuration. Results are
/// identical to [`run_trials`] (and to the serial loop) — only the degree
/// of parallelism changes.
///
/// # Examples
///
/// ```
/// use radio_bench::parallel::{run_trials, run_trials_in, ThreadPool};
/// let pool = ThreadPool::new(2);
/// assert_eq!(run_trials_in(&pool, 8, |t| t + 1), run_trials(8, |t| t + 1));
/// ```
pub fn run_trials_in<R, F>(pool: &ThreadPool, trials: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    pool.install(|| run_trials(trials, f))
}

/// [`run_trials`] in index-ordered chunks: executes `[0, trials)` as
/// consecutive windows of at most `chunk` indices, running each window in
/// parallel and handing its results — still in index order — to `consume`
/// before the next window starts. Peak memory is **O(chunk)**, not
/// O(trials), while the concatenation of all windows is bit-identical to
/// `run_trials(trials, f)` (and therefore to the serial loop): the same
/// `f(i)` runs for the same `i`, only the collection is windowed.
///
/// `consume` receives `(start_index, results)` per window and may fail
/// (e.g. an I/O sink); the first error stops the sweep and is returned.
/// Windows are never reordered, so a consumer that folds in arrival order
/// observes exactly the serial record stream.
///
/// # Panics
///
/// Panics if `chunk` is zero.
///
/// # Examples
///
/// ```
/// use radio_bench::parallel::{run_trials, run_trials_chunked};
/// let mut streamed = Vec::new();
/// run_trials_chunked(10, 3, |t| t * t, |start, results| {
///     assert_eq!(start, streamed.len() as u64);
///     streamed.extend(results);
///     Ok::<(), std::convert::Infallible>(())
/// })
/// .unwrap();
/// assert_eq!(streamed, run_trials(10, |t| t * t));
/// ```
pub fn run_trials_chunked<R, E, F, S>(trials: u64, chunk: u64, f: F, consume: S) -> Result<(), E>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
    S: FnMut(u64, Vec<R>) -> Result<(), E>,
{
    run_trials_chunked_range(0..trials, chunk, f, consume)
}

/// [`run_trials_chunked`] over an arbitrary index slice `range` of a larger
/// grid: windows cover `[range.start, range.end)` in index order, so the
/// concatenation of the windows of consecutive ranges is exactly the
/// windows of the whole — the primitive behind resumable (`--resume`
/// continues at the checkpointed index) and sharded (`--shard i/m` runs
/// one contiguous slice) sweeps. `consume` still receives each window's
/// absolute start index.
///
/// # Panics
///
/// Panics if `chunk` is zero or the range is inverted.
pub fn run_trials_chunked_range<R, E, F, S>(
    range: std::ops::Range<u64>,
    chunk: u64,
    f: F,
    mut consume: S,
) -> Result<(), E>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
    S: FnMut(u64, Vec<R>) -> Result<(), E>,
{
    assert!(chunk > 0, "chunk size must be positive");
    assert!(range.start <= range.end, "inverted index range");
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start.saturating_add(chunk));
        let results: Vec<R> = (start..end).into_par_iter().map(&f).collect();
        consume(start, results)?;
        start = end;
    }
    Ok(())
}

/// [`run_trials`] with shared per-batch context: consecutive indices whose
/// `key_of` values are equal (and `Some`) form a *batch*; `build` runs once
/// per batch — on the batch's first index — and every trial in the batch
/// receives a shared reference to the result. Trials whose key is `None`
/// never share (their context is `None`).
///
/// This is the struct-of-arrays primitive behind scenario sweeps: units
/// that differ only in their trial index freeze the same topology, so the
/// adjacency/bitmask rows are built once and read by the whole batch
/// instead of being rebuilt per trial.
///
/// The contract mirrors [`run_trials`]: results come back in index order,
/// and for any `key_of`/`build`, `f(ctx, i)` must equal what the unbatched
/// closure would produce for `i` — batching is a caching layer, never a
/// semantic one. Keys are computed serially (they must be cheap); contexts
/// are built in parallel across batches; trials then fan out in parallel
/// across the *whole* window, so one giant batch still uses every core.
///
/// # Examples
///
/// ```
/// use radio_bench::parallel::{run_trials, run_trials_batched};
/// // Key: t / 4 (batches of 4); context: the key squared, built once.
/// let batched = run_trials_batched(
///     16,
///     |t| Some(t / 4),
///     |t| (t / 4) * (t / 4),
///     |ctx, t| ctx.copied().unwrap() + t,
/// );
/// assert_eq!(batched, run_trials(16, |t| (t / 4) * (t / 4) + t));
/// ```
pub fn run_trials_batched<K, C, R, KF, BF, F>(trials: u64, key_of: KF, build: BF, f: F) -> Vec<R>
where
    K: PartialEq,
    C: Send + Sync,
    R: Send,
    KF: Fn(u64) -> Option<K>,
    BF: Fn(u64) -> C + Sync,
    F: Fn(Option<&C>, u64) -> R + Sync,
{
    batched_window(0..trials, &key_of, &build, &f)
}

/// [`run_trials_chunked_range`] with [`run_trials_batched`]'s shared-batch
/// execution inside each window. Batches are formed within a window only:
/// a run of equal keys spanning a window boundary rebuilds its context in
/// the next window, which costs one extra `build` but keeps windows
/// self-contained — so the record stream is bit-identical at any chunk
/// size, and resumable/sharded sweeps compose exactly as before.
///
/// # Panics
///
/// Panics if `chunk` is zero or the range is inverted.
pub fn run_trials_batched_chunked_range<K, C, R, E, KF, BF, F, S>(
    range: std::ops::Range<u64>,
    chunk: u64,
    key_of: KF,
    build: BF,
    f: F,
    mut consume: S,
) -> Result<(), E>
where
    K: PartialEq,
    C: Send + Sync,
    R: Send,
    KF: Fn(u64) -> Option<K>,
    BF: Fn(u64) -> C + Sync,
    F: Fn(Option<&C>, u64) -> R + Sync,
    S: FnMut(u64, Vec<R>) -> Result<(), E>,
{
    assert!(chunk > 0, "chunk size must be positive");
    assert!(range.start <= range.end, "inverted index range");
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start.saturating_add(chunk));
        let results = batched_window(start..end, &key_of, &build, &f);
        consume(start, results)?;
        start = end;
    }
    Ok(())
}

/// [`run_trials_batched`] with a *fused* fast path inside each shared
/// batch: every run of ≥ 2 consecutive equal-keyed trials is cut into up
/// to [`rayon::current_num_threads`] contiguous spans of ≥ 2 trials each
/// (one span at width 1), and `fuse(ctx, start..end)` is offered each span
/// first. Returning `Some(results)` (exactly one result per index, in
/// index order) replaces the per-trial calls for that span — this is how
/// scenario sweeps hand a run of same-topology trials to one call that
/// builds the per-network setup (ids, detectors) once and steps each
/// trial solo on it, one span per worker. Returning `None` declines, and
/// every trial in the span runs through `f` as before.
///
/// The contract extends the batching one: for any span, `fuse` must
/// produce exactly what the per-trial `f` calls would — fusion is an
/// execution strategy, never a semantic change, so results do not depend
/// on the width that cut the spans. Singleton and keyless trials never
/// consult `fuse`.
pub fn run_trials_batched_fused<K, C, R, KF, BF, FF, F>(
    trials: u64,
    key_of: KF,
    build: BF,
    fuse: FF,
    f: F,
) -> Vec<R>
where
    K: PartialEq,
    C: Send + Sync,
    R: Send,
    KF: Fn(u64) -> Option<K>,
    BF: Fn(u64) -> C + Sync,
    FF: Fn(&C, std::ops::Range<u64>) -> Option<Vec<R>> + Sync,
    F: Fn(Option<&C>, u64) -> R + Sync,
{
    fused_window(0..trials, &key_of, &build, &fuse, &f)
}

/// [`run_trials_batched_chunked_range`] with [`run_trials_batched_fused`]'s
/// fused fast path inside each window. Fusion spans are windowed exactly
/// like batches (a run crossing a window boundary fuses per window), so
/// the record stream stays bit-identical at any chunk size and
/// resumable/sharded sweeps compose exactly as before.
///
/// # Panics
///
/// Panics if `chunk` is zero or the range is inverted.
#[allow(clippy::too_many_arguments)] // the chunked/batched/fused knob union
pub fn run_trials_batched_fused_chunked_range<K, C, R, E, KF, BF, FF, F, S>(
    range: std::ops::Range<u64>,
    chunk: u64,
    key_of: KF,
    build: BF,
    fuse: FF,
    f: F,
    mut consume: S,
) -> Result<(), E>
where
    K: PartialEq,
    C: Send + Sync,
    R: Send,
    KF: Fn(u64) -> Option<K>,
    BF: Fn(u64) -> C + Sync,
    FF: Fn(&C, std::ops::Range<u64>) -> Option<Vec<R>> + Sync,
    F: Fn(Option<&C>, u64) -> R + Sync,
    S: FnMut(u64, Vec<R>) -> Result<(), E>,
{
    assert!(chunk > 0, "chunk size must be positive");
    assert!(range.start <= range.end, "inverted index range");
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start.saturating_add(chunk));
        let results = fused_window(start..end, &key_of, &build, &fuse, &f);
        consume(start, results)?;
        start = end;
    }
    Ok(())
}

/// One batched window: group, build contexts, fan out (no fusion).
fn batched_window<K, C, R, KF, BF, F>(
    window: std::ops::Range<u64>,
    key_of: &KF,
    build: &BF,
    f: &F,
) -> Vec<R>
where
    K: PartialEq,
    C: Send + Sync,
    R: Send,
    KF: Fn(u64) -> Option<K>,
    BF: Fn(u64) -> C + Sync,
    F: Fn(Option<&C>, u64) -> R + Sync,
{
    fused_window(window, key_of, build, &|_: &C, _| None, f)
}

/// Cuts `[start, end)` into `min(width, len / 2)` contiguous spans (at
/// least one) whose lengths differ by at most one, so no span of a run of
/// ≥ 2 trials is a singleton.
fn split_run(start: u64, end: u64, width: usize) -> impl Iterator<Item = (u64, u64)> {
    let len = end - start;
    let parts = (width as u64).min(len / 2).max(1);
    let (base, longer) = (len / parts, len % parts);
    (0..parts).map(move |p| {
        let lo = start + p * base + p.min(longer);
        (lo, lo + base + u64::from(p < longer))
    })
}

/// One batched window with the fused fast path: group, build contexts,
/// offer each multi-trial shared run to `fuse` in width-sized spans, fan
/// the rest out.
fn fused_window<K, C, R, KF, BF, FF, F>(
    window: std::ops::Range<u64>,
    key_of: &KF,
    build: &BF,
    fuse: &FF,
    f: &F,
) -> Vec<R>
where
    K: PartialEq,
    C: Send + Sync,
    R: Send,
    KF: Fn(u64) -> Option<K>,
    BF: Fn(u64) -> C + Sync,
    FF: Fn(&C, std::ops::Range<u64>) -> Option<Vec<R>> + Sync,
    F: Fn(Option<&C>, u64) -> R + Sync,
{
    // Pass 1 (serial): split the window into maximal runs of equal Some
    // keys. `None`-keyed trials are their own context-less run.
    let mut runs: Vec<(u64, u64, bool)> = Vec::new(); // (start, end, shared)
    let mut prev: Option<K> = None;
    for i in window {
        let key = key_of(i);
        let extends = key.is_some() && key == prev;
        match runs.last_mut() {
            Some(run) if extends => run.1 = i + 1,
            _ => runs.push((i, i + 1, key.is_some())),
        }
        prev = key;
    }
    // Pass 2 (parallel across runs): build each shared run's context once,
    // from the run's first index.
    let contexts: Vec<Option<C>> = runs
        .par_iter()
        .map(|&(start, _, shared)| shared.then(|| build(start)))
        .collect();
    // Pass 3 (parallel across spans): each multi-trial shared run is cut
    // into up to one span per worker, so a single giant run still uses
    // every core. The pool deals spans to workers round-robin (nothing
    // steals), so cutting every run the same way gives each worker a
    // slice of every run. Shared spans of ≥ 2 trials are offered to
    // `fuse`; everything else fans out per trial over the shared context.
    // Single-trial runs (every keyless trial is one) stay whole.
    let width = rayon::current_num_threads();
    let spans: Vec<(usize, u64, u64)> = runs
        .iter()
        .enumerate()
        .flat_map(|(r, &(start, end, _))| {
            split_run(start, end, width).map(move |(lo, hi)| (r, lo, hi))
        })
        .collect();
    let results: Vec<Vec<R>> = spans
        .into_par_iter()
        .map(|(r, start, end)| {
            let ctx = &contexts[r];
            if end - start >= 2 {
                if let Some(ctx) = ctx.as_ref() {
                    if let Some(results) = fuse(ctx, start..end) {
                        assert_eq!(
                            results.len(),
                            (end - start) as usize,
                            "fused span must return one result per trial"
                        );
                        return results;
                    }
                }
            }
            (start..end)
                .into_par_iter()
                .map(|i| f(ctx.as_ref(), i))
                .collect()
        })
        .collect();
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_order() {
        let parallel = run_trials(100, |t| (t, t.wrapping_mul(0x9e37_79b9)));
        let serial: Vec<_> = (0u64..100)
            .map(|t| (t, t.wrapping_mul(0x9e37_79b9)))
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn zero_trials_is_empty() {
        assert!(run_trials(0, |t| t).is_empty());
    }

    #[test]
    fn chunked_concatenation_matches_unchunked_every_chunk_size() {
        let expect = run_trials(23, |t| t.wrapping_mul(0x9e37_79b9).rotate_left(7));
        for chunk in [1u64, 2, 3, 7, 22, 23, 24, 1000] {
            let mut got = Vec::new();
            let mut starts = Vec::new();
            run_trials_chunked(
                23,
                chunk,
                |t| t.wrapping_mul(0x9e37_79b9).rotate_left(7),
                |start, results| {
                    starts.push(start);
                    got.extend(results);
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap();
            assert_eq!(got, expect, "chunk = {chunk}");
            // Windows arrive in index order, each starting where the
            // previous ended.
            assert_eq!(starts, (0..23).step_by(chunk as usize).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_consumer_error_stops_the_sweep() {
        let mut seen = 0u64;
        let err = run_trials_chunked(
            100,
            10,
            |t| t,
            |start, _| {
                seen = start;
                if start >= 20 {
                    Err("enough")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(err, Err("enough"));
        assert_eq!(seen, 20, "the failing window is the last one consumed");
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn chunked_rejects_zero_chunk() {
        let _ = run_trials_chunked(4, 0, |t| t, |_, _| Ok::<(), ()>(()));
    }

    #[test]
    fn batched_matches_unbatched_across_key_shapes() {
        // The unbatched reference: context derived per trial.
        let ctx_of = |t: u64| t / 5;
        let expect = run_trials(31, |t| ctx_of(t) * 1000 + t);
        // One batch per 5 indices, one giant batch, singleton batches, and
        // a keyless (never-shared) sweep all agree index-for-index.
        let keys: [fn(u64) -> Option<u64>; 4] =
            [|t| Some(t / 5), |_| Some(0), |t| Some(t), |_| None];
        for (k, key_of) in keys.iter().enumerate() {
            let got = run_trials_batched(31, key_of, ctx_of, |ctx, t| {
                ctx.copied().unwrap_or_else(|| ctx_of(t)) * 1000 + t
            });
            // The giant-batch key shares ctx_of(0) across all trials, which
            // only matches the reference for the t/5 key when contexts are
            // genuinely equal — so compare against the batch-aware value.
            let want: Vec<u64> = (0..31)
                .map(|t| {
                    let batch_head = match key_of(t) {
                        Some(_) => (0..=t).rev().take_while(|&s| key_of(s) == key_of(t)).last(),
                        None => None,
                    };
                    ctx_of(batch_head.unwrap_or(t)) * 1000 + t
                })
                .collect();
            assert_eq!(got, want, "key shape {k}");
        }
        // And for the realistic key (context constant within a batch) the
        // batched sweep is bit-identical to the unbatched one.
        let got = run_trials_batched(
            31,
            |t| Some(t / 5),
            ctx_of,
            |ctx, t| ctx.copied().unwrap() * 1000 + t,
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn batched_builds_once_per_run() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let builds = AtomicU64::new(0);
        let got = run_trials_batched(
            12,
            |t| Some(t / 4),
            |t| {
                builds.fetch_add(1, Ordering::Relaxed);
                t / 4
            },
            |ctx, t| ctx.copied().unwrap() * 100 + t,
        );
        assert_eq!(builds.load(Ordering::Relaxed), 3, "one build per batch");
        assert_eq!(got, (0..12).map(|t| (t / 4) * 100 + t).collect::<Vec<_>>());

        // None keys never build.
        builds.store(0, Ordering::Relaxed);
        run_trials_batched(
            8,
            |_| None::<u64>,
            |_| builds.fetch_add(1, Ordering::Relaxed),
            |ctx, t| {
                assert!(ctx.is_none());
                t
            },
        );
        assert_eq!(builds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fused_matches_unfused_and_skips_singletons() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Runs of 5, with trial 20 a keyless singleton in the middle.
        let key_of = |t: u64| (t != 20).then_some(t / 5);
        let build = |t: u64| t / 5;
        let f = |ctx: Option<&u64>, t: u64| (ctx.copied(), t);
        let expect = run_trials_batched(31, key_of, build, f);
        // A fuse that accepts every offered span. At width 1 every run is
        // offered whole (wider pools cut runs; see the split test below).
        let fused_spans = AtomicU64::new(0);
        let got = ThreadPool::new(1).install(|| {
            run_trials_batched_fused(
                31,
                key_of,
                build,
                |ctx, span| {
                    fused_spans.fetch_add(1, Ordering::Relaxed);
                    assert!(span.end - span.start >= 2, "singletons never fuse");
                    Some(span.map(|t| (Some(*ctx), t)).collect())
                },
                f,
            )
        });
        assert_eq!(got, expect);
        // Runs: [0,5) [5,10) [10,15) [15,20) {20} [21,25) [25,30) [30,31).
        // The keyless singleton and the final 1-trial run are never offered.
        assert_eq!(fused_spans.load(Ordering::Relaxed), 6);
        // A fuse that always declines is exactly the unfused sweep.
        let got = run_trials_batched_fused(31, key_of, build, |_, _| None, f);
        assert_eq!(got, expect);
        // A fuse that accepts only even-keyed spans mixes both paths.
        let got = run_trials_batched_fused(
            31,
            key_of,
            build,
            |ctx, span| {
                ctx.is_multiple_of(2)
                    .then(|| span.map(|t| (Some(*ctx), t)).collect())
            },
            f,
        );
        assert_eq!(got, expect);
    }

    /// The spans one shared run of `trials` reaches `fuse` as on a pool of
    /// `width` workers, in index order.
    fn fused_spans(width: usize, trials: u64) -> Vec<std::ops::Range<u64>> {
        let spans = std::sync::Mutex::new(Vec::new());
        let got = ThreadPool::new(width).install(|| {
            run_trials_batched_fused(
                trials,
                |_| Some(()),
                |_| (),
                |_, span| {
                    spans.lock().unwrap().push(span.clone());
                    Some(span.collect())
                },
                |_, t| t,
            )
        });
        assert_eq!(got, (0..trials).collect::<Vec<_>>());
        let mut spans = spans.into_inner().unwrap();
        spans.sort_by_key(|span| span.start);
        spans
    }

    #[test]
    fn shared_runs_split_into_one_fused_span_per_worker() {
        assert_eq!(fused_spans(2, 32), vec![0..16, 16..32]);
        assert_eq!(fused_spans(1, 32), vec![0..32]);
        assert_eq!(fused_spans(3, 7), vec![0..3, 3..5, 5..7]);
        // Never a singleton: a run yields at most len / 2 spans.
        assert_eq!(fused_spans(2, 3), vec![0..3]);
        assert_eq!(fused_spans(8, 5), vec![0..3, 3..5]);
    }

    #[test]
    #[should_panic(expected = "one result per trial")]
    fn fused_span_must_cover_its_trials() {
        let _ = run_trials_batched_fused(
            8,
            |t| Some(t / 4),
            |t| t,
            |_, _| Some(vec![0u64]), // wrong length
            |_, t| t,
        );
    }

    #[test]
    fn fused_chunked_matches_unchunked_every_chunk_size() {
        let key_of = |t: u64| (t / 7 != 1).then_some(t / 7); // run, gap, run
        let build = |t: u64| t / 7;
        let f = |ctx: Option<&u64>, t: u64| (ctx.copied(), t);
        let fuse = |ctx: &u64, span: std::ops::Range<u64>| {
            ctx.is_multiple_of(2)
                .then(|| span.map(|t| (Some(*ctx), t)).collect())
        };
        let expect = run_trials_batched(23, key_of, build, f);
        for chunk in [1u64, 2, 3, 5, 7, 8, 22, 23, 1000] {
            let mut got = Vec::new();
            run_trials_batched_fused_chunked_range(
                0..23,
                chunk,
                key_of,
                build,
                fuse,
                f,
                |start, results| {
                    assert_eq!(start, got.len() as u64);
                    got.extend(results);
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap();
            assert_eq!(got, expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn batched_chunked_matches_unchunked_every_chunk_size() {
        let key_of = |t: u64| (t / 7 != 1).then_some(t / 7); // run, gap, run
        let build = |t: u64| t / 7;
        let f = |ctx: Option<&u64>, t: u64| (ctx.copied(), t);
        let expect = run_trials_batched(23, key_of, build, f);
        for chunk in [1u64, 2, 3, 5, 7, 8, 22, 23, 1000] {
            let mut got = Vec::new();
            run_trials_batched_chunked_range(0..23, chunk, key_of, build, f, |start, results| {
                assert_eq!(start, got.len() as u64);
                got.extend(results);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            assert_eq!(got, expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn pool_variant_matches_every_width() {
        let expect: Vec<u64> = (0u64..37).map(|t| t ^ 0xdead).collect();
        for width in [1usize, 2, 7] {
            let pool = ThreadPool::new(width);
            assert_eq!(run_trials_in(&pool, 37, |t| t ^ 0xdead), expect);
        }
    }
}
