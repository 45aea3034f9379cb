//! Data-parallel trial execution with serial-identical results.
//!
//! Experiments are embarrassingly parallel across trials: every trial
//! derives its own seeds (network seed, engine seed, adversary seed) from
//! the trial index, so trials share no mutable state. [`run_trials`] fans
//! them out over rayon and returns results **in trial order**, which makes
//! parallel sweeps bit-identical to the serial `for s in 0..trials` loop
//! they replace — a property the determinism regression test pins down.
//! [`run_trials_windowed`] is the windowed form with shared per-run
//! context; the scenario executor runs every sweep through it.
//!
//! Parallelism is sized by the ambient [`rayon::ThreadPool`] when one is
//! installed (see [`run_trials_in`]), falling back to `RAYON_NUM_THREADS`
//! and then the machine's parallelism. Prefer a scoped pool over the env
//! var: pools are per-run values, so concurrent sweeps in one process
//! don't race on global state. `RAYON_NUM_THREADS=1` still forces serial
//! execution when no pool is installed (e.g. when profiling a trial).
//!
//! Runs of equal keys share one context, built on the run's first index
//! (see [`run_trials_windowed`] for the window and run rules):
//!
//! ```
//! use radio_bench::parallel::{run_trials, run_trials_windowed};
//! // Key: t / 4 (runs of 4); context: the key squared, built once.
//! let mut shared = Vec::new();
//! run_trials_windowed(
//!     0..16,
//!     16,
//!     |t| Some(t / 4),
//!     |t| (t / 4) * (t / 4),
//!     |ctx, t| ctx.copied().unwrap() + t,
//!     |_, results| {
//!         shared.extend(results);
//!         Ok::<(), std::convert::Infallible>(())
//!     },
//! )
//! .unwrap();
//! assert_eq!(shared, run_trials(16, |t| (t / 4) * (t / 4) + t));
//! ```

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

/// [`run_trials`] in index-ordered windows with shared per-run context —
/// the one windowed runner every sweep goes through.
///
/// * **Windows.** `range` executes as consecutive windows of at most
///   `chunk` indices; each window runs in parallel and hands its results,
///   still in index order, to `consume(window_start, results)` before the
///   next window starts. Peak memory is O(chunk), and the concatenation of
///   the windows is bit-identical to `run_trials` over `range` — the same
///   `f(i)` runs for the same `i`, only the collection is windowed. The
///   first `consume` error stops the sweep and is returned.
/// * **Shared runs.** Within a window, consecutive indices whose `key_of`
///   values are equal (and `Some`) form a *run*; `build` runs once per
///   run, on the run's first index, and every trial of the run receives a
///   shared reference to the result. Keyless trials never share and never
///   build (their context is `None`). Runs never span a window: a run
///   crossing a boundary rebuilds in the next window, which keeps windows
///   self-contained, so resumed and sharded slices compose exactly.
///
/// The contract: for any `key_of`/`build`, results must equal what the
/// per-trial `f` would produce — sharing is an execution strategy, never
/// a semantic one, so results do not depend on the chunk size.
///
/// # Panics
///
/// Panics if `chunk` is zero or the range is inverted.
///
/// # Examples
///
/// Windows concatenate to the unwindowed sweep (keyless trials):
///
/// ```
/// use radio_bench::parallel::{run_trials, run_trials_windowed};
/// let mut streamed = Vec::new();
/// run_trials_windowed(
///     0..10,
///     3,
///     |_| None::<()>,
///     |_| (),
///     |_, t| t * t,
///     |start, results| {
///         assert_eq!(start, streamed.len() as u64);
///         streamed.extend(results);
///         Ok::<(), std::convert::Infallible>(())
///     },
/// )
/// .unwrap();
/// assert_eq!(streamed, run_trials(10, |t| t * t));
/// ```
pub fn run_trials_windowed<K, C, R, E, KF, BF, F, S>(
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
        let results = run_window(start..end, &key_of, &build, &f);
        consume(start, results)?;
        start = end;
    }
    Ok(())
}

/// One window: group it into runs, build each shared run's context, then
/// fan every index out over its run's context.
fn run_window<K, C, R, KF, BF, F>(
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
    // Pass 3 (parallel across the window's indices): one flat fan-out, so
    // a single giant run still uses every core and no fan-out nests inside
    // another. Each index reads its run's context.
    let trials: Vec<(usize, u64)> = runs
        .iter()
        .enumerate()
        .flat_map(|(r, &(start, end, _))| (start..end).map(move |i| (r, i)))
        .collect();
    trials
        .into_par_iter()
        .map(|(r, i)| f(contexts[r].as_ref(), i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// [`run_trials_windowed`] over `0..trials` with a collecting
    /// consumer: the results and each window's start, in arrival order.
    fn windowed<K, C, R>(
        trials: u64,
        chunk: u64,
        key_of: impl Fn(u64) -> Option<K>,
        build: impl Fn(u64) -> C + Sync,
        f: impl Fn(Option<&C>, u64) -> R + Sync,
    ) -> (Vec<R>, Vec<u64>)
    where
        K: PartialEq,
        C: Send + Sync,
        R: Send,
    {
        let (mut got, mut starts) = (Vec::new(), Vec::new());
        let Ok(()) = run_trials_windowed(0..trials, chunk, key_of, build, f, |start, r| {
            starts.push(start);
            got.extend(r);
            Ok::<(), Infallible>(())
        });
        (got, starts)
    }

    /// `windowed` in one window: shared runs only.
    fn batched<K: PartialEq, C: Send + Sync, R: Send>(
        trials: u64,
        key_of: impl Fn(u64) -> Option<K>,
        build: impl Fn(u64) -> C + Sync,
        f: impl Fn(Option<&C>, u64) -> R + Sync,
    ) -> Vec<R> {
        windowed(trials, trials.max(1), key_of, build, f).0
    }

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
        let f = |_: Option<&()>, t: u64| t.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let expect = run_trials(23, |t| f(None, t));
        for chunk in [1u64, 2, 3, 7, 22, 23, 24, 1000] {
            let (got, starts) = windowed(23, chunk, |_| None::<()>, |_| (), f);
            assert_eq!(got, expect, "chunk = {chunk}");
            // Windows arrive in index order, each starting where the
            // previous ended.
            assert_eq!(starts, (0..23).step_by(chunk as usize).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_consumer_error_stops_the_sweep() {
        let mut seen = 0u64;
        let err = run_trials_windowed(
            0..100,
            10,
            |_| None::<()>,
            |_| (),
            |_, t| t,
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
        let _ = windowed(4, 0, |_| None::<()>, |_| (), |_, t| t);
    }

    #[test]
    fn batched_matches_unbatched_across_key_shapes() {
        // The unbatched reference: context derived per trial.
        let ctx_of = |t: u64| t / 5;
        let expect = run_trials(31, |t| ctx_of(t) * 1000 + t);
        // One run per 5 indices, one giant run, singleton runs, and a
        // keyless (never-shared) sweep all agree index-for-index.
        let keys: [fn(u64) -> Option<u64>; 4] =
            [|t| Some(t / 5), |_| Some(0), |t| Some(t), |_| None];
        for (k, key_of) in keys.iter().enumerate() {
            let got = batched(31, key_of, ctx_of, |ctx, t| {
                ctx.copied().unwrap_or_else(|| ctx_of(t)) * 1000 + t
            });
            // The giant-run key shares ctx_of(0) across all trials, which
            // only matches the reference for the t/5 key when contexts are
            // genuinely equal — so compare against the run-aware value:
            // each run takes its first index's context.
            let want: Vec<u64> = (0..31)
                .map(|t| {
                    let run_head = match key_of(t) {
                        Some(_) => (0..=t).rev().take_while(|&s| key_of(s) == key_of(t)).last(),
                        None => None,
                    };
                    ctx_of(run_head.unwrap_or(t)) * 1000 + t
                })
                .collect();
            assert_eq!(got, want, "key shape {k}");
        }
        // And for the realistic key (context constant within a run) the
        // shared sweep is bit-identical to the unshared one.
        let got = batched(
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
        let got = batched(
            12,
            |t| Some(t / 4),
            |t| {
                builds.fetch_add(1, Ordering::Relaxed);
                t / 4
            },
            |ctx, t| ctx.copied().unwrap() * 100 + t,
        );
        assert_eq!(builds.load(Ordering::Relaxed), 3, "one build per run");
        assert_eq!(got, (0..12).map(|t| (t / 4) * 100 + t).collect::<Vec<_>>());

        // None keys never build.
        builds.store(0, Ordering::Relaxed);
        batched(
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
    fn one_shared_run_fans_out_over_every_worker() {
        // One build, then the run's trials are dealt across the pool, so
        // a single giant run is not confined to one worker.
        let (threads, _) = ThreadPool::new(2).install(|| {
            windowed(
                8,
                8,
                |_| Some(()),
                |_| (),
                |_, _| std::thread::current().id(),
            )
        });
        let distinct: std::collections::HashSet<_> = threads.iter().collect();
        assert_eq!(distinct.len(), 2, "{threads:?}");
    }

    #[test]
    fn batched_chunked_matches_unchunked_every_chunk_size() {
        let key_of = |t: u64| (t / 7 != 1).then_some(t / 7); // run, gap, run
        let build = |t: u64| t / 7;
        let f = |ctx: Option<&u64>, t: u64| (ctx.copied(), t);
        let expect = batched(23, key_of, build, f);
        for chunk in [1u64, 2, 3, 5, 7, 8, 22, 23, 1000] {
            let (got, starts) = windowed(23, chunk, key_of, build, f);
            assert_eq!(got, expect, "chunk = {chunk}");
            assert_eq!(starts, (0..23).step_by(chunk as usize).collect::<Vec<_>>());
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
