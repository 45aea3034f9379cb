//! Data-parallel trial execution with serial-identical results.
//!
//! Experiments are embarrassingly parallel across trials: every trial
//! derives its own seeds (network seed, engine seed, adversary seed) from
//! the trial index, so trials share no mutable state. [`run_trials`] fans
//! them out over rayon and returns results **in trial order**, which makes
//! parallel sweeps bit-identical to the serial `for s in 0..trials` loop
//! they replace — a property the determinism regression test pins down.
//! [`run_trials_windowed`] is the windowed form with shared per-run
//! context and fused spans; the scenario executor runs every sweep
//! through it.
//!
//! Parallelism is sized by the ambient [`rayon::ThreadPool`] when one is
//! installed (see [`run_trials_in`]), falling back to `RAYON_NUM_THREADS`
//! and then the machine's parallelism. Prefer a scoped pool over the env
//! var: pools are per-run values, so concurrent sweeps in one process
//! don't race on global state. `RAYON_NUM_THREADS=1` still forces serial
//! execution when no pool is installed (e.g. when profiling a trial).
//!
//! Runs of equal keys share one context, built on the run's first index
//! (see [`run_trials_windowed`] for the window and fusion rules):
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
//!     |_, _| None,
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

/// [`run_trials`] in index-ordered windows with shared per-run context
/// and an optional fused fast path — the one windowed runner every sweep
/// goes through.
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
/// * **Fusion.** Every shared run of ≥ 2 trials is cut into up to
///   [`rayon::current_num_threads`] contiguous spans of ≥ 2 trials each
///   (one span at width 1), and `fuse(ctx, start..end)` is offered each
///   span first. `Some(results)` (one result per index, in index order)
///   replaces the per-trial calls for that span; `None` declines, and the
///   span's trials run through `f` as before. Singleton and keyless
///   trials never consult `fuse`.
///
/// The contract: for any `key_of`/`build`/`fuse`, results must equal what
/// the per-trial `f` would produce — sharing and fusion are execution
/// strategies, never semantic ones, so results depend neither on the
/// chunk size nor on the width that cut the spans.
///
/// # Panics
///
/// Panics if `chunk` is zero, the range is inverted, or a fused span
/// returns the wrong number of results.
///
/// # Examples
///
/// Windows concatenate to the unwindowed sweep (keyless trials, no
/// fusion):
///
/// ```
/// use radio_bench::parallel::{run_trials, run_trials_windowed};
/// let mut streamed = Vec::new();
/// run_trials_windowed(
///     0..10,
///     3,
///     |_| None::<()>,
///     |_| (),
///     |_, _| None,
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
#[allow(clippy::too_many_arguments)] // the window/run/fusion knob union
pub fn run_trials_windowed<K, C, R, E, KF, BF, FF, F, S>(
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
        let results = run_window(start..end, &key_of, &build, &fuse, &f);
        consume(start, results)?;
        start = end;
    }
    Ok(())
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

/// One window: group it into runs, build each shared run's context, offer
/// each multi-trial shared run to `fuse` in width-sized spans, fan the rest
/// out.
fn run_window<K, C, R, KF, BF, FF, F>(
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
    use std::convert::Infallible;
    use std::ops::Range;

    /// [`run_trials_windowed`] over `0..trials` with a collecting
    /// consumer: the results and each window's start, in arrival order.
    fn windowed<K, C, R>(
        trials: u64,
        chunk: u64,
        key_of: impl Fn(u64) -> Option<K>,
        build: impl Fn(u64) -> C + Sync,
        fuse: impl Fn(&C, Range<u64>) -> Option<Vec<R>> + Sync,
        f: impl Fn(Option<&C>, u64) -> R + Sync,
    ) -> (Vec<R>, Vec<u64>)
    where
        K: PartialEq,
        C: Send + Sync,
        R: Send,
    {
        let (mut got, mut starts) = (Vec::new(), Vec::new());
        let Ok(()) = run_trials_windowed(0..trials, chunk, key_of, build, fuse, f, |start, r| {
            starts.push(start);
            got.extend(r);
            Ok::<(), Infallible>(())
        });
        (got, starts)
    }

    /// `windowed` in one window with a declining `fuse`: shared runs only.
    fn batched<K: PartialEq, C: Send + Sync, R: Send>(
        trials: u64,
        key_of: impl Fn(u64) -> Option<K>,
        build: impl Fn(u64) -> C + Sync,
        f: impl Fn(Option<&C>, u64) -> R + Sync,
    ) -> Vec<R> {
        windowed(trials, trials.max(1), key_of, build, |_, _| None, f).0
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
            let (got, starts) = windowed(23, chunk, |_| None::<()>, |_| (), |_, _| None, f);
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
            |_, _| None,
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
        let _ = windowed(4, 0, |_| None::<()>, |_| (), |_, _| None, |_, t| t);
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
    fn fused_matches_unfused_and_skips_singletons() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Runs of 5, with trial 20 a keyless singleton in the middle.
        let key_of = |t: u64| (t != 20).then_some(t / 5);
        let build = |t: u64| t / 5;
        let f = |ctx: Option<&u64>, t: u64| (ctx.copied(), t);
        let expect = batched(31, key_of, build, f);
        // A fuse that accepts every offered span. At width 1 every run is
        // offered whole (wider pools cut runs; see the split test below).
        let fused_spans = AtomicU64::new(0);
        let (got, _) = ThreadPool::new(1).install(|| {
            windowed(
                31,
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
        // A fuse that accepts only even-keyed spans mixes both paths.
        let (got, _) = windowed(
            31,
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
        // A fuse that always declines is exactly the unfused sweep: every
        // trial runs through `f` over its run's shared context.
        let unfused: Vec<_> = (0..31).map(|t| (key_of(t).map(|_| build(t)), t)).collect();
        assert_eq!(expect, unfused);
    }

    /// The spans one shared run of `trials` reaches `fuse` as on a pool of
    /// `width` workers, in index order.
    fn fused_spans(width: usize, trials: u64) -> Vec<Range<u64>> {
        let spans = std::sync::Mutex::new(Vec::new());
        let (got, _) = ThreadPool::new(width).install(|| {
            windowed(
                trials,
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
        let _ = windowed(
            8,
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
        let fuse = |ctx: &u64, span: Range<u64>| {
            ctx.is_multiple_of(2)
                .then(|| span.map(|t| (Some(*ctx), t)).collect())
        };
        let expect = batched(23, key_of, build, f);
        for chunk in [1u64, 2, 3, 5, 7, 8, 22, 23, 1000] {
            let (got, _) = windowed(23, chunk, key_of, build, fuse, f);
            assert_eq!(got, expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn batched_chunked_matches_unchunked_every_chunk_size() {
        let key_of = |t: u64| (t / 7 != 1).then_some(t / 7); // run, gap, run
        let build = |t: u64| t / 7;
        let f = |ctx: Option<&u64>, t: u64| (ctx.copied(), t);
        let expect = batched(23, key_of, build, f);
        for chunk in [1u64, 2, 3, 5, 7, 8, 22, 23, 1000] {
            let (got, starts) = windowed(23, chunk, key_of, build, |_, _| None, f);
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
