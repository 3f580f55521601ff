//! The workspace's single approved threading module: a deterministic
//! parallel run executor.
//!
//! Every figure in the reproduction suite is a grid of *independent*
//! (parameter-point × seed) simulations. Each job owns its own
//! single-threaded [`World`](../cmap_sim/world/struct.World.html), so the
//! simulations themselves stay strictly deterministic; the only thing the
//! pool parallelises is *which core* a given job happens to run on. Results
//! are joined and reduced in **job-index order**, never completion order,
//! so every downstream artifact (figure reports, `BENCH_repro.json`, trace
//! JSONL) is byte-identical between `jobs = 1` and `jobs = N`.
//!
//! Design constraints (see DESIGN.md §9 "Performance architecture"):
//!
//! * std-only — a fixed-size pool of `std::thread` scoped workers pulling
//!   job indices from a shared cursor and returning `(index, result)`
//!   pairs over an `mpsc` channel. No rayon, no vendored executor.
//! * `jobs == 1` takes a thread-free serial path that is *exactly* the
//!   `items.iter().map(f).collect()` loop the suite ran before the pool
//!   existed, so `--jobs 1` is today's behavior by construction.
//! * The core-count probe ([`default_jobs`]) may consult the machine, but
//!   its answer must never leak into report bytes — callers only use it to
//!   size the pool, and the root `clippy.toml` bans every threading
//!   primitive, so the two `#[expect]`s here are the whole audit trail.
//! * The executor reads no clock: how long a batch took is the caller's
//!   measurement, kept in the `timing` block of its report.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Number of worker threads to use when the caller does not pin one: the
/// machine's available parallelism. Determinism note: this probe influences
/// *scheduling only*; job results are index-joined, so the value never
/// affects (and is never written into) deterministic report bytes.
#[expect(clippy::disallowed_methods, reason = "the one core-count probe")]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Supervision: catch, retry, quarantine.
// ---------------------------------------------------------------------------

/// Retries granted to a failed job beyond its first attempt. Retries run
/// serially on the coordinator thread in ascending job-index order, round by
/// round — a deterministic, seed- and wall-clock-free backoff ordering (the
/// "backoff" is positional: every other failed job of the round goes first).
pub const RETRY_LIMIT: u32 = 2;

/// Supervision counters, process-global so the bench harness can report
/// them without threading a handle through every figure. Mirrored into the typed `exec.job_panic` / `exec.job_retry` /
/// `exec.job_quarantined` observability counters by the bench harness.
static JOB_PANICS: AtomicU64 = AtomicU64::new(0);
static JOB_RETRIES: AtomicU64 = AtomicU64::new(0);
static JOB_QUARANTINED: AtomicU64 = AtomicU64::new(0);

/// Process-global quarantine log: every job that exhausted its retries, in
/// quarantine order. [`take_quarantined`] drains it; the bench harness does
/// so after each figure so a panicking figure still yields a structured
/// record of exactly which cells failed.
static QUARANTINED: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());

/// Label prefix applied to jobs dispatched through the unlabelled
/// [`Pool::map`] path (e.g. the current figure name, set by `repro_all`).
static JOB_CONTEXT: Mutex<String> = Mutex::new(String::new());

/// One job that failed all of its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the job within its batch.
    pub index: usize,
    /// Human-readable job label (figure/cell identity).
    pub label: String,
    /// Attempts made (first run plus retries).
    pub attempts: u32,
    /// The panic payload of the final attempt.
    pub error: String,
}

impl JobFailure {
    /// One-line description used in panic messages and failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} (job {}) failed after {} attempts: {}",
            self.label, self.index, self.attempts, self.error
        )
    }
}

/// The jobs of one supervised batch that exhausted all retries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureManifest {
    /// Quarantined jobs in ascending job-index order.
    pub jobs: Vec<JobFailure>,
}

impl FailureManifest {
    /// True when every job of the batch eventually succeeded.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of quarantined jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }
}

/// Snapshot of the process-global supervision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Job attempts that ended in a caught panic (including retries).
    pub panics: u64,
    /// Retry attempts dispatched.
    pub retries: u64,
    /// Jobs that exhausted all retries.
    pub quarantined: u64,
}

/// Read the global supervision counters.
pub fn supervision_stats() -> SupervisionStats {
    SupervisionStats {
        panics: JOB_PANICS.load(Ordering::Relaxed),
        retries: JOB_RETRIES.load(Ordering::Relaxed),
        quarantined: JOB_QUARANTINED.load(Ordering::Relaxed),
    }
}

/// Reset the global supervision counters (test isolation).
pub fn reset_supervision_stats() {
    JOB_PANICS.store(0, Ordering::Relaxed);
    JOB_RETRIES.store(0, Ordering::Relaxed);
    JOB_QUARANTINED.store(0, Ordering::Relaxed);
}

/// Set the label prefix for jobs dispatched through [`Pool::map`], which
/// has no per-job label argument of its own. Labels become
/// `"<context>[<index>]"`.
pub fn set_job_context(context: &str) {
    *lock_unpoisoned(&JOB_CONTEXT) = context.to_string();
}

/// The current [`Pool::map`] label prefix (`"job"` when unset).
pub fn job_context() -> String {
    let ctx = lock_unpoisoned(&JOB_CONTEXT);
    if ctx.is_empty() {
        "job".to_string()
    } else {
        ctx.clone()
    }
}

/// Drain the process-global quarantine log.
pub fn take_quarantined() -> Vec<JobFailure> {
    std::mem::take(&mut *lock_unpoisoned(&QUARANTINED))
}

/// Locks survive panics in lock holders: supervision state must stay
/// readable precisely when something panicked.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Render a caught panic payload. `panic!` with a literal yields
/// `&'static str`; `panic!` with a format string yields `String`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one job under `catch_unwind`, translating a panic into its message.
/// `AssertUnwindSafe` is sound here: a failed attempt's partially-mutated
/// captures are never observed — the job either returns a value or is
/// re-run from scratch / quarantined.
fn run_caught<T, R, F>(f: &F, item: &T) -> Result<R, String>
where
    F: Fn(&T) -> R,
{
    match std::panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            JOB_PANICS.fetch_add(1, Ordering::Relaxed);
            Err(panic_message(&*payload))
        }
    }
}

/// A fixed-size deterministic worker pool.
///
/// The pool is cheap to construct (it holds only the configured job count);
/// worker threads are scoped to each [`Pool::map`] call so no threads
/// outlive a batch and borrowed inputs need no `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool that runs up to `jobs` jobs concurrently (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// The configured concurrency.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Worker threads actually spawned for a batch of `len` jobs: the
    /// configured count, but never more than the jobs available and never
    /// more than the machine's cores. Worker count is a scheduling resource
    /// only — oversubscribing (e.g. `--jobs 2` on a single-core box) makes
    /// workers time-slice one core, paying context-switch and cache
    /// overhead for zero added parallelism (measured as a 0.77x slowdown on
    /// the mesh-dissemination figure under exactly that condition). The
    /// result join is index-based, so the clamp can never change report
    /// bytes.
    fn effective_workers(&self, len: usize) -> usize {
        self.jobs.min(default_jobs()).min(len.max(1))
    }

    /// Map `f` over `items`, returning outputs in **input order** regardless
    /// of which worker finished first. With `jobs == 1` this is a plain
    /// serial loop on the calling thread — byte-for-byte today's behavior.
    ///
    /// Jobs run supervised: a panicking job is retried [`RETRY_LIMIT`]
    /// times, and only if every attempt fails does this method panic — with
    /// the job's *label* (see [`set_job_context`]) and final panic message,
    /// after all other jobs completed and the failure was recorded in the
    /// process-global quarantine log. Callers that want to survive failures
    /// use [`Pool::map_supervised`] instead.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let ctx = job_context();
        let (slots, manifest) = self.map_supervised(items, |i| format!("{ctx}[{i}]"), f);
        if let Some(first) = manifest.jobs.first() {
            panic!(
                "{} job(s) quarantined; first: {}",
                manifest.len(),
                first.describe()
            );
        }
        slots
            .into_iter()
            .map(|r| r.expect("supervised job missing result without a failure record"))
            .collect()
    }

    /// Supervised map: like [`Pool::map`], but failures never abort the
    /// batch. Every job runs under `catch_unwind`; panicking jobs are
    /// retried up to [`RETRY_LIMIT`] times serially on the coordinator
    /// thread in ascending job-index order (deterministic backoff — no
    /// seeds, no wall clock), and jobs that fail every attempt are
    /// quarantined. Returns per-job results (`None` exactly for quarantined
    /// jobs) plus the batch's [`FailureManifest`]; quarantined jobs are
    /// also appended to the process-global log drained by
    /// [`take_quarantined`]. `label(i)` is only invoked for failed jobs.
    pub fn map_supervised<T, R, F, L>(
        &self,
        items: &[T],
        label: L,
        f: F,
    ) -> (Vec<Option<R>>, FailureManifest)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        L: Fn(usize) -> String,
    {
        let workers = self.effective_workers(items.len());
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        // (index, last panic message) of jobs whose first attempt failed,
        // kept in ascending index order for the deterministic retry pass.
        let mut failed: Vec<(usize, String)> = Vec::new();

        if workers <= 1 {
            for (i, item) in items.iter().enumerate() {
                match run_caught(&f, item) {
                    Ok(r) => slots[i] = Some(r),
                    Err(e) => failed.push((i, e)),
                }
            }
        } else {
            // Work distribution: a shared cursor hands out *chunks* of
            // contiguous job indices first-come-first-served (pure
            // scheduling — no effect on results). Chunked claiming plus
            // worker-local result accumulation amortizes the per-job
            // synchronization that made small-job batches slower under
            // `--jobs 2` than serial: one cursor RMW per chunk, and exactly
            // one channel send per worker instead of one per job. The
            // receive side slots results by index, which is what makes the
            // join deterministic.
            let chunk = chunk_size(items.len(), workers);
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<Vec<(usize, Result<R, String>)>>();
            let f = &f;
            let cursor = &cursor;
            #[expect(clippy::disallowed_methods, reason = "the pool's own workers")]
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let mut local: Vec<(usize, Result<R, String>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            for (i, item) in items[start..end].iter().enumerate() {
                                local.push((start + i, run_caught(f, item)));
                            }
                        }
                        if !local.is_empty() {
                            let _ = tx.send(local);
                        }
                    });
                }
                drop(tx);
                // Drain inside the scope. Worker panics cannot happen any
                // more (each job is caught), so every index arrives exactly
                // once; errors are collected for the retry pass below.
                for batch in rx {
                    for (i, r) in batch {
                        match r {
                            Ok(v) => slots[i] = Some(v),
                            Err(e) => failed.push((i, e)),
                        }
                    }
                }
            });
            failed.sort_unstable_by_key(|&(i, _)| i);
        }

        // Retry pass: serial, coordinator-thread, ascending index, round by
        // round — fully deterministic and identical for every pool width.
        for _round in 0..RETRY_LIMIT {
            if failed.is_empty() {
                break;
            }
            let mut still_failed = Vec::new();
            for (i, _prev) in failed {
                JOB_RETRIES.fetch_add(1, Ordering::Relaxed);
                match run_caught(&f, &items[i]) {
                    Ok(r) => slots[i] = Some(r),
                    Err(e) => still_failed.push((i, e)),
                }
            }
            failed = still_failed;
        }

        let mut manifest = FailureManifest::default();
        for (i, e) in failed {
            let failure = JobFailure {
                index: i,
                label: label(i),
                attempts: 1 + RETRY_LIMIT,
                error: e,
            };
            JOB_QUARANTINED.fetch_add(1, Ordering::Relaxed);
            lock_unpoisoned(&QUARANTINED).push(failure.clone());
            manifest.jobs.push(failure);
        }
        (slots, manifest)
    }
}

/// Contiguous indices claimed per cursor bump. 8 chunks per worker keeps
/// claims coarse enough to amortize synchronization while still letting a
/// straggler-heavy tail rebalance across workers.
fn chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers * 8)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_matches_plain_map() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(Pool::new(1).map(&items, |&x| x * 3 + 1), expect);
    }

    #[test]
    fn parallel_pool_preserves_input_order() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [2, 3, 4, 8] {
            assert_eq!(Pool::new(jobs).map(&items, |&x| x * x), expect);
        }
    }

    #[test]
    fn parallel_equals_serial_on_stateful_work() {
        // Each job derives from its index only, as real runs derive from
        // their (point, seed) — cross-checks the index-ordered join.
        let items: Vec<usize> = (0..64).collect();
        let work = |&i: &usize| -> u64 {
            let mut acc = i as u64 + 0x9E37_79B9;
            for _ in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(
            Pool::new(4).map(&items, work),
            Pool::new(1).map(&items, work)
        );
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(
            Pool::new(0).map(&[1, 2, 3], |&x: &i32| x + 1),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: [u32; 0] = [];
        assert!(Pool::new(8).map(&empty, |&x| x).is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn effective_workers_clamps_to_cores_and_batch() {
        let cores = default_jobs();
        // Oversubscription is capped at the core count: asking for more
        // workers than cores must not spawn them.
        assert_eq!(
            Pool::new(usize::MAX).effective_workers(1000),
            cores.min(1000)
        );
        assert_eq!(
            Pool::new(cores + 7).effective_workers(1000),
            cores.min(1000)
        );
        // Never more workers than jobs, and always at least one.
        assert_eq!(Pool::new(8).effective_workers(1), 1);
        assert_eq!(Pool::new(1).effective_workers(0), 1);
        assert_eq!(Pool::new(1).effective_workers(1000), 1);
    }

    /// Serializes tests that touch the process-global quarantine log and
    /// job-context label, so drains don't steal each other's entries.
    static SUPERVISION_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn supervised_map_quarantines_and_completes() {
        let _guard = lock_unpoisoned(&SUPERVISION_TEST_LOCK);
        let items: Vec<u32> = (0..20).collect();
        for jobs in [1, 4] {
            let (slots, manifest) = Pool::new(jobs).map_supervised(
                &items,
                |i| format!("cell[{i}]"),
                |&x| {
                    if x == 7 || x == 13 {
                        panic!("boom {x}");
                    }
                    x * 2
                },
            );
            // Both failing cells quarantined, ascending index order, with
            // label / attempts / final panic message recorded.
            assert_eq!(manifest.len(), 2, "jobs={jobs}");
            assert_eq!(manifest.jobs[0].index, 7);
            assert_eq!(manifest.jobs[0].label, "cell[7]");
            assert_eq!(manifest.jobs[0].attempts, 1 + RETRY_LIMIT);
            assert_eq!(manifest.jobs[0].error, "boom 7");
            assert_eq!(manifest.jobs[1].index, 13);
            // Every other cell still produced its result.
            for (i, slot) in slots.iter().enumerate() {
                if i == 7 || i == 13 {
                    assert!(slot.is_none(), "jobs={jobs} i={i}");
                } else {
                    assert_eq!(*slot, Some(items[i] * 2), "jobs={jobs} i={i}");
                }
            }
            let drained = take_quarantined();
            assert!(drained.iter().any(|j| j.label == "cell[7]"));
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let _guard = lock_unpoisoned(&SUPERVISION_TEST_LOCK);
        let attempts = AtomicU64::new(0);
        let items = [42u32];
        let (slots, manifest) = Pool::new(1).map_supervised(
            &items,
            |i| format!("t[{i}]"),
            |&x| {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                x
            },
        );
        assert!(manifest.is_empty());
        assert_eq!(slots, vec![Some(42)]);
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert!(take_quarantined().is_empty());
    }

    #[test]
    fn map_panics_with_job_label_after_quarantine() {
        let _guard = lock_unpoisoned(&SUPERVISION_TEST_LOCK);
        set_job_context("fig_demo");
        let items: Vec<u32> = (0..4).collect();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::new(1).map(&items, |&x| {
                if x == 2 {
                    panic!("dead cell");
                }
                x
            })
        }))
        .unwrap_err();
        set_job_context("");
        let msg = panic_message(&*payload);
        assert!(msg.contains("fig_demo[2]"), "panic message: {msg}");
        assert!(msg.contains("dead cell"), "panic message: {msg}");
        let drained = take_quarantined();
        assert!(drained
            .iter()
            .any(|j| j.label == "fig_demo[2]" && j.index == 2));
    }

    #[test]
    fn supervision_counters_accumulate() {
        let _guard = lock_unpoisoned(&SUPERVISION_TEST_LOCK);
        let before = supervision_stats();
        let items = [1u32];
        let (_slots, manifest) = Pool::new(1).map_supervised(
            &items,
            |i| format!("q[{i}]"),
            |_| -> u32 { panic!("always fails") },
        );
        assert_eq!(manifest.len(), 1);
        // Other tests in this binary may bump the globals concurrently, so
        // assert lower bounds only.
        let after = supervision_stats();
        assert!(after.panics >= before.panics + 1 + u64::from(RETRY_LIMIT));
        assert!(after.retries >= before.retries + u64::from(RETRY_LIMIT));
        assert!(after.quarantined > before.quarantined);
        let _ = take_quarantined();
    }

    #[test]
    fn chunk_size_is_coarse_but_balanced() {
        // Big batches: several chunks per worker, none empty.
        assert_eq!(chunk_size(64, 2), 4);
        assert_eq!(chunk_size(1000, 4), 31);
        // Small batches: never below one job per claim.
        assert_eq!(chunk_size(3, 2), 1);
        assert_eq!(chunk_size(1, 8), 1);
    }

    #[test]
    fn chunked_claims_cover_ragged_tails() {
        // Lengths straddling chunk boundaries for several worker counts:
        // every index must appear exactly once, in order.
        for jobs in [2, 3, 5] {
            for len in [1usize, 2, 7, 16, 17, 33, 100, 129] {
                let items: Vec<usize> = (0..len).collect();
                let got = Pool::new(jobs).map(&items, |&i| i);
                assert_eq!(got, items, "jobs={jobs} len={len}");
            }
        }
    }
}
