//! Persistent worker pool for sweep execution.
//!
//! [`super::runner::parallel_map`] used to spawn a fresh set of scoped
//! threads per call, which meant every sweep paid thread start-up costs and
//! — more importantly for the zero-allocation story — every worker started
//! with cold [`gather_sim::prelude::EngineParts`]. The pool here is created once
//! (per process via [`global`], or explicitly via [`WorkerPool::new`] for
//! benchmarks that compare thread counts) and its workers live for the
//! pool's lifetime, so thread-local engine scratch survives across batch
//! boundaries and a steady-state sweep performs no per-item allocation.
//!
//! Determinism contract (DESIGN.md §10): results are collected into a slot
//! per *input index*, and each scenario is a pure function of its own
//! `Scenario` value, so the returned `Vec` is bit-identical regardless of
//! how many workers the pool has or how indices interleave. The
//! thread-matrix tests in `tests/pool_determinism.rs` pin this down.
//!
//! Pure `std` only (hermetic-build policy, DESIGN.md §8): a `Mutex` +
//! `Condvar` pair hands batches to workers, and an atomic cursor inside the
//! batch lets workers claim indices without holding the lock.

use gather_obs::Histogram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-job pool instrumentation: concurrent histograms fed by every worker
/// of an instrumented pool ([`WorkerPool::new_instrumented`]).
///
/// Recording is a few relaxed atomic increments per job (see
/// [`Histogram::record`]) and happens only on pools that were given a
/// handle — the default pools ([`WorkerPool::new`], [`global`]) skip all
/// clock reads.
#[derive(Debug, Default)]
pub struct PoolObs {
    /// Nanoseconds from batch submission to a worker claiming the job.
    pub queue_wait: Histogram,
    /// Nanoseconds a worker spent executing the job.
    pub run_time: Histogram,
}

/// One submitted batch: a borrowed job (erased to a raw pointer — see the
/// safety argument in [`WorkerPool::run_batch`]) plus the claim cursor.
struct Batch {
    job: *const (dyn Fn(usize) + Sync),
    len: usize,
    next: AtomicUsize,
    /// When the batch entered the pool; per-job queue wait is measured
    /// from here to the claiming worker's clock read.
    submitted: Instant,
}

// SAFETY: `job` points at a `Sync` closure that the submitting thread keeps
// alive until every index is completed (enforced by `run_batch` blocking on
// `completed == len` before returning), and `next`/`len` are `Send + Sync`
// on their own.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

struct State {
    batch: Option<Arc<Batch>>,
    /// Bumped once per batch so sleeping workers can tell "new batch" from
    /// a spurious wake-up on the same (exhausted) batch.
    generation: u64,
    completed: usize,
    panicked: Option<String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    batch_done: Condvar,
    /// Serialises `run_batch` callers so `completed`/`panicked` always
    /// refer to exactly one in-flight batch.
    submission: Mutex<()>,
    /// Per-job histograms, when this pool is instrumented.
    obs: Option<Arc<PoolObs>>,
}

/// A fixed-size pool of long-lived worker threads executing index batches.
///
/// Workers persist across [`WorkerPool::map`] calls, so per-thread state
/// (notably the recycled engine parts in `runner::Scenario::run`) is reused
/// from one sweep item — and one sweep — to the next.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

fn worker_loop(shared: &Shared) {
    let mut seen_generation = 0u64;
    loop {
        // Wait for a batch newer than the last one this worker drained.
        // An undrained batch takes priority over shutdown: `shutdown` can
        // race with a submission that already passed its shutdown check
        // (both happen under the state mutex), and the submitter blocks
        // until `completed == len` — so workers must finish an in-flight
        // batch before exiting or that submitter would hang forever.
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.generation > seen_generation {
                    if let Some(b) = &st.batch {
                        seen_generation = st.generation;
                        break Arc::clone(b);
                    }
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap();
            }
        };
        // Claim and run indices without holding the lock.
        let mut done = 0usize;
        let mut panic_msg: Option<String> = None;
        loop {
            let i = batch.next.fetch_add(1, Ordering::Relaxed);
            if i >= batch.len {
                break;
            }
            // Instrumented pools time each job; plain pools never read the
            // clock here (one `Option` check per claim).
            let claimed = shared.obs.as_deref().map(|obs| {
                let now = Instant::now();
                obs.queue_wait
                    .record(now.duration_since(batch.submitted).as_nanos() as u64);
                now
            });
            // SAFETY: `i < len`, so the submitter is still blocked in
            // `run_batch` and the borrowed job is alive.
            let job = unsafe { &*batch.job };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                // First message wins; keep draining so `completed` still
                // reaches `len` and the submitter wakes up.
                panic_msg.get_or_insert(msg);
            }
            if let (Some(obs), Some(claimed)) = (shared.obs.as_deref(), claimed) {
                obs.run_time.record(claimed.elapsed().as_nanos() as u64);
            }
            done += 1;
        }
        if done > 0 {
            let mut st = shared.state.lock().unwrap();
            st.completed += done;
            if let Some(msg) = panic_msg {
                st.panicked.get_or_insert(msg);
            }
            if st.completed >= batch.len {
                shared.batch_done.notify_all();
            }
        }
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    pub fn new(threads: usize) -> Self {
        Self::spawn(threads, None)
    }

    /// Spawns an *instrumented* pool: every job's queue wait and run time
    /// is recorded into `obs` (shared with the caller, who reads quantiles
    /// from it — the serving layer exposes them on `/v1/metrics`).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    pub fn new_instrumented(threads: usize, obs: Arc<PoolObs>) -> Self {
        Self::spawn(threads, Some(obs))
    }

    fn spawn(threads: usize, obs: Option<Arc<PoolObs>>) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batch: None,
                generation: 0,
                completed: 0,
                panicked: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
            submission: Mutex::new(()),
            obs,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gather-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Initiates a graceful shutdown without consuming the pool: workers
    /// finish draining any in-flight batch (its `run_batch` caller returns
    /// normally, panics still propagate to it), then exit. Idempotent.
    ///
    /// After shutdown, submitting a new batch panics — the serving layer
    /// relies on this to guarantee no work sneaks in behind a drain.
    /// Dropping the pool afterwards joins the (already exiting) workers.
    pub fn shutdown(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.shutdown = true;
        self.shared.work_ready.notify_all();
    }

    /// Has [`WorkerPool::shutdown`] been called?
    pub fn is_shut_down(&self) -> bool {
        self.shared.state.lock().unwrap().shutdown
    }

    /// Runs `job(i)` for every `i in 0..len` on the pool and blocks until
    /// all indices completed.
    ///
    /// # Panics
    ///
    /// Re-panics on the calling thread if any job panicked (after the whole
    /// batch has drained, so the pool stays usable). Also panics if the
    /// pool was [`shutdown`](WorkerPool::shutdown) before submission.
    pub fn run_batch(&self, len: usize, job: &(dyn Fn(usize) + Sync)) {
        if len == 0 {
            return;
        }
        // A prior batch that re-panicked below has poisoned this mutex;
        // that is fine — the batch still drained fully, so the pool state
        // is consistent and the lock stays usable.
        let submission = self
            .shared
            .submission
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // SAFETY of the lifetime erasure: workers dereference `job` only for
        // indices `< len`, every index is claimed exactly once, and we block
        // below until `completed == len` — so no dereference can outlive
        // this stack frame. Late wake-ups after that see `next >= len` and
        // never touch the pointer again.
        let job: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(job) };
        let batch = Arc::new(Batch {
            job,
            len,
            next: AtomicUsize::new(0),
            submitted: Instant::now(),
        });
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            // Panic with no locks held so this refusal cannot poison the
            // pool state for a later drop.
            drop(st);
            drop(submission);
            panic!("batch submitted to a shut-down WorkerPool (shutdown() was called)");
        }
        st.batch = Some(Arc::clone(&batch));
        st.generation += 1;
        st.completed = 0;
        st.panicked = None;
        self.shared.work_ready.notify_all();
        while st.completed < len {
            st = self.shared.batch_done.wait(st).unwrap();
        }
        st.batch = None;
        let panicked = st.panicked.take();
        drop(st);
        drop(submission);
        if let Some(msg) = panicked {
            panic!("pool worker panicked: {msg}");
        }
    }

    /// Applies `f` to every item on the pool, returning results in input
    /// order (independent of worker count and scheduling — each result goes
    /// into the slot of its input index).
    ///
    /// # Panics
    ///
    /// Re-panics if `f` panicked on any item.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run_batch(items.len(), &|i| {
            let result = f(&items[i]);
            *slots[i].lock().unwrap() = Some(result);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker delivered every result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Worker count for the process-wide pool: `GATHER_THREADS` if set, else
/// the machine's available parallelism.
///
/// # Panics
///
/// Panics if `GATHER_THREADS` is set to anything but a positive integer.
pub fn default_threads() -> usize {
    match std::env::var("GATHER_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("GATHER_THREADS must be a positive integer, got {v:?}")),
        Err(_) => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool used by [`super::runner::parallel_map`]; created
/// on first use with [`default_threads`] workers and kept for the life of
/// the process so engine scratch persists across sweeps.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 5] {
            let pool = WorkerPool::new(threads);
            let items: Vec<u64> = (0..97).collect();
            let out = pool.map(&items, |x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..20u64 {
            let items: Vec<u64> = (0..11).collect();
            let out = pool.map(&items, |x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.map(&Vec::<u64>::new(), |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run_batch(counts.len(), &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let items: Vec<u64> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |x| {
                assert!(*x != 5, "boom at five");
                *x
            })
        }));
        assert!(caught.is_err());
        // The pool must still process a clean follow-up batch.
        let out = pool.map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn instrumented_pool_times_every_job() {
        let obs = Arc::new(PoolObs::default());
        let pool = WorkerPool::new_instrumented(2, Arc::clone(&obs));
        let items: Vec<u64> = (0..37).collect();
        let out = pool.map(&items, |x| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            x + 1
        });
        assert_eq!(out.len(), 37);
        assert_eq!(obs.queue_wait.count(), 37, "one wait sample per job");
        assert_eq!(obs.run_time.count(), 37, "one run sample per job");
        assert!(
            obs.run_time.quantile(0.5) >= 50_000,
            "jobs slept >= 50us: {:?}",
            obs.run_time
        );
    }

    /// Serialises the tests that mutate `GATHER_THREADS`: the test harness
    /// runs tests on parallel threads but the environment is process-wide.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `body` with `GATHER_THREADS` set to `value` (unset for `None`),
    /// restoring the prior value afterwards even if `body` panics.
    fn with_gather_threads<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prior = std::env::var("GATHER_THREADS").ok();
        match value {
            Some(v) => std::env::set_var("GATHER_THREADS", v),
            None => std::env::remove_var("GATHER_THREADS"),
        }
        let result = catch_unwind(AssertUnwindSafe(body));
        match prior {
            Some(v) => std::env::set_var("GATHER_THREADS", v),
            None => std::env::remove_var("GATHER_THREADS"),
        }
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    #[test]
    fn gather_threads_env_controls_default() {
        // `default_threads` reads the env var on every call, so exercising
        // it here is safe as long as we restore the prior value.
        with_gather_threads(Some("3"), || assert_eq!(default_threads(), 3));
        // Leading/trailing whitespace is tolerated (a quoted shell export).
        with_gather_threads(Some(" 2 "), || assert_eq!(default_threads(), 2));
        // Unset falls back to the machine's parallelism: some positive count.
        with_gather_threads(None, || assert!(default_threads() >= 1));
    }

    #[test]
    fn gather_threads_invalid_values_panic_with_contract_message() {
        // The documented contract: anything but a positive integer is a
        // configuration error, reported loudly instead of silently
        // defaulting — a typo'd `GATHER_THREADS=auto` must not quietly pin
        // a benchmark to the wrong worker count.
        for bad in ["0", "-1", "auto", "2.5", "", "1x"] {
            let caught = with_gather_threads(Some(bad), || {
                catch_unwind(AssertUnwindSafe(default_threads))
            });
            let payload = caught.expect_err(&format!("GATHER_THREADS={bad:?} must panic"));
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("GATHER_THREADS must be a positive integer"),
                "GATHER_THREADS={bad:?}: unexpected panic message {msg:?}"
            );
            assert!(
                msg.contains(&format!("{bad:?}")),
                "panic message must echo the offending value: {msg:?}"
            );
        }
    }
}
