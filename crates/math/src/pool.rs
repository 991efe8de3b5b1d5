//! The shared worker-pool primitive used by every parallel stage (tiled
//! ground-truth rendering here in the geometry substrate, scene baking,
//! profiling and final baking in the pipeline engine).
//!
//! The pool lives in `nerflex-math` — the bottom of the crate graph — so
//! both the scene renderer (which `nerflex-bake` depends on) and the higher
//! pipeline stages can fan work over the same primitive without a
//! dependency cycle; every crate uses it as `nerflex_math::pool`.
//!
//! Since the persistent-pool rework, [`parallel_map`] no longer spawns
//! scoped threads per call: every dispatch runs on one process-wide
//! [`WorkerPool`] of long-lived threads ([`WorkerPool::shared`]), and
//! results are written into disjoint per-job slots instead of a global
//! mutex. The scheduling contract is unchanged and documented in
//! `docs/pool.md` and `docs/determinism.md`: jobs are claimed from an
//! atomic queue, results are collected **in job order**, worker counts
//! never change output bits, and `workers <= 1` (or a single job) runs
//! sequentially on the calling thread — the bit-for-bit sequential path.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Counters describing how much work a [`WorkerPool`] has dispatched.
///
/// `dispatches` counts every batch entry (including sequential inline runs);
/// `jobs` counts the individual closures executed through them. The pipeline
/// engine snapshots these around its profiling stage so the whole-profile
/// batching win (fewer dispatches for the same jobs) is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total dispatches (batches) entered, including inline sequential runs.
    pub dispatches: u64,
    /// Total jobs executed across all dispatches.
    pub jobs: u64,
}

/// Type-erased pointer to a dispatch's per-worker body closure.
///
/// Validity: the dispatching call stores this in a [`Batch`] that is only
/// reachable from the pool's batch list, publishes it before running the
/// body itself, and does not return until the batch has been removed from
/// the list **and** its executor count has dropped to zero — so every
/// dereference happens while the closure (on the dispatcher's stack) is
/// still alive.
#[derive(Clone, Copy)]
struct RawBody(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer is only dereferenced within the dispatch lifetime
// documented above.
unsafe impl Send for RawBody {}
unsafe impl Sync for RawBody {}

/// One in-flight dispatch on the pool's batch list.
struct Batch {
    /// Per-worker body; set (under the mutex) before the batch is published.
    body: Mutex<Option<RawBody>>,
    /// Number of jobs in the batch.
    jobs: usize,
    /// How many pool threads may join (the dispatcher itself is one worker
    /// on top of this).
    extra_limit: usize,
    /// Pool threads currently inside the body (modified under the pool
    /// mutex so the dispatcher can wait for zero without missed wakeups).
    executors: AtomicUsize,
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Set when a job panicked; stops further claims.
    panicked: AtomicBool,
    /// First panic payload, re-raised on the dispatching thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    fn new(jobs: usize, workers: usize) -> Self {
        Self {
            body: Mutex::new(None),
            jobs,
            extra_limit: workers.saturating_sub(1),
            executors: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Whether an idle pool thread should join this batch. Only evaluated
    /// under the pool mutex.
    fn wants_executor(&self) -> bool {
        self.executors.load(Ordering::Relaxed) < self.extra_limit
            && !self.panicked.load(Ordering::Relaxed)
            && self.next.load(Ordering::Relaxed) < self.jobs
    }
}

struct PoolInner {
    batches: Vec<Arc<Batch>>,
    shutdown: bool,
}

struct PoolShared {
    inner: Mutex<PoolInner>,
    /// Signals workers: a batch was published or shutdown requested.
    work: Condvar,
    /// Signals dispatchers: a batch's executor count changed.
    done: Condvar,
    dispatches: AtomicU64,
    jobs_run: AtomicU64,
}

/// A persistent pool of long-lived worker threads.
///
/// Dispatches are *batches*: a set of `jobs` index-addressed closures
/// claimed from an atomic queue by up to `workers` threads (the dispatching
/// thread participates, so a pool with `N` background threads supports up
/// to `N + 1` workers). Results are written into disjoint per-job slots —
/// no lock on the hot path — and returned in job order.
///
/// Dispatches are re-entrant: a job may itself dispatch on the same pool
/// (the pipeline's object → sample → tile nesting does). The dispatching
/// thread always drives its own batch to completion, so nesting cannot
/// deadlock even when every background thread is busy.
///
/// Determinism: scheduling never changes output bits. Jobs are pure
/// functions of their index, results are stitched in job order, and
/// `workers <= 1` (or `jobs <= 1`) bypasses the pool entirely and runs
/// sequentially on the caller — bit-for-bit the sequential path.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads).finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` background threads (plus the
    /// dispatching thread, so up to `threads + 1` workers per batch).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            inner: Mutex::new(PoolInner { batches: Vec::new(), shutdown: false }),
            work: Condvar::new(),
            done: Condvar::new(),
            dispatches: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, handles: Mutex::new(handles), threads }
    }

    /// The process-wide shared pool used by [`parallel_map`] and as the
    /// default [`WorkerPool`] handle in pipeline options.
    ///
    /// Sized from `NERFLEX_WORKERS` when set, otherwise the available
    /// parallelism, with a floor of three background threads so explicit
    /// multi-worker dispatches exercise real concurrency even on small
    /// machines. The floor never affects results (worker counts never
    /// change output bits) nor default fan-out widths ([`default_workers`]
    /// does not apply the floor).
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| {
            let configured = env_workers()
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            WorkerPool::new(configured.max(4) - 1)
        })
    }

    /// Number of background threads (capacity is `threads + 1` workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the dispatch/job counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dispatches: self.shared.dispatches.load(Ordering::Relaxed),
            jobs: self.shared.jobs_run.load(Ordering::Relaxed),
        }
    }

    /// Runs `jobs` closures on up to `workers` threads and collects results
    /// in job order. See [`WorkerPool`] for the scheduling contract.
    pub fn run<T, F>(&self, jobs: usize, workers: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_scratch(jobs, workers, || (), |(), idx| job(idx))
    }

    /// Executes jobs from one in-flight batch on the calling thread, if any
    /// batch currently wants another executor. Returns `true` if it helped.
    ///
    /// This is the building block that lets a thread *wait on someone
    /// else's in-flight computation without going idle*: instead of
    /// blocking, it joins whatever batch is running — possibly the very
    /// dispatch it is waiting for — and drains jobs until that batch no
    /// longer wants it. Joining a batch never changes output bits (results
    /// land in disjoint per-job slots, stitched in job order), so helping
    /// is always safe under the determinism contract.
    pub fn try_help(&self) -> bool {
        let mut inner = self.shared.inner.lock().expect("pool poisoned");
        let candidate = inner.batches.iter().find(|b| b.wants_executor()).map(Arc::clone);
        let Some(batch) = candidate else {
            return false;
        };
        batch.executors.fetch_add(1, Ordering::Relaxed);
        let raw = batch.body.lock().expect("body slot poisoned").expect("published batch");
        drop(inner);
        // A panic cannot escape the body (jobs are caught inside); the
        // defensive catch mirrors `worker_loop`.
        // SAFETY: see `RawBody` — the dispatcher keeps the closure alive
        // until this executor is counted back out.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*raw.0)() }));
        inner = self.shared.inner.lock().expect("pool poisoned");
        batch.executors.fetch_sub(1, Ordering::Relaxed);
        drop(inner);
        self.shared.done.notify_all();
        true
    }

    /// Blocks the calling thread until `ready()` returns `true`,
    /// contributing to in-flight batches via [`WorkerPool::try_help`]
    /// instead of sleeping whenever there is work to steal.
    ///
    /// This is how a deployment-service request waits on another request's
    /// in-flight shared-stage computation without deadlocking nested
    /// dispatch: the waiting thread either makes the awaited work finish
    /// faster (by executing its jobs) or parks briefly and re-checks. The
    /// pool's own guarantee — a dispatcher always drives its own batch to
    /// completion — means the awaited computation progresses even if every
    /// waiter parks, so this loop always terminates once the builder does.
    pub fn wait_until(&self, ready: impl Fn() -> bool) {
        while !ready() {
            if !self.try_help() {
                std::thread::park_timeout(std::time::Duration::from_micros(200));
            }
        }
    }

    /// Bounded [`WorkerPool::wait_until`]: helps and re-checks like the
    /// unbounded form, but gives up once `timeout` elapses. Returns `true`
    /// when `ready()` became true, `false` on timeout.
    ///
    /// This is the primitive behind the deployment service's stall
    /// watchdog: a consumer waits on in-flight work *for a while*, then
    /// regains control to check whether an executor has stopped making
    /// progress — instead of blocking forever on work that will never
    /// finish.
    pub fn wait_until_for(&self, ready: impl Fn() -> bool, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while !ready() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            if !self.try_help() {
                std::thread::park_timeout(std::time::Duration::from_micros(200));
            }
        }
        true
    }

    /// Like [`WorkerPool::run`], but each participating worker builds one
    /// `scratch` value per dispatch (lazily, on its first claimed job) and
    /// reuses it across all the jobs it executes — the allocation-churn
    /// killer for whole-profile batched measurement. `scratch` must not
    /// influence results (worker counts, and therefore scratch reuse
    /// patterns, never change output bits).
    pub fn run_scratch<T, S, I, F>(&self, jobs: usize, workers: usize, init: I, job: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs_run.fetch_add(jobs as u64, Ordering::Relaxed);
        let workers = workers.min(jobs).min(self.threads + 1);
        if workers <= 1 || jobs <= 1 {
            // The bit-for-bit sequential path: no pool, no extra threads.
            let mut scratch = init();
            return (0..jobs).map(|idx| job(&mut scratch, idx)).collect();
        }

        let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        let slot_ptr = SlotPtr(slots.as_mut_ptr());
        let batch = Arc::new(Batch::new(jobs, workers));

        // The per-worker body: claim indices until the queue drains, writing
        // each result into its disjoint slot. Scratch is built on the first
        // claim so workers that never get a job never pay for it.
        let body = || {
            let mut scratch: Option<S> = None;
            loop {
                if batch.panicked.load(Ordering::Acquire) {
                    break;
                }
                let idx = batch.next.fetch_add(1, Ordering::Relaxed);
                if idx >= jobs {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let scratch = scratch.get_or_insert_with(&init);
                    job(scratch, idx)
                }));
                match outcome {
                    // SAFETY: `idx` was claimed by exactly one worker, and
                    // the slot vector outlives the dispatch (the dispatcher
                    // blocks until every executor has exited the body).
                    Ok(value) => unsafe { slot_ptr.write(idx, value) },
                    Err(payload) => {
                        let mut slot = batch.panic.lock().expect("panic slot poisoned");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        batch.panicked.store(true, Ordering::Release);
                        break;
                    }
                }
            }
        };

        // Publish the batch, then work on it from this thread too.
        {
            let body_ref: &(dyn Fn() + Sync) = &body;
            // SAFETY: lifetime erasure only — the raw pointer is dropped from
            // the batch list and all executors are joined before `body` goes
            // out of scope (see `RawBody`).
            let raw: RawBody = unsafe {
                RawBody(std::mem::transmute::<
                    *const (dyn Fn() + Sync),
                    *const (dyn Fn() + Sync + 'static),
                >(body_ref))
            };
            *batch.body.lock().expect("body slot poisoned") = Some(raw);
            let mut inner = self.shared.inner.lock().expect("pool poisoned");
            inner.batches.push(Arc::clone(&batch));
        }
        self.shared.work.notify_all();
        body();

        // Close the batch (no new executors may join) and wait for the ones
        // already inside the body to leave; after this no thread holds a
        // reference to `body` or the slot vector.
        {
            let mut inner = self.shared.inner.lock().expect("pool poisoned");
            inner.batches.retain(|b| !Arc::ptr_eq(b, &batch));
            while batch.executors.load(Ordering::Relaxed) > 0 {
                inner = self.shared.done.wait(inner).expect("pool poisoned");
            }
        }

        if let Some(payload) = batch.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        slots.into_iter().map(|r| r.expect("every job ran")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("pool poisoned");
            inner.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.lock().expect("pool poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Raw pointer to the result slots; writes go to disjoint indices (each
/// claimed by exactly one worker), so no synchronisation is needed beyond
/// the dispatch join.
struct SlotPtr<T>(*mut Option<T>);

impl<T> Clone for SlotPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotPtr<T> {}

// SAFETY: `T: Send` results cross threads; disjoint-index writes are the
// only access until the dispatcher reclaims the vector after the join.
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// # Safety
    /// `idx` must be in bounds, claimed by exactly one worker, and the slot
    /// vector must outlive the write (the dispatch join guarantees it).
    unsafe fn write(self, idx: usize, value: T) {
        *self.0.add(idx) = Some(value);
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut inner = shared.inner.lock().expect("pool poisoned");
    loop {
        if inner.shutdown {
            return;
        }
        let candidate = inner.batches.iter().find(|b| b.wants_executor()).map(Arc::clone);
        match candidate {
            Some(batch) => {
                batch.executors.fetch_add(1, Ordering::Relaxed);
                let raw = batch.body.lock().expect("body slot poisoned").expect("published batch");
                drop(inner);
                // A panic cannot escape the body (jobs are caught inside),
                // but a defensive catch keeps the pool thread alive anyway.
                // SAFETY: see `RawBody` — the dispatcher keeps the closure
                // alive until this executor is counted back out.
                let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*raw.0)() }));
                inner = shared.inner.lock().expect("pool poisoned");
                batch.executors.fetch_sub(1, Ordering::Relaxed);
                shared.done.notify_all();
            }
            None => {
                inner = shared.work.wait(inner).expect("pool poisoned");
            }
        }
    }
}

/// Runs `jobs` closures on up to `workers` threads of the process-wide
/// [`WorkerPool::shared`] pool and collects their results in job order
/// (deterministic regardless of scheduling). With one worker — or one job —
/// the closures run sequentially on the calling thread, which is the
/// bit-for-bit sequential path.
///
/// A panicking job propagates: the dispatch drains, then re-raises the
/// first panic payload on the calling thread.
pub fn parallel_map<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    WorkerPool::shared().run(jobs, workers, job)
}

/// The `NERFLEX_WORKERS` override: a positive integer pins the default
/// worker count (and sizes the shared pool) without code changes.
pub fn env_workers() -> Option<usize> {
    std::env::var("NERFLEX_WORKERS").ok()?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// One worker per available core — or the `NERFLEX_WORKERS` override when
/// set — capped by the job count.
pub fn default_workers(jobs: usize) -> usize {
    env_workers()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(jobs.max(1))
}

/// Folds `items` with a fixed pairwise reduction tree: neighbours combine
/// first (`0⊕1`, `2⊕3`, …), then the survivors pairwise again, until one
/// value remains. The association order depends only on `items.len()` —
/// never on worker counts or scheduling — so reducing per-tile partials
/// produced by [`parallel_map`] (which returns them in job order) yields
/// bit-identical floating-point results for every worker count. Returns
/// `None` for an empty input.
pub fn tree_reduce<T>(mut items: Vec<T>, combine: impl Fn(T, T) -> T) -> Option<T> {
    if items.is_empty() {
        return None;
    }
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut iter = items.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        items = next;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order() {
        let out = parallel_map(64, 8, |i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = parallel_map(10, 1, |i| i * i);
        let par = parallel_map(10, 4, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn default_workers_is_capped_by_jobs() {
        assert_eq!(default_workers(1), 1);
        assert!(default_workers(1000) >= 1);
    }

    #[test]
    fn panicking_job_propagates_after_the_batch_drains() {
        let observed = std::panic::catch_unwind(|| {
            parallel_map(16, 4, |i| {
                if i == 5 {
                    panic!("job five exploded");
                }
                i
            })
        });
        let payload = observed.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "job five exploded");
        // The pool survives a panicking dispatch.
        assert_eq!(parallel_map(4, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        // object → sample → tile nesting: every level fans on the same pool.
        let out = parallel_map(4, 4, |i| {
            parallel_map(4, 4, |j| parallel_map(3, 4, |k| i * 100 + j * 10 + k))
                .into_iter()
                .flatten()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..4)
            .map(|i| (0..4).flat_map(|j| (0..3).map(move |k| i * 100 + j * 10 + k)).sum::<usize>())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn owned_pool_counts_dispatches_and_jobs() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        let out = pool.run(8, 3, |i| i + 1);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        let _ = pool.run(5, 1, |i| i);
        let stats = pool.stats();
        assert_eq!(stats.dispatches, 2);
        assert_eq!(stats.jobs, 13);
    }

    #[test]
    fn scratch_is_reused_within_a_worker_and_bounded_by_workers() {
        let pool = WorkerPool::new(3);
        let inits = AtomicUsize::new(0);
        let out = pool.run_scratch(
            64,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, idx| {
                scratch.push(idx);
                idx * 3
            },
        );
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        let built = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&built), "one scratch per participating worker, got {built}");
    }

    #[test]
    fn env_override_pins_default_workers() {
        // Single test touching the variable; tests in this binary that read
        // it race-free because none of them set it.
        std::env::set_var("NERFLEX_WORKERS", "3");
        assert_eq!(env_workers(), Some(3));
        assert_eq!(default_workers(10), 3);
        assert_eq!(default_workers(2), 2);
        std::env::set_var("NERFLEX_WORKERS", "not a number");
        assert_eq!(env_workers(), None);
        std::env::remove_var("NERFLEX_WORKERS");
        assert_eq!(env_workers(), None);
    }

    #[test]
    fn try_help_without_work_returns_false() {
        let pool = WorkerPool::new(2);
        assert!(!pool.try_help());
    }

    #[test]
    fn wait_until_observes_progress_made_elsewhere() {
        // A waiter on one thread, a dispatch on another: the waiter must
        // return once the flag flips, whether it helped or parked.
        let pool = Arc::new(WorkerPool::new(2));
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (pool, flag) = (Arc::clone(&pool), Arc::clone(&flag));
            std::thread::spawn(move || pool.wait_until(|| flag.load(Ordering::Acquire)))
        };
        let out = pool.run(64, 3, |i| i);
        assert_eq!(out.len(), 64);
        flag.store(true, Ordering::Release);
        waiter.join().expect("waiter exits once ready() holds");
    }

    #[test]
    fn wait_until_for_times_out_without_progress_and_returns_early_with_it() {
        let pool = WorkerPool::new(2);
        // Nothing ever flips the flag: the bounded wait must come back.
        let start = std::time::Instant::now();
        assert!(!pool.wait_until_for(|| false, std::time::Duration::from_millis(5)));
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        // An already-true predicate returns immediately with `true`.
        assert!(pool.wait_until_for(|| true, std::time::Duration::ZERO));
    }

    #[test]
    fn helping_does_not_change_output_bits() {
        let pool = Arc::new(WorkerPool::new(3));
        let reference: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
        // Run the dispatch while an extra thread aggressively helps.
        let stop = Arc::new(AtomicBool::new(false));
        let helper = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    pool.try_help();
                }
            })
        };
        let helped = pool.run(256, 4, |i| (i as f64 * 0.37).sin());
        stop.store(true, Ordering::Release);
        helper.join().expect("helper exits");
        for (a, b) in reference.iter().zip(&helped) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tree_reduce_covers_every_item_once() {
        assert_eq!(tree_reduce(Vec::<u32>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7u32], |a, b| a + b), Some(7));
        for n in 2..20usize {
            let sum = tree_reduce((1..=n).collect(), |a, b| a + b);
            assert_eq!(sum, Some(n * (n + 1) / 2));
        }
    }

    #[test]
    fn tree_reduce_association_is_fixed_by_length() {
        // Record the association as nested strings: the shape must depend on
        // the item count alone (the determinism contract callers build on).
        let shape = |n: usize| {
            tree_reduce((0..n).map(|i| i.to_string()).collect::<Vec<_>>(), |a, b| {
                format!("({a}+{b})")
            })
            .unwrap()
        };
        assert_eq!(shape(4), "((0+1)+(2+3))");
        assert_eq!(shape(5), "(((0+1)+(2+3))+4)");
    }
}
