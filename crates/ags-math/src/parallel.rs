//! Deterministic parallelism for the hot kernels: a persistent worker-pool
//! executor plus the [`Parallelism`] knob the pipelines thread through their
//! configs.
//!
//! The workspace vendors no thread-pool crate; instead [`WorkerPool`] spawns
//! its workers **once** and every kernel invocation submits a *batch* of
//! contiguous index chunks to it. Workers (and the submitting thread, which
//! always participates) pull chunk indices off an atomic counter; chunk
//! *results* land in per-chunk slots and are merged **in chunk order**, so
//! every helper is **bit-identical** to its serial equivalent regardless of
//! worker count or OS scheduling — the property the kernel tests enforce.
//!
//! Compared to the previous per-call `std::thread::scope` fork-join this
//! removes the thread spawn/join cost from every kernel call (the dominant
//! overhead for small SLAM frames) and lets *concurrent* pipeline stages —
//! e.g. the FC worker and the SLAM thread of `AgsSlam` — share one
//! set of OS threads instead of oversubscribing the machine: submissions
//! from different threads queue up and drain through the same workers.
//!
//! The scheduling knob is [`Parallelism`]: pipelines thread it from their
//! config down to the motion-estimation and rasterization kernels. It can
//! carry an explicit pool handle ([`Parallelism::with_pool`]); without one,
//! parallel work runs on the lazily created process-wide [`WorkerPool::global`]
//! pool. `Parallelism::serial()` recovers the exact single-threaded execution.
//!
//! Submissions from every thread share **one FIFO queue**. Each submitter
//! blocks until its own batch is done and helps drain it, so a thread has at
//! most one batch queued (plus any nested one) and no stream's submissions
//! can starve another's: a later batch waits behind at most the batches
//! already queued. Idle workers all pile onto the oldest live batch.
//!
//! **Small-work serial fallback** — [`Parallelism::min_items_per_worker`]
//! bounds the scheduling overhead: a submission too small to give every
//! planned executor that many work items runs inline on the caller instead
//! of paying the queue round-trip (and, on a loaded server, instead of
//! interfering with other streams' batches). The fallback is bit-identical
//! by construction — it runs the exact serial path.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How many chunks to cut per worker thread. More chunks smooth out load
/// imbalance (tiles and macro-block rows have skewed costs) at slightly
/// higher scheduling overhead.
const CHUNKS_PER_THREAD: usize = 4;

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Type-erased chunk runner shared with the workers for the duration of one
/// batch. `data` points into the submitting thread's stack; the submitter
/// blocks until every chunk completed, so the pointee outlives all calls.
struct Task {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: `call` only dereferences `data` as the `Sync` closure it was
// erased from, and the submitting thread keeps that closure alive (and
// un-moved) until the batch completes.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// One submitted job: `num_chunks` chunk indices executed exactly once each.
struct Batch {
    task: Task,
    num_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks claimed but not yet completed + unclaimed chunks.
    pending: AtomicUsize,
    /// Set when any chunk panicked; claimers short-circuit remaining chunks.
    poisoned: AtomicBool,
    /// First panic payload, handed back to the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    /// Claims and runs chunks until none are left. Returns once this caller
    /// can no longer contribute (the batch may still be running elsewhere).
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.num_chunks {
                return;
            }
            if !self.poisoned.load(Ordering::Relaxed) {
                // SAFETY: chunk `i` is claimed exactly once (fetch_add), and
                // the submitter keeps the erased closure alive until done.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe {
                    (self.task.call)(self.task.data, i)
                }));
                if let Err(payload) = result {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
            }
            // AcqRel: the thread that observes `pending == 1` (and flips the
            // done flag) acquires every other claimer's chunk writes, and the
            // submitter acquires them through the `done` mutex.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().unwrap();
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// True once every chunk index has been claimed.
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.num_chunks
    }
}

/// Queue state shared between the pool handle and its workers: one FIFO of
/// submitted batches.
struct PoolQueue {
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

impl PoolQueue {
    /// The oldest batch with unclaimed chunks. Fully claimed batches are
    /// dropped on the way (their remaining chunks are being finished by the
    /// threads that claimed them). The returned batch stays at the front, so
    /// further idle workers keep piling onto it until it is exhausted.
    fn take_next(&mut self) -> Option<Arc<Batch>> {
        while self.batches.front().is_some_and(|b| b.exhausted()) {
            self.batches.pop_front();
        }
        self.batches.front().cloned()
    }
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
}

/// A persistent pool of worker threads executing chunk-ordered batches.
///
/// Spawned once and shared across kernel calls — and across pipeline
/// *stages*: any thread may submit concurrently; batches queue FIFO and
/// every submitter helps drain its own batch, so submissions never deadlock
/// (even nested ones from inside a worker). Results are merged in chunk
/// order by the `par_*` helpers, which keeps parallel execution
/// bit-identical to serial regardless of how many workers participate.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads. `0` is allowed: submissions then
    /// run entirely on the submitting thread (still through the batch path).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue { batches: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ags-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers: handles }
    }

    /// The process-wide shared pool, lazily spawned with one worker per
    /// available CPU minus one (the submitting thread always participates,
    /// so total concurrency matches the core count).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(machine_parallelism().saturating_sub(1))))
    }

    /// Number of worker threads (the submitter adds one more executor).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0) … f(num_chunks - 1)`, each exactly once, distributing the
    /// calls across the pool's workers and the calling thread. Blocks until
    /// every call completed; panics from `f` are resumed on the caller.
    ///
    /// This is the scoped building block the `par_*` helpers use: `f` may
    /// borrow from the caller's stack because the call does not return until
    /// the batch is fully drained.
    pub fn run_scope(&self, num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if num_chunks == 0 {
            return;
        }
        /// Calls the erased closure for chunk `i`.
        ///
        /// SAFETY: `data` must be the `*const &dyn Fn` produced in
        /// `run_scope` below, still alive (guaranteed: `run_scope` blocks).
        unsafe fn call_erased(data: *const (), i: usize) {
            let f = unsafe { *(data.cast::<&(dyn Fn(usize) + Sync)>()) };
            f(i);
        }
        let batch = Arc::new(Batch {
            task: Task { data: (&f as *const &(dyn Fn(usize) + Sync)).cast(), call: call_erased },
            num_chunks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(num_chunks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if num_chunks > 1 && self.workers() > 0 {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.batches.push_back(Arc::clone(&batch));
            drop(queue);
            self.shared.available.notify_all();
        }
        // The submitter always helps drain its own batch — this is what makes
        // nested/concurrent submissions deadlock-free: every batch has at
        // least one thread guaranteed to be executing it.
        batch.run_chunks();
        let mut done = batch.done.lock().unwrap();
        while !*done {
            done = batch.done_cv.wait(done).unwrap();
        }
        drop(done);
        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(batch) = queue.take_next() {
                    break batch;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        batch.run_chunks();
    }
}

/// A per-chunk result slot written by exactly one claimer.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: each slot index is written by the single thread that claimed the
// chunk, and reads happen only after batch completion (synchronised through
// `Batch::done`).
unsafe impl<T: Send> Sync for Slot<T> {}

// ---------------------------------------------------------------------------
// Parallelism knob
// ---------------------------------------------------------------------------

/// The machine's available CPU count, queried once and cached.
///
/// `std::thread::available_parallelism` re-reads affinity masks and cgroup
/// quota files on every call — measurable (a few percent) on millisecond
/// kernels that consult the knob per submission. The cgroup quota of a
/// long-running process is effectively static, so one read serves the
/// process lifetime.
pub fn machine_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Default [`Parallelism::min_items_per_worker`]: roughly the elementary-op
/// count (one bounded SAD evaluation, one splat-pixel blend) below which a
/// worker's share of a submission is cheaper than the queue round-trip that
/// delivers it. Conservative on purpose: on a multi-tenant pool an
/// under-sized submission not only loses time itself, it also interferes
/// with other streams' batches.
pub const DEFAULT_MIN_ITEMS_PER_WORKER: usize = 16_384;

/// Thread-level parallelism knob threaded through the kernel configs.
///
/// Besides the on/off switch and the worker budget this carries an optional
/// **pool handle**: the executor the kernel submits to. Pipelines install
/// one shared handle across all their stages (see `AgsConfig::resolve`), so
/// concurrent stages draw from one set of threads. Without a handle,
/// parallel work uses [`WorkerPool::global`].
///
/// Equality intentionally ignores the pool handle — two configs asking for
/// the same parallelism *policy* compare equal no matter which executor
/// serves them.
#[derive(Debug, Clone)]
pub struct Parallelism {
    /// Whether the parallel path may be taken at all.
    pub enabled: bool,
    /// Worker-thread budget; `0` means one worker per available CPU. This
    /// sizes the chunking; actual concurrency is additionally bounded by the
    /// executing pool's worker count (+ the submitting thread).
    pub threads: usize,
    /// Small-work serial fallback threshold: a kernel submission whose
    /// estimated work-item count cannot give every planned executor at
    /// least this many items runs inline on the caller instead (see
    /// [`Parallelism::for_workload`]) — bit-identical by construction, it
    /// is the exact serial path. `0` disables the fallback (tests that must
    /// exercise the executor on tiny inputs pin it to `0` via
    /// [`Parallelism::min_items`]).
    pub min_items_per_worker: usize,
    /// Executor handle; `None` falls back to the global pool.
    pool: Option<Arc<WorkerPool>>,
}

impl PartialEq for Parallelism {
    fn eq(&self, other: &Self) -> bool {
        self.enabled == other.enabled
            && self.threads == other.threads
            && self.min_items_per_worker == other.min_items_per_worker
    }
}

impl Eq for Parallelism {}

impl Default for Parallelism {
    fn default() -> Self {
        Self {
            enabled: true,
            threads: 0,
            min_items_per_worker: DEFAULT_MIN_ITEMS_PER_WORKER,
            pool: None,
        }
    }
}

impl Parallelism {
    /// Forces the serial reference path.
    pub const fn serial() -> Self {
        Self {
            enabled: false,
            threads: 1,
            min_items_per_worker: DEFAULT_MIN_ITEMS_PER_WORKER,
            pool: None,
        }
    }

    /// Parallel execution with an explicit worker budget.
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            enabled: true,
            threads,
            min_items_per_worker: DEFAULT_MIN_ITEMS_PER_WORKER,
            pool: None,
        }
    }

    /// Parallel execution on an explicit executor.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self { pool: Some(pool), ..Self::default() }
    }

    /// This knob re-targeted at an explicit executor (policy unchanged).
    pub fn on_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// This knob with a different small-work fallback threshold (`0`
    /// disables the fallback entirely).
    pub fn min_items(mut self, min_items_per_worker: usize) -> Self {
        self.min_items_per_worker = min_items_per_worker;
        self
    }

    /// The installed executor handle, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// The executor a kernel should submit to.
    fn executor(&self) -> Arc<WorkerPool> {
        match &self.pool {
            Some(pool) => Arc::clone(pool),
            None => Arc::clone(WorkerPool::global()),
        }
    }

    /// Resolves the knob for a workload of `work_items` (in the call site's
    /// elementary-op units). Two fallbacks apply, both bit-identical by
    /// construction (the serial path is the reference the parallel path is
    /// tested against):
    ///
    /// * in auto mode (`threads == 0`) workloads below `serial_below` run
    ///   serially, because scheduling cost would dominate the work;
    /// * in any mode, a submission that cannot give every planned executor
    ///   at least [`min_items_per_worker`](Self::min_items_per_worker)
    ///   items runs inline — pinned thread counts are honored only above
    ///   that floor (pin `min_items(0)` to force the executor path on tiny
    ///   inputs).
    pub fn for_workload(&self, work_items: usize, serial_below: usize) -> Self {
        if !self.enabled {
            return self.clone();
        }
        let auto_small = self.threads == 0 && work_items < serial_below;
        let starves_workers = self.min_items_per_worker > 0
            && work_items < self.min_items_per_worker.saturating_mul(self.effective_threads());
        if auto_small || starves_workers {
            Self::serial()
        } else {
            self.clone()
        }
    }

    /// The number of concurrent executors a kernel should plan for: the
    /// pinned budget if any, else the installed pool's workers plus the
    /// submitting thread, else the machine's core count.
    pub fn effective_threads(&self) -> usize {
        if !self.enabled {
            return 1;
        }
        if self.threads > 0 {
            self.threads
        } else if let Some(pool) = &self.pool {
            // Size chunking for the executor that will actually run the
            // batch, not for the whole machine.
            pool.workers() + 1
        } else {
            machine_parallelism()
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic helpers
// ---------------------------------------------------------------------------

/// Splits `0..n` into contiguous chunks of at least `min_chunk` indices, maps
/// every chunk through `f` (possibly on pool workers) and returns the chunk
/// results **in chunk order**.
///
/// Falls back to a plain sequential loop when one executor (or one chunk) is
/// all there is, so the serial path pays no synchronisation cost.
pub fn par_map_ranges<T, F>(par: &Parallelism, n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = par.effective_threads();
    let chunk = min_chunk.max(1).max(n.div_ceil(threads * CHUNKS_PER_THREAD));
    let num_chunks = n.div_ceil(chunk);
    let range_of = |i: usize| i * chunk..((i + 1) * chunk).min(n);
    if threads <= 1 || num_chunks <= 1 {
        return (0..num_chunks).map(|i| f(range_of(i))).collect();
    }

    let slots: Vec<Slot<T>> = (0..num_chunks).map(|_| Slot(UnsafeCell::new(None))).collect();
    let run = |i: usize| {
        let value = f(range_of(i));
        // SAFETY: chunk `i` is claimed by exactly one thread (see
        // `Batch::run_chunks`), so this write is unaliased; reads happen
        // after completion.
        unsafe { *slots[i].0.get() = Some(value) };
    };
    par.executor().run_scope(num_chunks, &run);
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("completed batch left an empty chunk slot"))
        .collect()
}

/// Computes `[f(0), f(1), …, f(n-1)]`, distributing contiguous index chunks
/// across workers. Output order always matches the serial map.
pub fn par_map<T, F>(par: &Parallelism, n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let chunks = par_map_ranges(par, n, min_chunk, |r| r.map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_mode_uses_one_thread() {
        assert_eq!(Parallelism::serial().effective_threads(), 1);
        assert_eq!(Parallelism::with_threads(3).effective_threads(), 3);
        assert!(Parallelism::default().effective_threads() >= 1);
    }

    #[test]
    fn for_workload_auto_mode_falls_back_below_serial_threshold() {
        let auto = Parallelism::default().min_items(0);
        assert_eq!(auto.for_workload(10, 100), Parallelism::serial());
        assert_eq!(auto.for_workload(100, 100), auto);
        // With the fallback disabled, explicit thread counts are honored at
        // any workload size.
        let pinned = Parallelism::with_threads(4).min_items(0);
        assert_eq!(pinned.for_workload(10, 100), pinned);
        // Serial stays serial.
        assert_eq!(Parallelism::serial().for_workload(1000, 100), Parallelism::serial());
    }

    #[test]
    fn for_workload_runs_starved_submissions_inline() {
        // A submission must give every planned executor at least
        // `min_items_per_worker` items, pinned thread count or not.
        let pinned = Parallelism::with_threads(4).min_items(100);
        assert_eq!(pinned.for_workload(399, 0), Parallelism::serial());
        assert_eq!(pinned.for_workload(400, 0), pinned);
        // Auto mode plans for the installed pool (workers + submitter).
        let pooled = Parallelism::with_pool(Arc::new(WorkerPool::new(1))).min_items(100);
        assert_eq!(pooled.for_workload(199, 0), Parallelism::serial());
        assert_eq!(pooled.for_workload(200, 0), pooled);
        // The default threshold is live (not zero): tiny work stays inline
        // even under a pinned thread count.
        assert_eq!(Parallelism::with_threads(8).for_workload(64, 0), Parallelism::serial());
    }

    #[test]
    fn equality_ignores_the_pool_handle() {
        let pool = Arc::new(WorkerPool::new(1));
        assert_eq!(Parallelism::with_pool(Arc::clone(&pool)), Parallelism::default());
        assert_eq!(Parallelism::default().on_pool(pool), Parallelism::default());
        assert_ne!(Parallelism::default(), Parallelism::serial());
        // The fallback threshold is policy, not plumbing.
        assert_ne!(Parallelism::default().min_items(0), Parallelism::default());
    }

    #[test]
    fn auto_mode_sizes_chunking_for_the_installed_pool() {
        // Auto (threads == 0) with an explicit pool: plan for that executor
        // (workers + submitter), not for the machine's core count.
        let par = Parallelism::with_pool(Arc::new(WorkerPool::new(3)));
        assert_eq!(par.effective_threads(), 4);
        // A pinned budget still wins over the pool size.
        let par = Parallelism::with_threads(2).on_pool(Arc::new(WorkerPool::new(7)));
        assert_eq!(par.effective_threads(), 2);
    }

    #[test]
    fn par_map_matches_serial_map_for_any_thread_count() {
        let f = |i: usize| (i * 7 + 3) as u64;
        let expect: Vec<u64> = (0..1000).map(f).collect();
        for par in [
            Parallelism::serial(),
            Parallelism::with_threads(2),
            Parallelism::with_threads(5),
            Parallelism::with_threads(64),
        ] {
            assert_eq!(par_map(&par, 1000, 1, f), expect, "{par:?}");
        }
    }

    #[test]
    fn par_map_on_explicit_pools_of_any_size() {
        let f = |i: usize| i as u64 * 31;
        let expect: Vec<u64> = (0..500).map(f).collect();
        for workers in [0usize, 1, 2, 8] {
            let pool = Arc::new(WorkerPool::new(workers));
            let par = Parallelism::with_threads(4).on_pool(Arc::clone(&pool));
            // Reuse the same pool across several submissions.
            for _ in 0..3 {
                assert_eq!(par_map(&par, 500, 1, f), expect, "{workers} workers");
            }
        }
    }

    #[test]
    fn par_map_ranges_preserves_chunk_order() {
        let par = Parallelism::with_threads(8);
        let chunks = par_map_ranges(&par, 100, 1, |r| r.start);
        let mut sorted = chunks.clone();
        sorted.sort_unstable();
        assert_eq!(chunks, sorted);
        // Chunks tile 0..n exactly.
        let total: usize = par_map_ranges(&par, 100, 1, |r| r.len()).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let par = Parallelism::with_threads(4);
        assert!(par_map(&par, 0, 1, |i| i).is_empty());
        assert_eq!(par_map(&par, 1, 1, |i| i), vec![0]);
        assert_eq!(par_map(&par, 3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_submissions_share_one_pool() {
        // Four "stages" hammer the same two-worker executor from their own
        // threads; every submission must come back bit-identical to the
        // serial map.
        let pool = Arc::new(WorkerPool::new(2));
        let stages: Vec<_> = (0..4)
            .map(|stage| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let par = Parallelism::with_threads(4).on_pool(pool);
                    let f = move |i: usize| (i * 13 + stage * 7) as u64;
                    let expect: Vec<u64> = (0..800).map(f).collect();
                    for _ in 0..50 {
                        assert_eq!(par_map(&par, 800, 1, f), expect, "stage {stage}");
                    }
                })
            })
            .collect();
        for handle in stages {
            handle.join().expect("stage thread");
        }
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let par = Parallelism::with_threads(2).on_pool(Arc::clone(&pool));
        let inner_par = Parallelism::with_threads(2).on_pool(Arc::clone(&pool));
        let out = par_map(&par, 8, 1, |i| {
            par_map(&inner_par, 4, 1, |j| (i * 10 + j) as u64).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|i| (0..4).map(|j| (i * 10 + j) as u64).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates_to_the_submitter() {
        let pool = Arc::new(WorkerPool::new(2));
        let par = Parallelism::with_threads(4).on_pool(Arc::clone(&pool));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&par, 100, 1, |i| {
                assert!(i != 57, "intentional chunk failure");
                i
            })
        }));
        assert!(result.is_err(), "panic must reach the submitter");
        // The pool survives a poisoned batch and keeps serving.
        let f = |i: usize| i * 2;
        assert_eq!(par_map(&par, 10, 1, f), (0..10).map(f).collect::<Vec<_>>());
    }

    /// A queue-only batch stub: `chunks` chunk indices, none claimed yet.
    fn stub_batch(chunks: usize) -> Arc<Batch> {
        unsafe fn noop(_data: *const (), _i: usize) {}
        Arc::new(Batch {
            task: Task { data: std::ptr::null(), call: noop },
            num_chunks: chunks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(chunks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        })
    }

    #[test]
    fn queue_serves_batches_in_submission_order() {
        let mut queue = PoolQueue { batches: VecDeque::new(), shutdown: false };
        let (a1, a2, b1) = (stub_batch(4), stub_batch(4), stub_batch(4));
        for batch in [&a1, &a2, &b1] {
            queue.batches.push_back(Arc::clone(batch));
        }
        // Un-exhausted front batches keep collecting workers.
        assert!(Arc::ptr_eq(&queue.take_next().unwrap(), &a1));
        assert!(Arc::ptr_eq(&queue.take_next().unwrap(), &a1));
        // Exhausted batches are dropped in favor of the next one.
        a1.next.store(4, Ordering::Relaxed);
        assert!(Arc::ptr_eq(&queue.take_next().unwrap(), &a2));
        a2.next.store(4, Ordering::Relaxed);
        assert!(Arc::ptr_eq(&queue.take_next().unwrap(), &b1));
        // A fully exhausted queue reports idle and holds no batch.
        b1.next.store(4, Ordering::Relaxed);
        assert!(queue.take_next().is_none());
        assert!(queue.batches.is_empty(), "idle queue drops finished batches");
        assert!(queue.take_next().is_none(), "idle queue stays well-formed");
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Arc::new(WorkerPool::new(3));
        assert_eq!(pool.workers(), 3);
        let par = Parallelism::with_threads(3).on_pool(Arc::clone(&pool));
        let _ = par_map(&par, 64, 1, |i| i);
        drop(par);
        drop(pool); // last handle: Drop joins the workers without hanging
    }
}
