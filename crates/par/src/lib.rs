//! Shared deterministic worker pool for the CLITE search stack.
//!
//! Every parallel site in the workspace used to open its own
//! `std::thread::scope` fan-out, spawning fresh OS threads per call, and
//! the fleet service nested them (per-node searches inside per-node
//! admission probes), oversubscribing shared hosts. This crate replaces
//! those with one fixed-size, lazily-initialized pool in the idiom of
//! the-block's `node/src/parallel.rs`: work is split into
//! **non-overlapping, index-keyed partitions** ("slots"), executed by
//! whichever threads are free, and reduced in slot-index order so the
//! result is a pure function of the partitioning — never of the pool size,
//! scheduling order, or physical core count.
//!
//! One fan-out runs on the pool, as wide as the pool: placement-model
//! training (`clite_learn::train`). The search path is serial at every
//! pool size and takes no slot count of its own. The hyper-grid scan (with
//! its tiled Gram build), the acquisition's multi-start climbs and cluster
//! admission used to fan out too; none paid on a 2-vCPU host, and all run
//! serially now.
//!
//! One private fan-out is left: the load harness's
//! `clite_load::fire_queries` spawns its own scoped client threads per
//! call. On a 2-vCPU host neither those threads nor its serial path wins
//! at every query count, so it has not moved onto the pool.
//!
//! # Determinism contract
//!
//! [`WorkerPool::dispatch`] runs `f(slot)` exactly once for every
//! `slot in 0..slots`. Which *thread* runs a slot is unspecified; *what* a
//! slot computes must depend only on its index. [`map_indexed`] builds on
//! this: items are striped across slots (`slot`, `slot + W`, `slot + 2W`,
//! …) and results are merged back in item order, so for a pure per-item
//! function the output is byte-identical at any worker count — including
//! the fully-inline 1-slot path, which never touches the pool at all.
//!
//! # Sizing
//!
//! [`WorkerPool::global`] sizes itself from the `CLITE_PAR_THREADS`
//! environment variable, falling back to `std::thread::available_parallelism`.
//! A pool of size `N` spawns `N - 1` background workers: the dispatching
//! caller always participates as the `N`-th executor, which keeps
//! `dispatch` deadlock-free under nesting (a pool worker that dispatches a
//! sub-job drains that job's slots itself if no peer is free) and means a
//! size-1 pool runs everything inline with zero synchronization.
//!
//! # Lane dispatch
//!
//! The crate also hosts the workspace's one runtime CPU-feature dispatch,
//! [`wide_lanes`]: it runs a closure compiled four `f64` lanes wide (AVX2)
//! when the CPU has it, and as baseline SSE2 code otherwise, with
//! bit-identical results either way. `clite-gp` routes its batched climb
//! loops through it and keeps `#![forbid(unsafe_code)]`.

mod lanes;

pub use lanes::{wide_lanes, wide_lanes_enabled};

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;

/// Environment variable overriding the [`WorkerPool::global`] executor
/// count. Values `< 1` or non-numeric fall back to the detected core
/// count.
pub const THREADS_ENV: &str = "CLITE_PAR_THREADS";

type Panic = Box<dyn Any + Send + 'static>;

/// Type-erased pointer to a `dispatch` slot body.
///
/// The pointee lives on the dispatching caller's stack. Workers only
/// dereference it for slot claims `< slots`, and `dispatch` does not
/// return until every such claim has finished, so the pointer is always
/// dereferenced within the closure's lifetime.
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared `&` calls from many threads are
// fine) and the `dispatch` barrier above bounds its lifetime.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One in-flight `dispatch` call: a slot counter workers race on plus a
/// completion latch the caller blocks on.
struct Job {
    task: TaskPtr,
    slots: usize,
    /// Next unclaimed slot; claims at or past `slots` fail.
    next: AtomicUsize,
    done: Mutex<JobDone>,
    done_cv: Condvar,
}

struct JobDone {
    /// Slots not yet finished (claimed-and-running or still unclaimed).
    remaining: usize,
    /// First stowed slot panic; re-raised on the caller once all slots
    /// have finished.
    panic: Option<Panic>,
}

impl Job {
    fn new(task: *const (dyn Fn(usize) + Sync), slots: usize) -> Self {
        Self {
            task: TaskPtr(task),
            slots,
            next: AtomicUsize::new(0),
            done: Mutex::new(JobDone { remaining: slots, panic: None }),
            done_cv: Condvar::new(),
        }
    }

    /// Claims the next unstarted slot, if any.
    fn claim(&self) -> Option<usize> {
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        (slot < self.slots).then_some(slot)
    }

    /// Runs a claimed slot, stowing (not propagating) any panic so the
    /// remaining-slot accounting stays consistent, then books completion.
    fn run_slot(&self, slot: usize) {
        // SAFETY: `slot` was claimed (< slots), so per the `TaskPtr`
        // contract the pointee is still alive.
        let task = unsafe { &*self.task.0 };
        let result = catch_unwind(AssertUnwindSafe(|| task(slot)));
        let mut done = self.done.lock().expect("job lock poisoned");
        if let Err(payload) = result {
            done.panic.get_or_insert(payload);
        }
        done.remaining -= 1;
        if done.remaining == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// Cumulative pool counters, for utilization gauges and the
/// no-oversubscription tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `dispatch` calls issued (including fully-inline ones).
    pub jobs: u64,
    /// Slots executed by background pool workers.
    pub worker_tasks: u64,
    /// Slots executed inline by dispatching callers.
    pub caller_tasks: u64,
    /// High-water mark of *concurrently busy* background workers. By
    /// construction this never exceeds [`WorkerPool::workers`], however
    /// many dispatches overlap or nest — that bound is exactly the
    /// no-thread-explosion guarantee the fleet path relies on.
    pub max_busy_workers: usize,
}

#[derive(Default)]
struct StatCells {
    jobs: AtomicU64,
    worker_tasks: AtomicU64,
    caller_tasks: AtomicU64,
    busy_workers: AtomicUsize,
    max_busy_workers: AtomicUsize,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    stats: StatCells,
}

/// A fixed-size pool of `size - 1` background workers plus the caller.
///
/// Use [`WorkerPool::global`] in production paths so every search in the
/// process shares one set of threads; construct local pools only in tests
/// (results never depend on which pool runs a dispatch).
pub struct WorkerPool {
    shared: Arc<Shared>,
    size: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// A pool with `size` executors: `size - 1` spawned workers plus the
    /// dispatching caller. `size` is clamped to at least 1; a size-1 pool
    /// spawns nothing and runs every dispatch inline.
    #[must_use]
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
        });
        let workers = (0..size - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("clite-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, size, workers }
    }

    /// The process-wide shared pool, created on first use and sized by
    /// [`THREADS_ENV`] / `available_parallelism`.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| WorkerPool::new(global_size()))
    }

    /// Executor count (spawned workers + the caller).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of spawned background worker threads (`size - 1`).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the cumulative pool counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        PoolStats {
            jobs: s.jobs.load(Ordering::Relaxed),
            worker_tasks: s.worker_tasks.load(Ordering::Relaxed),
            caller_tasks: s.caller_tasks.load(Ordering::Relaxed),
            max_busy_workers: s.max_busy_workers.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(slot)` exactly once for every `slot in 0..slots`, spreading
    /// slots over idle pool workers; the caller executes unclaimed slots
    /// itself and returns only when all slots have finished.
    ///
    /// Slot bodies must derive their work purely from the slot index (the
    /// determinism contract). Panics in any slot are re-raised on the
    /// caller after the whole job completes. Nested dispatch from inside a
    /// slot is supported and cannot deadlock: the nested caller drains its
    /// own job's slots whenever no worker is free.
    pub fn dispatch(&self, slots: usize, f: impl Fn(usize) + Sync) {
        self.dispatch_dyn(slots, &f);
    }

    fn dispatch_dyn(&self, slots: usize, task: &(dyn Fn(usize) + Sync)) {
        if slots == 0 {
            return;
        }
        let stats = &self.shared.stats;
        stats.jobs.fetch_add(1, Ordering::Relaxed);
        if slots == 1 || self.workers.is_empty() {
            // Nothing worth handing off: run inline, panics propagate
            // directly (no other slot is in flight).
            stats.caller_tasks.fetch_add(slots as u64, Ordering::Relaxed);
            for slot in 0..slots {
                task(slot);
            }
            return;
        }

        // SAFETY: lifetime erasure only — `dispatch_dyn` blocks until every
        // claimed slot has finished, so no worker dereferences the pointer
        // past the borrow it was created from (see `TaskPtr`).
        let task: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(Job::new(task, slots));
        self.shared.queue.lock().expect("pool queue poisoned").push_back(Arc::clone(&job));
        self.shared.work_cv.notify_all();

        // Participate: the caller is the pool's size-th executor.
        while let Some(slot) = job.claim() {
            stats.caller_tasks.fetch_add(1, Ordering::Relaxed);
            job.run_slot(slot);
        }

        let mut done = job.done.lock().expect("job lock poisoned");
        while done.remaining > 0 {
            done = job.done_cv.wait(done).expect("job lock poisoned");
        }
        if let Some(payload) = done.panic.take() {
            drop(done);
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock before waiting, so it either sees the flag or is already
        // waiting when the notify below fires — never lost in between.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Background worker: block for a queued job, then drain slots from it
/// (and any jobs queued behind it) until the queue is empty again.
fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let mut found = None;
                while let Some(front) = queue.front() {
                    if let Some(slot) = front.claim() {
                        found = Some((Arc::clone(front), slot));
                        break;
                    }
                    // Fully claimed: retire it from the queue. Its last
                    // slots may still be running; the caller's latch, not
                    // the queue, tracks completion.
                    queue.pop_front();
                }
                if let Some(found) = found {
                    break found;
                }
                queue = shared.work_cv.wait(queue).expect("pool queue poisoned");
            }
        };

        let stats = &shared.stats;
        let busy = stats.busy_workers.fetch_add(1, Ordering::SeqCst) + 1;
        stats.max_busy_workers.fetch_max(busy, Ordering::SeqCst);
        let (job, mut slot) = claimed;
        loop {
            stats.worker_tasks.fetch_add(1, Ordering::Relaxed);
            job.run_slot(slot);
            // Keep draining the same job without touching the queue lock.
            match job.claim() {
                Some(next) => slot = next,
                None => break,
            }
        }
        drop(job);
        stats.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Global pool size: `CLITE_PAR_THREADS` if set to a positive integer,
/// else the detected parallelism, else 1.
fn global_size() -> usize {
    let detected = || thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => detected(),
        },
        Err(_) => detected(),
    }
}

/// Maps `f` over `items` with up to `slots` partitions, returning results
/// in item order.
///
/// Items are striped: slot `w` processes items `w, w + W, w + 2W, …`
/// where `W = slots.clamp(1, items.len())`. Each slot gets its own scratch
/// from `init`, created on the executing thread (so `S` needs no `Send`
/// bound) and reused across that slot's items — preserving the
/// per-worker-cache semantics of the `std::thread::scope` fan-outs this
/// replaces. With `W == 1` the whole map runs inline on the caller with a
/// single scratch and zero pool involvement, byte-identical to a serial
/// loop by construction; for `W > 1` the outputs are merged back in item
/// order, so a pure `f` yields the same `Vec` at every slot count.
pub fn map_indexed<T, R, S>(
    pool: &WorkerPool,
    slots: usize,
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let width = slots.max(1).min(items.len());
    if width <= 1 {
        let mut scratch = init();
        return items.iter().enumerate().map(|(i, item)| f(&mut scratch, i, item)).collect();
    }

    let per_slot: Vec<Mutex<Vec<R>>> = (0..width).map(|_| Mutex::new(Vec::new())).collect();
    pool.dispatch(width, |slot| {
        let mut scratch = init();
        let mut out = Vec::with_capacity(items.len().div_ceil(width));
        let mut i = slot;
        while i < items.len() {
            out.push(f(&mut scratch, i, &items[i]));
            i += width;
        }
        *per_slot[slot].lock().expect("slot result lock poisoned") = out;
    });

    // Inverse stripe: item i was produced by slot i % W at position i / W.
    let mut streams: Vec<_> = per_slot
        .into_iter()
        .map(|m| m.into_inner().expect("slot result lock poisoned").into_iter())
        .collect();
    let mut merged = Vec::with_capacity(items.len());
    for i in 0..items.len() {
        merged.push(streams[i % width].next().expect("stripe must cover every item"));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn dispatch_runs_every_slot_exactly_once() {
        let pool = WorkerPool::new(4);
        for slots in [0usize, 1, 2, 3, 7, 64] {
            let hits: Vec<AtomicU32> = (0..slots).map(|_| AtomicU32::new(0)).collect();
            pool.dispatch(slots, |slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
            for (slot, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "slot {slot} of {slots}");
            }
        }
    }

    #[test]
    fn size_one_pool_is_fully_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let caller = thread::current().id();
        pool.dispatch(5, |_| assert_eq!(thread::current().id(), caller));
        let stats = pool.stats();
        assert_eq!(stats.caller_tasks, 5);
        assert_eq!(stats.worker_tasks, 0);
        assert_eq!(stats.max_busy_workers, 0);
    }

    #[test]
    fn map_indexed_matches_serial_at_any_width() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..23).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for slots in [0usize, 1, 2, 4, 8, 23, 100] {
            let got = map_indexed(&pool, slots, &items, || (), |(), _, x| x * x + 1);
            assert_eq!(got, serial, "slots={slots}");
        }
    }

    #[test]
    fn scratch_is_per_slot_and_reused_within_a_slot() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..40).collect();
        let width = 4;
        // Scratch counts how many items this slot has already seen; with
        // striping, item i is the (i / W)-th item of slot i % W.
        let got = map_indexed(
            &pool,
            width,
            &items,
            || 0usize,
            |seen, i, _| {
                let order = *seen;
                *seen += 1;
                (i % width, order)
            },
        );
        for (i, &(slot, order)) in got.iter().enumerate() {
            assert_eq!(slot, i % width);
            assert_eq!(order, i / width);
        }
    }

    #[test]
    fn nested_dispatch_completes() {
        let pool = WorkerPool::new(2);
        let total = AtomicU32::new(0);
        pool.dispatch(4, |_| {
            pool.dispatch(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
        assert!(pool.stats().max_busy_workers <= pool.workers());
    }

    #[test]
    fn slot_panic_propagates_after_job_completes() {
        let pool = WorkerPool::new(3);
        let finished = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(6, |slot| {
                if slot == 2 {
                    panic!("slot 2 exploded");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // Every non-panicking slot still ran: accounting stayed intact.
        assert_eq!(finished.load(Ordering::Relaxed), 5);
        // The pool is still usable afterwards.
        pool.dispatch(3, |_| ());
    }

    #[test]
    fn global_pool_initializes_once() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.size() >= 1);
    }
}
