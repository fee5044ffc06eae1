//! Work claiming, result collection, and the persistent worker pool for
//! the parallel scan driver.
//!
//! The original scan loop gave worker `w` the arithmetic stride `w, w+T,
//! w+2T, …` and funneled every finished record through an unbounded
//! channel, then sorted the whole campaign by site index afterwards. Both
//! halves cost more than they need to:
//!
//! * static striding load-balances badly when per-site cost varies (mute
//!   sites finish in microseconds, retry-burning flaky sites take orders
//!   of magnitude longer), and
//! * the channel allocates per record and the final sort is an
//!   O(n log n) pass over data whose order was known all along.
//!
//! [`WorkQueue`] replaces the stride with chunked atomic claiming: a
//! worker grabs the next chunk-sized index range with one compare-exchange,
//! so contention is one atomic per chunk instead of any per-site
//! coordination, and a slow site only delays its own chunk. The chunk
//! size adapts to the population/thread ratio (see [`chunk_size`]) so
//! small populations still fan out across every worker. [`Slots`]
//! replaces the channel + sort: results are written directly into a
//! pre-sized slot addressed by site index, so collection is O(n) and
//! allocation-free per record.
//!
//! [`ScanPool`] owns the worker threads themselves. Spawning a thread per
//! scan was invisible at campaign scale but dominated short timed
//! iterations, where it once inverted the measured scaling curve; a pool
//! spawns once, hands each worker jobs over a private channel, and
//! reports per-job thread-CPU time so the scaling test and perfbench can
//! measure the critical path instead of the wall clock of a core-starved
//! host.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crate::cputime;

/// Upper bound on indices claimed per atomic operation. Small enough
/// that an unlucky worker stuck behind a pathological chunk strands at
/// most `MAX_CHUNK - 1` cheap sites, large enough that the claim counter
/// never becomes a contended cache line.
pub const MAX_CHUNK: u64 = 16;

/// The claim granularity for `total` indices split across `threads`
/// workers: `clamp(total / (threads * 8), 1, MAX_CHUNK)`.
///
/// The old fixed chunk of 16 capped parallelism at `⌈total / 16⌉`
/// workers — a 105-site benchmark population had 7 claimable chunks, so
/// an 8-thread scan structurally idled a worker. Adapting to the ratio
/// guarantees at least `8 × threads` chunks whenever the population is
/// large enough to split that far (and one-index chunks below that), so
/// every worker claims work whenever `total ≥ threads`.
pub fn chunk_size(total: u64, threads: usize) -> u64 {
    let threads = threads.max(1) as u64;
    (total / (threads * 8)).clamp(1, MAX_CHUNK)
}

/// A shared counter handing out disjoint index ranges `[0, total)`.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicU64,
    total: u64,
    chunk: u64,
}

impl WorkQueue {
    /// A queue over the index space `0..total`, with claim granularity
    /// adapted to `threads` (see [`chunk_size`]).
    pub fn new(total: u64, threads: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicU64::new(0),
            total,
            chunk: chunk_size(total, threads),
        }
    }

    /// Claims the next unclaimed chunk, or `None` when the index space is
    /// exhausted. Ranges returned to different callers never overlap,
    /// which is what makes the per-index [`Slots::put`] writes race-free.
    ///
    /// An exhausted claim is non-mutating: the counter saturates at
    /// `total` instead of creeping upward with every poll, so a
    /// long-lived queue (the coming `repro serve` daemon re-polls queues
    /// for their lifetime) can never wrap around, and post-exhaustion
    /// polling stops dirtying the shared cache line.
    pub fn claim(&self) -> Option<Range<u64>> {
        let mut start = self.next.load(Ordering::Relaxed);
        loop {
            if start >= self.total {
                return None;
            }
            let end = (start + self.chunk).min(self.total);
            match self
                .next
                .compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(start..end),
                Err(observed) => start = observed,
            }
        }
    }

    /// Indices not yet handed out (0 once exhausted).
    pub fn remaining(&self) -> u64 {
        self.total.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// Pre-sized, index-addressed result collection.
///
/// Each slot is a [`OnceLock`], so concurrent workers can fill disjoint
/// indices through a shared reference without locks or channels; the
/// scan's claim discipline guarantees each index is written exactly once.
#[derive(Debug)]
pub struct Slots<T> {
    slots: Vec<OnceLock<T>>,
}

impl<T> Slots<T> {
    /// `len` empty slots.
    pub fn new(len: usize) -> Slots<T> {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, OnceLock::new);
        Slots { slots }
    }

    /// Fills slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already filled — that would mean two
    /// workers claimed the same index, which the queue's claim discipline
    /// rules out.
    pub fn put(&self, index: usize, value: T) {
        if self.slots[index].set(value).is_err() {
            panic!("slot {index} filled twice");
        }
    }

    /// Unwraps the collection into index order.
    ///
    /// # Panics
    ///
    /// Panics if any slot is empty (a worker exited without finishing its
    /// claimed range, which only happens via a worker panic — already
    /// propagated by the pool).
    pub fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot.into_inner() {
                Some(value) => value,
                None => panic!("slot {i} never filled"),
            })
            .collect()
    }
}

/// One unit of work dispatched to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A worker's completion report for one job.
struct Done {
    worker: usize,
    cpu_ns: u64,
    panic: Option<Box<dyn Any + Send>>,
}

/// A persistent pool of scan workers.
///
/// Workers are spawned once and live for the pool's lifetime;
/// [`ScanPool::broadcast`] hands every worker one closure of the same
/// job (the scan driver's `map_indexed` makes the closure drain a
/// shared [`WorkQueue`], so the pool stays policy-free). Each completion
/// carries the thread-CPU time the job consumed, which
/// [`ScanPool::worker_cpu_ns`] / [`ScanPool::critical_path_ns`] expose
/// for the scaling test and perfbench.
///
/// A job that panics does not kill its worker: the panic is caught,
/// reported with the completion, and re-raised on the broadcasting
/// thread after every worker has checked in — same observable behavior
/// as the scoped-thread scan it replaces, but the pool stays reusable.
#[derive(Debug)]
pub struct ScanPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    done: mpsc::Receiver<Done>,
    cpu_ns: Vec<u64>,
}

impl ScanPool {
    /// Spawns `threads.max(1)` workers, named `scan-0…`.
    pub fn new(threads: usize) -> ScanPool {
        let threads = threads.max(1);
        let (done_tx, done) = mpsc::channel::<Done>();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let (tx, rx) = mpsc::channel::<Job>();
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("scan-{worker}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let start = cputime::thread_cpu_ns();
                        // The job owns all its state (Arc'd queue, slots,
                        // population), so a panic cannot leave this
                        // worker's locals poisoned; catching it keeps the
                        // pool alive and lets the broadcaster re-raise.
                        let panic = catch_unwind(AssertUnwindSafe(job)).err();
                        let cpu_ns = cputime::thread_cpu_ns().saturating_sub(start);
                        if done_tx
                            .send(Done {
                                worker,
                                cpu_ns,
                                panic,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                })
                .expect("spawn scan worker");
            senders.push(tx);
            handles.push(handle);
        }
        ScanPool {
            senders,
            handles,
            done,
            cpu_ns: vec![0; threads],
        }
    }

    /// Number of workers in the pool.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Runs `job(worker_index)` on every worker and blocks until all of
    /// them finish, recording per-worker thread-CPU time.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic (after every worker has
    /// completed, so [`Slots`] teardown never races a live worker).
    pub fn broadcast<F>(&mut self, job: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let job = Arc::new(job);
        for (worker, tx) in self.senders.iter().enumerate() {
            let job = Arc::clone(&job);
            tx.send(Box::new(move || job(worker)))
                .expect("scan worker alive");
        }
        drop(job);
        let mut first_panic = None;
        for _ in 0..self.senders.len() {
            let done = self.done.recv().expect("scan worker completion");
            self.cpu_ns[done.worker] = done.cpu_ns;
            if first_panic.is_none() {
                first_panic = done.panic;
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }

    /// Thread-CPU nanoseconds each worker spent on the last
    /// [`ScanPool::broadcast`], indexed by worker.
    pub fn worker_cpu_ns(&self) -> &[u64] {
        &self.cpu_ns
    }

    /// The last broadcast's critical path: the maximum thread-CPU time
    /// over all workers — the wall time the broadcast would need on a
    /// host with at least [`ScanPool::threads`] free cores.
    pub fn critical_path_ns(&self) -> u64 {
        self.cpu_ns.iter().copied().max().unwrap_or(0)
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn claims_cover_the_index_space_exactly_once() {
        let queue = WorkQueue::new(103, 4);
        let mut seen = vec![0u32; 103];
        while let Some(range) = queue.claim() {
            for i in range {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let queue = WorkQueue::new(0, 4);
        assert_eq!(queue.claim(), None);
    }

    #[test]
    fn chunk_adapts_to_population_and_thread_count() {
        // Huge population: chunk saturates at MAX_CHUNK.
        assert_eq!(chunk_size(1_000_000, 8), MAX_CHUNK);
        // The inverted-bench shape: 105 sites / 8 threads must not leave
        // a worker without a claimable chunk (105/64 = 1-index chunks).
        assert_eq!(chunk_size(105, 8), 1);
        // Mid-size: total/(threads*8), between the clamps.
        assert_eq!(chunk_size(320, 8), 5);
        // Degenerate inputs stay sane.
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(10, 0), 1);
    }

    #[test]
    fn every_worker_claims_work_when_total_is_at_least_threads() {
        // The structural guarantee behind the adaptive chunk: whenever
        // total >= threads there are at least `threads` chunks, so no
        // worker can be idled by the claim granularity alone.
        for threads in [1usize, 2, 3, 4, 8, 16, 32] {
            for total in [threads as u64, 105, 1000, 52_471] {
                if total < threads as u64 {
                    continue;
                }
                let chunk = chunk_size(total, threads);
                let chunks = total.div_ceil(chunk);
                assert!(
                    chunks >= threads as u64,
                    "total={total} threads={threads}: only {chunks} chunks"
                );
            }
        }
        // And dynamically: with each of 8 workers claiming exactly once
        // from a 105-site queue (the shape that idled the 8th worker
        // under the fixed chunk), every claim must succeed.
        let queue = WorkQueue::new(105, 8);
        thread::scope(|scope| {
            for _ in 0..8 {
                let queue = &queue;
                scope.spawn(move || {
                    assert!(queue.claim().is_some(), "worker starved of a first chunk");
                });
            }
        });
    }

    #[test]
    fn exhausted_claims_do_not_mutate_the_counter() {
        let queue = WorkQueue::new(100, 4);
        while queue.claim().is_some() {}
        let settled = queue.next.load(Ordering::Relaxed);
        assert!(settled >= 100);
        for _ in 0..1000 {
            assert_eq!(queue.claim(), None);
        }
        assert_eq!(
            queue.next.load(Ordering::Relaxed),
            settled,
            "post-exhaustion claims crept the counter"
        );
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn slots_collect_in_index_order_regardless_of_fill_order() {
        let slots = Slots::new(5);
        for i in [3usize, 0, 4, 1, 2] {
            slots.put(i, i * 10);
        }
        assert_eq!(slots.into_vec(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn concurrent_workers_partition_the_space() {
        let queue = WorkQueue::new(1000, 4);
        let slots = Slots::new(1000);
        thread::scope(|scope| {
            for _ in 0..4 {
                let (queue, slots) = (&queue, &slots);
                scope.spawn(move || {
                    while let Some(range) = queue.claim() {
                        for i in range {
                            slots.put(i as usize, i * 2);
                        }
                    }
                });
            }
        });
        let collected = slots.into_vec();
        assert!(collected
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let slots = Slots::new(1);
        slots.put(0, 1);
        slots.put(0, 2);
    }

    #[test]
    fn pool_broadcast_runs_every_worker_and_is_reusable() {
        let mut pool = ScanPool::new(4);
        assert_eq!(pool.threads(), 4);
        for _round in 0..3 {
            let hits = Arc::new(AtomicUsize::new(0));
            let seen = Arc::new(Slots::new(4));
            let (h, s) = (Arc::clone(&hits), Arc::clone(&seen));
            pool.broadcast(move |worker| {
                h.fetch_add(1, Ordering::Relaxed);
                s.put(worker, worker);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4);
            let seen = Arc::into_inner(seen).expect("jobs dropped after broadcast");
            assert_eq!(seen.into_vec(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn pool_reports_per_worker_cpu_time() {
        let mut pool = ScanPool::new(2);
        pool.broadcast(|worker| {
            // Worker 1 does measurable work; worker 0 does none.
            if worker == 1 {
                let mut acc = 0u64;
                for i in 0..3_000_000u64 {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                }
                assert_ne!(acc, 1);
            }
        });
        let cpu = pool.worker_cpu_ns();
        assert_eq!(cpu.len(), 2);
        assert!(
            cpu[1] > cpu[0],
            "busy worker should out-spend the idle one: {cpu:?}"
        );
        assert_eq!(pool.critical_path_ns(), cpu[1].max(cpu[0]));
    }

    #[test]
    fn pool_worker_panic_propagates_but_pool_survives() {
        let mut pool = ScanPool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|worker| {
                assert!(worker != 1, "deliberate test panic");
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate");
        // The pool remains usable after a propagated panic.
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.broadcast(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
