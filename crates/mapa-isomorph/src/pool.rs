//! A persistent worker pool.
//!
//! Its users are `mapa-cluster`'s `DispatchMode::Parallel` (one task per
//! worker, each evaluating a chunk of ⌈shards / threads⌉ shards) and the
//! campaign runner (one cell per task); at decision frequency spawning
//! threads per call would dominate the work, so [`WorkerPool`] keeps
//! long-lived workers fed by a channel work queue and a whole run — or
//! several sharing one pool through an [`std::sync::Arc`] — pays thread
//! start-up once per process. No matcher
//! runs on it: enumeration is sequential. The pool stays in this crate
//! because `mapa::isomorph::{WorkerPool, default_threads}` is the path the
//! benchmark harness imports it by.
//!
//! Tasks are `'static` closures (the pool owns no caller stack frames);
//! [`WorkerPool::scatter`] provides the fork/join idiom with
//! *deterministic result ordering*: results come back indexed and are
//! reassembled in submission order regardless of which worker finished
//! first.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Process-unique pool ids, so a worker thread can recognize its own pool.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The id of the pool whose worker loop is running on this thread
    /// (`0` outside any pool). Lets [`WorkerPool::scatter`] detect
    /// re-entrant use — a pool task scattering on its own pool — and fall
    /// back to inline execution instead of deadlocking on workers that
    /// are all busy waiting for each other.
    static CURRENT_POOL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The default worker count: the machine's available parallelism, falling
/// back to 1 when the runtime cannot report it. Use this instead of
/// caller-supplied magic thread counts.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-size pool of long-lived worker threads fed by a shared queue.
///
/// Dropping the pool closes the queue and joins every worker. A panicking
/// task is contained to its own execution (the worker survives and keeps
/// serving the queue); the panic surfaces at the join point of the batch
/// that submitted it.
///
/// Calling [`WorkerPool::scatter`] from *inside* a task of the same pool
/// is safe: the nested batch runs inline on the calling worker (the
/// blocked-caller deadlock cannot happen), in task order, so results are
/// identical to a top-level scatter.
pub struct WorkerPool {
    id: u64,
    sender: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("mapa-worker-{i}"))
                    .spawn(move || {
                        CURRENT_POOL.with(|p| p.set(id));
                        worker_loop(&rx);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            id,
            sender: Some(sender),
            workers,
        }
    }

    /// Spawns a pool sized by [`default_threads`].
    #[must_use]
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a fire-and-forget task.
    pub fn submit(&self, task: Task) {
        self.sender
            .as_ref()
            .expect("sender lives until drop")
            .send(task)
            .expect("pool workers outlive the pool handle");
    }

    /// Runs every task on the pool and returns their results *in task
    /// order* — the deterministic fork/join primitive. The calling thread
    /// blocks until all tasks finish.
    ///
    /// Re-entrant: when called from a task already running on this pool
    /// (e.g. a campaign cell whose cluster dispatches in parallel
    /// on the same shared pool), the batch runs inline on the calling
    /// worker in task order — same results, no deadlock.
    ///
    /// # Panics
    /// Panics if any task panicked (the batch cannot be completed).
    pub fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if CURRENT_POOL.with(std::cell::Cell::get) == self.id {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let n = tasks.len();
        let (tx, rx) = channel::<(usize, T)>();
        for (i, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            self.submit(Box::new(move || {
                // Errors mean the batch caller gave up; nothing to do.
                let _ = tx.send((i, task()));
            }));
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, value) = rx
                .recv()
                .expect("a pool task panicked before delivering its result");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index delivered exactly once"))
            .collect()
    }
}

fn worker_loop(rx: &Mutex<Receiver<Task>>) {
    loop {
        // Hold the lock only for the dequeue, not while running the task.
        let task = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a worker panicked while holding the lock
        };
        match task {
            // Contain panics so one bad task cannot kill the pool; the
            // batch that submitted it notices via its result channel.
            Ok(task) => {
                let _ = catch_unwind(AssertUnwindSafe(task));
            }
            Err(_) => return, // queue closed: pool is being dropped
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.sender.take(); // close the queue; workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from submission.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 5) as u64 * 50,
                    ));
                    i * i
                }
            })
            .collect();
        let got = pool.scatter(tasks);
        let expect: Vec<usize> = (0..32).map(|i| i * i).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..10usize {
            let got = pool.scatter((0..8).map(|i| move || i + round).collect::<Vec<_>>());
            assert_eq!(got, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn submit_runs_detached_work() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..6 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            }));
        }
        for _ in 0..6 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn pool_survives_a_panicking_task() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        pool.submit(Box::new(|| panic!("task failure is contained")));
        pool.submit(Box::new(move || {
            let _ = tx.send(7usize);
        }));
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn nested_scatter_on_the_same_pool_runs_inline() {
        // Every worker scatters on its own pool: without the re-entrancy
        // fallback this deadlocks (all workers blocked waiting for tasks
        // only they could run). Results must still come back in order.
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<_> = (0..4usize)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner = pool.scatter((0..3usize).map(|j| move || i * 10 + j).collect());
                    assert_eq!(inner, vec![i * 10, i * 10 + 1, i * 10 + 2]);
                    i
                }
            })
            .collect();
        assert_eq!(pool.scatter(outer), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_scatter_on_a_different_pool_still_parallelizes() {
        // Re-entrancy detection is per pool id: scattering on *another*
        // pool from inside a task must keep using that pool's workers.
        let outer_pool = WorkerPool::new(2);
        let inner_pool = Arc::new(WorkerPool::new(2));
        let tasks: Vec<_> = (0..4usize)
            .map(|i| {
                let inner_pool = Arc::clone(&inner_pool);
                move || inner_pool.scatter(vec![move || i * 2]).pop().unwrap()
            })
            .collect();
        assert_eq!(outer_pool.scatter(tasks), vec![0, 2, 4, 6]);
    }

    #[test]
    fn zero_thread_request_is_clamped() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.scatter(vec![|| 1 + 1]), vec![2]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(WorkerPool::with_default_threads().threads() >= 1);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_results_consumed() {
        let pool = WorkerPool::new(3);
        let got = pool.scatter((0..100usize).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(got.len(), 100);
        drop(pool); // must not hang
    }
}
