//! A scoped worker pool.
//!
//! Its users are `mapa-cluster`'s `DispatchMode::Parallel` (one task per
//! worker, each evaluating a chunk of ⌈shards / threads⌉ shards) and the
//! campaign runner (one cell per task). A [`WorkerPool`] is only a thread
//! count: [`WorkerPool::scatter`] starts its workers under
//! [`std::thread::scope`] and joins them before it returns, so no thread
//! outlives a batch and tasks may borrow from the caller's stack. A
//! scatter called from a task on another scatter's worker runs inline, so
//! nesting never multiplies threads. No matcher runs on it: enumeration
//! is sequential. The pool stays in this crate because
//! `mapa::isomorph::{WorkerPool, default_threads}` is the path the
//! benchmark harness imports it by.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Whether this thread is a scatter worker: a scatter called from one
    /// of its tasks runs inline.
    static IN_SCATTER: Cell<bool> = const { Cell::new(false) };
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

/// How many workers a [`WorkerPool::scatter`] may start. Building one
/// starts no thread.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`].
    #[must_use]
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// Number of workers a scatter may start.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task and returns their results *in task order* — the
    /// deterministic fork/join primitive. Starts `min(threads, tasks)`
    /// scoped workers that take tasks in order from a shared cursor, and
    /// returns once all have finished. Runs the tasks inline on the
    /// calling thread, in order, when that is one worker or when called
    /// from a task on another scatter's worker.
    ///
    /// # Panics
    /// Panics if any task panicked.
    pub fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let workers = self.threads.min(tasks.len());
        if workers <= 1 || IN_SCATTER.with(Cell::get) {
            return tasks.into_iter().map(|task| task()).collect();
        }
        const UNPOISONED: &str = "no task runs while a slot is locked";
        let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<T>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        // Hands out each index once; the slots' locks and the scope's
        // join order every access to tasks and results, so the cursor
        // publishes nothing and can be `Relaxed`.
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    IN_SCATTER.with(|inside| inside.set(true));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        let task = task.lock().expect(UNPOISONED).take();
                        let value = task.expect("the cursor hands out each index once")();
                        *results[i].lock().expect(UNPOISONED) = Some(value);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.into_inner().expect(UNPOISONED).expect("every task ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn scatter_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from submission.
                    thread::sleep(std::time::Duration::from_micros(((32 - i) % 5) as u64 * 50));
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
    fn nested_scatter_on_the_same_pool_runs_inline() {
        // Every task scatters again on its own pool: the inner batch runs
        // on the outer worker's thread, in order.
        let pool = WorkerPool::new(2);
        let outer: Vec<_> = (0..4usize)
            .map(|i| {
                let pool = &pool;
                move || {
                    let here = thread::current().id();
                    let inner = pool.scatter(
                        (0..3usize)
                            .map(|j| move || (i * 10 + j, thread::current().id()))
                            .collect(),
                    );
                    assert_eq!(
                        inner,
                        (0..3).map(|j| (i * 10 + j, here)).collect::<Vec<_>>()
                    );
                    i
                }
            })
            .collect();
        assert_eq!(pool.scatter(outer), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_scatter_on_another_pool_runs_on_the_outer_worker() {
        let outer_pool = WorkerPool::new(2);
        let inner_pool = WorkerPool::new(2);
        let caller = thread::current().id();
        let tasks: Vec<_> = (0..4usize)
            .map(|i| {
                let inner_pool = &inner_pool;
                move || {
                    let here = thread::current().id();
                    assert_ne!(here, caller, "the outer batch runs on workers");
                    let inner = inner_pool.scatter(
                        (0..2usize)
                            .map(|j| move || (i * 2 + j, thread::current().id()))
                            .collect(),
                    );
                    assert_eq!(inner, vec![(i * 2, here), (i * 2 + 1, here)]);
                    i
                }
            })
            .collect();
        assert_eq!(outer_pool.scatter(tasks), vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_thread_pool_runs_inline_on_the_caller() {
        let caller = thread::current().id();
        let ids = WorkerPool::new(1).scatter(vec![|| thread::current().id(); 3]);
        assert_eq!(ids, vec![caller; 3]);
    }

    #[test]
    fn tasks_borrow_from_the_callers_stack() {
        let mut slots = vec![0usize; 6];
        let words = ["a", "bb", "ccc"];
        let tasks: Vec<_> = slots
            .chunks_mut(2)
            .zip(&words)
            .map(|(chunk, word)| {
                move || {
                    for slot in chunk.iter_mut() {
                        *slot = word.len();
                    }
                    chunk.len()
                }
            })
            .collect();
        assert_eq!(WorkerPool::new(2).scatter(tasks), vec![2, 2, 2]);
        assert_eq!(slots, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_task_fails_its_scatter() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task failure")),
            Box::new(|| 3),
        ];
        WorkerPool::new(2).scatter(tasks);
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
}
