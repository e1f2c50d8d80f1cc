//! A host-side work-stealing worker pool shared across the workspace.
//!
//! Two consumers split their work into embarrassingly parallel indexed
//! phases: the serving simulator (profiling every `(workload, layer)` pair
//! before its event loop, its only work on the pool) and the GEMM
//! executors (the independent row folds of a lowered GEMM, each swept
//! across every column fold).
//! [`run_indexed`] runs those phases across `workers` `std::thread`s:
//! every worker owns a deque of task indices, pops from its own front, and
//! **steals from the back** of the busiest victim when it runs dry (the
//! classic Chase–Lev shape, expressed with mutexed deques since the
//! workspace is `forbid(unsafe)` and dependency-free).
//!
//! Determinism: each task writes its result into its own pre-allocated
//! slot, so the output vector is identical whatever the interleaving —
//! parallelism changes wall-clock time, never results. `workers == 1`
//! runs inline on the caller thread (no spawn, no locks taken by anyone
//! else), which is also the fallback when a spawn fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Errors from the worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// A worker thread terminated without completing its tasks.
    WorkerFailed,
}

impl core::fmt::Display for PoolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PoolError::WorkerFailed => write!(f, "a worker thread failed before finishing"),
        }
    }
}

impl std::error::Error for PoolError {}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f(i)` for every `i in 0..tasks` across `workers` threads with
/// work stealing, returning the results in task order.
///
/// # Errors
///
/// Returns [`PoolError::WorkerFailed`] if a worker thread dies (e.g. a
/// panic inside `f`) before all tasks complete.
pub fn run_indexed<T, F>(workers: usize, tasks: usize, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1);
    if workers == 1 || tasks <= 1 {
        return Ok((0..tasks).map(&f).collect());
    }

    // Round-robin initial distribution across per-worker deques.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..tasks {
        lock(&queues[i % workers]).push_back(i);
    }
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own work first (front), then steal from the deepest
                // victim's back. The own-queue guard is dropped before
                // any victim lock is taken (two statements, never two
                // locks held at once — no lock-order deadlock).
                let own = { lock(&queues[me]).pop_front() };
                let task = match own {
                    Some(t) => Some(t),
                    None => {
                        let victim = (0..workers)
                            .filter(|&v| v != me)
                            .max_by_key(|&v| lock(&queues[v]).len());
                        victim.and_then(|v| lock(&queues[v]).pop_back())
                    }
                };
                match task {
                    Some(i) => {
                        let out = f(i);
                        *lock(&slots[i]) = Some(out);
                    }
                    None => return,
                }
            });
        }
    });

    let mut out = Vec::with_capacity(tasks);
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(v) => out.push(v),
            None => return Err(PoolError::WorkerFailed),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_land_in_task_order() {
        let out = run_indexed(4, 100, |i| i * i).expect("pool ok");
        assert_eq!(out.len(), 100);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn single_worker_runs_inline() {
        let out = run_indexed(1, 10, |i| i + 1).expect("pool ok");
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i).expect("pool ok");
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let task = |i: usize| {
            // Uneven task sizes to force stealing.
            let mut acc = 0u64;
            for k in 0..((i % 7) * 1000 + 1) as u64 {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            acc
        };
        let one = run_indexed(1, 64, task).expect("pool ok");
        for workers in [2, 3, 4, 8] {
            assert_eq!(run_indexed(workers, 64, task).expect("pool ok"), one);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(8, 500, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        })
        .expect("pool ok");
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }
}
