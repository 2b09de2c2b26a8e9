//! Deterministic scoped-thread fan-out.
//!
//! [`par_run`] is the one parallel primitive the workspace uses: it fans
//! `f(0..n)` across a bounded set of OS threads and returns the results
//! in index order, bit-identical to the sequential `(0..n).map(f)`.
//! The experiment kernels (repeat/function/objective loops), the trace
//! generators' per-function shards and the fleet right-sizer's per-tick
//! refits all build on it, so the worker budget lives here, below every
//! crate that fans out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The machine's available parallelism (1 when unknown), read once per
/// process: the query reads cgroup files on Linux, too slow to repeat on
/// a hot path.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Runs `f(i)` for every `i in 0..n`, fanned out over `threads` workers,
/// and returns the results in index order.
///
/// The contract that makes the parallel paths trustworthy: each index is
/// processed by exactly one worker with no shared mutable state, and
/// results are stored by index, so the output is **bit identical** to the
/// sequential `(0..n).map(f).collect()` regardless of thread count or
/// scheduling. Callers achieve determinism by giving each index its own
/// seed.
///
/// The calling thread is one of the workers: a fan-out over `threads`
/// spawns at most `threads − 1` scoped threads and works through the
/// index queue alongside them, so a caller that would otherwise block in
/// the join costs no extra thread (and no extra stack). `threads ≤ 1` or
/// `n ≤ 1` runs inline without touching the budget below.
///
/// Panics in `f` propagate (the scope joins all workers first).
///
/// Callers nest these fan-outs (functions × inputs × repetitions, sweep
/// points × trace shards, sweep cells × right-sizer refits); a
/// process-wide budget of 2× the core count spawned threads keeps nested
/// levels from multiplying into hundreds of OS threads — once the budget
/// is spent, inner levels simply run on their caller, which changes
/// scheduling but never results.
pub fn par_run<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    static SPAWNED: AtomicUsize = AtomicUsize::new(0);
    // Release reserved budget even if a worker panics out of the scope.
    struct Release(usize);
    impl Drop for Release {
        fn drop(&mut self) {
            SPAWNED.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
    let want = threads.min(n).saturating_sub(1);
    if want == 0 {
        return (0..n).map(f).collect();
    }
    // Reserve atomically (fetch_add first, clamp on the prior value) so
    // concurrent top-level calls cannot each claim the full budget.
    let budget = 2 * available_threads();
    let prior = SPAWNED.fetch_add(want, Ordering::Relaxed);
    let spawn = want.min(budget.saturating_sub(prior));
    if spawn < want {
        SPAWNED.fetch_sub(want - spawn, Ordering::Relaxed);
    }
    let _release = Release(spawn);
    if spawn == 0 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        *slots[i].lock().expect("result slot poisoned") = Some(value);
    };
    std::thread::scope(|scope| {
        for _ in 0..spawn {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_in_order() {
        let f = |i: usize| (i * 31) % 17;
        let seq: Vec<usize> = (0..100).map(f).collect();
        for threads in [1, 2, 8, 64] {
            assert_eq!(par_run(100, threads, f), seq, "threads = {threads}");
        }
        assert!(par_run(0, 4, f).is_empty());
    }

    #[test]
    fn propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            par_run(8, 4, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn nested_fanouts_stay_deterministic() {
        let outer = par_run(6, 8, |i| par_run(6, 8, move |j| i * 10 + j));
        let expected: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..6).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(outer, expected);
    }

    /// The caller counts as a worker: at most `threads` distinct threads
    /// ever run `f`, and a single-thread fan-out runs on the caller only.
    #[test]
    fn at_most_threads_workers_run_f_caller_included() {
        use std::collections::HashSet;
        for threads in [1, 2, 3, 8] {
            let seen = Mutex::new(HashSet::new());
            par_run(64, threads, |i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(100));
                i
            });
            let seen = seen.into_inner().unwrap();
            assert!(
                !seen.is_empty() && seen.len() <= threads,
                "threads = {threads}: {} distinct workers",
                seen.len()
            );
            if threads == 1 {
                assert!(seen.contains(&std::thread::current().id()));
            }
        }
    }
}
