//! The one worker pool every sweep and routing build runs on.
//!
//! [`map_ordered`] maps a function over a slice of independent jobs on
//! scoped threads and returns the results in job order. Workers pull job
//! indices from one atomic counter, so jobs start in index order; each
//! worker creates its scratch state once (`init`) and reuses it for
//! every job it takes. Results depend on the job alone, never on which
//! worker ran it or when, so a sweep is bit-identical at every worker
//! count. With one worker or one job the map runs inline on the calling
//! thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hardware threads available to this process (1 when unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `jobs.iter().map(|j| f(&mut scratch, j)).collect()`, on up to
/// `workers` threads, each holding its own `init()` scratch.
///
/// Results come back in job order whatever the worker count. `init`
/// runs at most once per worker, and not at all for no jobs. A panic in
/// a job resumes on the calling thread once every worker has stopped.
pub fn map_ordered<J, S, T>(
    jobs: &[J],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &J) -> T + Sync,
) -> Vec<T>
where
    J: Sync,
    T: Send,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        let mut scratch = init();
        return jobs.iter().map(|j| f(&mut scratch, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = init();
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results reach
            // the caller through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break done };
            done.push((i, f(&mut scratch, job)));
        }
    };
    // The calling thread is one of the workers.
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let mut all = Vec::with_capacity(jobs.len());
        all.extend(worker());
        for h in handles {
            match h.join() {
                Ok(done) => all.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        all
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose cost varies tenfold with its index, so workers finish
    /// out of order.
    fn uneven(i: &u64) -> u64 {
        let mut x = *i;
        for _ in 0..(1 + (i * 7919) % 10) * 20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        x
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..61).collect();
        let serial: Vec<u64> = jobs.iter().map(uneven).collect();
        for workers in [1, 2, 4, 8] {
            let got = map_ordered(&jobs, workers, || (), |_, j| uneven(j));
            assert_eq!(got, serial, "{workers} workers");
        }
    }

    #[test]
    fn no_jobs_and_more_workers_than_jobs() {
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::Relaxed);
        let none: Vec<u32> = map_ordered(&[] as &[u32], 4, init, |_, &j| j);
        assert!(none.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no jobs, no scratch");
        assert_eq!(
            map_ordered(&[5u32, 6, 7], 8, init, |_, &j| j * 2),
            vec![10, 12, 14]
        );
        assert!(
            inits.load(Ordering::Relaxed) <= 3,
            "one scratch per worker, three at most"
        );
        assert_eq!(map_ordered(&[9u32], 8, || (), |_, &j| j), vec![9]);
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        // Each scratch counts the jobs it served.
        let jobs: Vec<u64> = (0..40).collect();
        for workers in [1, 2, 4, 8] {
            let inits = AtomicUsize::new(0);
            let served = map_ordered(
                &jobs,
                workers,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |seen: &mut Vec<u64>, &j| {
                    seen.push(j);
                    (seen.len(), uneven(&j))
                },
            );
            let n = inits.load(Ordering::Relaxed);
            assert!(
                (1..=workers).contains(&n),
                "{n} inits for {workers} workers"
            );
            // A scratch that served m jobs reports 1..=m once each; a
            // worker that found the jobs gone served none.
            let firsts = served.iter().filter(|&&(k, _)| k == 1).count();
            assert!(
                (1..=n).contains(&firsts),
                "{firsts} scratches served jobs, {n} made"
            );
        }
    }

    #[test]
    #[should_panic(expected = "job 13 failed")]
    fn a_panicking_job_surfaces_from_the_call() {
        let jobs: Vec<u32> = (0..32).collect();
        map_ordered(
            &jobs,
            4,
            || (),
            |_, &j| {
                assert!(j != 13, "job {j} failed");
                j
            },
        );
    }
}
