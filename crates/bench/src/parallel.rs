//! Host-thread parallelism for the sweep commands.
//!
//! Simulation config points are independent, so ablation and scaling
//! sweeps fan them out over a bounded pool of scoped worker threads, at
//! most [`std::thread::available_parallelism`] of them, and keep results
//! in input order. Each worker pulls the next unstarted point from a
//! shared queue, so the host never runs more points at once than it has
//! CPUs (`prefetch_ablation`'s 80 points used to start 80 threads). Only
//! the wall clock of the whole fan-out is measured.

use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Runs `f` over every item on a pool of at most
/// [`std::thread::available_parallelism`] host threads, returning results
/// in input order plus the wall-clock time of the whole fan-out.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn parallel_sweep<T, R, F>(items: Vec<T>, f: F) -> (Vec<R>, Duration)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    pooled_sweep(items, workers, f)
}

/// [`parallel_sweep`] on at most `workers` threads (at least one).
fn pooled_sweep<T, R, F>(items: Vec<T>, workers: usize, f: F) -> (Vec<R>, Duration)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let start = Instant::now();
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of the statement, so
                        // `f` runs unlocked and a panicking `f` cannot
                        // poison the queue.
                        let next = queue.lock().expect("queue lock is never poisoned").next();
                        let Some((index, item)) = next else { break };
                        done.push((index, f(item)));
                    }
                    done
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for handle in handles {
            for (index, result) in handle.join().expect("sweep worker panicked") {
                slots[index] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item ran exactly once"))
            .collect()
    });
    (results, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn preserves_input_order() {
        let (results, _) = parallel_sweep((0..16).collect(), |i: i32| i * i);
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn actually_overlaps_work() {
        let (results, wall) = parallel_sweep(vec![10u64; 8], |ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        // Eight 10 ms sleeps in parallel must take well under their
        // 80 ms total.
        let total = Duration::from_millis(results.iter().sum());
        assert_eq!(total, Duration::from_millis(80));
        assert!(wall < total, "wall {wall:?} vs {total:?} of sleeps");
    }

    #[test]
    fn runs_at_most_the_worker_count_at_once() {
        // Every item waits at a barrier for `WORKERS` parties, so the pool
        // must run exactly `WORKERS` items at once to finish: fewer would
        // never release the barrier, and the counter catches more.
        const WORKERS: usize = 3;
        let barrier = Barrier::new(WORKERS);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (results, _) = pooled_sweep((0..4 * WORKERS).collect(), WORKERS, |i: usize| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            barrier.wait();
            running.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(results, (0..4 * WORKERS).collect::<Vec<_>>());
        assert_eq!(peak.load(Ordering::SeqCst), WORKERS);
    }

    #[test]
    fn empty_sweep_returns_no_results() {
        let (results, _) = parallel_sweep(Vec::<u8>::new(), |x| x);
        assert!(results.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panics_propagate() {
        let _ = pooled_sweep((0..8).collect(), 2, |i: u32| {
            assert!(i != 5, "point 5 fails");
            i
        });
    }
}
