//! Host-thread parallelism for sweep binaries.
//!
//! Simulation config points are independent, so ablation and scaling
//! sweeps fan them out over OS threads (one per point) and keep results
//! in input order. Only the wall clock of the whole fan-out is measured:
//! per-point times taken on oversubscribed threads count time spent
//! preempted, so their sum says nothing about a serial run.

use std::time::{Duration, Instant};

/// Runs `f` over every item on its own host thread, returning results in
/// input order plus the wall-clock time of the whole fan-out.
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
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                let f = &f;
                scope.spawn(move || f(item))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("sweep worker panicked"))
            .collect()
    });
    (results, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
