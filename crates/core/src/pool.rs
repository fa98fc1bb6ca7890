//! The indexed worker pool: the one place the workspace fans work out
//! across threads.
//!
//! [`Engine::run_batch`](crate::Engine::run_batch) runs its session
//! shards on it, and the corpus runner, `cf_bench::parallel` and the
//! `checkfence` CLI run reference-interpreter mining on it (work the
//! engine does not cover). The toolchain is offline, so there is no
//! rayon; scoped threads pulling indices off an atomic counter are all
//! the pattern needs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `work(0)`, …, `work(n - 1)` on up to `jobs` worker threads and
/// returns the results in index order.
///
/// With one worker (or at most one job) everything runs on the calling
/// thread, in index order. Otherwise scoped workers pull indices off a
/// shared counter and send results over a channel: unlike a shared
/// `Vec` under a `Mutex`, a panicking worker cannot poison the
/// collection path. A panic in `work` still propagates to the caller
/// once every worker has stopped.
pub fn run_indexed<R: Send>(jobs: usize, n: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (tx, next, work) = (tx.clone(), &next, &work);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The receiver outlives the scope, so sending cannot fail.
                let _ = tx.send((i, work(i)));
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Mutex};

    use super::run_indexed;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 8] {
            for n in [0, 1, 5] {
                // With several workers, index 0 finishes last: it waits
                // for the final index, so results arrive out of order.
                let (done_tx, done_rx) = mpsc::channel();
                let (done_tx, done_rx) = (Mutex::new(done_tx), Mutex::new(done_rx));
                let out = run_indexed(jobs, n, |i| {
                    if jobs > 1 && n > 1 {
                        if i == 0 {
                            done_rx.lock().unwrap().recv().expect("the last index runs");
                        }
                        if i == n - 1 {
                            done_tx.lock().unwrap().send(()).expect("index 0 waits");
                        }
                    }
                    i * 10
                });
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, want, "jobs {jobs}, n {n}");
            }
        }
    }
}
