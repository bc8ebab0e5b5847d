//! Deterministic parallel execution of independent simulation points.
//!
//! Campaign and sweep workloads in this repository are embarrassingly
//! parallel: every point owns its own seeded RNG streams and its own
//! event scheduler ([`SlotQueue`](crate::slots::SlotQueue) in the
//! interface runner), so points never share
//! mutable state. This module shards such points over OS threads with
//! [`std::thread::scope`] — no external crates, the vendor tree is
//! offline — while keeping the output *bit-identical* to a sequential
//! run.
//!
//! # Determinism argument
//!
//! Thread scheduling only decides *which worker* computes a point and
//! *when*; it never decides *what* the point computes, because
//!
//! 1. each item is mapped by a pure-per-item function `f(index, item)`
//!    that takes no mutable shared state (enforced by `F: Fn + Sync`
//!    taking `&T`),
//! 2. every result is tagged with its input index at the moment it is
//!    produced, and
//! 3. the tagged results are sorted by input index before being
//!    returned.
//!
//! Consequently `par_map(jobs, items, f)` returns the same `Vec` for
//! every `jobs >= 1`, including `jobs == 1`, which short-circuits to a
//! plain sequential loop with no thread machinery at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of worker threads the host can usefully run, for `--jobs 0`
/// style "pick for me" knobs. Falls back to 1 if the OS refuses to say.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results **in input order** — bit-identical to the sequential
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// `f` receives `(index, &item)` so callers can derive per-point seeds
/// from the position, exactly as a sequential loop would. Work is
/// handed out through an atomic cursor in input order, so stragglers
/// never idle a worker. `jobs` is clamped to `1..=items.len()`;
/// the calling thread is one of the `jobs` workers, so only `jobs - 1`
/// threads are spawned.
///
/// # Examples
///
/// ```
/// use aetr_sim::parallel::par_map;
///
/// let xs = [1u64, 2, 3, 4, 5];
/// let doubled = par_map(4, &xs, |_, &x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
/// ```
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let tagged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));

    let work = || {
        // Compute into a worker-local buffer first so the lock is
        // touched once per worker, not once per item.
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        tagged.lock().expect("worker poisoned result buffer").extend(local);
    };
    thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(work);
        }
        work();
    });

    let mut tagged = tagged.into_inner().expect("worker poisoned result buffer");
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 3 + i as u64).collect();
        for jobs in [1, 2, 3, 4, 8, 64] {
            let par = par_map(jobs, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(par, seq, "jobs={jobs} diverged from sequential");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[42u32], |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn jobs_zero_behaves_like_one() {
        let items = [10u32, 20, 30];
        assert_eq!(par_map(0, &items, |i, &x| x + i as u32), vec![10, 21, 32]);
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..100).collect();
        let echoed = par_map(7, &items, |i, &x| {
            assert_eq!(i, x, "index must match the item's position");
            i
        });
        assert_eq!(echoed, items);
    }

    #[test]
    fn available_jobs_is_at_least_one() {
        assert!(available_jobs() >= 1);
    }
}
