//! Per-thread spare buffers for per-run vectors.
//!
//! A per-run buffer on a dense or speech run (a spike train, the
//! captured events, the handshake log, the I2S frames, a telemetry
//! log) is hundreds of kilobytes to megabytes — past glibc's mmap/trim
//! thresholds — so iterated runs (bench loops, fault campaigns,
//! parameter sweeps, utterance after utterance) that free and
//! reallocate it every run spend more wall-clock re-faulting those
//! pages than doing the work, and what a fault costs swings with host
//! load. A type that owns such a buffer instead retires it into a
//! thread-local slot of its own when dropped, and its constructor on
//! the same thread takes it back. At most one buffer is held per slot,
//! the largest the thread has finished with, for the thread's
//! lifetime.
//!
//! All the per-run buffers of a path must be recycled together: while
//! some are still freed each run, glibc trims the heap top they leave
//! behind and the next run faults those pages back in wherever they
//! are reallocated.
//!
//! # Examples
//!
//! ```
//! use std::cell::Cell;
//!
//! use aetr_sim::spare;
//!
//! thread_local! {
//!     static SPARE: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
//! }
//!
//! let mut first = spare::take(&SPARE, 1_000);
//! first.extend(0..1_000);
//! let storage = first.as_ptr();
//! spare::retire(&mut first, &SPARE);
//!
//! let second = spare::take(&SPARE, 10);
//! assert!(second.is_empty());
//! assert_eq!(second.as_ptr(), storage);
//! ```

use std::cell::Cell;
use std::thread::LocalKey;

/// A thread-local slot holding one retired buffer.
pub type Spare<T> = LocalKey<Cell<Vec<T>>>;

/// Takes the thread's retired buffer, emptied, with room for at least
/// `capacity` elements (a fresh allocation if the slot is empty).
#[inline]
pub fn take<T>(spare: &'static Spare<T>, capacity: usize) -> Vec<T> {
    // `try_with`: during thread teardown the TLS slot may already be
    // gone — then this is a plain allocation.
    let mut buf = spare.try_with(Cell::take).unwrap_or_default();
    buf.clear();
    buf.reserve(capacity);
    buf
}

/// Gives a still-unallocated buffer the thread's retired one, emptied.
#[inline]
pub fn adopt<T>(buf: &mut Vec<T>, spare: &'static Spare<T>) {
    if buf.capacity() == 0 {
        *buf = take(spare, 0);
    }
}

/// Retires a buffer into the thread's slot, leaving `buf` empty; the
/// larger of it and the one already there is kept.
pub fn retire<T>(buf: &mut Vec<T>, spare: &'static Spare<T>) {
    let mine = std::mem::take(buf);
    if mine.capacity() == 0 {
        return;
    }
    let _ = spare.try_with(|spare| {
        let kept = spare.take();
        spare.set(if mine.capacity() > kept.capacity() { mine } else { kept });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static SPARE: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    }

    #[test]
    fn the_larger_buffer_is_kept() {
        let mut small = Vec::with_capacity(4);
        let mut large = Vec::with_capacity(400);
        large.push(7);
        let storage = large.as_ptr();
        retire(&mut large, &SPARE);
        retire(&mut small, &SPARE);
        assert_eq!(large.capacity(), 0, "retiring leaves the owner empty");
        let back = take(&SPARE, 1);
        assert_eq!((back.as_ptr(), back.len()), (storage, 0));
        assert!(take(&SPARE, 0).capacity() == 0, "the slot is empty once taken");
    }

    #[test]
    fn adopt_leaves_an_allocated_buffer_alone() {
        let mut spare = Vec::with_capacity(64);
        retire(&mut spare, &SPARE);
        let mut own = Vec::with_capacity(8);
        let storage = own.as_ptr();
        adopt(&mut own, &SPARE);
        assert_eq!(own.as_ptr(), storage);
        let mut fresh = Vec::new();
        adopt(&mut fresh, &SPARE);
        assert!(fresh.capacity() >= 64);
    }
}
