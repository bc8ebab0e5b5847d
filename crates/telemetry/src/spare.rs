//! Per-thread spare buffers for the per-run logs.
//!
//! A log's backing vector on a dense or speech run is hundreds of
//! kilobytes to megabytes — past glibc's mmap/trim thresholds — so
//! iterated instrumented runs (bench loops, fault campaigns, parameter
//! sweeps, utterance after utterance) that free and reallocate it every
//! run spend more wall-clock re-faulting those pages than recording,
//! and what a fault costs swings with host load. A log instead retires
//! its buffer into a thread-local slot when dropped, and the next log
//! on the thread adopts it. At most one buffer is held per slot, for
//! the thread's lifetime.

use std::cell::Cell;
use std::thread::LocalKey;

/// A thread-local slot holding one retired buffer.
pub(crate) type Spare<T> = LocalKey<Cell<Vec<T>>>;

/// Gives a still-unallocated buffer the thread's retired one, emptied.
#[inline]
pub(crate) fn adopt<T>(buf: &mut Vec<T>, spare: &'static Spare<T>) {
    if buf.capacity() == 0 {
        *buf = spare.take();
        buf.clear();
    }
}

/// Retires a buffer into the thread's slot; the larger of it and the
/// one already there is kept.
pub(crate) fn retire<T>(buf: &mut Vec<T>, spare: &'static Spare<T>) {
    let mine = std::mem::take(buf);
    // `try_with`: during thread teardown the TLS slot may already be
    // gone — then the buffer is simply freed as usual.
    let _ = spare.try_with(|spare| {
        let kept = spare.take();
        spare.set(if mine.capacity() > kept.capacity() { mine } else { kept });
    });
}
