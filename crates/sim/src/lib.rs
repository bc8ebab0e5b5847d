//! # aetr-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the AETR reproduction: integer-picosecond time
//! ([`time`]), a deterministic event queue with stable tie-breaking and
//! O(1) tombstone cancellation ([`queue`]), a fixed-slot scheduler that
//! pops the same `(time, seq)` order for models with at most one pending
//! event per kind ([`slots`]), signal tracing ([`trace`]),
//! VCD waveform export ([`vcd`]), a deterministic parallel executor
//! for independent sweep points ([`parallel`]), and per-thread recycling
//! of per-run buffers ([`spare`]).
//!
//! Each simulation is single-threaded and allocation-light by design:
//! the DAC'17 experiments must be exactly reproducible, so the kernel
//! admits no source of nondeterminism. Parallelism exists only *across*
//! independently seeded simulations, and [`parallel::par_map`] returns
//! results in input order so a parallel sweep is bit-identical to the
//! sequential one.
//!
//! # Examples
//!
//! Simulate a free-running clock and dump its waveform:
//!
//! ```
//! use aetr_sim::queue::EventQueue;
//! use aetr_sim::time::{Frequency, SimTime};
//! use aetr_sim::trace::{TraceValue, Tracer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let period = Frequency::from_mhz(30).period();
//! let mut queue = EventQueue::new();
//! let mut tracer = Tracer::new();
//! let clk = tracer.declare_bit("clk", "top");
//!
//! queue.schedule_at(SimTime::ZERO, false)?;
//! while let Some((t, level)) = queue.pop() {
//!     tracer.record(t, clk, TraceValue::Bit(level));
//!     if t < SimTime::from_ns(500) {
//!         queue.schedule_after(period / 2, !level)?;
//!     }
//! }
//!
//! let mut vcd = Vec::new();
//! aetr_sim::vcd::write_vcd(&tracer, &mut vcd)?;
//! assert!(!tracer.edges_to(clk, true).is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod queue;
pub mod slots;
pub mod spare;
pub mod stats;
pub mod time;
pub mod trace;
pub mod vcd;

pub use parallel::{available_jobs, par_map};
pub use queue::{EventHandle, EventQueue, SchedulePastError};
pub use slots::{SlotError, SlotQueue, Slotted};
pub use stats::OnlineStats;
pub use time::{Frequency, SimDuration, SimTime};
pub use trace::{TraceValue, Tracer};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::queue::EventQueue;
    use crate::time::{SimDuration, SimTime};

    proptest! {
        /// Popping always yields a non-decreasing time sequence,
        /// regardless of the order events were scheduled in.
        #[test]
        fn pops_are_monotonic(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(SimTime::from_ps(t), t).unwrap();
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every scheduled (non-cancelled) event pops exactly once.
        #[test]
        fn conservation_of_events(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_ps(t), i).unwrap();
            }
            let mut popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
            popped.sort_unstable();
            prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
        }

        /// The tombstone queue pops the identical `(time, seq)` order as
        /// a naive reference model (linear scan for the minimum live
        /// entry) under random interleavings of schedule, cancel, and
        /// pop — and `len()`/`cancel()` return values agree at every
        /// step, including across slot reuse.
        #[test]
        fn tombstone_queue_matches_reference_model(
            ops in proptest::collection::vec((0u8..10, 0u64..1_000), 1..400),
        ) {
            // Model entry: (time, seq, cancelled, popped).
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: Vec<(SimTime, u64, bool, bool)> = Vec::new();
            let mut handles = Vec::new();
            let mut model_now = SimTime::ZERO;
            for &(sel, param) in &ops {
                match sel {
                    // Schedule (weighted 6/10 so the queue stays busy).
                    0..=5 => {
                        let at = model_now.checked_add(SimDuration::from_ps(param)).unwrap();
                        let seq = model.len() as u64;
                        handles.push(q.schedule_at(at, seq).unwrap());
                        model.push((at, seq, false, false));
                    }
                    // Cancel a (possibly stale) handle.
                    6 | 7 => {
                        if !handles.is_empty() {
                            let k = (param as usize) % handles.len();
                            let expect = !model[k].2 && !model[k].3;
                            prop_assert_eq!(q.cancel(handles[k]), expect);
                            model[k].2 = true;
                        }
                    }
                    // Pop, comparing against the model's minimum live entry.
                    _ => {
                        let pick = model
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| !e.2 && !e.3)
                            .min_by_key(|(_, e)| (e.0, e.1))
                            .map(|(i, _)| i);
                        match (q.pop(), pick) {
                            (Some((t, seq)), Some(i)) => {
                                prop_assert_eq!((t, seq), (model[i].0, model[i].1));
                                model[i].3 = true;
                                model_now = t;
                                prop_assert_eq!(q.now(), model_now);
                            }
                            (None, None) => {}
                            (got, want) => {
                                prop_assert!(false, "pop mismatch: got {:?}, want {:?}", got, want);
                            }
                        }
                    }
                }
                let live = model.iter().filter(|e| !e.2 && !e.3).count();
                prop_assert_eq!(q.len(), live);
            }
            // Draining pops the surviving entries in exact (time, seq) order.
            let mut remaining: Vec<(SimTime, u64)> =
                model.iter().filter(|e| !e.2 && !e.3).map(|e| (e.0, e.1)).collect();
            remaining.sort();
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(drained, remaining);
        }

        /// Duration arithmetic: (a + b) - b == a for non-overflowing pairs.
        #[test]
        fn duration_add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let da = SimDuration::from_ps(a);
            let db = SimDuration::from_ps(b);
            prop_assert_eq!((da + db) - db, da);
        }

        /// Frequency→period→frequency round-trip stays within the
        /// truncation error of one picosecond of period.
        #[test]
        fn frequency_period_roundtrip(hz in 1_000u64..500_000_000) {
            let f = crate::time::Frequency::from_hz(hz);
            let p = f.period();
            let back = p.to_frequency();
            // back >= f because period truncates; error bounded by one
            // period quantum.
            prop_assert!(back >= f);
            let p2 = SimDuration::from_ps(p.as_ps() + 1);
            prop_assert!(p2.to_frequency() <= f);
        }
    }
}
