//! # aetr-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the AETR reproduction: integer-picosecond time
//! ([`time`]), a fixed-slot event scheduler that pops events in a
//! stable `(time, seq)` order for models with at most one pending event
//! per kind ([`slots`]), signal tracing ([`trace`]),
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
//! use aetr_sim::slots::{SlotQueue, Slotted};
//! use aetr_sim::time::{Frequency, SimTime};
//! use aetr_sim::trace::{TraceValue, Tracer};
//!
//! /// The clock's next edge, driving this level; one is pending at a time.
//! struct Edge(bool);
//!
//! impl Slotted for Edge {
//!     fn slot(&self) -> usize {
//!         0
//!     }
//!     fn timeline(_index: usize) -> Edge {
//!         unreachable!("this model has no timeline")
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let period = Frequency::from_mhz(30).period();
//! let mut queue: SlotQueue<Edge, 1> = SlotQueue::new();
//! let mut tracer = Tracer::new();
//! let clk = tracer.declare_bit("clk", "top");
//!
//! queue.schedule_at(SimTime::ZERO, Edge(false))?;
//! while let Some((t, Edge(level))) = queue.pop() {
//!     tracer.record(t, clk, TraceValue::Bit(level));
//!     if t < SimTime::from_ns(500) {
//!         queue.schedule_after(period / 2, Edge(!level))?;
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
pub mod slots;
pub mod spare;
pub mod stats;
pub mod time;
pub mod trace;
pub mod vcd;

pub use parallel::{available_jobs, par_map};
pub use slots::{SchedulePastError, SlotError, SlotQueue, Slotted};
pub use stats::OnlineStats;
pub use time::{Frequency, SimDuration, SimTime};
pub use trace::{TraceValue, Tracer};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::time::SimDuration;

    proptest! {
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
