//! A fixed-slot event scheduler for models that never have more than
//! one pending event of each kind.
//!
//! A general event queue pays for a heap on every schedule and pop.
//! Hardware models need far less: each kind of event (the next clock
//! edge, the next request, the frame in flight, ...) is pending at most
//! once. [`SlotQueue`] gives each kind one slot holding its
//! `(time, sequence number, event)`, plus a cursor over a time-sorted
//! *timeline* of events fixed before the run (host register writes,
//! say). [`pop`](SlotQueue::pop) and [`peek_time`](SlotQueue::peek_time)
//! take the minimum `(time, seq)` over the slots and the timeline's next
//! entry.
//!
//! # Deterministic order
//!
//! Events pop in `(time, sequence number)` order, so a simulation is a
//! pure function of its inputs. Timeline entry `i` carries sequence
//! number `i`, as if all `n` entries had been scheduled first; slot
//! events take `n`, `n + 1`, ... in scheduling order. So a timeline
//! entry wins a tie with any slot event, and tied slot events pop in
//! the order they were scheduled. [`ops`](SlotQueue::ops) counts the `n`
//! timeline entries, every successful schedule and every pop. The
//! `slot_scheduler` proptest pins all of this against a sorted-list
//! model.
//!
//! Scheduling into an occupied slot is an error, like scheduling in the
//! past: it means the model broke its one-pending-per-kind invariant,
//! and a silent overwrite would drop an event.
//!
//! # Branch-free minimum
//!
//! Each slot's order key is one `u128`: the due time in the high 64
//! bits, then the sequence number, then the slot index in the lowest
//! `⌈log2 N⌉` bits. Sequence numbers are unique, so the slot bits never
//! decide an order, and the plain integer minimum over the keys both
//! finds the earliest `(time, seq)` and names its slot. The scan is a
//! fold of `min`s the compiler turns into conditional moves.

use std::error::Error;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Error returned when scheduling an event in the simulated past.
///
/// A discrete-event simulation must never travel backwards; allowing it
/// silently would reorder causality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The current simulation time.
    pub now: SimTime,
    /// The (invalid) requested activation time.
    pub requested: SimTime,
}

impl fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot schedule event at {} in the past of simulation time {}",
            self.requested, self.now
        )
    }
}

impl Error for SchedulePastError {}

/// An event kind with a fixed slot in a [`SlotQueue`].
pub trait Slotted {
    /// The slot this event occupies while it is pending. Only called for
    /// events passed to [`SlotQueue::schedule_at`]; must be below the
    /// queue's slot count.
    fn slot(&self) -> usize;

    /// The event that stands for entry `index` of the timeline.
    fn timeline(index: usize) -> Self;
}

/// Why a [`SlotQueue`] refused to schedule an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// The requested time is before the current simulation time (or not
    /// representable).
    Past(SchedulePastError),
    /// The event's slot already holds a pending event.
    Occupied {
        /// The slot.
        slot: usize,
        /// When its pending event is due.
        pending: SimTime,
    },
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::Past(e) => e.fmt(f),
            SlotError::Occupied { slot, pending } => {
                write!(f, "slot {slot} already holds an event due at {pending}")
            }
        }
    }
}

impl Error for SlotError {}

impl From<SchedulePastError> for SlotError {
    fn from(e: SchedulePastError) -> Self {
        SlotError::Past(e)
    }
}

/// The order key of an empty slot or an exhausted timeline. No real
/// event reaches it: its sequence number would be all ones.
const VACANT: u128 = u128::MAX;

/// Packs `(time, seq, tag)` into one integer whose order is the
/// lexicographic order of `(time, seq)`: `tag`, below `seq`, takes the
/// low `tag_bits` bits and decides nothing, because sequence numbers are
/// unique.
fn key(time: SimTime, seq: u64, tag_bits: u32, tag: usize) -> u128 {
    (u128::from(time.as_ps()) << 64) | (u128::from(seq) << tag_bits) | tag as u128
}

fn key_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// A scheduler with one slot per event kind (`N` kinds) and a
/// time-sorted timeline; see the [module docs](self).
///
/// # Examples
///
/// ```
/// use aetr_sim::slots::{SlotQueue, Slotted};
/// use aetr_sim::time::{SimDuration, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev {
///     Tick,
///     Write(usize),
/// }
///
/// impl Slotted for Ev {
///     fn slot(&self) -> usize {
///         match self {
///             Ev::Tick => 0,
///             Ev::Write(_) => unreachable!("writes ride the timeline"),
///         }
///     }
///     fn timeline(index: usize) -> Ev {
///         Ev::Write(index)
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = SimTime::from_ns(10);
/// let mut q: SlotQueue<Ev, 1> = SlotQueue::with_timeline([t]);
/// q.schedule_at(t, Ev::Tick)?;
/// assert!(q.schedule_after(SimDuration::from_ns(1), Ev::Tick).is_err(), "slot is taken");
/// assert_eq!(q.pop(), Some((t, Ev::Write(0))), "the timeline wins the tie");
/// assert_eq!(q.pop(), Some((t, Ev::Tick)));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.ops(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SlotQueue<E, const N: usize> {
    /// Order key of each slot's pending event (slot index in the low
    /// bits), or [`VACANT`].
    keys: [u128; N],
    /// Each slot's pending event.
    events: [Option<E>; N],
    /// Due times of the timeline, non-decreasing.
    timeline: Vec<SimTime>,
    /// Index of the timeline's next entry.
    cursor: usize,
    now: SimTime,
    next_seq: u64,
    ops: u64,
}

impl<E: Slotted, const N: usize> Default for SlotQueue<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Slotted, const N: usize> SlotQueue<E, N> {
    /// Bits of a slot key that hold the slot index: enough for `N - 1`.
    const SLOT_BITS: u32 = usize::BITS - N.saturating_sub(1).leading_zeros();

    /// An empty scheduler at time zero with no timeline.
    pub fn new() -> Self {
        Self::with_timeline([])
    }

    /// A scheduler at time zero whose timeline holds one event per
    /// entry of `times`, due at that time ([`Slotted::timeline`] names
    /// it by its index). Counts one operation per entry, as scheduling
    /// each of them would.
    ///
    /// # Panics
    ///
    /// Panics if `times` is not sorted in non-decreasing order.
    pub fn with_timeline(times: impl IntoIterator<Item = SimTime>) -> Self {
        let timeline: Vec<SimTime> = times.into_iter().collect();
        assert!(timeline.windows(2).all(|w| w[0] <= w[1]), "the timeline must be time-sorted");
        let n = timeline.len() as u64;
        SlotQueue {
            keys: [VACANT; N],
            events: std::array::from_fn(|_| None),
            timeline,
            cursor: 0,
            now: SimTime::ZERO,
            next_seq: n,
            ops: n,
        }
    }

    /// Scheduling operations performed so far: timeline entries,
    /// successful schedules and pops. Refused schedules and pops of an
    /// empty queue are not operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current simulation time (time of the last popped event, or the
    /// last [`advance_to`](Self::advance_to)).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at` in the event's slot.
    ///
    /// # Errors
    ///
    /// [`SlotError::Past`] if `at` is before [`now`](Self::now);
    /// [`SlotError::Occupied`] if the slot already holds an event.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> Result<(), SlotError> {
        if at < self.now {
            return Err(SlotError::Past(SchedulePastError { now: self.now, requested: at }));
        }
        let slot = event.slot();
        let pending = self.keys[slot];
        if pending != VACANT {
            return Err(SlotError::Occupied { slot, pending: key_time(pending) });
        }
        debug_assert!(self.next_seq < u64::MAX >> Self::SLOT_BITS, "sequence numbers exhausted");
        self.keys[slot] = key(at, self.next_seq, Self::SLOT_BITS, slot);
        self.events[slot] = Some(event);
        self.next_seq += 1;
        self.ops += 1;
        Ok(())
    }

    /// Schedules `event` at `delay` after the current time.
    ///
    /// # Errors
    ///
    /// As [`schedule_at`](Self::schedule_at); [`SlotError::Past`] also
    /// when `now + delay` overflows.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> Result<(), SlotError> {
        let at = self
            .now
            .checked_add(delay)
            .ok_or(SchedulePastError { now: self.now, requested: SimTime::MAX })?;
        self.schedule_at(at, event)
    }

    /// Order key of the timeline's next entry, or [`VACANT`].
    fn timeline_key(&self) -> u128 {
        self.timeline
            .get(self.cursor)
            .map_or(VACANT, |&t| key(t, self.cursor as u64, Self::SLOT_BITS, 0))
    }

    /// The smallest slot key ([`VACANT`] when every slot is empty); its
    /// low `SLOT_BITS` bits name the slot.
    fn min_slot(&self) -> u128 {
        self.keys.iter().fold(VACANT, |best, &k| best.min(k))
    }

    /// Removes and returns the earliest event, advancing the clock to
    /// its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot_key = self.min_slot();
        let head = self.timeline_key();
        let (time, event) = if head < slot_key {
            let index = self.cursor;
            self.cursor += 1;
            (key_time(head), E::timeline(index))
        } else if slot_key != VACANT {
            let slot = (slot_key & ((1 << Self::SLOT_BITS) - 1)) as usize;
            self.keys[slot] = VACANT;
            (key_time(slot_key), self.events[slot].take().expect("occupied slot holds its event"))
        } else {
            return None;
        };
        debug_assert!(time >= self.now, "slot queue went backwards");
        self.now = time;
        self.ops += 1;
        Some((time, event))
    }

    /// Time of the earliest pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let k = self.min_slot().min(self.timeline_key());
        (k != VACANT).then(|| key_time(k))
    }

    /// Advances the clock without popping (used by callers that skip
    /// idle stretches analytically).
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current time.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance the clock backwards from {} to {}", self.now, t);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        A(u32),
        B,
        Write(usize),
    }

    impl Slotted for Ev {
        fn slot(&self) -> usize {
            match self {
                Ev::A(_) => 0,
                Ev::B => 1,
                Ev::Write(_) => unreachable!("timeline events are never scheduled"),
            }
        }

        fn timeline(index: usize) -> Ev {
            Ev::Write(index)
        }
    }

    type Q = SlotQueue<Ev, 2>;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn pops_in_time_order_across_slots_and_timeline() {
        let mut q = Q::with_timeline([ns(15), ns(40)]);
        q.schedule_at(ns(30), Ev::B).unwrap();
        q.schedule_at(ns(10), Ev::A(1)).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (ns(10), Ev::A(1)),
                (ns(15), Ev::Write(0)),
                (ns(30), Ev::B),
                (ns(40), Ev::Write(1))
            ]
        );
        assert_eq!(q.now(), ns(40));
    }

    #[test]
    fn ties_pop_timeline_first_then_in_schedule_order() {
        let t = ns(7);
        let mut q = Q::with_timeline([t, t]);
        q.schedule_at(t, Ev::B).unwrap();
        q.schedule_at(t, Ev::A(0)).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![Ev::Write(0), Ev::Write(1), Ev::B, Ev::A(0)]);
    }

    #[test]
    fn double_booking_is_an_error_and_keeps_the_pending_event() {
        let mut q = Q::new();
        q.schedule_at(ns(5), Ev::A(1)).unwrap();
        let err = q.schedule_at(ns(3), Ev::A(2)).unwrap_err();
        assert_eq!(err, SlotError::Occupied { slot: 0, pending: ns(5) });
        assert!(err.to_string().contains("already holds"));
        assert_eq!(q.ops(), 1, "a refused schedule is not an op");
        assert_eq!(q.pop(), Some((ns(5), Ev::A(1))));
        q.schedule_at(ns(6), Ev::A(3)).unwrap();
        assert_eq!(q.pop(), Some((ns(6), Ev::A(3))), "a popped slot is free again");
    }

    #[test]
    fn rejects_scheduling_in_the_past() {
        let mut q = Q::new();
        q.schedule_at(ns(10), Ev::B).unwrap();
        q.pop();
        let err = q.schedule_at(ns(5), Ev::B).unwrap_err();
        assert_eq!(err, SlotError::Past(SchedulePastError { now: ns(10), requested: ns(5) }));
        assert!(err.to_string().contains("in the past"));
        q.schedule_at(ns(10), Ev::B).expect("delta events at now are allowed");
    }

    #[test]
    fn schedule_after_is_relative_to_now_and_overflow_errors() {
        let mut q = Q::new();
        q.advance_to(ns(100));
        q.schedule_after(SimDuration::from_ns(50), Ev::B).unwrap();
        assert_eq!(q.peek_time(), Some(ns(150)));
        assert!(matches!(q.schedule_after(SimDuration::MAX, Ev::A(0)), Err(SlotError::Past(_))));
    }

    #[test]
    fn peek_time_and_ops_track_the_timeline() {
        let mut q = Q::with_timeline([ns(2)]);
        assert_eq!(q.ops(), 1);
        assert_eq!(q.peek_time(), Some(ns(2)));
        q.schedule_at(ns(1), Ev::B).unwrap();
        assert_eq!(q.peek_time(), Some(ns(1)));
        q.pop();
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.ops(), 4, "popping nothing is not an op");
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_timeline_panics() {
        Q::with_timeline([ns(2), ns(1)]);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_backwards_panics() {
        let mut q = Q::new();
        q.advance_to(ns(5));
        q.advance_to(ns(4));
    }
}
