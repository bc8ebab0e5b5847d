//! Differential pinning of the fixed-slot scheduler against its
//! reference model: random schedule / pop / `peek_time` / `advance_to`
//! sequences, with a random time-sorted timeline, drive a [`SlotQueue`]
//! and a [`SortedModel`] — every pending event in one list sorted by
//! `(time, seq)` — side by side. They must agree on every popped
//! `(time, event)`, on `now()`, `ops()` and `peek_time()` after every
//! step, and on every refusal: a schedule in the past fails on both
//! with the same error, and a schedule into an occupied slot fails on
//! the slot queue (and is not issued to the reference, which would
//! accept it).
//!
//! The case count defaults to a CI-friendly 48 and is raised on the
//! nightly schedule via `AETR_PROPTEST_CASES` (see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;

use aetr_sim::slots::{SchedulePastError, SlotError, SlotQueue, Slotted};
use aetr_sim::time::{SimDuration, SimTime};

/// Event kinds with a slot each.
const KINDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A slotted event of kind `.0` with payload `.1`.
    Kind(usize, u32),
    /// Timeline entry `.0`.
    Write(usize),
}

impl Slotted for Ev {
    fn slot(&self) -> usize {
        match *self {
            Ev::Kind(kind, _) => kind,
            Ev::Write(_) => unreachable!("timeline events are never scheduled"),
        }
    }

    fn timeline(index: usize) -> Ev {
        Ev::Write(index)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `schedule_at(now + offset - back, Kind(kind, tag))`; a `back`
    /// larger than the offset asks for the past.
    ScheduleAt {
        kind: usize,
        offset: u64,
        back: u64,
        tag: u32,
    },
    /// `schedule_after(delay, Kind(kind, tag))`.
    ScheduleAfter {
        kind: usize,
        delay: u64,
        tag: u32,
    },
    Pop,
    PeekTime,
    /// `advance_to` a point `frac`/16 of the way to the next event (or
    /// by `frac` ps when nothing is pending).
    AdvanceTo {
        frac: u64,
    },
}

fn cases() -> u32 {
    std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// Small time steps so that ties between slots, the timeline and `now`
/// are frequent.
fn arbitrary_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KINDS, 0u64..40, 0u64..8, any::<u32>()).prop_map(|(kind, offset, back, tag)| {
            // Mostly forward; one draw in eight reaches into the past.
            let back = if back == 0 { offset + 1 } else { 0 };
            Op::ScheduleAt { kind, offset, back, tag }
        }),
        (0..KINDS, 0u64..40, any::<u32>()).prop_map(|(kind, delay, tag)| Op::ScheduleAfter {
            kind,
            delay,
            tag
        }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::PeekTime),
        (0u64..17).prop_map(|frac| Op::AdvanceTo { frac }),
    ]
}

/// Non-decreasing timeline times, with repeats.
fn arbitrary_timeline() -> impl Strategy<Value = Vec<SimTime>> {
    proptest::collection::vec(0u64..12, 0..8).prop_map(|gaps| {
        let mut t = 0;
        gaps.into_iter()
            .map(|gap| {
                t += gap * (gap % 3);
                SimTime::from_ps(t)
            })
            .collect()
    })
}

/// The reference scheduler: pending `(time, seq, event)` entries kept
/// sorted, so the next pop is the front. Every successful schedule and
/// every pop is an op; a refusal is not.
#[derive(Default)]
struct SortedModel {
    pending: Vec<(SimTime, u64, Ev)>,
    now: SimTime,
    next_seq: u64,
    ops: u64,
}

impl SortedModel {
    fn schedule_at(&mut self, at: SimTime, ev: Ev) -> Result<(), SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { now: self.now, requested: at });
        }
        let key = (at, self.next_seq);
        let index = self.pending.partition_point(|&(t, seq, _)| (t, seq) < key);
        self.pending.insert(index, (at, self.next_seq, ev));
        self.next_seq += 1;
        self.ops += 1;
        Ok(())
    }

    fn schedule_after(&mut self, delay: SimDuration, ev: Ev) -> Result<(), SchedulePastError> {
        let at = self
            .now
            .checked_add(delay)
            .ok_or(SchedulePastError { now: self.now, requested: SimTime::MAX })?;
        self.schedule_at(at, ev)
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        if self.pending.is_empty() {
            return None;
        }
        let (t, _, ev) = self.pending.remove(0);
        self.now = t;
        self.ops += 1;
        Some((t, ev))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "the model's clock went backwards");
        self.now = t;
    }
}

/// Both queues plus the reference's occupancy, which the model does not
/// track itself.
struct Pair {
    slots: SlotQueue<Ev, KINDS>,
    reference: SortedModel,
    pending: [Option<SimTime>; KINDS],
}

impl Pair {
    fn new(timeline: &[SimTime]) -> Pair {
        let mut reference = SortedModel::default();
        for (i, &t) in timeline.iter().enumerate() {
            reference.schedule_at(t, Ev::Write(i)).expect("time zero is never in the past");
        }
        Pair {
            slots: SlotQueue::with_timeline(timeline.iter().copied()),
            reference,
            pending: [None; KINDS],
        }
    }

    /// Applies `op` to both queues; `Err` describes the first
    /// disagreement.
    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::ScheduleAt { kind, offset, back, tag } => {
                let now = self.slots.now().as_ps();
                let at = SimTime::from_ps((now + offset).saturating_sub(back));
                let past = at < self.slots.now();
                let got = self.slots.schedule_at(at, Ev::Kind(kind, tag));
                self.check_schedule(kind, at, past, got, |q| {
                    q.schedule_at(at, Ev::Kind(kind, tag))
                })?;
            }
            Op::ScheduleAfter { kind, delay, tag } => {
                let at = self.slots.now() + SimDuration::from_ps(delay);
                let got =
                    self.slots.schedule_after(SimDuration::from_ps(delay), Ev::Kind(kind, tag));
                self.check_schedule(kind, at, false, got, |q| {
                    q.schedule_after(SimDuration::from_ps(delay), Ev::Kind(kind, tag))
                })?;
            }
            Op::Pop => {
                let got = self.slots.pop();
                let want = self.reference.pop();
                if got != want {
                    return Err(format!("pop: slots {got:?}, reference {want:?}"));
                }
                if let Some((_, Ev::Kind(kind, _))) = got {
                    self.pending[kind] = None;
                }
            }
            Op::PeekTime => {}
            Op::AdvanceTo { frac } => {
                let now = self.slots.now().as_ps();
                let target = match self.slots.peek_time() {
                    Some(next) => now + (next.as_ps() - now) * frac / 16,
                    None => now + frac,
                };
                self.slots.advance_to(SimTime::from_ps(target));
                self.reference.advance_to(SimTime::from_ps(target));
            }
        }
        let (got, want) = (
            (self.slots.now(), self.slots.ops(), self.slots.peek_time()),
            (self.reference.now, self.reference.ops, self.reference.peek_time()),
        );
        if got != want {
            return Err(format!(
                "after {op:?}: (now, ops, peek) slots {got:?}, reference {want:?}"
            ));
        }
        Ok(())
    }

    /// Checks the slot queue's answer `got` to scheduling `kind` at
    /// `at`, and issues the same schedule to the reference unless the
    /// slot was occupied.
    fn check_schedule(
        &mut self,
        kind: usize,
        at: SimTime,
        past: bool,
        got: Result<(), SlotError>,
        schedule: impl FnOnce(&mut SortedModel) -> Result<(), SchedulePastError>,
    ) -> Result<(), String> {
        match (past, self.pending[kind]) {
            (false, Some(pending)) => {
                let want = Err(SlotError::Occupied { slot: kind, pending });
                if got != want {
                    return Err(format!("double booking at {at}: got {got:?}, want {want:?}"));
                }
            }
            _ => {
                let want = schedule(&mut self.reference).map_err(SlotError::Past);
                if got != want {
                    return Err(format!("schedule at {at}: slots {got:?}, reference {want:?}"));
                }
                if got.is_ok() {
                    self.pending[kind] = Some(at);
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The slot queue is observationally equal to the sorted model on
    /// every schedule sequence that keeps one pending event per kind.
    #[test]
    fn slot_queue_matches_sorted_model(
        timeline in arbitrary_timeline(),
        ops in proptest::collection::vec(arbitrary_op(), 0..160),
    ) {
        let mut pair = Pair::new(&timeline);
        for op in ops {
            if let Err(msg) = pair.step(op) {
                prop_assert!(false, "{}", msg);
            }
        }
        // Drain: the remaining streams agree too.
        loop {
            let got = pair.slots.pop();
            prop_assert_eq!(got, pair.reference.pop());
            prop_assert_eq!(pair.slots.ops(), pair.reference.ops);
            if got.is_none() {
                break;
            }
        }
    }
}

#[test]
fn double_booking_and_the_past_are_refused() {
    let mut q: SlotQueue<Ev, KINDS> = SlotQueue::with_timeline([SimTime::from_ps(5)]);
    q.schedule_at(SimTime::from_ps(9), Ev::Kind(1, 0)).unwrap();
    assert_eq!(
        q.schedule_at(SimTime::from_ps(3), Ev::Kind(1, 1)),
        Err(SlotError::Occupied { slot: 1, pending: SimTime::from_ps(9) })
    );
    assert_eq!(q.pop(), Some((SimTime::from_ps(5), Ev::Write(0))));
    assert!(matches!(q.schedule_at(SimTime::from_ps(4), Ev::Kind(2, 0)), Err(SlotError::Past(_))));
    assert_eq!(q.pop(), Some((SimTime::from_ps(9), Ev::Kind(1, 0))), "the pending event survives");
    assert_eq!(q.ops(), 4, "refusals are not ops");
}
