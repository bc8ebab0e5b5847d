//! An integrating power meter for discrete-event simulation.
//!
//! Both power paths *narrate* their clock activity to a [`PowerMeter`]
//! — "clock now at multiplier 4", "event processed", "clock off" — and
//! the meter integrates an [`ActivityInput`] that the
//! [`PowerModel`](crate::model::PowerModel) can evaluate: the full DES
//! interface as its FSM steps, the behavioural sampling engine by
//! walking the division schedule between events. One accumulator and
//! one record keep the two paths comparable by construction.

use std::borrow::Borrow;

use aetr_sim::time::{SimDuration, SimTime};

use crate::model::ActivityInput;

/// Current clock state as seen by the meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClockState {
    /// Running at a period multiplier.
    Active(u64),
    /// Switched off.
    Off,
}

/// Integrates clock activity, events and wakes over simulation time.
///
/// Active time accrues per period multiplier in a small list kept in
/// first-use order, found by a linear scan: a run reaches at most
/// `N_div + 1` multipliers per policy, so a transition costs a few
/// compares and never shifts the list. [`finish`](Self::finish) sorts
/// it by multiplier into [`ActivityInput::active`]; spans are integers,
/// so the sums do not depend on the order they were added in.
///
/// # Examples
///
/// ```
/// use aetr_power::meter::PowerMeter;
/// use aetr_power::model::PowerModel;
/// use aetr_sim::time::SimTime;
///
/// let mut meter = PowerMeter::new(SimTime::ZERO);
/// meter.clock_multiplier(SimTime::ZERO, 1);
/// meter.clock_off(SimTime::from_ms(1));
/// meter.event(2);
/// let activity = meter.finish(SimTime::from_ms(2));
/// let report = PowerModel::igloo_nano().evaluate(&activity);
/// assert!(report.total.as_microwatts() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMeter {
    /// The record so far; `active` is unsorted until
    /// [`finish`](Self::finish).
    activity: ActivityInput,
    state: ClockState,
    last_change: SimTime,
}

impl PowerMeter {
    /// Creates a meter starting at `start` with the clock off.
    pub fn new(start: SimTime) -> PowerMeter {
        PowerMeter {
            activity: ActivityInput::default(),
            state: ClockState::Off,
            last_change: start,
        }
    }

    fn accrue(&mut self, now: SimTime) {
        let span = now.saturating_duration_since(self.last_change);
        if !span.is_zero() {
            match self.state {
                ClockState::Active(m) => {
                    match self.activity.active.iter_mut().find(|(k, _)| *k == m) {
                        Some((_, total)) => *total += span,
                        None => self.activity.active.push((m, span)),
                    }
                }
                ClockState::Off => self.activity.off += span,
            }
        }
        self.last_change = now;
    }

    /// Records a clock (re)configuration to period multiplier
    /// `multiplier` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is zero or `now` precedes an earlier
    /// notification.
    pub fn clock_multiplier(&mut self, now: SimTime, multiplier: u64) {
        assert!(multiplier > 0, "multiplier must be non-zero");
        assert!(now >= self.last_change, "meter notified out of order");
        self.accrue(now);
        self.state = ClockState::Active(multiplier);
    }

    /// Records the clock switching off at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier notification.
    pub fn clock_off(&mut self, now: SimTime) {
        assert!(now >= self.last_change, "meter notified out of order");
        self.accrue(now);
        self.state = ClockState::Off;
    }

    /// Records a whole run of levels in one call: at `at` the clock
    /// switches to the first level's multiplier and runs there for its
    /// span, then to each following `(multiplier, span)` in turn, and
    /// switches off when the last span ends. The record is the one
    /// [`clock_multiplier`](Self::clock_multiplier) at each level start
    /// and [`clock_off`](Self::clock_off) at the end would give.
    ///
    /// `levels` is a slice of pairs or an iterator of them, such as a
    /// division schedule's `SegmentTable::levels`.
    ///
    /// # Panics
    ///
    /// Panics if a multiplier is zero or `at` precedes an earlier
    /// notification.
    // Out of line, as a non-generic method would be: inlined into the
    // interface's event loop it slowed sparse runs by ~5% per event.
    #[inline(never)]
    pub fn clock_levels_then_off<L: Borrow<(u64, SimDuration)>>(
        &mut self,
        at: SimTime,
        levels: impl IntoIterator<Item = L>,
    ) {
        assert!(at >= self.last_change, "meter notified out of order");
        self.accrue(at);
        for level in levels {
            let (multiplier, span) = *level.borrow();
            assert!(multiplier > 0, "multiplier must be non-zero");
            self.state = ClockState::Active(multiplier);
            self.accrue(self.last_change + span);
        }
        self.state = ClockState::Off;
    }

    /// Records a ring-oscillator wake.
    pub fn wake(&mut self) {
        self.activity.wake_count += 1;
    }

    /// Records `count` processed events.
    pub fn event(&mut self, count: u64) {
        self.activity.event_count += count;
    }

    /// Closes the record at `horizon` and returns the accumulated
    /// activity, with one `active` entry per multiplier the clock ran
    /// at for a non-zero time, sorted by multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` precedes an earlier notification.
    pub fn finish(mut self, horizon: SimTime) -> ActivityInput {
        assert!(horizon >= self.last_change, "meter finished before its last notification");
        self.accrue(horizon);
        // Each multiplier appears once, so the unstable sort is exact.
        self.activity.active.sort_unstable_by_key(|&(m, _)| m);
        self.activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_state_changes() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::ZERO, 1);
        meter.clock_multiplier(SimTime::from_us(10), 2);
        meter.clock_off(SimTime::from_us(30));
        let activity = meter.finish(SimTime::from_us(100));
        assert_eq!(
            activity.active,
            vec![(1, SimDuration::from_us(10)), (2, SimDuration::from_us(20))]
        );
        assert_eq!(activity.off, SimDuration::from_us(70));
        assert_eq!(activity.span(), SimDuration::from_us(100));
    }

    #[test]
    fn starts_off_until_first_notification() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::from_us(5), 1);
        let activity = meter.finish(SimTime::from_us(10));
        assert_eq!(activity.off, SimDuration::from_us(5));
        assert_eq!(activity.active, vec![(1, SimDuration::from_us(5))]);
    }

    #[test]
    fn repeated_same_multiplier_merges() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::ZERO, 1);
        meter.clock_off(SimTime::from_us(1));
        meter.clock_multiplier(SimTime::from_us(2), 1);
        let activity = meter.finish(SimTime::from_us(3));
        assert_eq!(activity.active, vec![(1, SimDuration::from_us(2))]);
        assert_eq!(activity.off, SimDuration::from_us(1));
    }

    #[test]
    fn counts_events_and_wakes() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.event(3);
        meter.wake();
        meter.event(1);
        let activity = meter.finish(SimTime::from_us(1));
        assert_eq!(activity.event_count, 4);
        assert_eq!(activity.wake_count, 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_notification_panics() {
        let mut meter = PowerMeter::new(SimTime::from_us(10));
        meter.clock_multiplier(SimTime::from_us(5), 1);
    }
}
