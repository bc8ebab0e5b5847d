//! Differential pinning of the list-based [`PowerMeter`]: over random
//! transition sequences that mix recursive (`2^k`) and linear (`k + 1`)
//! multipliers, multipliers only a mid-run policy change produces, the
//! clock switching off, zero-length spans and whole level runs
//! ([`PowerMeter::clock_levels_then_off`]), the meter's activity — and
//! the power evaluated from it, bit for bit — equals that of a plain
//! sorted-list accumulator that binary-searches every transition.
//!
//! The case count defaults to a CI-friendly 48 and is raised on the
//! nightly schedule via `AETR_PROPTEST_CASES` (see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;

use aetr_power::meter::PowerMeter;
use aetr_power::model::{ActivityInput, PowerModel};
use aetr_sim::time::{SimDuration, SimTime};

fn cases() -> u32 {
    std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// The reference: one sorted `(multiplier, span)` list, searched and
/// extended on every transition.
struct SortedMeter {
    activity: ActivityInput,
    /// Current multiplier; `None` while the clock is off.
    state: Option<u64>,
    last_change: SimTime,
}

impl SortedMeter {
    fn new() -> SortedMeter {
        SortedMeter { activity: ActivityInput::default(), state: None, last_change: SimTime::ZERO }
    }

    fn accrue(&mut self, now: SimTime) {
        let span = now.saturating_duration_since(self.last_change);
        if !span.is_zero() {
            match self.state {
                Some(m) => match self.activity.active.binary_search_by_key(&m, |&(m, _)| m) {
                    Ok(i) => self.activity.active[i].1 += span,
                    Err(i) => self.activity.active.insert(i, (m, span)),
                },
                None => self.activity.off += span,
            }
        }
        self.last_change = now;
    }

    fn set(&mut self, now: SimTime, state: Option<u64>) {
        self.accrue(now);
        self.state = state;
    }

    fn finish(mut self, horizon: SimTime) -> ActivityInput {
        self.accrue(horizon);
        self.activity
    }
}

/// One step of a transition sequence.
#[derive(Debug, Clone)]
enum Step {
    /// Switch to a multiplier after a gap.
    Multiplier(u64, u64),
    /// Switch off after a gap.
    Off(u64),
    /// A whole level run after a gap: `(multiplier, span)` levels, then
    /// off.
    Levels(u64, Vec<(u64, u64)>),
    /// Count events and a wake (no clock effect).
    Events(u64),
}

/// Multipliers of every kind a run can reach: recursive powers of two
/// up to `2^20`, linear steps up to 21, and the mixed values a policy
/// change mid-run leaves behind (including powers past `2^20`).
fn any_multiplier() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u32..21).prop_map(|k| 1u64 << k),
        (0u64..21).prop_map(|k| k + 1),
        1u64..5_000_000,
        (21u32..40).prop_map(|k| 1u64 << k),
    ]
}

/// Gaps from zero (a same-instant transition) to milliseconds, in ps.
fn any_gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..1_000, 1_000u64..1_000_000_000]
}

fn any_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any_multiplier(), any_gap()).prop_map(|(m, gap)| Step::Multiplier(m, gap)),
        any_gap().prop_map(Step::Off),
        (any_gap(), proptest::collection::vec((any_multiplier(), any_gap()), 0..6))
            .prop_map(|(gap, levels)| Step::Levels(gap, levels)),
        (0u64..5).prop_map(Step::Events),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn list_meter_matches_sorted_accumulator(
        steps in proptest::collection::vec(any_step(), 0..60),
        tail in any_gap(),
    ) {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        let mut reference = SortedMeter::new();
        let mut t = SimTime::ZERO;
        for step in &steps {
            match *step {
                Step::Multiplier(m, gap) => {
                    t += SimDuration::from_ps(gap);
                    meter.clock_multiplier(t, m);
                    reference.set(t, Some(m));
                }
                Step::Off(gap) => {
                    t += SimDuration::from_ps(gap);
                    meter.clock_off(t);
                    reference.set(t, None);
                }
                Step::Levels(gap, ref levels) => {
                    t += SimDuration::from_ps(gap);
                    let levels: Vec<(u64, SimDuration)> =
                        levels.iter().map(|&(m, span)| (m, SimDuration::from_ps(span))).collect();
                    meter.clock_levels_then_off(t, &levels);
                    for &(m, span) in &levels {
                        reference.set(t, Some(m));
                        t += span;
                    }
                    reference.set(t, None);
                }
                Step::Events(n) => {
                    meter.event(n);
                    meter.wake();
                    reference.activity.event_count += n;
                    reference.activity.wake_count += 1;
                }
            }
        }
        let horizon = t + SimDuration::from_ps(tail);
        let got = meter.finish(horizon);
        let want = reference.finish(horizon);
        prop_assert_eq!(&got, &want);
        if got.span().is_zero() {
            return Ok(()); // nothing to evaluate
        }
        let model = PowerModel::igloo_nano();
        prop_assert_eq!(
            model.evaluate(&got).total.as_microwatts().to_bits(),
            model.evaluate(&want).total.as_microwatts().to_bits()
        );
    }
}
