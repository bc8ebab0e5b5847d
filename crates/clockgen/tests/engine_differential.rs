//! Differential pinning of the behavioural engine's power accounting:
//! over random request gaps (zero gaps, gaps inside the division
//! schedule, gaps past the shutdown), all four division policies and
//! counter widths narrow enough to clamp, the [`ActivityInput`] that
//! [`SamplingEngine`] narrates into its power meter — and every detection
//! it returns — equals that of the per-interval accounting it replaced:
//! a sorted `(multiplier, span)` list extended by each inter-event
//! interval's walk over the segment table.
//!
//! The case count defaults to a CI-friendly 48 and is raised on the
//! nightly schedule via `AETR_PROPTEST_CASES` (see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;

use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::engine::SamplingEngine;
use aetr_clockgen::segments::{QuantizeOutcome, SegmentTable, Tail};
use aetr_power::model::{ActivityInput, PowerModel};
use aetr_sim::time::{SimDuration, SimTime};

fn cases() -> u32 {
    std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// The reference: each interval split into per-multiplier active time
/// and off time, merged into one sorted list.
struct SortedModel {
    table: SegmentTable,
    wake: SimDuration,
    activity: ActivityInput,
    last_detection: SimTime,
}

/// Adds `span` at `multiplier` to a list kept sorted by multiplier.
fn add_active(active: &mut Vec<(u64, SimDuration)>, multiplier: u64, span: SimDuration) {
    if span.is_zero() {
        return;
    }
    match active.binary_search_by_key(&multiplier, |&(m, _)| m) {
        Ok(i) => active[i].1 += span,
        Err(i) => active.insert(i, (multiplier, span)),
    }
}

impl SortedModel {
    /// Accounts the busy interval `[0, until]` after the last reset.
    fn usage_until(&mut self, until: SimDuration) {
        let mut tail_start = SimDuration::ZERO;
        for seg in self.table.segments() {
            if until <= seg.start {
                return;
            }
            add_active(&mut self.activity.active, seg.multiplier, until.min(seg.end) - seg.start);
            tail_start = seg.end;
        }
        if until > tail_start {
            match self.table.tail() {
                Tail::Shutdown => self.activity.off += until - tail_start,
                Tail::Infinite { multiplier } => {
                    add_active(&mut self.activity.active, multiplier, until - tail_start)
                }
            }
        }
    }

    /// Accounts one request and returns its detection.
    fn process(&mut self, request: SimTime) -> SimTime {
        let delta = request.saturating_duration_since(self.last_detection);
        self.activity.event_count += 1;
        self.last_detection = match self.table.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, .. } => {
                self.usage_until(detection_offset);
                self.last_detection + detection_offset
            }
            QuantizeOutcome::Asleep { off_since, .. } => {
                self.usage_until(off_since);
                self.activity.off += delta - off_since;
                let restart = self.wake + self.table.base_period();
                add_active(&mut self.activity.active, 1, restart);
                self.activity.wake_count += 1;
                request + restart
            }
        };
        self.last_detection
    }

    fn finish(mut self, horizon: SimTime) -> ActivityInput {
        self.usage_until(horizon.saturating_duration_since(self.last_detection));
        self.activity
    }
}

fn any_policy() -> impl Strategy<Value = DivisionPolicy> {
    prop_oneof![
        Just(DivisionPolicy::Recursive),
        Just(DivisionPolicy::DivideOnly),
        Just(DivisionPolicy::Never),
        Just(DivisionPolicy::Linear),
    ]
}

/// Gaps in ps: zero (serialised requests), inside the first few
/// segments, and far past any shutdown of the configurations below.
fn any_gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..100_000, 100_000u64..50_000_000, 50_000_000u64..5_000_000_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn engine_narration_matches_per_interval_accounting(
        theta in 2u32..80,
        n_div in 0u32..6,
        counter_bits in 4u32..25,
        policy in any_policy(),
        gaps in proptest::collection::vec(any_gap(), 0..80),
        tail in any_gap(),
    ) {
        let config = ClockGenConfig {
            counter_bits,
            ..ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n_div).with_policy(policy)
        };
        let mut engine = SamplingEngine::new(&config);
        let mut reference = SortedModel {
            table: SegmentTable::new(&config),
            wake: config.ring.wake_latency,
            activity: ActivityInput::default(),
            last_detection: SimTime::ZERO,
        };
        let mut t = SimTime::ZERO;
        let mut last_detection = SimTime::ZERO;
        for gap in gaps {
            t += SimDuration::from_ps(gap);
            let event = engine.process(t);
            prop_assert_eq!(event.detection, reference.process(t));
            last_detection = event.detection;
        }
        // A zero tail leaves a woken or serialised last detection past
        // the horizon.
        let horizon = t + SimDuration::from_ps(tail);
        let got = engine.finish(horizon);
        let want = reference.finish(horizon);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.span(), horizon.max(last_detection) - SimTime::ZERO);
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
