//! Segment-table representation of the division schedule.
//!
//! Between two events, the sampling clock steps through a deterministic
//! sequence of *segments*: `θ_div` ticks at `T_min`, `θ_div` ticks at
//! `2·T_min`, ... until shutdown (or forever, depending on the
//! [`DivisionPolicy`]). Because that sequence restarts identically
//! after every event, it can be precomputed once as a table and every
//! inter-event interval quantized in O(segments) instead of O(ticks) —
//! this is what makes second-long sweeps at hundreds of kevt/s cheap.
//! The [sampling engine](crate::engine::SamplingEngine) narrates the
//! same [`segments`](SegmentTable::segments) and [`tail`](SegmentTable::tail)
//! to a power meter as the clock's activity between events.
//!
//! The same table is the post-capture quiet walk the discrete-event
//! interface replays in O(1)
//! ([`replay_idle_chain`](crate::fsm::SamplerFsm::replay_idle_chain)): its
//! [`segments_from`](SegmentTable::segments_from),
//! [`levels`](SegmentTable::levels) and [`shutdown`](SegmentTable::shutdown)
//! give that walk from the first tick after a reset, one `T_min` after
//! the reset itself.
//!
//! The cycle-accurate FSM in [`crate::fsm`] is the ground truth; the
//! equivalence of the two is property-tested there.

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

use crate::config::{ClockGenConfig, DivisionPolicy};
use crate::fsm::{IdleBoundary, IdleSegment};

/// One constant-period stretch of the division schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Sampling-period multiplier over `T_min` (1, 2, 4, ... for the
    /// recursive policy).
    pub multiplier: u64,
    /// Number of sampling ticks in this segment.
    pub ticks: u64,
    /// Offset of the segment start from the last event's detection.
    pub start: SimDuration,
    /// Offset of the segment's last tick (== start of the next).
    pub end: SimDuration,
}

/// What happens after the last finite segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tail {
    /// The clock is switched off; the counter freezes (saturated
    /// timestamps).
    Shutdown,
    /// The clock keeps ticking at `multiplier · T_min` forever.
    Infinite {
        /// Period multiplier of the everlasting tail.
        multiplier: u64,
    },
}

/// Result of quantizing one inter-event interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantizeOutcome {
    /// The event was sampled by a running clock.
    Sampled {
        /// Offset of the detecting tick from the last reset.
        detection_offset: SimDuration,
        /// Counter value at detection, in `T_min` units (this *is* the
        /// timestamp, before width clamping).
        ticks: u64,
    },
    /// The clock was off when the event arrived: the timestamp is the
    /// frozen (saturated) counter, and detection must wait for the
    /// oscillator to restart.
    Asleep {
        /// The frozen counter value, in `T_min` units.
        frozen_ticks: u64,
        /// Offset at which the clock switched off.
        off_since: SimDuration,
    },
}

/// Precomputed division schedule.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::config::ClockGenConfig;
/// use aetr_clockgen::segments::SegmentTable;
///
/// let table = SegmentTable::new(&ClockGenConfig::prototype());
/// // θ=64, N=3: saturation after 64·(1+2+4+8) = 960 T_min ticks.
/// assert_eq!(table.max_counter(), Some(960));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTable {
    base: SimDuration,
    /// The division parameters the table was built for, which
    /// `SamplerFsm::replay_idle_chain` checks against the FSM's.
    pub(crate) theta_div: u32,
    pub(crate) n_div: u32,
    pub(crate) policy: DivisionPolicy,
    segments: Vec<Segment>,
    tail: Tail,
    /// Counter value at the end of the finite segments, in `T_min`
    /// units.
    pub(crate) counter_end: u64,
    /// Offset of the shutdown tick from the first tick after a reset;
    /// `MAX` for "never" and for a walk that overflows the time range.
    pub(crate) shutdown: SimDuration,
}

impl SegmentTable {
    /// Builds the table for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate (construct via a
    /// validated [`ClockGenConfig`]).
    pub fn new(config: &ClockGenConfig) -> SegmentTable {
        config.validate().expect("segment table requires a valid configuration");
        let ClockGenConfig { theta_div, n_div, policy, .. } = *config;
        SegmentTable::build(config.base_sampling_period(), theta_div, n_div, policy)
    }

    /// Builds the table from validated division parameters. Offsets
    /// saturate at `SimDuration::MAX` instead of overflowing.
    pub(crate) fn build(
        base: SimDuration,
        theta_div: u32,
        n_div: u32,
        policy: DivisionPolicy,
    ) -> SegmentTable {
        let theta = u64::from(theta_div);
        let multipliers: Vec<u64> = match policy {
            DivisionPolicy::Recursive | DivisionPolicy::DivideOnly => {
                (0..=n_div).map(|k| 1u64 << k).collect()
            }
            DivisionPolicy::Never => vec![1],
            DivisionPolicy::Linear => (0..=n_div).map(|k| u64::from(k) + 1).collect(),
        };
        let tail = match policy {
            DivisionPolicy::Recursive | DivisionPolicy::Linear => Tail::Shutdown,
            DivisionPolicy::DivideOnly | DivisionPolicy::Never => {
                Tail::Infinite { multiplier: *multipliers.last().expect("non-empty") }
            }
        };
        // For infinite tails, the last multiplier lives in the tail, not
        // a finite segment. For `Never`, there are no finite segments.
        let finite: &[u64] = match tail {
            Tail::Shutdown => &multipliers,
            Tail::Infinite { .. } => &multipliers[..multipliers.len() - 1],
        };
        let mut segments = Vec::with_capacity(finite.len());
        let mut offset = SimDuration::ZERO;
        for &m in finite {
            let end = offset.saturating_add(base.saturating_mul(m).saturating_mul(theta));
            segments.push(Segment { multiplier: m, ticks: theta, start: offset, end });
            offset = end;
        }
        // θ_div < 2^32 and N_div ≤ 20 keep this sum far below 2^64.
        let counter_end: u64 = segments.iter().map(|s| s.ticks * s.multiplier).sum();
        // The walk from the first tick, one T_min after the reset, ends
        // `counter_end − 1` periods later. It is a chain only when its
        // offsets from the reset fit the time range, so none saturated.
        let shutdown = match (tail, base.as_ps().checked_mul(counter_end)) {
            (Tail::Shutdown, Some(end)) => SimDuration::from_ps(end) - base,
            _ => SimDuration::MAX,
        };
        SegmentTable { base, theta_div, n_div, policy, segments, tail, counter_end, shutdown }
    }

    /// The base sampling period `T_min`.
    pub fn base_period(&self) -> SimDuration {
        self.base
    }

    /// The finite segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The post-segment behaviour.
    pub fn tail(&self) -> Tail {
        self.tail
    }

    /// Offset at which the clock shuts down, if it ever does.
    pub fn shutdown_offset(&self) -> Option<SimDuration> {
        match self.tail {
            Tail::Shutdown => Some(self.segments.last().map_or(SimDuration::ZERO, |s| s.end)),
            Tail::Infinite { .. } => None,
        }
    }

    /// The saturated counter value in `T_min` units (`None` for
    /// never-stopping policies, whose counter grows until the width
    /// clamp).
    pub fn max_counter(&self) -> Option<u64> {
        match self.tail {
            Tail::Shutdown => Some(self.counter_end),
            Tail::Infinite { .. } => None,
        }
    }

    /// The longest interval measurable without saturation (the paper's
    /// "maximum time interval the interface is able to measure", §5.2).
    pub fn max_measurable(&self) -> Option<SimDuration> {
        self.shutdown_offset()
    }

    /// Offset of the shutdown tick from the first tick after a reset:
    /// the length of the quiet walk that
    /// [`replay_idle_chain`](crate::fsm::SamplerFsm::replay_idle_chain)
    /// replays. `SimDuration::MAX` when the clock never shuts down or the
    /// shutdown's offset from the reset does not fit the time range.
    pub fn shutdown(&self) -> SimDuration {
        self.shutdown
    }

    /// Offset of the first boundary tick (a division, or the shutdown
    /// when `N_div = 0`) from the first tick after a reset;
    /// `SimDuration::MAX` when there is none.
    pub fn first_boundary(&self) -> SimDuration {
        self.segments.first().map_or(SimDuration::MAX, |s| s.end - self.base)
    }

    /// The levels the boundaries open, in order, each as its multiplier
    /// and its span up to the next boundary: the shape
    /// `PowerMeter::clock_levels_then_off` takes, from the first
    /// boundary on. Empty when `N_div = 0`.
    pub fn levels(&self) -> impl Iterator<Item = (u64, SimDuration)> + '_ {
        self.segments.iter().skip(1).map(|s| (s.multiplier, s.end - s.start))
    }

    /// The finite segments as the quiet walk whose first tick, one
    /// `T_min` after a reset, is at `first_tick`: for a shutdown tail,
    /// exactly the segments
    /// [`advance_idle_into`](crate::fsm::SamplerFsm::advance_idle_into)
    /// produces from the reset position with no barrier before the
    /// shutdown.
    pub fn segments_from(&self, first_tick: SimTime) -> impl Iterator<Item = IdleSegment> + '_ {
        self.segments.iter().enumerate().map(move |(k, seg)| {
            let boundary = match (self.segments.get(k + 1), self.tail) {
                (Some(next), _) => IdleBoundary::Divided { multiplier: next.multiplier },
                (None, Tail::Infinite { multiplier }) => IdleBoundary::Divided { multiplier },
                (None, Tail::Shutdown) => IdleBoundary::ShutDown,
            };
            // A segment's first tick is one of its periods after the
            // previous boundary, which is at `start − T_min`.
            let period = self.base.saturating_mul(seg.multiplier);
            IdleSegment {
                first_tick: first_tick.saturating_add(seg.start).saturating_add(period - self.base),
                last_tick: first_tick.saturating_add(seg.end - self.base),
                ticks: seg.ticks,
                multiplier: seg.multiplier,
                boundary,
            }
        })
    }

    /// Quantizes the interval from the last event's detection (counter
    /// reset) to the next request.
    pub fn quantize(&self, delta: SimDuration) -> QuantizeOutcome {
        for seg in &self.segments {
            if delta <= seg.end {
                let detection_offset = self.detect_in(seg, delta);
                return QuantizeOutcome::Sampled {
                    detection_offset,
                    ticks: detection_offset / self.base,
                };
            }
        }
        match self.tail {
            Tail::Shutdown => {
                let off = self.shutdown_offset().expect("shutdown tail has an offset");
                QuantizeOutcome::Asleep { frozen_ticks: off / self.base, off_since: off }
            }
            Tail::Infinite { multiplier } => {
                let start = self.segments.last().map_or(SimDuration::ZERO, |s| s.end);
                let step = self.base.saturating_mul(multiplier);
                let rel = delta - start;
                let j = div_ceil_duration(rel, step).max(1);
                let offset = start + step.saturating_mul(j);
                QuantizeOutcome::Sampled { detection_offset: offset, ticks: offset / self.base }
            }
        }
    }

    /// First tick offset ≥ `delta` inside `seg` (callers guarantee
    /// `delta <= seg.end`).
    fn detect_in(&self, seg: &Segment, delta: SimDuration) -> SimDuration {
        let step = self.base.saturating_mul(seg.multiplier);
        let rel = delta.saturating_sub(seg.start);
        if rel.is_zero() && !seg.start.is_zero() {
            // Exactly on the segment boundary: the boundary tick (the
            // previous segment's last) detects it.
            return seg.start;
        }
        let j = div_ceil_duration(rel, step).max(1);
        seg.start + step.saturating_mul(j)
    }
}

/// `ceil(a / b)` for durations.
fn div_ceil_duration(a: SimDuration, b: SimDuration) -> u64 {
    let q = a / b;
    if (b.saturating_mul(q)) < a {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SamplingEngine;

    fn proto() -> ClockGenConfig {
        ClockGenConfig::prototype()
    }

    fn base() -> SimDuration {
        proto().base_sampling_period()
    }

    #[test]
    fn recursive_table_layout() {
        let t = SegmentTable::new(&proto());
        assert_eq!(t.segments().len(), 4); // k = 0..=3
        let mults: Vec<u64> = t.segments().iter().map(|s| s.multiplier).collect();
        assert_eq!(mults, vec![1, 2, 4, 8]);
        assert_eq!(t.tail(), Tail::Shutdown);
        // Boundaries: 64·T, 64·3T, 64·7T, 64·15T.
        assert_eq!(t.segments()[0].end, base() * 64);
        assert_eq!(t.segments()[3].end, base() * (64 * 15));
        assert_eq!(t.max_counter(), Some(64 * 15));
    }

    #[test]
    fn never_policy_is_one_infinite_segment() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::Never));
        assert!(t.segments().is_empty());
        assert_eq!(t.tail(), Tail::Infinite { multiplier: 1 });
        assert_eq!(t.max_counter(), None);
    }

    #[test]
    fn divide_only_ends_in_infinite_tail() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::DivideOnly));
        assert_eq!(t.segments().len(), 3); // 1, 2, 4 finite; 8 infinite
        assert_eq!(t.tail(), Tail::Infinite { multiplier: 8 });
    }

    #[test]
    fn linear_policy_multipliers() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::Linear));
        let mults: Vec<u64> = t.segments().iter().map(|s| s.multiplier).collect();
        assert_eq!(mults, vec![1, 2, 3, 4]);
        assert_eq!(t.tail(), Tail::Shutdown);
    }

    #[test]
    fn quantize_in_first_segment_rounds_up_to_tick() {
        let t = SegmentTable::new(&proto());
        // delta = 1.5 base periods -> detected at tick 2.
        let delta = base() + base() / 2;
        match t.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, base() * 2);
                assert_eq!(ticks, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_zero_delta_takes_first_tick() {
        let t = SegmentTable::new(&proto());
        match t.quantize(SimDuration::ZERO) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, base());
                assert_eq!(ticks, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_exact_tick_is_exact() {
        let t = SegmentTable::new(&proto());
        let delta = base() * 17;
        match t.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, delta);
                assert_eq!(ticks, 17);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_in_divided_segment_has_coarser_grid() {
        let t = SegmentTable::new(&proto());
        // Just past the first division boundary (64 ticks): grid is 2·T.
        let delta = base() * 64 + SimDuration::from_ps(1);
        match t.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, base() * 66);
                assert_eq!(ticks, 66);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_on_boundary_belongs_to_boundary_tick() {
        let t = SegmentTable::new(&proto());
        let boundary = t.segments()[0].end; // 64·T
        match t.quantize(boundary) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, boundary);
                assert_eq!(ticks, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_past_shutdown_saturates() {
        let t = SegmentTable::new(&proto());
        let beyond = t.shutdown_offset().unwrap() + SimDuration::from_ms(5);
        match t.quantize(beyond) {
            QuantizeOutcome::Asleep { frozen_ticks, off_since } => {
                assert_eq!(frozen_ticks, 64 * 15);
                assert_eq!(off_since, t.shutdown_offset().unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_policy_never_saturates() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::Never));
        let big = SimDuration::from_secs(1);
        match t.quantize(big) {
            QuantizeOutcome::Sampled { ticks, .. } => {
                // 1 s / 66.56 us... base is ~66.66 us? base ~66,656 ps
                let expected = div_ceil_duration(big, t.base_period());
                assert_eq!(ticks, expected);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // The engine narrates the table's walk to its power meter; a quiet
    // stretch from a reset is that walk alone.

    #[test]
    fn usage_splits_across_segments_and_off() {
        let t = SegmentTable::new(&proto());
        let until = t.shutdown_offset().unwrap() + SimDuration::from_ms(1);
        let usage = SamplingEngine::new(&proto()).finish(SimTime::ZERO + until);
        assert_eq!(usage.off, SimDuration::from_ms(1));
        assert_eq!(usage.active.len(), 4);
        assert_eq!(usage.span(), until);
        // Active spans are theta·m·base each.
        for (i, &(m, d)) in usage.active.iter().enumerate() {
            assert_eq!(m, 1 << i);
            assert_eq!(d, t.base_period() * 64 * m);
        }
    }

    #[test]
    fn usage_partial_first_segment() {
        let t = SegmentTable::new(&proto());
        let until = t.base_period() * 10;
        let usage = SamplingEngine::new(&proto()).finish(SimTime::ZERO + until);
        assert_eq!(usage.active, vec![(1, until)]);
        assert_eq!(usage.off, SimDuration::ZERO);
    }
}
