//! Fast behavioral sampling engine.
//!
//! Folds a stream of AER request times through the
//! [`crate::segments::SegmentTable`], producing per-event
//! quantized timestamps and narrating the clock's activity to a
//! [`PowerMeter`], as the discrete-event interface does — the
//! "Matlab-equivalent" model behind Fig. 6 and the workload half of
//! Fig. 8, but O(events) rather than O(clock ticks).

use serde::{Deserialize, Serialize};

use aetr_power::meter::PowerMeter;
use aetr_power::model::ActivityInput;
use aetr_sim::time::{SimDuration, SimTime};

use crate::config::ClockGenConfig;
use crate::segments::{QuantizeOutcome, SegmentTable, Tail};

/// One event as seen by the sampling engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedEvent {
    /// When the AER request was asserted.
    pub request: SimTime,
    /// When the interface's sampling clock detected it (counter reset
    /// instant for the next measurement).
    pub detection: SimTime,
    /// The timestamp recorded for this event, in `T_min` units, after
    /// counter-width clamping.
    pub timestamp_ticks: u64,
    /// `true` if the timestamp saturated (clock shut down before the
    /// event, or counter width exceeded).
    pub saturated: bool,
    /// `true` if this event had to restart the ring oscillator.
    pub woke_clock: bool,
}

impl QuantizedEvent {
    /// The measured inter-event interval this timestamp encodes.
    pub fn measured_interval(&self, base_period: SimDuration) -> SimDuration {
        base_period.saturating_mul(self.timestamp_ticks)
    }
}

/// The behavioral sampling engine.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::config::ClockGenConfig;
/// use aetr_clockgen::engine::SamplingEngine;
/// use aetr_sim::time::SimTime;
///
/// let mut engine = SamplingEngine::new(&ClockGenConfig::prototype());
/// let ev = engine.process(SimTime::from_us(10));
/// assert!(!ev.saturated);
/// assert!(ev.detection >= ev.request);
/// let activity = engine.finish(SimTime::from_ms(1));
/// assert_eq!(activity.event_count, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingEngine {
    table: SegmentTable,
    wake_latency: SimDuration,
    counter_max: u64,
    last_detection: SimTime,
    meter: PowerMeter,
}

impl SamplingEngine {
    /// Creates an engine at time zero (clock just reset, counter zero).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate.
    pub fn new(config: &ClockGenConfig) -> SamplingEngine {
        SamplingEngine {
            table: SegmentTable::new(config),
            wake_latency: config.ring.wake_latency,
            counter_max: config.counter_max(),
            last_detection: SimTime::ZERO,
            meter: PowerMeter::new(SimTime::ZERO),
        }
    }

    /// Processes the next AER request. Requests must be fed in
    /// non-decreasing time order; a request that arrives while the
    /// previous handshake is still pending is detected at the next
    /// available tick (AER serialisation).
    pub fn process(&mut self, request: SimTime) -> QuantizedEvent {
        let delta = request.saturating_duration_since(self.last_detection);
        let event = match self.table.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                self.narrate_walk(detection_offset);
                let clamped = ticks.min(self.counter_max);
                QuantizedEvent {
                    request,
                    detection: self.last_detection + detection_offset,
                    timestamp_ticks: clamped,
                    saturated: clamped != ticks,
                    woke_clock: false,
                }
            }
            QuantizeOutcome::Asleep { frozen_ticks, .. } => {
                // Clock off: REQ restarts the oscillator at full speed;
                // the first usable tick lands one base period after the
                // wake latency.
                self.narrate_walk(delta);
                self.meter.wake();
                self.meter.clock_multiplier(request, 1);
                QuantizedEvent {
                    request,
                    detection: request + self.wake_latency + self.table.base_period(),
                    timestamp_ticks: frozen_ticks.min(self.counter_max),
                    saturated: true,
                    woke_clock: true,
                }
            }
        };
        self.meter.event(1);
        self.last_detection = event.detection;
        event
    }

    /// Narrates the division schedule from the last reset up to
    /// `until` after it: one multiplier per segment that starts before
    /// `until`, then the tail's shutdown or everlasting multiplier if
    /// `until` passes its start.
    fn narrate_walk(&mut self, until: SimDuration) {
        let reset = self.last_detection;
        let mut tail_start = SimDuration::ZERO;
        for seg in self.table.segments() {
            if until <= seg.start {
                return;
            }
            self.meter.clock_multiplier(reset + seg.start, seg.multiplier);
            tail_start = seg.end;
        }
        if until > tail_start {
            match self.table.tail() {
                Tail::Shutdown => self.meter.clock_off(reset + tail_start),
                Tail::Infinite { multiplier } => {
                    self.meter.clock_multiplier(reset + tail_start, multiplier)
                }
            }
        }
    }

    /// Narrates the trailing quiet interval up to `horizon` (no event
    /// there; the clock divides and eventually stops on its own) and
    /// returns the activity record over `[0, max(horizon, last
    /// detection)]`: a detection past `horizon` extends it.
    pub fn finish(mut self, horizon: SimTime) -> ActivityInput {
        self.narrate_walk(horizon.saturating_duration_since(self.last_detection));
        self.meter.finish(horizon.max(self.last_detection))
    }

    /// The base sampling period `T_min`.
    pub fn base_period(&self) -> SimDuration {
        self.table.base_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DivisionPolicy;

    fn proto() -> ClockGenConfig {
        ClockGenConfig::prototype()
    }

    fn base() -> SimDuration {
        proto().base_sampling_period()
    }

    #[test]
    fn single_fast_event_measures_one_interval() {
        let mut engine = SamplingEngine::new(&proto());
        // Request exactly at 10 base periods: detected there, ts = 10.
        let ev = engine.process(SimTime::ZERO + base() * 10);
        assert_eq!(ev.timestamp_ticks, 10);
        assert!(!ev.saturated);
        assert!(!ev.woke_clock);
        assert_eq!(ev.detection, SimTime::ZERO + base() * 10);
    }

    #[test]
    fn consecutive_events_measure_deltas_not_absolutes() {
        let mut engine = SamplingEngine::new(&proto());
        let first = engine.process(SimTime::ZERO + base() * 10);
        let second = engine.process(first.detection + base() * 7);
        assert_eq!(second.timestamp_ticks, 7, "timestamp is the delta from the previous event");
    }

    #[test]
    fn event_beyond_shutdown_saturates_and_wakes() {
        let cfg = proto();
        let table = SegmentTable::new(&cfg);
        let beyond = table.shutdown_offset().unwrap() + SimDuration::from_ms(10);
        let mut engine = SamplingEngine::new(&cfg);
        let ev = engine.process(SimTime::ZERO + beyond);
        assert!(ev.saturated);
        assert!(ev.woke_clock);
        assert_eq!(ev.timestamp_ticks, 64 * 15);
        assert_eq!(ev.detection, ev.request + cfg.ring.wake_latency + base());
        let activity = engine.finish(SimTime::ZERO);
        assert_eq!(activity.wake_count, 1);
        // The walk to shutdown, off until the request, then the wake
        // latency and one base period at full speed.
        let full_speed = base() * 64 + cfg.ring.wake_latency + base();
        assert_eq!(activity.active[0], (1, full_speed));
        assert_eq!(activity.off, beyond - table.shutdown_offset().unwrap());
        assert_eq!(activity.span(), ev.detection - SimTime::ZERO);
    }

    #[test]
    fn serialized_requests_never_share_a_tick() {
        let mut engine = SamplingEngine::new(&proto());
        // Three requests inside one base period.
        let t = SimTime::from_ns(10);
        let a = engine.process(t);
        let b = engine.process(t + SimDuration::from_ns(1));
        let c = engine.process(t + SimDuration::from_ns(2));
        assert!(b.detection > a.detection);
        assert!(c.detection > b.detection);
        // Each measured as one tick minimum.
        assert_eq!(b.timestamp_ticks, 1);
        assert_eq!(c.timestamp_ticks, 1);
    }

    #[test]
    fn activity_covers_whole_horizon() {
        let horizon = SimTime::from_ms(50);
        let mut engine = SamplingEngine::new(&proto());
        let last = (1..=100).map(|i| engine.process(SimTime::from_us(i * 400))).last().unwrap();
        let activity = engine.finish(horizon);
        assert!(activity.wake_count > 0, "400 us gaps pass the ~64 us range");
        assert_eq!(activity.span(), horizon.max(last.detection) - SimTime::ZERO);
    }

    #[test]
    fn detection_past_the_horizon_extends_the_record() {
        let mut engine = SamplingEngine::new(&proto());
        let ev = engine.process(SimTime::from_ms(1));
        assert!(ev.woke_clock);
        let activity = engine.finish(ev.request);
        assert_eq!(activity.span(), ev.detection - SimTime::ZERO);
    }

    #[test]
    fn no_division_policy_never_sleeps() {
        let cfg = proto().with_policy(DivisionPolicy::Never);
        let mut engine = SamplingEngine::new(&cfg);
        let events = [SimTime::from_ms(1), SimTime::from_secs(1)].map(|r| engine.process(r));
        let activity = engine.finish(SimTime::from_secs(2));
        assert_eq!(activity.wake_count, 0);
        assert!(events.iter().all(|e| !e.woke_clock));
        assert_eq!(activity.off, SimDuration::ZERO);
        assert_eq!(activity.active, vec![(1, SimDuration::from_secs(2))]);
    }

    #[test]
    fn counter_width_clamp_marks_saturated() {
        let cfg = ClockGenConfig {
            counter_bits: 6, // max 63 ticks
            ..proto().with_policy(DivisionPolicy::Never)
        };
        let mut engine = SamplingEngine::new(&cfg);
        let ev = engine.process(SimTime::ZERO + base() * 100);
        assert_eq!(ev.timestamp_ticks, 63);
        assert!(ev.saturated);
    }

    #[test]
    fn measured_interval_helper() {
        let ev = QuantizedEvent {
            request: SimTime::ZERO,
            detection: SimTime::ZERO,
            timestamp_ticks: 10,
            saturated: false,
            woke_clock: false,
        };
        assert_eq!(ev.measured_interval(SimDuration::from_ns(100)), SimDuration::from_us(1));
    }

    #[test]
    fn relative_error_in_active_region_is_bounded() {
        // Analytic check (the full Fig. 6 sweep lives in the bench
        // crate): for deltas inside segment k the relative quantization
        // error is at most 2^k·T/delta <= 1/θ · 2^k·θ·T/delta < ~2/θ
        // once delta is past the segment's start.
        let cfg = proto(); // θ = 64
        let mut worst: f64 = 0.0;
        for i in 1..2_000u64 {
            let delta = base() * 64 + SimDuration::from_ps(i * 1_234_567 % (base() * 800).as_ps());
            let mut engine = SamplingEngine::new(&cfg);
            let ev = engine.process(SimTime::ZERO + delta);
            if ev.saturated {
                continue;
            }
            let measured = ev.measured_interval(base()).as_secs_f64();
            let truth = delta.as_secs_f64();
            worst = worst.max((measured - truth).abs() / truth);
        }
        assert!(worst < 2.0 / 64.0 + 0.01, "worst active-region error {worst}");
    }
}
