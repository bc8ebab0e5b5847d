//! Behavioral AER→AETR quantization pipeline.
//!
//! The fast ("Matlab-equivalent", §5.1) model: a spike train goes
//! through the clock generator's sampling engine and comes out as AETR
//! events with quantized timestamps, plus the clock-activity record
//! the power model consumes. This is the engine behind the Fig. 6
//! accuracy sweep and the Fig. 8 power sweep.

use serde::{Deserialize, Serialize};

use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_clockgen::config::ClockGenConfig;
use aetr_clockgen::engine::SamplingEngine;
use aetr_power::model::ActivityInput;
use aetr_sim::time::{SimDuration, SimTime};

use crate::aetr_format::{AetrEvent, Timestamp};

/// One spike with its quantized AETR event and bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedSpike {
    /// The original sensor spike.
    pub spike: Spike,
    /// The AETR event produced for it.
    pub event: AetrEvent,
    /// When the interface sampled it.
    pub detection: SimTime,
    /// `true` if the timestamp saturated.
    pub saturated: bool,
}

/// Output of quantizing a whole train.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizerOutput {
    /// Per-spike records, in input order.
    pub records: Vec<QuantizedSpike>,
    /// Clock-activity record over `[0, horizon]` for the power model,
    /// extended to the last detection if that lands past `horizon`.
    pub activity: ActivityInput,
    /// `T_min`, the unit of the timestamps.
    pub base_period: SimDuration,
}

impl QuantizerOutput {
    /// The AETR events alone.
    pub fn events(&self) -> Vec<AetrEvent> {
        self.records.iter().map(|r| r.event).collect()
    }
}

/// One inter-spike-interval measurement for error analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsiErrorSample {
    /// The true interval between consecutive sensor spikes.
    pub true_isi: SimDuration,
    /// The interval the timestamp encodes.
    pub measured: SimDuration,
    /// `true` if the timestamp saturated.
    pub saturated: bool,
}

impl IsiErrorSample {
    /// Bounded relative error `|measured − true| / max(measured, true)`,
    /// always in `[0, 1]` — the metric of the Fig. 6 curve, whose
    /// y-axis spans 0.001–1: a saturated timestamp (`measured ≪ true`)
    /// scores ≈1, and so does a sub-Nyquist interval rounded up to one
    /// tick (`measured ≫ true`). In the active region where
    /// `measured ≈ true` it coincides with the plain ratio.
    pub fn relative_error(&self) -> f64 {
        let t = self.true_isi.as_secs_f64();
        let m = self.measured.as_secs_f64();
        let denom = t.max(m);
        if denom == 0.0 {
            0.0
        } else {
            (m - t).abs() / denom
        }
    }

    /// Unbounded overshoot ratio `|measured − true| / true` (0 for a
    /// zero true interval). Diverges for sub-Nyquist intervals; useful
    /// for characterising the high-activity region in isolation.
    pub fn overshoot_ratio(&self) -> f64 {
        let t = self.true_isi.as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            (self.measured.as_secs_f64() - t).abs() / t
        }
    }
}

/// Quantizes a spike train with the given clock configuration.
///
/// The activity record covers `[0, horizon]`, or up to the last
/// detection if that is later; pass the workload's end time so
/// trailing idle power is accounted.
///
/// # Panics
///
/// Panics if `config` is invalid.
///
/// # Examples
///
/// ```
/// use aetr::quantizer::quantize_train;
/// use aetr_aer::generator::{PoissonGenerator, SpikeSource};
/// use aetr_clockgen::config::ClockGenConfig;
/// use aetr_sim::time::SimTime;
///
/// let train = PoissonGenerator::new(100_000.0, 64, 1).generate(SimTime::from_ms(10));
/// let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(10));
/// assert_eq!(out.records.len(), train.len());
/// ```
pub fn quantize_train(
    config: &ClockGenConfig,
    train: &SpikeTrain,
    horizon: SimTime,
) -> QuantizerOutput {
    let mut engine = SamplingEngine::new(config);
    let base_period = engine.base_period();
    let records: Vec<QuantizedSpike> = train
        .iter()
        .map(|&spike| {
            let q = engine.process(spike.time);
            QuantizedSpike {
                spike,
                event: AetrEvent::new(spike.addr, Timestamp::from_ticks(q.timestamp_ticks)),
                detection: q.detection,
                saturated: q.saturated,
            }
        })
        .collect();
    QuantizerOutput { records, activity: engine.finish(horizon), base_period }
}

/// Pairs each measured timestamp with the true inter-spike interval it
/// estimates. The first record has no predecessor and is skipped, as
/// in the paper's error analysis.
pub fn isi_error_samples(output: &QuantizerOutput) -> Vec<IsiErrorSample> {
    output
        .records
        .windows(2)
        .map(|w| IsiErrorSample {
            true_isi: w[1].spike.time - w[0].spike.time,
            measured: w[1].event.timestamp.to_interval(output.base_period),
            saturated: w[1].saturated,
        })
        .collect()
}

/// Reconstructs spike times from an AETR event sequence by cumulating
/// the measured deltas (the downstream MCU's view of the stream).
/// Saturated timestamps contribute their clamped interval — the best
/// the MCU can do.
pub fn reconstruct_train(
    events: &[AetrEvent],
    base_period: SimDuration,
    origin: SimTime,
) -> SpikeTrain {
    cumulate(events.iter().copied(), events.len(), base_period, origin)
}

/// [`reconstruct_train`] over any event sequence, on the thread's
/// recycled spike storage with room for `capacity` spikes.
pub(crate) fn cumulate(
    events: impl Iterator<Item = AetrEvent>,
    capacity: usize,
    base_period: SimDuration,
    origin: SimTime,
) -> SpikeTrain {
    let mut t = origin;
    let mut train = SpikeTrain::with_capacity(capacity);
    for e in events {
        // Cumulative sums are monotone, so the push never panics.
        t = t.saturating_add(e.timestamp.to_interval(base_period));
        train.push(Spike::new(t, e.addr));
    }
    train
}

#[cfg(test)]
mod tests {
    use super::*;
    use aetr_aer::address::Address;
    use aetr_aer::generator::{PoissonGenerator, RegularGenerator, SpikeSource};

    fn proto() -> ClockGenConfig {
        ClockGenConfig::prototype()
    }

    #[test]
    fn active_region_error_is_below_3_percent() {
        // 100 kevt/s Poisson: mean ISI 10 µs, squarely in the active
        // region for θ=64 (the Fig. 6 claim).
        let train = PoissonGenerator::new(100_000.0, 64, 11).generate(SimTime::from_ms(200));
        let out = quantize_train(&proto(), &train, SimTime::from_ms(200));
        let samples = isi_error_samples(&out);
        let mean: f64 =
            samples.iter().map(IsiErrorSample::relative_error).sum::<f64>() / samples.len() as f64;
        assert!(mean < 0.03, "mean relative error {mean}");
    }

    #[test]
    fn very_low_rate_saturates_most_timestamps() {
        // 100 evt/s: mean ISI 10 ms >> 64 µs max measurable.
        let train = PoissonGenerator::new(100.0, 64, 3).generate(SimTime::from_secs(2));
        let out = quantize_train(&proto(), &train, SimTime::from_secs(2));
        let saturated = out.records.iter().filter(|r| r.saturated).count();
        assert!(
            saturated as f64 / out.records.len() as f64 > 0.9,
            "{saturated}/{} saturated",
            out.records.len()
        );
    }

    #[test]
    fn events_preserve_addresses_in_order() {
        let train = PoissonGenerator::new(50_000.0, 128, 5).generate(SimTime::from_ms(20));
        let out = quantize_train(&proto(), &train, SimTime::from_ms(20));
        for (r, s) in out.records.iter().zip(train.iter()) {
            assert_eq!(r.event.addr, s.addr);
            assert_eq!(r.spike, *s);
        }
    }

    #[test]
    fn reconstruction_tracks_original_within_quantization() {
        let train =
            RegularGenerator::new(SimDuration::from_us(20), 4).generate(SimTime::from_ms(10));
        let out = quantize_train(&proto(), &train, SimTime::from_ms(10));
        let rebuilt = reconstruct_train(&out.events(), out.base_period, SimTime::ZERO);
        assert_eq!(rebuilt.len(), train.len());
        // Each reconstructed ISI within one divided-period quantum of
        // the true 20 µs (20 µs sits in segment 2: quantum 4·T_min).
        for (r, t) in rebuilt.inter_spike_intervals().zip(train.inter_spike_intervals()) {
            let err = (r.as_secs_f64() - t.as_secs_f64()).abs();
            assert!(err <= 4.0 * out.base_period.as_secs_f64() + 1e-12, "err {err}");
        }
    }

    #[test]
    fn activity_event_counts_match() {
        let train = PoissonGenerator::new(10_000.0, 8, 2).generate(SimTime::from_ms(50));
        let out = quantize_train(&proto(), &train, SimTime::from_ms(50));
        assert_eq!(out.activity.event_count, train.len() as u64);
    }

    #[test]
    fn empty_train_yields_idle_activity() {
        let out = quantize_train(&proto(), &SpikeTrain::new(), SimTime::from_ms(100));
        assert!(out.records.is_empty());
        assert!(isi_error_samples(&out).is_empty());
        // Mostly off after the idle run-down (~64 µs of 100 ms).
        assert!(out.activity.off > SimDuration::from_ms(99));
    }

    #[test]
    fn saturated_events_reconstruct_with_clamped_interval() {
        let events = vec![AetrEvent::new(Address::new(1).unwrap(), Timestamp::SATURATED)];
        let rebuilt = reconstruct_train(&events, SimDuration::from_ns(66), SimTime::ZERO);
        let t = rebuilt.first_time().unwrap();
        assert_eq!(t, SimTime::ZERO + Timestamp::SATURATED.to_interval(SimDuration::from_ns(66)));
    }

    #[test]
    fn error_metrics_on_degenerate_intervals() {
        // A simultaneous spike pair measured as one tick: the bounded
        // metric scores it as fully wrong, the overshoot ratio has no
        // meaningful normaliser and reports 0.
        let s = IsiErrorSample {
            true_isi: SimDuration::ZERO,
            measured: SimDuration::from_ns(66),
            saturated: false,
        };
        assert_eq!(s.relative_error(), 1.0);
        assert_eq!(s.overshoot_ratio(), 0.0);
        // Both zero: nothing to compare.
        let z = IsiErrorSample {
            true_isi: SimDuration::ZERO,
            measured: SimDuration::ZERO,
            saturated: false,
        };
        assert_eq!(z.relative_error(), 0.0);
        // Exact measurement: both metrics zero.
        let exact = IsiErrorSample {
            true_isi: SimDuration::from_us(10),
            measured: SimDuration::from_us(10),
            saturated: false,
        };
        assert_eq!(exact.relative_error(), 0.0);
        assert_eq!(exact.overshoot_ratio(), 0.0);
        // Saturation: measured << true scores ~1 on the bounded metric.
        let sat = IsiErrorSample {
            true_isi: SimDuration::from_ms(10),
            measured: SimDuration::from_us(64),
            saturated: true,
        };
        assert!(sat.relative_error() > 0.99);
    }
}
