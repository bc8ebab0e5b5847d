//! The downstream microcontroller's view of the link.
//!
//! The prototype streams AETR over I2S into an STM32-L476; this module
//! models that consumer: decode the frames, rebuild the spike timeline
//! from the explicit deltas, and quantify how faithfully the original
//! sensor timing survived the whole interface — the end-to-end
//! "time-to-information" contract.

use serde::{Deserialize, Serialize};

use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_sim::time::{SimDuration, SimTime};

use crate::aetr_format::AetrEvent;
use crate::i2s::{decode_frames, I2sFrame, I2sStream};
use crate::quantizer::cumulate;

/// The MCU-side receiver: an I2S peripheral plus the AETR decoder.
///
/// # Examples
///
/// ```
/// use aetr::aetr_format::{AetrEvent, Timestamp};
/// use aetr::i2s::{I2sConfig, I2sTransmitter};
/// use aetr::mcu::McuReceiver;
/// use aetr_aer::address::Address;
/// use aetr_sim::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tx = I2sTransmitter::new(I2sConfig::prototype());
/// let ev = AetrEvent::new(Address::new(9)?, Timestamp::from_ticks(150));
/// tx.send_pair(SimTime::ZERO, ev, None)?;
///
/// let rx = McuReceiver::new(SimDuration::from_ns(66));
/// let train = rx.receive(tx.stream());
/// assert_eq!(train.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct McuReceiver {
    base_period: SimDuration,
    saturation_ticks: Option<u64>,
}

impl McuReceiver {
    /// Creates a receiver that interprets timestamps in units of
    /// `base_period` (the interface's `T_min`, which the host reads
    /// over SPI at setup).
    pub fn new(base_period: SimDuration) -> McuReceiver {
        McuReceiver { base_period, saturation_ticks: None }
    }

    /// Tells the receiver the interface's timestamp saturation value
    /// (`θ_div · (2^(N_div+1) − 1)` in `T_min` ticks — derivable from
    /// the `ThetaDiv`/`NDiv` registers the host reads over SPI).
    /// Required for [`receive_anchored`](Self::receive_anchored) to
    /// recognise saturated gaps.
    pub fn with_saturation(mut self, ticks: u64) -> McuReceiver {
        self.saturation_ticks = Some(ticks);
        self
    }

    /// Decodes the raw AETR events from a stream.
    pub fn decode(&self, stream: &I2sStream) -> Vec<AetrEvent> {
        decode_frames(stream)
    }

    /// Decodes and reconstructs the spike timeline (relative to time
    /// zero — absolute time is unknowable from deltas alone, and
    /// irrelevant for batch processing).
    ///
    /// The train is built on the thread's recycled spike storage (see
    /// [`SpikeTrain::with_capacity`]).
    pub fn receive(&self, stream: &I2sStream) -> SpikeTrain {
        let events = stream.frames().iter().flat_map(I2sFrame::events);
        cumulate(events, 2 * stream.len(), self.base_period, SimTime::ZERO)
    }

    /// Decodes and reconstructs with *arrival anchoring*: fine
    /// structure comes from the AETR deltas, but whenever a timestamp
    /// is saturated (the true gap exceeded the measurable range) the
    /// timeline re-anchors at the carrying I2S frame's arrival time —
    /// the MCU's own clock. This is how a real consumer recovers
    /// wall-clock placement across long silences, at batch-latency
    /// resolution.
    ///
    /// The result is clamped monotone (an anchor can never move time
    /// backwards past already-placed events). Like
    /// [`receive`](Self::receive), it is built on recycled storage.
    pub fn receive_anchored(&self, stream: &I2sStream) -> SpikeTrain {
        let mut train = SpikeTrain::with_capacity(2 * stream.len());
        let mut t = SimTime::ZERO;
        for frame in stream.frames() {
            for event in frame.events() {
                let delta = event.timestamp.to_interval(self.base_period);
                let by_delta = t.saturating_add(delta);
                // Saturated delta: the true gap is unknown but the
                // frame arrived *now*; trust the local clock. Without a
                // configured saturation value, fall back to the field
                // maximum (only full-width saturation is detectable).
                let sat = self.saturation_ticks.unwrap_or(crate::aetr_format::TIMESTAMP_MAX as u64);
                t = if event.timestamp.ticks() as u64 >= sat {
                    frame.start.max(t)
                } else {
                    by_delta
                };
                // Anchoring preserves monotonicity, so the push never
                // panics.
                train.push(Spike::new(t, event.addr));
            }
        }
        train
    }
}

/// End-to-end fidelity report between the sensor's spike train and the
/// MCU's reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Events the sensor emitted.
    pub sent: usize,
    /// Events the MCU received.
    pub received: usize,
    /// Mean relative ISI error over comparable intervals.
    pub mean_isi_error: f64,
    /// Worst relative ISI error.
    pub max_isi_error: f64,
}

impl FidelityReport {
    /// Compares the ISI sequences of the original and reconstructed
    /// trains (pairwise over the common prefix of intervals), using
    /// the bounded relative error `|r − t| / max(r, t)` — the same
    /// metric as [`IsiErrorSample::relative_error`].
    ///
    /// Zero-length interval pairs are skipped — they carry no timing
    /// information to preserve.
    ///
    /// [`IsiErrorSample::relative_error`]:
    ///     crate::quantizer::IsiErrorSample::relative_error
    pub fn compare(original: &SpikeTrain, reconstructed: &SpikeTrain) -> FidelityReport {
        // One pass, no error vector. The sum starts at -0.0 and the max
        // at 0.0 and both fold in interval order, exactly as
        // `Iterator::sum` and `fold(0.0, f64::max)` over the collected
        // errors did, so the report is bit-identical.
        let (mut sum, mut count, mut max) = (-0.0f64, 0usize, 0.0f64);
        for (t, r) in original.inter_spike_intervals().zip(reconstructed.inter_spike_intervals()) {
            let truth = t.as_secs_f64();
            let rec = r.as_secs_f64();
            let denom = truth.max(rec);
            if denom > 0.0 {
                let error = (rec - truth).abs() / denom;
                sum += error;
                count += 1;
                max = max.max(error);
            }
        }
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        FidelityReport {
            sent: original.len(),
            received: reconstructed.len(),
            mean_isi_error: mean,
            max_isi_error: max,
        }
    }

    /// The paper's headline accuracy metric: `1 − mean error`, "above
    /// 97%" in the active region.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.mean_isi_error
    }

    /// Fraction of events lost in transit.
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.received as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aetr_format::Timestamp;
    use crate::i2s::{I2sConfig, I2sTransmitter};
    use crate::quantizer::{quantize_train, QuantizerOutput};
    use aetr_aer::generator::{PoissonGenerator, SpikeSource};
    use aetr_clockgen::config::ClockGenConfig;

    fn send_all(out: &QuantizerOutput) -> I2sStream {
        let mut tx = I2sTransmitter::new(I2sConfig::prototype());
        let events = out.events();
        let mut t = SimTime::ZERO;
        for pair in events.chunks(2) {
            t = tx.send_pair(t, pair[0], pair.get(1).copied()).unwrap();
        }
        tx.into_stream()
    }

    #[test]
    fn end_to_end_active_region_accuracy_above_97() {
        let train = PoissonGenerator::new(150_000.0, 64, 21).generate(SimTime::from_ms(100));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(100));
        let stream = send_all(&out);
        let rx = McuReceiver::new(out.base_period);
        let rebuilt = rx.receive(&stream);
        let report = FidelityReport::compare(&train, &rebuilt);
        assert_eq!(report.sent, report.received);
        assert_eq!(report.loss_ratio(), 0.0);
        assert!(report.accuracy() > 0.97, "accuracy {}", report.accuracy());
    }

    #[test]
    fn decode_preserves_event_identity() {
        let train = PoissonGenerator::new(50_000.0, 100, 5).generate(SimTime::from_ms(10));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(10));
        let stream = send_all(&out);
        let rx = McuReceiver::new(out.base_period);
        let decoded = rx.decode(&stream);
        assert_eq!(decoded, out.events());
    }

    #[test]
    fn saturated_events_survive_the_carrier() {
        let train = PoissonGenerator::new(100.0, 4, 1).generate(SimTime::from_secs(1));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_secs(1));
        let stream = send_all(&out);
        let decoded = McuReceiver::new(out.base_period).decode(&stream);
        // Saturated at the counter's natural maximum (960 ticks for
        // θ=64, N=3), not the field marker.
        let sat_ticks = decoded.iter().filter(|e| e.timestamp.ticks() == 960).count();
        assert!(sat_ticks > 0, "expected saturated timestamps");
        let _ = Timestamp::SATURATED; // field-level saturation tested in aetr_format
    }

    #[test]
    fn anchored_reception_recovers_wall_clock_gaps() {
        use crate::interface::{AerToI2sInterface, InterfaceConfig};
        use aetr_aer::generator::{RegularGenerator, SpikeSource};

        // Two bursts separated by 200 ms of silence (far beyond the
        // 64 µs measurable range). Delta-only reconstruction collapses
        // the gap; anchored reconstruction restores it at batch
        // resolution.
        let burst1 = RegularGenerator::from_rate(100_000.0, 4).generate(SimTime::from_ms(2));
        let burst2: SpikeTrain = RegularGenerator::from_rate(100_000.0, 4)
            .generate(SimTime::from_ms(2))
            .iter()
            .map(|s| {
                aetr_aer::spike::Spike::new(
                    s.time.saturating_add(SimDuration::from_ms(200)),
                    s.addr,
                )
            })
            .collect();
        let train = burst1.merge(&burst2);
        // A shallow watermark so each burst ships promptly — arrival
        // anchoring is only as good as the batching latency.
        let config = InterfaceConfig {
            fifo: crate::fifo::FifoConfig { watermark: 32, ..crate::fifo::FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let interface = AerToI2sInterface::new(config).expect("valid config");
        let report = interface.run(&train, SimTime::from_ms(250));
        let mcu =
            McuReceiver::new(interface.config().clock.base_sampling_period()).with_saturation(960); // θ=64, N=3: 64·(2^4−1)

        let plain = mcu.receive(&report.i2s);
        let anchored = mcu.receive_anchored(&report.i2s);
        let plain_span = plain.last_time().unwrap() - plain.first_time().unwrap();
        let anchored_span = anchored.last_time().unwrap() - anchored.first_time().unwrap();
        assert!(
            plain_span < SimDuration::from_ms(10),
            "delta-only reconstruction compresses the gap: {plain_span}"
        );
        assert!(
            anchored_span > SimDuration::from_ms(150),
            "anchored reconstruction restores the gap: {anchored_span}"
        );
        // Monotone, and same event count.
        assert_eq!(anchored.len(), plain.len());
    }

    #[test]
    fn fidelity_report_on_identical_trains_is_perfect() {
        let train = PoissonGenerator::new(10_000.0, 8, 2).generate(SimTime::from_ms(20));
        let report = FidelityReport::compare(&train, &train);
        assert_eq!(report.mean_isi_error, 0.0);
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.loss_ratio(), 0.0);
    }

    /// `compare` as it was before it became one pass: the errors
    /// collected, then summed and max-folded.
    fn compare_collected(original: &SpikeTrain, reconstructed: &SpikeTrain) -> FidelityReport {
        let mut errors = Vec::new();
        for (t, r) in original.inter_spike_intervals().zip(reconstructed.inter_spike_intervals()) {
            let (truth, rec) = (t.as_secs_f64(), r.as_secs_f64());
            let denom = truth.max(rec);
            if denom > 0.0 {
                errors.push((rec - truth).abs() / denom);
            }
        }
        let mean =
            if errors.is_empty() { 0.0 } else { errors.iter().sum::<f64>() / errors.len() as f64 };
        let max = errors.iter().cloned().fold(0.0f64, f64::max);
        FidelityReport {
            sent: original.len(),
            received: reconstructed.len(),
            mean_isi_error: mean,
            max_isi_error: max,
        }
    }

    #[test]
    fn one_pass_compare_is_bit_identical_to_the_collected_errors() {
        use crate::interface::{AerToI2sInterface, InterfaceConfig};
        use aetr_aer::generator::LfsrGenerator;

        let one = PoissonGenerator::new(1_000.0, 8, 3).generate(SimTime::from_ms(5));
        let one = SpikeTrain::from_sorted(one.as_slice()[..1].to_vec()).unwrap();
        let equal = PoissonGenerator::new(10_000.0, 8, 2).generate(SimTime::from_ms(20));
        // Past I2S saturation the FIFO overflows, so the MCU receives
        // fewer events than were sent and the intervals misalign.
        let horizon = SimTime::from_ms(10);
        let sent = LfsrGenerator::new(700_000.0, 11).generate(horizon);
        let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
        let report = interface.run(&sent, horizon);
        assert!(report.fifo_stats.dropped > 0, "a lossy run");
        let lossy = McuReceiver::new(interface.config().clock.base_sampling_period())
            .with_saturation(960)
            .receive_anchored(&report.i2s);
        let empty = SpikeTrain::new();
        for (original, rebuilt) in
            [(&empty, &empty), (&one, &one), (&one, &empty), (&equal, &equal), (&sent, &lossy)]
        {
            let (got, want) =
                (FidelityReport::compare(original, rebuilt), compare_collected(original, rebuilt));
            assert_eq!((got.sent, got.received), (want.sent, want.received));
            assert_eq!(got.mean_isi_error.to_bits(), want.mean_isi_error.to_bits());
            assert_eq!(got.max_isi_error.to_bits(), want.max_isi_error.to_bits());
        }
    }

    #[test]
    fn empty_streams_compare_cleanly() {
        let report = FidelityReport::compare(&SpikeTrain::new(), &SpikeTrain::new());
        assert_eq!(report.sent, 0);
        assert_eq!(report.loss_ratio(), 0.0);
        assert_eq!(report.mean_isi_error, 0.0);
    }
}
