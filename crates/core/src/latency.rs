//! Latency decomposition of the interface.
//!
//! The AETR architecture deliberately trades *latency* for *energy*:
//! events wait in the FIFO until a batch is worth waking the I2S link
//! (and the MCU behind it). This module decomposes each event's
//! journey — acquisition (REQ to capture), buffering (capture to frame
//! start), transmission (frame) — so that the batching knob's latency
//! cost is measurable, not anecdotal.

use serde::{Deserialize, Serialize};

use aetr_sim::time::SimDuration;
use aetr_telemetry::lineage::{DropCause, EventLineage};

/// Latency summary of one stage, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Mean latency.
    pub mean_secs: f64,
    /// Median latency.
    pub p50_secs: f64,
    /// 99th percentile.
    pub p99_secs: f64,
    /// Maximum.
    pub max_secs: f64,
}

impl StageLatency {
    fn of(mut samples: Vec<f64>) -> Option<StageLatency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        Some(StageLatency {
            mean_secs: mean,
            p50_secs: samples[n / 2],
            p99_secs: samples[(n * 99 / 100).min(n - 1)],
            max_secs: samples[n - 1],
        })
    }
}

/// Full latency decomposition of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Events measured.
    pub events: usize,
    /// REQ rise → timestamp capture (synchroniser + sampling grid +
    /// possible wake).
    pub acquisition: StageLatency,
    /// Capture → start of the I2S frame carrying the event (FIFO
    /// batching delay).
    pub buffering: StageLatency,
    /// REQ rise → end of the I2S frame: what the MCU experiences.
    pub end_to_end: StageLatency,
}

impl LatencyReport {
    /// Computes the decomposition from a run's per-event lineage
    /// records (a run with [`TelemetryConfig::lineage_enabled`]).
    /// Returns `None` when no event was delivered.
    ///
    /// Only delivered events are measured, each against its own
    /// record's capture and I2S frame instants, so events lost to FIFO
    /// overflow or frame slips neither count nor shift the others.
    ///
    /// [`TelemetryConfig::lineage_enabled`]: crate::interface::TelemetryConfig::lineage_enabled
    pub fn from_lineage(records: &[EventLineage]) -> Option<LatencyReport> {
        let mut acq = Vec::with_capacity(records.len());
        let mut buf = Vec::with_capacity(records.len());
        let mut e2e = Vec::with_capacity(records.len());
        for r in records.iter().filter(|r| r.drop_cause == DropCause::Delivered) {
            let (Some(start), Some(end)) = (r.i2s_start(), r.i2s_end()) else { continue };
            acq.push(r.detection.saturating_duration_since(r.arrival).as_secs_f64());
            buf.push(start.saturating_duration_since(r.detection).as_secs_f64());
            e2e.push(end.saturating_duration_since(r.arrival).as_secs_f64());
        }
        Some(LatencyReport {
            events: acq.len(),
            acquisition: StageLatency::of(acq)?,
            buffering: StageLatency::of(buf)?,
            end_to_end: StageLatency::of(e2e)?,
        })
    }
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = |name: &str, s: &StageLatency| {
            format!(
                "{name:<12} mean {:>10} p50 {:>10} p99 {:>10} max {:>10}",
                fmt_s(s.mean_secs),
                fmt_s(s.p50_secs),
                fmt_s(s.p99_secs),
                fmt_s(s.max_secs)
            )
        };
        writeln!(f, "{} events:", self.events)?;
        writeln!(f, "  {}", line("acquisition", &self.acquisition))?;
        writeln!(f, "  {}", line("buffering", &self.buffering))?;
        writeln!(f, "  {}", line("end-to-end", &self.end_to_end))
    }
}

fn fmt_s(secs: f64) -> String {
    SimDuration::from_secs_f64(secs.max(0.0)).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoConfig;
    use crate::interface::{AerToI2sInterface, InterfaceConfig, InterfaceReport, TelemetryConfig};
    use aetr_aer::generator::{PoissonGenerator, RegularGenerator, SpikeSource};
    use aetr_aer::spike::SpikeTrain;
    use aetr_faults::FaultPlan;
    use aetr_sim::time::SimTime;

    fn run(config: InterfaceConfig, train: &SpikeTrain, horizon: SimTime) -> InterfaceReport {
        AerToI2sInterface::new(config).unwrap().run_with_telemetry(
            train,
            horizon,
            &FaultPlan::nominal(0),
            &TelemetryConfig { enabled: true, sample_cadence: None, lineage: true },
        )
    }

    fn latency_with_watermark(watermark: usize) -> LatencyReport {
        let config = InterfaceConfig {
            fifo: FifoConfig { watermark, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let train = RegularGenerator::from_rate(100_000.0, 8).generate(SimTime::from_ms(5));
        let report = run(config, &train, SimTime::from_ms(5));
        LatencyReport::from_lineage(report.telemetry.lineage.records()).unwrap()
    }

    #[test]
    fn acquisition_latency_is_grid_scale() {
        let lat = latency_with_watermark(1);
        // 10 µs spacing sits in segment 1 (period ≤ 2·T_min) plus the
        // 2-FF synchroniser: a few hundred ns.
        assert!(lat.acquisition.mean_secs < 1e-6, "mean {}", lat.acquisition.mean_secs);
        assert!(lat.acquisition.max_secs < 2e-6);
    }

    #[test]
    fn deeper_watermark_costs_buffering_latency() {
        let l1 = latency_with_watermark(1);
        let l256 = latency_with_watermark(256);
        assert!(
            l256.buffering.mean_secs > 10.0 * l1.buffering.mean_secs,
            "watermark 1: {}, watermark 256: {}",
            l1.buffering.mean_secs,
            l256.buffering.mean_secs
        );
        // End-to-end dominated by buffering at deep watermarks.
        assert!(l256.end_to_end.mean_secs > l256.buffering.mean_secs * 0.9);
    }

    #[test]
    fn fifo_loss_does_not_shift_other_events_frames() {
        // 2 Mevt/s overruns the 15 MHz I2S link: over half the captured
        // events are dropped at the full FIFO. Each delivered event must
        // still be charged its own frame, not the one at its capture
        // position in the stream (which belongs to a later event).
        let horizon = SimTime::from_ms(5);
        let train = PoissonGenerator::new(2_000_000.0, 64, 1).generate(horizon);
        let report = run(InterfaceConfig::prototype(), &train, horizon);
        assert_eq!(report.events.len(), 10_137);
        assert_eq!(report.fifo_stats.dropped, 5_751);
        let lat = LatencyReport::from_lineage(report.telemetry.lineage.records()).unwrap();
        assert_eq!(lat.events, 10_137 - 5_751);
        let close = |got: f64, ms: f64| (got * 1e3 - ms).abs() < 5e-4;
        assert!(close(lat.buffering.mean_secs, 3.601), "{lat}");
        assert!(close(lat.buffering.max_secs, 4.915), "{lat}");
        assert!(close(lat.end_to_end.p99_secs, 4.919), "{lat}");
        // Every delivered event left the FIFO within one buffer's worth
        // of frames: 2304 events, two per 4.3 µs frame, is ~5 ms.
        assert!(lat.end_to_end.max_secs < 5.0e-3, "{lat}");
    }

    #[test]
    fn empty_run_yields_none() {
        let report = run(InterfaceConfig::prototype(), &SpikeTrain::new(), SimTime::from_ms(1));
        assert!(LatencyReport::from_lineage(report.telemetry.lineage.records()).is_none());
    }

    #[test]
    fn display_renders_all_stages() {
        let text = latency_with_watermark(16).to_string();
        assert!(text.contains("acquisition"));
        assert!(text.contains("buffering"));
        assert!(text.contains("end-to-end"));
    }
}
