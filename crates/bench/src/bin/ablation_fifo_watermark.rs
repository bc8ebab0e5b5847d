//! Ablation: FIFO watermark (batch size) vs I2S duty and latency.
//!
//! §3 of the paper: "the actual achievable energy saving depends on
//! two main factors: i) the ratio between the input and output
//! bitrate; ii) the buffer size." A deeper watermark batches more
//! events per drain — fewer, longer I2S activations (fewer MCU
//! wake-ups downstream) at the cost of buffering latency.

use aetr::fifo::FifoConfig;
use aetr::interface::{AerToI2sInterface, InterfaceConfig, TelemetryConfig};
use aetr::latency::LatencyReport;
use aetr_aer::generator::{LfsrGenerator, SpikeSource};
use aetr_analysis::table::Table;
use aetr_bench::{banner, write_result};
use aetr_faults::FaultPlan;
use aetr_sim::time::SimTime;

const SEED: u32 = 0xAB4;

fn main() {
    banner("Ablation", "FIFO watermark: batching vs buffering latency", SEED as u64);

    let horizon = SimTime::from_ms(50);
    let train = LfsrGenerator::new(100_000.0, SEED).generate(horizon);
    println!("workload: {} spikes at 100 kevt/s over 50 ms\n", train.len());

    let mut table = Table::new(vec![
        "watermark (events)",
        "drain bursts",
        "frames",
        "events/burst",
        "peak occupancy",
        "mean buffering",
        "p99 end-to-end",
    ]);
    // Lineage only: the latency columns read each event's own record.
    let lineage = TelemetryConfig { enabled: true, sample_cadence: None, lineage: true };
    for watermark in [1usize, 16, 64, 256, 1_024, 2_304] {
        let config = InterfaceConfig {
            fifo: FifoConfig { watermark, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let interface = AerToI2sInterface::new(config).expect("valid config");
        let report =
            interface.run_with_telemetry(&train, horizon, &FaultPlan::nominal(0), &lineage);
        let latency =
            LatencyReport::from_lineage(report.telemetry.lineage.records()).expect("non-empty run");
        let bursts = report.fifo_stats.watermark_crossings.max(1);
        table.row(vec![
            watermark.to_string(),
            report.fifo_stats.watermark_crossings.to_string(),
            report.i2s.len().to_string(),
            format!("{:.0}", report.i2s.event_count() as f64 / bursts as f64),
            report.fifo_stats.high_watermark.to_string(),
            format!("{:.1} us", latency.buffering.mean_secs * 1e6),
            format!("{:.1} us", latency.end_to_end.p99_secs * 1e6),
        ]);
    }
    println!("{}", table.to_ascii());
    println!(
        "reading: the watermark is the batching knob — larger batches let the\n\
         downstream MCU sleep between block transfers (the paper's motivation for\n\
         buffering events at all), bounded by the 9.2 kB SRAM."
    );

    let path = write_result("ablation_fifo_watermark.csv", &table.to_csv()).expect("write results");
    println!("\nCSV written to {}", path.display());
}
