//! Ablations: the design choices the paper fixes, swept one at a time.

use std::fmt::Write as _;

use aetr::fifo::FifoConfig;
use aetr::interface::{AerToI2sInterface, InterfaceConfig, TelemetryConfig};
use aetr::latency::LatencyReport;
use aetr::quantizer::quantize_train;
use aetr_aer::generator::{BurstGenerator, LfsrGenerator, SpikeSource};
use aetr_analysis::sweep::{log_space, poisson_workload};
use aetr_analysis::table::{fmt_sig, Table};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::ring::RingOscillatorConfig;
use aetr_clockgen::segments::SegmentTable;
use aetr_faults::FaultPlan;
use aetr_power::downstream::{compare, McuPowerModel};
use aetr_power::model::PowerModel;
use aetr_sim::time::{SimDuration, SimTime};

use crate::{banner, isi_summary, Artifact, Claim, Experiment};

/// An experiment that checks no paper claim: its text and CSV.
fn csv_only(text: String, name: &'static str, table: &Table) -> Experiment {
    Experiment { text, artifact: Artifact { name, contents: table.to_csv() }, claims: Vec::new() }
}

/// The prototype interface draining its FIFO every `watermark` events.
fn with_watermark(watermark: usize) -> AerToI2sInterface {
    let fifo = FifoConfig { watermark, ..FifoConfig::prototype() };
    AerToI2sInterface::new(InterfaceConfig { fifo, ..InterfaceConfig::prototype() })
        .expect("valid config")
}

/// Ablation: timestamp counter width vs inactive-region error.
///
/// The AETR word reserves 22 bits for the timestamp. A narrower
/// counter clamps earlier (on top of the clock-shutdown saturation),
/// trading wire/RAM bits against the largest interval the stream can
/// still represent. This sweep shows where each width starts to hurt
/// with the never-stopping policy (the width is the *only* saturation
/// source there).
pub fn ablation_counter_width() -> Experiment {
    const SEED: u64 = 0xAB2;
    let mut out = String::new();
    banner(&mut out, "Ablation", "timestamp counter width vs saturation error", SEED);

    let widths = [10u32, 14, 18, 22];
    let config = |bits: u32| ClockGenConfig {
        counter_bits: bits,
        ..ClockGenConfig::prototype().with_policy(DivisionPolicy::Never)
    };
    let _ = writeln!(out, "largest representable interval per width (T_min units × T_min):");
    for &bits in &widths {
        let cfg = config(bits);
        let max = SimDuration::from_ps(cfg.base_sampling_period().as_ps() * cfg.counter_max());
        let _ = writeln!(out, "  {bits:>2} bits: {max}");
    }
    let _ = writeln!(out);

    let mut table = Table::new(vec!["counter bits", "rate (evt/s)", "mean err", "clamped %"]);
    for &bits in &widths {
        let config = config(bits);
        for (i, &rate) in log_space(10.0, 100_000.0, 7).iter().enumerate() {
            let (train, horizon) = poisson_workload(rate, SEED + i as u64, 1_000);
            let Some(summary) = isi_summary(&quantize_train(&config, &train, horizon)) else {
                continue;
            };
            table.row(vec![
                bits.to_string(),
                fmt_sig(rate),
                format!("{:.4}", summary.mean),
                format!("{:.1}", summary.saturation_ratio * 100.0),
            ]);
        }
    }
    let _ = writeln!(out, "{}", table.to_ascii());
    let _ = writeln!(
        out,
        "reading: each halving of the width moves the error knee up by ~2^4 in rate;\n\
         22 bits keeps the knee far below any practical sensor rate (paper's choice)."
    );
    csv_only(out, "ablation_counter_width.csv", &table)
}

/// Ablation: *how* should the sampling period grow between events?
///
/// The paper chooses geometric doubling (recursive division). This
/// harness compares, at equal `θ_div`/`N_div` budgets:
///
/// * `recursive`  — double every θ cycles, then shut down (the paper);
/// * `linear`     — grow by `+T_min` every θ cycles, then shut down;
/// * `divide-only`— double but never shut down;
/// * `no-division`— the naïve constant clock.
///
/// For each policy, power and accuracy across rates: recursive should
/// dominate the power/accuracy frontier at low rates, with linear
/// growth paying either range (it saturates 1.5x earlier at N=3) or
/// power.
pub fn ablation_division_policy() -> Experiment {
    const SEED: u64 = 0xAB1;
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation",
        "division policy: recursive vs linear vs divide-only vs none",
        SEED,
    );

    let model = PowerModel::igloo_nano();
    let policies = [
        DivisionPolicy::Recursive,
        DivisionPolicy::Linear,
        DivisionPolicy::DivideOnly,
        DivisionPolicy::Never,
    ];

    let _ = writeln!(out, "measurable range per policy (θ=64, N=3):");
    for policy in policies {
        let table = SegmentTable::new(&ClockGenConfig::prototype().with_policy(policy));
        let _ = match table.max_measurable() {
            Some(d) => writeln!(out, "  {policy:<12} saturates at {d}"),
            None => writeln!(out, "  {policy:<12} never saturates (counter-width limited)"),
        };
    }
    let _ = writeln!(out);

    let mut table = Table::new(vec!["policy", "rate (evt/s)", "power (uW)", "mean err", "sat %"]);
    for policy in policies {
        let config = ClockGenConfig::prototype().with_policy(policy);
        for (i, &rate) in log_space(100.0, 500_000.0, 8).iter().enumerate() {
            let (train, horizon) = poisson_workload(rate, SEED + i as u64, 2_000);
            let run = quantize_train(&config, &train, horizon);
            let power = model.evaluate(&run.activity).total;
            let (mean_err, sat) =
                isi_summary(&run).map_or((0.0, 0.0), |s| (s.mean, s.saturation_ratio));
            table.row(vec![
                policy.to_string(),
                fmt_sig(rate),
                format!("{:.1}", power.as_microwatts()),
                format!("{mean_err:.4}"),
                format!("{:.1}", sat * 100.0),
            ]);
        }
    }
    out.push_str(&table.to_ascii());
    csv_only(out, "ablation_division_policy.csv", &table)
}

/// Ablation: what the AETR batch interface saves the *downstream* MCU.
///
/// §3 of the paper argues that making time explicit lets the MCU sleep
/// and process events in batches instead of staying always-on. This
/// harness runs the full interface at several FIFO watermarks and
/// feeds the resulting batch structure into an STM32-L476-class MCU
/// energy model.
pub fn ablation_downstream() -> Experiment {
    const SEED: u64 = 0xAB5;
    let mut out = String::new();
    banner(&mut out, "Ablation", "downstream MCU energy: always-on vs AETR batching", SEED);

    // A sparse acoustic-monitoring workload over 2 s (~4% duty).
    let horizon = SimTime::from_secs(2);
    let train = BurstGenerator::new(
        100_000.0,
        10.0,
        SimDuration::from_ms(20),
        SimDuration::from_ms(480),
        64,
        SEED,
    )
    .generate(horizon);
    let _ = writeln!(
        out,
        "workload: {} events over 2 s (bursty, ~{:.0} evt/s average)\n",
        train.len(),
        train.mean_rate()
    );

    let mcu = McuPowerModel::stm32l476();
    let span = horizon.saturating_duration_since(SimTime::ZERO);
    let mut table =
        Table::new(vec!["watermark", "batches", "MCU always-on", "MCU batched", "saving"]);
    for watermark in [16usize, 64, 256, 1_024] {
        let report = with_watermark(watermark).run(&train, horizon);
        // One MCU wake per drain burst (plus one for any trailing flush).
        let batches = report.fifo_stats.watermark_crossings.max(1) + 1;
        let cmp = compare(&mcu, span, report.events.len() as u64, batches);
        table.row(vec![
            watermark.to_string(),
            batches.to_string(),
            format!("{}", cmp.always_on),
            format!("{}", cmp.batched),
            format!("{:.0}x", cmp.saving_factor()),
        ]);
    }
    let _ = writeln!(out, "{}", table.to_ascii());
    let _ = writeln!(
        out,
        "reading: explicit AETR timestamps let the MCU sleep between batches —\n\
         one to two orders of magnitude of downstream energy on sparse streams,\n\
         with deeper watermarks amortising the wake cost further."
    );
    csv_only(out, "ablation_downstream.csv", &table)
}

/// Ablation: FIFO watermark (batch size) vs I2S duty and latency.
///
/// §3 of the paper: "the actual achievable energy saving depends on
/// two main factors: i) the ratio between the input and output
/// bitrate; ii) the buffer size." A deeper watermark batches more
/// events per drain — fewer, longer I2S activations (fewer MCU
/// wake-ups downstream) at the cost of buffering latency.
pub fn ablation_fifo_watermark() -> Experiment {
    const SEED: u32 = 0xAB4;
    let mut out = String::new();
    banner(&mut out, "Ablation", "FIFO watermark: batching vs buffering latency", SEED as u64);

    let horizon = SimTime::from_ms(50);
    let train = LfsrGenerator::new(100_000.0, SEED).generate(horizon);
    let _ = writeln!(out, "workload: {} spikes at 100 kevt/s over 50 ms\n", train.len());

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
        let nominal = FaultPlan::nominal(0);
        let report =
            with_watermark(watermark).run_with_telemetry(&train, horizon, &nominal, &lineage);
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
    let _ = writeln!(out, "{}", table.to_ascii());
    let _ = writeln!(
        out,
        "reading: the watermark is the batching knob — larger batches let the\n\
         downstream MCU sleep between block transfers (the paper's motivation for\n\
         buffering events at all), bounded by the 9.2 kB SRAM."
    );
    csv_only(out, "ablation_fifo_watermark.csv", &table)
}

/// Ablation: the `θ_div` / `N_div` design-space matrix.
///
/// The paper closes §5.2 with: "These two parameters can be used as
/// two different knobs to match both the desired accuracy and the
/// desired maximum time interval that the interface is able to cover."
/// This harness charts the whole knob space: for each (θ, N) pair, the
/// measurable range, the active-region accuracy, and the power at a
/// fixed 10 kevt/s workload.
pub fn ablation_knobs() -> Experiment {
    const SEED: u64 = 0xAB6;
    let mut out = String::new();
    banner(&mut out, "Ablation", "the theta/N design space: range, accuracy, power", SEED);

    let model = PowerModel::igloo_nano();
    let mut table = Table::new(vec![
        "theta",
        "n_div",
        "max interval",
        "err @ mid-range",
        "power @ 10 kevt/s (uW)",
    ]);

    for theta in [16u32, 32, 64, 128] {
        for n_div in [1u32, 3, 5, 7] {
            let config = ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n_div);
            let max =
                SegmentTable::new(&config).max_measurable().expect("recursive policy saturates");

            // Accuracy probe: Poisson at a rate whose mean ISI sits in
            // the middle of this configuration's measurable range.
            let probe_rate = 2.0 / max.as_secs_f64();
            let (train, horizon) = poisson_workload(probe_rate, SEED + theta as u64, 1_500);
            let mean_err =
                isi_summary(&quantize_train(&config, &train, horizon)).map_or(0.0, |s| s.mean);

            // Power probe at a common rate.
            let (ptrain, phorizon) = poisson_workload(10_000.0, SEED + n_div as u64, 1_500);
            let power = model.evaluate(&quantize_train(&config, &ptrain, phorizon).activity).total;

            table.row(vec![
                theta.to_string(),
                n_div.to_string(),
                max.to_string(),
                format!("{:.4}", mean_err),
                format!("{:.1}", power.as_microwatts()),
            ]);
        }
    }
    let _ = writeln!(out, "{}", table.to_ascii());
    let _ = writeln!(
        out,
        "reading: θ_div sets the accuracy floor (~1/θ on the median) and scales the\n\
         range linearly; N_div scales the range geometrically (2^(N+1)-1) at ~zero\n\
         accuracy cost in-range but delays the shutdown power saving — exactly the\n\
         paper's 'two knobs'."
    );
    csv_only(out, "ablation_knobs.csv", &table)
}

/// Ablation: ring-oscillator wake latency sensitivity.
///
/// The paper argues the ~100 ns restart cost is negligible because it
/// is "comparable with a single clock period at the max freq". This
/// sweep makes that claim quantitative: acquisition delay and power of
/// a sparse (wake-heavy) workload as the wake latency grows from 0 to
/// 10 µs — the design stays insensitive until the latency rivals the
/// inter-burst spacing.
pub fn ablation_wake_latency() -> Experiment {
    const SEED: u64 = 0xAB3;
    let mut out = String::new();
    banner(&mut out, "Ablation", "ring-oscillator wake latency sensitivity", SEED);

    // A sparse, bursty workload: every burst onset wakes the clock.
    let train = BurstGenerator::new(
        150_000.0,
        0.0,
        SimDuration::from_ms(2),
        SimDuration::from_ms(8),
        64,
        SEED,
    )
    .generate(SimTime::from_ms(200));
    let _ = writeln!(out, "workload: {} spikes in bursts over 200 ms\n", train.len());

    let mut table = Table::new(vec!["wake latency", "wakes", "mean acq delay (ns)", "power (uW)"]);
    let mut delays = Vec::new();
    for wake_ns in [0u64, 50, 100, 500, 2_000, 10_000] {
        let mut config = InterfaceConfig::prototype();
        config.clock.ring = RingOscillatorConfig {
            wake_latency: SimDuration::from_ns(wake_ns),
            ..RingOscillatorConfig::igloo_nano()
        };
        let interface = AerToI2sInterface::new(config).expect("valid config");
        let report = interface.run(&train, SimTime::from_ms(200));
        let mean_delay_ns: f64 = report
            .events
            .iter()
            .map(|e| (e.detection - e.request).as_ps() as f64 / 1e3)
            .sum::<f64>()
            / report.events.len() as f64;
        table.row(vec![
            format!("{}", SimDuration::from_ns(wake_ns)),
            report.wake_count.to_string(),
            format!("{mean_delay_ns:.0}"),
            format!("{:.1}", report.power.total.as_microwatts()),
        ]);
        delays.push(mean_delay_ns);
    }
    let _ = writeln!(out, "{}", table.to_ascii());
    let _ = writeln!(
        out,
        "reading: at the prototype's 100 ns the acquisition delay is dominated by the\n\
         sampling grid itself; only wake latencies of several microseconds (100x the\n\
         paper's) become visible — the paper's negligibility claim holds."
    );

    // Delays are listed for 0, 50 and 100 ns first.
    let added = delays[2] - delays[0];
    let t_min_ns = ClockGenConfig::prototype().base_sampling_period().as_ps() as f64 / 1e3;
    let measured = format!("{added:.1} ns (T_min {t_min_ns:.1} ns)");
    let claims = vec![Claim::new(
        "acquisition delay added by the 100 ns wake",
        "negligible, about one T_min",
        measured,
        added < t_min_ns,
    )];
    Experiment {
        text: out,
        artifact: Artifact { name: "ablation_wake_latency.csv", contents: table.to_csv() },
        claims,
    }
}
