//! Acceptance tests for the telemetry subsystem (DESIGN.md §11).
//!
//! The two load-bearing guarantees:
//!
//! 1. telemetry is *purely observational* — a run with the no-op sink
//!    is bit-identical to the pre-PR `run()` (golden literals below),
//!    and even a fully-enabled collector changes no functional field;
//! 2. the sleep/divided/full-rate residency spans partition simulated
//!    time exactly — they sum to the simulation horizon on a bursty
//!    train, which is the paper's power-state model made auditable.

use aetr::interface::{AerToI2sInterface, InterfaceConfig, InterfaceReport, TelemetryConfig};
use aetr_aer::generator::{BurstGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_faults::{FaultPlan, FaultRates};
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::json;
use aetr_telemetry::span::SpanKind;

fn prototype() -> AerToI2sInterface {
    AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap()
}

fn bursty_train(horizon: SimTime) -> SpikeTrain {
    // 200 kevt/s bursts of 1 ms every 3 ms: dense enough to hold the
    // clock at full rate inside a burst, sparse enough to divide down
    // and sleep between bursts.
    BurstGenerator::new(200_000.0, 0.0, SimDuration::from_ms(1), SimDuration::from_ms(3), 64, 17)
        .generate(horizon)
}

/// Functional (non-telemetry) fields of two reports must agree bit for
/// bit.
fn assert_functionally_identical(a: &InterfaceReport, b: &InterfaceReport) {
    assert_eq!(a.events, b.events);
    assert_eq!(a.handshake, b.handshake);
    assert_eq!(a.fifo_stats, b.fifo_stats);
    assert_eq!(a.i2s, b.i2s);
    assert_eq!(a.activity, b.activity);
    assert_eq!(a.power, b.power);
    assert_eq!(a.wake_count, b.wake_count);
    assert_eq!(a.health, b.health);
}

/// Golden test: with the no-op telemetry sink, `run()` reproduces the
/// pre-PR report exactly. The literals below were captured from the
/// seed build (commit before telemetry existed) on this fixed train.
#[test]
fn noop_sink_matches_pre_pr_golden() {
    let train = PoissonGenerator::new(50_000.0, 64, 7).generate(SimTime::from_ms(10));
    let report = prototype().run(&train, SimTime::from_ms(10));
    assert!(report.telemetry.is_empty(), "run() uses the no-op sink");

    assert_eq!(report.events.len(), GOLDEN_EVENTS);
    assert_eq!(report.handshake.len(), GOLDEN_EVENTS);
    assert_eq!(report.wake_count, GOLDEN_WAKES);
    assert_eq!(report.fifo_stats.pushed, GOLDEN_EVENTS as u64);
    assert_eq!(report.fifo_stats.dropped, 0);
    assert_eq!(report.events.first().unwrap().event.timestamp.ticks(), GOLDEN_FIRST_TICKS);
    assert_eq!(report.events.last().unwrap().event.timestamp.ticks(), GOLDEN_LAST_TICKS);
    assert_eq!(report.i2s.len(), GOLDEN_I2S_FRAMES);
    let power_nw = (report.power.total.as_microwatts() * 1e3).round() as u64;
    assert_eq!(power_nw, GOLDEN_POWER_NW);
}

#[test]
fn enabled_collector_is_purely_observational() {
    let horizon = SimTime::from_ms(10);
    let train = bursty_train(horizon);
    let interface = prototype();
    let plain = interface.run(&train, horizon);
    let telemetered = interface.run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(0),
        &TelemetryConfig::with_cadence(SimDuration::from_us(50)),
    );
    assert_functionally_identical(&plain, &telemetered);
    assert!(plain.telemetry.is_empty());
    assert!(!telemetered.telemetry.is_empty());
    assert!(telemetered.telemetry.profile.is_some(), "profiling hooks ran");
}

/// Acceptance: sleep + divided + full-rate residency sums exactly to
/// the simulation horizon on a bursty train.
#[test]
fn clock_residency_sums_to_horizon_on_bursty_train() {
    // Bursts stop 2 ms before the horizon so the FIFO drain (which may
    // run past the last event) completes inside it; the final sleep
    // span then closes exactly at the horizon.
    let horizon = SimTime::from_ms(10);
    let train = bursty_train(SimTime::from_ms(8));
    let report = prototype().run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(0),
        &TelemetryConfig::enabled(),
    );
    let residency = report.telemetry.clock_residency();
    let names: Vec<&str> = residency.iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"full-rate"), "bursts hold the clock at full rate: {names:?}");
    assert!(names.contains(&"divided"), "gaps divide the clock down: {names:?}");
    assert!(names.contains(&"sleep"), "long gaps stop the oscillator: {names:?}");
    let total_ps: u64 = residency.iter().map(|(_, d)| d.as_ps()).sum();
    assert_eq!(
        total_ps,
        horizon.as_ps(),
        "residency must partition the horizon exactly: {residency:?}"
    );
    // Cross-check against the power meter's integral: time with the
    // oscillator off is exactly the "sleep" residency.
    let sleep = residency.iter().find(|(n, _)| *n == "sleep").unwrap().1;
    assert_eq!(sleep, report.activity.off);
}

#[test]
fn metrics_agree_with_the_report_aggregates() {
    let horizon = SimTime::from_ms(10);
    let train = bursty_train(horizon);
    let report = prototype().run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(0),
        &TelemetryConfig::enabled(),
    );
    let m = &report.telemetry.metrics;
    assert_eq!(m.counter_by_name("interface.events.captured"), Some(report.events.len() as u64));
    assert_eq!(m.counter_by_name("interface.fifo.pushed"), Some(report.fifo_stats.pushed));
    assert_eq!(m.counter_by_name("interface.fifo.dropped"), Some(report.fifo_stats.dropped));
    assert_eq!(
        m.counter_by_name("interface.handshake.completed"),
        Some(report.handshake.len() as u64)
    );
    assert_eq!(m.counter_by_name("interface.i2s.frames"), Some(report.i2s.len() as u64));
    assert_eq!(m.counter_by_name("interface.clockgen.wakes"), Some(report.wake_count));
    // The FIFO fully drains by the end of the run, so the occupancy
    // gauge must read zero (canonical depth = true occupancy).
    assert_eq!(m.gauge_by_name("interface.fifo.occupancy"), Some(0.0));
    let depth = m.histogram_by_name("interface.fifo.depth").unwrap();
    assert_eq!(depth.count(), report.fifo_stats.pushed);
    assert_eq!(depth.non_finite(), 0);
    // Span counts line up with their aggregate counters.
    let spans = &report.telemetry.spans;
    assert_eq!(spans.of_kind(SpanKind::Wake).count() as u64, report.wake_count);
    assert_eq!(spans.of_kind(SpanKind::I2sFrame).count(), report.i2s.len());
    assert_eq!(spans.of_kind(SpanKind::Handshake).count(), report.handshake.len());
}

#[test]
fn live_sampler_tracks_rate_power_divider_and_depth() {
    let horizon = SimTime::from_ms(10);
    let cadence = SimDuration::from_us(100);
    let train = bursty_train(horizon);
    let report = prototype().run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(0),
        &TelemetryConfig::with_cadence(cadence),
    );
    let series = report.telemetry.series.clone();
    assert_eq!(series.cadence(), cadence);
    // One sample per cadence across the whole horizon: 10 ms / 100 µs.
    assert_eq!(series.len(), 100);
    let points = series.points();
    assert!(points.windows(2).all(|w| w[0].t < w[1].t), "samples advance");
    assert_eq!(points.last().unwrap().t, horizon);
    // During bursts the clock runs at full rate (multiplier 1); in the
    // long gaps it must be asleep (multiplier 0) with power at the
    // 50 µW static floor.
    assert!(points.iter().any(|p| p.divider_multiplier == 1));
    let sleeping: Vec<_> = points.iter().filter(|p| p.divider_multiplier == 0).collect();
    assert!(!sleeping.is_empty(), "bursty gaps must show sleep samples");
    for p in &sleeping {
        assert!(
            (p.power_uw - 50.0).abs() < 1e-9,
            "sleep power is the static floor: {}",
            p.power_uw
        );
    }
    // Power at full rate includes the clock tree: strictly above floor.
    let full: Vec<_> = points.iter().filter(|p| p.divider_multiplier == 1).collect();
    assert!(full.iter().all(|p| p.power_uw > 1000.0));
    // Cumulative event counts are monotone and end at the true total.
    assert!(points.windows(2).all(|w| w[0].events_total <= w[1].events_total));
    assert_eq!(points.last().unwrap().events_total, report.events.len() as u64);
}

#[test]
fn faulted_runs_emit_the_same_health_metric_names() {
    let horizon = SimTime::from_ms(10);
    let train = PoissonGenerator::new(50_000.0, 64, 7).generate(horizon);
    let interface = prototype();
    let plan =
        FaultPlan::nominal(7).with_rates(FaultRates { lost_ack: 0.25, ..FaultRates::default() });
    let faulted = interface.run_with_telemetry(&train, horizon, &plan, &TelemetryConfig::enabled());
    let clean = interface.run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(0),
        &TelemetryConfig::enabled(),
    );
    // Identical name sets in both runs — dashboards built on one work
    // on the other (the `aetr-cli faults` campaign path emits the same
    // names via `InterfaceHealthReport::metrics`).
    for (name, value) in faulted.health.metrics() {
        assert_eq!(
            faulted.telemetry.metrics.counter_by_name(name),
            Some(value),
            "faulted metric {name}"
        );
        assert_eq!(clean.telemetry.metrics.counter_by_name(name), Some(0), "clean metric {name}");
    }
    assert!(faulted.health.lost_acks > 0, "the fault plan must actually bite");
    assert!(
        faulted.telemetry.spans.of_kind(SpanKind::WatchdogRecovery).count() > 0,
        "lost ACKs open watchdog-recovery spans"
    );
}

#[test]
fn exports_parse_and_validate() {
    let horizon = SimTime::from_ms(5);
    let train = bursty_train(horizon);
    let report = prototype().run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(0),
        &TelemetryConfig::enabled(),
    );
    // JSON export round-trips through the parser and validates against
    // the checked-in schema (the same one CI smoke-tests the CLI with).
    let text = report.telemetry.to_json().to_string();
    let doc = json::parse(&text).expect("telemetry JSON parses");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/telemetry.schema.json"
    ))
    .expect("schema file present");
    let schema = json::parse(&schema_text).expect("schema parses");
    let violations = json::validate(&doc, &schema);
    assert!(violations.is_empty(), "schema violations: {violations:?}");

    // Chrome trace export is well-formed and carries every span.
    let trace = json::parse(&report.telemetry.to_chrome_trace()).expect("trace parses");
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    let complete =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).count();
    assert_eq!(complete, report.telemetry.spans.len());

    // Prometheus text carries the hierarchical names, sanitised.
    let prom = report.telemetry.to_prometheus();
    assert!(prom.contains("interface_clockgen_divisions"));
    assert!(prom.contains("interface_health_lost_acks 0"));
}

/// Golden literals captured from the seed build (commit `ae19d32`,
/// pre-telemetry) for `PoissonGenerator::new(50_000.0, 64, 7)` over
/// 10 ms.
const GOLDEN_EVENTS: usize = 519;
const GOLDEN_WAKES: u64 = 23;
const GOLDEN_I2S_FRAMES: usize = 260;
const GOLDEN_FIRST_TICKS: u32 = 7;
const GOLDEN_LAST_TICKS: u32 = 124;
const GOLDEN_POWER_NW: u64 = 2_194_152;
