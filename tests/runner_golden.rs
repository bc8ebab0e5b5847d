//! Golden pins of the DES interface runner's output.
//!
//! Each case runs one stimulus through [`AerToI2sInterface`] under both
//! simulation engines and hashes, with 64-bit FNV-1a, every
//! deterministic part of the [`InterfaceReport`]: the functional fields
//! (events, handshakes, FIFO statistics, I2S stream, activity, power,
//! wakes, health) and the telemetry exports (metrics JSON, Prometheus
//! text, Chrome trace, sampler series, lineage JSONL). The wall-clock
//! profile is excluded. The expected hashes were recorded before the
//! runner was refactored to record each fact in one place, so any
//! change to it must reproduce the earlier runner's reports bit for bit.

use aetr::campaign::FaultSurface;
use aetr::config_bus::Register;
use aetr::fifo::FifoConfig;
use aetr::interface::{
    AerToI2sInterface, InterfaceConfig, InterfaceReport, SimEngine, TelemetryConfig,
};
use aetr_aer::address::Address;
use aetr_aer::generator::{BurstGenerator, LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_faults::{FaultKind, FaultPlan};
use aetr_sim::time::{SimDuration, SimTime};

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One hash over every deterministic part of `report`. Each part is
/// length-prefixed so that bytes cannot migrate between parts.
fn fingerprint(report: &InterfaceReport) -> u64 {
    let mut untimed = report.telemetry.clone();
    untimed.profile = None;
    let parts = [
        format!("{:?}", report.events),
        format!("{:?}", report.handshake),
        format!("{:?}", report.fifo_stats),
        format!("{:?}", report.i2s),
        format!("{:?}", report.activity),
        format!("{:?}", report.power),
        format!("{:?}", report.wake_count),
        format!("{:?}", report.health),
        untimed.to_json().to_string(),
        untimed.to_prometheus(),
        untimed.to_chrome_trace(),
        untimed.series.to_json().to_string(),
        untimed.lineage.to_jsonl(),
    ];
    parts.iter().fold(0xcbf2_9ce4_8422_2325, |hash, part| {
        let hash = fnv1a(hash, &(part.len() as u64).to_le_bytes());
        fnv1a(hash, part.as_bytes())
    })
}

/// Telemetry with the live sampler and per-event lineage on.
fn full_telemetry() -> TelemetryConfig {
    TelemetryConfig::with_cadence(SimDuration::from_us(50)).with_lineage()
}

struct Case<'a> {
    config: InterfaceConfig,
    train: SpikeTrain,
    horizon: SimTime,
    plan: FaultPlan,
    telemetry: TelemetryConfig,
    writes: &'a [(SimTime, Register, u32)],
}

impl<'a> Case<'a> {
    fn new(train: SpikeTrain, horizon_ms: u64) -> Case<'a> {
        Case {
            config: InterfaceConfig::prototype(),
            train,
            horizon: SimTime::from_ms(horizon_ms),
            plan: FaultPlan::nominal(0),
            telemetry: TelemetryConfig::enabled(),
            writes: &[],
        }
    }

    /// Runs the case under both engines and returns the one hash they
    /// must share.
    fn fingerprint(&self) -> u64 {
        let hashes = [SimEngine::EventProportional, SimEngine::PerTickReference].map(|engine| {
            let interface =
                AerToI2sInterface::new(self.config).expect("valid config").with_engine(engine);
            let report = if self.writes.is_empty() {
                interface.run_with_telemetry(&self.train, self.horizon, &self.plan, &self.telemetry)
            } else {
                interface.run_with_reconfig(&self.train, self.horizon, self.writes)
            };
            fingerprint(&report)
        });
        assert_eq!(hashes[0], hashes[1], "engines disagree");
        hashes[0]
    }
}

#[test]
fn dense_lfsr_stream_matches_the_recorded_report() {
    let case = Case::new(LfsrGenerator::new(400_000.0, 0xACE1).generate(SimTime::from_ms(2)), 2);
    assert_eq!(case.fingerprint(), 10_336_816_540_904_993_389);
}

#[test]
fn sparse_poisson_with_sleep_and_wake_matches_the_recorded_report() {
    let train = PoissonGenerator::new(500.0, 16, 3).generate(SimTime::from_ms(40));
    let case = Case { telemetry: full_telemetry(), ..Case::new(train, 40) };
    assert_eq!(case.fingerprint(), 7_189_481_011_460_290_458);
}

#[test]
fn bursty_train_with_sampler_and_lineage_matches_the_recorded_report() {
    let train = BurstGenerator::new(
        300_000.0,
        2_000.0,
        SimDuration::from_us(200),
        SimDuration::from_ms(1),
        64,
        5,
    )
    .generate(SimTime::from_ms(8));
    let case = Case { telemetry: full_telemetry(), ..Case::new(train, 8) };
    assert_eq!(case.fingerprint(), 8_224_023_815_074_077_666);
}

#[test]
fn overloaded_fifo_matches_the_recorded_report() {
    let train = PoissonGenerator::new(2_000_000.0, 64, 1).generate(SimTime::from_ms(5));
    let case = Case { telemetry: full_telemetry(), ..Case::new(train, 5) };
    assert_eq!(case.fingerprint(), 17_794_737_371_804_590_366);
}

#[test]
fn all_surface_faults_with_a_stuck_oscillator_match_the_recorded_reports() {
    // 0.05 is the campaign's working point; 0.5 also drives the
    // watchdog into a forced wake, degraded mode and an aborted
    // handshake.
    let expected = [(0.05, 7_014_303_897_619_404_635), (0.5, 8_991_424_690_735_392_352)];
    for (rate, pin) in expected {
        let plan = FaultPlan::nominal(42)
            .with_rates(FaultSurface::All.rates(rate))
            .schedule(SimTime::from_ms(3), FaultKind::StuckOscillator);
        let train = PoissonGenerator::new(2_500.0, 8, 9).generate(SimTime::from_ms(40));
        // A low watermark so that frames (and frame slips) happen
        // mid-run.
        let config = InterfaceConfig {
            fifo: FifoConfig { watermark: 4, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let case = Case { config, plan, telemetry: full_telemetry(), ..Case::new(train, 40) };
        assert_eq!(case.fingerprint(), pin, "rate {rate}");
    }
}

#[test]
fn mid_idle_spi_reconfiguration_matches_the_recorded_report() {
    let gap = SimDuration::from_us(300);
    let train: SpikeTrain = (1..=10u64)
        .map(|i| Spike::new(SimTime::ZERO + gap * i, Address::new(2).expect("valid address")))
        .collect();
    let writes = [(SimTime::from_ms(1) + SimDuration::from_us(37), Register::NDiv, 6u32)];
    let case = Case { writes: &writes, ..Case::new(train, 4) };
    assert_eq!(case.fingerprint(), 811_826_644_253_173_741);
}

#[test]
fn never_stopping_policies_match_the_recorded_reports() {
    let expected = [
        (DivisionPolicy::Never, 8_124_927_485_262_896_365),
        (DivisionPolicy::DivideOnly, 9_991_422_099_288_926_015),
        (DivisionPolicy::Linear, 3_722_898_645_481_191_959),
    ];
    for (policy, pin) in expected {
        let train = PoissonGenerator::new(5_000.0, 16, 11).generate(SimTime::from_ms(4));
        let config = InterfaceConfig {
            clock: ClockGenConfig::prototype().with_policy(policy),
            ..InterfaceConfig::prototype()
        };
        let case = Case { config, telemetry: full_telemetry(), ..Case::new(train, 4) };
        assert_eq!(case.fingerprint(), pin, "{policy:?}");
    }
}
