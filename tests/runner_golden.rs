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
use aetr::fifo::{FifoConfig, OverflowPolicy};
use aetr::interface::{
    AerToI2sInterface, InterfaceConfig, InterfaceReport, SimEngine, TelemetryConfig,
};
use aetr_aer::address::Address;
use aetr_aer::generator::{BurstGenerator, LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_faults::{FaultKind, FaultPlan};
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::lineage::DropCause;

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
fn drop_oldest_overflow_matches_the_recorded_reports() {
    // A 16-event buffer at 2 Mevt/s: the oldest buffered events are
    // displaced over and over, fault-free and with every fault class
    // on plus a stalled oscillator.
    let config = InterfaceConfig {
        fifo: FifoConfig {
            capacity_bytes: 64,
            watermark: 12,
            overflow: OverflowPolicy::DropOldest,
        },
        ..InterfaceConfig::prototype()
    };
    let faulty = FaultPlan::nominal(42)
        .with_rates(FaultSurface::All.rates(0.5))
        .schedule(SimTime::from_ms(2), FaultKind::StuckOscillator);
    let expected =
        [(FaultPlan::nominal(0), 10_937_653_996_221_943_491), (faulty, 11_220_882_678_290_382_609)];
    for (plan, pin) in expected {
        let train = PoissonGenerator::new(2_000_000.0, 64, 1).generate(SimTime::from_ms(5));
        let case = Case { config, plan, telemetry: full_telemetry(), ..Case::new(train, 5) };
        let report = AerToI2sInterface::new(config).expect("valid config").run_with_telemetry(
            &case.train,
            case.horizon,
            &case.plan,
            &case.telemetry,
        );
        let displaced = report.telemetry.lineage.records().iter();
        assert!(displaced.filter(|r| r.drop_cause == DropCause::Displaced).count() > 1_000);
        assert_eq!(case.fingerprint(), pin);
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

/// Four spikes 300 µs apart on address 2: the clock sleeps before each.
fn sleepy_train(extra: Option<SimTime>) -> SpikeTrain {
    let gap = SimDuration::from_us(300);
    let mut spikes: Vec<Spike> = (1..=4u64)
        .map(|i| Spike::new(SimTime::ZERO + gap * i, Address::new(2).expect("valid address")))
        .collect();
    if let Some(t) = extra {
        spikes.push(Spike::new(t, Address::new(5).expect("valid address")));
        spikes.sort_by_key(|s| s.time);
    }
    spikes.into_iter().collect()
}

#[test]
fn spi_writes_win_ties_with_ticks_and_requests() {
    // Every tick instant below is read off a write-free run: a capture
    // at `d` restarts the chain at T_min, so `d + k·T_min` is a tick
    // until the first division (θ_div = 64 ticks later).
    let base = ClockGenConfig::prototype().base_sampling_period();
    let plain = AerToI2sInterface::new(InterfaceConfig::prototype())
        .expect("valid config")
        .run(&sleepy_train(None), SimTime::from_ms(2));
    let d = plain.events[1].detection;
    let fingerprint_with = |train: SpikeTrain, writes: &[(SimTime, Register, u32)]| {
        Case { writes, ..Case::new(train, 2) }.fingerprint()
    };
    let late = SimDuration::from_ps(1);

    // A θ_div write at a tick instant: applied first, that very tick
    // divides the clock; applied after it, the division comes a tick
    // later.
    let at_tick = d + base * 3;
    let tick_tie = fingerprint_with(sleepy_train(None), &[(at_tick, Register::ThetaDiv, 2)]);
    assert_ne!(
        tick_tie,
        fingerprint_with(sleepy_train(None), &[(at_tick + late, Register::ThetaDiv, 2)]),
        "the tie must be observable"
    );
    assert_eq!(tick_tie, 17_643_279_703_065_522_454);

    // Three-way tie: a spike's REQ rises at a tick instant, and a write
    // lands at that same instant.
    let at_req = d + base * 10;
    let train = || sleepy_train(Some(at_req));
    let report = AerToI2sInterface::new(InterfaceConfig::prototype())
        .expect("valid config")
        .run(&train(), SimTime::from_ms(2));
    assert_eq!(report.events[2].request, at_req, "REQ rises exactly at the tick");
    let req_tie = fingerprint_with(train(), &[(at_req, Register::ThetaDiv, 5)]);
    assert_ne!(
        req_tie,
        fingerprint_with(train(), &[(at_req + late, Register::ThetaDiv, 5)]),
        "the tie must be observable"
    );
    assert_eq!(req_tie, 6_978_832_462_899_739_931);

    // A REQ that wakes the sleeping clock, with an N_div write at the
    // same instant.
    let wake = SimTime::ZERO + SimDuration::from_us(600);
    let wake_tie = fingerprint_with(sleepy_train(None), &[(wake, Register::NDiv, 1)]);
    assert_eq!(wake_tie, 11_367_915_132_133_126_843);
}

#[test]
fn datapath_surface_faults_match_the_recorded_report() {
    // FIFO bit flips and I2S frame slips on a Poisson train; a low
    // watermark so that frames (and frame slips) happen mid-run.
    let plan = FaultPlan::nominal(7).with_rates(FaultSurface::Datapath.rates(0.3));
    let train = PoissonGenerator::new(2_500.0, 8, 13).generate(SimTime::from_ms(20));
    let config = InterfaceConfig {
        fifo: FifoConfig { watermark: 4, ..FifoConfig::prototype() },
        ..InterfaceConfig::prototype()
    };
    let case = Case { config, plan, telemetry: full_telemetry(), ..Case::new(train, 20) };
    let report = AerToI2sInterface::new(config).expect("valid config").run_with_telemetry(
        &case.train,
        case.horizon,
        &case.plan,
        &case.telemetry,
    );
    assert!(report.health.fifo_bit_flips > 0, "no FIFO bit flip was injected");
    assert!(report.health.frame_slips > 0, "no frame slip was injected");
    assert_eq!(case.fingerprint(), 17_171_533_675_349_824_888);
}
