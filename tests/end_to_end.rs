//! Cross-crate integration: sensor → interface → I2S → MCU, over the
//! workload classes of the paper's evaluation.

use aetr::interface::{AerToI2sInterface, InterfaceConfig};
use aetr::mcu::{FidelityReport, McuReceiver};
use aetr::quantizer::{quantize_train, reconstruct_train};
use aetr_aer::generator::{BurstGenerator, PoissonGenerator, RegularGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::fig7_word;
use aetr_dvs::scene::MovingBar;
use aetr_dvs::sensor::{DvsConfig, DvsSensor};
use aetr_sim::time::{SimDuration, SimTime};

fn run_pipeline(train: SpikeTrain, horizon: SimTime) -> (SpikeTrain, FidelityReport) {
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).expect("valid config");
    let report = interface.run(&train, horizon);
    report.handshake.verify_protocol().expect("protocol clean");
    let mcu = McuReceiver::new(interface.config().clock.base_sampling_period());
    let rebuilt = mcu.receive(&report.i2s);
    let fidelity = FidelityReport::compare(&train, &rebuilt);
    (rebuilt, fidelity)
}

#[test]
fn poisson_stream_survives_the_full_chain() {
    let train = PoissonGenerator::new(100_000.0, 64, 11).generate(SimTime::from_ms(20));
    let n = train.len();
    let (rebuilt, fidelity) = run_pipeline(train, SimTime::from_ms(20));
    assert_eq!(rebuilt.len(), n, "no events lost");
    // The 2-FF synchroniser of the prototype front end adds up to two
    // ticks of detection skew on top of the quantization error.
    assert!(fidelity.accuracy() > 0.93, "accuracy {}", fidelity.accuracy());
}

#[test]
fn cochlea_word_reaches_the_mcu_in_order() {
    let cochlea = Cochlea::new(CochleaConfig::das1()).expect("valid config");
    let train = cochlea.process(&fig7_word(16_000, 3));
    let horizon = SimTime::ZERO + SimDuration::from_ms(800);
    let addrs_sent: Vec<u16> = train.iter().map(|s| s.addr.value()).collect();
    let (rebuilt, fidelity) = run_pipeline(train, horizon);
    assert_eq!(fidelity.loss_ratio(), 0.0);
    let addrs_rcvd: Vec<u16> = rebuilt.iter().map(|s| s.addr.value()).collect();
    assert_eq!(addrs_sent, addrs_rcvd, "address sequence preserved end to end");
}

#[test]
fn bursty_stream_wakes_and_sleeps_through_the_chain() {
    let train = BurstGenerator::new(
        200_000.0,
        0.0,
        SimDuration::from_ms(5),
        SimDuration::from_ms(20),
        64,
        17,
    )
    .generate(SimTime::from_ms(100));
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).expect("valid config");
    let report = interface.run(&train, SimTime::from_ms(100));
    assert!(report.wake_count > 0, "silence gaps must stop the clock");
    assert!(
        report.power.total.as_milliwatts() < 3.0,
        "bursty workload power {}",
        report.power.total
    );
    assert_eq!(report.events.len(), train.len());
}

#[test]
fn regular_stream_timestamps_are_periodic_after_reconstruction() {
    let train = RegularGenerator::new(SimDuration::from_us(40), 4).generate(SimTime::from_ms(4));
    let (rebuilt, _) = run_pipeline(train, SimTime::from_ms(4));
    // All reconstructed ISIs (after the first) should be identical: a
    // periodic input stays periodic through quantization.
    let isis: Vec<u64> = rebuilt.inter_spike_intervals().skip(1).map(|d| d.as_ps()).collect();
    let unique: std::collections::HashSet<&u64> = isis.iter().collect();
    assert!(unique.len() <= 2, "periodic input produced {} distinct ISIs", unique.len());
}

#[test]
fn behavioral_reconstruction_matches_mcu_reconstruction() {
    // The quantizer's reconstruct_train and the MCU's receive must
    // agree: same math, two implementations.
    let train = PoissonGenerator::new(60_000.0, 32, 23).generate(SimTime::from_ms(10));
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).expect("valid config");
    let report = interface.run(&train, SimTime::from_ms(10));
    let base = interface.config().clock.base_sampling_period();

    let events: Vec<_> = report.events.iter().map(|e| e.event).collect();
    let direct = reconstruct_train(&events, base, SimTime::ZERO);
    let via_mcu = McuReceiver::new(base).receive(&report.i2s);
    assert_eq!(direct, via_mcu);
}

#[test]
fn empty_input_produces_empty_but_valid_outputs() {
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).expect("valid config");
    let report = interface.run(&SpikeTrain::new(), SimTime::from_ms(10));
    assert!(report.events.is_empty());
    assert!(report.i2s.is_empty());
    assert_eq!(report.fifo_stats.pushed, 0);
    report.handshake.verify_protocol().expect("trivially clean");
    // Behavioral agrees.
    let out = quantize_train(
        &InterfaceConfig::prototype().clock,
        &SpikeTrain::new(),
        SimTime::from_ms(10),
    );
    assert!(out.records.is_empty());
}

#[test]
fn dvs_stream_through_arbiter_and_interface() {
    // Vision path: DVS events, serialised by the on-chip arbiter tree,
    // timestamped by the interface, reconstructed by the MCU.
    let sensor = DvsSensor::new(DvsConfig::aer10bit()).expect("valid config");
    let raw = sensor.observe(&MovingBar::demo(), SimTime::from_ms(200));
    assert!(!raw.is_empty());
    let (arbitrated, stats) =
        aetr_aer::arbiter::arbitrate(&raw, &aetr_aer::arbiter::ArbiterConfig::das1());
    assert_eq!(stats.events as usize, raw.len());

    let n = arbitrated.len();
    let (rebuilt, fidelity) = run_pipeline(arbitrated, SimTime::from_ms(200));
    assert_eq!(rebuilt.len(), n);
    assert_eq!(fidelity.loss_ratio(), 0.0);
    // Polarity/pixel addresses survive the whole chain.
    let decoded: Vec<_> = rebuilt
        .iter()
        .map(|s| sensor.decode_address(s.addr).expect("sensor-range address"))
        .collect();
    assert_eq!(decoded.len(), n);
}

#[test]
fn aedat_recording_replays_identically() {
    // Record a cochlea stream to AEDAT, replay it through the
    // quantizer: byte-identical timestamps (at the format's µs
    // granularity) must produce identical AETR events.
    let cochlea = Cochlea::new(CochleaConfig::das1()).expect("valid config");
    let train = cochlea.process(&fig7_word(16_000, 5));
    let mut file = Vec::new();
    aetr_aer::aedat::write_aedat(&train, &["fig7 word"], &mut file).expect("in-memory write");
    let replayed = aetr_aer::aedat::read_aedat(&file[..]).expect("own output parses");

    let horizon = SimTime::ZERO + SimDuration::from_ms(800);
    let cfg = InterfaceConfig::prototype().clock;
    let a = quantize_train(&cfg, &replayed, horizon);
    let b = quantize_train(&cfg, &replayed, horizon);
    assert_eq!(a, b, "deterministic replay");
    assert_eq!(replayed.len(), train.len());
}

#[test]
fn serde_reports_are_serializable() {
    // The report types derive Serialize/Deserialize (C-SERDE); assert
    // the bounds hold so downstream tooling can persist them.
    fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
    assert_serde::<aetr::interface::InterfaceReport>();
    assert_serde::<aetr::quantizer::QuantizerOutput>();
    assert_serde::<aetr::aetr_format::AetrEvent>();
    assert_serde::<aetr_aer::spike::SpikeTrain>();
    assert_serde::<aetr_clockgen::config::ClockGenConfig>();
    assert_serde::<aetr_power::model::PowerReport>();
}
