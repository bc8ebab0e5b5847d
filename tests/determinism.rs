//! Whole-stack determinism: every stochastic component, seeded
//! identically, must reproduce byte-identical results — the property
//! that makes every number in EXPERIMENTS.md reproducible.

use aetr::interface::{AerToI2sInterface, InterfaceConfig};
use aetr::quantizer::quantize_train;
use aetr_aer::generator::{BurstGenerator, LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::noise::{add_jitter, drop_random, inject_background};
use aetr_clockgen::jitter::{JitterConfig, JitteredClock};
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::fig7_word;
use aetr_dvs::scene::MovingBar;
use aetr_dvs::sensor::{DvsConfig, DvsSensor};
use aetr_sim::time::{SimDuration, SimTime};

#[test]
fn generators_are_deterministic() {
    let horizon = SimTime::from_ms(50);
    assert_eq!(
        PoissonGenerator::new(50_000.0, 64, 7).generate(horizon),
        PoissonGenerator::new(50_000.0, 64, 7).generate(horizon),
    );
    assert_eq!(
        LfsrGenerator::new(50_000.0, 7).generate(horizon),
        LfsrGenerator::new(50_000.0, 7).generate(horizon),
    );
    let mk = || {
        BurstGenerator::new(
            200_000.0,
            50.0,
            SimDuration::from_ms(10),
            SimDuration::from_ms(40),
            32,
            7,
        )
        .generate(horizon)
    };
    assert_eq!(mk(), mk());
}

#[test]
fn sensors_are_deterministic() {
    let word = fig7_word(16_000, 9);
    let c1 = Cochlea::new(CochleaConfig::das1()).unwrap();
    let c2 = Cochlea::new(CochleaConfig::das1()).unwrap();
    assert_eq!(c1.process(&word), c2.process(&word));

    let dvs = DvsSensor::new(DvsConfig::aer10bit()).unwrap();
    assert_eq!(
        dvs.observe(&MovingBar::demo(), SimTime::from_ms(100)),
        dvs.observe(&MovingBar::demo(), SimTime::from_ms(100)),
    );
}

#[test]
fn noise_transforms_are_deterministic() {
    let train = PoissonGenerator::new(20_000.0, 16, 3).generate(SimTime::from_ms(50));
    assert_eq!(
        add_jitter(&train, SimDuration::from_us(1), 11),
        add_jitter(&train, SimDuration::from_us(1), 11)
    );
    assert_eq!(drop_random(&train, 0.3, 12), drop_random(&train, 0.3, 12));
    assert_eq!(
        inject_background(&train, 5_000.0, 16, 13),
        inject_background(&train, 5_000.0, 16, 13)
    );
}

#[test]
fn oscillator_jitter_is_deterministic() {
    let mut a = JitteredClock::new(SimDuration::from_ns(66), JitterConfig::igloo_nano(), 5);
    let mut b = JitteredClock::new(SimDuration::from_ns(66), JitterConfig::igloo_nano(), 5);
    for _ in 0..1_000 {
        assert_eq!(a.next_period(), b.next_period());
    }
}

#[test]
fn behavioral_and_des_pipelines_are_deterministic() {
    let train = PoissonGenerator::new(80_000.0, 64, 21).generate(SimTime::from_ms(10));
    let clock = aetr_clockgen::config::ClockGenConfig::prototype();
    assert_eq!(
        quantize_train(&clock, &train, SimTime::from_ms(10)),
        quantize_train(&clock, &train, SimTime::from_ms(10))
    );
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
    let a = interface.run(&train, SimTime::from_ms(10));
    let b = interface.run(&train, SimTime::from_ms(10));
    assert_eq!(a, b);
}

#[test]
fn fault_injection_is_deterministic() {
    use aetr_faults::{FaultPlan, FaultRates};
    let train = PoissonGenerator::new(60_000.0, 64, 5).generate(SimTime::from_ms(10));
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
    let plan = FaultPlan::nominal(99).with_rates(FaultRates {
        lost_ack: 0.05,
        fifo_bit_flip: 0.02,
        i2s_frame_slip: 0.01,
        ..FaultRates::default()
    });
    let a = interface.run_with_faults(&train, SimTime::from_ms(10), &plan);
    let b = interface.run_with_faults(&train, SimTime::from_ms(10), &plan);
    assert_eq!(a.health, b.health, "same seed, same health report");
    assert_eq!(a, b, "same seed, same full report");
    assert!(!a.health.is_nominal(), "the plan actually injected something");
}

#[test]
fn zero_rate_fault_plan_is_invisible() {
    use aetr_faults::FaultPlan;
    let train = PoissonGenerator::new(60_000.0, 64, 5).generate(SimTime::from_ms(10));
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
    let plain = interface.run(&train, SimTime::from_ms(10));
    // Any seed: a zero-rate injector never consumes a draw.
    let with_plan =
        interface.run_with_faults(&train, SimTime::from_ms(10), &FaultPlan::nominal(12345));
    assert_eq!(plain, with_plan, "zero-rate plan must be bit-identical to no injector");
    assert!(with_plan.health.is_nominal());
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against a silently ignored seed parameter.
    let horizon = SimTime::from_ms(20);
    assert_ne!(
        PoissonGenerator::new(50_000.0, 64, 1).generate(horizon),
        PoissonGenerator::new(50_000.0, 64, 2).generate(horizon),
    );
    assert_ne!(fig7_word(16_000, 1), fig7_word(16_000, 2));
}
