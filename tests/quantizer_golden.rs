//! Golden pins of the behavioural quantizer's output.
//!
//! Each case runs one stimulus through [`quantize_train`] and hashes,
//! with 64-bit FNV-1a, the per-spike records, the clock-activity record
//! and the bits of every `f64` in the [`PowerReport`] evaluated from it.
//! The grid covers all four division policies, a few (θ_div, N_div,
//! counter width) points and Poisson and LFSR trains from 1 evt/s to
//! 550 kevt/s, plus a train whose last detection lands past the
//! horizon. The expected hashes were recorded before the behavioural
//! engine accounted its activity through the power meter, so that
//! accounting must reproduce the earlier per-interval one bit for bit.

use aetr::quantizer::quantize_train;
use aetr_aer::address::Address;
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_power::model::{PowerModel, PowerReport};
use aetr_sim::time::{SimDuration, SimTime};

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every `f64` of `report`, as bits, after its span.
fn power_bits(report: &PowerReport) -> Vec<u64> {
    let mut bits = vec![
        report.span.as_ps(),
        report.total.as_microwatts().to_bits(),
        report.static_power.as_microwatts().to_bits(),
        report.clock_power.as_microwatts().to_bits(),
        report.event_power.as_microwatts().to_bits(),
        report.total_energy.as_picojoules().to_bits(),
    ];
    bits.extend(report.per_block.iter().map(|(_, p)| p.as_microwatts().to_bits()));
    bits
}

/// One hash over the quantizer's output for `train` and the power
/// evaluated from it. Each part is length-prefixed so that bytes cannot
/// migrate between parts.
fn fingerprint(config: &ClockGenConfig, train: &SpikeTrain, horizon: SimTime) -> u64 {
    let out = quantize_train(config, train, horizon);
    let power = PowerModel::igloo_nano().evaluate(&out.activity);
    let parts = [
        format!("{:?}", out.records),
        format!("{:?}", out.activity),
        format!("{:?}", out.base_period),
        format!("{:?}", power_bits(&power)),
    ];
    parts.iter().fold(0xcbf2_9ce4_8422_2325, |hash, part| {
        let hash = fnv1a(hash, &(part.len() as u64).to_le_bytes());
        fnv1a(hash, part.as_bytes())
    })
}

/// (θ_div, N_div, counter width): the prototype, a narrow counter that
/// clamps before the schedule saturates, and a deep, odd schedule.
const KNOBS: [(u32, u32, u32); 3] = [(64, 3, 22), (4, 2, 6), (17, 5, 10)];

/// Rates from an idle sensor to the paper's 550 kevt/s peak.
const RATES: [f64; 5] = [1.0, 50.0, 2_000.0, 100_000.0, 550_000.0];

/// One hash over every knob point, rate and train source under
/// `policy`.
fn policy_fingerprint(policy: DivisionPolicy) -> u64 {
    let mut hashes = Vec::new();
    for (theta, n_div, bits) in KNOBS {
        let config = ClockGenConfig {
            counter_bits: bits,
            ..ClockGenConfig::prototype()
                .with_theta_div(theta)
                .with_n_div(n_div)
                .with_policy(policy)
        };
        for (k, rate) in RATES.into_iter().enumerate() {
            // About 400 events per train, between 4 ms and 2 s long.
            let horizon =
                SimTime::ZERO + SimDuration::from_secs_f64((400.0 / rate).clamp(0.004, 2.0));
            let poisson = PoissonGenerator::new(rate, 64, 7 + k as u64).generate(horizon);
            let lfsr = LfsrGenerator::new(rate, 0xACE1 + k as u32).generate(horizon);
            hashes.push(fingerprint(&config, &poisson, horizon));
            hashes.push(fingerprint(&config, &lfsr, horizon));
        }
    }
    hashes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, h| fnv1a(hash, &h.to_le_bytes()))
}

#[test]
fn recursive_policy_matches_the_recorded_outputs() {
    assert_eq!(policy_fingerprint(DivisionPolicy::Recursive), 1_359_641_141_698_233_446);
}

#[test]
fn divide_only_policy_matches_the_recorded_outputs() {
    assert_eq!(policy_fingerprint(DivisionPolicy::DivideOnly), 11_368_789_458_728_518_203);
}

#[test]
fn never_policy_matches_the_recorded_outputs() {
    assert_eq!(policy_fingerprint(DivisionPolicy::Never), 499_785_165_828_087_751);
}

#[test]
fn linear_policy_matches_the_recorded_outputs() {
    assert_eq!(policy_fingerprint(DivisionPolicy::Linear), 15_263_271_544_444_967_091);
}

#[test]
fn detection_past_the_horizon_matches_the_recorded_outputs() {
    // The last request comes 1 ps before the horizon: after a 0.5 ms
    // gap the clock is off, so it is detected one wake latency plus
    // one base period later; with a never-stopping clock, on the next
    // (divided) tick. Either way the detection is past the horizon.
    let horizon = SimTime::from_ms(2);
    let addr = Address::new(3).expect("valid address");
    let train = SpikeTrain::from_sorted(vec![
        Spike::new(SimTime::from_us(500), addr),
        Spike::new(SimTime::from_us(1_500), addr),
        Spike::new(horizon - SimDuration::from_ps(1), addr),
    ])
    .expect("sorted");
    let expected = [
        (DivisionPolicy::Recursive, 1_845_600_019_735_899_035),
        (DivisionPolicy::DivideOnly, 11_515_566_455_211_398_593),
        (DivisionPolicy::Never, 12_031_517_688_798_310_810),
        (DivisionPolicy::Linear, 8_209_101_860_337_469_178),
    ];
    for (policy, pin) in expected {
        let config = ClockGenConfig::prototype().with_policy(policy);
        let out = quantize_train(&config, &train, horizon);
        assert!(out.records.last().expect("three records").detection > horizon, "{policy}");
        assert_eq!(fingerprint(&config, &train, horizon), pin, "{policy}");
    }
}
