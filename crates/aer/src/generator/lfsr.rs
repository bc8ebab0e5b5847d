//! LFSR-based pseudo-random spike generator.
//!
//! Section 5.2 of the paper: *"We added to the design a variable rate
//! pseudo-random spike generator based on a linear-feedback shift
//! register to feed the system with a fixed rate spike stream and
//! measure power directly on the FPGA board."*
//!
//! This module models that stimulus block: a Galois LFSR supplies both
//! the event addresses and a bounded pseudo-random jitter around the
//! nominal inter-event interval, producing a fixed-rate but
//! non-periodic stream — exactly what a power sweep wants (periodic
//! streams would beat against the divided clock and bias the
//! measurement).

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

use crate::address::Address;
use crate::spike::{Spike, SpikeTrain};

use super::{collect_until, SpikeSource};

/// A 32-bit Galois linear-feedback shift register (taps 32, 30, 26, 25;
/// maximal-length polynomial `0xA3000000` in Galois form).
///
/// # Examples
///
/// ```
/// use aetr_aer::generator::Lfsr;
///
/// let mut lfsr = Lfsr::new(0xACE1);
/// let a = lfsr.next_bits(10);
/// let b = lfsr.next_bits(10);
/// assert!(a < 1024 && b < 1024);
/// assert_ne!((a, b), (0, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lfsr {
    state: u32,
}

impl Lfsr {
    /// Galois feedback mask for taps (32, 30, 26, 25).
    const TAPS: u32 = 0xA300_0000;

    /// Eight steps at once: the register after stepping from `s` is
    /// `(s >> 8) ^ BYTE_STEP[s & 0xff]`, and the eight output bits are
    /// `s & 0xff`.
    ///
    /// Every tap sits at bit 24 or above, and a feedback XOR moves down
    /// one bit per step, so within eight steps none reaches bit 0: the
    /// outputs are the state's low byte as it stands. The feedback of
    /// step `j` (output bit `j` set) is `TAPS` shifted right by the
    /// `7 − j` steps still to come.
    const BYTE_STEP: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut byte = 0;
        while byte < 256 {
            let mut j = 0;
            while j < 8 {
                if (byte >> j) & 1 != 0 {
                    table[byte] ^= Self::TAPS >> (7 - j);
                }
                j += 1;
            }
            byte += 1;
        }
        table
    };

    /// Creates an LFSR. A zero seed (the lock-up state) is mapped to 1.
    pub fn new(seed: u32) -> Lfsr {
        Lfsr { state: if seed == 0 { 1 } else { seed } }
    }

    /// Advances one step and returns the output bit.
    ///
    /// This is the bit-serial reference that [`next_bits`]'
    /// byte-at-a-time stepping is tested against.
    ///
    /// [`next_bits`]: Lfsr::next_bits
    pub fn next_bit(&mut self) -> bool {
        let out = self.state & 1 != 0;
        self.state >>= 1;
        if out {
            self.state ^= Self::TAPS;
        }
        out
    }

    /// Gathers `n` successive output bits into the low bits of a `u32`
    /// (first bit is the LSB).
    ///
    /// Whole bytes are stepped eight bits at a time through a lookup
    /// table, the remainder one bit at a time; the bits and the final
    /// state are those of `n` calls to [`next_bit`](Lfsr::next_bit).
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn next_bits(&mut self, n: u32) -> u32 {
        assert!(n <= 32, "cannot gather more than 32 bits, asked for {n}");
        let mut v = 0;
        let mut i = 0;
        while i + 8 <= n {
            let byte = self.state & 0xff;
            v |= byte << i;
            self.state = (self.state >> 8) ^ Self::BYTE_STEP[byte as usize];
            i += 8;
        }
        while i < n {
            v |= (self.next_bit() as u32) << i;
            i += 1;
        }
        v
    }

    /// Current register state (never zero).
    pub fn state(&self) -> u32 {
        self.state
    }
}

/// Fixed-nominal-rate spike generator driven by an [`Lfsr`], modelling
/// the paper's on-FPGA stimulus block for the Fig. 8 power sweep.
///
/// Each inter-event interval is the nominal period `1 / rate` modulated
/// by a pseudo-random factor in `[1 - jitter, 1 + jitter]` drawn from
/// the LFSR, so the long-run rate is exact while short-term arrivals
/// are uncorrelated with the sampling clock.
///
/// # Examples
///
/// ```
/// use aetr_aer::generator::{LfsrGenerator, SpikeSource};
/// use aetr_sim::time::SimTime;
///
/// let mut gen = LfsrGenerator::new(550_000.0, 0xBEEF);
/// let train = gen.generate(SimTime::from_ms(10));
/// let rate = train.mean_rate();
/// assert!((rate - 550_000.0).abs() / 550_000.0 < 0.02);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LfsrGenerator {
    nominal_period: SimDuration,
    jitter: f64,
    lfsr: Lfsr,
    now: SimTime,
    /// Running error accumulator (ps) keeping the long-run rate exact
    /// despite per-interval jitter rounding.
    drift_ps: i64,
}

impl LfsrGenerator {
    /// Default jitter amplitude: ±50 % of the nominal period.
    pub const DEFAULT_JITTER: f64 = 0.5;

    /// Creates a generator with the given nominal rate (events per
    /// second) and LFSR seed, using [`Self::DEFAULT_JITTER`].
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not strictly positive and finite.
    pub fn new(rate_hz: f64, seed: u32) -> LfsrGenerator {
        Self::with_jitter(rate_hz, Self::DEFAULT_JITTER, seed)
    }

    /// Creates a generator with an explicit jitter amplitude in
    /// `[0, 0.95]` (fraction of the nominal period).
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not strictly positive and finite or the
    /// jitter is out of range.
    pub fn with_jitter(rate_hz: f64, jitter: f64, seed: u32) -> LfsrGenerator {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "LFSR generator rate must be positive and finite, got {rate_hz}"
        );
        assert!((0.0..=0.95).contains(&jitter), "jitter must be in [0, 0.95], got {jitter}");
        LfsrGenerator {
            nominal_period: SimDuration::from_secs_f64(1.0 / rate_hz),
            jitter,
            lfsr: Lfsr::new(seed),
            now: SimTime::ZERO,
            drift_ps: 0,
        }
    }

    /// The nominal inter-event period.
    pub fn nominal_period(&self) -> SimDuration {
        self.nominal_period
    }
}

impl SpikeSource for LfsrGenerator {
    /// Collects every spike strictly before `until`, pre-sized from the
    /// nominal rate: the mean interval is held at the nominal period,
    /// so the count misses `(until − now) / period` by at most a few
    /// spikes.
    fn generate(&mut self, until: SimTime) -> SpikeTrain {
        let span = until.saturating_duration_since(self.now).as_ps();
        let expected = span / self.nominal_period.as_ps().max(1);
        collect_until(self, until, expected.saturating_add(2) as usize)
    }

    fn next_spike(&mut self) -> Option<Spike> {
        // 16 LFSR bits -> uniform factor in [1 - jitter, 1 + jitter].
        let raw = self.lfsr.next_bits(16) as f64 / 65_535.0; // [0, 1]
        let factor = 1.0 + self.jitter * (2.0 * raw - 1.0);
        let nominal = self.nominal_period.as_ps() as i64;
        let jittered = (nominal as f64 * factor).round() as i64;
        // Correct accumulated drift so the mean interval stays nominal.
        let correction = self.drift_ps.clamp(-nominal / 2, nominal / 2);
        let interval = (jittered - correction).max(1);
        self.drift_ps += interval - nominal;
        self.now = self.now.saturating_add(SimDuration::from_ps(interval as u64));
        let addr = Address::from_raw_masked(self.lfsr.next_bits(10) as u16);
        Some(Spike::new(self.now, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::super::assert_time_ordered;
    use super::*;

    #[test]
    fn lfsr_is_maximal_length_like() {
        // The sequence must not repeat in a short window and never hits 0.
        let mut lfsr = Lfsr::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100_000 {
            assert_ne!(lfsr.state(), 0);
            seen.insert(lfsr.state());
            lfsr.next_bit();
        }
        assert_eq!(seen.len(), 100_000, "states repeated too early for a maximal LFSR");
    }

    #[test]
    fn zero_seed_is_remapped() {
        assert_eq!(Lfsr::new(0).state(), 1);
    }

    #[test]
    fn bit_balance_is_roughly_even() {
        let mut lfsr = Lfsr::new(0xDEAD_BEEF);
        let ones: u32 = (0..10_000).map(|_| lfsr.next_bit() as u32).sum();
        assert!((4_500..5_500).contains(&ones), "bit bias: {ones}/10000 ones");
    }

    #[test]
    fn long_run_rate_is_exact() {
        for &rate in &[1_000.0, 10_000.0, 550_000.0, 800_000.0] {
            let mut gen = LfsrGenerator::new(rate, 0x1234);
            let train = gen.generate(SimTime::from_ms(200));
            let measured = train.mean_rate();
            let rel = (measured - rate).abs() / rate;
            assert!(rel < 0.01, "rate {rate}: measured {measured}");
        }
    }

    #[test]
    fn intervals_are_jittered_not_periodic() {
        let mut gen = LfsrGenerator::new(100_000.0, 42);
        let train = gen.generate(SimTime::from_ms(10));
        let isis: std::collections::HashSet<u64> =
            train.inter_spike_intervals().map(|d| d.as_ps()).collect();
        assert!(isis.len() > 100, "expected diverse intervals, got {}", isis.len());
    }

    #[test]
    fn zero_jitter_is_periodic() {
        let mut gen = LfsrGenerator::with_jitter(100_000.0, 0.0, 42);
        let train = gen.generate(SimTime::from_ms(1));
        let isis: std::collections::HashSet<u64> =
            train.inter_spike_intervals().map(|d| d.as_ps()).collect();
        assert_eq!(isis.len(), 1, "zero jitter must be exactly periodic");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = LfsrGenerator::new(50_000.0, 7).generate(SimTime::from_ms(20));
        let b = LfsrGenerator::new(50_000.0, 7).generate(SimTime::from_ms(20));
        assert_eq!(a, b);
        assert_time_ordered(&a);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn excessive_jitter_panics() {
        let _ = LfsrGenerator::with_jitter(1_000.0, 0.99, 1);
    }
}
