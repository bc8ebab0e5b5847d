//! Differential pinning of the byte-at-a-time LFSR step against the
//! bit-serial reference: random seeds drive an [`Lfsr`] through a
//! random sequence of `next_bits(n)` draws, `n` in `0..=32`, next to a
//! copy stepped by `n` calls to `next_bit`. Every draw and every
//! intermediate `state()` must agree, and an [`LfsrGenerator`]'s
//! addresses must be the ones the serial step draws.
//!
//! The case count defaults to a CI-friendly 48 and is raised on the
//! nightly schedule via `AETR_PROPTEST_CASES` (see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;

use aetr_aer::generator::{Lfsr, LfsrGenerator, SpikeSource};
use aetr_sim::time::SimTime;

fn cases() -> u32 {
    std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// `n` bit-serial steps gathered LSB first.
fn serial_bits(lfsr: &mut Lfsr, n: u32) -> u32 {
    (0..n).fold(0, |v, i| v | u32::from(lfsr.next_bit()) << i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn next_bits_matches_the_serial_step(
        seed in any::<u32>(),
        widths in proptest::collection::vec(0u32..33, 1..400),
    ) {
        let mut fast = Lfsr::new(seed);
        let mut serial = Lfsr::new(seed);
        for (k, &n) in widths.iter().enumerate() {
            let want = serial_bits(&mut serial, n);
            prop_assert_eq!(fast.next_bits(n), want, "draw {} of width {}", k, n);
            prop_assert_eq!(fast.state(), serial.state(), "state after draw {}", k);
        }
    }

    #[test]
    fn generator_addresses_match_the_serial_step(seed in any::<u32>(), rate_khz in 1u32..600) {
        let rate_hz = f64::from(rate_khz) * 1e3;
        let train = LfsrGenerator::new(rate_hz, seed).generate(SimTime::from_us(500));
        // The generator draws 16 jitter bits, then 10 address bits, per
        // spike; replay that on the serial step.
        let mut serial = Lfsr::new(seed);
        for spike in &train {
            serial_bits(&mut serial, 16);
            prop_assert_eq!(u32::from(spike.addr.value()), serial_bits(&mut serial, 10));
        }
    }
}
