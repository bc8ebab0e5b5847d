//! Differential test of the fused cochlea kernel against a scalar
//! reference model.
//!
//! `Cochlea::process` runs the filter bank and every neuron in one
//! sample-major pass over four-channel chunks (DESIGN.md §15). The
//! reference here is the straightforward model built from the public
//! single-step building blocks: one [`Biquad`] per channel filtering
//! the whole buffer, then one [`IntegrateFireNeuron`] at a time over
//! that band, spikes pushed channel-major and stably sorted by time.
//! The two must produce equal spike trains — same times to the
//! picosecond, same addresses, same order — over random channel counts
//! (including ones that are not a multiple of four), neurons per
//! channel, sample rates, refractory periods (including zero), neuron
//! parameters and audio built from tones, noise, exact-zero stretches
//! and synthesised words, mono and binaural.
//!
//! The case count defaults to a CI-friendly 48 and is raised on the
//! nightly schedule via `AETR_PROPTEST_CASES` (see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;

use aetr_aer::address::Address;
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_cochlea::audio::AudioBuffer;
use aetr_cochlea::filterbank::{Biquad, FilterBank};
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::neuron::{IntegrateFireNeuron, NeuronConfig};
use aetr_cochlea::word::{fig7_word, synthesize_word, WordSegment};
use aetr_sim::time::{SimDuration, SimTime};

fn cases() -> u32 {
    std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// One ear of the scalar reference model, addresses starting at `base`.
fn reference_ear(config: &CochleaConfig, audio: &AudioBuffer, base: usize) -> SpikeTrain {
    let bank = FilterBank::log_spaced(
        config.sample_rate,
        config.channels,
        config.f_lo,
        config.f_hi,
        config.q,
    );
    let dt_secs = 1.0 / config.sample_rate as f64;
    let dt_ps = (dt_secs * 1e12).round() as u64;
    let npc = config.neurons_per_channel;
    let mut spikes = Vec::new();
    for ch in 0..config.channels {
        let mut filter = Biquad::bandpass(config.sample_rate, bank.center_frequency(ch), config.q);
        let band: Vec<f64> = audio.samples().iter().map(|&x| filter.step(x)).collect();
        for j in 0..npc {
            let threshold = config.neuron.threshold * (1.0 + 0.25 * j as f64);
            let mut neuron = IntegrateFireNeuron::new(NeuronConfig { threshold, ..config.neuron });
            let addr = Address::new((base + ch * npc + j) as u16).expect("in range");
            for (i, &x) in band.iter().enumerate() {
                let now = SimTime::from_ps(i as u64 * dt_ps);
                if let Some(frac) = neuron.step_interpolated(now, x, dt_secs) {
                    let offset = (frac * dt_ps as f64).round() as u64;
                    spikes.push(Spike::new(SimTime::from_ps(i as u64 * dt_ps + offset), addr));
                }
            }
        }
    }
    SpikeTrain::from_unsorted(spikes)
}

fn reference_binaural(
    config: &CochleaConfig,
    left: &AudioBuffer,
    right: &AudioBuffer,
) -> SpikeTrain {
    reference_ear(config, left, 0).merge(&reference_ear(config, right, config.addresses_per_ear()))
}

/// A piece of test audio, rendered at the case's sample rate.
#[derive(Debug, Clone)]
enum Segment {
    Tone { hz: f64, amp: f64, ms: u64 },
    Noise { amp: f64, seed: u64, ms: u64 },
    Zeros { ms: u64 },
    Word { pitch: f64, f1: f64, f2: f64, ms: u64 },
}

impl Segment {
    fn render(&self, sample_rate: u32) -> AudioBuffer {
        let secs = |ms: u64| ms as f64 / 1e3;
        match *self {
            Segment::Tone { hz, amp, ms } => AudioBuffer::tone(sample_rate, hz, amp, secs(ms)),
            Segment::Noise { amp, seed, ms } => {
                AudioBuffer::white_noise(sample_rate, amp, secs(ms), seed)
            }
            Segment::Zeros { ms } => AudioBuffer::silence(sample_rate, secs(ms)),
            Segment::Word { pitch, f1, f2, ms } => synthesize_word(
                sample_rate,
                pitch,
                &[
                    WordSegment::Noise { secs: 0.004, level: 0.3 },
                    WordSegment::Voiced { f1, f2, secs: secs(ms) },
                ],
                ms,
            ),
        }
    }
}

fn render(segments: &[Segment], sample_rate: u32) -> AudioBuffer {
    let mut audio = AudioBuffer::silence(sample_rate, 0.0);
    for segment in segments {
        audio.append(&segment.render(sample_rate));
    }
    audio
}

fn arbitrary_segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (40.0f64..3_900.0, 0.05f64..1.0, 2u64..30).prop_map(|(hz, amp, ms)| Segment::Tone {
            hz,
            amp,
            ms
        }),
        (0.05f64..1.0, any::<u64>(), 2u64..30).prop_map(|(amp, seed, ms)| Segment::Noise {
            amp,
            seed,
            ms
        }),
        (1u64..25).prop_map(|ms| Segment::Zeros { ms }),
        ((80.0f64..250.0, 200.0f64..1_000.0), (800.0f64..3_500.0, 10u64..40))
            .prop_map(|((pitch, f1), (f2, ms))| Segment::Word { pitch, f1, f2, ms }),
    ]
}

fn arbitrary_audio() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(arbitrary_segment(), 1..4)
}

fn arbitrary_config() -> impl Strategy<Value = CochleaConfig> {
    let layout = (1usize..81, 1usize..7, 0usize..3);
    let band = (30.0f64..400.0, 0.05f64..1.0, 1.0f64..10.0);
    let neuron = (5_000.0f64..60_000.0, 0.0f64..3_000.0, 0.3f64..2.0);
    let refractory_us = prop_oneof![Just(0u64), 0u64..2_001];
    (layout, band, neuron, refractory_us).prop_map(
        |((channels, npc, rate), (f_lo, span, q), (gain, leak, threshold), refractory_us)| {
            let sample_rate = [8_000, 16_000, 44_100][rate];
            // f_hi anywhere from just above f_lo to 0.45 × the rate.
            let top = 0.45 * sample_rate as f64;
            CochleaConfig {
                sample_rate,
                channels,
                f_lo,
                f_hi: f_lo + (top - f_lo) * span,
                q,
                neurons_per_channel: npc,
                neuron: NeuronConfig {
                    gain,
                    leak,
                    threshold,
                    refractory: SimDuration::from_us(refractory_us),
                },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Mono and binaural: the fused kernel's spike train equals the
    /// scalar reference's.
    #[test]
    fn fused_kernel_matches_the_scalar_reference(
        config in arbitrary_config(),
        left in arbitrary_audio(),
        right in arbitrary_audio(),
        binaural in proptest::bool::ANY,
    ) {
        let cochlea = Cochlea::new(config).expect("generated configs are valid");
        let left = render(&left, config.sample_rate);
        if binaural {
            let right = render(&right, config.sample_rate);
            prop_assert_eq!(
                cochlea.process_binaural(&left, &right),
                reference_binaural(&config, &left, &right)
            );
        } else {
            prop_assert_eq!(cochlea.process(&left), reference_ear(&config, &left, 0));
        }
    }
}

/// Fixed corner cases, so the comparison is never vacuous: every one
/// must spike, on padded and full chunks, with and without a
/// refractory period.
#[test]
fn corner_cases_spike_and_match_the_reference() {
    let loud = |rate| {
        let mut audio = AudioBuffer::white_noise(rate, 0.9, 0.03, 5);
        audio.append(&AudioBuffer::silence(rate, 0.01));
        audio.append(&AudioBuffer::tone(rate, 700.0, 1.0, 0.03));
        audio
    };
    let layouts = [(1, 1), (3, 6), (4, 4), (5, 2), (64, 4), (80, 6)];
    for (channels, npc) in layouts {
        for sample_rate in [8_000, 16_000, 44_100] {
            for refractory in [SimDuration::ZERO, SimDuration::from_us(300)] {
                let config = CochleaConfig {
                    sample_rate,
                    channels,
                    f_lo: 200.0,
                    f_hi: 3_000.0,
                    neurons_per_channel: npc,
                    neuron: NeuronConfig { refractory, ..NeuronConfig::default() },
                    ..CochleaConfig::das1()
                };
                let cochlea = Cochlea::new(config).expect("valid");
                let audio = loud(sample_rate);
                let got = cochlea.process(&audio);
                assert!(!got.is_empty(), "{channels}×{npc} at {sample_rate} Hz never fired");
                assert_eq!(got, reference_ear(&config, &audio, 0), "{config:?}");
            }
        }
    }
}

/// The Fig. 7 word through the DAS1 configuration, both ears.
#[test]
fn das1_word_matches_the_reference_binaurally() {
    let config = CochleaConfig::das1();
    let cochlea = Cochlea::new(config).expect("valid");
    let (left, right) = (fig7_word(16_000, 2), fig7_word(16_000, 3));
    let got = cochlea.process_binaural(&left, &right);
    assert!(got.len() > 1_000);
    assert_eq!(got, reference_binaural(&config, &left, &right));
}
