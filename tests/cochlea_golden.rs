//! Golden pins of the cochlea model's output.
//!
//! Each case hashes the `(time_ps, addr)` pairs of one spike train, in
//! train order, with 64-bit FNV-1a and pins the hash and the spike
//! count. The expected values were recorded from the original
//! per-channel implementation (one band buffer per channel, one neuron
//! at a time, stable sort by time), so any change to the cochlea
//! kernel must reproduce that implementation's spikes bit for bit, not
//! just agree with the scalar reference model in
//! `tests/cochlea_differential.rs`.

use aetr_aer::spike::SpikeTrain;
use aetr_apps::keyword::{speak, vocabulary};
use aetr_cochlea::audio::AudioBuffer;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::neuron::NeuronConfig;
use aetr_cochlea::word::fig7_word;
use aetr_sim::time::SimDuration;

/// `(spike count, FNV-1a 64 over little-endian time_ps ‖ addr)`.
fn fingerprint(train: &SpikeTrain) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for s in train {
        let bytes = s.time.as_ps().to_le_bytes().into_iter().chain(s.addr.value().to_le_bytes());
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (train.len(), hash)
}

fn das1() -> Cochlea {
    Cochlea::new(CochleaConfig::das1()).expect("valid DAS1 config")
}

#[test]
fn fig7_words_match_the_recorded_spikes() {
    let cochlea = das1();
    let expected = [
        (1, (11_794, 14_207_020_084_313_779_205)),
        (4, (11_808, 3_523_702_907_359_314_787)),
        (0xF17, (11_814, 772_994_276_222_762_272)),
    ];
    for (seed, pin) in expected {
        let got = fingerprint(&cochlea.process(&fig7_word(16_000, seed)));
        assert_eq!(got, pin, "fig7_word(16 kHz, seed {seed:#x})");
    }
}

#[test]
fn keyword_vocabulary_matches_the_recorded_spikes() {
    let expected = [
        ("open", (5_171, 13_432_701_242_030_584_994)),
        ("stop", (3_756, 6_776_708_890_100_161_969)),
        ("left", (5_207, 8_959_933_218_346_262_195)),
    ];
    let labels: Vec<&str> = vocabulary().into_iter().map(|(label, _)| label).collect();
    assert_eq!(labels, expected.map(|(label, _)| label), "vocabulary changed");
    for (label, pin) in expected {
        assert_eq!(fingerprint(&speak(label, 0)), pin, "speak({label:?}, 0)");
    }
}

#[test]
fn binaural_tone_pair_matches_the_recorded_spikes() {
    let left = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.15);
    let right = AudioBuffer::tone(16_000, 1_300.0, 0.6, 0.15);
    let got = fingerprint(&das1().process_binaural(&left, &right));
    assert_eq!(got, (17_796, 13_463_398_813_278_674_324));
}

#[test]
fn padded_chunk_config_matches_the_recorded_spikes() {
    // 30 channels (not a multiple of 4), 3 neurons, 44.1 kHz and no
    // refractory period: the corners of the kernel's layout.
    let config = CochleaConfig {
        sample_rate: 44_100,
        channels: 30,
        neurons_per_channel: 3,
        neuron: NeuronConfig { refractory: SimDuration::ZERO, ..NeuronConfig::default() },
        ..CochleaConfig::das1()
    };
    let cochlea = Cochlea::new(config).expect("valid config");
    let mut audio = AudioBuffer::white_noise(44_100, 0.6, 0.05, 17);
    audio.append(&AudioBuffer::silence(44_100, 0.02));
    audio.append(&AudioBuffer::tone(44_100, 2_500.0, 0.9, 0.05));
    let got = fingerprint(&cochlea.process(&audio));
    assert_eq!(got, (3_090, 7_356_855_055_756_975_871));
}
