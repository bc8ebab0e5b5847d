//! Keyword spotting through the whole stack — the paper's title made
//! measurable.
//!
//! Three synthetic "keywords" (distinct formant tracks) are spoken
//! with per-instance variation (pitch shift, noise level, seed); the
//! cochlea converts them to spikes; features are extracted either from
//! the *raw sensor stream* or from the *AETR-quantized, reconstructed
//! stream* — so classification accuracy directly measures how much
//! information the interface preserved.

use serde::{Deserialize, Serialize};

use aetr::quantizer::{quantize_train, reconstruct_train};
use aetr_aer::spike::SpikeTrain;
use aetr_clockgen::config::ClockGenConfig;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::{synthesize_word, WordSegment};
use aetr_sim::time::{SimDuration, SimTime};

use crate::classifier::{evaluate, CentroidModel, Evaluation, TrainError};
use crate::features::{extract, FeatureConfig, FeatureVector};

/// The keyword vocabulary: label and formant script.
pub fn vocabulary() -> Vec<(&'static str, Vec<WordSegment>)> {
    vec![
        (
            "open",
            vec![
                WordSegment::Voiced { f1: 570.0, f2: 840.0, secs: 0.12 }, // /o/
                WordSegment::Voiced { f1: 270.0, f2: 2_290.0, secs: 0.08 }, // /i/-ish glide
                WordSegment::Noise { secs: 0.05, level: 0.25 },           // /p~n/ burst
            ],
        ),
        (
            "stop",
            vec![
                WordSegment::Noise { secs: 0.08, level: 0.35 }, // /s-t/
                WordSegment::Silence { secs: 0.03 },
                WordSegment::Voiced { f1: 500.0, f2: 900.0, secs: 0.12 }, // /o/
                WordSegment::Noise { secs: 0.04, level: 0.3 },            // /p/
            ],
        ),
        (
            "left",
            vec![
                WordSegment::Voiced { f1: 400.0, f2: 2_100.0, secs: 0.08 }, // /l-e/
                WordSegment::Voiced { f1: 550.0, f2: 1_900.0, secs: 0.10 },
                WordSegment::Noise { secs: 0.06, level: 0.3 }, // /ft/
            ],
        ),
    ]
}

/// One spoken instance of a keyword, with per-instance variation.
pub fn speak(label: &str, instance: u64) -> SpikeTrain {
    let script = vocabulary()
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("unknown keyword {label}"))
        .1;
    // Vary pitch ±15% and seed per instance.
    let pitch = 120.0 * (1.0 + 0.15 * (((instance * 7919) % 100) as f64 / 50.0 - 1.0));
    let audio = synthesize_word(16_000, pitch, &script, instance);
    let cochlea = Cochlea::new(CochleaConfig::das1()).expect("valid DAS1 config");
    cochlea.process(&audio)
}

/// How the features were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pipeline {
    /// Straight from the sensor (the upper bound).
    Raw,
    /// Through AER→AETR quantization and MCU-side reconstruction.
    Quantized,
}

/// Extracts keyword features through the chosen pipeline.
pub fn features_for(
    train: &SpikeTrain,
    pipeline: Pipeline,
    clock: &ClockGenConfig,
) -> FeatureVector {
    let cfg = FeatureConfig::das1_channels();
    match pipeline {
        Pipeline::Raw => extract(train, &cfg),
        Pipeline::Quantized => {
            let horizon =
                train.last_time().unwrap_or(SimTime::ZERO).saturating_add(SimDuration::from_ms(1));
            let out = quantize_train(clock, train, horizon);
            let rebuilt = reconstruct_train(&out.events(), out.base_period, SimTime::ZERO);
            extract(&rebuilt, &cfg)
        }
    }
}

/// Trains on `train_instances` spoken instances per keyword and
/// evaluates on `test_instances` fresh ones, all through `pipeline`.
///
/// # Errors
///
/// Propagates [`TrainError`] (only possible with an empty vocabulary).
pub fn run_experiment(
    pipeline: Pipeline,
    clock: &ClockGenConfig,
    train_instances: u64,
    test_instances: u64,
) -> Result<Evaluation, TrainError> {
    let mut training = Vec::new();
    for (label, _) in vocabulary() {
        for i in 0..train_instances {
            let spikes = speak(label, i);
            training.push((label.to_owned(), features_for(&spikes, pipeline, clock)));
        }
    }
    let model = CentroidModel::train(training)?;

    let mut test_set = Vec::new();
    for (label, _) in vocabulary() {
        for i in 0..test_instances {
            let spikes = speak(label, 1_000 + i);
            test_set.push((label, features_for(&spikes, pipeline, clock)));
        }
    }
    Ok(evaluate(&model, test_set.iter().map(|(l, f)| (*l, f))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_distinguishable_raw() {
        let clock = ClockGenConfig::prototype();
        let eval = run_experiment(Pipeline::Raw, &clock, 3, 3).unwrap();
        assert!(
            eval.accuracy() >= 0.8,
            "raw accuracy {:.2} ({:?})",
            eval.accuracy(),
            eval.confusion
        );
    }

    #[test]
    fn quantization_preserves_classification() {
        // The headline: information survives the interface.
        let clock = ClockGenConfig::prototype();
        let raw = run_experiment(Pipeline::Raw, &clock, 3, 3).unwrap();
        let quantized = run_experiment(Pipeline::Quantized, &clock, 3, 3).unwrap();
        assert!(
            quantized.accuracy() >= raw.accuracy() - 0.12,
            "quantized {:.2} vs raw {:.2}",
            quantized.accuracy(),
            raw.accuracy()
        );
    }

    #[test]
    fn instances_vary_but_keep_identity() {
        let a = speak("open", 1);
        let b = speak("open", 2);
        assert_ne!(a, b, "instances must differ");
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown keyword")]
    fn unknown_keyword_panics() {
        let _ = speak("xyzzy", 0);
    }
}
