//! # aetr-cochlea — synthetic silicon-cochlea sensor
//!
//! The substitution for the Cochlea AMS C1c (iniLabs DAS1) sensor the
//! paper interfaces with: [audio synthesis](audio) (tones, noise,
//! formant ["words"](word)), a log-spaced band-pass
//! [filter bank](filterbank), half-wave-rectifying leaky
//! integrate-and-fire [neurons](neuron), and the assembled binaural
//! [`model::Cochlea`] producing AER spike trains.
//!
//! # Examples
//!
//! The Fig. 7a pipeline — synthesize a word, listen with the cochlea:
//!
//! ```
//! use aetr_cochlea::model::{Cochlea, CochleaConfig};
//! use aetr_cochlea::word::fig7_word;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cochlea = Cochlea::new(CochleaConfig::das1())?;
//! let spikes = cochlea.process(&fig7_word(16_000, 42));
//! assert!(spikes.len() > 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audio;
pub mod filterbank;
pub mod model;
pub mod neuron;
pub mod word;

pub use audio::AudioBuffer;
pub use model::{Cochlea, CochleaConfig, Ear};
