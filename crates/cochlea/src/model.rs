//! The assembled silicon-cochlea sensor model.
//!
//! Audio → band-pass filter bank → half-wave rectification → leaky
//! integrate-and-fire per channel → AER spike train. This is the
//! substitution for the Cochlea AMS C1c (DAS1) used in the paper's
//! Fig. 7 experiment: 64 channels per ear, optionally binaural.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_aer::address::Address;
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_sim::time::{SimDuration, SimTime};

use crate::audio::AudioBuffer;
use crate::filterbank::{log_spaced_center, ChunkState, FilterBank, Lanes, LANES};
use crate::neuron::NeuronConfig;

/// Which ear produced a spike (binaural sensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ear {
    /// Left microphone.
    Left,
    /// Right microphone.
    Right,
}

/// Cochlea model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CochleaConfig {
    /// Audio sample rate the model expects.
    pub sample_rate: u32,
    /// Channels per ear (the AMS C1c has 64).
    pub channels: usize,
    /// Lowest centre frequency (Hz).
    pub f_lo: f64,
    /// Highest centre frequency (Hz).
    pub f_hi: f64,
    /// Filter quality factor.
    pub q: f64,
    /// Ganglion cells per channel (the DAS1 has 4, with staggered
    /// thresholds).
    pub neurons_per_channel: usize,
    /// Spike-generation (inner hair cell) parameters of the first
    /// neuron; subsequent neurons get progressively higher thresholds.
    pub neuron: NeuronConfig,
}

impl CochleaConfig {
    /// DAS1-like defaults: 64 channels, 100 Hz – 6 kHz, Q = 5, 16 kHz
    /// audio.
    pub fn das1() -> CochleaConfig {
        CochleaConfig {
            sample_rate: 16_000,
            channels: 64,
            f_lo: 100.0,
            f_hi: 6_000.0,
            q: 5.0,
            neurons_per_channel: 4,
            neuron: NeuronConfig::default(),
        }
    }

    /// Validates the neuron array against the 10-bit AER bus (binaural
    /// needs `2 × channels × neurons_per_channel` addresses), the filter
    /// bank design and the neuron parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CochleaConfigError`] if the address space would
    /// overflow or the array is empty, if the sample rate is zero, if
    /// the band is not `0 < f_lo < f_hi` with every centre frequency
    /// below Nyquist, if `q` is not positive, or if the neuron's gain
    /// or threshold is not positive or its leak is negative. Comparisons
    /// are written so NaN fails them.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // negated on purpose: NaN must fail
    pub fn validate(&self) -> Result<(), CochleaConfigError> {
        if self.channels == 0 || self.neurons_per_channel == 0 {
            return Err(CochleaConfigError::NoChannels);
        }
        if self.channels * self.neurons_per_channel * 2 > 1 << 10 {
            return Err(CochleaConfigError::TooManyChannels { channels: self.channels });
        }
        if self.sample_rate == 0 {
            return Err(CochleaConfigError::ZeroSampleRate);
        }
        let (f_lo, f_hi) = (self.f_lo, self.f_hi);
        if !(0.0 < f_lo && f_lo < f_hi) {
            return Err(CochleaConfigError::InvalidBand { f_lo, f_hi });
        }
        let nyquist = self.sample_rate as f64 / 2.0;
        // The designed centres, not just f_hi: `f_lo·(f_hi/f_lo)^1` can
        // round above f_hi.
        let center = |i| log_spaced_center(i, self.channels, f_lo, f_hi);
        if !(f_hi < nyquist) || (0..self.channels).any(|i| !(center(i) < nyquist)) {
            return Err(CochleaConfigError::AboveNyquist { f_hi, nyquist });
        }
        if !(self.q > 0.0) {
            return Err(CochleaConfigError::NonPositiveQ { q: self.q });
        }
        let NeuronConfig { gain, leak, threshold, .. } = self.neuron;
        if !(gain > 0.0) {
            return Err(CochleaConfigError::NonPositiveGain { gain });
        }
        if !(threshold > 0.0) {
            return Err(CochleaConfigError::NonPositiveThreshold { threshold });
        }
        if !(leak >= 0.0) {
            return Err(CochleaConfigError::NegativeLeak { leak });
        }
        Ok(())
    }

    /// Addresses used per ear.
    pub fn addresses_per_ear(&self) -> usize {
        self.channels * self.neurons_per_channel
    }
}

impl Default for CochleaConfig {
    fn default() -> Self {
        Self::das1()
    }
}

/// Configuration errors of the cochlea model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CochleaConfigError {
    /// Zero channels or zero neurons per channel.
    NoChannels,
    /// The binaural address space would exceed the 10-bit AER bus.
    TooManyChannels {
        /// Offending channel count.
        channels: usize,
    },
    /// The audio sample rate is zero.
    ZeroSampleRate,
    /// The band is not `0 < f_lo < f_hi`.
    InvalidBand {
        /// Lowest centre frequency (Hz).
        f_lo: f64,
        /// Highest centre frequency (Hz).
        f_hi: f64,
    },
    /// A centre frequency reaches the Nyquist frequency.
    AboveNyquist {
        /// Highest centre frequency (Hz).
        f_hi: f64,
        /// Half the sample rate (Hz).
        nyquist: f64,
    },
    /// The filter quality factor is not positive.
    NonPositiveQ {
        /// Offending quality factor.
        q: f64,
    },
    /// The neuron input gain is not positive.
    NonPositiveGain {
        /// Offending gain.
        gain: f64,
    },
    /// The neuron firing threshold is not positive.
    NonPositiveThreshold {
        /// Offending threshold.
        threshold: f64,
    },
    /// The neuron membrane leak is negative.
    NegativeLeak {
        /// Offending leak rate (1/s).
        leak: f64,
    },
}

impl fmt::Display for CochleaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CochleaConfigError::NoChannels => {
                write!(f, "cochlea needs at least one channel and one neuron per channel")
            }
            CochleaConfigError::TooManyChannels { channels } => {
                write!(f, "{channels} channels per ear exceeds the 10-bit binaural address space")
            }
            CochleaConfigError::ZeroSampleRate => write!(f, "cochlea sample rate must be non-zero"),
            CochleaConfigError::InvalidBand { f_lo, f_hi } => {
                write!(f, "band [{f_lo}, {f_hi}] Hz must be positive and ordered")
            }
            CochleaConfigError::AboveNyquist { f_hi, nyquist } => {
                write!(f, "highest centre frequency {f_hi} Hz must be below Nyquist ({nyquist} Hz)")
            }
            CochleaConfigError::NonPositiveQ { q } => {
                write!(f, "filter Q must be positive, got {q}")
            }
            CochleaConfigError::NonPositiveGain { gain } => {
                write!(f, "neuron gain must be positive, got {gain}")
            }
            CochleaConfigError::NonPositiveThreshold { threshold } => {
                write!(f, "neuron threshold must be positive, got {threshold}")
            }
            CochleaConfigError::NegativeLeak { leak } => {
                write!(f, "neuron leak must be non-negative, got {leak}")
            }
        }
    }
}

impl Error for CochleaConfigError {}

/// The cochlea sensor model.
///
/// # Examples
///
/// ```
/// use aetr_cochlea::audio::AudioBuffer;
/// use aetr_cochlea::model::{Cochlea, CochleaConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cochlea = Cochlea::new(CochleaConfig::das1())?;
/// let tone = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.2);
/// let spikes = cochlea.process(&tone);
/// assert!(!spikes.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cochlea {
    config: CochleaConfig,
    bank: FilterBank,
}

impl Cochlea {
    /// Creates a cochlea model.
    ///
    /// # Errors
    ///
    /// Returns [`CochleaConfigError`] if the configuration is invalid.
    pub fn new(config: CochleaConfig) -> Result<Cochlea, CochleaConfigError> {
        config.validate()?;
        let bank = FilterBank::log_spaced(
            config.sample_rate,
            config.channels,
            config.f_lo,
            config.f_hi,
            config.q,
        );
        Ok(Cochlea { config, bank })
    }

    /// The configuration.
    pub fn config(&self) -> &CochleaConfig {
        &self.config
    }

    /// Encodes `(ear, channel, neuron)` into an AER address:
    /// `addr = ear · channels · neurons + channel · neurons + neuron`.
    pub fn address_of(&self, ear: Ear, channel: usize, neuron: usize) -> Address {
        let per_ear = self.config.addresses_per_ear();
        let base = match ear {
            Ear::Left => 0,
            Ear::Right => per_ear,
        };
        Address::new((base + channel * self.config.neurons_per_channel + neuron) as u16)
            .expect("validated address space")
    }

    /// Decodes an address back into `(ear, channel, neuron)`, or
    /// `None` if it is outside this sensor's range.
    pub fn decode_address(&self, addr: Address) -> Option<(Ear, usize, usize)> {
        let v = addr.value() as usize;
        let per_ear = self.config.addresses_per_ear();
        let (ear, rest) = if v < per_ear {
            (Ear::Left, v)
        } else if v < 2 * per_ear {
            (Ear::Right, v - per_ear)
        } else {
            return None;
        };
        Some((ear, rest / self.config.neurons_per_channel, rest % self.config.neurons_per_channel))
    }

    /// Runs mono audio through the left ear, producing a spike train.
    ///
    /// # Panics
    ///
    /// Panics if the audio's sample rate differs from the model's.
    pub fn process(&self, audio: &AudioBuffer) -> SpikeTrain {
        let mut spikes = Vec::new();
        self.process_ear(audio, Ear::Left, &mut spikes);
        into_train(spikes)
    }

    /// Runs a stereo pair, merging both ears' spikes into one train.
    ///
    /// # Panics
    ///
    /// Panics if either buffer's sample rate differs from the model's.
    pub fn process_binaural(&self, left: &AudioBuffer, right: &AudioBuffer) -> SpikeTrain {
        let mut spikes = Vec::new();
        self.process_ear(left, Ear::Left, &mut spikes);
        self.process_ear(right, Ear::Right, &mut spikes);
        into_train(spikes)
    }

    /// The fused kernel: one sample-major pass through the filter bank
    /// and every neuron of one ear, with no band buffers. Channels are
    /// stepped in chunks of [`LANES`]; each chunk's rectified band
    /// output drives its `neurons_per_channel` neuron lanes, and only a
    /// neuron chunk with a lane at or above threshold leaves the
    /// branch-free path for [`FireContext::fire`]. Spikes are appended
    /// in generation order; the caller sorts them.
    ///
    /// Every lane evaluates the expressions of `Biquad::step` and
    /// `IntegrateFireNeuron::step_interpolated` in the same order, so
    /// the spikes are bit-identical to that scalar model (DESIGN.md
    /// §15).
    fn process_ear(&self, audio: &AudioBuffer, ear: Ear, spikes: &mut Vec<Spike>) {
        assert_eq!(audio.sample_rate(), self.config.sample_rate, "sample-rate mismatch");
        let npc = self.config.neurons_per_channel;
        let dt_secs = 1.0 / self.config.sample_rate as f64;
        let NeuronConfig { gain, leak, threshold, refractory } = self.config.neuron;
        let kernel = FireContext {
            cochlea: self,
            ear,
            leak,
            dt_secs,
            dt_ps: (dt_secs * 1e12).round() as u64,
            refractory,
        };
        // Staggered thresholds, like the DAS1's four ganglion cells per
        // channel: higher-index cells need stronger drive and fire
        // later within a cycle.
        let thresholds: Vec<f64> = (0..npc).map(|j| threshold * (1.0 + 0.25 * j as f64)).collect();
        let chunks = self.bank.chunks();
        let mut filters = vec![ChunkState::default(); chunks.len()];
        // Neuron-major within each chunk: lanes of neuron `j` of chunk
        // `c` live at `c * npc + j`.
        let mut cells = vec![NeuronLanes::default(); chunks.len() * npc];
        let (mut x1, mut x2) = (0.0, 0.0);
        for (i, &x) in audio.samples().iter().enumerate() {
            let now = i as f64;
            let lanes = chunks.iter().zip(&mut filters).zip(cells.chunks_exact_mut(npc));
            for (c, ((chunk, filter), chunk_cells)) in lanes.enumerate() {
                // Half-wave rectification, shared by the chunk's neurons.
                let drive = chunk.step(filter, x, x1, x2).map(|y| gain * y.max(0.0));
                for (j, (cell, &theta)) in chunk_cells.iter_mut().zip(&thresholds).enumerate() {
                    let next = cell.step(now, drive, leak, dt_secs);
                    if below(next, theta) {
                        cell.potential = next;
                    } else {
                        kernel.fire(cell, drive, theta, i, c * LANES, j, spikes);
                    }
                }
            }
            (x2, x1) = (x1, x);
        }
    }
}

/// Sorts spikes by `(time, addr)`: the order a stable sort by time gives
/// spikes pushed channel-major, as the per-channel model did (spikes
/// with the same time come in ascending address order). Two spikes with
/// the same key are the same value, so an unstable sort is exact.
fn into_train(mut spikes: Vec<Spike>) -> SpikeTrain {
    spikes.sort_unstable_by_key(|s| (s.time, s.addr.value()));
    SpikeTrain::from_sorted(spikes).expect("sorted by time")
}

/// One neuron index of one chunk: [`LANES`] integrate-and-fire cells.
#[derive(Debug, Clone, Copy, Default)]
struct NeuronLanes {
    /// Membrane potentials.
    potential: Lanes,
    /// First sample index at which each lane may step again:
    /// `ceil(refractory_until_ps / dt_ps)`, so `i >= ready_at` exactly
    /// when `i · dt_ps >= refractory_until_ps`. Held as `f64` (exact
    /// below 2⁵³) so the comparison stays in the vector registers.
    ready_at: Lanes,
}

impl NeuronLanes {
    /// The lanes' potentials after one sample at index `now` with
    /// rectified, gain-scaled input `drive`. Lanes still refractory
    /// keep their potential, which is exactly `0.0`: a lane only turns
    /// refractory by firing, which resets it to zero.
    #[inline(always)]
    fn step(&self, now: f64, drive: Lanes, leak: f64, dt_secs: f64) -> Lanes {
        std::array::from_fn(|l| {
            let before = self.potential[l];
            let after = before + (drive[l] - leak * before) * dt_secs;
            if now >= self.ready_at[l] {
                after
            } else {
                before
            }
        })
    }
}

/// `true` if no lane of `next` reaches `theta > 0`, so none fires.
///
/// Branch-free reduction with `a > b ? a : b`, which LLVM lowers to
/// `maxpd`. A NaN lane never fires but can hide another lane behind a
/// NaN result; NaN compares false, so the check then answers "maybe"
/// and [`FireContext::fire`] decides lane by lane.
#[inline(always)]
fn below(next: Lanes, theta: f64) -> bool {
    let hi = |a: f64, b: f64| if a > b { a } else { b };
    hi(hi(next[0], next[2]), hi(next[1], next[3])) < theta
}

/// Per-ear constants of the kernel's firing slow path.
struct FireContext<'a> {
    cochlea: &'a Cochlea,
    ear: Ear,
    leak: f64,
    dt_secs: f64,
    dt_ps: u64,
    refractory: SimDuration,
}

impl FireContext<'_> {
    /// Re-steps `cell` (the same expressions, so the same values) and,
    /// for every lane that reached `theta`, emits its spike and starts
    /// its refractory period: sub-sample crossing time by linear
    /// interpolation of the membrane trajectory across the sample.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        cell: &mut NeuronLanes,
        drive: Lanes,
        theta: f64,
        sample: usize,
        first_channel: usize,
        neuron: usize,
        spikes: &mut Vec<Spike>,
    ) {
        let now_ps = sample as u64 * self.dt_ps;
        let next = cell.step(sample as f64, drive, self.leak, self.dt_secs);
        let before = std::mem::replace(&mut cell.potential, next);
        // Refractory lanes hold 0.0 < θ, so reaching θ means the lane
        // stepped and crossed.
        for l in (0..LANES).filter(|&l| next[l] >= theta) {
            let (before, after) = (before[l], next[l]);
            let rise = after - before;
            let frac = if rise > 0.0 { ((theta - before) / rise).clamp(0.0, 0.999) } else { 0.0 };
            let crossing =
                SimTime::from_ps(now_ps) + SimDuration::from_secs_f64(frac * self.dt_secs);
            cell.potential[l] = 0.0;
            cell.ready_at[l] = (crossing + self.refractory).as_ps().div_ceil(self.dt_ps) as f64;
            // Sub-sample interpolation keeps channels from snapping to
            // the audio grid.
            let offset = (frac * self.dt_ps as f64).round() as u64;
            let addr = self.cochlea.address_of(self.ear, first_channel + l, neuron);
            spikes.push(Spike::new(SimTime::from_ps(now_ps + offset), addr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::fig7_word;

    fn das1() -> Cochlea {
        Cochlea::new(CochleaConfig::das1()).unwrap()
    }

    #[test]
    fn silence_produces_no_spikes() {
        let c = das1();
        let spikes = c.process(&AudioBuffer::silence(16_000, 0.5));
        assert!(spikes.is_empty());
    }

    #[test]
    fn tone_spikes_cluster_on_matching_channels() {
        let c = das1();
        let spikes = c.process(&AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.3));
        assert!(spikes.len() > 50, "tone produced only {} spikes", spikes.len());
        // Most spikes should come from channels near 1 kHz.
        let near: usize = spikes
            .iter()
            .filter(|s| {
                let (_, ch, _) = c.decode_address(s.addr).unwrap();
                let f =
                    FilterBank::log_spaced(16_000, 64, 100.0, 6_000.0, 5.0).center_frequency(ch);
                (500.0..2_000.0).contains(&f)
            })
            .count();
        assert!(
            near as f64 / spikes.len() as f64 > 0.7,
            "only {near}/{} spikes near 1 kHz",
            spikes.len()
        );
    }

    #[test]
    fn louder_audio_spikes_more() {
        let c = das1();
        let quiet = c.process(&AudioBuffer::tone(16_000, 800.0, 0.2, 0.3)).len();
        let loud = c.process(&AudioBuffer::tone(16_000, 800.0, 0.9, 0.3)).len();
        assert!(loud > quiet, "loud {loud} vs quiet {quiet}");
    }

    #[test]
    fn word_produces_bursty_multi_channel_activity() {
        let c = das1();
        let spikes = c.process(&fig7_word(16_000, 1));
        assert!(spikes.len() > 200, "word produced {} spikes", spikes.len());
        let channels: std::collections::HashSet<u16> =
            spikes.iter().map(|s| s.addr.value()).collect();
        assert!(channels.len() > 8, "word excited only {} channels", channels.len());
        // Leading 80 ms of silence contain (almost) no spikes.
        let head = spikes.window(SimTime::ZERO, SimTime::from_ms(80));
        assert!(head.len() < 5, "{} spikes during leading silence", head.len());
    }

    #[test]
    fn binaural_addresses_separate_ears() {
        let c = das1();
        let tone = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.1);
        let spikes = c.process_binaural(&tone, &tone);
        let (mut left, mut right) = (0, 0);
        for s in &spikes {
            match c.decode_address(s.addr).unwrap().0 {
                Ear::Left => left += 1,
                Ear::Right => right += 1,
            }
        }
        assert!(left > 0 && right > 0);
        assert_eq!(left, right, "identical audio in both ears spikes identically");
    }

    #[test]
    fn address_roundtrip() {
        let c = das1();
        for ear in [Ear::Left, Ear::Right] {
            for ch in [0usize, 13, 63] {
                for j in [0usize, 3] {
                    let addr = c.address_of(ear, ch, j);
                    assert_eq!(c.decode_address(addr), Some((ear, ch, j)));
                }
            }
        }
        assert_eq!(c.decode_address(Address::new(999).unwrap()), None);
    }

    #[test]
    fn config_validation() {
        assert!(CochleaConfig { channels: 0, ..CochleaConfig::das1() }.validate().is_err());
        assert!(CochleaConfig { neurons_per_channel: 0, ..CochleaConfig::das1() }
            .validate()
            .is_err());
        // 2 ears x channels x neurons must fit in 1024 addresses.
        assert!(CochleaConfig { channels: 600, ..CochleaConfig::das1() }.validate().is_err());
        assert!(CochleaConfig { channels: 128, ..CochleaConfig::das1() }.validate().is_ok());
        assert!(CochleaConfig { channels: 512, neurons_per_channel: 1, ..CochleaConfig::das1() }
            .validate()
            .is_ok());
    }

    /// `Cochlea::new` on DAS1 with one field changed.
    fn new_with(edit: impl FnOnce(&mut CochleaConfig)) -> Result<Cochlea, CochleaConfigError> {
        let mut config = CochleaConfig::das1();
        edit(&mut config);
        Cochlea::new(config)
    }

    #[test]
    fn zero_sample_rate_is_rejected() {
        let err = new_with(|c| c.sample_rate = 0).unwrap_err();
        assert_eq!(err, CochleaConfigError::ZeroSampleRate);
    }

    #[test]
    fn empty_inverted_or_non_positive_band_is_rejected() {
        for (f_lo, f_hi) in [(0.0, 6_000.0), (-50.0, 6_000.0), (900.0, 900.0), (2_000.0, 1_000.0)] {
            let err = new_with(|c| (c.f_lo, c.f_hi) = (f_lo, f_hi)).unwrap_err();
            assert_eq!(err, CochleaConfigError::InvalidBand { f_lo, f_hi });
        }
        let err = new_with(|c| c.f_lo = f64::NAN).unwrap_err();
        assert!(matches!(err, CochleaConfigError::InvalidBand { .. }), "{err}");
    }

    #[test]
    fn band_reaching_nyquist_is_rejected() {
        for f_hi in [8_000.0, 9_000.0, f64::INFINITY] {
            let err = new_with(|c| c.f_hi = f_hi).unwrap_err();
            assert_eq!(err, CochleaConfigError::AboveNyquist { f_hi, nyquist: 8_000.0 });
        }
        // Just below Nyquist is a valid design.
        assert!(new_with(|c| c.f_hi = 7_999.0).is_ok());
    }

    #[test]
    fn non_positive_q_is_rejected() {
        for q in [0.0, -1.0] {
            assert_eq!(new_with(|c| c.q = q).unwrap_err(), CochleaConfigError::NonPositiveQ { q });
        }
        let err = new_with(|c| c.q = f64::NAN).unwrap_err();
        assert!(matches!(err, CochleaConfigError::NonPositiveQ { .. }), "{err}");
    }

    #[test]
    fn non_positive_gain_is_rejected() {
        for gain in [0.0, -5.0] {
            let err = new_with(|c| c.neuron.gain = gain).unwrap_err();
            assert_eq!(err, CochleaConfigError::NonPositiveGain { gain });
        }
    }

    #[test]
    fn non_positive_threshold_is_rejected() {
        for threshold in [0.0, -0.5] {
            let err = new_with(|c| c.neuron.threshold = threshold).unwrap_err();
            assert_eq!(err, CochleaConfigError::NonPositiveThreshold { threshold });
        }
    }

    #[test]
    fn negative_leak_is_rejected() {
        let err = new_with(|c| c.neuron.leak = -1.0).unwrap_err();
        assert_eq!(err, CochleaConfigError::NegativeLeak { leak: -1.0 });
        // A leak-free integrator is allowed.
        assert!(new_with(|c| c.neuron.leak = 0.0).is_ok());
    }

    #[test]
    fn one_cochlea_serves_parallel_workers() {
        // `process` takes `&self`: one model shared by `par_map`
        // workers gives the sequential results, in order.
        let c = das1();
        let words: Vec<AudioBuffer> = (1..=4).map(|seed| fig7_word(16_000, seed)).collect();
        let parallel = aetr_sim::parallel::par_map(2, &words, |_, w| c.process(w));
        let sequential: Vec<SpikeTrain> = words.iter().map(|w| c.process(w)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn processing_is_deterministic() {
        let c1 = das1();
        let c2 = das1();
        let word = fig7_word(16_000, 4);
        assert_eq!(c1.process(&word), c2.process(&word));
    }
}
