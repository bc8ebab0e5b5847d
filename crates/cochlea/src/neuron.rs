//! Half-wave rectification and leaky integrate-and-fire spike
//! generation — the inner hair cell + spiral ganglion stage of the
//! silicon cochlea.

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

/// Parameters of one integrate-and-fire neuron.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeuronConfig {
    /// Input gain applied to the rectified band signal.
    pub gain: f64,
    /// Membrane leak rate (1/s): `dv/dt = gain·max(x,0) − leak·v`.
    pub leak: f64,
    /// Firing threshold on the membrane potential.
    pub threshold: f64,
    /// Absolute refractory period after a spike.
    pub refractory: SimDuration,
}

impl Default for NeuronConfig {
    /// A responsive default tuned for unit-amplitude audio at 16 kHz:
    /// strong bands fire in the low-kHz range, silence does not fire.
    fn default() -> Self {
        NeuronConfig {
            gain: 30_000.0,
            leak: 1_000.0,
            threshold: 1.0,
            refractory: SimDuration::from_us(300),
        }
    }
}

/// Leaky integrate-and-fire neuron driven by a sampled band signal.
///
/// [`Cochlea`](crate::model::Cochlea) evaluates this step four
/// channels at a time in its fused kernel; this single-neuron form is
/// the scalar reference that kernel is tested against.
///
/// # Examples
///
/// ```
/// use aetr_cochlea::neuron::{IntegrateFireNeuron, NeuronConfig};
/// use aetr_sim::time::SimTime;
///
/// let mut n = IntegrateFireNeuron::new(NeuronConfig::default());
/// // A constant strong drive at 16 kHz sampling fires repeatedly.
/// let mut spikes = 0;
/// for i in 0..16_000 {
///     let t = SimTime::from_us(i as u64 * 62);
///     if n.step(t, 0.5, 1.0 / 16_000.0) {
///         spikes += 1;
///     }
/// }
/// assert!(spikes > 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegrateFireNeuron {
    config: NeuronConfig,
    potential: f64,
    refractory_until: Option<SimTime>,
}

impl IntegrateFireNeuron {
    /// Creates a neuron at rest.
    ///
    /// # Panics
    ///
    /// Panics on non-positive gain or threshold, or negative leak.
    pub fn new(config: NeuronConfig) -> IntegrateFireNeuron {
        assert!(config.gain > 0.0, "gain must be positive");
        assert!(config.threshold > 0.0, "threshold must be positive");
        assert!(config.leak >= 0.0, "leak must be non-negative");
        IntegrateFireNeuron { config, potential: 0.0, refractory_until: None }
    }

    /// Advances one audio sample of width `dt_secs` with band input
    /// `x`, at absolute time `now`. Returns `true` if the neuron fired.
    pub fn step(&mut self, now: SimTime, x: f64, dt_secs: f64) -> bool {
        self.step_interpolated(now, x, dt_secs).is_some()
    }

    /// Like [`step`](Self::step), but on a spike returns the fractional
    /// position (in `[0, 1)`) of the threshold crossing *within* the
    /// sample, by linear interpolation of the membrane trajectory.
    ///
    /// Real silicon cochlea neurons fire asynchronously; without this
    /// interpolation every channel's spikes would snap to the audio
    /// sample grid and artificially coincide, which would wreck
    /// inter-spike-interval statistics downstream.
    pub fn step_interpolated(&mut self, now: SimTime, x: f64, dt_secs: f64) -> Option<f64> {
        if let Some(until) = self.refractory_until {
            if now < until {
                return None;
            }
            self.refractory_until = None;
        }
        let rectified = x.max(0.0); // half-wave rectification
        let before = self.potential;
        let after = before + (self.config.gain * rectified - self.config.leak * before) * dt_secs;
        self.potential = after;
        if after >= self.config.threshold {
            let rise = after - before;
            let frac = if rise > 0.0 {
                ((self.config.threshold - before) / rise).clamp(0.0, 0.999)
            } else {
                0.0
            };
            let crossing = now + SimDuration::from_secs_f64(frac * dt_secs);
            self.potential = 0.0;
            self.refractory_until = Some(crossing + self.config.refractory);
            Some(frac)
        } else {
            None
        }
    }

    /// Current membrane potential.
    pub fn potential(&self) -> f64 {
        self.potential
    }

    /// Resets to rest.
    pub fn reset(&mut self) {
        self.potential = 0.0;
        self.refractory_until = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(n: &mut IntegrateFireNeuron, x: f64, samples: usize) -> usize {
        let dt = 1.0 / 16_000.0;
        let mut count = 0;
        for i in 0..samples {
            let t = SimTime::from_ps((i as u64) * 62_500_000); // 62.5 µs
            if n.step(t, x, dt) {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn silence_never_fires() {
        let mut n = IntegrateFireNeuron::new(NeuronConfig::default());
        assert_eq!(drive(&mut n, 0.0, 32_000), 0);
    }

    #[test]
    fn negative_input_is_rectified_away() {
        let mut n = IntegrateFireNeuron::new(NeuronConfig::default());
        assert_eq!(drive(&mut n, -1.0, 32_000), 0);
        assert_eq!(n.potential(), 0.0);
    }

    #[test]
    fn stronger_drive_fires_more() {
        let weak = drive(&mut IntegrateFireNeuron::new(NeuronConfig::default()), 0.1, 16_000);
        let strong = drive(&mut IntegrateFireNeuron::new(NeuronConfig::default()), 0.8, 16_000);
        assert!(strong > weak, "strong {strong} vs weak {weak}");
        assert!(strong > 0);
    }

    #[test]
    fn refractory_period_caps_the_rate() {
        let cfg = NeuronConfig { refractory: SimDuration::from_ms(1), ..NeuronConfig::default() };
        let mut n = IntegrateFireNeuron::new(cfg);
        // 1 s of saturated drive: the 1 ms refractory period caps the
        // rate at 1 kHz (plus the post-refractory charge time).
        let spikes = drive(&mut n, 10.0, 16_000);
        assert!(spikes <= 1_001, "spikes {spikes}");
        assert!(spikes >= 700, "spikes {spikes}");
    }

    #[test]
    fn leak_forgets_subthreshold_input() {
        let cfg = NeuronConfig { leak: 5_000.0, ..NeuronConfig::default() };
        let mut n = IntegrateFireNeuron::new(cfg);
        // With a huge leak, weak drive never accumulates to threshold.
        assert_eq!(drive(&mut n, 0.05, 32_000), 0);
        assert!(n.potential() < 1.0);
    }

    #[test]
    fn reset_returns_to_rest() {
        let mut n = IntegrateFireNeuron::new(NeuronConfig::default());
        drive(&mut n, 0.5, 100);
        n.reset();
        assert_eq!(n.potential(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gain must be positive")]
    fn zero_gain_panics() {
        let _ = IntegrateFireNeuron::new(NeuronConfig { gain: 0.0, ..NeuronConfig::default() });
    }
}
