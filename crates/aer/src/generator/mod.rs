//! Spike-stream generators.
//!
//! These produce the stimulus workloads of the paper's evaluation:
//!
//! * [`PoissonGenerator`] — the rate-swept Poisson streams behind Fig. 6;
//! * [`LfsrGenerator`] — the on-FPGA LFSR pseudo-random generator the
//!   authors used to drive the power measurements of Fig. 8;
//! * [`RegularGenerator`] — deterministic fixed-interval streams for
//!   corner-case tests;
//! * [`BurstGenerator`] — a two-state Markov-modulated Poisson process
//!   approximating speech-like on/off activity.
//!
//! All generators implement [`SpikeSource`], an infinite iterator-like
//! trait, plus the [`SpikeSource::generate`] convenience that collects a
//! bounded [`SpikeTrain`].

mod burst;
mod lfsr;
mod poisson;
mod regular;

pub use burst::BurstGenerator;
pub use lfsr::{Lfsr, LfsrGenerator};
pub use poisson::PoissonGenerator;
pub use regular::RegularGenerator;

use aetr_sim::time::SimTime;

use crate::spike::{Spike, SpikeTrain};

/// An unbounded source of time-ordered spikes.
///
/// Implementors must yield spikes with non-decreasing times.
pub trait SpikeSource {
    /// Produces the next spike. `None` means the source is exhausted
    /// (infinite sources never return `None`).
    fn next_spike(&mut self) -> Option<Spike>;

    /// Collects every spike strictly before `until` into a train.
    ///
    /// The first spike at or after `until` is consumed from the source
    /// but not included; bounded experiment drivers accept that, and it
    /// keeps the trait object-safe and allocation-free for streaming
    /// use.
    ///
    /// The train is built on the thread's recycled spike storage (see
    /// [`SpikeTrain::with_capacity`]).
    fn generate(&mut self, until: SimTime) -> SpikeTrain
    where
        Self: Sized,
    {
        collect_until(self, until, 0)
    }
}

/// [`SpikeSource::generate`] with a capacity hint, for sources that can
/// estimate their spike count.
///
/// # Panics
///
/// Panics if the source yields a spike earlier than its predecessor.
fn collect_until<S: SpikeSource>(source: &mut S, until: SimTime, capacity: usize) -> SpikeTrain {
    let mut train = SpikeTrain::with_capacity(capacity);
    while let Some(s) = source.next_spike() {
        if s.time >= until {
            break;
        }
        train.push(s);
    }
    train
}

/// Adapter exposing any `SpikeSource` as an `Iterator`.
///
/// # Examples
///
/// ```
/// use aetr_aer::generator::{IntoIter, RegularGenerator, SpikeSource};
/// use aetr_sim::time::SimDuration;
///
/// let gen = RegularGenerator::new(SimDuration::from_us(10), 5);
/// let first_three: Vec<_> = IntoIter(gen).take(3).collect();
/// assert_eq!(first_three.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IntoIter<S>(pub S);

impl<S: SpikeSource> Iterator for IntoIter<S> {
    type Item = Spike;
    fn next(&mut self) -> Option<Spike> {
        self.0.next_spike()
    }
}

#[cfg(test)]
pub(crate) fn assert_time_ordered(train: &SpikeTrain) {
    for w in train.as_slice().windows(2) {
        assert!(w[1].time >= w[0].time, "generator produced out-of-order spikes");
    }
}

/// Streaming merge of two spike sources: yields whichever source's
/// next spike comes first (ties favour the first source). Infinite
/// sources stay infinite.
///
/// # Examples
///
/// ```
/// use aetr_aer::generator::{MergeSource, RegularGenerator, SpikeSource};
/// use aetr_sim::time::{SimDuration, SimTime};
///
/// let a = RegularGenerator::new(SimDuration::from_us(100), 1);
/// let b = RegularGenerator::new(SimDuration::from_us(70), 2);
/// let mut merged = MergeSource::new(a, b);
/// let train = merged.generate(SimTime::from_ms(1));
/// // 9 spikes from a (100..900us) + 14 from b (70..980us).
/// assert_eq!(train.len(), 23);
/// ```
#[derive(Debug, Clone)]
pub struct MergeSource<A, B> {
    a: A,
    b: B,
    pending_a: Option<Spike>,
    pending_b: Option<Spike>,
}

impl<A: SpikeSource, B: SpikeSource> MergeSource<A, B> {
    /// Creates a merged source.
    pub fn new(mut a: A, mut b: B) -> MergeSource<A, B> {
        let pending_a = a.next_spike();
        let pending_b = b.next_spike();
        MergeSource { a, b, pending_a, pending_b }
    }
}

impl<A: SpikeSource, B: SpikeSource> SpikeSource for MergeSource<A, B> {
    fn next_spike(&mut self) -> Option<Spike> {
        match (self.pending_a, self.pending_b) {
            (Some(sa), Some(sb)) if sa.time <= sb.time => {
                self.pending_a = self.a.next_spike();
                Some(sa)
            }
            (_, Some(sb)) => {
                self.pending_b = self.b.next_spike();
                Some(sb)
            }
            (Some(sa), None) => {
                self.pending_a = self.a.next_spike();
                Some(sa)
            }
            (None, None) => None,
        }
    }
}

/// A finite source replaying a recorded [`SpikeTrain`] — e.g. an AEDAT
/// file, or a sensor capture reused as a stimulus.
///
/// # Examples
///
/// ```
/// use aetr_aer::generator::{ReplaySource, SpikeSource};
/// use aetr_aer::spike::SpikeTrain;
/// use aetr_sim::time::SimTime;
///
/// let mut source = ReplaySource::new(SpikeTrain::new());
/// assert_eq!(source.next_spike(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySource {
    spikes: std::vec::IntoIter<Spike>,
}

impl ReplaySource {
    /// Creates a source replaying `train` once.
    pub fn new(train: SpikeTrain) -> ReplaySource {
        ReplaySource { spikes: train.into_inner().into_iter() }
    }
}

impl SpikeSource for ReplaySource {
    fn next_spike(&mut self) -> Option<Spike> {
        self.spikes.next()
    }
}

#[cfg(test)]
mod combinator_tests {
    use super::*;
    use aetr_sim::time::SimDuration;

    #[test]
    fn merge_interleaves_in_time_order() {
        let a = RegularGenerator::new(SimDuration::from_us(100), 1);
        let b = RegularGenerator::new(SimDuration::from_us(60), 4);
        let mut merged = MergeSource::new(a, b);
        let train = merged.generate(SimTime::from_ms(1));
        assert_time_ordered(&train);
        // b at 60..960 (16 spikes), a at 100..900 (9 spikes).
        assert_eq!(train.len(), 25);
    }

    #[test]
    fn merge_survives_one_exhausted_side() {
        let a = ReplaySource::new(
            RegularGenerator::new(SimDuration::from_us(10), 1).generate(SimTime::from_us(35)),
        );
        let b = RegularGenerator::new(SimDuration::from_us(50), 2);
        let mut merged = MergeSource::new(a, b);
        let train = merged.generate(SimTime::from_us(201));
        // a: 10,20,30 then exhausted; b: 50,100,150,200.
        assert_eq!(train.len(), 7);
        assert_time_ordered(&train);
    }

    #[test]
    fn replay_reproduces_the_train_exactly() {
        let original =
            RegularGenerator::new(SimDuration::from_us(25), 8).generate(SimTime::from_ms(1));
        let mut source = ReplaySource::new(original.clone());
        let replayed = source.generate(SimTime::from_ms(2));
        assert_eq!(replayed, original);
        assert_eq!(source.next_spike(), None, "replay is one-shot");
    }

    #[test]
    fn merge_tie_prefers_first_source() {
        let a = ReplaySource::new(
            RegularGenerator::new(SimDuration::from_us(10), 1).generate(SimTime::from_us(11)),
        );
        let b = ReplaySource::new(
            RegularGenerator::new(SimDuration::from_us(10), 4).generate(SimTime::from_us(11)),
        );
        let mut merged = MergeSource::new(a, b);
        let first = merged.next_spike().unwrap();
        assert_eq!(first.addr.value(), 0, "source a wins the tie");
    }
}
