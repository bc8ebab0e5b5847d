//! Spikes and spike trains.
//!
//! A [`Spike`] is an address-event: *which* neuron fired and *when*. A
//! [`SpikeTrain`] is a time-ordered sequence of spikes — the ground
//! truth against which AETR timestamp accuracy is measured.

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::slice;
use std::vec;

use serde::{Deserialize, Serialize};

use aetr_sim::spare;
use aetr_sim::time::{SimDuration, SimTime};

use crate::address::Address;

/// One address-event: a neuron address and the instant it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Spike {
    /// When the sensor asserted the event.
    pub time: SimTime,
    /// Which "neuron" fired.
    pub addr: Address,
}

impl Spike {
    /// Creates a spike.
    pub fn new(time: SimTime, addr: Address) -> Spike {
        Spike { time, addr }
    }
}

impl fmt::Display for Spike {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.addr, self.time)
    }
}

/// Error returned when constructing a [`SpikeTrain`] from spikes that
/// are not sorted by time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsortedSpikesError {
    /// Index of the first spike that precedes its predecessor.
    pub index: usize,
}

impl fmt::Display for UnsortedSpikesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spike at index {} is earlier than its predecessor", self.index)
    }
}

impl Error for UnsortedSpikesError {}

thread_local! {
    // A dropped train's storage; see `aetr_sim::spare`. A dense
    // 100 ms stimulus is 40 000 spikes, 640 kB.
    static SPARE_SPIKES: Cell<Vec<Spike>> = const { Cell::new(Vec::new()) };
}

/// A time-ordered sequence of spikes.
///
/// The ordering invariant (non-decreasing time) is maintained by
/// construction: [`SpikeTrain::from_sorted`] validates, while
/// [`SpikeTrain::from_unsorted`] sorts (stably, so simultaneous spikes
/// keep their relative order).
///
/// A dropped train retires its storage into a per-thread spare slot,
/// and [`SpikeTrain::with_capacity`] on the same thread takes it back
/// (see [`aetr_sim::spare`]), so a generate → run → receive loop
/// re-touches warm pages instead of faulting in fresh ones.
///
/// # Examples
///
/// ```
/// use aetr_aer::address::Address;
/// use aetr_aer::spike::{Spike, SpikeTrain};
/// use aetr_sim::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let train = SpikeTrain::from_sorted(vec![
///     Spike::new(SimTime::from_us(10), Address::new(3)?),
///     Spike::new(SimTime::from_us(25), Address::new(7)?),
/// ])?;
/// assert_eq!(train.len(), 2);
/// assert_eq!(train.duration(), aetr_sim::time::SimDuration::from_us(25));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpikeTrain {
    spikes: Vec<Spike>,
}

impl SpikeTrain {
    /// Creates an empty train.
    pub fn new() -> SpikeTrain {
        SpikeTrain::default()
    }

    /// Creates an empty train with room for at least `capacity` spikes,
    /// on the thread's recycled storage when there is one. Stimulus
    /// generators and receivers that build a train spike by spike start
    /// here.
    pub fn with_capacity(capacity: usize) -> SpikeTrain {
        SpikeTrain { spikes: spare::take(&SPARE_SPIKES, capacity) }
    }

    /// Creates a train from already time-sorted spikes.
    ///
    /// # Errors
    ///
    /// Returns [`UnsortedSpikesError`] identifying the first offending
    /// index if the input is not sorted by non-decreasing time.
    pub fn from_sorted(spikes: Vec<Spike>) -> Result<SpikeTrain, UnsortedSpikesError> {
        for (i, pair) in spikes.windows(2).enumerate() {
            if pair[1].time < pair[0].time {
                return Err(UnsortedSpikesError { index: i + 1 });
            }
        }
        Ok(SpikeTrain { spikes })
    }

    /// Creates a train from spikes in any order (stable sort by time).
    pub fn from_unsorted(mut spikes: Vec<Spike>) -> SpikeTrain {
        spikes.sort_by_key(|s| s.time);
        SpikeTrain { spikes }
    }

    /// Appends a spike.
    ///
    /// # Panics
    ///
    /// Panics if `spike.time` precedes the last spike in the train.
    pub fn push(&mut self, spike: Spike) {
        if let Some(last) = self.spikes.last() {
            assert!(
                spike.time >= last.time,
                "pushed spike at {} precedes train tail at {}",
                spike.time,
                last.time
            );
        }
        self.spikes.push(spike);
    }

    /// Number of spikes.
    pub fn len(&self) -> usize {
        self.spikes.len()
    }

    /// `true` if the train has no spikes.
    pub fn is_empty(&self) -> bool {
        self.spikes.is_empty()
    }

    /// The spikes as a slice.
    pub fn as_slice(&self) -> &[Spike] {
        &self.spikes
    }

    /// Time of the first spike, if any.
    pub fn first_time(&self) -> Option<SimTime> {
        self.spikes.first().map(|s| s.time)
    }

    /// Time of the last spike, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.spikes.last().map(|s| s.time)
    }

    /// Span from time zero to the last spike ([`SimDuration::ZERO`] for
    /// an empty train).
    pub fn duration(&self) -> SimDuration {
        self.last_time().map_or(SimDuration::ZERO, |t| t.saturating_duration_since(SimTime::ZERO))
    }

    /// Mean event rate in events per second over the train's duration
    /// (first to last spike). Returns 0 for trains with fewer than two
    /// spikes.
    pub fn mean_rate(&self) -> f64 {
        if self.spikes.len() < 2 {
            return 0.0;
        }
        let span = self.last_time().unwrap() - self.first_time().unwrap();
        if span.is_zero() {
            return f64::INFINITY;
        }
        (self.spikes.len() - 1) as f64 / span.as_secs_f64()
    }

    /// Iterator over the inter-spike intervals (one fewer than spikes).
    pub fn inter_spike_intervals(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.spikes.windows(2).map(|w| w[1].time - w[0].time)
    }

    /// The sub-train with spike times in `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> SpikeTrain {
        let start = self.spikes.partition_point(|s| s.time < from);
        let end = self.spikes.partition_point(|s| s.time < to);
        SpikeTrain { spikes: self.spikes[start..end].to_vec() }
    }

    /// Merges two trains into a new sorted train (stable: on ties,
    /// `self`'s spikes come first).
    pub fn merge(&self, other: &SpikeTrain) -> SpikeTrain {
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.spikes.len() && j < other.spikes.len() {
            if other.spikes[j].time < self.spikes[i].time {
                merged.push(other.spikes[j]);
                j += 1;
            } else {
                merged.push(self.spikes[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&self.spikes[i..]);
        merged.extend_from_slice(&other.spikes[j..]);
        SpikeTrain { spikes: merged }
    }

    /// Partitions the train by an address key: spikes whose key maps
    /// to the same value land in the same (still time-ordered) train.
    /// Useful to split a merged binaural/multi-sensor stream back into
    /// its sources.
    ///
    /// # Examples
    ///
    /// ```
    /// use aetr_aer::address::Address;
    /// use aetr_aer::spike::{Spike, SpikeTrain};
    /// use aetr_sim::time::SimTime;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let train = SpikeTrain::from_sorted(vec![
    ///     Spike::new(SimTime::from_us(1), Address::new(3)?),
    ///     Spike::new(SimTime::from_us(2), Address::new(700)?),
    /// ])?;
    /// let by_half = train.split_by(|a| a.value() >= 512);
    /// assert_eq!(by_half[&false].len(), 1);
    /// assert_eq!(by_half[&true].len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn split_by<K: Ord>(
        &self,
        mut key: impl FnMut(Address) -> K,
    ) -> std::collections::BTreeMap<K, SpikeTrain> {
        let mut out: std::collections::BTreeMap<K, SpikeTrain> = std::collections::BTreeMap::new();
        for s in &self.spikes {
            out.entry(key(s.addr)).or_default().push(*s);
        }
        out
    }

    /// Iterator over borrowed spikes.
    pub fn iter(&self) -> slice::Iter<'_, Spike> {
        self.spikes.iter()
    }

    /// Consumes the train, returning the underlying vector.
    pub fn into_inner(mut self) -> Vec<Spike> {
        std::mem::take(&mut self.spikes)
    }
}

impl Drop for SpikeTrain {
    /// Retires the storage into the thread's spare slot (largest kept).
    fn drop(&mut self) {
        spare::retire(&mut self.spikes, &SPARE_SPIKES);
    }
}

impl<'a> IntoIterator for &'a SpikeTrain {
    type Item = &'a Spike;
    type IntoIter = slice::Iter<'a, Spike>;
    fn into_iter(self) -> Self::IntoIter {
        self.spikes.iter()
    }
}

impl IntoIterator for SpikeTrain {
    type Item = Spike;
    type IntoIter = vec::IntoIter<Spike>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_inner().into_iter()
    }
}

impl FromIterator<Spike> for SpikeTrain {
    /// Collects spikes, sorting them by time if needed.
    fn from_iter<I: IntoIterator<Item = Spike>>(iter: I) -> SpikeTrain {
        SpikeTrain::from_unsorted(iter.into_iter().collect())
    }
}

impl Extend<Spike> for SpikeTrain {
    /// Extends the train; re-sorts only if the new spikes break order.
    fn extend<I: IntoIterator<Item = Spike>>(&mut self, iter: I) {
        let tail_start = self.spikes.len();
        self.spikes.extend(iter);
        let needs_sort =
            self.spikes[tail_start.saturating_sub(1)..].windows(2).any(|w| w[1].time < w[0].time);
        if needs_sort {
            self.spikes.sort_by_key(|s| s.time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike(us: u64, addr: u16) -> Spike {
        Spike::new(SimTime::from_us(us), Address::new(addr).unwrap())
    }

    #[test]
    fn from_sorted_validates() {
        assert!(SpikeTrain::from_sorted(vec![spike(1, 0), spike(2, 1)]).is_ok());
        let err = SpikeTrain::from_sorted(vec![spike(2, 0), spike(1, 1)]).unwrap_err();
        assert_eq!(err.index, 1);
    }

    #[test]
    fn from_unsorted_sorts_stably() {
        let train = SpikeTrain::from_unsorted(vec![spike(5, 2), spike(1, 0), spike(5, 1)]);
        let addrs: Vec<u16> = train.iter().map(|s| s.addr.value()).collect();
        assert_eq!(addrs, vec![0, 2, 1]);
    }

    #[test]
    fn push_maintains_order() {
        let mut train = SpikeTrain::new();
        train.push(spike(1, 0));
        train.push(spike(1, 1)); // equal times allowed
        train.push(spike(3, 2));
        assert_eq!(train.len(), 3);
    }

    #[test]
    #[should_panic(expected = "precedes train tail")]
    fn push_out_of_order_panics() {
        let mut train = SpikeTrain::new();
        train.push(spike(5, 0));
        train.push(spike(1, 0));
    }

    #[test]
    fn intervals_and_rate() {
        let train =
            SpikeTrain::from_sorted(vec![spike(0, 0), spike(100, 0), spike(300, 0)]).unwrap();
        let isis: Vec<u64> = train.inter_spike_intervals().map(|d| d.as_us()).collect();
        assert_eq!(isis, vec![100, 200]);
        // 2 intervals over 300 us
        let rate = train.mean_rate();
        assert!((rate - 2.0 / 300e-6).abs() / rate < 1e-9);
    }

    #[test]
    fn empty_and_single_spike_edge_cases() {
        let empty = SpikeTrain::new();
        assert!(empty.is_empty());
        assert_eq!(empty.mean_rate(), 0.0);
        assert_eq!(empty.duration(), SimDuration::ZERO);
        assert_eq!(empty.first_time(), None);

        let single = SpikeTrain::from_sorted(vec![spike(10, 0)]).unwrap();
        assert_eq!(single.mean_rate(), 0.0);
        assert_eq!(single.duration(), SimDuration::from_us(10));
    }

    #[test]
    fn window_selects_half_open_range() {
        let train =
            SpikeTrain::from_sorted(vec![spike(10, 0), spike(20, 1), spike(30, 2)]).unwrap();
        let w = train.window(SimTime::from_us(10), SimTime::from_us(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w.as_slice()[0].addr.value(), 0);
        assert_eq!(w.as_slice()[1].addr.value(), 1);
    }

    #[test]
    fn merge_interleaves() {
        let a = SpikeTrain::from_sorted(vec![spike(1, 0), spike(5, 0)]).unwrap();
        let b = SpikeTrain::from_sorted(vec![spike(3, 1), spike(7, 1)]).unwrap();
        let m = a.merge(&b);
        let times: Vec<u64> = m.iter().map(|s| s.time.as_ps() / 1_000_000).collect();
        assert_eq!(times, vec![1, 3, 5, 7]);
    }

    #[test]
    fn collect_and_extend() {
        let train: SpikeTrain = vec![spike(9, 0), spike(2, 1)].into_iter().collect();
        assert_eq!(train.first_time(), Some(SimTime::from_us(2)));

        let mut t2 = SpikeTrain::new();
        t2.extend(vec![spike(4, 0), spike(1, 1)]);
        assert_eq!(t2.first_time(), Some(SimTime::from_us(1)));

        // Extending with already-later spikes keeps order without sorting.
        t2.extend(vec![spike(10, 2)]);
        assert_eq!(t2.last_time(), Some(SimTime::from_us(10)));
    }

    #[test]
    fn split_by_partitions_and_preserves_order() {
        let train =
            SpikeTrain::from_sorted(vec![spike(1, 0), spike(2, 10), spike(3, 1), spike(4, 11)])
                .unwrap();
        let parts = train.split_by(|a| a.value() >= 10);
        assert_eq!(parts.len(), 2);
        let lows: Vec<u16> = parts[&false].iter().map(|s| s.addr.value()).collect();
        let highs: Vec<u16> = parts[&true].iter().map(|s| s.addr.value()).collect();
        assert_eq!(lows, vec![0, 1]);
        assert_eq!(highs, vec![10, 11]);
        assert!(parts[&false]
            .iter()
            .zip(parts[&false].iter().skip(1))
            .all(|(a, b)| a.time <= b.time));
    }

    #[test]
    fn into_iterator_forms() {
        let train = SpikeTrain::from_sorted(vec![spike(1, 0)]).unwrap();
        for s in &train {
            assert_eq!(s.addr.value(), 0);
        }
        let owned: Vec<Spike> = train.into_iter().collect();
        assert_eq!(owned.len(), 1);
    }
}
