//! Signal tracing: a lightweight waveform recorder.
//!
//! Components register named signals with a [`Tracer`] and record value
//! changes as simulation time advances. Traces can be inspected
//! programmatically (the Fig. 2 harness checks the divided-clock edge
//! pattern this way) or dumped to an industry-standard VCD file via
//! [`crate::vcd`] for viewing in GTKWave & co.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// The value carried by a traced signal at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceValue {
    /// A single-bit signal (clock, REQ, ACK, SLEEP, ...).
    Bit(bool),
}

/// Identifier of a declared signal, returned by [`Tracer::declare_bit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SignalId(usize);

/// A signal declaration: name and hierarchical scope.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalDecl {
    /// Signal name, e.g. `"clk_sample"`.
    pub name: String,
    /// Dot-separated hierarchical scope, e.g. `"interface.clockgen"`.
    /// Empty string means top level.
    pub scope: String,
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Change {
    /// When the signal changed.
    pub time: SimTime,
    /// Which signal changed.
    pub signal: SignalId,
    /// The new value.
    pub value: TraceValue,
}

/// A waveform recorder.
///
/// # Examples
///
/// ```
/// use aetr_sim::time::SimTime;
/// use aetr_sim::trace::{TraceValue, Tracer};
///
/// let mut tracer = Tracer::new();
/// let clk = tracer.declare_bit("clk", "top");
/// tracer.record(SimTime::from_ns(0), clk, TraceValue::Bit(false));
/// tracer.record(SimTime::from_ns(5), clk, TraceValue::Bit(true));
/// // Re-recording the same value is a no-op:
/// tracer.record(SimTime::from_ns(6), clk, TraceValue::Bit(true));
/// assert_eq!(tracer.changes().len(), 2);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tracer {
    signals: Vec<SignalDecl>,
    last: Vec<Option<TraceValue>>,
    last_time: Vec<Option<SimTime>>,
    changes: Vec<Change>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a single-bit signal under the given scope.
    pub fn declare_bit(&mut self, name: &str, scope: &str) -> SignalId {
        let id = SignalId(self.signals.len());
        self.signals.push(SignalDecl { name: name.to_owned(), scope: scope.to_owned() });
        self.last.push(None);
        self.last_time.push(None);
        id
    }

    /// Records a value change. Changes with the same value as the last
    /// recorded one for the signal are dropped, so callers can record
    /// unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the latest change already recorded
    /// for this signal (trace time is monotonic).
    pub fn record(&mut self, time: SimTime, signal: SignalId, value: TraceValue) {
        let decl = &self.signals[signal.0];
        if self.last[signal.0] == Some(value) {
            return;
        }
        if let Some(prev) = self.last_time[signal.0] {
            assert!(
                time >= prev,
                "trace for {}.{} moved backwards: {} after {}",
                decl.scope,
                decl.name,
                time,
                prev
            );
        }
        self.last[signal.0] = Some(value);
        self.last_time[signal.0] = Some(time);
        self.changes.push(Change { time, signal, value });
    }

    /// All declared signals, in declaration order (index == `SignalId`).
    pub fn signals(&self) -> &[SignalDecl] {
        &self.signals
    }

    /// All recorded changes, in record order.
    pub fn changes(&self) -> &[Change] {
        &self.changes
    }

    /// Iterator over the changes of a single signal.
    pub fn changes_of(&self, id: SignalId) -> impl Iterator<Item = &Change> {
        self.changes.iter().filter(move |c| c.signal == id)
    }

    /// The edge times (any value change) of a single-bit signal,
    /// restricted to changes *to* the given level.
    ///
    /// Useful to extract clock rising edges:
    /// `tracer.edges_to(clk, true)`.
    pub fn edges_to(&self, id: SignalId, level: bool) -> Vec<SimTime> {
        self.changes_of(id).filter(|c| c.value == TraceValue::Bit(level)).map(|c| c.time).collect()
    }

    /// Numeric index of a signal id (stable, for external tables).
    pub fn index_of(&self, id: SignalId) -> usize {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_and_records() {
        let mut t = Tracer::new();
        let req = t.declare_bit("req", "aer");
        let ack = t.declare_bit("ack", "aer");
        t.record(SimTime::from_ns(1), req, TraceValue::Bit(true));
        t.record(SimTime::from_ns(1), ack, TraceValue::Bit(true));
        assert_eq!(t.changes().len(), 2);
        assert_eq!(t.signals()[t.index_of(req)].name, "req");
        assert_eq!(t.signals()[t.index_of(ack)].scope, "aer");
    }

    #[test]
    fn deduplicates_unchanged_values() {
        let mut t = Tracer::new();
        let s = t.declare_bit("sleep", "");
        t.record(SimTime::from_ns(0), s, TraceValue::Bit(true));
        t.record(SimTime::from_ns(5), s, TraceValue::Bit(true));
        t.record(SimTime::from_ns(9), s, TraceValue::Bit(false));
        assert_eq!(t.changes().len(), 2);
    }

    #[test]
    fn edges_to_extracts_clock_edges() {
        let mut t = Tracer::new();
        let clk = t.declare_bit("clk", "");
        for i in 0..6 {
            t.record(SimTime::from_ns(i * 10), clk, TraceValue::Bit(i % 2 == 1));
        }
        assert_eq!(
            t.edges_to(clk, true),
            vec![SimTime::from_ns(10), SimTime::from_ns(30), SimTime::from_ns(50)]
        );
    }

    #[test]
    fn changes_of_filters_by_signal() {
        let mut t = Tracer::new();
        let a = t.declare_bit("a", "");
        let b = t.declare_bit("b", "");
        t.record(SimTime::from_ns(1), a, TraceValue::Bit(true));
        t.record(SimTime::from_ns(2), b, TraceValue::Bit(true));
        t.record(SimTime::from_ns(3), a, TraceValue::Bit(false));
        assert_eq!(t.changes_of(a).count(), 2);
        assert_eq!(t.changes_of(b).count(), 1);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn non_monotonic_record_panics() {
        let mut t = Tracer::new();
        let s = t.declare_bit("clk", "");
        t.record(SimTime::from_ns(10), s, TraceValue::Bit(true));
        t.record(SimTime::from_ns(5), s, TraceValue::Bit(false));
    }
}
