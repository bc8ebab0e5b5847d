//! The combinational data crossbar (paper Fig. 3).
//!
//! "The blocks that send or receive AETR data are interconnected by a
//! combinational crossbar." The prototype routes the front-end output
//! to the buffer and the buffer to the I2S interface; the crossbar
//! keeps those connections reconfigurable (e.g. a bufferless
//! front-end→I2S bypass for latency-critical setups).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Data-producing ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SourcePort {
    /// The AER→AETR sampling unit output.
    FrontEnd,
    /// The FIFO read port.
    BufferOut,
}

impl SourcePort {
    /// Number of source ports.
    const COUNT: usize = SourcePort::BufferOut as usize + 1;

    fn index(self) -> usize {
        self as usize
    }
}

/// Data-consuming ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SinkPort {
    /// The FIFO write port.
    BufferIn,
    /// The I2S transmitter.
    I2s,
}

impl SinkPort {
    /// Number of sink ports.
    const COUNT: usize = SinkPort::I2s as usize + 1;

    fn index(self) -> usize {
        self as usize
    }
}

/// A route configuration error: one sink driven by two sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkConflictError {
    /// The multiply-driven sink.
    pub sink: SinkPort,
}

impl fmt::Display for SinkConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink {:?} driven by more than one source", self.sink)
    }
}

impl Error for SinkConflictError {}

/// The crossbar: a validated source→sink routing table with traffic
/// counters.
///
/// # Examples
///
/// ```
/// use aetr::crossbar::{Crossbar, SinkPort, SourcePort};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut xbar = Crossbar::prototype()?;
/// assert_eq!(xbar.route(SourcePort::FrontEnd, 0xABCD), Some(SinkPort::BufferIn));
/// assert_eq!(xbar.words_through(SourcePort::FrontEnd), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crossbar {
    /// Sink of each source port, indexed by [`SourcePort`].
    routes: [Option<SinkPort>; SourcePort::COUNT],
    /// Words routed from each source port.
    traffic: [u64; SourcePort::COUNT],
}

impl Crossbar {
    /// Builds a crossbar from `(source, sink)` routes.
    ///
    /// # Errors
    ///
    /// Returns [`SinkConflictError`] if two sources drive the same
    /// sink (combinationally impossible in hardware).
    pub fn new(
        routes: impl IntoIterator<Item = (SourcePort, SinkPort)>,
    ) -> Result<Crossbar, SinkConflictError> {
        let mut table = [None; SourcePort::COUNT];
        let mut sinks_seen = [false; SinkPort::COUNT];
        for (src, sink) in routes {
            if std::mem::replace(&mut sinks_seen[sink.index()], true) {
                return Err(SinkConflictError { sink });
            }
            table[src.index()] = Some(sink);
        }
        Ok(Crossbar { routes: table, traffic: [0; SourcePort::COUNT] })
    }

    /// The prototype routing: front-end → buffer, buffer → I2S.
    ///
    /// # Errors
    ///
    /// Never fails for the fixed prototype routes; the `Result` keeps
    /// the constructor signatures uniform.
    pub fn prototype() -> Result<Crossbar, SinkConflictError> {
        Crossbar::new([
            (SourcePort::FrontEnd, SinkPort::BufferIn),
            (SourcePort::BufferOut, SinkPort::I2s),
        ])
    }

    /// Routes a data word from `source`, returning the configured sink
    /// (`None` if the source is unconnected) and counting the word.
    pub fn route(&mut self, source: SourcePort, _word: u32) -> Option<SinkPort> {
        let sink = self.routes[source.index()];
        if sink.is_some() {
            self.traffic[source.index()] += 1;
        }
        sink
    }

    /// The sink a source is routed to.
    pub fn sink_of(&self, source: SourcePort) -> Option<SinkPort> {
        self.routes[source.index()]
    }

    /// Words routed from a source so far.
    pub fn words_through(&self, source: SourcePort) -> u64 {
        self.traffic[source.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_routes() {
        let xbar = Crossbar::prototype().unwrap();
        assert_eq!(xbar.sink_of(SourcePort::FrontEnd), Some(SinkPort::BufferIn));
        assert_eq!(xbar.sink_of(SourcePort::BufferOut), Some(SinkPort::I2s));
    }

    #[test]
    fn bypass_route_is_expressible() {
        // Bufferless: front-end straight to I2S.
        let mut xbar = Crossbar::new([(SourcePort::FrontEnd, SinkPort::I2s)]).unwrap();
        assert_eq!(xbar.route(SourcePort::FrontEnd, 1), Some(SinkPort::I2s));
        assert_eq!(xbar.route(SourcePort::BufferOut, 1), None);
        assert_eq!(xbar.words_through(SourcePort::BufferOut), 0);
    }

    #[test]
    fn sink_conflict_rejected() {
        let err = Crossbar::new([
            (SourcePort::FrontEnd, SinkPort::I2s),
            (SourcePort::BufferOut, SinkPort::I2s),
        ])
        .unwrap_err();
        assert_eq!(err.sink, SinkPort::I2s);
        assert!(err.to_string().contains("more than one source"));
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut xbar = Crossbar::prototype().unwrap();
        for i in 0..5 {
            xbar.route(SourcePort::FrontEnd, i);
        }
        for i in 0..3 {
            xbar.route(SourcePort::BufferOut, i);
        }
        assert_eq!(xbar.words_through(SourcePort::FrontEnd), 5);
        assert_eq!(xbar.words_through(SourcePort::BufferOut), 3);
    }
}
