//! The AER 4-phase handshake.
//!
//! AER transfers one event per handshake: the sender places the address
//! on the bus and raises `REQ`; the receiver raises `ACK`; the sender
//! lowers `REQ`; the receiver lowers `ACK`, completing the cycle. All
//! timing information is implicit in *when* `REQ` rises — which is
//! exactly what the AETR interface must measure.
//!
//! This module provides the sender-side state machine
//! ([`HandshakeSender`]) that serialises a [`SpikeTrain`] onto the
//! REQ/ACK/ADDR wires with realistic timing (including sensor-side
//! queuing when the receiver is slow), a [`Transaction`] record of each
//! completed handshake, and the CAVIAR timing compliance check the
//! paper cites (every event must complete within 700 ns).

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::spare;
use aetr_sim::time::{SimDuration, SimTime};

use crate::address::Address;
use crate::spike::{Spike, SpikeTrain};

/// CAVIAR interface standard budget: each AER event must complete its
/// handshake within 700 ns (paper §5).
pub const CAVIAR_EVENT_BUDGET: SimDuration = SimDuration::from_ns(700);

/// Sender-side timing parameters of the 4-phase handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandshakeTiming {
    /// Address valid before `REQ` rises (AER requires ADDR stable at
    /// `REQ` assertion).
    pub addr_setup: SimDuration,
    /// Delay from observing `ACK` rise to lowering `REQ`.
    pub req_fall_delay: SimDuration,
    /// Recovery time from `ACK` fall to the earliest next `REQ` rise.
    pub recovery: SimDuration,
}

impl Default for HandshakeTiming {
    /// Plausible sensor-side delays for a DAS1-class device: 5 ns
    /// setup, 10 ns request release, 10 ns recovery.
    fn default() -> Self {
        HandshakeTiming {
            addr_setup: SimDuration::from_ns(5),
            req_fall_delay: SimDuration::from_ns(10),
            recovery: SimDuration::from_ns(10),
        }
    }
}

/// A completed 4-phase handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// The event address transferred.
    pub addr: Address,
    /// When the sensor *wanted* to emit the event (spike time).
    pub event_time: SimTime,
    /// `REQ` rising edge (this is the instant the interface timestamps).
    pub req_rise: SimTime,
    /// `ACK` rising edge.
    pub ack_rise: SimTime,
    /// `REQ` falling edge.
    pub req_fall: SimTime,
    /// `ACK` falling edge.
    pub ack_fall: SimTime,
}

impl Transaction {
    /// Total handshake duration (`REQ` rise to `ACK` fall), the
    /// quantity CAVIAR bounds.
    pub fn duration(&self) -> SimDuration {
        self.ack_fall - self.req_rise
    }

    /// Sensor-side queuing delay: how long the event waited behind the
    /// previous handshake before its `REQ` could rise.
    pub fn queue_delay(&self) -> SimDuration {
        self.req_rise.saturating_duration_since(self.event_time)
    }

    /// `REQ`-rise → `ACK`-rise latency: how long the sensor held `REQ`
    /// before the interface answered (sync + sampling-grid wait, plus
    /// any wake). The lineage layer reports this per event.
    pub fn ack_latency(&self) -> SimDuration {
        self.ack_rise.saturating_duration_since(self.req_rise)
    }

    /// Checks the 4-phase ordering invariant.
    pub fn is_well_formed(&self) -> bool {
        self.req_rise <= self.ack_rise
            && self.ack_rise <= self.req_fall
            && self.req_fall <= self.ack_fall
    }
}

/// A protocol-order violation detected in a transaction log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolError {
    /// Index of the malformed transaction.
    pub index: usize,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction {} violates 4-phase edge ordering", self.index)
    }
}

impl Error for ProtocolError {}

/// A CAVIAR timing violation: an event exceeded the 700 ns budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaviarViolation {
    /// Index of the offending transaction.
    pub index: usize,
    /// Its measured duration.
    pub duration: SimDuration,
}

impl fmt::Display for CaviarViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transaction {} took {}, exceeding the CAVIAR budget of {}",
            self.index, self.duration, CAVIAR_EVENT_BUDGET
        )
    }
}

impl Error for CaviarViolation {}

thread_local! {
    // A dropped log's storage; see `aetr_sim::spare`. A dense 100 ms
    // run logs 40 000 transactions, 1.9 MB.
    static SPARE_TRANSACTIONS: Cell<Vec<Transaction>> = const { Cell::new(Vec::new()) };
}

/// Log of completed handshakes with protocol/timing verification and
/// summary statistics.
///
/// A dropped log retires its storage into a per-thread spare slot that
/// [`HandshakeLog::with_capacity`] on the same thread takes back (see
/// [`aetr_sim::spare`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandshakeLog {
    transactions: Vec<Transaction>,
}

impl HandshakeLog {
    /// Creates an empty log.
    pub fn new() -> HandshakeLog {
        HandshakeLog::default()
    }

    /// Creates an empty log with room for `capacity` transactions, so
    /// a runner that knows its stimulus size never reallocates, on the
    /// thread's recycled storage when there is one.
    pub fn with_capacity(capacity: usize) -> HandshakeLog {
        HandshakeLog { transactions: spare::take(&SPARE_TRANSACTIONS, capacity) }
    }

    /// Appends a completed transaction.
    pub fn push(&mut self, t: Transaction) {
        self.transactions.push(t);
    }

    /// The recorded transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of recorded transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Verifies 4-phase ordering for every transaction.
    ///
    /// # Errors
    ///
    /// Returns the index of the first malformed transaction.
    pub fn verify_protocol(&self) -> Result<(), ProtocolError> {
        for (index, t) in self.transactions.iter().enumerate() {
            if !t.is_well_formed() {
                return Err(ProtocolError { index });
            }
        }
        Ok(())
    }

    /// Verifies the CAVIAR 700 ns completion budget for every
    /// transaction.
    ///
    /// # Errors
    ///
    /// Returns the first violating transaction's index and duration.
    pub fn verify_caviar(&self) -> Result<(), CaviarViolation> {
        for (index, t) in self.transactions.iter().enumerate() {
            let duration = t.duration();
            if duration > CAVIAR_EVENT_BUDGET {
                return Err(CaviarViolation { index, duration });
            }
        }
        Ok(())
    }

    /// Longest handshake observed.
    pub fn max_duration(&self) -> Option<SimDuration> {
        self.transactions.iter().map(Transaction::duration).max()
    }

    /// Longest sensor-side queuing delay observed (backpressure).
    pub fn max_queue_delay(&self) -> Option<SimDuration> {
        self.transactions.iter().map(Transaction::queue_delay).max()
    }
}

impl Drop for HandshakeLog {
    /// Retires the storage into the thread's spare slot (largest kept).
    fn drop(&mut self) {
        spare::retire(&mut self.transactions, &SPARE_TRANSACTIONS);
    }
}

impl FromIterator<Transaction> for HandshakeLog {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        HandshakeLog { transactions: iter.into_iter().collect() }
    }
}

/// Phase of the sender FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderPhase {
    /// No handshake in flight.
    Idle,
    /// `REQ` is high, waiting for `ACK` rise.
    ReqHigh,
    /// `REQ` lowered, waiting for `ACK` fall.
    AwaitingAckFall,
}

/// Sender-side 4-phase handshake state machine.
///
/// Drive it from a discrete-event loop:
///
/// 1. [`next_req_rise`] tells you when `REQ` next rises (if an event is
///    pending and the link has recovered);
/// 2. call [`begin`] at that instant — the returned spike's address is
///    now stable on the bus and `REQ` is high;
/// 3. when the receiver raises `ACK`, call [`ack_rise`] to get the
///    `REQ` fall time;
/// 4. when the receiver lowers `ACK`, call [`ack_fall`] to complete the
///    [`Transaction`].
///
/// Events whose spike time arrives while a handshake is still in flight
/// queue up inside the sender (sensor-side backpressure), exactly like
/// the arbiter of a real AER sensor.
///
/// The sender *borrows* its stimulus: it replays a time-sorted
/// `&[Spike]` through a cursor instead of owning a copy, so running the
/// same train through many interface configurations (benches, fault
/// campaigns, sweeps) never clones event storage.
///
/// [`next_req_rise`]: HandshakeSender::next_req_rise
/// [`begin`]: HandshakeSender::begin
/// [`ack_rise`]: HandshakeSender::ack_rise
/// [`ack_fall`]: HandshakeSender::ack_fall
#[derive(Debug, Clone)]
pub struct HandshakeSender<'a> {
    timing: HandshakeTiming,
    pending: &'a [Spike],
    next: usize,
    ready_at: SimTime,
    phase: SenderPhase,
    in_flight: Option<(Spike, SimTime)>,
}

impl<'a> HandshakeSender<'a> {
    /// Creates a sender that will transmit `train` with the given
    /// timing, borrowing the train's storage (zero-copy).
    pub fn new(train: &'a SpikeTrain, timing: HandshakeTiming) -> HandshakeSender<'a> {
        HandshakeSender::over(train.as_slice(), timing)
    }

    /// Creates a sender over a raw event slice, for callers that hold
    /// spikes outside a [`SpikeTrain`] (e.g. a memory-mapped capture).
    ///
    /// The slice must be sorted by spike time — the invariant
    /// [`SpikeTrain`] enforces structurally — or `REQ` rise times would
    /// go backwards; this is debug-asserted.
    pub fn over(spikes: &'a [Spike], timing: HandshakeTiming) -> HandshakeSender<'a> {
        debug_assert!(
            spikes.windows(2).all(|w| w[0].time <= w[1].time),
            "spike slice must be sorted by time"
        );
        HandshakeSender {
            timing,
            pending: spikes,
            next: 0,
            ready_at: SimTime::ZERO,
            phase: SenderPhase::Idle,
            in_flight: None,
        }
    }

    /// `true` when every queued spike has completed its handshake.
    pub fn is_done(&self) -> bool {
        self.next == self.pending.len() && self.phase == SenderPhase::Idle
    }

    /// When `REQ` will next rise: the later of the next spike's time
    /// and the link recovery instant. `None` if the sender is busy or
    /// out of spikes.
    pub fn next_req_rise(&self) -> Option<SimTime> {
        if self.phase != SenderPhase::Idle {
            return None;
        }
        self.pending.get(self.next).map(|s| s.time.max(self.ready_at))
    }

    /// Commits to the `REQ` rising edge at `now`, returning the spike
    /// whose address is now stable on the bus.
    ///
    /// # Panics
    ///
    /// Panics if the sender is busy, has no pending spike, or `now`
    /// precedes [`next_req_rise`](Self::next_req_rise).
    pub fn begin(&mut self, now: SimTime) -> Spike {
        assert_eq!(self.phase, SenderPhase::Idle, "begin() while a handshake is in flight");
        let expected = self.next_req_rise().expect("begin() with no pending spike");
        assert!(now >= expected, "begin() at {now} before the scheduled REQ rise at {expected}");
        let spike = self.pending[self.next];
        self.next += 1;
        self.phase = SenderPhase::ReqHigh;
        self.in_flight = Some((spike, now));
        spike
    }

    /// Handles the receiver's `ACK` rising edge at `now`; returns the
    /// instant at which this sender lowers `REQ`.
    ///
    /// # Panics
    ///
    /// Panics if no handshake is in flight with `REQ` high.
    pub fn ack_rise(&mut self, now: SimTime) -> SimTime {
        assert_eq!(self.phase, SenderPhase::ReqHigh, "ACK rise without REQ high");
        self.phase = SenderPhase::AwaitingAckFall;
        now + self.timing.req_fall_delay
    }

    /// Handles the receiver's `ACK` falling edge, completing the
    /// handshake. `req_fall` must be the time previously returned by
    /// [`ack_rise`](Self::ack_rise), and `ack_rise_time` the time that
    /// call was made at.
    ///
    /// # Panics
    ///
    /// Panics if called out of protocol order.
    pub fn ack_fall(
        &mut self,
        ack_rise_time: SimTime,
        req_fall: SimTime,
        now: SimTime,
    ) -> Transaction {
        assert_eq!(self.phase, SenderPhase::AwaitingAckFall, "ACK fall out of order");
        let (spike, req_rise) = self.in_flight.take().expect("in-flight spike present");
        self.phase = SenderPhase::Idle;
        self.ready_at = now + self.timing.recovery;
        Transaction {
            addr: spike.addr,
            event_time: spike.time,
            req_rise,
            ack_rise: ack_rise_time,
            req_fall,
            ack_fall: now,
        }
    }

    /// Abandons the in-flight handshake (watchdog recovery path): the
    /// receiver gave up waiting for the sensor's edges and resets the
    /// channel. The spike is dropped, `REQ` is considered released,
    /// and the link recovers normally before the next `REQ` rise.
    /// Returns the abandoned spike, or `None` if the sender was idle.
    pub fn abort(&mut self, now: SimTime) -> Option<Spike> {
        if self.phase == SenderPhase::Idle {
            return None;
        }
        let abandoned = self.in_flight.take().map(|(spike, _)| spike);
        self.phase = SenderPhase::Idle;
        self.ready_at = now + self.timing.recovery;
        abandoned
    }

    /// The sender's timing configuration.
    pub fn timing(&self) -> &HandshakeTiming {
        &self.timing
    }
}

/// Runs a complete spike train through a sender against an idealised
/// receiver that answers `REQ`/`REQ-fall` after fixed `ack_latency`.
///
/// This is the reference "fast receiver" used by tests and by the
/// behavioral pipeline; the full DES interface in the `aetr` core crate
/// plays the receiver role itself (with a synchroniser and possibly a
/// sleeping clock) instead.
pub fn run_with_fixed_latency(
    train: &SpikeTrain,
    timing: HandshakeTiming,
    ack_latency: SimDuration,
) -> HandshakeLog {
    let mut sender = HandshakeSender::new(train, timing);
    let mut log = HandshakeLog::new();
    while let Some(t_req) = sender.next_req_rise() {
        sender.begin(t_req);
        let t_ack_rise = t_req + ack_latency;
        let t_req_fall = sender.ack_rise(t_ack_rise);
        let t_ack_fall = t_req_fall + ack_latency;
        log.push(sender.ack_fall(t_ack_rise, t_req_fall, t_ack_fall));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(times_ns: &[u64]) -> SpikeTrain {
        SpikeTrain::from_sorted(
            times_ns
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    Spike::new(SimTime::from_ns(t), Address::new(i as u16 % 1024).unwrap())
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_handshake_edge_ordering() {
        let log = run_with_fixed_latency(
            &train(&[100]),
            HandshakeTiming::default(),
            SimDuration::from_ns(20),
        );
        assert_eq!(log.len(), 1);
        let t = log.transactions()[0];
        assert!(t.is_well_formed());
        assert_eq!(t.req_rise, SimTime::from_ns(100));
        assert_eq!(t.ack_rise, SimTime::from_ns(120));
        assert_eq!(t.req_fall, SimTime::from_ns(130)); // +10ns req_fall_delay
        assert_eq!(t.ack_fall, SimTime::from_ns(150));
        assert_eq!(t.duration(), SimDuration::from_ns(50));
        assert_eq!(t.ack_latency(), SimDuration::from_ns(20));
        log.verify_protocol().unwrap();
        log.verify_caviar().unwrap();
    }

    #[test]
    fn backpressure_queues_fast_spikes() {
        // Two spikes 1 ns apart but the handshake takes 50 ns: the
        // second REQ rise must wait for recovery.
        let log = run_with_fixed_latency(
            &train(&[100, 101]),
            HandshakeTiming::default(),
            SimDuration::from_ns(20),
        );
        let t1 = log.transactions()[1];
        // ack_fall(0) = 150, recovery 10 -> req_rise >= 160.
        assert_eq!(t1.req_rise, SimTime::from_ns(160));
        assert_eq!(t1.queue_delay(), SimDuration::from_ns(59));
        assert_eq!(log.max_queue_delay(), Some(SimDuration::from_ns(59)));
    }

    #[test]
    fn idle_sender_reports_none_and_done() {
        let empty = SpikeTrain::new();
        let sender = HandshakeSender::new(&empty, HandshakeTiming::default());
        assert!(sender.is_done());
        assert_eq!(sender.next_req_rise(), None);
        let two = train(&[5]);
        let mut sender2 = HandshakeSender::new(&two, HandshakeTiming::default());
        assert!(!sender2.is_done());
        sender2.begin(SimTime::from_ns(5));
        assert_eq!(sender2.next_req_rise(), None, "busy sender advertises no REQ");
    }

    #[test]
    fn caviar_violation_detected() {
        let log = run_with_fixed_latency(
            &train(&[0]),
            HandshakeTiming::default(),
            SimDuration::from_ns(400), // 400 + 10 + 400 = 810 ns > 700 ns
        );
        let v = log.verify_caviar().unwrap_err();
        assert_eq!(v.index, 0);
        assert_eq!(v.duration, SimDuration::from_ns(810));
        assert!(v.to_string().contains("CAVIAR"));
    }

    #[test]
    fn protocol_violation_detected() {
        let mut log = HandshakeLog::new();
        log.push(Transaction {
            addr: Address::MIN,
            event_time: SimTime::ZERO,
            req_rise: SimTime::from_ns(10),
            ack_rise: SimTime::from_ns(5), // before req_rise!
            req_fall: SimTime::from_ns(20),
            ack_fall: SimTime::from_ns(30),
        });
        assert_eq!(log.verify_protocol().unwrap_err().index, 0);
    }

    #[test]
    fn all_spikes_complete_in_order() {
        let times: Vec<u64> = (0..100).map(|i| i * 1_000).collect();
        let log = run_with_fixed_latency(
            &train(&times),
            HandshakeTiming::default(),
            SimDuration::from_ns(15),
        );
        assert_eq!(log.len(), 100);
        for w in log.transactions().windows(2) {
            assert!(w[1].req_rise > w[0].ack_fall, "handshakes must not overlap");
        }
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_begin_panics() {
        let tr = train(&[1, 2]);
        let mut s = HandshakeSender::new(&tr, HandshakeTiming::default());
        s.begin(SimTime::from_ns(1));
        s.begin(SimTime::from_ns(2));
    }

    #[test]
    fn abort_resets_the_channel_and_drops_the_spike() {
        let tr = train(&[100, 200]);
        let mut s = HandshakeSender::new(&tr, HandshakeTiming::default());
        assert_eq!(s.abort(SimTime::from_ns(50)), None, "idle abort is a no-op");
        s.begin(SimTime::from_ns(100));
        let dropped = s.abort(SimTime::from_ns(500)).expect("in-flight spike returned");
        assert_eq!(dropped.time, SimTime::from_ns(100));
        assert!(!s.is_done(), "second spike still pending");
        // Recovery applies from the abort instant.
        assert_eq!(s.next_req_rise(), Some(SimTime::from_ns(510)));
        s.begin(SimTime::from_ns(510));
        let req_fall = s.ack_rise(SimTime::from_ns(530));
        s.ack_fall(SimTime::from_ns(530), req_fall, req_fall + SimDuration::from_ns(20));
        assert!(s.is_done());
    }

    #[test]
    fn abort_mid_ack_fall_wait_also_recovers() {
        let tr = train(&[100]);
        let mut s = HandshakeSender::new(&tr, HandshakeTiming::default());
        s.begin(SimTime::from_ns(100));
        s.ack_rise(SimTime::from_ns(120));
        assert!(s.abort(SimTime::from_ns(900)).is_some());
        assert!(s.is_done());
    }

    #[test]
    #[should_panic(expected = "without REQ high")]
    fn ack_rise_when_idle_panics() {
        let tr = train(&[1]);
        let mut s = HandshakeSender::new(&tr, HandshakeTiming::default());
        s.ack_rise(SimTime::from_ns(1));
    }
}
