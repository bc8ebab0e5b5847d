//! The AETR buffer: an SRAM FIFO with watermark-triggered batching.
//!
//! The prototype holds "AETR data to create a batch to be transferred
//! in block" in a 9.2 kB SRAM FIFO (Fig. 3): events accumulate while
//! the rest of the system stays clock-gated, and once a configurable
//! threshold is reached the batch is drained to the I2S interface.
//!
//! # Depth vocabulary
//!
//! Reports and telemetry use one definition:
//!
//! * **capacity** — the configured maximum number of entries
//!   ([`FifoConfig::capacity_events`]);
//! * **occupancy** (= "depth" in a snapshot) — the number of entries
//!   *actually buffered right now*: [`AetrFifo::len`].
//!
//! Everything derived follows the same rule: telemetry's
//! `interface.fifo.occupancy` gauge and `interface.fifo.depth`
//! histogram sample [`AetrFifo::len`], and
//! [`FifoStats::high_watermark`] is the maximum occupancy ever
//! observed — none of them refer to capacity.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::aetr_format::AetrEvent;

/// What to do when an event arrives at a full FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Drop the incoming event (the hardware behaviour: the write is
    /// simply not performed).
    #[default]
    DropNewest,
    /// Drop the oldest buffered event to make room.
    DropOldest,
}

/// What happened to an event offered to [`AetrFifo::push`].
///
/// Distinguishing the two overflow modes at the call site lets the
/// health monitor attribute losses without re-reading [`FifoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PushOutcome {
    /// The event was stored without displacing anything.
    Stored,
    /// The FIFO was full and the *incoming* event was discarded
    /// ([`OverflowPolicy::DropNewest`]).
    DroppedNewest,
    /// The FIFO was full and the *oldest buffered* event was discarded
    /// to make room; the incoming event was stored
    /// ([`OverflowPolicy::DropOldest`]).
    DroppedOldest,
}

impl PushOutcome {
    /// `true` when *some* event was lost, incoming or buffered.
    pub fn lost_an_event(self) -> bool {
        !matches!(self, PushOutcome::Stored)
    }
}

/// FIFO configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoConfig {
    /// Capacity in bytes (one AETR event is 4 bytes). The prototype's
    /// SRAM is 9.2 kB.
    pub capacity_bytes: usize,
    /// Drain threshold in events: the I2S transfer starts once the
    /// occupancy reaches this watermark.
    pub watermark: usize,
    /// Behaviour on overflow.
    pub overflow: OverflowPolicy,
}

impl FifoConfig {
    /// The prototype configuration: 9.2 kB (2300 events), watermark at
    /// half capacity.
    pub fn prototype() -> FifoConfig {
        FifoConfig { capacity_bytes: 9_216, watermark: 1_150, overflow: OverflowPolicy::default() }
    }

    /// Capacity in events.
    pub fn capacity_events(&self) -> usize {
        self.capacity_bytes / 4
    }
}

impl Default for FifoConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

/// Occupancy and loss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoStats {
    /// Events pushed successfully.
    pub pushed: u64,
    /// Events popped.
    pub popped: u64,
    /// Events lost at a full buffer, all causes
    /// (`dropped_overflow + dropped_degraded`).
    pub dropped: u64,
    /// Events lost at a full buffer in normal operation.
    pub dropped_overflow: u64,
    /// Events lost at a full buffer while the watchdog had the
    /// interface in degraded mode ([`AetrFifo::set_degraded`]).
    pub dropped_degraded: u64,
    /// Highest occupancy ([`AetrFifo::len`]) observed.
    pub high_watermark: usize,
    /// Number of times the drain watermark was crossed upward.
    pub watermark_crossings: u64,
}

impl FifoStats {
    /// Fraction of offered events that were lost.
    pub fn loss_ratio(&self) -> f64 {
        let offered = self.pushed + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

impl fmt::Display for FifoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pushed {}, popped {}, dropped {} ({:.2}%; overflow {}, degraded {}), \
             peak occupancy {}",
            self.pushed,
            self.popped,
            self.dropped,
            self.loss_ratio() * 100.0,
            self.dropped_overflow,
            self.dropped_degraded,
            self.high_watermark
        )
    }
}

/// The SRAM FIFO model.
///
/// # Examples
///
/// ```
/// use aetr::aetr_format::{AetrEvent, Timestamp};
/// use aetr::fifo::{AetrFifo, FifoConfig};
/// use aetr_aer::address::Address;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fifo = AetrFifo::new(FifoConfig::prototype());
/// fifo.push(AetrEvent::new(Address::new(1)?, Timestamp::from_ticks(5)));
/// assert_eq!(fifo.len(), 1);
/// assert!(fifo.pop().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AetrFifo {
    config: FifoConfig,
    queue: VecDeque<AetrEvent>,
    stats: FifoStats,
    degraded: bool,
}

impl AetrFifo {
    /// Creates an empty FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no events or the watermark exceeds
    /// the capacity.
    pub fn new(config: FifoConfig) -> AetrFifo {
        assert!(config.capacity_events() > 0, "FIFO capacity must hold at least one event");
        assert!(
            config.watermark <= config.capacity_events(),
            "watermark {} exceeds capacity {} events",
            config.watermark,
            config.capacity_events()
        );
        AetrFifo { config, queue: VecDeque::new(), stats: FifoStats::default(), degraded: false }
    }

    /// Marks subsequent overflow drops as degraded-mode losses, so the
    /// health report can attribute them to the watchdog fallback rather
    /// than ordinary congestion.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Whether drops are currently attributed to degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The configuration.
    pub fn config(&self) -> &FifoConfig {
        &self.config
    }

    /// Current occupancy in events — the canonical "depth" of the
    /// buffer (see the [module docs](self) for the shared vocabulary).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` when the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.config.capacity_events()
    }

    /// `true` once occupancy has reached the drain watermark.
    pub fn at_watermark(&self) -> bool {
        self.queue.len() >= self.config.watermark
    }

    /// Pushes an event, applying the overflow policy when full, and
    /// reports what happened to it.
    pub fn push(&mut self, event: AetrEvent) -> PushOutcome {
        let was_below = self.queue.len() < self.config.watermark;
        let mut outcome = PushOutcome::Stored;
        if self.is_full() {
            match self.config.overflow {
                OverflowPolicy::DropNewest => {
                    self.count_drop();
                    return PushOutcome::DroppedNewest;
                }
                OverflowPolicy::DropOldest => {
                    self.queue.pop_front();
                    self.count_drop();
                    outcome = PushOutcome::DroppedOldest;
                }
            }
        }
        self.queue.push_back(event);
        self.stats.pushed += 1;
        self.stats.high_watermark = self.stats.high_watermark.max(self.queue.len());
        if was_below && self.queue.len() >= self.config.watermark {
            self.stats.watermark_crossings += 1;
        }
        outcome
    }

    /// Pops the oldest event.
    pub fn pop(&mut self) -> Option<AetrEvent> {
        let ev = self.queue.pop_front();
        if ev.is_some() {
            self.stats.popped += 1;
        }
        ev
    }

    /// Pops up to `n` events as a batch.
    pub fn pop_batch(&mut self, n: usize) -> Vec<AetrEvent> {
        let take = n.min(self.queue.len());
        let batch: Vec<AetrEvent> = self.queue.drain(..take).collect();
        self.stats.popped += batch.len() as u64;
        batch
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FifoStats {
        &self.stats
    }

    fn count_drop(&mut self) {
        self.stats.dropped += 1;
        if self.degraded {
            self.stats.dropped_degraded += 1;
        } else {
            self.stats.dropped_overflow += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aetr_format::Timestamp;
    use aetr_aer::address::Address;

    fn ev(i: u16) -> AetrEvent {
        AetrEvent::new(Address::new(i % 1024).unwrap(), Timestamp::from_ticks(i as u64))
    }

    fn tiny(watermark: usize, overflow: OverflowPolicy) -> AetrFifo {
        AetrFifo::new(FifoConfig { capacity_bytes: 16, watermark, overflow })
    }

    #[test]
    fn prototype_capacity_is_2304_events() {
        let fifo = AetrFifo::new(FifoConfig::prototype());
        assert_eq!(fifo.config().capacity_events(), 2_304);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut fifo = AetrFifo::new(FifoConfig::prototype());
        for i in 0..10 {
            fifo.push(ev(i));
        }
        for i in 0..10 {
            assert_eq!(fifo.pop(), Some(ev(i)));
        }
        assert_eq!(fifo.pop(), None);
    }

    #[test]
    fn drop_newest_on_overflow() {
        let mut fifo = tiny(2, OverflowPolicy::DropNewest);
        for i in 0..4 {
            assert_eq!(fifo.push(ev(i)), PushOutcome::Stored);
        }
        for i in 4..6 {
            assert_eq!(fifo.push(ev(i)), PushOutcome::DroppedNewest);
        }
        assert_eq!(fifo.len(), 4);
        assert_eq!(fifo.stats().dropped, 2);
        assert_eq!(fifo.pop(), Some(ev(0)), "oldest survives");
    }

    #[test]
    fn drop_oldest_on_overflow() {
        let mut fifo = tiny(2, OverflowPolicy::DropOldest);
        for i in 0..4 {
            assert_eq!(fifo.push(ev(i)), PushOutcome::Stored);
        }
        for i in 4..6 {
            assert_eq!(fifo.push(ev(i)), PushOutcome::DroppedOldest);
        }
        assert_eq!(fifo.len(), 4);
        assert_eq!(fifo.stats().dropped, 2);
        assert_eq!(fifo.pop(), Some(ev(2)), "newest survive");
    }

    #[test]
    fn push_outcome_classifiers() {
        assert!(!PushOutcome::Stored.lost_an_event());
        assert!(PushOutcome::DroppedNewest.lost_an_event());
        assert!(PushOutcome::DroppedOldest.lost_an_event());
    }

    #[test]
    fn watermark_crossings_counted_once_per_crossing() {
        let mut fifo = tiny(2, OverflowPolicy::DropNewest);
        fifo.push(ev(0));
        fifo.push(ev(1)); // crossing 1
        fifo.push(ev(2));
        fifo.pop_batch(3);
        fifo.push(ev(3));
        fifo.push(ev(4)); // crossing 2
        assert_eq!(fifo.stats().watermark_crossings, 2);
        assert!(fifo.at_watermark());
    }

    #[test]
    fn batch_pop_and_stats() {
        let mut fifo = AetrFifo::new(FifoConfig::prototype());
        for i in 0..100 {
            fifo.push(ev(i));
        }
        let batch = fifo.pop_batch(64);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch[0], ev(0));
        assert_eq!(fifo.len(), 36);
        let rest = fifo.pop_batch(1_000);
        assert_eq!(rest.len(), 36);
        assert_eq!(fifo.stats().popped, 100);
        assert_eq!(fifo.stats().high_watermark, 100);
        assert_eq!(fifo.stats().loss_ratio(), 0.0);
    }

    #[test]
    fn display_reports_loss() {
        let mut fifo = tiny(4, OverflowPolicy::DropNewest);
        for i in 0..8 {
            fifo.push(ev(i));
        }
        let text = fifo.stats().to_string();
        assert!(text.contains("dropped 4"), "{text}");
        assert!(text.contains("overflow 4"), "{text}");
    }

    #[test]
    fn drops_split_by_degraded_mode() {
        let mut fifo = tiny(2, OverflowPolicy::DropNewest);
        for i in 0..4 {
            fifo.push(ev(i));
        }
        fifo.push(ev(4)); // normal overflow
        fifo.set_degraded(true);
        assert!(fifo.is_degraded());
        fifo.push(ev(5));
        fifo.push(ev(6)); // two degraded-mode drops
        let stats = fifo.stats();
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.dropped_overflow, 1);
        assert_eq!(stats.dropped_degraded, 2);
        assert_eq!(stats.dropped, stats.dropped_overflow + stats.dropped_degraded);
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn watermark_above_capacity_panics() {
        let _ = AetrFifo::new(FifoConfig {
            capacity_bytes: 8,
            watermark: 3,
            overflow: OverflowPolicy::DropNewest,
        });
    }
}
