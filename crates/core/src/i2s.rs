//! I2S carrier for the AETR stream.
//!
//! The paper selects I2S "accordingly to the audio nature of the
//! cochlea signal": any I2S-equipped microcontroller (e.g. the
//! STM32-L476) can consume the stream with its audio peripheral and
//! DMA. Each stereo frame carries two 32-bit AETR words (left and
//! right slots); a frame therefore takes `2 × 32` SCK cycles.
//!
//! The transmitter here models frame-level timing exactly (start time,
//! duration at the configured bit clock) and odd-event padding with an
//! idle word; [`decode_frames`] is the MCU-side inverse.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::spare;
use aetr_sim::time::{Frequency, SimDuration, SimTime};

use crate::aetr_format::AetrEvent;

/// Padding word used to fill the right slot of a half-full frame: an
/// all-ones word (address 1023 with a saturated timestamp) that real
/// events never produce, because the front end clamps addresses to the
/// sensor range and a saturated event still carries its real address.
pub const IDLE_WORD: u32 = u32::MAX;

/// I2S link configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct I2sConfig {
    /// Serial (bit) clock frequency. The prototype derives it from the
    /// 30 MHz reference; 15 MHz sustains ≈470 kevt/s.
    pub sck: Frequency,
    /// Bits per slot (fixed 32 for AETR words).
    pub bits_per_slot: u32,
}

impl I2sConfig {
    /// The prototype configuration: SCK at 15 MHz, 32-bit slots.
    pub fn prototype() -> I2sConfig {
        I2sConfig { sck: Frequency::from_mhz(15), bits_per_slot: 32 }
    }

    /// Duration of one stereo frame (two slots).
    ///
    /// # Panics
    ///
    /// Panics on a zero SCK frequency.
    pub fn frame_duration(&self) -> SimDuration {
        self.sck.period().saturating_mul(2 * self.bits_per_slot as u64)
    }

    /// Sustained event throughput in events per second (two events per
    /// frame).
    pub fn max_event_rate_hz(&self) -> f64 {
        2.0 / self.frame_duration().as_secs_f64()
    }
}

impl Default for I2sConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

/// One transmitted stereo frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct I2sFrame {
    /// When the frame's first SCK edge occurred.
    pub start: SimTime,
    /// Left-slot word.
    pub left: u32,
    /// Right-slot word ([`IDLE_WORD`] for a padded frame).
    pub right: u32,
}

impl I2sFrame {
    /// The events carried by this frame (ignoring idle padding).
    pub fn events(&self) -> impl Iterator<Item = AetrEvent> {
        [self.left, self.right].into_iter().filter(|&w| w != IDLE_WORD).map(AetrEvent::from_word)
    }
}

thread_local! {
    // A dropped stream's storage; see `aetr_sim::spare`. A dense 100 ms
    // run sends 20 000 frames, 320 kB.
    static SPARE_FRAMES: Cell<Vec<I2sFrame>> = const { Cell::new(Vec::new()) };
}

/// A transmitted I2S stream: time-ordered frames.
///
/// A dropped stream retires its storage into a per-thread spare slot
/// that [`I2sStream::with_capacity`] on the same thread takes back (see
/// [`aetr_sim::spare`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct I2sStream {
    frames: Vec<I2sFrame>,
}

impl I2sStream {
    /// Creates an empty stream.
    pub fn new() -> I2sStream {
        I2sStream::default()
    }

    /// Creates an empty stream with room for at least `frames` frames,
    /// on the thread's recycled storage when there is one.
    pub fn with_capacity(frames: usize) -> I2sStream {
        I2sStream { frames: spare::take(&SPARE_FRAMES, frames) }
    }

    /// Appends a frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame.start` precedes the last frame's start.
    pub fn push(&mut self, frame: I2sFrame) {
        if let Some(last) = self.frames.last() {
            assert!(frame.start >= last.start, "I2S frames must be appended in time order");
        }
        self.frames.push(frame);
    }

    /// The frames.
    pub fn frames(&self) -> &[I2sFrame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when nothing was transmitted.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total events carried (idle padding excluded).
    pub fn event_count(&self) -> usize {
        self.frames.iter().map(|f| f.events().count()).sum()
    }

    /// Removes and returns the most recent frame (fault-injection
    /// support: a receiver-side frame slip loses the frame *after* the
    /// transmitter spent the bus time sending it).
    pub fn pop_last(&mut self) -> Option<I2sFrame> {
        self.frames.pop()
    }
}

impl Drop for I2sStream {
    /// Retires the storage into the thread's spare slot (largest kept).
    fn drop(&mut self) {
        spare::retire(&mut self.frames, &SPARE_FRAMES);
    }
}

/// Frame-overlap error from the transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOverlapError {
    /// When the offending transmission was requested.
    pub requested: SimTime,
    /// When the transmitter becomes free.
    pub busy_until: SimTime,
}

impl fmt::Display for FrameOverlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I2S busy until {}, cannot start a frame at {}", self.busy_until, self.requested)
    }
}

impl Error for FrameOverlapError {}

/// The I2S transmitter.
///
/// # Examples
///
/// ```
/// use aetr::aetr_format::{AetrEvent, Timestamp};
/// use aetr::i2s::{I2sConfig, I2sTransmitter};
/// use aetr_aer::address::Address;
/// use aetr_sim::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tx = I2sTransmitter::new(I2sConfig::prototype());
/// let ev = AetrEvent::new(Address::new(3)?, Timestamp::from_ticks(9));
/// let done = tx.send_pair(SimTime::from_us(10), ev, None)?;
/// assert!(done > SimTime::from_us(10));
/// assert_eq!(tx.stream().event_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct I2sTransmitter {
    config: I2sConfig,
    stream: I2sStream,
    busy_until: SimTime,
}

impl I2sTransmitter {
    /// Creates an idle transmitter.
    pub fn new(config: I2sConfig) -> I2sTransmitter {
        I2sTransmitter::with_capacity(config, 0)
    }

    /// Creates an idle transmitter whose stream has room for `frames`
    /// frames (see [`I2sStream::with_capacity`]).
    pub fn with_capacity(config: I2sConfig, frames: usize) -> I2sTransmitter {
        I2sTransmitter {
            config,
            stream: I2sStream::with_capacity(frames),
            busy_until: SimTime::ZERO,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &I2sConfig {
        &self.config
    }

    /// When the transmitter finishes its current frame.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Transmits one frame carrying up to two events starting at `now`;
    /// a missing second event is padded with [`IDLE_WORD`]. Returns the
    /// frame completion time.
    ///
    /// # Errors
    ///
    /// Returns [`FrameOverlapError`] if the previous frame has not
    /// finished.
    pub fn send_pair(
        &mut self,
        now: SimTime,
        first: AetrEvent,
        second: Option<AetrEvent>,
    ) -> Result<SimTime, FrameOverlapError> {
        if now < self.busy_until {
            return Err(FrameOverlapError { requested: now, busy_until: self.busy_until });
        }
        let frame = I2sFrame {
            start: now,
            left: first.to_word(),
            right: second.map_or(IDLE_WORD, AetrEvent::to_word),
        };
        self.stream.push(frame);
        self.busy_until = now + self.config.frame_duration();
        Ok(self.busy_until)
    }

    /// Discards the most recently transmitted frame — a receiver-side
    /// frame slip. The bus time stays spent (`busy_until` is
    /// unchanged); only the data is lost. Returns the lost frame.
    pub fn drop_last_frame(&mut self) -> Option<I2sFrame> {
        self.stream.pop_last()
    }

    /// The transmitted stream so far.
    pub fn stream(&self) -> &I2sStream {
        &self.stream
    }

    /// Consumes the transmitter, returning the stream.
    pub fn into_stream(self) -> I2sStream {
        self.stream
    }
}

/// MCU-side decode: recovers the AETR events from a stream, in order.
pub fn decode_frames(stream: &I2sStream) -> Vec<AetrEvent> {
    stream.frames().iter().flat_map(I2sFrame::events).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aetr_format::Timestamp;
    use aetr_aer::address::Address;

    fn ev(i: u16) -> AetrEvent {
        AetrEvent::new(Address::new(i).unwrap(), Timestamp::from_ticks(i as u64 * 3))
    }

    #[test]
    fn prototype_rates() {
        let cfg = I2sConfig::prototype();
        // 64 bits at 15 MHz ≈ 4.27 µs per frame, ~469 kevt/s.
        let us = cfg.frame_duration().as_ps() as f64 / 1e6;
        assert!((us - 4.27).abs() < 0.05, "frame {us} µs");
        let rate = cfg.max_event_rate_hz();
        assert!((rate - 469_000.0).abs() < 5_000.0, "rate {rate}");
    }

    #[test]
    fn frame_roundtrip_with_padding() {
        let mut tx = I2sTransmitter::new(I2sConfig::prototype());
        tx.send_pair(SimTime::ZERO, ev(1), Some(ev(2))).unwrap();
        let t2 = tx.busy_until();
        tx.send_pair(t2, ev(3), None).unwrap();
        let decoded = decode_frames(tx.stream());
        assert_eq!(decoded, vec![ev(1), ev(2), ev(3)]);
        assert_eq!(tx.stream().event_count(), 3);
        assert_eq!(tx.stream().len(), 2);
    }

    #[test]
    fn overlapping_transmission_rejected() {
        let mut tx = I2sTransmitter::new(I2sConfig::prototype());
        tx.send_pair(SimTime::from_us(1), ev(1), None).unwrap();
        let err = tx.send_pair(SimTime::from_us(2), ev(2), None).unwrap_err();
        assert_eq!(err.requested, SimTime::from_us(2));
        assert!(err.busy_until > err.requested);
        assert!(err.to_string().contains("busy"));
        // After the frame ends it works again.
        assert!(tx.send_pair(err.busy_until, ev(2), None).is_ok());
    }

    #[test]
    fn frame_timing_is_exact() {
        let cfg = I2sConfig { sck: Frequency::from_mhz(1), bits_per_slot: 32 };
        let mut tx = I2sTransmitter::new(cfg);
        let done = tx.send_pair(SimTime::ZERO, ev(0), None).unwrap();
        // 64 cycles at 1 MHz = 64 µs.
        assert_eq!(done, SimTime::from_us(64));
    }

    #[test]
    fn idle_word_never_collides_with_saturated_event() {
        // A saturated event at the maximum *sensor* address (1023) would
        // collide — but real sensors use < 1024 addresses and the
        // interface range-checks; documents the invariant.
        let almost = AetrEvent::new(Address::new(1022).unwrap(), Timestamp::SATURATED);
        assert_ne!(almost.to_word(), IDLE_WORD);
    }

    #[test]
    fn drop_last_frame_keeps_bus_time_spent() {
        let mut tx = I2sTransmitter::new(I2sConfig::prototype());
        tx.send_pair(SimTime::ZERO, ev(1), Some(ev(2))).unwrap();
        let busy = tx.busy_until();
        let slipped = tx.drop_last_frame().expect("frame was sent");
        assert_eq!(slipped.events().count(), 2);
        assert_eq!(tx.stream().len(), 0, "frame gone from the stream");
        assert_eq!(tx.busy_until(), busy, "bus time was still consumed");
        assert_eq!(tx.drop_last_frame(), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn stream_rejects_time_travel() {
        let mut s = I2sStream::new();
        s.push(I2sFrame { start: SimTime::from_us(10), left: 0, right: 0 });
        s.push(I2sFrame { start: SimTime::from_us(5), left: 0, right: 0 });
    }
}
