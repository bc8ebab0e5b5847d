//! Dual-clock FIFO with Gray-code pointer synchronisation.
//!
//! The prototype runs *everything* on the one variable-frequency
//! clock, which is why its I2S bit clock slows down with the division
//! (a quirk the paper does not dwell on). The robust alternative —
//! and what a production version of this interface would do — is a
//! clock-domain-crossing FIFO: write side on the variable sampling
//! clock, read side on a fixed I2S clock, with the occupancy pointers
//! exchanged through per-domain 2-FF synchronisers in Gray code so a
//! pointer in flight is wrong by at most one (conservative full/empty,
//! never corruption).
//!
//! The model is behavioural but honest about the CDC semantics: each
//! domain sees the other's pointer *delayed by two of its own clock
//! periods*, so `full`/`empty` are pessimistic exactly the way the
//! hardware is.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

/// Binary → reflected-binary (Gray) code.
///
/// # Examples
///
/// ```
/// use aetr::cdc_fifo::{binary_to_gray, gray_to_binary};
///
/// assert_eq!(binary_to_gray(0b1011), 0b1110);
/// assert_eq!(gray_to_binary(0b1110), 0b1011);
/// ```
pub const fn binary_to_gray(x: u32) -> u32 {
    x ^ (x >> 1)
}

/// Reflected-binary (Gray) → binary code.
pub const fn gray_to_binary(mut g: u32) -> u32 {
    let mut shift = 1;
    while shift < 32 {
        g ^= g >> shift;
        shift <<= 1;
    }
    g
}

/// Configuration of the dual-clock FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdcFifoConfig {
    /// Capacity in entries; must be a power of two (Gray pointers
    /// wrap). Named `depth` for hardware familiarity, but per the
    /// shared vocabulary ([`fifo`](crate::fifo) module docs) this is
    /// *capacity*, not occupancy.
    pub depth: usize,
    /// Write-domain clock period (the variable sampling clock's
    /// *fastest* period for worst-case analysis).
    pub write_period: SimDuration,
    /// Read-domain clock period (e.g. the fixed I2S bit clock).
    pub read_period: SimDuration,
}

impl CdcFifoConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdcFifoError::BadDepth`] unless depth is a power of
    /// two ≥ 2, or [`CdcFifoError::ZeroPeriod`] for zero periods.
    pub fn validate(&self) -> Result<(), CdcFifoError> {
        if self.depth < 2 || !self.depth.is_power_of_two() {
            return Err(CdcFifoError::BadDepth { depth: self.depth });
        }
        if self.write_period.is_zero() || self.read_period.is_zero() {
            return Err(CdcFifoError::ZeroPeriod);
        }
        Ok(())
    }
}

/// CDC FIFO errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdcFifoError {
    /// Depth not a power of two ≥ 2.
    BadDepth {
        /// Offending depth.
        depth: usize,
    },
    /// A domain clock period was zero.
    ZeroPeriod,
    /// Push refused: the synchronised read pointer says full.
    Full,
    /// Non-monotonic access time within a domain.
    TimeWentBackwards,
}

impl fmt::Display for CdcFifoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdcFifoError::BadDepth { depth } => {
                write!(f, "depth {depth} must be a power of two >= 2")
            }
            CdcFifoError::ZeroPeriod => write!(f, "domain clock periods must be non-zero"),
            CdcFifoError::Full => write!(f, "FIFO full (as seen through the synchroniser)"),
            CdcFifoError::TimeWentBackwards => {
                write!(f, "per-domain access times must be non-decreasing")
            }
        }
    }
}

impl Error for CdcFifoError {}

/// Timestamped pointer history for one domain.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct PointerTrail {
    /// `(update time, pointer value)` — value is the *binary* pointer;
    /// the Gray encoding is what crosses, and crossing is modelled by
    /// the delay, not by corrupting values.
    updates: Vec<(SimTime, u64)>,
}

impl PointerTrail {
    fn push(&mut self, t: SimTime, v: u64) {
        self.updates.push((t, v));
    }

    /// Drops history older than `keep` before `t` — anything beyond
    /// the longest synchroniser delay can never be queried again.
    fn prune(&mut self, t: SimTime, keep: SimDuration) {
        let cutoff = t.saturating_duration_since(SimTime::ZERO);
        if cutoff <= keep {
            return;
        }
        let horizon = t - keep;
        // Keep at least the newest entry at or before the horizon so
        // `seen_through` still resolves.
        let split = self.updates.partition_point(|&(ut, _)| ut <= horizon);
        if split > 1 {
            self.updates.drain(..split - 1);
        }
    }

    /// The value visible at `t` minus `delay` (0 before any update).
    fn seen_through(&self, t: SimTime, delay: SimDuration) -> u64 {
        let cutoff = t.saturating_duration_since(SimTime::ZERO);
        let visible_until = if cutoff > delay { t - delay } else { SimTime::ZERO };
        self.updates
            .iter()
            .rev()
            .find(|&&(ut, _)| ut <= visible_until)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    fn latest(&self) -> u64 {
        self.updates.last().map(|&(_, v)| v).unwrap_or(0)
    }
}

/// The dual-clock FIFO.
///
/// # Examples
///
/// ```
/// use aetr::cdc_fifo::{CdcFifo, CdcFifoConfig};
/// use aetr_sim::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fifo: CdcFifo<u32> = CdcFifo::new(CdcFifoConfig {
///     depth: 8,
///     write_period: SimDuration::from_ns(66),
///     read_period: SimDuration::from_ns(33),
/// })?;
/// fifo.push(SimTime::from_ns(100), 0xAB)?;
/// // The reader sees the write only after its 2-FF synchroniser.
/// assert_eq!(fifo.pop(SimTime::from_ns(120)), None);
/// assert_eq!(fifo.pop(SimTime::from_ns(200)), Some(0xAB));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdcFifo<T> {
    config: CdcFifoConfig,
    storage: VecDeque<T>,
    write_trail: PointerTrail,
    read_trail: PointerTrail,
    last_write: SimTime,
    last_read: SimTime,
    /// Pushes refused because the (conservative) full flag was up.
    pub refused_full: u64,
    /// Pending single-event upset on the *write* pointer as the reader
    /// sees it (bit index in Gray space); cleared by the next read-side
    /// access.
    upset_write_ptr_bit: Option<u32>,
    /// Pending single-event upset on the *read* pointer as the writer
    /// sees it; cleared by the next write-side access.
    upset_read_ptr_bit: Option<u32>,
    /// Times a corrupted pointer view disagreed with physical storage
    /// and the hardened full/empty detectors refused the access
    /// (phantom pops refused, physical-full pushes refused).
    pub upset_anomalies: u64,
}

impl<T> CdcFifo<T> {
    /// Creates an empty FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`CdcFifoError`] for invalid configurations.
    pub fn new(config: CdcFifoConfig) -> Result<CdcFifo<T>, CdcFifoError> {
        config.validate()?;
        Ok(CdcFifo {
            config,
            storage: VecDeque::with_capacity(config.depth),
            write_trail: PointerTrail::default(),
            read_trail: PointerTrail::default(),
            last_write: SimTime::ZERO,
            last_read: SimTime::ZERO,
            refused_full: 0,
            upset_write_ptr_bit: None,
            upset_read_ptr_bit: None,
            upset_anomalies: 0,
        })
    }

    /// Number of bits in a crossing pointer (the `2N` Gray space).
    pub fn pointer_bits(&self) -> u32 {
        (2 * self.config.depth as u64).trailing_zeros()
    }

    /// Injects a single-event upset into the write pointer *as the
    /// read domain sees it*: bit `bit` (mod
    /// [`pointer_bits`](Self::pointer_bits)) of the Gray-coded pointer
    /// on the crossing wires flips for the next read-side access, then
    /// the correct value re-latches.
    pub fn upset_write_pointer(&mut self, bit: u32) {
        self.upset_write_ptr_bit = Some(bit % self.pointer_bits());
    }

    /// Injects a single-event upset into the read pointer as the
    /// *write* domain sees it (see
    /// [`upset_write_pointer`](Self::upset_write_pointer)).
    pub fn upset_read_pointer(&mut self, bit: u32) {
        self.upset_read_ptr_bit = Some(bit % self.pointer_bits());
    }

    /// A pointer value with one Gray-space bit flipped, re-anchored to
    /// the raw value's wrap epoch. Because Gray neighbours differ in
    /// one bit, a flipped bit decodes to *some* valid pointer — wrong
    /// by an arbitrary amount, never an invalid code.
    fn corrupted(&self, raw: u64, bit: u32) -> u64 {
        let span = 2 * self.config.depth as u64;
        let wrapped = (raw % span) as u32;
        let gray = binary_to_gray(wrapped) ^ (1 << bit);
        let decoded = u64::from(gray_to_binary(gray)) % span;
        raw - u64::from(wrapped) + decoded
    }

    fn sync_delay_into_write(&self) -> SimDuration {
        self.config.write_period * 2
    }

    /// Drops pointer history no future query can reach. Domain clocks
    /// advance independently, so the horizon is the *slower* domain's
    /// last time minus the longest synchroniser delay.
    fn prune_trails(&mut self) {
        let slowest = self.last_write.min(self.last_read);
        let keep = self.sync_delay_into_read().max(self.sync_delay_into_write());
        self.write_trail.prune(slowest, keep);
        self.read_trail.prune(slowest, keep);
    }

    fn sync_delay_into_read(&self) -> SimDuration {
        self.config.read_period * 2
    }

    /// Occupancy as the *write* domain sees it at `now` (pessimistic:
    /// the read pointer is stale, so this over-estimates). Saturated
    /// to `[0, depth]`: an upset pointer can claim any occupancy, but
    /// the view itself never reports the impossible.
    pub fn occupancy_seen_by_writer(&self, now: SimTime) -> u64 {
        let wr = self.write_trail.latest();
        let mut rd = self.read_trail.seen_through(now, self.sync_delay_into_write());
        if let Some(bit) = self.upset_read_ptr_bit {
            rd = self.corrupted(rd, bit);
        }
        wr.saturating_sub(rd).min(self.config.depth as u64)
    }

    /// Occupancy as the *read* domain sees it at `now` (pessimistic:
    /// the write pointer is stale, so this under-estimates). Saturated
    /// to `[0, depth]` like the writer view.
    pub fn occupancy_seen_by_reader(&self, now: SimTime) -> u64 {
        let mut wr = self.write_trail.seen_through(now, self.sync_delay_into_read());
        if let Some(bit) = self.upset_write_ptr_bit {
            wr = self.corrupted(wr, bit);
        }
        let rd = self.read_trail.latest();
        wr.saturating_sub(rd).min(self.config.depth as u64)
    }

    /// True occupancy (omniscient; tests and assertions only) — the
    /// canonical "depth" of this buffer in the shared vocabulary of
    /// the [`fifo`](crate::fifo) module docs, equivalent to
    /// [`AetrFifo::len`](crate::fifo::AetrFifo::len). The per-domain
    /// [`occupancy_seen_by_writer`](Self::occupancy_seen_by_writer) /
    /// [`occupancy_seen_by_reader`](Self::occupancy_seen_by_reader)
    /// views are deliberately stale bounds on this value, never the
    /// depth itself.
    pub fn true_occupancy(&self) -> usize {
        self.storage.len()
    }

    /// Pushes from the write domain at `now`.
    ///
    /// # Errors
    ///
    /// [`CdcFifoError::Full`] if the synchronised view says full;
    /// [`CdcFifoError::TimeWentBackwards`] on non-monotonic use.
    pub fn push(&mut self, now: SimTime, item: T) -> Result<(), CdcFifoError> {
        if now < self.last_write {
            return Err(CdcFifoError::TimeWentBackwards);
        }
        self.last_write = now;
        let seen = self.occupancy_seen_by_writer(now);
        // The transient upset lived on the crossing wires for exactly
        // this access; the correct pointer re-latches afterwards.
        self.upset_read_ptr_bit = None;
        if seen >= self.config.depth as u64 {
            self.refused_full += 1;
            return Err(CdcFifoError::Full);
        }
        if self.storage.len() >= self.config.depth {
            // An upset read pointer claimed free space that physically
            // is not there; the hardened full detector refuses rather
            // than overwrite unread data. Unreachable without faults.
            self.upset_anomalies += 1;
            self.refused_full += 1;
            return Err(CdcFifoError::Full);
        }
        self.storage.push_back(item);
        let next = self.write_trail.latest() + 1;
        self.write_trail.push(now, next);
        self.prune_trails();
        Ok(())
    }

    /// Pops from the read domain at `now`; `None` when the
    /// synchronised view says empty (even if data physically arrived
    /// more recently).
    pub fn pop(&mut self, now: SimTime) -> Option<T> {
        if now < self.last_read {
            return None;
        }
        self.last_read = now;
        let seen = self.occupancy_seen_by_reader(now);
        // The upset crossed for exactly this access.
        self.upset_write_ptr_bit = None;
        if seen == 0 {
            return None;
        }
        match self.storage.pop_front() {
            Some(item) => {
                let next = self.read_trail.latest() + 1;
                self.read_trail.push(now, next);
                self.prune_trails();
                Some(item)
            }
            None => {
                // An upset write pointer promised data that never
                // arrived; refusing the phantom pop (instead of the
                // old panic) keeps the stream correct — the reader
                // simply retries later. Unreachable without faults.
                self.upset_anomalies += 1;
                None
            }
        }
    }

    /// The Gray encoding of the current write pointer (what would sit
    /// on the crossing wires).
    pub fn write_pointer_gray(&self) -> u32 {
        binary_to_gray((self.write_trail.latest() % (2 * self.config.depth as u64)) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CdcFifoConfig {
        CdcFifoConfig {
            depth: 8,
            write_period: SimDuration::from_ns(66),
            read_period: SimDuration::from_ns(33),
        }
    }

    #[test]
    fn gray_code_roundtrip_and_single_bit_property() {
        for x in 0u32..4096 {
            assert_eq!(gray_to_binary(binary_to_gray(x)), x);
            // Successive Gray codes differ in exactly one bit — the
            // property that makes pointer crossing safe.
            let diff = binary_to_gray(x) ^ binary_to_gray(x + 1);
            assert_eq!(diff.count_ones(), 1, "at {x}");
        }
    }

    #[test]
    fn data_crosses_after_the_sync_delay() {
        let mut fifo: CdcFifo<u8> = CdcFifo::new(cfg()).unwrap();
        fifo.push(SimTime::from_ns(100), 1).unwrap();
        // Read-domain sync delay is 2 × 33 ns = 66 ns.
        assert_eq!(fifo.pop(SimTime::from_ns(150)), None, "too early");
        assert_eq!(fifo.pop(SimTime::from_ns(166)), Some(1));
    }

    #[test]
    fn order_is_preserved_across_the_crossing() {
        let mut fifo: CdcFifo<u32> = CdcFifo::new(cfg()).unwrap();
        for i in 0..8u32 {
            fifo.push(SimTime::from_ns(100 + i as u64 * 66), i).unwrap();
        }
        let mut out = Vec::new();
        let mut t = SimTime::from_us(1);
        while let Some(v) = fifo.pop(t) {
            out.push(v);
            t += SimDuration::from_ns(33);
        }
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn full_flag_is_conservative_but_correct() {
        let mut fifo: CdcFifo<u8> = CdcFifo::new(cfg()).unwrap();
        // Fill it completely.
        for i in 0..8 {
            fifo.push(SimTime::from_ns(100 + i * 66), i as u8).unwrap();
        }
        assert_eq!(fifo.push(SimTime::from_ns(700), 99), Err(CdcFifoError::Full));
        assert_eq!(fifo.refused_full, 1);
        // Reader drains one at t=1 µs; the writer's stale view still
        // says full 50 ns later (sync delay into write = 132 ns)...
        assert_eq!(fifo.pop(SimTime::from_us(1)), Some(0));
        assert_eq!(
            fifo.push(SimTime::from_us(1) + SimDuration::from_ns(50), 99),
            Err(CdcFifoError::Full),
            "pessimistic while the read pointer is in flight"
        );
        // ...but clears once the pointer lands.
        fifo.push(SimTime::from_us(1) + SimDuration::from_ns(140), 99).unwrap();
        assert_eq!(fifo.true_occupancy(), 8);
    }

    #[test]
    fn reader_view_never_exceeds_truth() {
        // The invariant that rules out underflow corruption.
        let mut fifo: CdcFifo<u32> = CdcFifo::new(cfg()).unwrap();
        let mut t_write = SimTime::from_ns(10);
        let mut t_read = SimTime::from_ns(20);
        for i in 0..200u32 {
            if i % 3 != 2 {
                let _ = fifo.push(t_write, i);
                t_write += SimDuration::from_ns(66);
            } else {
                let before = fifo.true_occupancy() as u64;
                let seen = fifo.occupancy_seen_by_reader(t_read);
                assert!(seen <= before, "reader sees {seen} of {before}");
                let _ = fifo.pop(t_read);
                t_read += SimDuration::from_ns(33);
            }
        }
    }

    #[test]
    fn gray_pointer_wraps_within_2n_space() {
        let mut fifo: CdcFifo<u8> = CdcFifo::new(cfg()).unwrap();
        let mut t = SimTime::from_ns(10);
        for round in 0..40u64 {
            let _ = fifo.push(t, round as u8);
            t += SimDuration::from_ns(66);
            let _ = fifo.pop(t);
            t += SimDuration::from_ns(66);
            assert!(fifo.write_pointer_gray() < 16, "Gray pointer in 2N space");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(matches!(
            CdcFifoConfig { depth: 6, ..cfg() }.validate(),
            Err(CdcFifoError::BadDepth { depth: 6 })
        ));
        assert!(matches!(
            CdcFifoConfig { depth: 1, ..cfg() }.validate(),
            Err(CdcFifoError::BadDepth { .. })
        ));
        assert!(matches!(
            CdcFifoConfig { read_period: SimDuration::ZERO, ..cfg() }.validate(),
            Err(CdcFifoError::ZeroPeriod)
        ));
    }

    #[test]
    fn phantom_pop_from_upset_write_pointer_is_refused() {
        let mut fifo: CdcFifo<u8> = CdcFifo::new(cfg()).unwrap();
        // Empty FIFO; an upset makes the reader's copy of the write
        // pointer claim one entry.
        fifo.upset_write_pointer(0);
        assert_eq!(fifo.occupancy_seen_by_reader(SimTime::from_ns(100)), 1, "corrupted view");
        assert_eq!(fifo.pop(SimTime::from_ns(100)), None, "hardened empty detector refuses");
        assert_eq!(fifo.upset_anomalies, 1);
        // The upset was transient: behaviour is nominal afterwards.
        fifo.push(SimTime::from_ns(200), 7).unwrap();
        assert_eq!(fifo.pop(SimTime::from_ns(400)), Some(7));
        assert_eq!(fifo.upset_anomalies, 1);
    }

    #[test]
    fn upset_read_pointer_cannot_overwrite_unread_data() {
        let mut fifo: CdcFifo<u8> = CdcFifo::new(cfg()).unwrap();
        let mut t = SimTime::from_ns(100);
        for i in 0..8 {
            fifo.push(t, i).unwrap();
            t += SimDuration::from_ns(66);
        }
        // Physically full; the upset makes the writer's copy of the
        // read pointer claim a slot freed up.
        fifo.upset_read_pointer(0);
        assert!(fifo.occupancy_seen_by_writer(t) < 8, "corrupted view claims space");
        assert_eq!(fifo.push(t, 99), Err(CdcFifoError::Full), "physical-full detector holds");
        assert_eq!(fifo.upset_anomalies, 1);
        assert_eq!(fifo.true_occupancy(), 8, "no unread entry was overwritten");
    }

    #[test]
    fn fault_injector_drives_upsets_deterministically() {
        use aetr_faults::{FaultInjector, FaultPlan, FaultRates};
        let plan = FaultPlan::nominal(42)
            .with_rates(FaultRates { cdc_gray_upset: 0.3, ..FaultRates::default() });
        let campaign = |plan: &FaultPlan| -> (Vec<u64>, u64, u64) {
            let mut injector = FaultInjector::new(plan);
            let mut fifo: CdcFifo<u64> = CdcFifo::new(cfg()).unwrap();
            let mut t = SimTime::from_ns(10);
            let mut popped = Vec::new();
            for i in 0..500u64 {
                t += SimDuration::from_ns(66);
                if let Some(bit) = injector.upset_gray_bit(fifo.pointer_bits()) {
                    if i % 2 == 0 {
                        fifo.upset_write_pointer(bit);
                    } else {
                        fifo.upset_read_pointer(bit);
                    }
                }
                if i % 3 != 2 {
                    let _ = fifo.push(t, i);
                } else if let Some(v) = fifo.pop(t) {
                    popped.push(v);
                }
            }
            (popped, fifo.upset_anomalies, fifo.refused_full)
        };
        let first = campaign(&plan);
        assert_eq!(first, campaign(&plan), "same seed, same campaign outcome");
        // Order survives the upsets even when anomalies occurred.
        assert!(first.0.windows(2).all(|w| w[0] < w[1]), "FIFO order preserved");
    }

    #[test]
    fn time_monotonicity_enforced_per_domain() {
        let mut fifo: CdcFifo<u8> = CdcFifo::new(cfg()).unwrap();
        fifo.push(SimTime::from_ns(100), 1).unwrap();
        assert_eq!(fifo.push(SimTime::from_ns(50), 2), Err(CdcFifoError::TimeWentBackwards));
    }
}
