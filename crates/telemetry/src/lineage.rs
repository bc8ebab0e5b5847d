//! Per-event causal lineage and timestamp-error-budget attribution.
//!
//! The aggregate telemetry of DESIGN.md §11 can say *how many* events
//! were captured, divided-down, or dropped — it cannot say *why one
//! particular timestamp is wrong*. When lineage collection is enabled
//! ([`crate::TelemetryConfig::with_lineage`]), every captured spike
//! accumulates an [`EventLineage`] record along its whole path through
//! the interface: AER arrival, synchroniser/grid wait, wake penalty,
//! division level and sampling period at capture, quantization error,
//! FIFO residency (or drop cause), and I2S transmission window.
//!
//! On top of the raw records, [`ErrorBudget`] attributes the total
//! timestamp error per cause and per division level. The decomposition
//! is *exact by construction* (integer-picosecond algebra, no model
//! fitting): for event `i` with arrival `a_i`, detection `d_i` and
//! counter value `k_i` (in `T_min` ticks),
//!
//! ```text
//! alignment_i  = d_i − a_i                     (sync + grid + wake wait)
//! sat_i        = (d_i − d_{i−1}) − k_i·T_min   (counter freeze/clamp residual)
//! error_i      = k_i·T_min − (a_i − a_{i−1})
//!              = alignment_i − alignment_{i−1} − sat_i
//! ```
//!
//! which splits into four signed cause buckets that sum to `error_i`
//! identically: **grid** (`alignment_i` minus the wake penalty),
//! **wake** (the measured oscillator wake duration), **origin**
//! (`−alignment_{i−1}`, the previous event's alignment that shifted
//! this interval's measurement origin) and **saturation** (`−sat_i`,
//! time the frozen or clamped counter never counted). The per-level
//! envelope of the clean terms is the paper's `~1/θ_div` accuracy
//! claim (see [`relative_error_bound`] and DESIGN.md §14).
//!
//! Records export as JSONL (one object per line, validated by
//! `schemas/lineage.schema.json`) and as Chrome-trace *flow events*
//! that join the §11 spans, so a single event's journey renders as an
//! arrow across the handshake, clock and I2S tracks in Perfetto.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use aetr_sim::spare;
use aetr_sim::time::{SimDuration, SimTime};

use crate::json::Json;

/// Why an event never reached the I2S stream (or `Delivered` if it
/// did / still can).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// Not dropped: the event reached (or is still en route to) the
    /// I2S stream.
    Delivered,
    /// Rejected by a full FIFO in normal operation
    /// (`OverflowPolicy::DropNewest`).
    Overflow,
    /// Rejected by a full FIFO while the watchdog had the interface in
    /// degraded mode.
    Degraded,
    /// Stored, but later displaced from a full FIFO by a newer event
    /// (`OverflowPolicy::DropOldest`).
    Displaced,
    /// Transmitted, but lost to an injected receiver-side I2S frame
    /// slip.
    FrameSlip,
}

impl DropCause {
    /// Stable lowercase label (JSONL field / schema enum value).
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Delivered => "delivered",
            DropCause::Overflow => "overflow",
            DropCause::Degraded => "degraded",
            DropCause::Displaced => "displaced",
            DropCause::FrameSlip => "frame-slip",
        }
    }
}

/// Packed "stage never happened" marker for the optional per-stage
/// instants. `EventLineage` is recorded once per captured spike on the
/// interface's hot path, so the five optional instants are stored as
/// raw picosecond `u64`s with this sentinel instead of
/// `Option<SimTime>` — that keeps the record at 120 bytes instead of
/// 160, which is measurable across a dense run (the accessors still
/// present them as `Option<SimTime>`).
const UNSET_PS: u64 = u64::MAX;

/// The full causal story of one captured event.
///
/// Stage instants are `None` when the corresponding stage never
/// happened (e.g. no `ack_rise` for an aborted handshake, no FIFO
/// times for an overflow drop); the JSONL export omits them entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventLineage {
    /// Capture-order index (also the Chrome flow-event id).
    pub index: u32,
    /// AER address.
    pub address: u16,
    /// AER arrival: when the sensor asserted `REQ`.
    pub arrival: SimTime,
    /// When the sampling clock captured the event.
    pub detection: SimTime,
    /// Captured counter value, in `T_min` ticks.
    pub timestamp_ticks: u64,
    /// The counter was frozen by a shutdown or clamped at its
    /// maximum — the timestamp is a saturation marker, not a measure.
    pub saturated: bool,
    /// Recursive-division level at the capturing tick.
    pub division_level: u32,
    /// Period multiplier at the capturing tick (`2^level` under the
    /// recursive policy).
    pub multiplier: u64,
    /// Sampling period at the capturing tick
    /// (`multiplier × T_min`).
    pub sampling_period: SimDuration,
    /// This event's `REQ` restarted the ring oscillator from sleep.
    pub woke: bool,
    /// Measured wake duration charged to this event
    /// ([`SimDuration::ZERO`] unless [`woke`](Self::woke); includes
    /// watchdog wake retries).
    pub wake_penalty: SimDuration,
    /// When `ACK` rose ([`UNSET_PS`] if the handshake was aborted).
    ack_rise_ps: u64,
    /// Watchdog `ACK` re-drives this handshake needed.
    pub ack_retries: u32,
    /// Signed quantization error of the measured inter-event interval,
    /// in (fractional) `T_min` ticks:
    /// `(timestamp_ticks·T_min − (arrival − prev_arrival)) / T_min`.
    pub quantization_error_ticks: f64,
    /// When the event entered the FIFO.
    fifo_enqueue_ps: u64,
    /// When the event left the FIFO (dequeue for transmission, or the
    /// instant it was displaced).
    fifo_dequeue_ps: u64,
    /// When its I2S frame started on the wire.
    i2s_start_ps: u64,
    /// When its I2S frame finished on the wire.
    i2s_end_ps: u64,
    /// Terminal fate.
    pub drop_cause: DropCause,
}

/// Core capture-time facts of one event, grouped so
/// [`EventLineage::captured`] stays a readable call (the runner fills
/// the downstream stages in as they happen via the `set_*` methods).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capture {
    /// Capture-order index.
    pub index: u32,
    /// AER address.
    pub address: u16,
    /// `REQ` rise.
    pub arrival: SimTime,
    /// Sampling-edge capture instant.
    pub detection: SimTime,
    /// Captured counter value, in `T_min` ticks.
    pub timestamp_ticks: u64,
    /// Counter frozen or clamped.
    pub saturated: bool,
    /// Division level at capture.
    pub division_level: u32,
    /// Period multiplier at capture.
    pub multiplier: u64,
    /// Sampling period at capture.
    pub sampling_period: SimDuration,
    /// Capture restarted the oscillator.
    pub woke: bool,
    /// Measured wake duration charged to this event.
    pub wake_penalty: SimDuration,
    /// Signed quantization error, in fractional `T_min` ticks.
    pub quantization_error_ticks: f64,
}

impl EventLineage {
    /// A freshly captured event: every downstream stage still unset,
    /// fate provisionally [`DropCause::Delivered`].
    #[inline]
    pub fn captured(c: Capture) -> EventLineage {
        EventLineage {
            index: c.index,
            address: c.address,
            arrival: c.arrival,
            detection: c.detection,
            timestamp_ticks: c.timestamp_ticks,
            saturated: c.saturated,
            division_level: c.division_level,
            multiplier: c.multiplier,
            sampling_period: c.sampling_period,
            woke: c.woke,
            wake_penalty: c.wake_penalty,
            ack_rise_ps: UNSET_PS,
            ack_retries: 0,
            quantization_error_ticks: c.quantization_error_ticks,
            fifo_enqueue_ps: UNSET_PS,
            fifo_dequeue_ps: UNSET_PS,
            i2s_start_ps: UNSET_PS,
            i2s_end_ps: UNSET_PS,
            drop_cause: DropCause::Delivered,
        }
    }

    fn opt(ps: u64) -> Option<SimTime> {
        (ps != UNSET_PS).then(|| SimTime::from_ps(ps))
    }

    /// When `ACK` rose (`None` if the handshake was aborted).
    pub fn ack_rise(&self) -> Option<SimTime> {
        Self::opt(self.ack_rise_ps)
    }

    /// When the event entered the FIFO.
    pub fn fifo_enqueue(&self) -> Option<SimTime> {
        Self::opt(self.fifo_enqueue_ps)
    }

    /// When the event left the FIFO (dequeue for transmission, or the
    /// instant it was displaced).
    pub fn fifo_dequeue(&self) -> Option<SimTime> {
        Self::opt(self.fifo_dequeue_ps)
    }

    /// When its I2S frame started on the wire.
    pub fn i2s_start(&self) -> Option<SimTime> {
        Self::opt(self.i2s_start_ps)
    }

    /// When its I2S frame finished on the wire.
    pub fn i2s_end(&self) -> Option<SimTime> {
        Self::opt(self.i2s_end_ps)
    }

    /// Records the `ACK` rise of this event's handshake.
    pub fn set_ack_rise(&mut self, t: SimTime) {
        self.ack_rise_ps = t.as_ps();
    }

    /// Marks the handshake as aborted (clears any recorded `ACK`).
    pub fn clear_ack_rise(&mut self) {
        self.ack_rise_ps = UNSET_PS;
    }

    /// Records the FIFO enqueue instant.
    pub fn set_fifo_enqueue(&mut self, t: SimTime) {
        self.fifo_enqueue_ps = t.as_ps();
    }

    /// Records the FIFO exit instant (dequeue or displacement).
    pub fn set_fifo_dequeue(&mut self, t: SimTime) {
        self.fifo_dequeue_ps = t.as_ps();
    }

    /// Records the transmission stage: FIFO dequeue at `start` and the
    /// I2S frame window `start..done`.
    pub fn set_transmitted(&mut self, start: SimTime, done: SimTime) {
        self.fifo_dequeue_ps = start.as_ps();
        self.i2s_start_ps = start.as_ps();
        self.i2s_end_ps = done.as_ps();
    }

    /// `REQ`-rise → `ACK`-rise handshake latency, when `ACK` came.
    pub fn ack_latency(&self) -> Option<SimDuration> {
        self.ack_rise().map(|a| a.saturating_duration_since(self.arrival))
    }

    /// Time spent buffered in the FIFO.
    pub fn fifo_residency(&self) -> Option<SimDuration> {
        match (self.fifo_enqueue(), self.fifo_dequeue()) {
            (Some(enq), Some(deq)) => Some(deq.saturating_duration_since(enq)),
            _ => None,
        }
    }

    /// Arrival → end-of-I2S-frame latency for delivered events.
    pub fn end_to_end_latency(&self) -> Option<SimDuration> {
        match (self.drop_cause, self.i2s_end()) {
            (DropCause::Delivered, Some(end)) => Some(end.saturating_duration_since(self.arrival)),
            _ => None,
        }
    }

    /// One JSONL object for this record. Unset stage instants are
    /// omitted, never emitted as `null`, so the subset schema can
    /// type-check every present field.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("index", Json::from(u64::from(self.index))),
            ("address", Json::from(u64::from(self.address))),
            ("arrival_ps", Json::from(self.arrival.as_ps())),
            ("detection_ps", Json::from(self.detection.as_ps())),
            ("timestamp_ticks", Json::from(self.timestamp_ticks)),
            ("saturated", Json::from(self.saturated)),
            ("division_level", Json::from(u64::from(self.division_level))),
            ("multiplier", Json::from(self.multiplier)),
            ("sampling_period_ps", Json::from(self.sampling_period.as_ps())),
            ("woke", Json::from(self.woke)),
            ("wake_penalty_ps", Json::from(self.wake_penalty.as_ps())),
            ("ack_retries", Json::from(u64::from(self.ack_retries))),
            ("quantization_error_ticks", Json::from(self.quantization_error_ticks)),
            ("drop_cause", Json::from(self.drop_cause.label())),
        ];
        let mut opt = |name: &'static str, t: Option<SimTime>| {
            if let Some(t) = t {
                fields.push((name, Json::from(t.as_ps())));
            }
        };
        opt("ack_rise_ps", self.ack_rise());
        opt("fifo_enqueue_ps", self.fifo_enqueue());
        opt("fifo_dequeue_ps", self.fifo_dequeue());
        opt("i2s_start_ps", self.i2s_start());
        opt("i2s_end_ps", self.i2s_end());
        Json::object(fields)
    }
}

thread_local! {
    // The log's retired backing buffer; see `aetr_sim::spare`. A dense
    // run's record storage is hundreds of kilobytes.
    static SPARE_RECORDS: Cell<Vec<EventLineage>> = const { Cell::new(Vec::new()) };
}

/// Append-only log of [`EventLineage`] records, in capture order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LineageLog {
    records: Vec<EventLineage>,
}

impl LineageLog {
    /// Creates an empty log.
    pub fn new() -> LineageLog {
        LineageLog::default()
    }

    /// Pre-sizes the backing storage for `n` more records.
    ///
    /// [`EventLineage`] is a wide record, so growing the log by
    /// doubling from empty memcpys the whole backlog several times
    /// over; a runner that knows the stimulus length reserves once
    /// up front instead. A still-unused log adopts the thread's
    /// recycled buffer first (see `SPARE_RECORDS`); together these two
    /// are what keep recording inside the bench's 10% overhead gate.
    pub fn reserve(&mut self, n: usize) {
        spare::adopt(&mut self.records, &SPARE_RECORDS);
        self.records.reserve(n);
    }

    /// Appends a record; its `index` must equal the current length.
    /// Inlined so the caller constructs the 120-byte record directly in
    /// the vector's tail slot instead of copying it through the call.
    #[inline]
    pub fn push(&mut self, record: EventLineage) {
        debug_assert_eq!(record.index as usize, self.records.len(), "records are capture-ordered");
        self.records.push(record);
    }

    /// All records, in capture order.
    pub fn records(&self) -> &[EventLineage] {
        &self.records
    }

    /// Mutable record access by capture index (used by the runner to
    /// fill in downstream stages as they happen).
    pub fn get_mut(&mut self, index: u32) -> Option<&mut EventLineage> {
        self.records.get_mut(index as usize)
    }

    /// Mutable access to the newest record.
    pub fn last_mut(&mut self) -> Option<&mut EventLineage> {
        self.records.last_mut()
    }

    /// Record by capture index.
    pub fn get(&self, index: u32) -> Option<&EventLineage> {
        self.records.get(index as usize)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// JSONL export: one JSON object per line, schema
    /// `schemas/lineage.schema.json` per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Chrome-trace *flow events* joining the span tracks: per record,
    /// a flow start (`"ph":"s"`) at arrival on the handshake track, a
    /// step (`"ph":"t"`) at detection on the clock-state track, and —
    /// for events that reached the wire — a finish (`"ph":"f"`) at the
    /// I2S frame end on the I2S track. Track ids match
    /// [`crate::span::SpanLog::to_chrome_trace`]'s kind order.
    pub fn chrome_flow_events(&self) -> Vec<String> {
        // tid indices from SpanKind::all(): handshake=0, i2s_frame=3,
        // clock_state=4.
        const TID_HANDSHAKE: u32 = 0;
        const TID_I2S: u32 = 3;
        const TID_CLOCK: u32 = 4;
        let flow = |ph: &str, tid: u32, id: u32, t: SimTime, bind_end: bool| {
            format!(
                "{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"cat\":\"lineage\",\
                 \"name\":\"event\",\"id\":{id},\"ts\":{}{}}}",
                t.as_ps() as f64 / 1e6,
                if bind_end { ",\"bp\":\"e\"" } else { "" },
            )
        };
        let mut out = Vec::with_capacity(self.records.len() * 3);
        for r in &self.records {
            out.push(flow("s", TID_HANDSHAKE, r.index, r.arrival, false));
            out.push(flow("t", TID_CLOCK, r.index, r.detection, false));
            if let Some(end) = r.i2s_end() {
                out.push(flow("f", TID_I2S, r.index, end, true));
            }
        }
        out
    }
}

impl Drop for LineageLog {
    /// Retires the backing buffer into the thread's spare slot (largest
    /// buffer wins) so the next instrumented run on this thread starts
    /// with warm pages instead of a fresh page-faulting allocation.
    fn drop(&mut self) {
        spare::retire(&mut self.records, &SPARE_RECORDS);
    }
}

/// Signed per-cause error contributions, in integer picoseconds.
///
/// The four buckets sum to the total signed timestamp error *exactly*
/// (see the module docs for the algebra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCauses {
    /// Synchroniser + sampling-grid wait of this event.
    pub grid_ps: i128,
    /// Oscillator wake time charged to this event.
    pub wake_ps: i128,
    /// Minus the previous event's alignment (the measurement origin it
    /// shifted).
    pub origin_ps: i128,
    /// Minus the counter freeze/clamp residual (sleep time the frozen
    /// counter never counted, counter-maximum clamping).
    pub saturation_ps: i128,
}

impl ErrorCauses {
    /// The exact signed total: `grid + wake + origin + saturation`.
    pub fn total_ps(&self) -> i128 {
        self.grid_ps + self.wake_ps + self.origin_ps + self.saturation_ps
    }

    fn accumulate(&mut self, other: &ErrorCauses) {
        self.grid_ps += other.grid_ps;
        self.wake_ps += other.wake_ps;
        self.origin_ps += other.origin_ps;
        self.saturation_ps += other.saturation_ps;
    }
}

/// One event's exact error decomposition (a row of [`ErrorBudget`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventError {
    /// Capture index.
    pub index: u32,
    /// Division level at capture.
    pub division_level: u32,
    /// Period multiplier at capture.
    pub multiplier: u64,
    /// Previous event's period multiplier (1 for the first event).
    pub prev_multiplier: u64,
    /// True inter-arrival interval `a_i − a_{i−1}` (from `t = 0` for
    /// the first event), ps.
    pub true_interval_ps: i128,
    /// Measured interval `timestamp_ticks × T_min`, ps.
    pub measured_ps: i128,
    /// Signed timestamp error `measured − true`, ps.
    pub error_ps: i128,
    /// Exact per-cause split of `error_ps`.
    pub causes: ErrorCauses,
    /// This or the previous event carried a frozen/clamped counter
    /// (the saturation bucket dominates; no grid-envelope claim
    /// applies).
    pub clean: bool,
}

impl EventError {
    /// `|error| / true_interval`, the per-event relative error.
    pub fn relative_error(&self) -> f64 {
        if self.true_interval_ps <= 0 {
            return 0.0;
        }
        self.error_ps.unsigned_abs() as f64 / self.true_interval_ps as f64
    }
}

/// Per-division-level aggregate of [`ErrorBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelBudget {
    /// Division level at capture.
    pub division_level: u32,
    /// Events captured at this level.
    pub events: u64,
    /// Signed error total, ps.
    pub error_ps: i128,
    /// Absolute error total, ps.
    pub abs_error_ps: i128,
    /// Largest relative error over the *clean* events at this level
    /// (no saturation at either endpoint, no wake) — the quantity the
    /// paper's `~1/θ_div` envelope bounds.
    pub max_relative_error: f64,
}

/// Exact attribution of the total timestamp error of a run, per cause
/// and per division level, computed from a [`LineageLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBudget {
    /// `T_min` used for tick↔time conversion, ps.
    pub t_min_ps: u64,
    /// Per-event rows, capture order.
    pub rows: Vec<EventError>,
    /// Signed total error `Σ error_i`, ps.
    pub total_error_ps: i128,
    /// Total absolute error `Σ |error_i|`, ps.
    pub total_abs_error_ps: i128,
    /// Signed per-cause totals (sum exactly to `total_error_ps`).
    pub causes: ErrorCauses,
    /// Per-division-level aggregates, sorted by level.
    pub by_level: Vec<LevelBudget>,
}

impl ErrorBudget {
    /// Decomposes the log's records against the sampling resolution
    /// `t_min` (the interface's `base_sampling_period`).
    pub fn from_records(records: &[EventLineage], t_min: SimDuration) -> ErrorBudget {
        let t_min_ps = t_min.as_ps();
        let mut rows = Vec::with_capacity(records.len());
        let mut causes = ErrorCauses::default();
        let mut total_error_ps: i128 = 0;
        let mut total_abs_error_ps: i128 = 0;
        let mut levels: Vec<LevelBudget> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| &records[p]);
            let row = decompose(r, prev, t_min_ps);
            causes.accumulate(&row.causes);
            total_error_ps += row.error_ps;
            total_abs_error_ps += row.error_ps.unsigned_abs() as i128;
            let slot = match levels.iter_mut().find(|l| l.division_level == r.division_level) {
                Some(slot) => slot,
                None => {
                    levels.push(LevelBudget {
                        division_level: r.division_level,
                        ..LevelBudget::default()
                    });
                    levels.last_mut().expect("just pushed")
                }
            };
            slot.events += 1;
            slot.error_ps += row.error_ps;
            slot.abs_error_ps += row.error_ps.unsigned_abs() as i128;
            if row.clean {
                slot.max_relative_error = slot.max_relative_error.max(row.relative_error());
            }
            rows.push(row);
        }
        levels.sort_by_key(|l| l.division_level);
        ErrorBudget { t_min_ps, rows, total_error_ps, total_abs_error_ps, causes, by_level: levels }
    }

    /// Indices of *clean* rows whose error exceeds the analytic
    /// per-event alignment budget
    /// `(sync_stages + 2) × (m_i + m_{i−1}) × T_min` — empty on every
    /// fault-free run (the acceptance check behind the paper's
    /// `~1/θ_div` claim; DESIGN.md §14 derives the budget).
    pub fn bound_violations(&self, sync_stages: u32) -> Vec<u32> {
        let budget_of = |row: &EventError| {
            i128::from(sync_stages + 2)
                * (i128::from(row.multiplier) + i128::from(row.prev_multiplier))
                * i128::from(self.t_min_ps)
        };
        self.rows
            .iter()
            .filter(|row| row.clean && row.error_ps.abs() > budget_of(row))
            .map(|row| row.index)
            .collect()
    }

    /// Human-readable multi-line summary (the `aetr-cli lineage`
    /// footer).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let us = |ps: i128| ps as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "error budget over {} events: total {:+.3} us (abs {:.3} us)",
            self.rows.len(),
            us(self.total_error_ps),
            us(self.total_abs_error_ps),
        );
        let _ = writeln!(
            out,
            "  by cause: grid {:+.3} us, wake {:+.3} us, origin {:+.3} us, saturation {:+.3} us",
            us(self.causes.grid_ps),
            us(self.causes.wake_ps),
            us(self.causes.origin_ps),
            us(self.causes.saturation_ps),
        );
        for l in &self.by_level {
            let _ = writeln!(
                out,
                "  level {}: {} events, error {:+.3} us (abs {:.3} us), max clean rel {:.5}",
                l.division_level,
                l.events,
                us(l.error_ps),
                us(l.abs_error_ps),
                l.max_relative_error,
            );
        }
        out
    }
}

/// Exact error decomposition of one record against its predecessor
/// (`None` for the first event: the measurement origin is `t = 0`).
pub fn decompose(record: &EventLineage, prev: Option<&EventLineage>, t_min_ps: u64) -> EventError {
    let arrival = record.arrival.as_ps() as i128;
    let detection = record.detection.as_ps() as i128;
    let (prev_arrival, prev_detection, prev_alignment, prev_multiplier, prev_saturated) = match prev
    {
        Some(p) => (
            p.arrival.as_ps() as i128,
            p.detection.as_ps() as i128,
            p.detection.as_ps() as i128 - p.arrival.as_ps() as i128,
            p.multiplier,
            p.saturated,
        ),
        // The counter history starts at t = 0 with alignment 0.
        None => (0, 0, 0, 1, false),
    };
    let alignment = detection - arrival;
    let measured = record.timestamp_ticks as i128 * t_min_ps as i128;
    let sat = (detection - prev_detection) - measured;
    let true_interval = arrival - prev_arrival;
    let error = measured - true_interval;
    let wake = record.wake_penalty.as_ps() as i128;
    let causes = ErrorCauses {
        grid_ps: alignment - wake,
        wake_ps: wake,
        origin_ps: -prev_alignment,
        saturation_ps: -sat,
    };
    debug_assert_eq!(causes.total_ps(), error, "cause split must be exact");
    EventError {
        index: record.index,
        division_level: record.division_level,
        multiplier: record.multiplier,
        prev_multiplier,
        true_interval_ps: true_interval,
        measured_ps: measured,
        error_ps: error,
        causes,
        clean: !record.saturated && !record.woke && !prev_saturated,
    }
}

/// The paper's analytic relative-error envelope at a division level:
/// one level-`d` sampling period (`2^d × T_min` grid quantization)
/// over the shortest inter-spike interval that reaches level `d`
/// (`θ_div(2^d − 1)` ticks), i.e. `2^d / (θ_div(2^d − 1)) ≈ 2/θ_div`.
/// Infinite at level 0, where the grid is `T_min` and the ISI can be
/// arbitrarily short.
pub fn relative_error_bound(theta_div: u32, division_level: u32) -> f64 {
    if division_level == 0 {
        return f64::INFINITY;
    }
    let m = 2f64.powi(division_level.min(63) as i32);
    m / (f64::from(theta_div) * (m - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_MIN_PS: u64 = 66_000;

    fn record(index: u32, arrival_ps: u64, detection_ps: u64, ticks: u64) -> EventLineage {
        let mut r = EventLineage {
            index,
            address: 5,
            arrival: SimTime::from_ps(arrival_ps),
            detection: SimTime::from_ps(detection_ps),
            timestamp_ticks: ticks,
            saturated: false,
            division_level: 1,
            multiplier: 2,
            sampling_period: SimDuration::from_ps(2 * T_MIN_PS),
            woke: false,
            wake_penalty: SimDuration::ZERO,
            quantization_error_ticks: 0.0,
            ..EventLineage::captured(Capture {
                index,
                address: 5,
                arrival: SimTime::ZERO,
                detection: SimTime::ZERO,
                timestamp_ticks: 0,
                saturated: false,
                division_level: 0,
                multiplier: 1,
                sampling_period: SimDuration::from_ps(T_MIN_PS),
                woke: false,
                wake_penalty: SimDuration::ZERO,
                quantization_error_ticks: 0.0,
            })
        };
        r.set_ack_rise(SimTime::from_ps(detection_ps + 33_000));
        r.set_fifo_enqueue(SimTime::from_ps(detection_ps));
        r
    }

    #[test]
    fn decomposition_is_exact_per_event_and_in_total() {
        // Two events on a T_min-exact detection grid with small
        // alignments; the algebra must reproduce measured − true.
        let a = record(0, 10_000, 2 * T_MIN_PS, 2);
        let b = record(1, 500_000, 2 * T_MIN_PS + 8 * T_MIN_PS, 8);
        let budget = ErrorBudget::from_records(&[a, b], SimDuration::from_ps(T_MIN_PS));
        for row in &budget.rows {
            assert_eq!(row.causes.total_ps(), row.error_ps);
            assert_eq!(row.error_ps, row.measured_ps - row.true_interval_ps);
        }
        assert_eq!(
            budget.causes.total_ps(),
            budget.total_error_ps,
            "cause totals sum to the signed grand total"
        );
        // Telescoping check: Σ true_i = last arrival.
        let sum_true: i128 = budget.rows.iter().map(|r| r.true_interval_ps).sum();
        assert_eq!(sum_true, 500_000);
    }

    #[test]
    fn wake_and_saturation_route_into_their_buckets() {
        let mut woken = record(1, 1_000_000, 1_000_000 + 3 * T_MIN_PS, 4);
        woken.woke = true;
        woken.saturated = true;
        woken.wake_penalty = SimDuration::from_ps(2 * T_MIN_PS);
        let first = record(0, 0, T_MIN_PS, 1);
        let budget = ErrorBudget::from_records(&[first, woken], SimDuration::from_ps(T_MIN_PS));
        let row = &budget.rows[1];
        assert!(!row.clean);
        assert_eq!(row.causes.wake_ps, 2 * T_MIN_PS as i128);
        assert_eq!(row.causes.total_ps(), row.error_ps);
    }

    #[test]
    fn clean_events_respect_the_alignment_budget() {
        // Detection lags arrival by ≤ 2 periods here; sync_stages = 2
        // gives a 4-period budget per endpoint.
        let a = record(0, 0, 2 * T_MIN_PS, 2);
        let b = record(1, 20 * T_MIN_PS, 22 * T_MIN_PS, 20);
        let budget = ErrorBudget::from_records(&[a, b], SimDuration::from_ps(T_MIN_PS));
        assert!(budget.bound_violations(2).is_empty());
    }

    #[test]
    fn analytic_bound_matches_the_paper_envelope() {
        // Level 1 under θ = 64: 2/64 ≈ 3.1%.
        let b = relative_error_bound(64, 1);
        assert!((b - 2.0 / 64.0).abs() < 1e-12, "{b}");
        // Deeper levels tighten towards 1/θ.
        assert!(relative_error_bound(64, 3) < b);
        assert_eq!(relative_error_bound(64, 0), f64::INFINITY);
    }

    #[test]
    fn jsonl_round_trips_and_omits_absent_stages() {
        let mut log = LineageLog::new();
        let mut r = record(0, 10_000, 200_000, 3);
        r.set_transmitted(SimTime::from_ps(900_000), SimTime::from_ps(904_266));
        log.push(r);
        let mut dropped = record(1, 1_000_000, 1_200_000, 15);
        dropped.clear_ack_rise();
        dropped.fifo_enqueue_ps = UNSET_PS;
        dropped.drop_cause = DropCause::Overflow;
        log.push(dropped);

        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).expect("line parses");
        assert_eq!(first.get("drop_cause").and_then(Json::as_str), Some("delivered"));
        assert_eq!(first.get("i2s_end_ps").and_then(Json::as_f64), Some(904_266.0));
        let second = crate::json::parse(lines[1]).expect("line parses");
        assert_eq!(second.get("drop_cause").and_then(Json::as_str), Some("overflow"));
        assert!(second.get("ack_rise_ps").is_none(), "absent stages are omitted");
        assert!(second.get("fifo_enqueue_ps").is_none());
    }

    #[test]
    fn flow_events_join_the_span_tracks() {
        let mut log = LineageLog::new();
        let mut r = record(0, 10_000, 200_000, 3);
        r.i2s_end_ps = 904_266;
        log.push(r);
        log.push(record(1, 1_000_000, 1_200_000, 15)); // still in flight
        let flows = log.chrome_flow_events();
        // Event 0: start + step + finish; event 1: start + step only.
        assert_eq!(flows.len(), 5);
        let doc = format!("{{\"traceEvents\":[{}]}}", flows.join(","));
        let parsed = crate::json::parse(&doc).expect("flows are valid json");
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("s"));
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("f"));
        assert_eq!(events[2].get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(events[2].get("tid").and_then(Json::as_f64), Some(3.0), "i2s track");
    }

    #[test]
    fn latency_accessors() {
        let mut r = record(0, 10_000, 200_000, 3);
        r.set_fifo_dequeue(SimTime::from_ps(900_000));
        r.i2s_end_ps = 904_266;
        assert_eq!(r.ack_latency(), Some(SimDuration::from_ps(223_000)));
        assert_eq!(r.fifo_residency(), Some(SimDuration::from_ps(700_000)));
        assert_eq!(r.end_to_end_latency(), Some(SimDuration::from_ps(894_266)));
        r.drop_cause = DropCause::FrameSlip;
        assert_eq!(r.end_to_end_latency(), None, "slipped frames were not delivered");
    }
}
