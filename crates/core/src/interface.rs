//! The full AER-to-I2S interface, simulated at the discrete-event
//! level.
//!
//! This assembles every block of Fig. 3 around the deterministic
//! fixed-slot event scheduler of [`aetr_sim`] ([`SlotQueue`]): the
//! sensor-side 4-phase
//! [handshake](aetr_aer::handshake), the 2-FF [front end](crate::front_end),
//! the cycle-accurate sampling [FSM](aetr_clockgen::fsm) clocked by the
//! pausable ring oscillator, the AETR [FIFO](crate::fifo) with
//! watermark batching, the [I2S transmitter](crate::i2s) and the
//! [configuration registers](crate::config_bus). Clock activity is
//! narrated to a [`PowerMeter`] so the DES power agrees with the
//! behavioral engine by construction.
//!
//! Use the behavioral [`quantizer`](crate::quantizer) for long sweeps;
//! use this for architectural effects (handshake backpressure, FIFO
//! overflow, I2S saturation, wake latency) and validation.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_aer::handshake::{HandshakeLog, HandshakeSender, HandshakeTiming};
use aetr_aer::spike::SpikeTrain;
use aetr_clockgen::config::{ClockGenConfig, ClockGenConfigError};
use aetr_clockgen::fsm::{CaptureContext, FsmAction, IdleBoundary, IdleSegment, SamplerFsm};
use aetr_clockgen::segments::SegmentTable;
use aetr_faults::{FaultInjector, FaultKind, FaultPlan, InterfaceHealthReport, WatchdogConfig};
use aetr_power::meter::PowerMeter;
use aetr_power::model::{ActivityInput, PowerModel, PowerReport};
use aetr_sim::slots::{SlotQueue, Slotted};
use aetr_sim::spare;
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::lineage::{Capture, DropCause, EventLineage};
use aetr_telemetry::registry::{CounterId, GaugeId, HistogramId};
use aetr_telemetry::span::{OpenSpan, SpanKind};
pub use aetr_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};

use crate::aetr_format::{AetrEvent, Timestamp};
use crate::config_bus::{Register, RegisterFile};
use crate::fifo::{AetrFifo, FifoConfig, FifoStats, PushOutcome};
use crate::front_end::{FrontEndConfig, InputMonitor};
use crate::i2s::{I2sConfig, I2sStream, I2sTransmitter};

/// Full interface configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceConfig {
    /// Clock generator (ring oscillator, `θ_div`, `N_div`, policy).
    pub clock: ClockGenConfig,
    /// Sensor-side handshake timing.
    pub handshake: HandshakeTiming,
    /// Input-monitor synchroniser.
    pub front_end: FrontEndConfig,
    /// AETR buffer.
    pub fifo: FifoConfig,
    /// Output carrier.
    pub i2s: I2sConfig,
}

impl InterfaceConfig {
    /// The measured prototype: θ=64, N=3 recursive clocking, 2-FF
    /// synchroniser, 9.2 kB FIFO, 15 MHz I2S.
    pub fn prototype() -> InterfaceConfig {
        InterfaceConfig {
            clock: ClockGenConfig::prototype(),
            handshake: HandshakeTiming::default(),
            front_end: FrontEndConfig::prototype(),
            fifo: FifoConfig::prototype(),
            i2s: I2sConfig::prototype(),
        }
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InterfaceConfigError`] for an invalid clock tree or a
    /// FIFO watermark that cannot fit.
    pub fn validate(&self) -> Result<(), InterfaceConfigError> {
        self.clock.validate().map_err(InterfaceConfigError::Clock)?;
        if self.fifo.capacity_events() == 0 || self.fifo.watermark > self.fifo.capacity_events() {
            return Err(InterfaceConfigError::Fifo {
                watermark: self.fifo.watermark,
                capacity: self.fifo.capacity_events(),
            });
        }
        Ok(())
    }
}

impl Default for InterfaceConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

/// Composite configuration errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterfaceConfigError {
    /// Clock generator misconfiguration.
    Clock(ClockGenConfigError),
    /// FIFO watermark/capacity mismatch.
    Fifo {
        /// Configured watermark (events).
        watermark: usize,
        /// Capacity (events).
        capacity: usize,
    },
}

impl fmt::Display for InterfaceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterfaceConfigError::Clock(e) => write!(f, "clock generator: {e}"),
            InterfaceConfigError::Fifo { watermark, capacity } => {
                write!(f, "FIFO watermark {watermark} does not fit capacity {capacity} events")
            }
        }
    }
}

impl Error for InterfaceConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InterfaceConfigError::Clock(e) => Some(e),
            InterfaceConfigError::Fifo { .. } => None,
        }
    }
}

/// One event as it left the interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimestampedEvent {
    /// When the sensor asserted `REQ`.
    pub request: SimTime,
    /// When the sampling clock captured it.
    pub detection: SimTime,
    /// The AETR event.
    pub event: AetrEvent,
}

thread_local! {
    // A dropped report's `events` storage; see `aetr_sim::spare`. A
    // dense 100 ms run captures 40 000 events.
    static SPARE_EVENTS: Cell<Vec<TimestampedEvent>> = const { Cell::new(Vec::new()) };
}

/// Everything a simulation run produces.
///
/// Every per-run buffer in a report is recycled per thread (see
/// [`aetr_sim::spare`]): dropping the report retires `events`,
/// `handshake` and `i2s` into spare slots that the next run on the same
/// thread takes back, so iterated runs allocate no fresh pages. A field
/// can therefore not be moved out of a report; clone it, or
/// [`std::mem::take`] it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceReport {
    /// Events in capture order.
    pub events: Vec<TimestampedEvent>,
    /// Completed handshakes (verify with
    /// [`verify_protocol`](HandshakeLog::verify_protocol) /
    /// [`verify_caviar`](HandshakeLog::verify_caviar)).
    pub handshake: HandshakeLog,
    /// FIFO occupancy/loss statistics.
    pub fifo_stats: FifoStats,
    /// The transmitted I2S stream.
    pub i2s: I2sStream,
    /// Integrated clock activity.
    pub activity: ActivityInput,
    /// Power evaluated from the activity.
    pub power: PowerReport,
    /// Ring-oscillator wake count (the same value as
    /// `activity.wake_count`).
    pub wake_count: u64,
    /// Fault and recovery counters (all-zero in a fault-free run).
    pub health: InterfaceHealthReport,
    /// Telemetry captured during the run
    /// ([empty](TelemetrySnapshot::is_empty) unless the run was started
    /// through [`run_with_telemetry`](AerToI2sInterface::run_with_telemetry)
    /// with an enabled config).
    pub telemetry: TelemetrySnapshot,
}

impl Drop for InterfaceReport {
    /// Retires `events` into the thread's spare slot (largest kept);
    /// `handshake` and `i2s` retire their own storage.
    fn drop(&mut self) {
        spare::retire(&mut self.events, &SPARE_EVENTS);
    }
}

/// How the runner advances the sampling-clock tick chain.
///
/// Both engines produce **bit-identical** [`InterfaceReport`]s (pinned
/// by a differential property test); they differ only in wall-clock
/// cost. The non-default engine exists as the reference model the
/// fast-forward is continuously tested against; select it with
/// [`AerToI2sInterface::with_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimEngine {
    /// Analytic idle fast-forward (the default): when no request, ACK
    /// recovery, wake, or scheduled fault is in flight, the quiet tick
    /// chain up to the next queue event is advanced in O(`N_div`)
    /// closed-form segments instead of one DES event per clock edge,
    /// making simulation cost proportional to *events*, not horizon.
    #[default]
    EventProportional,
    /// One DES event per sampling-clock edge — the cycle-by-cycle
    /// reference model.
    PerTickReference,
}

/// Scheduled DES events.
///
/// At most one event of each slotted kind is ever pending (see the
/// `Slotted` impl below); SPI writes ride the scheduler's time-sorted
/// timeline instead of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Sensor raises `REQ`.
    ReqRise,
    /// Sampling clock edge.
    Tick,
    /// Ring oscillator finished waking; first tick follows.
    WakeDone,
    /// I2S frame transmission completed.
    FrameDone,
    /// A host SPI register write (index into the reconfig list).
    SpiWrite(usize),
    /// Watchdog re-drives `ACK` after a lost edge (attempt number).
    AckRetry(u32),
    /// Watchdog re-checks a wake the oscillator may have missed
    /// (attempt number).
    WakeCheck(u32),
}

/// Number of slotted event kinds (every [`Ev`] but `SpiWrite`).
const EV_SLOTS: usize = 6;

/// One slot per kind. The runner never has two of a kind pending: each
/// `Tick` schedules only its successor (a shutdown, stall or stale tick
/// schedules none, and `WakeDone` starts a chain only while the clock is
/// asleep); `ReqRise` is scheduled only once the previous handshake has
/// completed or been aborted; `WakeDone`/`WakeCheck` only by a wake of
/// the sleeping clock or by the popped check itself; `FrameDone` only
/// while `draining` is clear or by the popped frame; `AckRetry` only
/// while `pending_ack` is set, by the capture that set it or the popped
/// retry.
impl Slotted for Ev {
    fn slot(&self) -> usize {
        match self {
            Ev::ReqRise => 0,
            Ev::Tick => 1,
            Ev::WakeDone => 2,
            Ev::FrameDone => 3,
            Ev::AckRetry(_) => 4,
            Ev::WakeCheck(_) => 5,
            Ev::SpiWrite(_) => unreachable!("SPI writes ride the timeline, not a slot"),
        }
    }

    fn timeline(index: usize) -> Ev {
        Ev::SpiWrite(index)
    }
}

/// The assembled interface.
///
/// # Examples
///
/// ```
/// use aetr::interface::{AerToI2sInterface, InterfaceConfig};
/// use aetr_aer::generator::{PoissonGenerator, SpikeSource};
/// use aetr_sim::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let interface = AerToI2sInterface::new(InterfaceConfig::prototype())?;
/// let train = PoissonGenerator::new(50_000.0, 64, 7).generate(SimTime::from_ms(5));
/// let report = interface.run(&train, SimTime::from_ms(5));
/// report.handshake.verify_protocol()?;
/// assert!(!report.events.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AerToI2sInterface {
    config: InterfaceConfig,
    power_model: PowerModel,
    engine: SimEngine,
    /// The post-capture quiet chain of the configured clock
    /// ([`SamplerFsm::idle_chain`]), built once and borrowed by every
    /// run until an SPI write or the degraded fallback reconfigures it.
    idle_chain: Option<SegmentTable>,
}

impl AerToI2sInterface {
    /// Creates an interface with the default IGLOO-nano power model.
    ///
    /// # Errors
    ///
    /// Returns [`InterfaceConfigError`] if the configuration does not
    /// validate.
    pub fn new(config: InterfaceConfig) -> Result<AerToI2sInterface, InterfaceConfigError> {
        config.validate()?;
        Ok(AerToI2sInterface {
            config,
            power_model: PowerModel::igloo_nano(),
            engine: SimEngine::default(),
            idle_chain: SamplerFsm::new(&config.clock).idle_chain(),
        })
    }

    /// Selects the simulation engine (see [`SimEngine`]); reports are
    /// bit-identical either way.
    pub fn with_engine(mut self, engine: SimEngine) -> AerToI2sInterface {
        self.engine = engine;
        self
    }

    /// The selected simulation engine.
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// The configuration.
    pub fn config(&self) -> &InterfaceConfig {
        &self.config
    }

    /// Runs the interface over `train` until all events complete and
    /// `horizon` is reached (power is integrated over `[0, horizon]`
    /// or to the last activity, whichever is later).
    ///
    /// The train is borrowed, not consumed: replay is zero-copy, so the
    /// same stimulus can drive many runs (benches, campaigns, sweeps)
    /// without cloning event storage.
    pub fn run(&self, train: &SpikeTrain, horizon: SimTime) -> InterfaceReport {
        Runner::new(self, train, horizon, &FaultPlan::nominal(0), &TelemetryConfig::disabled(), &[])
            .run()
    }

    /// Like [`run`](Self::run), with faults injected per `plan` and
    /// the watchdog/degraded-mode recovery machinery armed.
    ///
    /// A plan whose rates are all zero and whose schedule is empty
    /// produces a report bit-identical to [`run`](Self::run) — the
    /// injector never consumes a random draw, so fault support is
    /// provably free when disabled.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not validate
    /// ([`FaultPlan::validate`]).
    pub fn run_with_faults(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> InterfaceReport {
        Runner::new(self, train, horizon, plan, &TelemetryConfig::disabled(), &[]).run()
    }

    /// Like [`run_with_faults`](Self::run_with_faults), with telemetry
    /// collection per `telemetry`.
    ///
    /// Telemetry is purely observational: with any config — including a
    /// fully enabled one — every functional field of the returned
    /// report (events, handshakes, FIFO statistics, I2S stream,
    /// activity, power, wakes, health) is bit-identical to what
    /// [`run`](Self::run) produces, because the collector schedules no
    /// queue events and mutates no simulation state. A disabled config
    /// is a no-op sink and yields [`TelemetrySnapshot::empty`].
    pub fn run_with_telemetry(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &FaultPlan,
        telemetry: &TelemetryConfig,
    ) -> InterfaceReport {
        Runner::new(self, train, horizon, plan, telemetry, &[]).run()
    }

    /// Like [`run`](Self::run), with SPI register writes applied at
    /// scheduled times mid-flight — the paper's runtime
    /// reconfiguration path. Invalid writes are rejected exactly as
    /// the register file rejects them (and silently skipped here, as a
    /// real host would observe on its SPI status).
    ///
    /// Writes must be given in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is not time-sorted.
    pub fn run_with_reconfig(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        writes: &[(SimTime, Register, u32)],
    ) -> InterfaceReport {
        Runner::new(
            self,
            train,
            horizon,
            &FaultPlan::nominal(0),
            &TelemetryConfig::disabled(),
            writes,
        )
        .run()
    }
}

/// Per-event lineage bookkeeping (DESIGN.md §14), active only when
/// [`TelemetryConfig::lineage_enabled`]. Pure observation: nothing here
/// feeds back into the simulation, so enabling it cannot perturb the
/// report — and the fast-forward engine needs no hooks at all, because
/// every field below is written on a per-event code path shared by both
/// engines (quiet stretches have no captures, wakes, handshakes, FIFO
/// or I2S activity by the `idle_at` precondition).
///
/// Everything else the records need is read off the run itself: the
/// handshake in flight always belongs to the newest record, the
/// previous arrival is the previous captured event's `REQ` rise, and
/// the FIFO holds exactly the enqueued records at or past `fifo_head`
/// (events enter and leave in capture order).
struct LineageState {
    log: aetr_telemetry::lineage::LineageLog,
    /// Capture index at or before the oldest buffered record: every
    /// record below it has left the FIFO or never entered it.
    fifo_head: u32,
    /// An oscillator wake is in flight, started at this instant.
    wake_started: Option<SimTime>,
    /// The last completed wake `(started, done)`, pending attribution
    /// to the woken event's capture.
    wake_done: Option<(SimTime, SimTime)>,
    /// Arrival → end-of-I2S-frame latency distribution, folded from
    /// the records at [`TelState::finish`].
    e2e_latency: HistogramId,
}

impl LineageState {
    /// The oldest record still in the FIFO, which is leaving it now:
    /// moves `fifo_head` past it.
    fn pop_fifo(&mut self) -> Option<&mut EventLineage> {
        let records = self.log.records();
        let offset =
            records[self.fifo_head as usize..].iter().position(|r| r.fifo_enqueue().is_some())?;
        let idx = self.fifo_head + offset as u32;
        self.fifo_head = idx + 1;
        self.log.get_mut(idx)
    }
}

/// Sampling-clock state after a transition, as narrated to the
/// [`PowerMeter`] and the clock-residency spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClockRate {
    /// Ticking at `T_min` (reset after a capture, or just woken).
    FullRate,
    /// Ticking at `multiplier · T_min`.
    Divided(u64),
    /// Ring oscillator stopped.
    Off,
}

impl ClockRate {
    /// Period multiplier over `T_min`; `None` while stopped.
    fn multiplier(self) -> Option<u64> {
        match self {
            ClockRate::FullRate => Some(1),
            ClockRate::Divided(m) => Some(m),
            ClockRate::Off => None,
        }
    }

    /// Residency-span name.
    fn name(self) -> &'static str {
        match self {
            ClockRate::FullRate => "full-rate",
            ClockRate::Divided(_) => "divided",
            ClockRate::Off => "sleep",
        }
    }
}

/// Telemetry state of a run: the collector plus pre-registered metric
/// handles and open-span bookkeeping.
///
/// Boxed behind an `Option` in the [`Runner`]: a disabled run carries
/// `None`, so every instrumentation site is a single pointer test and
/// the hot path does no metric-name lookup ever — handles are resolved
/// once here (DESIGN.md §11's "lock-free on the hot path" contract).
/// Only what the report does not already hold is recorded per event;
/// the rest is folded from the report at [`finish`](TelState::finish).
struct TelState {
    tel: Telemetry,
    // Hot-path counters: clock transitions the report keeps no count of.
    divisions: CounterId,
    shutdowns: CounterId,
    // Gauges / histograms. `fifo_depth` is the only one observed per
    // event: the report keeps no occupancy history to fold it from.
    fifo_occupancy: GaugeId,
    fifo_depth: HistogramId,
    capture_latency: HistogramId,
    // Clock-generator residency: the currently open interval.
    clock_since: SimTime,
    clock: ClockRate,
    // Open spans (at most one of each kind is in flight by protocol).
    handshake_open: Option<OpenSpan>,
    wake_open: Option<OpenSpan>,
    ack_recovery_open: Option<OpenSpan>,
    wake_recovery_open: Option<OpenSpan>,
    // Next due time of the live sampler (`None` = sampling off).
    next_sample: Option<SimTime>,
    // Per-event lineage bookkeeping (`None` unless requested).
    lineage: Option<LineageState>,
}

impl TelState {
    /// Builds a collector for an enabled config; `None` for a disabled
    /// one (the whole telemetry path then disappears behind one branch).
    fn new(config: &TelemetryConfig) -> Option<Box<TelState>> {
        if !config.enabled {
            return None;
        }
        let mut tel = Telemetry::new(*config);
        let m = &mut tel.metrics;
        // Registration order is registry order; the counters without a
        // handle are set at `finish`.
        m.counter("interface.events.captured");
        let divisions = m.counter("interface.clockgen.divisions");
        m.counter("interface.clockgen.wakes");
        let shutdowns = m.counter("interface.clockgen.shutdowns");
        m.counter("interface.fifo.pushed");
        m.counter("interface.fifo.dropped");
        m.counter("interface.handshake.completed");
        m.counter("interface.i2s.frames");
        let fifo_occupancy = m.gauge("interface.fifo.occupancy");
        // Depth buckets up to the prototype's 2304-event capacity.
        let fifo_depth =
            m.histogram("interface.fifo.depth", vec![1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]);
        // REQ-to-capture latency; base tick is 66.7 ns, saturation
        // pushes sparse events to milliseconds.
        let capture_latency = m.histogram(
            "interface.handshake.capture_latency_ns",
            vec![100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0],
        );
        let lineage = config.lineage_enabled().then(|| LineageState {
            log: aetr_telemetry::lineage::LineageLog::new(),
            fifo_head: 0,
            wake_started: None,
            wake_done: None,
            // Arrival → wire latency: a drained frame takes ~4.3 µs on
            // the 15 MHz link, watermark batching stretches to ms.
            e2e_latency: m.histogram(
                "interface.lineage.e2e_latency_ns",
                vec![1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9],
            ),
        });
        let next_sample = tel.sample_cadence().map(|c| SimTime::ZERO + c);
        Some(Box::new(TelState {
            tel,
            divisions,
            shutdowns,
            fifo_occupancy,
            fifo_depth,
            capture_latency,
            clock_since: SimTime::ZERO,
            clock: ClockRate::FullRate,
            handshake_open: None,
            wake_open: None,
            ack_recovery_open: None,
            wake_recovery_open: None,
            next_sample,
            lineage,
        }))
    }

    /// Counts a division or shutdown, then closes the current
    /// clock-residency interval at `t` and opens a new one, unless the
    /// state is unchanged.
    fn clock_transition(&mut self, t: SimTime, clock: ClockRate) {
        match clock {
            ClockRate::FullRate => {}
            ClockRate::Divided(_) => self.tel.metrics.inc(self.divisions, 1),
            ClockRate::Off => self.tel.metrics.inc(self.shutdowns, 1),
        }
        if self.clock != clock {
            self.close_residency(t);
            self.clock_since = t;
            self.clock = clock;
        }
    }

    /// Records the open clock-residency interval as ending at `end`.
    fn close_residency(&mut self, end: SimTime) {
        let clock = self.clock;
        self.tel.spans.record(
            SpanKind::ClockState,
            clock.name(),
            self.clock_since,
            end,
            clock.multiplier(),
        );
    }

    /// Lineage: attributes one transmitted frame's `pair` events to
    /// their records — FIFO dequeue and I2S window, and the frame-slip
    /// loss cause when the receiver dropped the frame. No-op without
    /// lineage.
    fn record_transmission(&mut self, pair: u64, start: SimTime, done: SimTime, slipped: bool) {
        let Some(ls) = self.lineage.as_mut() else { return };
        for _ in 0..pair {
            let Some(r) = ls.pop_fifo() else { break };
            r.set_transmitted(start, done);
            if slipped {
                r.drop_cause = DropCause::FrameSlip;
            }
        }
    }

    /// Finalises the collector: closes the last residency interval at
    /// `end`, sets the counters the report already holds, folds the
    /// health counters into the registry under their shared
    /// `interface.health.*` names, observes the two latency histograms
    /// from the captured events and the lineage records (in capture
    /// order, which is also the order the events were captured and
    /// delivered in), and snapshots. `fifo_depth` is the buffer's final
    /// occupancy.
    fn finish(
        mut self,
        end: SimTime,
        report: &InterfaceReport,
        fifo_depth: usize,
        queue_ops: u64,
    ) -> TelemetrySnapshot {
        self.close_residency(end);
        let sim_events = report.events.len() as u64;
        let folded = [
            ("interface.events.captured", sim_events),
            ("interface.clockgen.wakes", report.activity.wake_count),
            ("interface.fifo.pushed", report.fifo_stats.pushed),
            ("interface.fifo.dropped", report.fifo_stats.dropped),
            ("interface.handshake.completed", report.handshake.len() as u64),
            // Slipped frames were sent, then dropped from the stream.
            ("interface.i2s.frames", report.i2s.len() as u64 + report.health.frame_slips),
        ];
        for (name, value) in folded.into_iter().chain(report.health.metrics()) {
            let id = self.tel.metrics.counter(name);
            self.tel.metrics.inc(id, value);
        }
        if sim_events > 0 {
            self.tel.metrics.set_gauge(self.fifo_occupancy, fifo_depth as f64);
        }
        for e in &report.events {
            let latency_ns = e.detection.saturating_duration_since(e.request).as_ns() as f64;
            self.tel.metrics.observe(self.capture_latency, latency_ns);
        }
        if let Some(ls) = self.lineage.take() {
            for e2e in ls.log.records().iter().filter_map(EventLineage::end_to_end_latency) {
                self.tel.metrics.observe(ls.e2e_latency, e2e.as_ns() as f64);
            }
            self.tel.lineage = ls.log;
        }
        self.tel.into_snapshot(sim_events, queue_ops)
    }
}

/// Internal mutable simulation state.
struct Runner<'a> {
    cfg: &'a InterfaceConfig,
    power_model: &'a PowerModel,
    horizon: SimTime,
    base: SimDuration,

    queue: SlotQueue<Ev, EV_SLOTS>,
    sender: HandshakeSender<'a>,
    monitor: InputMonitor,
    fsm: SamplerFsm,
    fifo: AetrFifo,
    i2s: I2sTransmitter,
    meter: PowerMeter,
    regs: RegisterFile,
    log: HandshakeLog,
    events: Vec<TimestampedEvent>,

    /// Timestamp frozen at shutdown, pending delivery on the wake tick.
    wake_frozen: Option<u64>,
    /// `REQ` rise time of the in-flight request.
    current_request: Option<SimTime>,
    /// Scheduled SPI register writes (time-indexed by `Ev::SpiWrite`);
    /// borrowed from the caller — the hot path never copies them.
    reconfigs: &'a [(SimTime, Register, u32)],
    /// A drain is in progress (frames chained by `FrameDone`).
    draining: bool,

    /// Tick-chain engine (per-tick reference vs analytic fast-forward).
    engine: SimEngine,
    /// Reusable segment buffer for the fast-forward path, so a batch
    /// advance allocates nothing after warm-up.
    idle_segments: Vec<IdleSegment>,
    /// The interface's post-capture quiet chain, borrowed until the
    /// first `fsm.reconfigure` and `None` from then on (and for policies
    /// that never shut down).
    idle_chain: Option<&'a SegmentTable>,
    /// The chain of the configuration the last `fsm.reconfigure`
    /// installed, built by the run itself. Two plain pointers rather than
    /// one `Cow` or an inline table: the replay reads the chain on every
    /// isolated event, and sparse runs measured ~4% faster per event so.
    rebuilt_chain: Option<Box<SegmentTable>>,

    /// Fault source (inert for an all-zero plan).
    injector: FaultInjector,
    /// Recovery policy.
    watchdog: WatchdogConfig,
    /// Fault/recovery counters, bumped where each fault or recovery
    /// happens. `degraded` is set once the watchdog gives up on
    /// pausable clocking (`N_div` clamped, clock never sleeps again).
    /// The FIFO-drop counters stay zero here: the FIFO counts its own
    /// losses, and they are copied from [`FifoStats`] into the report.
    health: InterfaceHealthReport,
    /// Sampling time of an event whose `ACK` the sensor missed; the
    /// handshake hangs (`REQ` high, sender in `ReqHigh`) until an
    /// `AckRetry` resolves it.
    pending_ack: Option<SimTime>,
    /// Telemetry collector (`None` when disabled — the no-op sink).
    tel: Option<Box<TelState>>,
}

impl<'a> Runner<'a> {
    /// The one constructor behind every public entry point.
    ///
    /// # Panics
    ///
    /// Panics if `reconfigs` is not time-sorted (the scheduler's
    /// timeline checks it).
    fn new(
        iface: &'a AerToI2sInterface,
        train: &'a SpikeTrain,
        horizon: SimTime,
        plan: &FaultPlan,
        telemetry: &TelemetryConfig,
        reconfigs: &'a [(SimTime, Register, u32)],
    ) -> Runner<'a> {
        let cfg = &iface.config;
        let spikes = train.as_slice();
        let fsm = SamplerFsm::new(&cfg.clock);
        let mut tel = TelState::new(telemetry);
        if let Some(ls) = tel.as_deref_mut().and_then(|ts| ts.lineage.as_mut()) {
            // One record per captured spike; reserving up front avoids
            // re-copying the wide records on Vec growth.
            ls.log.reserve(spikes.len());
        }
        let mut runner = Runner {
            cfg,
            power_model: &iface.power_model,
            horizon,
            base: cfg.clock.base_sampling_period(),
            // Host writes first, so they take the lowest sequence
            // numbers and win ties.
            queue: SlotQueue::with_timeline(reconfigs.iter().map(|&(t, _, _)| t)),
            sender: HandshakeSender::over(spikes, cfg.handshake),
            monitor: InputMonitor::new(cfg.front_end),
            idle_chain: iface.idle_chain.as_ref(),
            rebuilt_chain: None,
            fsm,
            fifo: AetrFifo::new(cfg.fifo),
            // Two events per frame, plus one padded frame per odd-sized
            // drain; a recycled stream keeps whatever it grew to.
            i2s: I2sTransmitter::with_capacity(cfg.i2s, spikes.len().div_ceil(2)),
            meter: PowerMeter::new(SimTime::ZERO),
            regs: RegisterFile::from_config(&cfg.clock, cfg.fifo.watermark as u32),
            // Every spike yields exactly one captured event and (in a
            // fault-free run) one logged handshake; pre-size both so
            // the hot loop never grows them. Both, like the I2S stream,
            // start on the thread's recycled storage.
            log: HandshakeLog::with_capacity(spikes.len()),
            events: spare::take(&SPARE_EVENTS, spikes.len()),
            wake_frozen: None,
            current_request: None,
            reconfigs,
            draining: false,
            engine: iface.engine,
            idle_segments: Vec::new(),
            injector: FaultInjector::new(plan),
            watchdog: plan.watchdog,
            health: InterfaceHealthReport::default(),
            pending_ack: None,
            tel,
        };
        runner.clock_transition(SimTime::ZERO, ClockRate::FullRate);
        runner
    }

    fn run(mut self) -> InterfaceReport {
        // Prime the pump: the host writes are already on the timeline;
        // then the first clock tick and the first request.
        self.queue
            .schedule_at(SimTime::ZERO + self.base, Ev::Tick)
            .expect("fresh queue accepts the first tick");
        self.schedule_next_request();

        while let Some((t, ev)) = self.queue.pop() {
            // Emit any live samples due strictly before this event:
            // between events the DES state is constant, so sampling the
            // pre-event state at those instants is exact — and the
            // sampler never touches the queue, keeping enabled runs
            // functionally identical to disabled ones.
            self.sample_until(t);
            match ev {
                Ev::ReqRise => self.on_req_rise(t),
                Ev::Tick => self.on_tick(t),
                Ev::WakeDone => self.on_wake_done(t),
                Ev::FrameDone => self.drain_step(t),
                Ev::SpiWrite(index) => self.on_spi_write(index),
                Ev::AckRetry(attempt) => self.on_ack_retry(t, attempt),
                Ev::WakeCheck(attempt) => self.on_wake_check(t, attempt),
            }
            // Stop ticking past the horizon once all input is
            // consumed. Never-stopping clock policies tick forever, so
            // this is the loop's only exit for them; any events still
            // buffered are drained synchronously below.
            if self.sender.is_done() && t >= self.horizon {
                break;
            }
        }

        // The event loop is over; emit the remaining samples up to and
        // including the horizon against the final state.
        self.sample_until(self.horizon.saturating_add(SimDuration::from_ps(1)));

        // Drain whatever is left in the FIFO so the report reflects the
        // complete stream (the hardware would keep draining too).
        let mut t = self.queue.now().max(self.i2s.busy_until());
        while !self.fifo.is_empty() {
            t = self.send_frame(t);
        }

        let end = self.horizon.max(self.queue.now()).max(t);
        let activity = self.meter.finish(end);
        let power = self.power_model.evaluate(&activity);
        let tel = self.tel.take();
        let queue_ops = self.queue.ops();
        let fifo_stats = *self.fifo.stats();
        let health = InterfaceHealthReport {
            fifo_drops: fifo_stats.dropped,
            fifo_drops_overflow: fifo_stats.dropped_overflow,
            fifo_drops_degraded: fifo_stats.dropped_degraded,
            ..self.health
        };
        let mut report = InterfaceReport {
            events: self.events,
            handshake: self.log,
            fifo_stats,
            i2s: self.i2s.into_stream(),
            wake_count: activity.wake_count,
            activity,
            power,
            health,
            telemetry: TelemetrySnapshot::empty(),
        };
        if let Some(ts) = tel {
            report.telemetry = ts.finish(end, &report, self.fifo.len(), queue_ops);
        }
        report
    }

    /// Moves the sampling clock to `clock` at `t`: the only place the
    /// [`PowerMeter`] and the clock telemetry hear of a transition. The
    /// meter is notified even when the state is unchanged.
    fn clock_transition(&mut self, t: SimTime, clock: ClockRate) {
        match clock.multiplier() {
            Some(multiplier) => self.meter.clock_multiplier(t, multiplier),
            None => self.meter.clock_off(t),
        }
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.clock_transition(t, clock);
        }
    }

    /// Records live samples at every due instant strictly before `t`,
    /// against the *current* FSM state.
    ///
    /// No-op unless telemetry with a sampling cadence is enabled. The
    /// sampled state (event count, instantaneous power, divider level,
    /// FIFO depth) is constant over `(previous event, t)`, so each due
    /// point gets exact values without scheduling anything.
    fn sample_until(&mut self, t: SimTime) {
        if self.tel.is_none() {
            return;
        }
        let multiplier = if self.fsm.is_asleep() { None } else { Some(self.fsm.multiplier()) };
        self.emit_samples(t, multiplier);
    }

    /// [`sample_until`](Runner::sample_until) against an explicit
    /// divider multiplier — the fast-forward path calls this once per
    /// idle segment, with the multiplier that was in force over it, so
    /// batched runs record the exact series per-tick stepping would.
    fn emit_samples(&mut self, t: SimTime, multiplier: Option<u64>) {
        let due = match self.tel.as_deref().and_then(|ts| ts.next_sample) {
            Some(d) if d < t => d,
            _ => return,
        };
        let power_uw = self.power_model.instantaneous_power(multiplier).as_microwatts();
        let events_total = self.events.len() as u64;
        let fifo_depth = self.fifo.len() as u64;
        let ts = self.tel.as_deref_mut().expect("checked above");
        let cadence = ts.tel.sample_cadence().expect("sampler is active");
        let mut due = due;
        while due < t {
            ts.tel.series.record(due, events_total, power_uw, multiplier.unwrap_or(0), fifo_depth);
            due += cadence;
        }
        ts.next_sample = Some(due);
    }

    fn on_spi_write(&mut self, index: usize) {
        let (_, register, value) = self.reconfigs[index];
        if self.regs.write(register, value).is_ok() {
            let new_clock = self.regs.apply_to(&self.cfg.clock);
            // In degraded mode the watchdog's clamp outranks the host:
            // an SPI write cannot resurrect recursive clocking.
            let new_clock = if self.health.degraded {
                new_clock.degraded_fallback(self.watchdog.degraded_n_div_clamp)
            } else {
                new_clock
            };
            if new_clock.validate().is_ok() {
                // If the FSM is awake, the current tick chain continues
                // with the new parameters from its next edge; if it is
                // asleep, the next wake re-enters at T_min as before.
                self.reconfigure_clock(&new_clock);
            }
        }
    }

    fn schedule_next_request(&mut self) {
        if let Some(t) = self.sender.next_req_rise() {
            self.queue.schedule_at(t, Ev::ReqRise).expect("handshake times are monotone");
        }
    }

    /// Restarts the ring oscillator, optionally injecting a wake
    /// failure (the `WakeDone` is dropped and a watchdog `WakeCheck`
    /// is armed instead).
    fn schedule_wake(&mut self, t: SimTime) {
        self.meter.wake();
        self.wake_frozen = Some(self.fsm.counter());
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.wake_open = Some(ts.tel.spans.open(SpanKind::Wake, "wake", t));
            if let Some(ls) = ts.lineage.as_mut() {
                ls.wake_started = Some(t);
                ls.wake_done = None;
            }
        }
        let due = t + self.cfg.clock.ring.wake_latency;
        if self.injector.fail_wake() {
            self.health.wake_failures += 1;
            if let Some(ts) = self.tel.as_deref_mut() {
                ts.wake_recovery_open =
                    Some(ts.tel.spans.open(SpanKind::WatchdogRecovery, "wake-recovery", t));
            }
            self.queue
                .schedule_at(due + self.watchdog.wake_timeout, Ev::WakeCheck(0))
                .expect("wake check is in the future");
        } else {
            self.queue.schedule_at(due, Ev::WakeDone).expect("wake completes in the future");
        }
    }

    fn on_req_rise(&mut self, t: SimTime) {
        // A stuck REQ from the previous handshake (fault) still holds
        // the synchroniser's latch; clear it so the new request can
        // land. Never fires in a fault-free run.
        if self.current_request.is_none() && self.monitor.sampled_address().is_some() {
            self.monitor.req_fall();
        }
        let spike = self.sender.begin(t);
        self.monitor.req_rise(t, spike.addr);
        self.current_request = Some(t);
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.handshake_open = Some(ts.tel.spans.open(SpanKind::Handshake, "4-phase", t));
        }
        if self.fsm.is_asleep() {
            // REQ asynchronously restarts the ring oscillator.
            self.schedule_wake(t);
        }
    }

    fn on_wake_done(&mut self, t: SimTime) {
        self.clock_transition(t, ClockRate::FullRate);
        if let Some(ts) = self.tel.as_deref_mut() {
            if let Some(h) = ts.wake_open.take() {
                ts.tel.spans.close(h, t);
            }
            if let Some(h) = ts.wake_recovery_open.take() {
                ts.tel.spans.close(h, t);
            }
            if let Some(ls) = ts.lineage.as_mut() {
                if let Some(started) = ls.wake_started.take() {
                    // Retries included: the penalty spans the whole
                    // episode, from the wake request to the edge that
                    // finally came up.
                    ls.wake_done = Some((started, t));
                }
            }
        }
        let frozen = self.fsm.wake();
        debug_assert_eq!(Some(frozen), self.wake_frozen);
        // First tick one base period after the oscillator stabilises.
        self.queue.schedule_at(t + self.base, Ev::Tick).expect("tick after wake is future");
    }

    /// `true` when the tick popped at `t` begins a provably quiet
    /// stretch: nothing is in flight on the sensor side (no request
    /// crossing the synchroniser, no latched address, no ACK recovery,
    /// no wake in progress) and no scheduled fault is due — so every
    /// tick until the next queue event is a pure `on_tick(false)` whose
    /// trajectory [`SamplerFsm::advance_idle_into`] computes in closed form.
    fn idle_at(&self, t: SimTime) -> bool {
        self.current_request.is_none()
            && self.monitor.sampled_address().is_none()
            && self.pending_ack.is_none()
            && self.wake_frozen.is_none()
            && self.injector.next_scheduled_at().is_none_or(|due| due > t)
    }

    /// Jumps the quiet tick chain from the popped tick at `t` to the
    /// next interesting instant, replaying the side effects of the
    /// skipped ticks segment-wise.
    ///
    /// An isolated event's chain — from the post-capture reset position
    /// all the way to shutdown, with the barrier past it — is replayed
    /// from the interface's [`SegmentTable`] in O(1): one FSM jump, one
    /// meter call for all levels (per segment when telemetry records
    /// samples and residency), one clock advance. Anything else (the
    /// barrier inside the chain, a mid-chain start after an SPI write,
    /// a never-stopping policy) takes `advance_idle_into`.
    ///
    /// The barrier is the earliest of: the next queue event (while
    /// input remains, the pending `ReqRise` bounds it), the next
    /// scheduled fault, and — once the input is exhausted — the
    /// horizon, so the final at-or-past-horizon tick still pops and is
    /// processed by the normal path exactly as per-tick stepping would.
    /// During `(t, barrier)` the per-tick engine could pop nothing but
    /// this chain's own ticks, and quiet ticks schedule nothing but
    /// their successor (a shutdown with no latched request schedules no
    /// wake), so batching them cannot reorder anything: the resumed
    /// tick is scheduled now, which gives it a later sequence number
    /// than everything already queued — the same tie-break per-tick
    /// stepping produces at a shared instant.
    fn fast_forward(&mut self, t: SimTime) {
        let mut barrier = self.queue.peek_time().unwrap_or(SimTime::MAX);
        if let Some(due) = self.injector.next_scheduled_at() {
            barrier = barrier.min(due);
        }
        if self.sender.is_done() {
            barrier = barrier.min(self.horizon);
        }
        if let Some(chain) = self.idle_chain.or(self.rebuilt_chain.as_deref()) {
            if let Some(shutdown) = self.fsm.replay_idle_chain(chain, t, barrier) {
                if self.tel.is_none() {
                    self.meter.clock_levels_then_off(t + chain.first_boundary(), chain.levels());
                } else {
                    let mut segments = std::mem::take(&mut self.idle_segments);
                    segments.clear();
                    segments.extend(chain.segments_from(t));
                    self.narrate_segments(segments.iter().copied());
                    self.idle_segments = segments;
                }
                self.queue.advance_to(shutdown);
                return;
            }
        }
        let mut segments = std::mem::take(&mut self.idle_segments);
        let next_tick = self.fsm.advance_idle_into(t, barrier, &mut segments);
        self.narrate_segments(segments.iter().copied());
        match next_tick {
            Some(next) => {
                self.queue.schedule_at(next, Ev::Tick).expect("resumed tick is not in the past")
            }
            // Per-tick stepping would have popped the shutdown tick,
            // leaving the clock there; the end-of-run bookkeeping (FIFO
            // drain start, power horizon) reads it.
            None => self.queue.advance_to(segments.last().expect("a shutdown segment").last_tick),
        }
        self.idle_segments = segments;
    }

    /// Replays fast-forwarded segments into the observers: per segment
    /// that ends at a boundary, the live samples due up to its last tick
    /// and the boundary's clock transition.
    fn narrate_segments(&mut self, segments: impl IntoIterator<Item = IdleSegment>) {
        for seg in segments {
            let clock = match seg.boundary {
                // Samples due past the last tick are emitted by the next
                // event's `sample_until` — the FSM already carries this
                // segment's multiplier.
                IdleBoundary::None => continue,
                IdleBoundary::Divided { multiplier } => ClockRate::Divided(multiplier),
                IdleBoundary::ShutDown => ClockRate::Off,
            };
            self.emit_samples(seg.last_tick, Some(seg.multiplier));
            self.clock_transition(seg.last_tick, clock);
        }
    }

    fn on_tick(&mut self, t: SimTime) {
        if self.fsm.is_asleep() {
            // Stale tick scheduled before a shutdown raced in; ignore.
            return;
        }
        if self.engine == SimEngine::EventProportional && self.idle_at(t) {
            self.fast_forward(t);
            return;
        }
        if let Some(kind) = self.injector.due_scheduled(t) {
            match kind {
                FaultKind::StuckOscillator => {
                    self.health.oscillator_stalls += 1;
                    self.fsm.force_shutdown();
                    self.clock_transition(t, ClockRate::Off);
                    // A latched REQ holds the wake input, so recovery
                    // starts immediately — unless an unresolved ACK is
                    // keeping REQ high, in which case the next fresh
                    // request restarts the clock.
                    if self.monitor.sampled_address().is_some() && self.pending_ack.is_none() {
                        self.schedule_wake(t);
                    }
                    return;
                }
            }
        }
        let pending = if self.pending_ack.is_some() {
            // REQ is held high awaiting a re-driven ACK; the latched
            // address belongs to the already-sampled event, not a new
            // request.
            false
        } else if self.wake_frozen.is_some() {
            true // the wake tick samples unconditionally (REQ woke us)
        } else {
            self.monitor.on_tick(t)
        };
        // Divider state *before* the tick: the `Sampled` arm resets
        // level and period, but the captured event ran under — and its
        // lineage is attributed to — the pre-capture values.
        let ctx = self.fsm.capture_context();
        match self.fsm.on_tick(pending) {
            FsmAction::Sampled { timestamp_ticks } => {
                let frozen = self.wake_frozen.take();
                let woke = frozen.is_some();
                let ticks = frozen.unwrap_or(timestamp_ticks);
                self.clock_transition(t, ClockRate::FullRate); // reset to T_min
                self.capture_event(t, ticks, woke, ctx);
            }
            FsmAction::Divided { multiplier } => {
                self.clock_transition(t, ClockRate::Divided(multiplier));
            }
            FsmAction::ShutDown => {
                self.clock_transition(t, ClockRate::Off);
                // If REQ is already high (request still crossing the
                // synchroniser), it holds the ring oscillator's wake
                // input: the clock restarts immediately, and the event
                // gets the frozen (saturated) timestamp.
                if self.monitor.sampled_address().is_some() && self.pending_ack.is_none() {
                    self.schedule_wake(t);
                }
                return; // no further ticks until the wake
            }
            FsmAction::Ticked => {}
        }
        self.queue
            .schedule_after(self.fsm.current_period(), Ev::Tick)
            .expect("tick period is positive");
    }

    fn capture_event(&mut self, t: SimTime, ticks: u64, woke: bool, ctx: CaptureContext) {
        let Some(addr) = self.monitor.sampled_address() else {
            // A glitch made the synchroniser fire with nothing latched
            // (possible only under injected faults); nothing to capture.
            self.health.spurious_samples += 1;
            return;
        };
        let event = AetrEvent::new(addr, Timestamp::from_ticks(ticks));
        let request = match self.current_request.take() {
            Some(r) => r,
            None => {
                // Latched address without an in-flight request: a stuck
                // REQ re-sampled after its handshake completed. Discard
                // the duplicate and clear the latch.
                self.health.spurious_samples += 1;
                self.monitor.req_fall();
                return;
            }
        };
        self.events.push(TimestampedEvent { request, detection: t, event });
        self.meter.event(1);

        // Into the FIFO. An injected bit flip corrupts the stored word
        // only — the captured event above keeps the true value, so
        // campaigns can measure the damage.
        let mut word = event.to_word();
        if let Some(bit) = self.injector.flip_fifo_bit() {
            self.health.fifo_bit_flips += 1;
            word ^= 1 << bit;
        }
        let outcome = self.fifo.push(AetrEvent::from_word(word));
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.tel.metrics.observe(ts.fifo_depth, self.fifo.len() as f64);
            if let Some(ls) = ts.lineage.as_mut() {
                let wake_penalty = match (woke, ls.wake_done.take()) {
                    (true, Some((started, done))) => done.saturating_duration_since(started),
                    _ => SimDuration::ZERO,
                };
                // Signed quantization error of the measured interval,
                // in fractional T_min ticks, measured from the previous
                // event's arrival (`t = 0` before the first). The
                // picosecond terms are exact in i128; their difference
                // fits i64 comfortably (simulated horizons are far
                // below 2^63 ps), and the i64 → f64 cast is a single
                // instruction where the i128 → f64 one is a libcall —
                // this is the hot path.
                let prev_arrival =
                    self.events.iter().rev().nth(1).map_or(SimTime::ZERO, |e| e.request);
                let t_min_ps = self.base.as_ps();
                let measured_ps = ticks as i128 * t_min_ps as i128;
                let true_ps = request.as_ps() as i128 - prev_arrival.as_ps() as i128;
                let quantization_error_ticks =
                    (measured_ps - true_ps) as i64 as f64 / t_min_ps as f64;
                let mut record = EventLineage::captured(Capture {
                    index: ls.log.len() as u32,
                    address: addr.value(),
                    arrival: request,
                    detection: t,
                    timestamp_ticks: ticks,
                    // Frozen-at-shutdown or clamped counters mark the
                    // interval as "longer than measurable", not a
                    // measurement.
                    saturated: woke || ticks >= self.cfg.clock.counter_max(),
                    division_level: ctx.division_level,
                    multiplier: ctx.multiplier,
                    sampling_period: ctx.sampling_period,
                    woke,
                    wake_penalty,
                    quantization_error_ticks,
                });
                match outcome {
                    PushOutcome::Stored => record.set_fifo_enqueue(t),
                    PushOutcome::DroppedNewest => {
                        record.drop_cause = if self.fifo.is_degraded() {
                            DropCause::Degraded
                        } else {
                            DropCause::Overflow
                        };
                    }
                    PushOutcome::DroppedOldest => {
                        // The incoming event is stored; the oldest
                        // buffered one was displaced to make room.
                        if let Some(victim) = ls.pop_fifo() {
                            victim.drop_cause = DropCause::Displaced;
                            victim.set_fifo_dequeue(t);
                        }
                        record.set_fifo_enqueue(t);
                    }
                }
                ls.log.push(record);
            }
        }
        self.regs.set_status(self.fifo.len() as u32);
        self.regs.set_event_count(self.events.len() as u32);

        // Complete the 4-phase handshake: ACK rises with the sampling
        // edge (one reference period of response delay) — unless the
        // sensor misses the ACK edge, in which case the watchdog takes
        // over and re-drives it after a timeout.
        let ref_period = self.cfg.clock.reference_period();
        if self.injector.lose_ack() {
            self.health.lost_acks += 1;
            self.pending_ack = Some(t);
            if let Some(ts) = self.tel.as_deref_mut() {
                ts.ack_recovery_open =
                    Some(ts.tel.spans.open(SpanKind::WatchdogRecovery, "ack-recovery", t));
            }
            self.queue
                .schedule_at(t + self.watchdog.ack_timeout, Ev::AckRetry(0))
                .expect("ack retry is in the future");
        } else {
            self.complete_handshake(t + ref_period);
        }

        // Watermark batching: start a drain once the threshold is hit.
        if self.fifo.at_watermark() && !self.draining {
            self.draining = true;
            let start = t.max(self.i2s.busy_until());
            self.queue.schedule_at(start, Ev::FrameDone).expect("drain start is not in the past");
        }
    }

    /// Finishes the 4-phase transaction with `ACK` rising at
    /// `ack_rise`, applying protocol fault injection (malformed edge
    /// ordering, stuck `REQ`) on the way out.
    fn complete_handshake(&mut self, ack_rise: SimTime) {
        let ref_period = self.cfg.clock.reference_period();
        let req_fall = self.sender.ack_rise(ack_rise);
        let ack_fall = req_fall + ref_period;
        let mut txn = self.sender.ack_fall(ack_rise, req_fall, ack_fall);
        if self.injector.malform() {
            // The sensor drives its edges out of order; the logged
            // transaction violates the 4-phase contract and
            // `verify_protocol` will flag it.
            self.health.malformed_transactions += 1;
            std::mem::swap(&mut txn.ack_rise, &mut txn.req_fall);
        }
        self.log.push(txn);
        if let Some(ts) = self.tel.as_deref_mut() {
            if let Some(h) = ts.handshake_open.take() {
                ts.tel.spans.close(h, ack_fall);
            }
            // The handshake in flight belongs to the newest record. It
            // keeps the instant ACK actually rose, even when a malform
            // fault scrambles the *logged* edges.
            if let Some(r) = ts.lineage.as_mut().and_then(|ls| ls.log.last_mut()) {
                r.set_ack_rise(ack_rise);
            }
        }
        if self.injector.stick_req() {
            // REQ fails to fall: the synchroniser latch stays set and
            // the next tick would re-sample a phantom copy.
            self.health.stuck_requests += 1;
        } else {
            self.monitor.req_fall();
        }
        self.schedule_next_request();
    }

    /// Watchdog: the `ACK` the sensor should have seen never arrived
    /// (`REQ` still high). Re-drive it, with bounded exponential
    /// backoff; after `max_ack_retries` the channel is aborted.
    fn on_ack_retry(&mut self, t: SimTime, attempt: u32) {
        if self.pending_ack.is_none() {
            return; // stale retry; the handshake already resolved
        }
        self.health.ack_retries += 1;
        let lineage = self.tel.as_deref_mut().and_then(|ts| ts.lineage.as_mut());
        if let Some(r) = lineage.and_then(|ls| ls.log.last_mut()) {
            r.ack_retries += 1;
        }
        if self.injector.lose_ack() {
            self.health.lost_acks += 1;
            if attempt + 1 >= self.watchdog.max_ack_retries {
                // Give up: abort the transaction, drop the latch and
                // move on. The event was already captured; only the
                // handshake record is lost.
                self.health.handshakes_aborted += 1;
                self.pending_ack = None;
                if let Some(ts) = self.tel.as_deref_mut() {
                    if let Some(h) = ts.ack_recovery_open.take() {
                        ts.tel.spans.close_with(h, t, Some(u64::from(attempt + 1)));
                    }
                    if let Some(h) = ts.handshake_open.take() {
                        // The handshake never completed; the span ends
                        // at the abort. ACK never rose for this event;
                        // its record keeps `ack_rise()` = None as the
                        // abort marker.
                        ts.tel.spans.close(h, t);
                    }
                }
                self.sender.abort(t);
                self.monitor.req_fall();
                self.schedule_next_request();
            } else {
                self.queue
                    .schedule_at(
                        t + self.watchdog.ack_backoff(attempt + 1),
                        Ev::AckRetry(attempt + 1),
                    )
                    .expect("ack retry is in the future");
            }
        } else {
            self.health.acks_recovered += 1;
            self.pending_ack = None;
            if let Some(ts) = self.tel.as_deref_mut() {
                if let Some(h) = ts.ack_recovery_open.take() {
                    ts.tel.spans.close_with(h, t, Some(u64::from(attempt + 1)));
                }
            }
            self.complete_handshake(t);
        }
    }

    /// Watchdog: a wake that should have completed did not. Retry; if
    /// the oscillator stays dead, force it awake and fall back to
    /// degraded (never-sleeping) clocking.
    fn on_wake_check(&mut self, t: SimTime, attempt: u32) {
        if !self.fsm.is_asleep() {
            return; // stale check; something else woke the clock
        }
        self.health.wake_retries += 1;
        if attempt >= self.watchdog.max_wake_retries {
            self.health.forced_wakes += 1;
            self.enter_degraded();
            self.on_wake_done(t);
        } else if self.injector.fail_wake() {
            self.health.wake_failures += 1;
            self.queue
                .schedule_at(t + self.watchdog.wake_timeout, Ev::WakeCheck(attempt + 1))
                .expect("wake check is in the future");
        } else {
            self.on_wake_done(t);
        }
    }

    /// Clamps `N_div` and pins the clock on: latency stays bounded at
    /// the cost of the paper's energy proportionality.
    fn enter_degraded(&mut self) {
        if self.health.degraded {
            return;
        }
        self.health.degraded = true;
        // From here on, losses at a full buffer are the watchdog
        // fallback's fault, not ordinary congestion.
        self.fifo.set_degraded(true);
        self.reconfigure_clock(
            &self.cfg.clock.degraded_fallback(self.watchdog.degraded_n_div_clamp),
        );
    }

    /// Installs `clock` in the FSM and replaces the post-capture chain
    /// with the run's own one for it.
    fn reconfigure_clock(&mut self, clock: &ClockGenConfig) {
        self.fsm.reconfigure(clock);
        self.idle_chain = None;
        self.rebuilt_chain = self.fsm.idle_chain().map(Box::new);
    }

    fn drain_step(&mut self, t: SimTime) {
        if self.fifo.is_empty() {
            self.draining = false;
            return;
        }
        let done = self.send_frame(t.max(self.i2s.busy_until()));
        self.queue.schedule_at(done, Ev::FrameDone).expect("frame completes in the future");
    }

    /// Pops the oldest one or two buffered events and sends them as one
    /// I2S frame starting at `start` (the link must be idle by then);
    /// returns when the frame ends. An injected receiver-side slip then drops the frame, and
    /// the lineage layer marks its events lost instead of delivered.
    fn send_frame(&mut self, start: SimTime) -> SimTime {
        let first = self.fifo.pop().expect("caller checked non-empty");
        let second = self.fifo.pop();
        let done = self.i2s.send_pair(start, first, second).expect("frames never overlap");
        let mut slipped = false;
        if self.injector.slip_frame() {
            if let Some(frame) = self.i2s.drop_last_frame() {
                self.health.frame_slips += 1;
                self.health.events_lost_to_slips += frame.events().count() as u64;
                slipped = true;
            }
        }
        self.regs.set_status(self.fifo.len() as u32);
        if let Some(ts) = self.tel.as_deref_mut() {
            let pair = 1 + u64::from(second.is_some());
            ts.tel.spans.record(SpanKind::I2sFrame, "frame", start, done, Some(pair));
            ts.record_transmission(pair, start, done, slipped);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, RegularGenerator, SpikeSource};
    use aetr_clockgen::config::DivisionPolicy;
    use aetr_power::units::Power;

    use crate::quantizer::quantize_train;

    fn prototype() -> AerToI2sInterface {
        AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap()
    }

    #[test]
    fn processes_every_spike_exactly_once() {
        let train = PoissonGenerator::new(50_000.0, 64, 1).generate(SimTime::from_ms(10));
        let n = train.len();
        let report = prototype().run(&train, SimTime::from_ms(10));
        assert_eq!(report.events.len(), n);
        assert_eq!(report.handshake.len(), n);
        assert_eq!(report.i2s.event_count(), n, "every event reaches the I2S stream");
        report.handshake.verify_protocol().unwrap();
    }

    #[test]
    fn handshake_meets_caviar_at_moderate_rates() {
        let train = RegularGenerator::from_rate(100_000.0, 16).generate(SimTime::from_ms(5));
        let report = prototype().run(&train, SimTime::from_ms(5));
        report.handshake.verify_caviar().unwrap();
    }

    #[test]
    fn timestamps_match_behavioral_engine_with_ideal_front_end() {
        let cfg =
            InterfaceConfig { front_end: FrontEndConfig::ideal(), ..InterfaceConfig::prototype() };
        let train = PoissonGenerator::new(80_000.0, 32, 9).generate(SimTime::from_ms(20));
        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(20));
        let behav = quantize_train(&cfg.clock, &train, SimTime::from_ms(20));

        assert_eq!(des.events.len(), behav.records.len());
        let mut mismatches = 0;
        for (d, b) in des.events.iter().zip(&behav.records) {
            assert_eq!(d.event.addr, b.event.addr);
            let dt = d.event.timestamp.ticks() as i64;
            let bt = b.event.timestamp.ticks() as i64;
            // Handshake-induced REQ timing differences shift detection
            // by at most a couple of ticks either way.
            if (dt - bt).abs() > 2 {
                mismatches += 1;
            }
        }
        assert!(
            (mismatches as f64 / des.events.len() as f64) < 0.02,
            "too many timestamp mismatches: {mismatches}/{}",
            des.events.len()
        );
    }

    #[test]
    fn idle_interface_power_approaches_static_floor() {
        let report = prototype().run(&SpikeTrain::new(), SimTime::from_ms(100));
        // The clock runs for ~64 µs then sleeps for the rest.
        let uw = report.power.total.as_microwatts();
        assert!(uw < 60.0, "idle power {uw} µW");
        assert!(report.power.total >= Power::from_microwatts(50.0));
    }

    #[test]
    fn sparse_events_wake_the_clock() {
        let train =
            RegularGenerator::new(SimDuration::from_ms(10), 4).generate(SimTime::from_ms(95));
        let n = train.len();
        let report = prototype().run(&train, SimTime::from_ms(100));
        assert_eq!(report.wake_count, n as u64, "every sparse event wakes the oscillator");
        // All timestamps saturated at the counter's natural maximum.
        for e in &report.events {
            assert_eq!(e.event.timestamp.ticks(), 960);
        }
    }

    #[test]
    fn no_division_policy_never_sleeps_and_burns_power() {
        let cfg = InterfaceConfig {
            clock: ClockGenConfig::prototype().with_policy(DivisionPolicy::Never),
            ..InterfaceConfig::prototype()
        };
        let report =
            AerToI2sInterface::new(cfg).unwrap().run(&SpikeTrain::new(), SimTime::from_ms(2));
        assert_eq!(report.wake_count, 0);
        assert_eq!(report.activity.off, SimDuration::ZERO);
        assert!(report.power.total.as_milliwatts() > 4.0, "naive power {}", report.power.total);
    }

    #[test]
    fn fifo_watermark_triggers_batched_i2s() {
        let cfg = InterfaceConfig {
            fifo: FifoConfig { capacity_bytes: 256, watermark: 16, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let train = RegularGenerator::from_rate(200_000.0, 8).generate(SimTime::from_ms(2));
        let report = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(2));
        assert!(report.fifo_stats.watermark_crossings >= 1);
        assert_eq!(report.fifo_stats.dropped, 0);
        assert_eq!(
            report.i2s.event_count() as u64,
            report.fifo_stats.popped,
            "everything drained went out on I2S"
        );
    }

    #[test]
    fn power_matches_behavioral_model_within_tolerance() {
        let cfg =
            InterfaceConfig { front_end: FrontEndConfig::ideal(), ..InterfaceConfig::prototype() };
        let train = LfsrGenerator::new(50_000.0, 0xFEED).generate(SimTime::from_ms(50));
        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(50));
        let behav = quantize_train(&cfg.clock, &train, SimTime::from_ms(50));
        let model = PowerModel::igloo_nano();
        let p_des = des.power.total.as_microwatts();
        let p_behav = model.evaluate(&behav.activity).total.as_microwatts();
        let rel = (p_des - p_behav).abs() / p_behav;
        assert!(rel < 0.1, "DES {p_des} µW vs behavioral {p_behav} µW");
    }

    #[test]
    fn runtime_spi_write_changes_division_behaviour() {
        use crate::config_bus::Register;
        // A sparse stream: with θ=64/N=3 every 1 ms gap saturates at
        // 960 ticks; after the host writes N_div=6 mid-run, the range
        // grows to 64·127 = 8128 ticks and 1 ms (15008 ticks) still
        // saturates, so use a 300 µs gap: 4507 ticks, measurable only
        // after the write.
        let gap = SimDuration::from_us(300);
        let train: SpikeTrain = (1..=20u64)
            .map(|i| {
                aetr_aer::spike::Spike::new(
                    SimTime::ZERO + gap * i,
                    aetr_aer::address::Address::new(1).unwrap(),
                )
            })
            .collect();
        let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
        let writes = [(SimTime::from_ms(3), Register::NDiv, 6u32)];
        let report = interface.run_with_reconfig(&train, SimTime::from_ms(7), &writes);
        assert_eq!(report.events.len(), 20);
        let before: Vec<u32> =
            report.events[..8].iter().map(|e| e.event.timestamp.ticks()).collect();
        let after: Vec<u32> =
            report.events[12..].iter().map(|e| e.event.timestamp.ticks()).collect();
        assert!(
            before.iter().all(|&t| t == 960),
            "before the write every gap saturates at 960: {before:?}"
        );
        assert!(
            after.iter().all(|&t| t > 960 && t < 8_128),
            "after the write the 300 us gap is measurable: {after:?}"
        );
    }

    #[test]
    fn rejected_runtime_write_changes_nothing() {
        use crate::config_bus::Register;
        let train = RegularGenerator::from_rate(50_000.0, 4).generate(SimTime::from_ms(2));
        let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
        let plain = interface.run(&train, SimTime::from_ms(2));
        let writes = [(SimTime::from_ms(1), Register::ThetaDiv, 1u32)]; // invalid value
        let reconfigured = interface.run_with_reconfig(&train, SimTime::from_ms(2), &writes);
        assert_eq!(plain.events, reconfigured.events);
    }

    /// Runs `train` through both engines — fault plan and live sampler
    /// armed — and asserts the reports are bit-identical (the
    /// wall-clock profile, excluded from `TelemetrySnapshot` equality,
    /// is the only thing allowed to differ). Returns both profiles'
    /// queue-op counts `(fast_forward, per_tick)`.
    fn engines_agree(
        cfg: InterfaceConfig,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &aetr_faults::FaultPlan,
    ) -> (u64, u64) {
        // Lineage on: snapshot equality then also pins per-event
        // records across the engines.
        let tel = TelemetryConfig {
            enabled: true,
            sample_cadence: Some(SimDuration::from_us(50)),
            lineage: true,
        };
        let fast = AerToI2sInterface::new(cfg)
            .unwrap()
            .with_engine(SimEngine::EventProportional)
            .run_with_telemetry(train, horizon, plan, &tel);
        let reference = AerToI2sInterface::new(cfg)
            .unwrap()
            .with_engine(SimEngine::PerTickReference)
            .run_with_telemetry(train, horizon, plan, &tel);
        assert_eq!(fast, reference);
        let ops = |r: &InterfaceReport| r.telemetry.profile.as_ref().map_or(0, |p| p.queue_ops);
        (ops(&fast), ops(&reference))
    }

    #[test]
    fn fast_forward_is_bit_identical_and_event_proportional_on_sparse_input() {
        let train =
            RegularGenerator::new(SimDuration::from_ms(10), 4).generate(SimTime::from_ms(95));
        let (fast_ops, ref_ops) = engines_agree(
            InterfaceConfig::prototype(),
            &train,
            SimTime::from_ms(100),
            &aetr_faults::FaultPlan::nominal(0),
        );
        assert!(
            fast_ops * 10 < ref_ops,
            "idle-heavy run should need >10x fewer queue ops: {fast_ops} vs {ref_ops}"
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_on_dense_input() {
        let train = PoissonGenerator::new(400_000.0, 64, 5).generate(SimTime::from_ms(5));
        engines_agree(
            InterfaceConfig::prototype(),
            &train,
            SimTime::from_ms(5),
            &aetr_faults::FaultPlan::nominal(0),
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_under_never_stopping_policies() {
        for policy in [DivisionPolicy::Never, DivisionPolicy::DivideOnly, DivisionPolicy::Linear] {
            let cfg = InterfaceConfig {
                clock: ClockGenConfig::prototype().with_policy(policy),
                ..InterfaceConfig::prototype()
            };
            let train = PoissonGenerator::new(5_000.0, 16, 11).generate(SimTime::from_ms(4));
            engines_agree(cfg, &train, SimTime::from_ms(4), &aetr_faults::FaultPlan::nominal(0));
        }
    }

    #[test]
    fn fast_forward_is_bit_identical_with_scheduled_and_stochastic_faults() {
        // A stuck-oscillator fault lands mid-idle (the fast-forward
        // barrier must stop there), and protocol-rate faults perturb
        // the surrounding handshakes identically in both engines.
        let plan = aetr_faults::FaultPlan::nominal(42)
            .with_rates(aetr_faults::FaultRates::protocol(0.05))
            .schedule(SimTime::from_ms(3), FaultKind::StuckOscillator);
        let train = RegularGenerator::new(SimDuration::from_ms(1), 8).generate(SimTime::from_ms(9));
        engines_agree(InterfaceConfig::prototype(), &train, SimTime::from_ms(10), &plan);
    }

    #[test]
    fn fast_forward_is_bit_identical_on_empty_and_reconfigured_runs() {
        engines_agree(
            InterfaceConfig::prototype(),
            &SpikeTrain::new(),
            SimTime::from_ms(50),
            &aetr_faults::FaultPlan::nominal(0),
        );
        // Mid-idle SPI write: the tick chain must resume with the new
        // division parameters at exactly the per-tick instant.
        use crate::config_bus::Register;
        let gap = SimDuration::from_us(300);
        let train: SpikeTrain = (1..=10u64)
            .map(|i| {
                aetr_aer::spike::Spike::new(
                    SimTime::ZERO + gap * i,
                    aetr_aer::address::Address::new(2).unwrap(),
                )
            })
            .collect();
        let writes = [(SimTime::from_ms(1) + SimDuration::from_us(37), Register::NDiv, 6u32)];
        let iface = |engine| {
            AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap().with_engine(engine)
        };
        let fast = iface(SimEngine::EventProportional).run_with_reconfig(
            &train,
            SimTime::from_ms(4),
            &writes,
        );
        let reference = iface(SimEngine::PerTickReference).run_with_reconfig(
            &train,
            SimTime::from_ms(4),
            &writes,
        );
        assert_eq!(fast, reference);
    }

    /// Every reconfiguration of the FSM replaces the post-capture chain
    /// template: an SPI write by the new configuration's chain, the
    /// degraded fallback (which never shuts down) by none.
    #[test]
    fn reconfiguration_replaces_the_chain_template() {
        use crate::config_bus::Register;
        let iface = prototype();
        let train = SpikeTrain::new();
        let writes = [(SimTime::from_us(1), Register::ThetaDiv, 17u32)];
        let plan = FaultPlan::nominal(0);
        let tel = TelemetryConfig::disabled();
        let mut runner = Runner::new(&iface, &train, SimTime::from_ms(1), &plan, &tel, &writes);
        // θ ticks at each of the multipliers 1, 2, 4, 8; the first tick
        // is at offset zero.
        let shutdown = |theta: u64| iface.config().clock.base_sampling_period() * (15 * theta - 1);
        let chain = runner.idle_chain.expect("recursive clocking shuts down");
        assert_eq!(chain.shutdown(), shutdown(64));
        runner.on_spi_write(0);
        let chain = runner.rebuilt_chain.as_ref().expect("still recursive");
        assert_eq!(chain.shutdown(), shutdown(17));
        runner.enter_degraded();
        assert!(
            runner.idle_chain.is_none() && runner.rebuilt_chain.is_none(),
            "degraded clocking never shuts down"
        );
    }

    /// Runs borrow the interface's chain: no run rebuilds it, and only a
    /// reconfiguration gives a run a table of its own. A rejected SPI
    /// write leaves the borrow in place; the degraded fallback leaves no
    /// replayable chain.
    #[test]
    fn runs_borrow_the_interface_chain_until_a_reconfiguration() {
        use crate::config_bus::Register;
        let iface = prototype();
        let template = iface.idle_chain.as_ref().expect("recursive clocking shuts down");
        let train = SpikeTrain::new();
        let writes = [
            (SimTime::from_us(1), Register::ThetaDiv, 1u32),
            (SimTime::from_us(2), Register::ThetaDiv, 17),
        ];
        let plan = FaultPlan::nominal(0);
        let tel = TelemetryConfig::disabled();
        let start = || Runner::new(&iface, &train, SimTime::from_ms(1), &plan, &tel, &writes);
        let borrows = |runner: &Runner| {
            runner.idle_chain.is_some_and(|t| std::ptr::eq(t, template))
                && runner.rebuilt_chain.is_none()
        };
        let (first, mut second) = (start(), start());
        assert!(borrows(&first) && borrows(&second), "two runs, one table");
        second.on_spi_write(0);
        assert!(borrows(&second), "a rejected write reconfigures nothing");
        second.on_spi_write(1);
        assert!(second.idle_chain.is_none(), "the interface's table is stale");
        let own = second.rebuilt_chain.as_ref().expect("an accepted write gives the run its table");
        assert_ne!(own.shutdown(), template.shutdown(), "built for the new θ_div");
        assert!(borrows(&first), "other runs keep the interface's table");
        let mut third = start();
        third.enter_degraded();
        assert!(
            third.idle_chain.is_none() && third.rebuilt_chain.is_none(),
            "no chain when degraded"
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let bad = InterfaceConfig {
            clock: ClockGenConfig { theta_div: 1, ..ClockGenConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        assert!(matches!(AerToI2sInterface::new(bad), Err(InterfaceConfigError::Clock(_))));
        let bad_fifo = InterfaceConfig {
            fifo: FifoConfig { capacity_bytes: 8, watermark: 100, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let err = AerToI2sInterface::new(bad_fifo).unwrap_err();
        assert!(err.to_string().contains("watermark"));
    }
}
