//! Cycle-accurate sampling FSM — a direct transcription of the paper's
//! Fig. 1 pseudo-code.
//!
//! ```text
//! function AETRsampling(Tmin, θdiv, Ndiv)
//!   Tsample ← Tmin; cnt_sample ← 0; cnt_div ← 0
//!   loop
//!     if request() then
//!       sample(); acknowledge()
//!       cnt_sample ← 0; cnt_div ← 0; Tsample ← Tmin
//!     else if cnt_sample = θdiv then
//!       if cnt_div = Ndiv then shutdown_clk(); wait_for_request()
//!       else Tsample ← 2·Tsample; cnt_sample ← 0; cnt_div ← cnt_div+1
//!     else cnt_sample ← cnt_sample + 1
//!     wait_one_cycle()
//! ```
//!
//! One simplification relative to the letter of the pseudo-code: the
//! division is applied on the tick at which `cnt_sample` *reaches*
//! `θ_div` rather than burning an extra bookkeeping cycle, so every
//! period runs for exactly `θ_div` ticks. This matches the segment
//! table in [`crate::segments`], and their equivalence is
//! property-tested below.

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

use crate::config::{ClockGenConfig, DivisionPolicy};
use crate::segments::SegmentTable;

/// What happened on a sampling tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsmAction {
    /// A pending request was sampled; counter and period reset.
    Sampled {
        /// Counter value captured as the event timestamp (in `T_min`
        /// units, before width clamping).
        timestamp_ticks: u64,
    },
    /// Quiet tick; the counter advanced by the current increment.
    Ticked,
    /// Quiet tick that also divided the clock.
    Divided {
        /// New period multiplier.
        multiplier: u64,
    },
    /// Quiet tick that switched the clock off.
    ShutDown,
}

/// What ends one segment of an idle batch advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IdleBoundary {
    /// The batch ran out of room before the barrier; the FSM is still
    /// in the same period.
    None,
    /// The segment's last tick divided the clock.
    Divided {
        /// New period multiplier, in force from the boundary tick on.
        multiplier: u64,
    },
    /// The segment's last tick switched the clock off.
    ShutDown,
}

/// One maximal run of quiet ticks at a constant period multiplier,
/// produced by [`SamplerFsm::advance_idle_into`].
///
/// Ticks land at `first_tick + i · multiplier · T_min` for
/// `i ∈ [0, ticks)`; `last_tick` is the final one, and `boundary` says
/// what that final tick did beyond advancing the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleSegment {
    /// Time of the segment's first tick.
    pub first_tick: SimTime,
    /// Time of the segment's last tick (equals `first_tick` for a
    /// single-tick segment).
    pub last_tick: SimTime,
    /// Number of ticks in the segment (≥ 1).
    pub ticks: u64,
    /// Period multiplier in force *during* the segment (the boundary
    /// tick's own counter increment uses this value; a division takes
    /// effect after it).
    pub multiplier: u64,
    /// What the last tick did.
    pub boundary: IdleBoundary,
}

/// Snapshot of the divider state a capture happened under, read by the
/// lineage layer *before* the capturing tick resets the FSM
/// ([`SamplerFsm::capture_context`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaptureContext {
    /// Recursive-division level `cnt_div` at the capturing tick.
    pub division_level: u32,
    /// Period multiplier at the capturing tick
    /// (`1 << division_level` under the recursive policy).
    pub multiplier: u64,
    /// Sampling period at the capturing tick
    /// (`multiplier · T_min`).
    pub sampling_period: SimDuration,
}

/// Cycle-accurate state of the Fig. 1 sampling FSM.
///
/// Drive it with [`on_tick`](SamplerFsm::on_tick) at every sampling
/// clock edge, passing whether an AER request is pending. While
/// [asleep](SamplerFsm::is_asleep) there are no ticks; call
/// [`wake`](SamplerFsm::wake) when a request restarts the oscillator.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::config::ClockGenConfig;
/// use aetr_clockgen::fsm::{FsmAction, SamplerFsm};
///
/// let mut fsm = SamplerFsm::new(&ClockGenConfig::prototype().with_theta_div(4));
/// for _ in 0..4 {
///     assert!(matches!(fsm.on_tick(false), FsmAction::Ticked | FsmAction::Divided { .. }));
/// }
/// assert_eq!(fsm.multiplier(), 2); // divided after θ=4 ticks
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerFsm {
    theta_div: u32,
    n_div: u32,
    policy: DivisionPolicy,
    counter_max: u64,
    base_period: SimDuration,

    multiplier: u64,
    cnt_sample: u32,
    cnt_div: u32,
    counter: u64,
    asleep: bool,
}

impl SamplerFsm {
    /// Creates the FSM in its reset state (fastest period, counters
    /// zero, clock running).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate.
    pub fn new(config: &ClockGenConfig) -> SamplerFsm {
        config.validate().expect("sampler FSM requires a valid configuration");
        SamplerFsm {
            theta_div: config.theta_div,
            n_div: config.n_div,
            policy: config.policy,
            counter_max: config.counter_max(),
            base_period: config.base_sampling_period(),
            multiplier: 1,
            cnt_sample: 0,
            cnt_div: 0,
            counter: 0,
            asleep: false,
        }
    }

    /// The divider state an event captured on the *next* tick would be
    /// attributed to. Lineage collection reads this immediately before
    /// [`on_tick`](SamplerFsm::on_tick), whose `Sampled` arm resets
    /// level, multiplier and period.
    pub fn capture_context(&self) -> CaptureContext {
        CaptureContext {
            division_level: self.cnt_div,
            multiplier: self.multiplier,
            sampling_period: self.current_period(),
        }
    }

    /// Current sampling period (`multiplier · T_min`).
    pub fn current_period(&self) -> SimDuration {
        self.base_period.saturating_mul(self.multiplier)
    }

    /// Current period multiplier.
    pub fn multiplier(&self) -> u64 {
        self.multiplier
    }

    /// Current timestamp counter value (in `T_min` units).
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Current recursive-division level `cnt_div` (0 at full rate,
    /// up to `N_div` just before shutdown).
    ///
    /// The telemetry sampler reports this as the instantaneous divider
    /// level; it always satisfies `multiplier() == 1 << division_level()`.
    pub fn division_level(&self) -> u32 {
        self.cnt_div
    }

    /// `true` after shutdown, until [`wake`](SamplerFsm::wake).
    pub fn is_asleep(&self) -> bool {
        self.asleep
    }

    /// Advances one sampling clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if called while asleep — a stopped clock has no ticks;
    /// call [`wake`](SamplerFsm::wake) first.
    pub fn on_tick(&mut self, request_pending: bool) -> FsmAction {
        assert!(!self.asleep, "on_tick while the clock is stopped");
        // The counter advances by the current increment on every cycle,
        // so its value always equals elapsed/T_min at tick boundaries.
        self.counter = self.counter.saturating_add(self.multiplier).min(self.counter_max);

        if request_pending {
            let timestamp_ticks = self.counter;
            self.reset_measurement();
            return FsmAction::Sampled { timestamp_ticks };
        }

        self.cnt_sample += 1;
        if self.cnt_sample >= self.theta_div {
            self.cnt_sample = 0;
            match self.policy {
                DivisionPolicy::Never => FsmAction::Ticked,
                DivisionPolicy::Recursive | DivisionPolicy::Linear
                    if self.cnt_div == self.n_div =>
                {
                    self.asleep = true;
                    FsmAction::ShutDown
                }
                DivisionPolicy::DivideOnly if self.cnt_div == self.n_div => FsmAction::Ticked,
                DivisionPolicy::Recursive | DivisionPolicy::DivideOnly => {
                    self.cnt_div += 1;
                    self.multiplier *= 2;
                    FsmAction::Divided { multiplier: self.multiplier }
                }
                DivisionPolicy::Linear => {
                    self.cnt_div += 1;
                    self.multiplier += 1;
                    FsmAction::Divided { multiplier: self.multiplier }
                }
            }
        } else {
            FsmAction::Ticked
        }
    }

    /// Handles an AER request arriving while the clock is stopped: the
    /// oscillator restarts and the (saturated) frozen counter becomes
    /// the event's timestamp. Returns that timestamp in `T_min` units.
    ///
    /// # Panics
    ///
    /// Panics if the clock is running (a running clock samples requests
    /// through [`on_tick`](SamplerFsm::on_tick)).
    pub fn wake(&mut self) -> u64 {
        assert!(self.asleep, "wake() on a running clock");
        let frozen = self.counter;
        self.asleep = false;
        self.reset_measurement();
        frozen
    }

    /// Forces the clock off regardless of FSM state — a stuck
    /// oscillator fault, not a policy decision. The counter freezes at
    /// its current value exactly as in a normal shutdown, so a later
    /// [`wake`](SamplerFsm::wake) delivers a coherent (if saturated)
    /// timestamp. Idempotent: forcing an already-stopped clock does
    /// nothing.
    pub fn force_shutdown(&mut self) {
        self.asleep = true;
    }

    /// Batch-advances the quiet tick chain analytically: processes the
    /// already-due tick at `first_tick` plus every subsequent tick
    /// strictly before `barrier`, all with `request_pending = false`,
    /// in O(`N_div`) work instead of one [`on_tick`](SamplerFsm::on_tick)
    /// call per tick.
    ///
    /// Between requests the trajectory is closed-form — `θ_div` ticks
    /// per multiplier level, then divide (or plateau, per the policy),
    /// then shut down after `N_div` divisions — so a run of `k` quiet
    /// ticks at multiplier `m` collapses to one counter update
    /// (`k` clamped adds of `+m` equal one clamped add of `+k·m`,
    /// because addition is monotone and the `counter_max` clamp is
    /// absorbing). The resulting FSM state is bit-identical to `k`
    /// per-tick steps; the returned segments carry enough structure
    /// (tick times, multipliers, boundary actions) for callers to
    /// replay the side effects — power-meter transitions, telemetry
    /// residency, live samples — segment-wise with the same exactness.
    /// They go into `out` (cleared first), so a hot loop can reuse one
    /// allocation across batches: constant-multiplier segments in time
    /// order, every one but the last ending in a division.
    ///
    /// The tick at `first_tick` is processed even if it is at or past
    /// the barrier (it was already popped by the caller); later ticks
    /// stop at the barrier. Returns the time of the next tick, at or
    /// after the barrier, or `None` if the batch ended in shutdown (a
    /// stopped clock has no next tick).
    ///
    /// # Panics
    ///
    /// Panics if called while asleep, like `on_tick`.
    pub fn advance_idle_into(
        &mut self,
        first_tick: SimTime,
        barrier: SimTime,
        out: &mut Vec<IdleSegment>,
    ) -> Option<SimTime> {
        assert!(!self.asleep, "advance_idle while the clock is stopped");
        out.clear();
        let mut t = first_tick;
        // The tick at `first_tick` was already due; it is processed
        // unconditionally even when the barrier is at or before it.
        let mut forced = true;
        loop {
            let period = self.current_period();
            // Ticks land at t, t+p, t+2p, …; those strictly before the
            // barrier are ceil((barrier − t) / p) of them (none when the
            // barrier is at or before t), and at least one when forced.
            let gap = barrier.saturating_duration_since(t).as_ps();
            let p = period.as_ps().max(1);
            if gap == 0 && !forced {
                return Some(t);
            }
            let to_boundary = u64::from(self.theta_div - self.cnt_sample);
            let plateau = match self.policy {
                DivisionPolicy::Never => true,
                DivisionPolicy::DivideOnly => self.cnt_div == self.n_div,
                DivisionPolicy::Recursive | DivisionPolicy::Linear => false,
            };
            // The boundary tick `t + (to_boundary − 1)·p` is before the
            // barrier iff `gap > (to_boundary − 1)·p`: one multiply
            // decides it, and the exact tick count — a division — is
            // needed only when the batch stops short of the boundary.
            // (A saturated product exceeds every gap, as the exact one
            // would.)
            let reaches_boundary =
                gap > (to_boundary - 1).saturating_mul(p) || (forced && to_boundary == 1);
            forced = false;
            if plateau || !reaches_boundary {
                // No state-changing boundary inside the batch: either
                // the policy plateaus (cnt_sample just wraps at θ_div)
                // or the barrier arrives first. A zero gap got here only
                // forced, for one tick.
                let avail = gap.div_ceil(p).max(1);
                self.step_counter(avail);
                self.cnt_sample = if plateau {
                    ((u64::from(self.cnt_sample) + avail) % u64::from(self.theta_div)) as u32
                } else {
                    self.cnt_sample + avail as u32
                };
                out.push(IdleSegment {
                    first_tick: t,
                    last_tick: t.saturating_add(period.saturating_mul(avail - 1)),
                    ticks: avail,
                    multiplier: self.multiplier,
                    boundary: IdleBoundary::None,
                });
                return Some(t.saturating_add(period.saturating_mul(avail)));
            }
            // The division boundary lands inside the batch: close the
            // segment at it and decide, exactly as `on_tick` would.
            let boundary_tick = t.saturating_add(period.saturating_mul(to_boundary - 1));
            self.step_counter(to_boundary);
            self.cnt_sample = 0;
            let during = self.multiplier;
            if self.cnt_div == self.n_div {
                // Recursive/Linear out of divisions (the plateauing
                // policies never reach here): the clock stops.
                self.asleep = true;
                out.push(IdleSegment {
                    first_tick: t,
                    last_tick: boundary_tick,
                    ticks: to_boundary,
                    multiplier: during,
                    boundary: IdleBoundary::ShutDown,
                });
                return None;
            }
            self.cnt_div += 1;
            self.multiplier = match self.policy {
                DivisionPolicy::Linear => self.multiplier + 1,
                _ => self.multiplier * 2,
            };
            out.push(IdleSegment {
                first_tick: t,
                last_tick: boundary_tick,
                ticks: to_boundary,
                multiplier: during,
                boundary: IdleBoundary::Divided { multiplier: self.multiplier },
            });
            t = boundary_tick.saturating_add(self.current_period());
        }
    }

    /// The division schedule of this FSM's configuration as the quiet
    /// walk from the reset divider position to shutdown, for
    /// [`replay_idle_chain`](SamplerFsm::replay_idle_chain). `None` when
    /// the policy never shuts down (`Never`, `DivideOnly`), or when the
    /// shutdown's offset from the reset does not fit the time range. (A
    /// walk from a first tick at `t ≥ T_min`, as every tick of a run
    /// is, could not replay then anyway: its shutdown tick overflows.)
    ///
    /// After a capture the FSM sits at the reset position
    /// (`cnt_sample = 0`, `cnt_div = 0`, multiplier 1), and with no
    /// request in sight it walks the same θ_div·(N_div + 1) quiet ticks
    /// to shutdown every time. The walk depends on the configuration and
    /// the divider position alone, and it is shift-invariant: started at
    /// `t` instead of time zero, every tick lands `t` later. So one
    /// table serves every replay whose shifted shutdown tick does not
    /// overflow. The counter is the only state that differs between
    /// replays; `k` clamped adds equal one clamped add of their sum (see
    /// [`advance_idle_into`](SamplerFsm::advance_idle_into)), so it takes one add
    /// of the table's [`max_counter`](SegmentTable::max_counter).
    pub fn idle_chain(&self) -> Option<SegmentTable> {
        let table = SegmentTable::build(self.base_period, self.theta_div, self.n_div, self.policy);
        (table.shutdown < SimDuration::MAX).then_some(table)
    }

    /// Replays `table` as the quiet tick chain whose first tick is
    /// `first_tick`: the FSM ends in the state
    /// [`advance_idle_into`](SamplerFsm::advance_idle_into) would leave
    /// it in, asleep, and the table's
    /// [`segments_from`](SegmentTable::segments_from) are the segments it
    /// would produce. Returns the shutdown tick.
    ///
    /// Applies only when the FSM sits at the reset divider position
    /// under the configuration the table was built for, and `barrier`
    /// lies strictly after the shifted shutdown tick (so every chain
    /// tick is due before it; a table that never shuts down has none).
    /// Otherwise returns `None` and leaves the FSM untouched; the caller
    /// then advances with `advance_idle_into`. The check is a handful of
    /// compares: no allocation, no copy of the FSM.
    ///
    /// # Panics
    ///
    /// Panics if called while asleep, like `on_tick`.
    pub fn replay_idle_chain(
        &mut self,
        table: &SegmentTable,
        first_tick: SimTime,
        barrier: SimTime,
    ) -> Option<SimTime> {
        assert!(!self.asleep, "replay_idle_chain while the clock is stopped");
        if self.cnt_sample != 0
            || self.cnt_div != 0
            || self.multiplier != 1
            || self.theta_div != table.theta_div
            || self.n_div != table.n_div
            || self.policy != table.policy
        {
            return None;
        }
        let shutdown = first_tick.checked_add(table.shutdown).filter(|&s| s < barrier)?;
        self.counter = self.counter.saturating_add(table.counter_end).min(self.counter_max);
        self.cnt_div = self.n_div;
        self.multiplier = table.segments()[table.segments().len() - 1].multiplier;
        self.asleep = true;
        Some(shutdown)
    }

    /// `ticks` quiet-tick counter increments at the current multiplier,
    /// collapsed into one clamped add.
    fn step_counter(&mut self, ticks: u64) {
        self.counter = self
            .counter
            .saturating_add(self.multiplier.saturating_mul(ticks))
            .min(self.counter_max);
    }

    fn reset_measurement(&mut self) {
        self.counter = 0;
        self.cnt_sample = 0;
        self.cnt_div = 0;
        self.multiplier = 1;
    }

    /// Applies a new configuration at runtime (the SPI path of §4.1:
    /// "θ_div and N_div ... can be loaded from the outside via the SPI
    /// configuration interface ... at run-time").
    ///
    /// Hardware semantics: the counters keep their values; the new
    /// `θ_div`/`N_div`/policy take effect from the next cycle. If the
    /// FSM has already divided more times than the new `N_div` allows,
    /// the next quiet division boundary shuts the clock down (or
    /// plateaus, per the policy).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate or changes the base
    /// sampling period (the period is a synthesis-time property; only
    /// the division parameters are runtime registers).
    pub fn reconfigure(&mut self, config: &ClockGenConfig) {
        config.validate().expect("reconfigure requires a valid configuration");
        assert_eq!(
            config.base_sampling_period(),
            self.base_period,
            "base sampling period is fixed at synthesis time"
        );
        self.theta_div = config.theta_div;
        self.n_div = config.n_div;
        self.policy = config.policy;
        self.counter_max = config.counter_max();
        // Clamp the in-flight division state into the new envelope so
        // the next boundary decision is well-defined.
        if self.cnt_div > self.n_div {
            self.cnt_div = self.n_div;
        }
        if self.cnt_sample >= self.theta_div {
            self.cnt_sample = self.theta_div - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::QuantizeOutcome;

    fn cfg() -> ClockGenConfig {
        ClockGenConfig::prototype().with_theta_div(8).with_n_div(3)
    }

    #[test]
    fn capture_context_tracks_the_divider_until_the_capturing_tick() {
        let mut fsm = SamplerFsm::new(&cfg());
        assert_eq!(
            fsm.capture_context(),
            CaptureContext {
                division_level: 0,
                multiplier: 1,
                sampling_period: fsm.current_period(),
            }
        );
        // Run past the first division; the context follows the divider.
        for _ in 0..8 {
            fsm.on_tick(false);
        }
        let ctx = fsm.capture_context();
        assert_eq!(ctx.division_level, 1);
        assert_eq!(ctx.multiplier, 2);
        assert_eq!(ctx.sampling_period, fsm.current_period());
        // A capture resets the divider; the pre-tick context is what
        // the captured event ran under.
        fsm.on_tick(true);
        assert_eq!(fsm.capture_context().multiplier, 1);
    }

    #[test]
    fn divides_exactly_every_theta_ticks() {
        let mut fsm = SamplerFsm::new(&cfg());
        let mut division_ticks = Vec::new();
        for tick in 1..=100 {
            match fsm.on_tick(false) {
                FsmAction::Divided { .. } => division_ticks.push(tick),
                FsmAction::ShutDown => {
                    division_ticks.push(tick);
                    break;
                }
                _ => {}
            }
        }
        // θ=8: divide after ticks 8, 16, 24, shutdown after 32.
        assert_eq!(division_ticks, vec![8, 16, 24, 32]);
        assert!(fsm.is_asleep());
    }

    #[test]
    fn counter_tracks_elapsed_time_exactly() {
        let mut fsm = SamplerFsm::new(&cfg());
        let mut elapsed_ticks = 0u64;
        for _ in 0..30 {
            let mult_before = fsm.multiplier();
            fsm.on_tick(false);
            elapsed_ticks += mult_before;
            assert_eq!(fsm.counter(), elapsed_ticks);
        }
    }

    #[test]
    fn sample_resets_everything() {
        let mut fsm = SamplerFsm::new(&cfg());
        for _ in 0..20 {
            fsm.on_tick(false);
        }
        assert!(fsm.multiplier() > 1);
        let action = fsm.on_tick(true);
        let FsmAction::Sampled { timestamp_ticks } = action else {
            panic!("expected Sampled, got {action:?}");
        };
        assert!(timestamp_ticks > 20);
        assert_eq!(fsm.multiplier(), 1);
        assert_eq!(fsm.counter(), 0);
    }

    #[test]
    fn wake_returns_saturated_counter() {
        let mut fsm = SamplerFsm::new(&cfg());
        while !fsm.is_asleep() {
            fsm.on_tick(false);
        }
        // θ·(1+2+4+8) = 8·15 = 120.
        let frozen = fsm.wake();
        assert_eq!(frozen, 120);
        assert!(!fsm.is_asleep());
        assert_eq!(fsm.multiplier(), 1);
    }

    #[test]
    fn counter_clamps_at_width() {
        let config = ClockGenConfig {
            counter_bits: 6, // max 63
            ..cfg()
        };
        let mut fsm = SamplerFsm::new(&config);
        for _ in 0..25 {
            if fsm.is_asleep() {
                break;
            }
            fsm.on_tick(false);
        }
        assert!(fsm.counter() <= 63);
    }

    #[test]
    fn never_policy_never_divides_or_sleeps() {
        let config = cfg().with_policy(DivisionPolicy::Never);
        let mut fsm = SamplerFsm::new(&config);
        for _ in 0..1_000 {
            assert!(matches!(fsm.on_tick(false), FsmAction::Ticked));
        }
        assert_eq!(fsm.multiplier(), 1);
        assert!(!fsm.is_asleep());
    }

    #[test]
    fn divide_only_plateaus() {
        let config = cfg().with_policy(DivisionPolicy::DivideOnly);
        let mut fsm = SamplerFsm::new(&config);
        for _ in 0..1_000 {
            fsm.on_tick(false);
            assert!(!fsm.is_asleep());
        }
        assert_eq!(fsm.multiplier(), 8);
    }

    #[test]
    fn linear_policy_grows_arithmetically() {
        let config = cfg().with_policy(DivisionPolicy::Linear);
        let mut fsm = SamplerFsm::new(&config);
        let mut mults = vec![fsm.multiplier()];
        loop {
            match fsm.on_tick(false) {
                FsmAction::Divided { multiplier } => mults.push(multiplier),
                FsmAction::ShutDown => break,
                _ => {}
            }
        }
        assert_eq!(mults, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reconfigure_applies_new_knobs_live() {
        let mut fsm = SamplerFsm::new(&cfg()); // θ=8, N=3
        for _ in 0..10 {
            fsm.on_tick(false);
        }
        assert_eq!(fsm.multiplier(), 2, "one division after 8 ticks");
        // Host raises θ to 16 and drops N to 1: the FSM is already at
        // cnt_div=1 == new N, so the next boundary shuts down instead
        // of dividing further.
        fsm.reconfigure(&cfg().with_theta_div(16).with_n_div(1));
        let mut shutdowns = 0;
        let mut divisions = 0;
        for _ in 0..40 {
            if fsm.is_asleep() {
                break;
            }
            match fsm.on_tick(false) {
                FsmAction::Divided { .. } => divisions += 1,
                FsmAction::ShutDown => shutdowns += 1,
                _ => {}
            }
        }
        assert_eq!(divisions, 0, "no room left under the new N_div");
        assert_eq!(shutdowns, 1);
    }

    #[test]
    fn reconfigure_counter_keeps_running() {
        let mut fsm = SamplerFsm::new(&cfg());
        for _ in 0..5 {
            fsm.on_tick(false);
        }
        let before = fsm.counter();
        fsm.reconfigure(&cfg().with_theta_div(32));
        fsm.on_tick(false);
        assert_eq!(fsm.counter(), before + fsm.multiplier(), "counter continuity");
    }

    #[test]
    fn force_shutdown_freezes_counter_for_wake() {
        let mut fsm = SamplerFsm::new(&cfg());
        for _ in 0..5 {
            fsm.on_tick(false);
        }
        let frozen = fsm.counter();
        fsm.force_shutdown();
        assert!(fsm.is_asleep());
        fsm.force_shutdown(); // idempotent
        assert_eq!(fsm.wake(), frozen, "wake delivers the frozen counter");
        assert!(!fsm.is_asleep());
    }

    #[test]
    #[should_panic(expected = "synthesis time")]
    fn reconfigure_cannot_change_base_period() {
        let mut fsm = SamplerFsm::new(&cfg());
        let other_ring = ClockGenConfig { prescaler_stages: 3, ..cfg() };
        fsm.reconfigure(&other_ring);
    }

    #[test]
    #[should_panic(expected = "stopped")]
    fn tick_while_asleep_panics() {
        let mut fsm = SamplerFsm::new(&cfg());
        while !fsm.is_asleep() {
            fsm.on_tick(false);
        }
        fsm.on_tick(false);
    }

    /// Per-tick reference for `advance_idle_into`: steps one quiet tick at a
    /// time with the scheduler's exact timing rule (next tick one
    /// *post-action* period after the current one), recording every
    /// action, until the barrier or shutdown.
    fn reference_idle(
        fsm: &mut SamplerFsm,
        first_tick: SimTime,
        barrier: SimTime,
    ) -> (Vec<(SimTime, FsmAction)>, Option<SimTime>) {
        let mut t = first_tick;
        let mut forced = true;
        let mut actions = Vec::new();
        loop {
            if !forced && t >= barrier {
                return (actions, Some(t));
            }
            forced = false;
            let action = fsm.on_tick(false);
            actions.push((t, action));
            if matches!(action, FsmAction::ShutDown) {
                return (actions, None);
            }
            t = t.saturating_add(fsm.current_period());
        }
    }

    /// The batch advance is bit-identical to per-tick stepping: same
    /// final FSM state, same resume time, and segments that cover
    /// exactly the reference's tick/division/shutdown trajectory —
    /// across policies, θ/N knobs, mid-period starting phases and
    /// barrier placements (including a barrier at or before the first
    /// tick, which forces exactly one tick through).
    #[test]
    fn advance_idle_matches_per_tick_stepping() {
        let base = cfg().base_sampling_period();
        for policy in [
            DivisionPolicy::Recursive,
            DivisionPolicy::DivideOnly,
            DivisionPolicy::Never,
            DivisionPolicy::Linear,
        ] {
            for (theta, n_div) in [(2u32, 0u32), (3, 1), (8, 3), (5, 6)] {
                let config = cfg().with_policy(policy).with_theta_div(theta).with_n_div(n_div);
                for pre_ticks in [0u32, 1, 4, 9] {
                    for barrier_ticks in [0u64, 1, 2, 7, 33, 400] {
                        for skew in [SimDuration::ZERO, SimDuration::from_ps(1)] {
                            let mut reference = SamplerFsm::new(&config);
                            for _ in 0..pre_ticks {
                                if reference.is_asleep() {
                                    break;
                                }
                                reference.on_tick(false);
                            }
                            if reference.is_asleep() {
                                continue;
                            }
                            let mut fast = reference.clone();
                            let first = SimTime::from_us(3);
                            let barrier =
                                (first + base.saturating_mul(barrier_ticks)).saturating_add(skew);

                            let (actions, ref_next) =
                                reference_idle(&mut reference, first, barrier);
                            let mut segments = Vec::new();
                            let next_tick = fast.advance_idle_into(first, barrier, &mut segments);

                            let case = format!(
                                "policy {policy:?} θ={theta} N={n_div} \
                                 pre={pre_ticks} barrier={barrier_ticks}+{skew}"
                            );
                            assert_eq!(fast, reference, "final FSM state ({case})");
                            assert_eq!(next_tick, ref_next, "resume time ({case})");
                            let covered: u64 = segments.iter().map(|s| s.ticks).sum();
                            assert_eq!(covered, actions.len() as u64, "tick count ({case})");

                            let mut idx = 0usize;
                            for seg in &segments {
                                assert!(seg.ticks >= 1, "empty segment ({case})");
                                assert_eq!(
                                    seg.first_tick, actions[idx].0,
                                    "segment start ({case})"
                                );
                                let last = idx + seg.ticks as usize - 1;
                                assert_eq!(seg.last_tick, actions[last].0, "segment end ({case})");
                                match seg.boundary {
                                    IdleBoundary::Divided { multiplier } => assert_eq!(
                                        actions[last].1,
                                        FsmAction::Divided { multiplier },
                                        "division boundary ({case})"
                                    ),
                                    IdleBoundary::ShutDown => assert_eq!(
                                        actions[last].1,
                                        FsmAction::ShutDown,
                                        "shutdown boundary ({case})"
                                    ),
                                    IdleBoundary::None => assert_eq!(
                                        actions[last].1,
                                        FsmAction::Ticked,
                                        "quiet boundary ({case})"
                                    ),
                                }
                                // Interior ticks are all plain (a plateau
                                // segment's θ-wraps are `Ticked` too).
                                for (t_i, action) in &actions[idx..last] {
                                    assert_eq!(
                                        *action,
                                        FsmAction::Ticked,
                                        "interior tick at {t_i} ({case})"
                                    );
                                }
                                idx += seg.ticks as usize;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn advance_idle_counter_saturates_like_per_tick() {
        let config = ClockGenConfig { counter_bits: 6, ..cfg() }.with_theta_div(8).with_n_div(3);
        let base = config.base_sampling_period();
        let mut reference = SamplerFsm::new(&config);
        let mut fast = reference.clone();
        let first = SimTime::from_us(1);
        let barrier = first + base.saturating_mul(10_000);
        let (_, ref_next) = reference_idle(&mut reference, first, barrier);
        let next_tick = fast.advance_idle_into(first, barrier, &mut Vec::new());
        assert_eq!(fast, reference);
        assert_eq!(next_tick, ref_next);
        assert_eq!(fast.counter(), 63, "clamped at the 6-bit width");
    }

    #[test]
    #[should_panic(expected = "stopped")]
    fn advance_idle_while_asleep_panics() {
        let mut fsm = SamplerFsm::new(&cfg());
        while !fsm.is_asleep() {
            fsm.on_tick(false);
        }
        fsm.advance_idle_into(SimTime::from_us(1), SimTime::from_us(2), &mut Vec::new());
    }

    /// A walk past the end of the time range is built saturated, without
    /// overflow, and is no chain: the FSM's own walk from time zero does
    /// not shut down before the end of the time range either.
    #[test]
    fn saturated_walk_has_no_chain() {
        let config = cfg().with_theta_div(u32::MAX).with_n_div(20);
        let fsm = SamplerFsm::new(&config);
        let mut segments = Vec::new();
        let resume = fsm.clone().advance_idle_into(SimTime::ZERO, SimTime::MAX, &mut segments);
        let last_tick = segments.last().expect("a walked segment").last_tick;
        assert!(resume.is_some() || last_tick == SimTime::MAX);
        assert!(fsm.idle_chain().is_none());
        let table = SegmentTable::new(&config);
        assert_eq!(table.shutdown(), SimDuration::MAX);
        assert_eq!(table.shutdown_offset(), Some(SimDuration::MAX));
        assert_eq!(table.max_counter(), Some(u64::from(u32::MAX) * ((1 << 21) - 1)));
    }

    /// The table's chain is the FSM's walk from the reset position, for
    /// every shutting-down policy and θ/N knob, and a table built for
    /// another configuration is declined.
    #[test]
    fn idle_chain_is_the_walk_from_reset() {
        for policy in [DivisionPolicy::Recursive, DivisionPolicy::Linear] {
            for (theta, n_div) in [(2u32, 0u32), (3, 1), (8, 3), (5, 6)] {
                let config = cfg().with_policy(policy).with_theta_div(theta).with_n_div(n_div);
                let fsm = SamplerFsm::new(&config);
                let chain = fsm.idle_chain().expect("a shutting-down policy");
                assert_eq!(chain, SegmentTable::new(&config));
                let first = SimTime::from_us(3);
                let mut walked = fsm.clone();
                let mut segments = Vec::new();
                assert_eq!(walked.advance_idle_into(first, SimTime::MAX, &mut segments), None);
                assert_eq!(chain.segments_from(first).collect::<Vec<_>>(), segments);
                let shutdown = segments.last().expect("a shutdown segment").last_tick;
                assert_eq!(first + chain.shutdown(), shutdown);
                assert_eq!(first + chain.first_boundary(), segments[0].last_tick);
                let mut replayed = fsm.clone();
                assert_eq!(replayed.replay_idle_chain(&chain, first, SimTime::MAX), Some(shutdown));
                assert_eq!(replayed, walked);
                let stale = SegmentTable::new(&config.with_theta_div(theta + 1));
                assert_eq!(fsm.clone().replay_idle_chain(&stale, first, SimTime::MAX), None);
            }
        }
    }

    /// Ground-truth equivalence: stepping the FSM tick by tick and
    /// sampling at tick `n` yields exactly the timestamp the segment
    /// table predicts for the corresponding arrival interval.
    #[test]
    fn fsm_matches_segment_table() {
        for policy in [
            DivisionPolicy::Recursive,
            DivisionPolicy::DivideOnly,
            DivisionPolicy::Never,
            DivisionPolicy::Linear,
        ] {
            let config = cfg().with_policy(policy);
            let table = SegmentTable::new(&config);
            let base = config.base_sampling_period();
            // Arrival just after tick k-1, detected at tick k: for each
            // k, run a fresh FSM for k-1 quiet ticks + 1 sampling tick.
            for k in 1..200u64 {
                let mut fsm = SamplerFsm::new(&config);
                let mut quiet = 0u64;
                let mut fsm_ts = None;
                while fsm_ts.is_none() {
                    if fsm.is_asleep() {
                        fsm_ts = Some(fsm.wake());
                        break;
                    }
                    if quiet + 1 == k {
                        match fsm.on_tick(true) {
                            FsmAction::Sampled { timestamp_ticks } => {
                                fsm_ts = Some(timestamp_ticks)
                            }
                            other => panic!("expected Sampled, got {other:?}"),
                        }
                    } else {
                        fsm.on_tick(false);
                        quiet += 1;
                    }
                }
                // The table's prediction for an arrival immediately
                // after tick k-1 (delta = time of tick k-1 + epsilon).
                let prev_offset = match k {
                    1 => aetr_sim::time::SimDuration::ZERO,
                    _ => tick_offset(&table, k - 1),
                };
                let delta = prev_offset + aetr_sim::time::SimDuration::from_ps(1);
                let expected = match table.quantize(delta) {
                    QuantizeOutcome::Sampled { ticks, .. } => ticks,
                    QuantizeOutcome::Asleep { frozen_ticks, .. } => frozen_ticks,
                };
                assert_eq!(
                    fsm_ts.unwrap(),
                    expected,
                    "policy {policy:?}, detection tick {k}, base {base}"
                );
            }
        }
    }

    /// Offset of the `n`-th tick (1-based) according to the table.
    fn tick_offset(table: &SegmentTable, n: u64) -> aetr_sim::time::SimDuration {
        let mut remaining = n;
        for seg in table.segments() {
            if remaining <= seg.ticks {
                return seg.start + table.base_period().saturating_mul(seg.multiplier * remaining);
            }
            remaining -= seg.ticks;
        }
        match table.tail() {
            crate::segments::Tail::Infinite { multiplier } => {
                let start =
                    table.segments().last().map_or(aetr_sim::time::SimDuration::ZERO, |s| s.end);
                start + table.base_period().saturating_mul(multiplier * remaining)
            }
            crate::segments::Tail::Shutdown => {
                // No tick n exists; the FSM is asleep. Return the
                // shutdown offset so the caller's +eps lands in Asleep.
                table.shutdown_offset().unwrap()
            }
        }
    }
}
