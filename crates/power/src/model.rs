//! Block-level power model of the interface.
//!
//! Power on the FPGA decomposes into:
//!
//! * **static** leakage, always present (the paper's 50 µW floor);
//! * **clock-tree + gated-logic dynamic** power, proportional to the
//!   current global clock frequency — this is what recursive division
//!   attacks (`P_clk(m) = P_clk_full / m` at period multiplier `m`,
//!   zero while the ring oscillator sleeps);
//! * **per-event** switching energy (synchroniser, timestamp capture,
//!   FIFO push, I2S serialisation);
//! * **per-wake** transient energy of the oscillator restart.
//!
//! The two calibration anchors come straight from the paper: 50 µW with
//! no input and ≈4.5 mW at a 550 kevt/s spike rate (§5.2 / abstract).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::time::SimDuration;

use crate::units::{Energy, Power};

/// Architectural blocks of the interface (Fig. 3), for per-block power
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Block {
    /// AER front-end: request monitor, synchroniser, address register,
    /// timestamp counter.
    FrontEnd,
    /// Ring oscillator, dividers, sampling FSM.
    ClockGenerator,
    /// The 9.2 kB SRAM FIFO.
    Buffer,
    /// I2S output interface.
    I2s,
    /// SPI configuration bus and register file.
    ConfigBus,
}

impl Block {
    /// All blocks, in display order.
    pub const ALL: [Block; 5] =
        [Block::FrontEnd, Block::ClockGenerator, Block::Buffer, Block::I2s, Block::ConfigBus];
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Block::FrontEnd => "aer-front-end",
            Block::ClockGenerator => "clock-generator",
            Block::Buffer => "aetr-buffer",
            Block::I2s => "i2s-interface",
            Block::ConfigBus => "config-bus",
        };
        f.write_str(s)
    }
}

/// Per-block calibration parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockParams {
    /// Share of the static leakage attributed to this block.
    pub static_fraction: f64,
    /// Share of the full-speed clock-tree/dynamic power attributed to
    /// this block.
    pub clock_fraction: f64,
    /// Switching energy this block spends per event.
    pub event_energy: Energy,
}

/// Clock activity summary consumed by the power model: the one record
/// of clock activity, produced by a [`PowerMeter`](crate::meter::PowerMeter)
/// on both power paths (the DES interface and the behavioural sampling
/// engine each narrate to one). A plain data type, so this crate stays
/// independent of both.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityInput {
    /// `(period multiplier, time spent)` at each clock division level.
    pub active: Vec<(u64, SimDuration)>,
    /// Time with the clock switched off.
    pub off: SimDuration,
    /// Ring-oscillator restarts.
    pub wake_count: u64,
    /// Events processed.
    pub event_count: u64,
}

impl ActivityInput {
    /// Total wall-clock span covered by this activity record.
    pub fn span(&self) -> SimDuration {
        self.active.iter().map(|&(_, d)| d).sum::<SimDuration>() + self.off
    }
}

/// The calibrated power model.
///
/// # Examples
///
/// ```
/// use aetr_power::model::{ActivityInput, PowerModel};
/// use aetr_sim::time::SimDuration;
///
/// let model = PowerModel::igloo_nano();
/// // Full-speed clock for 1 s, no events: the naïve baseline's power.
/// let activity = ActivityInput {
///     active: vec![(1, SimDuration::from_secs(1))],
///     ..ActivityInput::default()
/// };
/// let report = model.evaluate(&activity);
/// assert!((report.total.as_milliwatts() - 4.4).abs() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Total static leakage.
    pub static_power: Power,
    /// Dynamic power with the clock at full speed (multiplier 1).
    pub clock_power_full: Power,
    /// Energy per ring-oscillator restart transient.
    pub wake_energy: Energy,
    /// Per-block parameter table.
    pub blocks: BTreeMap<Block, BlockParams>,
}

impl PowerModel {
    /// The model calibrated to the paper's IGLOO nano AGLN250
    /// measurements: 50 µW static, ≈4.5 mW total at 550 kevt/s
    /// (≈4.35 mW full-speed clock power + ≈180 pJ/event).
    pub fn igloo_nano() -> PowerModel {
        let mut blocks = BTreeMap::new();
        blocks.insert(
            Block::FrontEnd,
            BlockParams {
                static_fraction: 0.15,
                clock_fraction: 0.25,
                event_energy: Energy::from_picojoules(60.0),
            },
        );
        blocks.insert(
            Block::ClockGenerator,
            BlockParams {
                static_fraction: 0.20,
                clock_fraction: 0.35,
                event_energy: Energy::from_picojoules(10.0),
            },
        );
        blocks.insert(
            Block::Buffer,
            BlockParams {
                static_fraction: 0.40,
                clock_fraction: 0.20,
                event_energy: Energy::from_picojoules(70.0),
            },
        );
        blocks.insert(
            Block::I2s,
            BlockParams {
                static_fraction: 0.15,
                clock_fraction: 0.15,
                event_energy: Energy::from_picojoules(35.0),
            },
        );
        blocks.insert(
            Block::ConfigBus,
            BlockParams {
                static_fraction: 0.10,
                clock_fraction: 0.05,
                event_energy: Energy::from_picojoules(5.0),
            },
        );
        PowerModel {
            static_power: Power::from_microwatts(50.0),
            clock_power_full: Power::from_milliwatts(4.35),
            wake_energy: Energy::from_picojoules(250.0),
            blocks,
        }
    }

    /// Total per-event energy across blocks.
    pub fn event_energy(&self) -> Energy {
        self.blocks.values().map(|b| b.event_energy).sum()
    }

    /// Instantaneous power draw in a given clock state.
    ///
    /// `multiplier` is the current period multiplier of the sampling
    /// clock — `None` while the ring oscillator is off (sleep), where
    /// only static leakage remains; `Some(m)` contributes the
    /// frequency-proportional clock-tree power `P_clk_full / m`.
    /// Per-event and per-wake energies are impulses, not sustained
    /// draw, so they are excluded; this is the quantity the telemetry
    /// live sampler reports between events.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)` — a zero multiplier is not a clock state.
    pub fn instantaneous_power(&self, multiplier: Option<u64>) -> Power {
        match multiplier {
            None => self.static_power,
            Some(m) => {
                assert!(m > 0, "period multiplier must be positive");
                self.static_power + self.clock_power_full / m as f64
            }
        }
    }

    /// Evaluates average power and energy over an activity record.
    ///
    /// # Panics
    ///
    /// Panics if the activity record covers a zero span.
    pub fn evaluate(&self, activity: &ActivityInput) -> PowerReport {
        let span = activity.span();
        assert!(!span.is_zero(), "activity record covers no time");

        // Clock-tree/dynamic energy: frequency-proportional, so at
        // period multiplier m the power is P_full / m.
        let clock_energy: Energy =
            activity.active.iter().map(|&(m, d)| (self.clock_power_full / m as f64) * d).sum();
        let static_energy = self.static_power * span;
        let event_energy = self.event_energy() * activity.event_count as f64;
        let wake_energy = self.wake_energy * activity.wake_count as f64;

        let total_energy = static_energy + clock_energy + event_energy + wake_energy;
        let total = total_energy.over(span);

        let per_block = Block::ALL
            .iter()
            .map(|&b| {
                let p = &self.blocks[&b];
                let e = self.static_power * span * p.static_fraction
                    + clock_energy * p.clock_fraction
                    + p.event_energy * activity.event_count as f64
                    + if b == Block::ClockGenerator { wake_energy } else { Energy::ZERO };
                (b, e.over(span))
            })
            .collect();

        PowerReport {
            span,
            total,
            static_power: self.static_power,
            clock_power: clock_energy.over(span),
            event_power: (event_energy + wake_energy).over(span),
            total_energy,
            per_block,
        }
    }

    /// Validates that the per-block fractions sum to one.
    ///
    /// # Errors
    ///
    /// Returns the offending sums as `(static_sum, clock_sum)`.
    pub fn validate(&self) -> Result<(), (f64, f64)> {
        let s: f64 = self.blocks.values().map(|b| b.static_fraction).sum();
        let c: f64 = self.blocks.values().map(|b| b.clock_fraction).sum();
        if (s - 1.0).abs() < 1e-9 && (c - 1.0).abs() < 1e-9 {
            Ok(())
        } else {
            Err((s, c))
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::igloo_nano()
    }
}

/// Power evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Wall-clock span evaluated.
    pub span: SimDuration,
    /// Average total power.
    pub total: Power,
    /// Static component.
    pub static_power: Power,
    /// Average clock-tree/dynamic component.
    pub clock_power: Power,
    /// Average event + wake component.
    pub event_power: Power,
    /// Total energy consumed over the span.
    pub total_energy: Energy,
    /// Average power attributed to each block.
    pub per_block: Vec<(Block, Power)>,
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total {} over {} (static {}, clock {}, events {})",
            self.total, self.span, self.static_power, self.clock_power, self.event_power
        )?;
        for (b, p) in &self.per_block {
            writeln!(f, "  {b:<16} {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_speed(span: SimDuration) -> ActivityInput {
        ActivityInput { active: vec![(1, span)], ..ActivityInput::default() }
    }

    #[test]
    fn calibration_fractions_sum_to_one() {
        PowerModel::igloo_nano().validate().unwrap();
    }

    #[test]
    fn idle_clock_off_hits_static_floor() {
        let model = PowerModel::igloo_nano();
        let activity = ActivityInput { off: SimDuration::from_secs(1), ..ActivityInput::default() };
        let report = model.evaluate(&activity);
        assert!((report.total.as_microwatts() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn full_speed_clock_matches_naive_baseline() {
        let model = PowerModel::igloo_nano();
        let report = model.evaluate(&full_speed(SimDuration::from_secs(1)));
        assert!((report.total.as_milliwatts() - 4.4).abs() < 0.05, "total {}", report.total);
    }

    #[test]
    fn noisy_environment_anchor_550kevts() {
        // 550 kevt/s with the clock pinned at full speed: the paper's
        // 4.5 mW anchor.
        let model = PowerModel::igloo_nano();
        let activity = ActivityInput {
            active: vec![(1, SimDuration::from_secs(1))],
            event_count: 550_000,
            ..ActivityInput::default()
        };
        let report = model.evaluate(&activity);
        let mw = report.total.as_milliwatts();
        assert!((4.3..=4.7).contains(&mw), "550 kevt/s power {mw} mW");
    }

    #[test]
    fn divided_clock_scales_power_down() {
        let model = PowerModel::igloo_nano();
        let full = model.evaluate(&full_speed(SimDuration::from_secs(1))).total;
        let div8 = model
            .evaluate(&ActivityInput {
                active: vec![(8, SimDuration::from_secs(1))],
                ..ActivityInput::default()
            })
            .total;
        // Dynamic component shrinks 8x; static stays.
        let expected = (full - model.static_power) / 8.0 + model.static_power;
        assert!(
            (div8.as_microwatts() - expected.as_microwatts()).abs() < 1.0,
            "div8 {div8} vs expected {expected}"
        );
    }

    #[test]
    fn per_block_powers_sum_to_total() {
        let model = PowerModel::igloo_nano();
        let activity = ActivityInput {
            active: vec![(1, SimDuration::from_ms(500)), (4, SimDuration::from_ms(300))],
            off: SimDuration::from_ms(200),
            wake_count: 10,
            event_count: 1_000,
        };
        let report = model.evaluate(&activity);
        let sum: Power = report.per_block.iter().map(|&(_, p)| p).sum();
        assert!(
            (sum.as_microwatts() - report.total.as_microwatts()).abs()
                < report.total.as_microwatts() * 1e-9,
            "blocks {} vs total {}",
            sum,
            report.total
        );
    }

    #[test]
    fn event_energy_adds_linear_term() {
        let model = PowerModel::igloo_nano();
        let span = SimDuration::from_secs(1);
        let base = model.evaluate(&full_speed(span)).total;
        let mut with_events = full_speed(span);
        with_events.event_count = 100_000;
        let loaded = model.evaluate(&with_events).total;
        let delta = loaded - base;
        let expected = model.event_energy() * 100_000.0;
        assert!(
            (delta.as_microwatts() - expected.over(span).as_microwatts()).abs() < 1e-6,
            "delta {delta}"
        );
    }

    #[test]
    fn display_contains_block_names() {
        let model = PowerModel::igloo_nano();
        let text = model.evaluate(&full_speed(SimDuration::from_ms(1))).to_string();
        assert!(text.contains("aer-front-end"));
        assert!(text.contains("clock-generator"));
    }

    #[test]
    #[should_panic(expected = "covers no time")]
    fn empty_activity_panics() {
        let _ = PowerModel::igloo_nano().evaluate(&ActivityInput::default());
    }
}
