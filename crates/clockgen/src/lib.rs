//! # aetr-clockgen — pausable, recursively divided clock generation
//!
//! The paper's key power mechanism: a [ring oscillator](ring) that can
//! be paused by breaking its inverter loop, a [`divider`]
//! cascade producing the 30 MHz reference, and the Fig. 1 sampling
//! [FSM](fsm) that doubles the sampling period every `θ_div` quiet
//! cycles and stops the clock entirely after `N_div` divisions.
//!
//! Two execution models are provided, with property-tested
//! equivalence:
//!
//! * [`fsm::SamplerFsm`] — cycle-accurate, used by the full-interface
//!   DES and the [waveform recorder](schedule) (Fig. 2);
//! * [`engine::SamplingEngine`] over a precomputed
//!   [`segments::SegmentTable`] — O(events), used for the Fig. 6/8
//!   sweeps.
//!
//! Both narrate the clock's activity to one
//! [`PowerMeter`](aetr_power::meter::PowerMeter), so both power paths
//! produce the same [`ActivityInput`](aetr_power::model::ActivityInput)
//! record: the engine walks the table's segments between events, the
//! DES interface its FSM's transitions.
//!
//! The [`segments::SegmentTable`] is the one encoding of the division
//! schedule. Besides quantizing intervals, it is the post-capture quiet
//! walk to shutdown that the DES fast-forward replays in O(1)
//! ([`fsm::SamplerFsm::idle_chain`],
//! [`fsm::SamplerFsm::replay_idle_chain`]), and its
//! [`levels`](segments::SegmentTable::levels) feed the power meter.
//!
//! # Examples
//!
//! Quantize an inter-event interval with the prototype configuration:
//!
//! ```
//! use aetr_clockgen::config::ClockGenConfig;
//! use aetr_clockgen::engine::SamplingEngine;
//! use aetr_sim::time::SimTime;
//!
//! let config = ClockGenConfig::prototype(); // θ=64, N=3, 30 MHz ref
//! let mut engine = SamplingEngine::new(&config);
//! let event = engine.process(SimTime::from_us(20));
//! let measured = event.measured_interval(engine.base_period());
//! // ~20 µs measured with < 3% error in the active region.
//! let err = (measured.as_secs_f64() - 20e-6).abs() / 20e-6;
//! assert!(err < 0.03);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod divider;
pub mod engine;
pub mod fsm;
pub mod jitter;
pub mod ring;
pub mod schedule;
pub mod segments;
pub mod trim;

pub use config::{ClockGenConfig, DivisionPolicy};
pub use engine::{QuantizedEvent, SamplingEngine};
pub use fsm::{IdleBoundary, IdleSegment, SamplerFsm};
pub use ring::RingOscillatorConfig;
pub use segments::SegmentTable;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use aetr_sim::time::{SimDuration, SimTime};

    use crate::config::{ClockGenConfig, DivisionPolicy};
    use crate::engine::SamplingEngine;
    use crate::segments::{QuantizeOutcome, SegmentTable};

    fn any_policy() -> impl Strategy<Value = DivisionPolicy> {
        prop_oneof![
            Just(DivisionPolicy::Recursive),
            Just(DivisionPolicy::DivideOnly),
            Just(DivisionPolicy::Never),
            Just(DivisionPolicy::Linear),
        ]
    }

    proptest! {
        /// Quantization never under-estimates a running-clock interval:
        /// the detecting tick is at or after the request, and the
        /// counter equals the detection offset exactly.
        #[test]
        fn quantize_is_conservative(
            theta in 2u32..200,
            n_div in 0u32..10,
            policy in any_policy(),
            delta_ps in 1u64..10_000_000_000u64,
        ) {
            let cfg = ClockGenConfig::prototype()
                .with_theta_div(theta)
                .with_n_div(n_div)
                .with_policy(policy);
            let table = SegmentTable::new(&cfg);
            match table.quantize(SimDuration::from_ps(delta_ps)) {
                QuantizeOutcome::Sampled { detection_offset, ticks } => {
                    prop_assert!(detection_offset >= SimDuration::from_ps(delta_ps));
                    prop_assert_eq!(detection_offset / table.base_period(), ticks);
                    prop_assert_eq!(
                        detection_offset.as_ps() % table.base_period().as_ps(), 0,
                        "ticks land on the T_min grid");
                }
                QuantizeOutcome::Asleep { frozen_ticks, off_since } => {
                    prop_assert!(SimDuration::from_ps(delta_ps) > off_since);
                    prop_assert_eq!(Some(frozen_ticks), table.max_counter());
                }
            }
        }

        /// Detection times strictly increase across any request stream
        /// (AER serialisation), and timestamps are never zero.
        #[test]
        fn detections_strictly_increase(
            gaps in proptest::collection::vec(0u64..50_000_000u64, 1..100),
            theta in 2u32..100,
        ) {
            let cfg = ClockGenConfig::prototype().with_theta_div(theta);
            let mut engine = SamplingEngine::new(&cfg);
            let mut t = SimTime::ZERO;
            let mut last_detection = SimTime::ZERO;
            for g in gaps {
                t += SimDuration::from_ps(g);
                let ev = engine.process(t);
                prop_assert!(ev.detection > last_detection);
                prop_assert!(ev.timestamp_ticks >= 1);
                last_detection = ev.detection;
            }
        }

        /// Activity accounting is exact: active + off time equals the
        /// horizon for an idle stretch.
        #[test]
        fn idle_usage_is_exact(
            until_ps in 1u64..100_000_000_000u64,
            theta in 2u32..100,
            n in 0u32..8,
        ) {
            let cfg = ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n);
            let activity = SamplingEngine::new(&cfg).finish(SimTime::from_ps(until_ps));
            prop_assert_eq!(activity.span(), SimDuration::from_ps(until_ps));
        }

        /// The detection overshoot is bounded by the slowest segment's
        /// period — the quantization-error envelope behind Fig. 6.
        #[test]
        fn quantization_error_bounded_by_local_period(delta_ps in 100_000u64..500_000_000u64) {
            let cfg = ClockGenConfig::prototype();
            let table = SegmentTable::new(&cfg);
            let delta = SimDuration::from_ps(delta_ps);
            if let QuantizeOutcome::Sampled { detection_offset, .. } = table.quantize(delta) {
                let overshoot = detection_offset - delta;
                let max_step = table.base_period() * (1 << cfg.n_div);
                prop_assert!(overshoot <= max_step);
            }
        }
    }
}
