//! Differential pinning of the analytic idle fast-forward: for
//! arbitrary clock configurations (including never-stopping policies),
//! fault plans (scheduled mid-idle oscillator stalls plus stochastic
//! protocol faults) and spike trains, the event-proportional engine's
//! [`InterfaceReport`] is **bit-identical** to the per-tick reference —
//! events, timestamps, handshakes, FIFO statistics, I2S stream,
//! activity residency, power, wakes, health counters, and the full
//! telemetry snapshot (metrics, clock-state spans, live samples; only
//! the wall-clock profile, excluded from snapshot equality, may
//! differ).
//!
//! The post-capture chain template (the configuration's
//! `SegmentTable`, from `SamplerFsm::idle_chain`) is pinned here too:
//! its O(1) replay against `advance_idle_into` at the FSM level (state,
//! segments, power-meter activity, resume time), and whole runs in
//! which an SPI write and the degraded-mode fallback replace the
//! template mid-run.
//!
//! The case count defaults to a CI-friendly 48 and is raised on the
//! nightly schedule via `AETR_PROPTEST_CASES` (see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;

use aetr::config_bus::Register;
use aetr::interface::{AerToI2sInterface, InterfaceConfig, SimEngine, TelemetryConfig};
use aetr_aer::address::Address;
use aetr_aer::generator::{LfsrGenerator, SpikeSource};
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::fsm::{IdleBoundary, IdleSegment, SamplerFsm};
use aetr_faults::{FaultKind, FaultPlan, FaultRates};
use aetr_power::meter::PowerMeter;
use aetr_sim::time::{SimDuration, SimTime};

fn cases() -> u32 {
    std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

fn arbitrary_train() -> impl Strategy<Value = SpikeTrain> {
    // Up to 40 events with gaps from sub-tick to multi-millisecond, so
    // runs cross sampling, division, shutdown, wake and — with sparse
    // tails — long fast-forwardable silences.
    proptest::collection::vec((1u64..2_000_000_000, 0u16..1024), 0..40).prop_map(|gaps| {
        let mut t = SimTime::ZERO;
        let spikes = gaps
            .into_iter()
            .map(|(gap_ps, addr)| {
                t += SimDuration::from_ps(gap_ps);
                Spike::new(t, Address::new(addr).expect("range-bounded"))
            })
            .collect();
        SpikeTrain::from_sorted(spikes).expect("cumulative times are sorted")
    })
}

/// All four policies — `Never` and the `DivideOnly` plateau never shut
/// the clock down, so their tick chains are unbounded and the
/// fast-forward barrier logic carries the whole horizon.
fn any_policy() -> impl Strategy<Value = DivisionPolicy> {
    prop_oneof![
        Just(DivisionPolicy::Recursive),
        Just(DivisionPolicy::DivideOnly),
        Just(DivisionPolicy::Never),
        Just(DivisionPolicy::Linear),
    ]
}

fn interface(cfg: InterfaceConfig, engine: SimEngine) -> AerToI2sInterface {
    AerToI2sInterface::new(cfg).expect("validated configuration").with_engine(engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn reports_are_bit_identical_across_engines(
        train in arbitrary_train(),
        theta in 2u32..64,
        n_div in 0u32..7,
        policy in any_policy(),
        seed in 0u64..1024,
        fault_at_us in 1u64..5_000,
        rate_idx in 0usize..3,
    ) {
        let cfg = InterfaceConfig {
            clock: ClockGenConfig::prototype()
                .with_theta_div(theta)
                .with_n_div(n_div)
                .with_policy(policy),
            ..InterfaceConfig::prototype()
        };
        // A mid-idle oscillator stall plus (sometimes) stochastic
        // protocol faults: the injector's RNG draws happen on real
        // events only, so both engines must consume identical streams.
        let plan = FaultPlan::nominal(seed)
            .with_rates(FaultRates::protocol([0.0, 0.01, 0.05][rate_idx]))
            .schedule(SimTime::from_us(fault_at_us), FaultKind::StuckOscillator);
        // Lineage on: fast-forwarded idle stretches must synthesize the
        // same per-event records per-tick stepping produces.
        let tel = TelemetryConfig {
            enabled: true,
            sample_cadence: Some(SimDuration::from_us(100)),
            lineage: true,
        };
        let horizon = SimTime::from_ms(6);
        let fast = interface(cfg, SimEngine::EventProportional)
            .run_with_telemetry(&train, horizon, &plan, &tel);
        let reference = interface(cfg, SimEngine::PerTickReference)
            .run_with_telemetry(&train, horizon, &plan, &tel);
        // Explicit lineage-record equality first (sharper diagnostics
        // than whole-report inequality), then the full report.
        prop_assert_eq!(
            fast.telemetry.lineage.records(),
            reference.telemetry.lineage.records()
        );
        prop_assert_eq!(fast.telemetry.lineage.len(), fast.events.len());
        prop_assert_eq!(fast, reference);
    }

    /// Mid-idle SPI writes retarget θ_div/N_div while the fast-forward
    /// path is mid-silence; the resumed tick chain must pick up the new
    /// parameters at exactly the per-tick instant.
    #[test]
    fn reconfigured_runs_are_bit_identical_across_engines(
        train in arbitrary_train(),
        policy in any_policy(),
        write_at_us in 1u64..4_000,
        new_n_div in 0u32..12,
        new_theta in 2u32..200,
    ) {
        let cfg = InterfaceConfig {
            clock: ClockGenConfig::prototype().with_policy(policy),
            ..InterfaceConfig::prototype()
        };
        let at = SimTime::from_us(write_at_us);
        let writes = [
            (at, Register::NDiv, new_n_div),
            (at + SimDuration::from_us(700), Register::ThetaDiv, new_theta),
        ];
        let horizon = SimTime::from_ms(5);
        let fast = interface(cfg, SimEngine::EventProportional)
            .run_with_reconfig(&train, horizon, &writes);
        let reference = interface(cfg, SimEngine::PerTickReference)
            .run_with_reconfig(&train, horizon, &writes);
        prop_assert_eq!(fast, reference);
    }
}

/// The power-meter record of an idle advance, narrated segment by
/// segment as the runner's segment-wise path does, from a meter that
/// has run at multiplier 1 since time zero.
fn meter_per_segment(segments: &[IdleSegment]) -> PowerMeter {
    let mut meter = PowerMeter::new(SimTime::ZERO);
    meter.clock_multiplier(SimTime::ZERO, 1);
    for seg in segments {
        match seg.boundary {
            IdleBoundary::None => {}
            IdleBoundary::Divided { multiplier } => {
                meter.clock_multiplier(seg.last_tick, multiplier)
            }
            IdleBoundary::ShutDown => meter.clock_off(seg.last_tick),
        }
    }
    meter
}

/// An FSM under `cfg` at the reset divider position with its counter
/// at `min(laps · θ_div, counter_max)`: `laps` full periods of the
/// never-dividing policy wrap `cnt_sample` back to zero, and a
/// reconfiguration then installs `cfg` without touching the counter.
fn fsm_at_reset_with_counter(cfg: &ClockGenConfig, laps: u64) -> SamplerFsm {
    let mut fsm = SamplerFsm::new(&cfg.with_policy(DivisionPolicy::Never));
    for _ in 0..laps * u64::from(cfg.theta_div) {
        fsm.on_tick(false);
    }
    fsm.reconfigure(cfg);
    fsm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Replaying the precomputed chain is `advance_idle_into` whenever
    /// it applies — same FSM state (counter clamps included), segments,
    /// meter activity and resume time — and it declines, leaving the FSM
    /// untouched, exactly when the FSM is off the chain's start, the
    /// barrier is at or before the shutdown tick, or the shifted chain
    /// would overflow the time range.
    #[test]
    fn chain_replay_matches_advance_idle(
        theta in 2u32..200,
        n_div in 0u32..21,
        policy_idx in 0usize..6,
        (stage_delay_ps, prescaler, counter_bits) in (1u64..2_000, 0u32..9, 4u32..33),
        (laps, pre_ticks) in (0u64..64, 0u64..400),
        (first_ps, barrier_kind, barrier_frac) in (0u64..1 << 50, 0usize..7, 0u64..1_000),
    ) {
        // Mostly the shutting-down policies: the others have no chain.
        let policy = [
            DivisionPolicy::Recursive,
            DivisionPolicy::Linear,
            DivisionPolicy::Recursive,
            DivisionPolicy::Linear,
            DivisionPolicy::DivideOnly,
            DivisionPolicy::Never,
        ][policy_idx];
        let mut ring = ClockGenConfig::prototype().ring;
        ring.stage_delay = SimDuration::from_ps(stage_delay_ps);
        let cfg = ClockGenConfig {
            ring,
            prescaler_stages: prescaler,
            counter_bits,
            ..ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n_div).with_policy(policy)
        };
        let mut fsm = fsm_at_reset_with_counter(&cfg, laps);
        // A quarter of the cases start off the chain's start, short of
        // shutdown.
        let off_start = if pre_ticks < 300 {
            0
        } else {
            (pre_ticks - 300) % (u64::from(theta) * u64::from(n_div + 1))
        };
        for _ in 0..off_start {
            fsm.on_tick(false);
        }

        let Some(chain) = fsm.idle_chain() else {
            prop_assert!(
                matches!(policy, DivisionPolicy::Never | DivisionPolicy::DivideOnly),
                "a shutting-down policy has a chain"
            );
            return Ok(());
        };
        let first = match barrier_kind {
            // Near the end of the time range: the shifted chain overflows.
            6 => SimTime::from_ps(u64::MAX - chain.shutdown().as_ps() / 2),
            _ => SimTime::from_ps(first_ps),
        };
        let shutdown = first.checked_add(chain.shutdown());
        let at_shutdown = shutdown.unwrap_or(SimTime::MAX);
        let barrier = match barrier_kind {
            0 => first.saturating_add(chain.shutdown() * barrier_frac / 1_000),
            1 => at_shutdown,
            2 => at_shutdown.saturating_add(SimDuration::from_ps(1)),
            3 => at_shutdown.saturating_add(chain.shutdown() * barrier_frac),
            4 => SimTime::from_ps(first_ps / 2),
            _ => SimTime::MAX,
        };

        let mut replayed = fsm.clone();
        let mut reference = fsm.clone();
        let mut segments = Vec::new();
        let resume = reference.advance_idle_into(first, barrier, &mut segments);
        let applies = off_start == 0 && shutdown.is_some_and(|s| s < barrier);
        match replayed.replay_idle_chain(&chain, first, barrier) {
            Some(s) => {
                prop_assert!(applies, "replayed off its preconditions");
                prop_assert_eq!(Some(s), shutdown);
                prop_assert_eq!(resume, None, "the reference shut down too");
                prop_assert_eq!(&replayed, &reference);
                let shifted: Vec<IdleSegment> = chain.segments_from(first).collect();
                prop_assert_eq!(&shifted, &segments);
                let mut meter = PowerMeter::new(SimTime::ZERO);
                meter.clock_multiplier(SimTime::ZERO, 1);
                meter.clock_levels_then_off(first + chain.first_boundary(), chain.levels());
                let end = s.saturating_add(SimDuration::from_ns(1));
                prop_assert_eq!(meter.finish(end), meter_per_segment(&segments).finish(end));
            }
            None => {
                prop_assert!(!applies, "declined a chain that applies");
                prop_assert_eq!(&replayed, &fsm, "a declined replay changes nothing");
            }
        }
    }
}

/// Sparse, multi-rate stimulus: 10 ms each at 1 kevt/s, 100 evt/s and
/// 10 kevt/s, so most chains run to shutdown and some are cut short by
/// the next request.
fn chain_test_train() -> SpikeTrain {
    let mut spikes = Vec::new();
    for (i, rate) in [1_000.0, 100.0, 10_000.0].into_iter().enumerate() {
        let offset = SimDuration::from_ms(10) * i as u64;
        let part = LfsrGenerator::new(rate, 77 + i as u32).generate(SimTime::from_ms(10));
        spikes.extend(part.iter().map(|s| Spike::new(s.time + offset, s.addr)));
    }
    SpikeTrain::from_sorted(spikes).expect("parts are consecutive")
}

/// θ_div/N_div writes mid-run replace the chain template: isolated
/// events after each write shut down on the new schedule, under both
/// engines alike, whatever policy the writes land on.
#[test]
fn spi_writes_replace_the_chain_template() {
    let train = chain_test_train();
    let horizon = SimTime::from_ms(32);
    for policy in [DivisionPolicy::Recursive, DivisionPolicy::Linear, DivisionPolicy::DivideOnly] {
        let cfg = InterfaceConfig {
            clock: ClockGenConfig::prototype().with_policy(policy),
            ..InterfaceConfig::prototype()
        };
        let writes = [
            (SimTime::from_ms(7), Register::ThetaDiv, 17),
            (SimTime::from_ms(14), Register::NDiv, 6),
            (SimTime::from_ms(24) + SimDuration::from_ps(3), Register::NDiv, 0),
        ];
        let fast = interface(cfg, SimEngine::EventProportional)
            .run_with_reconfig(&train, horizon, &writes);
        let reference =
            interface(cfg, SimEngine::PerTickReference).run_with_reconfig(&train, horizon, &writes);
        assert_eq!(fast.events.len(), train.len());
        assert_eq!(fast, reference, "policy {policy:?}");
    }
}

/// The degraded-mode fallback (wakes failing until the watchdog forces
/// the clock on) leaves no chain template: the clock never sleeps
/// again, and both engines agree before and after, telemetry included.
#[test]
fn degraded_fallback_drops_the_chain_template() {
    let train = chain_test_train();
    let horizon = SimTime::from_ms(32);
    let tel = TelemetryConfig {
        enabled: true,
        sample_cadence: Some(SimDuration::from_us(250)),
        lineage: true,
    };
    for (seed, wake_failure) in [(3u64, 0.6), (11, 0.9)] {
        let plan = FaultPlan::nominal(seed)
            .with_rates(FaultRates { wake_failure, ..FaultRates::default() });
        let fast = interface(InterfaceConfig::prototype(), SimEngine::EventProportional)
            .run_with_telemetry(&train, horizon, &plan, &tel);
        let reference = interface(InterfaceConfig::prototype(), SimEngine::PerTickReference)
            .run_with_telemetry(&train, horizon, &plan, &tel);
        assert!(fast.health.degraded, "seed {seed}: the watchdog fell back");
        assert_eq!(fast, reference, "seed {seed}");
    }
}
