//! Per-operation correctness checks and output digests.
//!
//! Every check counts one attempted operation and, when it does not
//! hold, one failed operation. The checks are pure functions of the
//! program's outputs, so the benchmark's tests can feed them
//! deliberately corrupted reports.

use aetr::campaign::CampaignResult;
use aetr::interface::InterfaceReport;
use aetr::mcu::McuReceiver;
use aetr_faults::InterfaceHealthReport;
use aetr_sim::time::SimDuration;
use aetr_telemetry::lineage::ErrorBudget;

/// Failed operations counted against operations attempted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check did not hold.
    pub failed: u64,
    /// Names of the first few failed checks.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub fn record(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what.to_owned());
            }
        }
    }

    /// Adds another tally to this one.
    pub fn merge(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < 16 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// A fault-free run: the handshake log obeys the 4-phase protocol, the
/// MCU decodes exactly the events the FIFO popped (the captured events
/// themselves, in order, when nothing was dropped), and no fault or
/// recovery counter moved.
pub fn check_fault_free_run(report: &InterfaceReport, mcu: &McuReceiver, checks: &mut Checks) {
    checks.record("handshake.verify_protocol", report.handshake.verify_protocol().is_ok());
    let decoded = mcu.decode(&report.i2s);
    let same_count = decoded.len() as u64 == report.fifo_stats.popped;
    let same_events = report.fifo_stats.dropped != 0
        || (decoded.len() <= report.events.len()
            && decoded.iter().zip(&report.events).all(|(d, e)| *d == e.event));
    checks.record("mcu.decodes_fifo_pops", same_count && same_events);
    checks.record("health.nominal", report.health.is_nominal());
}

/// A fault-free lineage run: the error-budget buckets sum to the
/// budget total, which telescopes to the measured total
/// `Σ timestamp·T_min − last arrival` read from the report's own
/// events (not from the lineage records), and no clean event breaks the
/// analytic alignment bound.
pub fn check_error_budget(
    report: &InterfaceReport,
    budget: &ErrorBudget,
    t_min: SimDuration,
    sync_stages: u32,
    checks: &mut Checks,
) {
    let measured: i128 = report
        .events
        .iter()
        .map(|e| i128::from(e.event.timestamp.ticks()) * i128::from(t_min.as_ps()))
        .sum();
    let last_arrival = report.events.last().map_or(0, |e| i128::from(e.request.as_ps()));
    checks.record(
        "lineage.budget_telescopes",
        budget.causes.total_ps() == budget.total_error_ps
            && budget.total_error_ps == measured - last_arrival
            && budget.rows.len() == report.events.len(),
    );
    checks.record("lineage.no_bound_violations", budget.bound_violations(sync_stages).is_empty());
}

/// The per-tick reference engine reproduced the default engine's report
/// exactly.
pub fn check_engines_agree(
    default: &InterfaceReport,
    reference: &InterfaceReport,
    checks: &mut Checks,
) {
    checks.record("engine.per_tick_reference_agrees", default == reference);
}

/// `par_map` returned every job's output in input order: the per-job
/// digests equal those of a sequential loop.
pub fn check_same_order(parallel: &[u64], sequential: &[u64], checks: &mut Checks) {
    checks.record("parallel.sequential_order", parallel == sequential);
}

/// Digest of a run's simulated outputs, split by kind so a mismatch
/// names what changed. A pure speed-up must leave it bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigest {
    /// Captured events: request, detection, address, timestamp.
    pub events: u64,
    /// Transmitted I2S frames: start, left and right words.
    pub i2s: u64,
    /// Average power and wake count.
    pub power: u64,
    /// Fault and recovery counters.
    pub health: u64,
}

const SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn mix(h: u64, x: u64) -> u64 {
    let h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

fn health_digest(h: u64, health: &InterfaceHealthReport) -> u64 {
    let h = health.metrics().iter().fold(h, |h, &(_, v)| mix(h, v));
    mix(h, u64::from(health.degraded))
}

impl Default for OutputDigest {
    fn default() -> OutputDigest {
        OutputDigest { events: SEED, i2s: SEED, power: SEED, health: SEED }
    }
}

impl OutputDigest {
    /// Folds one interface run into the digest (order matters).
    pub fn add_report(&mut self, r: &InterfaceReport) {
        for e in &r.events {
            self.events = mix(self.events, e.request.as_ps());
            self.events = mix(self.events, e.detection.as_ps());
            self.events = mix(
                self.events,
                u64::from(e.event.addr.value()) << 32 | u64::from(e.event.timestamp.ticks()),
            );
        }
        self.events = mix(self.events, r.events.len() as u64);
        for f in r.i2s.frames() {
            self.i2s = mix(self.i2s, f.start.as_ps());
            self.i2s = mix(self.i2s, u64::from(f.left) << 32 | u64::from(f.right));
        }
        self.i2s = mix(self.i2s, r.i2s.len() as u64);
        self.power = mix(self.power, r.power.total.as_microwatts().to_bits());
        self.power = mix(self.power, r.wake_count);
        self.health = health_digest(self.health, &r.health);
    }

    /// Folds a fault campaign's result (per-point fidelity, power and
    /// health; campaigns return no event or I2S data).
    pub fn add_campaign(&mut self, c: &CampaignResult) {
        self.events = mix(self.events, c.baseline_accuracy.to_bits());
        self.power = mix(self.power, c.baseline_power_uw.to_bits());
        for p in &c.points {
            self.events = mix(self.events, p.accuracy.to_bits());
            self.events = mix(self.events, p.loss_ratio.to_bits());
            self.power = mix(self.power, p.power_uw.to_bits());
            self.health = health_digest(self.health, &p.health);
        }
    }

    /// Folds another digest in (order matters).
    pub fn add(&mut self, other: &OutputDigest) {
        self.events = mix(self.events, other.events);
        self.i2s = mix(self.i2s, other.i2s);
        self.power = mix(self.power, other.power);
        self.health = mix(self.health, other.health);
    }

    /// All four parts in one value.
    pub fn combined(&self) -> u64 {
        [self.i2s, self.power, self.health].iter().fold(self.events, |h, &x| mix(h, x))
    }
}

impl std::fmt::Display for OutputDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x} (events {:016x}, i2s {:016x}, power {:016x}, health {:016x})",
            self.combined(),
            self.events,
            self.i2s,
            self.power,
            self.health
        )
    }
}
