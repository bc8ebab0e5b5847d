//! Fault-injection campaigns: sweep fault rates over the DES
//! interface and measure how gracefully accuracy and power degrade.
//!
//! A campaign fixes one stimulus (a seeded Poisson train) and one
//! interface configuration, runs the fault-free baseline once, then
//! replays the identical stimulus under a [`FaultPlan`] per swept
//! fault rate. Because both the spike generator and the fault
//! injector are seeded, a campaign is a pure function of its inputs:
//! the same seeds produce bit-identical [`CampaignPoint`]s, which is
//! what makes regression curves trustworthy.
//!
//! The fidelity metric is the paper's own: the MCU-side
//! reconstruction's inter-spike-interval accuracy
//! ([`FidelityReport::accuracy`]), plus transit loss and the power
//! delta against the baseline.

use serde::{Deserialize, Serialize};

use aetr_aer::generator::{PoissonGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_faults::{FaultPlan, FaultRates, InterfaceHealthReport, WatchdogConfig};
use aetr_sim::parallel::par_map;
use aetr_sim::time::{SimDuration, SimTime};

use crate::interface::{AerToI2sInterface, InterfaceConfig, InterfaceConfigError};
use crate::mcu::{FidelityReport, McuReceiver};

/// Which fault classes a campaign exercises at the swept rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSurface {
    /// Handshake faults only (stuck `REQ`, lost `ACK`, malformed
    /// transactions).
    Protocol,
    /// Storage and link faults only (FIFO bit flips, I2S frame slips).
    Datapath,
    /// Every per-event fault class at once.
    All,
}

impl FaultSurface {
    /// The per-class rates for a swept per-event probability.
    pub fn rates(self, rate: f64) -> FaultRates {
        match self {
            FaultSurface::Protocol => FaultRates::protocol(rate),
            FaultSurface::Datapath => FaultRates::datapath(rate),
            FaultSurface::All => FaultRates {
                stuck_req: rate,
                lost_ack: rate,
                malformed: rate,
                wake_failure: rate,
                fifo_bit_flip: rate,
                i2s_frame_slip: rate,
            },
        }
    }
}

impl std::str::FromStr for FaultSurface {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultSurface, String> {
        match s {
            "protocol" => Ok(FaultSurface::Protocol),
            "datapath" => Ok(FaultSurface::Datapath),
            "all" => Ok(FaultSurface::All),
            other => Err(format!("unknown fault surface '{other}' (protocol|datapath|all)")),
        }
    }
}

/// Campaign stimulus and policy knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Interface under test.
    pub interface: InterfaceConfig,
    /// Mean sensor event rate (events per second).
    pub event_rate_hz: f64,
    /// Number of sensor channels in the stimulus.
    pub channels: u16,
    /// Stimulus length.
    pub duration: SimDuration,
    /// Spike-generator seed (stimulus is identical across points).
    pub train_seed: u64,
    /// Fault-injector seed.
    pub fault_seed: u64,
    /// Recovery policy armed for every faulted run.
    pub watchdog: WatchdogConfig,
    /// Fault classes exercised.
    pub surface: FaultSurface,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            interface: InterfaceConfig::prototype(),
            event_rate_hz: 50_000.0,
            channels: 64,
            duration: SimDuration::from_ms(10),
            train_seed: 7,
            fault_seed: 1,
            watchdog: WatchdogConfig::default(),
            surface: FaultSurface::All,
        }
    }
}

/// One measured point of a fault-rate sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPoint {
    /// Swept per-event fault probability.
    pub fault_rate: f64,
    /// ISI accuracy of the MCU reconstruction (1.0 = perfect).
    pub accuracy: f64,
    /// Fraction of sensor events that never reached the MCU.
    pub loss_ratio: f64,
    /// Average power of the faulted run, in microwatts.
    pub power_uw: f64,
    /// Power relative to the fault-free baseline (1.0 = no overhead).
    pub power_ratio: f64,
    /// Fault/recovery counters of the faulted run.
    pub health: InterfaceHealthReport,
}

/// A complete campaign result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Fault-free accuracy (quantisation error only).
    pub baseline_accuracy: f64,
    /// Fault-free average power, in microwatts.
    pub baseline_power_uw: f64,
    /// One point per swept rate, in sweep order.
    pub points: Vec<CampaignPoint>,
}

/// The campaign runner.
///
/// # Examples
///
/// ```
/// use aetr::campaign::{CampaignConfig, FaultCampaign};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let campaign = FaultCampaign::new(CampaignConfig::default())?;
/// let result = campaign.run(&[0.0, 0.01]);
/// assert_eq!(result.points.len(), 2);
/// // A zero fault rate adds no power and loses nothing.
/// assert!((result.points[0].power_ratio - 1.0).abs() < 1e-12);
/// assert!(result.points[0].health.is_nominal());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    config: CampaignConfig,
    interface: AerToI2sInterface,
    train: SpikeTrain,
    horizon: SimTime,
}

impl FaultCampaign {
    /// Builds the campaign: validates the interface and generates the
    /// (seeded, reused) stimulus.
    ///
    /// # Errors
    ///
    /// Returns [`InterfaceConfigError`] for an invalid interface
    /// configuration.
    pub fn new(config: CampaignConfig) -> Result<FaultCampaign, InterfaceConfigError> {
        let interface = AerToI2sInterface::new(config.interface)?;
        let horizon = SimTime::ZERO + config.duration;
        let train = PoissonGenerator::new(config.event_rate_hz, config.channels, config.train_seed)
            .generate(horizon);
        Ok(FaultCampaign { config, interface, train, horizon })
    }

    /// The stimulus replayed at every point.
    pub fn train(&self) -> &SpikeTrain {
        &self.train
    }

    /// Runs the baseline plus one faulted run per rate in
    /// `fault_rates`. Deterministic: same [`CampaignConfig`], same
    /// result, bit for bit.
    pub fn run(&self, fault_rates: &[f64]) -> CampaignResult {
        self.run_with_jobs(fault_rates, 1)
    }

    /// Like [`run`](Self::run), sharding the baseline and the swept
    /// points over up to `jobs` worker threads.
    ///
    /// Every run derives its fault stream from the campaign seed and its
    /// own rate alone — no state flows between runs — and
    /// [`par_map`] returns results in input order, so the result is
    /// bit-identical to [`run`](Self::run) for any `jobs`. The baseline
    /// is one more run in the same batch, so no worker waits for it.
    pub fn run_with_jobs(&self, fault_rates: &[f64], jobs: usize) -> CampaignResult {
        let receiver = McuReceiver::new(self.config.interface.clock.base_sampling_period());
        let measure = |plan: &FaultPlan| -> (f64, f64, f64, InterfaceHealthReport) {
            let report = self.interface.run_with_faults(&self.train, self.horizon, plan);
            let reconstructed = receiver.receive_anchored(&report.i2s);
            let fidelity = FidelityReport::compare(&self.train, &reconstructed);
            (
                fidelity.accuracy(),
                fidelity.loss_ratio(),
                report.power.total.as_microwatts(),
                report.health,
            )
        };

        let nominal =
            FaultPlan::nominal(self.config.fault_seed).with_watchdog(self.config.watchdog);
        // The baseline is item 0 of the batch, then the points in order.
        let runs: Vec<Option<f64>> =
            std::iter::once(None).chain(fault_rates.iter().copied().map(Some)).collect();
        let mut measured = par_map(jobs, &runs, |_, run| match *run {
            Some(rate) => measure(&nominal.clone().with_rates(self.config.surface.rates(rate))),
            None => measure(&nominal),
        })
        .into_iter();

        let (baseline_accuracy, _, baseline_power_uw, _) =
            measured.next().expect("the baseline is item 0");
        let points = fault_rates
            .iter()
            .zip(measured)
            .map(|(&fault_rate, (accuracy, loss_ratio, power_uw, health))| CampaignPoint {
                fault_rate,
                accuracy,
                loss_ratio,
                power_uw,
                power_ratio: power_uw / baseline_power_uw,
                health,
            })
            .collect();

        CampaignResult { baseline_accuracy, baseline_power_uw, points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            event_rate_hz: 30_000.0,
            duration: SimDuration::from_ms(5),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn identical_seeds_give_identical_campaigns() {
        let rates = [0.0, 1e-3, 1e-2, 0.1];
        let a = FaultCampaign::new(quick_config()).unwrap().run(&rates);
        let b = FaultCampaign::new(quick_config()).unwrap().run(&rates);
        assert_eq!(a, b, "a campaign is a pure function of its seeds");
    }

    #[test]
    fn zero_rate_point_matches_baseline() {
        let result = FaultCampaign::new(quick_config()).unwrap().run(&[0.0]);
        let p = &result.points[0];
        assert_eq!(p.accuracy, result.baseline_accuracy);
        assert_eq!(p.power_uw, result.baseline_power_uw);
        assert!(p.health.is_nominal());
    }

    #[test]
    fn heavier_faults_hurt_fidelity_monotonically_enough() {
        // Not strictly monotone point to point (faults are random),
        // but a heavy-fault run must lose more than a light one.
        let result = FaultCampaign::new(quick_config()).unwrap().run(&[1e-3, 0.3]);
        let light = &result.points[0];
        let heavy = &result.points[1];
        assert!(heavy.health.faults_injected() > light.health.faults_injected());
        assert!(heavy.loss_ratio >= light.loss_ratio, "heavy {heavy:?} vs light {light:?}");
    }

    #[test]
    fn parallel_campaign_is_bit_identical_to_sequential() {
        let rates = [0.0, 1e-3, 1e-2, 0.1];
        let campaign = FaultCampaign::new(quick_config()).unwrap();
        let sequential = campaign.run_with_jobs(&rates, 1);
        for jobs in [2, 4] {
            assert_eq!(
                campaign.run_with_jobs(&rates, jobs),
                sequential,
                "jobs={jobs} must reproduce the sequential campaign bit for bit"
            );
        }
    }

    #[test]
    fn surfaces_select_their_fault_classes() {
        let protocol = FaultSurface::Protocol.rates(0.5);
        assert!(protocol.fifo_bit_flip == 0.0 && protocol.lost_ack == 0.5);
        let datapath = FaultSurface::Datapath.rates(0.5);
        assert!(datapath.lost_ack == 0.0 && datapath.fifo_bit_flip == 0.5);
        assert_eq!("all".parse::<FaultSurface>().unwrap(), FaultSurface::All);
        assert!("bogus".parse::<FaultSurface>().is_err());
    }
}
