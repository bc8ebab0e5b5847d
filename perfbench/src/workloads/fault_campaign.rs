//! `fault_campaign`: `FaultCampaign::run_with_jobs` on surface `all`
//! over log-spaced fault rates, with `nproc` jobs.
//!
//! The only workload with the fault injector, the watchdog and degraded
//! mode armed, so the same runner executes its recovery paths. One job
//! of the closed loop is one campaign call: building the campaign (its
//! stimulus included) and sweeping every rate. A round runs a few
//! campaigns with different stimulus and fault seeds, so the simulated
//! fidelity is averaged over several fault histories.
//!
//! `run_with_jobs` gives no per-run timing, so a traced run executes the
//! campaign as its public-layer calls — the same interface, receiver and
//! fidelity calls over the same `par_map` — in its traced and untraced
//! rounds alike, and a check requires that this reproduces
//! `run_with_jobs` bit for bit.

use std::time::Instant;

use aetr::campaign::{CampaignConfig, CampaignPoint, CampaignResult, FaultCampaign, FaultSurface};
use aetr::interface::{AerToI2sInterface, SimEngine};
use aetr::mcu::{FidelityReport, McuReceiver};
use aetr_analysis::sweep::log_space;
use aetr_faults::FaultPlan;
use aetr_sim::parallel::{available_jobs, par_map};
use aetr_sim::time::{SimDuration, SimTime};

use super::{derive, since, tracer_for, Counts, JobOut, JobStat, Round, Workload, PROBE_TELEMETRY};
use crate::checks::{
    check_engines_agree, check_fault_free_run, check_same_order, Checks, OutputDigest,
};
use crate::trace::Tracer;
use crate::Options;

/// The workload: a few campaign configurations (stimulus and fault
/// seeds) and the rate sweep each of them runs.
#[derive(Debug, Clone)]
pub struct FaultCampaignWorkload {
    configs: Vec<CampaignConfig>,
    rates: Vec<f64>,
    workers: usize,
    /// Run each campaign as its public-layer calls (traced runs).
    decompose: bool,
    /// The configuration and rate whose engines are compared.
    sampled: (usize, usize),
}

fn new_campaign(config: &CampaignConfig) -> FaultCampaign {
    FaultCampaign::new(config.clone()).expect("prototype config validates")
}

fn horizon(config: &CampaignConfig) -> SimTime {
    SimTime::ZERO + config.duration
}

fn nominal(config: &CampaignConfig) -> FaultPlan {
    FaultPlan::nominal(config.fault_seed).with_watchdog(config.watchdog)
}

fn plan_at(config: &CampaignConfig, rate: f64) -> FaultPlan {
    nominal(config).with_rates(config.surface.rates(rate))
}

/// Sanity of one campaign point: fractions in range, power positive,
/// recoveries never exceeding losses.
fn check_point(p: &CampaignPoint, checks: &mut Checks) {
    checks.record(
        "faults.point_consistent",
        (0.0..=1.0).contains(&p.loss_ratio)
            && p.accuracy.is_finite()
            && p.accuracy <= 1.0
            && p.power_uw > 0.0
            && p.health.acks_recovered <= p.health.lost_acks,
    );
}

/// A campaign job's results from its campaign result: per-point checks,
/// the simulated fidelity and power of the faulted runs (`sent` events
/// each), and the digest.
fn settle(result: &CampaignResult, sent: u64, out: &mut JobOut) {
    out.digest.add_campaign(result);
    for p in &result.points {
        check_point(p, &mut out.checks);
        let received = ((1.0 - p.loss_ratio) * sent as f64).round() as u64;
        out.sim.add_run(sent, received, p.accuracy, p.power_uw);
    }
}

fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut digest = OutputDigest::default();
    digest.add_campaign(result);
    digest.combined()
}

impl FaultCampaignWorkload {
    /// The campaign as its public-layer calls: baseline, then one
    /// faulted run per rate over `par_map`. Returns the result
    /// `run_with_jobs` would, and per-run outputs in run order.
    fn decomposed(
        &self,
        config: &CampaignConfig,
        tracer: &mut Tracer,
        t0: Instant,
    ) -> (CampaignResult, Vec<JobOut>) {
        let campaign = tracer.span("faults.campaign_new", |_| new_campaign(config));
        let interface =
            AerToI2sInterface::new(config.interface).expect("prototype config validates");
        let receiver = McuReceiver::new(config.interface.clock.base_sampling_period());
        let train = campaign.train();
        let measure = |plan: &FaultPlan, t: &mut Tracer| {
            let start_s = since(t0);
            let (report, fidelity) = t.span("faults.point", |t| {
                let report = t.span("interface.run_with_faults", |_| {
                    interface.run_with_faults(train, horizon(config), plan)
                });
                let rebuilt = t.span("mcu.receive", |_| receiver.receive_anchored(&report.i2s));
                let fidelity = t.span("mcu.compare", |_| FidelityReport::compare(train, &rebuilt));
                (report, fidelity)
            });
            let mut out = JobOut::new(start_s, since(t0), train.len() as u64);
            out.counts.add_report(&report);
            out.digest.add_report(&report);
            (out, report, fidelity)
        };
        let (mut baseline, report, fidelity) = measure(&nominal(config), tracer);
        check_fault_free_run(&report, &receiver, &mut baseline.checks);
        let baseline_power_uw = report.power.total.as_microwatts();
        let source = &*tracer;
        let points = par_map(self.workers, &self.rates, |i, &rate| {
            let mut t = source.fork(i as u64);
            let (mut out, report, fidelity) = measure(&plan_at(config, rate), &mut t);
            out.spans = t.into_spans();
            let power_uw = report.power.total.as_microwatts();
            let point = CampaignPoint {
                fault_rate: rate,
                accuracy: fidelity.accuracy(),
                loss_ratio: fidelity.loss_ratio(),
                power_uw,
                power_ratio: power_uw / baseline_power_uw,
                health: report.health,
            };
            (point, out)
        });
        let mut result = CampaignResult {
            baseline_accuracy: fidelity.accuracy(),
            baseline_power_uw,
            points: Vec::with_capacity(points.len()),
        };
        let mut runs = vec![baseline];
        for (point, out) in points {
            result.points.push(point);
            runs.push(out);
        }
        (result, runs)
    }

    /// One campaign job: the `run_with_jobs` call, or in a traced run
    /// its decomposition. Returns the job, its campaign result for
    /// [`settle`] and the timing of its parallel units.
    fn campaign_job(
        &self,
        config: &CampaignConfig,
        t0: Instant,
        mut tracer: Tracer,
    ) -> (JobOut, CampaignResult, Vec<JobStat>) {
        let start_s = since(t0);
        if !self.decompose {
            let campaign = new_campaign(config);
            let result = campaign.run_with_jobs(&self.rates, self.workers);
            let sent = campaign.train().len() as u64;
            let out = JobOut::new(start_s, since(t0), sent * (self.rates.len() as u64 + 1));
            let tasks = vec![out.stat];
            return (out, result, tasks);
        }
        let (result, runs) = tracer.span("job", |t| self.decomposed(config, t, t0));
        let mut out = JobOut::new(start_s, since(t0), runs.iter().map(|r| r.events).sum());
        let mut tasks = Vec::with_capacity(runs.len());
        for run in runs {
            out.counts.add(&run.counts);
            out.checks.merge(&run.checks);
            out.spans.extend(run.spans);
            tasks.push(run.stat);
        }
        out.spans.extend(tracer.into_spans());
        (out, result, tasks)
    }
}

impl Workload for FaultCampaignWorkload {
    // The quiet windows of a 25 s run hold some 300 campaigns.
    const TAIL_PCT: f64 = 90.0;

    fn plan(opts: &Options) -> FaultCampaignWorkload {
        let (campaigns, duration_ms, points) = if opts.quick { (1, 2, 3) } else { (24, 100, 12) };
        let configs = (0..campaigns)
            .map(|k| CampaignConfig {
                duration: SimDuration::from_ms(duration_ms),
                train_seed: derive(opts.seed, 2 * k),
                fault_seed: derive(opts.seed, 2 * k + 1),
                surface: FaultSurface::All,
                ..CampaignConfig::default()
            })
            .collect();
        FaultCampaignWorkload {
            configs,
            rates: log_space(1e-4, 0.3, points),
            workers: available_jobs(),
            decompose: opts.trace,
            sampled: ((opts.seed % campaigns) as usize, (opts.seed % points as u64) as usize),
        }
    }

    fn round(&self, trace: Option<(Instant, u64)>) -> Round {
        let t0 = Instant::now();
        let jobs: Vec<_> = self
            .configs
            .iter()
            .enumerate()
            .map(|(i, config)| self.campaign_job(config, t0, tracer_for(trace, i)))
            .collect();
        let wall_s = since(t0);
        let mut tasks = Vec::new();
        let mut batches = Vec::new();
        let runs_per_job = self.rates.len() as u64 + 1;
        let outs = jobs
            .into_iter()
            .map(|(mut out, result, job_tasks)| {
                settle(&result, out.events / runs_per_job, &mut out);
                // A decomposed campaign's rate points, after its baseline,
                // are one `par_map` call.
                if job_tasks.len() > 1 {
                    batches.push(tasks.len() + 1..tasks.len() + job_tasks.len());
                }
                tasks.extend(job_tasks);
                out
            })
            .collect();
        let mut round = Round::from_jobs(wall_s, self.workers, outs);
        round.tasks = tasks;
        round.batches = batches;
        round
    }

    fn verify(&self, first: &Round, checks: &mut Checks) -> OutputDigest {
        let mut digest = OutputDigest::default();
        let mut decomposed = Vec::with_capacity(self.configs.len());
        let mut sequential = Vec::with_capacity(self.configs.len());
        for config in &self.configs {
            let (result, runs) = self.decomposed(config, &mut Tracer::off(), Instant::now());
            decomposed.push(campaign_digest(&result));
            sequential.push(campaign_digest(&new_campaign(config).run_with_jobs(&self.rates, 1)));
            for run in &runs {
                digest.add(&run.digest);
            }
        }
        checks
            .record("faults.decomposition_matches_run_with_jobs", decomposed == first.job_digests);
        check_same_order(&first.job_digests, &sequential, checks);

        let (c, r) = self.sampled;
        let config = &self.configs[c];
        let campaign = new_campaign(config);
        let run = |engine| {
            AerToI2sInterface::new(config.interface)
                .expect("prototype config validates")
                .with_engine(engine)
                .run_with_faults(campaign.train(), horizon(config), &plan_at(config, self.rates[r]))
        };
        check_engines_agree(
            &run(SimEngine::EventProportional),
            &run(SimEngine::PerTickReference),
            checks,
        );
        digest
    }

    fn probe(&self) -> Counts {
        let mut counts = Counts::default();
        for config in &self.configs {
            let campaign = new_campaign(config);
            let interface =
                AerToI2sInterface::new(config.interface).expect("prototype config validates");
            let plans: Vec<FaultPlan> = std::iter::once(nominal(config))
                .chain(self.rates.iter().map(|&r| plan_at(config, r)))
                .collect();
            for c in par_map(self.workers, &plans, |_, plan| {
                let report = interface.run_with_telemetry(
                    campaign.train(),
                    horizon(config),
                    plan,
                    &PROBE_TELEMETRY,
                );
                let mut c = Counts::default();
                c.add_telemetry(&report.telemetry);
                c
            }) {
                counts.add(&c);
            }
        }
        counts
    }
}
