//! `cochlea_keyword`: spoken keywords through the cochlea, the
//! interface with per-event lineage on, the error budget, the MCU and a
//! nearest-centroid classifier, single-threaded.
//!
//! Utterances are bursty, so the divider and the oscillator wake/sleep
//! path switch often; the lineage record writes are the write-heavy use
//! of the interface the other workloads leave off. The only workload
//! that runs the cochlea DSP and `aetr-apps`.

use std::time::Instant;

use aetr::interface::{InterfaceReport, SimEngine, TelemetryConfig};
use aetr::mcu::FidelityReport;
use aetr_aer::spike::SpikeTrain;
use aetr_apps::classifier::CentroidModel;
use aetr_apps::features::{extract, FeatureConfig, FeatureVector};
use aetr_apps::keyword::{speak, vocabulary};
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::{synthesize_word, WordSegment};
use aetr_faults::FaultPlan;
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::lineage::ErrorBudget;

use super::{derive, since, tracer_for, Counts, JobOut, Rig, Round, Workload};
use crate::checks::{
    check_engines_agree, check_error_budget, check_fault_free_run, Checks, OutputDigest,
};
use crate::trace::Tracer;
use crate::Options;

/// Lineage on: counters, spans, the wall-clock profile and per-event
/// records; no sampler.
const LINEAGE: TelemetryConfig =
    TelemetryConfig { enabled: true, sample_cadence: None, lineage: true };

/// Audio sample rate of the synthesized words, Hz.
const SAMPLE_RATE: u32 = 16_000;

/// One spoken keyword instance.
#[derive(Debug, Clone, PartialEq)]
struct Utterance {
    label: &'static str,
    script: Vec<WordSegment>,
    instance: u64,
}

impl Utterance {
    /// `aetr_apps::keyword::speak`'s per-instance pitch (±15%).
    fn pitch_hz(&self) -> f64 {
        120.0 * (1.0 + 0.15 * (((self.instance * 7919) % 100) as f64 / 50.0 - 1.0))
    }

    /// `speak`, split into its two layer calls.
    fn spikes(&self, t: &mut Tracer) -> SpikeTrain {
        let audio = t.span("cochlea.synth", |_| {
            synthesize_word(SAMPLE_RATE, self.pitch_hz(), &self.script, self.instance)
        });
        t.span("cochlea.process", |_| {
            Cochlea::new(CochleaConfig::das1()).expect("valid DAS1 config").process(&audio)
        })
    }
}

/// Simulated horizon of an utterance: 1 ms past its last spike.
fn horizon(spikes: &SpikeTrain) -> SimTime {
    spikes.last_time().unwrap_or(SimTime::ZERO).saturating_add(SimDuration::from_ms(1))
}

/// The workload: a fixed training and test set.
#[derive(Debug, Clone)]
pub struct CochleaKeyword {
    rig: Rig,
    train: Vec<Utterance>,
    test: Vec<Utterance>,
}

/// One utterance's outputs before the benchmark checks them.
struct UtteranceRun {
    out: JobOut,
    spikes: SpikeTrain,
    report: InterfaceReport,
    budget: ErrorBudget,
    fidelity: FidelityReport,
}

impl CochleaKeyword {
    /// Runs one utterance: synthesis → cochlea → interface (lineage on)
    /// → error budget → MCU reconstruction → fidelity → features.
    fn run_utterance(
        &self,
        u: &Utterance,
        t0: Instant,
        mut tracer: Tracer,
    ) -> (UtteranceRun, FeatureVector) {
        let rig = &self.rig;
        let start_s = since(t0);
        let (spikes, report, budget, fidelity, features) = tracer.span("job", |t| {
            let spikes = u.spikes(t);
            let report = t.span("interface.run_with_telemetry", |_| {
                rig.interface.run_with_telemetry(
                    &spikes,
                    horizon(&spikes),
                    &FaultPlan::nominal(0),
                    &LINEAGE,
                )
            });
            let budget = t.span("lineage.budget", |_| {
                ErrorBudget::from_records(report.telemetry.lineage.records(), rig.t_min)
            });
            let rebuilt = t.span("mcu.receive", |_| rig.mcu.receive_anchored(&report.i2s));
            let fidelity = t.span("mcu.compare", |_| FidelityReport::compare(&spikes, &rebuilt));
            let features =
                t.span("apps.features", |_| extract(&rebuilt, &FeatureConfig::das1_channels()));
            (spikes, report, budget, fidelity, features)
        });
        let mut out = JobOut::new(start_s, since(t0), spikes.len() as u64);
        out.spans = tracer.into_spans();
        (UtteranceRun { out, spikes, report, budget, fidelity }, features)
    }

    /// Checks one utterance's outputs and folds them into its result.
    fn settle(&self, run: UtteranceRun) -> (JobOut, SpikeTrain) {
        let UtteranceRun { mut out, spikes, report, budget, fidelity } = run;
        let rig = &self.rig;
        check_fault_free_run(&report, &rig.mcu, &mut out.checks);
        check_error_budget(&report, &budget, rig.t_min, rig.sync_stages, &mut out.checks);
        out.sim.add_fidelity(&fidelity, report.power.total.as_microwatts());
        out.counts.cochlea_spikes = spikes.len() as u64;
        out.counts.bound_violations = budget.bound_violations(rig.sync_stages).len() as u64;
        out.counts.add_report(&report);
        out.digest.add_report(&report);
        (out, spikes)
    }

    /// Host time lineage recording adds to the interface runs of
    /// `trains`, s: lineage-on minus lineage-off for each utterance, the
    /// two runs adjacent and in alternating order so neither side
    /// always runs warm.
    fn lineage_record_s(&self, trains: &[SpikeTrain]) -> f64 {
        let off = TelemetryConfig { lineage: false, ..LINEAGE };
        let time = |spikes: &SpikeTrain, telemetry: &TelemetryConfig| {
            let t0 = Instant::now();
            std::hint::black_box(self.rig.interface.run_with_telemetry(
                spikes,
                horizon(spikes),
                &FaultPlan::nominal(0),
                telemetry,
            ));
            since(t0)
        };
        let mut delta = 0.0;
        for (i, spikes) in trains.iter().enumerate() {
            if i % 2 == 0 {
                delta += time(spikes, &LINEAGE);
                delta -= time(spikes, &off);
            } else {
                delta -= time(spikes, &off);
                delta += time(spikes, &LINEAGE);
            }
        }
        delta
    }
}

impl Workload for CochleaKeyword {
    // The quiet windows of a 25 s run hold some 500 utterances.
    const TAIL_PCT: f64 = 90.0;

    fn plan(opts: &Options) -> CochleaKeyword {
        let (n_train, n_test) = if opts.quick { (1, 1) } else { (4, 8) };
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (k, (label, script)) in vocabulary().into_iter().enumerate() {
            for i in 0..n_train + n_test {
                // Distinct instances per keyword; train and test never
                // share one.
                let instance = derive(opts.seed, (k * 1_000 + i) as u64) % 1_000_000;
                let u = Utterance { label, script: script.clone(), instance };
                if i < n_train {
                    train.push(u);
                } else {
                    test.push(u);
                }
            }
        }
        CochleaKeyword { rig: Rig::prototype(), train, test }
    }

    fn round(&self, trace: Option<(Instant, u64)>) -> Round {
        let t0 = Instant::now();
        let utterances = self.train.iter().chain(&self.test);
        let mut outs = Vec::with_capacity(self.train.len() + self.test.len());
        let mut features = Vec::with_capacity(outs.capacity());
        let mut trains = Vec::new();
        // The round's clock is paused while the benchmark checks an
        // utterance.
        let mut paused_s = 0.0;
        for (i, u) in utterances.enumerate() {
            let (run, f) = self.run_utterance(u, t0, tracer_for(trace, i));
            features.push(f);
            let paused = Instant::now();
            let (out, spikes) = self.settle(run);
            paused_s += since(paused);
            outs.push(out);
            if trace.is_some() {
                trains.push(spikes);
            }
        }
        // The classifier is its own job in the trace.
        let mut tracer = tracer_for(trace, outs.len());
        let (correct, total) = tracer.span("job", |t| {
            let examples =
                self.train.iter().zip(&features).map(|(u, f)| (u.label.to_owned(), f.clone()));
            let model = t
                .span("apps.fit", |_| CentroidModel::train(examples))
                .expect("every keyword has training examples");
            t.span("apps.classify", |_| {
                let test_features = &features[self.train.len()..];
                let hits = self
                    .test
                    .iter()
                    .zip(test_features)
                    .filter(|(u, f)| model.classify(f).is_some_and(|(label, _)| label == u.label))
                    .count();
                (hits as u64, self.test.len() as u64)
            })
        });
        let wall_s = since(t0) - paused_s;
        let mut round = Round::from_jobs(wall_s, 1, outs);
        round.sim.keyword_correct = correct;
        round.sim.keyword_total = total;
        round.spans.extend(tracer.into_spans());
        if trace.is_some() {
            round.lineage_record_s = self.lineage_record_s(&trains);
        }
        round
    }

    fn verify(&self, first: &Round, checks: &mut Checks) -> OutputDigest {
        let u = &self.train[0];
        let spikes = u.spikes(&mut Tracer::off());
        checks.record("cochlea.matches_keyword_speak", spikes == speak(u.label, u.instance));
        let run = |engine| {
            self.rig.interface.clone().with_engine(engine).run_with_telemetry(
                &spikes,
                horizon(&spikes),
                &FaultPlan::nominal(0),
                &LINEAGE,
            )
        };
        check_engines_agree(
            &run(SimEngine::EventProportional),
            &run(SimEngine::PerTickReference),
            checks,
        );
        first.digest
    }

    fn probe(&self) -> Counts {
        // Every job already runs with telemetry on.
        Counts::default()
    }
}
