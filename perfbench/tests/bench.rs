//! The benchmark's own tests: a quick run of every workload emits every
//! metric `BENCHMARK.json` names with its unit and no failed operation,
//! and each correctness check fires on a deliberately corrupted output.

use std::time::Instant;

use aetr::interface::{InterfaceReport, TelemetryConfig};
use aetr_aer::generator::{PoissonGenerator, SpikeSource};
use aetr_faults::{FaultPlan, FaultRates};
use aetr_perfbench::checks::{
    check_engines_agree, check_error_budget, check_fault_free_run, check_same_order, Checks,
    OutputDigest,
};
use aetr_perfbench::workloads::Rig;
use aetr_perfbench::{run, Options, WorkloadName};
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::json::{self, Json};
use aetr_telemetry::lineage::ErrorBudget;

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn quick(workload: WorkloadName, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        quick: true,
        trace_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

#[test]
fn quick_mode_emits_every_named_metric() {
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let expected = declared(section);
        for workload in WorkloadName::ALL {
            let outcome = run(&quick(workload, trace), Instant::now());
            let got: Vec<(String, String)> =
                outcome.metrics.iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect();
            assert_eq!(got, expected, "{} {section}", workload.as_str());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            assert!(outcome.checks.attempted > 0);
            assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);

            let line = json::parse(&outcome.to_json()).expect("result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_object).expect("metrics");
            assert_eq!(metrics.len(), expected.len());
        }
    }
}

#[test]
fn simulated_outputs_repeat_across_runs_and_tracing() {
    for workload in WorkloadName::ALL {
        let digest_line = |trace| {
            run(&quick(workload, trace), Instant::now())
                .notes
                .into_iter()
                .find(|n| n.starts_with("digest "))
                .expect("digest line")
        };
        assert_eq!(digest_line(false), digest_line(false));
        assert_eq!(digest_line(false), digest_line(true));
    }
}

fn golden_run(telemetry: &TelemetryConfig, plan: &FaultPlan) -> (Rig, InterfaceReport) {
    let rig = Rig::prototype();
    let horizon = SimTime::from_ms(10);
    let train = PoissonGenerator::new(50_000.0, 64, 7).generate(horizon);
    let report = rig.interface.run_with_telemetry(&train, horizon, plan, telemetry);
    (rig, report)
}

fn fault_free() -> (Rig, InterfaceReport) {
    golden_run(&TelemetryConfig::disabled(), &FaultPlan::nominal(0))
}

#[test]
fn fault_free_checks_pass_on_a_clean_run() {
    let (rig, report) = fault_free();
    let mut checks = Checks::default();
    check_fault_free_run(&report, &rig.mcu, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (3, 0), "{:?}", checks.failures);
}

#[test]
fn protocol_and_health_checks_fire_on_a_faulted_run() {
    let rates = FaultRates { malformed: 0.5, ..FaultRates::default() };
    let (rig, report) =
        golden_run(&TelemetryConfig::disabled(), &FaultPlan::nominal(3).with_rates(rates));
    let mut checks = Checks::default();
    check_fault_free_run(&report, &rig.mcu, &mut checks);
    assert!(checks.failures.contains(&"handshake.verify_protocol".to_owned()), "{:?}", checks);
    assert!(checks.failures.contains(&"health.nominal".to_owned()), "{:?}", checks);
}

#[test]
fn decode_check_fires_on_a_lost_frame() {
    let (rig, mut report) = fault_free();
    report.i2s.pop_last().expect("the run sent frames");
    let mut checks = Checks::default();
    check_fault_free_run(&report, &rig.mcu, &mut checks);
    assert_eq!(checks.failures, vec!["mcu.decodes_fifo_pops".to_owned()]);
}

#[test]
fn decode_check_fires_on_a_rewritten_event() {
    let (rig, mut report) = fault_free();
    let first = &mut report.events[0].event;
    first.timestamp =
        aetr::aetr_format::Timestamp::from_ticks(u64::from(first.timestamp.ticks()) + 1);
    let mut checks = Checks::default();
    check_fault_free_run(&report, &rig.mcu, &mut checks);
    assert_eq!(checks.failures, vec!["mcu.decodes_fifo_pops".to_owned()]);
}

fn lineage_run() -> (Rig, InterfaceReport, ErrorBudget) {
    let telemetry = TelemetryConfig::with_cadence(SimDuration::from_us(50)).with_lineage();
    let (rig, report) = golden_run(&telemetry, &FaultPlan::nominal(0));
    let budget = ErrorBudget::from_records(report.telemetry.lineage.records(), rig.t_min);
    (rig, report, budget)
}

#[test]
fn budget_checks_pass_on_a_clean_lineage_run() {
    let (rig, report, budget) = lineage_run();
    let mut checks = Checks::default();
    check_error_budget(&report, &budget, rig.t_min, rig.sync_stages, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 0), "{:?}", checks.failures);
}

#[test]
fn telescoping_check_fires_when_the_budget_disagrees_with_the_events() {
    let (rig, mut report, budget) = lineage_run();
    // The budget was built from the untouched lineage records; the
    // report's own events no longer add up to it.
    let last = report.events.last_mut().expect("events");
    last.request = last.request.saturating_add(SimDuration::from_ns(1));
    let mut checks = Checks::default();
    check_error_budget(&report, &budget, rig.t_min, rig.sync_stages, &mut checks);
    assert_eq!(checks.failures, vec!["lineage.budget_telescopes".to_owned()]);
}

#[test]
fn bound_check_fires_on_an_out_of_bound_event() {
    let (rig, report, mut budget) = lineage_run();
    let row = budget.rows.iter_mut().find(|r| r.clean).expect("a clean event");
    row.error_ps += 1_000_000_000;
    let mut checks = Checks::default();
    check_error_budget(&report, &budget, rig.t_min, rig.sync_stages, &mut checks);
    assert!(checks.failures.contains(&"lineage.no_bound_violations".to_owned()), "{checks:?}");
}

#[test]
fn engine_check_fires_on_a_different_report() {
    let (_, report) = fault_free();
    let mut other = report.clone();
    let mut checks = Checks::default();
    check_engines_agree(&report, &other, &mut checks);
    other.wake_count += 1;
    check_engines_agree(&report, &other, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
}

#[test]
fn order_check_fires_on_permuted_results() {
    let mut checks = Checks::default();
    check_same_order(&[1, 2, 3], &[1, 2, 3], &mut checks);
    check_same_order(&[2, 1, 3], &[1, 2, 3], &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
}

#[test]
fn digest_separates_each_output_kind() {
    let (_, report) = fault_free();
    let digest = |r: &InterfaceReport| {
        let mut d = OutputDigest::default();
        d.add_report(r);
        d
    };
    let base = digest(&report);
    assert_eq!(base, digest(&report.clone()));

    let mut r = report.clone();
    r.events[3].detection = r.events[3].detection.saturating_add(SimDuration::from_ps(1));
    let d = digest(&r);
    assert!(d.events != base.events && d.i2s == base.i2s && d.power == base.power);

    let mut r = report.clone();
    r.i2s.pop_last();
    let d = digest(&r);
    assert!(d.i2s != base.i2s && d.events == base.events);

    let mut r = report.clone();
    r.wake_count += 1;
    assert!(digest(&r).power != base.power);

    let mut r = report;
    r.health.frame_slips = 1;
    assert!(digest(&r).health != base.health);
}
