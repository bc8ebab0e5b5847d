//! CLI subcommand implementations.
//!
//! Each command is a pure function from parsed arguments to a report
//! string, so the whole surface is unit-testable without spawning
//! processes.

use std::error::Error;
use std::fmt::Write as _;
use std::fs;

use aetr::quantizer::{isi_error_samples, quantize_train, QuantizerOutput};
use aetr::resources::UtilizationReport;
use aetr_aer::aedat;
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_analysis::error_stats::ErrorSummary;
use aetr_analysis::sweep::{log_space, poisson_workload};
use aetr_analysis::table::{fmt_sig, Table};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::schedule::record_waveform;
use aetr_power::model::PowerModel;
use aetr_sim::time::{SimDuration, SimTime};

use crate::args::{ArgsError, ParsedArgs};

/// Top-level usage text.
pub const USAGE: &str = "\
aetr-cli — simulator for the DAC'17 energy-proportional AER interface

USAGE:
  aetr-cli quantize --rate <evt/s> [--theta N] [--ndiv N] [--policy P]
                    [--duration-ms N] [--seed N] [--generator poisson|lfsr]
  aetr-cli run      --rate <evt/s> [--theta N] [--ndiv N] [--policy P]
                    [--duration-ms N] [--seed N]
                    [--engine fast-forward|per-tick]  (full DES interface)
  aetr-cli replay   <file.aedat> [--theta N] [--ndiv N] [--policy P]
  aetr-cli record   <file.aedat> --rate <evt/s> [--duration-ms N] [--seed N]
                    [--generator poisson|lfsr|word]
  aetr-cli sweep    [--points N] [--theta N] [--jobs N]
  aetr-cli faults   [--points N] [--rate <evt/s>] [--duration-ms N]
                    [--surface protocol|datapath|all] [--seed N]
                    [--min-fault-rate P] [--max-fault-rate P] [--jobs N]
                    (fault-rate sweep: accuracy/power degradation curves)
  aetr-cli telemetry [--rate <evt/s>] [--duration-ms N] [--seed N]
                    [--generator poisson|burst] [--cadence-us N]
                    [--format json|prometheus|chrome-trace] [--out file]
                    (instrumented DES run: metrics, spans, time series)
  aetr-cli lineage  [--rate <evt/s>] [--duration-ms N] [--seed N]
                    [--generator poisson|burst] [--cadence-us N]
                    [--engine fast-forward|per-tick]
                    [--format jsonl|chrome-trace] [--out file]
                    (per-event causal records; with --out, prints the
                    error-budget attribution footer)
  aetr-cli explain  <event-index> [--rate <evt/s>] [--duration-ms N]
                    [--seed N] [--generator poisson|burst]
                    [--cadence-us N] [--engine fast-forward|per-tick]
                    (re-runs deterministically and narrates one event's
                    journey: arrival, grid wait, wake, FIFO, I2S, and
                    its exact timestamp-error decomposition)
  aetr-cli validate <file.json> --schema <schema.json> [--jsonl true]
                    (offline JSON-schema check, e.g. telemetry output;
                    --jsonl true checks every line, e.g. lineage output)
  aetr-cli waveform [--theta N] [--ndiv N] [--out file.vcd]
  aetr-cli resources

POLICIES: recursive (default) | divide-only | never | linear
ENGINES:  fast-forward (default) skips idle tick chains analytically;
          per-tick is the reference model (one DES event per clock
          edge). Reports are bit-identical either way.
JOBS:     --jobs N shards sweep points over N worker threads (0 = all
          cores); output is bit-identical to --jobs 1 for any N.
";

/// Runs a command line, returning the report text.
///
/// # Errors
///
/// Returns argument or I/O errors; unknown commands yield the usage
/// text as an error message.
pub fn run(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    match args.command.as_deref() {
        Some("quantize") => cmd_quantize(args),
        Some("run") => cmd_run(args),
        Some("replay") => cmd_replay(args),
        Some("record") => cmd_record(args),
        Some("sweep") => cmd_sweep(args),
        Some("faults") => cmd_faults(args),
        Some("telemetry") => cmd_telemetry(args),
        Some("lineage") => cmd_lineage(args),
        Some("explain") => cmd_explain(args),
        Some("validate") => cmd_validate(args),
        Some("waveform") => cmd_waveform(args),
        Some("resources") => Ok(UtilizationReport::prototype().to_string()),
        _ => Err(USAGE.into()),
    }
}

fn clock_config(args: &ParsedArgs) -> Result<ClockGenConfig, Box<dyn Error>> {
    let theta: u32 = args.get_or("theta", 64, "integer")?;
    let ndiv: u32 = args.get_or("ndiv", 3, "integer")?;
    let policy = match args.get_str("policy").unwrap_or("recursive") {
        "recursive" => DivisionPolicy::Recursive,
        "divide-only" => DivisionPolicy::DivideOnly,
        "never" => DivisionPolicy::Never,
        "linear" => DivisionPolicy::Linear,
        other => {
            return Err(Box::new(ArgsError::InvalidValue {
                flag: "policy".into(),
                value: other.into(),
                expected: "policy (recursive|divide-only|never|linear)",
            }))
        }
    };
    let config =
        ClockGenConfig::prototype().with_theta_div(theta).with_n_div(ndiv).with_policy(policy);
    config.validate()?;
    Ok(config)
}

/// Simulation-engine selection: `--engine fast-forward|per-tick`. Both
/// engines produce bit-identical reports (pinned by the
/// `event_proportional` differential proptest); `per-tick` exists as a
/// reference model and for measuring the fast-forward speedup.
fn engine_arg(args: &ParsedArgs) -> Result<aetr::interface::SimEngine, Box<dyn Error>> {
    use aetr::interface::SimEngine;
    match args.get_str("engine").unwrap_or("fast-forward") {
        "fast-forward" => Ok(SimEngine::EventProportional),
        "per-tick" => Ok(SimEngine::PerTickReference),
        other => Err(Box::new(ArgsError::InvalidValue {
            flag: "engine".into(),
            value: other.into(),
            expected: "engine (fast-forward|per-tick)",
        })),
    }
}

/// Stimulus event rate: `--rate <evt/s>`, required when `default` is
/// `None`. The generators panic on a rate that is not positive and
/// finite, so every command reads it through here.
fn rate_arg(args: &ParsedArgs, default: Option<f64>) -> Result<f64, Box<dyn Error>> {
    let rate: f64 = match default {
        Some(default) => args.get_or("rate", default, "number")?,
        None => args.require("rate", "number")?,
    };
    if rate.is_finite() && rate > 0.0 {
        Ok(rate)
    } else {
        Err(Box::new(ArgsError::InvalidValue {
            flag: "rate".into(),
            value: args.get_str("rate").unwrap_or_default().into(),
            expected: "event rate (positive, finite evt/s)",
        }))
    }
}

/// Sweep length: `--points N`. `log_space` needs both endpoints, so
/// fewer than 2 points is an error rather than a silent clamp.
fn points_arg(args: &ParsedArgs, default: usize) -> Result<usize, Box<dyn Error>> {
    let points: usize = args.get_or("points", default, "integer")?;
    if points >= 2 {
        Ok(points)
    } else {
        Err(Box::new(ArgsError::InvalidValue {
            flag: "points".into(),
            value: points.to_string(),
            expected: "point count (at least 2)",
        }))
    }
}

/// Worker-thread count for sweep commands: `--jobs N`, where `0` means
/// "all available cores". Defaults to 1 (sequential); any value yields
/// bit-identical output, so this is purely a wall-clock knob.
fn jobs_arg(args: &ParsedArgs) -> Result<usize, Box<dyn Error>> {
    let jobs: usize = args.get_or("jobs", 1, "integer")?;
    Ok(if jobs == 0 { aetr_sim::parallel::available_jobs() } else { jobs })
}

/// Mean relative inter-spike-interval error of a quantizer run; 0 when
/// it has fewer than two events.
fn mean_isi_error(out: &QuantizerOutput) -> f64 {
    let samples: Vec<(f64, bool)> =
        isi_error_samples(out).iter().map(|s| (s.relative_error(), s.saturated)).collect();
    ErrorSummary::of(&samples).map_or(0.0, |s| s.mean)
}

fn report_for(config: &ClockGenConfig, train: &SpikeTrain, horizon: SimTime) -> String {
    let out = quantize_train(config, train, horizon);
    let mean_err = mean_isi_error(&out);
    let saturated = out.records.iter().filter(|r| r.saturated).count();
    let power = PowerModel::igloo_nano().evaluate(&out.activity);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "config: theta_div={}, n_div={}, policy={}, T_min={}",
        config.theta_div,
        config.n_div,
        config.policy,
        config.base_sampling_period()
    );
    let _ = writeln!(
        text,
        "events: {} ({} saturated, {:.1}%)",
        out.records.len(),
        saturated,
        100.0 * saturated as f64 / out.records.len().max(1) as f64
    );
    let _ = writeln!(text, "mean relative timestamp error: {:.3}%", mean_err * 100.0);
    let _ = writeln!(text, "average power: {}", power.total);
    text
}

fn cmd_quantize(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let rate = rate_arg(args, None)?;
    let duration_ms: u64 = args.get_or("duration-ms", 100, "integer")?;
    let seed: u64 = args.get_or("seed", 1, "integer")?;
    let config = clock_config(args)?;
    let horizon = SimTime::from_ms(duration_ms);
    let generator = args.get_str("generator").unwrap_or("poisson");
    let train = match generator {
        "poisson" => PoissonGenerator::new(rate, 64, seed).generate(horizon),
        "lfsr" => LfsrGenerator::new(rate, seed as u32).generate(horizon),
        other => {
            return Err(Box::new(ArgsError::InvalidValue {
                flag: "generator".into(),
                value: other.into(),
                expected: "generator (poisson|lfsr)",
            }))
        }
    };
    Ok(format!(
        "workload: {} events at {} evt/s over {duration_ms} ms ({generator})\n{}",
        train.len(),
        fmt_sig(rate),
        report_for(&config, &train, horizon)
    ))
}

fn cmd_run(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    use aetr::interface::{AerToI2sInterface, InterfaceConfig, TelemetryConfig};
    use aetr::latency::LatencyReport;
    use aetr_faults::FaultPlan;

    let rate = rate_arg(args, None)?;
    let duration_ms: u64 = args.get_or("duration-ms", 20, "integer")?;
    let seed: u64 = args.get_or("seed", 1, "integer")?;
    let clock = clock_config(args)?;
    let config = InterfaceConfig { clock, ..InterfaceConfig::prototype() };
    let horizon = SimTime::from_ms(duration_ms);
    let train = PoissonGenerator::new(rate, 64, seed).generate(horizon);
    let n = train.len();
    let interface = AerToI2sInterface::new(config)?.with_engine(engine_arg(args)?);
    // Lineage only (no sampler): the latency decomposition reads each
    // delivered event's own record.
    let lineage = TelemetryConfig { enabled: true, sample_cadence: None, lineage: true };
    let report = interface.run_with_telemetry(&train, horizon, &FaultPlan::nominal(0), &lineage);
    report.handshake.verify_protocol()?;

    let mut text = String::new();
    use std::fmt::Write as _;
    let _ =
        writeln!(text, "full DES run: {n} events at {} evt/s over {duration_ms} ms", fmt_sig(rate));
    let _ = writeln!(text, "power:  {}", report.power.total);
    let _ = writeln!(text, "wakes:  {}", report.wake_count);
    let _ = writeln!(text, "fifo:   {}", report.fifo_stats);
    let _ = writeln!(
        text,
        "i2s:    {} frames carrying {} events",
        report.i2s.len(),
        report.i2s.event_count()
    );
    if let Some(lat) = LatencyReport::from_lineage(report.telemetry.lineage.records()) {
        let _ = write!(text, "latency: {lat}");
    }
    Ok(text)
}

fn cmd_record(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let path = args.positional.first().ok_or("record needs an output .aedat file argument")?;
    let duration_ms: u64 = args.get_or("duration-ms", 100, "integer")?;
    let seed: u64 = args.get_or("seed", 1, "integer")?;
    let horizon = SimTime::from_ms(duration_ms);
    let generator = args.get_str("generator").unwrap_or("poisson");
    let (train, label) = match generator {
        "poisson" => {
            let rate = rate_arg(args, None)?;
            (
                PoissonGenerator::new(rate, 64, seed).generate(horizon),
                format!("poisson {rate} evt/s"),
            )
        }
        "lfsr" => {
            let rate = rate_arg(args, None)?;
            (LfsrGenerator::new(rate, seed as u32).generate(horizon), format!("lfsr {rate} evt/s"))
        }
        "word" => {
            use aetr_cochlea::model::{Cochlea, CochleaConfig};
            let cochlea = Cochlea::new(CochleaConfig::das1())?;
            (
                cochlea.process(&aetr_cochlea::word::fig7_word(16_000, seed)),
                "cochlea word".to_owned(),
            )
        }
        other => {
            return Err(Box::new(ArgsError::InvalidValue {
                flag: "generator".into(),
                value: other.into(),
                expected: "generator (poisson|lfsr|word)",
            }))
        }
    };
    let mut bytes = Vec::new();
    aedat::write_aedat(&train, &[&format!("aetr-cli record: {label}, seed {seed}")], &mut bytes)?;
    fs::write(path, &bytes)?;
    Ok(format!("recorded {} events ({label}) -> {path}", train.len()))
}

fn cmd_replay(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let path = args.positional.first().ok_or("replay needs a .aedat file argument")?;
    let bytes = fs::read(path)?;
    let train = aedat::read_aedat(&bytes[..])?;
    let horizon =
        train.last_time().unwrap_or(SimTime::ZERO).saturating_add(SimDuration::from_ms(1));
    let config = clock_config(args)?;
    Ok(format!(
        "replaying {path}: {} events over {}\n{}",
        train.len(),
        train.duration(),
        report_for(&config, &train, horizon)
    ))
}

fn cmd_sweep(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let points = points_arg(args, 9)?;
    let jobs = jobs_arg(args)?;
    let config = clock_config(args)?;
    let model = PowerModel::igloo_nano();
    // Each point is an independent simulation seeded by its index, so
    // the shards can run on worker threads; par_map returns rows in
    // input order, keeping the table bit-identical for any job count.
    let rates = log_space(100.0, 1e6, points);
    let rows = aetr_sim::par_map(jobs, &rates, |i, &rate| {
        let (train, horizon) = poisson_workload(rate, 10 + i as u64, 1_000);
        let out = quantize_train(&config, &train, horizon);
        let mean_err = mean_isi_error(&out);
        let sat = out.records.iter().filter(|r| r.saturated).count() as f64
            / out.records.len().max(1) as f64;
        let power = model.evaluate(&out.activity).total;
        vec![
            fmt_sig(rate),
            format!("{:.3}", mean_err * 100.0),
            format!("{:.1}", sat * 100.0),
            format!("{:.1}", power.as_microwatts()),
        ]
    });
    let mut table = Table::new(vec!["rate (evt/s)", "mean err %", "sat %", "power (uW)"]);
    for row in rows {
        table.row(row);
    }
    Ok(table.to_ascii())
}

fn cmd_faults(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    use aetr::campaign::{CampaignConfig, FaultCampaign, FaultSurface};
    use aetr::interface::InterfaceConfig;

    let points = points_arg(args, 7)?;
    let rate = rate_arg(args, Some(50_000.0))?;
    let duration_ms: u64 = args.get_or("duration-ms", 10, "integer")?;
    let seed: u64 = args.get_or("seed", 1, "integer")?;
    let lo: f64 = args.get_or("min-fault-rate", 1e-4, "number")?;
    let hi: f64 = args.get_or("max-fault-rate", 0.3, "number")?;
    if !(lo > 0.0 && lo < hi) {
        return Err(format!("fault-rate range needs 0 < min < max, got [{lo}, {hi}]").into());
    }
    let surface: FaultSurface = args
        .get_str("surface")
        .unwrap_or("all")
        .parse()
        .map_err(|e: String| -> Box<dyn Error> { e.into() })?;

    let config = CampaignConfig {
        interface: InterfaceConfig { clock: clock_config(args)?, ..InterfaceConfig::prototype() },
        event_rate_hz: rate,
        duration: SimDuration::from_ms(duration_ms),
        fault_seed: seed,
        surface,
        ..CampaignConfig::default()
    };
    let campaign = FaultCampaign::new(config)?;
    let result = campaign.run_with_jobs(&log_space(lo, hi, points), jobs_arg(args)?);

    let mut table = Table::new(vec![
        "fault rate",
        "accuracy %",
        "loss %",
        "power (uW)",
        "power ratio",
        "faults",
        "recovered",
        "degraded",
    ]);
    for p in &result.points {
        table.row(vec![
            fmt_sig(p.fault_rate),
            format!("{:.2}", p.accuracy * 100.0),
            format!("{:.2}", p.loss_ratio * 100.0),
            format!("{:.1}", p.power_uw),
            format!("{:.3}", p.power_ratio),
            p.health.faults_injected().to_string(),
            p.health.acks_recovered.to_string(),
            if p.health.degraded { "yes".into() } else { "no".into() },
        ]);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "baseline: accuracy {:.2}%, power {:.1} uW ({surface:?} faults, seed {seed})",
        result.baseline_accuracy * 100.0,
        result.baseline_power_uw,
    );
    text.push_str(&table.to_ascii());
    // Same metric names as an instrumented `aetr-cli telemetry` run
    // (`InterfaceHealthReport::metrics` is the single source of truth),
    // so dashboards built on either output work on both.
    if let Some(worst) = result.points.last() {
        let _ = writeln!(text, "health metrics at fault rate {}:", fmt_sig(worst.fault_rate));
        for (name, value) in worst.health.metrics() {
            let _ = writeln!(text, "  {name} {value}");
        }
    }
    Ok(text)
}

/// Shared workload for the instrumented commands (`telemetry`,
/// `lineage`, `explain`): one parameter surface, so an `explain`
/// re-run reproduces exactly the run a `lineage` export came from.
struct InstrumentedRun {
    config: aetr::interface::InterfaceConfig,
    train: SpikeTrain,
    horizon: SimTime,
    rate: f64,
    duration_ms: u64,
    seed: u64,
    cadence_us: u64,
    generator: String,
}

fn instrumented_run(args: &ParsedArgs) -> Result<InstrumentedRun, Box<dyn Error>> {
    use aetr::interface::InterfaceConfig;
    use aetr_aer::generator::BurstGenerator;

    let rate = rate_arg(args, Some(50_000.0))?;
    let duration_ms: u64 = args.get_or("duration-ms", 10, "integer")?;
    let seed: u64 = args.get_or("seed", 1, "integer")?;
    let cadence_us: u64 = args.get_or("cadence-us", 100, "integer")?;
    if cadence_us == 0 {
        return Err("--cadence-us must be positive".into());
    }
    let config = InterfaceConfig { clock: clock_config(args)?, ..InterfaceConfig::prototype() };
    let horizon = SimTime::from_ms(duration_ms);
    let generator = args.get_str("generator").unwrap_or("poisson").to_owned();
    let train = match generator.as_str() {
        "poisson" => PoissonGenerator::new(rate, 64, seed).generate(horizon),
        "burst" => BurstGenerator::new(
            rate,
            0.0,
            SimDuration::from_ms(1),
            SimDuration::from_ms(3),
            64,
            seed,
        )
        .generate(horizon),
        other => {
            return Err(Box::new(ArgsError::InvalidValue {
                flag: "generator".into(),
                value: other.into(),
                expected: "generator (poisson|burst)",
            }))
        }
    };
    Ok(InstrumentedRun { config, train, horizon, rate, duration_ms, seed, cadence_us, generator })
}

fn cmd_telemetry(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    use aetr::interface::{AerToI2sInterface, TelemetryConfig};
    use aetr_faults::FaultPlan;

    let w = instrumented_run(args)?;
    let interface = AerToI2sInterface::new(w.config)?;
    let report = interface.run_with_telemetry(
        &w.train,
        w.horizon,
        &FaultPlan::nominal(w.seed),
        &TelemetryConfig::with_cadence(SimDuration::from_us(w.cadence_us)),
    );
    let format = args.get_str("format").unwrap_or("json");
    let text = match format {
        "json" => report.telemetry.to_json().to_string(),
        "prometheus" => report.telemetry.to_prometheus(),
        "chrome-trace" => report.telemetry.to_chrome_trace_named(&format!(
            "aetr telemetry seed={} rate={} gen={}",
            w.seed,
            fmt_sig(w.rate),
            w.generator
        )),
        other => {
            return Err(Box::new(ArgsError::InvalidValue {
                flag: "format".into(),
                value: other.into(),
                expected: "format (json|prometheus|chrome-trace)",
            }))
        }
    };
    match args.get_str("out") {
        None => Ok(text),
        Some(out) => {
            fs::write(out, &text)?;
            let mut summary = format!("wrote {} bytes ({format}) -> {out}\n", text.len());
            let _ = writeln!(summary, "clock residency over {} ms:", w.duration_ms);
            for (state, d) in report.telemetry.clock_residency() {
                let _ = writeln!(summary, "  {state:<9} {d}");
            }
            Ok(summary)
        }
    }
}

/// Runs the instrumented workload with lineage collection on, for
/// `lineage` and `explain`.
fn lineage_report(
    args: &ParsedArgs,
    w: &InstrumentedRun,
) -> Result<aetr::interface::InterfaceReport, Box<dyn Error>> {
    use aetr::interface::{AerToI2sInterface, TelemetryConfig};
    use aetr_faults::FaultPlan;

    let interface = AerToI2sInterface::new(w.config)?.with_engine(engine_arg(args)?);
    let tel = TelemetryConfig::with_cadence(SimDuration::from_us(w.cadence_us)).with_lineage();
    Ok(interface.run_with_telemetry(&w.train, w.horizon, &FaultPlan::nominal(w.seed), &tel))
}

fn cmd_lineage(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    use aetr_telemetry::lineage::ErrorBudget;

    let w = instrumented_run(args)?;
    let report = lineage_report(args, &w)?;
    let log = &report.telemetry.lineage;
    let format = args.get_str("format").unwrap_or("jsonl");
    let text = match format {
        "jsonl" => log.to_jsonl(),
        "chrome-trace" => report.telemetry.to_chrome_trace_named(&format!(
            "aetr lineage seed={} rate={} gen={}",
            w.seed,
            fmt_sig(w.rate),
            w.generator
        )),
        other => {
            return Err(Box::new(ArgsError::InvalidValue {
                flag: "format".into(),
                value: other.into(),
                expected: "format (jsonl|chrome-trace)",
            }))
        }
    };
    match args.get_str("out") {
        None => Ok(text),
        Some(out) => {
            fs::write(out, &text)?;
            let mut summary = format!(
                "wrote {} lineage records ({format}, {} bytes) -> {out}\n",
                log.len(),
                text.len()
            );
            let t_min = w.config.clock.base_sampling_period();
            let budget = ErrorBudget::from_records(log.records(), t_min);
            summary.push_str(&budget.summary());
            let violations = budget.bound_violations(w.config.front_end.sync_stages);
            if violations.is_empty() {
                let _ = writeln!(
                    summary,
                    "all clean events within the analytic alignment budget \
                     ((sync+2)x(m_i+m_i-1) ticks)"
                );
            } else {
                let _ = writeln!(
                    summary,
                    "WARNING: {} clean event(s) exceed the analytic alignment budget: {:?}",
                    violations.len(),
                    violations
                );
            }
            Ok(summary)
        }
    }
}

fn cmd_explain(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    use aetr_telemetry::lineage::{decompose, DropCause};

    let index: u32 = args
        .positional
        .first()
        .ok_or("explain needs an <event-index> argument")?
        .parse()
        .map_err(|e| format!("event index: {e}"))?;
    let w = instrumented_run(args)?;
    let report = lineage_report(args, &w)?;
    let log = &report.telemetry.lineage;
    let Some(r) = log.get(index) else {
        return Err(match log.len() {
            0 => format!("event {index} out of range: this run captured no events"),
            n => {
                format!("event {index} out of range: this run captured {n} events (0..={})", n - 1)
            }
        }
        .into());
    };
    let prev = index.checked_sub(1).and_then(|p| log.get(p));
    let t_min = w.config.clock.base_sampling_period();
    let row = decompose(r, prev, t_min.as_ps());

    let us = |ps: u64| ps as f64 / 1e6;
    let ns = |ps: i128| ps as f64 / 1e3;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "event {index} of {} (address {}) — {}",
        log.len(),
        r.address,
        r.drop_cause.label()
    );
    let _ = writeln!(text, "  arrival   {:.6} us: sensor REQ rise", us(r.arrival.as_ps()));
    let _ = writeln!(
        text,
        "  detection {:.6} us: captured {:.3} us after arrival (synchroniser + grid \
         wait) at division level {} (period {} = {} x T_min {})",
        us(r.detection.as_ps()),
        us(r.detection.as_ps() - r.arrival.as_ps()),
        r.division_level,
        r.sampling_period,
        r.multiplier,
        t_min,
    );
    if r.woke {
        let _ = writeln!(
            text,
            "  wake      REQ restarted the ring oscillator from sleep; wake penalty {}",
            r.wake_penalty
        );
    } else {
        let _ = writeln!(text, "  wake      oscillator already running (no wake penalty)");
    }
    let _ = writeln!(
        text,
        "  timestamp {} ticks x T_min = {:.3} us measured interval \
         (quantization error {:+.3} ticks){}",
        r.timestamp_ticks,
        ns(row.measured_ps) / 1e3,
        r.quantization_error_ticks,
        if r.saturated { " — SATURATED: frozen/clamped counter, marker not measure" } else { "" },
    );
    match (r.ack_rise(), r.ack_latency()) {
        (Some(ack), Some(lat)) => {
            let _ = writeln!(
                text,
                "  handshake ACK rose at {:.6} us (latency {}, {} watchdog re-drive(s))",
                us(ack.as_ps()),
                lat,
                r.ack_retries
            );
        }
        _ => {
            let _ = writeln!(
                text,
                "  handshake aborted: ACK never completed ({} watchdog re-drive(s))",
                r.ack_retries
            );
        }
    }
    match (r.fifo_enqueue(), r.fifo_dequeue()) {
        (Some(enq), Some(deq)) => {
            let _ = writeln!(
                text,
                "  fifo      enqueued {:.6} us, left {:.6} us (residency {})",
                us(enq.as_ps()),
                us(deq.as_ps()),
                r.fifo_residency().unwrap_or_default()
            );
        }
        (Some(enq), None) => {
            let _ = writeln!(
                text,
                "  fifo      enqueued {:.6} us, still buffered at the horizon",
                us(enq.as_ps())
            );
        }
        _ => {
            let _ =
                writeln!(text, "  fifo      never stored (drop cause: {})", r.drop_cause.label());
        }
    }
    match (r.i2s_start(), r.i2s_end()) {
        (Some(start), Some(end)) => {
            let _ = writeln!(
                text,
                "  i2s       frame on the wire {:.6}-{:.6} us{}",
                us(start.as_ps()),
                us(end.as_ps()),
                match r.end_to_end_latency() {
                    Some(lat) => format!("; end-to-end latency {lat}"),
                    None => String::new(),
                }
            );
            if r.drop_cause == DropCause::FrameSlip {
                let _ = writeln!(
                    text,
                    "            but the receiver slipped this frame — the event was lost"
                );
            }
        }
        _ => {
            let _ = writeln!(text, "  i2s       never transmitted");
        }
    }
    let _ = writeln!(
        text,
        "  error     measured - true = {:+.3} ns, exactly attributed:",
        ns(row.error_ps)
    );
    let _ = writeln!(
        text,
        "            grid {:+.3} ns, wake {:+.3} ns, origin {:+.3} ns, saturation {:+.3} ns",
        ns(row.causes.grid_ps),
        ns(row.causes.wake_ps),
        ns(row.causes.origin_ps),
        ns(row.causes.saturation_ps),
    );
    Ok(text)
}

fn cmd_validate(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    use aetr_telemetry::json;

    let path = args.positional.first().ok_or("validate needs a .json file argument")?;
    let schema_path =
        args.get_str("schema").ok_or("validate needs --schema <schema.json>")?.to_owned();
    let jsonl: bool = args.get_or("jsonl", false, "boolean")?;
    let text = fs::read_to_string(path)?;
    let schema = json::parse(&fs::read_to_string(&schema_path)?)
        .map_err(|e| format!("{schema_path}: {e}"))?;
    // Line-delimited mode (`--jsonl true`): the schema describes one
    // record; every non-empty line must parse and validate, and the
    // violation report carries 1-based line numbers.
    if jsonl {
        let mut violations = Vec::new();
        let mut lines = 0usize;
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            lines += 1;
            match json::parse(line) {
                Err(e) => violations.push(format!("line {}: {e}", n + 1)),
                Ok(doc) => violations.extend(
                    json::validate(&doc, &schema)
                        .into_iter()
                        .map(|v| format!("line {}: {v}", n + 1)),
                ),
            }
        }
        return if violations.is_empty() {
            Ok(format!("{path}: {lines} JSONL record(s) valid against {schema_path}"))
        } else {
            Err(format!(
                "{path}: {} schema violation(s):\n  {}",
                violations.len(),
                violations.join("\n  ")
            )
            .into())
        };
    }
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let violations = json::validate(&doc, &schema);
    if violations.is_empty() {
        Ok(format!("{path}: valid against {schema_path}"))
    } else {
        Err(format!(
            "{path}: {} schema violation(s):\n  {}",
            violations.len(),
            violations.join("\n  ")
        )
        .into())
    }
}

fn cmd_waveform(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let theta: u32 = args.get_or("theta", 8, "integer")?;
    let ndiv: u32 = args.get_or("ndiv", 3, "integer")?;
    let config = ClockGenConfig::prototype().with_theta_div(theta).with_n_div(ndiv);
    config.validate()?;
    let wave = record_waveform(&config, &[], SimTime::from_ms(1));
    let mut vcd = Vec::new();
    aetr_sim::vcd::write_vcd(&wave.tracer, &mut vcd)?;
    let out = args.get_str("out").unwrap_or("aetr_waveform.vcd");
    fs::write(out, &vcd)?;
    Ok(format!(
        "recorded {} clock edges, {} divisions, {} shutdowns -> {out}",
        wave.rising_edges().len(),
        wave.divisions.len(),
        wave.shutdowns.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, Box<dyn Error>> {
        run(&ParsedArgs::parse(line.iter().map(|s| s.to_string())).expect("parse"))
    }

    #[test]
    fn quantize_reports_accuracy_and_power() {
        let text = run_line(&["quantize", "--rate", "100000", "--duration-ms", "50"]).unwrap();
        assert!(text.contains("mean relative timestamp error"), "{text}");
        assert!(text.contains("average power"), "{text}");
        assert!(text.contains("theta_div=64"), "{text}");
    }

    #[test]
    fn quantize_honours_policy_and_generator() {
        let text = run_line(&[
            "quantize",
            "--rate",
            "50000",
            "--policy",
            "never",
            "--generator",
            "lfsr",
            "--duration-ms",
            "20",
        ])
        .unwrap();
        assert!(text.contains("policy=no-division"), "{text}");
        assert!(text.contains("(lfsr)"), "{text}");
    }

    #[test]
    fn sweep_produces_a_table() {
        let text = run_line(&["sweep", "--points", "4"]).unwrap();
        assert!(text.contains("rate (evt/s)"));
        assert_eq!(text.lines().count(), 6, "{text}"); // header + rule + 4 rows
    }

    #[test]
    fn faults_sweep_reports_degradation_curve() {
        let text = run_line(&[
            "faults",
            "--points",
            "3",
            "--rate",
            "30000",
            "--duration-ms",
            "5",
            "--max-fault-rate",
            "0.2",
        ])
        .unwrap();
        assert!(text.contains("baseline: accuracy"), "{text}");
        assert!(text.contains("fault rate"), "{text}");
        // baseline + header + rule + 3 rows + metrics header + 19
        // `interface.health.*` lines (shared with `telemetry` runs).
        assert_eq!(text.lines().count(), 26, "{text}");
        assert!(text.contains("interface.health.lost_acks"), "{text}");
        // Deterministic: running the identical line again reproduces it.
        let again = run_line(&[
            "faults",
            "--points",
            "3",
            "--rate",
            "30000",
            "--duration-ms",
            "5",
            "--max-fault-rate",
            "0.2",
        ])
        .unwrap();
        assert_eq!(text, again);
    }

    #[test]
    fn faults_with_jobs_is_byte_identical_to_sequential() {
        let line = |jobs: &str| {
            run_line(&[
                "faults",
                "--points",
                "4",
                "--rate",
                "30000",
                "--duration-ms",
                "5",
                "--max-fault-rate",
                "0.2",
                "--jobs",
                jobs,
            ])
            .unwrap()
        };
        let sequential = line("1");
        assert_eq!(line("4"), sequential, "--jobs 4 must not change a single byte");
        assert_eq!(line("0"), sequential, "--jobs 0 (all cores) must not either");
    }

    #[test]
    fn sweep_with_jobs_is_byte_identical_to_sequential() {
        let sequential = run_line(&["sweep", "--points", "5"]).unwrap();
        let parallel = run_line(&["sweep", "--points", "5", "--jobs", "3"]).unwrap();
        assert_eq!(parallel, sequential);
    }

    /// `--points 0|1` after `line` is a one-line error naming the flag,
    /// not a silent clamp to 2.
    fn assert_too_few_points_rejected(line: &[&str]) {
        for bad in ["0", "1"] {
            let full: Vec<&str> = line.iter().copied().chain(["--points", bad]).collect();
            let err = run_line(&full).unwrap_err().to_string();
            assert!(err.starts_with("--points") && !err.contains('\n'), "{full:?}: {err}");
        }
    }

    #[test]
    fn sweep_rejects_too_few_points() {
        assert_too_few_points_rejected(&["sweep"]);
    }

    #[test]
    fn faults_rejects_too_few_points() {
        assert_too_few_points_rejected(&["faults"]);
    }

    #[test]
    fn faults_rejects_unknown_surface() {
        let err = run_line(&["faults", "--surface", "cosmic"]).unwrap_err();
        assert!(err.to_string().contains("cosmic"), "{err}");
    }

    #[test]
    fn faults_rejects_inverted_rate_range() {
        let err = run_line(&["faults", "--min-fault-rate", "0.5", "--max-fault-rate", "0.001"])
            .unwrap_err();
        assert!(err.to_string().contains("0 < min < max"), "{err}");
    }

    #[test]
    fn replay_roundtrips_an_aedat_file() {
        let train = PoissonGenerator::new(20_000.0, 64, 9).generate(SimTime::from_ms(50));
        let mut bytes = Vec::new();
        aedat::write_aedat(&train, &["cli test"], &mut bytes).unwrap();
        let dir = std::env::temp_dir().join("aetr_cli_test.aedat");
        fs::write(&dir, &bytes).unwrap();
        let text = run_line(&["replay", dir.to_str().unwrap(), "--theta", "32"]).unwrap();
        assert!(text.contains("replaying"), "{text}");
        assert!(text.contains("theta_div=32"), "{text}");
        let _ = fs::remove_file(dir);
    }

    fn schema_path() -> String {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/telemetry.schema.json").to_owned()
    }

    #[test]
    fn telemetry_emits_schema_valid_json() {
        use aetr_telemetry::json;
        let text = run_line(&["telemetry", "--rate", "50000", "--duration-ms", "5"]).unwrap();
        let doc = json::parse(&text).expect("telemetry output parses as JSON");
        let schema = json::parse(&fs::read_to_string(schema_path()).unwrap()).unwrap();
        assert!(json::validate(&doc, &schema).is_empty());
        assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some());
    }

    #[test]
    fn telemetry_prometheus_and_chrome_trace_formats() {
        let prom =
            run_line(&["telemetry", "--duration-ms", "5", "--format", "prometheus"]).unwrap();
        assert!(prom.contains("# TYPE interface_events_captured counter"), "{prom}");
        let trace =
            run_line(&["telemetry", "--duration-ms", "5", "--format", "chrome-trace"]).unwrap();
        let doc = aetr_telemetry::json::parse(&trace).expect("chrome trace parses");
        assert!(doc.get("traceEvents").and_then(|e| e.as_array()).is_some());
        let err = run_line(&["telemetry", "--format", "yaml"]).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
    }

    #[test]
    fn telemetry_out_reports_clock_residency() {
        let out = std::env::temp_dir().join("aetr_cli_telemetry.json");
        let text = run_line(&[
            "telemetry",
            "--generator",
            "burst",
            "--rate",
            "200000",
            "--duration-ms",
            "10",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("clock residency"), "{text}");
        assert!(text.contains("sleep"), "{text}");
        assert!(fs::read_to_string(&out).unwrap().starts_with('{'));
        let _ = fs::remove_file(out);
    }

    #[test]
    fn validate_accepts_telemetry_output_and_rejects_garbage() {
        let out = std::env::temp_dir().join("aetr_cli_validate.json");
        let p = out.to_str().unwrap().to_owned();
        run_line(&["telemetry", "--duration-ms", "5", "--out", &p]).unwrap();
        let text = run_line(&["validate", &p, "--schema", &schema_path()]).unwrap();
        assert!(text.contains("valid against"), "{text}");
        fs::write(&out, "{\"version\": \"nope\"}").unwrap();
        let err = run_line(&["validate", &p, "--schema", &schema_path()]).unwrap_err();
        assert!(err.to_string().contains("schema violation"), "{err}");
        let _ = fs::remove_file(out);
    }

    fn lineage_schema_path() -> String {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/lineage.schema.json").to_owned()
    }

    #[test]
    fn lineage_jsonl_validates_per_line_and_explain_narrates() {
        let out = std::env::temp_dir().join("aetr_cli_lineage.jsonl");
        let p = out.to_str().unwrap().to_owned();
        let line = ["lineage", "--rate", "50000", "--duration-ms", "5", "--out", &p];
        let summary = run_line(&line).unwrap();
        assert!(summary.contains("lineage records"), "{summary}");
        assert!(summary.contains("error budget over"), "{summary}");
        assert!(summary.contains("by cause: grid"), "{summary}");
        assert!(
            summary.contains("within the analytic alignment budget"),
            "fault-free run must satisfy the bound: {summary}"
        );
        let text =
            run_line(&["validate", &p, "--schema", &lineage_schema_path(), "--jsonl", "true"])
                .unwrap();
        assert!(text.contains("valid against"), "{text}");

        // Without --out, the raw JSONL streams to stdout; every line is
        // an object and the count matches the captured events.
        let raw = run_line(&["lineage", "--rate", "50000", "--duration-ms", "5"]).unwrap();
        let n = raw.lines().count();
        assert!(n > 10, "expected a few hundred events, got {n}");
        assert!(raw.lines().all(|l| l.starts_with('{')), "JSONL objects only");

        // explain re-runs the same workload deterministically and
        // narrates one event end to end.
        let story = run_line(&["explain", "7", "--rate", "50000", "--duration-ms", "5"]).unwrap();
        assert!(story.starts_with("event 7 of"), "{story}");
        assert!(story.contains("arrival"), "{story}");
        assert!(story.contains("division level"), "{story}");
        assert!(story.contains("exactly attributed"), "{story}");
        let _ = fs::remove_file(out);
    }

    #[test]
    fn lineage_chrome_trace_joins_flows_to_spans() {
        use aetr_telemetry::json::Json;
        let trace = run_line(&[
            "lineage",
            "--rate",
            "20000",
            "--duration-ms",
            "5",
            "--format",
            "chrome-trace",
        ])
        .unwrap();
        let doc = aetr_telemetry::json::parse(&trace).expect("trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_owned);
        assert!(events.iter().any(|e| ph(e).as_deref() == Some("s")), "flow starts present");
        assert!(events.iter().any(|e| ph(e).as_deref() == Some("f")), "flow finishes present");
        let meta: Vec<&Json> = events.iter().filter(|e| ph(e).as_deref() == Some("M")).collect();
        assert!(
            meta.iter().any(|e| {
                e.get("name").and_then(Json::as_str) == Some("process_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.contains("aetr lineage"))
            }),
            "labelled process metadata present"
        );
    }

    #[test]
    fn explain_rejects_out_of_range_and_junk_indices() {
        let err =
            run_line(&["explain", "999999", "--rate", "1000", "--duration-ms", "2"]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = run_line(&["explain", "0", "--rate", "1", "--duration-ms", "1"]).unwrap_err();
        assert!(err.to_string().ends_with("this run captured no events"), "{err}");
        let err = run_line(&["explain", "seven"]).unwrap_err();
        assert!(err.to_string().contains("event index"), "{err}");
        let err = run_line(&["explain"]).unwrap_err();
        assert!(err.to_string().contains("event-index"), "{err}");
    }

    #[test]
    fn validate_jsonl_reports_line_numbers() {
        let out = std::env::temp_dir().join("aetr_cli_bad.jsonl");
        let p = out.to_str().unwrap().to_owned();
        fs::write(&out, "{\"index\": 0}\nnot json\n").unwrap();
        let err =
            run_line(&["validate", &p, "--schema", &lineage_schema_path(), "--jsonl", "true"])
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "missing required fields on line 1: {msg}");
        assert!(msg.contains("line 2"), "parse failure on line 2: {msg}");
        let _ = fs::remove_file(out);
    }

    #[test]
    fn waveform_writes_vcd() {
        let out = std::env::temp_dir().join("aetr_cli_test.vcd");
        let text = run_line(&["waveform", "--out", out.to_str().unwrap()]).unwrap();
        assert!(text.contains("divisions"), "{text}");
        let vcd = fs::read_to_string(&out).unwrap();
        assert!(vcd.contains("$timescale"));
        let _ = fs::remove_file(out);
    }

    #[test]
    fn record_then_replay_roundtrip() {
        let path = std::env::temp_dir().join("aetr_cli_record.aedat");
        let p = path.to_str().unwrap();
        let text = run_line(&["record", p, "--rate", "30000", "--duration-ms", "40"]).unwrap();
        assert!(text.contains("recorded"), "{text}");
        let text = run_line(&["replay", p]).unwrap();
        assert!(text.contains("replaying"), "{text}");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn record_word_generator() {
        let path = std::env::temp_dir().join("aetr_cli_word.aedat");
        let p = path.to_str().unwrap();
        let text = run_line(&["record", p, "--generator", "word"]).unwrap();
        assert!(text.contains("cochlea word"), "{text}");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn full_des_run_reports_everything() {
        let text = run_line(&["run", "--rate", "100000", "--duration-ms", "5"]).unwrap();
        assert!(text.contains("power:"), "{text}");
        assert!(text.contains("latency:"), "{text}");
        assert!(text.contains("i2s:"), "{text}");
    }

    #[test]
    fn run_engines_agree_and_bad_engine_errors() {
        let line = |engine: &str| {
            run_line(&["run", "--rate", "2000", "--duration-ms", "20", "--engine", engine]).unwrap()
        };
        assert_eq!(line("fast-forward"), line("per-tick"), "engines must report identically");
        let err = run_line(&["run", "--rate", "2000", "--engine", "warp"]).unwrap_err();
        assert!(err.to_string().contains("engine"), "{err}");
    }

    #[test]
    fn resources_prints_the_table() {
        let text = run_line(&["resources"]).unwrap();
        assert!(text.contains("IGLOOnano"));
    }

    #[test]
    fn unknown_command_yields_usage() {
        let err = run_line(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
        let err = run_line(&[]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn invalid_policy_is_a_clean_error() {
        let err = run_line(&["quantize", "--rate", "1000", "--policy", "warp"]).unwrap_err();
        assert!(err.to_string().contains("policy"), "{err}");
    }

    /// `--rate 0|-5|nan` after `line` is a one-line error naming the
    /// flag, not a generator panic.
    fn assert_bad_rates_rejected(line: &[&str]) {
        for bad in ["0", "-5", "nan"] {
            let full: Vec<&str> = line.iter().copied().chain(["--rate", bad]).collect();
            let err = run_line(&full).unwrap_err().to_string();
            assert!(err.starts_with("--rate") && !err.contains('\n'), "{full:?}: {err}");
        }
    }

    #[test]
    fn run_rejects_bad_rates() {
        assert_bad_rates_rejected(&["run"]);
    }

    #[test]
    fn quantize_rejects_bad_rates() {
        assert_bad_rates_rejected(&["quantize"]);
    }

    #[test]
    fn record_rejects_bad_rates() {
        let path = std::env::temp_dir().join("aetr_cli_bad_rate.aedat");
        let path = path.to_str().unwrap();
        assert_bad_rates_rejected(&["record", path]);
        assert_bad_rates_rejected(&["record", path, "--generator", "lfsr"]);
    }

    #[test]
    fn faults_rejects_bad_rates() {
        assert_bad_rates_rejected(&["faults"]);
    }

    #[test]
    fn telemetry_rejects_bad_rates() {
        assert_bad_rates_rejected(&["telemetry"]);
    }

    #[test]
    fn lineage_rejects_bad_rates() {
        assert_bad_rates_rejected(&["lineage"]);
    }

    #[test]
    fn explain_rejects_bad_rates() {
        assert_bad_rates_rejected(&["explain", "0"]);
    }

    #[test]
    fn invalid_clock_config_is_rejected() {
        let err = run_line(&["quantize", "--rate", "1000", "--theta", "1"]).unwrap_err();
        assert!(err.to_string().contains("theta"), "{err}");
    }
}
