//! The repository benchmark.
//!
//! One process runs one named workload as a closed loop for a fixed
//! host time and reports its end-to-end metrics (`--trace 0`) or its
//! per-layer metrics from a traced run (`--trace 1`), checking every
//! operation's output on the way. See `README.md` next to this crate
//! for the workloads, the metrics and which layer metric should move
//! which end-to-end metric.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

pub mod checks;
pub mod stats;
pub mod trace;
pub mod workloads;

use checks::Checks;
use trace::TraceLog;
use workloads::cochlea_keyword::CochleaKeyword;
use workloads::dense_stream::DenseStream;
use workloads::fault_campaign::FaultCampaignWorkload;
use workloads::sparse_fleet::SparseFleet;
use workloads::{JobStat, Round, Workload};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// One long 400 kevt/s run.
    DenseStream,
    /// Thousands of sparse 1 s jobs over `par_map`.
    SparseFleet,
    /// Keyword utterances through cochlea, lineage and classifier.
    CochleaKeyword,
    /// Fault-rate sweeps with recovery armed.
    FaultCampaign,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::DenseStream,
        WorkloadName::SparseFleet,
        WorkloadName::CochleaKeyword,
        WorkloadName::FaultCampaign,
    ];

    /// The workload's name.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::DenseStream => "dense_stream",
            WorkloadName::SparseFleet => "sparse_fleet",
            WorkloadName::CochleaKeyword => "cochlea_keyword",
            WorkloadName::FaultCampaign => "fault_campaign",
        }
    }
}

impl FromStr for WorkloadName {
    type Err = String;

    fn from_str(s: &str) -> Result<WorkloadName, String> {
        WorkloadName::ALL
            .into_iter()
            .find(|w| w.as_str() == s)
            .ok_or_else(|| format!("unknown workload '{s}'"))
    }
}

/// How to run the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload to run.
    pub workload: WorkloadName,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub quick: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one benchmark run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output checks over every operation.
    pub checks: Checks,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Fewest rounds a run measures, per mode.
const MIN_ROUNDS: usize = 3;
/// Spans kept verbatim for the Chrome trace.
const KEEP_SPANS: usize = 50_000;

/// Runs the benchmark. `process_start` is when the process started:
/// set-up is timed from it.
pub fn run(opts: &Options, process_start: Instant) -> Outcome {
    match opts.workload {
        WorkloadName::DenseStream => drive::<DenseStream>(opts, process_start),
        WorkloadName::SparseFleet => drive::<SparseFleet>(opts, process_start),
        WorkloadName::CochleaKeyword => drive::<CochleaKeyword>(opts, process_start),
        WorkloadName::FaultCampaign => drive::<FaultCampaignWorkload>(opts, process_start),
    }
}

fn drive<W: Workload>(opts: &Options, process_start: Instant) -> Outcome {
    // Set-up runs from process start to the end of planning the jobs.
    // Nothing runs between it and the first timed round: no untimed
    // warm-up, so lazy start-up in any layer lands in the measured loop.
    let w = W::plan(opts);
    let setup_s = process_start.elapsed().as_secs_f64();
    let mut peak_rss_mb = 0.0;

    // Closed loop; in trace mode untraced and traced rounds alternate so
    // both see the same machine conditions.
    let epoch = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut log = TraceLog::new(KEEP_SPANS);
    let mut next_job = 0;
    loop {
        let trace_this = opts.trace && traced.len() < plain.len();
        let mut round = w.round(trace_this.then_some((epoch, next_job)));
        next_job += round.tasks.len() as u64 + 1;
        if trace_this {
            log.absorb(std::mem::take(&mut round.spans));
            traced.push(round);
        } else {
            plain.push(round);
            // Read after the first round, before the per-round bookkeeping
            // grows with the number of rounds (and so with the program's
            // speed).
            if plain.len() == 1 {
                peak_rss_mb = peak_rss_mb_now();
            }
        }
        let enough = plain.len() >= MIN_ROUNDS && (!opts.trace || traced.len() >= MIN_ROUNDS);
        if enough && epoch.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let mut checks = Checks::default();
    let first = &plain[0];
    for r in plain.iter().chain(&traced) {
        checks.merge(&r.checks);
    }
    for r in plain.iter().chain(&traced).skip(1) {
        checks.record(
            "round.repeats_first_round",
            r.digest == first.digest && r.job_digests == first.job_digests && r.sim == first.sim,
        );
    }
    let digest = w.verify(first, &mut checks);

    let name = opts.workload.as_str();
    let mut notes = vec![
        format!(
            "workload {name}: seed {}, {} worker(s), {} round(s) of {} job(s), {} traced round(s)",
            opts.seed,
            first.workers,
            plain.len(),
            first.jobs.len(),
            traced.len()
        ),
        format!("digest {name} seed {}: {digest}", opts.seed),
    ];
    notes.extend(checks.failures.iter().map(|f| format!("FAILED check: {f}")));
    let metrics = if opts.trace {
        let probe = w.probe();
        let dir = &opts.trace_dir;
        let path = dir.join(format!("trace-{name}-seed{}.json", opts.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, log.to_chrome_trace(name)));
        notes.push(match written {
            Ok(()) => format!("chrome trace: {}", path.display()),
            Err(e) => format!("chrome trace not written ({}): {e}", path.display()),
        });
        per_layer(&plain, &traced, &log, probe)
    } else {
        let (metrics, tail) = end_to_end(&plain, setup_s, peak_rss_mb, W::TAIL_PCT);
        notes.push(format!(
            "job_tail_ms is p{} of {} jobs ({} beyond it)",
            tail.pct, tail.samples, tail.beyond
        ));
        notes.push(format!(
            "benchmark checks inside the timed rounds: {:.2}% of worker time",
            100.0 * settle_share(&plain)
        ));
        metrics
    };
    Outcome { checks, metrics, notes }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host time a window of consecutive rounds spans at least, s.
const WINDOW_S: f64 = 1.0;
/// Share of windows, quietest first, the host-time metrics are read from.
const QUIET_SHARE: f64 = 0.25;

/// Indices of the rounds in the quietest windows of the run.
///
/// On a shared host, interference from other tenants only ever adds
/// time and comes in spells lasting seconds, during which this
/// simulator runs up to 1.5x slower. So the run is cut into windows of
/// consecutive rounds (at least [`WINDOW_S`] each), and the typical
/// host-time metrics (round wall time, throughput, job latency) are read
/// from the [`QUIET_SHARE`] of windows with the lowest mean round time.
/// Windows are chosen by their mean, never by a single job. The job
/// tail is read from the same windows, so it shows how the jobs' own
/// work varies rather than how often other tenants interrupted the run.
fn quiet_rounds(rounds: &[Round]) -> Vec<usize> {
    let mut windows: Vec<Range<usize>> = Vec::new();
    let (mut start, mut span) = (0, 0.0);
    for (i, r) in rounds.iter().enumerate() {
        span += r.wall_s;
        if span >= WINDOW_S {
            windows.push(start..i + 1);
            (start, span) = (i + 1, 0.0);
        }
    }
    // A short trailing window joins the one before it.
    match windows.last_mut() {
        Some(last) => last.end = rounds.len(),
        None => windows.push(0..rounds.len()),
    }
    let mean =
        |w: &Range<usize>| rounds[w.clone()].iter().map(|r| r.wall_s).sum::<f64>() / w.len() as f64;
    windows.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let keep = ((windows.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    windows.into_iter().take(keep).flatten().collect()
}

fn end_to_end(
    rounds: &[Round],
    setup_s: f64,
    peak_rss_mb: f64,
    tail_pct: f64,
) -> (Vec<Metric>, stats::Tail) {
    let quiet = quiet_rounds(rounds);
    let wall_s = stats::median(&quiet.iter().map(|&i| rounds[i].wall_s).collect::<Vec<_>>());
    let latencies: Vec<f64> =
        quiet.iter().flat_map(|&i| rounds[i].jobs.iter().map(JobStat::latency_s)).collect();
    let tail = stats::tail(&latencies, tail_pct);
    // Every round does the same work, so throughput is the first round's
    // work over the median round time (a mean would let one slow round
    // in a quiet window move it).
    let first = &rounds[0];
    let sim = &first.sim;
    let runs = sim.runs as f64;
    let metrics = vec![
        metric("wall_s", "s", wall_s),
        metric("sim_events_per_s", "1/s", first.events as f64 / wall_s),
        metric("jobs_per_s", "1/s", first.jobs.len() as f64 / wall_s),
        metric("job_p50_ms", "ms", stats::median(&latencies) * 1e3),
        metric("job_tail_ms", "ms", tail.value * 1e3),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("sim_power_uw", "uW", ratio(sim.power_uw, runs)),
        metric("isi_accuracy", "ratio", ratio(sim.accuracy, runs)),
        metric("delivered_ratio", "ratio", ratio(sim.received as f64, sim.sent as f64)),
    ];
    (metrics, tail)
}

/// Host time the benchmark's own checks took inside the rounds' timers,
/// as a share of the rounds' worker time.
fn settle_share(rounds: &[Round]) -> f64 {
    let settle_s: f64 = rounds.iter().map(|r| r.settle_s).sum();
    ratio(settle_s, rounds.iter().map(|r| r.wall_s * r.workers as f64).sum())
}

/// Σ task time over (wall × workers), and the time between the first
/// and the last worker of a `par_map` call going idle, summed over the
/// round's calls; both averaged over rounds.
fn parallel_stats(rounds: &[Round]) -> (f64, f64) {
    let (mut busy, mut tail) = (0.0, 0.0);
    for r in rounds {
        let task_s: f64 = r.tasks.iter().map(JobStat::latency_s).sum();
        busy += ratio(task_s, r.wall_s * r.workers as f64);
        for batch in &r.batches {
            let mut last_end = std::collections::BTreeMap::new();
            for t in &r.tasks[batch.clone()] {
                let end = last_end.entry(t.tid).or_insert(t.end_s);
                *end = end.max(t.end_s);
            }
            if last_end.len() > 1 {
                let ends = last_end.values();
                tail += ends.clone().fold(f64::MIN, |a, &b| a.max(b))
                    - ends.fold(f64::MAX, |a, &b| a.min(b));
            }
        }
    }
    let n = rounds.len() as f64;
    (busy / n, tail / n)
}

fn per_layer(
    plain: &[Round],
    traced: &[Round],
    log: &TraceLog,
    probe: workloads::Counts,
) -> Vec<Metric> {
    let n = traced.len() as f64;
    let per_round = |span: &str| log.self_s(span) / n;
    let mut c = traced[0].counts;
    c.add(&probe);
    let sim = &traced[0].sim;
    let lineage_record_s = traced.iter().map(|r| r.lineage_record_s).sum::<f64>() / n;
    let interface_s = per_round("interface.run")
        + per_round("interface.run_with_telemetry")
        + per_round("interface.run_with_faults");
    let (busy_frac, tail_s) = parallel_stats(traced);
    let wall =
        |rounds: &[Round]| stats::median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let count = |v: u64| v as f64;
    vec![
        metric("aer.generate_s", "s", per_round("aer.generate")),
        metric("aer.spikes", "count", count(c.spikes)),
        metric("interface.run_s", "s", interface_s),
        metric("interface.ns_per_event", "ns", ratio(interface_s * 1e9, traced[0].events as f64)),
        metric("interface.captured", "count", count(c.captured)),
        metric("interface.wakes", "count", count(c.wakes)),
        metric("queue.ops", "count", count(c.queue_ops)),
        metric("queue.ops_per_event", "ratio", ratio(count(c.queue_ops), count(c.captured))),
        metric("fifo.dropped", "count", count(c.fifo_dropped)),
        metric("fifo.high_watermark", "events", count(c.fifo_high_watermark)),
        metric("i2s.frames", "count", count(c.i2s_frames)),
        metric("clockgen.divisions", "count", count(c.divisions)),
        metric("clockgen.shutdowns", "count", count(c.shutdowns)),
        metric("clockgen.sleep_frac", "ratio", ratio(count(c.sleep_ps), count(c.clock_ps))),
        metric("mcu.receive_s", "s", per_round("mcu.receive")),
        metric("mcu.compare_s", "s", per_round("mcu.compare")),
        metric("cochlea.synth_s", "s", per_round("cochlea.synth")),
        metric("cochlea.process_s", "s", per_round("cochlea.process")),
        metric("cochlea.spikes", "count", count(c.cochlea_spikes)),
        metric("lineage.record_s", "s", lineage_record_s),
        metric("lineage.budget_s", "s", per_round("lineage.budget")),
        metric("lineage.records", "count", count(c.lineage_records)),
        metric("lineage.bound_violations", "count", count(c.bound_violations)),
        metric("apps.features_s", "s", per_round("apps.features")),
        metric("apps.fit_s", "s", per_round("apps.fit")),
        metric("apps.classify_s", "s", per_round("apps.classify")),
        metric(
            "apps.keyword_accuracy",
            "ratio",
            ratio(sim.keyword_correct as f64, sim.keyword_total as f64),
        ),
        metric("faults.run_s", "s", per_round("interface.run_with_faults")),
        metric("faults.injected", "count", count(c.faults_injected)),
        metric("faults.retries", "count", count(c.retries)),
        metric(
            "faults.recovered_frac",
            "ratio",
            ratio(count(c.acks_recovered), count(c.lost_acks)),
        ),
        metric("parallel.busy_frac", "ratio", busy_frac),
        metric("parallel.tail_s", "s", tail_s),
        metric("trace.overhead_frac", "ratio", wall(traced) / wall(plain) - 1.0),
    ]
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
fn peak_rss_mb_now() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
