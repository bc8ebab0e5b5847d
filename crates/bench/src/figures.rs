//! The paper's evaluation: Figs. 2, 6, 7 and 8 and the implementation
//! table.

use std::collections::HashSet;
use std::fmt::Write as _;

use aetr::quantizer::{isi_error_samples, quantize_train};
use aetr::resources::UtilizationReport;
use aetr_aer::handshake::CAVIAR_EVENT_BUDGET;
use aetr_aer::rate::sliding_window_rate;
use aetr_aer::spike::SpikeTrain;
use aetr_analysis::error_stats::classify_region;
use aetr_analysis::fit::LinearFit;
use aetr_analysis::histogram::{Binning, Histogram};
use aetr_analysis::plot::{AsciiPlot, Scale};
use aetr_analysis::sweep::{lfsr_workload, log_space, poisson_workload};
use aetr_analysis::table::{fmt_sig, Table};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::schedule::record_waveform;
use aetr_clockgen::segments::SegmentTable;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::fig7_word;
use aetr_power::ideal::IdealModel;
use aetr_power::model::PowerModel;
use aetr_power::units::Power;
use aetr_sim::time::{SimDuration, SimTime};

use crate::{banner, isi_summary, Artifact, Claim, Experiment};

/// Figure 2 — the recursively divided sampling clock waveform.
///
/// Reproduces the illustrative waveform with `θ_div = 8`, `N_div = 3`:
/// eight ticks at `T_min`, eight at `2·T_min`, eight at `4·T_min`,
/// eight at `8·T_min`, then clock shutdown; a later AER request wakes
/// the oscillator and resets the division. The full trace is written
/// as a VCD file viewable in GTKWave.
pub fn fig2_waveform() -> Experiment {
    let mut out = String::new();
    banner(&mut out, "Figure 2", "AER sampling clock with N_div = 3, theta_div = 8", 0);

    let config = ClockGenConfig::prototype().with_theta_div(8).with_n_div(3);
    let base = config.base_sampling_period();
    let _ = writeln!(out, "T_min = {base} (reference clock {})", config.reference_frequency());

    // Idle run-down followed by a wake-up request at 50 µs.
    let wave = record_waveform(&config, &[SimTime::from_us(50)], SimTime::from_us(80));

    let _ = writeln!(out, "\nrising edges and their spacing:");
    let edges = wave.rising_edges();
    for (i, pair) in edges.windows(2).enumerate() {
        let gap = pair[1] - pair[0];
        let mult = gap.as_ps() / base.as_ps();
        let _ = writeln!(out, "  tick {:>2} -> {:>2}: gap {gap} ({}x T_min)", i, i + 1, mult);
    }

    let _ = writeln!(out, "\ndivisions:");
    for &(t, m) in &wave.divisions {
        let _ = writeln!(out, "  {t}: period -> {m}x T_min");
    }
    let shutdowns: Vec<String> = wave.shutdowns.iter().map(ToString::to_string).collect();
    let samples: Vec<String> = wave.samples.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "shutdowns: {shutdowns:?}");
    let _ = writeln!(out, "samples:   {samples:?}");

    // The run-down before the first shutdown, as the paper draws it.
    let first_off = wave.shutdowns[0];
    let rundown: Vec<String> =
        wave.divisions.iter().take_while(|d| d.0 < first_off).map(|d| d.1.to_string()).collect();
    let rundown = rundown.join(", ");
    let ticks = edges.iter().filter(|&&t| t <= first_off).count();
    let claims = vec![
        Claim::new("division sequence (θ=8, N=3)", "2, 4, 8", &rundown, rundown == "2, 4, 8"),
        Claim::new("rising edges up to shutdown", "θ·(N+1) = 32", ticks, ticks == 32),
    ];

    let mut vcd = Vec::new();
    aetr_sim::vcd::write_vcd(&wave.tracer, &mut vcd).expect("in-memory write cannot fail");
    let contents = String::from_utf8(vcd).expect("VCD is ASCII");
    Experiment { text: out, artifact: Artifact { name: "fig2_waveform.vcd", contents }, claims }
}

/// Figure 6 — average relative timestamp error vs event rate.
///
/// Reproduces: Poisson spike streams swept from 100 evt/s to 2 Mevt/s,
/// one curve per `θ_div ∈ {16, 32, 64}`, average relative error of the
/// AER→AETR conversion on a log–log plot, with the three operating
/// regions (inactive / active / high-activity) annotated.
///
/// Paper expectation: error ≈ 1 in the inactive region, oscillating
/// well below the analytic `~1/θ_div` bound in the active region
/// (< 3 %), rising again near the Nyquist limit of the undivided
/// sampling clock.
pub fn fig6_error() -> Experiment {
    const SEED: u64 = 0xF166;
    const MIN_EVENTS: u64 = 3_000;
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 6",
        "average relative timestamp error vs event rate (Poisson, θ ∈ {16,32,64})",
        SEED,
    );

    let rates = log_space(100.0, 2e6, 25);
    let mut table =
        Table::new(vec!["theta_div", "rate (evt/s)", "mean err", "median err", "sat %", "region"]);
    let mut plot = AsciiPlot::new(64, 20, Scale::Log, Scale::Log);

    for theta in [16u32, 32, 64] {
        let config = ClockGenConfig::prototype().with_theta_div(theta);
        let seg = SegmentTable::new(&config);
        let max_meas = seg.max_measurable().expect("recursive policy saturates").as_secs_f64();
        let t_min = seg.base_period().as_secs_f64();
        let mut curve = Vec::new();

        for (i, &rate) in rates.iter().enumerate() {
            let (train, horizon) = poisson_workload(rate, SEED + i as u64, MIN_EVENTS);
            let Some(summary) = isi_summary(&quantize_train(&config, &train, horizon)) else {
                continue;
            };
            let region = classify_region(rate, summary.saturation_ratio, max_meas, theta, t_min);
            table.row(vec![
                theta.to_string(),
                fmt_sig(rate),
                format!("{:.5}", summary.mean),
                format!("{:.5}", summary.median),
                format!("{:.1}", summary.saturation_ratio * 100.0),
                region.to_string(),
            ]);
            curve.push((rate, summary.mean.max(1e-5)));
        }
        plot.series(format!("theta={theta}"), curve);
    }

    let _ = writeln!(out, "{}", table.to_ascii());
    let _ = writeln!(out, "{}", plot.render());

    // Headline check mirrored from the paper's §5.1 narrative.
    let proto = ClockGenConfig::prototype();
    let (train, horizon) = poisson_workload(100_000.0, SEED, MIN_EVENTS);
    let active = isi_summary(&quantize_train(&proto, &train, horizon)).expect("non-empty");
    let pass = active.mean < 0.03;
    let _ = writeln!(
        out,
        "active region check (θ=64, 100 kevt/s): mean error {:.4} (paper bound: < 0.03) -> {}",
        active.mean,
        if pass { "PASS" } else { "FAIL" }
    );

    let accuracy = format!("{:.1}%", active.accuracy() * 100.0);
    let claims =
        vec![Claim::headline("timestamp accuracy (θ=64, 100 kevt/s)", "> 97%", accuracy, pass)];
    Experiment {
        text: out,
        artifact: Artifact { name: "fig6_error.csv", contents: table.to_csv() },
        claims,
    }
}

/// Figure 7 — cochlea response to a spoken word, and timestamp-error
/// distributions.
///
/// Reproduces: (a) the AER raster and event-rate envelope of the
/// silicon cochlea listening to one word (~800 ms), and (b) the
/// distribution of timestamp errors for that stream at
/// `θ_div ∈ {16, 32, 64}` (probability vs error %, 0–12 % bins).
///
/// Paper expectation: bursty, tonotopically structured activity
/// peaking at a few hundred kevt/s during syllables; increasing
/// `θ_div` shifts the error mass toward zero.
pub fn fig7_cochlea() -> Experiment {
    const SEED: u64 = 0xF17;
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 7",
        "cochlea raster + event rate for a spoken word; timestamp-error distributions",
        SEED,
    );

    // (a) The word through the cochlea.
    let audio = fig7_word(16_000, SEED);
    let cochlea = Cochlea::new(CochleaConfig::das1()).expect("valid DAS1 config");
    let train = cochlea.process(&audio);
    let horizon = SimTime::ZERO + audio.duration();
    let _ = writeln!(
        out,
        "word: {} of audio -> {} spikes over {} channels",
        audio.duration(),
        train.len(),
        train.iter().map(|s| s.addr.value()).collect::<HashSet<_>>().len()
    );

    // Raster: address vs time (ms).
    let mut raster = AsciiPlot::new(72, 20, Scale::Linear, Scale::Linear);
    raster.series(
        "spike",
        train.iter().map(|s| (s.time.as_secs_f64() * 1e3, s.addr.value() as f64)).collect(),
    );
    let _ = writeln!(out, "raster (x: time ms, y: address):");
    let _ = writeln!(out, "{}", raster.render());

    // Event-rate envelope.
    let rate_curve = sliding_window_rate(&train, SimDuration::from_ms(20), SimDuration::from_ms(5));
    let peak = rate_curve.iter().map(|p| p.rate_hz).fold(0.0f64, f64::max);
    let mut rate_plot = AsciiPlot::new(72, 12, Scale::Linear, Scale::Linear);
    rate_plot.series(
        "rate",
        rate_curve.iter().map(|p| (p.time.as_secs_f64() * 1e3, p.rate_hz)).collect(),
    );
    let _ = writeln!(out, "event rate envelope (x: time ms, y: evt/s; peak {peak:.0} evt/s):");
    let _ = writeln!(out, "{}", rate_plot.render());

    // (b) Error distributions per θ_div, and the mass under 3 % that
    // the paper's trend is about.
    let mut table = Table::new(vec!["theta_div", "bin (err %)", "probability"]);
    let mut mass_low = Vec::new();
    for theta in [16u32, 32, 64] {
        let config = ClockGenConfig::prototype().with_theta_div(theta);
        let samples = isi_error_samples(&quantize_train(&config, &train, horizon));
        let mut hist =
            Histogram::new(Binning::Linear { lo: 0.0, hi: 0.12, bins: 12 }).expect("valid binning");
        hist.extend(samples.iter().map(|s| s.relative_error()));
        let probs = hist.probabilities();
        let _ = writeln!(out, "theta_div = {theta}: error distribution (0..12%, 1% bins)");
        for (i, p) in probs.iter().enumerate() {
            let (lo, hi) = hist.bin_edges(i);
            let bar = "#".repeat((p * 120.0).round() as usize);
            let _ =
                writeln!(out, "  {:>4.1}-{:>4.1}%  {:<30} {:.3}", lo * 100.0, hi * 100.0, bar, p);
            table.row(vec![
                theta.to_string(),
                format!("{:.1}-{:.1}", lo * 100.0, hi * 100.0),
                format!("{p:.4}"),
            ]);
        }
        let above = hist.overflow as f64 / hist.count() as f64;
        let _ = writeln!(out, "  (>12% or saturated: {:.1}%)", above * 100.0);
        let _ = writeln!(out);
        let low = samples.iter().filter(|s| s.relative_error() < 0.03).count();
        mass_low.push(low as f64 / samples.len() as f64);
    }

    // The headline comparison: more θ_div -> more mass in the lowest
    // bins.
    let (m16, m64) = (mass_low[0], mass_low[2]);
    let pass = m64 >= m16;
    let _ = writeln!(
        out,
        "P(err < 3%): theta=16 -> {:.2}, theta=64 -> {:.2}  (paper: higher θ_div improves accuracy) -> {}",
        m16,
        m64,
        if pass { "PASS" } else { "FAIL" }
    );

    let masses = format!("{m16:.2} vs {m64:.2}");
    let claims = vec![Claim::new("P(err < 3%), θ=16 vs θ=64", "grows with θ_div", masses, pass)];
    Experiment {
        text: out,
        artifact: Artifact { name: "fig7_error_hist.csv", contents: table.to_csv() },
        claims,
    }
}

/// Figure 8 — power consumption vs event rate.
///
/// Reproduces: LFSR fixed-rate spike streams swept from 10 evt/s to
/// 800 kevt/s; power of the interface for `θ_div ∈ {16, 32, 64}`
/// against the no-division baseline and the ideal energy-proportional
/// line `P(r) = E_spike·r + P_static` (Eq. 1).
///
/// Paper expectations: the naïve baseline sits flat at ≈4.5 mW; the
/// divided-clock curves fall with rate, reaching ≈50 µW at very low
/// rates (a ~90× factor) and merging with the baseline in the
/// high-activity region; savings ≈55 % in the active region.
pub fn fig8_power() -> Experiment {
    const SEED: u32 = 0xF18;
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 8",
        "power vs event rate (LFSR stimulus; θ ∈ {16,32,64}, no-division, ideal)",
        SEED as u64,
    );

    let model = PowerModel::igloo_nano();
    let measure = |config: &ClockGenConfig, rate: f64, seed: u32| -> Power {
        let (train, horizon) = lfsr_workload(rate, seed, 2_000);
        model.evaluate(&quantize_train(config, &train, horizon).activity).total
    };
    let proto = ClockGenConfig::prototype();
    let naive = proto.with_policy(DivisionPolicy::Never);
    let rates = log_space(10.0, 800_000.0, 22);

    // Fit the ideal line the way the paper does: all dynamic power in
    // the high-activity region attributed to events.
    let high_rate = 550_000.0;
    let p_high = measure(&proto, high_rate, SEED);
    let ideal = IdealModel::fit_from_high_activity(p_high, high_rate, model.static_power);
    let _ = writeln!(
        out,
        "E_spike fit: {} at {} (paper: ~8.1 nJ from 4.5 mW @ 550 kevt/s)\n",
        ideal.e_spike, p_high
    );

    let mut table = Table::new(vec!["config", "rate (evt/s)", "power (mW)"]);
    let mut plot = AsciiPlot::new(64, 20, Scale::Log, Scale::Log);

    let mut configs: Vec<(String, ClockGenConfig)> =
        [16u32, 32, 64].iter().map(|&t| (format!("theta={t}"), proto.with_theta_div(t))).collect();
    configs.push(("no-division".to_owned(), naive));

    for (label, config) in &configs {
        let mut curve = Vec::new();
        for (i, &rate) in rates.iter().enumerate() {
            let p = measure(config, rate, SEED + i as u32);
            table.row(vec![label.clone(), fmt_sig(rate), format!("{:.4}", p.as_milliwatts())]);
            curve.push((rate, p.as_milliwatts().max(1e-4)));
        }
        plot.series(label.clone(), curve);
    }
    // The ideal line.
    let ideal_curve: Vec<(f64, f64)> = rates
        .iter()
        .map(|&r| {
            let p = ideal.power_at(r);
            table.row(vec!["ideal".into(), fmt_sig(r), format!("{:.4}", p.as_milliwatts())]);
            (r, p.as_milliwatts().max(1e-4))
        })
        .collect();
    plot.series("ideal", ideal_curve);
    let _ = writeln!(out, "{}", plot.render());
    let _ = writeln!(out, "{}", table.to_ascii());

    // Headline checks mirrored from the paper's §5.2/§6 narrative.
    let p_idle = model
        .evaluate(&quantize_train(&proto, &SpikeTrain::new(), SimTime::from_secs(1)).activity)
        .total;
    let p_naive = measure(&naive, 1_000.0, SEED);
    let p_div_1k = measure(&proto, 1_000.0, SEED);
    // The paper's ~55% figure isolates the frequency-division effect
    // (before shutdown dominates): compare divide-only vs no-division
    // at a few tens of kevt/s.
    let divide_only = proto.with_policy(DivisionPolicy::DivideOnly);
    let saving_division_only = 1.0
        - measure(&divide_only, 30_000.0, SEED).as_microwatts()
            / measure(&naive, 30_000.0, SEED).as_microwatts();
    let saving_full = 1.0
        - measure(&proto, 5_000.0, SEED).as_microwatts()
            / measure(&naive, 5_000.0, SEED).as_microwatts();
    let idle_factor = p_high.as_microwatts() / p_idle.as_microwatts();

    let _ = writeln!(out, "no input:            {p_idle}   (paper: ~50 uW)");
    let _ = writeln!(out, "550 kevt/s:          {p_high}   (paper: < 4.5 mW)");
    let _ = writeln!(out, "naive @ 1 kevt/s:    {p_naive}   (paper: stuck at ~4.5 mW)");
    let _ = writeln!(out, "divided @ 1 kevt/s:  {p_div_1k}");
    let _ = writeln!(
        out,
        "division-only saving @30 kevt/s: {:.0}%   (paper: up to 55% from division alone)",
        saving_division_only * 100.0
    );
    let _ = writeln!(out, "division+shutdown saving @5 kevt/s: {:.0}%", saving_full * 100.0);
    let _ = writeln!(out, "idle power factor:   {idle_factor:.0}x   (paper: ~90x)");

    // Least-squares fit over the high-activity region, where the
    // clock is pinned at full speed: the slope is the *marginal*
    // energy per event (front-end + FIFO + I2S switching), while
    // Eq. 1's E_spike is the *average* energy per event at 550 kevt/s
    // and therefore also carries the always-on clock. The two differing
    // by ~20x is the architectural point: almost all of the power is
    // clocking, which is exactly what recursive division attacks.
    let fit_points: Vec<(f64, f64)> = [450_000.0, 550_000.0, 650_000.0, 800_000.0]
        .iter()
        .map(|&r| (r, measure(&proto, r, SEED).as_microwatts()))
        .collect();
    if let Some(fit) = LinearFit::of(&fit_points) {
        // Slope is µW per (evt/s) = µJ per event.
        let _ = writeln!(
            out,
            "marginal energy/event (high-activity slope): {:.2} nJ (R^2 {:.3})",
            fit.slope * 1e3,
            fit.r_squared
        );
        let _ = writeln!(
            out,
            "average energy/event at 550 kevt/s (Eq. 1):  {} — the gap is the always-on clock",
            ideal.e_spike
        );
    }

    let uw = Power::as_microwatts;
    let saving = format!("{:.0}%", saving_division_only * 100.0);
    let claims = vec![
        Claim::headline(
            "power @ 550 kevt/s",
            "< 4.5 mW",
            p_high,
            (4e3..4.6e3).contains(&uw(p_high)),
        ),
        Claim::headline("power, no spikes", "~50 uW", p_idle, (49.0..55.0).contains(&uw(p_idle))),
        Claim::headline(
            "naive baseline @ 1 kevt/s",
            "stuck at ~4.5 mW",
            p_naive,
            uw(p_naive) > 4e3,
        ),
        Claim::headline(
            "idle power factor",
            "~90x",
            format!("{idle_factor:.0}x"),
            idle_factor > 60.0,
        ),
        Claim::new(
            "division-only saving @ 30 kevt/s",
            "up to 55%",
            saving,
            saving_division_only > 0.45,
        ),
        Claim::new(
            "E_spike (Eq. 1)",
            "~8.1 nJ",
            ideal.e_spike,
            (ideal.e_spike.as_nanojoules() - 8.1).abs() < 0.5,
        ),
    ];
    Experiment {
        text: out,
        artifact: Artifact { name: "fig8_power.csv", contents: table.to_csv() },
        claims,
    }
}

/// Implementation summary table (paper §5, first paragraph).
///
/// Reproduces the reported implementation facts: resource utilization
/// on the IGLOO nano AGLN250V2 (31 %, ~600 equivalent gates), the
/// 30 MHz reference clock constraint, and the 130 ns minimum
/// resolvable inter-spike time against the CAVIAR 700 ns budget.
pub fn table_resources() -> Experiment {
    let mut out = String::new();
    banner(&mut out, "Implementation table", "resource utilization and timing constraints", 0);

    let report = UtilizationReport::prototype();
    let _ = writeln!(out, "{report}");

    let clock = ClockGenConfig::prototype();
    let min_interval = clock.min_resolvable_interval();
    let headroom = CAVIAR_EVENT_BUDGET.as_secs_f64() / min_interval.as_secs_f64();
    let _ = writeln!(out, "timing:");
    let _ = writeln!(out, "  ring oscillator:        {}", clock.ring.config_frequency());
    let _ = writeln!(out, "  reference clock:        {}", clock.reference_frequency());
    let _ =
        writeln!(out, "  max sampling frequency: {}", clock.base_sampling_period().to_frequency());
    let _ = writeln!(out, "  min inter-spike time:   {min_interval}  (paper: 130 ns)");
    let _ = writeln!(out, "  CAVIAR event budget:    {CAVIAR_EVENT_BUDGET}  (paper: 700 ns)");
    let _ = writeln!(out, "  headroom:               {headroom:.1}x");

    let mut csv = String::from("block,flops,luts,ram_bits\n");
    for (b, r) in &report.per_block {
        let _ = writeln!(csv, "{b},{},{},{}", r.flops, r.luts, r.ram_bits);
    }
    let total = &report.total;
    let _ = writeln!(csv, "total,{},{},{}", total.flops, total.luts, total.ram_bits);

    let (utilization, gates) = (report.tile_utilization() * 100.0, report.equivalent_gates());
    let used = format!("{utilization:.0}% (~{gates} gates)");
    let (wake, period) = (clock.ring.wake_latency, clock.base_sampling_period());
    let ns = SimDuration::from_ns;
    let claims = vec![
        Claim::headline(
            "resource utilization",
            "31% (~600 gates)",
            used,
            utilization.round() == 31.0 && (540..=660).contains(&gates),
        ),
        Claim::headline(
            "min inter-spike time",
            "130 ns",
            min_interval,
            (ns(120)..=ns(140)).contains(&min_interval),
        ),
        Claim::headline(
            "wake latency",
            "~100 ns, about one T_min",
            wake,
            wake >= period / 2 && wake <= period * 3,
        ),
        Claim::new(
            "CAVIAR 700 ns event budget",
            "met with room to spare",
            format!("{headroom:.1}x headroom"),
            headroom > 5.0,
        ),
    ];
    Experiment {
        text: out,
        artifact: Artifact { name: "table_resources.csv", contents: csv },
        claims,
    }
}
