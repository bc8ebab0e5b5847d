//! Figure 7 — cochlea response to a spoken word, and timestamp-error
//! distributions.
//!
//! Reproduces: (a) the AER raster and event-rate envelope of the
//! silicon cochlea listening to one word (~800 ms), and (b) the
//! distribution of timestamp errors for that stream at
//! `θ_div ∈ {16, 32, 64}` (probability vs error %, 0–12 % bins).
//!
//! Paper expectation: bursty, tonotopically structured activity
//! peaking at a few hundred kevt/s during syllables; increasing
//! `θ_div` shifts the error mass toward zero.

use aetr::quantizer::{isi_error_samples, quantize_train};
use aetr_aer::rate::sliding_window_rate;
use aetr_analysis::histogram::{Binning, Histogram};
use aetr_analysis::plot::{AsciiPlot, Scale};
use aetr_analysis::table::Table;
use aetr_bench::{banner, write_result};
use aetr_clockgen::config::ClockGenConfig;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_cochlea::word::fig7_word;
use aetr_sim::time::{SimDuration, SimTime};

const SEED: u64 = 0xF17;
const THETAS: [u32; 3] = [16, 32, 64];

fn main() {
    banner(
        "Figure 7",
        "cochlea raster + event rate for a spoken word; timestamp-error distributions",
        SEED,
    );

    // (a) The word through the cochlea.
    let audio = fig7_word(16_000, SEED);
    let cochlea = Cochlea::new(CochleaConfig::das1()).expect("valid DAS1 config");
    let train = cochlea.process(&audio);
    let horizon = SimTime::ZERO + audio.duration();
    println!(
        "word: {} of audio -> {} spikes over {} channels",
        audio.duration(),
        train.len(),
        train.iter().map(|s| s.addr.value()).collect::<std::collections::HashSet<_>>().len()
    );

    // Raster: address vs time (ms).
    let mut raster = AsciiPlot::new(72, 20, Scale::Linear, Scale::Linear);
    raster.series(
        "spike",
        train.iter().map(|s| (s.time.as_secs_f64() * 1e3, s.addr.value() as f64)).collect(),
    );
    println!("raster (x: time ms, y: address):");
    println!("{}", raster.render());

    // Event-rate envelope.
    let rate_curve = sliding_window_rate(&train, SimDuration::from_ms(20), SimDuration::from_ms(5));
    let peak = rate_curve.iter().map(|p| p.rate_hz).fold(0.0f64, f64::max);
    let mut rate_plot = AsciiPlot::new(72, 12, Scale::Linear, Scale::Linear);
    rate_plot.series(
        "rate",
        rate_curve.iter().map(|p| (p.time.as_secs_f64() * 1e3, p.rate_hz)).collect(),
    );
    println!("event rate envelope (x: time ms, y: evt/s; peak {peak:.0} evt/s):");
    println!("{}", rate_plot.render());

    // (b) Error distributions per θ_div.
    let mut table = Table::new(vec!["theta_div", "bin (err %)", "probability"]);
    for &theta in &THETAS {
        let config = ClockGenConfig::prototype().with_theta_div(theta);
        let out = quantize_train(&config, &train, horizon);
        let mut hist =
            Histogram::new(Binning::Linear { lo: 0.0, hi: 0.12, bins: 12 }).expect("valid binning");
        let samples = isi_error_samples(&out);
        hist.extend(samples.iter().map(|s| s.relative_error()));
        let probs = hist.probabilities();
        println!("theta_div = {theta}: error distribution (0..12%, 1% bins)");
        for (i, p) in probs.iter().enumerate() {
            let (lo, hi) = hist.bin_edges(i);
            let bar = "#".repeat((p * 120.0).round() as usize);
            println!("  {:>4.1}-{:>4.1}%  {:<30} {:.3}", lo * 100.0, hi * 100.0, bar, p);
            table.row(vec![
                theta.to_string(),
                format!("{:.1}-{:.1}", lo * 100.0, hi * 100.0),
                format!("{p:.4}"),
            ]);
        }
        let above = hist.overflow as f64 / hist.count() as f64;
        println!("  (>12% or saturated: {:.1}%)", above * 100.0);
        println!();
    }

    // The headline comparison: more θ_div -> more mass in the lowest
    // bins.
    let mass_low = |theta: u32| {
        let config = ClockGenConfig::prototype().with_theta_div(theta);
        let out = quantize_train(&config, &train, horizon);
        let samples = isi_error_samples(&out);
        let low = samples.iter().filter(|s| s.relative_error() < 0.03).count();
        low as f64 / samples.len() as f64
    };
    let (m16, m64) = (mass_low(16), mass_low(64));
    println!(
        "P(err < 3%): theta=16 -> {:.2}, theta=64 -> {:.2}  (paper: higher θ_div improves accuracy) -> {}",
        m16,
        m64,
        if m64 >= m16 { "PASS" } else { "FAIL" }
    );

    let path = write_result("fig7_error_hist.csv", &table.to_csv()).expect("write results");
    println!("\nCSV written to {}", path.display());
}
