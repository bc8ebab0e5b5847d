//! # aetr-bench — the paper's experiments
//!
//! Every experiment of the evaluation is one function here: the four
//! figures and the resource table in [`figures`], the design-choice
//! sweeps in [`ablations`]. Each returns an [`Experiment`]: the text its
//! harness prints, the artifact it writes under `results/`, and the
//! paper claims it checks.
//!
//! Each experiment has a binary of the same name whose `main` is one
//! call to [`run`] (`cargo run --release -p aetr-bench --bin
//! fig6_error`, ...). `reproduce_all` runs all of [`EXPERIMENTS`],
//! writes every artifact and builds `results/REPORT.md` from their
//! claims with [`report`]. The Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use aetr::quantizer::{isi_error_samples, QuantizerOutput};
use aetr_analysis::error_stats::ErrorSummary;
use aetr_analysis::table::Table;

/// What one experiment produced.
#[derive(Debug)]
pub struct Experiment {
    /// What its harness prints, a blank line before the artifact path:
    /// banner, tables, plots and checks.
    pub text: String,
    /// The file it writes under `results/`.
    pub artifact: Artifact,
    /// The paper's claims, checked against this experiment's
    /// measurements.
    pub claims: Vec<Claim>,
}

/// A result file: its name under `results/` and its contents.
#[derive(Debug)]
pub struct Artifact {
    /// File name, e.g. `fig6_error.csv`.
    pub name: &'static str,
    /// CSV or VCD text.
    pub contents: String,
}

/// One paper claim next to the value an experiment measured.
#[derive(Debug)]
pub struct Claim {
    /// What is claimed, and at which operating point.
    pub claim: &'static str,
    /// The paper's statement of the value.
    pub paper: &'static str,
    /// The measured value.
    pub measured: String,
    /// Whether the measurement meets the claim, within the bound
    /// `tests/claims.rs` asserts for it where that test exists.
    pub pass: bool,
    /// Whether the claim belongs to the report's headline table.
    pub headline: bool,
}

impl Claim {
    /// A claim for the experiment's own section of the report.
    pub fn new(claim: &'static str, paper: &'static str, value: impl ToString, pass: bool) -> Self {
        Claim { claim, paper, measured: value.to_string(), pass, headline: false }
    }

    /// A claim also listed in the report's headline table.
    pub fn headline(
        claim: &'static str,
        paper: &'static str,
        value: impl ToString,
        pass: bool,
    ) -> Self {
        Claim { headline: true, ..Claim::new(claim, paper, value, pass) }
    }
}

/// An experiment function: runs it from scratch (everything is seeded).
pub type Harness = fn() -> Experiment;

/// Every experiment, by the name of its binary, in report order.
pub const EXPERIMENTS: [(&str, Harness); 11] = [
    ("fig2_waveform", figures::fig2_waveform),
    ("fig6_error", figures::fig6_error),
    ("fig7_cochlea", figures::fig7_cochlea),
    ("fig8_power", figures::fig8_power),
    ("table_resources", figures::table_resources),
    ("ablation_counter_width", ablations::ablation_counter_width),
    ("ablation_division_policy", ablations::ablation_division_policy),
    ("ablation_downstream", ablations::ablation_downstream),
    ("ablation_fifo_watermark", ablations::ablation_fifo_watermark),
    ("ablation_knobs", ablations::ablation_knobs),
    ("ablation_wake_latency", ablations::ablation_wake_latency),
];

/// The `main` of an experiment binary: runs the experiment, prints its
/// text, writes its artifact and prints where.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn run(experiment: Harness) {
    let Experiment { text, artifact, .. } = experiment();
    println!("{text}");
    let path = write_result(artifact.name, &artifact.contents).expect("write results");
    if artifact.name.ends_with(".vcd") {
        println!("VCD written to {} (open with GTKWave)", path.display());
    } else {
        println!("CSV written to {}", path.display());
    }
}

/// `results/REPORT.md`: the headline claims first, then each
/// experiment's artifact and claims, from experiments run in
/// [`EXPERIMENTS`] order.
pub fn report(experiments: &[(&str, Experiment)]) -> String {
    let table = |claims: &mut dyn Iterator<Item = &Claim>| {
        let mut t = Table::new(vec!["claim", "paper", "measured", "pass"]);
        for c in claims {
            let pass = if c.pass { "PASS" } else { "FAIL" };
            t.row(vec![c.claim.into(), c.paper.into(), c.measured.clone(), pass.into()]);
        }
        t.to_markdown()
    };
    let all = || experiments.iter().flat_map(|(_, e)| &e.claims);
    let mut md = String::new();
    let _ = writeln!(md, "# AETR reproduction report\n");
    let _ = writeln!(
        md,
        "Deterministic regeneration of the DAC'17 evaluation by `reproduce_all`. Every\n\
         experiment runs at the resolution of its own harness (`cargo run --release -p\n\
         aetr-bench --bin <name>`) and writes one artifact under `results/`. A claim\n\
         passes within the bound `tests/claims.rs` asserts for it, where that test\n\
         exists.\n"
    );
    let passed = all().filter(|c| c.pass).count();
    let _ = writeln!(md, "{passed} of {} claims pass.\n", all().count());
    let _ = writeln!(md, "## Headline: paper claims vs measured\n");
    let _ = writeln!(md, "{}", table(&mut all().filter(|c| c.headline)));
    let _ = writeln!(md, "## Experiments\n");
    for (name, experiment) in experiments {
        let _ = writeln!(md, "### `{name}` → `{}`\n", experiment.artifact.name);
        if experiment.claims.is_empty() {
            let _ = writeln!(md, "A design-choice sweep: no paper claim to check.\n");
        } else {
            let _ = writeln!(md, "{}", table(&mut experiment.claims.iter()));
        }
    }
    md
}

/// Writes an artifact into `<repo>/results`, creating it if needed,
/// and returns the full path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_result(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path.canonicalize().unwrap_or(path))
}

/// Writes the standard experiment banner (figure id, description, and
/// the deterministic seed in use).
fn banner(out: &mut String, figure: &str, description: &str, seed: u64) {
    let _ = writeln!(out, "=== {figure} — {description}");
    let _ = writeln!(out, "    (deterministic; base seed {seed})");
    let _ = writeln!(out);
}

/// The error summary of a quantizer run's inter-spike intervals; `None`
/// when the run has fewer than two events.
fn isi_summary(out: &QuantizerOutput) -> Option<ErrorSummary> {
    let samples: Vec<(f64, bool)> =
        isi_error_samples(out).iter().map(|s| (s.relative_error(), s.saturated)).collect();
    ErrorSummary::of(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_result_roundtrip() {
        let path = write_result("self_test.txt", "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn report_puts_headline_claims_first_and_lists_every_artifact() {
        let experiment = |name, claims| Experiment {
            text: String::new(),
            artifact: Artifact { name, contents: String::new() },
            claims,
        };
        let experiments = [
            (
                "fig_a",
                experiment(
                    "a.csv",
                    vec![
                        Claim::headline("idle power", "~50 uW", "50.1 uW", true),
                        Claim::new("saving", "55%", "40%", false),
                    ],
                ),
            ),
            ("ablation_b", experiment("b.csv", vec![])),
        ];
        let md = report(&experiments);
        assert!(md.contains("1 of 2 claims pass."), "{md}");
        let headline = md.find("## Headline").unwrap();
        let sections = md.find("## Experiments").unwrap();
        assert_eq!(md[headline..sections].matches("| idle power |").count(), 1);
        assert!(!md[headline..sections].contains("saving"));
        assert!(md[sections..].contains("### `fig_a` → `a.csv`"));
        assert!(md[sections..].contains("| saving | 55% | 40% | FAIL |"));
        assert!(md[sections..].contains("### `ablation_b` → `b.csv`\n\nA design-choice sweep"));
    }
}
