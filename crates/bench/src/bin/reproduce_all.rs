//! Runs every experiment at full resolution, writes all of `results/`
//! and builds `results/REPORT.md` from the experiments' paper-claim
//! rows — the one-command reproduction check.
//!
//! Each artifact is byte-identical to the one the experiment's own
//! binary writes (everything is seeded), so CI regenerates `results/`
//! with this and fails on any difference from the committed files.
//!
//! ```sh
//! cargo run --release -p aetr-bench --bin reproduce_all
//! ```

use aetr_bench::{report, write_result, EXPERIMENTS};

fn main() {
    let experiments: Vec<_> = EXPERIMENTS
        .iter()
        .map(|&(name, experiment)| {
            let experiment = experiment();
            let artifact = &experiment.artifact;
            write_result(artifact.name, &artifact.contents).expect("write results");
            println!("{name}: wrote {}", artifact.name);
            (name, experiment)
        })
        .collect();
    let report = report(&experiments);
    let path = write_result("REPORT.md", &report).expect("write results");
    println!("\n{report}");
    println!("report written to {}", path.display());
}
