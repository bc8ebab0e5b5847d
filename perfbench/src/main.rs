//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <dense_stream|sparse_fleet|cochlea_keyword|fault_campaign>
//!           --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use aetr_perfbench::{run, Options};

const USAGE: &str = "\
usage: perfbench --workload <dense_stream|sparse_fleet|cochlea_keyword|fault_campaign>
                 --seed <n> --seconds <s> --trace <0|1> [--quick]

  --trace 0    end-to-end metrics, untraced
  --trace 1    per-layer metrics from a traced run, with its overhead; the
               Chrome trace goes to perfbench/out/
  --quick      tiny inputs (the benchmark's own tests)";

fn parse(argv: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut opts = Options {
        workload: aetr_perfbench::WorkloadName::DenseStream,
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
        trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.parse()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3_600.0).contains(&s) {
                    return Err("--seconds must be within [0, 3600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    opts.trace = trace.ok_or("--trace is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts, process_start);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
