//! Ablation: ring-oscillator wake latency sensitivity.
//! Runs [`aetr_bench::ablations::ablation_wake_latency`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::ablations::ablation_wake_latency);
}
