//! Ablation: how the sampling period grows between events.
//! Runs [`aetr_bench::ablations::ablation_division_policy`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::ablations::ablation_division_policy);
}
