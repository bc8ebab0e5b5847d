//! Ablation: what AETR batching saves the downstream MCU.
//! Runs [`aetr_bench::ablations::ablation_downstream`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::ablations::ablation_downstream);
}
