//! Ablation: the `θ_div` / `N_div` design-space matrix.
//! Runs [`aetr_bench::ablations::ablation_knobs`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::ablations::ablation_knobs);
}
