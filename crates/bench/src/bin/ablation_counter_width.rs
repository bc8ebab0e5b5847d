//! Ablation: timestamp counter width vs inactive-region error.
//! Runs [`aetr_bench::ablations::ablation_counter_width`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::ablations::ablation_counter_width);
}
