//! Figure 6: average relative timestamp error vs event rate.
//! Runs [`aetr_bench::figures::fig6_error`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::figures::fig6_error);
}
