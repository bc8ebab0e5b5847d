//! Figure 8: power consumption vs event rate.
//! Runs [`aetr_bench::figures::fig8_power`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::figures::fig8_power);
}
