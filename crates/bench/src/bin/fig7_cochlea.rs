//! Figure 7: a spoken word through the cochlea, and its error histograms.
//! Runs [`aetr_bench::figures::fig7_cochlea`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::figures::fig7_cochlea);
}
