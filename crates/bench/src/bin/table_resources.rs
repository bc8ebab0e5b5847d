//! Implementation summary table (paper §5, first paragraph).
//! Runs [`aetr_bench::figures::table_resources`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::figures::table_resources);
}
