//! Figure 2: the recursively divided sampling clock waveform.
//! Runs [`aetr_bench::figures::fig2_waveform`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::figures::fig2_waveform);
}
