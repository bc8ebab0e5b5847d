//! Ablation: FIFO watermark (batch size) vs I2S duty and latency.
//! Runs [`aetr_bench::ablations::ablation_fifo_watermark`]; the artifact goes under `results/`.

fn main() {
    aetr_bench::run(aetr_bench::ablations::ablation_fifo_watermark);
}
