//! Criterion micro-benchmarks of the behavioral quantization path —
//! the engine behind the Fig. 6 and Fig. 8 sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aetr::quantizer::quantize_train;
use aetr_aer::generator::{PoissonGenerator, SpikeSource};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::engine::SamplingEngine;
use aetr_clockgen::segments::SegmentTable;
use aetr_sim::time::{SimDuration, SimTime};

fn bench_quantize_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize_train");
    for &rate in &[10_000.0f64, 100_000.0, 550_000.0] {
        let horizon = SimTime::from_ms(100);
        let train = PoissonGenerator::new(rate, 64, 7).generate(horizon);
        group.throughput(Throughput::Elements(train.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}kevts", rate / 1_000.0)),
            &train,
            |b, train| {
                let cfg = ClockGenConfig::prototype();
                b.iter(|| quantize_train(&cfg, train, horizon));
            },
        );
    }
    group.finish();
}

fn bench_segment_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment_table");
    for policy in [DivisionPolicy::Recursive, DivisionPolicy::Never, DivisionPolicy::Linear] {
        let table = SegmentTable::new(&ClockGenConfig::prototype().with_policy(policy));
        group.bench_function(format!("quantize/{policy}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i.wrapping_mul(6_364_136_223_846_793_005)).wrapping_add(1) % 100_000_000;
                std::hint::black_box(table.quantize(SimDuration::from_ps(i + 1)))
            });
        });
    }
    group.finish();
}

fn bench_sampling_engine(c: &mut Criterion) {
    let mut engine = SamplingEngine::new(&ClockGenConfig::prototype());
    c.bench_function("sampling_engine/process", |b| {
        let mut i = 1u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            // Gaps up to 200 µs: about a third stay inside the ~64 µs
            // measurable range, the rest pass the shutdown and wake.
            i = i.wrapping_mul(48_271) % 2_147_483_647;
            t += SimDuration::from_ps(i % 200_000_000);
            std::hint::black_box(engine.process(t))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantize_train, bench_segment_quantize, bench_sampling_engine
}
criterion_main!(benches);
