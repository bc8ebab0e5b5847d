//! Criterion benchmarks of the substrate crates: spike generation,
//! cochlea filtering, handshake processing, rate estimation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use aetr_aer::arbiter::{arbitrate, ArbiterConfig};
use aetr_aer::generator::{BurstGenerator, LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::handshake::{run_with_fixed_latency, HandshakeTiming};
use aetr_aer::rate::sliding_window_rate;
use aetr_cochlea::audio::AudioBuffer;
use aetr_cochlea::filterbank::FilterBank;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_dvs::scene::MovingBar;
use aetr_dvs::sensor::{DvsConfig, DvsSensor};
use aetr_sim::time::{SimDuration, SimTime};

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    let horizon = SimTime::from_ms(100);
    group.bench_function("poisson_100k_100ms", |b| {
        b.iter(|| PoissonGenerator::new(100_000.0, 64, 1).generate(horizon))
    });
    group.bench_function("lfsr_100k_100ms", |b| {
        b.iter(|| LfsrGenerator::new(100_000.0, 1).generate(horizon))
    });
    group.bench_function("burst_100ms", |b| {
        b.iter(|| {
            BurstGenerator::new(
                300_000.0,
                100.0,
                SimDuration::from_ms(10),
                SimDuration::from_ms(30),
                64,
                1,
            )
            .generate(horizon)
        })
    });
    group.finish();
}

fn bench_filterbank(c: &mut Criterion) {
    let audio = AudioBuffer::white_noise(16_000, 0.5, 0.1, 3);
    let mut group = c.benchmark_group("cochlea");
    group.throughput(Throughput::Elements(audio.len() as u64));
    group.bench_function("filterbank_64ch_100ms", |b| {
        let bank = FilterBank::log_spaced(16_000, 64, 100.0, 6_000.0, 5.0);
        b.iter(|| bank.process(&audio));
    });
    group.bench_function("full_cochlea_100ms", |b| {
        let cochlea = Cochlea::new(CochleaConfig::das1()).expect("valid");
        b.iter(|| cochlea.process(&audio));
    });
    group.finish();
}

fn bench_handshake(c: &mut Criterion) {
    let train = LfsrGenerator::new(200_000.0, 5).generate(SimTime::from_ms(20));
    let mut group = c.benchmark_group("handshake");
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("four_phase_4k_events", |b| {
        b.iter(|| {
            run_with_fixed_latency(&train, HandshakeTiming::default(), SimDuration::from_ns(33))
        })
    });
    group.finish();
}

fn bench_arbiter(c: &mut Criterion) {
    let train = PoissonGenerator::new(1_000_000.0, 128, 2).generate(SimTime::from_ms(5));
    let mut group = c.benchmark_group("arbiter");
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("das1_tree_5k_events", |b| {
        b.iter(|| arbitrate(&train, &ArbiterConfig::das1()))
    });
    group.finish();
}

fn bench_aedat(c: &mut Criterion) {
    let train = PoissonGenerator::new(100_000.0, 512, 4).generate(SimTime::from_ms(50));
    let mut encoded = Vec::new();
    aetr_aer::aedat::write_aedat(&train, &[], &mut encoded).expect("in-memory write");
    let mut group = c.benchmark_group("aedat");
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("write_5k", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            aetr_aer::aedat::write_aedat(&train, &[], &mut buf).expect("in-memory write");
            buf
        })
    });
    group.bench_function("read_5k", |b| {
        b.iter(|| aetr_aer::aedat::read_aedat(&encoded[..]).expect("own output parses"))
    });
    group.finish();
}

fn bench_dvs(c: &mut Criterion) {
    let sensor = DvsSensor::new(DvsConfig::aer10bit()).expect("valid");
    c.bench_function("dvs/moving_bar_50ms", |b| {
        b.iter(|| sensor.observe(&MovingBar::demo(), SimTime::from_ms(50)))
    });
}

fn bench_apps(c: &mut Criterion) {
    use aetr_apps::features::{extract, FeatureConfig};
    use aetr_apps::localization::{estimate_itd, shift_train, ItdConfig};

    let train = PoissonGenerator::new(50_000.0, 256, 6).generate(SimTime::from_ms(100));
    let mut group = c.benchmark_group("apps");
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("features_5k_events", |b| {
        b.iter(|| extract(&train, &FeatureConfig::das1_channels()))
    });
    let left = PoissonGenerator::new(30_000.0, 64, 7).generate(SimTime::from_ms(100));
    let right = shift_train(&left, SimDuration::from_us(300));
    group.bench_function("itd_3k_events", |b| {
        b.iter(|| estimate_itd(&left, &right, &ItdConfig::default_window()))
    });
    group.finish();
}

fn bench_rate_estimation(c: &mut Criterion) {
    let train = PoissonGenerator::new(100_000.0, 64, 9).generate(SimTime::from_ms(200));
    c.bench_function("rate/sliding_window", |b| {
        b.iter(|| sliding_window_rate(&train, SimDuration::from_ms(20), SimDuration::from_ms(5)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_generators, bench_filterbank, bench_handshake, bench_arbiter,
        bench_aedat, bench_dvs, bench_apps, bench_rate_estimation
}
criterion_main!(benches);
