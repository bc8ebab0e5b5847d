//! Criterion benchmarks of the simulation kernel: slot scheduler,
//! signal tracing, and online statistics.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use aetr_sim::slots::{SlotQueue, Slotted};
use aetr_sim::stats::OnlineStats;
use aetr_sim::time::{SimDuration, SimTime};
use aetr_sim::trace::{TraceValue, Tracer};

/// A clock tick on the one slot, or timeline entry `.0`.
enum Ev {
    Tick(u64),
    Write(usize),
}

impl Slotted for Ev {
    fn slot(&self) -> usize {
        0
    }

    fn timeline(index: usize) -> Ev {
        Ev::Write(index)
    }
}

fn bench_slot_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("delta_chain_10k", |b| {
        b.iter(|| {
            let mut q: SlotQueue<Ev, 1> = SlotQueue::new();
            q.schedule_at(SimTime::ZERO, Ev::Tick(0)).expect("fresh queue");
            let mut n = 0u64;
            while let Some((_, Ev::Tick(v))) = q.pop() {
                n += 1;
                if n < 10_000 {
                    q.schedule_after(SimDuration::from_ns(66), Ev::Tick(v + 1)).expect("monotone");
                }
            }
            n
        });
    });
    group.bench_function("timeline_pop_10k", |b| {
        let times: Vec<SimTime> = (0u64..10_000).map(|i| SimTime::from_ns(66 * i)).collect();
        b.iter(|| {
            let mut q: SlotQueue<Ev, 1> = SlotQueue::with_timeline(times.iter().copied());
            let mut sum = 0usize;
            while let Some((_, ev)) = q.pop() {
                if let Ev::Write(i) = ev {
                    sum = sum.wrapping_add(i);
                }
            }
            sum
        });
    });
    group.finish();
}

fn bench_tracer(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracer");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("record_10k_toggles", |b| {
        b.iter(|| {
            let mut t = Tracer::new();
            let clk = t.declare_bit("clk", "top");
            for i in 0..10_000u64 {
                t.record(SimTime::from_ps(i * 100), clk, TraceValue::Bit(i % 2 == 0));
            }
            t.changes().len()
        });
    });
    group.bench_function("vcd_render_10k", |b| {
        let mut t = Tracer::new();
        let clk = t.declare_bit("clk", "top");
        for i in 0..10_000u64 {
            t.record(SimTime::from_ps(i * 100), clk, TraceValue::Bit(i % 2 == 0));
        }
        b.iter(|| {
            let mut buf = Vec::new();
            aetr_sim::vcd::write_vcd(&t, &mut buf).expect("in-memory write");
            buf.len()
        });
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_stats");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("welford_100k", |b| {
        b.iter(|| {
            let mut s = OnlineStats::new();
            for i in 0..100_000u64 {
                s.add(((i * 37) % 1_000) as f64);
            }
            s.population_variance()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_slot_queue, bench_tracer, bench_stats
}
criterion_main!(benches);
