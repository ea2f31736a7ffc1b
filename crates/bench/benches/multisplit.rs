//! Criterion bench: multisplit primitives (functional wall-clock of the
//! simulator executing the compaction kernels).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::LaunchOptions;
use hashes::PartitionFn;
use multisplit::{device_multisplit, device_multisplit_segments, exclusive_scan, Segment};
use workloads::Distribution;

const N: usize = 1 << 13;

fn words() -> Vec<u64> {
    Distribution::Uniform
        .generate(N, 5)
        .into_iter()
        .map(|(k, v)| (u64::from(k) << 32) | u64::from(v))
        .collect()
}

fn bench_multisplit(c: &mut Criterion) {
    let mut g = c.benchmark_group("multisplit");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let data = words();
    for m in [2usize, 4] {
        let part = PartitionFn::new(m as u32, 7);
        let class = move |w: u64| part.part((w >> 32) as u32);
        g.bench_with_input(BenchmarkId::new("binary_warp_agg", m), &m, |b, &m| {
            b.iter(|| {
                let dev = gpu_sim::Device::with_words(0, 2 * N + 64);
                let input = dev.alloc(N).unwrap();
                let out = dev.alloc(N).unwrap();
                let scratch = dev.alloc(1).unwrap();
                dev.mem().h2d(input, black_box(&data));
                device_multisplit(&dev, input, out, scratch, m, class)
            });
        });
        g.bench_with_input(BenchmarkId::new("count_scatter", m), &m, |b, &m| {
            b.iter(|| {
                let dev = gpu_sim::Device::with_words(0, 2 * N + 64);
                let input = dev.alloc(N).unwrap();
                let out = dev.alloc(N).unwrap();
                let scratch = dev.alloc(m).unwrap();
                dev.mem().h2d(input, black_box(&data));
                let opts = LaunchOptions::default();
                device_multisplit_segments(
                    &dev,
                    &[Segment::words(input, out)],
                    scratch,
                    m,
                    opts,
                    class,
                )
            });
        });
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefix_scan");
    g.sample_size(20);
    let xs: Vec<u64> = (0..4096).collect();
    g.throughput(Throughput::Elements(4096));
    g.bench_function("exclusive_scan_4096", |b| {
        b.iter(|| exclusive_scan(black_box(&xs)))
    });
    g.finish();
}

criterion_group!(benches, bench_multisplit, bench_scan);
criterion_main!(benches);
