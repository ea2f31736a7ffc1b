//! Criterion bench: the pipeline list scheduler — scheduling cost per
//! batch must stay negligible next to the simulated work it schedules.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use interconnect::{PipelineSim, Stage};

fn cascade(seed: usize) -> Vec<Stage> {
    // H2D → MST → INS shape with slight jitter so schedules aren't trivial
    let j = (seed % 7) as f64 * 0.01;
    vec![
        Stage {
            resource: 0,
            duration: 1.0 + j,
        },
        Stage {
            resource: 1,
            duration: 0.2 + j,
        },
        Stage {
            resource: 2,
            duration: 0.8 + j,
        },
    ]
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_scheduler");
    g.sample_size(20);
    for batches in [64usize, 256] {
        let stages: Vec<Stage> = (0..batches).flat_map(cascade).collect();
        let runs: Vec<_> = (0..batches).map(|b| 3 * b..3 * b + 3).collect();
        g.throughput(Throughput::Elements(batches as u64));
        for threads in [1usize, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("batches_{batches}"), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let sim = PipelineSim::new(3);
                        sim.run(black_box(&stages), black_box(&runs), threads)
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
