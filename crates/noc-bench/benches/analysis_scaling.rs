//! Bench X3: analysis runtime scaling with flow-set size.
//!
//! The fixed-point engine solves flows highest-priority-first with
//! memoised Idown recursion; this bench tracks how SB / XLWX / IBN scale
//! from 40 to 320 flows on the 4×4 platform (XLWX and IBN pay for the
//! recursive MPB terms; SB is the no-MPB floor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_analysis::prelude::*;
use noc_bench::bench_system;
use std::hint::black_box;

fn scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_scaling");
    for &n in &[40usize, 80, 160, 320] {
        let system = bench_system(4, n, 2, 0x5CA1E + n as u64);
        for (name, analysis) in [("SB", ShiBurns), ("XLWX", Xlwx), ("IBN", BufferAware)] {
            group.bench_with_input(BenchmarkId::new(name, n), &system, |b, sys| {
                b.iter(|| black_box(analysis.analyze(black_box(sys)).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = scaling
}
criterion_main!(benches);
