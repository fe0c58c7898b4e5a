//! Bench X5: breakdown-factor comparison (continuous tightness metric) —
//! prints a reduced-scale summary and measures one binary-search run.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_analysis::prelude::*;
use noc_bench::bench_system;
use noc_experiments::scaling::{self, breakdown_factor, ScalingConfig};
use std::hint::black_box;

fn regenerate_and_bench(c: &mut Criterion) {
    let cfg = ScalingConfig::paper().reduced(8);
    let results = scaling::run(&cfg);
    println!(
        "\n=== Breakdown factors (reduced: {} sets of {} flows) ===\n{}",
        cfg.sets,
        cfg.n_flows,
        scaling::render(&results, &cfg)
    );

    let system = bench_system(4, 120, 2, 0xBDF);
    let mut group = c.benchmark_group("breakdown_scaling");
    for (name, analysis) in [("SB", ShiBurns), ("IBN", BufferAware)] {
        group.bench_function(format!("search/{name}/120-flows"), |b| {
            b.iter(|| black_box(breakdown_factor(black_box(&system), analysis)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = regenerate_and_bench
}
criterion_main!(benches);
