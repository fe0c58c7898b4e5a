//! Bench T1/T2: regenerates Tables I and II (reduced offset sweep), measures
//! the cost of each analysis, and times the full critical-instant simulation
//! sweep behind the table's `R^sim` columns.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_analysis::prelude::*;
use noc_experiments::table2::{self, SweepMode};
use noc_workload::didactic;
use std::hint::black_box;

fn regenerate_and_bench(c: &mut Criterion) {
    // Regenerate the paper's tables once (coarse 10-cycle sweep).
    println!(
        "\n=== Table I (flow parameters) ===\n{}",
        table2::render_table_i()
    );
    let results = table2::run(10);
    println!(
        "=== Table II (analysis + simulation, sweep step 10) ===\n{}",
        table2::render_table_ii(&results)
    );

    let system = didactic::system(10);
    let mut group = c.benchmark_group("table2_analysis");
    group.bench_function("SB", |b| {
        b.iter(|| ShiBurns.analyze(black_box(&system)).unwrap())
    });
    group.bench_function("XLWX", |b| {
        b.iter(|| Xlwx.analyze(black_box(&system)).unwrap())
    });
    group.bench_function("IBN", |b| {
        b.iter(|| BufferAware.analyze(black_box(&system)).unwrap())
    });
    group.finish();

    // The didactic experiment's simulation columns: the pruned
    // critical-instant offset sweep at both buffer depths (the kernel behind
    // `R^sim(b=10)` / `R^sim(b=2)` of Table II).
    let mut group = c.benchmark_group("table2");
    group.bench_function("critical-sweep-b2b10", |b| {
        b.iter(|| {
            let b10 = table2::simulate_worst(10, SweepMode::Critical);
            let b2 = table2::simulate_worst(2, SweepMode::Critical);
            black_box((b10.worst, b2.worst))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = regenerate_and_bench
}
criterion_main!(benches);
