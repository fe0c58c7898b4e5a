//! Bench X2: ablation across all five analyses (including the unsafe
//! NoIndirect and the original Xiong Eq. 4) on a fixed workload.
//!
//! Prints per-analysis schedulability and the bound each one assigns to the
//! didactic MPB victim τ3, then measures each analysis' runtime — the cost
//! of tighter, safer bounds in one table.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_analysis::prelude::*;
use noc_bench::bench_system;
use noc_workload::didactic::{self, DidacticFlows};
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    // Didactic victim bound per analysis.
    let system = didactic::system(10);
    let tau3 = DidacticFlows::ids().tau3;
    println!("\n=== Ablation: bound on the didactic MPB victim τ3 (b=10) ===");
    for analysis in AnalysisKind::ALL {
        let bound = analysis
            .analyze(&system)
            .unwrap()
            .response_time(tau3)
            .map_or("miss".to_string(), |r| r.as_u64().to_string());
        let safety = match analysis.name() {
            "XLWX" | "IBN" => "safe under MPB",
            _ => "UNSAFE under MPB",
        };
        println!(
            "  {:<10} R(τ3) = {:>5}   [{safety}]",
            analysis.name(),
            bound
        );
    }

    // Schedulability on a loaded synthetic platform.
    let loaded = bench_system(4, 200, 2, 0xAB1A);
    println!("\n=== Ablation: schedulable flows out of 200 (4x4, loaded) ===");
    for analysis in AnalysisKind::ALL {
        let report = analysis.analyze(&loaded).unwrap();
        println!(
            "  {:<10} {:>4}/200 flows, set schedulable: {}",
            analysis.name(),
            report.schedulable_count(),
            report.is_schedulable()
        );
    }
    println!();

    let mut group = c.benchmark_group("ablation_analyses");
    for analysis in AnalysisKind::ALL {
        group.bench_function(format!("{}/200-flows", analysis.name()), |b| {
            b.iter(|| black_box(analysis.analyze(black_box(&loaded)).unwrap()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation
}
criterion_main!(benches);
