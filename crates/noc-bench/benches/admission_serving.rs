//! Bench X8: admission-control serving — incremental delta re-analysis
//! against a full context rebuild, and batched query throughput across
//! worker threads (`noc_serve::run_batch`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_analysis::prelude::*;
use noc_bench::production_system;
use noc_model::prelude::*;
use std::hint::black_box;

/// A single-flow admission what-if served by a full rebuild (derive the
/// graph and solve from scratch) against the incremental dirty-bit path
/// (delta-update the graph, re-solve only the affected neighbourhood),
/// plus batched query throughput at increasing worker-thread counts via
/// [`noc_serve::run_batch`], on the north-star admission-control scale
/// (16×16 mesh, 1000 flows).
fn admission_serving(c: &mut Criterion) {
    let label = "16x16_1000";
    let system = production_system(1_000, 2, 0xC0DE);
    let mut group = c.benchmark_group("admission_serving");
    let template = system.flows().flow(FlowId::new(0));
    let candidate = Flow::builder(template.source(), template.dest())
        .priority(Priority::new(system.flows().len() as u32 + 1))
        .period(template.period())
        .length_flits(16)
        .build();

    group.bench_with_input(
        BenchmarkId::new("full-rebuild", label),
        &system,
        |b, sys| {
            b.iter(|| {
                let (grown, _) = sys.with_added_flow(candidate.clone(), &XyRouting).unwrap();
                let ctx = AnalysisContext::new(&grown).unwrap();
                black_box(BufferAware.analyze_with(&ctx).unwrap())
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("incremental", label), &system, |b, sys| {
        let mut ctx = IncrementalContext::new(sys.clone()).unwrap();
        // Warm the solve cache: the first analyze pays the full solve that
        // every later delta amortises, exactly like a live server.
        black_box(ctx.analyze(AnalysisKind::BufferAware).unwrap());
        b.iter(|| {
            let id = ctx.add_flow(candidate.clone(), &XyRouting).unwrap();
            let report = ctx.analyze(AnalysisKind::BufferAware).unwrap();
            ctx.remove_flow(id).expect("undoing a fresh admission");
            black_box(report)
        })
    });

    let base = AnalysisContext::new(&system).expect("bench fixture is analysable");
    let batch = noc_serve::QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: noc_serve::sample_queries(&system, 64),
    };
    let mut thread_counts = vec![1, 2, noc_experiments::runner::default_threads()];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    for threads in thread_counts {
        group.bench_with_input(
            BenchmarkId::new(format!("batch-qps-{threads}t"), label),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(noc_serve::run_batch(&base, &batch, &XyRouting, threads)))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = admission_serving
}
criterion_main!(benches);
