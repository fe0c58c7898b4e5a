//! Bench X9: heterogeneous buffers and bursty release — the buffer-aware
//! analysis over a per-router-depth 16×16 workload (the slow path of
//! Equation 6) and per-router buffer what-if serving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_analysis::prelude::*;
use noc_bench::heterogeneous_system;
use noc_model::prelude::*;
use std::hint::black_box;

/// The buffer-aware analysis over the heterogeneous north-star scenario
/// (16×16 mesh, 1000 flows, per-router depths 2–8, bursts σ ≤ 2), plus a
/// batch of per-router buffer what-if queries, each served from a rebase
/// of the shared base context.
fn hetero_analysis(c: &mut Criterion) {
    let label = "16x16_1000_hetero";
    let system = heterogeneous_system(16, 1_000, 0xC0DE);
    let mut group = c.benchmark_group("hetero_analysis");
    group.bench_with_input(
        BenchmarkId::new("buffer-aware", label),
        &system,
        |b, sys| {
            let ctx = AnalysisContext::new(sys).unwrap();
            b.iter(|| black_box(BufferAware.analyze_with(&ctx).unwrap()))
        },
    );
    let base = AnalysisContext::new(&system).expect("bench fixture is analysable");
    let routers = system.topology().router_count();
    let batch = noc_serve::QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: (0..32usize)
            .map(|i| noc_serve::Query::RouterBufferWhatIf {
                router: RouterId::new((i * 7 % routers) as u32),
                depth: 2 + (i % 7) as u32,
            })
            .collect(),
    };
    group.bench_with_input(
        BenchmarkId::new("router-what-if-batch", label),
        &system,
        |b, _| b.iter(|| black_box(noc_serve::run_batch(&base, &batch, &XyRouting, 2))),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = hetero_analysis
}
criterion_main!(benches);
