//! Bench X6: amortising the interference structure with `AnalysisContext`.
//!
//! The experiment harnesses run 4–5 analyses (and several buffer depths)
//! over every flow set. `direct` re-derives the interference graph inside
//! every `AnalysisKind::analyze` call; `shared-context` builds one
//! `AnalysisContext` and runs every analysis against it (the harness path
//! since the context refactor); `context-build` isolates the derivation
//! cost being amortised. Fixtures go up to the north-star scale: a 16×16
//! mesh with thousands of flows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_analysis::prelude::*;
use noc_bench::{bench_system, production_system};
use std::hint::black_box;

/// Per-call derivation vs one shared [`AnalysisContext`] vs the isolated
/// context build.
fn context_reuse(c: &mut Criterion) {
    let fixtures = [
        ("4x4_160", bench_system(4, 160, 2, 0xC0DE)),
        ("8x8_520", bench_system(8, 520, 2, 0xC0DE)),
        ("16x16_1000", production_system(1_000, 2, 0xC0DE)),
        ("16x16_2000", production_system(2_000, 2, 0xC0DE)),
    ];
    let mut group = c.benchmark_group("context_reuse");
    for (label, system) in &fixtures {
        group.bench_with_input(BenchmarkId::new("direct", label), system, |b, sys| {
            b.iter(|| {
                for analysis in AnalysisKind::ALL {
                    black_box(analysis.analyze(black_box(sys)).unwrap());
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("shared-context", label),
            system,
            |b, sys| {
                b.iter(|| {
                    let ctx = AnalysisContext::new(black_box(sys)).unwrap();
                    for analysis in AnalysisKind::ALL {
                        black_box(analysis.analyze_with(&ctx).unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("context-build", label),
            system,
            |b, sys| b.iter(|| black_box(AnalysisContext::new(black_box(sys)).unwrap())),
        );
    }
    group.finish();
}

fn buffer_depth_rebase(c: &mut Criterion) {
    let mut group = c.benchmark_group("context_rebase");
    let system = production_system(1_000, 2, 0xC0DE);
    let depths = [2u32, 4, 8, 16, 32, 64, 100];
    // The buffer-sweep harness pattern: one IBN verdict per depth.
    group.bench_function("ibn_7_depths_direct", |b| {
        b.iter(|| {
            for &depth in &depths {
                let sys = system.with_buffer_depth(depth);
                black_box(BufferAware.analyze(&sys).unwrap());
            }
        })
    });
    group.bench_function("ibn_7_depths_rebased", |b| {
        b.iter(|| {
            let ctx = AnalysisContext::new(&system).unwrap();
            for &depth in &depths {
                let sys = system.with_buffer_depth(depth);
                let depth_ctx = ctx.rebase(&sys).unwrap();
                black_box(BufferAware.analyze_with(&depth_ctx).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = context_reuse, buffer_depth_rebase
}
criterion_main!(benches);
