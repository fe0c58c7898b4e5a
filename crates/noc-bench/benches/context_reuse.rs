//! Bench X6: amortising the interference structure with `AnalysisContext`.
//!
//! The experiment harnesses run 4–5 analyses (and several buffer depths)
//! over every flow set. `direct` re-derives the interference graph inside
//! every `AnalysisKind::analyze` call; `shared-context` builds one
//! `AnalysisContext` and runs every analysis against it (the harness path
//! since the context refactor); `context-build` isolates the derivation
//! cost being amortised. Fixtures go up to the north-star scale: a 16×16
//! mesh with thousands of flows.
//!
//! The group bodies live in [`noc_bench::suites`] so the `bench_json`
//! binary measures exactly what `cargo bench` runs.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_analysis::prelude::*;
use noc_bench::{production_system, suites};
use std::hint::black_box;

fn context_reuse(c: &mut Criterion) {
    suites::bench_context_reuse(c, &suites::context_fixtures(true));
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
