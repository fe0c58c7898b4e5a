//! Bench X7: batched offset sweeps over a shared `SimLayout`
//! (`BatchSimulator`) against building one `Simulator` per candidate plan,
//! on the didactic critical-instant sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_model::prelude::*;
use noc_sim::prelude::*;
use noc_workload::didactic;
use std::hint::black_box;

fn batch_sweep(c: &mut Criterion) {
    let sys = didactic::system(2);
    let f = didactic::DidacticFlows::ids();
    let period = sys.flow(f.tau1).period();
    let horizon = Cycles::new(18_000);
    let mut group = c.benchmark_group("batch_sweep");
    group.bench_function("didactic/per-plan-simulators", |b| {
        b.iter(|| {
            let mut worst = Cycles::ZERO;
            for plan in critical_offset_sweep(&sys, f.tau1, period) {
                let mut sim = Simulator::new(&sys, plan);
                sim.run_until(horizon);
                if let Some(w) = sim.flow_stats(f.tau3).worst_latency() {
                    worst = worst.max(w);
                }
            }
            black_box(worst)
        })
    });
    group.bench_function("didactic/batch-shared-layout", |b| {
        b.iter(|| {
            let mut batch = BatchSimulator::new(&sys);
            let mut worst = Cycles::ZERO;
            for plan in critical_offset_sweep(&sys, f.tau1, period) {
                let stats = batch.run(&plan, horizon);
                if let Some(w) = stats[f.tau3.index()].worst_latency() {
                    worst = worst.max(w);
                }
            }
            black_box(worst)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = batch_sweep
}
criterion_main!(benches);
