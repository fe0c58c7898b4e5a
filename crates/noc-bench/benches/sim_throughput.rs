//! Bench X4: simulator throughput (simulated cycles per wall-clock second)
//! on the didactic system, a dense 4×4 workload, and the production-scale
//! 16×16 / 2000-flow fixture.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_bench::{dense_sim_system, production_system};
use noc_model::prelude::*;
use noc_sim::prelude::*;
use noc_workload::didactic;
use std::hint::black_box;

/// One simulator-throughput fixture: a system plus the horizon to simulate.
struct SimFixture {
    /// Fixture label as it appears in bench output.
    name: String,
    /// The system to simulate.
    system: System,
    /// Cycles simulated per iteration.
    cycles: u64,
}

impl SimFixture {
    fn new(name: &str, system: System, cycles: u64) -> SimFixture {
        SimFixture {
            name: format!("{name}/{cycles}-cycles"),
            system,
            cycles,
        }
    }
}

fn throughput(c: &mut Criterion) {
    let fixtures = [
        SimFixture::new("didactic-6r", didactic::system(10), 10_000),
        SimFixture::new("dense-4x4", dense_sim_system(11), 10_000),
        SimFixture::new(
            "production-16x16-2000f",
            production_system(2_000, 4, 0xC0DE),
            2_000,
        ),
    ];
    let mut group = c.benchmark_group("sim_throughput");
    for fixture in &fixtures {
        group.throughput(criterion::Throughput::Elements(fixture.cycles));
        group.bench_function(fixture.name.as_str(), |b| {
            b.iter(|| {
                let mut sim =
                    Simulator::new(&fixture.system, ReleasePlan::synchronous(&fixture.system));
                sim.run_until(Cycles::new(fixture.cycles));
                black_box(sim.now())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = throughput
}
criterion_main!(benches);
