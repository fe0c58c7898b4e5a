//! Telemetry must be *observation only*: enabling it may not change a
//! single bit of any analysis report, simulation statistic or query
//! outcome, and with it disabled recording must be a true no-op (no
//! metric registers, no event is buffered).
//!
//! One test function drives all three engines because the telemetry gate
//! is process-global state — splitting it across `#[test]`s would race.

use noc_mpb::prelude::*;
use noc_mpb::serve::{
    run_batch, run_batch_with, sample_queries, QueryBatch, QueryOutcome, ServeOptions,
};
use noc_mpb::telemetry;
use noc_mpb::workload::didactic;

/// One pass of representative work through the solver (full + incremental),
/// the simulator and the serving layer, returning every observable result.
fn run_workload() -> (
    Vec<AnalysisReport>,
    Vec<AnalysisReport>,
    Vec<FlowStats>,
    Vec<QueryOutcome>,
) {
    let (system, table) = didactic::system_with_routing(2);
    let serve_system = system
        .with_virtual_channels(None)
        .expect("didactic VCs auto-size");

    // Full solves, all five analyses.
    let ctx = AnalysisContext::new(&system).expect("didactic system is analysable");
    let full: Vec<AnalysisReport> = AnalysisKind::ALL
        .iter()
        .map(|k| k.analyze_with(&ctx).expect("didactic system converges"))
        .collect();

    // Incremental solves through an admission round-trip.
    let mut inc = IncrementalContext::new(serve_system.clone()).expect("analysable");
    let before = inc.analyze(AnalysisKind::BufferAware).expect("converges");
    let template = serve_system.flows().flow(FlowId::new(0));
    let candidate = Flow::builder(template.source(), template.dest())
        .priority(Priority::new(serve_system.flows().len() as u32 + 1))
        .period(template.period())
        .length_flits(16)
        .build();
    let id = inc.add_flow(candidate, &table).expect("routable candidate");
    let with_candidate = inc.analyze(AnalysisKind::BufferAware).expect("converges");
    inc.remove_flow(id).expect("undo");
    let after = inc.analyze(AnalysisKind::BufferAware).expect("converges");
    assert_eq!(
        before, after,
        "admission round-trip must restore the report"
    );
    let incremental = vec![before, with_candidate, after];

    // Simulation.
    let mut sim = Simulator::new(&system, ReleasePlan::synchronous(&system));
    sim.run_until(Cycles::new(20_000));
    let stats: Vec<FlowStats> = system
        .flows()
        .ids()
        .map(|id| sim.flow_stats(id).clone())
        .collect();

    // Batch serving.
    let base = AnalysisContext::new(&serve_system).expect("analysable");
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: sample_queries(&serve_system, 24),
    };
    let outcomes = run_batch(&base, &batch, &table, 2).outcomes;
    // The fault-tolerant entry point with a default policy (no deadline,
    // no shedding, no faults) must be bit-identical to plain `run_batch`.
    let with_default = run_batch_with(&base, &batch, &table, 2, &ServeOptions::default()).outcomes;
    assert_eq!(
        outcomes, with_default,
        "default ServeOptions must not perturb serving"
    );

    (full, incremental, stats, outcomes)
}

#[test]
fn telemetry_is_a_pure_observer() {
    // --- Disabled: recording must be a complete no-op. ---
    telemetry::set_enabled(false);
    let _ = telemetry::events::drain();
    let baseline = run_workload();
    let snap = telemetry::snapshot();
    assert!(
        snap.is_empty(),
        "disabled-mode work registered metrics: {snap:?}"
    );
    assert_eq!(
        telemetry::events::len(),
        0,
        "disabled-mode work buffered events"
    );

    // --- Enabled: identical results, nonzero instrumentation. ---
    telemetry::set_enabled(true);
    let observed = run_workload();
    telemetry::set_enabled(false);

    assert_eq!(baseline.0, observed.0, "full analysis reports diverged");
    assert_eq!(baseline.1, observed.1, "incremental reports diverged");
    assert_eq!(baseline.2, observed.2, "simulation statistics diverged");
    assert_eq!(baseline.3, observed.3, "query outcomes diverged");

    let snap = telemetry::snapshot();
    for counter in [
        "analysis.solver.iterations",
        "analysis.solver.flows_solved",
        "analysis.cache.dirty_solved",
        "analysis.incremental.deltas",
        "sim.steps",
        "sim.release_pops",
        "serve.queries",
        "serve.context_forks",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "expected nonzero {counter} in {snap:?}"
        );
    }
    let latency = snap
        .histogram("serve.query.latency_ns")
        .expect("query latency histogram recorded");
    // The workload serves the 24-query batch twice (plain and
    // default-options entry points), one latency sample per query each.
    assert_eq!(latency.count, 48, "one latency sample per served query");
    assert!(
        snap.histogram("analysis.solver.solve_ns")
            .is_some_and(|h| h.count > 0),
        "solve-time histogram recorded"
    );
    assert!(
        !telemetry::events::drain().is_empty(),
        "structured events recorded"
    );
}
