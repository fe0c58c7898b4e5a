//! Cross-validation of the three pillars through the public API: for
//! randomly generated systems, the cycle-accurate simulator must never
//! observe a latency above the safe analytical bounds, and the analyses
//! must respect their tightness ordering.

use noc_mpb::prelude::*;
use noc_mpb::workload::synthetic::SyntheticSpec;

fn dense_workload(seed: u64, n: usize) -> System {
    let mut spec = SyntheticSpec::paper(3, 3, n, 2);
    spec.period_range = (400, 8_000);
    spec.length_range = (4, 96);
    spec.generate(seed).into_system()
}

#[test]
fn simulator_never_beats_safe_bounds() {
    for seed in 0..30 {
        let system = dense_workload(seed, 8);
        let ibn = BufferAware.analyze(&system).unwrap();
        let xlwx = Xlwx.analyze(&system).unwrap();
        let mut sim = Simulator::new(&system, ReleasePlan::synchronous(&system));
        sim.run_until(Cycles::new(60_000));
        for id in system.flows().ids() {
            let Some(observed) = sim.flow_stats(id).worst_latency() else {
                continue;
            };
            if let Some(bound) = ibn.response_time(id) {
                assert!(
                    observed <= bound,
                    "seed {seed} {id}: {observed} > IBN {bound}"
                );
            }
            if let Some(bound) = xlwx.response_time(id) {
                assert!(
                    observed <= bound,
                    "seed {seed} {id}: {observed} > XLWX {bound}"
                );
            }
        }
    }
}

#[test]
fn offset_search_still_respects_bounds() {
    // Sweeping offsets finds worse cases than synchronous release, but
    // never crosses a safe bound.
    let system = dense_workload(99, 5);
    let ibn = BufferAware.analyze(&system).unwrap();
    let victim = *system.flows().ids_by_priority().last().unwrap();
    let Some(bound) = ibn.response_time(victim) else {
        return; // unschedulable seed: nothing to validate against
    };
    let highest = system.flows().ids_by_priority()[0];
    let plans = offset_sweep(&system, highest, Cycles::new(400), Cycles::new(7));
    let outcome =
        search_worst_case(&system, victim, plans, Cycles::new(30_000)).expect("packets observed");
    assert!(outcome.worst_latency <= bound);
}

#[test]
fn analysis_tightness_ordering_via_public_api() {
    for seed in 100..130 {
        let system = dense_workload(seed, 10);
        let reports: Vec<AnalysisReport> = AnalysisKind::ALL
            .iter()
            .map(|a| a.analyze(&system).unwrap())
            .collect();
        let by_name = |n: &str| {
            reports
                .iter()
                .find(|r| r.analysis() == n)
                .unwrap_or_else(|| panic!("missing analysis {n}"))
        };
        let (sb, xlwx, ibn) = (by_name("SB"), by_name("XLWX"), by_name("IBN"));
        for id in system.flows().ids() {
            if let (Some(a), Some(b)) = (sb.response_time(id), ibn.response_time(id)) {
                assert!(a <= b);
            }
            if let (Some(a), Some(b)) = (ibn.response_time(id), xlwx.response_time(id)) {
                assert!(a <= b);
            }
        }
    }
}

#[test]
fn buffer_monotonicity_via_public_api() {
    let system = dense_workload(7, 9);
    let mut last_count = usize::MAX;
    for b in [1u32, 2, 8, 32, 128] {
        let report = BufferAware.analyze(&system.with_buffer_depth(b)).unwrap();
        assert!(report.schedulable_count() <= last_count);
        last_count = report.schedulable_count();
    }
}

#[test]
fn av_benchmark_maps_and_analyses_everywhere() {
    let app = av_benchmark();
    for dims in fig5_topologies() {
        let mapped =
            random_mapping(&app, dims.width, dims.height, NocConfig::default(), 42).unwrap();
        // Whatever the verdict, the analysis must run without model errors.
        let report = BufferAware.analyze(mapped.system()).unwrap();
        assert_eq!(report.len(), mapped.system().flows().len());
    }
}
