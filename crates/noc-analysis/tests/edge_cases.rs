//! Edge-case behaviour of the analyses: taint propagation past failed
//! flows, upstream-indirect-interference handling (the IBN fallback rule),
//! and the Xiong-original window term.

use noc_analysis::prelude::*;
use noc_model::prelude::*;

/// τ_hi floods the chain so hard that τ_mid misses its deadline, which must
/// taint τ_low (no valid bound can be derived for it).
#[test]
fn taint_propagates_past_deadline_miss() {
    let topology = Topology::mesh(4, 1);
    let flows = FlowSet::new(vec![
        Flow::builder(NodeId::new(0), NodeId::new(3))
            .priority(Priority::new(1))
            .period(Cycles::new(100))
            .length_flits(90)
            .build(),
        Flow::builder(NodeId::new(0), NodeId::new(3))
            .priority(Priority::new(2))
            .period(Cycles::new(400))
            .length_flits(50)
            .build(),
        Flow::builder(NodeId::new(1), NodeId::new(3))
            .priority(Priority::new(3))
            .period(Cycles::new(800))
            .length_flits(20)
            .build(),
    ])
    .unwrap();
    let system = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
    for analysis in AnalysisKind::ALL {
        let report = analysis.analyze(&system).unwrap();
        assert!(report.verdict(FlowId::new(0)).is_schedulable());
        assert!(matches!(
            report.verdict(FlowId::new(1)),
            FlowVerdict::DeadlineMiss { .. }
        ));
        assert_eq!(report.verdict(FlowId::new(2)), FlowVerdict::Tainted);
        assert!(!report.is_schedulable());
        assert_eq!(report.schedulable_count(), 1);
    }
}

/// A 5x1 chain where the indirect interferer hits the direct interferer
/// *upstream* of the victim's contention domain: per §IV's application
/// rule, IBN must fall back to the XLWX charge (no buffer capping).
fn upstream_scenario() -> System {
    let topology = Topology::mesh(5, 1);
    let flows = FlowSet::new(vec![
        // τ_hi: shares only the first hop with τ_mid (upstream of cd(low,mid)).
        Flow::builder(NodeId::new(0), NodeId::new(1))
            .priority(Priority::new(1))
            .period(Cycles::new(150))
            .length_flits(16)
            .build(),
        // τ_mid: the direct interferer of τ_low.
        Flow::builder(NodeId::new(0), NodeId::new(4))
            .priority(Priority::new(2))
            .period(Cycles::new(2_000))
            .length_flits(64)
            .build(),
        // τ_low: enters at node 1.
        Flow::builder(NodeId::new(1), NodeId::new(4))
            .priority(Priority::new(3))
            .period(Cycles::new(8_000))
            .length_flits(32)
            .build(),
    ])
    .unwrap();
    System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap()
}

#[test]
fn upstream_only_scenario_makes_ibn_equal_xlwx() {
    let system = upstream_scenario();
    let ibn = BufferAware.analyze(&system).unwrap();
    let xlwx = Xlwx.analyze(&system).unwrap();
    for id in system.flows().ids() {
        assert_eq!(ibn.verdict(id), xlwx.verdict(id), "{id}");
    }
    // And buffers are irrelevant here — no downstream indirect interference.
    let huge = BufferAware
        .analyze(&system.with_buffer_depth(1_000))
        .unwrap();
    for id in system.flows().ids() {
        assert_eq!(huge.verdict(id), ibn.verdict(id));
    }
}

#[test]
fn upstream_scenario_charges_interference_jitter() {
    // τ_mid suffers upstream interference from τ_hi ∈ S^I_low, so SB/XLWX/
    // IBN must charge J^I_mid = R_mid − C_mid when bounding τ_low.
    let system = upstream_scenario();
    let explanations = ShiBurns.explain(&system).unwrap();
    let low = &explanations[2];
    let sb = ShiBurns.analyze(&system).unwrap();
    let r_mid = sb.response_time(FlowId::new(1)).unwrap();
    let c_mid = system.zero_load_latency(FlowId::new(1));
    assert_eq!(low.terms.len(), 1);
    assert_eq!(low.terms[0].window_jitter, r_mid - c_mid);
    assert!(r_mid > c_mid, "τ_mid does suffer interference");
}

#[test]
fn xiong_original_uses_upstream_term_as_window_jitter() {
    // Under Eq. 4 the window term for τ_mid is Iup(mid,low) =
    // ⌈(R_mid + J_hi)/T_hi⌉ · C_hi instead of J^I_mid.
    let system = upstream_scenario();
    let explanations = XiongOriginal.explain(&system).unwrap();
    let low = &explanations[2];
    let xiong = XiongOriginal.analyze(&system).unwrap();
    let r_mid = xiong.response_time(FlowId::new(1)).unwrap().as_u64();
    let c_hi = system.zero_load_latency(FlowId::new(0)).as_u64();
    let hits = r_mid.div_ceil(150);
    assert_eq!(low.terms[0].window_jitter, Cycles::new(hits * c_hi));
}

#[test]
fn not_converged_is_never_reached_on_constrained_deadlines() {
    // With D ≤ T the iteration either converges below D or crosses D; the
    // NotConverged safety cap must not fire on realistic inputs.
    use noc_workload::synthetic::SyntheticSpec;
    for seed in 0..20 {
        let system = SyntheticSpec::paper(4, 4, 60, 2)
            .generate(seed)
            .into_system();
        for analysis in AnalysisKind::ALL {
            let report = analysis.analyze(&system).unwrap();
            for (id, v) in report.iter() {
                assert_ne!(v, FlowVerdict::NotConverged, "{} {id}", analysis.name());
            }
        }
    }
}

#[test]
fn empty_interference_graph_yields_zero_load_bounds() {
    // Four flows in disjoint corners of an 8x8 mesh: everyone is bounded by
    // exactly C under every analysis.
    let topology = Topology::mesh(8, 8);
    let mk = |src: u32, dst: u32, p: u32| {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(p))
            .period(Cycles::new(10_000))
            .length_flits(64)
            .build()
    };
    let flows = FlowSet::new(vec![
        mk(0, 1, 1),   // bottom-left corner, eastwards
        mk(7, 6, 2),   // bottom-right corner, westwards
        mk(56, 57, 3), // top-left corner
        mk(63, 62, 4), // top-right corner
    ])
    .unwrap();
    let system = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
    for analysis in AnalysisKind::ALL {
        let report = analysis.analyze(&system).unwrap();
        for id in system.flows().ids() {
            assert_eq!(
                report.response_time(id),
                Some(system.zero_load_latency(id)),
                "{}",
                analysis.name()
            );
        }
    }
}
