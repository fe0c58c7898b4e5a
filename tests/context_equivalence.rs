//! Regression guard for the shared-context refactor: analyses run through a
//! precomputed [`AnalysisContext`] — including contexts *rebased* onto
//! buffer-depth and period-scale variants — must return bit-identical
//! [`AnalysisReport`]s (and explanations) to the direct
//! [`AnalysisKind::analyze`] path that derives the interference structure from
//! scratch per call.
//!
//! It also pins the degenerate-equivalence guarantees of the generalised
//! release/buffer axes: a uniform [`BufferMap`] (with or without redundant
//! overrides) is bit-identical to the scalar-depth path, and a zero-burst
//! arrival curve is bit-identical to plain periodic-with-jitter release.

use noc_mpb::prelude::*;
use noc_mpb::workload::didactic;
use noc_mpb::workload::synthetic::SyntheticSpec;

fn synthetic_systems() -> Vec<(String, System)> {
    let mut out = Vec::new();
    for (seed, mesh, n_flows) in [(41u64, 3u16, 8usize), (42, 4, 14), (43, 4, 24)] {
        let mut spec = SyntheticSpec::paper(mesh, mesh, n_flows, 2);
        spec.period_range = (400, 8_000);
        spec.length_range = (4, 96);
        out.push((
            format!("seed={seed} mesh={mesh}x{mesh} n={n_flows}"),
            spec.generate(seed).into_system(),
        ));
    }
    // Cover the generalised axes too: bursty sources, per-router depths,
    // and both at once.
    out.push((
        "seed=44 bursty σ≤2".into(),
        SyntheticSpec::paper(4, 4, 14, 2)
            .with_burst_range(0, 2)
            .generate(44)
            .into_system(),
    ));
    out.push((
        "seed=45 hetero 2..=8 + bursty σ≤1".into(),
        SyntheticSpec::paper(4, 4, 18, 2)
            .with_buffer_depth_range(2, 8)
            .with_burst_range(0, 1)
            .generate(45)
            .into_system(),
    ));
    out.push(("didactic b=2".into(), didactic::system(2)));
    out.push(("figure2 b=4".into(), didactic::figure2_system(4)));
    out
}

#[test]
fn context_backed_reports_are_bit_identical_to_direct_path() {
    for (label, system) in synthetic_systems() {
        let ctx = AnalysisContext::new(&system).unwrap();
        for analysis in AnalysisKind::ALL {
            let direct = analysis.analyze(&system).unwrap();
            let shared = analysis.analyze_with(&ctx).unwrap();
            assert_eq!(direct, shared, "[{label}] {}", analysis.name());
            let direct_expl = analysis.explain(&system).unwrap();
            let shared_expl = analysis.explain_with(&ctx).unwrap();
            assert_eq!(direct_expl, shared_expl, "[{label}] {}", analysis.name());
        }
    }
}

#[test]
fn rebased_buffer_depths_match_fresh_contexts() {
    for (label, system) in synthetic_systems() {
        let ctx = AnalysisContext::new(&system).unwrap();
        for depth in [1u32, 2, 10, 100] {
            let variant = system.with_buffer_depth(depth);
            let rebased = ctx.rebase(&variant).unwrap();
            let direct = BufferAware.analyze(&variant).unwrap();
            let shared = BufferAware.analyze_with(&rebased).unwrap();
            assert_eq!(direct, shared, "[{label}] depth={depth}");
        }
    }
}

#[test]
fn rebased_period_scales_match_fresh_contexts() {
    for (label, system) in synthetic_systems() {
        let ctx = AnalysisContext::new(&system).unwrap();
        for (num, den) in [(1u64, 2u64), (3, 4), (2, 1), (13, 7)] {
            let variant = system.with_scaled_periods(num, den).unwrap();
            let rebased = ctx.rebase(&variant).unwrap();
            for analysis in AnalysisKind::ALL {
                let direct = analysis.analyze(&variant).unwrap();
                let shared = analysis.analyze_with(&rebased).unwrap();
                assert_eq!(
                    direct,
                    shared,
                    "[{label}] {} × {num}/{den}",
                    analysis.name()
                );
            }
        }
    }
}

/// Uniform `BufferMap`s — including maps carrying overrides equal to the
/// default — are the scalar-depth path, bit for bit, across every analysis
/// and its explanation.
#[test]
fn uniform_buffer_map_is_bit_identical_to_scalar_path() {
    for (label, system) in synthetic_systems() {
        if system.has_heterogeneous_buffers() {
            continue; // the degenerate claim is about uniform systems
        }
        for depth in [1u32, 2, 7, 64] {
            let scalar = system.with_buffer_depth(depth);
            let uniform = scalar.with_buffer_map(BufferMap::uniform(depth));
            // Redundant overrides (every router pinned to the default) must
            // still count as uniform and change nothing.
            let mut redundant_map = BufferMap::uniform(depth);
            for router in scalar.topology().router_ids() {
                redundant_map.set_router_depth(router, depth);
            }
            let redundant = scalar.with_buffer_map(redundant_map);
            assert!(!uniform.has_heterogeneous_buffers());
            assert!(!redundant.has_heterogeneous_buffers());
            for analysis in AnalysisKind::ALL {
                let base = analysis.analyze(&scalar).unwrap();
                for (kind, variant) in [("uniform", &uniform), ("redundant", &redundant)] {
                    assert_eq!(
                        base,
                        analysis.analyze(variant).unwrap(),
                        "[{label}] depth={depth} {} via {kind} map",
                        analysis.name()
                    );
                    assert_eq!(
                        analysis.explain(&scalar).unwrap(),
                        analysis.explain(variant).unwrap(),
                        "[{label}] depth={depth} {} explanation via {kind} map",
                        analysis.name()
                    );
                }
            }
        }
    }
}

/// Rebuilds every flow with an explicit `σ = 0` burst allowance.
fn with_explicit_zero_burst(system: &System) -> System {
    let flows: Vec<Flow> = system
        .flows()
        .iter()
        .map(|(_, f)| {
            let mut b = Flow::builder(f.source(), f.dest())
                .priority(f.priority())
                .period(f.period())
                .deadline(f.deadline())
                .jitter(f.jitter())
                .burst(0)
                .length_flits(f.length_flits());
            if let Some(name) = f.name() {
                b = b.name(name);
            }
            b.build()
        })
        .collect();
    System::new(
        system.topology().clone(),
        *system.config(),
        FlowSet::new(flows).unwrap(),
        &XyRouting,
    )
    .unwrap()
}

/// A zero-burst leaky bucket is periodic-with-jitter release: flows rebuilt
/// with an explicit `σ = 0` produce bit-identical reports, explanations and
/// simulations to flows that never mention a burst at all.
#[test]
fn zero_burst_arrival_is_bit_identical_to_periodic() {
    for (label, system) in synthetic_systems() {
        if system.flows().iter().any(|(_, f)| f.burst() > 0) {
            continue; // only the σ = 0 degenerate case is equivalence
        }
        if label.starts_with("didactic") || label.starts_with("figure2") {
            continue; // hand-routed fixtures can't be rebuilt via XyRouting
        }
        let explicit = with_explicit_zero_burst(&system);
        for analysis in AnalysisKind::ALL {
            assert_eq!(
                analysis.analyze(&system).unwrap(),
                analysis.analyze(&explicit).unwrap(),
                "[{label}] {}",
                analysis.name()
            );
            assert_eq!(
                analysis.explain(&system).unwrap(),
                analysis.explain(&explicit).unwrap(),
                "[{label}] {} explanation",
                analysis.name()
            );
        }
        // And the simulator sees the identical release schedule.
        let horizon = Cycles::new(20_000);
        let mut a = Simulator::new(&system, ReleasePlan::synchronous(&system));
        let mut b = Simulator::new(&explicit, ReleasePlan::synchronous(&explicit));
        a.run_until(horizon);
        b.run_until(horizon);
        for id in system.flows().ids() {
            let (sa, sb) = (a.flow_stats(id), b.flow_stats(id));
            assert_eq!(sa.delivered(), sb.delivered(), "[{label}] {id} delivered");
            assert_eq!(
                sa.worst_latency(),
                sb.worst_latency(),
                "[{label}] {id} worst latency"
            );
        }
    }
}

#[test]
fn rebased_heterogeneous_buffers_match_fresh_contexts() {
    let system = didactic::system(2);
    let ctx = AnalysisContext::new(&system).unwrap();
    // Deepen one router's buffers: per-router overrides keep the routes and
    // priorities, so the context rebases; the analysis must still pick the
    // override up from the new system.
    let router = system.topology().router_ids().next().expect("has routers");
    let variant = system.with_router_buffer_depth(router, 50);
    let rebased = ctx.rebase(&variant).unwrap();
    let direct = BufferAware.analyze(&variant).unwrap();
    let shared = BufferAware.analyze_with(&rebased).unwrap();
    assert_eq!(direct, shared);
}
