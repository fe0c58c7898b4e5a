//! Tests for the interference-breakdown (explanation) API: the breakdown
//! must reconstruct the bound exactly, and the didactic example's breakdown
//! must show the MPB charge the paper derives.

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_workload::didactic::{self, DidacticFlows};
use noc_workload::synthetic::SyntheticSpec;

#[test]
fn breakdown_reconstructs_bound_on_didactic() {
    for analysis in AnalysisKind::ALL {
        for buffer in [2u32, 10] {
            let system = didactic::system(buffer);
            let report = analysis.analyze(&system).unwrap();
            for ex in analysis.explain(&system).unwrap() {
                assert_eq!(ex.verdict, report.verdict(ex.flow));
                if let Some(r) = ex.verdict.response_time() {
                    assert_eq!(
                        ex.reconstructed_bound(),
                        r,
                        "{} b={buffer} {}",
                        analysis.name(),
                        ex.flow
                    );
                }
            }
        }
    }
}

#[test]
fn didactic_tau3_breakdown_shows_the_mpb_charge() {
    let f = DidacticFlows::ids();
    let system = didactic::system(10);

    // Under IBN (b=10): one hit of τ2, charged C2 + Idown = 204 + 60.
    let ibn = BufferAware.explain(&system).unwrap();
    let tau3 = &ibn[f.tau3.index()];
    assert_eq!(tau3.zero_load, Cycles::new(132));
    assert_eq!(tau3.terms.len(), 1);
    let term = tau3.terms[0];
    assert_eq!(term.interferer, f.tau2);
    assert_eq!(term.hits, 1);
    assert_eq!(term.downstream_term, Cycles::new(60)); // 2 hits × bi = 2·30
    assert_eq!(term.charge_per_hit, Cycles::new(264));
    assert_eq!(term.window_jitter, Cycles::new(124)); // J^I_2 = R2 − C2

    // Under XLWX the downstream term is the full 2·C1 = 124.
    let xlwx = Xlwx.explain(&system).unwrap();
    let term = xlwx[f.tau3.index()].terms[0];
    assert_eq!(term.downstream_term, Cycles::new(124));
    assert_eq!(term.charge_per_hit, Cycles::new(328));

    // Under SB there is no MPB charge at all.
    let sb = ShiBurns.explain(&system).unwrap();
    let term = sb[f.tau3.index()].terms[0];
    assert_eq!(term.downstream_term, Cycles::ZERO);
    assert_eq!(term.charge_per_hit, Cycles::new(204));
}

#[test]
fn breakdown_reconstructs_bound_on_synthetic_sets() {
    for seed in 0..10u64 {
        let mut spec = SyntheticSpec::paper(4, 4, 24, 2);
        spec.period_range = (2_000, 120_000);
        spec.length_range = (16, 256);
        let system = spec.generate(seed).into_system();
        for analysis in AnalysisKind::ALL {
            for ex in analysis.explain(&system).unwrap() {
                if let Some(r) = ex.verdict.response_time() {
                    assert_eq!(ex.reconstructed_bound(), r, "{}", analysis.name());
                }
                // Terms are sorted from highest priority to lowest.
                for pair in ex.terms.windows(2) {
                    assert!(system
                        .flow(pair[0].interferer)
                        .priority()
                        .is_higher_than(system.flow(pair[1].interferer).priority()));
                }
            }
        }
    }
}

#[test]
fn explanations_display_readably() {
    let system = didactic::system(10);
    let ex = &BufferAware.explain(&system).unwrap()[DidacticFlows::ids().tau3.index()];
    let text = ex.to_string();
    assert!(text.contains("C = 132cy"));
    assert!(text.contains("MPB part 60cy"));
}

#[test]
fn top_priority_flow_has_no_terms() {
    let system = didactic::system(2);
    for analysis in AnalysisKind::ALL {
        let ex = analysis.explain(&system).unwrap();
        assert!(ex[DidacticFlows::ids().tau1.index()].terms.is_empty());
    }
}
