//! A cheap, non-iterative conservative bound — the degraded-mode fallback.
//!
//! When a full fixed-point solve cannot finish inside its
//! [`Budget`](crate::budget::Budget) (or trips the convergence safety cap),
//! an admission answer under duress must still be *sound*: saying
//! "schedulable" may never be wrong, only pessimistic. This module computes
//! such an answer in a single pass with **no fixed-point iteration at
//! all** — the layered fast-model/slow-model pattern of Mandal et al.
//! (arXiv:1908.02408), with this bound as the fast model and the crate's
//! fixed-point solver as the slow one.
//!
//! # The bound
//!
//! For every flow τᵢ the deadline Dᵢ is substituted for the unknown fixed
//! point Rᵢ in the response recurrence, and every model-dependent term is
//! replaced by one that dominates it across *all five* analyses:
//!
//! ```text
//! Bᵢ = Cᵢ·(σᵢ+1) + Σ_{τⱼ ∈ S^D_i} ηⱼ(Dᵢ + (Dⱼ − Cⱼ) + Iup*(j,i)) · (Cⱼ + Idown*(j,i))
//! ```
//!
//! where `ηⱼ(w) = ⌈(w + Jⱼ)/Tⱼ⌉ + σⱼ` is τⱼ's arrival curve (the paper's
//! hit count plus the burst allowance, matching the solver's), and
//! `Idown*`/`Iup*` are the XLWX downstream charge (Eq. 3) and the
//! upstream term (Eq. 2) evaluated over windows of length Dⱼ instead of Rⱼ.
//! The window jitter `(Dⱼ − Cⱼ) + Iup*` dominates both the interference
//! jitter `J^I_j = Rⱼ − Cⱼ` (for schedulable τⱼ, Rⱼ ≤ Dⱼ) and the original
//! Xiong `Iup` jitter; the XLWX charge dominates both the ignore-downstream
//! (SB) charge and the buffer-capped (IBN) charge. Burst terms match the
//! solver's exactly — the same `+σ` per hit count and the same
//! `σᵢ·Cᵢ` self-backlog base — so domination is preserved on the bursty
//! axis, and heterogeneous buffer maps cannot weaken it (buffer depths only
//! ever *cap* the IBN charge below the XLWX charge used here).
//!
//! # Soundness, in both directions that matter
//!
//! Write `f` for the true response function of any of the five analyses and
//! `g ≥ f` for the bound above (both monotone in the window length):
//!
//! * **Conservative acceptance.** If `Bᵢ = gᵢ(Dᵢ) ≤ Dᵢ` then `fᵢ(Dᵢ) ≤ Dᵢ`,
//!   so the true fixed point satisfies `Rᵢ ≤ Dᵢ`: a flow this bound accepts
//!   is genuinely schedulable (given its direct interferers are, which the
//!   report's per-flow reading preserves: a truly missed deadline always
//!   shows up as a miss here too, because `gᵢ(Dᵢ) ≥ fᵢ(Dᵢ) > Dᵢ`).
//! * **Never below the true response time.** For a flow the full solve
//!   proves schedulable, `Bᵢ = gᵢ(Dᵢ) ≥ gᵢ(Rᵢ) ≥ fᵢ(Rᵢ) = Rᵢ` — the
//!   degraded answer is an upper bound on the exact one, pinned by the
//!   workspace's `chaos_serving` test.
//!
//! A flow the full solve marks [`FlowVerdict::Tainted`] (its bound depends
//! on a failed higher-priority flow) may be reported schedulable here, but
//! the root-cause flow itself is always reported as a miss, so the
//! *whole-set* verdict ([`AnalysisReport::is_schedulable`]) is conservative:
//! this bound accepts a system only if every analysis would.

use std::collections::HashMap;

use noc_model::arrival::ArrivalCurve;
use noc_model::contention::InterferenceGraph;
use noc_model::ids::FlowId;
use noc_model::system::System;
use noc_model::time::Cycles;

use crate::context::AnalysisContext;
use crate::metrics;
use crate::report::{AnalysisReport, FlowVerdict};

/// The analysis name carried by conservative reports.
pub const CONSERVATIVE_NAME: &str = "Conservative";

/// Computes the conservative bound for every flow of the context's system.
///
/// Single-pass and total: no fixed-point iteration, no failure mode. See
/// the [module docs](self) for the bound and its soundness argument.
pub fn conservative_with(ctx: &AnalysisContext<'_>) -> AnalysisReport {
    let (system, graph, order) = (ctx.system(), ctx.graph(), ctx.priority_order());
    metrics::CONSERVATIVE_SOLVES.incr();
    let mut bounder = Bounder {
        system,
        graph,
        c: ctx.zero_load_raw(),
        idown_memo: HashMap::new(),
    };
    let mut verdicts = vec![FlowVerdict::NotConverged; order.len()];
    for &i in order {
        let d_i = u128::from(system.flow(i).deadline().as_u64());
        // The same σᵢ·Cᵢ self-backlog base as the solver's recurrence.
        let mut bound = bounder.c[i.index()].saturating_mul(u128::from(system.flow(i).burst()) + 1);
        for &j in graph.direct_set(i) {
            let f_j = system.flow(j);
            let d_j = u128::from(f_j.deadline().as_u64());
            let c_j = bounder.c[j.index()];
            let jitter = d_j
                .saturating_sub(c_j)
                .saturating_add(bounder.iup_bound(i, j));
            // ηⱼ adds Jⱼ and σⱼ itself, mirroring the solver's hit count.
            let window = d_i.saturating_add(jitter);
            let hits = f_j.arrival_curve().max_arrivals_raw(window);
            let charge = c_j.saturating_add(bounder.idown_bound(j, i));
            bound = bound.saturating_add(hits.saturating_mul(charge));
        }
        verdicts[i.index()] = if bound <= d_i {
            FlowVerdict::Schedulable {
                response_time: clamp_cycles(bound),
            }
        } else {
            FlowVerdict::DeadlineMiss {
                exceeded_at: clamp_cycles(bound),
            }
        };
    }
    AnalysisReport::new(CONSERVATIVE_NAME, verdicts)
}

/// Shared state of one conservative pass: the `Idown*` memo mirrors the
/// solver's, keyed by the (j, i) pair.
struct Bounder<'a> {
    system: &'a System,
    graph: &'a InterferenceGraph,
    c: &'a [u128],
    idown_memo: HashMap<(FlowId, FlowId), u128>,
}

impl Bounder<'_> {
    /// `ηₖ(Dⱼ) = ⌈(Dⱼ + Jₖ)/Tₖ⌉ + σₖ` — the hit count of Eq. 7/8 with the
    /// window widened from Rⱼ to Dⱼ, from τₖ's arrival curve.
    fn hits_in_deadline(&self, j: FlowId, k: FlowId) -> u128 {
        let d_j = u128::from(self.system.flow(j).deadline().as_u64());
        self.system.flow(k).arrival_curve().max_arrivals_raw(d_j)
    }

    /// `Iup*(j,i)` — Equation 2 over a Dⱼ-length window.
    fn iup_bound(&mut self, i: FlowId, j: FlowId) -> u128 {
        let part = self.graph.partition_indirect(i, j);
        let mut total: u128 = 0;
        for &k in &part.upstream {
            total = total.saturating_add(
                self.hits_in_deadline(j, k)
                    .saturating_mul(self.c[k.index()]),
            );
        }
        total
    }

    /// `Idown*(j,i)` — the XLWX downstream charge (Eq. 3) over Dⱼ-length
    /// windows, memoised per (j, i) pair exactly like the solver's.
    fn idown_bound(&mut self, j: FlowId, i: FlowId) -> u128 {
        if let Some(&v) = self.idown_memo.get(&(j, i)) {
            return v;
        }
        let part = self.graph.partition_indirect(i, j);
        let mut total: u128 = 0;
        for &k in &part.downstream {
            let inner = self.c[k.index()].saturating_add(self.idown_bound(k, j));
            total = total.saturating_add(self.hits_in_deadline(j, k).saturating_mul(inner));
        }
        self.idown_memo.insert((j, i), total);
        total
    }
}

fn clamp_cycles(v: u128) -> Cycles {
    Cycles::new(u64::try_from(v).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisKind;
    use noc_model::prelude::*;

    fn mesh_flow((src, dst, p, t): (u32, u32, u32, u64)) -> Flow {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(p))
            .period(Cycles::new(t))
            .length_flits(8)
            .build()
    }

    fn mesh_system(specs: &[(u32, u32, u32, u64)]) -> System {
        let flows = FlowSet::new(specs.iter().copied().map(mesh_flow).collect()).unwrap();
        System::new(
            Topology::mesh(4, 4),
            NocConfig::default(),
            flows,
            &XyRouting,
        )
        .unwrap()
    }

    /// The conservative bound dominates every analysis on every flow either
    /// analysis proves schedulable, and never accepts a flow set any
    /// analysis rejects.
    #[test]
    fn dominates_all_five_analyses() {
        let sys = mesh_system(&[
            (0, 15, 1, 1000),
            (4, 7, 2, 1500),
            (12, 3, 3, 2000),
            (1, 13, 4, 2500),
            (5, 6, 5, 3000),
            (0, 10, 6, 3500),
        ]);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let conservative = conservative_with(&ctx);
        assert_eq!(conservative.analysis(), CONSERVATIVE_NAME);
        for analysis in AnalysisKind::ALL {
            let exact = analysis.analyze_with(&ctx).unwrap();
            for (id, verdict) in exact.iter() {
                if let Some(r) = verdict.response_time() {
                    let b = match conservative.verdict(id) {
                        FlowVerdict::Schedulable { response_time } => response_time,
                        FlowVerdict::DeadlineMiss { exceeded_at } => exceeded_at,
                        other => panic!("conservative produced {other:?}"),
                    };
                    assert!(
                        b >= r,
                        "{}: conservative bound {b} below exact {r} for {id}",
                        analysis.name()
                    );
                }
            }
            if conservative.is_schedulable() {
                assert!(
                    exact.is_schedulable(),
                    "conservative accepted a set {} rejects",
                    analysis.name()
                );
            }
        }
    }

    /// A truly missed deadline always shows up as a conservative miss.
    #[test]
    fn true_misses_are_never_accepted() {
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
            mesh_flow((0, 2, 1, 100)),
            Flow::builder(NodeId::new(1), NodeId::new(2))
                .priority(Priority::new(2))
                .period(Cycles::new(100))
                .deadline(Cycles::new(40))
                .length_flits(32)
                .build(),
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let ctx = AnalysisContext::new(&sys).unwrap();
        let exact = AnalysisKind::ShiBurns.analyze_with(&ctx).unwrap();
        assert!(!exact.is_schedulable());
        let conservative = conservative_with(&ctx);
        assert!(!conservative.is_schedulable());
        assert!(matches!(
            conservative.verdict(FlowId::new(1)),
            FlowVerdict::DeadlineMiss { .. }
        ));
    }

    /// Total even on inputs the fixed point cannot handle (the convergence
    /// cap fixture from the engine tests).
    #[test]
    fn total_on_cap_tripping_inputs() {
        let topology = Topology::mesh(3, 1);
        let flows = FlowSet::new(vec![
            Flow::builder(NodeId::new(0), NodeId::new(2))
                .priority(Priority::new(1))
                .period(Cycles::new(19))
                .length_flits(16)
                .build(),
            Flow::builder(NodeId::new(1), NodeId::new(2))
                .priority(Priority::new(2))
                .period(Cycles::new(10_000_000_000))
                .length_flits(32)
                .build(),
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let ctx = AnalysisContext::new(&sys).unwrap();
        assert!(AnalysisKind::Xlwx.analyze_with(&ctx).is_err());
        let conservative = conservative_with(&ctx);
        assert_eq!(conservative.len(), 2);
        // The saturating flow makes the victim's conservative bound huge.
        assert!(!conservative.verdict(FlowId::new(1)).is_schedulable());
    }
}
