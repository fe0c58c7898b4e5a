//! The shared fixed-point response-time engine.
//!
//! Every analysis in this crate instantiates the same solver with a choice
//! of **downstream-interference model** (how multi-point progressive
//! blocking is charged) and **jitter model** (what inflates the interference
//! window of a direct interferer). The response-time recurrence is the
//! paper's Equation 5 skeleton:
//!
//! ```text
//! Rᵢ = Cᵢ·(σᵢ + 1) + Σ_{τⱼ ∈ S^D_i} ηⱼ(Rᵢ + jitterⱼ) · (Cⱼ + Idown(j,i))
//! ```
//!
//! solved highest-priority-first so that every `Rⱼ` referenced by the
//! interference terms of τᵢ is already final. The hit count comes from each
//! interferer's [arrival curve](noc_model::arrival):
//! `ηⱼ(w) = ⌈(w + Jⱼ)/Tⱼ⌉ + σⱼ`, the paper's Eq. 5 window arithmetic plus
//! the burst allowance σⱼ. For strictly periodic flow sets (every σ = 0)
//! this is **bit-identical** to the paper's recurrence; for bursty flows
//! the extra σⱼ hits per interferer and the `σᵢ·Cᵢ` self-backlog charge
//! (the σᵢ same-priority predecessor packets released in the same burst,
//! each occupying the route for at most Cᵢ) make every bound *conservative*
//! rather than exact — see the crate docs for the per-axis exactness table.
//!
//! The solver does not derive anything from the [`System`] itself: the
//! interference graph, priority order and zero-load latencies all come from
//! a borrowed [`AnalysisContext`], so running all five analyses (or one
//! analysis at several buffer depths) pays for that structure exactly once.

use std::collections::HashMap;

use noc_model::arrival::{ArrivalCurve, LeakyBucket};
use noc_model::contention::{InterferenceGraph, UpDownPartition};
use noc_model::ids::FlowId;
use noc_model::system::System;
use noc_model::time::Cycles;

use crate::analysis::AnalysisKind;
use crate::budget::Budget;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::metrics;
use crate::report::{AnalysisReport, FlowExplanation, FlowVerdict, InterferenceTerm};

/// How downstream indirect interference (the MPB effect) is charged per hit
/// of an indirect interferer τₖ on a direct interferer τⱼ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DownstreamModel {
    /// Not charged at all — the (unsafe under MPB) SB family.
    Ignore,
    /// Charged as direct interference: per hit `Cₖ + Idown(k,j)` (Eq. 3),
    /// the XLWX model.
    Xlwx,
    /// Buffer-aware: per hit `min(bi(i,j), Cₖ + Idown(k,j))` (Eq. 8) when
    /// τⱼ suffers no upstream indirect interference, falling back to the
    /// XLWX charge otherwise — the paper's proposed IBN analysis (§IV).
    BufferAware,
}

/// What inflates the interference window `⌈(Rᵢ + Jⱼ + ⋅)/Tⱼ⌉` of a direct
/// interferer τⱼ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JitterModel {
    /// Nothing (a deliberately naive baseline).
    None,
    /// The interference jitter `J^I_j = Rⱼ − Cⱼ`, charged iff τⱼ suffers
    /// interference from a member of `S^I_i` — the SB rule, kept by the
    /// corrected XLWX (\[6\]/\[13\]) and by IBN.
    InterferenceJitter,
    /// The upstream indirect interference term `Iup(j,i)` of the original
    /// (GLSVLSI 2016) Xiong et al. analysis — Equation 4, shown optimistic
    /// by \[6\]; kept for ablation studies.
    UpstreamInterference,
}

/// Iteration safety cap; monotone integer iterations converge or blow past
/// the deadline long before this on sane inputs. Exhausting it aborts the
/// solve with [`AnalysisError::ConvergenceCap`] naming the flow (and bumps
/// [`metrics::SOLVER_CAP_HITS`]) instead of silently reporting an opaque
/// non-verdict.
const MAX_ITERATIONS: usize = 100_000;

pub(crate) struct Solver<'a> {
    system: &'a System,
    graph: &'a InterferenceGraph,
    /// Highest-priority-first solve order, borrowed from the context.
    order: &'a [FlowId],
    /// The analysis' display name, carried by every report.
    name: &'static str,
    downstream: DownstreamModel,
    jitter: JitterModel,
    /// Zero-load latencies Cᵢ, borrowed from the context.
    c: &'a [u128],
    /// Final response times, filled highest-priority-first.
    r: Vec<Option<u128>>,
    /// Memoised `Idown(j,i)` values keyed by the (j, i) pair.
    idown_memo: HashMap<(FlowId, FlowId), u128>,
    /// Optional cooperative deadline/cancellation token, polled once per
    /// flow and every [`Budget::POLL_ITERATIONS`] fixed-point iterations.
    /// With no budget installed the per-iteration overhead is the one
    /// `Option` discriminant branch.
    budget: Option<&'a Budget>,
}

impl<'a> Solver<'a> {
    /// A solver for `kind` over the context's system and derived structure.
    pub(crate) fn new(ctx: &'a AnalysisContext<'a>, kind: AnalysisKind) -> Self {
        let (downstream, jitter) = kind.models();
        Solver {
            system: ctx.system(),
            graph: ctx.graph(),
            order: ctx.priority_order(),
            name: kind.name(),
            downstream,
            jitter,
            c: ctx.zero_load_raw(),
            r: vec![None; ctx.len()],
            idown_memo: HashMap::new(),
            budget: None,
        }
    }

    /// Installs a cooperative solve budget: the fixed-point loops will
    /// abort with [`AnalysisError::DeadlineExceeded`] once it expires.
    pub(crate) fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs the analysis over the whole flow set.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if any flow's fixed-point
    /// iteration exhausts the safety cap.
    pub(crate) fn solve(self) -> Result<AnalysisReport, AnalysisError> {
        Ok(self.solve_explained()?.0)
    }

    /// Runs the analysis and additionally returns the per-flow
    /// interference breakdowns at the fixed points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::solve`].
    pub(crate) fn solve_explained(
        mut self,
    ) -> Result<(AnalysisReport, Vec<FlowExplanation>), AnalysisError> {
        let _span = metrics::SOLVE_NS.span();
        let order = self.order;
        let n = order.len();
        let mut verdicts = vec![FlowVerdict::NotConverged; n];
        let mut explanations: Vec<Option<FlowExplanation>> = (0..n).map(|_| None).collect();
        for &i in order {
            let (verdict, terms) = self.solve_flow(i)?;
            if let FlowVerdict::Schedulable { response_time } = verdict {
                self.r[i.index()] = Some(u128::from(response_time.as_u64()));
            }
            verdicts[i.index()] = verdict;
            explanations[i.index()] = Some(FlowExplanation {
                flow: i,
                zero_load: clamp_cycles(self.c[i.index()]),
                verdict,
                terms,
            });
        }
        let explanations = explanations
            .into_iter()
            .map(|e| e.expect("every flow solved"))
            .collect();
        Ok((AnalysisReport::new(self.name, verdicts), explanations))
    }

    /// Runs the analysis against `cache`, re-solving only the flows whose
    /// interference inputs changed since the cache was last brought up to
    /// date; every other flow's verdict (and response time) is reused
    /// verbatim, so the result is bit-identical to a full
    /// [`Solver::solve`] by construction.
    ///
    /// Dirtiness propagates down the priority order first: every member of
    /// `S^D_i ∪ S^I_i` has strictly higher priority than τᵢ (both sets are
    /// built from higher-priority flows only), and the fixed point of τᵢ
    /// reads nothing outside those sets — including through the recursive
    /// downstream term, whose every `R`- and structure-reference follows
    /// chains of such edges. One pass in solve order therefore reaches the
    /// whole transitive closure.
    ///
    /// On return the cache is clean (all dirty bits cleared) and holds the
    /// verdicts of the report.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if a dirty flow's
    /// fixed-point iteration exhausts the safety cap; the cache is then
    /// poisoned all-dirty so the next solve through it is a full solve.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was sized for a different number of flows.
    pub(crate) fn solve_cached(
        mut self,
        cache: &mut SolveCache,
    ) -> Result<AnalysisReport, AnalysisError> {
        let _span = metrics::SOLVE_NS.span();
        assert_eq!(
            cache.r.len(),
            self.order.len(),
            "solve cache does not match the flow set"
        );
        for &i in self.order {
            if !cache.dirty[i.index()] {
                let deps_dirty = self
                    .graph
                    .direct_set(i)
                    .iter()
                    .chain(self.graph.indirect_set(i).iter())
                    .any(|&j| cache.dirty[j.index()]);
                cache.dirty[i.index()] = deps_dirty;
            }
        }
        let (mut dirty_solved, mut clean_reused) = (0u64, 0u64);
        for &i in self.order {
            if cache.dirty[i.index()] {
                dirty_solved += 1;
                let verdict = match self.solve_flow(i) {
                    Ok((verdict, _)) => verdict,
                    Err(e) => {
                        // Half the flows are solved, half are stale; the
                        // only consistent cache state is "everything needs
                        // a re-solve".
                        cache.poison();
                        return Err(e);
                    }
                };
                if let FlowVerdict::Schedulable { response_time } = verdict {
                    self.r[i.index()] = Some(u128::from(response_time.as_u64()));
                }
                cache.verdicts[i.index()] = verdict;
            } else {
                // Clean flow: its fixed point is unchanged; republish the
                // cached response time for lower-priority flows to read.
                clean_reused += 1;
                self.r[i.index()] = cache.r[i.index()];
            }
        }
        cache.r = self.r;
        for d in cache.dirty.iter_mut() {
            *d = false;
        }
        metrics::CACHE_DIRTY_SOLVED.add(dirty_solved);
        metrics::CACHE_CLEAN_REUSED.add(clean_reused);
        // Argument construction allocates, so gate the emission itself.
        if noc_telemetry::enabled() {
            noc_telemetry::events::emit(
                "analysis.solve_cached",
                &[
                    ("analysis", self.name.into()),
                    ("dirty_solved", dirty_solved.into()),
                    ("clean_reused", clean_reused.into()),
                ],
            );
        }
        Ok(AnalysisReport::new(self.name, cache.verdicts.clone()))
    }

    /// Computes the verdict for one flow; every higher-priority flow has
    /// been solved already.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if the fixed-point
    /// iteration exhausts [`MAX_ITERATIONS`].
    fn solve_flow(
        &mut self,
        i: FlowId,
    ) -> Result<(FlowVerdict, Vec<InterferenceTerm>), AnalysisError> {
        // Per-flow budget poll: catches an expired budget even when every
        // individual fixed point converges in a handful of iterations, and
        // makes a pre-cancelled budget abort deterministically at the first
        // flow of the solve order.
        if let Some(budget) = self.budget {
            if budget.is_exceeded() {
                metrics::SOLVER_DEADLINE_HITS.incr();
                return Err(AnalysisError::DeadlineExceeded {
                    flow: i,
                    iterations: 0,
                });
            }
        }
        metrics::SOLVER_FLOWS_SOLVED.incr();
        let flow = self.system.flow(i);
        let deadline = u128::from(flow.deadline().as_u64());
        let direct = self.graph.direct_set(i);
        // Taint: a failed direct interferer leaves τᵢ without a valid bound.
        if direct.iter().any(|&j| self.r[j.index()].is_none()) {
            return Ok((FlowVerdict::Tainted, Vec::new()));
        }
        // Per-interferer constants of the recurrence (independent of Rᵢ):
        // each interferer contributes hits from its own arrival curve,
        // evaluated on the window inflated by the model-specific jitter.
        let mut terms = Vec::with_capacity(direct.len());
        for &j in direct {
            let curve = self.system.flow(j).arrival_curve();
            // The partition of S^I_i ∩ S^D_j, computed once per pair for
            // both terms, and only by the models that read it.
            let part = (self.downstream != DownstreamModel::Ignore
                || self.jitter == JitterModel::UpstreamInterference)
                .then(|| self.graph.partition_indirect(i, j));
            let extra_jitter = self.window_jitter(i, j, part.as_ref());
            let downstream = part.as_ref().map_or(0, |p| self.downstream_over(j, i, p));
            let charge = self.c[j.index()].saturating_add(downstream);
            terms.push(Term {
                interferer: j,
                curve,
                extra_jitter,
                charge,
                downstream,
            });
        }
        let explain = |r: u128, terms: &[Term]| {
            terms
                .iter()
                .map(|t| InterferenceTerm {
                    interferer: t.interferer,
                    hits: u64::try_from(t.curve.max_arrivals_raw(r.saturating_add(t.extra_jitter)))
                        .unwrap_or(u64::MAX),
                    charge_per_hit: clamp_cycles(t.charge),
                    downstream_term: clamp_cycles(t.downstream),
                    window_jitter: clamp_cycles(t.extra_jitter),
                })
                .collect::<Vec<_>>()
        };
        // Monotone fixed-point iteration from Rᵢ⁰ = Cᵢ·(σᵢ + 1): a bursty
        // flow's packet can sit behind up to σᵢ same-burst predecessors,
        // each occupying the route for at most Cᵢ. σᵢ = 0 degenerates to
        // the paper's Rᵢ⁰ = Cᵢ exactly.
        let c_i = self.c[i.index()].saturating_mul(u128::from(flow.burst()) + 1);
        let mut r = c_i;
        let mut iterations = 0u64;
        for _ in 0..MAX_ITERATIONS {
            iterations += 1;
            // Cooperative cancellation: poll the budget's atomic flag (and
            // clock, while a deadline is pending) every POLL_ITERATIONS
            // rounds. Without a budget this whole block is one predicted
            // branch on the cached `Option` discriminant.
            if let Some(budget) = self.budget {
                if iterations.is_multiple_of(Budget::POLL_ITERATIONS) && budget.is_exceeded() {
                    metrics::SOLVER_ITERATIONS.add(iterations);
                    metrics::SOLVER_DEADLINE_HITS.incr();
                    return Err(AnalysisError::DeadlineExceeded {
                        flow: i,
                        iterations,
                    });
                }
            }
            let mut next = c_i;
            for t in &terms {
                let window = r.saturating_add(t.extra_jitter);
                let hits = t.curve.max_arrivals_raw(window);
                next = next.saturating_add(hits.saturating_mul(t.charge));
            }
            if next > deadline {
                metrics::SOLVER_ITERATIONS.add(iterations);
                return Ok((
                    FlowVerdict::DeadlineMiss {
                        exceeded_at: clamp_cycles(next),
                    },
                    explain(r, &terms),
                ));
            }
            if next == r {
                metrics::SOLVER_ITERATIONS.add(iterations);
                return Ok((
                    FlowVerdict::Schedulable {
                        response_time: clamp_cycles(r),
                    },
                    explain(r, &terms),
                ));
            }
            r = next;
        }
        metrics::SOLVER_ITERATIONS.add(iterations);
        metrics::SOLVER_CAP_HITS.incr();
        Err(AnalysisError::ConvergenceCap {
            flow: i,
            iterations,
            last_bound: clamp_cycles(r),
        })
    }

    /// The jitter added to τⱼ's interference window when bounding τᵢ;
    /// `part` is the pair's partition, present whenever the model reads it.
    fn window_jitter(&self, i: FlowId, j: FlowId, part: Option<&UpDownPartition>) -> u128 {
        match self.jitter {
            JitterModel::None => 0,
            JitterModel::InterferenceJitter => {
                // J^I_j = Rⱼ − Cⱼ iff τⱼ suffers interference from S^I_i.
                if self.graph.has_indirect_via(i, j) {
                    let r_j = self.r[j.index()].expect("solved before use");
                    r_j.saturating_sub(self.c[j.index()])
                } else {
                    0
                }
            }
            JitterModel::UpstreamInterference => {
                let part = part.expect("the upstream model reads the partition");
                self.upstream_term(j, &part.upstream)
            }
        }
    }

    /// `Iup(j,i)` — Equation 2: the interference τⱼ suffers from the
    /// upstream indirect interferers `upstream` of τᵢ, charged as
    /// hit-count × Cₖ.
    fn upstream_term(&self, j: FlowId, upstream: &[FlowId]) -> u128 {
        let r_j = self.r[j.index()].expect("solved before use");
        let mut total: u128 = 0;
        for &k in upstream {
            let hits = self.hits_on(r_j, k);
            total = total.saturating_add(hits.saturating_mul(self.c[k.index()]));
        }
        total
    }

    /// `Idown(j,i)` for the configured downstream model, memoised per pair:
    /// the entry point of the recursion through downstream interferers.
    fn downstream_term(&mut self, j: FlowId, i: FlowId) -> u128 {
        if let Some(&v) = self.idown_memo.get(&(j, i)) {
            return v;
        }
        let part = self.graph.partition_indirect(i, j);
        self.downstream_over(j, i, &part)
    }

    /// `Idown(j,i)` from the pair's partition `part`, memoised for the
    /// recursion.
    fn downstream_over(&mut self, j: FlowId, i: FlowId, part: &UpDownPartition) -> u128 {
        if self.downstream == DownstreamModel::Ignore {
            return 0;
        }
        // Eq. 8 applies when τⱼ does not suffer *both* upstream and
        // downstream indirect interference; with no downstream interferers
        // the sum is zero either way, so testing the upstream set suffices.
        let buffer_bound = match self.downstream {
            DownstreamModel::BufferAware if part.upstream.is_empty() => {
                Some(self.buffered_interference(i, j))
            }
            _ => None,
        };
        let r_j = self.r[j.index()].expect("solved before use");
        let mut total: u128 = 0;
        for &k in &part.downstream {
            // One hit of τₖ on τⱼ blocks τⱼ for τₖ's own latency plus any
            // downstream interference τₖ itself suffers (recursive MPB).
            let inner = self.c[k.index()].saturating_add(self.downstream_term(k, j));
            let per_hit = match buffer_bound {
                Some(bi) => bi.min(inner),
                None => inner,
            };
            let hits = self.hits_on(r_j, k);
            total = total.saturating_add(hits.saturating_mul(per_hit));
        }
        self.idown_memo.insert((j, i), total);
        total
    }

    /// `ηₖ(Rⱼ) = ⌈(Rⱼ + Jₖ)/Tₖ⌉ + σₖ` — the number of τₖ packets that can
    /// hit τⱼ's packet during its response window (Eq. 7/8, generalised to
    /// τₖ's arrival curve; exact Eq. 7/8 when σₖ = 0).
    fn hits_on(&self, r_j: u128, k: FlowId) -> u128 {
        self.system.flow(k).arrival_curve().max_arrivals_raw(r_j)
    }

    /// Equation 6: `bi(i,j) = buf(Ξ) · linkl(Ξ) · |cd(i,j)|` — the time for
    /// one contention-domain's worth of buffered τⱼ flits to drain past τᵢ.
    ///
    /// Generalised to heterogeneous routers as
    /// `linkl(Ξ) · Σ_{λ ∈ cd(i,j)} buf(target(λ))`: the flits that can pile
    /// up inside the contention domain sit in the input buffers at the
    /// downstream end of each shared link. For homogeneous systems this is
    /// exactly the paper's product form.
    fn buffered_interference(&self, i: FlowId, j: FlowId) -> u128 {
        let linkl = u128::from(self.system.config().link_latency().as_u64());
        if !self.system.has_heterogeneous_buffers() {
            let buf = u128::from(self.system.config().buffer_depth());
            let cd_len = self.graph.contention_len(i, j) as u128;
            return buf * linkl * cd_len;
        }
        let total_buf: u128 = self
            .graph
            .contention_links(i, j)
            .expect("buffered_interference requires a contention domain")
            .iter()
            .map(|&l| u128::from(self.system.buffer_depth_of_link(l).unwrap_or(0)))
            .sum();
        linkl * total_buf
    }
}

/// One direct interferer's precomputed contribution to the recurrence of
/// the flow under analysis: everything except the window length is fixed
/// before the fixed-point iteration starts.
struct Term {
    interferer: FlowId,
    /// The interferer's arrival curve ηⱼ — supplies hit counts per window.
    curve: LeakyBucket,
    /// Model-specific window inflation beyond the curve's own jitter
    /// (interference jitter or upstream interference, per [`JitterModel`]).
    extra_jitter: u128,
    /// Cost per hit: Cⱼ + Idown(j,i).
    charge: u128,
    /// The Idown(j,i) part of the charge, kept for explanations.
    downstream: u128,
}

/// Memoised solve state of **one** analysis over an evolving flow set: the
/// response times and verdicts of the last solve plus a per-flow dirty bit.
///
/// Owned per analysis kind by the incremental context; consumed and
/// refreshed by [`Solver::solve_cached`]. A freshly created cache is
/// all-dirty, so the first solve through it is exactly a full solve.
#[derive(Debug, Clone)]
pub(crate) struct SolveCache {
    /// Final response times of the last solve (`None` for flows without a
    /// valid bound), indexed by flow.
    r: Vec<Option<u128>>,
    /// Verdicts of the last solve, indexed by flow.
    verdicts: Vec<FlowVerdict>,
    /// Flows whose interference inputs changed since the last solve.
    dirty: Vec<bool>,
}

impl SolveCache {
    /// A cache for `n` flows with every flow marked dirty.
    pub(crate) fn all_dirty(n: usize) -> SolveCache {
        SolveCache {
            r: vec![None; n],
            verdicts: vec![FlowVerdict::NotConverged; n],
            dirty: vec![true; n],
        }
    }

    /// Appends state for a newly added flow (dense id = old length),
    /// marked dirty.
    pub(crate) fn push_flow(&mut self) {
        self.r.push(None);
        self.verdicts.push(FlowVerdict::NotConverged);
        self.dirty.push(true);
    }

    /// Drops the state of the flow at `index`; the dense renumbering of the
    /// flows above it is the same `Vec::remove` shift.
    pub(crate) fn remove_flow(&mut self, index: usize) {
        self.r.remove(index);
        self.verdicts.remove(index);
        self.dirty.remove(index);
    }

    /// Marks one flow's inputs as changed.
    pub(crate) fn mark_dirty(&mut self, index: usize) {
        self.dirty[index] = true;
    }

    /// Marks every flow dirty — the recovery state after an aborted
    /// cached solve left the cache half-refreshed.
    pub(crate) fn poison(&mut self) {
        for d in self.dirty.iter_mut() {
            *d = true;
        }
    }
}

fn clamp_cycles(v: u128) -> Cycles {
    Cycles::new(u64::try_from(v).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_saturates() {
        assert_eq!(clamp_cycles(5), Cycles::new(5));
        assert_eq!(clamp_cycles(u128::MAX), Cycles::MAX);
    }
}
