//! The shared, precomputed analysis context.
//!
//! Every analysis of this crate consumes the same derived structure of a
//! [`System`]: the [`InterferenceGraph`] (direct/indirect interference sets,
//! contention domains and up/down partitions — §III of the paper), the
//! priority-ordered flow indices the fixed-point engine solves in, and the
//! zero-load latencies Cᵢ of Equation 1. Building that structure is
//! O(candidate pairs × route length) — far more expensive than any single
//! fixed-point solve — yet experiment harnesses routinely run 4–5 analyses
//! (and several buffer depths) over the *same* flow set.
//!
//! [`AnalysisContext`] computes everything once and lets every analysis
//! borrow it via [`AnalysisKind::analyze_with`]. Derived systems that keep
//! the interference structure intact — different buffer depths
//! ([`System::with_buffer_depth`]), scaled periods
//! ([`System::with_scaled_periods`]) — can share the graph through
//! [`AnalysisContext::rebase`], which revalidates cheaply and clones only an
//! [`Arc`] handle.
//!
//! The context borrows its system or owns it (a [`Cow`]). The owned form is
//! the core of [`IncrementalContext`], which forks one off a borrowed base
//! by cloning the system and *sharing* the graph: the graph is copied only
//! when the fork's first flow delta needs to mutate it.
//!
//! ```
//! use noc_model::prelude::*;
//! use noc_analysis::prelude::*;
//!
//! # let topology = Topology::mesh(3, 1);
//! # let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(2))
//! #     .priority(Priority::new(1)).period(Cycles::new(1_000)).length_flits(16).build()])?;
//! # let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//! // Build the interference structure once …
//! let ctx = AnalysisContext::new(&system)?;
//! // … and run as many analyses against it as needed.
//! let xlwx = Xlwx.analyze_with(&ctx)?;
//! let ibn = BufferAware.analyze_with(&ctx)?;
//! // A different buffer depth keeps routes and priorities: rebase, don't rebuild.
//! let big = system.with_buffer_depth(100);
//! let ibn_big = BufferAware.analyze_with(&ctx.rebase(&big)?)?;
//! # assert!(ibn.is_schedulable() && ibn_big.is_schedulable() && xlwx.is_schedulable());
//! # Ok::<(), noc_analysis::error::AnalysisError>(())
//! ```
//!
//! [`AnalysisKind::analyze_with`]: crate::analysis::AnalysisKind::analyze_with
//! [`IncrementalContext`]: crate::incremental::IncrementalContext

use std::borrow::Cow;
use std::sync::Arc;

use noc_model::contention::InterferenceGraph;
use noc_model::flow::Flow;
use noc_model::ids::{FlowId, RouterId};
use noc_model::routing::RoutingAlgorithm;
use noc_model::system::System;
use noc_model::time::Cycles;

use crate::error::AnalysisError;

/// Precomputed, analysis-independent structure of one [`System`]: the
/// interference graph, the priority order and the zero-load latencies.
///
/// Cheap to hand out by reference; every analysis in this crate accepts one
/// through [`AnalysisKind::analyze_with`](crate::analysis::AnalysisKind::analyze_with).
/// The plain [`AnalysisKind::analyze`](crate::analysis::AnalysisKind::analyze)
/// convenience builds a fresh context internally, so the two paths are
/// equivalent by construction (asserted bit-for-bit by the
/// `context_equivalence` integration test).
#[derive(Debug, Clone)]
pub struct AnalysisContext<'sys> {
    system: Cow<'sys, System>,
    graph: Arc<InterferenceGraph>,
    priority_order: Vec<FlowId>,
    zero_load: Vec<u128>,
}

impl<'sys> AnalysisContext<'sys> {
    /// Builds the full context for `system`: interference graph, priority
    /// order, zero-load latencies.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if the system violates the
    /// contiguous contention-domain assumption (§II of the paper).
    pub fn new(system: &'sys System) -> Result<AnalysisContext<'sys>, AnalysisError> {
        Self::build(Cow::Borrowed(system))
    }

    /// [`AnalysisContext::new`] over a borrowed or owned system.
    pub(crate) fn build(system: Cow<'sys, System>) -> Result<AnalysisContext<'sys>, AnalysisError> {
        let graph = Arc::new(InterferenceGraph::new(&system)?);
        Ok(Self::assemble(system, graph))
    }

    fn assemble(system: Cow<'sys, System>, graph: Arc<InterferenceGraph>) -> AnalysisContext<'sys> {
        let priority_order = system.flows().ids_by_priority();
        let zero_load = system
            .flows()
            .ids()
            .map(|id| zero_load_of(&system, id))
            .collect();
        AnalysisContext {
            system,
            graph,
            priority_order,
            zero_load,
        }
    }

    /// Rebinds this context to a *derived* system that preserves the
    /// interference structure — same flows in the same order, same
    /// priorities, same routes. The expensive interference graph is shared
    /// (one [`Arc`] clone); priority order and zero-load latencies are
    /// recomputed from the new system, so config changes (buffer depth,
    /// link/routing latency) and timing changes (periods, deadlines,
    /// jitters) are picked up correctly.
    ///
    /// Typical sources of compatible systems are
    /// [`System::with_buffer_depth`], [`System::with_router_buffer_depth`]
    /// and [`System::with_scaled_periods`]; for those, a mismatch is a bug
    /// and callers may `.expect(..)` the result.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ContextMismatch`] if `target` differs from
    /// the original system in flow count, any priority, or any route —
    /// reusing the graph would then be unsound.
    pub fn rebase<'b>(&self, target: &'b System) -> Result<AnalysisContext<'b>, AnalysisError> {
        let source = self.system();
        if target.flows().len() != source.flows().len() {
            return Err(AnalysisError::ContextMismatch {
                detail: format!(
                    "flow count changed: {} != {}",
                    target.flows().len(),
                    source.flows().len()
                ),
            });
        }
        for id in source.flows().ids() {
            if target.flow(id).priority() != source.flow(id).priority() {
                return Err(AnalysisError::ContextMismatch {
                    detail: format!("priority of {id} changed"),
                });
            }
            if target.route(id) != source.route(id) {
                return Err(AnalysisError::ContextMismatch {
                    detail: format!("route of {id} changed"),
                });
            }
        }
        Ok(AnalysisContext::assemble(
            Cow::Borrowed(target),
            Arc::clone(&self.graph),
        ))
    }

    /// This context with an owned system: clones a borrowed system, shares
    /// the graph.
    pub(crate) fn into_owned(self) -> AnalysisContext<'static> {
        AnalysisContext {
            system: Cow::Owned(self.system.into_owned()),
            graph: self.graph,
            priority_order: self.priority_order,
            zero_load: self.zero_load,
        }
    }

    /// Admits `flow`, routed by `routing`, updating the graph in place (a
    /// shared graph is copied first). Returns the new dense id and the flows
    /// whose interference sets changed; the context is unchanged on error.
    pub(crate) fn add_flow(
        &mut self,
        flow: Flow,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<(FlowId, Vec<FlowId>), AnalysisError> {
        let (system, id) = self.system.with_added_flow(flow, routing)?;
        let affected = Arc::make_mut(&mut self.graph).add_flow(&system, id)?;
        self.zero_load.push(zero_load_of(&system, id));
        self.set_flows(system);
        Ok((id, affected))
    }

    /// Retires the flow `id`, renumbering every larger id one down. Returns
    /// the flows whose interference sets changed; the context is unchanged
    /// on error.
    pub(crate) fn remove_flow(&mut self, id: FlowId) -> Result<Vec<FlowId>, AnalysisError> {
        let system = self.system.without_flow(id)?;
        let affected = Arc::make_mut(&mut self.graph).remove_flow(&system, id);
        self.zero_load.remove(id.index());
        self.set_flows(system);
        Ok(affected)
    }

    fn set_flows(&mut self, system: System) {
        self.priority_order = system.flows().ids_by_priority();
        self.system = Cow::Owned(system);
    }

    /// Resizes the per-VC buffers of `router`. Buffer depths feed neither
    /// the graph, the priority order nor the zero-load latencies, so only
    /// the system changes.
    ///
    /// # Panics
    ///
    /// As [`System::with_router_buffer_depth`].
    pub(crate) fn resize_buffer(&mut self, router: RouterId, depth: u32) {
        self.system = Cow::Owned(self.system.with_router_buffer_depth(router, depth));
    }

    /// The system this context was built for (or last rebased onto).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The precomputed interference graph (§III): direct/indirect sets,
    /// contention domains, up/down partitions.
    pub fn graph(&self) -> &InterferenceGraph {
        &self.graph
    }

    /// Flow ids from highest priority to lowest — the order the fixed-point
    /// engine solves in, so every `Rⱼ` referenced by τᵢ is already final.
    pub fn priority_order(&self) -> &[FlowId] {
        &self.priority_order
    }

    /// The zero-load latency Cᵢ (Equation 1) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn zero_load(&self, id: FlowId) -> Cycles {
        Cycles::new(u64::try_from(self.zero_load[id.index()]).unwrap_or(u64::MAX))
    }

    /// All zero-load latencies as the engine's wide integers, indexed by
    /// [`FlowId`].
    pub(crate) fn zero_load_raw(&self) -> &[u128] {
        &self.zero_load
    }

    /// Number of flows covered.
    pub fn len(&self) -> usize {
        self.zero_load.len()
    }

    /// `true` for an empty flow set.
    pub fn is_empty(&self) -> bool {
        self.zero_load.is_empty()
    }
}

fn zero_load_of(system: &System, id: FlowId) -> u128 {
    u128::from(system.zero_load_latency(id).as_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::prelude::*;

    fn system(buffer: u32) -> System {
        let topology = Topology::mesh(4, 1);
        let mk = |src: u32, dst: u32, p: u32, t: u64| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(8)
                .build()
        };
        let flows =
            FlowSet::new(vec![mk(0, 3, 1, 500), mk(1, 3, 2, 900), mk(2, 3, 3, 1_300)]).unwrap();
        let config = NocConfig::builder().buffer_depth(buffer).build();
        System::new(topology, config, flows, &XyRouting).unwrap()
    }

    #[test]
    fn context_matches_system_derivations() {
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        assert_eq!(ctx.len(), 3);
        assert!(!ctx.is_empty());
        assert_eq!(ctx.priority_order(), sys.flows().ids_by_priority());
        for id in sys.flows().ids() {
            assert_eq!(ctx.zero_load(id), sys.zero_load_latency(id));
        }
        assert_eq!(
            ctx.graph().direct_set(FlowId::new(2)),
            &[FlowId::new(0), FlowId::new(1)]
        );
    }

    #[test]
    fn rebase_shares_graph_and_tracks_new_system() {
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let big = sys.with_buffer_depth(64);
        let rebased = ctx.rebase(&big).unwrap();
        assert_eq!(rebased.system().config().buffer_depth(), 64);
        // Same shared graph object.
        assert!(std::ptr::eq(ctx.graph(), rebased.graph()));
        // Period scaling also rebases; zero-load is recomputed (unchanged
        // here since lengths and latencies are preserved).
        let scaled = sys.with_scaled_periods(2, 1).unwrap();
        let rescaled = ctx.rebase(&scaled).unwrap();
        assert_eq!(
            rescaled.system().flow(FlowId::new(0)).period(),
            Cycles::new(1_000)
        );
        assert_eq!(
            rescaled.zero_load(FlowId::new(0)),
            ctx.zero_load(FlowId::new(0))
        );
    }

    #[test]
    fn rebase_rejects_structural_changes() {
        let sys = system(2);
        let ctx = AnalysisContext::new(&sys).unwrap();
        // A different topology/flow set must be rejected.
        let other = {
            let topology = Topology::mesh(4, 1);
            let flows = FlowSet::new(vec![Flow::builder(NodeId::new(3), NodeId::new(0))
                .priority(Priority::new(1))
                .period(Cycles::new(500))
                .length_flits(8)
                .build()])
            .unwrap();
            System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap()
        };
        let err = ctx.rebase(&other).unwrap_err();
        assert!(matches!(err, AnalysisError::ContextMismatch { .. }));
        assert!(err.to_string().contains("flow count"));
    }
}
