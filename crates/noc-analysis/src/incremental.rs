//! Incrementally maintained analysis state for admission-control workloads.
//!
//! An [`AnalysisContext`] is the right tool
//! when the flow set is fixed: build once, analyse many times. Admission
//! control inverts that pattern — the flow set itself changes (a flow asks
//! to join, a flow retires) and after every change the *whole* system must
//! be re-certified. Rebuilding the interference graph and re-solving every
//! flow per change wastes nearly all of that work: a single flow only
//! touches the interference neighbourhood its route overlaps.
//!
//! This module is for *committed* changes, where the mutated flow set is
//! the new state of the system. A one-off what-if against a fixed base is
//! answered without mutating anything, by a context derived for it
//! ([`AnalysisContext::with_added_flow`], [`AnalysisContext::without_flow`]
//! or [`AnalysisContext::rebase`]).
//!
//! [`IncrementalContext`] keeps the derived structure **and** the last
//! solve's results alive across mutations:
//!
//! * it is an owned [`AnalysisContext`] plus one solve cache per
//!   [`AnalysisKind`], so every analysis reads the same structure a
//!   from-scratch context would hold;
//! * [`IncrementalContext::add_flow`] / [`IncrementalContext::remove_flow`]
//!   update the context's [`InterferenceGraph`] through its delta methods
//!   ([`InterferenceGraph::add_flow`] / [`InterferenceGraph::remove_flow`]),
//!   which recompute only the affected neighbourhood and report exactly
//!   which flows' interference sets changed. A context forked with
//!   [`IncrementalContext::from_context`] shares the base's graph until
//!   its first such delta copies it;
//! * those flows are marked dirty in a per-analysis solve cache; the next
//!   [`IncrementalContext::analyze`] propagates dirtiness down the priority
//!   order (a flow is re-solved iff a member of `S^D ∪ S^I` — all strictly
//!   higher priority — is dirty) and reuses the cached response time of
//!   every clean flow.
//!
//! The result is bit-identical to a from-scratch
//! [`AnalysisContext::new`] + solve —
//! pinned by the `incremental_equivalence` integration test — at a small
//! fraction of the cost when changes are local.
//!
//! ```
//! use noc_model::prelude::*;
//! use noc_analysis::prelude::*;
//!
//! # let topology = Topology::mesh(3, 1);
//! # let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(2))
//! #     .priority(Priority::new(1)).period(Cycles::new(1_000)).length_flits(16).build()])?;
//! # let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//! let mut ctx = IncrementalContext::new(system)?;
//! let before = ctx.analyze(AnalysisKind::BufferAware)?;
//!
//! // A flow joins: only its interference neighbourhood is re-solved …
//! let candidate = Flow::builder(NodeId::new(1), NodeId::new(2))
//!     .priority(Priority::new(2))
//!     .period(Cycles::new(2_000))
//!     .length_flits(8)
//!     .build();
//! let id = ctx.add_flow(candidate, &XyRouting)?;
//! let admitted = ctx.analyze(AnalysisKind::BufferAware)?.is_schedulable();
//! // … and when it retires, the system answers as before it joined.
//! ctx.remove_flow(id)?;
//! assert_eq!(ctx.analyze(AnalysisKind::BufferAware)?, before);
//! # assert!(admitted);
//! # Ok::<(), noc_analysis::error::AnalysisError>(())
//! ```

use std::borrow::Cow;

use noc_model::contention::InterferenceGraph;
use noc_model::flow::Flow;
use noc_model::ids::{FlowId, RouterId};
use noc_model::routing::RoutingAlgorithm;
use noc_model::system::System;
use noc_model::topology::Endpoint;

use crate::analysis::AnalysisKind;
use crate::context::AnalysisContext;
use crate::engine::{SolveCache, Solver};
use crate::error::AnalysisError;
use crate::metrics;
use crate::report::AnalysisReport;

/// A [`System`] plus its derived analysis structure, maintained
/// incrementally under flow additions and removals.
///
/// An owned [`AnalysisContext`] plus the last solve of every
/// [`AnalysisKind`]. See the [module docs](self) for the admission-control
/// pattern it serves.
#[derive(Debug, Clone)]
pub struct IncrementalContext {
    ctx: AnalysisContext<'static>,
    /// One solve cache per [`AnalysisKind`], indexed by `AnalysisKind::index`.
    caches: [SolveCache; AnalysisKind::ALL.len()],
}

impl IncrementalContext {
    /// Builds the full derived structure for `system`, taking ownership.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if the system violates the
    /// contiguous contention-domain assumption.
    pub fn new(system: System) -> Result<IncrementalContext, AnalysisError> {
        Ok(Self::with_context(AnalysisContext::build(Cow::Owned(
            system,
        ))?))
    }

    /// Builds an incremental context from an existing [`AnalysisContext`],
    /// cloning its system and *sharing* its interference graph instead of
    /// re-deriving it — the cheap way to fork per-thread mutable state off
    /// one shared base context. The graph is copied only when the first
    /// [`IncrementalContext::add_flow`] or
    /// [`IncrementalContext::remove_flow`] mutates it.
    pub fn from_context(ctx: &AnalysisContext<'_>) -> IncrementalContext {
        Self::with_context(ctx.clone().into_owned())
    }

    fn with_context(ctx: AnalysisContext<'static>) -> IncrementalContext {
        let n = ctx.len();
        IncrementalContext {
            ctx,
            caches: std::array::from_fn(|_| SolveCache::all_dirty(n)),
        }
    }

    /// Admits `flow`, routed by `routing`, and returns its new dense id.
    ///
    /// Only the interference neighbourhood the new route overlaps is
    /// recomputed, and only the flows in it are marked for re-solving.
    ///
    /// # Errors
    ///
    /// Propagates routing and validation failures from
    /// [`System::with_added_flow`] and contiguity violations from
    /// [`InterferenceGraph::add_flow`]; the context is unchanged on error.
    pub fn add_flow(
        &mut self,
        flow: Flow,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<FlowId, AnalysisError> {
        let (id, affected) = self.ctx.add_flow(flow, routing)?;
        for cache in &mut self.caches {
            cache.push_flow();
        }
        self.mark_dirty(&affected, &AnalysisKind::ALL);
        Ok(id)
    }

    /// Retires the flow `id`, renumbering every larger id one down.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Model`] if `id` is out of bounds; the
    /// context is unchanged in that case.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(), AnalysisError> {
        let affected = self.ctx.remove_flow(id)?;
        for cache in &mut self.caches {
            cache.remove_flow(id.index());
        }
        self.mark_dirty(&affected, &AnalysisKind::ALL);
        Ok(())
    }

    /// Marks `affected` dirty in the caches of `kinds` and counts the delta.
    fn mark_dirty(&mut self, affected: &[FlowId], kinds: &[AnalysisKind]) {
        for kind in kinds {
            let cache = &mut self.caches[kind.index()];
            for &a in affected {
                cache.mark_dirty(a.index());
            }
        }
        metrics::INCREMENTAL_DELTAS.incr();
        metrics::INCREMENTAL_FLOWS_DIRTIED.add(affected.len() as u64);
    }

    /// Resizes the per-VC buffers of `router` to `depth` flits.
    ///
    /// Routes, flows, zero-load latencies and the interference graph are
    /// all unaffected by buffer depths, so the only state invalidated is
    /// the buffer-aware analysis cache — and within it only the flows that
    /// actually read the resized router's depth: a solve of τᵢ reads
    /// `buf(ξ)` exclusively through Equation 6 terms `bi(x, y)` over direct
    /// pairs (`y ∈ S^D_x`), at `x = i` directly and at deeper victims
    /// through the recursive `Idown` chain. Marking every such *victim* `x`
    /// whose `cd(x, y)` contains a link into `router` suffices: the deeper
    /// victims are members of `S^D ∪ S^I` chains above τᵢ, so
    /// `solve_cached`'s one-pass propagation down the priority order dirties
    /// every transitive reader — the same closure argument its docs make
    /// for flow additions and removals. Bit-identity to a from-scratch
    /// solve is pinned by `tests/incremental_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds or `depth` is zero (mirroring
    /// [`System::with_router_buffer_depth`]); serving layers validate
    /// queries before applying them.
    pub fn resize_buffer(&mut self, router: RouterId, depth: u32) {
        let affected = self.buffer_dependents(router);
        self.ctx.resize_buffer(router, depth);
        self.mark_dirty(&affected, &[AnalysisKind::BufferAware]);
    }

    /// Flows whose buffer-aware bound reads the depth of `router`: the
    /// victims of direct interference pairs whose contention domain
    /// contains a link targeting it.
    fn buffer_dependents(&self, router: RouterId) -> Vec<FlowId> {
        let (system, graph) = (self.ctx.system(), self.ctx.graph());
        let topology = system.topology();
        let mut out = Vec::new();
        for i in system.flows().ids() {
            let touches = graph.direct_set(i).iter().any(|&j| {
                graph.contention_links(i, j).is_some_and(|links| {
                    links
                        .iter()
                        .any(|&l| topology.link(l).target() == Endpoint::Router(router))
                })
            });
            if touches {
                out.push(i);
            }
        }
        out
    }

    /// Runs `kind` over the current flow set, re-solving only the flows
    /// whose interference inputs changed since this kind last ran.
    ///
    /// Bit-identical to `kind` analysed from scratch over
    /// [`IncrementalContext::system`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ConvergenceCap`] if a re-solved flow's
    /// fixed-point iteration exhausts the solver's safety cap; this kind's
    /// cache is then marked all-dirty, so a later call (after the offending
    /// flow is removed) recovers with a full solve.
    pub fn analyze(&mut self, kind: AnalysisKind) -> Result<AnalysisReport, AnalysisError> {
        Solver::new(&self.ctx, kind).solve_cached(&mut self.caches[kind.index()])
    }

    /// The current system.
    pub fn system(&self) -> &System {
        self.ctx.system()
    }

    /// The incrementally maintained interference graph.
    pub fn graph(&self) -> &InterferenceGraph {
        self.ctx.graph()
    }

    /// Number of flows currently covered.
    pub fn len(&self) -> usize {
        self.ctx.len()
    }

    /// `true` for an empty flow set.
    pub fn is_empty(&self) -> bool {
        self.ctx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    const SPECS: [(u32, u32, u32, u64); 6] = [
        (0, 15, 1, 1000),
        (4, 7, 2, 1500),
        (12, 3, 3, 2000),
        (1, 13, 4, 2500),
        (5, 6, 5, 3000),
        (0, 10, 6, 3500),
    ];

    /// Every kind's incremental report must equal the from-scratch
    /// context path over the same system.
    fn assert_matches_scratch(ctx: &mut IncrementalContext) {
        let sys = ctx.system().clone();
        let scratch = AnalysisContext::new(&sys).unwrap();
        for kind in AnalysisKind::ALL {
            let expected = kind.analyze_with(&scratch).unwrap();
            assert_eq!(ctx.analyze(kind).unwrap(), expected, "{}", kind.name());
        }
    }

    #[test]
    fn additions_match_from_scratch_solves() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..1])).unwrap();
        for &spec in &SPECS[1..] {
            let id = ctx.add_flow(mesh_flow(spec), &XyRouting).unwrap();
            assert_eq!(id.index() + 1, ctx.len());
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn removals_match_from_scratch_solves() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
        for victim in [2u32, 0, 2] {
            ctx.remove_flow(FlowId::new(victim)).unwrap();
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn admission_roundtrip_restores_reports() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..4])).unwrap();
        let before: Vec<AnalysisReport> = AnalysisKind::ALL
            .iter()
            .map(|&k| ctx.analyze(k).unwrap())
            .collect();
        let id = ctx.add_flow(mesh_flow(SPECS[4]), &XyRouting).unwrap();
        let _ = ctx.analyze(AnalysisKind::BufferAware).unwrap();
        ctx.remove_flow(id).unwrap();
        for (&kind, report) in AnalysisKind::ALL.iter().zip(&before) {
            assert_eq!(&ctx.analyze(kind).unwrap(), report, "{}", kind.name());
        }
    }

    #[test]
    fn from_context_matches_new() {
        let sys = mesh_system(&SPECS);
        let base = AnalysisContext::new(&sys).unwrap();
        let before: Vec<AnalysisReport> = AnalysisKind::ALL
            .iter()
            .map(|k| k.analyze_with(&base).unwrap())
            .collect();
        let mut forked = IncrementalContext::from_context(&base);
        let mut fresh = IncrementalContext::new(sys.clone()).unwrap();
        for &kind in &AnalysisKind::ALL {
            assert_eq!(forked.analyze(kind).unwrap(), fresh.analyze(kind).unwrap());
        }
        // Solves and buffer resizes leave the base graph shared …
        forked.resize_buffer(RouterId::new(5), 8);
        let _ = forked.analyze(AnalysisKind::BufferAware).unwrap();
        assert!(std::ptr::eq(forked.graph(), base.graph()));
        // … until the first flow delta copies it.
        let id = forked
            .add_flow(mesh_flow((3, 12, 7, 4000)), &XyRouting)
            .unwrap();
        assert!(!std::ptr::eq(forked.graph(), base.graph()));
        forked.remove_flow(id).unwrap();
        forked.remove_flow(FlowId::new(0)).unwrap();
        let _ = forked.analyze(AnalysisKind::BufferAware).unwrap();
        // The base context never sees the fork's mutations.
        assert_eq!(base.len(), SPECS.len());
        for (&kind, report) in AnalysisKind::ALL.iter().zip(&before) {
            assert_eq!(
                &kind.analyze_with(&base).unwrap(),
                report,
                "{}",
                kind.name()
            );
        }

        let mut removed = IncrementalContext::from_context(&base);
        assert!(std::ptr::eq(removed.graph(), base.graph()));
        removed.remove_flow(FlowId::new(2)).unwrap();
        assert!(!std::ptr::eq(removed.graph(), base.graph()));
        assert_matches_scratch(&mut removed);
    }

    #[test]
    fn buffer_resizes_match_from_scratch_solves() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
        // Warm every cache first so a lazy dirty rule would be caught.
        assert_matches_scratch(&mut ctx);
        for (router, depth) in [(5u32, 8u32), (0, 1), (5, 2), (10, 64)] {
            ctx.resize_buffer(RouterId::new(router), depth);
            assert!(ctx.system().has_heterogeneous_buffers() || depth == 2);
            assert_matches_scratch(&mut ctx);
        }
    }

    #[test]
    fn resize_roundtrip_restores_reports() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS)).unwrap();
        let before: Vec<AnalysisReport> = AnalysisKind::ALL
            .iter()
            .map(|&k| ctx.analyze(k).unwrap())
            .collect();
        let router = RouterId::new(7);
        let original = ctx.system().buffer_depth_at(router);
        ctx.resize_buffer(router, 32);
        let _ = ctx.analyze(AnalysisKind::BufferAware).unwrap();
        ctx.resize_buffer(router, original);
        for (&kind, report) in AnalysisKind::ALL.iter().zip(&before) {
            assert_eq!(&ctx.analyze(kind).unwrap(), report, "{}", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "buffer depth")]
    fn zero_depth_resize_panics() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..2])).unwrap();
        ctx.resize_buffer(RouterId::new(0), 0);
    }

    #[test]
    fn out_of_bounds_removal_is_rejected() {
        let mut ctx = IncrementalContext::new(mesh_system(&SPECS[..2])).unwrap();
        assert!(ctx.remove_flow(FlowId::new(9)).is_err());
        assert_eq!(ctx.len(), 2);
    }
}
