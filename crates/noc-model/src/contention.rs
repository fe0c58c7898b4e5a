//! Contention domains and interference sets (§II–III of the paper).
//!
//! The *contention domain* `cd(i,j)` of two flows is the ordered set of
//! links their routes share. From it the paper derives, for a flow τᵢ:
//!
//! * the **direct interference set** `S^D_i` — higher-priority flows sharing
//!   at least one link with τᵢ;
//! * the **indirect interference set** `S^I_i` — flows not in `S^D_i` that
//!   interfere with a member of `S^D_i`;
//! * per direct interferer τⱼ, the partition of `S^I_i ∩ S^D_j` into the
//!   **upstream** set `S^upj_Ii` (τₖ hits τⱼ before τⱼ's contention with τᵢ)
//!   and the **downstream** set `S^downj_Ii` (τₖ hits τⱼ after it), by
//!   comparing link order along `routeⱼ`.
//!
//! [`InterferenceGraph`] stores the domains and both sets for a
//! [`System`] and is the single entry point used by every analysis in
//! `noc-analysis`. The up/down partitions are not stored: each one is
//! computed per query from `S^D_j` and `S^D_i` in O(|S^D_j|·|S^D_i|) (see
//! [`InterferenceGraph::partition_indirect`]). Construction only examines
//! flow pairs that actually share a link (via a link-overlap table), so it
//! scales with real contention rather than with n²; `noc-analysis` wraps
//! the graph in its shared `AnalysisContext` so one construction serves
//! every analysis and every compatible system variant.
//!
//! [`System`]: crate::system::System

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::error::ModelError;
use crate::ids::{FlowId, LinkId};
use crate::route::Route;
use crate::system::System;

/// The contention domain of an ordered pair of flows (i, j): the links
/// shared by both routes, with their positions on each route.
///
/// Validated to be contiguous on both routes and traversed in the same
/// order by both flows — the standing assumption of the paper (§II), always
/// satisfied by dimension-order routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionDomain {
    links: Vec<LinkId>,
    span_i: (usize, usize),
    span_j: (usize, usize),
}

impl ContentionDomain {
    /// Computes `cd(i,j)` from two routes.
    ///
    /// Returns `Ok(None)` when the routes are link-disjoint.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonContiguousContentionDomain`] (tagged with
    /// the given flow ids) if the shared links do not form one contiguous,
    /// identically-ordered segment on both routes.
    pub fn compute(
        i: FlowId,
        route_i: &Route,
        j: FlowId,
        route_j: &Route,
    ) -> Result<Option<ContentionDomain>, ModelError> {
        let positions_j: HashMap<LinkId, usize> = route_j
            .iter()
            .enumerate()
            .map(|(pos, &l)| (l, pos))
            .collect();
        let mut shared: Vec<(usize, usize, LinkId)> = Vec::new(); // (pos_i, pos_j, link)
        for (pos_i, &link) in route_i.iter().enumerate() {
            if let Some(&pos_j) = positions_j.get(&link) {
                shared.push((pos_i, pos_j, link));
            }
        }
        if shared.is_empty() {
            return Ok(None);
        }
        let err = || ModelError::NonContiguousContentionDomain {
            first: i,
            second: j,
        };
        // `shared` is ordered by position in route_i. Contiguity on route_i:
        for w in shared.windows(2) {
            if w[1].0 != w[0].0 + 1 {
                return Err(err());
            }
            // Same traversal order on route_j, and contiguity there too:
            if w[1].1 != w[0].1 + 1 {
                return Err(err());
            }
        }
        let span_i = (shared[0].0, shared[shared.len() - 1].0);
        let span_j = (shared[0].1, shared[shared.len() - 1].1);
        let links = shared.into_iter().map(|(_, _, l)| l).collect();
        Ok(Some(ContentionDomain {
            links,
            span_i,
            span_j,
        }))
    }

    /// The shared links in traversal order — `|cd(i,j)|` is
    /// [`ContentionDomain::len`].
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of shared links, the `|cd_ij|` of Equation 6.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Always `false`: link-disjoint pairs yield `None` instead.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// 0-based position of the first shared link on flow i's route.
    pub fn first_in_i(&self) -> usize {
        self.span_i.0
    }

    /// 0-based position of the last shared link on flow i's route.
    pub fn last_in_i(&self) -> usize {
        self.span_i.1
    }

    /// 0-based position of the first shared link on flow j's route — the
    /// paper's `order(first(cd_ij), route_j)` minus one.
    pub fn first_in_j(&self) -> usize {
        self.span_j.0
    }

    /// 0-based position of the last shared link on flow j's route.
    pub fn last_in_j(&self) -> usize {
        self.span_j.1
    }

    /// The same domain viewed from the opposite flow order (swaps the two
    /// position spans).
    #[must_use]
    pub fn swapped(&self) -> ContentionDomain {
        ContentionDomain {
            links: self.links.clone(),
            span_i: self.span_j,
            span_j: self.span_i,
        }
    }
}

/// The partition of `S^I_i ∩ S^D_j` into upstream and downstream indirect
/// interferers, relative to the contention domain `cd(i,j)` on `routeⱼ`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpDownPartition {
    /// `S^upj_Ii`: flows whose contention with τⱼ ends before `cd(i,j)`
    /// begins (on `routeⱼ`).
    pub upstream: Vec<FlowId>,
    /// `S^downj_Ii`: flows whose contention with τⱼ begins after `cd(i,j)`
    /// ends (on `routeⱼ`).
    pub downstream: Vec<FlowId>,
}

/// Precomputed interference structure of a [`System`]: contention domains
/// for every interfering pair plus the direct/indirect sets of every flow.
///
/// # Examples
///
/// ```
/// # use noc_model::prelude::*;
/// # use noc_model::contention::InterferenceGraph;
/// let topology = Topology::mesh(4, 1);
/// let flows = FlowSet::new(vec![
///     Flow::builder(NodeId::new(0), NodeId::new(3))
///         .priority(Priority::new(1))
///         .period(Cycles::new(1_000))
///         .build(),
///     Flow::builder(NodeId::new(0), NodeId::new(3))
///         .priority(Priority::new(2))
///         .period(Cycles::new(2_000))
///         .build(),
/// ])?;
/// let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
/// let graph = InterferenceGraph::new(&system)?;
/// // the lower-priority flow is directly interfered with by the other:
/// assert_eq!(graph.direct_set(FlowId::new(1)), &[FlowId::new(0)]);
/// assert!(graph.direct_set(FlowId::new(0)).is_empty());
/// # Ok::<(), noc_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceGraph {
    direct: Vec<Vec<FlowId>>,
    indirect: Vec<Vec<FlowId>>,
    domains: HashMap<(FlowId, FlowId), ContentionDomain>,
}

impl InterferenceGraph {
    /// Builds the interference graph of `system`.
    ///
    /// Contention domains are only computed for flow pairs that share at
    /// least one link, found through a link-overlap table (link → flows
    /// routed over it) instead of the full O(n²) route cross-product. On
    /// sparse large systems (e.g. a 16×16 mesh with thousands of flows) the
    /// candidate-pair set is a small fraction of all pairs, and graph
    /// construction — the dominant cost this structure exists to amortise —
    /// scales with actual contention rather than with n².
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonContiguousContentionDomain`] if any pair of
    /// routes violates the contiguous contention-domain assumption.
    pub fn new(system: &System) -> Result<InterferenceGraph, ModelError> {
        let n = system.flows().len();
        let ids: Vec<FlowId> = system.flows().ids().collect();
        // Link-overlap table: which flows cross each link, in id order.
        let mut flows_by_link: HashMap<LinkId, Vec<FlowId>> = HashMap::new();
        for &id in &ids {
            for &link in system.route(id).iter() {
                flows_by_link.entry(link).or_default().push(id);
            }
        }
        // Candidate pairs = pairs co-occurring on some link. Every such pair
        // has a non-empty contention domain; disjoint pairs never appear.
        // Ordered so domain computation — and the pair named by any
        // NonContiguousContentionDomain error — is independent of HashMap
        // iteration order.
        let mut candidates: BTreeSet<(FlowId, FlowId)> = BTreeSet::new();
        for flows in flows_by_link.values() {
            for (x, &ia) in flows.iter().enumerate() {
                for &ib in &flows[x + 1..] {
                    let (lo, hi) = if ia < ib { (ia, ib) } else { (ib, ia) };
                    candidates.insert((lo, hi));
                }
            }
        }
        let mut domains = HashMap::new();
        for (lo, hi) in candidates {
            if let Some(cd) = ContentionDomain::compute(lo, system.route(lo), hi, system.route(hi))?
            {
                domains.insert((lo, hi), cd);
            }
        }
        // S^D_a: higher-priority flows sharing links with τa — read straight
        // off the domain keys (priorities are unique per flow set, so the
        // priority sort below is total and deterministic).
        let mut direct: Vec<Vec<FlowId>> = vec![Vec::new(); n];
        for &(lo, hi) in domains.keys() {
            let (plo, phi) = (system.flow(lo).priority(), system.flow(hi).priority());
            if phi.is_higher_than(plo) {
                direct[lo.index()].push(hi);
            } else if plo.is_higher_than(phi) {
                direct[hi.index()].push(lo);
            }
        }
        // Sort direct sets from highest priority to lowest (deterministic,
        // convenient for analyses).
        for set in direct.iter_mut() {
            set.sort_by_key(|&j| system.flow(j).priority());
        }
        let mut indirect: Vec<Vec<FlowId>> = vec![Vec::new(); n];
        // Scratch membership mask, reused across flows to avoid the
        // quadratic Vec::contains scans of the naive formulation.
        let mut excluded = vec![false; n];
        for (a, set) in indirect.iter_mut().enumerate() {
            *set = Self::indirect_of(&direct, system, a, &mut excluded);
        }
        Ok(InterferenceGraph {
            direct,
            indirect,
            domains,
        })
    }

    /// Computes `S^I_a` from the direct sets: members of `S^D_j` for any
    /// `j ∈ S^D_a` that are neither τa itself nor already direct.
    ///
    /// `excluded` is a caller-provided scratch mask (all `false` on entry,
    /// restored to all `false` on exit) sized to the number of flows.
    fn indirect_of(
        direct: &[Vec<FlowId>],
        system: &System,
        a: usize,
        excluded: &mut [bool],
    ) -> Vec<FlowId> {
        excluded[a] = true;
        for &j in &direct[a] {
            excluded[j.index()] = true;
        }
        let mut seen: Vec<FlowId> = Vec::new();
        for &j in &direct[a] {
            for &k in &direct[j.index()] {
                if !excluded[k.index()] {
                    excluded[k.index()] = true;
                    seen.push(k);
                }
            }
        }
        // Reset the scratch mask for the next flow.
        excluded[a] = false;
        for &j in &direct[a] {
            excluded[j.index()] = false;
        }
        for &k in &seen {
            excluded[k.index()] = false;
        }
        seen.sort_by_key(|&k| system.flow(k).priority());
        seen
    }

    /// Extends the graph with the (already routed) flow `id` of `system`,
    /// recomputing only the neighbourhood the new flow touches.
    ///
    /// `system` must be the *post-addition* system, e.g. the one returned by
    /// [`System::with_added_flow`], and `id` the dense id it assigned. Only
    /// pairs involving the new flow can gain a contention domain, so the
    /// work is proportional to the flows sharing links with the new route —
    /// not to the whole system, which is what makes incremental admission
    /// queries cheap.
    ///
    /// Returns every flow whose direct or indirect interference set may
    /// have changed, `id` included — the set an incremental solver must
    /// mark dirty.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonContiguousContentionDomain`] if the new
    /// route violates the contiguity assumption against an existing one.
    /// The graph is left untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the next dense id or `system` does not have
    /// exactly one more flow than the graph covers.
    pub fn add_flow(&mut self, system: &System, id: FlowId) -> Result<Vec<FlowId>, ModelError> {
        let n_old = self.direct.len();
        assert_eq!(id.index(), n_old, "added flow must take the next dense id");
        assert_eq!(
            system.flows().len(),
            n_old + 1,
            "system must already contain the added flow"
        );
        // Existing flows sharing at least one link with the new route.
        let new_links: HashSet<LinkId> = system.route(id).iter().copied().collect();
        let mut overlapping: Vec<FlowId> = Vec::new();
        for g in system.flows().ids() {
            if g != id && system.route(g).iter().any(|l| new_links.contains(l)) {
                overlapping.push(g);
            }
        }
        // All fallible work happens before any mutation, so a contiguity
        // violation leaves the graph exactly as it was.
        let mut new_domains: Vec<(FlowId, ContentionDomain)> =
            Vec::with_capacity(overlapping.len());
        for &g in &overlapping {
            // `g < id` always holds (the new flow has the largest id), so
            // `(g, id)` is already in canonical key order.
            if let Some(cd) = ContentionDomain::compute(g, system.route(g), id, system.route(id))? {
                new_domains.push((g, cd));
            }
        }
        self.direct.push(Vec::new());
        self.indirect.push(Vec::new());
        let p_new = system.flow(id).priority();
        // Existing flows whose direct set gains the new flow.
        let mut changed = vec![false; n_old + 1];
        for (g, cd) in new_domains {
            let p_g = system.flow(g).priority();
            self.domains.insert((g, id), cd);
            if p_new.is_higher_than(p_g) {
                self.direct[g.index()].push(id);
                changed[g.index()] = true;
            } else {
                self.direct[id.index()].push(g);
            }
        }
        // Restore the highest-to-lowest priority order of every touched set.
        self.direct[id.index()].sort_by_key(|&j| system.flow(j).priority());
        for (a, _) in changed.iter().enumerate().filter(|&(_, &c)| c) {
            self.direct[a].sort_by_key(|&j| system.flow(j).priority());
        }
        // A flow's indirect set depends on its own direct set and on the
        // direct sets of its direct interferers, so recompute exactly where
        // one of those inputs changed.
        let mut affected: Vec<FlowId> = Vec::new();
        for a in 0..=n_old {
            let touched =
                a == id.index() || changed[a] || self.direct[a].iter().any(|&j| changed[j.index()]);
            if touched {
                affected.push(FlowId::new(a as u32));
            }
        }
        let mut excluded = vec![false; n_old + 1];
        for &a in &affected {
            self.indirect[a.index()] =
                Self::indirect_of(&self.direct, system, a.index(), &mut excluded);
        }
        Ok(affected)
    }

    /// Removes flow `id` from the graph, renumbering every larger id one
    /// down (flow ids are dense indices) and recomputing indirect sets only
    /// where the removed flow participated.
    ///
    /// `system` must be the *post-removal* system, e.g. the one returned by
    /// [`System::without_flow`].
    ///
    /// Returns every remaining flow — under its **new** id — whose direct
    /// or indirect interference set changed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds or `system` does not have exactly
    /// one flow fewer than the graph covers.
    pub fn remove_flow(&mut self, system: &System, id: FlowId) -> Vec<FlowId> {
        let n_old = self.direct.len();
        assert!(id.index() < n_old, "no such flow to remove");
        assert_eq!(
            system.flows().len(),
            n_old - 1,
            "system must no longer contain the removed flow"
        );
        // Flows that lose the removed flow from their interference sets —
        // indexed under the *old* numbering. Losing a direct interferer can
        // reshape the whole indirect set (the removed flow's own direct set
        // stops being unioned in); losing an indirect one only drops it.
        let affected_old: Vec<usize> = (0..n_old)
            .filter(|&a| {
                a != id.index() && (self.direct[a].contains(&id) || self.indirect[a].contains(&id))
            })
            .collect();
        // Drop domains involving the flow and shift the keys above it.
        let shift = |f: FlowId| {
            if f > id {
                FlowId::new(f.raw() - 1)
            } else {
                f
            }
        };
        let old_domains = std::mem::take(&mut self.domains);
        for ((lo, hi), cd) in old_domains {
            if lo != id && hi != id {
                self.domains.insert((shift(lo), shift(hi)), cd);
            }
        }
        // Renumber the direct/indirect adjacency. Priorities are untouched
        // and relative order is preserved, so the lists stay sorted.
        self.direct.remove(id.index());
        self.indirect.remove(id.index());
        for set in self.direct.iter_mut().chain(self.indirect.iter_mut()) {
            set.retain(|&f| f != id);
            for f in set.iter_mut() {
                *f = shift(*f);
            }
        }
        let affected: Vec<FlowId> = affected_old
            .into_iter()
            .map(|a| shift(FlowId::new(a as u32)))
            .collect();
        let mut excluded = vec![false; n_old - 1];
        for &a in &affected {
            self.indirect[a.index()] =
                Self::indirect_of(&self.direct, system, a.index(), &mut excluded);
        }
        affected
    }

    fn lookup(
        domains: &HashMap<(FlowId, FlowId), ContentionDomain>,
        i: FlowId,
        j: FlowId,
    ) -> Option<(&ContentionDomain, bool)> {
        if i < j {
            domains.get(&(i, j)).map(|cd| (cd, false))
        } else {
            domains.get(&(j, i)).map(|cd| (cd, true))
        }
    }

    /// The first and last positions of `cd(a,b)` on flow `a`'s route, read
    /// in place.
    fn span_on(&self, a: FlowId, b: FlowId) -> Option<(usize, usize)> {
        Self::lookup(&self.domains, a, b)
            .map(|(cd, swapped)| if swapped { cd.span_j } else { cd.span_i })
    }

    /// `S^D_i`, after checking the precondition `j ∈ S^D_i` shared by
    /// [`InterferenceGraph::partition_indirect`] and
    /// [`InterferenceGraph::has_indirect_via`].
    fn direct_set_containing(&self, i: FlowId, j: FlowId, caller: &str) -> &[FlowId] {
        let direct_i = &self.direct[i.index()];
        assert!(
            direct_i.contains(&j),
            "{caller}({i}, {j}) requires j ∈ S^D_i, but {j} is not a \
             higher-priority contender of {i}"
        );
        direct_i
    }

    /// The contention domain `cd(i,j)`, oriented so that
    /// [`ContentionDomain::first_in_i`] refers to flow `i`'s route.
    ///
    /// Returns `None` for link-disjoint pairs (and for `i == j`). This
    /// clones the link list; [`InterferenceGraph::contention_links`] borrows
    /// it instead.
    pub fn contention_domain(&self, i: FlowId, j: FlowId) -> Option<ContentionDomain> {
        Self::lookup(&self.domains, i, j).map(
            |(cd, swapped)| {
                if swapped {
                    cd.swapped()
                } else {
                    cd.clone()
                }
            },
        )
    }

    /// The links of `cd(i,j)` in traversal order, borrowed from the graph,
    /// or `None` for link-disjoint pairs. The list does not depend on the
    /// orientation of the pair.
    pub fn contention_links(&self, i: FlowId, j: FlowId) -> Option<&[LinkId]> {
        Self::lookup(&self.domains, i, j).map(|(cd, _)| cd.links())
    }

    /// `|cd(i,j)|`, or 0 for disjoint pairs.
    pub fn contention_len(&self, i: FlowId, j: FlowId) -> usize {
        Self::lookup(&self.domains, i, j).map_or(0, |(cd, _)| cd.len())
    }

    /// `true` if flows `i` and `j` share at least one link.
    pub fn contend(&self, i: FlowId, j: FlowId) -> bool {
        Self::lookup(&self.domains, i, j).is_some()
    }

    /// The direct interference set `S^D_i`, sorted from highest priority to
    /// lowest.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn direct_set(&self, i: FlowId) -> &[FlowId] {
        &self.direct[i.index()]
    }

    /// The indirect interference set `S^I_i`, sorted from highest priority
    /// to lowest.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn indirect_set(&self, i: FlowId) -> &[FlowId] {
        &self.indirect[i.index()]
    }

    /// `true` if τⱼ suffers interference from a member of `S^I_i` — the
    /// condition under which the analyses charge τⱼ's interference jitter
    /// `J^I_j = R_j − C_j` when bounding τᵢ.
    ///
    /// Decided as `∃ k ∈ S^D_j \ S^D_i`, which equals `S^I_i ∩ S^D_j` (see
    /// [`InterferenceGraph::partition_indirect`]), in O(|S^D_j|·|S^D_i|)
    /// without reading `S^I_i`.
    ///
    /// # Panics
    ///
    /// Panics unless `j ∈ S^D_i`, the precondition of that identity.
    pub fn has_indirect_via(&self, i: FlowId, j: FlowId) -> bool {
        let direct_i = self.direct_set_containing(i, j, "has_indirect_via");
        self.direct[j.index()].iter().any(|k| !direct_i.contains(k))
    }

    /// Partitions `S^I_i ∩ S^D_j` into the upstream set `S^upj_Ii` and the
    /// downstream set `S^downj_Ii` by comparing link positions on `routeⱼ`
    /// (the paper's §III definitions).
    ///
    /// The partition is computed per call, not stored, by filtering `S^D_j`
    /// instead of scanning `S^I_i`, in O(|S^D_j|·|S^D_i|). This rests on
    /// the identity `S^I_i ∩ S^D_j = S^D_j \ S^D_i` for `j ∈ S^D_i`.
    /// Proof: `S^I_i` is `(⋃_{j'∈S^D_i} S^D_{j'}) \ S^D_i \ {i}`, and the
    /// union includes `S^D_j`, so `S^I_i` holds every member of `S^D_j`
    /// outside `S^D_i` except τᵢ itself; and every `k ∈ S^D_j` outranks τⱼ,
    /// which outranks τᵢ, so `k ≠ i`.
    /// Both sets are sorted by priority, so the members come out in the
    /// same order as a walk of `S^I_i` would yield them.
    ///
    /// # Panics
    ///
    /// Panics unless `j ∈ S^D_i`, the precondition of the identity: a
    /// lower-priority contender `j` would otherwise yield τᵢ itself as a
    /// member. In debug builds it also panics if a member cannot be
    /// classified, which is impossible while the contiguity invariant
    /// holds.
    pub fn partition_indirect(&self, i: FlowId, j: FlowId) -> UpDownPartition {
        let direct_i = self.direct_set_containing(i, j, "partition_indirect");
        // positions of cd(i,j) on route_j:
        let (ij_first, ij_last) = self.span_on(j, i).expect("j ∈ S^D_i contends with i");
        let mut partition = UpDownPartition::default();
        for &k in &self.direct[j.index()] {
            if direct_i.contains(&k) {
                continue;
            }
            // positions of cd(j,k) on route_j:
            let (jk_first, jk_last) = self.span_on(j, k).expect("k ∈ S^D_j contends with j");
            if jk_last < ij_first {
                partition.upstream.push(k);
            } else if jk_first > ij_last {
                partition.downstream.push(k);
            } else {
                // Overlap is impossible: k ∈ S^I_i shares no link with
                // route_i ⊇ cd(i,j), and both domains are contiguous on
                // route_j, so their position intervals are disjoint.
                debug_assert!(
                    false,
                    "unclassifiable indirect interferer {k} for pair ({i},{j})"
                );
                // Release-mode fallback: treat as upstream, the
                // conservative choice (disables the buffer-aware bound).
                partition.upstream.push(k);
            }
        }
        partition
    }

    /// Number of flows covered by this graph.
    pub fn len(&self) -> usize {
        self.direct.len()
    }

    /// `true` if the graph covers no flows.
    pub fn is_empty(&self) -> bool {
        self.direct.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::flow::{Flow, FlowSet};
    use crate::ids::{NodeId, Priority};
    use crate::routing::{TableRouting, XyRouting};
    use crate::time::Cycles;
    use crate::topology::{Topology, TopologyBuilder};

    /// Three flows on a 4x1 chain: τ0 (P3) 0→3, τ1 (P1) 1→3, τ2 (P2) 2→3.
    fn chain_system() -> System {
        let topology = Topology::mesh(4, 1);
        let mk = |src: u32, dst: u32, p: u32, t: u64| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(4)
                .build()
        };
        let flows =
            FlowSet::new(vec![mk(0, 3, 3, 900), mk(1, 3, 1, 300), mk(2, 3, 2, 600)]).unwrap();
        System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap()
    }

    #[test]
    fn contention_domain_of_nested_routes() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        // τ0 (0→3) and τ1 (1→3) share r1→r2, r2→r3 and the ejection link.
        let cd = g.contention_domain(FlowId::new(0), FlowId::new(1)).unwrap();
        assert_eq!(cd.len(), 3);
        // On τ0's route those are positions 2..4 (after n0→r0, r0→r1).
        assert_eq!(cd.first_in_i(), 2);
        assert_eq!(cd.last_in_i(), 4);
        // On τ1's route they are positions 1..3 (after n1→r1).
        assert_eq!(cd.first_in_j(), 1);
        assert_eq!(cd.last_in_j(), 3);
    }

    #[test]
    fn contention_domain_orientation_swaps() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        let a = g.contention_domain(FlowId::new(0), FlowId::new(1)).unwrap();
        let b = g.contention_domain(FlowId::new(1), FlowId::new(0)).unwrap();
        assert_eq!(a.links(), b.links());
        assert_eq!(a.first_in_i(), b.first_in_j());
        assert_eq!(a.last_in_j(), b.last_in_i());
    }

    #[test]
    fn direct_sets_respect_priority() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        // τ0 has lowest priority and shares links with both others.
        assert_eq!(
            g.direct_set(FlowId::new(0)),
            &[FlowId::new(1), FlowId::new(2)]
        );
        // τ1 is highest: nothing interferes with it.
        assert!(g.direct_set(FlowId::new(1)).is_empty());
        // τ2 is interfered by τ1 only.
        assert_eq!(g.direct_set(FlowId::new(2)), &[FlowId::new(1)]);
    }

    #[test]
    fn indirect_set_empty_when_everything_is_direct() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        for i in 0..3 {
            assert!(g.indirect_set(FlowId::new(i)).is_empty(), "flow {i}");
        }
    }

    #[test]
    fn disjoint_flows_do_not_contend() {
        let topology = Topology::mesh(4, 4);
        let mk = |src: u32, dst: u32, p: u32| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(1000))
                .build()
        };
        // τ0 along the bottom row, τ1 along the top row.
        let flows = FlowSet::new(vec![mk(0, 3, 2), mk(12, 15, 1)]).unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g = InterferenceGraph::new(&sys).unwrap();
        assert!(!g.contend(FlowId::new(0), FlowId::new(1)));
        assert_eq!(g.contention_len(FlowId::new(0), FlowId::new(1)), 0);
        assert!(g.direct_set(FlowId::new(0)).is_empty());
    }

    /// The didactic topology of Figure 3 (reconstructed; see DESIGN.md):
    /// routers 1..4 in a row, router 5 below 3, router 6 below 4.
    /// τ1: f→e via (6,5); τ2: a→e via (1,2,3,4,6,5); τ3: b→f via (2,3,4,6).
    fn didactic_system() -> System {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (1..=6)
            .map(|i| b.add_named_router(format!("r{i}")))
            .collect();
        let names = ["a", "b", "c", "d", "e", "f"];
        let nodes: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, n)| b.add_named_node(r[i], *n))
            .collect();
        // row links 1-2-3-4, verticals 3-5 and 4-6, bottom 5-6.
        for (x, y) in [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)] {
            b.add_duplex_router_link(r[x], r[y]);
        }
        let topo = b.build().unwrap();
        let link = |from: Endpoint, to: Endpoint| topo.find_link(from, to).unwrap();
        use crate::topology::Endpoint;
        let rt = |idx: usize| Endpoint::Router(r[idx]);
        let mut table = TableRouting::new();
        // τ1: f→e
        table.insert(
            nodes[5],
            nodes[4],
            Route::new(
                &topo,
                vec![
                    topo.injection_link(nodes[5]),
                    link(rt(5), rt(4)),
                    topo.ejection_link(nodes[4]),
                ],
            )
            .unwrap(),
        );
        // τ2: a→e via 1,2,3,4,6,5
        table.insert(
            nodes[0],
            nodes[4],
            Route::new(
                &topo,
                vec![
                    topo.injection_link(nodes[0]),
                    link(rt(0), rt(1)),
                    link(rt(1), rt(2)),
                    link(rt(2), rt(3)),
                    link(rt(3), rt(5)),
                    link(rt(5), rt(4)),
                    topo.ejection_link(nodes[4]),
                ],
            )
            .unwrap(),
        );
        // τ3: b→f via 2,3,4,6
        table.insert(
            nodes[1],
            nodes[5],
            Route::new(
                &topo,
                vec![
                    topo.injection_link(nodes[1]),
                    link(rt(1), rt(2)),
                    link(rt(2), rt(3)),
                    link(rt(3), rt(5)),
                    topo.ejection_link(nodes[5]),
                ],
            )
            .unwrap(),
        );
        let mk = |src: usize, dst: usize, p: u32, l: u32, t: u64| {
            Flow::builder(nodes[src], nodes[dst])
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(l)
                .name(format!("τ{p}"))
                .build()
        };
        let flows = FlowSet::new(vec![
            mk(5, 4, 1, 60, 200),   // τ1
            mk(0, 4, 2, 198, 4000), // τ2
            mk(1, 5, 3, 128, 6000), // τ3
        ])
        .unwrap();
        let config = NocConfig::builder()
            .buffer_depth(2)
            .link_latency(Cycles::ONE)
            .routing_latency(Cycles::ZERO)
            .virtual_channels(3)
            .build();
        System::new(topo, config, flows, &table).unwrap()
    }

    #[test]
    fn didactic_routes_and_latencies_match_table_one() {
        let sys = didactic_system();
        assert_eq!(sys.route(FlowId::new(0)).len(), 3);
        assert_eq!(sys.route(FlowId::new(1)).len(), 7);
        assert_eq!(sys.route(FlowId::new(2)).len(), 5);
        assert_eq!(sys.zero_load_latency(FlowId::new(0)), Cycles::new(62));
        assert_eq!(sys.zero_load_latency(FlowId::new(1)), Cycles::new(204));
        assert_eq!(sys.zero_load_latency(FlowId::new(2)), Cycles::new(132));
    }

    #[test]
    fn didactic_interference_structure() {
        let sys = didactic_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        let (t1, t2, t3) = (FlowId::new(0), FlowId::new(1), FlowId::new(2));
        // τ3 is directly interfered with by τ2 only; τ1 is indirect.
        assert_eq!(g.direct_set(t3), &[t2]);
        assert_eq!(g.indirect_set(t3), &[t1]);
        // τ2 is directly interfered with by τ1.
        assert_eq!(g.direct_set(t2), &[t1]);
        assert!(g.indirect_set(t2).is_empty());
        // |cd(3,2)| = 3 — the key quantity behind Table II.
        assert_eq!(g.contention_len(t3, t2), 3);
        // τ1's hits on τ2 land downstream of cd(3,2):
        let part = g.partition_indirect(t3, t2);
        assert_eq!(part.downstream, vec![t1]);
        assert!(part.upstream.is_empty());
        // τ2 suffers indirect-relevant interference relative to τ3:
        assert!(g.has_indirect_via(t3, t2));
        assert!(!g.has_indirect_via(t2, t1));
    }

    #[test]
    fn upstream_partition_detected() {
        // τ_low: n1→n3 on a 5x1 chain; τ_mid: n0→n3 (shares r1→r2,r2→r3 with
        // τ_low); τ_hi: n0→n1 — hits τ_mid on links *before* cd(low,mid).
        let topology = Topology::mesh(5, 1);
        let mk = |src: u32, dst: u32, p: u32, t: u64| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(4)
                .build()
        };
        let flows = FlowSet::new(vec![
            mk(1, 4, 3, 1000), // τ_low
            mk(0, 4, 2, 500),  // τ_mid: shares n0 injection? no — 0→4 shares r1..r4 with low
            mk(0, 1, 1, 100),  // τ_hi: shares r0→r1 with mid only (plus ejection at n1)
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g = InterferenceGraph::new(&sys).unwrap();
        let (low, mid, hi) = (FlowId::new(0), FlowId::new(1), FlowId::new(2));
        assert_eq!(g.direct_set(low), &[mid]);
        assert_eq!(g.indirect_set(low), &[hi]);
        let part = g.partition_indirect(low, mid);
        assert_eq!(part.upstream, vec![hi]);
        assert!(part.downstream.is_empty());
    }

    /// τ0 contends with τ1 but has lower priority, so τ0 ∉ S^D_1. Without
    /// the check, `S^D_0 \ S^D_1` would hand back τ1 itself as a member.
    #[test]
    #[should_panic(expected = "partition_indirect(f1, f0) requires j ∈ S^D_i")]
    fn partition_rejects_lower_priority_contender() {
        let g = InterferenceGraph::new(&chain_system()).unwrap();
        assert!(g.contend(FlowId::new(1), FlowId::new(0)));
        g.partition_indirect(FlowId::new(1), FlowId::new(0));
    }

    #[test]
    #[should_panic(expected = "has_indirect_via(f1, f0) requires j ∈ S^D_i")]
    fn has_indirect_via_rejects_lower_priority_contender() {
        let g = InterferenceGraph::new(&chain_system()).unwrap();
        assert!(g.contend(FlowId::new(1), FlowId::new(0)));
        g.has_indirect_via(FlowId::new(1), FlowId::new(0));
    }

    #[test]
    fn non_contiguous_domain_rejected() {
        // Custom topology where two routes share link A, diverge, and share
        // link B again: a "braid" that violates the paper's assumption.
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..6).map(|_| b.add_router()).collect();
        let src = b.add_node(r[0]);
        let dst = b.add_node(r[5]);
        // two parallel middle paths: r1→r2→r4 and r1→r3→r4
        for (x, y) in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
            b.add_duplex_router_link(r[x], r[y]);
        }
        let topo = b.build().unwrap();
        use crate::topology::Endpoint;
        let link = |a: usize, c: usize| {
            topo.find_link(Endpoint::Router(r[a]), Endpoint::Router(r[c]))
                .unwrap()
        };
        let mk_route = |mid: usize| {
            Route::new(
                &topo,
                vec![
                    topo.injection_link(src),
                    link(0, 1),
                    link(1, mid),
                    link(mid, 4),
                    link(4, 5),
                    topo.ejection_link(dst),
                ],
            )
            .unwrap()
        };
        let route_via_2 = mk_route(2);
        let route_via_3 = mk_route(3);
        let err =
            ContentionDomain::compute(FlowId::new(0), &route_via_2, FlowId::new(1), &route_via_3)
                .unwrap_err();
        assert!(matches!(
            err,
            ModelError::NonContiguousContentionDomain { .. }
        ));
    }

    /// Six flows criss-crossing a 4×4 mesh — enough contention to exercise
    /// direct, indirect, and disjoint pairs at once.
    fn mesh_specs() -> Vec<(u32, u32, u32, u64)> {
        vec![
            (0, 15, 1, 1000),
            (4, 7, 2, 1500),
            (12, 3, 3, 2000),
            (1, 13, 4, 2500),
            (5, 6, 5, 3000),
            (0, 10, 6, 3500),
        ]
    }

    fn mesh_flow((src, dst, p, t): (u32, u32, u32, u64)) -> Flow {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(p))
            .period(Cycles::new(t))
            .length_flits(8)
            .build()
    }

    #[test]
    fn incremental_add_matches_from_scratch() {
        let topology = Topology::mesh(4, 4);
        let specs = mesh_specs();
        let flows = FlowSet::new(vec![mesh_flow(specs[0])]).unwrap();
        let mut sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let mut g = InterferenceGraph::new(&sys).unwrap();
        for &spec in &specs[1..] {
            let (next, id) = sys.with_added_flow(mesh_flow(spec), &XyRouting).unwrap();
            let affected = g.add_flow(&next, id).unwrap();
            assert!(affected.contains(&id));
            sys = next;
            assert_eq!(g, InterferenceGraph::new(&sys).unwrap());
        }
    }

    #[test]
    fn incremental_remove_matches_from_scratch() {
        let topology = Topology::mesh(4, 4);
        let flows = FlowSet::new(mesh_specs().into_iter().map(mesh_flow).collect()).unwrap();
        let mut sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let mut g = InterferenceGraph::new(&sys).unwrap();
        // Remove from the middle, the front, and the middle again so the
        // id renumbering gets exercised in every position.
        for victim in [2u32, 0, 2] {
            let id = FlowId::new(victim);
            sys = sys.without_flow(id).unwrap();
            g.remove_flow(&sys, id);
            assert_eq!(g, InterferenceGraph::new(&sys).unwrap());
        }
    }

    #[test]
    fn remove_then_re_add_round_trips() {
        let full = didactic_system();
        let g_full = InterferenceGraph::new(&full).unwrap();
        // Drop the last flow (τ3), then grow the graph back. `add_flow`
        // only needs the post-addition system, and removing the *last* id
        // leaves every other id unchanged — so `full` itself is that system.
        let last = FlowId::new(2);
        let smaller = full.without_flow(last).unwrap();
        let mut g = g_full.clone();
        g.remove_flow(&smaller, last);
        assert_eq!(g, InterferenceGraph::new(&smaller).unwrap());
        let affected = g.add_flow(&full, last).unwrap();
        assert!(affected.contains(&last));
        assert_eq!(g, g_full);
    }

    #[test]
    fn opposite_direction_links_do_not_contend() {
        let topology = Topology::mesh(3, 1);
        let mk = |src: u32, dst: u32, p: u32| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(1000))
                .build()
        };
        let flows = FlowSet::new(vec![mk(0, 2, 1), mk(2, 0, 2)]).unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g = InterferenceGraph::new(&sys).unwrap();
        assert!(!g.contend(FlowId::new(0), FlowId::new(1)));
    }
}
