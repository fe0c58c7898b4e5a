//! Property-based tests for the system model: routing, contention domains
//! and interference sets on randomly generated mesh workloads.

use noc_model::contention::InterferenceGraph;
use noc_model::prelude::*;
use proptest::prelude::*;

/// Raw flow draw: (source, dest, period, length).
type RawFlow = (u32, u32, u64, u32);

/// Strategy: a mesh size and a set of random flows on it.
fn mesh_and_flows() -> impl Strategy<Value = (u16, u16, Vec<RawFlow>)> {
    (2u16..6, 2u16..6).prop_flat_map(|(w, h)| {
        let nodes = u32::from(w) * u32::from(h);
        let flow = (0..nodes, 0..nodes, 100u64..100_000, 1u32..256);
        (Just(w), Just(h), proptest::collection::vec(flow, 1..12))
    })
}

/// The flow a raw draw describes at `priority`, or `None` for a
/// self-loop.
fn raw_flow((src, dst, period, len): RawFlow, priority: u32) -> Option<Flow> {
    (src != dst).then(|| {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(priority))
            .period(Cycles::new(period))
            .length_flits(len)
            .build()
    })
}

/// A system whose flows take priorities `step, 2·step, …` in draw order,
/// or `None` if a draw is invalid (the case is then skipped).
fn build_system_spaced(w: u16, h: u16, raw: &[RawFlow], step: u32) -> Option<System> {
    let flows = raw
        .iter()
        .enumerate()
        .map(|(idx, &r)| raw_flow(r, (idx as u32 + 1) * step))
        .collect::<Option<Vec<Flow>>>()?;
    let flows = FlowSet::new(flows).ok()?;
    System::new(
        Topology::mesh(w, h),
        NocConfig::default(),
        flows,
        &XyRouting,
    )
    .ok()
}

fn build_system(w: u16, h: u16, raw: &[RawFlow]) -> Option<System> {
    build_system_spaced(w, h, raw, 1)
}

/// One graph delta: `(op, flow, pick)`. `op == 0` removes the flow at
/// `pick` modulo the flow count; otherwise `flow` is added at the odd
/// priority `2·pick + 1` modulo the range, which lands between two
/// existing (even) priorities or past the lowest one.
type RawDelta = (u32, RawFlow, u32);

/// Strategy: a mesh, an initial flow set and a sequence of deltas.
fn mesh_flows_and_deltas() -> impl Strategy<Value = (u16, u16, Vec<RawFlow>, Vec<RawDelta>)> {
    (2u16..6, 2u16..6).prop_flat_map(|(w, h)| {
        let nodes = u32::from(w) * u32::from(h);
        // A destination offset of 1..nodes never draws a self-loop.
        let flow = move || {
            (0..nodes, 1..nodes, 100u64..100_000, 1u32..256)
                .prop_map(move |(src, off, period, len)| (src, (src + off) % nodes, period, len))
        };
        let delta = (0u32..3, flow(), 0u32..64);
        (
            Just(w),
            Just(h),
            proptest::collection::vec(flow(), 1..12),
            proptest::collection::vec(delta, 1..8),
        )
    })
}

/// `S^I_i ∩ S^D_j` split by definition: walk `S^I_i` in order, keep the
/// members of `S^D_j`, and classify each by the spans of `cd(j,k)` and
/// `cd(i,j)` on `routeⱼ`.
fn partition_oracle(
    graph: &InterferenceGraph,
    i: FlowId,
    j: FlowId,
) -> Result<(Vec<FlowId>, Vec<FlowId>), TestCaseError> {
    let cd_ij = graph.contention_domain(i, j).expect("j ∈ S^D_i contends");
    let (mut upstream, mut downstream) = (Vec::new(), Vec::new());
    for &k in graph.indirect_set(i) {
        if !graph.direct_set(j).contains(&k) {
            continue;
        }
        let cd_jk = graph.contention_domain(j, k).expect("k ∈ S^D_j contends");
        if cd_jk.last_in_i() < cd_ij.first_in_j() {
            upstream.push(k);
        } else if cd_jk.first_in_i() > cd_ij.last_in_j() {
            downstream.push(k);
        } else {
            return Err(TestCaseError::fail(format!(
                "{k} overlaps cd({i},{j}) on the route of {j}"
            )));
        }
    }
    Ok((upstream, downstream))
}

/// Checks `partition_indirect` (in order) and `has_indirect_via` against
/// their definitions for every direct pair of `graph`.
fn check_pair_oracles(graph: &InterferenceGraph) -> Result<(), TestCaseError> {
    for i in (0..graph.len() as u32).map(FlowId::new) {
        for &j in graph.direct_set(i) {
            let part = graph.partition_indirect(i, j);
            let (upstream, downstream) = partition_oracle(graph, i, j)?;
            prop_assert_eq!(&part.upstream, &upstream, "upstream of ({}, {})", i, j);
            prop_assert_eq!(
                &part.downstream,
                &downstream,
                "downstream of ({}, {})",
                i,
                j
            );
            let via = graph
                .indirect_set(i)
                .iter()
                .any(|k| graph.direct_set(j).contains(k));
            prop_assert_eq!(graph.has_indirect_via(i, j), via, "({}, {})", i, j);
        }
    }
    Ok(())
}

/// Case count of the graph-delta oracle sweep: the proptest default, or
/// 256 in the CI soundness leg (`NOC_MPB_SWEEP_EXHAUSTIVE=1`).
fn delta_sweep_cases() -> u32 {
    if std::env::var("NOC_MPB_SWEEP_EXHAUSTIVE").map(|v| v == "1") == Ok(true) {
        256
    } else {
        ProptestConfig::default().cases
    }
}

proptest! {
    /// XY route length is always the Manhattan distance plus the two node
    /// links.
    #[test]
    fn xy_route_length_is_manhattan_plus_two(
        (w, h) in (2u16..8, 2u16..8),
        src in 0u32..64,
        dst in 0u32..64,
    ) {
        let nodes = u32::from(w) * u32::from(h);
        let (src, dst) = (src % nodes, dst % nodes);
        prop_assume!(src != dst);
        let topology = Topology::mesh(w, h);
        let route = XyRouting
            .route(&topology, NodeId::new(src), NodeId::new(dst))
            .unwrap();
        let (sx, sy) = (src % u32::from(w), src / u32::from(w));
        let (dx, dy) = (dst % u32::from(w), dst / u32::from(w));
        let manhattan = sx.abs_diff(dx) + sy.abs_diff(dy);
        prop_assert_eq!(route.len(), manhattan as usize + 2);
        // First and last links are the injection/ejection links.
        prop_assert_eq!(route.first(), topology.injection_link(NodeId::new(src)));
        prop_assert_eq!(route.last(), topology.ejection_link(NodeId::new(dst)));
    }

    /// Contention domains of XY routes always satisfy the paper's
    /// contiguity assumption: `InterferenceGraph::new` never fails on a
    /// mesh with XY routing.
    #[test]
    fn xy_contention_domains_always_contiguous(
        (w, h, raw) in mesh_and_flows(),
    ) {
        if let Some(system) = build_system(w, h, &raw) {
            let graph = InterferenceGraph::new(&system);
            prop_assert!(graph.is_ok());
        }
    }

    /// The contention relation is symmetric and domains agree in length and
    /// link content regardless of orientation.
    #[test]
    fn contention_domain_symmetry((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let Ok(graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        let ids: Vec<FlowId> = system.flows().ids().collect();
        for &i in &ids {
            for &j in &ids {
                if i == j { continue; }
                prop_assert_eq!(graph.contend(i, j), graph.contend(j, i));
                if let (Some(a), Some(b)) = (
                    graph.contention_domain(i, j),
                    graph.contention_domain(j, i),
                ) {
                    prop_assert_eq!(a.len(), b.len());
                    prop_assert_eq!(a.links(), b.links());
                    prop_assert_eq!(a.first_in_i(), b.first_in_j());
                }
            }
        }
    }

    /// Direct interference sets contain exactly the higher-priority
    /// contenders; indirect sets never overlap direct sets and every member
    /// interferes with some direct interferer.
    #[test]
    fn interference_set_definitions((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let Ok(graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        for (i, flow_i) in system.flows().iter() {
            let direct = graph.direct_set(i);
            for (j, flow_j) in system.flows().iter() {
                if i == j { continue; }
                let expected = flow_j.priority().is_higher_than(flow_i.priority())
                    && graph.contend(i, j);
                prop_assert_eq!(direct.contains(&j), expected);
            }
            for &k in graph.indirect_set(i) {
                prop_assert!(!direct.contains(&k));
                prop_assert!(!graph.contend(i, k));
                prop_assert!(
                    direct.iter().any(|&j| graph.direct_set(j).contains(&k)),
                    "indirect member must interfere with a direct interferer"
                );
                // All indirect interferers have higher priority than τi.
                prop_assert!(system
                    .flow(k)
                    .priority()
                    .is_higher_than(flow_i.priority()));
            }
        }
    }

    /// The upstream/downstream partition equals, in order, the one built
    /// from the definition over `S^I_i ∩ S^D_j`, and `has_indirect_via`
    /// equals its definition.
    #[test]
    fn up_down_partition_total((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let Ok(graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        check_pair_oracles(&graph)?;
    }

    /// Equation 1 is monotone in packet length and strictly increasing in
    /// route length for fixed parameters.
    #[test]
    fn zero_load_latency_monotone(
        len_a in 1u32..4096,
        len_b in 1u32..4096,
    ) {
        let topology = Topology::mesh(6, 1);
        let mk = |l: u32, p: u32| {
            Flow::builder(NodeId::new(0), NodeId::new(5))
                .priority(Priority::new(p))
                .period(Cycles::new(1_000_000))
                .length_flits(l)
                .build()
        };
        let flows = FlowSet::new(vec![mk(len_a, 1), mk(len_b, 2)]).unwrap();
        let system = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let ca = system.zero_load_latency(FlowId::new(0));
        let cb = system.zero_load_latency(FlowId::new(1));
        if len_a <= len_b {
            prop_assert!(ca <= cb);
        } else {
            prop_assert!(ca > cb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(delta_sweep_cases()))]

    /// The pair oracles hold on graphs grown and shrunk by `add_flow` and
    /// `remove_flow`, with added priorities landing mid-order: the graphs
    /// derived what-if contexts read.
    #[test]
    fn pair_oracles_hold_across_graph_deltas((w, h, raw, deltas) in mesh_flows_and_deltas()) {
        let Some(mut system) = build_system_spaced(w, h, &raw, 2) else { return Ok(()); };
        let Ok(mut graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        check_pair_oracles(&graph)?;
        let lowest = 2 * raw.len() as u32 + 1;
        for (op, flow, pick) in deltas {
            if op == 0 && system.flows().len() > 1 {
                let id = FlowId::new(pick % system.flows().len() as u32);
                system = system.without_flow(id).expect("id in range");
                graph.remove_flow(&system, id);
            } else {
                let priority = 2 * (pick % lowest.div_ceil(2)) + 1;
                let taken = system.flows().iter().any(|(_, f)| f.priority() == Priority::new(priority));
                let Some(flow) = raw_flow(flow, priority).filter(|_| !taken) else { continue; };
                let (next, id) = system.with_added_flow(flow, &XyRouting).expect("XY routes a mesh");
                graph.add_flow(&next, id).expect("XY domains are contiguous");
                system = next;
            }
            check_pair_oracles(&graph)?;
        }
    }
}
