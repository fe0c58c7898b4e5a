//! Quickstart: build a system, bound it with every analysis, check it
//! against the cycle-accurate simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use noc_mpb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4x4 mesh NoC; routers have one virtual channel per priority level,
    // each with a 2-flit FIFO (the paper's recommended small buffers).
    let topology = Topology::mesh(4, 4);
    let config = NocConfig::builder()
        .buffer_depth(2)
        .link_latency(Cycles::ONE)
        .routing_latency(Cycles::ZERO)
        .build();

    // Three real-time flows. Priority 1 is the highest; deadlines default
    // to the periods.
    let flows = FlowSet::new(vec![
        Flow::builder(NodeId::new(12), NodeId::new(15))
            .name("control-loop")
            .priority(Priority::new(1))
            .period(Cycles::new(1_000))
            .length_flits(16)
            .build(),
        Flow::builder(NodeId::new(0), NodeId::new(15))
            .name("sensor-stream")
            .priority(Priority::new(2))
            .period(Cycles::new(4_000))
            .length_flits(256)
            .build(),
        Flow::builder(NodeId::new(1), NodeId::new(11))
            .name("camera-frame")
            .priority(Priority::new(3))
            .period(Cycles::new(20_000))
            .length_flits(1_024)
            .build(),
    ])?;
    let system = System::new(topology, config, flows, &XyRouting)?;

    println!("Worst-case response-time bounds (cycles):\n");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "flow", "C", "SB", "XLWX", "IBN"
    );
    for (id, flow) in system.flows().iter() {
        let c = system.zero_load_latency(id);
        let bound = |a: AnalysisKind| -> String {
            a.analyze(&system)
                .ok()
                .and_then(|r| r.response_time(id))
                .map_or("miss".into(), |r| r.as_u64().to_string())
        };
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8}",
            flow.name().unwrap_or("flow"),
            c.as_u64(),
            bound(ShiBurns),
            bound(Xlwx),
            bound(BufferAware),
        );
    }

    // The buffer-aware analysis is safe: simulated latencies stay below it.
    let report = BufferAware.analyze(&system)?;
    let mut sim = Simulator::new(&system, ReleasePlan::synchronous(&system));
    sim.run_until(Cycles::new(100_000));
    println!("\nSimulation cross-check (100k cycles, synchronous releases):\n");
    for (id, flow) in system.flows().iter() {
        let stats = sim.flow_stats(id);
        println!(
            "{:<16} observed worst {:>6}  <=  IBN bound {:>6}   ({} packets)",
            flow.name().unwrap_or("flow"),
            stats.worst_latency().map_or(0, |c| c.as_u64()),
            report.response_time(id).map_or(0, |c| c.as_u64()),
            stats.delivered(),
        );
        assert!(stats.worst_latency() <= report.response_time(id));
    }
    println!("\nAll observations within the IBN bounds.");
    Ok(())
}
