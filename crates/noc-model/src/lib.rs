//! System model for real-time priority-preemptive wormhole networks-on-chip.
//!
//! This crate implements §II of *"Buffer-aware bounds to multi-point
//! progressive blocking in priority-preemptive NoCs"* (Indrusiak, Burns &
//! Nikolić, DATE 2018): network topologies with unidirectional links,
//! deterministic routing, the real-time traffic-flow model
//! τᵢ = (Pᵢ, Cᵢ, Tᵢ, Dᵢ, Jᵢ, πˢᵢ, πᵈᵢ), the zero-load latency equation
//! (Eq. 1), and the contention-domain/interference-set machinery (§III) on
//! which the response-time analyses of the companion `noc-analysis` crate
//! are built.
//!
//! # Quick start
//!
//! ```
//! use noc_model::prelude::*;
//!
//! // A 4x4 mesh with one node per router.
//! let topology = Topology::mesh(4, 4);
//!
//! // Two flows; priority 1 is the highest.
//! let flows = FlowSet::new(vec![
//!     Flow::builder(NodeId::new(0), NodeId::new(15))
//!         .priority(Priority::new(1))
//!         .period(Cycles::new(2_000))
//!         .length_flits(64)
//!         .build(),
//!     Flow::builder(NodeId::new(4), NodeId::new(7))
//!         .priority(Priority::new(2))
//!         .period(Cycles::new(5_000))
//!         .length_flits(128)
//!         .build(),
//! ])?;
//!
//! // Routers with 2-flit FIFO buffers per virtual channel, XY routing.
//! let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//! assert_eq!(system.zero_load_latency(FlowId::new(0)).as_u64(), 71);
//! # Ok::<(), noc_model::error::ModelError>(())
//! ```
//!
//! # Module map (code ↔ paper)
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`ids`] | strongly-typed identifiers ([`NodeId`], [`RouterId`], [`LinkId`], [`FlowId`], [`Priority`] πᵢ) |
//! | [`time`] | the [`Cycles`] time unit every latency is measured in |
//! | [`topology`] | §II platform model: routers ξ, nodes, unidirectional links λ, 2D meshes |
//! | [`route`], [`routing`] | `routeᵢ` and the deterministic routing functions (XY/YX/table) |
//! | [`flow`] | §II traffic-flow model τᵢ = (Pᵢ, Cᵢ, Tᵢ, Dᵢ, Jᵢ, πˢᵢ, πᵈᵢ), plus the burst allowance σᵢ |
//! | [`arrival`] | release models as arrival curves η(w): periodic-with-jitter (the paper) and the bursty leaky bucket |
//! | [`config`], [`system`] | `buf(Ξ)`, `vc(Ξ)`, `linkl(Ξ)`, `routl(Ξ)`; per-router [`BufferMap`](config::BufferMap); the routed [`System`] and Equation 1 ([`System::zero_load_latency`]) |
//! | [`contention`] | §III: contention domains `cd(i,j)`, interference sets `S^D_i`/`S^I_i`, and up/down partitions computed per query in O(\|S^D_j\|·\|S^D_i\|) |
//!
//! Downstream crates build on this model: `noc-analysis` implements the
//! response-time bounds (Equations 2–8), `noc-sim` the cycle-accurate
//! router of Figure 1, `noc-experiments` the tables and figures.
//!
//! # The `buf(Ξ) ≥ 2` fidelity precondition
//!
//! Equation 1 assumes flits stream through routers at link rate. A 1-flit
//! input buffer cannot stream — the credit round-trip inserts a bubble
//! behind every flit — so the cycle-accurate simulator in `noc-sim` only
//! attains Equation 1's zero-load latency (and the end-to-end soundness
//! chain `R^sim ≤ R^IBN` only holds) for buffer depths of **at least two
//! flits**. The analyses themselves remain well-defined at `buf(Ξ) = 1`;
//! see [`config::NocConfigBuilder::buffer_depth`] for the full statement.
//!
//! [`NodeId`]: ids::NodeId
//! [`RouterId`]: ids::RouterId
//! [`LinkId`]: ids::LinkId
//! [`FlowId`]: ids::FlowId
//! [`Priority`]: ids::Priority
//! [`Cycles`]: time::Cycles
//! [`System`]: system::System
//! [`System::zero_load_latency`]: system::System::zero_load_latency

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod config;
pub mod contention;
pub mod error;
pub mod flow;
pub mod ids;
pub mod route;
pub mod routing;
pub mod system;
pub mod time;
pub mod topology;

/// Convenient re-exports of the types needed by almost every user.
pub mod prelude {
    pub use crate::arrival::{ArrivalCurve, LeakyBucket, PeriodicWithJitter};
    pub use crate::config::{BufferMap, NocConfig};
    pub use crate::contention::InterferenceGraph;
    pub use crate::error::ModelError;
    pub use crate::flow::{Flow, FlowSet};
    pub use crate::ids::{FlowId, LinkId, NodeId, Priority, RouterId};
    pub use crate::route::Route;
    pub use crate::routing::{RoutingAlgorithm, TableRouting, XyRouting, YxRouting};
    pub use crate::system::System;
    pub use crate::time::Cycles;
    pub use crate::topology::{Endpoint, Topology, TopologyBuilder};
}
