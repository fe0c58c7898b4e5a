//! Cycle-accurate simulator for priority-preemptive wormhole NoCs.
//!
//! Implements the router architecture of §II / Figure 1 of *"Buffer-aware
//! bounds to multi-point progressive blocking in priority-preemptive NoCs"*
//! (DATE 2018): one virtual channel per priority level, per-VC FIFO buffers
//! of `buf(Ξ)` flits, credit-based flow control and priority-preemptive
//! output arbitration. The simulator produces the `R^sim` columns of the
//! paper's Table II and exhibits the multi-point progressive blocking
//! mechanism (buffered interference) the analyses bound.
//!
//! # Quick start
//!
//! ```
//! use noc_model::prelude::*;
//! use noc_sim::prelude::*;
//!
//! let topology = Topology::mesh(3, 1);
//! let flows = FlowSet::new(vec![
//!     Flow::builder(NodeId::new(0), NodeId::new(2))
//!         .priority(Priority::new(1))
//!         .period(Cycles::new(500))
//!         .length_flits(8)
//!         .build(),
//! ])?;
//! let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
//!
//! let mut sim = Simulator::new(&system, ReleasePlan::synchronous(&system));
//! sim.run_until(Cycles::new(2_000));
//! let stats = sim.flow_stats(FlowId::new(0));
//! assert_eq!(stats.best_latency(), Some(system.zero_load_latency(FlowId::new(0))));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Module map (code ↔ paper)
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`engine`] | the §II / Figure 1 router: per-priority VCs, credit-based flow control, preemptive arbitration |
//! | [`core`] | the struct-of-arrays kernel behind [`Simulator`]: shared [`SimLayout`], event-driven stepping, [`BatchSimulator`] |
//! | [`flit`] | header/payload/tail flits of the wormhole model |
//! | [`release`] | packet release phasings (synchronous, offsets, jitter patterns) |
//! | [`search`] | Table II `R^sim` methodology: exhaustive offset sweep and the pruned critical-instant candidate search |
//! | [`stats`] | per-flow best/worst observed latencies |
//! | [`trace`] | event traces — `examples/mpb_trace` replays Figure 2's MPB mechanism from these |
//! | [`metrics`] | kernel telemetry (steps, skipped cycles, credit stalls) — no-ops unless `NOC_TELEMETRY=1` |
//!
//! # Architecture: facade over a struct-of-arrays core
//!
//! [`Simulator`] is a thin facade. The actual machine lives in [`core`]
//! and is split into an immutable *layout* and flat mutable *state*:
//!
//! * [`SimLayout`] is precomputed **once** from a [`noc_model::system::System`]:
//!   dense virtual-channel ids, per-link candidate lists sorted by priority
//!   with each candidate's downstream destination resolved ahead of time,
//!   and per-flow route/length tables. It is immutable and lives behind an
//!   `Arc`, so many runs — different release plans, offsets, jitter seeds —
//!   share one layout ([`Simulator::with_layout`], [`BatchSimulator`]).
//! * The per-run state is flat arrays indexed by those dense ids: VC
//!   buffers are (head, length) cursors into each flow's flit stream
//!   rather than `VecDeque`s of flits, credits are a plain `Vec` (globally
//!   unique priorities make `(link, priority)` identify exactly one VC),
//!   and release times live in a flat per-flow `Vec` instead of a
//!   `HashMap`.
//!
//! Stepping is event-driven: a release min-heap and a routing-ready heap
//! feed a set of *armed* links, and each cycle touches only armed or busy
//! links. When a step changes nothing, `run_until` /
//! `run_until_delivered` jump `now` straight to the next pending event
//! (**event skipping**). The invariant — checked by
//! `tests/engine_equivalence.rs` against the pre-refactor engine — is that
//! a skip never crosses a release, launch or delivery, so statistics,
//! traces and horizon behaviour are bit-identical to stepping every
//! cycle. [`Simulator::step`] itself always advances exactly one cycle.
//!
//! For sweeps, [`BatchSimulator`] reuses one layout *and* one state
//! allocation across plans ([`search::critical_offset_sweep`] and the
//! Table II experiment drive it); the `batch_sweep` bench target compares
//! it against one `Simulator` per plan.
//!
//! # Fidelity preconditions
//!
//! * **`buf(Ξ) ≥ 2`.** Equation 1 assumes flits stream at link rate; with
//!   a 1-flit buffer the credit round-trip inserts a bubble behind every
//!   flit, so observed latencies can exceed Equation 1's zero-load latency
//!   — and hence cross the analytical bounds built on it. All
//!   simulation-vs-bound comparisons (`R^sim ≤ R^IBN ≤ R^XLWX`,
//!   `tests/soundness_invariant.rs`) require depths of at least two flits;
//!   the full statement lives on
//!   [`noc_model::config::NocConfigBuilder::buffer_depth`].
//! * With `routl = 0`, `linkl = 1` and `buf(Ξ) ≥ 2`, an uncontended packet
//!   achieves exactly the zero-load latency of Equation 1 (tested).
//! * A blocked high-priority packet with exhausted credits releases its
//!   links to lower-priority traffic — the root cause of MPB.
//! * Observed latencies are *lower* bounds on the true worst case; use
//!   [`search::search_worst_case`] with [`search::offset_sweep`] or
//!   [`search::critical_offset_sweep`] to explore release offsets.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod core;
pub mod engine;
pub mod flit;
pub mod metrics;
pub mod release;
pub mod search;
pub mod stats;
pub mod trace;

pub use core::{BatchSimulator, SimLayout};
pub use engine::Simulator;
pub use release::{JitterPattern, ReleasePlan};
pub use stats::FlowStats;
pub use trace::TraceEvent;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::core::{BatchSimulator, SimLayout};
    pub use crate::engine::Simulator;
    pub use crate::flit::Flit;
    pub use crate::release::{JitterPattern, ReleasePlan};
    pub use crate::search::{
        critical_offset_candidates, critical_offset_sweep, offset_sweep, search_worst_case,
        SearchOutcome,
    };
    pub use crate::stats::FlowStats;
    pub use crate::trace::TraceEvent;
}
