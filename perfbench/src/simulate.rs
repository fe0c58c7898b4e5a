//! The `simulate` workload: validate flow sets by cycle-accurate
//! simulation — a batch simulator per set, critical-offset-sweep plans over
//! a fixed horizon, and `R^sim ≤ R^IBN` for every flow IBN certifies.

use std::sync::Arc;
use std::time::Instant;

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_sim::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

use crate::driver::{self, Done};
use crate::identity::{Digest, Identity};
use crate::rng::Rng;
use crate::systems;
use crate::trace::{within, Tracer};
use crate::{Args, Run};

/// Flow sets in the pool, one operation each, so a run averages over many
/// generated sets.
const SETS: usize = 64;
/// Flows per set, and their packet lengths in flits.
const FLOWS: usize = 200;
const LENGTHS: (u32, u32) = (16, 512);
/// Plans simulated per operation, picked from the critical offsets of the
/// swept flow within `SWEEP_RANGE` cycles.
const PLANS: usize = 8;
const SWEEP_RANGE: u64 = 32;
/// Cycles simulated per plan.
const HORIZON: u64 = 60_000;

/// One operation's inputs: a flow set with its IBN bounds, the flow whose
/// release is swept, and the offsets of the plans.
struct Set {
    system: System,
    /// IBN bound of every flow, `None` where IBN cannot certify it.
    bounds: Vec<Option<Cycles>>,
    swept: FlowId,
    offsets: Vec<Cycles>,
}

fn generate(seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Vec<Set>, String> {
    let mut rng = Rng::new(seed);
    let mut spec = SyntheticSpec::paper(systems::MESH, systems::MESH, FLOWS, systems::BASE_DEPTH);
    spec.length_range = LENGTHS;
    let systems: Vec<System> = (0..SETS)
        .map(|_| {
            let seed = rng.next_u64();
            within(tracer.as_deref_mut(), "workload.generate", || {
                spec.generate(seed).into_system()
            })
        })
        .collect();
    let mut sweep_rng = rng.fork(2);
    systems
        .into_iter()
        .map(|system| {
            let ctx = AnalysisContext::new(&system).map_err(|e| e.to_string())?;
            let report = BufferAware.analyze_with(&ctx).map_err(|e| e.to_string())?;
            let bounds = report.iter().map(|(_, v)| v.response_time()).collect();
            let swept = FlowId::new(sweep_rng.range(0, system.flows().len() as u64 - 1) as u32);
            let candidates = critical_offset_candidates(&system, swept, Cycles::new(SWEEP_RANGE));
            let offsets = (0..PLANS)
                .map(|p| candidates[p * candidates.len() / PLANS])
                .collect();
            Ok(Set {
                system,
                bounds,
                swept,
                offsets,
            })
        })
        .collect()
}

/// What one validation observed: every flow's worst latency and the
/// packets delivered.
#[derive(Debug, PartialEq)]
struct Observed {
    worst: Vec<Option<Cycles>>,
    packets: u64,
}

fn validate(set: &Set, mut tracer: Option<&mut Tracer>) -> Observed {
    let system = &set.system;
    // `BatchSimulator::new` is exactly these two steps; the replay times
    // the layout build on its own.
    let mut sim = match tracer.as_deref_mut() {
        Some(t) => {
            let layout = t.span("sim.layout", || Arc::new(SimLayout::new(system)));
            BatchSimulator::with_layout(system, layout)
        }
        None => BatchSimulator::new(system),
    };
    let mut worst = vec![None; system.flows().len()];
    let mut packets = 0;
    for &offset in &set.offsets {
        let plan = ReleasePlan::synchronous(system).with_offset(set.swept, offset);
        let stats = within(tracer.as_deref_mut(), "sim.run", || {
            sim.run(&plan, Cycles::new(HORIZON))
        });
        for (w, s) in worst.iter_mut().zip(stats) {
            *w = (*w).max(s.worst_latency());
            packets += s.delivered();
        }
    }
    Observed { worst, packets }
}

/// `R^sim ≤ R^IBN` for every flow IBN certifies.
fn check(set: &Set, seen: &Observed) -> Option<String> {
    set.bounds
        .iter()
        .zip(&seen.worst)
        .enumerate()
        .find_map(|(i, (bound, worst))| match (bound, worst) {
            (Some(b), Some(w)) if w > b => Some(format!("flow {i}: R^sim {w} > R^IBN {b}")),
            _ => None,
        })
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut violations = Vec::new();
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));

    // Set-up: the pool, its IBN bounds and plans, and a warm-up.
    let (setup_s, sets) = driver::repeat_setup(|rep| {
        let sets = generate(args.seed, tracer.as_mut())?;
        let set = &sets[rep % sets.len()];
        violations.extend(check(set, &validate(set, None)));
        Ok(sets)
    })?;
    let mut digest = Digest::default();
    for s in &sets {
        digest.system(&s.system).u64(u64::from(s.swept.raw()));
        for o in &s.offsets {
            digest.u64(o.as_u64());
        }
    }
    digest.u64(HORIZON);
    let identity = Identity {
        workload: "simulate",
        seed: args.seed,
        period_scale: "1".to_string(),
        digest: digest.hex(),
        host: crate::identity::Host::current(),
    };

    let rotation = crate::cpus::Rotation::current();
    let measured = driver::closed_loop(
        args,
        tracer.as_mut(),
        |i| {
            rotation.pin(i);
            let index = i % sets.len();
            let set = &sets[index];
            let started = Instant::now();
            let seen = validate(set, None);
            let violation = check(set, &seen);
            let ns = started.elapsed().as_nanos() as u64;
            Done {
                ns,
                violations: violation
                    .map(|v| format!("set {index}: {v}"))
                    .into_iter()
                    .collect(),
                result: seen,
            }
        },
        |i, seen, t, traced| {
            let index = i % sets.len();
            let set = &sets[index];
            let replayed = validate(set, Some(t));
            traced.queries += 1;
            traced.sim_cycles += HORIZON * set.offsets.len() as u64;
            traced.sim_packets += replayed.packets;
            if replayed == seen {
                Vec::new()
            } else {
                vec![format!("set {index}: traced replay differs")]
            }
        },
    );
    measured.into_run(identity, setup_s, tracer, violations)
}
