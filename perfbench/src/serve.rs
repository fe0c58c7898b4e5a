//! The serving workloads, `admission` and `buffer_whatif`: closed-loop
//! batches through `noc_serve::run_batch` against a certified base system,
//! a traced replay of the same batches through the layers' public
//! functions, and a from-scratch oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use noc_analysis::prelude::*;
use noc_experiments::runner::par_map_indexed;
use noc_model::prelude::*;
use noc_serve::{run_batch, Query, QueryBatch, QueryOutcome};

use crate::driver::{self, Done};
use crate::identity::{Digest, Identity};
use crate::rng::Rng;
use crate::systems;
use crate::trace::{within, Tracer};
use crate::{Args, Run};

/// Flows of each base system (the §VI generator on the 8×8 mesh).
const BASE_FLOWS: usize = 400;
/// Base systems per run; batches take turns over them, so one run's
/// figures average over several generated systems.
const BASES: usize = 8;
/// Certifying period-scale factor every base is drawn with.
const SCALE: u64 = 2;
/// Worker threads of every batch.
const THREADS: usize = 2;
/// Batches in the operation list; the closed loop cycles through it.
const OP_LIST: usize = 64;
/// Leading batches of the list (one per base) checked against the
/// from-scratch oracle.
const ORACLE_BATCHES: usize = BASES;

/// Candidates and retirements of one admission batch.
const CANDIDATES: usize = 6;
const RETIREMENTS: usize = 2;
/// Heavy candidates: packet lengths in flits.
const CANDIDATE_FLITS: (u64, u64) = (2048, 4096);
/// Candidate periods, in thousandths of the shortest scaled base period —
/// the short end, where about half the candidates are admitted.
const CANDIDATE_PERIOD_SPAN: (u64, u64) = (1000, 1500);
/// Router-sizing batch: per-router depths tried, then one homogeneous
/// depth.
const ROUTER_DEPTHS: [u32; 7] = [3, 4, 5, 6, 8, 12, 16];
const UNIFORM_DEPTHS: (u32, u32) = (3, 16);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Admission,
    BufferWhatIf,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Admission => "admission",
            Mode::BufferWhatIf => "buffer_whatif",
        }
    }
}

/// The generated inputs: the certified bases and the batch list; batch `i`
/// runs against base `i % BASES`.
struct Inputs {
    bases: Vec<System>,
    batches: Vec<Vec<Query>>,
}

fn generate(mode: Mode, seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let mut ops_rng = rng.fork(1);
    let bases = (0..BASES)
        .map(|_| systems::certified_base(BASE_FLOWS, SCALE, &mut rng, tracer.as_deref_mut()))
        .collect::<Result<Vec<System>, String>>()?;
    // Router-sizing batches visit the routers in a seeded order, each once
    // per pass over the list, so every run sizes the same routers.
    let routers = bases[0].topology().router_count();
    let mut order: Vec<usize> = (0..routers).collect();
    for i in (1..routers).rev() {
        order.swap(i, ops_rng.range(0, i as u64) as usize);
    }
    let batches = (0..OP_LIST)
        .map(|i| {
            let base = &bases[i % BASES];
            match mode {
                Mode::Admission => admission_batch(base, &mut ops_rng),
                Mode::BufferWhatIf => buffer_batch(
                    RouterId::new(order[i % routers] as u32),
                    UNIFORM_DEPTHS.0 + (i as u32) % (UNIFORM_DEPTHS.1 - UNIFORM_DEPTHS.0 + 1),
                ),
            }
        })
        .collect();
    Ok(Inputs { bases, batches })
}

fn admission_batch(base: &System, rng: &mut Rng) -> Vec<Query> {
    let nodes = base.topology().node_count() as u64;
    let shortest = noc_workload::synthetic::SyntheticSpec::PAPER_PERIODS.0 * SCALE;
    let mut batch: Vec<Query> = (0..CANDIDATES)
        .map(|slot| {
            let source = rng.range(0, nodes - 1);
            let dest = (source + rng.range(1, nodes - 1)) % nodes;
            let period = Cycles::new(rng.range(
                shortest * CANDIDATE_PERIOD_SPAN.0 / 1000,
                shortest * CANDIDATE_PERIOD_SPAN.1 / 1000,
            ));
            Query::Admission {
                flow: Flow::builder(NodeId::new(source as u32), NodeId::new(dest as u32))
                    .priority(systems::rate_monotonic_slot(base, period, 1 + slot as u32))
                    .period(period)
                    .length_flits(rng.range(CANDIDATE_FLITS.0, CANDIDATE_FLITS.1) as u32)
                    .build(),
            }
        })
        .collect();
    let flows = base.flows().len() as u64;
    batch.extend((0..RETIREMENTS).map(|_| Query::Removal {
        id: FlowId::new(rng.range(0, flows - 1) as u32),
    }));
    batch
}

fn buffer_batch(router: RouterId, uniform_depth: u32) -> Vec<Query> {
    let mut batch: Vec<Query> = ROUTER_DEPTHS
        .iter()
        .map(|&depth| Query::RouterBufferWhatIf { router, depth })
        .collect();
    batch.push(Query::BufferWhatIf {
        depth: uniform_depth,
    });
    batch
}

fn batch(queries: &[Query]) -> QueryBatch {
    QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: queries.to_vec(),
    }
}

/// Why an outcome is not an exact answer, if it is not.
fn inexact(outcome: &QueryOutcome) -> Option<String> {
    match outcome {
        QueryOutcome::Accepted | QueryOutcome::Rejected { .. } => None,
        other => Some(format!("non-exact outcome {other:?}")),
    }
}

/// Checks one batch's outcomes: all exact, and identical to the first time
/// this batch of the list was served. Returns the violations.
fn check_batch(
    index: usize,
    outcomes: &[QueryOutcome],
    seen: &mut BTreeMap<usize, Vec<QueryOutcome>>,
) -> Vec<String> {
    let mut violations: Vec<String> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(q, o)| inexact(o).map(|why| format!("batch {index} query {q}: {why}")))
        .collect();
    match seen.get(&index) {
        Some(first) if first != outcomes => {
            violations.push(format!("batch {index}: outcomes changed between runs"));
        }
        Some(_) => {}
        None => {
            seen.insert(index, outcomes.to_vec());
        }
    }
    violations
}

pub fn run(mode: Mode, args: &Args) -> Result<Run, String> {
    let mut violations = Vec::new();
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));
    let mut seen: BTreeMap<usize, Vec<QueryOutcome>> = BTreeMap::new();

    // Set-up: generation, the certified bases, their contexts and one
    // warm-up batch.
    let (setup_s, inputs) = driver::repeat_setup(|rep| {
        let inputs = generate(mode, args.seed, tracer.as_mut())?;
        let contexts = contexts(&inputs, tracer.as_mut())?;
        let warm = run_batch(
            &contexts[rep % BASES],
            &batch(&inputs.batches[rep]),
            &XyRouting,
            THREADS,
        );
        violations.extend(check_batch(rep, &warm.outcomes, &mut seen));
        Ok(inputs)
    })?;
    if mode == Mode::Admission {
        let verdicts: Vec<&QueryOutcome> = seen.values().flatten().collect();
        if !verdicts.iter().any(|o| o.is_accepted())
            || !verdicts
                .iter()
                .any(|o| matches!(o, QueryOutcome::Rejected { .. }))
        {
            violations.push("set-up admissions did not produce both verdicts".to_string());
        }
    }
    let contexts = contexts(&inputs, None)?;

    let mut digest = Digest::default();
    for base in &inputs.bases {
        digest.system(base);
    }
    for b in &inputs.batches {
        for q in b {
            digest.query(q);
        }
    }
    let identity = Identity {
        workload: mode.name(),
        seed: args.seed,
        period_scale: SCALE.to_string(),
        digest: digest.hex(),
        host: crate::identity::Host::current(),
    };

    let measured = driver::closed_loop(
        args,
        tracer.as_mut(),
        |i| {
            let index = i % OP_LIST;
            let started = Instant::now();
            let report = run_batch(
                &contexts[index % BASES],
                &batch(&inputs.batches[index]),
                &XyRouting,
                THREADS,
            );
            let ns = started.elapsed().as_nanos() as u64;
            Done {
                ns,
                violations: check_batch(index, &report.outcomes, &mut seen),
                result: report,
            }
        },
        |i, report, t, traced| {
            let index = i % OP_LIST;
            let queries = &inputs.batches[index];
            let utilization = report.shard_utilization();
            traced.shard_utilization_sum +=
                utilization.iter().sum::<f64>() / utilization.len() as f64;
            traced.queries += queries.len() as u64;
            if replay(&contexts[index % BASES], queries, t) == report.outcomes {
                Vec::new()
            } else {
                vec![format!(
                    "batch {index}: traced replay differs from run_batch"
                )]
            }
        },
    );

    // Untimed: the oracle over the leading batches.
    for (index, queries) in inputs.batches.iter().enumerate().take(ORACLE_BATCHES) {
        let ctx = &contexts[index % BASES];
        let served = match seen.get(&index) {
            Some(outcomes) => outcomes.clone(),
            None => run_batch(ctx, &batch(queries), &XyRouting, THREADS).outcomes,
        };
        for (q, (query, outcome)) in queries.iter().zip(&served).enumerate() {
            let expected = oracle(ctx.system(), query)?;
            if &expected != outcome {
                violations.push(format!(
                    "batch {index} query {q}: served {outcome:?}, oracle {expected:?}"
                ));
            }
        }
    }
    if mode == Mode::Admission {
        let (mut accepted, mut candidates) = (0, 0);
        for (index, outcomes) in &seen {
            for (query, outcome) in inputs.batches[*index].iter().zip(outcomes) {
                if matches!(query, Query::Admission { .. }) {
                    candidates += 1;
                    accepted += usize::from(outcome.is_accepted());
                }
            }
        }
        eprintln!("perfbench: admission accepted {accepted} of {candidates} candidates");
    }
    measured.into_run(identity, setup_s, tracer, violations)
}

/// The base contexts, each built once (inside a span when tracing).
fn contexts<'a>(
    inputs: &'a Inputs,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<AnalysisContext<'a>>, String> {
    inputs
        .bases
        .iter()
        .map(|base| {
            within(tracer.as_deref_mut(), "analysis.context_build", || {
                AnalysisContext::new(base)
            })
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// The answer from scratch: build the what-if system, a fresh context and
/// a full IBN solve.
fn oracle(base: &System, query: &Query) -> Result<QueryOutcome, String> {
    let what_if = match query {
        Query::Admission { flow } => base
            .with_added_flow(flow.clone(), &XyRouting)
            .map(|(s, _)| s),
        Query::Removal { id } => base.without_flow(*id),
        Query::BufferWhatIf { depth } => Ok(base.with_buffer_depth(*depth)),
        Query::RouterBufferWhatIf { router, depth } => {
            Ok(base.with_router_buffer_depth(*router, *depth))
        }
    };
    let what_if = match what_if {
        Ok(s) => s,
        Err(e) => {
            return Ok(QueryOutcome::Infeasible {
                reason: e.to_string(),
            })
        }
    };
    let ctx = AnalysisContext::new(&what_if).map_err(|e| e.to_string())?;
    let report = BufferAware.analyze_with(&ctx).map_err(|e| e.to_string())?;
    Ok(verdict(&report))
}

fn verdict(report: &AnalysisReport) -> QueryOutcome {
    let failing = report.len() - report.schedulable_count();
    if failing == 0 {
        QueryOutcome::Accepted
    } else {
        QueryOutcome::Rejected {
            failing: failing as u32,
        }
    }
}

/// A solve result as an outcome. Only exact answers can match an accepted
/// `run_batch` outcome, so every error maps to `Infeasible`.
fn outcome(result: Result<AnalysisReport, AnalysisError>) -> QueryOutcome {
    match result {
        Ok(report) => verdict(&report),
        Err(e) => QueryOutcome::Infeasible {
            reason: e.to_string(),
        },
    }
}

/// One shard's mutable state, as `run_batch` keeps it: a fork of the base
/// context and the base-id → current-id map that removals permute.
struct Shard {
    ctx: IncrementalContext,
    map: Vec<FlowId>,
    /// No solve has run on this fork yet, so the next one is cold.
    cold: bool,
}

impl Shard {
    fn solve(
        &mut self,
        t: &mut Tracer,
        warm_name: &'static str,
    ) -> Result<AnalysisReport, AnalysisError> {
        let name = if self.cold {
            "serve.cold_solve"
        } else {
            warm_name
        };
        self.cold = false;
        t.span(name, || self.ctx.analyze(AnalysisKind::BufferAware))
    }

    fn serve(&mut self, t: &mut Tracer, base: &AnalysisContext<'_>, query: &Query) -> QueryOutcome {
        match query {
            Query::Admission { flow } => {
                match t.span("model.add_flow", || {
                    self.ctx.add_flow(flow.clone(), &XyRouting)
                }) {
                    Ok(id) => {
                        let result = self.solve(t, "analysis.dirty_solve");
                        let o = outcome(result);
                        t.span("model.remove_flow", || self.ctx.remove_flow(id))
                            .expect("the just-admitted flow exists");
                        o
                    }
                    Err(e) => QueryOutcome::Infeasible {
                        reason: e.to_string(),
                    },
                }
            }
            Query::Removal { id } => {
                let current = self.map[id.index()];
                let flow = self.ctx.system().flows().flow(current).clone();
                t.span("model.remove_flow", || self.ctx.remove_flow(current))
                    .expect("mapped ids stay in bounds");
                let result = self.solve(t, "analysis.dirty_solve");
                let o = outcome(result);
                let restored = t
                    .span("model.add_flow", || self.ctx.add_flow(flow, &XyRouting))
                    .expect("restoring a retired flow cannot fail");
                for m in self.map.iter_mut() {
                    if *m > current {
                        *m = FlowId::new(m.raw() - 1);
                    }
                }
                self.map[id.index()] = restored;
                o
            }
            Query::BufferWhatIf { depth } => {
                let what_if = base.system().with_buffer_depth(*depth);
                match t.span("analysis.rebase", || base.rebase(&what_if)) {
                    Ok(ctx) => {
                        outcome(t.span("analysis.full_solve", || BufferAware.analyze_with(&ctx)))
                    }
                    Err(e) => QueryOutcome::Infeasible {
                        reason: e.to_string(),
                    },
                }
            }
            Query::RouterBufferWhatIf { router, depth } => {
                let original = self.ctx.system().buffer_depth_at(*router);
                t.span("analysis.resize", || {
                    self.ctx.resize_buffer(*router, *depth)
                });
                let result = self.solve(t, "analysis.router_solve");
                let o = outcome(result);
                t.span("analysis.resize", || {
                    self.ctx.resize_buffer(*router, original)
                });
                o
            }
        }
    }
}

/// Replays one batch as `run_batch` serves it — the same contiguous shards
/// on the same runner and thread count — with a span around every call
/// into a layer.
fn replay(base: &AnalysisContext<'_>, queries: &[Query], tracer: &mut Tracer) -> Vec<QueryOutcome> {
    let op = tracer.enter("serve.op");
    let n = queries.len();
    let shards = THREADS.min(n.max(1));
    let bounds: Vec<(usize, usize)> = (0..shards)
        .scan(0usize, |start, s| {
            let len = n / shards + usize::from(s < n % shards);
            let range = (*start, *start + len);
            *start += len;
            Some(range)
        })
        .collect();
    let origin = tracer.origin();
    let runner = tracer.enter("experiments.par_map");
    let per_shard = par_map_indexed(shards, THREADS, |s| {
        let mut t = Tracer::new(origin);
        let shard_span = t.enter("serve.shard");
        let ctx = t.span("serve.fork", || IncrementalContext::from_context(base));
        let mut shard = Shard {
            map: (0..ctx.len() as u32).map(FlowId::new).collect(),
            ctx,
            cold: true,
        };
        let (lo, hi) = bounds[s];
        let outcomes: Vec<QueryOutcome> = queries[lo..hi]
            .iter()
            .map(|q| {
                let span = t.enter("serve.query");
                let o = shard.serve(&mut t, base, q);
                t.exit(span);
                o
            })
            .collect();
        t.exit(shard_span);
        (outcomes, t)
    });
    let mut outcomes = Vec::with_capacity(n);
    for (chunk, t) in per_shard {
        outcomes.extend(chunk);
        tracer.adopt(t);
    }
    tracer.exit(runner);
    tracer.exit(op);
    outcomes
}
