//! The metrics a run prints: every end-to-end metric with tracing off,
//! every per-layer metric with tracing on, by name and unit.

use crate::stats;
use crate::trace::Profile;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, unit, value }
}

/// The timed closed loop of an untraced run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-operation latencies, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn end_to_end(setup_s: f64, timed: &Timed) -> Result<Vec<Metric>, String> {
    let mut sorted = timed.op_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if stats::beyond(n, 0.9) < stats::MIN_BEYOND {
        return Err(format!("only {n} operations: too few for a p90"));
    }
    Ok(vec![
        metric("setup_s", "s", setup_s),
        metric("op_ms_p50", "ms", stats::percentile(&sorted, 0.5)),
        metric("op_ms_p90", "ms", stats::percentile(&sorted, 0.9)),
        metric("ops_per_s", "1/s", n as f64 / timed.wall_s),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
    ])
}

/// Process-wide counters of the analysis and simulation layers, read
/// around each traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub flows_dirtied: u64,
    pub flows_solved: u64,
    pub iterations: u64,
    pub clean_reused: u64,
    pub dirty_solved: u64,
    pub sim_steps: u64,
    pub sim_skipped: u64,
    pub sim_stalls: u64,
}

impl Counters {
    pub fn read() -> Counters {
        use noc_analysis::metrics as a;
        use noc_sim::metrics as s;
        Counters {
            flows_dirtied: a::INCREMENTAL_FLOWS_DIRTIED.get(),
            flows_solved: a::SOLVER_FLOWS_SOLVED.get(),
            iterations: a::SOLVER_ITERATIONS.get(),
            clean_reused: a::CACHE_CLEAN_REUSED.get(),
            dirty_solved: a::CACHE_DIRTY_SOLVED.get(),
            sim_steps: s::SIM_STEPS.get(),
            sim_skipped: s::SIM_CYCLES_SKIPPED.get(),
            sim_stalls: s::SIM_CREDIT_STALL_CYCLES.get(),
        }
    }

    /// Adds `after - before` to `self`.
    pub fn accumulate(&mut self, before: Counters, after: Counters) {
        self.flows_dirtied += after.flows_dirtied - before.flows_dirtied;
        self.flows_solved += after.flows_solved - before.flows_solved;
        self.iterations += after.iterations - before.iterations;
        self.clean_reused += after.clean_reused - before.clean_reused;
        self.dirty_solved += after.dirty_solved - before.dirty_solved;
        self.sim_steps += after.sim_steps - before.sim_steps;
        self.sim_skipped += after.sim_skipped - before.sim_skipped;
        self.sim_stalls += after.sim_stalls - before.sim_stalls;
    }
}

/// What a traced run gathered.
#[derive(Debug, Default)]
pub struct Traced {
    pub profile: Profile,
    /// Operations replayed.
    pub ops: u64,
    /// Queries served by those operations (one per operation outside the
    /// serving workloads); the analysis counters are reported per query.
    pub queries: u64,
    pub counters: Counters,
    /// Sum over the untraced batches of their mean shard utilization
    /// (serving only).
    pub shard_utilization_sum: f64,
    /// Cycles simulated and packets delivered (simulation only).
    pub sim_cycles: u64,
    pub sim_packets: u64,
    /// Time of the same operations untraced and traced.
    pub untraced_ns: u64,
    pub traced_ns: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in the same order and with the same names on
/// every workload; a layer a workload never calls reads 0.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let p = &t.profile;
    let ops = t.ops as f64;
    let queries = t.queries as f64;
    let c = &t.counters;
    let serve_self = p.self_ms("serve.op") + p.self_ms("serve.shard") + p.self_ms("serve.query");
    let sim_run_ns = p.get("sim.run").total_ns as f64;
    vec![
        metric("workload.generate_ms", "ms", p.mean_ms("workload.generate")),
        metric("model.add_flow_ms", "ms", p.mean_ms("model.add_flow")),
        metric("model.remove_flow_ms", "ms", p.mean_ms("model.remove_flow")),
        metric(
            "analysis.context_build_ms",
            "ms",
            p.mean_ms("analysis.context_build"),
        ),
        metric(
            "analysis.dirty_solve_ms",
            "ms",
            p.mean_ms("analysis.dirty_solve"),
        ),
        metric("analysis.resize_ms", "ms", p.mean_ms("analysis.resize")),
        metric(
            "analysis.router_solve_ms",
            "ms",
            p.mean_ms("analysis.router_solve"),
        ),
        metric("analysis.rebase_ms", "ms", p.mean_ms("analysis.rebase")),
        metric(
            "analysis.full_solve_ms",
            "ms",
            p.mean_ms("analysis.full_solve"),
        ),
        metric(
            "analysis.solve_ms.NoIndirect",
            "ms",
            p.mean_ms("analysis.solve.NoIndirect"),
        ),
        metric("analysis.solve_ms.SB", "ms", p.mean_ms("analysis.solve.SB")),
        metric(
            "analysis.solve_ms.Xiong16",
            "ms",
            p.mean_ms("analysis.solve.Xiong16"),
        ),
        metric(
            "analysis.solve_ms.XLWX",
            "ms",
            p.mean_ms("analysis.solve.XLWX"),
        ),
        metric(
            "analysis.solve_ms.IBN",
            "ms",
            p.mean_ms("analysis.solve.IBN"),
        ),
        metric(
            "analysis.solve_ms.IBN-b100",
            "ms",
            p.mean_ms("analysis.solve.IBN-b100"),
        ),
        metric(
            "analysis.conservative_ms",
            "ms",
            p.mean_ms("analysis.conservative"),
        ),
        metric(
            "analysis.flows_dirtied",
            "count",
            ratio(c.flows_dirtied as f64, queries),
        ),
        metric(
            "analysis.flows_resolved",
            "count",
            ratio(c.flows_solved as f64, queries),
        ),
        metric(
            "analysis.iterations",
            "count",
            ratio(c.iterations as f64, queries),
        ),
        metric(
            "analysis.cache_reuse_share",
            "share",
            ratio(
                c.clean_reused as f64,
                (c.clean_reused + c.dirty_solved) as f64,
            ),
        ),
        metric("serve.fork_ms", "ms", p.mean_ms("serve.fork")),
        metric("serve.cold_solve_ms", "ms", p.mean_ms("serve.cold_solve")),
        metric("serve.self_ms", "ms", ratio(serve_self, ops)),
        metric(
            "serve.shard_utilization",
            "share",
            ratio(t.shard_utilization_sum, ops),
        ),
        metric(
            "experiments.par_map_self_ms",
            "ms",
            ratio(p.self_ms("experiments.par_map"), ops),
        ),
        metric("sim.layout_ms", "ms", p.mean_ms("sim.layout")),
        metric("sim.run_ms", "ms", p.mean_ms("sim.run")),
        metric(
            "sim.ns_per_packet",
            "ns",
            ratio(sim_run_ns, t.sim_packets as f64),
        ),
        metric(
            "sim.skip_share",
            "share",
            ratio(c.sim_skipped as f64, t.sim_cycles as f64),
        ),
        metric("sim.steps", "count", ratio(c.sim_steps as f64, ops)),
        metric(
            "sim.credit_stall_cycles",
            "count",
            ratio(c.sim_stalls as f64, ops),
        ),
        metric(
            "sim.cycles_per_s",
            "1/s",
            ratio(t.sim_cycles as f64 * 1e9, t.untraced_ns as f64),
        ),
        metric(
            "trace.overhead_share",
            "share",
            ratio(t.traced_ns as f64, t.untraced_ns as f64) - 1.0,
        ),
    ]
}

/// The last line of a run: the result record.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
