//! Experiment T1/T2: the didactic example — Tables I and II of the paper.
//!
//! Reproduces the analytical bounds R_SB, R_XLWX, R_IBN(b=10), R_IBN(b=2)
//! and the simulated worst observed latencies R^sim(b=10), R^sim(b=2) for
//! the three flows of Figure 3.
//!
//! The `R^sim` columns come from sweeping τ1's release offset over its
//! period. Two [`SweepMode`]s are supported: the paper's exhaustive grid
//! and (the default) the pruned critical-instant candidate enumeration of
//! [`noc_sim::search::critical_offset_candidates`], which reproduces the
//! same worst cases in ~10× fewer simulations. Set
//! `NOC_MPB_SWEEP_EXHAUSTIVE=1` (or an explicit `NOC_MPB_SWEEP_STEP`) to
//! restore the grid in [`run_from_env`].

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_sim::prelude::*;
use noc_workload::didactic::{self, DidacticFlows, TABLE_I};

use crate::table::TextTable;

/// Results of the didactic experiment for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// Flow index (0 → τ1, 1 → τ2, 2 → τ3).
    pub flow: usize,
    /// Shi & Burns bound (buffer-independent).
    pub r_sb: u64,
    /// XLWX bound (buffer-independent).
    pub r_xlwx: u64,
    /// IBN bound with 10-flit buffers.
    pub r_ibn_b10: u64,
    /// IBN bound with 2-flit buffers.
    pub r_ibn_b2: u64,
    /// Worst observed latency with 10-flit buffers.
    pub sim_b10: u64,
    /// Worst observed latency with 2-flit buffers.
    pub sim_b2: u64,
}

/// How the τ1 release-offset space of the didactic sweep is searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Every offset in `0..T₁` in steps of `step` cycles (`step = 1` is the
    /// paper's exhaustive search).
    Exhaustive {
        /// Offset increment in cycles (≥ 1).
        step: u64,
    },
    /// Only the critical-instant candidates of
    /// [`noc_sim::search::critical_offset_candidates`] — offsets at which
    /// some interferer's alignment changes. The `sweep_equivalence`
    /// integration test pins this mode against `Exhaustive { step: 1 }`.
    Critical,
}

/// Result of the offset sweep for one buffer depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Worst observed latency per flow, in [τ1, τ2, τ3] order.
    pub worst: [u64; 3],
    /// The first τ1 offset (in sweep order) at which each flow's worst
    /// latency was observed.
    pub worst_offsets: [u64; 3],
    /// Number of simulations run.
    pub simulations: usize,
}

/// Full results of the didactic experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Results {
    /// One row per flow, in τ1, τ2, τ3 order.
    pub rows: Vec<Table2Row>,
    /// Offset-search strategy used for the simulation columns.
    pub mode: SweepMode,
    /// Sweep details for the 10-flit-buffer simulation.
    pub sweep_b10: SweepOutcome,
    /// Sweep details for the 2-flit-buffer simulation.
    pub sweep_b2: SweepOutcome,
}

/// Worst observed latencies (and the offsets producing them) for the three
/// didactic flows under a sweep of τ1's release offset over its period.
///
/// All offsets of one sweep run through a single [`BatchSimulator`]: the
/// system's simulation layout is precomputed once and one state allocation
/// is reused per candidate plan.
pub fn simulate_worst(buffer: u32, mode: SweepMode) -> SweepOutcome {
    let f = DidacticFlows::ids();
    let sys = didactic::system(buffer);
    let period_tau1 = sys.flow(f.tau1).period().as_u64();
    let offsets: Vec<u64> = match mode {
        SweepMode::Exhaustive { step } => {
            assert!(step >= 1, "sweep step must be at least one cycle");
            (0..period_tau1)
                .step_by(usize::try_from(step).unwrap_or(usize::MAX))
                .collect()
        }
        SweepMode::Critical => critical_offset_candidates(&sys, f.tau1, Cycles::new(period_tau1))
            .into_iter()
            .map(|c| c.as_u64())
            .collect(),
    };
    let mut worst = [0u64; 3];
    let mut worst_offsets = [0u64; 3];
    let mut batch = BatchSimulator::new(&sys);
    for &offset in &offsets {
        let plan = ReleasePlan::synchronous(&sys).with_offset(f.tau1, Cycles::new(offset));
        let stats = batch.run(&plan, Cycles::new(18_000));
        for (slot, id) in [f.tau1, f.tau2, f.tau3].iter().enumerate() {
            if let Some(w) = stats[id.index()].worst_latency() {
                if w.as_u64() > worst[slot] {
                    worst[slot] = w.as_u64();
                    worst_offsets[slot] = offset;
                }
            }
        }
    }
    SweepOutcome {
        worst,
        worst_offsets,
        simulations: offsets.len(),
    }
}

/// Runs the full didactic experiment with an exhaustive offset sweep in
/// steps of `sweep_step` cycles (`1` reproduces the paper's search, a few
/// hundred short simulations). See [`run_with`] for the pruned search.
pub fn run(sweep_step: u64) -> Table2Results {
    run_with(SweepMode::Exhaustive { step: sweep_step })
}

/// Runs the full didactic experiment with the given [`SweepMode`].
///
/// The four analytical columns share one [`AnalysisContext`] (rebased
/// between the 2- and 10-flit systems); the simulation columns sweep τ1's
/// offset according to `mode`.
pub fn run_with(mode: SweepMode) -> Table2Results {
    let f = DidacticFlows::ids();
    let sys2 = didactic::system(2);
    let ctx2 = AnalysisContext::new(&sys2).expect("didactic system analyses");
    let sys10 = sys2.with_buffer_depth(10);
    let ctx10 = ctx2
        .rebase(&sys10)
        .expect("a buffer variant keeps the interference structure");
    let bounds = |analysis: AnalysisKind, ctx: &AnalysisContext<'_>| -> [u64; 3] {
        let report = analysis
            .analyze_with(ctx)
            .expect("didactic system analyses");
        [f.tau1, f.tau2, f.tau3].map(|id| report.response_time(id).expect("schedulable").as_u64())
    };
    let sb = bounds(ShiBurns, &ctx2);
    let xlwx = bounds(Xlwx, &ctx2);
    let ibn10 = bounds(BufferAware, &ctx10);
    let ibn2 = bounds(BufferAware, &ctx2);
    let sweep_b10 = simulate_worst(10, mode);
    let sweep_b2 = simulate_worst(2, mode);
    Table2Results {
        rows: (0..3)
            .map(|i| Table2Row {
                flow: i,
                r_sb: sb[i],
                r_xlwx: xlwx[i],
                r_ibn_b10: ibn10[i],
                r_ibn_b2: ibn2[i],
                sim_b10: sweep_b10.worst[i],
                sim_b2: sweep_b2.worst[i],
            })
            .collect(),
        mode,
        sweep_b10,
        sweep_b2,
    }
}

/// Runs the didactic experiment with the sweep mode selected by the
/// environment, the policy of the `table2` binary:
///
/// * `NOC_MPB_SWEEP_EXHAUSTIVE=1` — exhaustive grid, stepped by
///   `NOC_MPB_SWEEP_STEP` (default 1);
/// * `NOC_MPB_SWEEP_STEP=n` alone — exhaustive grid in steps of `n`
///   (backwards-compatible with the pre-pruning binary); a set-but-unparsable
///   value still selects the exhaustive grid, at step 1;
/// * neither — the pruned [`SweepMode::Critical`] search.
pub fn run_from_env() -> Table2Results {
    let exhaustive = std::env::var("NOC_MPB_SWEEP_EXHAUSTIVE")
        .is_ok_and(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"));
    let step: Option<u64> = std::env::var("NOC_MPB_SWEEP_STEP")
        .ok()
        .map(|v| v.parse().unwrap_or(1));
    match (exhaustive, step) {
        (true, step) => run_with(SweepMode::Exhaustive {
            step: step.unwrap_or(1),
        }),
        (false, Some(step)) => run_with(SweepMode::Exhaustive { step }),
        (false, None) => run_with(SweepMode::Critical),
    }
}

/// Renders Table I (the flow parameters).
pub fn render_table_i() -> String {
    let sys = didactic::system(2);
    let f = DidacticFlows::ids();
    let mut t = TextTable::new(vec!["flow", "C (L, |route|)", "T", "D", "J", "P"]);
    for (i, id) in [f.tau1, f.tau2, f.tau3].iter().enumerate() {
        let (p, l, period, d, j) = TABLE_I[i];
        t.add_row(vec![
            format!("τ{}", i + 1),
            format!(
                "{} ({}, {})",
                sys.zero_load_latency(*id).as_u64(),
                l,
                sys.route(*id).len()
            ),
            period.to_string(),
            d.to_string(),
            j.to_string(),
            p.to_string(),
        ]);
    }
    t.render()
}

/// Renders Table II (analysis and simulation results).
pub fn render_table_ii(results: &Table2Results) -> String {
    let mut t = TextTable::new(vec![
        "flow",
        "R_SB",
        "R_XLWX",
        "R_IBN b=10",
        "R_IBN b=2",
        "R_sim b=10",
        "R_sim b=2",
    ]);
    for row in &results.rows {
        t.add_row(vec![
            format!("τ{}", row.flow + 1),
            row.r_sb.to_string(),
            row.r_xlwx.to_string(),
            row.r_ibn_b10.to_string(),
            row.r_ibn_b2.to_string(),
            row.sim_b10.to_string(),
            row.sim_b2.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_columns_match_paper() {
        // Coarse sweep keeps the test fast; analytical columns are exact.
        let r = run(20);
        let tau3 = r.rows[2];
        assert_eq!(tau3.r_sb, 336);
        assert_eq!(tau3.r_xlwx, 460);
        assert_eq!(tau3.r_ibn_b10, 396);
        assert_eq!(tau3.r_ibn_b2, 348);
        assert_eq!(r.rows[0].r_sb, 62);
        assert_eq!(r.rows[1].r_sb, 328);
    }

    #[test]
    fn simulation_below_safe_bounds() {
        let r = run(20);
        for row in &r.rows {
            assert!(row.sim_b10 <= row.r_ibn_b10);
            assert!(row.sim_b2 <= row.r_ibn_b2);
        }
    }

    #[test]
    fn tables_render() {
        let t1 = render_table_i();
        assert!(t1.contains("62 (60, 3)"));
        assert!(t1.contains("204 (198, 7)"));
        assert!(t1.contains("132 (128, 5)"));
        let r = run(50);
        let t2 = render_table_ii(&r);
        assert!(t2.contains("460"));
        assert!(t2.contains("τ3"));
    }

    #[test]
    fn critical_mode_prunes_the_sweep() {
        let pruned = run_with(SweepMode::Critical);
        assert_eq!(pruned.mode, SweepMode::Critical);
        // τ1's period is 200, so the exhaustive step-1 grid is 200 sims per
        // buffer depth; the acceptance bar is at least a 5× reduction.
        assert!(
            pruned.sweep_b2.simulations * 5 <= 200,
            "pruned sweep ran {} sims",
            pruned.sweep_b2.simulations
        );
        assert_eq!(pruned.sweep_b10.simulations, pruned.sweep_b2.simulations);
        // Analytical columns are sweep-independent and exact.
        assert_eq!(pruned.rows[2].r_xlwx, 460);
        assert_eq!(pruned.rows[2].r_ibn_b2, 348);
    }

    #[test]
    fn sweep_records_offsets_that_reproduce_the_worst_case() {
        let outcome = simulate_worst(2, SweepMode::Critical);
        let f = DidacticFlows::ids();
        let sys = didactic::system(2);
        for (slot, id) in [f.tau1, f.tau2, f.tau3].iter().enumerate() {
            let plan = ReleasePlan::synchronous(&sys)
                .with_offset(f.tau1, Cycles::new(outcome.worst_offsets[slot]));
            let mut sim = Simulator::new(&sys, plan);
            sim.run_until(Cycles::new(18_000));
            assert_eq!(
                sim.flow_stats(*id).worst_latency().map(|c| c.as_u64()),
                Some(outcome.worst[slot]),
                "recorded offset does not reproduce the worst case for slot {slot}"
            );
        }
    }
}
