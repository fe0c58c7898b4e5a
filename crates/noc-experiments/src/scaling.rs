//! Experiment X5: breakdown scaling — a *continuous* tightness metric.
//!
//! Binary schedulability (Figures 4–5) hides how close a verdict was. The
//! breakdown factor of a system under an analysis is the smallest uniform
//! period/deadline scaling that makes the whole set schedulable: factors
//! below 1 mean the analysis certifies headroom (periods could shrink),
//! factors above 1 measure how much relaxation the analysis demands. A
//! tighter analysis always has a breakdown factor ≤ a more pessimistic
//! one — this experiment quantifies *how much* tighter IBN is than XLWX,
//! beyond the yes/no of the paper's plots.

use noc_analysis::prelude::*;
use noc_model::system::System;
use noc_workload::synthetic::SyntheticSpec;

use crate::runner::{default_threads, par_map_indexed};
use crate::table::TextTable;

/// Fixed-point denominator for the scaling search (1/1024 resolution).
const DENOM: u64 = 1 << 10;

/// Returns whether the context's system with periods scaled by `num/DENOM`
/// is fully schedulable under `analysis`. Period scaling preserves routes
/// and priorities, so the scaled system shares the context's interference
/// graph via [`AnalysisContext::rebase`].
fn schedulable_at(ctx: &AnalysisContext<'_>, analysis: AnalysisKind, num: u64) -> bool {
    ctx.system()
        .with_scaled_periods(num, DENOM)
        .ok()
        .and_then(|s| {
            let scaled = ctx.rebase(&s).ok()?;
            analysis.analyze_with(&scaled).ok()
        })
        .map(|r| r.is_schedulable())
        .unwrap_or(false)
}

/// The breakdown factor of `system` under `analysis`: the smallest scaling
/// factor α (to 1/1024 resolution, within `[2⁻⁶, 2⁶]`) such that scaling
/// every period and deadline by α makes the set schedulable.
///
/// Returns `None` when even a 64-fold relaxation does not help (e.g. a
/// flow's deadline is below its zero-load latency by construction —
/// impossible for D = T workloads, but possible for hand-built ones).
///
/// Schedulability is monotone in the period scale (longer periods mean
/// fewer interference hits and smaller jitter), which makes binary search
/// sound; a unit test cross-checks monotonicity empirically.
///
/// # Examples
///
/// ```
/// # use noc_model::prelude::*;
/// # use noc_analysis::prelude::*;
/// # use noc_experiments::scaling::breakdown_factor;
/// # let topology = Topology::mesh(2, 1);
/// # let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(1))
/// #     .priority(Priority::new(1)).period(Cycles::new(1000)).length_flits(10).build()])?;
/// # let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
/// // A lightly loaded system has headroom: breakdown factor well below 1.
/// let alpha = breakdown_factor(&system, BufferAware).unwrap();
/// assert!(alpha < 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn breakdown_factor(system: &System, analysis: AnalysisKind) -> Option<f64> {
    let ctx = AnalysisContext::new(system).ok()?;
    breakdown_factor_with(&ctx, analysis)
}

/// [`breakdown_factor`] against a shared [`AnalysisContext`]: every probe of
/// the binary search (≈ 12 analyses) rebases the context instead of
/// re-deriving the interference graph.
pub fn breakdown_factor_with(ctx: &AnalysisContext<'_>, analysis: AnalysisKind) -> Option<f64> {
    let mut hi = DENOM * 64;
    if !schedulable_at(ctx, analysis, hi) {
        return None;
    }
    let mut lo = DENOM / 64;
    if schedulable_at(ctx, analysis, lo) {
        return Some(lo as f64 / DENOM as f64);
    }
    // Invariant: unschedulable at lo, schedulable at hi.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if schedulable_at(ctx, analysis, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi as f64 / DENOM as f64)
}

/// Configuration of the breakdown-factor comparison.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Mesh width.
    pub mesh_width: u16,
    /// Mesh height.
    pub mesh_height: u16,
    /// Flows per set.
    pub n_flows: usize,
    /// Number of random flow sets.
    pub sets: usize,
    /// Base RNG seed.
    pub seed_base: u64,
    /// Small/large buffer depths for IBN.
    pub buffers: (u32, u32),
    /// Worker threads.
    pub threads: usize,
}

impl ScalingConfig {
    /// Default setup: the Figure 4(a) platform at a load where the
    /// analyses separate.
    pub fn paper() -> ScalingConfig {
        ScalingConfig {
            mesh_width: 4,
            mesh_height: 4,
            n_flows: 160,
            sets: 50,
            seed_base: 0x5CA7E,
            buffers: (2, 100),
            threads: default_threads(),
        }
    }

    /// Scales the experiment down for quick runs.
    #[must_use]
    pub fn reduced(mut self, sets: usize) -> ScalingConfig {
        self.sets = sets;
        self
    }
}

/// Breakdown factors of one flow set under the four analyses
/// (`None` = not schedulable within the search range).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownRow {
    /// Seed of the generated set.
    pub seed: u64,
    /// Shi & Burns (unsafe floor).
    pub sb: Option<f64>,
    /// XLWX.
    pub xlwx: Option<f64>,
    /// IBN with small buffers.
    pub ibn_small: Option<f64>,
    /// IBN with large buffers.
    pub ibn_large: Option<f64>,
}

/// Results of the breakdown comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResults {
    /// One row per generated set.
    pub rows: Vec<BreakdownRow>,
}

impl ScalingResults {
    /// Geometric mean of the breakdown factors of one analysis (skips
    /// `None` rows). Geometric because factors are multiplicative.
    pub fn geometric_mean(&self, pick: impl Fn(&BreakdownRow) -> Option<f64>) -> Option<f64> {
        let logs: Vec<f64> = self.rows.iter().filter_map(&pick).map(f64::ln).collect();
        if logs.is_empty() {
            return None;
        }
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// Runs the breakdown comparison.
pub fn run(config: &ScalingConfig) -> ScalingResults {
    let spec = SyntheticSpec::paper(config.mesh_width, config.mesh_height, config.n_flows, 2);
    let rows = par_map_indexed(config.sets, config.threads, |s| {
        let seed = config
            .seed_base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(s as u64);
        let system = spec.generate(seed).into_system();
        let small = system.with_buffer_depth(config.buffers.0);
        let large = system.with_buffer_depth(config.buffers.1);
        // One interference graph serves all four analyses × two depths ×
        // every binary-search probe.
        let ctx = match AnalysisContext::new(&small) {
            Ok(ctx) => ctx,
            Err(_) => {
                return BreakdownRow {
                    seed,
                    sb: None,
                    xlwx: None,
                    ibn_small: None,
                    ibn_large: None,
                }
            }
        };
        let large_ctx = ctx
            .rebase(&large)
            .expect("a buffer variant keeps the interference structure");
        BreakdownRow {
            seed,
            sb: breakdown_factor_with(&ctx, ShiBurns),
            xlwx: breakdown_factor_with(&ctx, Xlwx),
            ibn_small: breakdown_factor_with(&ctx, BufferAware),
            ibn_large: breakdown_factor_with(&large_ctx, BufferAware),
        }
    });
    ScalingResults { rows }
}

/// Renders the geometric-mean summary table.
pub fn render(results: &ScalingResults, config: &ScalingConfig) -> String {
    let mut t = TextTable::new(vec!["analysis", "geo-mean breakdown factor", "sets solved"]);
    let mut row = |name: String, pick: &dyn Fn(&BreakdownRow) -> Option<f64>| {
        let solved = results.rows.iter().filter(|r| pick(r).is_some()).count();
        t.add_row(vec![
            name,
            results
                .geometric_mean(pick)
                .map_or("-".into(), |g| format!("{g:.3}")),
            format!("{solved}/{}", results.rows.len()),
        ]);
    };
    row("SB (unsafe)".into(), &|r| r.sb);
    row(format!("IBN (b={})", config.buffers.0), &|r| r.ibn_small);
    row(format!("IBN (b={})", config.buffers.1), &|r| r.ibn_large);
    row("XLWX".into(), &|r| r.xlwx);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_system(seed: u64) -> System {
        SyntheticSpec::paper(4, 4, 120, 2)
            .generate(seed)
            .into_system()
    }

    #[test]
    fn breakdown_respects_analysis_ordering() {
        for seed in [1u64, 2, 3] {
            let sys = loaded_system(seed);
            let sb = breakdown_factor(&sys, ShiBurns).unwrap();
            let ibn = breakdown_factor(&sys, BufferAware).unwrap();
            let xlwx = breakdown_factor(&sys, Xlwx).unwrap();
            assert!(sb <= ibn + 1e-9, "seed {seed}");
            assert!(ibn <= xlwx + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn breakdown_consistent_with_schedulability() {
        let sys = loaded_system(7);
        let report = BufferAware.analyze(&sys).unwrap();
        let alpha = breakdown_factor(&sys, BufferAware).unwrap();
        if report.is_schedulable() {
            assert!(alpha <= 1.0);
        } else {
            assert!(alpha > 1.0);
        }
    }

    #[test]
    fn schedulability_is_monotone_in_scale() {
        // Empirical cross-check of the binary search's soundness premise.
        let sys = loaded_system(11);
        let ctx = AnalysisContext::new(&sys).unwrap();
        let mut last = false;
        for num in [256u64, 512, 1024, 2048, 4096, 16384] {
            let ok = schedulable_at(&ctx, BufferAware, num);
            assert!(ok || !last, "schedulability regressed as periods grew");
            last = ok;
        }
    }

    #[test]
    fn context_backed_breakdown_matches_direct_path() {
        let sys = loaded_system(5);
        let ctx = AnalysisContext::new(&sys).unwrap();
        for analysis in [ShiBurns, Xlwx, BufferAware] {
            assert_eq!(
                breakdown_factor(&sys, analysis),
                breakdown_factor_with(&ctx, analysis),
                "{}",
                analysis.name()
            );
        }
    }

    #[test]
    fn run_and_render_smoke() {
        let cfg = ScalingConfig {
            n_flows: 80,
            sets: 4,
            threads: 4,
            ..ScalingConfig::paper()
        };
        let results = run(&cfg);
        assert_eq!(results.rows.len(), 4);
        let out = render(&results, &cfg);
        assert!(out.contains("XLWX"));
        assert!(out.contains("geo-mean"));
        // Ordering holds on the means as well.
        let sb = results.geometric_mean(|r| r.sb);
        let xlwx = results.geometric_mean(|r| r.xlwx);
        if let (Some(a), Some(b)) = (sb, xlwx) {
            assert!(a <= b + 1e-9);
        }
    }
}
