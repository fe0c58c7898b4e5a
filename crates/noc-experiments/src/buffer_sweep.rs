//! Experiment X1: schedulability as a function of buffer depth.
//!
//! §VI of the paper: "We have performed the same experiments with a range
//! of different buffer sizes between 2 and 100 … in every case, the
//! analysis was able to guarantee schedulability of a smaller number of
//! flow sets when considering routers with larger buffers." This
//! experiment reproduces that (unplotted) observation as a table: the
//! percentage of schedulable flow sets under IBN for each buffer depth,
//! with XLWX as the buffer-independent floor.

use noc_analysis::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

use crate::runner::{default_threads, par_map_indexed};
use crate::table::TextTable;

/// Configuration of the buffer-depth sweep.
#[derive(Debug, Clone)]
pub struct BufferSweepConfig {
    /// Mesh width.
    pub mesh_width: u16,
    /// Mesh height.
    pub mesh_height: u16,
    /// Flows per set (pick a value where Figure 4 shows separation).
    pub n_flows: usize,
    /// Buffer depths to evaluate.
    pub buffer_depths: Vec<u32>,
    /// Flow sets per depth.
    pub sets: usize,
    /// Base RNG seed.
    pub seed_base: u64,
    /// Worker threads.
    pub threads: usize,
    /// Optional heterogeneous point: per-router depths drawn uniformly
    /// from this inclusive range (same flow sets, same seeds). `None`
    /// reproduces the paper's uniform-depth sweep exactly.
    pub hetero_range: Option<(u32, u32)>,
}

impl BufferSweepConfig {
    /// The paper's remark: buffers 2..100 on the 4×4 platform, at a load
    /// where Figure 4(a) separates the analyses.
    pub fn paper() -> BufferSweepConfig {
        BufferSweepConfig {
            mesh_width: 4,
            mesh_height: 4,
            n_flows: 160,
            buffer_depths: vec![2, 4, 8, 16, 32, 64, 100],
            sets: 100,
            seed_base: 0xB0F5,
            threads: default_threads(),
            hetero_range: None,
        }
    }

    /// Scales the experiment down for quick runs.
    #[must_use]
    pub fn reduced(mut self, sets: usize) -> BufferSweepConfig {
        self.sets = sets;
        self
    }
}

/// One point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSweepPoint {
    /// Buffer depth `buf(Ξ)`.
    pub buffer_depth: u32,
    /// % of sets schedulable under IBN at this depth.
    pub ibn: f64,
}

/// Results of the buffer-depth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSweepResults {
    /// One point per depth, in ascending depth order.
    pub points: Vec<BufferSweepPoint>,
    /// % of sets schedulable under XLWX (buffer-independent floor).
    pub xlwx: f64,
    /// % of sets schedulable under IBN with heterogeneous per-router
    /// depths, when [`BufferSweepConfig::hetero_range`] is set. Sandwiched
    /// between the uniform sweep at the range's endpoints (per set, a
    /// heterogeneous map's buffered interference lies between the two
    /// uniform extremes).
    pub hetero: Option<(u32, u32, f64)>,
}

/// Runs the sweep.
pub fn run(config: &BufferSweepConfig) -> BufferSweepResults {
    // Generate each set once; one AnalysisContext per set is rebased across
    // every buffer depth (depth never changes the interference graph).
    let spec = SyntheticSpec::paper(config.mesh_width, config.mesh_height, config.n_flows, 2);
    let per_set: Vec<(Vec<bool>, bool, bool)> = par_map_indexed(config.sets, config.threads, |s| {
        let seed = config
            .seed_base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(s as u64);
        let system = spec.generate(seed).into_system();
        let Ok(ctx) = AnalysisContext::new(&system) else {
            return (vec![false; config.buffer_depths.len()], false, false);
        };
        let ibn: Vec<bool> = config
            .buffer_depths
            .iter()
            .map(|&b| {
                let sys = system.with_buffer_depth(b);
                let depth_ctx = ctx
                    .rebase(&sys)
                    .expect("a buffer variant keeps the interference structure");
                BufferAware
                    .analyze_with(&depth_ctx)
                    .map(|r| r.is_schedulable())
                    .unwrap_or(false)
            })
            .collect();
        let xlwx = Xlwx
            .analyze_with(&ctx)
            .map(|r| r.is_schedulable())
            .unwrap_or(false);
        // The heterogeneous point re-generates with the same seed: depth
        // draws happen after every flow draw, so the flow set — and hence
        // the interference graph the context is rebased onto — is
        // identical.
        let hetero = config.hetero_range.is_some_and(|(lo, hi)| {
            let sys = spec
                .clone()
                .with_buffer_depth_range(lo, hi)
                .generate(seed)
                .into_system();
            let hetero_ctx = ctx
                .rebase(&sys)
                .expect("a buffer variant keeps the interference structure");
            BufferAware
                .analyze_with(&hetero_ctx)
                .map(|r| r.is_schedulable())
                .unwrap_or(false)
        });
        (ibn, xlwx, hetero)
    });
    let n = per_set.len() as f64;
    let points = config
        .buffer_depths
        .iter()
        .enumerate()
        .map(|(i, &buffer_depth)| BufferSweepPoint {
            buffer_depth,
            ibn: 100.0 * per_set.iter().filter(|(ibn, _, _)| ibn[i]).count() as f64 / n,
        })
        .collect();
    let xlwx = 100.0 * per_set.iter().filter(|(_, x, _)| *x).count() as f64 / n;
    let hetero = config.hetero_range.map(|(lo, hi)| {
        (
            lo,
            hi,
            100.0 * per_set.iter().filter(|(_, _, h)| *h).count() as f64 / n,
        )
    });
    BufferSweepResults {
        points,
        xlwx,
        hetero,
    }
}

/// Renders the sweep as a table.
pub fn render(results: &BufferSweepResults) -> String {
    let mut t = TextTable::new(vec!["buf(Ξ)", "% schedulable (IBN)"]);
    for p in &results.points {
        t.add_row(vec![p.buffer_depth.to_string(), format!("{:.0}", p.ibn)]);
    }
    if let Some((lo, hi, pct)) = results.hetero {
        t.add_row(vec![format!("hetero {lo}..={hi}"), format!("{pct:.0}")]);
    }
    t.add_row(vec![
        "XLWX (any buf)".into(),
        format!("{:.0}", results.xlwx),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulability_monotone_in_buffer_depth() {
        let cfg = BufferSweepConfig {
            n_flows: 120,
            buffer_depths: vec![2, 16, 100],
            sets: 10,
            threads: 4,
            ..BufferSweepConfig::paper()
        };
        let results = run(&cfg);
        for pair in results.points.windows(2) {
            assert!(
                pair[0].ibn >= pair[1].ibn,
                "schedulability should not improve with larger buffers: {pair:?}"
            );
        }
        // IBN at any depth dominates XLWX.
        for p in &results.points {
            assert!(p.ibn >= results.xlwx);
        }
    }

    #[test]
    fn hetero_point_is_sandwiched_by_uniform_extremes() {
        let cfg = BufferSweepConfig {
            n_flows: 120,
            buffer_depths: vec![2, 16],
            sets: 10,
            threads: 4,
            hetero_range: Some((2, 16)),
            ..BufferSweepConfig::paper()
        };
        let results = run(&cfg);
        let (lo, hi, pct) = results.hetero.expect("hetero point requested");
        assert_eq!((lo, hi), (2, 16));
        let at_lo = results.points[0].ibn;
        let at_hi = results.points[1].ibn;
        assert!(
            at_hi <= pct && pct <= at_lo,
            "hetero {pct}% outside uniform sandwich [{at_hi}%, {at_lo}%]"
        );
        assert!(render(&results).contains("hetero 2..=16"));
    }

    #[test]
    fn render_includes_floor() {
        let cfg = BufferSweepConfig {
            n_flows: 60,
            buffer_depths: vec![2, 100],
            sets: 5,
            threads: 2,
            ..BufferSweepConfig::paper()
        };
        let out = render(&run(&cfg));
        assert!(out.contains("XLWX (any buf)"));
    }
}
