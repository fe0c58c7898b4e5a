//! Analysis outcomes: per-flow verdicts and whole-set reports.

use std::fmt;

use noc_model::ids::FlowId;
use noc_model::time::Cycles;

/// The outcome of a response-time analysis for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowVerdict {
    /// The fixed point converged at `response_time ≤ D`.
    Schedulable {
        /// Upper bound R on the worst-case packet latency.
        response_time: Cycles,
    },
    /// The response-time iteration exceeded the deadline; the flow cannot be
    /// guaranteed. `exceeded_at` is the first iterate beyond D (a *lower*
    /// bound on the analysis' fixed point, not a latency bound).
    DeadlineMiss {
        /// First iterate that exceeded the deadline.
        exceeded_at: Cycles,
    },
    /// A higher-priority flow this bound depends on already failed, so no
    /// meaningful bound exists for this flow.
    Tainted,
    /// The iteration hit the safety cap without converging (practically
    /// unreachable; treated as unschedulable).
    NotConverged,
}

impl FlowVerdict {
    /// `true` for [`FlowVerdict::Schedulable`].
    pub fn is_schedulable(&self) -> bool {
        matches!(self, FlowVerdict::Schedulable { .. })
    }

    /// The response-time bound, if the flow is schedulable.
    pub fn response_time(&self) -> Option<Cycles> {
        match self {
            FlowVerdict::Schedulable { response_time } => Some(*response_time),
            _ => None,
        }
    }
}

impl fmt::Display for FlowVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowVerdict::Schedulable { response_time } => write!(f, "R={response_time}"),
            FlowVerdict::DeadlineMiss { exceeded_at } => {
                write!(f, "deadline miss (>{exceeded_at})")
            }
            FlowVerdict::Tainted => write!(f, "tainted by failed higher-priority flow"),
            FlowVerdict::NotConverged => write!(f, "did not converge"),
        }
    }
}

/// One direct interferer's contribution to a response-time bound, at the
/// converged fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterferenceTerm {
    /// The direct interferer τⱼ ∈ S^D_i.
    pub interferer: FlowId,
    /// Number of interfering packets `⌈(Rᵢ + Jⱼ + jitterⱼ)/Tⱼ⌉`.
    pub hits: u64,
    /// Charge per hit: `Cⱼ + Idown(j,i)`.
    pub charge_per_hit: Cycles,
    /// The downstream (MPB) part of the charge, `Idown(j,i)`.
    pub downstream_term: Cycles,
    /// The jitter added to τⱼ's window (interference jitter `J^I_j`, or
    /// `Iup(j,i)` under the original Xiong analysis).
    pub window_jitter: Cycles,
}

impl InterferenceTerm {
    /// Total interference charged to this interferer: `hits ·
    /// charge_per_hit`.
    pub fn total(&self) -> Cycles {
        self.charge_per_hit * self.hits
    }
}

/// A per-flow breakdown of where a response-time bound comes from:
/// `R = C + Σ terms.total()` at the fixed point.
///
/// Produced by [`AnalysisKind::explain`](crate::analysis::AnalysisKind::explain);
/// the sum identity is checked by tests and makes the analyses auditable
/// term by term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowExplanation {
    /// The flow being bounded.
    pub flow: FlowId,
    /// Its zero-load latency Cᵢ (Equation 1).
    pub zero_load: Cycles,
    /// The verdict (response time if schedulable).
    pub verdict: FlowVerdict,
    /// One term per direct interferer, sorted from highest priority to
    /// lowest. Empty when the verdict is [`FlowVerdict::Tainted`].
    pub terms: Vec<InterferenceTerm>,
}

impl FlowExplanation {
    /// `C + Σ hits·charge` — equals the response time for schedulable
    /// flows.
    pub fn reconstructed_bound(&self) -> Cycles {
        self.zero_load + self.terms.iter().map(InterferenceTerm::total).sum()
    }
}

impl fmt::Display for FlowExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: C = {}, {}", self.flow, self.zero_load, self.verdict)?;
        for t in &self.terms {
            writeln!(
                f,
                "  + {} × {} from {} (MPB part {}, window jitter {})",
                t.hits, t.charge_per_hit, t.interferer, t.downstream_term, t.window_jitter
            )?;
        }
        Ok(())
    }
}

/// The outcome of a response-time analysis over a whole flow set.
///
/// # Examples
///
/// ```
/// # use noc_model::prelude::*;
/// # use noc_analysis::prelude::*;
/// # let topology = Topology::mesh(2, 1);
/// # let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(1))
/// #     .priority(Priority::new(1)).period(Cycles::new(1000)).length_flits(10).build()])?;
/// # let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
/// let report = BufferAware.analyze(&system)?;
/// assert!(report.is_schedulable());
/// assert_eq!(report.response_time(FlowId::new(0)), Some(Cycles::new(12)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    analysis: &'static str,
    verdicts: Vec<FlowVerdict>,
}

impl AnalysisReport {
    /// Assembles a report (used by the analyses in this crate).
    pub(crate) fn new(analysis: &'static str, verdicts: Vec<FlowVerdict>) -> Self {
        AnalysisReport { analysis, verdicts }
    }

    /// Name of the analysis that produced this report.
    pub fn analysis(&self) -> &'static str {
        self.analysis
    }

    /// `true` iff every flow is schedulable (Rᵢ ≤ Dᵢ for all τᵢ).
    pub fn is_schedulable(&self) -> bool {
        self.verdicts.iter().all(FlowVerdict::is_schedulable)
    }

    /// Number of schedulable flows.
    pub fn schedulable_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_schedulable()).count()
    }

    /// Verdict for one flow.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn verdict(&self, id: FlowId) -> FlowVerdict {
        self.verdicts[id.index()]
    }

    /// Response-time bound Rᵢ for one flow, if schedulable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn response_time(&self, id: FlowId) -> Option<Cycles> {
        self.verdicts[id.index()].response_time()
    }

    /// Iterates over `(FlowId, FlowVerdict)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, FlowVerdict)> + '_ {
        self.verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| (FlowId::new(i as u32), *v))
    }

    /// Number of flows covered.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// `true` if the report covers no flows.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {}/{} flows schedulable",
            self.analysis,
            self.schedulable_count(),
            self.len()
        )?;
        for (id, v) in self.iter() {
            writeln!(f, "  {id}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        let ok = FlowVerdict::Schedulable {
            response_time: Cycles::new(10),
        };
        assert!(ok.is_schedulable());
        assert_eq!(ok.response_time(), Some(Cycles::new(10)));
        let miss = FlowVerdict::DeadlineMiss {
            exceeded_at: Cycles::new(99),
        };
        assert!(!miss.is_schedulable());
        assert_eq!(miss.response_time(), None);
        assert!(!FlowVerdict::Tainted.is_schedulable());
        assert!(!FlowVerdict::NotConverged.is_schedulable());
    }

    #[test]
    fn report_aggregates() {
        let report = AnalysisReport::new(
            "test",
            vec![
                FlowVerdict::Schedulable {
                    response_time: Cycles::new(5),
                },
                FlowVerdict::Tainted,
            ],
        );
        assert_eq!(report.analysis(), "test");
        assert!(!report.is_schedulable());
        assert_eq!(report.schedulable_count(), 1);
        assert_eq!(report.len(), 2);
        assert!(!report.is_empty());
        assert_eq!(report.response_time(FlowId::new(0)), Some(Cycles::new(5)));
        assert_eq!(report.response_time(FlowId::new(1)), None);
        assert_eq!(report.iter().count(), 2);
    }

    #[test]
    fn display_mentions_counts_and_verdicts() {
        let report = AnalysisReport::new(
            "SB",
            vec![FlowVerdict::Schedulable {
                response_time: Cycles::new(5),
            }],
        );
        let s = report.to_string();
        assert!(s.contains("SB: 1/1"));
        assert!(s.contains("f0: R=5cy"));
    }
}
