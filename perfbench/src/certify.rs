//! The `certify` workload: cold certification of pre-generated flow sets
//! that span the schedulability knee — a fresh context, all five analyses,
//! IBN at a deep buffer via `rebase`, and the conservative bound.

use std::time::Instant;

use noc_analysis::prelude::*;
use noc_model::prelude::*;

use crate::driver::{self, Done};
use crate::identity::{Digest, Identity};
use crate::rng::Rng;
use crate::systems;
use crate::trace::{within, Tracer};
use crate::{Args, Run};

/// Flow counts of the pool, evenly spaced from comfortably schedulable to
/// past the knee, so that the latency percentiles sit on a dense grid of
/// set sizes rather than on one set.
const FLOWS: std::ops::RangeInclusive<usize> = 200..=520;
const SIZES: usize = 16;
/// Sets in the pool: every (size, scale) pair in turn, each time freshly
/// drawn, so any run of consecutive operations covers the grid evenly and
/// a run averages over hundreds of generated sets.
const POOL: usize = 480;
/// Period scales of the pool: the generator's own periods and ×3.
const SCALES: [u64; 2] = [1, 3];
/// The deep buffer IBN is also evaluated at.
const DEEP_BUFFER: u32 = 100;

fn generate(seed: u64, mut tracer: Option<&mut Tracer>) -> Vec<System> {
    let mut rng = Rng::new(seed);
    let (lo, hi) = (*FLOWS.start(), *FLOWS.end());
    (0..POOL)
        .map(|i| {
            let n = lo + (hi - lo) * (i % SIZES) / (SIZES - 1);
            let k = SCALES[(i / SIZES) % SCALES.len()];
            let seed = rng.next_u64();
            within(tracer.as_deref_mut(), "workload.generate", || {
                systems::generate(n, seed)
            })
            .with_scaled_periods(k, 1)
            .expect("scaling by an integer keeps flows valid")
        })
        .collect()
}

/// Every report of one certification.
#[derive(Debug, PartialEq)]
struct Certificate {
    reports: Vec<AnalysisReport>,
    deep: AnalysisReport,
    conservative: AnalysisReport,
}

fn certify(system: &System, mut tracer: Option<&mut Tracer>) -> Result<Certificate, AnalysisError> {
    let ctx = within(tracer.as_deref_mut(), "analysis.context_build", || {
        AnalysisContext::new(system)
    })?;
    let mut reports = Vec::with_capacity(AnalysisKind::ALL.len());
    for kind in AnalysisKind::ALL {
        let name = match kind {
            AnalysisKind::NoIndirect => "analysis.solve.NoIndirect",
            AnalysisKind::ShiBurns => "analysis.solve.SB",
            AnalysisKind::XiongOriginal => "analysis.solve.Xiong16",
            AnalysisKind::Xlwx => "analysis.solve.XLWX",
            AnalysisKind::BufferAware => "analysis.solve.IBN",
        };
        reports.push(within(tracer.as_deref_mut(), name, || {
            kind.as_analysis().analyze_with(&ctx)
        })?);
    }
    let deep_system = system.with_buffer_depth(DEEP_BUFFER);
    let deep_ctx = within(tracer.as_deref_mut(), "analysis.rebase", || {
        ctx.rebase(&deep_system)
    })?;
    let deep = within(tracer.as_deref_mut(), "analysis.solve.IBN-b100", || {
        BufferAware.analyze_with(&deep_ctx)
    })?;
    let conservative = within(tracer, "analysis.conservative", || conservative_with(&ctx));
    Ok(Certificate {
        reports,
        deep,
        conservative,
    })
}

/// The value a verdict bounds the response time by, if it is a bound: the
/// response time, or the first iterate past the deadline.
fn bound(verdict: FlowVerdict) -> Option<Cycles> {
    match verdict {
        FlowVerdict::Schedulable { response_time } => Some(response_time),
        FlowVerdict::DeadlineMiss { exceeded_at } => Some(exceeded_at),
        FlowVerdict::Tainted | FlowVerdict::NotConverged => None,
    }
}

/// `IBN ≤ XLWX ≤ conservative` per flow, for IBN at both buffer depths:
/// where XLWX certifies a flow, IBN certifies it with a bound no larger, and
/// the conservative bound is no smaller than any certified bound. A flow
/// XLWX proves to miss its deadline is never certified by the conservative
/// bound. (A flow whose bound is tainted by a failed higher-priority flow
/// has no bound to order.)
fn check(cert: &Certificate) -> Option<String> {
    let report = |kind| {
        let i = AnalysisKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every kind is listed");
        &cert.reports[i]
    };
    let xlwx = report(AnalysisKind::Xlwx);
    let ibn = report(AnalysisKind::BufferAware);
    for (id, x) in xlwx.iter() {
        let c = cert.conservative.verdict(id);
        for (label, r) in [("IBN", ibn), ("IBN-b100", &cert.deep)] {
            let v = r.verdict(id);
            let ordered = match (v.response_time(), x.response_time()) {
                (Some(b), Some(rx)) => b <= rx,
                (_, Some(_)) => false,
                _ => true,
            };
            let covered = match (v.response_time(), bound(c)) {
                (Some(b), Some(rc)) => b <= rc,
                (Some(_), None) => false,
                _ => true,
            };
            if !ordered || !covered {
                return Some(format!("{id}: {label} {v}, XLWX {x}, conservative {c}"));
            }
        }
        let covered = match (x, bound(c)) {
            (FlowVerdict::Schedulable { response_time }, Some(rc)) => response_time <= rc,
            (FlowVerdict::Schedulable { .. }, None) => false,
            (FlowVerdict::DeadlineMiss { .. }, _) => !c.is_schedulable(),
            _ => true,
        };
        if !covered {
            return Some(format!("{id}: XLWX {x}, conservative {c}"));
        }
    }
    None
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut violations = Vec::new();
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));

    // Set-up: generate the pool and warm up on one certification.
    let (setup_s, sets) = driver::repeat_setup(|rep| {
        let sets = generate(args.seed, tracer.as_mut());
        let warm = certify(&sets[rep % sets.len()], None).map_err(|e| e.to_string())?;
        violations.extend(check(&warm));
        Ok(sets)
    })?;
    let mut digest = Digest::default();
    for s in &sets {
        digest.system(s);
    }
    let identity = Identity {
        workload: "certify",
        seed: args.seed,
        period_scale: SCALES.map(|k| k.to_string()).join(","),
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
            let started = Instant::now();
            let cert = certify(&sets[index], None);
            let ns = started.elapsed().as_nanos() as u64;
            let violations = match &cert {
                Ok(c) => check(c).map(|v| format!("set {index}: {v}")),
                Err(e) => Some(format!("set {index}: {e}")),
            };
            Done {
                ns,
                violations: violations.into_iter().collect(),
                result: cert.ok(),
            }
        },
        |i, cert, t, traced| {
            let index = i % sets.len();
            traced.queries += 1;
            if certify(&sets[index], Some(t)).ok() == cert {
                Vec::new()
            } else {
                vec![format!("set {index}: traced replay differs")]
            }
        },
    );
    measured.into_run(identity, setup_s, tracer, violations)
}
