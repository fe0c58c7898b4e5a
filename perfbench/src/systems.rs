//! Generation of the base systems every workload starts from.

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_workload::synthetic::SyntheticSpec;

/// Mesh side of every generated system.
pub const MESH: u16 = 8;
/// Per-VC buffer depth of the base systems, in flits (inside the
/// simulator's `buf ≥ 2` fidelity domain).
pub const BASE_DEPTH: u32 = 2;
/// Base priorities are multiplied by this, leaving 63 free levels between
/// neighbours for candidates to take their rate-monotonic slot.
pub const PRIORITY_SPACING: u32 = 64;

/// The §VI generator on the benchmark's mesh.
pub fn generate(n_flows: usize, seed: u64) -> System {
    SyntheticSpec::paper(MESH, MESH, n_flows, BASE_DEPTH)
        .generate(seed)
        .into_system()
}

/// `system` with every priority multiplied by [`PRIORITY_SPACING`],
/// rebuilt through `FlowSet::new` and `System::new`.
pub fn spaced(system: &System) -> System {
    let flows = system
        .flows()
        .iter()
        .map(|(_, f)| {
            Flow::builder(f.source(), f.dest())
                .priority(Priority::new(f.priority().level() * PRIORITY_SPACING))
                .period(f.period())
                .deadline(f.deadline())
                .jitter(f.jitter())
                .burst(f.burst())
                .length_flits(f.length_flits())
                .build()
        })
        .collect();
    let flows = FlowSet::new(flows).expect("spacing keeps priorities unique");
    System::new(
        system.topology().clone(),
        *system.config(),
        flows,
        &XyRouting,
    )
    .expect("the routes of a routed system stay routable")
}

fn certifies(ctx: &AnalysisContext<'_>, scaled: &System) -> Result<bool, String> {
    let report = BufferAware
        .analyze_with(&ctx.rebase(scaled).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    Ok(report.is_schedulable())
}

/// Draws spaced `n_flows`-flow systems from `rng` until one has `scale` as
/// its certifying factor (IBN certifies it with periods ×`scale` but not
/// ×`scale − 1`; schedulability only grows with the periods), and returns
/// it scaled. Holding the factor fixed keeps every base in one regime.
/// Generation runs inside a `workload.generate` span when tracing.
pub fn certified_base(
    n_flows: usize,
    scale: u64,
    rng: &mut crate::rng::Rng,
    mut tracer: Option<&mut crate::trace::Tracer>,
) -> Result<System, String> {
    assert!(scale >= 2, "a base must need its periods scaled");
    for _ in 0..MAX_DRAWS {
        let seed = rng.next_u64();
        let raw = crate::trace::within(tracer.as_deref_mut(), "workload.generate", || {
            generate(n_flows, seed)
        });
        let system = spaced(&raw);
        let ctx = AnalysisContext::new(&system).map_err(|e| e.to_string())?;
        let below = system
            .with_scaled_periods(scale - 1, 1)
            .map_err(|e| e.to_string())?;
        if certifies(&ctx, &below)? {
            continue;
        }
        let scaled = system
            .with_scaled_periods(scale, 1)
            .map_err(|e| e.to_string())?;
        if certifies(&ctx, &scaled)? {
            return Ok(scaled);
        }
    }
    Err(format!(
        "no {n_flows}-flow system in {MAX_DRAWS} draws certifies first at x{scale}"
    ))
}

/// Systems drawn by [`certified_base`] before it gives up.
const MAX_DRAWS: usize = 64;

/// The rate-monotonic priority of a candidate with `period` joining the
/// spaced `base`: just below every base flow whose period is at most
/// `period`, offset by `slot` (`1..PRIORITY_SPACING`) inside the free gap.
/// Never equal to a base priority, which are all multiples of the spacing.
pub fn rate_monotonic_slot(base: &System, period: Cycles, slot: u32) -> Priority {
    assert!(
        (1..PRIORITY_SPACING).contains(&slot),
        "slot must lie strictly inside the gap"
    );
    let above = base
        .flows()
        .iter()
        .filter(|(_, f)| f.period() <= period)
        .count() as u32;
    Priority::new(above * PRIORITY_SPACING + slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Digest;

    #[test]
    fn rate_monotonic_slots_never_duplicate_a_base_priority() {
        let base = spaced(&generate(120, 3));
        let taken: std::collections::BTreeSet<u32> = base
            .flows()
            .iter()
            .map(|(_, f)| f.priority().level())
            .collect();
        for (_, f) in base.flows().iter() {
            for delta in [0, 1] {
                for slot in [1, 31, PRIORITY_SPACING - 1] {
                    let period = Cycles::new(f.period().as_u64() + delta);
                    let p = rate_monotonic_slot(&base, period, slot);
                    assert!(!taken.contains(&p.level()), "slot {p:?} is taken");
                    // Rate-monotonic: below every base flow with a period
                    // at most the candidate's, above every longer one.
                    for (_, g) in base.flows().iter() {
                        assert_eq!(g.period() <= period, g.priority().is_higher_than(p));
                    }
                }
            }
        }
    }

    #[test]
    fn digest_is_stable_across_two_generations_of_one_seed() {
        let digest = |seed| {
            let mut rng = crate::rng::Rng::new(seed);
            let sys = certified_base(300, 2, &mut rng, None).unwrap();
            Digest::default().system(&sys).hex()
        };
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }

    #[test]
    fn default_and_held_out_seeds_draw_distinct_certified_bases() {
        let digest = |seed| {
            let mut rng = crate::rng::Rng::new(seed);
            let sys = certified_base(400, 2, &mut rng, None).unwrap();
            assert!(BufferAware
                .analyze_with(&AnalysisContext::new(&sys).unwrap())
                .unwrap()
                .is_schedulable());
            Digest::default().system(&sys).hex()
        };
        assert_ne!(digest(crate::DEFAULT_SEED), digest(crate::HELD_OUT_SEED));
    }
}
