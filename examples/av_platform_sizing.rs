//! Platform sizing for the autonomous-vehicle benchmark: how big a NoC do
//! you need, and how much silicon does a tighter analysis save?
//!
//! ```text
//! cargo run --release --example av_platform_sizing
//! ```
//!
//! For each mesh size, maps the AV application onto 40 random placements
//! and reports the fraction a designer could sign off under the safe
//! analyses (XLWX vs buffer-aware IBN). The tighter IBN bound certifies
//! smaller platforms — real silicon savings from analysis alone.

use noc_mpb::prelude::*;
use noc_mpb::workload::av::av_benchmark;
use noc_mpb::workload::mapping::random_mapping;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = av_benchmark();
    println!(
        "AV benchmark: {} tasks, {} messages\n",
        app.task_count(),
        app.message_count()
    );
    println!(
        "{:>9} {:>7} {:>12} {:>12} {:>12}",
        "topology", "nodes", "XLWX ok", "IBN(b=2) ok", "IBN(b=100) ok"
    );

    const MAPPINGS: u64 = 40;
    let mut first_certified: [Option<String>; 2] = [None, None];
    for (w, h) in [
        (2u16, 2u16),
        (3, 2),
        (3, 3),
        (4, 3),
        (4, 4),
        (5, 4),
        (5, 5),
        (6, 6),
        (8, 8),
    ] {
        let config = NocConfig::builder().buffer_depth(2).build();
        let mut ok = [0u32; 3];
        for seed in 0..MAPPINGS {
            let mapped = random_mapping(&app, w, h, config, 0xA0 + seed)?;
            let system = mapped.system();
            let verdict = |a: AnalysisKind, sys: &System| {
                a.analyze(sys).map(|r| r.is_schedulable()).unwrap_or(false)
            };
            ok[0] += u32::from(verdict(Xlwx, system));
            ok[1] += u32::from(verdict(BufferAware, system));
            ok[2] += u32::from(verdict(BufferAware, &system.with_buffer_depth(100)));
        }
        let pct = |c: u32| 100.0 * f64::from(c) / MAPPINGS as f64;
        println!(
            "{:>9} {:>7} {:>11.0}% {:>11.0}% {:>11.0}%",
            format!("{w}x{h}"),
            w as u32 * h as u32,
            pct(ok[0]),
            pct(ok[1]),
            pct(ok[2])
        );
        // "Certified" = at least half of random mappings schedulable: a
        // platform a designer can realistically target.
        if first_certified[0].is_none() && pct(ok[0]) >= 50.0 {
            first_certified[0] = Some(format!("{w}x{h}"));
        }
        if first_certified[1].is_none() && pct(ok[1]) >= 50.0 {
            first_certified[1] = Some(format!("{w}x{h}"));
        }
    }
    println!();
    match (&first_certified[1], &first_certified[0]) {
        (Some(ibn), Some(xlwx)) if ibn != xlwx => println!(
            "IBN certifies the {ibn} platform; XLWX needs {xlwx}. The tighter\n\
             analysis ships the same application on a smaller NoC."
        ),
        (Some(ibn), Some(_)) => println!(
            "Both analyses certify {ibn} at the 50% threshold here, but IBN\n\
             accepts more mappings on every platform — more placement freedom."
        ),
        (Some(ibn), None) => {
            println!("Only IBN certifies any platform in this range (first: {ibn}).")
        }
        _ => println!("No platform in this range reaches the 50% threshold."),
    }
    Ok(())
}
