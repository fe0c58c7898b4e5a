//! Where does a latency bound come from? Auditing the analyses term by
//! term with the explanation API.
//!
//! ```text
//! cargo run --release --example explain_bound
//! ```
//!
//! Prints, for the didactic MPB victim τ3, the full interference breakdown
//! under each analysis — the number of hits charged per interferer, the
//! per-hit charge, and how much of it is the multi-point progressive
//! blocking term the paper's Equations 6–8 tighten.

use noc_mpb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flows = DidacticFlows::ids();
    for buffer in [2u32, 10] {
        let system = didactic::system(buffer);
        println!("=== didactic system, buf(Ξ) = {buffer} ===\n");
        for analysis in AnalysisKind::ALL {
            let explanations = analysis.explain(&system)?;
            let ex = &explanations[flows.tau3.index()];
            println!("[{}] τ3 breakdown:", analysis.name());
            print!("{ex}");
            if let Some(r) = ex.verdict.response_time() {
                assert_eq!(ex.reconstructed_bound(), r);
                println!("  = C + Σ hits·charge = {r}\n");
            } else {
                println!();
            }
        }
    }

    println!(
        "Reading the IBN rows: the MPB part of τ2's charge is capped by the\n\
         buffered interference bi(3,2) = buf·linkl·|cd| per downstream hit —\n\
         6 cycles per hit at buf=2, 30 at buf=10 — while XLWX charges the\n\
         full C1 = 62 per hit regardless of how few flits fit in the buffers."
    );
    Ok(())
}
