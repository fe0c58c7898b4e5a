//! Reproduction of Table II's analytical columns (§V of the paper).
//!
//! | flow | R_SB | R_XLWX | R_IBN(b=10) | R_IBN(b=2) |
//! |------|------|--------|-------------|------------|
//! | τ1   | 62   | 62     | 62          | 62         |
//! | τ2   | 328  | 328    | 328         | 328        |
//! | τ3   | 336  | 460    | 396         | 348        |

use noc_analysis::prelude::*;
use noc_model::time::Cycles;
use noc_workload::didactic::{self, DidacticFlows};

fn response(analysis: AnalysisKind, buffer: u32) -> [u64; 3] {
    let system = didactic::system(buffer);
    let report = analysis.analyze(&system).expect("didactic system analyses");
    let f = DidacticFlows::ids();
    [
        report
            .response_time(f.tau1)
            .expect("τ1 schedulable")
            .as_u64(),
        report
            .response_time(f.tau2)
            .expect("τ2 schedulable")
            .as_u64(),
        report
            .response_time(f.tau3)
            .expect("τ3 schedulable")
            .as_u64(),
    ]
}

#[test]
fn table_ii_sb_column() {
    // SB ignores MPB: τ3 = 336 regardless of buffers.
    assert_eq!(response(ShiBurns, 10), [62, 328, 336]);
    assert_eq!(response(ShiBurns, 2), [62, 328, 336]);
}

#[test]
fn table_ii_xlwx_column() {
    // XLWX charges the downstream hit in full: τ3 = 460, buffer-independent.
    assert_eq!(response(Xlwx, 10), [62, 328, 460]);
    assert_eq!(response(Xlwx, 2), [62, 328, 460]);
}

#[test]
fn table_ii_ibn_b10_column() {
    // IBN with 10-flit buffers: bi(3,2) = 10·1·3 = 30 per hit → τ3 = 396.
    assert_eq!(response(BufferAware, 10), [62, 328, 396]);
}

#[test]
fn table_ii_ibn_b2_column() {
    // IBN with 2-flit buffers: bi(3,2) = 2·1·3 = 6 per hit → τ3 = 348.
    assert_eq!(response(BufferAware, 2), [62, 328, 348]);
}

#[test]
fn ibn_saturates_to_xlwx_for_huge_buffers() {
    // Once bi(3,2) ≥ C1 + Idown(1,2) = 62 the min() in Eq. 8 selects the
    // XLWX charge: buf ≥ ⌈62/3⌉ = 21 ⇒ R_IBN(τ3) = R_XLWX(τ3) = 460.
    assert_eq!(response(BufferAware, 21), [62, 328, 460]);
    assert_eq!(response(BufferAware, 100), [62, 328, 460]);
    // One flit less of buffering still helps: buf = 20 → bi = 60 < 62.
    assert_eq!(response(BufferAware, 20)[2], 460 - 2 * 2);
}

#[test]
fn ibn_monotone_in_buffer_depth_on_didactic() {
    let mut previous = 0;
    for buf in 1..=30 {
        let r3 = response(BufferAware, buf)[2];
        assert!(r3 >= previous, "buf={buf}: {r3} < {previous}");
        previous = r3;
    }
}

#[test]
fn xiong_original_equals_xlwx_here() {
    // No upstream indirect interference in this example, so Eq. 4's Iup
    // window term is zero and the original analysis coincides with XLWX.
    assert_eq!(response(XiongOriginal, 2), [62, 328, 460]);
}

#[test]
fn didactic_fully_schedulable_under_all_analyses() {
    for analysis in AnalysisKind::ALL {
        let report = analysis.analyze(&didactic::system(10)).unwrap();
        assert!(report.is_schedulable(), "{}", analysis.name());
    }
}

#[test]
fn deadlines_respected_with_margin() {
    // All three flows meet their deadlines even under the XLWX bound.
    let system = didactic::system(10);
    let report = Xlwx.analyze(&system).unwrap();
    for (id, v) in report.iter() {
        let d = system.flow(id).deadline();
        assert!(v.response_time().unwrap() <= d);
    }
    assert_eq!(
        report.response_time(DidacticFlows::ids().tau3),
        Some(Cycles::new(460))
    );
}
