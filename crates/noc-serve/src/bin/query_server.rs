//! Batch admission-query server over a fixed base system.
//!
//! Builds one of the named fixtures, synthesises a deterministic mix of
//! admission / removal / buffer what-if queries against it, serves them
//! through `noc_serve::run_batch_with`, and prints a single-line JSON
//! throughput record to stdout (also written to the path in
//! `NOC_SERVE_OUT`, if set). Any startup or serving error prints a
//! single-line JSON error record (`noc-serve/error/v1`) to stdout and
//! exits nonzero — the process never dies on an unwrap.
//!
//! With `NOC_TELEMETRY=1` the record additionally carries a `metrics`
//! block (solver iterations, dirty-bit hit rates, per-query latency
//! percentiles), and a full dump — including histogram buckets, per-shard
//! utilization and the structured event log — is written to
//! `SERVE_metrics.json` (path override: `NOC_SERVE_METRICS`).
//!
//! The serving policy comes from the environment (see
//! [`ServeOptions::try_from_env`] — a set-but-malformed variable is an
//! error record, not a silently-applied default): `NOC_SERVE_DEADLINE_MS`
//! (per-query solve
//! budget, degraded conservative answers past it), `NOC_SERVE_MAX_PENDING`
//! (load shedding), and `NOC_FAULT_SEED` / `NOC_FAULT_RATE` (deterministic
//! chaos injection — the CI smoke run drives this).
//!
//! Usage: `query_server [fixture] [n_queries] [threads]`
//!
//! * `fixture` — `didactic` (default), `8x8`, or `16x16`
//! * `n_queries` — number of queries in the batch (default 64)
//! * `threads` — worker threads, at least 1 (default: available
//!   parallelism, ≤ 16)

use std::env;
use std::error::Error;

use noc_analysis::prelude::*;
use noc_model::prelude::*;
use noc_serve::{run_batch_with, sample_queries, QueryBatch, ServeOptions};
use noc_workload::didactic;
use noc_workload::synthetic::SyntheticSpec;

fn build_fixture(name: &str) -> Result<(System, Box<dyn RoutingAlgorithm + Sync>), Box<dyn Error>> {
    match name {
        "didactic" => {
            let (system, table) = didactic::system_with_routing(2);
            // The paper fixture pins vc(Ξ) = 3, which would veto any fourth
            // priority level; admission what-ifs need auto-sized VCs.
            let system = system.with_virtual_channels(None)?;
            Ok((system, Box::new(table)))
        }
        "8x8" => {
            let system = SyntheticSpec::paper(8, 8, 520, 2).generate(1).into_system();
            Ok((system, Box::new(XyRouting)))
        }
        "16x16" => {
            let system = SyntheticSpec::paper(16, 16, 1000, 2)
                .generate(1)
                .into_system();
            Ok((system, Box::new(XyRouting)))
        }
        other => Err(format!("unknown fixture {other:?} (didactic, 8x8, 16x16)").into()),
    }
}

/// Keeps injected-fault panics (which the serving layer catches and
/// retries) from spraying the default hook's backtrace noise over the
/// JSON output stream. Real panics still print.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected fault:"));
        if !injected {
            default(info);
        }
    }));
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = env::args().skip(1).collect();
    let fixture = args.first().map(String::as_str).unwrap_or("didactic");
    let n_queries: usize = match args.get(1) {
        Some(s) => s.parse()?,
        None => 64,
    };
    let threads: usize = match args.get(2) {
        Some(s) => s.parse()?,
        None => std::thread::available_parallelism().map_or(4, |n| n.get().min(16)),
    };
    if threads == 0 {
        return Err("threads must be at least 1".into());
    }
    let options = ServeOptions::try_from_env()?;
    if options.faults.is_some() {
        quiet_injected_panics();
    }

    let (system, routing) = build_fixture(fixture)?;
    let base = AnalysisContext::new(&system)?;
    let batch = QueryBatch {
        analysis: AnalysisKind::BufferAware,
        queries: sample_queries(&system, n_queries),
    };
    let report = run_batch_with(&base, &batch, routing.as_ref(), threads, &options);
    let tally = report.tally();
    let commit = noc_telemetry::git_commit();

    let mut json = format!(
        concat!(
            "{{\"schema\": \"noc-serve/throughput/v1\", \"commit\": \"{}\", ",
            "\"fixture\": \"{}\", ",
            "\"flows\": {}, \"queries\": {}, \"threads\": {}, \"analysis\": \"{}\", ",
            "\"wall_ns\": {}, \"queries_per_second\": {:.1}, ",
            "\"accepted\": {}, \"rejected\": {}, \"infeasible\": {}, ",
            "\"degraded\": {}, \"shed\": {}, \"failed\": {}"
        ),
        commit,
        fixture,
        system.flows().len(),
        report.outcomes.len(),
        report.threads,
        batch.analysis.name(),
        report.wall_ns,
        report.queries_per_second(),
        tally.accepted,
        tally.rejected,
        tally.infeasible,
        tally.degraded,
        tally.shed,
        tally.failed,
    );
    if let Some(plan) = &options.faults {
        json.push_str(&format!(", \"fault_seed\": {}", plan.seed()));
    }
    if noc_telemetry::enabled() {
        let snap = noc_telemetry::snapshot();
        json.push_str(&format!(", \"metrics\": {}", snap.to_inline_json()));
        write_metrics_dump(&snap, fixture, &commit, &system, &report)?;
    }
    json.push('}');
    println!("{json}");
    if let Ok(path) = env::var("NOC_SERVE_OUT") {
        std::fs::write(path, json + "\n")?;
    }
    Ok(())
}

/// Writes the full telemetry dump — metrics with histogram buckets,
/// per-shard utilization, and the drained structured event log — to
/// `SERVE_metrics.json` (or the path in `NOC_SERVE_METRICS`).
fn write_metrics_dump(
    snap: &noc_telemetry::Snapshot,
    fixture: &str,
    commit: &str,
    system: &System,
    report: &noc_serve::BatchReport,
) -> Result<(), Box<dyn Error>> {
    let path = env::var("NOC_SERVE_METRICS").unwrap_or_else(|_| "SERVE_metrics.json".to_string());
    let utilization: Vec<String> = report
        .shard_utilization()
        .iter()
        .map(|u| format!("{u:.3}"))
        .collect();
    let events = noc_telemetry::events::drain();
    let events_block = if events.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n    {}\n  ]", events.join(",\n    "))
    };
    let dump = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"noc-serve/metrics/v1\",\n",
            "  \"commit\": \"{}\",\n",
            "  \"fixture\": \"{}\",\n",
            "  \"flows\": {},\n",
            "  \"queries\": {},\n",
            "  \"threads\": {},\n",
            "  \"wall_ns\": {},\n",
            "  \"shard_utilization\": [{}],\n",
            "  \"metrics\": {},\n",
            "  \"events\": {}\n",
            "}}\n"
        ),
        commit,
        fixture,
        system.flows().len(),
        report.outcomes.len(),
        report.threads,
        report.wall_ns,
        utilization.join(", "),
        snap.to_json_pretty(2),
        events_block,
    );
    std::fs::write(path, dump)?;
    Ok(())
}

/// One-line JSON error record, so downstream tooling parsing stdout never
/// sees a half-written throughput record or a bare panic trace.
fn emit_error_record(e: &dyn Error) {
    let detail: String = e
        .to_string()
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    println!("{{\"schema\": \"noc-serve/error/v1\", \"error\": \"{detail}\"}}");
}

fn main() {
    if let Err(e) = run() {
        emit_error_record(e.as_ref());
        eprintln!("query_server: {e}");
        std::process::exit(1);
    }
}
