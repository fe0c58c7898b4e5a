//! The benchmark of the noc-mpb workspace.
//!
//! ```text
//! perfbench --workload <admission|buffer_whatif|certify|simulate>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Generates the workload's inputs from the seed, sets up (timed, several
//! times), then runs a closed loop of operations for the given seconds and
//! checks every output. With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it also replays every operation through the layers'
//! public functions with spans around each call and prints the per-layer
//! metrics. The last line of standard output is the result record; the
//! line before it identifies the inputs and the host. Exits non-zero when
//! any check fails. See `README.md` for the workloads and metrics.

mod certify;
mod cpus;
mod driver;
mod identity;
mod report;
mod rng;
mod serve;
mod simulate;
mod stats;
mod systems;
mod trace;

use std::process::ExitCode;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xC0DE;
/// Seed kept out of tuning; every check must pass on it as well.
pub const HELD_OUT_SEED: u64 = 7;
/// An untraced run keeps going past `--seconds` until it has this many
/// operations, so that ten samples lie beyond the p90.
pub const MIN_OPS: usize = 100;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The outcome of one run.
pub struct Run {
    pub identity: identity::Identity,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<report::Metric>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Only the traced replay records telemetry, whatever the environment.
    noc_telemetry::set_enabled(false);
    let run = match args.workload.as_str() {
        "admission" => serve::run(serve::Mode::Admission, &args),
        "buffer_whatif" => serve::run(serve::Mode::BufferWhatIf, &args),
        "certify" => certify::run(&args),
        "simulate" => simulate::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for v in &run.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let correct = run.violations.is_empty();
    // A failed global check fails the run even when no operation did.
    let failed = if correct {
        run.failed
    } else {
        run.failed.max(1)
    };
    println!("{}", run.identity.to_json());
    println!(
        "{}",
        report::result_line(correct, run.attempted, failed, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
