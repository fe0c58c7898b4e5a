//! What every workload shares: the repeated, timed set-up, the closed loop
//! with its optional traced replay, and the assembly of a run's result.

use std::time::{Duration, Instant};

use crate::identity::Identity;
use crate::report::{self, Counters, Timed, Traced};
use crate::trace::{Profile, Tracer};
use crate::{stats, Args, Run, MIN_OPS};

/// Times the set-up is repeated in a run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Runs `setup` [`SETUPS`] times (passing the repetition's index) and
/// returns the median time in seconds with the last repetition's inputs.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for rep in 0..SETUPS {
        let started = Instant::now();
        kept = Some(setup(rep)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((
        stats::median(&times),
        kept.expect("set-up runs at least once"),
    ))
}

/// One untraced operation: its latency, the violations its checks found,
/// and the result the traced replay must reproduce.
pub struct Done<R> {
    pub ns: u64,
    pub violations: Vec<String>,
    pub result: R,
}

/// What the closed loop measured.
pub struct Measured {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    timed: Timed,
    traced: Traced,
}

/// The closed loop: operation `i` runs only after operation `i − 1` has
/// completed, for `args.seconds` (and, untraced, for at least [`MIN_OPS`]
/// operations). With a tracer, each operation is followed by `replay`,
/// which repeats it with spans and telemetry on and returns any mismatch
/// with the untraced result.
pub fn closed_loop<R>(
    args: &Args,
    mut tracer: Option<&mut Tracer>,
    mut op: impl FnMut(usize) -> Done<R>,
    mut replay: impl FnMut(usize, R, &mut Tracer, &mut Traced) -> Vec<String>,
) -> Measured {
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        timed: Timed::default(),
        traced: Traced::default(),
    };
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while started.elapsed() < deadline || (tracer.is_none() && m.timed.op_ms.len() < MIN_OPS) {
        let i = m.attempted as usize;
        let Done {
            ns,
            mut violations,
            result,
        } = op(i);
        match tracer.as_deref_mut() {
            Some(t) => {
                noc_telemetry::set_enabled(true);
                let before = Counters::read();
                let replay_started = Instant::now();
                violations.extend(replay(i, result, t, &mut m.traced));
                m.traced.traced_ns += replay_started.elapsed().as_nanos() as u64;
                m.traced.counters.accumulate(before, Counters::read());
                noc_telemetry::set_enabled(false);
                m.traced.untraced_ns += ns;
            }
            None => m.timed.op_ms.push(ns as f64 / 1e6),
        }
        m.attempted += 1;
        if !violations.is_empty() {
            m.failed += 1;
            m.violations.extend(violations);
        }
    }
    m.timed.wall_s = started.elapsed().as_secs_f64();
    m.traced.ops = m.attempted;
    m
}

impl Measured {
    /// The run's result: end-to-end metrics from the timed loop, or
    /// per-layer metrics from the replay when there is a tracer.
    pub fn into_run(
        mut self,
        identity: Identity,
        setup_s: f64,
        tracer: Option<Tracer>,
        mut violations: Vec<String>,
    ) -> Result<Run, String> {
        violations.append(&mut self.violations);
        let metrics = match tracer {
            Some(t) => {
                self.traced.profile = Profile::of(t.spans());
                report::per_layer(&self.traced)
            }
            None => report::end_to_end(setup_s, &self.timed)?,
        };
        Ok(Run {
            identity,
            attempted: self.attempted,
            failed: self.failed,
            violations,
            metrics,
        })
    }
}
