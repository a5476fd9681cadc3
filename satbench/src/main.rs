//! Closed-loop benchmark of the SAT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path satbench/Cargo.toml -- \
//!     --workload table3_seq --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One client runs ops back to back: the next op starts only after the
//! previous one's output has been checked against its reference SAT. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; with `--trace 0` the metrics are
//! the end-to-end ones, with `--trace 1` the per-layer ones (from a run
//! whose ops alternate, in slices, between spans on and spans off). A
//! human-readable summary goes to standard error. See `satbench/README.md`.

mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

// The paper's Table III values, shared with the CLI's reports.
#[allow(dead_code)]
#[path = "../../crates/sat-cli/src/paper.rs"]
mod paper;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Recorder;
use workloads::{OpOutcome, Workload};

const USAGE: &str = "usage: satbench --workload <table3_seq|stream_small|coop_lookback> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Set-ups per run: at least `MIN_SETUPS`, and more (up to `MAX_SETUPS`)
/// while they have taken less than `SETUP_BUDGET` in all, so that cheap
/// set-ups get enough samples for a steady median. `setup_s` is the
/// median.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Minimum timed ops of each kind per run, so every kind's p90 in
/// `op_p90_ms` has ten samples beyond it.
const MIN_OPS_PER_KIND: usize = 100;
/// Hard stop for the timed loop, well inside a run's time limit.
const MAX_WINDOW: Duration = Duration::from_secs(120);
/// Timed ops, and spans of a `--trace 1` run, that the result lists hold
/// without growing. They are reserved before the timed window, so the
/// benchmark itself allocates nothing on the heap there. A list growing
/// on the heap moves the free space the program's per-op 4 MiB buffers
/// are carved from, and can flip a `table3_seq` run, at a point that
/// differs from run to run, from reusing freed pages to faulting in
/// about a thousand fresh pages per op, about 30 % slower.
const OPS_CAPACITY: usize = 1 << 18;
const SPANS_CAPACITY: usize = 1 << 20;
/// Length of one traced or untraced slice of a `--trace 1` run.
const SLICE: Duration = Duration::from_millis(500);

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(bad(&"must be in (0, 60]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Everything one run observed, handed to [`report`].
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Op kind ids of the workload.
    pub kinds: &'static [&'static str],
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Ops verified during set-up (warm-up, one per kind per set-up).
    pub warmup: Vec<OpOutcome>,
    /// Timed ops, in order, with their wall ms and whether they were traced.
    pub ops: Vec<(OpOutcome, f64, bool)>,
    /// Wall seconds of the timed window.
    pub wall_s: f64,
    /// Probes at the start of the timed window.
    pub proc0: procfs::Sample,
    /// Probes at the end of the timed window.
    pub proc1: procfs::Sample,
    /// Spans of the traced ops.
    pub recorder: Recorder,
}

fn run(args: &Args) -> Result<Run, String> {
    let io = |e: std::io::Error| format!("reading /proc: {e}");
    let mut setup_s = Vec::new();
    let mut warmup = Vec::new();
    let mut wl: Option<Box<dyn Workload>> = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS || (started.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS) {
        drop(wl.take());
        let t = Instant::now();
        let mut w = workloads::build(&args.workload, args.seed)?;
        // Warm-up: one op of every kind starts worker pools, faults in
        // buffers and fixes each kind's reference counters.
        let mut off = Recorder::new(false);
        for k in 0..w.kinds().len() as u64 {
            warmup.push(w.op(k, &mut off));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        wl = Some(w);
    }
    let mut w = wl.expect("at least one set-up");
    let kinds = w.kinds();

    let window = Duration::from_secs_f64(args.seconds);
    let mut recorder = Recorder::new(false);
    if args.trace {
        recorder.reserve(SPANS_CAPACITY);
    }
    let mut ops = Vec::with_capacity(OPS_CAPACITY);
    let mut i = kinds.len() as u64;
    let proc0 = procfs::sample().map_err(io)?;
    let t0 = Instant::now();
    let min_ops = MIN_OPS_PER_KIND * kinds.len();
    while (t0.elapsed() < window || ops.len() < min_ops) && t0.elapsed() < MAX_WINDOW {
        // Traced runs alternate slices with spans on and off; the
        // untraced slices are the baseline of `trace.overhead_pct`.
        let traced = args.trace && (t0.elapsed().as_nanos() / SLICE.as_nanos()) % 2 == 1;
        recorder.set_enabled(traced);
        let t = Instant::now();
        let out = w.op(i, &mut recorder);
        ops.push((out, t.elapsed().as_secs_f64() * 1e3, traced));
        i += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let proc1 = procfs::sample().map_err(io)?;
    Ok(Run { workload: args.workload.clone(), kinds, setup_s, warmup, ops, wall_s, proc0, proc1, recorder })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("satbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("satbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match run.recorder.write_chrome_trace(&path) {
            Ok(()) => eprintln!("satbench: spans written to {}", path.display()),
            Err(e) => eprintln!("satbench: could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report::render(&run, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse("--workload table3_seq --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a, Args { workload: "table3_seq".into(), seed: 7, seconds: 10.0, trace: true });
        assert!(parse("--workload x --seed 7 --seconds 10").is_err());
        assert!(parse("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 0 --bogus 1").is_err());
    }
}
