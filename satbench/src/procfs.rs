//! Std-only `/proc` probes of this process: CPU time, per-thread
//! scheduler statistics, context switches, thread count and peak RSS.
//! They let a noisy run explain itself — high run-queue time means the
//! benchmark's threads were runnable but a neighbour held the core.

use std::fs;
use std::io;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// Fields of `/proc/<pid>/status` the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size (`VmHWM`), kB.
    pub vm_hwm_kb: u64,
    /// Number of threads in the process (`Threads`).
    pub threads: u64,
    /// `voluntary_ctxt_switches`.
    pub ctx_vol: u64,
    /// `nonvoluntary_ctxt_switches`.
    pub ctx_invol: u64,
}

/// Parse the `key:  value [unit]` lines of a status file; absent keys
/// stay 0 (a per-thread status file has no `VmHWM`).
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else { continue };
        let value = rest.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
        match key {
            "VmHWM" => s.vm_hwm_kb = value,
            "Threads" => s.threads = value,
            "voluntary_ctxt_switches" => s.ctx_vol = value,
            "nonvoluntary_ctxt_switches" => s.ctx_invol = value,
            _ => {}
        }
    }
    s
}

/// Parse a `schedstat` file: `(on-CPU ns, run-queue wait ns)`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut f = text.split_whitespace().map(|v| v.parse::<u64>().ok());
    Some((f.next()??, f.next()??))
}

/// Parse `/proc/<pid>/stat`: user plus system CPU time, in ticks. The
/// command name in field 2 may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let after = &text[text.rfind(')')? + 1..];
    let mut f = after.split_whitespace().skip(11).map(|v| v.parse::<u64>().ok());
    // Fields 14 (utime) and 15 (stime); `after` starts at field 3.
    Some(f.next()?? + f.next()??)
}

/// Process CPU time (utime + stime, all threads, live or exited), seconds.
pub fn cpu_seconds() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_stat_cpu_ticks(&text).ok_or_else(|| bad("/proc/self/stat"))?;
    Ok(ticks as f64 / USER_HZ)
}

/// One reading of every probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Run-queue wait summed over the live threads, ns.
    pub runqueue_ns: u64,
    /// Context switches summed over the live threads.
    pub ctx_vol: u64,
    /// Involuntary context switches summed over the live threads.
    pub ctx_invol: u64,
    /// Process-wide `Threads` and `VmHWM`.
    pub status: Status,
}

/// Read every probe. Per-thread figures come from
/// `/proc/thread-self`-style files under `/proc/self/task/*`, summed, so
/// the worker threads' waits count as well as the main thread's.
pub fn sample() -> io::Result<Sample> {
    let mut out = Sample {
        cpu_s: cpu_seconds()?,
        status: parse_status(&fs::read_to_string("/proc/self/status")?),
        ..Sample::default()
    };
    for task in fs::read_dir("/proc/self/task")? {
        let dir = task?.path();
        // A thread may exit between listing and reading; skip it.
        let (Ok(sched), Ok(status)) =
            (fs::read_to_string(dir.join("schedstat")), fs::read_to_string(dir.join("status")))
        else {
            continue;
        };
        let (_, wait) = parse_schedstat(&sched).ok_or_else(|| bad("schedstat"))?;
        let st = parse_status(&status);
        out.runqueue_ns += wait;
        out.ctx_vol += st.ctx_vol;
        out.ctx_invol += st.ctx_invol;
    }
    Ok(out)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparseable {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields() {
        let text = "Name:\tsatbench\nVmPeak:\t  100 kB\nVmHWM:\t   53124 kB\nThreads:\t3\n\
                    voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";
        let s = parse_status(text);
        assert_eq!(s, Status { vm_hwm_kb: 53124, threads: 3, ctx_vol: 17, ctx_invol: 4 });
        // A thread's status has no VmHWM line.
        assert_eq!(parse_status("Threads:\t1\n").vm_hwm_kb, 0);
    }

    #[test]
    fn schedstat_fields() {
        assert_eq!(parse_schedstat("123456 7890 12\n"), Some((123456, 7890)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn stat_cpu_ticks_skip_awkward_comm() {
        // utime = 40, stime = 2; the command name holds spaces and ')'.
        let text = "4242 (sat bench) x) R 1 4242 4242 0 -1 4194304 300 0 0 0 40 2 0 0 20 0 3 0 \
                    100 1000000 500";
        assert_eq!(parse_stat_cpu_ticks(text), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (short) R 1"), None);
    }

    #[test]
    fn live_probes_read() {
        let s = sample().expect("probes readable on Linux");
        assert!(s.status.threads >= 1);
        assert!(s.status.vm_hwm_kb > 0);
        assert!(s.cpu_s >= 0.0);
    }
}
