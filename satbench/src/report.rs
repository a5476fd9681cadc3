//! Metric arithmetic over a finished [`Run`] and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::paper;
use crate::spans::{self, OP};
use crate::stats::{mean_over, median, tail_percentile};
use crate::workloads::{OpOutcome, TABLE3_IDS, TABLE3_N};
use crate::Run;

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` declares them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("melem_per_s", "Melem/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("host_cpu_ms", "ms"),
    ("modeled_ms", "sim_ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics that are not per Table III algorithm, `(name, unit)`.
const LAYERS: [(&str, &str); 43] = [
    ("matrix.upload_ms", "ms"),
    ("matrix.download_ms", "ms"),
    ("verify.ms", "ms"),
    ("metrics.host_ms", "ms"),
    ("launch.kernels_per_op", "count"),
    ("launch.kernel_host_ms", "ms"),
    ("launch.outside_kernel_ms", "ms"),
    ("batch.call_ms", "ms"),
    ("batch.launches_per_s", "1/s"),
    ("mem.reads_per_elem", "count/elem"),
    ("mem.writes_per_elem", "count/elem"),
    ("mem.shared_per_elem", "count/elem"),
    ("mem.shuffles_per_elem", "count/elem"),
    ("mem.bank_conflict_cycles", "count"),
    ("mem.strided_reads", "count"),
    ("sync.flag_waits", "count"),
    ("sync.polls_per_wait", "count"),
    ("sync.park_events", "count"),
    ("sync.wakeups", "count"),
    ("sync.token_handoffs", "count"),
    ("sync.atomic_ops", "count"),
    ("group.steal_events", "count"),
    ("group.lane_busy_max_ms", "ms"),
    ("group.lane_imbalance", "ratio"),
    ("group.call_wall_ms", "ms"),
    ("group.host_parallelism", "ratio"),
    ("coop.d2d_bytes", "bytes"),
    ("coop.d2d_transfers", "count"),
    ("coop.modeled_completion_ms", "sim_ms"),
    ("timing.launch_ms", "sim_ms"),
    ("timing.traffic_ms", "sim_ms"),
    ("timing.shared_ms", "sim_ms"),
    ("timing.critical_path_ms", "sim_ms"),
    ("timing.drain_ms", "sim_ms"),
    ("timing.d2d_ms", "sim_ms"),
    ("host.cpu_util", "ratio"),
    ("host.runqueue_ms", "ms"),
    ("host.ctx_switches_vol", "count"),
    ("host.ctx_switches_invol", "count"),
    ("host.threads", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Per-algorithm metric suffixes, `(suffix, unit)`.
const ALG_METRICS: [(&str, &str); 6] = [
    ("run_ms", "ms"),
    ("modeled_ms", "sim_ms"),
    ("reads_per_elem", "count/elem"),
    ("writes_per_elem", "count/elem"),
    ("host_vs_dup", "ratio"),
    ("paper_err_pct", "%"),
];

/// The paper's Table III time at 1024², W = 32, for a roster id (the
/// shuffle-only variant is not in the paper).
fn paper_ms(id: &str) -> Option<f64> {
    let row = match id {
        "dup" => &paper::DUPLICATION,
        "2r2w" => &paper::ALGORITHMS[0],
        "2r2w_opt" => &paper::ALGORITHMS[1],
        "2r1w" => &paper::ALGORITHMS[2],
        "1r1w" => &paper::ALGORITHMS[3],
        "hybrid" => &paper::ALGORITHMS[4],
        "skss" => &paper::ALGORITHMS[5],
        "skss_lb" => &paper::ALGORITHMS[6],
        _ => return None,
    };
    Some(row.times[0][paper::size_index(TABLE3_N)?])
}

/// Every per-layer metric, `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for id in TABLE3_IDS {
        for (suffix, unit) in ALG_METRICS {
            if suffix != "paper_err_pct" || paper_ms(id).is_some() {
                out.push((format!("alg.{id}.{suffix}"), unit));
            }
        }
    }
    out.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Mean over op kinds of the per-kind median of `f`: a per-op figure that
/// does not depend on how many ops of each kind a run happened to make.
fn per_kind(ops: &[&OpOutcome], kinds: usize, f: impl Fn(&OpOutcome) -> f64) -> f64 {
    let groups: Vec<Vec<f64>> = (0..kinds).map(|k| ops.iter().filter(|o| o.kind == k).map(|o| f(o)).collect()).collect();
    mean_over(&groups, |g| Some(median(g))).unwrap_or(0.0)
}

/// Timed op latencies, ms, one list per op kind.
fn latencies_by_kind(run: &Run) -> Vec<Vec<f64>> {
    (0..run.kinds.len())
        .map(|k| run.ops.iter().filter(|(o, _, _)| o.kind == k).map(|&(_, ms, _)| ms).collect())
        .collect()
}

fn end_to_end(run: &Run) -> BTreeMap<String, f64> {
    let ops: Vec<&OpOutcome> = run.ops.iter().map(|(o, _, _)| o).collect();
    let lat = latencies_by_kind(run);
    let verified: u64 = ops.iter().filter(|o| o.ok).map(|o| o.elems).sum();
    let mut m = BTreeMap::new();
    m.insert("melem_per_s".into(), verified as f64 / run.wall_s / 1e6);
    // Per kind, then averaged: on `table3_seq` the nine algorithms' typical
    // latencies differ, and a pooled percentile would jump between them.
    if let Some(p50) = mean_over(&lat, |l| (!l.is_empty()).then(|| median(l))) {
        m.insert("op_p50_ms".into(), p50);
    }
    if let Some(p90) = mean_over(&lat, |l| tail_percentile(l, 0.9)) {
        m.insert("op_p90_ms".into(), p90);
    }
    m.insert("host_cpu_ms".into(), (run.proc1.cpu_s - run.proc0.cpu_s) * 1e3 / ops.len() as f64);
    m.insert("modeled_ms".into(), median(&ops.iter().map(|o| o.modeled_ms).collect::<Vec<_>>()));
    m.insert("peak_rss_mb".into(), run.proc1.status.vm_hwm_kb as f64 / 1024.0);
    m.insert("setup_s".into(), median(&run.setup_s));
    m
}

fn layers(run: &Run) -> BTreeMap<String, f64> {
    let ops: Vec<&OpOutcome> = run.ops.iter().map(|(o, _, _)| o).collect();
    let n_ops = ops.len() as f64;
    let kinds = run.kinds.len();
    let mut m = BTreeMap::new();

    // Span self times, ms, per name, over the traced ops.
    let traced = run.ops.iter().filter(|&&(_, _, t)| t).count().max(1) as f64;
    let all = run.recorder.spans();
    let mut selfs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, t) in all.iter().zip(spans::self_times(all)) {
        selfs.entry(s.name).or_default().push(t as f64 / 1e6);
    }
    let per_op = |name: &str| selfs.get(name).map_or(0.0, |v| v.iter().sum::<f64>() / traced);
    let span_median = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));

    // satcore::alg, per Table III id (zero on workloads that do not run it).
    let dup_ms = span_median("alg.dup.run");
    let table3 = run.workload == "table3_seq";
    for (k, id) in TABLE3_IDS.iter().enumerate() {
        let of_kind: Vec<&OpOutcome> = ops.iter().copied().filter(|o| table3 && o.kind == k).collect();
        let elems = (TABLE3_N * TABLE3_N) as f64;
        let med = |f: &dyn Fn(&OpOutcome) -> f64| median(&of_kind.iter().map(|o| f(o)).collect::<Vec<_>>());
        let run_ms = span_median(&format!("alg.{id}.run"));
        let modeled = med(&|o| o.modeled_ms);
        m.insert(format!("alg.{id}.run_ms"), run_ms);
        m.insert(format!("alg.{id}.modeled_ms"), modeled);
        m.insert(format!("alg.{id}.reads_per_elem"), med(&|o| o.stats.global_reads as f64) / elems);
        m.insert(format!("alg.{id}.writes_per_elem"), med(&|o| o.stats.global_writes as f64) / elems);
        m.insert(format!("alg.{id}.host_vs_dup"), if dup_ms > 0.0 { run_ms / dup_ms } else { 0.0 });
        if let Some(p) = paper_ms(id) {
            let err = if table3 { (modeled - p).abs() / p * 100.0 } else { 0.0 };
            m.insert(format!("alg.{id}.paper_err_pct"), err);
        }
    }

    // satcore::matrix / reference and the benchmark's own counter checks.
    m.insert("matrix.upload_ms".into(), per_op("matrix.upload"));
    m.insert("matrix.download_ms".into(), per_op("matrix.download"));
    m.insert("verify.ms".into(), per_op("verify"));
    m.insert("metrics.host_ms".into(), per_op("metrics"));

    // gpu_sim::launch / executor / stream. Kernel host time is only in
    // results that carry per-kernel metrics (`table3_seq`); elsewhere it
    // and the outside-kernel remainder read 0.
    let kernels: f64 = ops.iter().map(|o| o.kernels as f64).sum();
    let call_s: f64 = ops.iter().map(|o| o.call_ms / 1e3).sum();
    m.insert("launch.kernels_per_op".into(), per_kind(&ops, kinds, |o| o.kernels as f64));
    m.insert("launch.kernel_host_ms".into(), per_kind(&ops, kinds, |o| o.kernel_host_ms.unwrap_or(0.0)));
    m.insert(
        "launch.outside_kernel_ms".into(),
        per_kind(&ops, kinds, |o| o.kernel_host_ms.map_or(0.0, |k| o.call_ms - k)),
    );
    m.insert("batch.call_ms".into(), per_op("batch.call"));
    m.insert("batch.launches_per_s".into(), if call_s > 0.0 { kernels / call_s } else { 0.0 });

    // gpu_sim data movement, through BlockStats.
    let elems = per_kind(&ops, kinds, |o| o.elems as f64);
    let stat = |f: fn(&OpOutcome) -> u64| per_kind(&ops, kinds, |o| f(o) as f64);
    m.insert("mem.reads_per_elem".into(), stat(|o| o.stats.global_reads) / elems);
    m.insert("mem.writes_per_elem".into(), stat(|o| o.stats.global_writes) / elems);
    m.insert("mem.shared_per_elem".into(), stat(|o| o.stats.shared_accesses) / elems);
    m.insert("mem.shuffles_per_elem".into(), stat(|o| o.stats.warp_shuffles) / elems);
    m.insert("mem.bank_conflict_cycles".into(), stat(|o| o.stats.bank_conflict_cycles));
    m.insert("mem.strided_reads".into(), stat(|o| o.stats.strided_reads));

    // gpu_sim::sync, per op.
    let waits = stat(|o| o.stats.flag_waits);
    m.insert("sync.flag_waits".into(), waits);
    let polls = stat(|o| o.stats.flag_poll_iterations);
    m.insert("sync.polls_per_wait".into(), if waits > 0.0 { polls / waits } else { 0.0 });
    m.insert("sync.park_events".into(), stat(|o| o.stats.park_events));
    m.insert("sync.wakeups".into(), stat(|o| o.stats.wakeups));
    m.insert("sync.token_handoffs".into(), stat(|o| o.stats.token_handoffs));
    m.insert("sync.atomic_ops".into(), stat(|o| o.stats.atomic_ops));

    // gpu_sim::group and satcore::coop.
    let groups: Vec<_> = ops.iter().filter_map(|o| o.group).collect();
    let gmed = |f: fn(&crate::workloads::GroupObs) -> f64| median(&groups.iter().map(f).collect::<Vec<_>>());
    m.insert("group.steal_events".into(), gmed(|g| g.steals as f64));
    m.insert("group.lane_busy_max_ms".into(), gmed(|g| g.busy_max_ms));
    m.insert("group.lane_imbalance".into(), gmed(|g| g.imbalance));
    m.insert("group.call_wall_ms".into(), per_op("group.call"));
    let (cpu, wall) = ops
        .iter()
        .filter_map(|o| Some((o.group?.cpu_s?, o.call_ms / 1e3)))
        .fold((0.0, 0.0), |(c, w), (dc, dw)| (c + dc, w + dw));
    m.insert("group.host_parallelism".into(), if wall > 0.0 { cpu / wall } else { 0.0 });
    // D2D traffic is zero outside the cooperative pipeline.
    m.insert("coop.d2d_bytes".into(), stat(|o| o.stats.d2d_bytes));
    m.insert("coop.d2d_transfers".into(), stat(|o| o.stats.d2d_transfers));
    let coop = run.workload == "coop_lookback";
    m.insert(
        "coop.modeled_completion_ms".into(),
        if coop { median(&ops.iter().map(|o| o.modeled_ms).collect::<Vec<_>>()) } else { 0.0 },
    );

    // gpu_sim::timing terms, summed per op.
    for (t, name) in ["launch", "traffic", "shared", "critical_path", "drain", "d2d"].iter().enumerate() {
        m.insert(format!("timing.{name}_ms"), per_kind(&ops, kinds, |o| o.terms_ms[t]));
    }

    // The host process.
    let (p0, p1) = (&run.proc0, &run.proc1);
    m.insert("host.cpu_util".into(), (p1.cpu_s - p0.cpu_s) / run.wall_s);
    m.insert("host.runqueue_ms".into(), p1.runqueue_ns.saturating_sub(p0.runqueue_ns) as f64 / 1e6 / n_ops);
    m.insert("host.ctx_switches_vol".into(), p1.ctx_vol.saturating_sub(p0.ctx_vol) as f64 / n_ops);
    m.insert("host.ctx_switches_invol".into(), p1.ctx_invol.saturating_sub(p0.ctx_invol) as f64 / n_ops);
    m.insert("host.threads".into(), p1.status.threads as f64);

    // The trace itself: what no span explains, and what spans cost.
    let op_total: f64 = all.iter().filter(|s| s.name == OP).map(|s| (s.end_ns - s.start_ns) as f64 / 1e6).sum();
    let unattributed = selfs.get(OP).map_or(0.0, |v| v.iter().sum::<f64>());
    m.insert("trace.unattributed_ms".into(), unattributed / traced);
    m.insert("trace.attributed_pct".into(), if op_total > 0.0 { 100.0 * (1.0 - unattributed / op_total) } else { 0.0 });
    let rate = |traced: bool| {
        let (e, ms) = run
            .ops
            .iter()
            .filter(|&&(ref o, _, t)| t == traced && o.ok)
            .fold((0.0, 0.0), |(e, ms), (o, dt, _)| (e + o.elems as f64, ms + dt));
        if ms > 0.0 {
            e / ms
        } else {
            0.0
        }
    };
    let (plain, spanned) = (rate(false), rate(true));
    m.insert("trace.overhead_pct".into(), if spanned > 0.0 { (plain / spanned - 1.0) * 100.0 } else { 0.0 });
    m
}

/// The result line: `correct`, `attempted`, `failed` and the requested
/// metric set, in declaration order. Also prints a readable summary to
/// standard error.
pub fn render(run: &Run, trace: bool) -> String {
    let outcomes = run.warmup.iter().chain(run.ops.iter().map(|(o, _, _)| o));
    let attempted = run.warmup.len() + run.ops.len();
    let failed = outcomes.filter(|o| !o.ok).count();
    let (values, declared): (_, Vec<(String, &str)>) = if trace {
        (layers(run), per_layer())
    } else {
        (end_to_end(run), END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect())
    };
    eprintln!(
        "satbench: {} — {} timed ops in {:.2} s (+{} warm-up), {} failed",
        run.workload,
        run.ops.len(),
        run.wall_s,
        run.warmup.len(),
        failed
    );
    for (id, lat) in run.kinds.iter().zip(latencies_by_kind(run)) {
        eprintln!("satbench:   {id:<28} {:>14.4} ms median over {} ops", median(&lat), lat.len());
    }
    let mut metrics = String::new();
    for (name, unit) in &declared {
        let Some(&v) = values.get(name) else {
            eprintln!("satbench:   {name}: not reported (too few samples)");
            continue;
        };
        // JSON has no NaN or infinity; `+ 0.0` turns an empty sum's -0 into 0.
        let v = if v.is_finite() { v + 0.0 } else { 0.0 };
        eprintln!("satbench:   {name:<28} {v:>14.4} {unit}");
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(u.len() <= 16, "{u}");
        }
        assert!(names.len() <= 128);
        // Eight roster ids have a paper row; skss_sh does not.
        assert_eq!(names.iter().filter(|(n, _)| n.ends_with("paper_err_pct")).count(), 8);
    }

    #[test]
    fn paper_values_at_1k_w32() {
        assert_eq!(paper_ms("skss_lb"), Some(0.0444));
        assert_eq!(paper_ms("dup"), Some(0.0165));
        assert_eq!(paper_ms("skss_sh"), None);
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to satbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..start + text[start..].find(']').expect("array end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let i = obj.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let v = &obj[i..];
                        let v = &v[v.find('"').unwrap() + 1..];
                        v[..v.find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(section("per_layer"), layers);
    }
}
