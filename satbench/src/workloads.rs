//! The three closed-loop workloads. Each op goes from host input to an
//! output checked against a reference SAT computed in set-up; every call
//! into the program runs inside a span named after the layer it enters.

use std::sync::OnceLock;
use std::time::Instant;

use gpu_sim::prelude::*;
use gpu_sim::timing::KernelTime;
use satcore::prelude::*;

use crate::procfs;
use crate::spans::Recorder;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["table3_seq", "stream_small", "coop_lookback"];

/// Tile width of every workload: the paper's W = 32 with 1024-thread blocks.
const W: usize = 32;

/// Input values are drawn from `0..VALUE_LIMIT`, small enough that the SAT
/// of the largest (4096²) image fits in `u32` without wrapping.
const VALUE_LIMIT: u64 = 64;

/// Counters of one group call (`coop_lookback` only).
#[derive(Debug, Clone, Copy)]
pub struct GroupObs {
    /// Jobs that migrated off their seeded shard.
    pub steals: u64,
    /// Busiest lane's host busy time, ms.
    pub busy_max_ms: f64,
    /// Busiest over mean lane busy time.
    pub imbalance: f64,
    /// Process CPU seconds spent inside the call (traced ops only).
    pub cpu_s: Option<f64>,
}

/// What one op produced, for the reports.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Output matched its reference and the counters matched the kind's
    /// first op.
    pub ok: bool,
    /// Output elements the op produced.
    pub elems: u64,
    /// Op kind (the algorithm on `table3_seq`, 0 elsewhere).
    pub kind: usize,
    /// Simulated TITAN V ms of the op.
    pub modeled_ms: f64,
    /// Wall ms of the one program call that computes the SAT(s).
    pub call_ms: f64,
    /// Kernel launches the call made.
    pub kernels: u64,
    /// Sum of `KernelMetrics::host_seconds`, ms, where the result carries
    /// per-kernel metrics.
    pub kernel_host_ms: Option<f64>,
    /// Aggregate counters of every launch of the op.
    pub stats: BlockStats,
    /// Modeled time terms `[launch, traffic, shared, critical_path, drain,
    /// d2d]`, ms, summed over the op's kernels.
    pub terms_ms: [f64; 6],
    /// Group scheduler observations, on `coop_lookback`.
    pub group: Option<GroupObs>,
}

/// A set-up workload, ready to run ops.
pub trait Workload {
    /// Span and metric ids of the op kinds, in kind order.
    fn kinds(&self) -> &'static [&'static str];
    /// Run op number `i` (op `i` has kind `i % kinds().len()`).
    fn op(&mut self, i: u64, rec: &mut Recorder) -> OpOutcome;
}

/// Generate inputs from `seed` and set up `name`, or say why not.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table3_seq" => Box::new(Table3Seq::new(seed)),
        "stream_small" => Box::new(StreamSmall::new(seed)),
        "coop_lookback" => Box::new(CoopLookback::new(seed)),
        other => return Err(format!("unknown workload {other:?} (known: {})", NAMES.join(", "))),
    })
}

/// SplitMix64 stream `stream` of `seed`: an `n x n` matrix in
/// `0..VALUE_LIMIT`. The program only ever sees the finished matrix.
fn input(n: usize, seed: u64, stream: u64) -> Matrix<u32> {
    let mut s = seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
    let data = (0..n * n)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % VALUE_LIMIT) as u32
        })
        .collect();
    Matrix::from_vec(n, n, data)
}

/// TITAN V timing with an explicit host worker budget.
fn titan_v(host_workers: usize) -> DeviceConfig {
    DeviceConfig { host_workers, ..DeviceConfig::titan_v() }
}

fn terms_ms(t: &KernelTime) -> [f64; 6] {
    [t.launch, t.traffic, t.shared, t.critical_path, t.drain, t.d2d].map(|s| s * 1e3)
}

fn run_terms_ms(cfg: &DeviceConfig, run: &RunMetrics) -> [f64; 6] {
    let mut sum = [0.0; 6];
    for k in &run.kernels {
        for (acc, t) in sum.iter_mut().zip(terms_ms(&kernel_time(cfg, k))) {
            *acc += t;
        }
    }
    sum
}

/// Run an op's one program call inside `span`: its result, its wall ms
/// and, on traced ops, the process CPU seconds it took.
fn timed_call<R>(rec: &mut Recorder, span: &'static str, f: impl FnOnce() -> R) -> (R, f64, Option<f64>) {
    let cpu0 = rec.enabled().then(procfs::cpu_seconds);
    let t = Instant::now();
    let r = rec.span(span, f);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (r, ms, cpu0.and_then(|c0| Some(procfs::cpu_seconds().ok()? - c0.ok()?)))
}

/// Check `got` against the kind's reference counters, adopting it as the
/// reference if this is the kind's first op.
fn counters_match(reference: &mut Option<BlockStats>, got: BlockStats) -> bool {
    reference.get_or_insert_with(|| got.clone()) == &got
}

/// Counters and modeled time of `images` serial 2R1W runs of `image`,
/// the schedule-free totals a batch of that many same-size images must
/// charge: `(deterministic counters, modeled ms, modeled terms)`.
fn serial_equivalent(cfg: &DeviceConfig, image: &Matrix<u32>, images: usize) -> (BlockStats, f64, [f64; 6]) {
    let gpu = Gpu::new(cfg.clone());
    let (_, run) = compute_sat(&gpu, &TwoROneW::new(SatParams::paper(W)), image);
    let one = run.total_stats().deterministic();
    let mut all = BlockStats::default();
    for _ in 0..images {
        all.merge(&one);
    }
    let k = images as f64;
    (all, run_millis(cfg, &run) * k, run_terms_ms(cfg, &run).map(|t| t * k))
}

// ---------------------------------------------------------------------------
// table3_seq

/// Ids of the Table III roster, in paper order, duplication last.
pub const TABLE3_IDS: [&str; 9] = ["2r2w", "2r2w_opt", "2r1w", "1r1w", "hybrid", "skss", "skss_lb", "skss_sh", "dup"];

const TABLE3_RUN_SPANS: [&str; 9] = [
    "alg.2r2w.run",
    "alg.2r2w_opt.run",
    "alg.2r1w.run",
    "alg.1r1w.run",
    "alg.hybrid.run",
    "alg.skss.run",
    "alg.skss_lb.run",
    "alg.skss_sh.run",
    "alg.dup.run",
];

/// Side of the `table3_seq` images (the paper's 1K² column).
pub const TABLE3_N: usize = 1024;
const TABLE3_POOL: usize = 4;

/// The paper's Table III roster at 1024² on a sequential device with one
/// host thread: `compute_sat`'s upload → run → download, then compare.
struct Table3Seq {
    gpu: Gpu,
    /// The eight SAT algorithms in `TABLE3_IDS` order (duplication apart).
    algs: Vec<Box<dyn SatAlgorithm<u32>>>,
    dup: Duplicate,
    /// `(input, reference SAT)` pairs.
    pool: Vec<(Matrix<u32>, Matrix<u32>)>,
    first: Vec<Option<BlockStats>>,
}

impl Table3Seq {
    fn new(seed: u64) -> Self {
        let pool = (0..TABLE3_POOL as u64)
            .map(|k| {
                let a = input(TABLE3_N, seed, k);
                let sat = satcore::reference::sat(&a);
                (a, sat)
            })
            .collect();
        Table3Seq {
            gpu: Gpu::new(titan_v(1)).with_mode(ExecMode::Sequential),
            algs: all_algorithms(SatParams::paper(W)),
            dup: Duplicate::new(),
            pool,
            first: vec![None; TABLE3_IDS.len()],
        }
    }
}

impl Workload for Table3Seq {
    fn kinds(&self) -> &'static [&'static str] {
        &TABLE3_IDS
    }

    fn op(&mut self, i: u64, rec: &mut Recorder) -> OpOutcome {
        let kind = (i % TABLE3_IDS.len() as u64) as usize;
        // The pool size is coprime to the roster size, so every algorithm
        // meets every input.
        let (a, sat) = &self.pool[(i % TABLE3_POOL as u64) as usize];
        let n = TABLE3_N;
        let (gpu, alg, dup) = (&self.gpu, self.algs.get(kind), &self.dup);
        let first = &mut self.first[kind];
        rec.op(i, |rec| {
            let (input, output) = rec.span("matrix.upload", || (a.to_device(), GlobalBuffer::zeroed(n * n)));
            let (run, call_ms, _) = timed_call(rec, TABLE3_RUN_SPANS[kind], || match alg {
                Some(alg) => alg.run(gpu, &input, &output, n),
                None => dup.copy(gpu, &input, &output),
            });
            let got = rec.span("matrix.download", || Matrix::from_device(&output, n, n));
            // Duplication copies its input; every other kernel computes its SAT.
            let want = if alg.is_some() { sat } else { a };
            let out_ok = rec.span("verify", || got == *want);
            rec.span("metrics", || {
                let stats = run.total_stats();
                let lookback = matches!(TABLE3_IDS[kind], "skss_lb" | "skss_sh");
                let det = if lookback { stats.deterministic_lookback() } else { stats.deterministic() };
                OpOutcome {
                    ok: out_ok & counters_match(first, det),
                    elems: (n * n) as u64,
                    kind,
                    modeled_ms: run_millis(gpu.config(), &run),
                    call_ms,
                    kernels: run.kernel_calls() as u64,
                    kernel_host_ms: Some(run.host_seconds() * 1e3),
                    terms_ms: run_terms_ms(gpu.config(), &run),
                    stats,
                    group: None,
                }
            })
        })
    }
}

// ---------------------------------------------------------------------------
// stream_small

const STREAM_IMAGES: usize = 256;
const STREAM_N: usize = 64;
const STREAM_LANES: usize = 2;

/// 256 device-resident images of 64² per op through `sat_batch_streamed`
/// on two streams, with one host worker. With two, the worker pool and the
/// submitting thread are three runnable threads on a two-core host: each
/// op then waited about 2 ms of its 5 ms in the run queue and made about
/// 75 context switches, so the scheduler set its time.
struct StreamSmall {
    gpu: &'static Gpu,
    images: Vec<BatchImage<u32>>,
    sats: Vec<Matrix<u32>>,
    /// Counters every op must charge: a serial 2R1W run per image.
    first: Option<BlockStats>,
    /// Serial-equivalent modeled time and terms of one op, ms.
    modeled_ms: f64,
    terms_ms: [f64; 6],
}

/// The `stream_small` device, shared by every set-up and never dropped.
/// A finished stream job can stay in the worker queue, holding the last
/// reference to the device's engine. A worker that later purges the queue
/// then drops the engine on its own thread, and the pool's join of itself
/// panics ("Resource deadlock avoided"). Keeping the device alive until
/// exit keeps that out of runs.
fn stream_device() -> &'static Gpu {
    static DEVICE: OnceLock<Gpu> = OnceLock::new();
    DEVICE.get_or_init(|| Gpu::new(titan_v(1)).with_mode(ExecMode::Concurrent))
}

impl StreamSmall {
    fn new(seed: u64) -> Self {
        let inputs: Vec<Matrix<u32>> = (0..STREAM_IMAGES as u64).map(|k| input(STREAM_N, seed, k)).collect();
        let (det, modeled_ms, terms_ms) = serial_equivalent(&DeviceConfig::titan_v(), &inputs[0], STREAM_IMAGES);
        StreamSmall {
            gpu: stream_device(),
            images: inputs.iter().map(|a| BatchImage::from_host(a.as_slice(), STREAM_N)).collect(),
            sats: inputs.iter().map(satcore::reference::sat).collect(),
            first: Some(det),
            modeled_ms,
            terms_ms,
        }
    }
}

impl Workload for StreamSmall {
    fn kinds(&self) -> &'static [&'static str] {
        &["2r1w_streamed"]
    }

    fn op(&mut self, i: u64, rec: &mut Recorder) -> OpOutcome {
        let (gpu, images, sats, first) = (self.gpu, &self.images, &self.sats, &mut self.first);
        rec.op(i, |rec| {
            // Reset the outputs, so a run that skips an image cannot pass
            // on a stale SAT.
            rec.span("matrix.upload", || images.iter().for_each(|img| img.output.host_fill(0)));
            let (report, call_ms, _) =
                timed_call(rec, "batch.call", || sat_batch_streamed(gpu, SatParams::paper(W), images, STREAM_LANES));
            let got: Vec<Vec<u32>> =
                rec.span("matrix.download", || images.iter().map(|img| img.output.to_vec()).collect());
            let out_ok = rec.span("verify", || got.iter().zip(sats).all(|(g, s)| g == s.as_slice()));
            rec.span("metrics", || OpOutcome {
                ok: out_ok & (report.images == images.len()) & counters_match(first, report.deterministic()),
                elems: (STREAM_IMAGES * STREAM_N * STREAM_N) as u64,
                kind: 0,
                modeled_ms: self.modeled_ms,
                call_ms,
                kernels: report.kernels as u64,
                kernel_host_ms: None,
                terms_ms: self.terms_ms,
                stats: report.stats.clone(),
                group: None,
            })
        })
    }
}

// ---------------------------------------------------------------------------
// coop_lookback

const COOP_N: usize = 4096;
const COOP_POOL: usize = 2;

fn group_obs(gm: &GroupMetrics, cpu_s: Option<f64>) -> GroupObs {
    let busy: Vec<f64> = gm.lanes.iter().map(|l| l.busy_seconds * 1e3).collect();
    let max = busy.iter().copied().fold(0.0, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    GroupObs {
        steals: gm.steal_events() as u64,
        busy_max_ms: max,
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        cpu_s,
    }
}

/// One 4096² image per op, cooperatively across a 2-device group with the
/// paper's look-back kernel stretched over row bands.
struct CoopLookback {
    group: DeviceGroup,
    pool: Vec<(Matrix<u32>, Matrix<u32>)>,
    first: Option<BlockStats>,
}

impl CoopLookback {
    fn new(seed: u64) -> Self {
        let pool = (0..COOP_POOL as u64)
            .map(|k| {
                let a = input(COOP_N, seed, k);
                let sat = satcore::reference::sat(&a);
                (a, sat)
            })
            .collect();
        // Two devices with one host worker each: two in all.
        CoopLookback { group: DeviceGroup::with_member_config(titan_v(1), 2), pool, first: None }
    }
}

impl Workload for CoopLookback {
    fn kinds(&self) -> &'static [&'static str] {
        &["coop_skss_lb"]
    }

    fn op(&mut self, i: u64, rec: &mut Recorder) -> OpOutcome {
        let (a, sat) = &self.pool[(i % COOP_POOL as u64) as usize];
        let (group, first, n) = (&self.group, &mut self.first, COOP_N);
        rec.op(i, |rec| {
            let (input, output) = rec.span("matrix.upload", || (a.to_device(), GlobalBuffer::zeroed(n * n)));
            let ((report, gm), call_ms, cpu_s) = timed_call(rec, "group.call", || {
                sat_huge_multi_device(group, SatParams::paper(W), CoopKernel::SkssLb, &input, &output, n)
            });
            let got = rec.span("matrix.download", || Matrix::from_device(&output, n, n));
            let out_ok = rec.span("verify", || got == *sat);
            rec.span("metrics", || {
                let cfg = group.device(0).config();
                let s = &report.stats;
                // The per-kernel split is not in the public result; the two
                // terms linear in aggregate counters are exact from it.
                let launch = report.kernels as f64 * cfg.kernel_launch_overhead;
                let d2d = s.d2d_transfers as f64 * cfg.d2d_latency + s.d2d_bytes as f64 / cfg.d2d_bandwidth;
                OpOutcome {
                    ok: out_ok & counters_match(first, report.deterministic_lookback()),
                    elems: (n * n) as u64,
                    kind: 0,
                    modeled_ms: gm.modeled_completion_seconds() * 1e3,
                    call_ms,
                    kernels: report.kernels as u64,
                    kernel_host_ms: None,
                    terms_ms: [launch * 1e3, 0.0, 0.0, 0.0, 0.0, d2d * 1e3],
                    stats: report.stats.clone(),
                    group: Some(group_obs(&gm, cpu_s)),
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_seed_and_stream() {
        assert_eq!(input(8, 1, 0), input(8, 1, 0));
        assert_ne!(input(8, 1, 0), input(8, 2, 0));
        assert_ne!(input(8, 1, 0), input(8, 1, 1));
        assert!(input(8, 3, 0).as_slice().iter().all(|&v| (v as u64) < VALUE_LIMIT));
    }

    #[test]
    fn largest_sat_cannot_wrap() {
        assert!((COOP_N * COOP_N) as u64 * (VALUE_LIMIT - 1) < u32::MAX as u64);
    }

    #[test]
    fn counters_adopt_then_compare() {
        let mut reference = None;
        let a = BlockStats { global_reads: 3, ..BlockStats::default() };
        assert!(counters_match(&mut reference, a.clone()));
        assert!(counters_match(&mut reference, a.clone()));
        assert!(!counters_match(&mut reference, BlockStats { global_reads: 4, ..a }));
    }
}
